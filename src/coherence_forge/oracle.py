"""Brute-force validation oracle for the filter synthesizers.

:func:`grid_search` enumerates diagonal-filter intensities on a uniform
grid, restricted to a tolerance band around the requested success
probability, then runs constraint-projected coordinate descent. The search
space is a subset of the feasible filters, so the oracle objective never
exceeds the true optimum; a synthesizer passes when the oracle cannot beat
the :func:`objective_value` of its filter at the same P_S.

Every batch of intensity vectors is scored by ``_Objective``. The energy,
pure-state relative-entropy and Tsallis targets are scored term by term in
one fixed order by ``_Objective.columns``, so a candidate's value does not
depend on its batch; a grid head scores its band straight from the columns
of the sorted tail block, with its own intensities as scalars, and builds
only the winning row. For a mixed input and the relative-entropy target the
rows (a grid head's columns stacked into rows) go to
``statecore.apply_filter_rows``, which checks each filtered state as
``apply_filter`` and ``QState`` check it and diagonalizes the batch with one
stacked ``eigvalsh`` per bounded slice; it is the only objective that can
raise, and a batch raises what its first failing row would raise.
The tail block (every grid value of the last min(d, 3) intensities) is
built once; its rows that some grid head's P_S band can reach are sorted by
success probability and kept as contiguous columns, so the band of each head
is one contiguous run of them and its candidates are evaluated in P_S order;
of a head's maximal candidates the one first in enumeration order wins.
The heads' winners are snapped onto the exact constraint in one batch: every
winner's projections are built as arrays and scored in one objective call.
The refinement builds its trial moves as one array (the move, its box test
and the projection onto the exact P_S), and one objective call scores three
segments of them: the moves left in the current pass, the moves the next
pass at that step tries first, and every move at the halved step. So a chain
of failing step levels costs one call per two levels. The first call also
scores the starting point, and the refinement returns the value of the point
it ends on. Every per-row P_S in the snap and the refinement is the stacked
product ``rows[:, None, :] @ pops[:, None]``, which equals
``float(np.dot(row, pops))`` of each row bit for bit, so bit identity with
the one-vector search rests on that identity; it is verified, by
``tests/test_oracle_reference.py``, only on the numpy and BLAS builds CI runs.
The candidates, the winners and the first-improvement order are those of a
one-candidate-at-a-time search, so results for the energy and both
relative-entropy targets match it bit for bit. The Tsallis target sums its
pair terms in another order than a matrix product, so its values agree
with that search only to within the last bits (1e-14 relative), and a
refinement that meets a near-tie at that level can end at another point,
whose objective agrees to within 1e-12 relative. Which error is raised can
differ: when the filtered-state checks reject several candidates of one
band, the first of them in P_S order raises, not the first in enumeration
order; and a refinement segment raises for a failing trial after its first
improving one, which the one-candidate search never scores. A search is
rejected before any work when its tail block exceeds ``MAX_TAIL_ROWS`` rows
or its grid exceeds ``MAX_GRID_POINTS`` points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleGrid
from .statecore import (
    DiagonalFilter,
    EnergySpectrum,
    QState,
    _entropy_terms,
    apply_filter,
    apply_filter_rows,
    coherence,
    coherence_rows,
    coherence_tsallis,
    mean_energy,
)
from .synthesis import FilterTarget, _check_success_range

_REFINE_FLOOR = 1e-6
# Slack on the sorted-P_S window of a grid head, far above the round-off of
# tail P_S + head P_S; the exact band test is applied inside the window.
_BAND_MARGIN = 1e-9
# Rows of the tail block (every grid value of the last min(d, 3)
# intensities). Its lattice is built whole to compute each row's P_S and freed
# before the search: 24 MB of float64 at the limit, which admits grid_step
# 0.01 (101^3 rows).
MAX_TAIL_ROWS = 2**20
# Grid points of a whole search (heads x tail rows). The head loop makes one
# band slice and one objective batch per head, so this bounds its time: at
# the limit a d = 6 search (16^6 points, 4096 heads, P_S 0.5, 2 cores) took
# 0.3-0.6 s for the energy and 0.5-0.7 s for the Tsallis target on a random
# full-rank state, 0.7-1.1 s for the relative entropy of a random pure state
# and 44-45 s for the relative entropy of a mixed one. It admits d = 4 at
# grid_step 0.02 (51^4 points) and d = 5 at 0.1, but not d = 5 at 0.02 (51^5
# points: 5-10 s for a pure state, 5 minutes for the relative entropy of a
# mixed one).
MAX_GRID_POINTS = 2**24


@dataclass(frozen=True)
class OracleResult:
    filter: DiagonalFilter
    objective: float
    p_success: float


def objective_value(
    state: QState, spectrum: EnergySpectrum, target: FilterTarget, filt: DiagonalFilter
) -> float:
    """Target measure of the normalized filtered state."""
    out, _ = apply_filter(state, filt)
    if target is FilterTarget.ENERGY:
        return mean_energy(out, spectrum)
    if target is FilterTarget.COHERENCE:
        return coherence(out)
    return coherence_tsallis(out)


class _Objective:
    """Target measure of intensity vectors, scored from their columns.

    ``columns`` adds a target's terms in one fixed left-to-right order,
    starting from +0.0: energy ``(m_j pops_j) levels_j``; pure-state relative
    entropy the ``_entropy_terms`` of ``(m_j pops_j) / ps``; Tsallis
    ``(m_i m_j) w_ij`` over the pairs i < j, with ``w_ij = |rho_ij|^2 +
    |rho_ji|^2``. Every term is elementwise, so a row's value does not depend
    on the batch it is evaluated in. numpy sums rows shorter than 8 terms in
    the same order from the same +0.0, so for d <= 6 the energy and coherence
    values equal the row sums of the same terms bit for bit. The mixed-state
    relative entropy is scored on rows by ``apply_filter_rows``: calling the
    objective passes it a row batch as it is, and ``columns`` stacks its
    columns into rows first. For the other targets, calling the objective
    scores the columns of a row batch.
    """

    def __init__(self, state: QState, spectrum: EnergySpectrum, target: FilterTarget):
        self.target = target
        self.pops = np.clip(state.populations, 0.0, None)
        self.pure = state.is_pure()
        self.state = state
        self._pops = self.pops.tolist()
        self._levels = spectrum.levels.tolist()
        overlap = np.abs(state.matrix) ** 2
        self._pairs = [
            (i, j, float(overlap[i, j] + overlap[j, i]))
            for i, j in itertools.combinations(range(state.dim), 2)
        ]

    def __call__(self, m: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """Objective of each row of the ``(n, d)`` intensities ``m`` at the
        success probabilities ``ps``."""
        if self.target is FilterTarget.COHERENCE and not self.pure:
            return self._mixed_rows(m)
        return self.columns(list(m.T), ps)

    def columns(self, cols, ps: np.ndarray) -> np.ndarray:
        """Objective of the rows whose intensities are ``cols``, one scalar
        or one column per level, at the success probabilities ``ps``."""
        acc = 0.0
        if self.target is FilterTarget.ENERGY:
            for m_j, p_j, e_j in zip(cols, self._pops, self._levels):
                acc = acc + (m_j * p_j) * e_j
            return acc / ps
        if self.target is FilterTarget.COHERENCE_TSALLIS:
            for i, j, w in self._pairs:
                acc = acc + (cols[i] * cols[j]) * w
            return acc / ps**2
        if self.pure:
            with np.errstate(divide="ignore", invalid="ignore"):
                for m_j, p_j in zip(cols, self._pops):
                    acc = acc + _entropy_terms((m_j * p_j) / ps)
            return acc
        m = np.empty((len(ps), len(cols)))
        for j, m_j in enumerate(cols):
            m[:, j] = m_j
        return self._mixed_rows(m)

    def _mixed_rows(self, m: np.ndarray) -> np.ndarray:
        """Relative-entropy coherence of the mixed input filtered by each row
        of the intensities ``m``."""
        coeffs = np.sqrt(np.clip(m, 0.0, 1.0)).astype(complex)
        _, populations, eigenvalues = apply_filter_rows(self.state.matrix, coeffs)
        return coherence_rows(populations, eigenvalues)


def _grid_axis_length(grid_step: float) -> float:
    """``len(_grid_axis(grid_step))`` without building the axis; inf when
    ``1 / grid_step`` overflows."""
    n = float(np.ceil((1.0 + 0.5 * grid_step) / grid_step))  # np.arange's length
    return n + (min((n - 1.0) * grid_step, 1.0) < 1.0 - 1e-12)


def _grid_size(grid_step: float, k: int) -> float:
    """Grid points of ``k`` intensities, ``_grid_axis_length(grid_step) ** k``;
    inf when the power overflows a float, as it does from grid_step 1e-103 on
    at k = 3."""
    try:
        return _grid_axis_length(grid_step) ** k
    except OverflowError:
        return math.inf


def _grid_axis(grid_step: float) -> np.ndarray:
    axis = np.arange(0.0, 1.0 + 0.5 * grid_step, grid_step)
    axis = np.minimum(axis, 1.0)
    if axis[-1] < 1.0 - 1e-12:
        axis = np.append(axis, 1.0)
    return axis


def _tail_columns(axis: np.ndarray, k: int, index: np.ndarray) -> list[np.ndarray]:
    """The rows of the ``k``-intensity grid in meshgrid ("ij") order at the
    enumeration indices ``index``, as ``k`` contiguous columns: column j of
    row r is ``axis[r // n**(k - 1 - j) % n]``."""
    n = axis.size
    cols = []
    for j in range(k):
        digit = index // n ** (k - 1 - j)
        digit %= n
        cols.append(axis.take(digit))
    return cols


def _fractional(m: np.ndarray, pops: np.ndarray) -> list[int]:
    return [
        int(j)
        for j in np.flatnonzero((m > 1e-12) & (m < 1.0 - 1e-12) & (pops > 1e-14))
    ]


def _row_dots(rows: np.ndarray, pops: np.ndarray) -> np.ndarray:
    """``float(np.dot(row, pops))`` of each row of ``rows``, bit for bit: the
    stacked product takes one vector dot per row (a 2-D ``rows @ pops``
    rounds otherwise)."""
    return (rows[:, None, :] @ pops[:, None])[:, 0, 0]


def _refine(
    m: np.ndarray,
    objective: _Objective,
    pops: np.ndarray,
    p_success: float,
    grid_step: float,
) -> tuple[np.ndarray, float]:
    """Constraint-projected coordinate descent on the fractional coordinates;
    returns the point it ends on and the objective value of that point.

    The boundary pattern (coordinates at 0 or 1) found by the grid is kept;
    a designated fractional coordinate re-absorbs each trial move so the
    success probability stays exactly on target.

    The walk: a pass tries the moves (j, comp, sign) in a fixed order and
    takes each one that improves the current value by more than 1e-15; a
    pass that improved is followed by another at the same step, one that did
    not halves the step, until it is at most ``_REFINE_FLOOR``. A trial moves
    coordinate j to ``m[j] + sign*step``, which must stay in [0, 1]; coordinate
    comp becomes ``(P_S - rest) / pops[comp]``, with ``rest`` the trial's P_S
    without comp, and must lie in [-1e-12, 1 + 1e-12] before it is clipped to
    [0, 1].

    One objective call scores three segments of trials from the current
    point, in walk order: the moves left in the pass; the moves ahead of
    them, which the next pass at this step tries first (only once the pass
    has improved; the rest of that pass are the moves just scored from the
    same point); and every move at the halved step. The first call also
    scores the starting point. A row's value does not depend on its batch,
    so the first improving row is the one the walk takes, and the next call
    starts from it. Only the mixed relative-entropy objective can raise: if
    a batch raises, its segments are scored one at a time in walk order, up
    to the first that improves, so the error raised is the one the walk
    meets.
    """
    frac = _fractional(m, pops)
    pairs = [(j, comp) for j in frac for comp in frac if comp != j]
    if not pairs or grid_step <= _REFINE_FLOOR:
        return m, float(objective(m[None, :], _row_dots(m[None, :], pops))[0])
    moved_at, comp_at = np.repeat(pairs, 2, axis=0).T
    signs = np.tile([1.0, -1.0], len(pairs))
    n = signs.size
    every = np.arange(n)
    best_val = None  # the starting point is scored with the first batch
    step, start = grid_step, 0  # start > 0: the pass has improved
    while step > _REFINE_FLOOR:
        half = step * 0.5
        sizes = (n - start, start, n if half > _REFINE_FLOOR else 0)
        moves = np.concatenate([every[start:], every[:start], every[: sizes[2]]])
        steps = np.repeat((step, step, half), sizes)
        j, comp = moved_at[moves], comp_at[moves]
        at = np.arange(moves.size)
        trials = np.repeat(m[None, :], moves.size, axis=0)
        moved = m[j] + signs[moves] * steps
        trials[at, j] = moved
        val = (p_success - (_row_dots(trials, pops) - m[comp] * pops[comp])) / pops[comp]
        trials[at, comp] = np.clip(val, 0.0, 1.0)
        keep = np.flatnonzero(
            (moved >= 0.0) & (moved <= 1.0) & (val >= -1e-12) & (val <= 1.0 + 1e-12)
        )
        opening = best_val is None
        rows = np.concatenate([m[None, :], trials[keep]]) if opening else trials[keep]
        better = keep[:0]  # with no trial to score, none improves
        if rows.size:
            try:
                vals = objective(rows, _row_dots(rows, pops))
            except DomainError:
                cuts = np.searchsorted(keep, np.cumsum(sizes)) + opening
                vals = _segment_scores(objective, rows, pops, [0, opening, *cuts], best_val)
            if opening:
                best_val = float(vals[0])
            better = np.flatnonzero(vals[opening:] > best_val + 1e-15)
        if better.size:
            i = int(better[0])
            m, best_val = rows[opening + i], float(vals[opening + i])
            start = int(moves[keep[i]]) + 1
            if keep[i] >= n:  # found at the halved step
                step = half
        else:
            # the halved step failed too; when it was not scored (at most
            # _REFINE_FLOOR), the walk ends either way
            step, start = half * 0.5, 0
    return m, best_val


def _segment_scores(
    objective: _Objective,
    rows: np.ndarray,
    pops: np.ndarray,
    bounds: list[int],
    best_val: float | None,
) -> np.ndarray:
    """Objective of ``rows`` one segment ``rows[bounds[k]:bounds[k + 1]]``
    at a time, in order, up to the first segment with a value above
    ``best_val + 1e-15``; the rows after it read -inf. When ``best_val`` is
    None, the first non-empty segment is the starting point and sets it."""
    vals = np.full(len(rows), -np.inf)
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        vals[lo:hi] = objective(rows[lo:hi], _row_dots(rows[lo:hi], pops))
        if best_val is None:
            best_val = vals[lo]
        elif (vals[lo:hi] > best_val + 1e-15).any():
            break
    return vals


def check_search_args(
    state: QState,
    spectrum: EnergySpectrum,
    p_success: float,
    grid_step: float,
    tolerance: float | None,
) -> float:
    """Reject the arguments :func:`grid_search` rejects, as it rejects them,
    without building anything; returns the band tolerance (default
    ``grid_step``)."""
    d = state.dim
    if d > 6:
        raise DomainError("oracle enumeration is limited to dimension <= 6")
    if not 0.0 < grid_step <= 0.5:
        raise DomainError("grid_step must lie in (0, 0.5]")
    _check_success_range(p_success, 0.0, "P_S must be positive")
    if tolerance is None:
        tolerance = grid_step
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be a positive finite number, got {tolerance!r}")
    if state.dim != spectrum.dim:
        raise DomainError("state and spectrum dimensions differ")
    tail_rows = _grid_size(grid_step, min(d, 3))
    if tail_rows > MAX_TAIL_ROWS:
        raise DomainError(
            f"grid_step {grid_step!r} needs {tail_rows:.0f} tail rows at dimension {d}; "
            f"the limit is {MAX_TAIL_ROWS}"
        )
    points = _grid_size(grid_step, d)
    if points > MAX_GRID_POINTS:
        raise DomainError(
            f"grid_step {grid_step!r} needs {points:.0f} grid points at dimension {d}; "
            f"the limit is {MAX_GRID_POINTS}"
        )
    return tolerance


def grid_search(
    state: QState,
    spectrum: EnergySpectrum,
    target: FilterTarget,
    p_success: float,
    grid_step: float = 0.02,
    tolerance: float | None = None,
) -> OracleResult:
    """Best filter on the intensity grid within the success-probability band.

    Enumerates intensities in {0, grid_step, ..., 1}^d, keeps candidates
    with |P_S - p_success| <= tolerance (default: grid_step), maximizes the
    target measure of the normalized output, then refines with step halving
    down to 1e-6 while projected on the exact constraint. Ties go to the
    lexicographically smallest filter: under one head, to the first maximal
    candidate in enumeration order (the P_S order of the sorted tail block
    does not decide); across heads, to the first head in enumeration order.
    The search is fully deterministic.
    A grid whose tail block (the last min(d, 3) intensities) has more than
    ``MAX_TAIL_ROWS`` rows, or whose ``len(axis)**d`` grid points exceed
    ``MAX_GRID_POINTS``, is rejected before anything is built.
    """
    tolerance = check_search_args(state, spectrum, p_success, grid_step, tolerance)
    d = state.dim
    n_tail = min(d, 3)
    n_head = d - n_tail
    pops = np.clip(state.populations, 0.0, None)
    objective = _Objective(state, spectrum, target)
    axis = _grid_axis(grid_step)
    n = axis.size
    # The tail lattice in meshgrid ("ij") order, written one column at a time.
    tail = np.empty((n,) * n_tail + (n_tail,))
    for j in range(n_tail):
        tail[..., j] = axis.reshape([n if i == j else 1 for i in range(n_tail)])
    tail_ps = tail.reshape(-1, n_tail) @ pops[n_head:]
    del tail
    pops_head = pops[:n_head]
    heads = list(itertools.product(*([axis.tolist()] * n_head)))
    offsets = [float(np.dot(head, pops_head)) for head in heads]
    reach = tolerance + _BAND_MARGIN
    # Every head's window below lies inside [lowest, highest], so only the
    # tail rows in there are sorted; the order holds their enumeration indices.
    lowest = p_success - max(offsets) - reach
    highest = p_success - min(offsets) + reach
    tail_order = np.flatnonzero((tail_ps >= lowest) & (tail_ps <= highest))
    tail_order = tail_order[np.argsort(tail_ps[tail_order])]
    sorted_ps = tail_ps[tail_order]
    del tail_ps
    cols = _tail_columns(axis, n_tail, tail_order)
    # Best banded candidate under each head. The band is one contiguous run
    # of the sorted tail; of its maximal candidates the one first in
    # enumeration order wins.
    winners = []
    for head, offset in zip(heads, offsets):
        lo, hi = np.searchsorted(sorted_ps, (p_success - offset - reach, p_success - offset + reach))
        ps = sorted_ps[lo:hi] + offset
        band = (np.abs(ps - p_success) <= tolerance) & (ps > 1e-12)
        count = int(np.count_nonzero(band))
        if not count:
            continue
        skip = int(np.argmax(band))
        cand_ps = ps[skip : skip + count]
        lo += skip
        vals = objective.columns((*head, *(col[lo : lo + count] for col in cols)), cand_ps)
        i = int(np.argmax(vals))
        tied = np.flatnonzero(vals == vals[i])
        if tied.size > 1:
            i = int(tied[np.argmin(tail_order[lo + tied])])
        row = np.array([*head, *(col[lo + i] for col in cols)])
        winners.append((float(vals[i]), row, float(cand_ps[i])))
    if not winners:
        raise InfeasibleGrid(
            "no grid point satisfies the success-probability tolerance; "
            "loosen the tolerance or refine the grid"
        )

    # Banded candidates are only comparable after exact projection: a lower
    # actual P_S inside the band would otherwise inflate the objective. A
    # winner on the constraint (to 1e-12) is its own projection; otherwise
    # each coordinate in turn absorbs the gap, from the fractional ones when
    # one of them can (keeping the boundary pattern), else from every
    # populated one. All projections are scored in one batch, in head order
    # and coordinate order, so its first maximum is each winner's first
    # maximum, taken where a later winner does not strictly beat it.
    cand = np.array([row for _, row, _ in winners])
    dots = _row_dots(cand, pops)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (p_success - (dots[:, None] - cand * pops)) / pops
    fits = (val >= -1e-12) & (val <= 1.0 + 1e-12) & (pops > 1e-14)
    frac = fits & (cand > 1e-12) & (cand < 1.0 - 1e-12)
    on = np.abs(dots - p_success) <= 1e-12
    tier = np.where(frac.any(axis=1)[:, None], frac, fits) & ~on[:, None]
    owner, comp = np.nonzero(np.column_stack([tier, on]))  # column d: the winner itself
    if not owner.size:
        # every winner is stuck on the box boundary; fall back to the best
        # raw candidate with its own (banded) success probability
        raw = max(winners, key=lambda r: r[0])
        return OracleResult(
            filter=DiagonalFilter(np.sqrt(np.clip(raw[1], 0.0, 1.0)).astype(complex)),
            objective=raw[0],
            p_success=raw[2],
        )
    snapped = cand[owner]
    proj = np.flatnonzero(comp < d)
    snapped[proj, comp[proj]] = np.clip(val[owner[proj], comp[proj]], 0.0, 1.0)
    start = snapped[int(np.argmax(objective(snapped, np.full(owner.size, p_success))))]

    refined, value = _refine(start, objective, pops, p_success, grid_step)
    return OracleResult(
        filter=DiagonalFilter(np.sqrt(np.clip(refined, 0.0, 1.0)).astype(complex)),
        objective=value,
        p_success=float(np.dot(refined, pops)),
    )

