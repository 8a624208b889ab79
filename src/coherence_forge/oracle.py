"""Brute-force validation oracle for the filter synthesizers.

Exhaustive enumeration of diagonal-filter intensities on a uniform grid,
restricted to a tolerance band around the requested success probability,
followed by constraint-projected coordinate descent. The search space is a
subset of the feasible filters, so the oracle objective never exceeds the
true optimum; a synthesizer passes when the oracle cannot beat it.

Every objective is evaluated on numpy batches of intensity vectors. For a
mixed input and the relative-entropy target a batch goes through
``statecore.apply_filter_rows``, which checks each filtered state as
``apply_filter`` and ``QState`` check it and diagonalizes the batch with one
stacked ``eigvalsh`` per bounded slice. The P_S band of each grid head is
read off the tail block sorted by success probability, and each refinement
sweep evaluates its trial moves in one batch. Candidates, their order and
the first-improvement order are those of a one-candidate-at-a-time search,
so results match it bit for bit. A search is rejected before any work when
its tail block exceeds ``MAX_TAIL_ROWS`` rows or its grid exceeds
``MAX_GRID_POINTS`` points.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleGrid
from .statecore import (
    DiagonalFilter,
    EnergySpectrum,
    QState,
    _row_entropy,
    apply_filter,
    apply_filter_rows,
    coherence,
    coherence_rows,
    coherence_tsallis,
    mean_energy,
)
from .synthesis import FilterTarget, FrontierPoint, _check_success_range

_REFINE_FLOOR = 1e-6
# Slack on the sorted-P_S window of a grid head, far above the round-off of
# tail P_S + head P_S; the exact band test is applied inside the window.
_BAND_MARGIN = 1e-9
# Rows of the tail block (every grid value of the last min(d, 3)
# intensities), built whole before the search: 24 MB of float64 at the limit,
# which admits grid_step 0.01 (101^3 rows).
MAX_TAIL_ROWS = 2**20
# Grid points of a whole search (heads x tail rows). The head loop makes one
# band window and one objective batch per head, so this bounds its time: at
# the limit a d = 6 search (16^6 points, 4096 heads) took 1.3 s for the
# energy target and 51 s for the relative entropy of a mixed state, on 2
# cores. It admits d = 4 at grid_step 0.02 (51^4 points) and d = 5 at 0.1,
# but not d = 5 at 0.02 (51^5 points: 5-10 s for a pure state, 5 minutes
# for the relative entropy of a mixed one).
MAX_GRID_POINTS = 2**24


@dataclass(frozen=True)
class OracleResult:
    filter: DiagonalFilter
    objective: float
    p_success: float
    grid_step: float


@dataclass(frozen=True)
class FrontierCheckEntry:
    p_success: float
    synthesized_objective: float
    oracle_objective: float
    shortfall: float


@dataclass(frozen=True)
class FrontierReport:
    entries: tuple[FrontierCheckEntry, ...]
    max_shortfall: float
    passed: bool


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
    """Vectorized objective over batches of intensity vectors."""

    def __init__(self, state: QState, spectrum: EnergySpectrum, target: FilterTarget):
        self.target = target
        self.pops = np.clip(state.populations, 0.0, None)
        self.levels = spectrum.levels
        self.pure = state.is_pure()
        self.state = state
        self.overlap = np.abs(state.matrix) ** 2
        np.fill_diagonal(self.overlap, 0.0)

    def __call__(self, m: np.ndarray, ps: np.ndarray) -> np.ndarray:
        m = np.atleast_2d(m)
        ps = np.atleast_1d(ps)
        if self.target is FilterTarget.ENERGY:
            return (m * self.pops * self.levels).sum(axis=1) / ps
        if self.target is FilterTarget.COHERENCE_TSALLIS:
            return np.einsum("ni,ij,nj->n", m, self.overlap, m) / ps**2
        if self.pure:
            with np.errstate(divide="ignore", invalid="ignore"):
                return _row_entropy(m * self.pops / ps[:, None])
        coeffs = np.sqrt(np.clip(m, 0.0, 1.0)).astype(complex)
        _, populations, eigenvalues = apply_filter_rows(self.state.matrix, coeffs)
        return coherence_rows(populations, eigenvalues)


def _grid_axis_length(grid_step: float) -> float:
    """``len(_grid_axis(grid_step))`` without building the axis; inf when
    ``1 / grid_step`` overflows."""
    n = float(np.ceil((1.0 + 0.5 * grid_step) / grid_step))  # np.arange's length
    return n + (min((n - 1.0) * grid_step, 1.0) < 1.0 - 1e-12)


def _grid_axis(grid_step: float) -> np.ndarray:
    axis = np.arange(0.0, 1.0 + 0.5 * grid_step, grid_step)
    axis = np.minimum(axis, 1.0)
    if axis[-1] < 1.0 - 1e-12:
        axis = np.append(axis, 1.0)
    return axis


def _fractional(m: np.ndarray, pops: np.ndarray) -> list[int]:
    return [
        int(j)
        for j in np.flatnonzero((m > 1e-12) & (m < 1.0 - 1e-12) & (pops > 1e-14))
    ]


def _project(
    vec: np.ndarray, comp: int, pops: np.ndarray, p_success: float
) -> np.ndarray | None:
    """Rescale one coordinate so the success probability is exactly on target."""
    rest = float(np.dot(vec, pops)) - vec[comp] * pops[comp]
    val = (p_success - rest) / pops[comp]
    if not -1e-12 <= val <= 1.0 + 1e-12:
        return None
    out = vec.copy()
    out[comp] = min(max(val, 0.0), 1.0)
    return out


def _snap_to_constraint(
    m: np.ndarray, objective: _Objective, pops: np.ndarray, p_success: float
) -> tuple[np.ndarray, float] | None:
    """Best exact-constraint projection of a banded grid candidate, or the
    candidate itself when it already sits on the constraint.

    Prefers rescaling a fractional coordinate (preserving the boundary
    pattern); when the pattern cannot absorb the gap, the nearest boundary
    coordinate is moved instead.
    """
    if abs(float(np.dot(m, pops)) - p_success) <= 1e-12:
        return m.copy(), float(objective(m[None, :], np.array([p_success]))[0])
    for compensators in (
        _fractional(m, pops),
        [int(j) for j in np.flatnonzero(pops > 1e-14)],
    ):
        snapped = [
            vec
            for vec in (_project(m, comp, pops, p_success) for comp in compensators)
            if vec is not None
        ]
        if snapped:
            vals = objective(np.array(snapped), np.full(len(snapped), p_success))
            best = int(np.argmax(vals))
            return snapped[best], float(vals[best])
    return None


def _values(objective: _Objective, rows: list[np.ndarray], pops: np.ndarray) -> np.ndarray:
    """Objective of each intensity vector at its own success probability."""
    return objective(np.array(rows), np.array([float(np.dot(vec, pops)) for vec in rows]))


def _refine(
    m: np.ndarray,
    objective: _Objective,
    pops: np.ndarray,
    p_success: float,
    grid_step: float,
) -> np.ndarray:
    """Constraint-projected coordinate descent on the fractional coordinates.

    The boundary pattern (coordinates at 0 or 1) found by the grid is kept;
    a designated fractional coordinate re-absorbs each trial move so the
    success probability stays exactly on target.

    A sweep tries the moves (j, comp, sign) in a fixed order and takes the
    first that improves. The moves left in the sweep are built from the
    current ``m`` and evaluated in one batch; after an improvement the moves
    that follow it are rebuilt from the new ``m``.
    """
    m = m.copy()
    frac = _fractional(m, pops)
    if not frac:
        return m
    moves = [(j, comp, sign) for j in frac for comp in frac if comp != j for sign in (1.0, -1.0)]

    best_val = float(_values(objective, [m], pops)[0])
    step = grid_step
    while step > _REFINE_FLOOR:
        improved = False
        start = 0
        while start < len(moves):
            trials, after = [], []
            for k in range(start, len(moves)):
                j, comp, sign = moves[k]
                trial = m.copy()
                trial[j] += sign * step
                if not 0.0 <= trial[j] <= 1.0:
                    continue
                trial = _project(trial, comp, pops, p_success)
                if trial is not None:
                    trials.append(trial)
                    after.append(k + 1)
            if not trials:
                break
            vals = _values(objective, trials, pops)
            better = np.flatnonzero(vals > best_val + 1e-15)
            if not better.size:
                break
            i = int(better[0])
            m, best_val, start = trials[i], float(vals[i]), after[i]
            improved = True
        if not improved:
            step *= 0.5
    return m


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
    _check_success_range(p_success, 0.0, "P_S must be positive", open_lower=True)
    if tolerance is None:
        tolerance = grid_step
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be a positive finite number, got {tolerance!r}")
    if state.dim != spectrum.dim:
        raise DomainError("state and spectrum dimensions differ")
    tail_rows = _grid_axis_length(grid_step) ** min(d, 3)
    if tail_rows > MAX_TAIL_ROWS:
        raise DomainError(
            f"grid_step {grid_step!r} needs {tail_rows:.0f} tail rows at dimension {d}; "
            f"the limit is {MAX_TAIL_ROWS}"
        )
    points = _grid_axis_length(grid_step) ** d
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
    lexicographically smallest filter; the search is fully deterministic.
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
    tail = (
        np.stack(
            np.meshgrid(*([axis] * n_tail), indexing="ij"), axis=-1
        ).reshape(-1, n_tail)
        if n_tail
        else np.zeros((1, 0))
    )
    tail_ps = tail @ pops[n_head:]
    tail_order = np.argsort(tail_ps, kind="stable")
    sorted_ps = tail_ps[tail_order]
    pops_head = pops[:n_head]
    reach = tolerance + _BAND_MARGIN
    # Best banded candidate under each head. Only the tail rows inside the
    # head's window of sorted_ps are tested, in their original order.
    winners = []
    for head in itertools.product(*([axis.tolist()] * n_head)):
        offset = float(np.dot(head, pops_head))
        lo, hi = np.searchsorted(sorted_ps, (p_success - offset - reach, p_success - offset + reach))
        rows = np.sort(tail_order[lo:hi])
        ps = tail_ps[rows] + offset
        mask = (np.abs(ps - p_success) <= tolerance) & (ps > 1e-12)
        if not mask.any():
            continue
        cand_tail = tail[rows[mask]]
        cand_ps = ps[mask]
        full = np.concatenate(
            [np.broadcast_to(head, (cand_tail.shape[0], n_head)), cand_tail], axis=1
        )
        vals = objective(full, cand_ps)
        i = int(np.argmax(vals))
        winners.append((float(vals[i]), full[i].copy(), float(cand_ps[i])))
    if not winners:
        raise InfeasibleGrid(
            "no grid point satisfies the success-probability tolerance; "
            "loosen the tolerance or refine the grid"
        )

    # Banded candidates are only comparable after exact projection: a lower
    # actual P_S inside the band would otherwise inflate the objective.
    start: tuple[np.ndarray, float] | None = None
    for _, cand, _ in winners:  # head order keeps ties lexicographic
        snapped = _snap_to_constraint(cand, objective, pops, p_success)
        if snapped is not None and (start is None or snapped[1] > start[1]):
            start = snapped
    if start is None:
        # every winner is stuck on the box boundary; fall back to the best
        # raw candidate with its own (banded) success probability
        raw = max(winners, key=lambda r: r[0])
        return OracleResult(
            filter=DiagonalFilter(np.sqrt(np.clip(raw[1], 0.0, 1.0)).astype(complex)),
            objective=raw[0],
            p_success=raw[2],
            grid_step=grid_step,
        )

    refined = _refine(start[0], objective, pops, p_success, grid_step)
    actual_ps = float(np.dot(refined, pops))
    value = float(objective(refined[None, :], np.array([actual_ps]))[0])
    return OracleResult(
        filter=DiagonalFilter(np.sqrt(np.clip(refined, 0.0, 1.0)).astype(complex)),
        objective=value,
        p_success=actual_ps,
        grid_step=grid_step,
    )


def verify_frontier(
    points: list[FrontierPoint],
    state: QState,
    spectrum: EnergySpectrum,
    target: FilterTarget,
    samples: int,
    grid_step: float = 0.05,
    tolerance: float | None = None,
    seed: int = 0,
) -> FrontierReport:
    """Re-run the oracle at sampled frontier points and report the worst
    objective shortfall of the synthesized filters. Passes when the oracle
    never beats a sampled point by more than 1e-3."""
    if not points:
        raise DomainError("frontier is empty")
    if not isinstance(samples, numbers.Integral) or samples < 1:
        raise DomainError(f"samples must be at least 1 and an integer, got {samples!r}")
    rng = np.random.default_rng(seed)
    count = min(samples, len(points))
    idx = sorted(rng.choice(len(points), size=count, replace=False).tolist())
    entries = []
    worst = 0.0
    for i in idx:
        point = points[i]
        synth = objective_value(state, spectrum, target, point.filter)
        res = grid_search(
            state,
            spectrum,
            target,
            point.p_success,
            grid_step=grid_step,
            tolerance=tolerance,
        )
        shortfall = res.objective - synth
        worst = max(worst, shortfall)
        entries.append(
            FrontierCheckEntry(
                p_success=point.p_success,
                synthesized_objective=synth,
                oracle_objective=res.objective,
                shortfall=shortfall,
            )
        )
    return FrontierReport(entries=tuple(entries), max_shortfall=worst, passed=worst <= 1e-3)
