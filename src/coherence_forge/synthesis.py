"""Synthesis of optimal diagonal filters and trade-off frontiers.

The central objects are the filter families that, at a prescribed success
probability, maximize the output mean energy (zero out the lowest-energy
levels first), the output relative-entropy coherence of a pure state
(water-fill the populations toward a uniform output), or the output
purity-based coherence of an arbitrary state (boundary enumeration plus a
linear stationarity system). Closed forms for a symmetric two-qubit
product state, a thermal maximum-coherence benchmark, frontier tracing and
the restricted mixed-state scan complete the surface.

The purity-based optimum is exact and exponential: for n populated levels
it solves the bordered KKT system of all 3^n assignments of the levels to 0,
1 or free, in batches that share the inverse of one block per free set (2^n
blocks: an LU inverse that is checked against the block, or the
pseudo-inverse where that check fails). It keeps a solution whose
stationarity residual is at most 1e-8 and whose P_S residual is at most
1e-12 P_S, breaks gain ties (1e-15 P_S^2) by the lexicographic minimum with
a 1e-12 P_S tolerance per level, and rejects states with more than
``TSALLIS_MAX_LEVELS`` = 12 populated levels.

The factorized family is computed over a whole vector of success
probabilities, its ``b`` by one lockstep Brent iteration;
``factorized_filter`` is that code on one row. ``trace_frontier`` calls the
closed-form optimal synthesizers once per grid point, takes the factorized
grid in one batch and measures every filter with one
``statecore.apply_filter_rows`` call. Per point, the energy and water-fill
synthesizers only read what the spectrum and the state compute once per
object (the degeneracy classes, the populations and the purity) and do their
per-level arithmetic on Python floats, in the order of the numpy expressions
they replace, so their filters are the same bit for bit. ``mixed_scan`` runs
the golden-section searches of its populations in lockstep, one batch per
step; every result equals the per-point computation bit for bit.
``plateau_threshold`` needs no search: the a=0 output depends on p and b only
through t = b^2 (1 - p)/p, so the plateau ends exactly at p = 1/(1 + t*),
where t* maximizes the output coherence C(t), and one bisection on the sign
of dC/dt finds that edge.

All synthesized filters carry nonnegative real coefficients; phases are
irrelevant to every scalar measure and belong to the optics layer.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, UnreachableSuccessProbability
from .statecore import (
    DEGENERACY_TOL,
    TWO_QUBIT_SPECTRUM,
    DiagonalFilter,
    EnergySpectrum,
    QState,
    QubitParams,
    ZERO_EIGENVALUE,
    ZERO_POPULATION,
    _ANNIHILATION_TOL,
    _BATCH_ROWS,
    apply_filter_rows,
    coherence_rows,
    mixed_qubit_product,
)

GOLDEN_TOL = 1e-8
_RANGE_TOL = 1e-12
# the most points a frontier grid or a CLI mixed scan may sample, 500 times
# the default grid of 200; checked before anything is allocated
MAX_SAMPLE_POINTS = 100_000


class FilterTarget(Enum):
    """Objective maximized by a synthesized filter."""

    ENERGY = "energy"
    COHERENCE = "coherence"
    COHERENCE_TSALLIS = "tsallis"


class FilterFamily(Enum):
    OPTIMAL = "optimal"
    FACTORIZED = "factorized"


@dataclass(frozen=True)
class FrontierPoint:
    """One sample of a trade-off curve: measures of the filtered state at p_success."""

    p_success: float
    coherence: float
    mean_energy: float
    filter: DiagonalFilter
    family: FilterFamily

    def measure(self, target: FilterTarget) -> float:
        """The measure a frontier for ``target`` plots: the mean energy for the
        energy target, the relative-entropy coherence otherwise."""
        return self.mean_energy if target is FilterTarget.ENERGY else self.coherence


@dataclass(frozen=True)
class TwoQubitFilterParams:
    """Symmetric two-qubit filter diag(a, b, b, 1); amplitudes in [0, 1]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.a <= 1.0 + 1e-12 and -1e-12 <= self.b <= 1.0 + 1e-12):
            raise DomainError("filter amplitudes a, b must lie in [0, 1]")

    def to_filter(self) -> DiagonalFilter:
        a = min(max(self.a, 0.0), 1.0)
        b = min(max(self.b, 0.0), 1.0)
        return DiagonalFilter(np.array([a, b, b, 1.0], dtype=complex))


@dataclass(frozen=True)
class MixedScanPoint:
    """Best a=0 filter for one mixed product state: optimized measures and b."""

    p: float
    coherence: float
    mean_energy: float
    b_opt: float


def _check_success_range(
    p_success: float, lo: float, below: str, above: str = "P_S exceeds 1"
) -> None:
    """Reject a non-finite P_S, a P_S at or below 0, one outside the reachable
    [lo, 1] by more than round-off, and then one below twice the annihilation
    floor: a filter made for a P_S at the floor may pass a little less. ``below``
    and ``above`` are format strings of ``lo``: a P_S in range costs no formatting."""
    if not math.isfinite(p_success):
        raise UnreachableSuccessProbability(f"P_S must be a finite number, got {p_success!r}")
    if p_success > 1.0 + _RANGE_TOL:
        raise UnreachableSuccessProbability(above.format(lo))
    if p_success <= 0.0 or p_success < lo - _RANGE_TOL:
        raise UnreachableSuccessProbability(below.format(lo))
    if p_success < 2.0 * _ANNIHILATION_TOL:
        raise UnreachableSuccessProbability(
            f"P_S below {2.0 * _ANNIHILATION_TOL:g}, twice the success probability "
            f"{_ANNIHILATION_TOL:g} under which a filter annihilates the state"
        )


def _clipped(state: QState) -> list[float]:
    """The state's populations with negative round-off raised to 0.0, as
    Python floats: ``np.clip(state.populations, 0.0, None).tolist()``."""
    return [x if x > 0.0 else 0.0 for x in state.populations.tolist()]


def _sum(values: list[float]) -> float:
    """``float(np.sum(values))``. numpy adds fewer than 8 terms one by one
    from +0.0, so a short list is added up the same way in Python."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# Energy-optimal family
# ---------------------------------------------------------------------------


def energy_optimal_filter(
    state: QState, spectrum: EnergySpectrum, p_success: float
) -> DiagonalFilter:
    """Filter maximizing output mean energy at the given success probability.

    The optimal structure zeroes every level below a cut energy, carries a
    single shared fractional amplitude on the degeneracy class at the cut,
    and passes everything above untouched. Reachable success probabilities
    are bounded below by the population of the highest-energy class.
    """
    if state.dim != spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    pops = _clipped(state)
    classes = [group.tolist() for group in spectrum.degeneracy_classes(DEGENERACY_TOL)]
    top_pop = _sum([pops[j] for j in classes[-1]])
    _check_success_range(
        p_success, top_pop, "P_S below the population {:.6g} of the highest-energy class"
    )

    amplitudes = [1.0] * state.dim
    to_remove = max(1.0 - min(p_success, 1.0), 0.0)
    for c, group in enumerate(classes):
        if to_remove <= 1e-15:
            break
        live = [j for j in group if pops[j] >= ZERO_POPULATION]
        group_pop = _sum([pops[j] for j in live])
        if group_pop <= 0.0:
            continue
        if group_pop <= to_remove:
            amplitude = 0.0
            to_remove -= group_pop
        else:
            kept = (group_pop - to_remove) / group_pop
            # snap round-off at the class boundaries to the crisp pattern; a
            # tiny kept fraction is a tiny P_S, not round-off, when no class
            # above passes population
            if kept < 1e-12:
                if any(pops[j] >= ZERO_POPULATION for above in classes[c + 1 :] for j in above):
                    kept = 0.0
            elif kept > 1.0 - 1e-12:
                kept = 1.0
            amplitude = math.sqrt(kept)
            to_remove = 0.0
        for j in live:
            amplitudes[j] = amplitude
    return DiagonalFilter(np.array(amplitudes, dtype=complex))


# ---------------------------------------------------------------------------
# Coherence-optimal family for pure states (water-filling)
# ---------------------------------------------------------------------------


def _waterfill_level(pops: list[float], p_success: float) -> float:
    """Solve sum_j min(K, p_j) = p_success for the common output ceiling K."""
    qs = sorted(pops)
    n = len(qs)
    prefix = 0.0  # the running sum of qs[:i], added up as np.cumsum adds it
    for i in range(n):
        lo = 0.0 if i == 0 else qs[i - 1]
        hi = qs[i]
        k = (p_success - prefix) / (n - i)
        if lo - 1e-15 <= k <= hi + 1e-15:
            return k
        prefix += hi
    return qs[-1]


def coherence_optimal_filter_pure(state: QState, p_success: float) -> DiagonalFilter:
    """Coherence-maximizing filter for a pure state at fixed success probability.

    Output intensities have the clipping form min(K/p_j, 1): every dominant
    population is attenuated down to a common ceiling while smaller ones
    pass untouched. Reachable down to full equalization of the populated
    levels; mixed inputs are rejected (use :func:`tsallis_optimal_filter`).
    """
    if not state.is_pure():
        raise DomainError(
            "input is not pure; the relative-entropy optimum is only "
            "closed-form for pure states (use tsallis_optimal_filter)"
        )
    pops = _clipped(state)
    active = [j for j, x in enumerate(pops) if x >= ZERO_POPULATION]
    if len(active) < 2:
        raise DomainError("state must populate at least two levels")
    act = [pops[j] for j in active]
    ps_min = _sum([min(act)] * len(act))
    _check_success_range(p_success, ps_min, "P_S below the full-equalization minimum {:.6g}")
    k = _waterfill_level(act, min(p_success, 1.0))
    amplitudes = [1.0] * state.dim
    for j, x in zip(active, act):
        amplitudes[j] = math.sqrt(min(k / x, 1.0))
    return DiagonalFilter(np.array(amplitudes, dtype=complex))


# ---------------------------------------------------------------------------
# Closed forms for the symmetric two-qubit product state
# ---------------------------------------------------------------------------


def success_threshold(p: float) -> float:
    """Success probability at which the energy-optimal filter stops
    attenuating only the lowest level: p(2 - p)."""
    return p * (2.0 - p)


def energy_upper_branch(p: float, p_success: float) -> TwoQubitFilterParams:
    """Energy-optimal branch attenuating only |00>: valid for P_S >= p(2-p)."""
    a = math.sqrt(max(p_success - success_threshold(p), 0.0)) / (1.0 - p)
    return TwoQubitFilterParams(a=a, b=1.0)


def energy_lower_branch(p: float, p_success: float) -> TwoQubitFilterParams:
    """Energy-optimal branch with |00> removed: valid for p^2 <= P_S < p(2-p)."""
    b = math.sqrt(max(p_success - p * p, 0.0) / (2.0 * p * (1.0 - p)))
    return TwoQubitFilterParams(a=0.0, b=b)


def coherence_upper_branch(p: float, p_success: float) -> TwoQubitFilterParams:
    """Coherence-optimal branch, same shape as the energy upper branch;
    valid for P_S >= p(2-p) + p(1-p)."""
    return energy_upper_branch(p, p_success)


def coherence_lower_branch(p: float, p_success: float) -> TwoQubitFilterParams:
    """Coherence-optimal branch with both amplitudes attenuated:
    a = b*sqrt(p/(1-p)), valid for 4p^2 <= P_S < p(2-p) + p(1-p)."""
    b = math.sqrt(max(p_success - p * p, 0.0) / (3.0 * p * (1.0 - p)))
    return TwoQubitFilterParams(a=b * math.sqrt(p / (1.0 - p)), b=b)


def two_qubit_closed_form(
    p: float, p_success: float, target: FilterTarget
) -> TwoQubitFilterParams:
    """Closed-form optimal (a, b) for the two-qubit product state.

    Branches are continuous at their junctions. Success probabilities below
    p^2 (energy) or 4p^2 (coherence) are rejected rather than extrapolated.
    """
    if not 0.0 < p < 0.5:
        raise DomainError("closed forms require 0 < p < 0.5")
    if target is FilterTarget.COHERENCE_TSALLIS:
        raise DomainError("no closed form for the Tsallis objective; use tsallis_optimal_filter")
    p_th = success_threshold(p)
    if target is FilterTarget.ENERGY:
        _check_success_range(p_success, p * p, "P_S below p^2 = {:.6g}")
        if p_success >= p_th:
            return energy_upper_branch(p, p_success)
        return energy_lower_branch(p, p_success)
    junction = p_th + p * (1.0 - p)
    _check_success_range(p_success, 4.0 * p * p, "P_S below 4p^2 = {:.6g}")
    if p_success >= junction:
        return coherence_upper_branch(p, p_success)
    return coherence_lower_branch(p, p_success)


# ---------------------------------------------------------------------------
# Tsallis-coherence optimum for arbitrary states
# ---------------------------------------------------------------------------


TSALLIS_MAX_LEVELS = 12
# the largest entry of K K^-1 - I for which a KKT block keeps its LU inverse
_LU_INVERSE_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _tsallis_layout(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The index tables of the free sets of size k among n populated levels,
    which depend on nothing else; read-only, since every call shares them:

    * ``free`` and ``rest``: the free and the other positions, one row per set;
    * ``bits``: every 0/1 choice of the other positions, one row per choice,
      as floats;
    * ``order``: per set, the gather that puts [free values, choice] in
      level order;
    * ``free_free`` and ``rest_free``: per set, the flat indices into an
      n x n matrix W of W[F, F] and of W[F, R]^T.
    """
    free = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    sets = free.shape[0]
    rest_mask = np.ones((sets, n), dtype=bool)
    rest_mask[np.arange(sets)[:, None], free] = False
    rest = np.nonzero(rest_mask)[1].reshape(sets, n - k)
    bits = ((np.arange(2 ** (n - k))[:, None] >> np.arange(n - k)) & 1).astype(float)
    order = np.argsort(np.concatenate([free, rest], axis=1), axis=1)
    free_free = n * free[:, :, None] + free[:, None, :]
    rest_free = n * free[:, None, :] + rest[:, :, None]
    tables = (free, rest, bits, order, free_free, rest_free)
    for table in tables:
        table.flags.writeable = False
    return tables


def _kkt_inverses(kkt: np.ndarray) -> np.ndarray:
    """Inverses of a stack of KKT blocks: the LU inverse of every block for
    which it is finite and max|K K^-1 - I| <= ``_LU_INVERSE_TOL``, the
    pseudo-inverse of the others, and of the whole stack when LU meets an
    exactly singular block."""
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            return np.linalg.pinv(kkt)
        check = kkt @ inv
        check.reshape(check.shape[0], -1)[:, :: kkt.shape[-1] + 1] -= 1.0
        # an inf or NaN in an inverse leaves inf or NaN in K K^-1 - I, which
        # fails the test as well
        bad = ~(np.abs(check, out=check).max(axis=(1, 2)) <= _LU_INVERSE_TOL)
    if bad.any():
        inv[bad] = np.linalg.pinv(kkt[bad])
    return inv


def _tsallis_candidates(
    pops: np.ndarray, overlap: np.ndarray, active: np.ndarray, p_success: float
) -> np.ndarray:
    """Intensity vectors satisfying the KKT conditions of max x^T W x subject
    to p^T x = P_S and 0 <= x <= 1 (W = ``overlap``, p = ``pops``).

    Every populated level is assigned 0, 1 or "free". The free levels F and the
    multiplier lam solve the bordered system

        [[W_FF, -p_F/2], [p_F^T, 0]] [x_F; lam] = [-c; P_S - fixed P_S],

    where c couples F to the levels at 1 and to the unpopulated levels, and
    fixed P_S is what the levels at 1 pass. The last row and column are
    multiplied by s = max W / max p (the unknown becomes lam/s), which leaves
    x_F as it is; unscaled, where W is much smaller than p, the
    pseudo-inverse put errors up to 3e-10 into x_F. The matrix depends on F
    alone, so the free sets of one size share one stacked inverse
    (:func:`_kkt_inverses`: LU where it verifies, the pseudo-inverse where it
    does not) and every 0/1 choice of the other levels is one right-hand side:
    2^n - 1 inverted blocks for the 3^n assignments of n populated levels (the
    1 x 1 zero block of no free level has the pseudo-inverse 0). P_S
    enters only the last entry of the right-hand side, so each candidate is
    affine in P_S. A row is kept when its stationarity residual is at most
    1e-8 (a singular system may get a pseudo-solution), its P_S residual at
    most 1e-12 P_S and every free intensity lies in [-1e-12 P_S, 1 + 1e-12];
    the free intensities are then clipped to [0, 1]. Only the kept rows are laid
    out as intensity vectors.

    Returns the feasible candidates, one per row, in no particular order.
    """
    act_idx = np.flatnonzero(active)
    n = act_idx.size
    # zero-population levels pass untouched and never affect any objective
    idle = np.flatnonzero(~active)
    scale = overlap.max() / pops.max()
    w = overlap[np.ix_(act_idx, act_idx)].ravel()
    neg_w = -w
    neg_idle = -overlap[np.ix_(act_idx, idle)].sum(axis=1) if idle.size else None
    p = pops[act_idx]
    border = scale * p
    half_border = -border / 2.0
    cands = []
    for k in range(n + 1):
        free, rest, bits, order, free_free, rest_free = _tsallis_layout(n, k)
        sets = free.shape[0]
        kkt = np.zeros((sets, k + 1, k + 1))
        kkt[:, :k, :k] = w.take(free_free)
        kkt[:, :k, k] = half_border[free]
        kkt[:, k, :k] = border[free]
        rhs = np.empty((sets, bits.shape[0], k + 1))
        np.matmul(bits, neg_w.take(rest_free), out=rhs[:, :, :k])
        if neg_idle is not None:
            rhs[:, :, :k] += neg_idle[free][:, None, :]
        rhs[:, :, k] = scale * (p_success - p[rest] @ bits.T)
        if k:
            sol = rhs @ _kkt_inverses(kkt).transpose(0, 2, 1)
            resid = np.abs(sol @ kkt.transpose(0, 2, 1) - rhs)
        else:
            # no free level: the solution is 0 and its residual |rhs|
            sol, resid = np.zeros_like(rhs), np.abs(rhs)
        m_free = sol[:, :, :k]
        ok = (
            (resid[:, :, :k] <= 1e-8).all(axis=2)
            & (resid[:, :, k] <= 1e-12 * scale * p_success)
            & ((m_free >= -1e-12 * p_success) & (m_free <= 1.0 + 1e-12)).all(axis=2)
        )
        set_idx, bit_idx = ok.nonzero()
        x = np.concatenate([m_free[ok].clip(0.0, 1.0), bits[bit_idx]], axis=1)
        cands.append(x[np.arange(set_idx.size)[:, None], order[set_idx]])
    x = np.concatenate(cands)
    if not idle.size:
        return x
    m = np.ones((x.shape[0], pops.size))
    m[:, act_idx] = x
    return m


def tsallis_optimal_filter(state: QState, p_success: float) -> DiagonalFilter:
    """Filter maximizing the output Tsallis coherence at fixed success probability.

    Works for arbitrary (mixed) states with nonzero coherence. For pure
    inputs the optimum reduces to the same water-filling structure as
    :func:`coherence_optimal_filter_pure`.

    The optimum is exact: every 0/1/free assignment of the n populated
    levels is solved through its bordered KKT system (3^n candidates from
    2^n inverted blocks, each an LU inverse verified against its block or
    else the pseudo-inverse). The candidates whose gain x^T W x is at least the
    best minus 1e-15 P_S^2 tie; level by level, those within 1e-12 P_S of
    that level's minimum are kept, and the first survivor is returned. The
    survivors agree to 1e-12 P_S on every level, so the pick does not depend
    on the order of the candidates, at any P_S. The cost still grows
    exponentially, so a state with more than ``TSALLIS_MAX_LEVELS`` = 12
    populated levels raises :class:`DomainError` before any work.
    """
    pops = np.clip(state.populations, 0.0, None)
    active = pops >= ZERO_POPULATION
    levels = int(active.sum())
    if levels > TSALLIS_MAX_LEVELS:
        raise DomainError(
            f"the Tsallis synthesizer enumerates 3^n assignments and is limited to "
            f"{TSALLIS_MAX_LEVELS} populated levels; the state has {levels}"
        )
    message = "P_S must lie in (0, 1]"
    _check_success_range(p_success, 0.0, message, above=message)
    p_success = min(p_success, 1.0)
    m = state.matrix
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) < 1e-14:
        raise DomainError("diagonal input has no coherence to enhance")
    overlap = np.abs(m) ** 2
    np.fill_diagonal(overlap, 0.0)

    cands = _tsallis_candidates(pops, overlap, active, p_success)
    if not cands.shape[0]:
        raise UnreachableSuccessProbability(
            "no feasible filter attains the requested success probability"
        )
    gains = ((cands @ overlap) * cands).sum(axis=1)
    # the gain scales as P_S^2 and an intensity as P_S: so do the tolerances
    best = cands[gains >= gains.max() - 1e-15 * p_success**2]
    for level in range(best.shape[1]):
        best = best[best[:, level] <= best[:, level].min() + 1e-12 * p_success]
    return DiagonalFilter(np.sqrt(best[0]).astype(complex))


def optimal_filter(
    state: QState, spectrum: EnergySpectrum, target: FilterTarget, p_success: float
) -> DiagonalFilter:
    """The synthesizer of ``target`` at the given success probability:
    :func:`energy_optimal_filter`, :func:`coherence_optimal_filter_pure` (pure
    states only) or :func:`tsallis_optimal_filter`."""
    if target is FilterTarget.ENERGY:
        return energy_optimal_filter(state, spectrum, p_success)
    if target is FilterTarget.COHERENCE:
        return coherence_optimal_filter_pure(state, p_success)
    return tsallis_optimal_filter(state, p_success)


# ---------------------------------------------------------------------------
# Scalar root finding
# ---------------------------------------------------------------------------


def _brent_roots(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    xa: Sequence[float],
    xb: Sequence[float],
    xtol: float,
    rtol: float,
    maxiter: int = 300,
) -> np.ndarray:
    """Roots by Brent's method of one function per row, each in its bracket
    [xa[i], xb[i]], run in lockstep.

    ``fn(x, rows)`` evaluates the functions of the rows ``rows`` (indices
    into the brackets) at ``x``. Each row runs, step for step, the classic
    ``brentq`` iteration: inverse quadratic extrapolation or secant
    interpolation when the step is short enough, bisection otherwise,
    converged once half the bracket is below (xtol + rtol*|x|)/2. An
    endpoint where the function is exactly 0 is returned as is. The rows
    share every iteration under per-row masks; IEEE arithmetic is the same
    element by element, so each root is the one a row-by-row run finds.
    A :class:`DomainError` is raised for the first row that has no sign
    change on its bracket or does not converge in ``maxiter`` iterations.
    """
    xpre, xcur = np.array(xa, dtype=float), np.array(xb, dtype=float)
    ids = np.arange(xpre.size)
    fpre, fcur = fn(xpre, ids), fn(xcur, ids)
    roots = np.where(fpre == 0.0, xpre, xcur)
    iterate = (fpre != 0.0) & (fcur != 0.0)
    bracketed = ((fpre < 0.0) & (0.0 < fcur)) | ((fcur < 0.0) & (0.0 < fpre))
    unbracketed = np.flatnonzero(iterate & ~bracketed)
    # the rows after the first unbracketed one are never reached row by row
    stop = unbracketed[0] if unbracketed.size else xpre.size
    ids = np.flatnonzero(iterate[:stop])
    xpre, xcur, fpre, fcur = xpre[ids], xcur[ids], fpre[ids], fcur[ids]
    xblk, fblk, spre, scur = (np.zeros(ids.size) for _ in range(4))
    for _ in range(maxiter):
        if not ids.size:
            break
        flip = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + rtol * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[ids[done]] = xcur[done]
            go = ~done
            ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[go] for v in (ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            )
            if not ids.size:
                break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # interpolate where xpre == xblk, extrapolate elsewhere
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
        limit = 3.0 * np.abs(sbis) - delta
        limit = np.where(limit < np.abs(spre), limit, np.abs(spre))
        short = (
            (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & (2.0 * np.abs(stry) < limit)
        )
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = np.where(
            np.abs(scur) > delta, xcur + scur, xcur + np.where(sbis > 0.0, delta, -delta)
        )
        fcur = fn(xcur, ids)
    if ids.size:
        raise DomainError(f"root finder did not converge in {maxiter} iterations")
    if unbracketed.size:
        raise DomainError("root finder: the function does not change sign on the bracket")
    return roots


def _brent_root(
    fn: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int = 300,
) -> float:
    """Root of ``fn`` in the bracket [xa, xb]: :func:`_brent_roots` on one row."""
    return float(
        _brent_roots(
            lambda x, rows: np.array([float(fn(float(x[0])))]), [xa], [xb], xtol, rtol, maxiter
        )[0]
    )


# ---------------------------------------------------------------------------
# Thermal maximum-coherence benchmark
# ---------------------------------------------------------------------------


def _gibbs_populations(levels: np.ndarray, beta: float) -> np.ndarray:
    logw = -beta * levels
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def solve_inverse_temperature(spectrum: EnergySpectrum, target_energy: float) -> float:
    """Inverse temperature whose Gibbs distribution has the given mean energy.

    The mean energy is strictly decreasing in beta, so the root is unique;
    the full real-beta range (including negative temperatures) is supported.
    """
    levels = spectrum.levels
    e_min, e_max = float(levels[0]), float(levels[-1])
    if not e_min < target_energy < e_max:
        raise DomainError(
            f"mean energy must lie strictly inside ({e_min:.6g}, {e_max:.6g})"
        )

    def gap(beta: float) -> float:
        return float((levels * _gibbs_populations(levels, beta)).sum()) - target_energy

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if gap(lo) > 0.0:
            break
        lo *= 2.0
    for _ in range(200):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    return _brent_root(gap, lo, hi, xtol=1e-14, rtol=8.9e-16)


def thermal_benchmark_state(spectrum: EnergySpectrum, target_energy: float) -> QState:
    """Pure state with Gibbs-distributed populations: the maximum-coherence
    state at the given mean energy."""
    beta = solve_inverse_temperature(spectrum, target_energy)
    return QState.pure(np.sqrt(_gibbs_populations(spectrum.levels, beta)))


# ---------------------------------------------------------------------------
# Factorized family and frontier tracing
# ---------------------------------------------------------------------------


def _qubit_count(dim: int) -> int:
    n = int(round(math.log2(dim)))
    if 2**n != dim:
        raise DomainError("factorized filters require a 2^n-dimensional state")
    return n


def _factorized_coeffs(b: np.ndarray, n_qubits: int) -> np.ndarray:
    """Coefficients of the tensor power of diag(b, 1) for each b, one row each."""
    single = np.stack([b, np.ones_like(b)], axis=1).astype(complex)
    c = single
    for _ in range(n_qubits - 1):
        c = (c[:, :, None] * single[:, None, :]).reshape(b.size, -1)
    return c


def factorized_filter(state: QState, p_success: float) -> DiagonalFilter:
    """Factorized filter whose success probability on ``state`` equals ``p_success``."""
    _qubit_count(state.dim)  # a wrong dimension is reported before the P_S range
    lo = float(state.populations[-1])
    message = "factorized family reaches only [{:.6g}, 1]"
    _check_success_range(p_success, lo, message, above=message)
    return DiagonalFilter(_factorized_rows(state, np.array([p_success], dtype=float))[0])


def _factorized_rows(state: QState, ps: np.ndarray) -> np.ndarray:
    """Coefficients of the factorized filter at each success probability in
    ``ps``, one row each; the interior b are found by one lockstep Brent.
    Every P_S must lie in the family's reachable range."""
    n = _qubit_count(state.dim)
    pops = state.populations
    # success probability is a polynomial in b^2: sum_i pops[i] * (b^2)^(#zeros in i)
    zero_counts = np.array(
        [n - bin(i).count("1") for i in range(state.dim)], dtype=int
    )

    def gap(b: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return (pops * (b * b)[:, None] ** zero_counts).sum(axis=1) - ps[rows]

    rows = np.arange(ps.size)
    above_one = gap(np.ones(ps.size), rows) < 0.0
    below_zero = gap(np.zeros(ps.size), rows) > 0.0
    b = np.where(above_one, 1.0, 0.0)
    inner = np.flatnonzero(~above_one & ~below_zero)
    b[inner] = _brent_roots(
        lambda x, r: gap(x, inner[r]),
        np.zeros(inner.size),
        np.ones(inner.size),
        xtol=1e-15,
        rtol=8.9e-16,
    )
    return _factorized_coeffs(b, n)


def reachable_success_range(
    state: QState,
    spectrum: EnergySpectrum,
    target: FilterTarget,
    family: FilterFamily,
) -> tuple[float, float]:
    """Closed reachable [lo, hi] of success probabilities for a family.

    For the Tsallis objective every positive success probability is
    reachable; the returned lower edge 0 is an open bound.
    """
    if family is FilterFamily.FACTORIZED:
        return float(state.populations[-1]), 1.0
    pops = np.clip(state.populations, 0.0, None)
    if target is FilterTarget.ENERGY:
        # below the population of the highest populated class the optimum
        # keeps a share of that class alone, so the output no longer changes
        class_pops = [float(pops[c].sum()) for c in spectrum.degeneracy_classes(DEGENERACY_TOL)]
        return next(p for p in reversed(class_pops) if p >= ZERO_POPULATION), 1.0
    if target is FilterTarget.COHERENCE:
        act = pops[pops >= ZERO_POPULATION]
        return float(np.minimum(act.min(), act).sum()), 1.0
    return 0.0, 1.0


def trace_frontier(
    state: QState,
    spectrum: EnergySpectrum,
    target: FilterTarget,
    family: FilterFamily,
    grid: int = 200,
) -> list[FrontierPoint]:
    """Sample a family's trade-off curve uniformly in success probability.

    Points are sorted by success probability; each point's stored measures
    are recomputed from its own filter, so the frontier invariants hold by
    construction. The optimal family calls :func:`optimal_filter` at each
    grid point; the factorized family solves the whole grid with one
    lockstep Brent. All filters are measured with one
    :func:`statecore.apply_filter_rows` call, and the points, equal to what
    ``apply_filter``, ``coherence`` and ``mean_energy`` give, are built at
    the end. ``grid`` must lie in [2, ``MAX_SAMPLE_POINTS``].
    """
    if not isinstance(grid, numbers.Integral):
        raise DomainError(f"grid must be an integer, got {grid!r}")
    if grid < 2:
        raise DomainError("grid must contain at least 2 points")
    if grid > MAX_SAMPLE_POINTS:
        raise DomainError(f"grid must contain at most {MAX_SAMPLE_POINTS} points, got {grid}")
    if state.dim != spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")

    lo, hi = reachable_success_range(state, spectrum, target, family)
    if target is FilterTarget.COHERENCE_TSALLIS and family is FilterFamily.OPTIMAL:
        ps_values = np.linspace(0.0, 1.0, grid + 1)[1:]
    else:
        if lo >= hi - 1e-15:
            raise DomainError("empty reachable success-probability range")
        ps_values = np.linspace(lo, hi, grid)

    if family is FilterFamily.FACTORIZED:
        filters = [DiagonalFilter(row) for row in _factorized_rows(state, ps_values)]
    else:
        filters = [optimal_filter(state, spectrum, target, p) for p in ps_values.tolist()]
    p_s, populations, eigenvalues = apply_filter_rows(
        state.matrix, np.array([filt.coeffs for filt in filters])
    )
    values = zip(
        p_s.tolist(),
        coherence_rows(populations, eigenvalues).tolist(),
        (spectrum.levels * populations).sum(axis=1).tolist(),
        filters,
    )
    return [
        FrontierPoint(p_success=p, coherence=c, mean_energy=e, filter=filt, family=family)
        for p, c, e, filt in values
    ]


# ---------------------------------------------------------------------------
# Mixed-state scan over the a = 0 family
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# points of the coarse scan that brackets each golden-section search
_SCAN_POINTS = 33
# states searched in lockstep at a time: their coarse scan fills at most one
# apply_filter_rows slice, so a long scan's memory grows only with its inputs
_SEARCH_STATES = _BATCH_ROWS // _SCAN_POINTS


def _zero_ground_rows(matrices: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output populations and spectra of diag(0, b[i], b[i], 1) applied to
    ``matrices[i]``."""
    coeffs = np.zeros((b.size, 4), dtype=complex)
    coeffs[:, 1] = coeffs[:, 2] = b
    coeffs[:, 3] = 1.0
    _, populations, eigenvalues = apply_filter_rows(matrices, coeffs)
    return populations, eigenvalues


def _optimal_b(matrices: np.ndarray) -> np.ndarray:
    """The b in [0, 1] maximizing the output coherence of diag(0, b, b, 1) on
    each state: golden-section searches, one per state, run in lockstep.

    Every search brackets its maximum with the same coarse scan (one batch for
    all states) and then takes golden steps until the bracket is narrower
    than ``GOLDEN_TOL``; each step evaluates the new point of every search
    still running in one batch.
    """

    def value(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        return coherence_rows(*_zero_ground_rows(matrices[rows], b))

    count = len(matrices)
    xs = np.linspace(0.0, 1.0, _SCAN_POINTS)
    scan = value(np.repeat(np.arange(count), xs.size), np.tile(xs, count))
    i = scan.reshape(count, xs.size).argmax(axis=1)
    a = xs[np.maximum(i - 1, 0)]
    b = xs[np.minimum(i + 1, xs.size - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    every = np.arange(count)
    fc, fd = np.split(value(np.concatenate([every, every]), np.concatenate([c, d])), 2)
    run = np.flatnonzero(b - a > GOLDEN_TOL)
    while run.size:
        left = fc[run] >= fd[run]
        lt, rt = run[left], run[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - _INV_PHI * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + _INV_PHI * (b[rt] - a[rt])
        new = value(run, np.where(left, c[run], d[run]))
        fc[lt], fd[rt] = new[left], new[~left]
        run = run[b[run] - a[run] > GOLDEN_TOL]
    return 0.5 * (a + b)


def _scan(eta: float, p_values: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimized coherence, mean energy and b of the a=0 family for each p."""
    matrices = np.array(
        [mixed_qubit_product(QubitParams(p=p, eta=eta), 2).matrix for p in p_values]
    )
    b_opt = np.concatenate(
        [
            _optimal_b(matrices[i : i + _SEARCH_STATES])
            for i in range(0, len(matrices), _SEARCH_STATES)
        ]
    )
    populations, eigenvalues = _zero_ground_rows(matrices, b_opt)
    energy = (TWO_QUBIT_SPECTRUM.levels * populations).sum(axis=1)
    return coherence_rows(populations, eigenvalues), energy, b_opt


def mixed_scan(eta: float, p_values: Sequence[float]) -> list[MixedScanPoint]:
    """Optimize b in the ground-removing filter diag(0, b, b, 1) for each
    two-qubit mixed product state, maximizing output coherence.

    Below a threshold population (at least 0.5) the optimized coherence and
    mean energy are constant in p; above it the optimum saturates at b = 1.
    The golden-section searches of all p run in lockstep, each step one
    batch, and give the b of a search run alone.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    for p in p_values:
        if not 0.0 < p < 1.0:
            raise DomainError("populations p must lie in (0, 1)")
    if len(p_values) == 0:
        return []
    coherences, energies, b_opt = _scan(eta, p_values)
    return [
        MixedScanPoint(p=p, coherence=c, mean_energy=e, b_opt=b)
        for p, c, e, b in zip(p_values, coherences.tolist(), energies.tolist(), b_opt.tolist())
    ]


# plateau_threshold: the bisection bracket in p, the bracket width it stops
# at, and the smallest eta whose edge the round-off of dC/dt leaves resolved
_PLATEAU_P_LO = 0.05
_PLATEAU_P_HI = 0.995
_PLATEAU_WIDTH = 1e-12
_PLATEAU_ETA_MIN = 1e-4


def _coherence_slope(eta: float, t: float) -> float:
    """dC/dt of the a=0 output on ``mixed_qubit_product(p, eta)`` at
    t = b^2 (1 - p)/p.

    The output lives on |01>, |10>, |11> as sigma(t) = M(t)/(2t + 1), with
    diagonal (t, t, 1), <01|M|10> = eta^2 t and <01|M|11> = <10|M|11> =
    eta sqrt(t). With C = S(diag sigma) - S(sigma) and Tr sigma' = 0,
    dC/dt = -sum_j sigma'_jj log sigma_jj + Tr(sigma' log sigma), the trace
    taken in the eigenbasis of one 3x3 ``eigh``; eigenvalues at or below
    ``ZERO_EIGENVALUE`` count as 0 log 0 = 0.
    """
    norm, root = 2.0 * t + 1.0, math.sqrt(t)
    swap, top = eta * eta * t, eta * root
    sigma = np.array([[t, swap, top], [swap, t, top], [top, top, 1.0]]) / norm
    d_swap, d_top = eta * eta, 0.5 * eta / root
    d_m = np.array([[1.0, d_swap, d_top], [d_swap, 1.0, d_top], [d_top, d_top, 0.0]])
    d_sigma = (d_m - 2.0 * sigma) / norm
    values, vectors = np.linalg.eigh(sigma)
    keep = values > ZERO_EIGENVALUE
    along = np.einsum("ik,ij,jk->k", vectors[:, keep], d_sigma, vectors[:, keep])
    dephased = -(d_sigma.diagonal() * np.log(sigma.diagonal())).sum()
    return float(dephased + (along * np.log(values[keep])).sum())


def plateau_threshold(eta: float) -> float:
    """The population p at which the optimized a=0 coherence leaves its
    small-p plateau: above it the optimum saturates at b = 1.

    The output depends on p and b only through t = b^2 (1 - p)/p, so below
    the edge every p reaches the t* that maximizes C(t), and the edge is
    exactly p = 1/(1 + t*). C rises below t* and falls above it, so a
    bisection on the sign of dC/dt at t = (1 - p)/p over p in [0.05, 0.995]
    brackets the edge, down to a width of at most 1e-12. The upper end of
    that bracket is returned, so the result is never below the edge where
    round-off leaves the sign of dC/dt right: for eta >= 0.02 it lies 0 to
    1e-12 above the edge. The edge lies in [0.5, 0.628] for eta in (0, 1],
    and is exactly 0.5 at eta = 1.

    dC/dt is a sum of terms of order 1 that cancel to order eta^2, so for
    small eta its round-off moves the result by up to about 2e-16/eta^2,
    either way: 2e-12 at eta = 0.01 and 2e-8 at eta = 1e-4. Below
    ``_PLATEAU_ETA_MIN`` = 1e-4 that round-off would decide the result, so
    such eta raise ``DomainError``, as do eta above 1 and NaN.
    """
    if not _PLATEAU_ETA_MIN <= eta <= 1.0:
        raise DomainError(f"threshold detection needs eta in [{_PLATEAU_ETA_MIN:g}, 1]")
    lo, hi = _PLATEAU_P_LO, _PLATEAU_P_HI
    while hi - lo > _PLATEAU_WIDTH:
        mid = 0.5 * (lo + hi)
        if _coherence_slope(eta, (1.0 - mid) / mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi
