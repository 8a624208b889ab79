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

The factorized family and the pure-state water-fill are computed over a
whole vector of success probabilities, one coefficient row each: the
factorized ``b`` by one lockstep Brent iteration, the water-fill ceiling by
one pass over the sorted populated levels. ``factorized_filter`` and
``coherence_optimal_filter_pure`` are that code on one row.
``trace_frontier`` builds those frontiers from their rows, checked as one
batch by ``statecore.diagonal_filter_rows``; the energy and Tsallis
frontiers call their synthesizer once per grid point. One
``statecore.apply_filter_rows`` call measures every filter, and the points
are built without the frozen dataclass ``__init__``. Per point, the energy
synthesizer walks the degeneracy classes and the clipped populations as
tuples of Python numbers that the spectrum and the state compute once per
object, on Python floats, and hands its amplitudes to
``statecore.diagonal_filter_row``, so no ``DiagonalFilter`` check runs on a
numpy array. ``mixed_scan`` runs
the golden-section searches of its populations in lockstep, one batch per
step; every result equals the per-point computation bit for bit.
``plateau_threshold`` needs no search: the a=0 output depends on p and b only
through t = b^2 (1 - p)/p, so the plateau ends exactly at p = 1/(1 + t*),
where t* maximizes the output coherence C(t), and one bisection on the sign
of dC/dt finds that edge. dC/dt comes from the closed-form spectrum of the
3x3 output and its t-derivatives, in Python floats, so no step calls numpy.

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
    diagonal_filter_row,
    diagonal_filter_rows,
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

    One walk down the degeneracy classes, from the highest, adds up the
    population they pass. The cut is the first class with which that total
    reaches P_S, or else the lowest populated class, since a trace short of 1
    by round-off may never reach P_S. The cut class keeps the fraction
    (P_S - passed) / its own population, where passed is the population of
    the classes above it. It keeps 1 where that fraction is above 1 - 1e-12
    or its population exceeds P_S - passed by at most 1e-12 P_S, so at
    P_S = 1 the round-off excess of a trace just above 1 cuts no class, and
    otherwise 0 where P_S - passed is at most 1e-12 P_S. P_S - passed keeps
    the digits of a tiny P_S, so the filter meets any P_S to round-off, or
    to 1e-12 relative where a snap applies. A level counts in its class
    whenever its population is positive, however far below
    ``ZERO_POPULATION``, so it is zeroed or cut with its class; a level of
    population 0 passes whole.
    """
    if state.dim != spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    pops = state._clipped_populations
    classes = spectrum._class_lists
    top_pop = _sum([pops[j] for j in classes[-1]])
    _check_success_range(
        p_success, top_pop, "P_S below the population {:.6g} of the highest-energy class"
    )

    ps = min(p_success, 1.0)
    # the walk: ``passed`` holds the classes above the cut; the populations
    # are clipped to >= 0, so the unpopulated levels of a class add nothing
    cut, cut_pop, passed = len(classes) - 1, top_pop, 0.0
    for c in range(cut - 1, -1, -1):
        if passed + cut_pop >= ps:
            break
        group_pop = _sum([pops[j] for j in classes[c]])
        if group_pop > 0.0:
            passed += cut_pop
            cut, cut_pop = c, group_pop
    rest = ps - passed
    kept = rest / cut_pop if rest > 1e-12 * ps else 0.0
    if kept > 1.0 - 1e-12 or cut_pop - rest <= 1e-12 * ps:
        kept = 1.0
    amplitudes = [1.0] * state.dim
    for c in range(cut + 1):
        amplitude = math.sqrt(kept) if c == cut else 0.0
        for j in classes[c]:
            if pops[j] > 0.0:
                amplitudes[j] = amplitude
    return diagonal_filter_row(amplitudes)


# ---------------------------------------------------------------------------
# Coherence-optimal family for pure states (water-filling)
# ---------------------------------------------------------------------------


def _waterfill_rows(state: QState, ps: Sequence[float]) -> np.ndarray:
    """Coefficients of the pure-state coherence optimum at each success
    probability in ``ps``, one row each (shape (len(ps), d)).

    The common output ceiling K solves sum_j min(K, p_j) = P_S over the n
    populated levels, sorted ascending: with the prefix sums s_i of the
    smallest i populations (added left to right), K is the first
    (P_S - s_i)/(n - i) that lies in [p_(i-1) - 1e-15, p_i + 1e-15] (p_(-1)
    = 0), or the largest population if none does, for min(P_S, 1). A level
    passes sqrt(min(K/p_j, 1)); unpopulated levels pass 1. The checks run in
    the order of :func:`coherence_optimal_filter_pure`, the range check on
    the first P_S that fails it.
    """
    if not state.is_pure():
        raise DomainError(
            "input is not pure; the relative-entropy optimum is only "
            "closed-form for pure states (use tsallis_optimal_filter)"
        )
    pops = state._clipped_populations
    active = [j for j, x in enumerate(pops) if x >= ZERO_POPULATION]
    if len(active) < 2:
        raise DomainError("state must populate at least two levels")
    act = [pops[j] for j in active]
    ps_min = _sum([min(act)] * len(act))
    values = np.array(ps, dtype=float)
    # the range of _check_success_range: its floor is positive, so a NaN or a
    # P_S at or below 0 fails too
    floor = max(ps_min - _RANGE_TOL, 2.0 * _ANNIHILATION_TOL)
    if values.size and not (values.min() >= floor and values.max() <= 1.0 + _RANGE_TOL):
        in_range = (values >= floor) & (values <= 1.0 + _RANGE_TOL)
        _check_success_range(
            ps[int(in_range.argmin())], ps_min, "P_S below the full-equalization minimum {:.6g}"
        )
    qs = sorted(act)
    n = len(qs)
    prefix, floors = [0.0] * n, [-1e-15] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1] + qs[i - 1]
        floors[i] = qs[i - 1] - 1e-15
    ceilings = [q + 1e-15 for q in qs]
    level = (np.minimum(values, 1.0)[:, None] - prefix) / np.arange(n, 0, -1)
    bracketed = (floors <= level) & (level <= ceilings)
    first = bracketed.argmax(axis=1)
    rows = np.arange(values.size)
    k = np.where(bracketed[rows, first], level[rows, first], qs[-1])
    coeffs = np.ones((values.size, state.dim), dtype=complex)
    coeffs[:, active] = np.sqrt(np.minimum(k[:, None] / act, 1.0))
    return coeffs


def coherence_optimal_filter_pure(state: QState, p_success: float) -> DiagonalFilter:
    """Coherence-maximizing filter for a pure state at fixed success probability.

    Output intensities have the clipping form min(K/p_j, 1): every dominant
    population is attenuated down to a common ceiling while smaller ones
    pass untouched. Reachable down to full equalization of the populated
    levels; mixed inputs are rejected (use :func:`tsallis_optimal_filter`).
    This is the row water-fill (``_waterfill_rows``) on one P_S, so a frontier
    built from rows gives this filter at each of its points, bit for bit.
    """
    return DiagonalFilter(_waterfill_rows(state, [p_success])[0])


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
    * ``bits``: every 0/1 choice of the other positions as one column of an
      (n-k) x 2^(n-k) matrix of floats;
    * ``order``: per set, the gather that puts [free values, choice] in
      level order;
    * ``kkt``: per set, the (k+1) x (k+1) flat indices of the bordered block
      into [W.ravel(), -s p/2, s p, 0] for an n x n matrix W and n-vector p:
      W[F, F], the column -s p_F/2, the row s p_F and the corner 0;
    * ``rest_free``: per set, the flat indices into W of W[F, R].
    """
    free = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    sets = free.shape[0]
    rest_mask = np.ones((sets, n), dtype=bool)
    rest_mask[np.arange(sets)[:, None], free] = False
    rest = np.nonzero(rest_mask)[1].reshape(sets, n - k)
    bits = ((np.arange(2 ** (n - k)) >> np.arange(n - k)[:, None]) & 1).astype(float)
    order = np.argsort(np.concatenate([free, rest], axis=1), axis=1)
    kkt = np.full((sets, k + 1, k + 1), n * n + 2 * n, dtype=np.intp)
    kkt[:, :k, :k] = n * free[:, :, None] + free[:, None, :]
    kkt[:, :k, k] = n * n + free
    kkt[:, k, :k] = n * n + n + free
    rest_free = n * free[:, :, None] + rest[:, None, :]
    tables = (free, rest, bits, order, kkt, rest_free)
    for table in tables:
        table.flags.writeable = False
    return tables


def _kkt_inverses(kkt: np.ndarray) -> np.ndarray:
    """Inverses of a stack of KKT blocks: the LU inverse of every block for
    which it is finite and max|K K^-1 - I| <= ``_LU_INVERSE_TOL``, and the
    pseudo-inverse of the others. When LU meets an exactly singular block,
    the stack is split in halves until that block stands alone, so only
    exactly singular blocks and blocks that fail the check reach the
    pseudo-inverse."""
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            if kkt.shape[0] == 1:
                return np.linalg.pinv(kkt)
            half = kkt.shape[0] // 2
            return np.concatenate([_kkt_inverses(kkt[:half]), _kkt_inverses(kkt[half:])])
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
    affine in P_S.

    The stacks of one size k are set-major, with the choices as columns: the
    blocks K, of shape (sets, k+1, k+1), come from one gather of
    [W, -s p/2, s p, 0] through the cached index table of
    :func:`_tsallis_layout`; the right-hand sides, of shape
    (sets, k+1, 2^(n-k)), from W[F, R] times the choice columns; and the
    solutions K^-1 rhs and residuals |K sol - rhs| keep that shape. A column
    is kept when its stationarity residual is at most 1e-8 (a singular system
    may get a pseudo-solution), its P_S residual at most 1e-12 P_S and every
    free intensity lies in [-1e-12 P_S, 1 + 1e-12], each tested by one max or
    min across the free axis (a NaN fails it); the free intensities are then
    clipped to [0, 1]. Only the kept columns are laid out as intensity
    vectors.

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
    entries = np.concatenate([w, -border / 2.0, border, [0.0]])
    ps_tol = 1e-12 * scale * p_success
    cands = []
    for k in range(n + 1):
        free, rest, bits, order, kkt_idx, rest_free = _tsallis_layout(n, k)
        rhs = np.empty((free.shape[0], k + 1, bits.shape[1]))
        rhs[:, k] = scale * (p_success - p[rest] @ bits)
        if k:
            np.matmul(neg_w.take(rest_free), bits, out=rhs[:, :k])
            if neg_idle is not None:
                rhs[:, :k] += neg_idle[free][:, :, None]
            kkt = entries.take(kkt_idx)
            sol = _kkt_inverses(kkt) @ rhs
            resid = np.abs(kkt @ sol - rhs)
            m_free = sol[:, :k]
            # NaN propagates through max and min, and fails every comparison
            ok = (
                (resid[:, :k].max(axis=1) <= 1e-8)
                & (resid[:, k] <= ps_tol)
                & (m_free.min(axis=1) >= -1e-12 * p_success)
                & (m_free.max(axis=1) <= 1.0 + 1e-12)
            )
        else:
            # no free level: the solution is 0 and its residual |rhs|
            m_free = rhs[:, :0]
            ok = np.abs(rhs[:, 0]) <= ps_tol
        set_idx, bit_idx = ok.nonzero()
        x = np.concatenate([m_free[set_idx, :, bit_idx].clip(0.0, 1.0), bits.T[bit_idx]], axis=1)
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
    e_min, e_max = float(levels.min()), float(levels.max())
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
    reachable; the returned lower edge 0 is an open bound. No other edge lies
    below 2e-14, the synthesizers' floor.
    """
    floor = 2.0 * _ANNIHILATION_TOL
    if family is FilterFamily.FACTORIZED:
        return max(float(state.populations[-1]), floor), 1.0
    pops = np.clip(state.populations, 0.0, None)
    if target is FilterTarget.ENERGY:
        # below the population of the highest populated class the optimum
        # keeps a share of that class alone, so the output no longer changes
        class_pops = [float(pops[c].sum()) for c in spectrum.degeneracy_classes()]
        return max(next(p for p in reversed(class_pops) if p >= ZERO_POPULATION), floor), 1.0
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
    construction. The factorized family solves the whole grid with one
    lockstep Brent, and the optimal pure-state coherence frontier takes every
    grid point from one row water-fill; their coefficient rows become filters
    through one :func:`statecore.diagonal_filter_rows` batch, each equal bit
    for bit to what :func:`factorized_filter` or
    :func:`coherence_optimal_filter_pure` gives at that point. The optimal
    energy and Tsallis frontiers call :func:`optimal_filter` at each grid
    point and keep the filters it returns: the Tsallis enumerator has no row
    form, and the benchmark self-test patches ``energy_optimal_filter`` to
    check that a wrong energy filter is caught. All filters are measured
    with one :func:`statecore.apply_filter_rows` call, and the points, equal
    to what ``apply_filter``, ``coherence`` and ``mean_energy`` give, are
    built at the end: each frozen ``FrontierPoint`` gets its five fields
    written once, without the dataclass ``__init__``, and compares and hashes
    as one built by ``FrontierPoint(...)``. ``grid`` must lie in
    [2, ``MAX_SAMPLE_POINTS``].
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

    if family is FilterFamily.FACTORIZED or target is FilterTarget.COHERENCE:
        row_synthesizer = _factorized_rows if family is FilterFamily.FACTORIZED else _waterfill_rows
        rows = row_synthesizer(state, ps_values)
        filters = diagonal_filter_rows(rows)
    else:
        filters = [optimal_filter(state, spectrum, target, p) for p in ps_values.tolist()]
        rows = np.array([filt.coeffs for filt in filters])
    p_s, populations, eigenvalues = apply_filter_rows(state.matrix, rows)
    values = zip(
        p_s.tolist(),
        coherence_rows(populations, eigenvalues).tolist(),
        (spectrum.levels * populations).sum(axis=1).tolist(),
        filters,
    )
    points = []
    for p, c, e, filt in values:
        # the fields go straight into a new instance's dict, as
        # diagonal_filter_rows builds its filters: the frozen __init__ writes
        # each through object.__setattr__, about 3x the time per point
        point = object.__new__(FrontierPoint)
        fields = point.__dict__
        fields["p_success"], fields["coherence"], fields["mean_energy"] = p, c, e
        fields["filter"], fields["family"] = filt, family
        points.append(point)
    return points


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
    batch, and give the b of a search run alone. The coarse scan starts at
    b = 0, where the filter passes p^2 alone, so a p with p^2 below the
    annihilation floor is rejected before any work.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    for p in p_values:
        if not 0.0 < p < 1.0:
            raise DomainError("populations p must lie in (0, 1)")
    if len(p_values) == 0:
        return []
    p_min = min(p_values)
    if p_min * p_min < _ANNIHILATION_TOL:
        raise DomainError(
            f"populations p must have p^2 >= {_ANNIHILATION_TOL:g}: at b = 0 the filter "
            f"diag(0, 0, 0, 1) passes p^2 and annihilates the state below it (p = {p_min:g})"
        )
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

    The output lives on |01>, |10>, |11> as sigma(t) = M(t)/N, N = 2t + 1,
    with diagonal (t, t, 1), <01|M|10> = eta^2 t and <01|M|11> = <10|M|11> =
    eta sqrt(t). With C = S(diag sigma) - S(sigma) and Tr sigma' = 0,
    dC/dt = -sum_j sigma'_jj log sigma_jj + sum_k lambda_k' log lambda_k.
    The dephased part is -(2/N^2) log t. With g = 1 - eta^2, the spectrum is
    the swap-antisymmetric lambda_a = g t/N and the two eigenvalues of the
    symmetric block [[t (1 + eta^2), eta sqrt(2t)], [eta sqrt(2t), 1]]/N:
    lambda_+ = (T + R)/(2N) and lambda_- = 2D/(N (T + R)), where T = 1 +
    t (1 + eta^2), D = g t and R = hypot(t (1 + eta^2) - 1, 2 eta sqrt(2t)),
    so neither R nor lambda_- subtracts close numbers. Their t-derivatives
    are lambda_a' = g/N^2 and lambda_+-' = (+-K - g)/(2N^2), with
    K = g (t (3 - eta^2) - 3)/R. Eigenvalues at or below ``ZERO_EIGENVALUE``
    count as 0 log 0 = 0. Python floats and ``math`` only.
    """
    norm, g = 2.0 * t + 1.0, (1.0 - eta) * (1.0 + eta)
    total = 1.0 + t * (1.0 + eta * eta)
    radius = math.hypot(t * (1.0 + eta * eta) - 1.0, 2.0 * eta * math.sqrt(2.0 * t))
    # at eta = 1, g = 0 and K = 0, though R = |t - 1| may be 0
    k = g * (t * (3.0 - eta * eta) - 3.0) / radius if g else 0.0
    slope = -2.0 * math.log(t)
    for value, weight in (
        (g * t / norm, 2.0 * g),
        ((total + radius) / (2.0 * norm), k - g),
        (2.0 * g * t / (norm * (total + radius)), -k - g),
    ):
        if value > ZERO_EIGENVALUE:
            slope += 0.5 * weight * math.log(value)
    return slope / (norm * norm)


def plateau_threshold(eta: float) -> float:
    """The population p at which the optimized a=0 coherence leaves its
    small-p plateau: above it the optimum saturates at b = 1.

    The output depends on p and b only through t = b^2 (1 - p)/p, so below
    the edge every p reaches the t* that maximizes C(t), and the edge is
    exactly p = 1/(1 + t*). C rises below t* and falls above it, so a
    bisection on the sign of dC/dt at t = (1 - p)/p over p in [0.05, 0.995]
    brackets the edge, down to a width of at most 1e-12. The upper end of
    that bracket is returned, so the result lies 0 to 1e-12 above the edge
    wherever round-off leaves the sign of dC/dt right. The edge lies in
    [0.5, 0.628] for eta in (0, 1], and is exactly 0.5 at eta = 1.

    dC/dt is a sum of terms of order 1 that cancel to order eta^2, so near
    the edge its round-off can flip its sign and move the result out of that
    band by up to about 2e-16/eta^2, either way: 5e-13 at eta = 0.02, 2e-12
    at 0.01 and 2e-8 at 1e-4. Against an edge computed to 60 digits, the
    largest such move on 120 eta from 1e-4 to 1 was 1.1e-16/eta^2, and the
    result at eta = 1e-4 lay 1.3e-9 below the edge. Below
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
