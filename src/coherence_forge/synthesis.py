"""Synthesis of optimal diagonal filters and trade-off frontiers.

The central objects are the filter families that, at a prescribed success
probability, maximize the output mean energy (zero out the lowest-energy
levels first), the output relative-entropy coherence of a pure state
(water-fill the populations toward a uniform output), or the output
purity-based coherence of an arbitrary state (boundary enumeration plus a
linear stationarity system). Closed forms for a symmetric two-qubit
product state, a thermal maximum-coherence benchmark, frontier tracing and
the restricted mixed-state scan complete the surface.

All synthesized filters carry nonnegative real coefficients; phases are
irrelevant to every scalar measure and belong to the optics layer.
"""

from __future__ import annotations

import itertools
import math
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
    ZERO_POPULATION,
    apply_filter,
    coherence,
    mean_energy,
    mixed_qubit_product,
)

DEGENERACY_TOL = 1e-9
GOLDEN_TOL = 1e-8
_RANGE_TOL = 1e-12


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
    p_success: float,
    lo: float,
    below: str,
    above: str = "P_S exceeds 1",
    open_lower: bool = False,
) -> None:
    """Reject a non-finite P_S or one outside the reachable [lo, 1] by more
    than round-off; ``open_lower`` also rejects P_S <= lo itself."""
    if not math.isfinite(p_success):
        raise UnreachableSuccessProbability(f"P_S must be a finite number, got {p_success!r}")
    if p_success > 1.0 + _RANGE_TOL:
        raise UnreachableSuccessProbability(above)
    if p_success < lo - _RANGE_TOL or (open_lower and p_success <= lo):
        raise UnreachableSuccessProbability(below)


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
    pops = np.clip(state.populations, 0.0, None)
    classes = spectrum.degeneracy_classes(DEGENERACY_TOL)
    top_pop = float(pops[classes[-1]].sum())
    _check_success_range(
        p_success, top_pop, f"P_S below the population {top_pop:.6g} of the highest-energy class"
    )

    amplitudes = np.ones(state.dim)
    to_remove = max(1.0 - min(p_success, 1.0), 0.0)
    for group in classes:
        if to_remove <= 1e-15:
            break
        live = group[pops[group] >= ZERO_POPULATION]
        group_pop = float(pops[live].sum())
        if group_pop <= 0.0:
            continue
        if group_pop <= to_remove:
            amplitudes[live] = 0.0
            to_remove -= group_pop
        else:
            kept = (group_pop - to_remove) / group_pop
            # snap round-off at the class boundaries to the crisp pattern
            if kept < 1e-12:
                kept = 0.0
            elif kept > 1.0 - 1e-12:
                kept = 1.0
            amplitudes[live] = np.sqrt(kept)
            to_remove = 0.0
    return DiagonalFilter(amplitudes.astype(complex))


# ---------------------------------------------------------------------------
# Coherence-optimal family for pure states (water-filling)
# ---------------------------------------------------------------------------


def _waterfill_level(pops: np.ndarray, p_success: float) -> float:
    """Solve sum_j min(K, p_j) = p_success for the common output ceiling K."""
    qs = np.sort(pops)
    prefix = np.concatenate([[0.0], np.cumsum(qs)])
    n = qs.size
    for i in range(n):
        lo = 0.0 if i == 0 else qs[i - 1]
        hi = qs[i]
        k = (p_success - prefix[i]) / (n - i)
        if lo - 1e-15 <= k <= hi + 1e-15:
            return float(k)
    return float(qs[-1])


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
    pops = np.clip(state.populations, 0.0, None)
    active = pops >= ZERO_POPULATION
    if int(active.sum()) < 2:
        raise DomainError("state must populate at least two levels")
    act = pops[active]
    ps_min = float(np.minimum(act.min(), act).sum())
    _check_success_range(p_success, ps_min, f"P_S below the full-equalization minimum {ps_min:.6g}")
    k = _waterfill_level(act, min(p_success, 1.0))
    amplitudes = np.ones(state.dim)
    amplitudes[active] = np.sqrt(np.minimum(k / act, 1.0))
    return DiagonalFilter(amplitudes.astype(complex))


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
        _check_success_range(p_success, p * p, f"P_S below p^2 = {p * p:.6g}")
        if p_success >= p_th:
            return energy_upper_branch(p, p_success)
        return energy_lower_branch(p, p_success)
    junction = p_th + p * (1.0 - p)
    _check_success_range(p_success, 4.0 * p * p, f"P_S below 4p^2 = {4.0 * p * p:.6g}")
    if p_success >= junction:
        return coherence_upper_branch(p, p_success)
    return coherence_lower_branch(p, p_success)


# ---------------------------------------------------------------------------
# Tsallis-coherence optimum for arbitrary states
# ---------------------------------------------------------------------------


def _tsallis_candidates(
    pops: np.ndarray, overlap: np.ndarray, active: np.ndarray, p_success: float
):
    """Yield intensity vectors satisfying the stationarity/boundary structure.

    Every index is assigned 0, 1, or "free"; free indices solve the linear
    system from the quadratic objective's stationarity condition, with the
    multiplier eliminated exactly through the success-probability constraint
    (both are affine in the multiplier for a fixed assignment).
    """
    d = pops.size
    act_idx = np.flatnonzero(active)
    inact_idx = np.flatnonzero(~active)
    for assign in itertools.product((0, 1, 2), repeat=act_idx.size):
        m = np.zeros(d)
        m[inact_idx] = 1.0  # zero-population levels never affect any objective
        ones = act_idx[[a == 1 for a in assign]]
        free = act_idx[[a == 2 for a in assign]]
        m[ones] = 1.0
        fixed_ps = float(pops[ones].sum())
        if free.size == 0:
            if abs(p_success - fixed_ps) <= 1e-12:
                yield m
            continue
        if free.size == 1:
            j = int(free[0])
            val = (p_success - fixed_ps) / pops[j]
            if -1e-12 <= val <= 1.0 + 1e-12:
                m[j] = min(max(val, 0.0), 1.0)
                yield m
            continue
        a_blk = overlap[np.ix_(free, free)]
        b_vec = pops[free]
        fixed_idx = np.concatenate([ones, inact_idx]).astype(int)
        c_vec = (
            overlap[np.ix_(free, fixed_idx)].sum(axis=1)
            if fixed_idx.size
            else np.zeros(free.size)
        )
        pinv = np.linalg.pinv(a_blk)
        u = pinv @ (b_vec / 2.0)
        v = -pinv @ c_vec
        den = float(u @ b_vec)
        if abs(den) < 1e-14:
            continue
        lam = (p_success - fixed_ps - float(v @ b_vec)) / den
        m_free = lam * u + v
        # pinv may fabricate a pseudo-solution when the block is singular
        if np.max(np.abs(a_blk @ m_free - (lam * b_vec / 2.0 - c_vec))) > 1e-8:
            continue
        if np.any(m_free < -1e-12) or np.any(m_free > 1.0 + 1e-12):
            continue
        m[free] = np.clip(m_free, 0.0, 1.0)
        yield m


def tsallis_optimal_filter(state: QState, p_success: float) -> DiagonalFilter:
    """Filter maximizing the output Tsallis coherence at fixed success probability.

    Works for arbitrary (mixed) states with nonzero coherence. For pure
    inputs the optimum reduces to the same water-filling structure as
    :func:`coherence_optimal_filter_pure`.
    """
    message = "P_S must lie in (0, 1]"
    _check_success_range(p_success, 0.0, message, above=message, open_lower=True)
    p_success = min(p_success, 1.0)
    m = state.matrix
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) < 1e-14:
        raise DomainError("diagonal input has no coherence to enhance")
    pops = np.clip(state.populations, 0.0, None)
    active = pops >= ZERO_POPULATION
    overlap = np.abs(m) ** 2
    np.fill_diagonal(overlap, 0.0)

    best_gain = -1.0
    best: np.ndarray | None = None
    for cand in _tsallis_candidates(pops, overlap, active, p_success):
        gain = float(cand @ overlap @ cand)
        if gain > best_gain + 1e-15 or (
            best is not None
            and abs(gain - best_gain) <= 1e-15
            and tuple(cand) < tuple(best)
        ):
            best_gain = gain
            best = cand
    if best is None:
        raise UnreachableSuccessProbability(
            "no feasible filter attains the requested success probability"
        )
    return DiagonalFilter(np.sqrt(best).astype(complex))


# ---------------------------------------------------------------------------
# Scalar root finding
# ---------------------------------------------------------------------------


def _brent_root(
    fn: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int = 300,
) -> float:
    """Root of ``fn`` in the bracket [xa, xb] by Brent's method.

    Step for step the classic ``brentq`` iteration: inverse quadratic
    extrapolation or secant interpolation when the step is short enough,
    bisection otherwise, converged once half the bracket is below
    (xtol + rtol*|x|)/2. An endpoint where ``fn`` is exactly 0 is returned
    as is.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(fn(xpre)), float(fn(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        raise DomainError("root finder: the function does not change sign on the bracket")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(fn(xcur))
    raise DomainError(f"root finder did not converge in {maxiter} iterations")


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


def factorized_single_qubit(b: float, n_qubits: int) -> DiagonalFilter:
    """Tensor power of the single-qubit filter diag(b, 1)."""
    single = np.array([b, 1.0], dtype=complex)
    c = single
    for _ in range(n_qubits - 1):
        c = np.kron(c, single)
    return DiagonalFilter(c)


def factorized_filter(state: QState, p_success: float) -> DiagonalFilter:
    """Factorized filter whose success probability on ``state`` equals ``p_success``."""
    n = _qubit_count(state.dim)
    pops = state.populations
    lo = float(pops[-1])
    message = f"factorized family reaches only [{lo:.6g}, 1]"
    _check_success_range(p_success, lo, message, above=message)
    # success probability is a polynomial in b^2: sum_i pops[i] * (b^2)^(#zeros in i)
    zero_counts = np.array(
        [n - bin(i).count("1") for i in range(state.dim)], dtype=int
    )

    def gap(b: float) -> float:
        return float((pops * (b * b) ** zero_counts).sum()) - p_success

    if gap(1.0) < 0.0:
        b = 1.0
    elif gap(0.0) > 0.0:
        b = 0.0
    else:
        b = _brent_root(gap, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    return factorized_single_qubit(b, n)


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
    if target is FilterTarget.ENERGY:
        classes = spectrum.degeneracy_classes(DEGENERACY_TOL)
        return float(np.clip(state.populations, 0, None)[classes[-1]].sum()), 1.0
    if target is FilterTarget.COHERENCE:
        pops = np.clip(state.populations, 0.0, None)
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
    construction.
    """
    if grid < 2:
        raise DomainError("grid must contain at least 2 points")
    if state.dim != spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")

    if family is FilterFamily.FACTORIZED:
        synthesize: Callable[[float], DiagonalFilter] = lambda ps: factorized_filter(state, ps)
    elif target is FilterTarget.ENERGY:
        synthesize = lambda ps: energy_optimal_filter(state, spectrum, ps)
    elif target is FilterTarget.COHERENCE:
        synthesize = lambda ps: coherence_optimal_filter_pure(state, ps)
    else:
        synthesize = lambda ps: tsallis_optimal_filter(state, ps)

    lo, hi = reachable_success_range(state, spectrum, target, family)
    if target is FilterTarget.COHERENCE_TSALLIS and family is FilterFamily.OPTIMAL:
        ps_values = np.linspace(0.0, 1.0, grid + 1)[1:]
    else:
        if lo >= hi - 1e-15:
            raise DomainError("empty reachable success-probability range")
        ps_values = np.linspace(lo, hi, grid)

    def build(ps: float) -> FrontierPoint:
        filt = synthesize(float(ps))
        out, actual = apply_filter(state, filt)
        return FrontierPoint(
            p_success=actual,
            coherence=coherence(out),
            mean_energy=mean_energy(out, spectrum),
            filter=filt,
            family=family,
        )

    return [build(ps) for ps in ps_values]


# ---------------------------------------------------------------------------
# Mixed-state scan over the a = 0 family
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = GOLDEN_TOL
) -> float:
    """Golden-section maximizer with a coarse bracketing pre-scan."""
    xs = np.linspace(lo, hi, 33)
    ys = [fn(float(x)) for x in xs]
    i = int(np.argmax(ys))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, xs.size - 1)])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _zero_ground_filter(b: float) -> DiagonalFilter:
    return DiagonalFilter(np.array([0.0, b, b, 1.0], dtype=complex))


def _scan_coherence(state: QState, b: float) -> float:
    out, _ = apply_filter(state, _zero_ground_filter(b))
    return coherence(out)


def mixed_scan(eta: float, p_values: Sequence[float]) -> list[MixedScanPoint]:
    """Optimize b in the ground-removing filter diag(0, b, b, 1) for each
    two-qubit mixed product state, maximizing output coherence.

    Below a threshold population (at least 0.5) the optimized coherence and
    mean energy are constant in p; above it the optimum saturates at b = 1.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    for p in p_values:
        if not 0.0 < p < 1.0:
            raise DomainError("populations p must lie in (0, 1)")

    def scan_one(p: float) -> MixedScanPoint:
        state = mixed_qubit_product(QubitParams(p=p, eta=eta), 2)
        b_opt = _golden_max(lambda b: _scan_coherence(state, b), 0.0, 1.0)
        out, _ = apply_filter(state, _zero_ground_filter(b_opt))
        return MixedScanPoint(
            p=p,
            coherence=coherence(out),
            mean_energy=mean_energy(out, TWO_QUBIT_SPECTRUM),
            b_opt=b_opt,
        )

    return [scan_one(p) for p in p_values]


def plateau_threshold(
    eta: float,
    p_lo: float = 0.05,
    p_hi: float = 0.995,
    plateau_tol: float = 1e-8,
    resolution: float = 1e-5,
) -> float:
    """Largest population p at which the optimized a=0 coherence still
    attains its small-p plateau value.

    The plateau is left quadratically, so the detected threshold converges
    to the exact one from above (by about sqrt(plateau_tol)); it therefore
    never underestimates the true threshold.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError("threshold detection needs eta in (0, 1]")
    ref = mixed_scan(eta, [p_lo])[0].coherence

    def on_plateau(p: float) -> bool:
        return mixed_scan(eta, [p])[0].coherence >= ref - plateau_tol

    if on_plateau(p_hi):
        return p_hi
    lo, hi = p_lo, p_hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if on_plateau(mid):
            lo = mid
        else:
            hi = mid
    return lo
