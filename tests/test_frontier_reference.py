"""The batched frontier layer against the per-point code it replaced.

The functions below are that code, verbatim except for the ``_reference``
prefix on their names: the one-state entropy and ``coherence``, the scalar
water-fill, then ``trace_frontier`` (one synthesizer call, ``apply_filter``
and ``QState`` per grid point) and ``mixed_scan`` (one golden-section search
per population). Every output of the package must equal theirs exactly,
except the energy and the factorized synthesizers', whose per-point code is
retired: their filters and frontiers are checked against the exact
references of ``exact_reference`` (the knapsack to 1e-12, the root of the
factorized success polynomial to 1e-14), with the error of the per-point code
where a P_S or a dimension is out of range, and the measured columns of their
frontiers still equal the per-point measurement of their own filters.
``plateau_threshold`` is checked against the exact plateau edge, computed
below from the closed-form spectrum of the a=0 output by the sign of its
slope at 60 digits (Python ``decimal``).
"""

import cmath
import decimal
import math
from typing import Callable, Sequence

import numpy as np
import pytest

from coherence_forge import (
    DiagonalFilter,
    DimensionMismatch,
    DomainError,
    EnergySpectrum,
    FilterFamily,
    FilterTarget,
    FrontierPoint,
    MixedScanPoint,
    QState,
    QubitParams,
    TWO_QUBIT_SPECTRUM,
    UnreachableSuccessProbability,
    apply_filter,
    coherence,
    mean_energy,
    mixed_qubit_product,
    product_pure_state,
    tsallis_optimal_filter,
)
from coherence_forge import synthesis as syn
from coherence_forge.statecore import (
    _BATCH_ROWS,
    EIGENVALUE_FLOOR,
    ZERO_EIGENVALUE,
    ZERO_POPULATION,
    apply_filter_rows,
)
from coherence_forge.synthesis import (
    GOLDEN_TOL,
    _RANGE_TOL,
    reachable_success_range,
)
from exact_reference import assert_energy_optimum, assert_factorized_filter, knapsack_mean_energy


def _reference_entropy(values: np.ndarray) -> float:
    """Shannon entropy of a nonnegative vector in nats; zeros contribute 0."""
    v = np.real(np.asarray(values, dtype=float))
    v = np.where((v < 0.0) & (v > EIGENVALUE_FLOOR), 0.0, v)
    v = v[v > ZERO_EIGENVALUE]
    if v.size == 0:
        return 0.0
    return float(-(v * np.log(v)).sum())


def _reference_coherence(state: QState) -> float:
    """Relative-entropy coherence S(rho_D) - S(rho), in nats.

    Zero for diagonal states; for pure states it reduces to the entropy
    of the populations. Tiny negative round-off is clamped to 0.
    """
    s_diag = _reference_entropy(state.populations)
    s_full = _reference_entropy(state._eigenvalues)
    return max(s_diag - s_full, 0.0)


def _reference_check_success_range(
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


def _reference_waterfill_level(pops: np.ndarray, p_success: float) -> float:
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


def _reference_coherence_optimal_filter_pure(state: QState, p_success: float) -> DiagonalFilter:
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
    _reference_check_success_range(p_success, ps_min, f"P_S below the full-equalization minimum {ps_min:.6g}")
    k = _reference_waterfill_level(act, min(p_success, 1.0))
    amplitudes = np.ones(state.dim)
    amplitudes[active] = np.sqrt(np.minimum(k / act, 1.0))
    return DiagonalFilter(amplitudes.astype(complex))


def _reference_optimal_filter(
    state: QState, spectrum: EnergySpectrum, target: FilterTarget, p_success: float
) -> DiagonalFilter:
    """The synthesizer of ``target`` at the given success probability:
    :func:`coherence_optimal_filter_pure` (pure states only) or
    :func:`tsallis_optimal_filter`. The energy synthesizer is checked against
    the exact knapsack of ``exact_reference`` instead."""
    if target is FilterTarget.ENERGY:
        raise AssertionError("the energy synthesizer has no per-point reference")
    if target is FilterTarget.COHERENCE:
        return _reference_coherence_optimal_filter_pure(state, p_success)
    return tsallis_optimal_filter(state, p_success)


def _reference_trace_frontier(
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

    lo, hi = reachable_success_range(state, spectrum, target, family)
    if target is FilterTarget.COHERENCE_TSALLIS and family is FilterFamily.OPTIMAL:
        ps_values = np.linspace(0.0, 1.0, grid + 1)[1:]
    else:
        if lo >= hi - 1e-15:
            raise DomainError("empty reachable success-probability range")
        ps_values = np.linspace(lo, hi, grid)

    def build(ps: float) -> FrontierPoint:
        filt = _reference_optimal_filter(state, spectrum, target, float(ps))
        out, actual = apply_filter(state, filt)
        return FrontierPoint(
            p_success=actual,
            coherence=coherence(out),
            mean_energy=mean_energy(out, spectrum),
            filter=filt,
            family=family,
        )

    return [build(ps) for ps in ps_values]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_golden_max(
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


def _reference_zero_ground_filter(b: float) -> DiagonalFilter:
    return DiagonalFilter(np.array([0.0, b, b, 1.0], dtype=complex))


def _reference_scan_coherence(state: QState, b: float) -> float:
    out, _ = apply_filter(state, _reference_zero_ground_filter(b))
    return coherence(out)


def _reference_mixed_scan(eta: float, p_values: Sequence[float]) -> list[MixedScanPoint]:
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
        b_opt = _reference_golden_max(lambda b: _reference_scan_coherence(state, b), 0.0, 1.0)
        out, _ = apply_filter(state, _reference_zero_ground_filter(b_opt))
        return MixedScanPoint(
            p=p,
            coherence=coherence(out),
            mean_energy=mean_energy(out, TWO_QUBIT_SPECTRUM),
            b_opt=b_opt,
        )

    return [scan_one(p) for p in p_values]


def _entropy_term(x: complex) -> complex:
    return 0.0 if x == 0 else -x * cmath.log(x)


def _exact_coherence(eta: float, t: complex) -> complex:
    """C(t) = S(diag sigma) - S(sigma) of the a=0 output block sigma(t) on
    |01>, |10>, |11> (diagonal t, t, 1; <01|10> = eta^2 t; <01|11> = <10|11>
    = eta sqrt(t); all over 2t + 1), from its closed-form spectrum: the
    swap-antisymmetric eigenvalue t (1 - eta^2)/(2t + 1) and the two
    eigenvalues of the symmetric block [[t (1 + eta^2), eta sqrt(2t)],
    [eta sqrt(2t), 1]]/(2t + 1). Analytic in t, for complex-step slopes."""
    norm = 2 * t + 1
    det = t * (1 - eta**2)  # the symmetric block's determinant times norm^2
    trace = t * (1 + eta**2) + 1
    big = (trace + cmath.sqrt(trace * trace - 4 * det)) / (2 * norm)
    spectrum = (det / norm, big, det / (norm * norm * big))
    diagonal = (t / norm, t / norm, 1 / norm)
    return sum(map(_entropy_term, diagonal)) - sum(map(_entropy_term, spectrum))


def _decimal_slope(eta: float, t: decimal.Decimal) -> decimal.Decimal:
    """dC/dt of ``_exact_coherence`` at 60 significant digits: a central
    difference of step 1e-20, whose truncation and round-off are below 1e-35."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        eta = decimal.Decimal(eta)

        def entropy_term(x):
            return -x * x.ln() if x > 0 else decimal.Decimal(0)

        def c(t):
            norm, det = 2 * t + 1, t * (1 - eta * eta)
            trace = t * (1 + eta * eta) + 1
            big = trace + (trace * trace - 4 * det).sqrt()
            spectrum = (det / norm, big / (2 * norm), 2 * det / (norm * big))
            diagonal = (t / norm, t / norm, 1 / norm)
            return sum(map(entropy_term, diagonal)) - sum(map(entropy_term, spectrum))

        step = decimal.Decimal("1e-20")
        return (c(t + step) - c(t - step)) / (2 * step)


def _exact_plateau_edge(eta: float) -> float:
    """1/(1 + t*), t* the maximizer of C(t): 64 bisection steps on the sign of
    ``_decimal_slope`` over t in [0.5, 1.25], to a width of 4e-20, at 60
    digits, so the edge is exact to the float it is rounded to."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lo, hi = decimal.Decimal("0.5"), decimal.Decimal("1.25")
        for _ in range(64):
            mid = (lo + hi) / 2
            if _decimal_slope(eta, mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(1 / (1 + (lo + hi) / 2))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    """Equal values with equal bits, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _assert_same_points(got: list[FrontierPoint], want: list[FrontierPoint]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for field in ("p_success", "coherence", "mean_energy"):
            assert type(getattr(g, field)) is float
            assert _same(getattr(g, field), getattr(w, field)), field
        assert _same(g.filter.coeffs, w.filter.coeffs)
        assert g.family is w.family


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


_ENERGY_OPTIMAL = (FilterTarget.ENERGY, FilterFamily.OPTIMAL)


def _assert_energy_outcome(got, state, spectrum, p_success):
    """``got``, the outcome of the energy synthesizer at ``p_success``: the
    per-point code's range error where P_S is out of range, and otherwise the
    exact knapsack's filter, to 1e-12."""
    pops = np.clip(state.populations, 0.0, None)
    top_pop = float(pops[spectrum.degeneracy_classes()[-1]].sum())
    error = _outcome(
        _reference_check_success_range, p_success, top_pop,
        f"P_S below the population {top_pop:.6g} of the highest-energy class",
    )
    if error is not None:
        assert got == error
    else:
        assert_energy_optimum(pops, spectrum.levels, got.coeffs, min(p_success, 1.0), 1e-12)


def _assert_measured(pt, state, spectrum):
    """The measured columns of a frontier point equal the per-point
    measurement of the point's own filter bit for bit."""
    out, actual = apply_filter(state, pt.filter)
    for field, want in (
        ("p_success", actual),
        ("coherence", coherence(out)),
        ("mean_energy", mean_energy(out, spectrum)),
    ):
        assert type(getattr(pt, field)) is float
        assert _same(getattr(pt, field), want), field


def _assert_exact_energy_frontier(got, state, spectrum, grid):
    """An optimal energy frontier against the exact knapsack at each grid P_S:
    each filter by ``assert_energy_optimum``, and each point's P_S and mean
    energy, to 1e-12, with the measured columns of ``_assert_measured``."""
    lo, hi = reachable_success_range(state, spectrum, *_ENERGY_OPTIMAL)
    pops = np.clip(state.populations, 0.0, None)
    assert len(got) == grid
    for pt, ps in zip(got, np.linspace(lo, hi, grid).tolist()):
        assert pt.family is FilterFamily.OPTIMAL
        assert_energy_optimum(pops, spectrum.levels, pt.filter.coeffs, ps, 1e-12)
        assert abs(pt.p_success - ps) <= 1e-12 * ps
        assert abs(pt.mean_energy - knapsack_mean_energy(pops, spectrum.levels, ps)) <= 1e-12
        _assert_measured(pt, state, spectrum)


def _factorized_error(state, p_success):
    """What the factorized synthesizer raises at ``p_success``, as the type
    and message of ``_outcome``, or None: a dimension other than 2^n with
    n >= 1, and then the range check of the family's [P(0), 1]."""
    if state.dim < 2 or state.dim & (state.dim - 1):
        return DomainError, "factorized filters require a 2^n-dimensional state"
    lo = float(state.populations[-1])
    message = f"factorized family reaches only [{lo:.6g}, 1]"
    return _outcome(_reference_check_success_range, p_success, lo, message, message)


def _assert_factorized_outcome(got, state, p_success):
    """``got``, the outcome of ``factorized_filter`` at ``p_success``: the
    per-point code's error where the dimension or P_S is out of range, and
    otherwise the filter of the exact root, to 1e-14."""
    error = _factorized_error(state, p_success)
    if error is not None:
        assert got == error, p_success
    else:
        assert_factorized_filter(state.populations, got.coeffs, p_success, 1e-14)


def _assert_factorized_frontier(state, spectrum, target, grid):
    """A factorized frontier: the per-point code's error where the dimension
    is not 2^n, and otherwise the filter of the exact root at each grid P_S,
    to 1e-14, with the measured columns of ``_assert_measured``."""
    family = FilterFamily.FACTORIZED
    got = _outcome(syn.trace_frontier, state, spectrum, target, family, grid)
    error = _factorized_error(state, 1.0)
    if error is not None:
        assert got == error
        return
    lo, hi = reachable_success_range(state, spectrum, target, family)
    assert len(got) == grid
    for pt, ps in zip(got, np.linspace(lo, hi, grid).tolist()):
        assert pt.family is family
        assert_factorized_filter(state.populations, pt.filter.coeffs, ps, 1e-14)
        _assert_measured(pt, state, spectrum)


def _random_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return QState.pure(v)


def _random_mixed(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T + 0.05 * np.eye(d)
    rho = 0.5 * (rho + rho.conj().T)
    return QState(rho / np.trace(rho).real)


def _qubit_spectrum(n):
    return EnergySpectrum(np.sort([bin(i).count("1") for i in range(2**n)]).astype(float))


_RNG = np.random.default_rng(2021)
_OTHER_STATES = {
    "d3-pure": (QState.pure(np.sqrt([0.5, 0.3, 0.2])), EnergySpectrum([0.0, 1.0, 2.0])),
    "d3-mixed": (_random_mixed(_RNG, 3), EnergySpectrum([0.0, 0.5, 2.0])),
    "d8-product": (product_pure_state(0.3, 3), _qubit_spectrum(3)),
    "d8-random": (_random_ket(_RNG, 8), _qubit_spectrum(3)),
    "d16-random": (_random_ket(_RNG, 16), _qubit_spectrum(4)),
    "degenerate": (_random_ket(_RNG, 4), EnergySpectrum([0.0, 0.0, 1.0, 1.0])),
    "degenerate-top": (_random_ket(_RNG, 4), EnergySpectrum([-1.0, 0.5, 0.5, 0.5])),
    "zero-population": (QState.pure([0.6, 0.0, 0.48, 0.64]), TWO_QUBIT_SPECTRUM),
    "zero-top-population": (QState.pure([0.6, 0.48, 0.64, 0.0]), TWO_QUBIT_SPECTRUM),
    "mixed-product": (mixed_qubit_product(QubitParams(p=0.3, eta=0.6), 2), TWO_QUBIT_SPECTRUM),
}
_TARGETS = tuple(FilterTarget)
_FAMILIES = tuple(FilterFamily)


@pytest.mark.parametrize("grid", [2, 200])
@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: t.value)
@pytest.mark.parametrize("p", [0.05, 0.25, 0.4])
def test_product_state_frontiers(p, target, family, grid):
    state = product_pure_state(p, 2)
    if family is FilterFamily.FACTORIZED:
        _assert_factorized_frontier(state, TWO_QUBIT_SPECTRUM, target, grid)
        return
    got = syn.trace_frontier(state, TWO_QUBIT_SPECTRUM, target, family, grid=grid)
    if (target, family) == _ENERGY_OPTIMAL:
        _assert_exact_energy_frontier(got, state, TWO_QUBIT_SPECTRUM, grid)
        return
    want = _reference_trace_frontier(state, TWO_QUBIT_SPECTRUM, target, family, grid=grid)
    _assert_same_points(got, want)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: t.value)
@pytest.mark.parametrize("name", list(_OTHER_STATES))
def test_other_state_frontiers(name, target, family):
    state, spectrum = _OTHER_STATES[name]
    grid = 40 if target is FilterTarget.COHERENCE_TSALLIS and state.dim > 8 else 97
    if family is FilterFamily.FACTORIZED:
        _assert_factorized_frontier(state, spectrum, target, grid)
        return
    if (target, family) == _ENERGY_OPTIMAL:
        got = syn.trace_frontier(state, spectrum, target, family, grid)
        _assert_exact_energy_frontier(got, state, spectrum, grid)
        return
    got = _outcome(syn.trace_frontier, state, spectrum, target, family, grid)
    want = _outcome(_reference_trace_frontier, state, spectrum, target, family, grid)
    if isinstance(want, tuple):  # e.g. coherence of a mixed state
        assert got == want
    else:
        _assert_same_points(got, want)


def _range_ends(state, spectrum, target, family):
    lo, hi = reachable_success_range(state, spectrum, target, family)
    return [lo, lo - 0.5 * _RANGE_TOL, lo + 1e-9, 0.5 * (lo + hi), hi, hi + 0.5 * _RANGE_TOL,
            lo - 1e-9, 1.0 + 1e-9, math.nan, math.inf]


@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: t.value)
@pytest.mark.parametrize("name", ["d3-pure", "d8-random", "degenerate", "zero-population"])
def test_synthesizers_at_the_range_ends(name, target):
    state, spectrum = _OTHER_STATES[name]
    for ps in _range_ends(state, spectrum, target, FilterFamily.OPTIMAL):
        got = _outcome(syn.optimal_filter, state, spectrum, target, ps)
        if target is FilterTarget.ENERGY:
            _assert_energy_outcome(got, state, spectrum, ps)
            continue
        want = _outcome(_reference_optimal_filter, state, spectrum, target, ps)
        if isinstance(want, tuple):
            assert got == want, ps
        else:
            assert _same(got.coeffs, want.coeffs), ps
    for ps in _range_ends(state, spectrum, target, FilterFamily.FACTORIZED):
        _assert_factorized_outcome(_outcome(syn.factorized_filter, state, ps), state, ps)


def test_factorized_filter_meets_the_exact_root():
    """Seeded product, pure and mixed states of n = 1-4 qubits: at P(0), just
    above it, across the range and at 1, the filter is that of the exact
    root, its P_S within 1e-14 in rationals; P(0) gives b = 0 exactly and
    P_S = 1 the identity, also on a state whose trace exceeds 1 by 5e-13,
    inside the trace tolerance."""
    rng = np.random.default_rng(35)
    states = [QState(np.diag([0.4, 0.3, 0.2, 0.1 + 5e-13]))]
    for n in (1, 2, 3, 4):
        d = 2**n
        states += [product_pure_state(p, n) for p in rng.uniform(0.0, 1.0, 4).tolist()]
        states += [_random_ket(rng, d) for _ in range(4)]
        states += [_random_mixed(rng, d) for _ in range(4)]
    for state in states:
        lo = max(float(state.populations[-1]), 2e-14)
        for ps in [lo, lo * (1 + 1e-9), *rng.uniform(lo, 1.0, 8).tolist(), 1.0]:
            filt = syn.factorized_filter(state, ps)
            assert_factorized_filter(state.populations, filt.coeffs, ps, 1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factorized_frontier_rows_are_the_scalar_filters(n):
    """The lockstep Newton iteration gives each row the bits that
    ``factorized_filter`` gives it alone: at every grid P_S, from P(0) to 1,
    a factorized frontier's filter equals the scalar filter there, on seeded
    product, pure and mixed states of n qubits."""
    rng = np.random.default_rng(3500 + n)
    d, spectrum = 2**n, _qubit_spectrum(n)
    family = FilterFamily.FACTORIZED
    for state in (product_pure_state(rng.uniform(), n), _random_ket(rng, d), _random_mixed(rng, d)):
        lo, hi = reachable_success_range(state, spectrum, FilterTarget.ENERGY, family)
        got = syn.trace_frontier(state, spectrum, FilterTarget.ENERGY, family, 60)
        assert len(got) == 60
        for pt, ps in zip(got, np.linspace(lo, hi, 60).tolist()):
            assert _same(pt.filter.coeffs, syn.factorized_filter(state, ps).coeffs), ps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factorized_filter_on_one_power(n):
    """Only |0...0> populated: P(x) = x^n, whose slope vanishes at 0 for
    n > 1, so far above a small root Newton shrinks x only by about 1 - 1/n
    a step. The loop still ends, and from the P_S floor 2e-14 up to 1 the
    filter is that of the exact root, b = P_S^(1/2n)."""
    state = QState.pure(np.eye(2**n)[0])
    for ps in [2e-14, 1e-9, 1e-3, 0.3, 0.999999, 1.0]:
        filt = syn.factorized_filter(state, ps)
        assert_factorized_filter(state.populations, filt.coeffs, ps, 1e-14)


def test_scalar_synthesizers_match_on_a_dense_grid():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = _random_ket(rng, 4)
        for ps in rng.uniform(0.0, 1.0, size=25).tolist():
            got = _outcome(syn.energy_optimal_filter, state, TWO_QUBIT_SPECTRUM, ps)
            _assert_energy_outcome(got, state, TWO_QUBIT_SPECTRUM, ps)
            got = _outcome(syn.coherence_optimal_filter_pure, state, ps)
            want = _outcome(_reference_coherence_optimal_filter_pure, state, ps)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert _same(got.coeffs, want.coeffs)
            _assert_factorized_outcome(_outcome(syn.factorized_filter, state, ps), state, ps)


def _random_rank(rng, d, rank):
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return QState(rho / np.trace(rho).real)


def _random_diagonal(rng, d):
    pops = rng.uniform(size=d) * (rng.uniform(size=d) < 0.7)
    pops[rng.integers(d)] += 0.1
    return QState(np.diag(pops / pops.sum()))


def test_coherence_matches_the_one_state_entropy():
    rng = np.random.default_rng(8)
    states = []
    for d in (2, 3, 4, 5, 6, 8, 9, 12, 16):
        for _ in range(25):
            states += [
                _random_mixed(rng, d),
                _random_ket(rng, d),
                _random_rank(rng, d, 2),
                _random_diagonal(rng, d),
            ]
    for n in (1, 2, 3, 4):
        for p in (0.0, 1e-9, 0.05, 0.3, 0.5, 0.9, 1.0):
            states.append(product_pure_state(p, n))
            for eta in (0.0, 1e-3, 0.5, 1.0):
                states.append(mixed_qubit_product(QubitParams(p=p, eta=eta), n))
    for state in states:
        got, want = coherence(state), _reference_coherence(state)
        assert type(got) is float
        if state.dim < 8:
            assert _same(got, want), state.matrix
        else:
            # 8 or more entropy terms are summed pairwise, with the dropped
            # entries in place as 0.0 where the reference drops them
            assert abs(got - want) <= 1e-14 and math.copysign(1.0, got) == 1.0, state.matrix


_SCAN_P = [0.001, *np.linspace(0.05, 0.6, 12).tolist(), 0.75, 0.999]


@pytest.mark.parametrize("eta", [0.0, 1e-3, 0.5, 0.75, 1.0])
def test_mixed_scan(eta):
    got = syn.mixed_scan(eta, _SCAN_P)
    want = _reference_mixed_scan(eta, _SCAN_P)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.p is w.p
        for field in ("coherence", "mean_energy", "b_opt"):
            assert type(getattr(g, field)) is float
            assert _same(getattr(g, field), getattr(w, field)), field


def test_mixed_scan_keeps_inputs_and_empty_scans():
    p_values = np.linspace(0.1, 0.4, 4)  # numpy floats pass through as given
    got = syn.mixed_scan(0.8, p_values)
    assert [g.p for g in got] == list(p_values)
    assert [type(g.p) for g in got] == [np.float64] * 4
    assert syn.mixed_scan(0.5, []) == _reference_mixed_scan(0.5, []) == []
    assert syn.mixed_scan(0.5, np.array([])) == []
    for bad in ((1.5, [0.2]), (0.5, [0.2, 1.0])):
        assert _outcome(syn.mixed_scan, *bad) == _outcome(_reference_mixed_scan, *bad)


def test_long_mixed_scan_keeps_its_batches_bounded(monkeypatch):
    rows = []

    def recording(matrix, coeffs):
        rows.append(len(coeffs))
        return apply_filter_rows(matrix, coeffs)

    monkeypatch.setattr(syn, "apply_filter_rows", recording)
    p_values = np.linspace(0.01, 0.99, 130).tolist()  # more states than one search batch holds
    got = syn.mixed_scan(0.6, p_values)
    assert max(rows) <= _BATCH_ROWS
    want = _reference_mixed_scan(0.6, p_values)
    assert [(g.coherence, g.mean_energy, g.b_opt) for g in got] == [
        (w.coherence, w.mean_energy, w.b_opt) for w in want
    ]


@pytest.mark.parametrize(
    "eta",
    [
        1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0,
        0.35, 0.4, 0.55, 0.65, 0.7, 0.8, 0.85, 0.95, 0.99,
    ],
)
def test_plateau_threshold(eta):
    got = syn.plateau_threshold(eta)
    assert type(got) is float
    # the docstring's band: 0 to 1e-12 above the edge, moved either way by
    # the round-off of dC/dt, whose terms cancel to order eta^2
    assert abs(got - _exact_plateau_edge(eta)) <= 1e-12 + 2e-16 / eta**2


def test_exact_plateau_edge_at_eta_one():
    # the pure state's plateau ends where (t, t, 1) is uniform, at t* = 1
    assert _exact_plateau_edge(1.0) == pytest.approx(0.5, abs=1e-14)
    got = syn.plateau_threshold(1.0)
    assert 0.5 <= got <= 0.5 + 1e-12


def test_plateau_threshold_takes_both_exits():
    # eta below the resolvable 1e-4 (0 included), above 1, or NaN
    for eta in (0.0, 5e-5, 1.5, math.nan):
        with pytest.raises(DomainError, match=r"eta in \[0.0001, 1\]"):
            syn.plateau_threshold(eta)


def test_coherence_slope_matches_the_complex_step_derivative():
    rng = np.random.default_rng(28)
    step = 1e-30
    for eta, t in zip(rng.uniform(1e-3, 1.0, 3000).tolist(), rng.uniform(0.05, 20.0, 3000).tolist()):
        got = syn._coherence_slope(eta, t)
        assert type(got) is float
        assert abs(got - _exact_coherence(eta, complex(t, step)).imag / step) <= 1e-13, (eta, t)


def test_coherence_slope_at_eta_one_is_the_dephased_part():
    # the antisymmetric and the small symmetric eigenvalue vanish, and the
    # large one is 1 for every t, so only -(2/N^2) log t is left
    for t in (0.05, 0.5, 1.0, 2.0, 20.0):
        norm = 2.0 * t + 1.0
        assert syn._coherence_slope(1.0, t) == -2.0 * math.log(t) / (norm * norm)


def _above_edge(eta: float, p: float) -> bool:
    """Whether p lies above the exact plateau edge: dC/dt > 0 at t = (1 - p)/p,
    the exact t of p, at 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = decimal.Decimal(p)
        return _decimal_slope(eta, (1 - p) / p) > 0


def test_plateau_threshold_brackets_the_exact_edge():
    # the docstring's claim: 0 to 1e-12 above the edge, moved either way by
    # at most 2e-16/eta^2 of round-off in the sign of dC/dt (5e-13 at eta = 0.02)
    for eta in np.random.default_rng(28).uniform(0.02, 1.0, 300).tolist():
        got = syn.plateau_threshold(eta)
        slack = 2e-16 / eta**2
        assert _above_edge(eta, got + slack), eta
        assert not _above_edge(eta, got - 1e-12 - slack), eta


def test_plateau_threshold_calls_no_numpy(monkeypatch):
    want = syn.plateau_threshold(0.75)
    monkeypatch.setattr(syn, "np", None)  # any numpy call raises AttributeError
    assert syn.plateau_threshold(0.75) == want
    assert type(syn._coherence_slope(0.75, 1.0)) is float


def _tied_pure_state(rng, d):
    """A random pure state with Dirichlet populations and, for d > 2, one
    level unpopulated; every other draw rounds the populations to 0.1, so
    levels tie."""
    while True:
        pops = rng.dirichlet(np.ones(d))
        if rng.uniform() < 0.5:
            pops = np.round(pops, 1)
        if d > 2:
            pops[rng.integers(d)] = 0.0
        if np.count_nonzero(pops) >= 2:
            phases = np.exp(2j * np.pi * rng.uniform(size=d))
            return QState.pure(np.sqrt(pops / pops.sum()) * phases)


def test_optimal_frontiers_match_the_per_point_code_at_every_point():
    """Energy and pure-state coherence frontiers, d = 2-8, on spectra rounded
    to 0.1 so that degeneracy classes form: every coefficient, P_S, coherence
    and mean energy of a coherence frontier equals the per-point reference
    bit for bit, and every point of an energy frontier the exact knapsack."""
    rng = np.random.default_rng(1717)
    for d in range(2, 9):
        for _ in range(6):
            state = _tied_pure_state(rng, d)
            spectrum = EnergySpectrum(np.sort(np.round(rng.uniform(0.0, 2.0, size=d), 1)))
            args = (state, spectrum, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, 50)
            _assert_same_points(syn.trace_frontier(*args), _reference_trace_frontier(*args))
            got = syn.trace_frontier(state, spectrum, *_ENERGY_OPTIMAL, 50)
            _assert_exact_energy_frontier(got, state, spectrum, 50)
