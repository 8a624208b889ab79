"""The batched frontier layer against the per-point code it replaced.

The functions below are that code, verbatim except for the ``_reference``
prefix on their names: the scalar synthesizers and Brent loop, then
``trace_frontier`` (one synthesizer call, ``apply_filter`` and ``QState`` per
grid point), ``mixed_scan`` (one golden-section search per population) and
``plateau_threshold`` (one ``mixed_scan`` per bisection step). Every output
of the package must equal theirs exactly.
"""

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
from coherence_forge.statecore import _BATCH_ROWS, ZERO_POPULATION, apply_filter_rows
from coherence_forge.synthesis import (
    DEGENERACY_TOL,
    GOLDEN_TOL,
    _RANGE_TOL,
    _qubit_count,
    reachable_success_range,
)


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


def _reference_energy_optimal_filter(
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
    _reference_check_success_range(
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
    :func:`energy_optimal_filter`, :func:`coherence_optimal_filter_pure` (pure
    states only) or :func:`tsallis_optimal_filter`."""
    if target is FilterTarget.ENERGY:
        return _reference_energy_optimal_filter(state, spectrum, p_success)
    if target is FilterTarget.COHERENCE:
        return _reference_coherence_optimal_filter_pure(state, p_success)
    return tsallis_optimal_filter(state, p_success)


def _reference_brent_root(
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


def _reference_factorized_single_qubit(b: float, n_qubits: int) -> DiagonalFilter:
    """Tensor power of the single-qubit filter diag(b, 1)."""
    single = np.array([b, 1.0], dtype=complex)
    c = single
    for _ in range(n_qubits - 1):
        c = np.kron(c, single)
    return DiagonalFilter(c)


def _reference_factorized_filter(state: QState, p_success: float) -> DiagonalFilter:
    """Factorized filter whose success probability on ``state`` equals ``p_success``."""
    n = _qubit_count(state.dim)
    pops = state.populations
    lo = float(pops[-1])
    message = f"factorized family reaches only [{lo:.6g}, 1]"
    _reference_check_success_range(p_success, lo, message, above=message)
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
        b = _reference_brent_root(gap, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    return _reference_factorized_single_qubit(b, n)


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
        if family is FilterFamily.FACTORIZED:
            filt = _reference_factorized_filter(state, float(ps))
        else:
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


# plateau_threshold: the plateau reference population, the search bracket's
# upper end, the coherence drop that leaves the plateau and the bisection width
_PLATEAU_P_LO = 0.05
_PLATEAU_P_HI = 0.995
_PLATEAU_TOL = 1e-8
_PLATEAU_RESOLUTION = 1e-5


def _reference_plateau_threshold(eta: float) -> float:
    """Largest population p in [0.05, 0.995] at which the optimized a=0
    coherence still attains its small-p plateau value (within 1e-8), to 1e-5.

    The plateau is left quadratically, so the detected threshold converges
    to the exact one from above (by about sqrt(1e-8)); it therefore never
    underestimates the true threshold.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError("threshold detection needs eta in (0, 1]")
    ref = _reference_mixed_scan(eta, [_PLATEAU_P_LO])[0].coherence

    def on_plateau(p: float) -> bool:
        return _reference_mixed_scan(eta, [p])[0].coherence >= ref - _PLATEAU_TOL

    if on_plateau(_PLATEAU_P_HI):
        return _PLATEAU_P_HI
    lo, hi = _PLATEAU_P_LO, _PLATEAU_P_HI
    while hi - lo > _PLATEAU_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if on_plateau(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
    got = syn.trace_frontier(state, TWO_QUBIT_SPECTRUM, target, family, grid=grid)
    want = _reference_trace_frontier(state, TWO_QUBIT_SPECTRUM, target, family, grid=grid)
    _assert_same_points(got, want)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: t.value)
@pytest.mark.parametrize("name", list(_OTHER_STATES))
def test_other_state_frontiers(name, target, family):
    state, spectrum = _OTHER_STATES[name]
    grid = 40 if target is FilterTarget.COHERENCE_TSALLIS and state.dim > 8 else 97
    got = _outcome(syn.trace_frontier, state, spectrum, target, family, grid)
    want = _outcome(_reference_trace_frontier, state, spectrum, target, family, grid)
    if isinstance(want, tuple):  # e.g. factorized at d = 3, coherence of a mixed state
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
        want = _outcome(_reference_optimal_filter, state, spectrum, target, ps)
        if isinstance(want, tuple):
            assert got == want, ps
        else:
            assert _same(got.coeffs, want.coeffs), ps
    if state.dim in (4, 8):
        for ps in _range_ends(state, spectrum, target, FilterFamily.FACTORIZED):
            got = _outcome(syn.factorized_filter, state, ps)
            want = _outcome(_reference_factorized_filter, state, ps)
            if isinstance(want, tuple):
                assert got == want, ps
            else:
                assert _same(got.coeffs, want.coeffs), ps


def test_scalar_synthesizers_match_on_a_dense_grid():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = _random_ket(rng, 4)
        for ps in rng.uniform(0.0, 1.0, size=25).tolist():
            for fn, ref in (
                (lambda s, x: syn.energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, x),
                 lambda s, x: _reference_energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, x)),
                (syn.coherence_optimal_filter_pure, _reference_coherence_optimal_filter_pure),
                (syn.factorized_filter, _reference_factorized_filter),
            ):
                got, want = _outcome(fn, state, ps), _outcome(ref, state, ps)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert _same(got.coeffs, want.coeffs)


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
    assert _same(got, _reference_plateau_threshold(eta))


@pytest.mark.parametrize("eta", [0.01, 0.5, 0.75, 1.0])
def test_plateau_threshold_survives_a_wrong_prediction(monkeypatch, eta):
    predict = syn._predicted_on_plateau
    monkeypatch.setattr(syn, "_predicted_on_plateau", lambda *args: not predict(*args))
    assert _same(syn.plateau_threshold(eta), _reference_plateau_threshold(eta))


@pytest.mark.parametrize("eta", [0.6, 0.75, 1.0])
def test_plateau_threshold_scans_in_two_batches(monkeypatch, eta):
    batches = []

    def counting(matrices):
        batches.append(len(matrices))
        return optimal_b(matrices)

    optimal_b = syn._optimal_b
    monkeypatch.setattr(syn, "_optimal_b", counting)
    syn.plateau_threshold(eta)
    assert len(batches) <= 2


def test_plateau_threshold_takes_both_exits():
    # a coherence this weak stays within the plateau tolerance up to the bracket's end
    assert syn.plateau_threshold(1e-4) == _reference_plateau_threshold(1e-4) == 0.995
    assert syn.plateau_threshold(1.0) < 0.995
    for eta in (0.0, 1.5):
        assert _outcome(syn.plateau_threshold, eta) == _outcome(_reference_plateau_threshold, eta)


# ---------------------------------------------------------------------------
# The lockstep Brent iteration against the scalar loop
# ---------------------------------------------------------------------------


def _factorized_gap(state: QState, p_success: float) -> Callable[[float], float]:
    n = _qubit_count(state.dim)
    pops = state.populations
    zero_counts = np.array([n - bin(i).count("1") for i in range(state.dim)], dtype=int)
    return lambda b: float((pops * (b * b) ** zero_counts).sum()) - p_success


def _temperature_gap(levels, energy) -> tuple[Callable[[float], float], float, float]:
    levels = np.asarray(levels, dtype=float)

    def gap(beta: float) -> float:
        return float((levels * syn._gibbs_populations(levels, beta)).sum()) - energy

    lo, hi = -1.0, 1.0
    while gap(lo) <= 0.0:
        lo *= 2.0
    while gap(hi) >= 0.0:
        hi *= 2.0
    return gap, lo, hi


def _pinned_brackets():
    """(function, xa, xb, xtol, rtol) of every root pinned in TestRootFinderPins."""
    cases = []
    for p, n, ps in [(0.1, 2, 0.5), (0.3, 3, 0.4), (0.25, 1, 0.6)]:
        cases.append((_factorized_gap(product_pure_state(p, n), ps), 0.0, 1.0, 1e-15, 8.9e-16))
    cases.append(
        (_factorized_gap(QState.pure(np.linspace(1.0, 2.5, 16)), 0.3), 0.0, 1.0, 1e-15, 8.9e-16)
    )
    state = product_pure_state(0.1, 2)
    cases.append(
        (_factorized_gap(state, float(state.populations[-1])), 0.0, 1.0, 1e-15, 8.9e-16)
    )
    for levels, energy in [
        ([0.0, 1.0, 1.0, 2.0], 0.2),
        ([0.0, 1.0, 1.0, 2.0], 1.5),
        ([0.0, 1.0, 2.0, 3.0, 4.0], 0.7),
        ([-1.0, 0.5, 2.0], 1.9),
    ]:
        gap, lo, hi = _temperature_gap(levels, energy)
        cases.append((gap, lo, hi, 1e-14, 8.9e-16))
    for fn in (lambda x: x, lambda x: x - 1.0, lambda x: x * x - 0.25, lambda x: x**3 - 0.3):
        cases.append((fn, 0.0, 1.0, 1e-15, 8.9e-16))
    return cases


def _lockstep(fns):
    return lambda x, rows: np.array([float(fns[r](float(v))) for v, r in zip(x, rows)])


@pytest.mark.parametrize("tol", [(1e-15, 8.9e-16), (1e-14, 8.9e-16)])
def test_lockstep_brent_matches_the_scalar_loop(tol):
    cases = _pinned_brackets()
    fns = [c[0] for c in cases]
    roots = syn._brent_roots(
        _lockstep(fns), [c[1] for c in cases], [c[2] for c in cases], *tol
    )
    for root, (fn, xa, xb, _, _) in zip(roots.tolist(), cases):
        assert _same(root, _reference_brent_root(fn, xa, xb, *tol))
    # and each bracket alone, through the one-row entry point
    for fn, xa, xb, xtol, rtol in cases:
        assert _same(syn._brent_root(fn, xa, xb, xtol, rtol), _reference_brent_root(fn, xa, xb, xtol, rtol))


def _first_failure(cases, maxiter):
    for fn, xa, xb in cases:
        outcome = _outcome(_reference_brent_root, fn, xa, xb, 1e-15, 8.9e-16, maxiter)
        if isinstance(outcome, tuple):
            return outcome
    return None


@pytest.mark.parametrize(
    "fns",
    [
        [lambda x: x * x - 0.25, lambda x: x * x + 1.0],
        [lambda x: x * x + 1.0, lambda x: x**3 - 0.3],
        [lambda x: x, lambda x: float("nan"), lambda x: x**3 - 0.3],
        [lambda x: x - 1.0, lambda x: x**3 - 0.3, lambda x: x * x + 1.0],
    ],
    ids=["slow-then-unbracketed", "unbracketed-first", "nan-second", "endpoint-slow-unbracketed"],
)
@pytest.mark.parametrize("maxiter", [0, 2, 300])
def test_lockstep_brent_raises_for_the_first_failing_row(fns, maxiter):
    cases = [(fn, 0.0, 1.0) for fn in fns]
    expected = _first_failure(cases, maxiter)
    got = _outcome(
        syn._brent_roots, _lockstep(fns), [0.0] * len(fns), [1.0] * len(fns),
        1e-15, 8.9e-16, maxiter,
    )
    assert expected is not None
    assert got == expected
