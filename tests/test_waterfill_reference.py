"""The row water-fill against the scalar water-fill it replaced.

``_reference_waterfill_level`` and ``_reference_coherence_optimal_filter_pure``
are the scalar synthesizer as it stood before ``_waterfill_rows``, verbatim
(with ``_clipped`` and ``_sum``, which only it used the same way). Every row of
``_waterfill_rows``, every ``coherence_optimal_filter_pure`` call and every
point of a pure-state coherence frontier must equal it bit for bit, and every
rejected input must raise the same error type and message.
"""

import math

import numpy as np
import pytest

from coherence_forge import (
    DiagonalFilter,
    DomainError,
    EnergySpectrum,
    FilterFamily,
    FilterTarget,
    QState,
    QubitParams,
    coherence_optimal_filter_pure,
    mixed_qubit_product,
    product_pure_state,
    trace_frontier,
)
from coherence_forge.statecore import ZERO_POPULATION
from coherence_forge.synthesis import (
    _check_success_range,
    _waterfill_rows,
    reachable_success_range,
)


def _reference_clipped(state: QState) -> list[float]:
    """The state's populations with negative round-off raised to 0.0, as
    Python floats: ``np.clip(state.populations, 0.0, None).tolist()``."""
    return [x if x > 0.0 else 0.0 for x in state.populations.tolist()]


def _reference_sum(values: list[float]) -> float:
    """``float(np.sum(values))``. numpy adds fewer than 8 terms one by one
    from +0.0, so a short list is added up the same way in Python."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for value in values:
        total += value
    return total


def _reference_waterfill_level(pops: list[float], p_success: float) -> float:
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
    pops = _reference_clipped(state)
    active = [j for j, x in enumerate(pops) if x >= ZERO_POPULATION]
    if len(active) < 2:
        raise DomainError("state must populate at least two levels")
    act = [pops[j] for j in active]
    ps_min = _reference_sum([min(act)] * len(act))
    _check_success_range(p_success, ps_min, "P_S below the full-equalization minimum {:.6g}")
    k = _reference_waterfill_level(act, min(p_success, 1.0))
    amplitudes = [1.0] * state.dim
    for j, x in zip(active, act):
        amplitudes[j] = math.sqrt(min(k / x, 1.0))
    return DiagonalFilter(np.array(amplitudes, dtype=complex))


def _edge(state: QState) -> float:
    """The full-equalization edge exactly as the scalar synthesizer computes it."""
    act = [x for x in _reference_clipped(state) if x >= ZERO_POPULATION]
    return _reference_sum([min(act)] * len(act))


def _ket(rng: np.random.Generator, pops: np.ndarray) -> QState:
    return QState.pure(np.sqrt(pops / pops.sum()) * np.exp(2j * np.pi * rng.random(pops.size)))


def _states():
    rng = np.random.default_rng(2101)
    cases = []
    for d in [*range(2, 9), 12, 16]:
        for r in range(3):
            pops = rng.dirichlet([rng.uniform(0.3, 3.0)] * d)
            cases.append(pytest.param(_ket(rng, pops), id=f"random-d{d}-{r}"))
        if d >= 3:
            tied = rng.dirichlet([1.0] * d)
            tied[1 : min(d - 1, 3)] = tied[0]
            cases.append(pytest.param(_ket(rng, tied), id=f"tied-d{d}"))
            empty = rng.dirichlet([1.0] * d)
            empty[rng.integers(d)] = 0.0
            cases.append(pytest.param(_ket(rng, empty), id=f"unpopulated-d{d}"))
    cases.append(pytest.param(_ket(rng, np.array([1.0, 1.0, 1.0, 1.0, 2.0])), id="four-tied-d5"))
    cases.append(pytest.param(product_pure_state(0.1, 2), id="product-p0.1-n2"))
    cases.append(pytest.param(product_pure_state(0.3, 3), id="product-p0.3-n3"))
    cases.append(
        pytest.param(QState.pure(np.sqrt([2e-14, 0.5, 0.5 - 2e-14])), id="near-zero-minimum")
    )
    # a trace 5e-13 short of 1, inside its tolerance: at P_S = 1 no ceiling
    # brackets, and K falls back to the largest population
    short = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4]) * (1.0 - 5e-13))
    cases.append(pytest.param(QState(np.outer(short, short)), id="trace-short-of-one"))
    return cases


def _bits(filt: DiagonalFilter) -> bytes:
    return filt.coeffs.view(float).tobytes()


@pytest.mark.parametrize("grid", [2, 200])
@pytest.mark.parametrize("state", _states())
def test_rows_match_the_scalar_water_fill(state, grid):
    spectrum = EnergySpectrum(np.arange(state.dim, dtype=float))
    lo, hi = reachable_success_range(
        state, spectrum, FilterTarget.COHERENCE, FilterFamily.OPTIMAL
    )
    ps = [*np.linspace(lo, hi, grid).tolist(), _edge(state), 1.0, 1.0 + 1e-13]
    want = [_bits(_reference_coherence_optimal_filter_pure(state, p)) for p in ps]
    rows = _waterfill_rows(state, ps)
    assert rows.shape == (len(ps), state.dim) and rows.dtype == complex
    assert [row.view(float).tobytes() for row in rows] == want
    assert [_bits(coherence_optimal_filter_pure(state, p)) for p in ps] == want
    frontier = trace_frontier(state, spectrum, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid)
    assert [_bits(pt.filter) for pt in frontier] == want[:grid]


PAIR = product_pure_state(0.1, 2)
NEAR_ZERO_MINIMUM = QState.pure(np.sqrt([2e-14, 0.5, 0.5 - 2e-14]))
ERROR_CASES = {
    "mixed": (mixed_qubit_product(QubitParams(p=0.3, eta=0.5), 2), 0.5),
    "one-populated-level": (product_pure_state(0.0, 2), 0.5),
    "below-the-edge": (PAIR, 0.5 * _edge(PAIR)),
    "just-below-the-edge": (PAIR, _edge(PAIR) - 2e-12),
    "nan": (PAIR, float("nan")),
    "inf": (PAIR, float("inf")),
    "above-one": (PAIR, 1.0 + 2e-12),
    "zero": (NEAR_ZERO_MINIMUM, 0.0),
    "negative": (NEAR_ZERO_MINIMUM, -1e-16),
    "below-the-annihilation-floor": (NEAR_ZERO_MINIMUM, 1.5e-14),
}


def _error(call):
    with pytest.raises(DomainError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("state, p_success", ERROR_CASES.values(), ids=list(ERROR_CASES))
def test_errors_match_the_scalar_water_fill(state, p_success):
    want = _error(lambda: _reference_coherence_optimal_filter_pure(state, p_success))
    assert _error(lambda: coherence_optimal_filter_pure(state, p_success)) == want
    good = [0.6, 0.8, 1.0]
    for at in range(len(good) + 1):
        ps = [*good[:at], p_success, *good[at:]]
        assert _error(lambda: _waterfill_rows(state, ps)) == want


@pytest.mark.parametrize(
    "first, second", [(float("nan"), 1.5), (1.5, 0.001), (0.001, float("nan")), (1e-15, 1.5)]
)
def test_the_first_failing_row_raises(first, second):
    want = _error(lambda: _reference_coherence_optimal_filter_pure(PAIR, first))
    assert _error(lambda: _waterfill_rows(PAIR, [0.5, first, 0.7, second, 0.9])) == want


def test_no_rows():
    assert _waterfill_rows(PAIR, []).shape == (0, 4)
