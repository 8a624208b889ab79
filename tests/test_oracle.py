import numpy as np
import pytest

from coherence_forge import (
    DiagonalFilter,
    DomainError,
    EnergySpectrum,
    FilterFamily,
    FilterTarget,
    InfeasibleGrid,
    QState,
    TWO_QUBIT_SPECTRUM,
    product_pure_state,
    trace_frontier,
)
from coherence_forge.oracle import (
    MAX_GRID_POINTS,
    MAX_TAIL_ROWS,
    _grid_axis,
    _grid_axis_length,
    grid_search,
    objective_value,
)
from coherence_forge.synthesis import (
    coherence_optimal_filter_pure,
    energy_optimal_filter,
)

STATE = product_pure_state(0.1, 2)
SPECTRUM = TWO_QUBIT_SPECTRUM


def test_energy_boundary_matches_closed_form():
    res = grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, 0.19, grid_step=0.02)
    assert abs(res.objective - 0.2 / 0.19) < 1e-3
    assert res.p_success == pytest.approx(0.19, abs=1e-9)


def test_full_success_returns_identity():
    res = grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, 1.0, grid_step=0.02)
    assert np.allclose(res.filter.intensities, np.ones(4), atol=1e-9)
    assert res.objective == pytest.approx(0.2, abs=1e-12)


def test_coherence_equalization_point():
    res = grid_search(STATE, SPECTRUM, FilterTarget.COHERENCE, 0.04, grid_step=0.02)
    assert abs(res.objective - np.log(4)) < 1e-3


def test_oracle_never_beats_synthesizer_on_constraint():
    for ps in (0.05, 0.12, 0.3, 0.7):
        res = grid_search(STATE, SPECTRUM, FilterTarget.COHERENCE, ps, grid_step=0.04)
        synth = objective_value(
            STATE, SPECTRUM, FilterTarget.COHERENCE, coherence_optimal_filter_pure(STATE, ps)
        )
        assert res.objective <= synth + 1e-9
        assert res.objective >= synth - 1e-3


def test_deterministic_repeat():
    a = grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, 0.4, grid_step=0.05)
    b = grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, 0.4, grid_step=0.05)
    assert np.array_equal(a.filter.coeffs, b.filter.coeffs)
    assert a.objective == b.objective


def test_rejects_high_dimensions_and_bad_grid():
    big = product_pure_state(0.2, 3)  # dimension 8
    with pytest.raises(DomainError):
        grid_search(big, _spectrum_for(8), FilterTarget.ENERGY, 0.5)
    with pytest.raises(DomainError):
        grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, 0.5, grid_step=0.7)


def _spectrum_for(dim):
    from coherence_forge import EnergySpectrum

    return EnergySpectrum(np.arange(dim, dtype=float))


def test_infeasible_tolerance_raises():
    with pytest.raises(InfeasibleGrid):
        grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, 0.155, grid_step=0.5, tolerance=1e-6)


@pytest.mark.parametrize(
    "ps, tolerance, message",
    [
        (float("nan"), None, "P_S must be a finite number"),
        (1.5, None, "P_S exceeds 1"),
        (0.0, None, "P_S must be positive"),
        (-0.2, 0.5, "P_S must be positive"),
        (0.5, float("nan"), "tolerance must be a positive finite number"),
        (0.5, float("inf"), "tolerance must be a positive finite number"),
        (0.5, -0.1, "tolerance must be a positive finite number"),
    ],
)
def test_rejects_bad_band_before_enumerating(ps, tolerance, message):
    with pytest.raises(DomainError, match=message) as info:
        grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, ps, grid_step=0.02, tolerance=tolerance)
    assert not isinstance(info.value, InfeasibleGrid)


def test_two_level_search_matches_synthesizer():
    state = product_pure_state(0.2, 1)
    spectrum = _spectrum_for(2)
    res = grid_search(state, spectrum, FilterTarget.ENERGY, 0.5, grid_step=0.05)
    synth = energy_optimal_filter(state, spectrum, 0.5)
    assert abs(res.objective - objective_value(state, spectrum, FilterTarget.ENERGY, synth)) < 1e-9
    assert res.p_success == pytest.approx(0.5, abs=1e-9)


def test_oracle_beats_a_perturbed_frontier():
    pts = trace_frontier(
        STATE, SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid=5
    )
    shortfalls = []
    for pt in pts:
        coeffs = pt.filter.coeffs.copy()
        coeffs[1] = max(coeffs[1].real - 0.1, 0.0)
        damaged = DiagonalFilter(coeffs)
        synth = objective_value(STATE, SPECTRUM, FilterTarget.COHERENCE, damaged)
        res = grid_search(STATE, SPECTRUM, FilterTarget.COHERENCE, pt.p_success, grid_step=0.05)
        shortfalls.append(res.objective - synth)
    assert max(shortfalls) > 1e-3


@pytest.mark.parametrize("step", [0.5, 0.3, 0.07, 0.04, 0.03, 0.02, 0.01, 0.0099, 1 / 3])
def test_axis_length_without_building_the_axis(step):
    assert _grid_axis_length(step) == len(_grid_axis(step))


@pytest.mark.parametrize(
    "step, rows",
    [(0.0099, "1092727"), (0.001, "1003003001"), (5e-324, "inf"), (1e-120, "inf"), (1e-300, "inf")],
)
def test_rejects_a_tail_block_above_the_limit(step, rows):
    message = f"needs {rows} tail rows at dimension 4; the limit is {MAX_TAIL_ROWS}"
    with pytest.raises(DomainError, match=message):
        grid_search(STATE, SPECTRUM, FilterTarget.ENERGY, 0.19, grid_step=step)


def test_tail_limit_admits_step_0_01():
    assert _grid_axis_length(0.01) ** 3 <= MAX_TAIL_ROWS
    state = QState.pure(np.sqrt([0.5, 0.3, 0.2]))
    spectrum = EnergySpectrum(np.array([0.0, 1.0, 2.0]))
    res = grid_search(state, spectrum, FilterTarget.COHERENCE, 0.6, grid_step=0.01)
    best = coherence_optimal_filter_pure(state, 0.6)
    assert res.objective <= objective_value(state, spectrum, FilterTarget.COHERENCE, best) + 1e-9
    assert res.p_success == pytest.approx(0.6, abs=1e-9)


def _random_pure(d):
    rng = np.random.default_rng(d)
    return QState.pure(rng.normal(size=d) + 1j * rng.normal(size=d))


@pytest.mark.parametrize(
    "d, step, points",
    [(6, 0.05, "85766121"), (6, 0.01, "1061520150601"), (5, 0.02, "345025251")],
)
def test_rejects_a_grid_above_the_point_limit(d, step, points):
    # the tail block fits, so only the total bounds the head loop; step 0.01 at
    # d = 6 would run for hours, so raising at all shows nothing was enumerated
    assert _grid_axis_length(step) ** 3 <= MAX_TAIL_ROWS
    message = f"needs {points} grid points at dimension {d}; the limit is {MAX_GRID_POINTS}"
    spectrum = EnergySpectrum(np.arange(d, dtype=float))
    with pytest.raises(DomainError, match=message) as info:
        grid_search(_random_pure(d), spectrum, FilterTarget.ENERGY, 0.5, grid_step=step)
    assert not isinstance(info.value, InfeasibleGrid)


@pytest.mark.parametrize("d, step", [(3, 0.01), (4, 0.02), (4, 0.04), (5, 0.1), (5, 0.2)])
def test_point_limit_admits_the_documented_steps(d, step):
    assert _grid_axis_length(step) ** d <= MAX_GRID_POINTS
