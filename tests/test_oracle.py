import numpy as np
import pytest

from coherence_forge import (
    DiagonalFilter,
    DomainError,
    FilterFamily,
    FilterTarget,
    InfeasibleGrid,
    TWO_QUBIT_SPECTRUM,
    product_pure_state,
    trace_frontier,
)
from coherence_forge.oracle import grid_search, objective_value, verify_frontier
from coherence_forge.synthesis import (
    FrontierPoint,
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


def test_two_level_search_matches_synthesizer():
    state = product_pure_state(0.2, 1)
    spectrum = _spectrum_for(2)
    res = grid_search(state, spectrum, FilterTarget.ENERGY, 0.5, grid_step=0.05)
    synth = energy_optimal_filter(state, spectrum, 0.5)
    assert abs(res.objective - objective_value(state, spectrum, FilterTarget.ENERGY, synth)) < 1e-9
    assert res.p_success == pytest.approx(0.5, abs=1e-9)


def test_verify_frontier_passes_on_synthesized_points():
    pts = trace_frontier(
        STATE, SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid=12
    )
    report = verify_frontier(
        pts, STATE, SPECTRUM, FilterTarget.COHERENCE, samples=4, grid_step=0.05
    )
    assert report.passed
    assert report.max_shortfall <= 1e-3


def test_verify_frontier_flags_perturbed_filter():
    pts = trace_frontier(
        STATE, SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid=5
    )
    damaged = []
    for pt in pts:
        coeffs = pt.filter.coeffs.copy()
        coeffs[1] = max(coeffs[1].real - 0.1, 0.0)
        damaged.append(
            FrontierPoint(
                p_success=pt.p_success,
                coherence=pt.coherence,
                mean_energy=pt.mean_energy,
                filter=DiagonalFilter(coeffs),
                family=pt.family,
            )
        )
    report = verify_frontier(
        damaged, STATE, SPECTRUM, FilterTarget.COHERENCE, samples=5, grid_step=0.05
    )
    assert not report.passed
    assert report.max_shortfall > 1e-3


def test_verify_frontier_deterministic_sampling():
    pts = trace_frontier(
        STATE, SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid=12
    )
    a = verify_frontier(pts, STATE, SPECTRUM, FilterTarget.COHERENCE, samples=3, seed=0)
    b = verify_frontier(pts, STATE, SPECTRUM, FilterTarget.COHERENCE, samples=3, seed=0)
    assert a == b
