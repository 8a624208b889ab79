import dataclasses
import math
from fractions import Fraction

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
    TWO_QUBIT_SPECTRUM,
    UnreachableSuccessProbability,
    apply_filter,
    coherence,
    coherence_optimal_filter_pure,
    coherence_tsallis,
    energy_optimal_filter,
    factorized_filter,
    mean_energy,
    mixed_qubit_product,
    mixed_scan,
    optimal_filter,
    plateau_threshold,
    product_pure_state,
    success_probability,
    thermal_benchmark_state,
    trace_frontier,
    tsallis_optimal_filter,
    two_qubit_closed_form,
)
from coherence_forge import synthesis
from coherence_forge.cli import EXIT_DOMAIN, EXIT_OK, main
from coherence_forge.oracle import grid_search, objective_value
from coherence_forge.statecore import _ANNIHILATION_TOL, TRACE_TOL, ZERO_POPULATION, qstate_to_text
from coherence_forge.synthesis import (
    coherence_lower_branch,
    coherence_upper_branch,
    energy_lower_branch,
    energy_upper_branch,
    reachable_success_range,
    solve_inverse_temperature,
    success_threshold,
)
from exact_reference import assert_energy_optimum, inverse_temperature, populated_classes


def shannon(v):
    v = np.asarray(v, float)
    v = v[v > 1e-14]
    return float(-(v * np.log(v)).sum())


def random_positive_state(rng, d):
    """Diagonal-dominant random state with strictly positive populations."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T + 0.05 * np.eye(d)
    rho = 0.5 * (rho + rho.conj().T)
    return QState(rho / np.trace(rho).real)


class TestEnergyOptimal:
    def test_identity_at_full_success(self):
        s = product_pure_state(0.1, 2)
        filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, 1.0)
        assert np.allclose(filt.coeffs, np.ones(4))

    def test_ground_removal_boundary(self):
        s = product_pure_state(0.1, 2)
        filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, 0.19)
        assert np.allclose(filt.coeffs, [0, 1, 1, 1], atol=1e-12)
        out, ps = apply_filter(s, filt)
        assert ps == pytest.approx(0.19, abs=1e-12)
        assert mean_energy(out, TWO_QUBIT_SPECTRUM) == pytest.approx(0.2 / 0.19, abs=1e-12)

    def test_keep_only_top_level(self):
        s = product_pure_state(0.1, 2)
        filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, 0.01)
        assert np.allclose(filt.coeffs, [0, 0, 0, 1], atol=1e-12)
        out, _ = apply_filter(s, filt)
        assert mean_energy(out, TWO_QUBIT_SPECTRUM) == pytest.approx(2.0, abs=1e-12)
        assert coherence(out) == pytest.approx(0.0, abs=1e-12)

    def test_tiny_success_probability_in_the_top_populated_class(self):
        # the highest level is empty, so the cut class {1, 2} alone passes
        # P_S: a kept fraction of 1e-13 is the answer, not round-off to snap
        s = QState.pure(np.sqrt([0.25, 0.25, 0.5, 0.0]))
        filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, 1e-13)
        mags = np.abs(filt.coeffs)
        assert mags[0] == 0.0 and mags[1] == mags[2] > 0.0 and mags[3] == 1.0
        out, ps = apply_filter(s, filt)
        assert ps == pytest.approx(1e-13, abs=1e-15)
        assert mean_energy(out, TWO_QUBIT_SPECTRUM) == pytest.approx(1.0, abs=1e-12)
        # with population above the cut, the same kept fraction is snapped
        s = QState.pure(np.sqrt([0.25, 0.25, 0.25, 0.25]))
        filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, 0.25 + 1e-14)
        assert np.array_equal(filt.coeffs, [0, 0, 0, 1])

    @pytest.mark.parametrize(
        "state, spectrum",
        [
            pytest.param(
                QState.pure(np.sqrt([0.25, 0.25, 0.5, 0.0])), TWO_QUBIT_SPECTRUM, id="d4-top-empty"
            ),
            pytest.param(
                QState.pure(np.sqrt([0.1, 0.15, 0.2, 0.25, 0.3, 0.0, 0.0, 0.0])),
                EnergySpectrum(np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0])),
                id="d8-two-top-classes-empty",
            ),
        ],
    )
    @pytest.mark.parametrize("ps", [2e-14, 1e-12, 1e-10, 1e-6])
    def test_tiny_success_probability_is_met_to_relative_precision(self, state, spectrum, ps):
        # the cut class is the highest with population, so it passes P_S
        # alone; 1 - P_S would hold only the leading digits of a tiny P_S
        filt = energy_optimal_filter(state, spectrum, ps)
        assert abs(success_probability(state, filt) - ps) <= 1e-12 * ps

    @pytest.mark.parametrize("ps", [1.5e-13, 3e-13, 5e-13, 1e-11])
    def test_tiny_success_probability_under_a_populated_top_class(self, ps):
        # the top class passes 1e-13 whole and the cut class {1, 2} the rest
        # of P_S: a kept fraction near 1e-13 is the answer, not round-off
        s = QState.pure(np.sqrt([0.5, 0.25, 0.25 - 1e-13, 1e-13]))
        filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, ps)
        mags = np.abs(filt.coeffs)
        assert mags[0] == 0.0 and mags[1] == mags[2] > 0.0 and mags[3] == 1.0
        assert abs(success_probability(s, filt) - ps) <= 1e-12 * ps

    @pytest.mark.parametrize("ps", [1.47e-12, 2.5e-12, 3e-11, 1e-6])
    def test_tiny_success_probability_with_a_level_below_zero_population(self, ps):
        # level 1 holds 2e-17, below ZERO_POPULATION: it is zeroed with its
        # class instead of passing its population on top of P_S (1.4e-5
        # relative at P_S 1.47e-12 when it kept amplitude 1)
        s = QState.pure(
            np.sqrt([0.4, 2e-17, 0.3, 0.15, 0.1, 0.05 - 3e-12, 2e-12, 1e-12])
        )
        assert 0.0 < s.populations[1] < ZERO_POPULATION
        filt = energy_optimal_filter(s, EnergySpectrum(np.arange(8.0)), ps)
        assert np.abs(filt.coeffs)[1] == 0.0
        assert abs(success_probability(s, filt) - ps) <= 1e-12 * ps

    @pytest.mark.parametrize(
        "pops, top",
        [
            # the cut class {1, 2} holds the level of 1e-16 and keeps one
            # fraction for both of its levels
            pytest.param([0.5, 1e-16, 0.5 - 1e-16, 0.0], 1, id="in-the-cut-class"),
            # the top level holds 1e-16 and passes it whole: the population
            # passed above the cut class counts it
            pytest.param([0.5, 0.3, 0.2 - 1e-16, 1e-16], 3, id="above-the-cut-class"),
        ],
    )
    @pytest.mark.parametrize("ps", [1e-13, 2e-13, 1e-11])
    def test_level_below_zero_population_counts_in_its_class(self, pops, top, ps):
        s = QState.pure(np.sqrt(pops))
        assert 0.0 < s.populations[top] < ZERO_POPULATION
        filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, ps)
        mags = np.abs(filt.coeffs)
        assert mags[0] == 0.0 and mags[1] == mags[2] > 0.0 and mags[3] == 1.0
        assert abs(success_probability(s, filt) - ps) <= 1e-12 * ps

    def test_rejects_unreachable(self):
        s = product_pure_state(0.1, 2)
        with pytest.raises(UnreachableSuccessProbability):
            energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, 0.005)
        with pytest.raises(UnreachableSuccessProbability):
            energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, 1.01)

    def test_achieves_requested_success(self):
        s = product_pure_state(0.1, 2)
        for ps in np.linspace(0.011, 1.0, 23):
            filt = energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, ps)
            assert success_probability(s, filt) == pytest.approx(ps, abs=1e-10)

    def test_structure_zeros_then_fraction_then_ones(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            levels = np.sort(np.round(rng.uniform(0, 3, size=d), 1))
            spectrum = EnergySpectrum(levels)
            state = random_positive_state(rng, d)
            lo = float(state.populations[spectrum.degeneracy_classes()[-1]].sum())
            ps = float(rng.uniform(lo + 1e-6, 1.0))
            filt = energy_optimal_filter(state, spectrum, ps)
            mags = np.abs(filt.coeffs)
            fractional = mags[(mags > 1e-12) & (mags < 1 - 1e-12)]
            # at most one distinct fractional amplitude
            if fractional.size:
                assert np.ptp(fractional) < 1e-12
            # sorted by energy: nondecreasing pattern 0...frac...1
            assert np.all(np.diff(mags) > -1e-12)
            # degenerate levels of the cut energy share the coefficient
            for group in spectrum.degeneracy_classes():
                assert np.ptp(mags[group]) < 1e-12


def _walk_case(rng, d):
    """A random pure state and spectrum at d levels: integer levels, so they
    tie and are unsorted (at d = 8, half the time the n = 3 basis order);
    some levels unpopulated, at times the whole top class; at times
    populations scaled down by up to 1e-13, so a populated class can be tiny."""
    if d == 8 and rng.uniform() < 0.5:
        levels = np.array(_excitation_counts(3))
    else:
        levels = rng.integers(0, max(2, d // 2) + 1, size=d).astype(float)
    pops = rng.dirichlet(np.ones(d))
    if rng.uniform() < 0.4:
        pops *= 10.0 ** -rng.uniform(0.0, 13.0, size=d)
    if rng.uniform() < 0.5:
        pops[rng.integers(d, size=rng.integers(1, d))] = 0.0
    if rng.uniform() < 0.3:
        pops[levels == levels.max()] = 0.0
    if not pops.any():
        pops[rng.integers(d)] = 1.0
    phases = np.exp(2j * np.pi * rng.uniform(size=d))
    return QState.pure(np.sqrt(pops / pops.sum()) * phases), EnergySpectrum(levels)


class TestEnergyWalk:
    """The achieved P_S of the energy filter, counted in rationals from its
    coefficients, against the exact knapsack of ``exact_reference``: within
    1e-15 relative of the target from the 2e-14 floor to 1.

    Within 2e-12 P_S of a running total of the classes from the top, the
    filter may zero the cut class or keep it whole on purpose: its snaps act
    within 1e-12 P_S, a window widened here for the round-off of its float
    total. There the bound is 1e-12, plus that round-off."""

    @staticmethod
    def check(state, spectrum, ps):
        pops = np.clip(state.populations, 0.0, None)
        target, total = Fraction(ps), Fraction(0)
        tol = 1e-15
        for _, _, pop in populated_classes(pops, spectrum.levels):
            total += pop
            if abs(total - target) <= 2e-12 * target:
                tol = 1e-12 + 1e-15
        filt = energy_optimal_filter(state, spectrum, ps)
        assert_energy_optimum(pops, spectrum.levels, filt.coeffs, ps, tol)

    @staticmethod
    def log_uniform(rng, lo, size):
        lo = min(max(lo, 2e-14), 1.0)
        return np.exp(rng.uniform(np.log(lo), 0.0, size=size)).tolist()

    @pytest.mark.parametrize("d", range(2, 13))
    def test_seeded_sweep(self, d):
        rng = np.random.default_rng(2900 + d)
        for _ in range(40):
            state, spectrum = _walk_case(rng, d)
            top = spectrum.levels == spectrum.levels.max()
            lo = float(np.clip(state.populations, 0.0, None)[top].sum())
            for ps in [*self.log_uniform(rng, lo, 6), 1.0]:
                self.check(state, spectrum, ps)

    def test_product_states_at_log_spaced_success(self):
        rng = np.random.default_rng(2929)
        for p in np.linspace(0.001, 0.999, 40).tolist():
            state = product_pure_state(p, 2)
            for ps in self.log_uniform(rng, p * p, 25):
                self.check(state, TWO_QUBIT_SPECTRUM, ps)

    def test_point_missed_by_three_regimes(self):
        # the filter of three small-P_S regimes and a snap missed this P_S,
        # just above its 1e-4 switch, by 2.7e-12 relative
        self.check(product_pure_state(0.006, 2), TWO_QUBIT_SPECTRUM, 1.0190699146492649e-4)

    @pytest.mark.parametrize(
        "pops",
        [[0.0, 0.25, 0.25, 0.5 - TRACE_TOL], [0.0, 0.0, 0.0, 1.0 - TRACE_TOL]],
        ids=["lowest-class-unpopulated", "top-class-alone"],
    )
    def test_full_success_on_a_short_trace(self, pops):
        # no running total reaches P_S = 1, so the walk cuts the lowest
        # populated class, without dividing by the population 0 below it,
        # and keeps all of it: every level passes
        state = QState(np.diag(pops))
        assert 0.99 * TRACE_TOL < 1.0 - np.trace(state.matrix).real <= TRACE_TOL
        filt = energy_optimal_filter(state, TWO_QUBIT_SPECTRUM, 1.0)
        assert np.array_equal(filt.coeffs, np.ones(4))

    @pytest.mark.parametrize("p, n", [(0.94, 3), (0.96, 3), (0.90, 4), (0.94, 4), (0.96, 4)])
    def test_full_success_on_a_long_trace(self, p, n):
        # the float populations add up to just above 1, so the running total
        # reaches P_S = 1 only with the small lowest class; the round-off
        # excess over P_S cuts nothing, and every level passes
        state = product_pure_state(p, n)
        assert sum(state.populations.tolist()) > 1.0
        filt = energy_optimal_filter(state, EnergySpectrum(_excitation_counts(n)), 1.0)
        assert np.array_equal(filt.coeffs, np.ones(2**n))


class TestCoherenceOptimalPure:
    def test_identity_at_full_success(self):
        s = product_pure_state(0.1, 2)
        filt = coherence_optimal_filter_pure(s, 1.0)
        assert np.allclose(filt.coeffs, np.ones(4))

    def test_partial_equalization(self):
        s = product_pure_state(0.1, 2)
        filt = coherence_optimal_filter_pure(s, 0.28)
        assert np.allclose(filt.coeffs, [1 / 3, 1, 1, 1], atol=1e-12)
        out, _ = apply_filter(s, filt)
        expected = shannon(np.array([9, 9, 9, 1]) / 28)
        assert coherence(out) == pytest.approx(expected, abs=1e-12)
        assert coherence(out) == pytest.approx(1.2134, abs=1e-4)

    def test_full_equalization(self):
        s = product_pure_state(0.1, 2)
        filt = coherence_optimal_filter_pure(s, 0.04)
        assert np.allclose(filt.coeffs, [1 / 9, 1 / 3, 1 / 3, 1], atol=1e-12)
        out, _ = apply_filter(s, filt)
        assert np.ptp(out.populations) < 1e-12
        assert coherence(out) == pytest.approx(np.log(4), abs=1e-12)

    def test_rejects_mixed_input(self):
        mixed = mixed_qubit_product(QubitParams(p=0.2, eta=0.5), 2)
        with pytest.raises(DomainError):
            coherence_optimal_filter_pure(mixed, 0.5)

    def test_rejects_below_equalization(self):
        s = product_pure_state(0.1, 2)
        with pytest.raises(UnreachableSuccessProbability):
            coherence_optimal_filter_pure(s, 0.03)

    def test_clipped_output_structure(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            state = QState.pure(v)
            pops = state.populations
            lo = float(np.minimum(pops.min(), pops).sum())
            ps = float(rng.uniform(lo + 1e-9, 1.0))
            filt = coherence_optimal_filter_pure(state, ps)
            out, _ = apply_filter(state, filt)
            q = out.populations
            clipped = np.abs(filt.coeffs) < 1 - 1e-9
            if clipped.any() and (~clipped).any():
                ceiling = q[clipped]
                assert np.ptp(ceiling) < 1e-9
                assert q[~clipped].max() <= ceiling.max() + 1e-9

    def test_probability_transfer_cannot_improve(self):
        # moving dq from the largest output probability to any attenuated
        # index changes the entropy only at second order
        s = product_pure_state(0.1, 2)
        for ps in (0.05, 0.1, 0.2, 0.4):
            filt = coherence_optimal_filter_pure(s, ps)
            out, _ = apply_filter(s, filt)
            q = out.populations
            l = int(np.argmax(q))
            base = shannon(q)
            dq = 1e-6
            for k in np.flatnonzero(np.abs(filt.coeffs) < 1 - 1e-9):
                if k == l:
                    continue
                moved = q.copy()
                moved[l] -= dq
                moved[k] += dq
                delta = shannon(moved) - base
                assert delta <= 1e-10
                assert delta >= -1e-10


class TestTwoQubitClosedForm:
    def test_energy_upper_branch_value(self):
        params = two_qubit_closed_form(0.1, 0.55, FilterTarget.ENERGY)
        assert params.a == pytest.approx(2 / 3, abs=1e-12)
        assert params.b == 1.0

    def test_coherence_equalization_values(self):
        params = two_qubit_closed_form(0.1, 0.04, FilterTarget.COHERENCE)
        assert params.b == pytest.approx(1 / 3, abs=1e-12)
        assert params.a == pytest.approx(1 / 9, abs=1e-12)

    def test_energy_lower_edge(self):
        params = two_qubit_closed_form(0.1, 0.01, FilterTarget.ENERGY)
        assert params.a == pytest.approx(0.0, abs=1e-12)
        assert params.b == pytest.approx(0.0, abs=1e-12)

    def test_rejects_large_p(self):
        with pytest.raises(DomainError):
            two_qubit_closed_form(0.6, 0.5, FilterTarget.ENERGY)

    def test_rejects_out_of_range_success(self):
        with pytest.raises(UnreachableSuccessProbability):
            two_qubit_closed_form(0.1, 0.005, FilterTarget.ENERGY)
        with pytest.raises(UnreachableSuccessProbability):
            two_qubit_closed_form(0.1, 0.035, FilterTarget.COHERENCE)
        with pytest.raises(UnreachableSuccessProbability):
            two_qubit_closed_form(0.1, 1.05, FilterTarget.COHERENCE)

    @pytest.mark.parametrize("target", [FilterTarget.ENERGY, FilterTarget.COHERENCE])
    def test_matches_optimal_filter(self, target):
        # the closed forms are the reference for what ``filter`` prints:
        # ``optimal_filter`` gives their coefficients on both branches, at
        # each end of the range and at both junctions, p(2 - p) and
        # p(2 - p) + p(1 - p), on the level spacing 1 and 2; the coherence
        # optimum ignores the spectrum, so any layout gives it too
        spectra = [TWO_QUBIT_SPECTRUM, EnergySpectrum([0.0, 2.0, 2.0, 4.0])]
        if target is FilterTarget.COHERENCE:
            spectra += [EnergySpectrum([0.0, 1.0, 2.0, 3.0]), EnergySpectrum([0.0, 0.0, 1.0, 2.0])]
        rng = np.random.default_rng(3030)
        for p in [1e-3, 0.1, 1 / 3, *rng.uniform(0.01, 0.49, 60).tolist(), 0.499]:
            lo = p * p if target is FilterTarget.ENERGY else 4.0 * p * p
            junctions = [success_threshold(p), success_threshold(p) + p * (1.0 - p)]
            grid = [lo, *junctions, 1.0, *rng.uniform(lo, 1.0, 8).tolist()]
            state = product_pure_state(p, 2)
            for ps in [ps for ps in grid if ps >= lo]:
                closed = two_qubit_closed_form(p, ps, target).to_filter().coeffs
                for spectrum in spectra:
                    general = optimal_filter(state, spectrum, target, ps).coeffs
                    assert np.max(np.abs(closed - general)) <= 1e-12, (p, ps, spectrum.levels)

    @pytest.mark.parametrize("p", [0.1, 1 / 3, 0.45])
    def test_branch_continuity(self, p):
        p_th = success_threshold(p)
        upper = energy_upper_branch(p, p_th)
        lower = energy_lower_branch(p, p_th)
        assert upper.a == pytest.approx(lower.a, abs=1e-12)
        assert upper.b == pytest.approx(lower.b, abs=1e-12)
        junction = p_th + p * (1 - p)
        upper_c = coherence_upper_branch(p, junction)
        lower_c = coherence_lower_branch(p, junction)
        assert upper_c.a == pytest.approx(lower_c.a, abs=1e-12)
        assert upper_c.b == pytest.approx(lower_c.b, abs=1e-12)

    def test_coherence_family_closure(self):
        # at the junction the lower branch starts from b = 1, a = sqrt(p/(1-p));
        # at full equalization it closes on the factorized point a = b^2 = p/(1-p)
        p = 0.1
        junction = success_threshold(p) + p * (1 - p)
        at_junction = coherence_lower_branch(p, junction)
        assert at_junction.b == pytest.approx(1.0, abs=1e-12)
        assert at_junction.a == pytest.approx(np.sqrt(p / (1 - p)), abs=1e-12)
        at_floor = coherence_lower_branch(p, 4 * p * p)
        assert at_floor.a == pytest.approx(p / (1 - p), abs=1e-12)
        assert at_floor.a == pytest.approx(at_floor.b**2, abs=1e-12)


class TestTsallisOptimal:
    def test_identity_at_full_success(self):
        s = product_pure_state(0.1, 2)
        filt = tsallis_optimal_filter(s, 1.0)
        assert np.allclose(filt.intensities, np.ones(4), atol=1e-12)

    def test_pure_state_equalization(self):
        s = product_pure_state(0.1, 2)
        filt = tsallis_optimal_filter(s, 0.04)
        out, _ = apply_filter(s, filt)
        assert np.ptp(out.populations) < 1e-10
        # intensities proportional to 1/populations
        scaled = filt.intensities * s.populations
        assert np.ptp(scaled) < 1e-10

    def test_pure_reduction_matches_waterfilling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = QState.pure(v)
            pops = state.populations
            lo = float(np.minimum(pops.min(), pops).sum())
            ps = float(rng.uniform(lo + 1e-6, 0.95))
            tsallis = tsallis_optimal_filter(state, ps)
            clipping = coherence_optimal_filter_pure(state, ps)
            assert np.allclose(tsallis.intensities, clipping.intensities, atol=1e-8)

    def test_rejects_diagonal_input(self):
        with pytest.raises(DomainError):
            tsallis_optimal_filter(QState(np.diag([0.6, 0.4]).astype(complex)), 0.5)

    def test_mixed_state_matches_oracle(self):
        state = mixed_qubit_product(QubitParams(p=0.2, eta=0.75), 2)
        filt = tsallis_optimal_filter(state, 0.3)
        assert success_probability(state, filt) == pytest.approx(0.3, abs=1e-10)
        synth = objective_value(
            state, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE_TSALLIS, filt
        )
        res = grid_search(
            state,
            TWO_QUBIT_SPECTRUM,
            FilterTarget.COHERENCE_TSALLIS,
            0.3,
            grid_step=0.05,
        )
        assert abs(res.objective - synth) < 1e-4
        assert res.objective <= synth + 1e-9

    def test_success_probability_is_met_on_mixed_states(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_positive_state(rng, 4)
            ps = float(rng.uniform(0.05, 1.0))
            filt = tsallis_optimal_filter(state, ps)
            assert success_probability(state, filt) == pytest.approx(ps, abs=1e-10)


class TestThermalBenchmark:
    def test_two_level_inversion(self):
        beta = solve_inverse_temperature(EnergySpectrum([0.0, 1.0]), 0.25)
        assert beta == pytest.approx(np.log(3), abs=1e-12)
        state = thermal_benchmark_state(EnergySpectrum([0.0, 1.0]), 0.25)
        assert np.allclose(state.populations, [0.75, 0.25], atol=1e-10)

    def test_infinite_temperature_limit(self):
        spec = TWO_QUBIT_SPECTRUM
        state = thermal_benchmark_state(spec, float(spec.levels.mean()))
        assert np.ptp(state.populations) < 1e-10
        assert coherence(state) == pytest.approx(np.log(4), abs=1e-10)

    def test_ground_state_limit(self):
        state = thermal_benchmark_state(EnergySpectrum([0.0, 1.0]), 1e-6)
        assert state.populations[0] == pytest.approx(1.0, abs=1e-5)
        assert coherence(state) < 1e-4

    def test_rejects_out_of_interval(self):
        with pytest.raises(DomainError):
            thermal_benchmark_state(EnergySpectrum([0.0, 1.0]), 0.0)
        with pytest.raises(DomainError):
            thermal_benchmark_state(EnergySpectrum([0.0, 1.0]), 1.5)

    def test_unsorted_spectrum(self):
        # the range check and the root use the lowest and the highest level
        spec = EnergySpectrum(_excitation_counts(3))
        for target in (0.01, 1.5, 2.99):
            state = thermal_benchmark_state(spec, target)
            assert mean_energy(state, spec) == pytest.approx(target, abs=1e-10)
            pops = state.populations
            assert np.allclose(pops[[1, 2, 4]], pops[1]) and np.allclose(pops[[3, 5, 6]], pops[3])
        with pytest.raises(DomainError, match=r"strictly inside \(0, 3\)"):
            thermal_benchmark_state(spec, 3.0)

    def test_mean_energy_matches_and_is_monotone(self):
        spec = TWO_QUBIT_SPECTRUM
        targets = np.linspace(0.05, 1.95, 21)
        achieved = []
        for target in targets:
            state = thermal_benchmark_state(spec, float(target))
            achieved.append(mean_energy(state, spec))
            assert achieved[-1] == pytest.approx(target, abs=1e-10)
        assert np.all(np.diff(achieved) > 0)


class TestFrontier:
    def test_factorized_endpoints(self):
        s = product_pure_state(0.1, 2)
        pts = trace_frontier(
            s, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE, FilterFamily.FACTORIZED, grid=2
        )
        assert pts[0].p_success == pytest.approx(0.01, abs=1e-12)
        assert np.allclose(pts[0].filter.coeffs, [0, 0, 0, 1], atol=1e-12)
        assert pts[-1].p_success == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pts[-1].filter.coeffs, np.ones(4), atol=1e-12)
        assert pts[-1].coherence == pytest.approx(coherence(s), abs=1e-12)

    def test_optimal_coherence_contains_equalization_point(self):
        s = product_pure_state(0.1, 2)
        pts = trace_frontier(
            s, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid=25
        )
        assert pts[0].p_success == pytest.approx(0.04, abs=1e-12)
        assert pts[0].coherence == pytest.approx(np.log(4), abs=1e-12)

    def test_points_sorted_and_self_consistent(self):
        s = product_pure_state(0.1, 2)
        pts = trace_frontier(
            s, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, FilterFamily.OPTIMAL, grid=31
        )
        ps = [pt.p_success for pt in pts]
        assert ps == sorted(ps)
        for pt in pts:
            assert success_probability(s, pt.filter) == pytest.approx(
                pt.p_success, abs=1e-9
            )
            out, _ = apply_filter(s, pt.filter)
            assert coherence(out) == pytest.approx(pt.coherence, abs=1e-9)
            assert mean_energy(out, TWO_QUBIT_SPECTRUM) == pytest.approx(
                pt.mean_energy, abs=1e-9
            )

    def test_optimal_dominates_factorized_at_shared_success(self):
        s = product_pure_state(0.1, 2)
        pts = trace_frontier(
            s, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid=25
        )
        gaps = []
        for pt in pts:
            fact = factorized_filter(s, pt.p_success)
            out, _ = apply_filter(s, fact)
            gaps.append(pt.coherence - coherence(out))
            assert gaps[-1] >= -1e-12
        # equality holds at the equalization point and at identity, strict
        # dominance in between
        assert max(gaps) > 0.01
        assert abs(gaps[0]) < 1e-9
        assert abs(gaps[-1]) < 1e-9

    @pytest.mark.parametrize(
        "target, family",
        [(FilterTarget.ENERGY, FilterFamily.OPTIMAL), (FilterTarget.COHERENCE, FilterFamily.OPTIMAL),
         (FilterTarget.ENERGY, FilterFamily.FACTORIZED),
         (FilterTarget.COHERENCE_TSALLIS, FilterFamily.OPTIMAL)],
    )
    def test_points_are_frozen_and_equal_constructed_points(self, target, family):
        s = product_pure_state(0.2, 2)
        pts = trace_frontier(s, TWO_QUBIT_SPECTRUM, target, family, grid=5)
        for pt in pts:
            built = synthesis.FrontierPoint(
                p_success=pt.p_success, coherence=pt.coherence, mean_energy=pt.mean_energy,
                filter=pt.filter, family=pt.family,
            )
            assert pt == built and hash(pt) == hash(built)
            assert repr(pt) == repr(built)
            assert type(pt) is synthesis.FrontierPoint and pt.family is family
            for name in ("p_success", "coherence", "mean_energy", "filter", "family"):
                assert getattr(pt, name) is getattr(built, name)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(pt, name, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                pt.extra = 1.0
        assert pts[0] != pts[1]

    def test_rejects_tiny_grid(self):
        s = product_pure_state(0.1, 2)
        with pytest.raises(DomainError):
            trace_frontier(
                s, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, FilterFamily.OPTIMAL, grid=1
            )


def _knapsack_energy(pops, levels, ps):
    """Greedy fractional knapsack: fill P_S from the highest level down."""
    left, acc = ps, 0.0
    for j in np.argsort(-levels, kind="stable"):
        take = min(pops[j], left)
        acc += take * levels[j]
        left -= take
    return acc / ps


def _waterfill_coherence(pops, ps):
    """Entropy of the water-fill min(K, p_j) / P_S over the populated levels,
    with K found from the smallest population up."""
    p = np.sort(pops)
    below = 0.0
    for i, p_i in enumerate(p):
        k = (ps - below) / (p.size - i)
        if k <= p_i:
            break
        below += p_i
    return shannon(np.minimum(k, p) / ps)


def _rounded_spectrum(rng, d):
    """Random levels rounded to 0.1, so some are degenerate."""
    return EnergySpectrum(np.sort(np.round(rng.uniform(0.0, 3.0, size=d), 1)))


def _excitation_counts(n):
    """The n-qubit spectrum in basis order: level j is the number of 1 bits
    of j (0, 1, 1, 2, 1, 2, 2, 3 at n = 3), not sorted for n >= 3."""
    return [float(bin(j).count("1")) for j in range(2**n)]


class TestOptimalFrontierEveryPoint:
    """Every point of an optimal energy or pure-state coherence frontier
    against an exact optimum computed here, independently of the
    synthesizers."""

    @staticmethod
    def check(state, spectrum):
        pops = np.clip(state.populations, 0.0, None)
        populated = pops[pops > 0]
        levels = spectrum.levels
        exact = {
            FilterTarget.ENERGY: (
                pops[levels == levels[pops > 0].max()].sum(),
                lambda ps: _knapsack_energy(pops, levels, ps),
            ),
            FilterTarget.COHERENCE: (
                populated.size * populated.min(),
                lambda ps: _waterfill_coherence(populated, ps),
            ),
        }
        for target, (edge, optimum) in exact.items():
            if edge >= 1.0 - 1e-12:
                with pytest.raises(DomainError, match="empty reachable"):
                    trace_frontier(state, spectrum, target, FilterFamily.OPTIMAL, grid=50)
                continue
            pts = trace_frontier(state, spectrum, target, FilterFamily.OPTIMAL, grid=50)
            assert pts[0].p_success == pytest.approx(edge, abs=1e-12)
            assert pts[-1].p_success == pytest.approx(1.0, abs=1e-12)
            for pt in pts:
                assert abs(pt.measure(target) - optimum(pt.p_success)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_pure_states(self, d):
        rng = np.random.default_rng(1600 + d)
        for _ in range(10):
            for unpopulated in (False, True):
                ket = rng.normal(size=d) + 1j * rng.normal(size=d)
                if unpopulated:
                    ket[rng.integers(d)] = 0.0
                self.check(QState.pure(ket), _rounded_spectrum(rng, d))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_pure_states(self, n):
        rng = np.random.default_rng(1610 + n)
        for p in (0.05, 0.1, 0.3, 0.5, 0.8):
            spectrum = TWO_QUBIT_SPECTRUM if n == 2 else _rounded_spectrum(rng, 2**n)
            self.check(product_pure_state(p, n), spectrum)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_product_pure_states_with_the_physical_spectrum(self, n):
        spectrum = EnergySpectrum(_excitation_counts(n))
        for p in (0.05, 0.1, 0.3, 0.5, 0.8):
            self.check(product_pure_state(p, n), spectrum)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_pure_states_with_unsorted_spectra(self, d):
        rng = np.random.default_rng(1620 + d)
        for _ in range(10):
            ket = rng.normal(size=d) + 1j * rng.normal(size=d)
            levels = np.round(rng.uniform(0.0, 3.0, size=d), 1)
            self.check(QState.pure(ket), EnergySpectrum(levels))

    @pytest.mark.parametrize("n", [3, 4])
    def test_permuted_spectrum_gives_the_permuted_filter(self, n):
        # the physical spectrum and its sorted multiset differ by a level
        # permutation; permuting the state the same way gives the same values
        levels = np.array(_excitation_counts(n))
        order = np.argsort(levels, kind="stable")
        state = product_pure_state(0.3, n)
        sorted_state = QState(state.matrix[np.ix_(order, order)])
        for ps in (0.05, 0.3, 0.7, 1.0):
            physical = energy_optimal_filter(state, EnergySpectrum(levels), ps)
            ordered = energy_optimal_filter(sorted_state, EnergySpectrum(levels[order]), ps)
            assert np.array_equal(physical.coeffs[order], ordered.coeffs)


class TestOtherDimensions:
    def test_single_qubit_factorized_filter(self):
        state = product_pure_state(0.2, 1)
        filt = factorized_filter(state, 0.5)
        assert success_probability(state, filt) == pytest.approx(0.5, abs=1e-10)
        assert filt.coeffs[1] == pytest.approx(1.0)

    def test_three_qubit_energy_frontier_monotone(self):
        state = product_pure_state(0.2, 3)
        spectrum = EnergySpectrum(_excitation_counts(3))
        pts = trace_frontier(
            state, spectrum, FilterTarget.ENERGY, FilterFamily.OPTIMAL, grid=9
        )
        energies = [pt.mean_energy for pt in pts]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))
        assert energies[0] == pytest.approx(3.0, abs=1e-10)

    def test_three_qubit_factorized_frontier(self):
        state = product_pure_state(0.2, 3)
        spectrum = EnergySpectrum(_excitation_counts(3))
        pts = trace_frontier(
            state, spectrum, FilterTarget.COHERENCE, FilterFamily.FACTORIZED, grid=5
        )
        assert pts[0].p_success == pytest.approx(0.2**3, abs=1e-12)
        assert pts[-1].coherence == pytest.approx(coherence(state), abs=1e-10)

    def test_thermal_extreme_targets(self):
        spectrum = EnergySpectrum([0.0, 0.5, 1.5, 7.0])
        for target in (0.001, 2.25, 6.999):
            state = thermal_benchmark_state(spectrum, target)
            assert mean_energy(state, spectrum) == pytest.approx(target, abs=1e-10)

    def test_closed_form_near_half(self):
        params = two_qubit_closed_form(0.499999, 0.9, FilterTarget.ENERGY)
        assert params.b == 1.0
        assert 0.0 <= params.a <= 1.0

    def test_tsallis_two_level(self):
        state = product_pure_state(0.2, 1)
        filt = tsallis_optimal_filter(state, 0.5)
        assert success_probability(state, filt) == pytest.approx(0.5, abs=1e-10)
        # water level K = 0.3 caps only the dominant level: output (0.6, 0.4)
        clipping = coherence_optimal_filter_pure(state, 0.5)
        assert np.allclose(filt.intensities, clipping.intensities, atol=1e-10)
        out, _ = apply_filter(state, filt)
        assert np.allclose(out.populations, [0.6, 0.4], atol=1e-10)


class TestMixedScan:
    def test_pure_limit_plateau_values(self):
        # for eta = 1 and p < 1/2 the optimum equalizes the three populated
        # levels: C = ln 3, mean energy (1+1+2)/3
        points = mixed_scan(1.0, [0.1, 0.25, 0.4])
        for pt in points:
            assert pt.coherence == pytest.approx(np.log(3), abs=1e-9)
            assert pt.mean_energy == pytest.approx(4 / 3, abs=1e-7)
        assert points[0].b_opt == pytest.approx(np.sqrt(0.1 / 0.9), abs=1e-6)

    def test_plateau_constancy_at_eta_075(self):
        points = mixed_scan(0.75, [0.1, 0.2, 0.3])
        cs = [pt.coherence for pt in points]
        es = [pt.mean_energy for pt in points]
        assert np.ptp(cs) < 1e-6
        assert np.ptp(es) < 1e-6

    def test_no_coherence_without_initial_coherence(self):
        for pt in mixed_scan(0.0, [0.1, 0.3]):
            assert pt.coherence == pytest.approx(0.0, abs=1e-12)

    def test_above_threshold_boundary_optimum(self):
        threshold = plateau_threshold(0.75)
        assert threshold >= 0.5
        high = mixed_scan(0.75, [min(threshold + 0.05, 0.99)])[0]
        assert high.b_opt > 1 - 1e-6

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.75, 1.0])
    def test_searched_optimum_turns_at_the_exact_edge(self, eta):
        threshold = plateau_threshold(eta)
        ref, below, above = mixed_scan(eta, [0.05, 0.999 * threshold, 1.001 * threshold])
        assert below.b_opt <= 1 - 1e-4
        assert below.coherence == pytest.approx(ref.coherence, abs=1e-9)
        assert above.b_opt > 1 - 1e-6
        assert above.coherence < ref.coherence

    def test_threshold_runs_no_golden_search(self, monkeypatch):
        def no_search(matrices):
            raise AssertionError("plateau_threshold ran a golden-section search")

        monkeypatch.setattr(synthesis, "_optimal_b", no_search)
        assert 0.5 <= plateau_threshold(0.6) <= 0.628

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            mixed_scan(1.2, [0.1])
        with pytest.raises(DomainError):
            mixed_scan(0.5, [0.0])


class TestRootFinderPins:
    """Factorized b pinned to exact floats, so that a change in the root
    finder shows up in the last bit and, through the frontier CSVs, in the
    printed digits; the inverse temperature against its 60-digit root."""

    @pytest.mark.parametrize(
        "p, n_qubits, ps, b",
        [
            (0.1, 2, 0.01, 0.0),
            (0.1, 2, 1.0, 1.0),
            (0.1, 2, 0.5, 0.6745630902072749),
            (0.3, 3, 0.4, 0.49293116847065727),
            (0.25, 1, 0.6, 0.683130051063973),
        ],
    )
    def test_factorized_b(self, p, n_qubits, ps, b):
        filt = factorized_filter(product_pure_state(p, n_qubits), ps)
        assert repr(float(filt.coeffs[0].real)) == repr(b)

    def test_factorized_b_four_qubits(self):
        state = QState.pure(np.linspace(1.0, 2.5, 16))
        b = float(factorized_filter(state, 0.3).coeffs[0].real)
        assert repr(b) == "0.13011180223961535"

    def test_factorized_lower_edge_is_exact_zero(self):
        # P_S equal to the last population makes the bracket endpoint an exact root
        state = product_pure_state(0.1, 2)
        filt = factorized_filter(state, float(state.populations[-1]))
        assert filt.coeffs[0].real == 0.0
        assert filt.coeffs[-1].real == 1.0

    @pytest.mark.parametrize(
        "levels, energy",
        [
            ([0.0, 1.0, 1.0, 2.0], 0.2),
            ([0.0, 1.0, 1.0, 2.0], 1.5),
            ([0.0, 1.0, 2.0, 3.0, 4.0], 0.7),
            ([-1.0, 0.5, 2.0], 1.9),
            ([0.0, 1.0], 0.25),
            ([0.0, 1.0], 0.9),
            ([3.0, -2.0, 0.5, 0.5], 0.0),
            ([0.0, 1.0, 2.0, 3.0, 4.0], 0.05),
            ([-5.0, -1.0, 0.0, 2.5], -4.0),
            ([0.0, 1e-3, 2e-3], 1.5e-3),
        ],
    )
    def test_inverse_temperature(self, levels, energy):
        got = solve_inverse_temperature(EnergySpectrum(levels), energy)
        want = inverse_temperature(levels, energy)
        assert abs(got - want) <= 4 * math.ulp(want), (got, want)

    @pytest.mark.parametrize(
        "levels, energy",
        [
            ([0.0, 1.0, 1.0, 2.0], 1.99),
            ([0.0, 1.0, 1.0, 2.0], 0.001),
            ([0.0, 1.0, 2.0, 3.0, 4.0], 3.999),
            ([-1.0, 0.5, 2.0], -0.999),
        ],
    )
    def test_inverse_temperature_near_the_edges(self, levels, energy):
        """Near an edge of the spectrum the mean energy flattens out, its
        slope -Var(E) small, so a float gap a few ulp of max|E| off moves the
        root by that over Var(E): the bisection lies within 4 ulp plus 16 ulp
        of max|E| / Var(E) of the 60-digit root."""
        got = solve_inverse_temperature(EnergySpectrum(levels), energy)
        want = inverse_temperature(levels, energy)
        e = np.asarray(levels)
        w = np.exp(-want * (e - e.min() if want > 0 else e - e.max()))
        w /= w.sum()
        var = float((w * e * e).sum() - (w * e).sum() ** 2)
        bound = 4 * math.ulp(want) + 16 * np.finfo(float).eps * np.abs(e).max() / var
        assert abs(got - want) <= bound, (got, want, bound)


class TestNonFiniteSuccessProbability:
    @pytest.mark.parametrize("ps", [float("nan"), float("inf"), float("-inf")])
    def test_every_synthesizer_rejects(self, ps):
        state = product_pure_state(0.1, 2)
        calls = [
            lambda: energy_optimal_filter(state, TWO_QUBIT_SPECTRUM, ps),
            lambda: coherence_optimal_filter_pure(state, ps),
            lambda: tsallis_optimal_filter(state, ps),
            lambda: factorized_filter(state, ps),
            lambda: two_qubit_closed_form(0.1, ps, FilterTarget.ENERGY),
            lambda: two_qubit_closed_form(0.1, ps, FilterTarget.COHERENCE),
        ]
        for call in calls:
            with pytest.raises(UnreachableSuccessProbability):
                call()

    def test_range_messages_kept(self):
        state = product_pure_state(0.1, 2)
        with pytest.raises(UnreachableSuccessProbability, match="exceeds 1"):
            coherence_optimal_filter_pure(state, 1.5)
        with pytest.raises(UnreachableSuccessProbability, match=r"\(0, 1\]"):
            tsallis_optimal_filter(state, 0.0)
        with pytest.raises(UnreachableSuccessProbability, match="reaches only"):
            factorized_filter(state, 1.5)
        with pytest.raises(UnreachableSuccessProbability, match="below 4p"):
            two_qubit_closed_form(0.1, 0.01, FilterTarget.COHERENCE)


class TestNonPositiveSuccessProbability:
    """A P_S at or below 0 is rejected even where the reachable range starts
    within round-off of 0, instead of yielding a filter of another P_S."""

    # the full-equalization minimum is 6e-14, below the 1e-12 round-off margin
    NEAR_ZERO_MINIMUM = QState.pure(np.sqrt([2e-14, 0.5, 0.5 - 2e-14]))
    # the highest-energy level is empty, so its class holds population 0
    EMPTY_TOP_CLASS = QState.pure(np.sqrt([0.25, 0.25, 0.5, 0.0]))

    @pytest.mark.parametrize("ps", [-5e-13, -1e-16, 0.0, -0.0])
    def test_coherence_synthesizer_rejects(self, ps):
        # before: the identity filter at -5e-13, a NaN coefficient at -1e-16
        # and the all-zero filter at 0
        with pytest.raises(
            UnreachableSuccessProbability, match="P_S below the full-equalization minimum 6e-14"
        ):
            coherence_optimal_filter_pure(self.NEAR_ZERO_MINIMUM, ps)

    @pytest.mark.parametrize("ps", [-5e-13, 0.0])
    def test_energy_synthesizer_rejects(self, ps):
        # before: the annihilating diag(0, 0, 0, 1)
        with pytest.raises(
            UnreachableSuccessProbability,
            match="P_S below the population 0 of the highest-energy class",
        ):
            energy_optimal_filter(self.EMPTY_TOP_CLASS, TWO_QUBIT_SPECTRUM, ps)

    def test_smallest_positive_ps_still_synthesizes(self):
        lo = 3 * 2e-14
        filt = coherence_optimal_filter_pure(self.NEAR_ZERO_MINIMUM, lo)
        assert success_probability(self.NEAR_ZERO_MINIMUM, filt) == pytest.approx(lo, abs=1e-15)

    @pytest.mark.parametrize("ps", [0.0, -1e-3])
    def test_every_synthesizer_rejects(self, ps):
        state = product_pure_state(0.1, 2)
        calls = [
            lambda: energy_optimal_filter(state, TWO_QUBIT_SPECTRUM, ps),
            lambda: coherence_optimal_filter_pure(state, ps),
            lambda: tsallis_optimal_filter(state, ps),
            lambda: factorized_filter(state, ps),
            lambda: two_qubit_closed_form(0.1, ps, FilterTarget.ENERGY),
            lambda: two_qubit_closed_form(0.1, ps, FilterTarget.COHERENCE),
            lambda: grid_search(state, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, ps, 0.1),
        ]
        for call in calls:
            with pytest.raises(UnreachableSuccessProbability):
                call()

    def test_messages_are_formatted_as_before(self):
        state = product_pure_state(0.1, 2)
        pops = state.populations
        cases = [
            (
                lambda: energy_optimal_filter(state, TWO_QUBIT_SPECTRUM, 0.001),
                f"P_S below the population {pops[3]:.6g} of the highest-energy class",
            ),
            (
                lambda: coherence_optimal_filter_pure(state, 0.001),
                f"P_S below the full-equalization minimum {4 * pops[3]:.6g}",
            ),
            (
                lambda: factorized_filter(state, 0.001),
                f"factorized family reaches only [{pops[3]:.6g}, 1]",
            ),
            (
                lambda: factorized_filter(state, 1.5),
                f"factorized family reaches only [{pops[3]:.6g}, 1]",
            ),
            (
                lambda: two_qubit_closed_form(0.1, 0.001, FilterTarget.ENERGY),
                f"P_S below p^2 = {0.1 * 0.1:.6g}",
            ),
            (
                lambda: two_qubit_closed_form(0.1, 0.001, FilterTarget.COHERENCE),
                f"P_S below 4p^2 = {4.0 * 0.1 * 0.1:.6g}",
            ),
            (lambda: tsallis_optimal_filter(state, 0.0), "P_S must lie in (0, 1]"),
            (lambda: tsallis_optimal_filter(state, 1.5), "P_S must lie in (0, 1]"),
            (lambda: coherence_optimal_filter_pure(state, 1.5), "P_S exceeds 1"),
        ]
        for call, message in cases:
            with pytest.raises(UnreachableSuccessProbability) as info:
                call()
            assert str(info.value) == message


FLOOR = 2.0 * _ANNIHILATION_TOL
FLOOR_MESSAGE = "P_S below 2e-14, twice the success probability 1e-14"
# P_S ranges that reach below the floor: the highest-energy class is empty,
# the full-equalization minimum is 6e-14 (admitted down to 0 by round-off),
# and p = 1e-8 puts p^2 = 1e-16 at the bottom of the qubit-product families
EMPTY_TOP_CLASS = TestNonPositiveSuccessProbability.EMPTY_TOP_CLASS
NEAR_ZERO_MINIMUM = TestNonPositiveSuccessProbability.NEAR_ZERO_MINIMUM
TINY_P = 1e-8
TINY_P_PAIR = product_pure_state(TINY_P, 2)
MIXED_PAIR = mixed_qubit_product(QubitParams(0.3, 0.6), 2)
SYNTHESIZERS_DOWN_TO_THE_FLOOR = {
    "energy": (
        EMPTY_TOP_CLASS, lambda ps: energy_optimal_filter(EMPTY_TOP_CLASS, TWO_QUBIT_SPECTRUM, ps)
    ),
    "coherence": (
        NEAR_ZERO_MINIMUM, lambda ps: coherence_optimal_filter_pure(NEAR_ZERO_MINIMUM, ps)
    ),
    "tsallis": (MIXED_PAIR, lambda ps: tsallis_optimal_filter(MIXED_PAIR, ps)),
    "factorized": (TINY_P_PAIR, lambda ps: factorized_filter(TINY_P_PAIR, ps)),
    "closed-form-energy": (
        TINY_P_PAIR, lambda ps: two_qubit_closed_form(TINY_P, ps, FilterTarget.ENERGY).to_filter()
    ),
    "closed-form-coherence": (
        TINY_P_PAIR,
        lambda ps: two_qubit_closed_form(TINY_P, ps, FilterTarget.COHERENCE).to_filter(),
    ),
}


class TestAnnihilationFloor:
    """No filtered state has a P_S below ``_ANNIHILATION_TOL``, and a filter
    made for a P_S at it may pass a little less, so every synthesizer serves
    P_S >= twice that floor and rejects a smaller P_S with its own message."""

    @pytest.mark.parametrize("ps", [1e-15, 1e-14, np.nextafter(FLOOR, 0.0)])
    @pytest.mark.parametrize("name", list(SYNTHESIZERS_DOWN_TO_THE_FLOOR))
    def test_below_the_floor_is_rejected(self, name, ps):
        # before: energy at 1e-15 and tsallis at 1e-14 ended in "filter
        # annihilates the state" when the filter was applied
        _, synthesize = SYNTHESIZERS_DOWN_TO_THE_FLOOR[name]
        with pytest.raises(UnreachableSuccessProbability, match=FLOOR_MESSAGE):
            synthesize(ps)

    @pytest.mark.parametrize("name", list(SYNTHESIZERS_DOWN_TO_THE_FLOOR))
    def test_smallest_admitted_ps_filters_the_state(self, name):
        state, synthesize = SYNTHESIZERS_DOWN_TO_THE_FLOOR[name]
        out, p_s = apply_filter(state, synthesize(FLOOR))
        assert p_s >= _ANNIHILATION_TOL
        # the energy synthesizer's P_S is exact to about 1e-16 (it removes
        # 1 - P_S from the populations), the others' to a few ulps
        assert abs(p_s - FLOOR) <= 1e-15
        assert out.dim == state.dim

    def test_oracle_rejects_below_the_floor(self):
        with pytest.raises(UnreachableSuccessProbability, match=FLOOR_MESSAGE):
            grid_search(EMPTY_TOP_CLASS, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, 1e-15, 0.1)

    def test_cli_rejects_below_the_floor(self, capsys, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text(qstate_to_text(EMPTY_TOP_CLASS))
        argv = ["filter", "--target", "energy", "--state", str(path)]
        assert main([*argv, "--ps", "1e-15"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert FLOOR_MESSAGE in captured.err
        assert main([*argv, "--ps", repr(FLOOR)]) == EXIT_OK
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "P_S achieved" in ln)
        assert abs(float(line.split("=")[1]) - FLOOR) <= 1e-15


def _random_full_rank(seed: int, d: int) -> QState:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return QState(0.5 * (rho + rho.conj().T) / np.trace(rho).real)


def _best_candidate_tsallis(state: QState, ps: float) -> float:
    """The largest output Tsallis coherence of any KKT candidate."""
    pops = np.clip(state.populations, 0.0, None)
    overlap = np.abs(state.matrix) ** 2
    np.fill_diagonal(overlap, 0.0)
    cands = synthesis._tsallis_candidates(pops, overlap, pops >= 1e-14, ps)
    return max(
        coherence_tsallis(apply_filter(state, DiagonalFilter(np.sqrt(x)))[0]) for x in cands
    )


SMALL_PS_STATES = {
    "mixed-product": MIXED_PAIR,
    "full-rank-d4": _random_full_rank(1, 4),
    "full-rank-d5": _random_full_rank(2, 5),
}


class TestTsallisAtSmallSuccessProbability:
    """The gain x^T W x scales as P_S^2 and the intensities as P_S; with the
    candidate and tie tolerances scaled to match, the synthesizer keeps the
    optimum at any P_S it serves. Before, every candidate tied below P_S of
    about 3e-8 and a zero-coherence one won: on the mixed product state the
    output coherence was 0 at 3e-8, 0.18 at 1e-7 (optimum 0.2124), and below
    1e-12 the filter annihilated the state."""

    @pytest.mark.parametrize("ps", [1e-13, 1e-11, 1e-9, 3e-8, 1e-7, 1e-6])
    @pytest.mark.parametrize("name", list(SMALL_PS_STATES))
    def test_output_is_the_best_candidate(self, name, ps):
        state = SMALL_PS_STATES[name]
        out, p_s = apply_filter(state, tsallis_optimal_filter(state, ps))
        assert p_s == pytest.approx(ps, rel=1e-12)
        best = _best_candidate_tsallis(state, ps)
        assert best > 0.1
        assert coherence_tsallis(out) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("name", list(SMALL_PS_STATES))
    def test_optimum_is_scale_free_at_small_ps(self, name):
        """Where no intensity reaches 1 the problem is homogeneous in P_S:
        the intensities scale with P_S and the output state does not move."""
        state = SMALL_PS_STATES[name]
        reference = tsallis_optimal_filter(state, 1e-9).intensities / 1e-9
        for ps in (1e-13, 1e-11, 1e-7):
            got = tsallis_optimal_filter(state, ps).intensities / ps
            np.testing.assert_allclose(got, reference, rtol=1e-9, atol=1e-9 * reference.max())

    def test_pick_does_not_depend_on_candidate_order(self, monkeypatch):
        state = SMALL_PS_STATES["mixed-product"]
        forward = tsallis_optimal_filter(state, 1e-11).intensities
        original = synthesis._tsallis_candidates
        monkeypatch.setattr(synthesis, "_tsallis_candidates", lambda *args: original(*args)[::-1])
        backward = tsallis_optimal_filter(state, 1e-11).intensities
        assert np.max(np.abs(forward - backward)) <= 1e-12 * 1e-11

    def test_cli(self, capsys, tmp_path):
        state = SMALL_PS_STATES["mixed-product"]
        path = tmp_path / "state.txt"
        path.write_text(qstate_to_text(state))
        code = main(
            ["filter", "--target", "tsallis", "--state", str(path),
             "--ps", "3e-08"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        filtered = apply_filter(state, tsallis_optimal_filter(state, 3e-8))[0]
        assert coherence(filtered) > 0.1
        assert f"output coherence = {coherence(filtered):.12g} nats" in out
        assert "P_S achieved = 3e-08" in out


class TestOptimalFilter:
    """``optimal_filter`` is the one dispatch from a target to its synthesizer."""

    STATE = product_pure_state(0.1, 2)

    @pytest.mark.parametrize(
        "target, synthesize",
        [
            (FilterTarget.ENERGY, lambda s, ps: energy_optimal_filter(s, TWO_QUBIT_SPECTRUM, ps)),
            (FilterTarget.COHERENCE, coherence_optimal_filter_pure),
            (FilterTarget.COHERENCE_TSALLIS, tsallis_optimal_filter),
        ],
    )
    @pytest.mark.parametrize("ps", [0.3, 0.6, 1.0])
    def test_each_target_reaches_its_synthesizer(self, target, synthesize, ps):
        got = optimal_filter(self.STATE, TWO_QUBIT_SPECTRUM, target, ps)
        assert np.array_equal(got.coeffs, synthesize(self.STATE, ps).coeffs)

    @pytest.mark.parametrize(
        "target, name",
        [
            (FilterTarget.ENERGY, "energy_optimal_filter"),
        ],
    )
    def test_optimal_frontier_traces_the_public_synthesizer(self, monkeypatch, target, name):
        def unfiltered(state, *args):
            return DiagonalFilter.identity(state.dim)

        monkeypatch.setattr(synthesis, name, unfiltered)
        pts = trace_frontier(self.STATE, TWO_QUBIT_SPECTRUM, target, FilterFamily.OPTIMAL, grid=5)
        assert all(np.array_equal(pt.filter.coeffs, np.ones(4)) for pt in pts)
        assert [pt.p_success for pt in pts] == pytest.approx([1.0] * 5)

    def test_optimal_frontier_and_synthesizer_share_the_row_water_fill(self, monkeypatch):
        """The pure-state coherence frontier and ``coherence_optimal_filter_pure``
        both come from ``_waterfill_rows``: they agree bit for bit, and a
        patched row water-fill moves both."""
        grid = 5
        requested = np.linspace(
            *reachable_success_range(
                self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL
            ),
            grid,
        ).tolist()

        def frontier_and_single():
            pts = trace_frontier(
                self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE, FilterFamily.OPTIMAL, grid=grid
            )
            singles = [coherence_optimal_filter_pure(self.STATE, ps) for ps in requested]
            return [pt.filter for pt in pts], singles

        traced, singles = frontier_and_single()
        for got, want in zip(traced, singles):
            assert got.coeffs.view(float).tobytes() == want.coeffs.view(float).tobytes()
        assert not all(np.array_equal(filt.coeffs, np.ones(4)) for filt in traced)

        def unfiltered(state, ps):
            return np.ones((len(ps), state.dim), dtype=complex)

        monkeypatch.setattr(synthesis, "_waterfill_rows", unfiltered)
        traced, singles = frontier_and_single()
        assert len(traced) == len(singles) == grid
        assert all(np.array_equal(filt.coeffs, np.ones(4)) for filt in traced + singles)

    def test_mixed_input_needs_the_tsallis_target(self):
        state = mixed_qubit_product(QubitParams(p=0.3, eta=0.5), 2)
        with pytest.raises(DomainError, match="not pure"):
            optimal_filter(state, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE, 0.5)
        filt = optimal_filter(state, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE_TSALLIS, 0.5)
        assert success_probability(state, filt) == pytest.approx(0.5, abs=1e-9)

    def test_tsallis_frontier_samples_the_open_range(self):
        grid = 6
        pts = trace_frontier(
            self.STATE,
            TWO_QUBIT_SPECTRUM,
            FilterTarget.COHERENCE_TSALLIS,
            FilterFamily.OPTIMAL,
            grid=grid,
        )
        requested = np.linspace(0.0, 1.0, grid + 1)[1:]
        assert len(pts) == grid
        for pt, ps in zip(pts, requested):
            expected = tsallis_optimal_filter(self.STATE, float(ps))
            assert np.array_equal(pt.filter.coeffs, expected.coeffs)
            assert pt.p_success == pytest.approx(ps, abs=1e-9)
            assert pt.family is FilterFamily.OPTIMAL

    def test_frontier_measure_follows_the_target(self):
        pt = trace_frontier(
            self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, FilterFamily.OPTIMAL, grid=2
        )[0]
        assert pt.measure(FilterTarget.ENERGY) == pt.mean_energy
        assert pt.measure(FilterTarget.COHERENCE) == pt.coherence
        assert pt.measure(FilterTarget.COHERENCE_TSALLIS) == pt.coherence


class TestFrontierGridArgument:
    STATE = product_pure_state(0.1, 2)

    @pytest.mark.parametrize("grid", [2.5, float("nan"), float("inf"), 200.0, "200", None])
    def test_rejects_a_non_integral_grid(self, grid):
        with pytest.raises(DomainError, match="grid must be an integer"):
            trace_frontier(
                self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, FilterFamily.OPTIMAL, grid=grid
            )

    @pytest.mark.parametrize("grid", [synthesis.MAX_SAMPLE_POINTS + 1, 10**12])
    @pytest.mark.parametrize("family", list(FilterFamily))
    def test_rejects_a_grid_above_the_cap_before_allocating(self, grid, family):
        # 10**12 points would need terabytes; the cap answers first
        with pytest.raises(DomainError, match=f"at most {synthesis.MAX_SAMPLE_POINTS} points"):
            trace_frontier(self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, family, grid=grid)

    def test_accepts_numpy_integers(self):
        pts = trace_frontier(
            self.STATE, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY, FilterFamily.OPTIMAL,
            grid=np.int64(7),
        )
        assert len(pts) == 7

    def test_empty_mixed_scan(self):
        assert mixed_scan(0.5, []) == []


@pytest.mark.parametrize(
    "p, target, family, edge",
    [
        (0.0, FilterTarget.COHERENCE, FilterFamily.FACTORIZED, 2 * _ANNIHILATION_TOL),
        (1e-8, FilterTarget.ENERGY, FilterFamily.FACTORIZED, 2 * _ANNIHILATION_TOL),
        (1e-7, FilterTarget.ENERGY, FilterFamily.OPTIMAL, 2 * _ANNIHILATION_TOL),
        (1e-6, FilterTarget.ENERGY, FilterFamily.FACTORIZED, 1e-6**2),
        (1e-6, FilterTarget.ENERGY, FilterFamily.OPTIMAL, 1e-6**2),
        (0.0, FilterTarget.COHERENCE_TSALLIS, FilterFamily.OPTIMAL, 0.0),
    ],
)
def test_range_edge_is_at_least_the_synthesizers_floor(p, target, family, edge):
    """An edge below 2e-14 is raised to it, an edge above stays, and the
    Tsallis open edge 0 stays; the frontier's first point is then the edge."""
    state = product_pure_state(p, 2)
    assert reachable_success_range(state, TWO_QUBIT_SPECTRUM, target, family) == (edge, 1.0)
    if edge:
        pts = trace_frontier(state, TWO_QUBIT_SPECTRUM, target, family, grid=3)
        assert pts[0].p_success == pytest.approx(edge, rel=1e-9)
