import numpy as np
import pytest

from coherence_forge import (
    DiagonalFilter,
    DomainError,
    QState,
    QubitParams,
    mixed_qubit_product,
    product_pure_state,
)
from coherence_forge.optics import (
    ChoiMatrix,
    InterferometerSpec,
    PhaseProfile,
    apply_choi,
    choi_of_filter,
    choi_to_text,
    compensate_phases,
    effective_filter,
    mode_transfer_matrix,
    process_metrics,
)
from coherence_forge.synthesis import TwoQubitFilterParams

PPBS = InterferometerSpec(pbs_model=(1.0, 1.0 / np.sqrt(3.0)))


class TestEffectiveFilter:
    def test_trivial_setup_is_identity(self):
        filt, p_l = effective_filter(InterferometerSpec())
        assert np.allclose(filt.coeffs, np.ones(4), atol=1e-15)
        assert p_l == pytest.approx(1.0, abs=1e-15)

    def test_bare_ppbs(self):
        filt, p_l = effective_filter(PPBS)
        # both-transmit minus both-reflect: t^2 - r^2 = -1/3 on |00>
        assert filt.coeffs[0].real == pytest.approx(-1 / 3, abs=1e-12)
        assert abs(filt.coeffs[0]) == pytest.approx(1 / 3, abs=1e-12)
        assert filt.coeffs[1].real == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert filt.coeffs[2].real == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert filt.coeffs[3].real == pytest.approx(1.0, abs=1e-12)
        assert p_l == pytest.approx(1.0, abs=1e-12)
        # the bare splitter sits exactly on the factorized family
        assert abs(filt.coeffs[0]) == pytest.approx(abs(filt.coeffs[1]) ** 2, abs=1e-12)

    def test_attenuating_excited_modes_rescales_along_family(self):
        # attenuators alone cannot produce interference: |a| = b^2 persists,
        # with b = t_V / (g t_H) after renormalizing to the |11> amplitude
        g = 0.8
        spec = InterferometerSpec(
            attenuations=(1.0, g, 1.0, g), pbs_model=(1.0, 1.0 / np.sqrt(3.0))
        )
        filt, p_l = effective_filter(spec)
        b = abs(filt.coeffs[1])
        assert b == pytest.approx(1.0 / (np.sqrt(3.0) * g), abs=1e-12)
        assert abs(filt.coeffs[0]) == pytest.approx(b * b, abs=1e-12)
        assert p_l == pytest.approx(g**4, abs=1e-12)

    def test_coupling_transmittance_moves_off_factorized_family(self):
        for t in (0.4, 0.5, 0.8):
            filt, _ = effective_filter(InterferometerSpec(bs_transmittance=t))
            a = abs(filt.coeffs[0])
            b2 = abs(filt.coeffs[1]) ** 2
            assert a == pytest.approx(abs(2 * t - 1), abs=1e-12)
            assert b2 == pytest.approx(t, abs=1e-12)
            assert a < b2

    def test_valid_regime_boundary(self):
        # a <= b^2 exactly when the combined coupling transmittance is in [1/3, 1]
        for t in (0.05, 0.2, 1 / 3, 0.5, 0.9, 1.0):
            filt, _ = effective_filter(InterferometerSpec(bs_transmittance=t))
            valid = abs(filt.coeffs[0]) <= abs(filt.coeffs[1]) ** 2 + 1e-12
            assert valid == (t >= 1 / 3 - 1e-12)

    def test_balanced_coupling_with_attenuation_gives_ground_removal(self):
        g = 1.0 / np.sqrt(2.0)
        spec = InterferometerSpec(bs_transmittance=0.5, attenuations=(1.0, g, 1.0, g))
        filt, p_l = effective_filter(spec)
        assert abs(filt.coeffs[0]) < 1e-12
        assert abs(filt.coeffs[1]) == pytest.approx(1.0, abs=1e-12)
        assert p_l == pytest.approx(0.25, abs=1e-12)

    def test_vanishing_top_amplitude_rejected(self):
        with pytest.raises(DomainError):
            effective_filter(InterferometerSpec(attenuations=(1.0, 0.0, 1.0, 1.0)))

    def test_random_specs_yield_bounded_filters(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            spec = InterferometerSpec(
                bs_transmittance=float(rng.uniform(0, 1)),
                attenuations=tuple(rng.uniform(0.3, 1.0, size=4)),
                pbs_model=(float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.3, 1.0))),
            )
            try:
                filt, p_l = effective_filter(spec)
            except DomainError:
                continue  # normalized coefficients left the filter family
            assert np.max(np.abs(filt.coeffs)) <= 1 + 1e-12
            assert 0.0 < p_l <= 1.0 + 1e-12

    def test_transfer_matrix_unitary_without_attenuation(self):
        s = mode_transfer_matrix(InterferometerSpec(bs_transmittance=0.7))
        assert np.allclose(s @ s.conj().T, np.eye(4), atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            InterferometerSpec(bs_transmittance=1.4)


class TestChoi:
    def test_identity_filter_choi(self):
        chi = choi_of_filter(DiagonalFilter.identity(4))
        assert np.trace(chi.matrix).real == pytest.approx(4.0, abs=1e-12)
        assert np.linalg.matrix_rank(chi.matrix, tol=1e-10) == 1

    def test_single_survivor_projector(self):
        chi = choi_of_filter(DiagonalFilter([0.0, 0.0, 0.0, 1.0]))
        expected = np.zeros((16, 16))
        expected[15, 15] = 1.0
        assert np.allclose(chi.matrix, expected, atol=1e-15)

    def test_nominal_filter_diagonal_pattern(self):
        filt = TwoQubitFilterParams(a=0.32, b=0.8).to_filter()
        chi = choi_of_filter(filt)
        diag_idx = np.arange(4) * 4 + np.arange(4)
        diag = np.real(np.diag(chi.matrix))
        assert np.allclose(diag[diag_idx], [0.32**2, 0.64, 0.64, 1.0], atol=1e-12)
        mask = np.zeros((16, 16), dtype=bool)
        mask[np.ix_(diag_idx, diag_idx)] = True
        assert np.max(np.abs(chi.matrix[~mask])) <= 1e-12

    def test_choi_reproduces_filter_action(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mags = rng.uniform(0, 1, size=4)
            phases = rng.uniform(0, 2 * np.pi, size=4)
            filt = DiagonalFilter(mags * np.exp(1j * phases))
            chi = choi_of_filter(filt)
            state = mixed_qubit_product(
                QubitParams(p=float(rng.uniform(0.1, 0.9)), eta=float(rng.uniform(0, 1))), 2
            )
            m = filt.matrix()
            direct = m @ state.matrix @ m.conj().T
            assert np.max(np.abs(apply_choi(chi, state) - direct)) < 1e-10

    def test_serialization_layout(self):
        # process files are written for other tools and never read back
        filt = TwoQubitFilterParams(a=0.32, b=0.8).to_filter()
        phases = PhaseProfile(phases=np.array([0.0, 0.2, -0.1, 0.0]))
        chi = choi_of_filter(filt, phases)
        lines = choi_to_text(chi).splitlines()
        assert lines[:2] == ["dim 16", "input_dim 4"]
        fields = np.array([[float(x) for x in line.split()] for line in lines[2:]])
        assert np.array_equal(fields[:, 0::2] + 1j * fields[:, 1::2], chi.matrix)


class TestProcessMetrics:
    def test_self_comparison_is_perfect(self):
        chi = choi_of_filter(TwoQubitFilterParams(a=0.32, b=0.8).to_filter())
        purity, fidelity = process_metrics(chi, chi)
        assert purity == pytest.approx(1.0, abs=1e-12)
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_phase_mismatch_reduces_fidelity_not_purity(self):
        filt = TwoQubitFilterParams(a=0.32, b=0.8).to_filter()
        ideal = choi_of_filter(filt)
        noisy = choi_of_filter(filt, PhaseProfile(phases=np.array([0.0, 0.2, -0.1, 0.0])))
        purity, fidelity = process_metrics(noisy, ideal)
        assert purity == pytest.approx(1.0, abs=1e-12)
        assert fidelity < 1.0 - 1e-4

    def test_global_phase_invariance(self):
        filt = TwoQubitFilterParams(a=0.32, b=0.8).to_filter()
        rotated = DiagonalFilter(filt.coeffs * np.exp(1j * 0.7))
        purity, fidelity = process_metrics(choi_of_filter(rotated), choi_of_filter(filt))
        assert purity == pytest.approx(1.0, abs=1e-12)
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_purity(self):
        chi = ChoiMatrix(matrix=np.eye(16, dtype=complex) / 16.0, input_dim=4)
        ideal = choi_of_filter(DiagonalFilter.identity(4))
        purity, _ = process_metrics(chi, ideal)
        assert purity == pytest.approx(1 / 16, abs=1e-12)

    def test_metric_bounds(self):
        rng = np.random.default_rng(9)
        ideal = choi_of_filter(TwoQubitFilterParams(a=0.32, b=0.8).to_filter())
        for _ in range(10):
            mags = rng.uniform(0, 1, size=4)
            chi = choi_of_filter(
                DiagonalFilter(mags), PhaseProfile(phases=rng.uniform(-1, 1, size=4))
            )
            purity, fidelity = process_metrics(chi, ideal)
            assert -1e-10 <= purity <= 1 + 1e-10
            assert -1e-10 <= fidelity <= 1 + 1e-10


class TestPhaseCompensation:
    def test_phase_free_process_unchanged(self):
        chi = choi_of_filter(TwoQubitFilterParams(a=0.32, b=0.8).to_filter())
        compensated, profile = compensate_phases(chi)
        assert np.allclose(profile.phases, 0.0, atol=1e-12)
        assert np.max(np.abs(compensated.matrix - chi.matrix)) < 1e-12

    def test_injected_phases_recovered_and_undone(self):
        filt = TwoQubitFilterParams(a=0.32, b=0.8).to_filter()
        injected = np.array([0.0, 0.2, -0.1, 0.0])
        ideal = choi_of_filter(filt)
        noisy = choi_of_filter(filt, PhaseProfile(phases=injected))
        compensated, profile = compensate_phases(noisy)
        # profile is pinned to the reference basis state, compare mod global phase
        relative = profile.phases - profile.phases[-1]
        assert np.allclose(
            np.exp(1j * relative), np.exp(1j * (injected - injected[-1])), atol=1e-9
        )
        _, fidelity = process_metrics(compensated, ideal)
        assert fidelity == pytest.approx(1.0, abs=1e-9)

    def test_zero_reference_falls_back_to_largest_diagonal(self):
        # filter with a vanishing |11> amplitude: the reference moves to the
        # dominant diagonal entry and compensation still works
        filt = DiagonalFilter([1.0, 0.5, 0.5, 0.0])
        injected = np.array([0.3, -0.2, 0.4, 0.0])
        noisy = choi_of_filter(filt, PhaseProfile(phases=injected))
        compensated, profile = compensate_phases(noisy)
        ideal = choi_of_filter(filt)
        _, fidelity = process_metrics(compensated, ideal)
        assert fidelity == pytest.approx(1.0, abs=1e-9)
        assert profile.phases[0] == pytest.approx(0.0, abs=1e-12)

    def test_compensation_never_hurts(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            filt = TwoQubitFilterParams(
                a=float(rng.uniform(0, 0.9)), b=float(rng.uniform(0.3, 1.0))
            ).to_filter()
            ideal = choi_of_filter(filt)
            noisy = choi_of_filter(
                filt, PhaseProfile(phases=rng.uniform(-0.5, 0.5, size=4))
            )
            _, before = process_metrics(noisy, ideal)
            compensated, _ = compensate_phases(noisy)
            _, after = process_metrics(compensated, ideal)
            assert after >= before - 1e-12
