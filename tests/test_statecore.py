import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from coherence_forge import (
    AnnihilatedState,
    DiagonalFilter,
    DimensionMismatch,
    EnergySpectrum,
    QState,
    QubitParams,
    StateValidationError,
    TWO_QUBIT_SPECTRUM,
    apply_filter,
    coherence,
    coherence_tsallis,
    dephase,
    mean_energy,
    mixed_qubit_product,
    product_pure_state,
    success_probability,
    tensor,
    tensor_filter,
)
from coherence_forge.statecore import (
    filter_from_text,
    filter_to_text,
    qstate_from_text,
    qstate_to_text,
)

from conftest import density_matrices, diagonal_filters, pure_states

# Populations of the two-qubit product state with p = 0.1; everything below
# cross-checks against direct arithmetic on this distribution.
P01_POPS = np.array([0.81, 0.09, 0.09, 0.01])


def shannon(v):
    v = np.asarray(v, float)
    v = v[v > 1e-14]
    return float(-(v * np.log(v)).sum())


class TestValidation:
    def test_spectrum_must_be_sorted(self):
        with pytest.raises(StateValidationError):
            EnergySpectrum([1.0, 0.0])

    def test_spectrum_needs_two_levels(self):
        with pytest.raises(StateValidationError):
            EnergySpectrum([0.0])

    def test_state_must_be_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError):
            QState(m)

    def test_state_trace_must_be_one(self):
        with pytest.raises(StateValidationError):
            QState(np.diag([0.5, 0.4]).astype(complex))

    def test_state_must_be_psd(self):
        with pytest.raises(StateValidationError):
            QState(np.diag([1.2, -0.2]).astype(complex))

    def test_filter_coefficients_bounded(self):
        with pytest.raises(StateValidationError):
            DiagonalFilter(np.array([1.5, 0.0]))

    def test_qubit_params_ranges(self):
        with pytest.raises(StateValidationError):
            QubitParams(p=1.2, eta=0.5)
        with pytest.raises(StateValidationError):
            QubitParams(p=0.5, eta=-0.1)

    def test_states_are_immutable(self):
        s = product_pure_state(0.1, 2)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 2.0


class TestDephase:
    def test_diagonal_state_unchanged(self):
        s = QState(np.diag([0.7, 0.3]).astype(complex))
        assert np.allclose(dephase(s).matrix, s.matrix)

    def test_pure_superposition(self):
        s = QState.pure([np.sqrt(0.9), np.sqrt(0.1)])
        assert np.allclose(dephase(s).matrix, np.diag([0.9, 0.1]))

    def test_partially_coherent_qubit(self):
        s = mixed_qubit_product(QubitParams(p=0.3, eta=0.5), 1)
        assert np.allclose(dephase(s).matrix, np.diag([0.7, 0.3]))

    @given(density_matrices())
    def test_idempotent(self, s):
        once = dephase(s)
        assert np.array_equal(dephase(once).matrix, once.matrix)


class TestMeasures:
    def test_ground_state_energy(self):
        s = QState.pure([1.0, 0.0])
        assert mean_energy(s, EnergySpectrum([0.0, 1.0])) == 0.0

    def test_product_state_energy(self):
        s = product_pure_state(0.1, 2)
        assert mean_energy(s, TWO_QUBIT_SPECTRUM) == pytest.approx(0.2, abs=1e-12)

    def test_energy_after_total_ground_removal(self):
        s = product_pure_state(0.1, 2)
        out, ps = apply_filter(s, DiagonalFilter([0.0, 0.0, 0.0, 1.0]))
        assert ps == pytest.approx(0.01, abs=1e-12)
        assert mean_energy(out, TWO_QUBIT_SPECTRUM) == pytest.approx(2.0, abs=1e-12)

    def test_energy_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mean_energy(product_pure_state(0.1, 1), TWO_QUBIT_SPECTRUM)

    def test_coherence_zero_for_diagonal(self):
        assert coherence(QState(np.diag([0.25, 0.75]).astype(complex))) == 0.0

    def test_coherence_of_product_state(self):
        value = coherence(product_pure_state(0.1, 2))
        assert value == pytest.approx(shannon(P01_POPS), abs=1e-12)
        assert value == pytest.approx(0.6502, abs=1e-4)

    def test_coherence_of_uniform_superposition(self):
        s = QState.pure(np.ones(4))
        assert coherence(s) == pytest.approx(np.log(4), abs=1e-12)

    def test_tsallis_zero_for_diagonal(self):
        assert coherence_tsallis(QState(np.diag([0.25, 0.75]).astype(complex))) == 0.0

    def test_tsallis_of_product_state(self):
        value = coherence_tsallis(product_pure_state(0.1, 2))
        assert value == pytest.approx(1.0 - (P01_POPS**2).sum(), abs=1e-12)
        assert value == pytest.approx(0.3276, abs=1e-10)

    def test_tsallis_of_balanced_pure_qubit(self):
        s = mixed_qubit_product(QubitParams(p=0.5, eta=1.0), 1)
        assert coherence_tsallis(s) == pytest.approx(0.5, abs=1e-12)

    @given(pure_states())
    def test_pure_state_coherence_is_population_entropy(self, s):
        assert coherence(s) == pytest.approx(shannon(s.populations), abs=1e-9)

    @given(density_matrices())
    def test_mean_energy_invariant_under_dephase(self, s):
        spec = EnergySpectrum(np.arange(s.dim, dtype=float))
        assert mean_energy(s, spec) == pytest.approx(
            mean_energy(dephase(s), spec), abs=1e-12
        )

    @given(density_matrices())
    def test_coherence_nonnegative_and_zero_only_when_diagonal(self, s):
        c = coherence(s)
        assert c >= 0.0
        off = np.max(np.abs(s.matrix - np.diag(np.diag(s.matrix))))
        if off < 1e-12:
            assert c < 1e-10
        elif off > 1e-3:
            assert c > 0.0


class TestFiltering:
    def test_identity_filter(self):
        s = product_pure_state(0.1, 2)
        assert success_probability(s, DiagonalFilter.identity(4)) == pytest.approx(1.0)
        out, ps = apply_filter(s, DiagonalFilter.identity(4))
        assert ps == pytest.approx(1.0)
        assert np.allclose(out.matrix, s.matrix)

    def test_ground_removal_probability(self):
        s = product_pure_state(0.1, 2)
        filt = DiagonalFilter([0.0, 1.0, 1.0, 1.0])
        assert success_probability(s, filt) == pytest.approx(0.19, abs=1e-12)
        # same number as p(2 - p) at p = 0.1
        assert success_probability(s, filt) == pytest.approx(0.1 * 1.9, abs=1e-12)

    def test_keep_top_only_probability(self):
        s = product_pure_state(0.1, 2)
        assert success_probability(s, DiagonalFilter([0, 0, 0, 1.0])) == pytest.approx(
            0.01, abs=1e-12
        )

    def test_filter_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            success_probability(product_pure_state(0.1, 1), DiagonalFilter.identity(4))

    def test_partial_ground_attenuation(self):
        s = product_pure_state(0.1, 2)
        out, ps = apply_filter(s, DiagonalFilter([1 / 3, 1, 1, 1.0]))
        assert ps == pytest.approx(0.28, abs=1e-12)
        assert np.allclose(
            out.populations, np.array([0.09, 0.09, 0.09, 0.01]) / 0.28, atol=1e-12
        )

    def test_annihilating_filter_raises(self):
        s = QState.pure([1.0, 0.0])
        with pytest.raises(AnnihilatedState):
            apply_filter(s, DiagonalFilter([0.0, 1.0]))

    def test_symmetric_attenuation_at_one_third(self):
        # direct arithmetic: amplitudes (4,2,2,1)/3 filtered by diag(0,1,1,1)
        s = product_pure_state(1 / 3, 2)
        out, ps = apply_filter(s, DiagonalFilter([0.0, 1.0, 1.0, 1.0]))
        unnorm = np.array([0.0, 2 / 9, 2 / 9, 1 / 9])
        assert ps == pytest.approx(unnorm.sum(), abs=1e-12)
        assert np.allclose(out.populations, unnorm / unnorm.sum(), atol=1e-12)

    @given(density_matrices(), st.data())
    def test_success_probability_equals_trace(self, s, data):
        filt = data.draw(diagonal_filters(s.dim))
        m = filt.matrix()
        direct = np.trace(m @ s.matrix @ m.conj().T).real
        assert success_probability(s, filt) == pytest.approx(direct, abs=1e-12)

    @given(density_matrices(), st.data())
    def test_filtering_preserves_incoherence(self, s, data):
        filt = data.draw(diagonal_filters(s.dim))
        diag = dephase(s)
        try:
            out, _ = apply_filter(diag, filt)
        except AnnihilatedState:
            return
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.max(np.abs(off)) < 1e-12

    @given(density_matrices(), st.data())
    def test_filter_composition(self, s, data):
        first = data.draw(diagonal_filters(s.dim))
        second = data.draw(diagonal_filters(s.dim))
        combined = DiagonalFilter(second.coeffs * first.coeffs)
        try:
            mid, ps1 = apply_filter(s, first)
            out, ps2 = apply_filter(mid, second)
            direct, ps = apply_filter(s, combined)
        except AnnihilatedState:
            return
        assert ps == pytest.approx(ps1 * ps2, abs=1e-12)
        assert np.allclose(out.matrix, direct.matrix, atol=1e-10)


class TestStateBuilders:
    def test_product_state_at_zero(self):
        s = product_pure_state(0.0, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(s.matrix, expected)

    def test_product_state_populations_third(self):
        s = product_pure_state(1 / 3, 2)
        assert np.allclose(s.populations, [4 / 9, 2 / 9, 2 / 9, 1 / 9], atol=1e-12)

    def test_product_state_populations_tenth(self):
        s = product_pure_state(0.1, 2)
        assert np.allclose(s.populations, P01_POPS, atol=1e-12)

    def test_product_state_rejects_bad_p(self):
        with pytest.raises(StateValidationError):
            product_pure_state(1.3, 2)

    def test_mixed_qubit_pure_limit(self):
        mixed = mixed_qubit_product(QubitParams(p=0.3, eta=1.0), 2)
        assert np.allclose(mixed.matrix, product_pure_state(0.3, 2).matrix, atol=1e-12)

    def test_mixed_qubit_dephased_limit(self):
        s = mixed_qubit_product(QubitParams(p=0.3, eta=0.0), 1)
        assert np.allclose(s.matrix, np.diag([0.7, 0.3]), atol=1e-12)

    def test_mixed_qubit_purity(self):
        # exact matrix computation, not a printed formula: 1 - 2(1-eta^2)p(1-p)
        s = mixed_qubit_product(QubitParams(p=0.3, eta=0.5), 1)
        assert s.purity() == pytest.approx(0.685, abs=1e-12)
        assert s.purity() == pytest.approx(1 - 2 * (1 - 0.25) * 0.21, abs=1e-12)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_mixed_qubit_always_valid(self, p, eta):
        s = mixed_qubit_product(QubitParams(p=p, eta=eta), 2)
        assert np.min(np.linalg.eigvalsh(s.matrix)) > -1e-10


class TestTensor:
    def test_identity_tensor(self):
        i2 = DiagonalFilter.identity(2)
        assert np.allclose(tensor_filter(i2, i2).coeffs, np.ones(4))

    def test_single_qubit_filter_tensor(self):
        b = 0.4
        single = DiagonalFilter([b, 1.0])
        two = tensor_filter(single, single)
        assert np.allclose(two.coeffs, [b * b, b, b, 1.0])

    def test_basis_state_tensor(self):
        zero = QState(np.diag([1.0, 0.0]).astype(complex))
        one = QState(np.diag([0.0, 1.0]).astype(complex))
        prod = tensor(zero, one)
        assert prod.populations[1] == pytest.approx(1.0)


class TestSerialization:
    def test_qstate_roundtrip(self):
        s = mixed_qubit_product(QubitParams(p=0.3, eta=0.6), 2)
        again = qstate_from_text(qstate_to_text(s))
        assert np.array_equal(again.matrix, s.matrix)

    def test_filter_roundtrip(self):
        filt = DiagonalFilter(np.array([0.5, 1.0, 0.25j, -0.3]))
        again = filter_from_text(filter_to_text(filt))
        assert np.array_equal(again.coeffs, filt.coeffs)

    def test_qstate_text_rejects_bad_header(self):
        with pytest.raises(StateValidationError):
            qstate_from_text("rows 2\n1 0 0 0\n0 0 0 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n",
            "# only a comment\n  # indented comment\n",
            "dim x\n1 0 0 0\n0 0 0 0\n",
            "dim 2.0\n1 0 0 0\n0 0 0 0\n",
            "dim 0\n",
            "dim -2\n",
            "dim 2 3\n1 0 0 0\n0 0 0 0\n",
            "dim 2\n1 0 0 0\n",
            "dim 2\n1 0 0 0\n0 0 zero 0\n",
            "dim 2\n1 0 0 0\n0 0 0 0 0 0\n",
            "dim 2\n1 0 0\n0 0 0 0\n",
            "dim 2\nnan 0 0 0\n0 0 0 0\n",
            "dim 2\n1 0 0 0\n0 0 inf 0\n",
        ],
    )
    def test_qstate_text_rejects_malformed(self, text):
        with pytest.raises(StateValidationError):
            qstate_from_text(text)

    def test_qstate_text_skips_comments_and_blanks(self):
        s = product_pure_state(0.1, 1)
        text = "# header comment\n\n" + qstate_to_text(s).replace("\n", "\n# between rows\n", 1)
        assert np.array_equal(qstate_from_text(text).matrix, s.matrix)

    @pytest.mark.parametrize(
        "text",
        ["", "# nothing\n", "dim two\n1 0\n", "dim 2\n1 0 1\n", "dim 2\n1 0\n", "dim 1\nnan 0\n"],
    )
    def test_filter_text_rejects_malformed(self, text):
        with pytest.raises(StateValidationError):
            filter_from_text(text)

    def test_filter_text_coefficients_may_span_lines(self):
        filt = filter_from_text("dim 2\n0.5 0\n1 0\n")
        assert np.array_equal(filt.coeffs, np.array([0.5, 1.0], dtype=complex))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_qstate_rejects(self, bad):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(StateValidationError):
            QState(m)
        with pytest.raises(StateValidationError):
            QState(np.diag([bad, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_filter_rejects(self, bad):
        with pytest.raises(StateValidationError):
            DiagonalFilter(np.array([0.5, bad], dtype=complex))
