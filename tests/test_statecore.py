import hypothesis
import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from coherence_forge import (
    AnnihilatedState,
    DiagonalFilter,
    DimensionMismatch,
    DomainError,
    EnergySpectrum,
    QState,
    QubitParams,
    StateValidationError,
    TWO_QUBIT_SPECTRUM,
    apply_filter,
    coherence,
    coherence_optimal_filter_pure,
    coherence_tsallis,
    dephase,
    energy_optimal_filter,
    mean_energy,
    mixed_qubit_product,
    product_pure_state,
    success_probability,
    tensor,
    tensor_filter,
)
from coherence_forge.statecore import (
    _BATCH_ROWS,
    TRACE_TOL,
    ZERO_EIGENVALUE,
    _density_spectra,
    _row_entropy,
    apply_filter_rows,
    coherence_rows,
    diagonal_filter_rows,
    filter_from_text,
    filter_to_text,
    qstate_from_text,
    qstate_to_text,
)

from coherence_forge.synthesis import _scan_states
from conftest import density_matrices, diagonal_filters, pure_states

# Populations of the two-qubit product state with p = 0.1; everything below
# cross-checks against direct arithmetic on this distribution.
P01_POPS = np.array([0.81, 0.09, 0.09, 0.01])


def shannon(v):
    v = np.asarray(v, float)
    v = v[v > 1e-14]
    return float(-(v * np.log(v)).sum())


class TestValidation:
    def test_unsorted_spectrum_gets_its_classes(self):
        # the 3-qubit excitation counts in basis order: classes in ascending
        # energy, each in ascending index; levels within the tolerance join
        spectrum = EnergySpectrum([0, 1, 1, 2, 1, 2, 2, 3])
        assert [c.tolist() for c in spectrum.degeneracy_classes()] == [
            [0], [1, 2, 4], [3, 5, 6], [7]
        ]
        assert [c.tolist() for c in EnergySpectrum([1.0, 0.0]).degeneracy_classes()] == [[1], [0]]
        near = EnergySpectrum([2.0, 1.0 + 5e-10, 0.0, 1.0])
        assert [c.tolist() for c in near.degeneracy_classes()] == [[2], [1, 3], [0]]

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


def _random_density_matrices(rng, d, count):
    """``count`` random full-rank d x d density matrices."""
    g = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _first_row_error(states, rows):
    """Type and message of what apply_filter raises for the first failing row."""
    for state, row in zip(states, rows):
        try:
            apply_filter(state, DiagonalFilter(row))
        except DomainError as exc:
            return type(exc), str(exc)
    raise AssertionError("no row fails")


class TestFilterRowsFirstFailure:
    """A batch raises, type and message, what ``apply_filter(state,
    DiagonalFilter(row))`` raises for its first failing row."""

    GOOD = np.array([0.5, 1.0, 0.8, 1.0])
    BAD = {
        "above-one": [0.5, 1.0 + 1e-9, 1.0, 1.0],
        "nan": [0.5, np.nan, 1.0, 1.0],
        "inf": [0.5, 1.0, 1.0, -np.inf],
        # P_S = 0.01 * 1e-14 on the p = 0.1 product state
        "annihilating": [0.0, 0.0, 0.0, 1e-7],
    }

    @staticmethod
    def check(rows, stacked):
        """Filter one pure state, or a stack of pure and mixed states, by ``rows``."""
        states = [
            mixed_qubit_product(QubitParams(p=0.1 + 0.02 * k, eta=0.5 + 0.05 * k), 2)
            if stacked and k % 2
            else product_pure_state(0.1, 2)
            for k in range(len(rows))
        ]
        matrix = np.array([s.matrix for s in states]) if stacked else states[0].matrix
        want_type, want_message = _first_row_error(states, rows)
        with pytest.raises(DomainError) as info:
            apply_filter_rows(matrix, rows)
        assert type(info.value) is want_type
        assert str(info.value) == want_message

    @pytest.mark.parametrize("stacked", [False, True], ids=["one-state", "stack"])
    @pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", list(BAD))
    def test_one_bad_row(self, kind, where, stacked):
        rows = np.tile(self.GOOD, (7, 1)).astype(complex)
        rows[where] = self.BAD[kind]
        self.check(rows, stacked)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one-state", "stack"])
    @pytest.mark.parametrize(
        "kinds", [("annihilating", "above-one"), ("nan", "annihilating"), ("above-one", "inf")]
    )
    def test_only_the_first_bad_row_counts(self, kinds, stacked):
        rows = np.tile(self.GOOD, (6, 1)).astype(complex)
        rows[2], rows[4] = self.BAD[kinds[0]], self.BAD[kinds[1]]
        self.check(rows, stacked)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one-state", "stack"])
    @pytest.mark.parametrize("where", [None, 0, 2], ids=["all-good", "first-bad", "middle-bad"])
    def test_dimension_mismatch(self, where, stacked):
        # every row has the wrong width, so row 0 fails first: its own filter
        # checks, then the dimension check
        rows = np.tile(self.GOOD[:3], (5, 1)).astype(complex)
        if where is not None:
            rows[where] = self.BAD["above-one"][:3]
        self.check(rows, stacked)

    def test_symmetrized_trace_has_no_imaginary_part_to_test(self):
        """Why ``apply_filter_rows`` tests only the real part of each trace:
        after 0.5 (rho + rho^dag) every diagonal entry of a finite row has an
        imaginary part of exactly +0.0, and of a row that is not finite, NaN,
        which no tolerance test catches. Those rows fail the coefficient
        bound or the P_S floor first, with the errors of ``apply_filter``."""
        rng = np.random.default_rng(28)
        for d in (2, 3, 4, 6, 8):
            states = [QState(m) for m in _random_density_matrices(rng, d, 6)]
            stack = np.array([s.matrix for s in states])
            finite = np.sqrt(rng.uniform(0.0, 1.0, (6, d))) * np.exp(2j * np.pi * rng.random((6, d)))
            finite[:, 0] = 1e-4
            finite[1:3] *= 1e-5  # two rows with a P_S of about 1e-10, nearer the floor
            bad = finite.copy()
            bad[0, 1], bad[1, 0], bad[2, d - 1] = np.nan, np.inf, complex(0.5, np.nan)
            bad[3, :] = 1e-200  # P_S underflows to 0, so every entry is 0/0
            bad[4, 0], bad[5, 1] = 1e200, complex(0.0, -1e300)  # P_S overflows to inf
            for rows in (finite, bad):
                diagonal = self._symmetrized_diagonal(stack, rows)
                entry_finite = np.isfinite(diagonal)
                assert entry_finite.all() == (rows is finite)
                assert (diagonal.imag[entry_finite] == 0.0).all()
                assert not np.signbit(diagonal.imag[entry_finite]).any()
                assert np.isnan(diagonal.imag[~entry_finite]).all()
                trace_imag = diagonal.sum(axis=1).imag
                assert not (np.abs(trace_imag) > TRACE_TOL).any()
            assert len(apply_filter_rows(stack, finite)[0]) == 6
            for k in range(6):
                one_bad = finite.copy()
                one_bad[k] = bad[k]
                want_type, want_message = _first_row_error(states, one_bad)
                with pytest.raises(DomainError) as info:
                    apply_filter_rows(stack, one_bad)
                assert (type(info.value), str(info.value)) == (want_type, want_message)

    @staticmethod
    def _symmetrized_diagonal(matrix, c):
        """The diagonal of each row's rho, with the arithmetic of
        ``apply_filter_rows``."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p_s = (np.abs(c) ** 2 * matrix.diagonal(axis1=-2, axis2=-1).real).sum(axis=1)
            rho = matrix * (c[:, :, None] * c.conj()[:, None, :]) / p_s[:, None, None]
            rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        return rho.diagonal(axis1=1, axis2=2)

    def test_bad_row_past_the_first_slice(self):
        n = _BATCH_ROWS + 100
        rows = np.tile(self.GOOD, (n, 1)).astype(complex)
        rows[_BATCH_ROWS + 50] = self.BAD["nan"]
        rows[n - 1] = self.BAD["annihilating"]
        self.check(rows, stacked=False)

    # Doctored inputs that no validated state can give, so that a row passes
    # the coefficient bound and the P_S floor and fails a later test. On
    # diag(1e8, 1 - 1e8, 0, 0), P_S cancels to about r^2, and where |c_1|^2
    # and c_1 c_1^* differ in the last bit the output trace is about 1e-8 off.
    CANCELLING = np.diag([1e8, 1.0 - 1e8, 0.0, 0.0]).astype(complex)
    NEGATIVE = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)

    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("trace", "density matrix trace must equal 1"),
            ("negative", "density matrix has a negative eigenvalue"),
        ],
    )
    def test_trace_and_eigenvalue_floor_of_a_slice(self, kind, message, where):
        """A first failing row that passes the coefficient bound and the P_S
        floor fails the trace test or the eigenvalue floor, and the batch
        raises ``QState``'s message for it; a later row's NaN does not count
        (the bound and the floor are ``test_only_the_first_bad_row_counts``)."""
        stack = np.array([product_pure_state(0.1 + 0.05 * k, 2).matrix for k in range(5)])
        rows = np.tile(self.GOOD, (5, 1)).astype(complex)
        if where < 4:
            rows[4] = self.BAD["nan"]
        if kind == "negative":
            stack[where], rows[where] = self.NEGATIVE, 1.0
        else:
            # the first seeded row (r, r e^(i theta), 1, 1) whose output
            # trace, summed as apply_filter_rows sums it, is off
            stack[where] = self.CANCELLING
            rng = np.random.default_rng(34)
            for _ in range(100):
                r, theta = rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * np.pi)
                rows[where] = [r, r * np.exp(1j * theta), 1.0, 1.0]
                trace = self._symmetrized_diagonal(stack, rows)[where].sum().real
                if abs(trace - 1.0) > TRACE_TOL:
                    break
            else:
                raise AssertionError("no seeded row has an output trace off by more than 1e-12")
            assert np.abs(rows[where]).max() <= 1.0 + 1e-12
        with pytest.raises(StateValidationError, match=f"^{message}$"):
            apply_filter_rows(stack, rows)


class TestDiagonalFilterRows:
    """``diagonal_filter_rows`` checks a batch as ``DiagonalFilter`` checks each
    row, and raises what ``DiagonalFilter`` raises for the first failing row."""

    GOOD = np.array([0.5, 1.0, 0.8j, 1.0])
    BAD = {
        "nan": [0.5, np.nan, 1.0, 1.0],
        "inf": [0.5, 1.0, 1.0, -np.inf],
        "complex-inf": [0.5, 1.0, complex(0.0, np.inf), 1.0],
        "above-one": [0.5, 1.0 + 1e-9, 1.0, 1.0],
        "just-above-the-bound": [0.5, 1.0 + 2e-12, 1.0, 1.0],
    }

    @staticmethod
    def check(rows):
        first_bad = next(
            i for i, row in enumerate(rows) if not np.abs(row).max() <= 1.0 + 1e-12
        )
        with pytest.raises(StateValidationError) as want:
            DiagonalFilter(rows[first_bad])
        with pytest.raises(StateValidationError) as got:
            diagonal_filter_rows(rows)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", list(BAD))
    def test_one_bad_row(self, kind, where):
        rows = np.tile(self.GOOD, (7, 1))
        rows[where] = self.BAD[kind]
        self.check(rows)

    @pytest.mark.parametrize(
        "kinds", [("above-one", "nan"), ("nan", "above-one"), ("inf", "above-one")]
    )
    def test_only_the_first_bad_row_counts(self, kinds):
        rows = np.tile(self.GOOD, (6, 1))
        rows[2], rows[4] = self.BAD[kinds[0]], self.BAD[kinds[1]]
        self.check(rows)

    def test_the_bound_admits_round_off(self):
        rows = np.tile(self.GOOD, (3, 1))
        rows[1, 1] = 1.0 + 1e-12
        assert diagonal_filter_rows(rows)[1].coeffs[1] == 1.0 + 1e-12

    def test_zero_width_rows(self):
        with pytest.raises(StateValidationError) as want:
            DiagonalFilter(np.zeros(0))
        with pytest.raises(StateValidationError) as got:
            diagonal_filter_rows(np.zeros((3, 0)))
        assert str(got.value) == str(want.value) == "filter needs at least one coefficient"
        assert diagonal_filter_rows(np.zeros((0, 0))) == []
        assert diagonal_filter_rows(np.zeros((0, 4))) == []

    def test_filters_are_read_only_row_views(self):
        rows = np.array([[0.5, 1.0, 0.25, 1.0], [1.0, 0.0, 0.5j, 0.75]])
        filters = diagonal_filter_rows(rows)
        assert len(filters) == 2
        for filt, row in zip(filters, rows):
            assert type(filt) is DiagonalFilter
            assert filt.coeffs.ndim == 1 and filt.coeffs.dtype == complex
            assert not filt.coeffs.flags.writeable
            assert filt.coeffs.view(float).tobytes() == DiagonalFilter(row).coeffs.view(float).tobytes()
            with pytest.raises(ValueError):
                filt.coeffs[0] = 0.0
        # one frozen copy: the caller's array stays writable and unshared
        assert filters[0].coeffs.base is filters[1].coeffs.base
        assert rows.flags.writeable and not np.shares_memory(rows, filters[0].coeffs)
        rows[0, 0] = 0.0
        assert filters[0].coeffs[0] == 0.5
        with pytest.raises(AttributeError):
            filters[0].coeffs = np.ones(4)

    def test_filters_work_as_constructed_ones(self):
        state = product_pure_state(0.1, 2)
        rows = np.array([[0.5, 1.0, 0.8, 1.0], [0.1, 0.3, 0.3, 1.0]])
        for filt, row in zip(diagonal_filter_rows(rows), rows):
            built = DiagonalFilter(row)
            assert filt.dim == built.dim == 4
            assert np.array_equal(filt.intensities, built.intensities)
            assert np.array_equal(filt.matrix(), built.matrix())
            assert success_probability(state, filt) == success_probability(state, built)
            assert repr(filt) == repr(built)


def _state_with_zeros(rng, d, rank, zeros):
    """A rank-``rank`` state on d levels whose first ``zeros`` levels (in a
    random order) are empty, so its populations and its spectrum keep
    different numbers of entries."""
    live = rng.permutation(d)[zeros:]
    g = np.zeros((d, rank), dtype=complex)
    g[live] = rng.normal(size=(live.size, rank)) + 1j * rng.normal(size=(live.size, rank))
    rho = g @ g.conj().T
    return QState(0.5 * (rho + rho.conj().T) / np.trace(rho).real)


class TestCoherenceRowsAtEightOrMoreLevels:
    """Rows of 8 or more entries sum their own kept terms: a stacked batch
    with different kept counts per row gives each state's ``coherence`` bit
    for bit."""

    def test_stacked_rows_equal_each_state(self):
        rng = np.random.default_rng(20)
        for d in range(8, 17):
            states = [
                _state_with_zeros(rng, d, rank, zeros)
                for rank in (1, 2, d)
                for zeros in (0, 1, d // 2, d - 2)
            ]
            populations = np.array([s.populations for s in states])
            eigenvalues = np.array([s._eigenvalues for s in states])
            batch = coherence_rows(populations, eigenvalues)
            assert batch.tolist() == [coherence(s) for s in states]
            assert len({int((p > 1e-14).sum()) for p in populations}) > 2

    def test_filtered_rows_equal_each_filtered_state(self):
        rng = np.random.default_rng(21)
        for d in (8, 9, 12, 16):
            state = _state_with_zeros(rng, d, d, 2)
            rows = np.sqrt(rng.uniform(0.0, 1.0, size=(40, d)))
            rows[rng.random((40, d)) < 0.3] = 0.0
            rows[:, 0] = 1.0
            p_s, populations, eigenvalues = apply_filter_rows(state.matrix, rows)
            want = [coherence(apply_filter(state, DiagonalFilter(row))[0]) for row in rows]
            assert coherence_rows(populations, eigenvalues).tolist() == want


def _two_pass_coherence_rows(populations, eigenvalues):
    """``coherence_rows`` with one ``_row_entropy`` pass per argument."""
    gap = _row_entropy(populations) - _row_entropy(eigenvalues)
    return np.where(gap < 0.0, 0.0, gap)


def test_coherence_rows_equals_the_two_pass_form():
    """One entropy pass over populations and eigenvalues stacked gives each
    row's coherence bit for bit, 0.0 against -0.0 included."""
    rng = np.random.default_rng(28)
    small = [0.0, -0.0, -1e-16, 1e-15, ZERO_EIGENVALUE, np.nextafter(ZERO_EIGENVALUE, 1.0)]
    for d in range(2, 17):
        rows = rng.dirichlet(np.ones(d), size=(2, 60))
        # entries at or near the zero threshold, some rows with most of them
        tiny = rng.random((2, 60, d)) < rng.uniform(0.0, 0.9, (2, 60, 1))
        rows[tiny] = rng.choice(small, size=int(tiny.sum()))
        rows[:, :, 0] += 1e-3
        # rows of zero entropy: one entry 1, the rest at or below the threshold
        one_hot = np.where(rng.random((2, 12, d)) < 0.5, 0.0, rng.choice(small[:-1], (2, 12, d)))
        one_hot[:, np.arange(12), rng.integers(d, size=12)] = 1.0
        populations, eigenvalues = np.concatenate([rows, one_hot], axis=1)
        # the same row on both sides gives an exact 0.0 gap
        eigenvalues[:5] = populations[:5]
        for pops, eigs in ((populations, eigenvalues), (eigenvalues, populations)):
            got = coherence_rows(pops, eigs)
            want = _two_pass_coherence_rows(pops, eigs)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert (coherence_rows(one_hot[0], one_hot[1]) == 0.0).all()
    assert coherence_rows(np.empty((0, 3)), np.empty((0, 3))).shape == (0,)


@given(state=density_matrices(dims=(2, 3, 4, 6, 8)), data=st.data())
def test_symmetrized_rows_are_exactly_hermitian(state, data):
    """Why ``apply_filter_rows`` has no Hermiticity mask: M rho M^dag / P_S
    symmetrized as 0.5 (A + A^dag) is Hermitian to the last bit for any
    finite A, since IEEE addition commutes and a - b is exactly -(b - a)."""
    filt = data.draw(diagonal_filters(state.dim))
    c = filt.coeffs
    p_s = float((np.abs(c) ** 2 * state.populations).sum())
    hypothesis.assume(p_s >= 1e-14)
    a = state.matrix * np.outer(c, c.conj()) / p_s
    rho = 0.5 * (a + a.conj().T)
    assert np.array_equal(rho, rho.conj().T)


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


def _kron_power(single: np.ndarray, n: int) -> np.ndarray:
    out = single
    for _ in range(n - 1):
        out = np.kron(out, single)
    return out


def _same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


class TestBroadcastKron:
    """The constructors form the products of ``np.kron`` by broadcasting; each
    equals ``np.kron`` bit for bit, with the same dtype."""

    PS = [1e-9, 0.3, 0.5, 1.0 - 1e-9]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", PS)
    def test_product_pure_state(self, p, n):
        amps = _kron_power(np.array([np.sqrt(1.0 - p), np.sqrt(p)]), n)
        assert _same_array(product_pure_state(p, n).matrix, QState.pure(amps).matrix)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", PS)
    def test_mixed_qubit_product(self, p, n, eta):
        off = eta * np.sqrt(p * (1.0 - p))
        single = np.array([[1.0 - p, off], [off, p]], dtype=complex)
        got = mixed_qubit_product(QubitParams(p=p, eta=eta), n).matrix
        assert _same_array(got, _kron_power(single, n))

    def test_tensor_and_tensor_filter(self):
        rng = np.random.default_rng(34)
        for d1, d2 in [(1, 3), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3)]:
            for a, b in zip(_random_density_matrices(rng, d1, 4), _random_density_matrices(rng, d2, 4)):
                assert _same_array(tensor(QState(a), QState(b)).matrix, np.kron(a, b))
            for _ in range(4):
                fa, fb = (
                    np.sqrt(rng.uniform(0.0, 1.0, d)) * np.exp(2j * np.pi * rng.random(d))
                    for d in (d1, d2)
                )
                got = tensor_filter(DiagonalFilter(fa), DiagonalFilter(fb)).coeffs
                assert _same_array(got, np.kron(fa, fb))


class TestScanStates:
    @pytest.mark.parametrize("eta", [0.0, 1e-4, 0.3, 0.75, 1.0])
    def test_stack_equals_each_state(self, eta):
        rng = np.random.default_rng(341)
        for p_values in (
            list(np.linspace(0.05, 0.45, 9)),
            [0.5, 1e-7, 0.999999],
            rng.uniform(0.0, 1.0, 70).tolist(),
        ):
            stack = _scan_states(eta, p_values)
            want = np.array([mixed_qubit_product(QubitParams(p=p, eta=eta), 2).matrix for p in p_values])
            assert _same_array(stack, want)


class TestSharedDensityChecks:
    """``QState`` and a stack share one check: a stack raises ``QState``'s
    message for its first failing matrix."""

    GOOD = mixed_qubit_product(QubitParams(p=0.3, eta=0.5), 2).matrix
    DOCTORED = {
        "nan": ("density matrix entries must be finite", lambda m: m.__setitem__((1, 2), np.nan)),
        "inf": ("density matrix entries must be finite", lambda m: m.__setitem__((3, 3), np.inf)),
        "skew": ("density matrix is not Hermitian", lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-9)),
        "trace": ("density matrix trace must equal 1", lambda m: m.__setitem__((0, 0), m[0, 0] + 1e-9)),
        # each diagonal entry 4e-13 off the real axis: a Hermiticity residual
        # of 8e-13 passes, and a trace 1.6e-12 off it does not
        "imaginary-trace": ("density matrix trace must equal 1",
                            lambda m: m.__setitem__(np.diag_indices(4), m.diagonal() + 4e-13j)),
        "negative": ("density matrix has a negative eigenvalue",
                     lambda m: m.__setitem__(slice(None), np.diag([1.5, -0.5, 0.0, 0.0]))),
    }

    @classmethod
    def doctored(cls, kind):
        m = cls.GOOD.copy()
        cls.DOCTORED[kind][1](m)
        return m

    @pytest.mark.parametrize("kind", list(DOCTORED))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_single_matrix(self, kind):
        with pytest.raises(StateValidationError, match=f"^{self.DOCTORED[kind][0]}$"):
            QState(self.doctored(kind))
        with pytest.raises(StateValidationError, match=f"^{self.DOCTORED[kind][0]}$"):
            _density_spectra(self.doctored(kind)[None])

    @pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", list(DOCTORED))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_first_failing_matrix_of_a_stack(self, kind, where):
        stack = np.array([self.GOOD] * 7)
        stack[where] = self.doctored(kind)
        # a later matrix failing another check does not count
        if where < 6:
            stack[6] = self.doctored("negative" if kind != "negative" else "nan")
        with pytest.raises(StateValidationError, match=f"^{self.DOCTORED[kind][0]}$"):
            _density_spectra(stack)

    def test_good_stack_gives_each_spectrum(self):
        stack = _random_density_matrices(np.random.default_rng(5), 4, 6)
        spectra = _density_spectra(stack)
        for m, eigenvalues in zip(stack, spectra):
            assert np.array_equal(eigenvalues, QState(m)._eigenvalues)

    @pytest.mark.parametrize(
        "shape", [(), (4,), (2, 3), (1, 4, 4)], ids=["scalar", "vector", "2x3", "stacked"]
    )
    def test_only_a_square_matrix_is_a_state(self, shape):
        with pytest.raises(StateValidationError, match="^density matrix must be square$"):
            QState(np.full(shape, 0.25))

    def test_stack_must_hold_square_matrices(self):
        for shape in [(2, 3), (2, 2, 3), (1, 2, 2, 2)]:
            with pytest.raises(StateValidationError, match="^density matrix must be square$"):
                _density_spectra(np.full(shape, 0.5, dtype=complex))


def test_dimensions_are_ints():
    state, spectrum = product_pure_state(0.2, 3), EnergySpectrum([0.0, 1.0, 1.0, 2.0, 3.0])
    assert type(state.dim) is int and state.dim == 8
    assert type(spectrum.dim) is int and spectrum.dim == 5
    assert type(TWO_QUBIT_SPECTRUM.dim) is int


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


class TestCachedInvariants:
    """Spectra and states compute their invariants once; nothing a caller is
    handed can write into what later calls read."""

    SPECTRUM_LEVELS = [0.0, 0.5, 0.5 + 1e-12, 1.0, 2.0, 2.0]

    def test_degeneracy_classes_cannot_be_written_through(self):
        spectrum = EnergySpectrum(self.SPECTRUM_LEVELS)
        classes = spectrum.degeneracy_classes()
        assert [c.tolist() for c in classes] == [[0], [1, 2], [3], [4, 5]]
        for group in classes:
            with pytest.raises(ValueError):
                group[0] = 3
            assert group.base is None or not group.base.flags.writeable
        classes.clear()
        assert [c.tolist() for c in spectrum.degeneracy_classes()] == [[0], [1, 2], [3], [4, 5]]

    def test_mutated_populations_leave_the_state_unchanged(self):
        state = product_pure_state(0.3, 2)
        before = [
            energy_optimal_filter(state, TWO_QUBIT_SPECTRUM, 0.6).coeffs.tobytes(),
            coherence_optimal_filter_pure(state, 0.6).coeffs.tobytes(),
        ]
        pops = state.populations
        assert pops.flags.writeable
        pops[:] = [1.0, 0.0, 0.0, 0.0]
        assert state.populations is not pops
        assert np.array_equal(state.populations, np.diagonal(state.matrix).real)
        assert state.is_pure()
        assert state.purity() == float(np.trace(state.matrix @ state.matrix).real)
        assert [
            energy_optimal_filter(state, TWO_QUBIT_SPECTRUM, 0.6).coeffs.tobytes(),
            coherence_optimal_filter_pure(state, 0.6).coeffs.tobytes(),
        ] == before

    def test_mixed_state_stays_mixed(self):
        state = mixed_qubit_product(QubitParams(p=0.3, eta=0.5), 2)
        assert not state.is_pure()
        state.populations[:] = 0.25
        assert not state.is_pure()
        assert coherence_tsallis(state) == max(
            float(np.trace(state.matrix @ state.matrix).real)
            - float((np.diagonal(state.matrix).real ** 2).sum()),
            0.0,
        )

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([0.5, np.nan], "filter coefficients must be finite"),
            ([np.inf, 0.5], "filter coefficients must be finite"),
            ([complex(0.5, -np.inf), 0.5], "filter coefficients must be finite"),
            ([0.5, 1.5], r"filter coefficients must satisfy \|m\| <= 1"),
            ([1.5, np.nan], "filter coefficients must be finite"),
            ([], "filter needs at least one coefficient"),
        ],
    )
    def test_filter_checks_keep_their_messages(self, coeffs, message):
        with pytest.raises(StateValidationError, match=f"^{message}$"):
            DiagonalFilter(np.array(coeffs, dtype=complex))
