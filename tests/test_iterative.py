import numpy as np
import pytest

from coherence_forge import (
    DiagonalFilter,
    DimensionMismatch,
    QState,
    QubitParams,
    StateValidationError,
    apply_filter,
    coherence,
    coherence_optimal_filter_pure,
    mixed_qubit_product,
    product_pure_state,
    tensor,
)
from coherence_forge.iterative import (
    KrausSet,
    SequentialPovm,
    compose_iteration,
    reduced_kraus,
    sequential_povm,
    simulate_sequential,
)
from coherence_forge.oracle import grid_search
from coherence_forge.synthesis import (
    FilterFamily,
    FilterTarget,
    TwoQubitFilterParams,
    optimal_filter,
    reachable_success_range,
)
from coherence_forge import TWO_QUBIT_SPECTRUM


def random_filter(rng, dim, complex_phases=True):
    mags = rng.uniform(0.0, 1.0, size=dim)
    if complex_phases:
        return DiagonalFilter(mags * np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim)))
    return DiagonalFilter(mags.astype(complex))


def random_qubit(rng):
    return mixed_qubit_product(
        QubitParams(p=float(rng.uniform(0.05, 0.95)), eta=float(rng.uniform(0, 1))), 1
    )


def partial_trace_second(matrix, d):
    """Trace out the second subsystem of a d*d-dimensional bipartite matrix."""
    t = matrix.reshape(d, d, d, d)
    return np.einsum("ajbj->ab", t)


def two_stage_direct(stage1, stage2, rho):
    """Brute-force four-system simulation: filter two pairs, keep one system
    of each, re-pair, filter again. Returns the non-normalized output."""
    d = rho.shape[0]
    m1 = np.diag(stage1.coeffs)
    pair = np.kron(rho, rho)
    filtered = m1 @ pair @ m1.conj().T
    kept = partial_trace_second(filtered, d)
    repaired = np.kron(kept, kept)
    m2 = np.diag(stage2.coeffs)
    return m2 @ repaired @ m2.conj().T


class TestReducedKraus:
    def test_factorized_filter_columns(self):
        # a product filter M_A x M_B leaves every column operator
        # proportional to M_A
        ma = DiagonalFilter([0.5, 1.0])
        mb = DiagonalFilter([0.8, 0.3])
        two = DiagonalFilter(np.kron(ma.coeffs, mb.coeffs))
        partner = mixed_qubit_product(QubitParams(p=0.3, eta=1.0), 1)
        kraus = reduced_kraus(two, partner)
        for j, op in enumerate(kraus.operators):
            expected = (
                np.sqrt(partner.populations[j]) * mb.coeffs[j] * np.diag(ma.coeffs)
            )
            assert np.allclose(op, expected, atol=1e-12)

    def test_ground_removing_filter_columns(self):
        partner = mixed_qubit_product(QubitParams(p=0.3, eta=1.0), 1)
        two = TwoQubitFilterParams(a=0.0, b=1.0).to_filter()
        kraus = reduced_kraus(two, partner)
        w0 = np.sqrt(0.7) * np.diag([0.0, 1.0])
        w1 = np.sqrt(0.3) * np.diag([1.0, 1.0])
        assert np.allclose(kraus.operators[0], w0, atol=1e-12)
        assert np.allclose(kraus.operators[1], w1, atol=1e-12)

    def test_identity_filter_columns(self):
        partner = mixed_qubit_product(QubitParams(p=0.4, eta=0.5), 1)
        kraus = reduced_kraus(DiagonalFilter.identity(4), partner)
        for j, op in enumerate(kraus.operators):
            assert np.allclose(op, np.sqrt(partner.populations[j]) * np.eye(2))

    def test_reproduces_partial_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = random_qubit(rng)
            filt = random_filter(rng, 4)
            kraus = reduced_kraus(filt, rho)
            mixture = kraus.apply_mixture(rho)
            m = filt.matrix()
            pair = np.kron(rho.matrix, rho.matrix)
            direct = partial_trace_second(m @ pair @ m.conj().T, 2)
            assert np.max(np.abs(mixture - direct)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reduced_kraus(DiagonalFilter.identity(3), product_pure_state(0.1, 1))


class TestComposeIteration:
    def test_identity_stages(self):
        rho = mixed_qubit_product(QubitParams(p=0.25, eta=0.8), 1)
        kraus, sigma = compose_iteration(
            DiagonalFilter.identity(4), DiagonalFilter.identity(4), rho
        )
        pair = np.kron(rho.matrix, rho.matrix)
        assert np.max(np.abs(sigma - pair)) < 1e-12
        pops = rho.populations
        for idx, op in enumerate(kraus.operators):
            j, k = divmod(idx, 2)
            assert np.allclose(op, np.sqrt(pops[j] * pops[k]) * np.eye(4), atol=1e-12)

    def test_matches_four_system_simulation(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            rho = random_qubit(rng)
            stage1 = random_filter(rng, 4)
            stage2 = random_filter(rng, 4)
            _, sigma = compose_iteration(stage1, stage2, rho)
            direct = two_stage_direct(stage1, stage2, rho.matrix)
            assert np.max(np.abs(sigma - direct)) < 1e-10

    def test_trace_is_protocol_success_probability(self):
        rho = product_pure_state(0.1, 1)
        stage = TwoQubitFilterParams(a=0.0, b=1.0).to_filter()
        kraus, sigma = compose_iteration(stage, stage, rho)
        pair = tensor(rho, rho)
        m = stage.matrix()
        stage1_out = m @ pair.matrix @ m.conj().T
        p1 = np.trace(stage1_out).real
        kept = partial_trace_second(stage1_out, 2) / p1
        second_pair = np.kron(kept, kept)
        p2 = np.trace(m @ second_pair @ m.conj().T).real
        assert np.trace(sigma).real == pytest.approx(p1 * p1 * p2, abs=1e-12)

    def test_kraus_set_count(self):
        rho = product_pure_state(0.2, 1)
        stage = TwoQubitFilterParams(a=0.3, b=0.9).to_filter()
        kraus, _ = compose_iteration(stage, stage, rho)
        assert len(kraus.operators) == 4


class TestSequentialPovm:
    def test_single_element(self):
        w = np.diag([0.5, 0.9]).astype(complex)
        povm = sequential_povm(KrausSet(operators=(w,)))
        plus, minus = povm.stages[0]
        assert np.allclose(plus, w)
        assert np.allclose(minus, np.diag(np.sqrt(1 - np.array([0.25, 0.81]))))

    def test_two_element_pseudoinverse(self):
        w1 = np.diag([0.5, 0.0]).astype(complex)
        w2 = np.diag([0.5, 1.0]).astype(complex)
        povm = sequential_povm(KrausSet(operators=(w1, w2)))
        plus2 = np.diag(povm.stages[1][0])
        assert plus2[0] == pytest.approx(0.5 / np.sqrt(0.75), abs=1e-12)
        assert plus2[1] == pytest.approx(1.0, abs=1e-12)

    def test_exhausted_entries_invert_to_zero(self):
        w1 = np.diag([1.0, 0.3]).astype(complex)
        w2 = np.diag([0.0, 0.5]).astype(complex)
        povm = sequential_povm(KrausSet(operators=(w1, w2)))
        assert np.diag(povm.stages[1][0])[0] == 0.0

    def test_stage_count_from_composition(self):
        rho = product_pure_state(0.2, 1)
        stage = TwoQubitFilterParams(a=0.2, b=0.7).to_filter()
        kraus, _ = compose_iteration(stage, stage, rho)
        assert len(sequential_povm(kraus).stages) == 4

    def test_rejects_oversized_kraus_set(self):
        w = np.diag([1.0, 1.0]).astype(complex)
        with pytest.raises(StateValidationError):
            KrausSet(operators=(w, w))


_NON_FINITE = [np.nan, np.inf, -np.inf]


def _with_entry(base, index, value):
    op = np.array(base, dtype=complex)
    op[index] = value
    return op


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteOperators:
    """NaN passes every bound comparison and inf - inf warns, so non-finite
    entries are rejected before any other check."""

    @pytest.mark.parametrize("value", _NON_FINITE, ids=str)
    @pytest.mark.parametrize("index", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_kraus_set(self, value, index):
        op = _with_entry(np.diag([0.5, 1.0]), index, value)
        with pytest.raises(StateValidationError, match="Kraus operator entries must be finite"):
            KrausSet(operators=(op,))

    @pytest.mark.parametrize("value", _NON_FINITE, ids=str)
    @pytest.mark.parametrize("index", [(1, 1), (1, 0)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("which", ["plus", "minus"])
    def test_sequential_povm(self, value, index, which):
        plus, minus = np.diag([0.6, 1.0]), np.diag([0.8, 0.0])
        if which == "plus":
            plus = _with_entry(plus, index, value)
        else:
            minus = _with_entry(minus, index, value)
        with pytest.raises(StateValidationError, match=f"{which} operator entries must be finite"):
            SequentialPovm(stages=((plus, minus),))


class TestEquivalence:
    def test_identity_single_stage(self):
        rho = product_pure_state(0.3, 2)
        povm = sequential_povm(KrausSet(operators=(np.eye(4, dtype=complex),)))
        mixture, p_total, branches = simulate_sequential(povm, rho)
        assert p_total == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(mixture.matrix - rho.matrix)) < 1e-12
        assert branches == [pytest.approx(1.0, abs=1e-12)]

    def test_mixture_equals_kraus_map(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            rho = random_qubit(rng)
            filt = random_filter(rng, 4)
            kraus = reduced_kraus(filt, rho)
            povm = sequential_povm(kraus)
            mixture, p_total, _ = simulate_sequential(povm, rho)
            assert np.max(np.abs(mixture.matrix * p_total - kraus.apply_mixture(rho))) < 1e-10

    def test_two_stage_mixture_matches_composition(self):
        rho = product_pure_state(0.1, 1)
        pair = product_pure_state(0.1, 2)
        stage = TwoQubitFilterParams(a=0.0, b=1.0).to_filter()
        kraus, sigma = compose_iteration(stage, stage, rho)
        mixture, p_total, _ = simulate_sequential(sequential_povm(kraus), pair)
        assert np.max(np.abs(mixture.matrix - sigma / np.trace(sigma).real)) < 1e-10
        assert p_total == pytest.approx(np.trace(sigma).real, abs=1e-12)

    def test_branch_probabilities_complete(self):
        rng = np.random.default_rng(13)
        rho = random_qubit(rng)
        filt = random_filter(rng, 4)
        povm = sequential_povm(reduced_kraus(filt, rho))
        _, p_total, branches = simulate_sequential(povm, rho)
        assert sum(branches) == pytest.approx(p_total, abs=1e-12)
        # the all-minus path carries the remaining probability
        prefix = np.ones(2, dtype=complex)
        for _, minus in povm.stages:
            prefix = prefix * np.diag(minus)
        miss = float((np.abs(prefix) ** 2 * rho.populations).sum())
        assert miss == pytest.approx(1.0 - p_total, abs=1e-12)

    def test_leftover_bound_and_commutation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = random_qubit(rng)
            filt = random_filter(rng, 4)
            kraus = reduced_kraus(filt, rho)
            used = np.zeros(2)
            for w in kraus.operators:
                w_sq = np.abs(np.diag(w)) ** 2
                assert np.max(w_sq - (1.0 - used)) <= 1e-10
                used += w_sq
            povm = sequential_povm(kraus)
            ops = [op for pair in povm.stages for op in pair]
            ops.extend(kraus.operators)
            for a in ops:
                for b in ops:
                    assert np.max(np.abs(a @ b - b @ a)) < 1e-12

    def test_no_advantage_over_single_copy(self):
        rho = product_pure_state(0.1, 1)
        pair = product_pure_state(0.1, 2)
        for b in (0.5, 0.75, 1.0):
            stage = TwoQubitFilterParams(a=0.0, b=b).to_filter()
            kraus, sigma = compose_iteration(stage, stage, rho)
            p_total = float(np.trace(sigma).real)
            iterative_c = coherence(QState(sigma / p_total))
            best = grid_search(
                pair,
                TWO_QUBIT_SPECTRUM,
                FilterTarget.COHERENCE,
                p_total,
                grid_step=0.05,
            )
            assert iterative_c <= best.objective + 1e-6

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
    def test_no_advantage_over_the_exact_single_copy_optimum(self, p):
        # the exact optimum at max(P_S, edge), as `iterate` computes it: below
        # the full-equalization edge a scaled-down equalizer keeps the output
        rho = product_pure_state(p, 1)
        pair = product_pure_state(p, 2)
        target = FilterTarget.COHERENCE
        edge = reachable_success_range(pair, TWO_QUBIT_SPECTRUM, target, FilterFamily.OPTIMAL)[0]
        for a in (0.0, 0.4):
            for b in (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0):
                stage = TwoQubitFilterParams(a=a, b=b).to_filter()
                _, sigma = compose_iteration(stage, stage, rho)
                p_total = float(np.trace(sigma).real)
                iterative_c = coherence(QState(sigma / p_total))
                filt = optimal_filter(pair, TWO_QUBIT_SPECTRUM, target, max(p_total, edge))
                best = coherence(apply_filter(pair, filt)[0])
                assert iterative_c <= best + 1e-9, (a, b)

    def test_optimum_is_constant_below_full_equalization(self):
        # scaling the full equalizer down lowers P_S but leaves the output
        # state, and so the optimal coherence log 4, unchanged
        pair = product_pure_state(0.1, 2)
        edge = float(4 * pair.populations.min())
        equalizer = coherence_optimal_filter_pure(pair, edge)
        out_edge, ps_edge = apply_filter(pair, equalizer)
        assert ps_edge == pytest.approx(edge, abs=1e-15)
        assert coherence(out_edge) == pytest.approx(np.log(4.0), abs=1e-12)
        for scale in (0.9, 0.5, 0.1):
            out, ps = apply_filter(pair, DiagonalFilter(scale * equalizer.coeffs))
            assert ps == pytest.approx(scale**2 * edge, abs=1e-15)
            assert np.max(np.abs(out.matrix - out_edge.matrix)) < 1e-14
