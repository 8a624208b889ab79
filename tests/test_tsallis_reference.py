"""The batched Tsallis synthesizer against the one-assignment-at-a-time
enumerator it replaced, kept here verbatim as the reference."""

import itertools

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from coherence_forge import (
    DomainError,
    QState,
    QubitParams,
    mixed_qubit_product,
    product_pure_state,
    synthesis,
    tsallis_optimal_filter,
)
from coherence_forge.statecore import ZERO_POPULATION
from coherence_forge.synthesis import TSALLIS_MAX_LEVELS

from conftest import density_matrices


def _reference_candidates(
    pops: np.ndarray, overlap: np.ndarray, active: np.ndarray, p_success: float
):
    """Yield intensity vectors satisfying the stationarity/boundary structure.

    Every index is assigned 0, 1, or "free"; free indices solve the linear
    system from the quadratic objective's stationarity condition, with the
    multiplier eliminated exactly through the success-probability constraint
    (both are affine in the multiplier for a fixed assignment).
    """
    d = pops.size
    act_idx = np.flatnonzero(active)
    inact_idx = np.flatnonzero(~active)
    for assign in itertools.product((0, 1, 2), repeat=act_idx.size):
        m = np.zeros(d)
        m[inact_idx] = 1.0  # zero-population levels never affect any objective
        ones = act_idx[[a == 1 for a in assign]]
        free = act_idx[[a == 2 for a in assign]]
        m[ones] = 1.0
        fixed_ps = float(pops[ones].sum())
        if free.size == 0:
            if abs(p_success - fixed_ps) <= 1e-12:
                yield m
            continue
        if free.size == 1:
            j = int(free[0])
            val = (p_success - fixed_ps) / pops[j]
            if -1e-12 <= val <= 1.0 + 1e-12:
                m[j] = min(max(val, 0.0), 1.0)
                yield m
            continue
        a_blk = overlap[np.ix_(free, free)]
        b_vec = pops[free]
        fixed_idx = np.concatenate([ones, inact_idx]).astype(int)
        c_vec = (
            overlap[np.ix_(free, fixed_idx)].sum(axis=1)
            if fixed_idx.size
            else np.zeros(free.size)
        )
        pinv = np.linalg.pinv(a_blk)
        u = pinv @ (b_vec / 2.0)
        v = -pinv @ c_vec
        den = float(u @ b_vec)
        if abs(den) < 1e-14:
            continue
        lam = (p_success - fixed_ps - float(v @ b_vec)) / den
        m_free = lam * u + v
        # pinv may fabricate a pseudo-solution when the block is singular
        if np.max(np.abs(a_blk @ m_free - (lam * b_vec / 2.0 - c_vec))) > 1e-8:
            continue
        if np.any(m_free < -1e-12) or np.any(m_free > 1.0 + 1e-12):
            continue
        m[free] = np.clip(m_free, 0.0, 1.0)
        yield m


def _reference_tsallis(state: QState, p_success: float) -> np.ndarray:
    """Optimal intensities by the full 3^n enumeration with the sequential
    selection rule (ties to the lexicographically smallest vector)."""
    m = state.matrix
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) < 1e-14:
        raise DomainError("diagonal input has no coherence to enhance")
    pops = np.clip(state.populations, 0.0, None)
    active = pops >= ZERO_POPULATION
    overlap = np.abs(m) ** 2
    np.fill_diagonal(overlap, 0.0)

    best_gain = -1.0
    best = None
    for cand in _reference_candidates(pops, overlap, active, p_success):
        gain = float(cand @ overlap @ cand)
        if gain > best_gain + 1e-15 or (
            best is not None
            and abs(gain - best_gain) <= 1e-15
            and tuple(cand) < tuple(best)
        ):
            best_gain = gain
            best = cand
    assert best is not None
    return best


def _gain(state: QState, intensities: np.ndarray) -> float:
    overlap = np.abs(state.matrix) ** 2
    np.fill_diagonal(overlap, 0.0)
    return float(intensities @ overlap @ intensities)


def _assert_matches_reference(state: QState, p_success: float) -> None:
    expected = _reference_tsallis(state, p_success)
    got = tsallis_optimal_filter(state, p_success).intensities
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert abs(_gain(state, got) - _gain(state, expected)) <= 1e-13


def _random_state(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return 0.5 * (rho + rho.conj().T) / np.trace(rho).real


def _subset_ps(pops: np.ndarray, rng: np.random.Generator) -> float:
    """A P_S met exactly by passing a subset of the levels (|F| = 0)."""
    picks = rng.choice(pops.size, size=max(1, pops.size // 2), replace=False)
    return float(pops[np.sort(picks)].sum())


def _cases():
    rng = np.random.default_rng(20211)
    cases = []
    for d in range(2, 8):
        state = QState(_random_state(rng, d, d))
        pops = np.clip(state.populations, 0.0, None)
        for label, ps in (
            ("random", float(rng.uniform(0.05, 0.95))),
            ("one", 1.0),
            ("subset", _subset_ps(pops, rng)),
        ):
            cases.append(pytest.param(state, ps, id=f"full-rank-d{d}-{label}"))
    for d in (3, 4, 5, 6):
        # one unpopulated level embedded in a full-rank block
        keep = np.sort(rng.choice(d, d - 1, replace=False))
        rho = np.zeros((d, d), dtype=complex)
        rho[np.ix_(keep, keep)] = _random_state(rng, d - 1, d - 1)
        state = QState(rho)
        for ps in (float(rng.uniform(0.05, 0.95)), 1.0):
            cases.append(pytest.param(state, ps, id=f"unpopulated-d{d}-{ps:.3f}"))
        # rank 2 with every level populated
        state = QState(_random_state(rng, d, 2))
        ps = float(rng.uniform(0.05, 0.95))
        cases.append(pytest.param(state, ps, id=f"rank2-d{d}"))
    # symmetric levels: many exactly tied candidates (d = 8 kept short, the
    # reference takes about half a second per call there)
    for p, n_qubits, with_full in ((0.1, 2, True), (0.3, 2, True), (0.1, 3, False)):
        state = product_pure_state(p, n_qubits)
        subset = float(state.populations[1:].sum())
        for ps in (0.04, 0.3, subset) + ((1.0,) if with_full else ()):
            cases.append(pytest.param(state, ps, id=f"product-p{p}-n{n_qubits}-{ps:.3f}"))
    for eta in (0.4, 0.75):
        state = mixed_qubit_product(QubitParams(p=0.2, eta=eta), 2)
        for ps in (0.1, 0.3, 0.64, 1.0):
            cases.append(pytest.param(state, ps, id=f"mixed-product-eta{eta}-{ps}"))
    # rank 2 with every level populated, at the largest d of the cases above
    state = QState(_random_state(rng, 7, 2))
    cases.append(pytest.param(state, float(rng.uniform(0.05, 0.95)), id="rank2-d7"))
    # the k = 0 rule: P_S met exactly by levels at 0 or 1
    state = QState(_random_state(rng, 6, 1))
    pops = np.clip(state.populations, 0.0, None)
    for label, ps in (("one", 1.0), ("subset", _subset_ps(pops, rng))):
        cases.append(pytest.param(state, ps, id=f"pure-d6-{label}"))
    state = mixed_qubit_product(QubitParams(p=0.2, eta=0.5), 3)
    for ps in (0.3, 0.64):
        cases.append(pytest.param(state, ps, id=f"mixed-product-n3-eta0.5-{ps}"))
    # levels 0 and 1 share no coherence, so the KKT system of that free pair
    # is singular and only a pseudo-solution exists
    rho = 0.5 * np.eye(5) / 5 + 0.5 * _random_state(rng, 5, 5)
    rho[0, 1] = rho[1, 0] = 0.0
    state = QState(rho)
    for ps in (float(rng.uniform(0.05, 0.95)), 1.0):
        cases.append(pytest.param(state, ps, id=f"coherence-free-pair-d5-{ps:.3f}"))
    return cases


@pytest.mark.parametrize("state, p_success", _cases())
def test_matches_reference_enumerator(state, p_success):
    _assert_matches_reference(state, p_success)


def test_round_off_ties_keep_the_optimal_gain():
    """Three optima of equal gain map onto each other by level symmetry. The
    lexicographic tie-break then compares intensities that differ by round-off
    only (1 ulp in the first entry), so the pick can differ from the
    reference's; the gain and P_S may not."""
    state = mixed_qubit_product(QubitParams(p=0.25, eta=0.2), 3)
    expected = _reference_tsallis(state, 0.3)
    got = tsallis_optimal_filter(state, 0.3).intensities
    assert float(got @ state.populations) == pytest.approx(0.3, abs=1e-12)
    assert abs(_gain(state, got) - _gain(state, expected)) <= 1e-13


class TestTieRule:
    """The optima of a tie are picked by the tolerance-lexicographic minimum,
    whatever order the candidates come in."""

    STATE = mixed_qubit_product(QubitParams(p=0.25, eta=0.2), 3)
    P_SUCCESS = 0.3

    def _expected(self) -> np.ndarray:
        pops = np.clip(self.STATE.populations, 0.0, None)
        overlap = np.abs(self.STATE.matrix) ** 2
        np.fill_diagonal(overlap, 0.0)
        cands = np.array(
            list(_reference_candidates(pops, overlap, pops >= ZERO_POPULATION, self.P_SUCCESS))
        )
        gains = np.array([float(cand @ overlap @ cand) for cand in cands])
        tied = cands[gains >= gains.max() - 1e-15]
        assert len(tied) > 1
        for level in range(tied.shape[1]):
            tied = tied[tied[:, level] <= tied[:, level].min() + 1e-12]
        return tied[0]

    def test_picks_the_tolerance_lexicographic_minimum(self):
        got = tsallis_optimal_filter(self.STATE, self.P_SUCCESS).intensities
        assert np.max(np.abs(got - self._expected())) <= 1e-12

    def test_pick_does_not_depend_on_candidate_order(self, monkeypatch):
        forward = synthesis._tsallis_candidates
        monkeypatch.setattr(
            synthesis, "_tsallis_candidates", lambda *args: forward(*args)[::-1]
        )
        got = tsallis_optimal_filter(self.STATE, self.P_SUCCESS).intensities
        assert np.max(np.abs(got - self._expected())) <= 1e-12

    def test_round_off_in_a_leading_level_does_not_move_the_pick(self, monkeypatch):
        """Raise the first intensity of the optima with an empty second level
        by 1e-15, far below the tie tolerance: a raw-float comparison would
        then prefer an optimum whose second level is not empty."""
        forward = synthesis._tsallis_candidates

        def nudged(*args):
            cands = forward(*args)
            cands[:, 0] += 1e-15 * (cands[:, 1] == 0.0)
            return cands

        monkeypatch.setattr(synthesis, "_tsallis_candidates", nudged)
        got = tsallis_optimal_filter(self.STATE, self.P_SUCCESS).intensities
        assert np.max(np.abs(got - self._expected())) <= 1e-12


@pytest.mark.parametrize("n_qubits, p, p_success", [(2, 0.8, 0.5), (3, 0.6, 0.3), (3, 0.8, 0.5)])
def test_free_intensities_solve_their_kkt_system_at_weak_coherence(n_qubits, p, p_success):
    """At eta = 0.1 the squared coherences are about 100x smaller than the
    populations. The free intensities (strictly inside (0, 1)) must still
    match np.linalg.solve of their own KKT system to 1e-12."""
    state = mixed_qubit_product(QubitParams(p=p, eta=0.1), n_qubits)
    got = tsallis_optimal_filter(state, p_success).intensities
    pops = state.populations
    overlap = np.abs(state.matrix) ** 2
    np.fill_diagonal(overlap, 0.0)
    free = np.flatnonzero((got > 1e-9) & (got < 1.0 - 1e-9))
    ones = np.flatnonzero(got >= 1.0 - 1e-9)
    k = free.size
    assert k >= 2
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = overlap[np.ix_(free, free)]
    kkt[:k, k] = -pops[free] / 2.0
    kkt[k, :k] = pops[free]
    rhs = np.append(-overlap[np.ix_(free, ones)].sum(axis=1), p_success - pops[ones].sum())
    assert np.max(np.abs(got[free] - np.linalg.solve(kkt, rhs)[:k])) <= 1e-12


@hypothesis.given(
    state=density_matrices(dims=(2, 3, 4, 5)),
    p_success=st.floats(0.01, 1.0, allow_nan=False),
)
def test_matches_reference_on_random_states(state, p_success):
    off = state.matrix - np.diag(np.diag(state.matrix))
    hypothesis.assume(np.max(np.abs(off)) >= 1e-14)
    _assert_matches_reference(state, p_success)


class TestDimensionGuard:
    def test_rejects_more_than_twelve_populated_levels(self):
        state = QState.pure(np.ones(TSALLIS_MAX_LEVELS + 1))
        with pytest.raises(DomainError, match="12 populated levels; the state has 13"):
            tsallis_optimal_filter(state, 0.5)

    def test_counts_populated_levels_not_dimension(self):
        amplitudes = np.zeros(TSALLIS_MAX_LEVELS + 2)
        amplitudes[[0, 5, 9]] = [0.6, 0.6, np.sqrt(0.28)]
        state = QState.pure(amplitudes)
        filt = tsallis_optimal_filter(state, 0.5)
        assert filt.dim == TSALLIS_MAX_LEVELS + 2
