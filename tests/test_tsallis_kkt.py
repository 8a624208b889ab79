"""The Tsallis enumerator's inverted KKT blocks: LU inverses where they
verify, pseudo-inverses elsewhere. Degenerate blocks (singular, nearly
singular or of tiny scale) are compared with the one-assignment-at-a-time
reference enumerator, with every numpy warning an error; picks are compared
with the same enumerator on pseudo-inverses alone and with an exact rational
solve of their KKT system."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from coherence_forge import QState, synthesis, tsallis_optimal_filter
from coherence_forge.synthesis import _kkt_inverses, _tsallis_layout

from test_tsallis_reference import _assert_matches_reference, _random_state, _tiny_coherence_state


def _block_diagonal(rng: np.random.Generator) -> QState:
    rho = np.zeros((5, 5), dtype=complex)
    rho[:3, :3] = 0.6 * _random_state(rng, 3, 3)
    rho[3:, 3:] = 0.4 * _random_state(rng, 2, 2)
    return QState(rho)


def _isolated_level(rng: np.random.Generator) -> QState:
    """Level 2 has no coherence to any other level."""
    rho = _random_state(rng, 5, 5)
    rho[2, :2] = rho[2, 3:] = rho[:2, 2] = rho[3:, 2] = 0.0
    return QState(rho)


def _clique(d: int, members: list[int]) -> QState:
    """Equal coherences among ``members``, none elsewhere: a uniform
    superposition of the members mixed with white noise."""
    u = np.zeros(d)
    u[members] = 1.0 / np.sqrt(len(members))
    return QState(0.7 * np.outer(u, u) + 0.3 * np.eye(d) / d)


# rho = I/6 + eps A for the graph A with edges 01 02 12 23 34 45 50, whose one
# largest clique is {0, 1, 2}: every coherence is eps or 0
_GRAPH_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
_GRAPH_EPS = 0.04


def _graph_state() -> QState:
    rho = np.eye(6) / 6
    for j, k in _GRAPH_EDGES:
        rho[j, k] = rho[k, j] = _GRAPH_EPS
    return QState(rho)


def _degenerate_cases():
    rng = np.random.default_rng(1809)
    states = [
        ("block-diagonal", _block_diagonal(rng)),
        ("isolated-level", _isolated_level(rng)),
        ("clique-d4", _clique(4, [0, 1, 2, 3])),
        ("clique-3-of-5", _clique(5, [0, 2, 4])),
        ("graph", _graph_state()),
    ]
    cases = []
    for name, state in states:
        for ps in (0.2, float(rng.uniform(0.3, 0.9)), 1.0):
            cases.append(pytest.param(state, ps, id=f"{name}-{ps:.3f}"))
    cases.append(pytest.param(_graph_state(), 1 / 6, id="graph-0.167"))
    cases.append(pytest.param(_tiny_coherence_state(), 1.0, id="tiny-coherence-3x3-1.000"))
    return cases


@pytest.mark.parametrize("state, p_success", _degenerate_cases())
def test_degenerate_blocks_match_the_reference_without_warnings(state, p_success):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_reference(state, p_success)


def test_graph_state_reaches_the_motzkin_straus_optimum():
    """At P_S = 1/6 the intensities sum to 1, and the largest x^T A x on
    that simplex is 1 - 1/omega (Motzkin-Straus), omega = 3 the clique
    number: the optimal gain is eps^2 (1 - 1/3)."""
    state = _graph_state()
    got = tsallis_optimal_filter(state, 1 / 6).intensities
    overlap = np.abs(state.matrix) ** 2
    np.fill_diagonal(overlap, 0.0)
    assert float(got @ overlap @ got) == pytest.approx(_GRAPH_EPS**2 * (1 - 1 / 3), rel=1e-13)


def _pick_cases():
    rng = np.random.default_rng(1810)
    cases = _degenerate_cases()
    for d in range(2, 9):
        for rank in sorted({1, 2, d}):
            state = QState(_random_state(rng, d, rank))
            ps = float(rng.uniform(0.05, 1.0))
            cases.append(pytest.param(state, ps, id=f"d{d}-rank{rank}-{ps:.3f}"))
    return cases


@pytest.mark.parametrize("state, p_success", _pick_cases())
def test_picks_agree_with_the_pseudo_inverse_enumerator(state, p_success, monkeypatch):
    got = tsallis_optimal_filter(state, p_success).intensities
    monkeypatch.setattr(synthesis, "_kkt_inverses", np.linalg.pinv)
    want = tsallis_optimal_filter(state, p_success).intensities
    assert np.max(np.abs(got - want)) <= 1e-12


def _exact_free_intensities(state: QState, p_success: float, x: np.ndarray):
    """The free levels of the assignment that ``x`` picks, and their
    intensities from its KKT system solved in rational arithmetic, with the
    float inputs taken as exact."""
    pops = np.clip(state.populations, 0.0, None)
    overlap = np.abs(state.matrix) ** 2
    np.fill_diagonal(overlap, 0.0)
    free = np.flatnonzero((x > 1e-9) & (x < 1.0 - 1e-9)).tolist()
    ones = np.flatnonzero(x >= 1.0 - 1e-9).tolist()
    if not free:
        return free, []
    rows = [
        [Fraction(overlap[j, l]) for l in free] + [Fraction(-pops[j] / 2.0)]
        + [-sum((Fraction(overlap[j, l]) for l in ones), Fraction(0))]
        for j in free
    ]
    rows.append(
        [Fraction(pops[j]) for j in free] + [Fraction(0)]
        + [Fraction(p_success) - sum((Fraction(pops[l]) for l in ones), Fraction(0))]
    )
    n = len(rows)
    for c in range(n):  # Gauss-Jordan elimination on [K | rhs]
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    return free, [float(rows[i][-1] / rows[i][i]) for i in range(len(free))]


def _ill_conditioned_rank2_d8():
    """A rank-2 state at d = 8 whose pick has five free levels with a W_FF of
    condition number 1.9e4; the pseudo-inverse enumerator puts an error of
    2.8e-12 into them, against 4.3e-14 from the LU inverse."""
    rng = np.random.default_rng(50)
    for d in range(2, 9):
        for rank in (1, 2, d):
            for _ in range(4):
                if (d, rank) == (8, 2):
                    return QState(_random_state(rng, 8, 2)), float(rng.uniform(0.05, 1.0))
                _random_state(rng, d, rank)
                rng.uniform(0.05, 1.0)


@pytest.mark.parametrize(
    "state, p_success",
    _pick_cases() + [pytest.param(*_ill_conditioned_rank2_d8(), id="ill-conditioned-rank2-d8")],
)
def test_free_intensities_match_an_exact_solve(state, p_success):
    got = tsallis_optimal_filter(state, p_success).intensities
    free, exact = _exact_free_intensities(state, p_success, got)
    assert max((abs(got[j] - v) for j, v in zip(free, exact)), default=0.0) <= 5e-13


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(_block_diagonal(np.random.default_rng(1809)), id="block-diagonal"),
        pytest.param(_isolated_level(np.random.default_rng(1809)), id="isolated-level"),
        pytest.param(_clique(5, [0, 2, 4]), id="clique-3-of-5"),
    ],
)
@pytest.mark.parametrize("p_success", [0.2, 0.55, 1.0])
def test_only_exactly_singular_blocks_reach_the_pseudo_inverse(state, p_success, monkeypatch):
    """A coherence-free pair of levels makes some KKT blocks exactly singular;
    the blocks around them in their stack stay on LU."""
    pinv = np.linalg.pinv
    seen = []

    def recording_pinv(a, *args, **kwargs):
        seen.extend(np.array(a).reshape(-1, *np.shape(a)[-2:]))
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", recording_pinv)
    tsallis_optimal_filter(state, p_success)
    monkeypatch.undo()
    assert seen
    for block in seen:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(block)


class TestKktInverses:
    def test_verified_blocks_keep_the_lu_inverse(self):
        kkt = np.array([[[2.0, 1.0], [1.0, 3.0]], [[0.0, -0.5], [1.0, 0.0]]])
        np.testing.assert_array_equal(_kkt_inverses(kkt), np.linalg.inv(kkt))

    def test_a_nearly_singular_block_falls_back_to_the_pseudo_inverse(self):
        """Singular in exact arithmetic; LU in floating point finds no zero
        pivot but returns entries near 1e16, and K K^-1 - I reaches 0.55."""
        regular = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        nearly = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        kkt = np.array([regular, nearly])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kkt_inverses(kkt)
        np.testing.assert_array_equal(got[0], np.linalg.inv(regular))
        np.testing.assert_array_equal(got[1], np.linalg.pinv(nearly))

    def test_an_exactly_singular_block_alone_gets_the_pseudo_inverse(self):
        """LU meets a zero pivot in the stack; the regular blocks keep their
        LU inverses, and only the singular ones get the pseudo-inverse."""
        regular = np.array([[2.0, 1.0], [1.0, 3.0]])
        other = np.array([[0.0, -0.5], [1.0, 0.0]])
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        kkt = np.array([regular, singular, other, singular, regular])
        got = _kkt_inverses(kkt)
        for block, inverse in zip(kkt, got):
            if np.array_equal(block, singular):
                np.testing.assert_array_equal(inverse, np.linalg.pinv(singular))
            else:
                np.testing.assert_array_equal(inverse, np.linalg.inv(block))

    def test_the_zero_block_of_no_free_level(self):
        np.testing.assert_array_equal(_kkt_inverses(np.zeros((1, 1, 1))), np.zeros((1, 1, 1)))


@pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (4, 2), (6, 0), (6, 3), (6, 6)])
def test_layout_tables_are_read_only_cached_and_rebuild_the_blocks(n, k):
    tables = _tsallis_layout(n, k)
    free, rest, bits, order, kkt, rest_free = tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
    assert _tsallis_layout(n, k) is tables  # filled once per (n, k)
    sets = free.shape[0]
    assert free.shape[1] == k and rest.shape == (sets, n - k) and bits.shape == (n - k, 2 ** (n - k))
    assert kkt.shape == (sets, k + 1, k + 1) and rest_free.shape == (sets, k, n - k)
    positions = np.concatenate([free, rest], axis=1)
    np.testing.assert_array_equal(
        np.take_along_axis(positions, order, axis=1), np.broadcast_to(np.arange(n), positions.shape)
    )
    # column b of ``bits`` is the binary expansion of b, lowest position first
    np.testing.assert_array_equal(2 ** np.arange(n - k) @ bits, np.arange(2 ** (n - k)))
    # the blocks as they were built before the index table: zeros, then W[F, F],
    # the column -s p_F/2 and the row s p_F
    rng = np.random.default_rng(n * 10 + k)
    w, border = rng.random((n, n)), 0.7 * rng.random(n)
    blocks = np.zeros((sets, k + 1, k + 1))
    blocks[:, :k, :k] = w[free[:, :, None], free[:, None, :]]
    blocks[:, :k, k] = (-border / 2.0)[free]
    blocks[:, k, :k] = border[free]
    entries = np.concatenate([w.ravel(), -border / 2.0, border, [0.0]])
    np.testing.assert_array_equal(entries.take(kkt), blocks)
    np.testing.assert_array_equal(w.ravel().take(rest_free), w[free[:, :, None], rest[:, None, :]])
