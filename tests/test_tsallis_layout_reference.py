"""The set-major Tsallis enumerator against the choice-major one it replaced.

``_reference_tsallis_layout`` and ``_reference_tsallis_candidates`` are
``synthesis._tsallis_layout`` and ``synthesis._tsallis_candidates`` as they
stood before the enumerator laid the 0/1 choices of the other levels out as
columns, verbatim (they share ``_kkt_inverses``, which did not change). On a
seeded sweep, the candidates must come out equal and in the same order, and
``tsallis_optimal_filter`` must pick the same coefficients, bit for bit, as
the synthesizer built on that copy.
"""

import functools
import itertools

import numpy as np
import pytest

from coherence_forge import QState, synthesis, tsallis_optimal_filter
from coherence_forge.statecore import ZERO_POPULATION
from coherence_forge.synthesis import _kkt_inverses

from test_tsallis_kkt import _block_diagonal, _clique, _graph_state, _isolated_level
from test_tsallis_reference import _random_state


@functools.lru_cache(maxsize=None)
def _reference_tsallis_layout(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The index tables of the free sets of size k among n populated levels,
    which depend on nothing else; read-only, since every call shares them:

    * ``free`` and ``rest``: the free and the other positions, one row per set;
    * ``bits``: every 0/1 choice of the other positions, one row per choice,
      as floats;
    * ``order``: per set, the gather that puts [free values, choice] in
      level order;
    * ``free_free`` and ``rest_free``: per set, the flat indices into an
      n x n matrix W of W[F, F] and of W[F, R]^T.
    """
    free = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    sets = free.shape[0]
    rest_mask = np.ones((sets, n), dtype=bool)
    rest_mask[np.arange(sets)[:, None], free] = False
    rest = np.nonzero(rest_mask)[1].reshape(sets, n - k)
    bits = ((np.arange(2 ** (n - k))[:, None] >> np.arange(n - k)) & 1).astype(float)
    order = np.argsort(np.concatenate([free, rest], axis=1), axis=1)
    free_free = n * free[:, :, None] + free[:, None, :]
    rest_free = n * free[:, None, :] + rest[:, :, None]
    tables = (free, rest, bits, order, free_free, rest_free)
    for table in tables:
        table.flags.writeable = False
    return tables


def _reference_tsallis_candidates(
    pops: np.ndarray, overlap: np.ndarray, active: np.ndarray, p_success: float
) -> np.ndarray:
    """Intensity vectors satisfying the KKT conditions of max x^T W x subject
    to p^T x = P_S and 0 <= x <= 1 (W = ``overlap``, p = ``pops``).

    Every populated level is assigned 0, 1 or "free". The free levels F and the
    multiplier lam solve the bordered system

        [[W_FF, -p_F/2], [p_F^T, 0]] [x_F; lam] = [-c; P_S - fixed P_S],

    where c couples F to the levels at 1 and to the unpopulated levels, and
    fixed P_S is what the levels at 1 pass. The last row and column are
    multiplied by s = max W / max p (the unknown becomes lam/s), which leaves
    x_F as it is; unscaled, where W is much smaller than p, the
    pseudo-inverse put errors up to 3e-10 into x_F. The matrix depends on F
    alone, so the free sets of one size share one stacked inverse
    (:func:`_kkt_inverses`: LU where it verifies, the pseudo-inverse where it
    does not) and every 0/1 choice of the other levels is one right-hand side:
    2^n - 1 inverted blocks for the 3^n assignments of n populated levels (the
    1 x 1 zero block of no free level has the pseudo-inverse 0). P_S
    enters only the last entry of the right-hand side, so each candidate is
    affine in P_S. A row is kept when its stationarity residual is at most
    1e-8 (a singular system may get a pseudo-solution), its P_S residual at
    most 1e-12 P_S and every free intensity lies in [-1e-12 P_S, 1 + 1e-12];
    the free intensities are then clipped to [0, 1]. Only the kept rows are laid
    out as intensity vectors.

    Returns the feasible candidates, one per row, in no particular order.
    """
    act_idx = np.flatnonzero(active)
    n = act_idx.size
    # zero-population levels pass untouched and never affect any objective
    idle = np.flatnonzero(~active)
    scale = overlap.max() / pops.max()
    w = overlap[np.ix_(act_idx, act_idx)].ravel()
    neg_w = -w
    neg_idle = -overlap[np.ix_(act_idx, idle)].sum(axis=1) if idle.size else None
    p = pops[act_idx]
    border = scale * p
    half_border = -border / 2.0
    cands = []
    for k in range(n + 1):
        free, rest, bits, order, free_free, rest_free = _reference_tsallis_layout(n, k)
        sets = free.shape[0]
        kkt = np.zeros((sets, k + 1, k + 1))
        kkt[:, :k, :k] = w.take(free_free)
        kkt[:, :k, k] = half_border[free]
        kkt[:, k, :k] = border[free]
        rhs = np.empty((sets, bits.shape[0], k + 1))
        np.matmul(bits, neg_w.take(rest_free), out=rhs[:, :, :k])
        if neg_idle is not None:
            rhs[:, :, :k] += neg_idle[free][:, None, :]
        rhs[:, :, k] = scale * (p_success - p[rest] @ bits.T)
        if k:
            sol = rhs @ _kkt_inverses(kkt).transpose(0, 2, 1)
            resid = np.abs(sol @ kkt.transpose(0, 2, 1) - rhs)
        else:
            # no free level: the solution is 0 and its residual |rhs|
            sol, resid = np.zeros_like(rhs), np.abs(rhs)
        m_free = sol[:, :, :k]
        ok = (
            (resid[:, :, :k] <= 1e-8).all(axis=2)
            & (resid[:, :, k] <= 1e-12 * scale * p_success)
            & ((m_free >= -1e-12 * p_success) & (m_free <= 1.0 + 1e-12)).all(axis=2)
        )
        set_idx, bit_idx = ok.nonzero()
        x = np.concatenate([m_free[ok].clip(0.0, 1.0), bits[bit_idx]], axis=1)
        cands.append(x[np.arange(set_idx.size)[:, None], order[set_idx]])
    x = np.concatenate(cands)
    if not idle.size:
        return x
    m = np.ones((x.shape[0], pops.size))
    m[:, act_idx] = x
    return m


def _with_idle_levels(rng: np.random.Generator, d: int, idle: int) -> QState:
    """A full-rank block on d - idle levels, the other ``idle`` unpopulated."""
    keep = np.sort(rng.choice(d, d - idle, replace=False))
    rho = np.zeros((d, d), dtype=complex)
    rho[np.ix_(keep, keep)] = _random_state(rng, d - idle, d - idle)
    return QState(rho)


def _with_faint_level(rng: np.random.Generator, d: int) -> QState:
    """A full-rank state with level 0's population near 6e-15, below
    ``ZERO_POPULATION``: the level is idle, but its coherences, up to
    sqrt(6e-15 p_k), still couple it to the free levels."""
    rho = _random_state(rng, d, d)
    scale = np.ones(d)
    scale[0] = np.sqrt(5e-15 / rho[0, 0].real)
    rho = scale[:, None] * rho * scale[None, :]
    return QState(rho / np.trace(rho).real)


def _cases():
    rng = np.random.default_rng(2204)
    cases = []
    for d in range(2, 11):
        state = QState(_random_state(rng, d, d))
        for ps in (float(rng.uniform(0.05, 0.95)), 1.0) + ((1e-13,) if d % 3 == 0 else ()):
            cases.append(pytest.param(state, ps, id=f"full-rank-d{d}-{ps:.3g}"))
    for d in range(2, 9):
        state = QState(_random_state(rng, d, 1))
        cases.append(pytest.param(state, float(rng.uniform(0.05, 0.95)), id=f"pure-d{d}"))
    # levels that share no coherence make some blocks exactly singular: those
    # get the pseudo-inverse
    singular = [
        ("block-diagonal", _block_diagonal(rng)),
        ("isolated-level", _isolated_level(rng)),
        ("clique-3-of-5", _clique(5, [0, 2, 4])),
    ]
    for name, state in singular:
        for ps in (0.2, float(rng.uniform(0.3, 0.9)), 1.0):
            cases.append(pytest.param(state, ps, id=f"{name}-{ps:.3f}"))
    for d, idle in ((3, 1), (5, 1), (6, 2), (8, 3), (9, 1)):
        state = _with_idle_levels(rng, d, idle)
        cases.append(pytest.param(state, float(rng.uniform(0.05, 0.95)), id=f"idle{idle}-d{d}"))
    for d in (3, 5, 7):
        state = _with_faint_level(rng, d)
        cases.append(pytest.param(state, float(rng.uniform(0.05, 0.95)), id=f"faint-d{d}"))
    # the clique state of the Motzkin-Straus test
    for ps in (1 / 6, 0.5):
        cases.append(pytest.param(_graph_state(), ps, id=f"graph-{ps:.3f}"))
    states = [
        ("full-rank-d5", QState(_random_state(rng, 5, 5))),
        ("rank2-d6", QState(_random_state(rng, 6, 2))),
        ("idle1-d5", _with_idle_levels(rng, 5, 1)),
    ]
    for name, state in states:
        for ps in (1e-13, 1e-10, 3e-8, 1e-5, 1e-2, 0.3, 1.0):
            cases.append(pytest.param(state, ps, id=f"{name}-{ps:g}"))
    return cases


def _inputs(state: QState):
    pops = np.clip(state.populations, 0.0, None)
    overlap = np.abs(state.matrix) ** 2
    np.fill_diagonal(overlap, 0.0)
    return pops, overlap, pops >= ZERO_POPULATION


@pytest.mark.parametrize("state, p_success", _cases())
def test_candidates_and_picks_equal_the_reference(state, p_success, monkeypatch):
    args = (*_inputs(state), min(p_success, 1.0))
    want = _reference_tsallis_candidates(*args)
    got = synthesis._tsallis_candidates(*args)
    assert got.shape == want.shape and np.array_equal(got, want)

    got = tsallis_optimal_filter(state, p_success).coeffs
    monkeypatch.setattr(synthesis, "_tsallis_candidates", _reference_tsallis_candidates)
    want = tsallis_optimal_filter(state, p_success).coeffs
    assert np.array_equal(got, want)
