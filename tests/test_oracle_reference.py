"""The batched oracle against the one-candidate-at-a-time search it replaced.

``_reference_grid_search`` keeps that search verbatim: the mixed-state
relative-entropy objective builds a ``DiagonalFilter`` and a filtered
``QState`` per candidate, every grid head masks the whole tail block, and
refinement and constraint snapping evaluate one vector at a time through
``_project``. The unchanged helpers (``_grid_axis``, ``_fractional`` and the
other objectives) are shared. ``_REACHED`` counts the branches the reference
takes, so a case can show which branch of the batched search it exercises.
"""

import collections
import itertools
import sys

import numpy as np
import pytest

from coherence_forge import (
    AnnihilatedState,
    DiagonalFilter,
    EnergySpectrum,
    FilterTarget,
    QState,
    QubitParams,
    StateValidationError,
    TWO_QUBIT_SPECTRUM,
    apply_filter,
    coherence,
    mixed_qubit_product,
    product_pure_state,
)
from coherence_forge.errors import InfeasibleGrid
from coherence_forge.oracle import (
    _REFINE_FLOOR,
    _Objective,
    _fractional,
    _grid_axis,
    _row_dots,
    _tail_columns,
    grid_search,
)
from coherence_forge.oracle import _refine as _batched_refine
from coherence_forge.statecore import _row_entropy

# Branches the reference search took since the last clear().
_REACHED = collections.Counter()


class _ReferenceObjective(_Objective):
    def __call__(self, m: np.ndarray, ps: np.ndarray) -> np.ndarray:
        if self.target is not FilterTarget.COHERENCE or self.pure:
            return super().__call__(m, ps)
        m = np.atleast_2d(m)
        out = np.empty(m.shape[0])
        for i in range(m.shape[0]):
            filt = DiagonalFilter(np.sqrt(np.clip(m[i], 0.0, 1.0)).astype(complex))
            out[i] = coherence(apply_filter(self.state, filt)[0])
        return out


def _search_chunk(
    head: tuple[float, ...],
    tail: np.ndarray,
    tail_ps: np.ndarray,
    pops_head: np.ndarray,
    objective: _Objective,
    p_success: float,
    tolerance: float,
) -> tuple[float, np.ndarray, float] | None:
    ps = tail_ps + float(np.dot(head, pops_head))
    mask = (np.abs(ps - p_success) <= tolerance) & (ps > 1e-12)
    if not mask.any():
        return None
    cand_tail = tail[mask]
    cand_ps = ps[mask]
    full = np.concatenate(
        [np.broadcast_to(head, (cand_tail.shape[0], len(head))), cand_tail], axis=1
    )
    vals = objective(full, cand_ps)
    i = int(np.argmax(vals))
    return float(vals[i]), full[i].copy(), float(cand_ps[i])


def _project(
    vec: np.ndarray, comp: int, pops: np.ndarray, p_success: float
) -> np.ndarray | None:
    """Rescale one coordinate so the success probability is exactly on target."""
    rest = float(np.dot(vec, pops)) - vec[comp] * pops[comp]
    val = (p_success - rest) / pops[comp]
    if not -1e-12 <= val <= 1.0 + 1e-12:
        return None
    out = vec.copy()
    out[comp] = min(max(val, 0.0), 1.0)
    return out


def _snap_to_constraint(
    m: np.ndarray, objective: _Objective, pops: np.ndarray, p_success: float
) -> tuple[np.ndarray, float] | None:
    if abs(float(np.dot(m, pops)) - p_success) <= 1e-12:
        _REACHED["on-constraint"] += 1
        return m.copy(), float(objective(m[None, :], np.array([p_success]))[0])
    for tier, compensators in (
        ("fractional-tier", _fractional(m, pops)),
        ("populated-tier", [int(j) for j in np.flatnonzero(pops > 1e-14)]),
    ):
        best: tuple[np.ndarray, float] | None = None
        for comp in compensators:
            snapped = _project(m, comp, pops, p_success)
            if snapped is None:
                continue
            val = float(objective(snapped[None, :], np.array([p_success]))[0])
            if best is None or val > best[1]:
                best = (snapped, val)
        if best is not None:
            _REACHED[tier] += 1
            return best
    return None


def _refine(
    m: np.ndarray,
    objective: _Objective,
    pops: np.ndarray,
    p_success: float,
    grid_step: float,
) -> np.ndarray:
    m = m.copy()
    frac = _fractional(m, pops)
    if not frac:
        return m

    def value(vec: np.ndarray) -> float:
        return float(objective(vec[None, :], np.array([float(np.dot(vec, pops))]))[0])

    best_val = value(m)
    step = grid_step
    before = None  # whether the pass before this one improved
    scored = changed = 0
    while step > _REFINE_FLOOR:
        improved = False
        for j in frac:
            for comp in frac:
                if comp == j:
                    continue
                for sign in (1.0, -1.0):
                    trial = m.copy()
                    trial[j] += sign * step
                    if not 0.0 <= trial[j] <= 1.0:
                        _REACHED["refine-box-rejected"] += 1
                        continue
                    trial = _project(trial, comp, pops, p_success)
                    if trial is None:
                        _REACHED["refine-range-rejected"] += 1
                        continue
                    val = value(trial)
                    scored += 1
                    if val > best_val + 1e-15:
                        _REACHED[
                            "refine-rest-of-pass" if improved
                            else "refine-first-pass" if before is None
                            else "refine-next-pass" if before
                            else "refine-halved-step"
                        ] += 1
                        m, best_val = trial, val
                        improved = True
                        changed += 1
        if not improved:
            step *= 0.5
        before = improved
    if not scored:
        _REACHED["refine-no-valid-trial"] += 1
    elif not changed:
        _REACHED["refine-no-improvement"] += 1
    return m


def _reference_grid_search(state, spectrum, target, p_success, grid_step, tolerance=None):
    """(objective, coeffs, p_success) of the per-candidate search."""
    d = state.dim
    if tolerance is None:
        tolerance = grid_step
    pops = np.clip(state.populations, 0.0, None)
    objective = _ReferenceObjective(state, spectrum, target)
    axis = _grid_axis(grid_step)

    n_tail = min(d, 3)
    n_head = d - n_tail
    tail = (
        np.stack(
            np.meshgrid(*([axis] * n_tail), indexing="ij"), axis=-1
        ).reshape(-1, n_tail)
        if n_tail
        else np.zeros((1, 0))
    )
    tail_ps = tail @ pops[n_head:]
    heads = list(itertools.product(*([axis.tolist()] * n_head))) or [()]
    pops_head = pops[:n_head]

    results = (
        _search_chunk(head, tail, tail_ps, pops_head, objective, p_success, tolerance)
        for head in heads
    )
    winners = [res for res in results if res is not None]
    if not winners:
        raise InfeasibleGrid("no grid point satisfies the success-probability tolerance")

    start: tuple[np.ndarray, float] | None = None
    for _, cand, _ in winners:
        snapped = _snap_to_constraint(cand, objective, pops, p_success)
        if snapped is not None and (start is None or snapped[1] > start[1]):
            start = snapped
    if start is None:
        _REACHED["raw-fallback"] += 1
        raw = max(winners, key=lambda r: r[0])
        return raw[0], np.sqrt(np.clip(raw[1], 0.0, 1.0)).astype(complex), raw[2]

    refined = _refine(start[0], objective, pops, p_success, grid_step)
    actual_ps = float(np.dot(refined, pops))
    value = float(objective(refined[None, :], np.array([actual_ps]))[0])
    return value, np.sqrt(np.clip(refined, 0.0, 1.0)).astype(complex), actual_ps


def _random_ket(rng, d):
    return QState.pure(rng.normal(size=d) + 1j * rng.normal(size=d))


def _random_mixed(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T + 0.05 * np.eye(d)
    rho = 0.5 * (rho + rho.conj().T)
    return QState(rho / np.trace(rho).real)


def _spectrum(d):
    return TWO_QUBIT_SPECTRUM if d == 4 else EnergySpectrum(np.arange(d, dtype=float))


_TARGETS = tuple(FilterTarget)


def _cases():
    rng = np.random.default_rng(20211)
    cases = []
    case = pytest.param
    pure = [product_pure_state(0.1, 2), _random_ket(rng, 4), _random_ket(rng, 4)]
    for i, state in enumerate(pure):
        for step in (0.02, 0.04):
            for target in _TARGETS:
                ps = float(rng.uniform(0.15, 0.85))
                name = f"pure{i}-{step}-{target.value}"
                cases.append(case(state, target, ps, step, None, id=name))
    mixed = [
        mixed_qubit_product(QubitParams(p=0.27, eta=0.75), 2),
        mixed_qubit_product(QubitParams(p=0.4, eta=0.3), 2),
    ]
    for i, state in enumerate(mixed):
        for target in _TARGETS:
            ps = float(rng.uniform(0.3, 0.8))
            cases.append(case(state, target, ps, 0.1, None, id=f"mixed{i}-{target.value}"))
    cases += [
        case(_random_mixed(rng, 3), FilterTarget.COHERENCE, 0.55, 0.05, None, id="d3-mixed"),
        case(_random_ket(rng, 3), FilterTarget.COHERENCE, 0.35, 0.02, None, id="d3-pure"),
        case(_random_mixed(rng, 5), FilterTarget.COHERENCE, 0.45, 0.2, None, id="d5-mixed"),
        case(_random_ket(rng, 5), FilterTarget.COHERENCE_TSALLIS, 0.6, 0.1, None, id="d5-pure"),
        case(mixed[0], FilterTarget.COHERENCE, 0.5, 0.1, 0.03, id="mixed-tolerance"),
        case(pure[1], FilterTarget.ENERGY, 0.4, 0.04, 0.25, id="pure-wide-tolerance"),
        # an incoherent input ties every candidate at 0: the pick is the
        # first banded grid point in enumeration order
        case(
            mixed_qubit_product(QubitParams(p=0.3, eta=0.0), 2),
            FilterTarget.COHERENCE_TSALLIS,
            0.5,
            0.1,
            None,
            id="all-tied",
        ),
        # three grid heads ahead of the tail block
        case(_random_ket(rng, 6), FilterTarget.COHERENCE, 0.4, 0.25, None, id="d6-pure"),
        case(_random_mixed(rng, 6), FilterTarget.COHERENCE, 0.5, 0.25, None, id="d6-mixed"),
        # the tail rows a head can reach: only the top ones near P_S 1, only
        # the lowest ones at a small P_S, every one under a wide tolerance
        case(_random_ket(rng, 6), FilterTarget.ENERGY, 0.97, 0.2, 0.05, id="d6-top-rows"),
        case(_random_mixed(rng, 5), FilterTarget.COHERENCE_TSALLIS, 0.98, 0.1, None, id="d5-top-rows"),
        case(_random_ket(rng, 5), FilterTarget.COHERENCE, 0.04, 0.1, None, id="d5-lowest-rows"),
        case(_random_mixed(rng, 6), FilterTarget.ENERGY, 0.03, 0.25, 0.02, id="d6-lowest-rows"),
        case(_random_ket(rng, 5), FilterTarget.COHERENCE_TSALLIS, 0.5, 0.2, 2.0, id="d5-every-row"),
        # no grid head: the tail block is the whole grid
        case(_random_ket(rng, 2), FilterTarget.ENERGY, 0.3, 0.02, None, id="d2-pure"),
        case(_random_mixed(rng, 2), FilterTarget.COHERENCE, 0.7, 0.05, None, id="d2-mixed"),
        case(_random_mixed(rng, 3), FilterTarget.COHERENCE_TSALLIS, 0.95, 0.02, None, id="d3-tsallis"),
    ]
    return cases + [case(*values[1:], id=values[0]) for values in _BRANCH_CASES]


# One search per branch of the batched snap and refinement, named by the
# branch the reference takes on it: a grid winner already on the constraint,
# a winner whose fractional coordinates cannot absorb the gap (projected on a
# populated coordinate instead), every winner stuck on the box boundary (the
# raw candidate is returned), and refinement trials rejected by the [0, 1]
# box test and by the projection range.
_PRODUCT = product_pure_state(0.3, 2)
_BRANCH_CASES = [
    ("on-constraint", _PRODUCT, FilterTarget.COHERENCE, 0.3, 0.5, None),
    ("populated-tier", _PRODUCT, FilterTarget.ENERGY, 0.3, 0.5, None),
    ("raw-fallback", QState.pure(np.sqrt([0.5, 0.5])), FilterTarget.COHERENCE, 0.9, 0.1, 2.0),
    ("refine-box-rejected", _PRODUCT, FilterTarget.ENERGY, 0.5, 0.5, None),
    ("refine-range-rejected", _PRODUCT, FilterTarget.COHERENCE_TSALLIS, 0.3, 0.25, None),
]


@pytest.mark.parametrize(
    "branch, state, target, ps, step, tolerance",
    _BRANCH_CASES,
    ids=[values[0] for values in _BRANCH_CASES],
)
def test_branch_case_reaches_its_branch(branch, state, target, ps, step, tolerance):
    _REACHED.clear()
    _reference_grid_search(state, _spectrum(state.dim), target, ps, step, tolerance)
    assert _REACHED[branch] > 0
    if branch == "populated-tier":
        assert not _REACHED["fractional-tier"] and not _REACHED["on-constraint"]


@pytest.mark.parametrize("state, target, ps, step, tolerance", _cases())
def test_matches_reference_search(state, target, ps, step, tolerance):
    spectrum = _spectrum(state.dim)
    res = grid_search(state, spectrum, target, ps, grid_step=step, tolerance=tolerance)
    ref_obj, ref_coeffs, ref_ps = _reference_grid_search(
        state, spectrum, target, ps, step, tolerance
    )
    assert res.objective == ref_obj
    assert np.array_equal(res.filter.coeffs, ref_coeffs)
    assert res.p_success == ref_ps


# Grid steps of the seeded sweep, coarse enough that the reference's
# per-candidate mixed-state objective stays fast.
_SWEEP_STEPS = {2: 0.05, 3: 0.1, 4: 0.2, 5: 0.25}


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("target", _TARGETS, ids=[t.value for t in _TARGETS])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_seeded_sweep_matches_reference_search(d, target, kind):
    # 9 searches for each of 24 (d, target, kind): 216 in all
    rng = np.random.default_rng([d, _TARGETS.index(target), kind == "mixed"])
    spectrum = _spectrum(d)
    for _ in range(9):
        state = _random_ket(rng, d) if kind == "pure" else _random_mixed(rng, d)
        ps = float(rng.uniform(0.05, 0.95))
        tolerance = None if rng.random() < 0.7 else float(rng.uniform(0.05, 0.5))
        step = _SWEEP_STEPS[d]
        try:
            ref = _reference_grid_search(state, spectrum, target, ps, step, tolerance)
        except InfeasibleGrid:
            with pytest.raises(InfeasibleGrid):
                grid_search(state, spectrum, target, ps, grid_step=step, tolerance=tolerance)
            continue
        res = grid_search(state, spectrum, target, ps, grid_step=step, tolerance=tolerance)
        assert np.array_equal(res.objective, ref[0])
        assert np.array_equal(res.filter.coeffs, ref[1])
        assert np.array_equal(res.p_success, ref[2])


# The refinement walk alone, from given starts, against the reference walk.
# The batched walk scores, in one objective call, the moves left in the pass,
# the moves the next pass tries first (once the pass has improved) and every
# move at the halved step. The reference counts the improvement it takes: the
# first of the walk, one after another in the same pass, the first of a pass
# after a pass that improved, or the first of a pass at a halved step.


def _walk(state, target, m, step):
    """(point, value) of the batched walk and of the reference walk from
    ``m``, whose own P_S is the target."""
    spectrum = _spectrum(state.dim)
    pops = np.clip(state.populations, 0.0, None)
    m = np.array(m, dtype=float)
    ps = float(np.dot(m, pops))
    got = _batched_refine(m, _Objective(state, spectrum, target), pops, ps, step)
    ref_objective = _ReferenceObjective(state, spectrum, target)
    ref = _refine(m, ref_objective, pops, ps, step)
    ref_value = float(ref_objective(ref[None, :], np.array([float(np.dot(ref, pops))]))[0])
    return got, (ref, ref_value)


# (outcome, state, target, start, grid step): each start reaches its outcome
# in the reference walk.
_MIXED_PRODUCT = mixed_qubit_product(QubitParams(p=0.27, eta=0.75), 2)
_WALK_CASES = [
    ("refine-rest-of-pass", _PRODUCT, FilterTarget.COHERENCE_TSALLIS, [0.64, 0.27, 0.04, 0.02], 0.1),
    ("refine-next-pass", _PRODUCT, FilterTarget.COHERENCE_TSALLIS, [1.0, 0.24, 0.8, 1.0], 0.1),
    # no move improves at step 0.1; the move (3, 2, +) does at 0.05, inside
    # the first call's halved segment
    ("refine-halved-step", _PRODUCT, FilterTarget.ENERGY, [1.0, 1.0, 0.94, 0.95], 0.1),
    # every valid move passes population to a lower level; coordinate 0
    # cannot move down nor coordinate 3 up by 1e-6
    ("refine-no-improvement", _PRODUCT, FilterTarget.ENERGY, [1e-9, 1.0, 1.0, 1.0 - 1e-9], 0.02),
    # every move leaves the box or needs a negative intensity
    ("refine-no-valid-trial", _PRODUCT, FilterTarget.ENERGY, [1.0, 1e-8, 1e-8, 1.0], 0.1),
    ("refine-rest-of-pass", _MIXED_PRODUCT, FilterTarget.COHERENCE, [0.64, 0.27, 0.04, 0.02], 0.1),
]
_WALK_IDS = [f"{case[0]}-{case[2].value}" for case in _WALK_CASES]


@pytest.mark.parametrize("outcome, state, target, start, step", _WALK_CASES, ids=_WALK_IDS)
def test_walk_case_reaches_its_outcome(outcome, state, target, start, step):
    _REACHED.clear()
    (got, value), (ref, ref_value) = _walk(state, target, start, step)
    assert _REACHED[outcome] > 0
    if outcome in ("refine-no-improvement", "refine-no-valid-trial"):
        assert np.array_equal(ref, start)
    assert np.array_equal(got, ref)
    assert np.array_equal(_bits(value), _bits(ref_value))


_WALK_KINDS = {
    "energy": (FilterTarget.ENERGY, _random_ket),
    "pure-coherence": (FilterTarget.COHERENCE, _random_ket),
    "mixed-coherence": (FilterTarget.COHERENCE, _random_mixed),
    "tsallis": (FilterTarget.COHERENCE_TSALLIS, _random_mixed),
}


@pytest.mark.parametrize("kind", list(_WALK_KINDS))
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_seeded_walks_match_the_reference_walk(d, kind):
    # grid starts, a quarter of their coordinates at 1, at the P_S they sit on
    target, draw = _WALK_KINDS[kind]
    rng = np.random.default_rng([d, list(_WALK_KINDS).index(kind)])
    _REACHED.clear()
    for _ in range(5):
        state = draw(rng, d)
        step = float(rng.choice([0.05, 0.1, 0.25]))
        start = np.minimum(np.round(rng.uniform(0.0, 1.0, size=d) / step) * step, 1.0)
        start[rng.random(d) < 0.25] = 1.0
        (got, value), (ref, ref_value) = _walk(state, target, start, step)
        assert np.array_equal(got, ref)
        assert np.array_equal(_bits(value), _bits(ref_value))
    if d >= 3:
        assert _REACHED["refine-rest-of-pass"] + _REACHED["refine-first-pass"] > 0


def _trial(start, state, move, step):
    """The trial row of ``move`` = (j, comp, sign) at ``step`` from ``start``,
    as both walks build it."""
    pops = np.clip(state.populations, 0.0, None)
    j, comp, sign = move
    row = np.array(start, dtype=float)
    row[j] += sign * step
    return _project(row, comp, pops, float(np.dot(start, pops)))


class _RaisingObjective(_Objective):
    """Raises ``AnnihilatedState`` for a batch that holds the row ``bad``, as
    the mixed relative-entropy objective raises for a bad row."""

    def __init__(self, state, target, bad):
        super().__init__(state, _spectrum(state.dim), target)
        self.bad, self.raised = bad, 0

    def __call__(self, m, ps):
        if np.all(m == self.bad, axis=1).any():
            self.raised += 1
            raise AnnihilatedState(f"bad row {self.bad.tolist()}")
        return super().__call__(m, ps)


@pytest.mark.parametrize(
    "start, target, move, walk_raises",
    [
        # the walk reaches the halved step: it raises at its first move there
        ([1.0, 1.0, 0.94, 0.95], FilterTarget.ENERGY, (2, 3, 1.0), True),
        # the walk reaches the halved step and raises at the move that
        # would improve
        ([1.0, 1.0, 0.94, 0.95], FilterTarget.ENERGY, (3, 2, 1.0), True),
        # the first pass improves, so the walk never tries the halved step
        # from the start: only the one-call batch meets the bad row
        ([0.64, 0.27, 0.04, 0.02], FilterTarget.COHERENCE_TSALLIS, (0, 1, 1.0), False),
    ],
    ids=["halved-first-move", "halved-improving-move", "not-reached"],
)
def test_a_raising_batch_raises_only_where_the_walk_does(start, target, move, walk_raises):
    step = 0.1
    bad = _trial(start, _PRODUCT, move, 0.5 * step)
    assert bad is not None
    pops = np.clip(_PRODUCT.populations, 0.0, None)
    ps = float(np.dot(start, pops))
    m = np.array(start)
    batched = _RaisingObjective(_PRODUCT, target, bad)
    reference = _RaisingObjective(_PRODUCT, target, bad)
    if walk_raises:
        with pytest.raises(AnnihilatedState) as ref_error:
            _refine(m, reference, pops, ps, step)
        with pytest.raises(AnnihilatedState) as error:
            _batched_refine(m, batched, pops, ps, step)
        assert str(error.value) == str(ref_error.value)
        assert batched.raised == 2  # the whole batch, then the halved segment alone
        return
    got, value = _batched_refine(m, batched, pops, ps, step)
    ref = _refine(m, reference, pops, ps, step)
    assert reference.raised == 0 and batched.raised == 1
    assert np.array_equal(got, ref)
    assert value == float(reference(ref[None, :], np.array([float(np.dot(ref, pops))]))[0])


class _CountingObjective(_Objective):
    calls = 0

    def __call__(self, m, ps):
        self.calls += 1
        return super().__call__(m, ps)


def test_pure_energy_halving_chain_takes_two_step_levels_a_call():
    # no move improves at any of the 15 step levels from 0.02 down to the
    # floor: the walk scores the start and two levels a call
    start = np.array([1e-9, 1.0, 1.0, 1.0 - 1e-9])
    pops = np.clip(_PRODUCT.populations, 0.0, None)
    objective = _CountingObjective(_PRODUCT, TWO_QUBIT_SPECTRUM, FilterTarget.ENERGY)
    m, _ = _batched_refine(start, objective, pops, float(np.dot(start, pops)), 0.02)
    assert np.array_equal(m, start)
    levels = int(np.ceil(np.log2(0.02 / _REFINE_FLOOR)))
    assert levels == 15
    assert objective.calls == 8


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_row_dots_are_the_vector_dots_bit_for_bit(d):
    # the batched snap and refinement rest on this identity: each stacked row
    # dot is the 1-D np.dot the one-vector-at-a-time search took
    rng = np.random.default_rng(d)
    rows, _ = _intensity_batch(rng, d, n=4000)
    rows[1000:2000] = np.round(rows[1000:2000] / 0.02) * 0.02  # grid values
    for pops in (rng.dirichlet(np.ones(d)), _random_mixed(rng, d).populations):
        expected = [float(np.dot(row, pops)) for row in rows]
        assert np.array_equal(_bits(_row_dots(rows, pops)), _bits(expected))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("step", [0.02, 0.1, 0.3])
def test_tail_columns_are_the_meshgrid_rows(step, k):
    axis = _grid_axis(step)
    if step == 0.3:  # 0, 0.3, 0.6, 0.9 and an appended 1.0
        assert len(axis) == 5 and axis[-1] == 1.0
    rows = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    rng = np.random.default_rng(k)
    for index in (np.arange(len(rows)), rng.permutation(len(rows))[: len(rows) // 3 + 1]):
        cols = _tail_columns(axis, k, index)
        assert len(cols) == k
        assert all(col.flags.c_contiguous for col in cols)
        assert np.array_equal(np.column_stack(cols), rows[index])


def _objectives(state):
    return (
        _Objective(state, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE),
        _ReferenceObjective(state, TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE),
    )


def _raised(objective, rows):
    with pytest.raises(Exception) as info:
        objective(np.array(rows), np.ones(len(rows)))
    return type(info.value), str(info.value)


MIXED = mixed_qubit_product(QubitParams(p=0.3, eta=0.7), 2)
GOOD = [0.9, 0.5, 0.2, 1.0]


def test_mixed_objective_matches_on_a_large_batch():
    rows = np.random.default_rng(7).uniform(0.0, 1.0, size=(5000, 4))
    rows[:7, 1:] = 0.0  # rank-one outputs: every zero eigenvalue is dropped
    new, ref = _objectives(MIXED)
    assert np.array_equal(new(rows, np.ones(len(rows))), ref(rows, np.ones(len(rows))))


def test_mixed_objective_normalizes_by_unclipped_populations():
    block = _random_mixed(np.random.default_rng(3), 3).matrix
    rho = np.zeros((4, 4), dtype=complex)
    rho[:3, :3] = block * (1.0 + 1e-13)
    rho[3, 3] = -1e-13  # within the eigenvalue floor; the oracle clips it to 0
    state = QState(rho)
    rows = np.random.default_rng(4).uniform(0.0, 1.0, size=(300, 4))
    new, ref = _objectives(state)
    assert np.array_equal(new(rows, np.ones(300)), ref(rows, np.ones(300)))


@pytest.mark.parametrize(
    "rows, error",
    [
        ([GOOD, [0.0] * 4, [np.nan] * 4], AnnihilatedState),
        ([GOOD, [np.nan, 0.5, 0.5, 0.5], [0.0] * 4], StateValidationError),
    ],
    ids=["annihilated-first", "non-finite-first"],
)
def test_mixed_objective_raises_for_the_first_bad_row(rows, error):
    new, ref = _objectives(MIXED)
    raised = _raised(new, rows)
    assert raised == _raised(ref, rows)
    assert raised[0] is error


def test_mixed_objective_keeps_the_eigenvalue_floor():
    state = mixed_qubit_product(QubitParams(p=0.5, eta=0.5), 2)
    bad = np.full((4, 4), 0.01, dtype=complex)
    np.fill_diagonal(bad, 0.25)
    bad[0, 3] = bad[3, 0] = 0.6  # Hermitian, unit trace, one eigenvalue -0.35
    object.__setattr__(state, "matrix", bad)
    new, ref = _objectives(state)
    for rows in ([[1.0] * 4, [0.0] * 4], [[0.0] * 4, [1.0] * 4]):
        assert _raised(new, rows) == _raised(ref, rows)
    assert _raised(new, [[1.0] * 4])[1] == "density matrix has a negative eigenvalue"


# The objective's formulas from before it scored intensity columns, verbatim.
def _energy_rows(m, pops, levels, ps):
    return (m * pops * levels).sum(axis=1) / ps


def _coherence_rows(m, pops, ps):
    with np.errstate(divide="ignore", invalid="ignore"):
        return _row_entropy(m * pops / ps[:, None])


def _tsallis_rows(state, m, ps):
    overlap = np.abs(state.matrix) ** 2
    np.fill_diagonal(overlap, 0.0)
    return np.einsum("ni,ij,nj->n", m, overlap, m) / ps**2


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _intensity_batch(rng, d, n=5000):
    """Random intensities with grid-like exact 0s and 1s, all-zero rows first."""
    m = rng.uniform(0.0, 1.0, size=(n, d))
    m[rng.random((n, d)) < 0.2] = 0.0
    m[rng.random((n, d)) < 0.2] = 1.0
    m[:5] = 0.0
    return m, rng.uniform(0.01, 1.0, size=n)


def _levels(rng, d, kind):
    if kind == "negative":
        return np.sort(-rng.uniform(0.5, 2.0, size=d))
    # negative, zero and positive levels
    return np.sort(np.concatenate([rng.normal(size=d - 1), [0.0]]))


def _head_columns(m, n_head=1):
    """The rows of ``m`` as the head loop scores them: the first ``n_head``
    intensities as scalars (equal in every row here), the rest as columns."""
    head = tuple(m[0, :n_head].tolist())
    rows = m.copy()
    rows[:, :n_head] = head
    return rows, (*head, *rows[:, n_head:].T)


@pytest.mark.parametrize("kind", ["mixed-sign", "negative"])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_energy_and_coherence_columns_are_bit_identical(d, kind):
    rng = np.random.default_rng(100 * d + len(kind))
    state = _random_ket(rng, d)
    spectrum = EnergySpectrum(_levels(rng, d, kind))
    m, ps = _intensity_batch(rng, d)
    energy = _Objective(state, spectrum, FilterTarget.ENERGY)
    coherence_ = _Objective(state, spectrum, FilterTarget.COHERENCE)
    ref_energy = _energy_rows(m, energy.pops, spectrum.levels, ps)
    ref_coherence = _coherence_rows(m, coherence_.pops, ps)
    assert np.array_equal(_bits(energy(m, ps)), _bits(ref_energy))
    assert np.array_equal(_bits(coherence_(m, ps)), _bits(ref_coherence))
    if kind == "negative":  # every term of an all-zero row is -0.0
        assert np.all(ref_energy[:5] == 0.0) and not np.signbit(ref_energy[:5]).any()
    rows, cols = _head_columns(m)
    for objective, ref in (
        (energy, _energy_rows(rows, energy.pops, spectrum.levels, ps)),
        (coherence_, _coherence_rows(rows, coherence_.pops, ps)),
    ):
        assert np.array_equal(_bits(objective.columns(cols, ps)), _bits(ref))


def _tsallis_states(rng):
    return [
        product_pure_state(0.1, 2),
        mixed_qubit_product(QubitParams(p=0.27, eta=0.75), 2),
        *(_random_ket(rng, d) for d in (2, 3, 4, 5, 6)),
        *(_random_mixed(rng, d) for d in (3, 4, 5, 6)),
    ]


def test_tsallis_columns_match_the_einsum_form():
    rng = np.random.default_rng(41)
    for state in _tsallis_states(rng):
        objective = _Objective(state, _spectrum(state.dim), FilterTarget.COHERENCE_TSALLIS)
        m, ps = _intensity_batch(rng, state.dim)
        values = objective(m, ps)
        np.testing.assert_allclose(values, _tsallis_rows(state, m, ps), rtol=1e-14, atol=0.0)
        rows, cols = _head_columns(m)
        assert np.array_equal(_bits(objective.columns(cols, ps)), _bits(objective(rows, ps)))


def test_tsallis_row_value_does_not_depend_on_the_batch():
    rng = np.random.default_rng(42)
    state = _random_mixed(rng, 5)
    objective = _Objective(state, _spectrum(5), FilterTarget.COHERENCE_TSALLIS)
    m, ps = _intensity_batch(rng, 5)
    whole = _bits(objective(m, ps))
    one_by_one = np.concatenate([objective(m[k : k + 1], ps[k : k + 1]) for k in range(len(m))])
    chunks = np.concatenate(
        [objective(m[k : k + 7], ps[k : k + 7]) for k in range(0, len(m), 7)]
    )
    assert np.array_equal(whole, _bits(one_by_one))
    assert np.array_equal(whole, _bits(chunks))


class _EinsumObjective(_ReferenceObjective):
    def __call__(self, m: np.ndarray, ps: np.ndarray) -> np.ndarray:
        if self.target is not FilterTarget.COHERENCE_TSALLIS:
            return super().__call__(m, ps)
        return _tsallis_rows(self.state, m, ps)


def _tsallis_search_cases():
    rng = np.random.default_rng(20212)
    states = [
        (product_pure_state(0.1, 2), 0.02),
        (product_pure_state(0.35, 2), 0.04),
        (_random_ket(rng, 4), 0.02),
        (_random_ket(rng, 4), 0.04),
        (mixed_qubit_product(QubitParams(p=0.4, eta=0.3), 2), 0.1),
        (_random_mixed(rng, 4), 0.05),
        (_random_ket(rng, 3), 0.02),
        (_random_mixed(rng, 3), 0.02),
        (_random_ket(rng, 5), 0.1),
        (_random_mixed(rng, 5), 0.2),
        (_random_ket(rng, 6), 0.25),
    ]
    cases = []
    for k, (state, step) in enumerate(states):
        for ps in rng.uniform(0.1, 0.9, size=2).tolist():
            cases.append(pytest.param(state, ps, step, id=f"d{state.dim}-{k}-{ps:.3f}"))
    return cases


@pytest.mark.parametrize("state, ps, step", _tsallis_search_cases())
def test_tsallis_search_matches_the_einsum_objective(monkeypatch, state, ps, step):
    # the reference search with the einsum objective it was written with
    monkeypatch.setattr(sys.modules[__name__], "_ReferenceObjective", _EinsumObjective)
    spectrum = _spectrum(state.dim)
    target = FilterTarget.COHERENCE_TSALLIS
    res = grid_search(state, spectrum, target, ps, grid_step=step)
    ref_obj, _, ref_ps = _reference_grid_search(state, spectrum, target, ps, step)
    assert res.objective == pytest.approx(ref_obj, rel=1e-12, abs=0.0)
    assert res.p_success == ref_ps
