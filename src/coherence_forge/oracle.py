"""Brute-force validation oracle for the filter synthesizers.

Exhaustive enumeration of diagonal-filter intensities on a uniform grid,
restricted to a tolerance band around the requested success probability,
followed by constraint-projected coordinate descent. The search space is a
subset of the feasible filters, so the oracle objective never exceeds the
true optimum; a synthesizer passes when the oracle cannot beat it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleGrid
from .statecore import (
    DiagonalFilter,
    EnergySpectrum,
    QState,
    apply_filter,
    coherence,
    coherence_tsallis,
    mean_energy,
)
from .synthesis import FilterTarget, FrontierPoint

_REFINE_FLOOR = 1e-6


@dataclass(frozen=True)
class OracleResult:
    filter: DiagonalFilter
    objective: float
    p_success: float
    grid_step: float


@dataclass(frozen=True)
class FrontierCheckEntry:
    p_success: float
    synthesized_objective: float
    oracle_objective: float
    shortfall: float


@dataclass(frozen=True)
class FrontierReport:
    entries: tuple[FrontierCheckEntry, ...]
    max_shortfall: float
    passed: bool


def objective_value(
    state: QState, spectrum: EnergySpectrum, target: FilterTarget, filt: DiagonalFilter
) -> float:
    """Target measure of the normalized filtered state."""
    out, _ = apply_filter(state, filt)
    if target is FilterTarget.ENERGY:
        return mean_energy(out, spectrum)
    if target is FilterTarget.COHERENCE:
        return coherence(out)
    return coherence_tsallis(out)


class _Objective:
    """Vectorized objective over batches of intensity vectors."""

    def __init__(self, state: QState, spectrum: EnergySpectrum, target: FilterTarget):
        self.target = target
        self.pops = np.clip(state.populations, 0.0, None)
        self.levels = spectrum.levels
        self.pure = state.is_pure()
        self.state = state
        self.overlap = np.abs(state.matrix) ** 2
        np.fill_diagonal(self.overlap, 0.0)

    def __call__(self, m: np.ndarray, ps: np.ndarray) -> np.ndarray:
        m = np.atleast_2d(m)
        ps = np.atleast_1d(ps)
        if self.target is FilterTarget.ENERGY:
            return (m * self.pops * self.levels).sum(axis=1) / ps
        if self.target is FilterTarget.COHERENCE_TSALLIS:
            return np.einsum("ni,ij,nj->n", m, self.overlap, m) / ps**2
        if self.pure:
            q = m * self.pops / ps[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(q > 1e-14, -q * np.log(np.where(q > 1e-14, q, 1.0)), 0.0)
            return terms.sum(axis=1)
        out = np.empty(m.shape[0])
        for i in range(m.shape[0]):
            filt = DiagonalFilter(np.sqrt(np.clip(m[i], 0.0, 1.0)).astype(complex))
            out[i] = coherence(apply_filter(self.state, filt)[0])
        return out


def _grid_axis(grid_step: float) -> np.ndarray:
    axis = np.arange(0.0, 1.0 + 0.5 * grid_step, grid_step)
    axis = np.minimum(axis, 1.0)
    if axis[-1] < 1.0 - 1e-12:
        axis = np.append(axis, 1.0)
    return axis


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


def _fractional(m: np.ndarray, pops: np.ndarray) -> list[int]:
    return [
        int(j)
        for j in np.flatnonzero((m > 1e-12) & (m < 1.0 - 1e-12) & (pops > 1e-14))
    ]


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
    """Best exact-constraint projection of a banded grid candidate, or the
    candidate itself when it already sits on the constraint.

    Prefers rescaling a fractional coordinate (preserving the boundary
    pattern); when the pattern cannot absorb the gap, the nearest boundary
    coordinate is moved instead.
    """
    if abs(float(np.dot(m, pops)) - p_success) <= 1e-12:
        return m.copy(), float(objective(m[None, :], np.array([p_success]))[0])
    for compensators in (
        _fractional(m, pops),
        [int(j) for j in np.flatnonzero(pops > 1e-14)],
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
            return best
    return None


def _refine(
    m: np.ndarray,
    objective: _Objective,
    pops: np.ndarray,
    p_success: float,
    grid_step: float,
) -> np.ndarray:
    """Constraint-projected coordinate descent on the fractional coordinates.

    The boundary pattern (coordinates at 0 or 1) found by the grid is kept;
    a designated fractional coordinate re-absorbs each trial move so the
    success probability stays exactly on target.
    """
    m = m.copy()
    frac = _fractional(m, pops)
    if not frac:
        return m

    def value(vec: np.ndarray) -> float:
        return float(objective(vec[None, :], np.array([float(np.dot(vec, pops))]))[0])

    best_val = value(m)
    step = grid_step
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
                        continue
                    trial = _project(trial, comp, pops, p_success)
                    if trial is None:
                        continue
                    val = value(trial)
                    if val > best_val + 1e-15:
                        m, best_val = trial, val
                        improved = True
        if not improved:
            step *= 0.5
    return m


def grid_search(
    state: QState,
    spectrum: EnergySpectrum,
    target: FilterTarget,
    p_success: float,
    grid_step: float = 0.02,
    tolerance: float | None = None,
) -> OracleResult:
    """Best filter on the intensity grid within the success-probability band.

    Enumerates intensities in {0, grid_step, ..., 1}^d, keeps candidates
    with |P_S - p_success| <= tolerance (default: grid_step), maximizes the
    target measure of the normalized output, then refines with step halving
    down to 1e-6 while projected on the exact constraint. Ties go to the
    lexicographically smallest filter; the search is fully deterministic.
    """
    d = state.dim
    if d > 6:
        raise DomainError("oracle enumeration is limited to dimension <= 6")
    if not 0.0 < grid_step <= 0.5:
        raise DomainError("grid_step must lie in (0, 0.5]")
    if tolerance is None:
        tolerance = grid_step
    if tolerance <= 0.0:
        raise DomainError("tolerance must be positive")
    if state.dim != spectrum.dim:
        raise DomainError("state and spectrum dimensions differ")

    pops = np.clip(state.populations, 0.0, None)
    objective = _Objective(state, spectrum, target)
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
        raise InfeasibleGrid(
            "no grid point satisfies the success-probability tolerance; "
            "loosen the tolerance or refine the grid"
        )

    # Banded candidates are only comparable after exact projection: a lower
    # actual P_S inside the band would otherwise inflate the objective.
    start: tuple[np.ndarray, float] | None = None
    for _, cand, _ in winners:  # head order keeps ties lexicographic
        snapped = _snap_to_constraint(cand, objective, pops, p_success)
        if snapped is not None and (start is None or snapped[1] > start[1]):
            start = snapped
    if start is None:
        # every winner is stuck on the box boundary; fall back to the best
        # raw candidate with its own (banded) success probability
        raw = max(winners, key=lambda r: r[0])
        return OracleResult(
            filter=DiagonalFilter(np.sqrt(np.clip(raw[1], 0.0, 1.0)).astype(complex)),
            objective=raw[0],
            p_success=raw[2],
            grid_step=grid_step,
        )

    refined = _refine(start[0], objective, pops, p_success, grid_step)
    actual_ps = float(np.dot(refined, pops))
    value = float(objective(refined[None, :], np.array([actual_ps]))[0])
    return OracleResult(
        filter=DiagonalFilter(np.sqrt(np.clip(refined, 0.0, 1.0)).astype(complex)),
        objective=value,
        p_success=actual_ps,
        grid_step=grid_step,
    )


def verify_frontier(
    points: list[FrontierPoint],
    state: QState,
    spectrum: EnergySpectrum,
    target: FilterTarget,
    samples: int,
    grid_step: float = 0.05,
    tolerance: float | None = None,
    seed: int = 0,
) -> FrontierReport:
    """Re-run the oracle at sampled frontier points and report the worst
    objective shortfall of the synthesized filters. Passes when the oracle
    never beats a sampled point by more than 1e-3."""
    if not points:
        raise DomainError("frontier is empty")
    rng = np.random.default_rng(seed)
    count = min(samples, len(points))
    idx = sorted(rng.choice(len(points), size=count, replace=False).tolist())
    entries = []
    worst = 0.0
    for i in idx:
        point = points[i]
        synth = objective_value(state, spectrum, target, point.filter)
        res = grid_search(
            state,
            spectrum,
            target,
            point.p_success,
            grid_step=grid_step,
            tolerance=tolerance,
        )
        shortfall = res.objective - synth
        worst = max(worst, shortfall)
        entries.append(
            FrontierCheckEntry(
                p_success=point.p_success,
                synthesized_objective=synth,
                oracle_objective=res.objective,
                shortfall=shortfall,
            )
        )
    return FrontierReport(entries=tuple(entries), max_shortfall=worst, passed=worst <= 1e-3)
