"""Iterative pairwise filtering and its sequential-measurement equivalent.

A diagonal two-system filter, applied to a pair and followed by discarding
the partner, acts on the kept system as a mixture of diagonal single-system
filters. Composing two such stages yields a multi-Kraus diagonal map, and
because all operators commute, the whole map can be realized on a single
input pair by an ordered sequence of two-outcome measurements that stops at
the first plus outcome. This module builds those objects and simulates the
stopping protocol so the equivalence can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnnihilatedState, DimensionMismatch, StateValidationError
from .statecore import DiagonalFilter, QState

_COMPLETENESS_TOL = 1e-10
_PSEUDOINV_FLOOR = 1e-12


def _diag_or_raise(op: np.ndarray, what: str) -> np.ndarray:
    m = np.array(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError(f"{what} must be a square matrix")
    # NaN passes every comparison below, and inf - inf warns before failing
    if not np.isfinite(m).all():
        raise StateValidationError(f"{what} entries must be finite")
    if np.max(np.abs(m - np.diag(np.diag(m)))) > 1e-14:
        raise StateValidationError(f"{what} must be diagonal in the energy basis")
    return m


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Diagonal Kraus operators of a trace-decreasing map: sum W^dag W <= I."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(_diag_or_raise(w, "Kraus operator") for w in self.operators)
        if not ops:
            raise StateValidationError("Kraus set must not be empty")
        total = np.zeros(ops[0].shape[0])
        for w in ops:
            if w.shape != ops[0].shape:
                raise DimensionMismatch("Kraus operators must share a dimension")
            total = total + np.abs(np.diag(w)) ** 2
        if np.max(total) > 1.0 + _COMPLETENESS_TOL:
            raise StateValidationError(
                "Kraus set exceeds the trace-decreasing bound sum W^dag W <= I"
            )
        for w in ops:
            w.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return int(self.operators[0].shape[0])

    def apply_mixture(self, state: QState) -> np.ndarray:
        """Non-normalized mixture sum_l W_l rho W_l^dag."""
        if state.dim != self.dim:
            raise DimensionMismatch("state dimension does not match the Kraus set")
        out = np.zeros_like(state.matrix)
        for w in self.operators:
            out = out + w @ state.matrix @ w.conj().T
        return out


@dataclass(frozen=True, eq=False)
class SequentialPovm:
    """Ordered two-outcome stages (M_plus, M_minus), each completing to identity."""

    stages: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        checked = []
        for plus, minus in self.stages:
            p = _diag_or_raise(plus, "plus operator")
            m = _diag_or_raise(minus, "minus operator")
            closure = np.abs(np.diag(p)) ** 2 + np.abs(np.diag(m)) ** 2
            # completeness bounds |p|^2 by 1 + tol, so M^dag M <= I holds too
            if np.max(np.abs(closure - 1.0)) > _COMPLETENESS_TOL:
                raise StateValidationError("stage operators do not complete to identity")
            p.flags.writeable = False
            m.flags.writeable = False
            checked.append((p, m))
        if not checked:
            raise StateValidationError("sequential POVM must have at least one stage")
        object.__setattr__(self, "stages", tuple(checked))

    @property
    def dim(self) -> int:
        return int(self.stages[0][0].shape[0])


def reduced_kraus(filter2q: DiagonalFilter, partner: QState) -> KrausSet:
    """Single-system Kraus decomposition of pairwise filtering.

    Filtering a pair (system x partner) with a diagonal two-system filter
    and tracing out the partner leaves the kept system in a mixture of
    states filtered by the columns of the coefficient grid, weighted by the
    partner's populations.
    """
    d = partner.dim
    if filter2q.dim != d * d:
        raise DimensionMismatch(
            f"two-system filter dimension {filter2q.dim} != partner dimension squared {d * d}"
        )
    grid = filter2q.coeffs.reshape(d, d)  # row: kept system, column: partner
    pops = np.clip(partner.populations, 0.0, None)
    ops = tuple(np.sqrt(pops[j]) * np.diag(grid[:, j]) for j in range(d))
    return KrausSet(operators=ops)


def compose_iteration(
    stage1: DiagonalFilter, stage2: DiagonalFilter, input_state: QState
) -> tuple[KrausSet, np.ndarray]:
    """Kraus set and non-normalized output of a two-stage pairwise protocol.

    Stage 1 filters two independent pairs of copies of ``input_state`` and
    keeps one system of each pair; stage 2 filters the kept pair. The
    returned matrix is the non-normalized two-system output; its trace is
    the overall success probability of the protocol.
    """
    d = input_state.dim
    if stage1.dim != d * d or stage2.dim != d * d:
        raise DimensionMismatch("stage filters must act on pairs of the input system")
    single = reduced_kraus(stage1, input_state)
    m2 = stage2.matrix()
    ops = []
    for k_j in single.operators:  # row-major relabeling: first index outermost
        for k_k in single.operators:
            ops.append(m2 @ np.kron(k_j, k_k))
    kraus = KrausSet(operators=tuple(ops))
    pair = QState(np.kron(input_state.matrix, input_state.matrix))
    return kraus, kraus.apply_mixture(pair)


def sequential_povm(kraus: KrausSet) -> SequentialPovm:
    """Two-outcome measurement sequence realizing a commuting Kraus mixture.

    Stage l applies W_l compensated by the pseudo-inverse square root of
    what earlier stages left over; diagonal entries that are exhausted
    invert to zero.
    """
    dim = kraus.dim
    remaining = np.ones(dim)
    stages = []
    for w in kraus.operators:
        w_diag = np.diag(w)
        inv_sqrt = np.where(
            remaining > _PSEUDOINV_FLOOR,
            1.0 / np.sqrt(np.where(remaining > _PSEUDOINV_FLOOR, remaining, 1.0)),
            0.0,
        )
        plus = w_diag * inv_sqrt
        minus = np.sqrt(np.clip(1.0 - np.abs(plus) ** 2, 0.0, None))
        stages.append((np.diag(plus), np.diag(minus.astype(complex))))
        remaining = np.clip(remaining - np.abs(w_diag) ** 2, 0.0, None)
    return SequentialPovm(stages=tuple(stages))


def simulate_sequential(
    povm: SequentialPovm, input_state: QState
) -> tuple[QState, float, list[float]]:
    """Walk the stop-at-first-plus decision tree.

    Returns the success-conditioned output mixture, the total success
    probability, and the probability of stopping at each stage. The
    mixture times the total probability reproduces the Kraus mixture the
    POVM was built from.
    """
    if povm.dim != input_state.dim:
        raise DimensionMismatch("POVM dimension does not match the state")
    rho = input_state.matrix
    prefix = np.ones(povm.dim, dtype=complex)
    total = np.zeros_like(rho)
    branch_probs: list[float] = []
    for plus, minus in povm.stages:
        branch = np.diag(plus) * prefix
        weight = np.outer(branch, branch.conj())
        contrib = weight * rho
        prob = float(np.trace(contrib).real)
        branch_probs.append(prob)
        total = total + contrib
        prefix = prefix * np.diag(minus)
    p_total = float(np.trace(total).real)
    if p_total < 1e-14:
        raise AnnihilatedState("every branch of the sequential protocol fails")
    mixture = total / p_total
    mixture = 0.5 * (mixture + mixture.conj().T)
    return QState(mixture), p_total, branch_probs
