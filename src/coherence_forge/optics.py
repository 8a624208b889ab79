"""Two-photon interferometric filter model and process-matrix metrics.

The coincidence-basis action of the interferometer (a tunable coupling of
the two ground-state modes, an optional partially polarizing splitter, and
per-mode attenuators) is a diagonal two-qubit filter; each coefficient is
the permanent of the 2x2 block of the single-photon mode-transfer matrix
that connects the occupied input modes to the matching output modes. The
implementation costs an overall probability factor P_L relative to the
abstract filter.

Process matrices use the unnormalized maximally entangled reference
sum_j |jj>, so the purity and fidelity ratios are normalization-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, StateValidationError
from .statecore import DiagonalFilter, QState, _complex_fields, _complex_values, _read_dim_text

_PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class InterferometerSpec:
    """Interferometer description in the mode order (A0, A1, B0, B1).

    ``bs_transmittance`` is the intensity transmittance of the tunable
    coupling of modes A0 and B0; ``attenuations`` are amplitude
    transmissions applied per mode after the couplings; ``pbs_model`` gives
    the (t_H, t_V) amplitude transmissions of a partially polarizing
    splitter that couples the vertically polarized pair (A0, B0) and scales
    the horizontal modes (A1, B1).
    """

    bs_transmittance: float = 1.0
    attenuations: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    pbs_model: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        values = (self.bs_transmittance, *self.attenuations, *self.pbs_model)
        if len(self.attenuations) != 4 or len(self.pbs_model) != 2:
            raise StateValidationError("expected 4 attenuations and 2 splitter amplitudes")
        if not all(0.0 <= v <= 1.0 for v in values):
            raise StateValidationError("all interferometer amplitudes must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """Residual phase (radians) of each computational basis state."""

    phases: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.phases, dtype=float).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise StateValidationError("phases must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "phases", arr)

    @property
    def dim(self) -> int:
        return int(self.phases.size)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Process matrix of a trace-decreasing map on a d-level system."""

    matrix: np.ndarray
    input_dim: int

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        d = int(self.input_dim)
        if m.shape != (d * d, d * d):
            raise DimensionMismatch("process matrix must be d^2 x d^2")
        if not np.isfinite(m).all():
            raise StateValidationError("process matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise StateValidationError("process matrix is not Hermitian")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise StateValidationError("process matrix is not positive semidefinite")
        if np.trace(m).real > d + 1e-9:
            raise StateValidationError("process matrix trace exceeds the input dimension")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "input_dim", d)


def _coupling(transmission: float) -> np.ndarray:
    """2x2 real coupling with t = sqrt(T); the reflection carries the sign
    flip on one port, so two-photon coincidence gives t^2 - r^2."""
    t = np.sqrt(transmission)
    r = np.sqrt(max(1.0 - transmission, 0.0))
    return np.array([[t, r], [-r, t]])


def mode_transfer_matrix(spec: InterferometerSpec) -> np.ndarray:
    """Single-photon transfer matrix over the modes (A0, A1, B0, B1)."""
    t_h, t_v = spec.pbs_model
    pbs = np.eye(4, dtype=complex)
    pbs[np.ix_([0, 2], [0, 2])] = _coupling(t_v * t_v)
    pbs[1, 1] = t_h
    pbs[3, 3] = t_h
    bs = np.eye(4, dtype=complex)
    bs[np.ix_([0, 2], [0, 2])] = _coupling(spec.bs_transmittance)
    att = np.diag(np.asarray(spec.attenuations, dtype=complex))
    return att @ bs @ pbs


_MODE_OF_BASIS = {
    (0, 0): (0, 2),
    (0, 1): (0, 3),
    (1, 0): (1, 2),
    (1, 1): (1, 3),
}


def _permanent2(block: np.ndarray) -> complex:
    return block[0, 0] * block[1, 1] + block[0, 1] * block[1, 0]


def effective_filter(spec: InterferometerSpec) -> tuple[DiagonalFilter, float]:
    """Coincidence-basis two-qubit filter of the interferometer and its P_L.

    Coefficients are normalized so the |11> amplitude is 1; P_L is the
    squared raw |11> amplitude. Configurations whose normalized
    coefficients would exceed unit magnitude are rejected.
    """
    transfer = mode_transfer_matrix(spec)
    raw = np.empty(4, dtype=complex)
    for (j, k), (mode_a, mode_b) in _MODE_OF_BASIS.items():
        block = transfer[np.ix_([mode_a, mode_b], [mode_a, mode_b])]
        raw[2 * j + k] = _permanent2(block)
    p_l = float(np.abs(raw[3]) ** 2)
    if p_l < 1e-24:
        raise DomainError("the |11> amplitude vanishes (P_L = 0); cannot normalize")
    coeffs = raw / raw[3]
    if np.max(np.abs(coeffs)) > 1.0 + 1e-12:
        raise DomainError(
            "normalized coefficients exceed unit magnitude; the configuration "
            "does not realize a valid filter with the |11> normalization"
        )
    return DiagonalFilter(coeffs), p_l


def choi_of_filter(
    filt: DiagonalFilter, phases: PhaseProfile | None = None
) -> ChoiMatrix:
    """Process matrix (M ⊗ I)|Φ><Φ|(M ⊗ I)^dag with unnormalized |Φ> = sum_j |jj>."""
    d = filt.dim
    if phases is not None and phases.dim != d:
        raise DimensionMismatch("phase profile dimension does not match the filter")
    phase = np.exp(1j * phases.phases) if phases is not None else np.ones(d)
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * d + np.arange(d)] = filt.coeffs * phase
    return ChoiMatrix(matrix=np.outer(vec, vec.conj()), input_dim=d)


def apply_choi(chi: ChoiMatrix, state: QState) -> np.ndarray:
    """Non-normalized action of the process on a state: Tr_2[chi (I ⊗ rho^T)]."""
    d = chi.input_dim
    if state.dim != d:
        raise DimensionMismatch("state dimension does not match the process")
    tensor = chi.matrix.reshape(d, d, d, d)  # (out row, ref row, out col, ref col)
    return np.einsum("ajbk,jk->ab", tensor, state.matrix)


def process_metrics(chi: ChoiMatrix, chi_ideal: ChoiMatrix) -> tuple[float, float]:
    """Trace-normalized process purity and overlap fidelity.

    Both equal 1 exactly when the process matches a rank-1 ideal; both are
    invariant under a global phase of the underlying filter.
    """
    if chi.input_dim != chi_ideal.input_dim:
        raise DimensionMismatch("process matrices have different dimensions")
    tr = float(np.trace(chi.matrix).real)
    tr_ideal = float(np.trace(chi_ideal.matrix).real)
    if tr < 1e-14 or tr_ideal < 1e-14:
        raise DomainError("process metrics need nonzero-trace matrices")
    purity = float(np.trace(chi.matrix @ chi.matrix).real) / tr**2
    fidelity = float(np.trace(chi.matrix @ chi_ideal.matrix).real) / (tr * tr_ideal)
    return purity, fidelity


def compensate_phases(chi: ChoiMatrix) -> tuple[ChoiMatrix, PhaseProfile]:
    """Strip the residual basis-state phases of a diagonal-filter process.

    Phases are read off the |jj><rr| entries relative to the reference
    basis state (the last one, falling back to the largest diagonal entry
    when its amplitude vanishes); the inverse diagonal phase is applied to
    the first subsystem.
    """
    d = chi.input_dim
    diag_idx = np.arange(d) * d + np.arange(d)
    block = chi.matrix[np.ix_(diag_idx, diag_idx)]
    weights = np.real(np.diag(block))
    scale = float(weights.max())
    if scale < 1e-14:
        raise DomainError("process has no diagonal-filter pattern to compensate")
    ref = d - 1
    if weights[ref] <= _PATTERN_TOL * scale:
        ref = int(np.argmax(weights))
    column = block[:, ref]
    magnitude = np.abs(column)
    phases = np.where(
        magnitude > _PATTERN_TOL * scale, np.angle(np.where(magnitude > 0, column, 1.0)), 0.0
    )
    correction = np.exp(-1j * phases)
    u = np.kron(np.diag(correction), np.eye(d))
    compensated = u @ chi.matrix @ u.conj().T
    compensated = 0.5 * (compensated + compensated.conj().T)
    return ChoiMatrix(matrix=compensated, input_dim=d), PhaseProfile(phases=phases)


# ---------------------------------------------------------------------------
# Text serialization (dimension header, row-major complex entries)
# ---------------------------------------------------------------------------


def choi_to_text(chi: ChoiMatrix) -> str:
    d2 = chi.input_dim * chi.input_dim
    lines = [f"dim {d2}", f"input_dim {chi.input_dim}"]
    for row in chi.matrix:
        lines.append(_complex_fields(row))
    return "\n".join(lines) + "\n"


def choi_from_text(text: str) -> ChoiMatrix:
    (d2, d), rows = _read_dim_text(text, "process", ("dim", "input_dim"))
    if d2 != d * d or len(rows) != d2 or any(len(row) != 2 * d2 for row in rows):
        raise StateValidationError("process file has inconsistent dimensions")
    return ChoiMatrix(matrix=np.vstack([_complex_values(row) for row in rows]), input_dim=d)
