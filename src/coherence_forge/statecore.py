"""State algebra for diagonal quantum filtering.

Density matrices over a fixed energy eigenbasis, diagonal single-Kraus
filters, and the figures of merit that the rest of the package trades off
against success probability: mean energy, relative-entropy coherence and
purity-based (Tsallis) coherence.

All values are immutable; every operation returns a new object, so states
and filters are safe to share between threads. Entropies use the natural
logarithm throughout (nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    AnnihilatedState,
    DimensionMismatch,
    StateValidationError,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# Eigenvalues / populations below this are treated as exactly zero, in
# particular before taking logarithms (0 log 0 == 0).
ZERO_EIGENVALUE = 1e-14
ZERO_POPULATION = 1e-14

_ANNIHILATION_TOL = 1e-14


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EnergySpectrum:
    """Ordered energy levels defining the incoherent basis.

    Levels must be nondecreasing; the default unit is one level spacing.
    """

    levels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.levels, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise StateValidationError("spectrum needs at least two energy levels")
        if not np.all(np.isfinite(arr)):
            raise StateValidationError("energies must be finite")
        if np.any(np.diff(arr) < 0):
            raise StateValidationError("energy levels must be nondecreasing")
        object.__setattr__(self, "levels", _frozen(arr))

    @property
    def dim(self) -> int:
        return int(self.levels.size)

    def degeneracy_classes(self, tol: float = 1e-9) -> list[np.ndarray]:
        """Indices grouped by energy, ascending; levels within ``tol`` share a class."""
        cuts = np.flatnonzero(np.diff(self.levels) > tol) + 1
        return [np.asarray(g) for g in np.split(np.arange(self.dim), cuts)]


TWO_QUBIT_SPECTRUM = EnergySpectrum(np.array([0.0, 1.0, 1.0, 2.0]))


@dataclass(frozen=True, eq=False)
class QState:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateValidationError("density matrix must be square")
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL:
            # a NaN or infinite entry also makes the residual non-finite
            if not np.isfinite(m).all():
                raise StateValidationError("density matrix entries must be finite")
            raise StateValidationError("density matrix is not Hermitian")
        trace = np.trace(m)
        if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
            raise StateValidationError("density matrix trace must equal 1")
        if np.min(np.linalg.eigvalsh(m)) < EIGENVALUE_FLOOR:
            raise StateValidationError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def populations(self) -> np.ndarray:
        """Diagonal of the density matrix (real, may contain clipped zeros)."""
        return np.real(np.diag(self.matrix)).copy()

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def is_pure(self, tol: float = 1e-10) -> bool:
        return self.purity() > 1.0 - tol

    @classmethod
    def pure(cls, amplitudes: Iterable[complex]) -> "QState":
        """Rank-1 state from a ket; the amplitude vector is normalized."""
        v = np.asarray(tuple(amplitudes), dtype=complex)
        norm = np.linalg.norm(v)
        if norm < 1e-300:
            raise StateValidationError("zero amplitude vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class DiagonalFilter:
    """Diagonal Kraus operator: complex coefficients with magnitude at most 1."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex).reshape(-1)
        if c.size < 1:
            raise StateValidationError("filter needs at least one coefficient")
        if not np.max(np.abs(c)) <= 1.0 + 1e-12:
            # a NaN or infinite coefficient also fails the bound
            if not np.isfinite(c).all():
                raise StateValidationError("filter coefficients must be finite")
            raise StateValidationError("filter coefficients must satisfy |m| <= 1")
        object.__setattr__(self, "coeffs", _frozen(c))

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)

    @property
    def intensities(self) -> np.ndarray:
        """Squared magnitudes |m_j|^2; the only part the scalar measures see."""
        return np.abs(self.coeffs) ** 2

    def matrix(self) -> np.ndarray:
        return np.diag(self.coeffs)

    @classmethod
    def identity(cls, dim: int) -> "DiagonalFilter":
        return cls(np.ones(dim, dtype=complex))


@dataclass(frozen=True)
class QubitParams:
    """Single-qubit mixed-state parameters: excited population p and
    off-diagonal scale eta (eta = 1 pure, eta = 0 fully dephased)."""

    p: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise StateValidationError("p must lie in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise StateValidationError("eta must lie in [0, 1]")


def _entropy(values: np.ndarray) -> float:
    """Shannon entropy of a nonnegative vector in nats; zeros contribute 0."""
    v = np.real(np.asarray(values, dtype=float))
    v = np.where((v < 0.0) & (v > EIGENVALUE_FLOOR), 0.0, v)
    v = v[v > ZERO_EIGENVALUE]
    if v.size == 0:
        return 0.0
    return float(-(v * np.log(v)).sum())


def dephase(state: QState) -> QState:
    """Project onto the diagonal: identical populations, zero off-diagonals."""
    return QState(np.diag(np.diag(state.matrix)))


def mean_energy(state: QState, spectrum: EnergySpectrum) -> float:
    """Population-weighted energy sum; depends only on the diagonal."""
    if state.dim != spectrum.dim:
        raise DimensionMismatch(
            f"state dimension {state.dim} != spectrum dimension {spectrum.dim}"
        )
    return float((spectrum.levels * state.populations).sum())


def coherence(state: QState) -> float:
    """Relative-entropy coherence S(rho_D) - S(rho), in nats.

    Zero for diagonal states; for pure states it reduces to the entropy
    of the populations. Tiny negative round-off is clamped to 0.
    """
    s_diag = _entropy(state.populations)
    s_full = _entropy(np.linalg.eigvalsh(state.matrix))
    return max(s_diag - s_full, 0.0)


def coherence_tsallis(state: QState) -> float:
    """Purity-based coherence Tr(rho^2) - Tr(rho_D^2); zero for diagonal states."""
    m = state.matrix
    full = float(np.trace(m @ m).real)
    diag = float((state.populations**2).sum())
    return max(full - diag, 0.0)


def success_probability(state: QState, filt: DiagonalFilter) -> float:
    """Probability that the conditional filtering event occurs."""
    if state.dim != filt.dim:
        raise DimensionMismatch(
            f"state dimension {state.dim} != filter dimension {filt.dim}"
        )
    return float((filt.intensities * state.populations).sum())


def apply_filter(state: QState, filt: DiagonalFilter) -> tuple[QState, float]:
    """Conditional state M rho M^dag / P_S together with P_S.

    Raises :class:`AnnihilatedState` when the filter maps the state to zero.
    """
    p_s = success_probability(state, filt)
    if p_s < _ANNIHILATION_TOL:
        raise AnnihilatedState("filter annihilates the state (success probability 0)")
    scaled = state.matrix * np.outer(filt.coeffs, filt.coeffs.conj())
    out = scaled / p_s
    out = 0.5 * (out + out.conj().T)
    return QState(out), p_s


def product_pure_state(p: float, n_qubits: int) -> QState:
    """Tensor power of the pure qubit sqrt(1-p)|0> + sqrt(p)|1>."""
    if not 0.0 <= p <= 1.0:
        raise StateValidationError("p must lie in [0, 1]")
    if n_qubits < 1:
        raise StateValidationError("n_qubits must be at least 1")
    single = np.array([np.sqrt(1.0 - p), np.sqrt(p)])
    amps = single
    for _ in range(n_qubits - 1):
        amps = np.kron(amps, single)
    return QState.pure(amps)


def mixed_qubit_product(params: QubitParams, n_qubits: int) -> QState:
    """Tensor power of the partially dephased qubit with populations
    (1-p, p) and off-diagonals eta*sqrt(p(1-p))."""
    if n_qubits < 1:
        raise StateValidationError("n_qubits must be at least 1")
    off = params.eta * np.sqrt(params.p * (1.0 - params.p))
    single = np.array([[1.0 - params.p, off], [off, params.p]], dtype=complex)
    m = single
    for _ in range(n_qubits - 1):
        m = np.kron(m, single)
    return QState(m)


def tensor(a: QState, b: QState) -> QState:
    return QState(np.kron(a.matrix, b.matrix))


def tensor_filter(a: DiagonalFilter, b: DiagonalFilter) -> DiagonalFilter:
    return DiagonalFilter(np.kron(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# Text serialization for CLI interchange. Matrices are written row-major as
# alternating real/imaginary fields after a "dim <d>" header line.
# ---------------------------------------------------------------------------


def _complex_fields(values: np.ndarray) -> str:
    return " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in values)


def _complex_values(fields: list[float]) -> np.ndarray:
    if len(fields) % 2 != 0:
        raise StateValidationError("expected an even number of re/im fields")
    vals = np.asarray(fields, dtype=float)
    return vals[0::2] + 1j * vals[1::2]


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


def _read_dim_text(
    text: str, kind: str, keys: tuple[str, ...] = ("dim",)
) -> tuple[list[int], list[list[float]]]:
    """Read the ``dim``-header format shared by state, filter and process files.

    Blank lines and ``#`` comment lines are skipped. The first lines hold one
    ``<key> <positive integer>`` pair for each of ``keys``, in order; every
    later line holds finite numeric fields. Returns the header values and
    the fields of each later line.
    """
    lines = [
        ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    header = " / ".join(f"'{key} <d>'" for key in keys)
    if len(lines) < len(keys):
        raise StateValidationError(f"{kind} file is empty; it must start with {header}")
    values = []
    for key, tokens in zip(keys, lines):
        if len(tokens) != 2 or tokens[0] != key:
            raise StateValidationError(f"{kind} file must start with {header}")
        value = int(tokens[1]) if tokens[1].isdecimal() else 0
        if value < 1:
            raise StateValidationError(f"'{key}' needs a positive integer, got {tokens[1]!r}")
        values.append(value)
    rows = []
    for tokens in lines[len(keys) :]:
        try:
            rows.append([_finite_float(t) for t in tokens])
        except ValueError:
            raise StateValidationError(
                f"{kind} file has a non-numeric or non-finite field in {' '.join(tokens)!r}"
            ) from None
    return values, rows


def qstate_to_text(state: QState) -> str:
    lines = [f"dim {state.dim}"]
    for row in state.matrix:
        lines.append(_complex_fields(row))
    return "\n".join(lines) + "\n"


def qstate_from_text(text: str) -> QState:
    (d,), rows = _read_dim_text(text, "state")
    if len(rows) != d:
        raise StateValidationError(f"expected {d} matrix rows, found {len(rows)}")
    if any(len(row) != 2 * d for row in rows):
        raise StateValidationError("matrix rows do not match the declared dimension")
    return QState(np.vstack([_complex_values(row) for row in rows]))


def filter_to_text(filt: DiagonalFilter) -> str:
    return f"dim {filt.dim}\n{_complex_fields(filt.coeffs)}\n"


def filter_from_text(text: str) -> DiagonalFilter:
    (d,), rows = _read_dim_text(text, "filter")
    coeffs = _complex_values([x for row in rows for x in row])
    if coeffs.size != d:
        raise StateValidationError("coefficient count does not match the declared dimension")
    return DiagonalFilter(coeffs)
