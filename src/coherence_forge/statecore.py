"""State algebra for diagonal quantum filtering.

Density matrices over a fixed energy eigenbasis, diagonal single-Kraus
filters, and the figures of merit that the rest of the package trades off
against success probability: mean energy, relative-entropy coherence and
purity-based (Tsallis) coherence.

All values are immutable; every operation returns a new object, so states
and filters are safe to share between threads. Entropies use the natural
logarithm throughout (nats).

Each object computes its invariants once. An ``EnergySpectrum`` groups its
levels, given in the basis order of the system, into degeneracy classes at
``DEGENERACY_TOL`` when it is built, and ``degeneracy_classes()`` returns
those read-only arrays. A ``QState`` keeps the spectrum of its matrix from
validation, and its populations and purity from their first use;
``populations`` still hands out a fresh writable copy. For the scalar
synthesizers, the classes and the clipped populations are also kept as
tuples of Python numbers from their first use, so a grid point reads them
without converting an array.

``diagonal_filter_rows`` is the batched form of ``DiagonalFilter``: it checks
a whole array of coefficient rows at once and hands out filters whose
coefficients are read-only rows of one frozen array. ``diagonal_filter_row``
is its one-row form for a row of Python floats. ``apply_filter_rows``
is the batched form of ``apply_filter`` that the
frontier tracer, the mixed-state scans and the oracle share: it filters a
state (or a stack of states) by many coefficient rows at once, checks each
row as ``DiagonalFilter``, ``apply_filter`` and ``QState`` would (a
symmetrized row is Hermitian by construction) and diagonalizes the outputs
with one stacked ``eigvalsh`` per bounded slice; its first failing row
raises what ``DiagonalFilter`` or ``QState`` raises for it. ``coherence_rows``
turns its output into relative-entropy coherences with one ``_row_entropy``
pass over the populations and the eigenvalues stacked, whose per-entry terms
(``_entropy_terms``) the oracle shares. Both give, row for row, the same
floats as the one-state functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
# Levels closer than this share a degeneracy class.
DEGENERACY_TOL = 1e-9


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class EnergySpectrum:
    """Energy levels defining the incoherent basis, in the basis order of the
    system: the n-qubit excitation counts 0, 1, 1, 2, 1, 2, 2, 3 are a
    3-qubit spectrum as they stand. The default unit is one level spacing.
    """

    levels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.levels, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise StateValidationError("spectrum needs at least two energy levels")
        if not np.all(np.isfinite(arr)):
            raise StateValidationError("energies must be finite")
        object.__setattr__(self, "levels", _frozen(arr))
        object.__setattr__(self, "_classes", self._group())

    @property
    def dim(self) -> int:
        return int(self.levels.size)

    def degeneracy_classes(self) -> list[np.ndarray]:
        """Indices grouped by energy, the classes in ascending energy and each
        class in ascending index; in energy order, a level within
        ``DEGENERACY_TOL`` of the one before it shares its class. The index
        arrays are read-only."""
        return list(self._classes)

    @cached_property
    def _class_lists(self) -> tuple[tuple[int, ...], ...]:
        """The classes at ``DEGENERACY_TOL`` as tuples of Python ints."""
        return tuple(tuple(group.tolist()) for group in self._classes)

    def _group(self) -> tuple[np.ndarray, ...]:
        # runs of the levels in a stable energy order: a sorted spectrum's
        # order is the identity, so its classes are its index ranges. Each run
        # is put in index order by Python's sort, since numpy's integer sort
        # would page in about 0.3 MB of its code for a few indices.
        order = np.argsort(self.levels, kind="stable")
        cuts = np.flatnonzero(np.diff(self.levels[order]) > DEGENERACY_TOL) + 1
        bounds = [0, *cuts.tolist(), self.dim]
        return tuple(
            _frozen(np.array(sorted(order[lo:hi].tolist()), dtype=np.intp))
            for lo, hi in zip(bounds, bounds[1:])
        )


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
        eigenvalues = np.linalg.eigvalsh(m)
        if np.min(eigenvalues) < EIGENVALUE_FLOOR:
            raise StateValidationError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", _frozen(m))
        # the spectrum of the frozen matrix, kept for ``coherence``
        object.__setattr__(self, "_eigenvalues", _frozen(eigenvalues))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def populations(self) -> np.ndarray:
        """Diagonal of the density matrix (real, may contain clipped zeros),
        as a fresh writable copy."""
        return self._populations.copy()

    @cached_property
    def _populations(self) -> np.ndarray:
        return _frozen(self.matrix.diagonal().real.copy())

    @cached_property
    def _clipped_populations(self) -> tuple[float, ...]:
        """The populations with negative round-off raised to 0.0, as Python
        floats: ``tuple(np.clip(state.populations, 0.0, None).tolist())``."""
        return tuple([x if x > 0.0 else 0.0 for x in self._populations.tolist()])

    @cached_property
    def _purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def purity(self) -> float:
        return self._purity

    def is_pure(self) -> bool:
        return self.purity() > 1.0 - 1e-10

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
        if not np.abs(c).max() <= 1.0 + 1e-12:
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


def diagonal_filter_row(values: Sequence[float]) -> DiagonalFilter:
    """``DiagonalFilter(values)`` for one row of Python floats: the one-row
    form of :func:`diagonal_filter_rows`. The constructor's bound is tested on
    each value in turn, so a NaN fails wherever it stands (``max`` would skip
    one that is not first); a failing row raises what the constructor raises
    for it. The coefficients are a read-only complex array."""
    for value in values:
        if not abs(value) <= 1.0 + 1e-12:
            break
    else:
        if len(values):
            filt = object.__new__(DiagonalFilter)
            object.__setattr__(filt, "coeffs", _frozen(np.array(values, dtype=complex)))
            return filt
    return DiagonalFilter(values)  # raises the constructor's error


def diagonal_filter_rows(coeffs: np.ndarray) -> list[DiagonalFilter]:
    """``DiagonalFilter(row)`` for every row of a batch of filter coefficients
    (shape (n, d)), with the constructor's checks run on all rows at once: at
    least one coefficient, and every |m| <= 1 + 1e-12 and finite. A batch
    raises what its first failing row raises. The coefficients are copied
    into one read-only complex array, and each filter's ``coeffs`` is a 1-D
    row view of it."""
    c = _frozen(np.array(coeffs, dtype=complex))
    if c.shape[0]:
        if not c.shape[1]:
            DiagonalFilter(c[0])
        # a NaN or infinite coefficient also fails the bound
        within = np.abs(c).max(axis=1) <= 1.0 + 1e-12
        if not within.all():
            DiagonalFilter(c[int(within.argmin())])
    filters = []
    for row in c:
        filt = object.__new__(DiagonalFilter)
        object.__setattr__(filt, "coeffs", row)
        filters.append(filt)
    return filters


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


def _entropy_terms(values: np.ndarray) -> np.ndarray:
    """-v log v of each entry above ``ZERO_EIGENVALUE``, and an exact 0.0 in
    place of each smaller one."""
    keep = values > ZERO_EIGENVALUE
    return np.where(keep, -values * np.log(np.where(keep, values, 1.0)), 0.0)


def _row_entropy(values: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in nats, -sum v log v over the entries
    above ``ZERO_EIGENVALUE``; smaller entries contribute 0.

    The sum runs as numpy sums a row holding only the kept terms. Every row
    keeps at least one entry, as the populations and the spectrum of a
    unit-trace state do. numpy adds fewer than 8 terms from left to right,
    starting from +0.0, so in rows shorter than that a dropped entry can stand
    in place as an exact 0.0 (a zero entropy is then 0.0, where the kept terms
    alone give -0.0). Longer sums are pairwise, and a 0.0 in place would move
    the pairs, so there each row sums its own kept terms.
    """
    terms = _entropy_terms(values)
    if values.shape[1] < 8:
        return terms.sum(axis=1)
    keep = values > ZERO_EIGENVALUE
    return np.array([row[kept].sum() for row, kept in zip(terms, keep)])


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
    return float(coherence_rows(state.populations[None], state._eigenvalues[None])[0])


def coherence_tsallis(state: QState) -> float:
    """Purity-based coherence Tr(rho^2) - Tr(rho_D^2); zero for diagonal states."""
    diag = float((state.populations**2).sum())
    return max(state.purity() - diag, 0.0)


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


# Rows per slice of ``apply_filter_rows``: a slice holds a few d x d complex
# arrays per row, about 10 MB at d = 6.
_BATCH_ROWS = 2048


def apply_filter_rows(
    matrix: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`apply_filter` for every row of a batch of filter coefficients.

    ``matrix`` is the density matrix of a validated :class:`QState`, or a
    stack of them with one per row of ``coeffs`` (shape (n, d)). Each row is
    filtered with the arithmetic of ``apply_filter(state, DiagonalFilter(row))``
    and every check the filter, the filtering and the output ``QState`` make;
    a batch raises what its first failing row would raise. The outputs are
    diagonalized with one stacked ``eigvalsh``, in slices of at most
    ``_BATCH_ROWS`` rows so memory stays bounded.

    Returns each row's success probability, the populations of its filtered
    state and that state's eigenvalues (ascending): all that
    :func:`coherence_rows` and the mean energy read.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    matrix = np.asarray(matrix)
    n, d = coeffs.shape[0], matrix.shape[-1]
    if n and coeffs.shape[1] != d:
        DiagonalFilter(coeffs[0])  # the filter's own checks come first
        raise DimensionMismatch(f"state dimension {d} != filter dimension {coeffs.shape[1]}")
    if n <= _BATCH_ROWS:
        return _filter_slice(matrix, coeffs)
    p_s, populations, eigenvalues = np.empty(n), np.empty((n, d)), np.empty((n, d))
    for lo in range(0, n, _BATCH_ROWS):
        rows = slice(lo, lo + _BATCH_ROWS)
        p_s[rows], populations[rows], eigenvalues[rows] = _filter_slice(
            matrix if matrix.ndim == 2 else matrix[rows], coeffs[rows]
        )
    return p_s, populations, eigenvalues


def _filter_slice(
    matrix: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    magnitude = np.abs(c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_s = (magnitude**2 * matrix.diagonal(axis1=-2, axis2=-1).real).sum(axis=1)
        rho = matrix * (c[:, :, None] * c.conj()[:, None, :]) / p_s[:, None, None]
        # exactly Hermitian where finite (a - b is exactly -(b - a)), so each
        # diagonal entry's imaginary part is +0.0, or NaN where the entry is
        # not finite; a row that is not finite fails the coefficient bound or
        # the P_S floor
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        trace = np.trace(rho, axis1=1, axis2=2).real
    big = ~(magnitude.max(axis=1) <= 1.0 + 1e-12)
    off_trace = np.abs(trace - 1.0) > TRACE_TOL
    bad = big | (p_s < _ANNIHILATION_TOL) | off_trace
    n_ok = int(bad.argmax()) if bad.any() else len(c)
    # rows before the first failure reach the eigenvalue floor check
    eigenvalues = np.linalg.eigvalsh(rho[:n_ok])
    if (eigenvalues.min(axis=1) < EIGENVALUE_FLOOR).any():
        raise StateValidationError("density matrix has a negative eigenvalue")
    if n_ok < len(c):
        # the first failing row, checked as the filter, apply_filter and QState check it
        DiagonalFilter(c[n_ok])
        if p_s[n_ok] < _ANNIHILATION_TOL:
            raise AnnihilatedState("filter annihilates the state (success probability 0)")
        QState(rho[n_ok])
    return p_s, rho.diagonal(axis1=1, axis2=2).real, eigenvalues


def coherence_rows(populations: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """:func:`coherence` of each state given by a row of populations and a row
    of eigenvalues, as :func:`apply_filter_rows` returns them.

    Both entropies come from one ``_row_entropy`` call on the two arrays
    stacked; each row's terms and sum are those of a call on its own array.
    """
    entropies = _row_entropy(np.concatenate([populations, eigenvalues]))
    gap = entropies[: len(populations)] - entropies[len(populations) :]
    return np.where(gap < 0.0, 0.0, gap)


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
