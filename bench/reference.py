"""Independent NumPy reference values used by the output checks.

These re-derive the paper's optima for the symmetric two-qubit product state
and the measures of small filtered states without calling coherence_forge, so
a check compares the program against a second implementation.
"""

from __future__ import annotations

import numpy as np

LEVELS = np.array([0.0, 1.0, 1.0, 2.0])


def product_pops(p: float) -> np.ndarray:
    """Populations of (sqrt(1-p)|0> + sqrt(p)|1>)^{⊗2}."""
    return np.array([(1 - p) ** 2, p * (1 - p), p * (1 - p), p * p])


def energy_lo(pops: np.ndarray) -> float:
    """Lowest success probability of the energy-optimal family (top level kept)."""
    return float(pops[3])


def coherence_lo(pops: np.ndarray) -> float:
    """Lowest success probability of the water-filling family (full equalization)."""
    return float(pops.size * pops.min())


def optimal_energy(pops: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Output mean energy of the energy-optimal filter at each success probability."""
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    kept = np.tile(pops, (ps.size, 1))
    to_remove = 1.0 - ps
    for group in ([0], [1, 2], [3]):
        pop = float(pops[group].sum())
        cut = np.clip(to_remove, 0.0, pop)
        kept[:, group] *= ((pop - cut) / pop)[:, None]
        to_remove = to_remove - cut
    return (kept @ LEVELS) / kept.sum(axis=1)


def optimal_coherence(pops: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Output coherence (nats) of the water-filling filter for a pure input,
    at each success probability; the common ceiling is found by bisection."""
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    lo = np.zeros(ps.size)
    hi = np.full(ps.size, float(pops.max()))
    for _ in range(100):
        k = 0.5 * (lo + hi)
        below = np.minimum(k[:, None], pops).sum(axis=1) < ps
        lo = np.where(below, k, lo)
        hi = np.where(below, hi, k)
    q = np.minimum(0.5 * (lo + hi)[:, None], pops)
    q = q / q.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 1e-300, -q * np.log(np.where(q > 1e-300, q, 1.0)), 0.0)
    return terms.sum(axis=1)


def entropy(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    v = v[v > 1e-14]
    return float(-(v * np.log(v)).sum())


def mixed_product(p: float, eta: float) -> np.ndarray:
    off = eta * np.sqrt(p * (1 - p))
    single = np.array([[1 - p, off], [off, p]], dtype=complex)
    return np.kron(single, single)


def filtered(rho: np.ndarray, intensities: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized M rho M^dag for real amplitudes sqrt(intensities), and P_S."""
    amp = np.sqrt(np.clip(intensities, 0.0, None))
    out = rho * np.outer(amp, amp)
    ps = float(np.trace(out).real)
    return out / ps, ps


def relative_entropy_coherence(rho: np.ndarray) -> float:
    return max(entropy(np.diag(rho).real) - entropy(np.linalg.eigvalsh(rho)), 0.0)


def tsallis_coherence(rho: np.ndarray) -> float:
    off = np.abs(rho) ** 2
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


def zero_ground(b: float) -> np.ndarray:
    """Intensities of the ground-removing filter diag(0, b, b, 1)."""
    return np.array([0.0, b * b, b * b, 1.0])


def scan_point(p: float, eta: float, b: float) -> tuple[float, float]:
    """Coherence and mean energy after diag(0, b, b, 1) on the mixed product state."""
    out, _ = filtered(mixed_product(p, eta), zero_ground(b))
    return relative_entropy_coherence(out), float((LEVELS * np.diag(out).real).sum())


def process_fidelity(intensities: np.ndarray, phases: np.ndarray) -> float:
    """Overlap fidelity of a rank-1 filter process with residual phases vs the ideal."""
    return float(abs((intensities * np.exp(1j * phases)).sum()) ** 2 / intensities.sum() ** 2)
