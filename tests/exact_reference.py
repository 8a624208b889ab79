"""Exact references for the energy-optimal filter, in rational arithmetic.

Nothing here calls a synthesizer of the package. The populations of a state
and the levels of a spectrum are taken as the exact rationals of their
floats (``fractions.Fraction``), and the optimum is the greedy fractional
knapsack of its definition: fill P_S from the highest energy down, one class
of equal energy at a time.
"""

import re
from fractions import Fraction

import numpy as np


def populated_classes(populations, levels):
    """The populated levels grouped by equal energy, highest energy first:
    one (energy, indices, exact population) triple per class with population."""
    classes = {}
    for j, (pop, level) in enumerate(zip(populations, levels)):
        if pop > 0.0:
            classes.setdefault(float(level), []).append(j)
    return [
        (energy, members, sum(Fraction(float(populations[j])) for j in members))
        for energy, members in sorted(classes.items(), reverse=True)
    ]


def knapsack_takes(populations, levels, p_success):
    """The population each populated class passes at the energy optimum:
    ``{energy: take}``, with takes that add up to P_S, or to the whole
    population where P_S exceeds it."""
    left = Fraction(float(p_success))
    takes = {}
    for energy, _, pop in populated_classes(populations, levels):
        takes[energy] = min(pop, left)
        left -= takes[energy]
    return takes


def knapsack_mean_energy(populations, levels, p_success) -> Fraction:
    """Mean energy of the optimal output at P_S."""
    takes = knapsack_takes(populations, levels, p_success)
    return sum(Fraction(energy) * take for energy, take in takes.items()) / sum(takes.values())


def achieved_success(populations, coeffs) -> Fraction:
    """P_S of a diagonal filter, sum_j |c_j|^2 p_j, summed exactly."""
    return sum(
        (Fraction(float(c.real)) ** 2 + Fraction(float(c.imag)) ** 2) * Fraction(float(p))
        for c, p in zip(np.asarray(coeffs, dtype=complex).tolist(), populations)
    )


def assert_energy_optimum(populations, levels, coeffs, p_success, tol):
    """Assert that the filter ``coeffs`` is the energy optimum at P_S.

    - Its P_S, counted exactly, is within ``tol`` relative of P_S, or of the
      whole population where P_S exceeds it.
    - Every populated class carries one amplitude. From the highest energy
      down, the classes pass whole (amplitude 1), then at most one is cut,
      then the rest are zeroed.
    - Each class passes the population the knapsack gives it, to ``tol`` P_S.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    target = min(Fraction(float(p_success)), sum(Fraction(float(p)) for p in populations))
    bound = Fraction(tol) * target
    achieved = achieved_success(populations, coeffs)
    assert abs(achieved - target) <= bound, float(abs(achieved - target) / target)
    takes = knapsack_takes(populations, levels, p_success)
    pattern = ""
    for energy, members, _ in populated_classes(populations, levels):
        amplitudes = {complex(coeffs[j]) for j in members}
        assert len(amplitudes) == 1, (energy, amplitudes)
        (amplitude,) = amplitudes
        pattern += "W" if amplitude == 1.0 else "Z" if amplitude == 0.0 else "C"
        passed = achieved_success([populations[j] for j in members], coeffs[members])
        assert abs(passed - takes[energy]) <= bound, (energy, float(passed - takes[energy]))
    assert re.fullmatch("W*C?Z*", pattern), pattern
