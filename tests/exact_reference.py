"""Exact references for the energy-optimal filter, the factorized filter and
the thermal inverse temperature.

Nothing here calls a synthesizer of the package. The populations of a state
and the levels of a spectrum are taken as the exact rationals of their
floats (``fractions.Fraction``). The energy optimum is the greedy fractional
knapsack of its definition: fill P_S from the highest energy down, one class
of equal energy at a time. The factorized filter's x = b^2 is the root of its
success polynomial, bisected in rationals. The inverse temperature is
bisected at 60 significant digits (``decimal``).
"""

import decimal
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


def factorized_powers(populations) -> list[Fraction]:
    """The coefficients c_z of the factorized filter's success polynomial
    P(x) = sum_z c_z x^z in x = b^2: c_z adds up, exactly, the populations of
    the indices with z zeros among their n bits."""
    n = len(populations).bit_length() - 1
    coeffs = [Fraction(0)] * (n + 1)
    for i, pop in enumerate(populations):
        coeffs[n - bin(i).count("1")] += Fraction(float(pop))
    return coeffs


def factorized_root(populations, p_success, bits=128) -> Fraction:
    """The x = b^2 in [0, 1] at which the factorized filter passes P_S: 0 where
    P(0) >= P_S, 1 where P(1) <= P_S, and otherwise the midpoint of the
    bracket [k, k + 1] / 2^bits that bisection finds around the root. Every
    float is dyadic, so one power of 2 clears the denominators of P and P_S
    and the bisection runs on integers. The midpoint lies within 2^-129 of
    the root, so P there within n 2^-129 of P_S: far below 1e-14 of the
    smallest P_S, 2e-14."""
    coeffs = factorized_powers(populations)
    target = Fraction(float(p_success))
    if coeffs[0] >= target:
        return Fraction(0)
    if sum(coeffs) <= target:
        return Fraction(1)
    scale = max(c.denominator for c in (*coeffs, target))
    ints = [int(c * scale) for c in coeffs]
    n = len(coeffs) - 1
    bound = int(target * scale) << (bits * n)

    def below(k):  # P(k / 2^bits) < P_S
        return sum(a * k**z << (bits * (n - z)) for z, a in enumerate(ints)) < bound

    lo, hi = 0, 1 << bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return Fraction(2 * lo + 1, 2 << bits)


def assert_factorized_filter(populations, coeffs, p_success, tol):
    """Assert that ``coeffs`` is the factorized filter at P_S.

    - It is the tensor power of diag(b, 1), b in [0, 1], to 1e-15 relative.
    - b = 0 exactly where the root is 0, and at P_S >= 1 every coefficient
      is exactly 1.
    - Otherwise its P_S, counted exactly, is within ``tol`` relative of P_S,
      or of P(1) where P_S exceeds it, and b^2 is as close to the root:
      |b^2 - x| P'(min(b^2, x)) <= tol P_S, which convexity of P implies.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.size.bit_length() - 1
    assert not coeffs.imag.any()
    b = float(coeffs[-2].real)  # the index with one zero among its bits
    assert 0.0 <= b <= 1.0 and coeffs[-1] == 1.0
    powers = [b ** (n - bin(i).count("1")) for i in range(coeffs.size)]
    assert np.allclose(coeffs.real, powers, rtol=1e-15, atol=0.0)
    root = factorized_root(populations, p_success)
    if root == 0:
        assert b == 0.0
        return
    if p_success >= 1.0:
        assert (coeffs == 1.0).all()
        return
    p_coeffs = factorized_powers(populations)
    target = min(Fraction(float(p_success)), sum(p_coeffs))
    achieved = achieved_success(populations, coeffs)
    assert abs(achieved - target) <= Fraction(tol) * target, float(abs(achieved - target) / target)
    x = Fraction(b) ** 2
    low = min(x, root)
    slope = sum(z * c * low ** (z - 1) for z, c in enumerate(p_coeffs) if z)
    assert abs(x - root) * slope <= Fraction(tol) * target, float(x - root)


def inverse_temperature(levels, energy) -> float:
    """The beta at which the Gibbs distribution over ``levels`` has mean
    energy ``energy``, at 60 significant digits and rounded to the nearest
    float: the bracket doubles out from [-1, 1] until the mean energy
    crosses ``energy``, and 240 bisection steps narrow it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        levels = [decimal.Decimal(float(e)) for e in levels]
        energy = decimal.Decimal(float(energy))

        def gap(beta):  # decreasing in beta
            weights = [(-beta * e).exp() for e in levels]
            return sum(e * w for e, w in zip(levels, weights)) / sum(weights) - energy

        lo, hi = decimal.Decimal(-1), decimal.Decimal(1)
        while gap(lo) <= 0:
            lo *= 2
        while gap(hi) >= 0:
            hi *= 2
        for _ in range(240):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)
