"""Harmonic numbers and the headline bound evaluators.

The bounds are pure arithmetic in q, N (or bit widths), and r_max:

    search bound      914 q^3 r_max (ln N + 2) / N
    one-round sponge  914 q^3 (n + 2) / 2^{min(c, n-c)}
    zero search       1828 q^3 (n + 1) / 2^c   (permutation width 2n bits)

Raw values routinely exceed 1 at desk scale; callers clamp for reporting.
"""
from __future__ import annotations

import math
from fractions import Fraction


def harmonic(n: int, order: int = 1) -> float:
    """H_n^(order) = sum_{k=1}^n 1/k^order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(harmonic_fraction(n, order))


def harmonic_fraction(n: int, order: int = 1) -> Fraction:
    return sum((Fraction(1, k ** order) for k in range(1, n + 1)), Fraction(0))


def main_bound(q: int, n: int, r_max: int) -> float:
    """914 q^3 r_max (ln N + 2) / N."""
    _check_positive(q=q, n=n)
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    return 914.0 * q ** 3 * r_max * (math.log(n) + 2.0) / n


def sponge_bound(q: int, n_bits: int, c: int) -> float:
    """914 q^3 (n + 2) / 2^{min(c, n-c)}."""
    _check_positive(q=q, n_bits=n_bits)
    if not 1 <= c < n_bits:
        raise ValueError(f"capacity must satisfy 1 <= c < n, got c={c}")
    return 914.0 * q ** 3 * (n_bits + 2) / 2 ** min(c, n_bits - c)


def zero_search_bound(q: int, n_bits: int, c: int) -> float:
    """1828 q^3 (n + 1) / 2^c for a permutation on 2n bits, c in [2n]."""
    _check_positive(q=q, n_bits=n_bits)
    if not 1 <= c <= 2 * n_bits:
        raise ValueError(f"capacity must satisfy 1 <= c <= 2n, got c={c}")
    return 1828.0 * q ** 3 * (n_bits + 1) / 2 ** c


def clamped(value: float) -> float:
    return min(1.0, max(0.0, value))


def _check_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
