"""Harmonic numbers and the headline bound evaluators."""
import decimal
import math
from fractions import Fraction

import pytest

from spolab.bounds import (
    clamped,
    harmonic,
    harmonic_fraction,
    main_bound,
    sponge_bound,
    zero_search_bound,
)

from helpers import main_bound_highprec, sponge_bound_highprec, zero_search_bound_highprec


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic_fraction(4) == Fraction(25, 12)
    assert harmonic(4) == pytest.approx(25 / 12)
    assert harmonic_fraction(3, 2) == Fraction(49, 36)
    assert harmonic_fraction(2, 3) == Fraction(9, 8)


# gamma_coefficients(n) for N = 1..8, as float.hex, recorded when
# bounds.harmonic summed its own Fractions.
GAMMA_COEFFICIENTS_HEX = {
    1: ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    2: ("0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x0.0p+0"),
    3: ("0x1.425ed097b425dp-3", "0x1.0fcd6e9e06525p-3", "0x1.948b0fcd6e980p-6"),
    4: ("0x1.51c71c71c71c8p-3", "0x1.f7b425ed097b8p-4", "0x1.57b425ed097a0p-5"),
    5: ("0x1.4fc21ad9ff8b6p-3", "0x1.c7644a93d9b60p-4", "0x1.b03fd6404ac26p-5"),
    6: ("0x1.4734b78fbd403p-3", "0x1.9b191b61ecbbbp-4", "0x1.e6a0a77b1b88bp-5"),
    7: ("0x1.3c498c2c17648p-3", "0x1.74d75c0761772p-4", "0x1.03bbbc50cd520p-4"),
    8: ("0x1.30c05aa69477fp-3", "0x1.543c708675484p-4", "0x1.0d4444c6b3a7cp-4"),
}


def test_gamma_coefficients_are_bitwise_unchanged():
    from spolab.lemmas import gamma_coefficients

    for n, want in GAMMA_COEFFICIENTS_HEX.items():
        assert tuple(float(v).hex() for v in gamma_coefficients(n)) == want, n


def test_gamma_coefficients_split_as_c1_equal_to_c2_plus_c3():
    """c1 = c2 + c3 with c2, c3 >= 0, exactly over Fractions for N = 1..8:
    the premise of gamma_expectation's sum of squares.  The float
    coefficients match them to 1e-15."""
    from spolab.lemmas import gamma_coefficients

    for n in range(1, 9):
        h1, h2, h3 = (harmonic_fraction(n, order) for order in (1, 2, 3))
        c1, c2, c3 = (h1 - h2) / n, 2 * (h2 - h3) / n, (h1 - 3 * h2 + 2 * h3) / n
        assert c1 == c2 + c3 and c2 >= 0 and c3 >= 0, n
        assert gamma_coefficients(n) == pytest.approx((c1, c2, c3), rel=0, abs=1e-15)


def test_harmonic_bound_and_monotonicity():
    # H_n - ln n decreases monotonically and stays below 1
    acc = 0.0
    prev = None
    for n in range(1, 10001):
        acc += 1.0 / n
        gap = acc - math.log(n)
        assert gap <= 1.0 + 1e-12
        if prev is not None:
            assert gap <= prev + 1e-12
        prev = gap


def test_main_bound_fixture():
    got = main_bound(1, 2 ** 20, 1)
    want = float(main_bound_highprec(1, 2 ** 20, 1))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.383e-2, rel=1e-3)


def test_sponge_bound_fixture():
    got = sponge_bound(1, 60, 30)
    assert got == pytest.approx(float(sponge_bound_highprec(1, 60, 30)), rel=1e-12)
    assert got == pytest.approx(5.277e-5, rel=1e-3)
    # min(c, n-c) symmetry
    assert sponge_bound(3, 20, 4) == sponge_bound(3, 20, 16)


def test_zero_search_bound_fixture():
    got = zero_search_bound(1, 40, 40)
    assert got == pytest.approx(float(zero_search_bound_highprec(1, 40, 40)),
                                rel=1e-12)
    assert got == pytest.approx(6.82e-8, rel=1e-3)


def test_twelve_significant_digits():
    cases = [
        (main_bound(1, 2 ** 20, 1), main_bound_highprec(1, 2 ** 20, 1)),
        (sponge_bound(1, 60, 30), sponge_bound_highprec(1, 60, 30)),
        (zero_search_bound(1, 40, 40), zero_search_bound_highprec(1, 40, 40)),
    ]
    for got, want in cases:
        assert abs(got - float(want)) <= abs(float(want)) * 1e-12


def test_clamped():
    assert clamped(0.5) == 0.5
    assert clamped(3.7) == 1.0
    assert clamped(-0.1) == 0.0


def test_scaling():
    assert main_bound(2, 64, 3) == pytest.approx(8 * main_bound(1, 64, 3))
    assert sponge_bound(2, 8, 4) == pytest.approx(8 * sponge_bound(1, 8, 4))


def test_argument_validation():
    with pytest.raises(ValueError):
        main_bound(0, 4, 1)
    with pytest.raises(ValueError):
        sponge_bound(1, 8, 8)
    with pytest.raises(ValueError):
        zero_search_bound(1, 8, 17)
    with pytest.raises(ValueError):
        harmonic(0)


def test_highprec_bounds_keep_the_callers_precision():
    """Each Decimal evaluator works at its own ``prec`` and leaves the
    caller's decimal context as it found it; the 50-digit values are pinned."""
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        main_bound_highprec(1, 8, 1, prec=7)
        sponge_bound_highprec(1, 60, 30, prec=7)
        zero_search_bound_highprec(1, 40, 40, prec=7)
        assert decimal.getcontext().prec == 28
        assert str(main_bound_highprec(1, 2 ** 20, 1)) == \
            "0.013827066860805320984026911907439677872104780632119"
        assert str(main_bound_highprec(3, 8, 2)) == \
            "25168.114591393747759348840720008661010225394236808"
        assert str(sponge_bound_highprec(1, 60, 30)) == "0.0000527761876583099365234375"
        assert str(zero_search_bound_highprec(1, 40, 40)) == \
            "6.816480890847742557525634765625E-8"
        assert decimal.getcontext().prec == 28
