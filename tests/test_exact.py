import random
from fractions import Fraction

import pytest

from gynibell import exact


def test_rat_normalizes_sign_and_gcd():
    r = exact.rat(6, -4)
    assert r.numerator == -3 and r.denominator == 2


def test_rat_zero():
    assert exact.rat(0, 7) == 0
    assert exact.rat(0, 7).denominator == 1


def test_rat_reduces_headline_ratio():
    # the stored N=7 ratio reduces in lowest terms
    assert exact.rat(64, 42) == Fraction(32, 21)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        exact.rat(1, 0)


def test_serialization_round_trip():
    cases = [Fraction(-3, 2), Fraction(5), Fraction(0), Fraction(32, 21)]
    for r in cases:
        assert exact.rat_from_str(exact.rat_to_str(r)) == r
    assert exact.rat_to_str(Fraction(5)) == "5"
    assert exact.rat_to_str(Fraction(-3, 2)) == "-3/2"


def test_field_axioms_random():
    """Spot-check associativity, distributivity and inverses on random
    rationals; every constructed value must stay canonical."""
    rng = random.Random(20240817)

    def rnd():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(10_000):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a != 0:
            assert a * (1 / a) == 1
        s = a + b
        assert s.denominator > 0
        from math import gcd

        assert gcd(abs(s.numerator), s.denominator) == 1
