import random
from fractions import Fraction

import pytest

from gynibell.core import _parse_fraction


def test_rat_normalizes_sign_and_gcd():
    r = _parse_fraction("6/-4")
    assert r.numerator == -3 and r.denominator == 2


def test_rat_zero():
    assert _parse_fraction("0/7") == 0
    assert _parse_fraction("0/7").denominator == 1


def test_rat_reduces_headline_ratio():
    # the stored N=7 ratio reduces in lowest terms
    assert _parse_fraction("64/42") == Fraction(32, 21)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        _parse_fraction("1/0")


def test_serialization_round_trip():
    cases = [Fraction(-3, 2), Fraction(5), Fraction(0), Fraction(32, 21)]
    for r in cases:
        assert _parse_fraction(str(r)) == r
    assert str(Fraction(5)) == "5"
    assert str(Fraction(-3, 2)) == "-3/2"


def test_parser_accepts_integer_literals_only():
    assert _parse_fraction("3/-4") == Fraction(-3, 4)
    assert _parse_fraction("+3") == 3
    assert _parse_fraction(" 7/2 ") == Fraction(7, 2)
    for bad in ("0.5", "3/", "/4", "1/2/3", "1e3", ""):
        with pytest.raises(ValueError):
            _parse_fraction(bad)


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
