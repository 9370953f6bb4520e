"""Exact rational arithmetic.

Every exact computation in the package (simplex pivots, polytope bounds,
affine ranks) runs on arbitrary-precision rationals.  ``fractions.Fraction``
already keeps values in canonical lowest terms with a positive denominator,
so ``Rat`` is an alias rather than a reimplementation; this module adds the
constructor and the string serialization the rest of the package
standardizes on.

Serialized form is ``"p/q"`` in lowest terms, with the ``"/q"`` part omitted
when the denominator is 1.  Values are immutable and safe to share between
threads.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction


def rat(numerator: int, denominator: int = 1) -> Fraction:
    """Build a rational in canonical reduced form; the sign sits on the numerator."""
    if denominator == 0:
        raise ZeroDivisionError("zero denominator")
    return Fraction(numerator, denominator)


def rat_to_str(r: Fraction) -> str:
    """Serialize to ``"p/q"`` (or just ``"p"`` when the denominator is 1)."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse the ``"p/q"`` form produced by :func:`rat_to_str`."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return rat(int(num), int(den))
    return Fraction(int(s))
