"""Exact rational helpers.

All physical quantities in this package (lengths, times, powers) are kept as
`fractions.Fraction` so that boundary comparisons such as floor(3000 m /
0.0003 m) are decided exactly, never through binary floats.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import ParseError

RationalLike = int | str | Fraction | Decimal | float


def to_fraction(x: RationalLike) -> Fraction:
    """Convert to Fraction, reading floats through their shortest decimal repr.

    A literal like 1e-12 therefore means exactly 10**-12, not the nearest
    binary double. Infinities and NaNs raise ParseError.
    """
    if isinstance(x, bool):
        raise ParseError("booleans are not numbers")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        x = str(x)
    try:
        d = Decimal(x)
    except (InvalidOperation, ValueError, TypeError) as exc:
        raise ParseError(f"not a finite decimal number: {x!r}") from exc
    if not d.is_finite():
        raise ParseError(f"not a finite decimal number: {x!r}")
    return Fraction(d)


def fraction_str(f: Fraction) -> str:
    """Render a Fraction as an exact decimal string when one exists, else 'p/q'.

    Used for JSON reports: the output parses back to the identical rational.
    """
    if f.denominator == 1:
        return str(f.numerator)
    den = f.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = abs(f.numerator) * 10**digits // f.denominator
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if f.numerator < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
