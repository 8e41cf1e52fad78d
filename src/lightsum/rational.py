"""Exact rational helpers and the package's one number parser.

All physical quantities in this package (lengths, times, powers) are kept as
`fractions.Fraction` so that boundary comparisons such as floor(3000 m /
0.0003 m) are decided exactly, never through binary floats.

Every number that enters from outside, instance values and targets as well as
physical parameters, is read by :func:`parse_decimal`: an int, a Decimal or a
decimal string in plain or exponent notation ("4.001", "1e-3"). Floats are
refused everywhere, because their binary value rarely equals the decimal the
caller meant; pass the number as a string instead. Booleans, other types,
NaN, infinities and decimal exponents past MAX_DECIMAL_EXPONENT are refused
as well.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import Overflow, ParseError

RationalLike = int | str | Fraction | Decimal

# A number whose adjusted decimal exponent is larger than this in magnitude
# is rejected before anything builds 10^exponent, which for an exponent like
# 1e7 alone takes seconds. Zero is exempt: it converts without that power.
MAX_DECIMAL_EXPONENT = 1000


def parse_decimal(x: int | str | Decimal) -> Decimal:
    """Parse a finite decimal number exactly; the one place that decides
    which inputs are numbers."""
    if isinstance(x, str):
        try:
            d = Decimal(x.strip())
        except (InvalidOperation, ValueError) as exc:
            raise ParseError(f"not a finite decimal number: {x!r}") from exc
    elif isinstance(x, Decimal):
        d = x
    elif isinstance(x, bool):
        raise ParseError("booleans are not numbers")
    elif isinstance(x, int):
        d = Decimal(x)
    elif isinstance(x, float):
        raise ParseError(
            f"floats are not accepted ({x!r}); pass the number as a decimal string"
        )
    else:
        raise ParseError(f"cannot parse {type(x).__name__} as a decimal number")
    if not d.is_finite():
        raise ParseError(f"not a finite decimal number: {x!r}")
    if d and abs(d.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise Overflow(
            f"{d} has a decimal exponent past the ceiling of 10^±{MAX_DECIMAL_EXPONENT}"
        )
    return d


def to_fraction(x: RationalLike) -> Fraction:
    """A Fraction as it is; anything else through :func:`parse_decimal`."""
    if isinstance(x, Fraction):
        return x
    return Fraction(parse_decimal(x))


def _digits(i: int) -> str:
    # Through Decimal, which is exact and, unlike str(int), has no digit limit.
    return str(Decimal(i))


def fraction_str(f: Fraction) -> str:
    """Render a Fraction as an exact decimal string when one exists, else 'p/q'.

    Used for JSON reports: the output parses back to the identical rational.
    """
    if f.denominator == 1:
        return _digits(f.numerator)
    den = f.denominator
    # den = 2^twos * odd, and the decimal is finite iff odd = 5^fives. A power
    # 5^b has floor(b * log2(5)) + 1 bits, so bits / log2(5) rounds to b.
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    fives = round(odd.bit_length() / math.log2(5))
    if 5**fives != odd:
        return f"{_digits(f.numerator)}/{_digits(den)}"
    digits = max(twos, fives)
    # |f| * 10^digits, by multiplying with 10^digits / den
    scaled = (abs(f.numerator) << (digits - twos)) * 5 ** (digits - fives)
    text = _digits(scaled).rjust(digits + 1, "0")
    sign = "-" if f.numerator < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
