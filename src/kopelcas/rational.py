"""Exact rational scalars and their text forms.

Everything exact in this package is built on ``fractions.Fraction``: arbitrary
precision, always stored in lowest terms with a positive denominator.  The
helpers here pin down the text forms the CLI accepts and prints.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a decimal string into an exact Fraction.

    Decimal strings convert exactly ("3.25" -> 13/4), never through a float.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or just "p" when the denominator is 1."""
    return str(q)


def format_dyadic(n: int, k: int) -> str:
    """format_rational(Fraction(n, 2**k)) for k >= 0, with no Fraction built.

    Lowest terms strip the trailing zero bits n and 2**k share.
    """
    if not n:
        return "0"
    shift = min((n & -n).bit_length() - 1, k)
    n, k = n >> shift, k - shift
    return f"{n}/{1 << k}" if k else str(n)


def coerce_rational(value) -> Fraction:
    """Accept int or Fraction; reject float to keep arithmetic exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")
