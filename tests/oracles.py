"""Reference routes that only the tests read.

sturm_sign_count counts the roots of a polynomial in an interval on its
Sturm chain, the oracle for every isolating window; coefficient_of views an
MPoly as univariate in one variable, the oracle for dense coefficient lists
and the Sylvester matrix.  point_counts and point_remainder read a
model._Point as a scan cell reads its row: the row's count at the point's
v (model._Row.counts), and the quadratic Q of model._remainder at the
point's cubic and speed terms.
"""

from kopelcas import model
from kopelcas.exactpoly import VARS, MPoly, _int_clear
from kopelcas.rational import coerce_rational
from kopelcas.realroots import _eval_int_at, _roots_between, _sturm_chain, _univar


def sturm_sign_count(p: MPoly, lo, hi) -> int:
    """Number of distinct real roots of a square-free p in (lo, hi].

    The endpoints must not be roots (then (lo, hi] holds the same roots as
    the open interval, and the Sturm count is exact).  lo and hi are exact
    rationals (coerce_rational): a float is refused, not read at its binary value.
    """
    lo, hi = coerce_rational(lo), coerce_rational(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    var, dense = _univar(p)
    if var is None:
        if not dense:
            raise ValueError("zero polynomial")
        return 0
    coeffs = _int_clear(dense)
    ends = [(t.numerator, t.denominator) for t in (lo, hi)]
    if any(_eval_int_at(coeffs, num, den) == 0 for num, den in ends):
        raise ValueError("interval endpoint is a root")
    return _roots_between(_sturm_chain(coeffs), ends)


def coefficient_of(poly: MPoly, name: str, power: int) -> MPoly:
    """Coefficient of name**power, viewing poly as univariate in name."""
    i = VARS.index(name)
    return MPoly({exp[:i] + (0,) + exp[i + 1:]: c for exp, c in poly.terms() if exp[i] == power})


def point_counts(point) -> tuple:
    """(positive, stable) at point, as its row counts a scan cell."""
    return point.row.counts(point.v, point.tables[1])


def point_remainder(point) -> tuple:
    """Q of model._remainder at point's cubic and speed terms."""
    return model._remainder(point.cubic, *point.row.speed_terms(point.tables[1], point.content))
