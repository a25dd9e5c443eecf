"""Reference routes that only the tests read.

sturm_sign_count counts the roots of a polynomial in an interval on its
Sturm chain, the oracle for every isolating window; coefficient_of views an
MPoly as univariate in one variable, the oracle for dense coefficient lists
and the Sylvester matrix.  remainder is the quadratic Q that a scan cell's
bracket rule (model._bracket_counts) judges stability by, quadratic_bounds
the bounds it takes of Q over a bracket, and bracket_counts that rule
again, from the full call's brackets and exact signs of Q alone.
point_counts and point_remainder read a model._Point as a scan cell reads
its row: the row's count at the point's v (model._Row.counts), and Q at the
point's cubic and speed terms.
"""

from kopelcas.exactpoly import VARS, MPoly, _int_clear
from kopelcas.rational import coerce_rational
from kopelcas.realroots import (
    AlgebraicReal, _cubic_brackets, _eval_int_at, _roots_between, _sign_dense_at, _sturm_chain,
    _univar,
)


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


def remainder(cubic, k: int, m: int) -> tuple:
    """Q = K + M (3 c0 + 2 c1 x + c2 x**2), the modulus test at a root of the cubic.

    cubic is a point's primitive cubic and k, m its speed terms K and M
    (model._Row.finish).  The cubic C = c0 + c1 x + c2 x**2 + c3 x**3 has
    x C' = 3 C less 3 c0 + 2 c1 x + c2 x**2, so Q is the modulus condition
    K - M F of model._Point._make_conditions plus 4 M C: the two agree at
    every root of C.
    """
    c0, c1, c2, _ = cubic
    return k + 3 * m * c0, 2 * m * c1, m * c2


def quadratic_bounds(q, a: int, b: int, k: int) -> tuple:
    """Bounds of 2**(2k) q(x) over x in [a / 2**k, b / 2**k], for 0 <= a <= b and q1 > 0 > q2.

    x and x**2 both rise there, so the linear term is least at a and the
    square term at b.
    """
    q0, q1, q2 = q
    q0 <<= 2 * k
    return q0 + (q1 * a << k) + q2 * b * b, q0 + (q1 * b << k) + q2 * a * a


def bracket_counts(cubic, k: int, m: int, disc: int) -> tuple | None:
    """model._bracket_counts at a given disc, from the full call's brackets and exact signs.

    The outer brackets are the first and last of _cubic_brackets(cubic,
    disc), all of its brackets, and each bracketed root is stable when Q
    (remainder) is positive there, its sign asked exactly.  None where the
    rule gives way: the full call fails, a bracket's lower sign is not -1,
    or the lowest bracket reaches below 0.
    """
    if disc < 0 <= cubic[0]:
        return 0, 0
    full = _cubic_brackets(cubic, disc)
    if full is None:
        return None
    outer = [full[0], full[-1]] if len(full) == 3 else full
    if any(slo != -1 for _, slo in outer) or outer[0][0][0] < 0:
        return None
    q = remainder(cubic, k, m)
    stable = sum(_sign_dense_at(q, AlgebraicReal._from_window("x", cubic, a, b, j, 1, -1)) > 0
                 for (a, b, j), _ in outer)
    return 2 * len(outer) - 1, stable


def point_counts(point) -> tuple:
    """(positive, stable) at point, as its row counts a scan cell."""
    return point.row.counts(point.v, point.tables[1])


def point_remainder(point) -> tuple:
    """Q of remainder at point's cubic and speed terms."""
    return remainder(point.cubic, *point.speed_terms)
