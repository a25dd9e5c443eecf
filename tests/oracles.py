"""Reference routes that only the tests read.

sturm_sign_count counts the roots of a polynomial in an interval on its
Sturm chain, the oracle for every isolating window; coefficient_of views an
MPoly as univariate in one variable, the oracle for dense coefficient lists
and the Sylvester matrix, and dense_x lists its rational x-coefficients;
spy_chains records the Sturm chains realroots builds.  speed_terms and
hand_conditions are the stability conditions read off a point's primitive
cubic by hand, the oracle for the forms bound from the frozen conditions;
remainder is the quadratic Q that a scan cell's bracket rule
(model._bracket_counts) judges stability by, written out by hand from the
cubic and speed terms, quadratic_bounds the bounds the rule takes of Q over
a bracket, and bracket_counts that rule again, from the full call's
brackets and exact signs of a given Q alone.  point_counts and
point_remainder read a model._Point as a scan cell reads its row, the row
rebuilt from the point's tables: the row's count at the point's v
(model._Row.counts), and Q at the point as the row binds it.
replayed_compare, replayed_sign,
replayed_refine and replayed_step run a root's queries as loops of their
own, each halving a shadow window and writing it back at the end, the
oracle for the window every query of AlgebraicReal leaves.
"""

import math
from fractions import Fraction

from kopelcas import model, realroots
from kopelcas.exactpoly import VARS, MPoly, _int_clear, _int_gcd, bind
from kopelcas.rational import coerce_rational
from kopelcas.realroots import (
    _REFINE_CAP, _ZERO_TEST_ROUND, AlgebraicReal, _cubic_brackets, _eval_dyadic, _eval_int_at,
    _halve, _interval_horner, _roots_between, _sign_dense_at, _sturm_chain, _univar,
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


def dense_x(poly) -> list:
    """The ascending x-coefficients of poly, as Fractions."""
    return [coefficient_of(poly, "x", k).as_fraction() for k in range(int(poly.degree("x")) + 1)]


def spy_chains(monkeypatch) -> list:
    """Record the polynomial of every Sturm chain that realroots builds."""
    chains = []
    build = realroots._sturm_chain
    monkeypatch.setattr(realroots, "_sturm_chain", lambda c: chains.append(tuple(c)) or build(c))
    return chains


def speed_terms(point) -> tuple:
    """(K, M) at point: K = (pa qb + pb qa) scale and M = pa pb content.

    For a = pa / qa and b = pb / qb, scale the common denominator of the
    point's tables and content the gcd its primitive cubic divided out, K
    and M are a + b and a b content / scale, both times qa qb scale.
    """
    _, _, ap, bp = point.tables
    scale = math.prod(t[0] for t in point.tables)
    content = math.gcd(*bind(model._CUBIC_TERMS, point.tables))
    return (ap[1] * bp[0] + bp[1] * ap[0]) * scale, ap[1] * bp[1] * content


def hand_conditions(point) -> tuple:
    """The fold, flip and modulus conditions at point, read off its primitive cubic by hand.

    The cubic bound at point is content / scale times the primitive cubic
    C, so on the locus the fold a b (C + x C') times qa qb scale is M F for
    F = C + x C'; the flip is the fold plus 2 (2 - a - b), and the modulus
    a + b less the fold.  So F, M F + 2 (2 qa qb scale - K) and K - M F
    are positive multiples of the three conditions, the second being F
    itself where the trace term is 0, at a = b = 1.
    """
    k, m = speed_terms(point)
    _, _, ap, bp = point.tables
    fold = [i * c for i, c in enumerate(point.cubic, 1)]
    mf = [m * d for d in fold]
    trace = 2 * (2 * ap[0] * bp[0] * math.prod(t[0] for t in point.tables) - k)
    flip = [mf[0] + trace, *mf[1:]] if trace else fold
    return fold, flip, [k - mf[0], *(-d for d in mf[1:])]


def remainder(cubic, k: int, m: int) -> tuple:
    """Q = K + M (3 c0 + 2 c1 x + c2 x**2), the modulus test at a root of the cubic.

    cubic is a point's primitive cubic and k, m its speed terms K and M
    (speed_terms).  The cubic C = c0 + c1 x + c2 x**2 + c3 x**3 has
    x C' = 3 C less 3 c0 + 2 c1 x + c2 x**2, so Q is the modulus condition
    K - M F of hand_conditions plus 4 M C: the two agree at every root of C.
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


def bracket_counts(cubic, q, disc: int) -> tuple | None:
    """model._bracket_counts at a given disc and Q, from the full call's brackets and exact signs.

    The outer brackets are the first and last of _cubic_brackets(cubic,
    disc), all of its brackets, and each bracketed root is stable when q,
    Q's ascending coefficients, is positive there, its sign asked exactly.
    None where the rule gives way: the full call fails, a bracket's lower
    sign is not -1, or the lowest bracket reaches below 0.
    """
    if disc < 0 <= cubic[0]:
        return 0, 0
    full = _cubic_brackets(cubic, disc)
    if full is None:
        return None
    outer = [full[0], full[-1]] if len(full) == 3 else full
    if any(slo != -1 for _, slo in outer) or outer[0][0][0] < 0:
        return None
    stable = sum(_sign_dense_at(q, AlgebraicReal._from_window("x", cubic, a, b, j, 1, -1)) > 0
                 for (a, b, j), _ in outer)
    return 2 * len(outer) - 1, stable


def _row(point):
    """The row of point's u, a and b, staged afresh."""
    up, _, ap, bp = point.tables
    return model._Row(up, ap, bp)


def point_counts(point) -> tuple:
    """(positive, stable) at point, as its row counts a scan cell."""
    return _row(point).counts(point.v, point.tables[1])


def point_remainder(point) -> tuple:
    """Q at point, as its row binds it for a scan cell."""
    return _row(point).finish(point.tables[1])[1]


# A replay takes a root's defining coefficients, its hint (or None) and its
# state: its window (a, b, k), or its exact value as a Fraction.  It gives
# the query's answer, where it has one, and the state the query leaves.

def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _kept(a: int, b: int, k: int):
    """The state a halved window leaves: the exact midpoint when it hit the root."""
    return Fraction(a, 1 << k) if a == b else (a, b, k)


def _lower_sign(coeffs, a: int, k: int) -> int:
    return _sign(_eval_dyadic(coeffs, a, k))


def replayed_compare(coeffs, hint, state, other) -> tuple:
    """(sign of the root less the rational other, state after)."""
    if isinstance(state, Fraction):
        return _sign(state - other), state
    a, b, k = state
    slo, first = _lower_sign(coeffs, a, k), True
    num, den = other.numerator, other.denominator
    while True:
        if num << k <= a * den:
            return 1, _kept(a, b, k)
        if num << k >= b * den:
            return -1, _kept(a, b, k)
        if first and _eval_int_at(coeffs, num, den) == 0:
            return 0, Fraction(other)
        first = False
        a, b, k = _halve(coeffs, slo, a, b, k, hint)


def replayed_sign(coeffs, hint, state, qi) -> tuple:
    """(sign of the trimmed integer polynomial qi at the root, state after)."""
    if len(qi) <= 1:
        return (_sign(qi[0]) if qi else 0), state
    if isinstance(state, Fraction):
        return _sign(_eval_int_at(qi, state.numerator, state.denominator)), state
    a, b, k = state
    slo = _lower_sign(coeffs, a, k)
    for round_no in range(_REFINE_CAP):
        low, high = _interval_horner(qi, a, b, k)
        if low > 0:
            return 1, (a, b, k)
        if high < 0:
            return -1, (a, b, k)
        if round_no == _ZERO_TEST_ROUND:
            d = _int_gcd(qi, coeffs)
            if len(d) > 1 and (_eval_dyadic(d, a, k) > 0) != (_eval_dyadic(d, b, k) > 0):
                return 0, (a, b, k)
        a, b, k = _halve(coeffs, slo, a, b, k, hint)
        if a == b:
            return _sign(_eval_dyadic(qi, a, k)), Fraction(a, 1 << k)
    raise RuntimeError("sign determination failed to converge")


def replayed_refine(coeffs, hint, state, width):
    """The state of the root refine(width) returns, a Fraction width > 0."""
    if isinstance(state, Fraction):
        return state
    a, b, k = state
    slo = _lower_sign(coeffs, a, k)
    while a != b and (b - a) * width.denominator > width.numerator << k:
        a, b, k = _halve(coeffs, slo, a, b, k, hint)
    return _kept(a, b, k)


def replayed_step(coeffs, hint, state):
    """The state of the root _step returns."""
    if isinstance(state, Fraction):
        return state
    a, b, k = state
    return _kept(*_halve(coeffs, _lower_sign(coeffs, a, k), a, b, k, hint))
