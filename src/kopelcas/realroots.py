"""Real-root isolation and exact sign evaluation for univariate polynomials.

A real algebraic number is stored as a square-free defining polynomial with
primitive integer coefficients plus an isolating window with dyadic endpoints
(a / 2**k, b / 2**k), kept as the integers a, b, k.  The endpoints are never
roots, so the root lies strictly inside; a rational root is stored exactly, as
a Fraction, instead.  Isolation starts from a power-of-two root bound,
counts roots and bisects, so every endpoint stays dyadic; a bisection point
that hits a root ends the walk with that exact rational root, so no
endpoint is ever a root.  The windows are the largest nodes of that
bisection tree that hold one root each, fixed by where the roots are, so
any exact root count gives the same ones.  Roots are counted by Sturm
sequences, or, for a cubic, against certified brackets around all its real
roots.  A polynomial's Sturm chain is also its remainder sequence with f':
its last element is gcd(f, f'), so a constant there proves f square-free,
and Yun's square-free decomposition runs only when it is not.  Every
rational root is then snapped: a rational root of a primitive polynomial
is a multiple of 1 / |lead| (the rational root theorem), so a window
narrowed to that width, by exact Newton steps that exact signs certify,
holds at most one candidate, and one exact evaluation decides it.  A
polynomial with rational roots, hit or snapped, is divided by them, and
the rest is isolated afresh.

Every narrowing a root keeps is one step, AlgebraicReal._bisect, which
halves its window in place; a midpoint on the root makes it exact.
Queries repeat it on the root until they settle, so each starts from the
window the last one left.  A sign query unsettled by interval bounds after
_ZERO_TEST_ROUND halvings computes the gcd that certifies an exact zero.

All decisions below (membership, signs, comparisons) are certified by exact
integer arithmetic: polynomials are scaled by positive integers only and
dyadic points by shifts, which keeps every sign.  Fractions appear only at
the edges (MPoly input, rational roots, lo/hi).  Floats propose in one
place only, and exact sign evaluations certify: a cubic's real roots
(_cubic_brackets), where closed-form float roots, unpolished and already
ascending, propose one narrow dyadic bracket per real root, and the signs
at the bracket ends certify them (or the gap between the outer two the
middle one), or give way to Sturm isolation.  Scan
cells ask for the lowest and highest roots' brackets only, from those two
seeds alone, and count from them, rational roots left unsnapped
(model._bracket_counts); isolation (_isolate_int) counts roots against
all of them and keeps each as its root's hint.  The
nearest double to a root (approx) is one exact Newton point, rounded
once; signs at the midpoints to its neighbours certify it, or bisection
finds it, so it is the correctly rounded root and no decision reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import repeat, zip_longest
from math import acos, copysign, cos, frexp, inf, nextafter, pi, sqrt

from .exactpoly import (
    MPoly, _dense_coeffs, _dense_trim, _exact_div, _int_clear, _int_gcd, _primitive,
    _pseudo_rem, dense_to_mpoly,
)
from .rational import coerce_rational, format_dyadic, format_rational

_REFINE_CAP = 4000  # safety valve; no certified path needs anywhere near this

# A sign query asks for gcd(q, f) only after this many rounds of interval
# bounds have failed to settle: nonzero queries on scan cells settle by round
# 9 but for a rare few, so almost no query pays for a gcd.  A true zero
# costs the extra halvings before the gcd proves it.
_ZERO_TEST_ROUND = 10

# A cubic's bracket reaches past its float seed's error bound: this many
# times the sum of its terms' sizes, as Horner's rounding error at degree 3
# is below 6 * 2**-53 times that sum.
_FLOAT_NOISE = 2.0**-48

# 2 pi j / 3 at j = 1 and 2, to the bit: 2 pi j is exact, so each is one rounding
_TWO_THIRDS_PI = 2 * pi / 3
_FOUR_THIRDS_PI = 4 * pi / 3


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _univar(p: MPoly) -> tuple[str | None, list[int | Fraction]]:
    used = p.variables()
    if len(used) > 1:
        raise ValueError(f"expected a univariate polynomial, got variables {sorted(used)}")
    if not used:
        return None, ([p.as_fraction()] if not p.is_zero() else [])
    name = next(iter(used))
    return name, _dense_coeffs(p, name)


def _derivative(coeffs) -> list[int]:
    return [coeffs[k] * k for k in range(1, len(coeffs))]


def _minus(f, g) -> list[int]:
    return _dense_trim([x - y for x, y in zip_longest(f, g, fillvalue=0)])


def _eval_int_at(coeffs, num: int, den: int) -> int:
    """Sign-faithful scaled value: den**deg * p(num/den), den > 0."""
    it = reversed(coeffs)
    acc = next(it)
    dp = 1
    for c in it:
        dp *= den
        acc = acc * num + c * dp
    return acc


def _eval_dyadic(coeffs, a: int, k: int) -> int:
    """Sign-faithful scaled value: 2**(k*deg) * p(a / 2**k)."""
    it = reversed(coeffs)
    acc = next(it)
    shift = 0
    for c in it:
        shift += k
        acc = acc * a + (c << shift)
    return acc


def _interval_horner(coeffs, a: int, b: int, k: int) -> tuple[int, int]:
    """Bounds of 2**(k*deg) * p(x) over x in [a / 2**k, b / 2**k] (interval Horner)."""
    it = reversed(coeffs)
    lo = hi = next(it)
    shift = 0
    for c in it:
        shift += k
        c <<= shift
        if a >= 0:
            lo, hi = (lo * a if lo >= 0 else lo * b) + c, (hi * b if hi >= 0 else hi * a) + c
        elif b <= 0:
            lo, hi = (hi * a if hi >= 0 else hi * b) + c, (lo * a if lo <= 0 else lo * b) + c
        else:
            p1, p2, p3, p4 = lo * a, lo * b, hi * a, hi * b
            lo, hi = min(p1, p2, p3, p4) + c, max(p1, p2, p3, p4) + c
    return lo, hi


def _square_free_int(f, a0) -> list[tuple[tuple[int, ...], int]]:
    """Yun's algorithm on a primitive integer polynomial of degree >= 1.

    a0 is gcd(f, f'), primitive, of either sign: the last element of f's
    Sturm chain will do.  Factors come back primitive with a positive leading
    coefficient (each is a gcd, or f itself).  Each division is by a
    primitive divisor, so every quotient stays integral.
    """
    if len(a0) == 1:
        f = _primitive(f)
        return [(f if f[-1] > 0 else tuple(-c for c in f), 1)]
    df = _derivative(f)
    b = _exact_div(f, a0)
    d = _minus(_exact_div(df, a0), _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        ai = _int_gcd(b, d)
        if len(ai) > 1:
            out.append((ai, i))
        b = _exact_div(b, ai)
        d = _minus(_exact_div(d, ai), _derivative(b))
        i += 1
    return out


def _sturm_chain(coeffs) -> list[tuple[int, ...]]:
    """Primitive remainder sequence of (f, f'), negated at each step.

    For a square-free f this is a Sturm sequence; otherwise it ends in a
    nonconstant element, gcd(f, f') up to sign.  Remainders are taken up to
    a positive factor, which keeps the signs that the variation count reads.
    """
    chain = [tuple(coeffs), _primitive(_derivative(coeffs))]
    while len(chain[-1]) > 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _roots_between(chain, ends) -> int:
    """Distinct roots of chain[0] in (lo, hi], counted on its _sturm_chain.

    ends are lo and hi as (numerator, denominator) pairs, neither a root.
    """
    low, high = (_variations(_eval_int_at(c, num, den) for c in chain) for num, den in ends)
    return low - high


def _variations(values) -> int:
    """Sign changes along a sequence of values, zeros skipped."""
    count = 0
    prev = 0
    for value in values:
        if value:
            if prev and (value > 0) != (prev > 0):
                count += 1
            prev = value
    return count


def _halve(coeffs, slo: int, a: int, b: int, k: int, hint=None) -> tuple[int, int, int]:
    """One bisection step of the window (a, b) / 2**k around a simple root.

    slo is the polynomial's sign left of the root.  Returns the half that
    keeps the root, or (m, m, k) when the midpoint m / 2**k is the root.
    hint, a dyadic (a, b, k) that also isolates the root, decides a midpoint
    outside it with no evaluation.
    """
    m = a + b
    k += 1
    if hint is not None:
        ha, hb, hk = hint
        if m << hk <= ha << k:
            return m, b << 1, k
        if m << hk >= hb << k:
            return a << 1, m, k
    s = _sign(_eval_dyadic(coeffs, m, k))
    if s == 0:
        return m, m, k
    if s == slo:
        return m, b << 1, k
    return a << 1, m, k


def _dyadic_window(coeffs, lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """A dyadic window inside (lo, hi) around the one simple root there.

    Returns a == b when a grid point hits the root.  Raises ValueError
    unless coeffs changes sign over (lo, hi) and a Sturm count finds one
    distinct root there, which gcd(f, f') does not share.
    """
    ends = ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
    if _eval_int_at(coeffs, *ends[0]) * _eval_int_at(coeffs, *ends[1]) >= 0:
        raise ValueError("(lo, hi) must isolate a simple root with non-root endpoints")
    # the ends are no roots of f, so none of gcd(f, f') either
    chain = _sturm_chain(coeffs)
    if (_roots_between(chain, ends) != 1
            or len(chain[-1]) > 1 and _roots_between(_sturm_chain(chain[-1]), ends)):
        raise ValueError("(lo, hi) must hold exactly one root, and a simple one")
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    while True:
        a = -((-lo.numerator << k) // lo.denominator)  # ceil(lo * 2**k)
        b = (hi.numerator << k) // hi.denominator  # floor(hi * 2**k)
        if a < b:
            va, vb = _eval_dyadic(coeffs, a, k), _eval_dyadic(coeffs, b, k)
            if va == 0 or vb == 0:
                return (a, a, k) if va == 0 else (b, b, k)
            if (va > 0) != (vb > 0):
                return a, b, k
        k += 1


def _double(n: int, k: int) -> float:
    """n / 2**k rounded to a double, an infinity past the double range."""
    try:
        return n / (1 << k)
    except OverflowError:
        return inf if n > 0 else -inf


def _bisect_double(coeffs, slo: int, a: int, b: int, k: int) -> float:
    """The double nearest the simple root in (a, b) / 2**k, by bisection.

    Rounding is monotone: once both ends round to the same double, so does
    every point between them.  A midpoint that hits the root is rounded
    itself, half to even.  An end past the double range rounds to an
    infinity; a window wholly past it raises OverflowError.
    """
    while (d := _double(a, k)) != _double(b, k):
        a, b, k = _halve(coeffs, slo, a, b, k)
    if d in (inf, -inf):
        raise OverflowError("the root lies beyond the double range")
    return d


def _seed(coeffs, a: int, b: int, k: int) -> float:
    """One exact Newton step from the midpoint of (a, b) / 2**k, rounded once; uncertified.

    It raises at a zero slope (ZeroDivisionError) or past the double range.
    """
    m, j = a + b, k + 1
    f, d = _eval_dyadic(coeffs, m, j), _eval_dyadic(_derivative(coeffs), m, j)
    return (m * d - f) / (d << j)


def _side(coeffs, slo: int, a: int, b: int, k: int, lo: float, hi: float) -> int:
    """Where the root in (a, b) / 2**k lies against the midpoint of doubles lo < hi.

    1 above it, -1 below it, 0 on it.  A midpoint outside the window is
    settled by the window alone.
    """
    n1, d1 = lo.as_integer_ratio()
    n2, d2 = hi.as_integer_ratio()
    den = max(d1, d2)  # both are powers of two
    m, j = n1 * (den // d1) + n2 * (den // d2), den.bit_length()  # midpoint m / 2**j
    if m << k <= a << j:
        return 1
    if m << k >= b << j:
        return -1
    s = _sign(_eval_dyadic(coeffs, m, j))
    return 0 if s == 0 else (1 if s == slo else -1)


def _nearest_double(coeffs, slo: int, a: int, b: int, k: int) -> float:
    """The double nearest the simple root in (a, b) / 2**k, ties to even.

    A double d is the nearest exactly when the root lies strictly between
    the midpoints from d to its two neighbours, which two exact sign
    evaluations decide.  d is _seed's exact Newton point.  A seed they do
    not certify (one or more ulps off, a midpoint that is the root, a zero
    seed, or none, at a zero slope or past the double range) gives way to
    bisection, which gives the same double.
    """
    try:
        d = _seed(coeffs, a, b, k)
        if (d and _side(coeffs, slo, a, b, k, nextafter(d, -inf), d) > 0
                and _side(coeffs, slo, a, b, k, d, nextafter(d, inf)) < 0):
            return d
    except (OverflowError, ZeroDivisionError):
        pass
    return _bisect_double(coeffs, slo, a, b, k)


def _cubic_seeds(cf, three: bool, outer: bool = False) -> list[float]:
    """The real roots of a monic cubic in floats by the closed form, uncertified.

    cf are its coefficients, highest first.  three says it has three real
    roots, taken in trigonometric form, r cos(phi - 2 pi j / 3) less c2 / 3
    for j = 2, 1, 0: in that order they ascend, as
    cos(phi + 2 pi / 3) <= cos(phi - 2 pi / 3) <= cos(phi) for phi in
    [0, pi / 3], and outer leaves the middle one out.  Otherwise its one
    real root comes from Cardano's formula.  Float failures raise.
    """
    _, c2, c1, c0 = cf
    p = c1 - c2 * c2 / 3  # t = x + c2 / 3 solves t**3 + p t + q = 0
    q = (2 * c2 * c2 / 27 - c1 / 3) * c2 + c0
    if three:
        r = 2 * sqrt(-p / 3)
        phi = acos(max(-1.0, min(1.0, 3 * q / (p * r)))) / 3
        low, high = r * cos(phi - _FOUR_THIRDS_PI) - c2 / 3, r * cos(phi) - c2 / 3
        return [low, high] if outer else [low, r * cos(phi - _TWO_THIRDS_PI) - c2 / 3, high]
    # -q/2 -+ sqrt(D) taken away from zero, so it does not cancel
    w = -q / 2 - copysign(sqrt(q * q / 4 + p * p * p / 27), q)
    t = copysign(abs(w) ** (1 / 3), w)
    return [t - p / (3 * t) - c2 / 3]


def _cubic_discriminant(c) -> int:
    """The discriminant of the cubic with ascending coefficients c."""
    d0, d1, d2, d3 = c
    return (18 * d3 * d2 * d1 * d0 - 4 * d2**3 * d0 + d2 * d2 * d1 * d1
            - 4 * d3 * d1**3 - 27 * d3 * d3 * d0 * d0)


def _seed_bracket(coeffs, monic, x: float):
    """The bracket ((a, b, k), slo) a cubic's float seed x proposes, if its ends certify it.

    coeffs are the cubic's ascending integer coefficients and monic the
    floats (c2, c1, c0) of its monic form, then their magnitudes.  The
    dyadic bracket (a / 2**k, b / 2**k) reaches past x's float error bound
    (residual over slope, plus rounding) both ways.  A strict sign change
    between its exactly evaluated ends, slo to -slo, proves a root inside;
    with none, or at a float overflow, zero division or NaN, it gives None.
    """
    c2, c1, c0, a2, a1, a0 = monic
    try:
        f1 = x + c2
        f2 = f1 * x + c1
        ax = abs(x)
        # the float error bound is FLOAT_NOISE times sum |c_i x**i|
        size = ((ax + a2) * ax + a1) * ax + a0
        # 2**-k is above the error bound (or 1), and x is in [m, m + 1) / 2**k
        k = -frexp((abs(f2 * x + c0) + size * _FLOAT_NOISE) / abs((x + f1) * x + f2))[1]
        if k < 0:
            k = 0
        n, den = x.as_integer_ratio()
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    m = (n << k) // den
    left, right = m - 1, m + 2
    d0, d1, d2, d3 = coeffs
    # 2**(3k) times the cubic at the bracket ends left / 2**k and right / 2**k
    e2, e1, e0 = d2 << k, d1 << 2 * k, d0 << 3 * k
    lv = ((d3 * left + e2) * left + e1) * left + e0
    rv = ((d3 * right + e2) * right + e1) * right + e0
    if lv < 0 < rv:
        return (left, right, k), -1
    if rv < 0 < lv:
        return (left, right, k), 1
    return None


def _meets(lower, upper) -> bool:
    """Whether the bracket upper starts below the end of the bracket lower."""
    (_, top, j), _ = lower
    (left, _, k), _ = upper
    return left << j < top << k


def _cubic_brackets(coeffs, disc: int, outer: bool = False) -> list | None:
    """Certified brackets ((a, b, k), slo) around every real root of a cubic, or None.

    coeffs are a cubic's ascending integer coefficients and disc its
    discriminant: disc > 0 means 3 simple real roots and disc < 0 means 1.
    Floats only choose where to look: each closed-form root of _cubic_seeds,
    unpolished and already ascending, seeds one (_seed_bracket).  As many
    pairwise disjoint brackets as real roots hold one root each and leave
    none outside; they come ascending, as each must start above the one
    before.  With disc > 0 the lowest and highest seeds' brackets come
    first and must share their lower sign: then they hold the outer roots,
    as the middle root's bracket has the other lower sign and three in one
    would make four.  So the gap between them, at the finer of their scales
    and with the other lower sign, brackets the middle root where its
    seed's bracket fails or meets either.  Anything else gives None and
    never an exception: disc zero, a float failure in the seeds, a seed
    count other than the real-root count, a failed outer bracket, or outer
    brackets that meet or differ in lower sign.  Two seeds the wrong way
    round lie within rounding of each other, and their brackets, wider than
    that, meet.

    With outer set and disc > 0 only the lowest and highest seeds are
    computed and bracketed, each as the full call brackets it, so these are
    the full call's first and last wherever either gives brackets.

    The code is float Horner and _eval_dyadic written out for degree 3, with
    the same float operations in the same order: the monic lead is 1.0, so
    its products with x are exact and drop out, and every bracket and slo
    is the generic loops' to the bit (_generic_brackets, the oracle in
    tests/test_realroots_properties.py).
    """
    if not disc:
        return None
    d0, d1, d2, d3 = coeffs
    try:
        lead = float(d3)
        c2, c1, c0 = float(d2) / lead, float(d1) / lead, float(d0) / lead
        seeds = _cubic_seeds((1.0, c2, c1, c0), disc > 0, outer)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    if len(seeds) != (1 if disc < 0 else 2 if outer else 3):
        return None
    monic = c2, c1, c0, abs(c2), abs(c1), abs(c0)
    low = _seed_bracket(coeffs, monic, seeds[0])
    if disc < 0 or not low:
        return low and [low]
    high = _seed_bracket(coeffs, monic, seeds[-1])
    if not high or low[1] != high[1] or _meets(low, high):
        return None
    if outer:
        return [low, high]
    mid = _seed_bracket(coeffs, monic, seeds[1])
    if not mid or _meets(low, mid) or _meets(mid, high):
        (_, b, j), slo = low
        (a, _, k), _ = high
        mid = (b << max(k - j, 0), a << max(j - k, 0), max(j, k)), -slo
    return [low, mid, high]


class AlgebraicReal:
    """A real root of a square-free integer polynomial, isolated exactly.

    Either the root is an exact rational (is_rational, lo == hi == value), or
    it is the one root strictly inside the dyadic window (a / 2**k, b / 2**k),
    whose endpoints are not roots.  lo and hi give the window as Fractions.
    A root isolated from certified brackets also keeps its bracket, another
    dyadic (a, b, k) that isolates it, as a hint: halving decides midpoints
    outside it with no evaluation, so the window stays what it would be.
    """

    __slots__ = ("_var", "_coeffs", "_value", "_a", "_b", "_k", "_slo", "_mult", "_approx",
                 "_hint")

    def __init__(self, var: str, coeffs: tuple[int, ...], lo, hi, multiplicity: int = 1):
        """lo == hi is the exact root lo; otherwise (lo, hi) isolates a simple root.

        A window that holds several roots, or a multiple one, is refused
        (ValueError) by a Sturm count, so no root is picked silently.  So are
        coefficients that are not ints (TypeError) or have no nonzero lead.
        """
        self._var, self._coeffs, self._mult, self._slo = var, tuple(coeffs), multiplicity, 0
        if not all(isinstance(c, int) for c in self._coeffs):
            raise TypeError("the defining polynomial takes int coefficients")
        if not self._coeffs or not self._coeffs[-1]:
            raise ValueError("the defining polynomial needs a nonzero lead")
        lo, hi = coerce_rational(lo), coerce_rational(hi)
        if lo > hi:
            raise ValueError("the window's lower end lies above its upper end")
        self._value = self._approx = self._hint = None
        if lo == hi:
            if _eval_int_at(self._coeffs, lo.numerator, lo.denominator):
                raise ValueError(f"{lo} is no root of the defining polynomial")
            self._value = lo
        else:
            self._adopt(*_dyadic_window(self._coeffs, lo, hi))

    @classmethod
    def _from_window(cls, var, coeffs, a, b, k, multiplicity, slo=0,
                     hint=None) -> "AlgebraicReal":
        out = cls.__new__(cls)
        out._var, out._coeffs, out._mult, out._slo = var, coeffs, multiplicity, slo
        out._value = out._approx = None
        out._hint = hint
        out._adopt(a, b, k)
        return out

    @classmethod
    def from_rational(cls, value, var: str = "x", multiplicity: int = 1) -> "AlgebraicReal":
        """The exact root value of (denominator x - numerator), built with no check."""
        value = coerce_rational(value)
        out = cls.__new__(cls)
        out._var, out._coeffs, out._mult, out._slo = \
            var, (-value.numerator, value.denominator), multiplicity, 0
        out._value, out._approx, out._hint = value, None, None
        return out

    @property
    def var(self) -> str:
        return self._var

    @property
    def lo(self) -> Fraction:
        return self._value if self._value is not None else Fraction(self._a, 1 << self._k)

    @property
    def hi(self) -> Fraction:
        return self._value if self._value is not None else Fraction(self._b, 1 << self._k)

    @property
    def multiplicity_in_source(self) -> int:
        return self._mult

    @property
    def is_rational(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValueError("not an exactly known rational root")
        return self._value

    @property
    def approx(self) -> float:
        """The double nearest the root (cached); the window is left as it is.

        It is an exact Newton point from the midpoint of the hint, or of the
        window with no hint, rounded once and certified (_nearest_double).
        A root past the double range raises OverflowError.
        """
        if self._approx is None:
            if self._value is not None:
                try:
                    self._approx = float(self._value)
                except OverflowError:
                    raise OverflowError("the root lies beyond the double range") from None
            else:
                self._approx = _nearest_double(
                    self._coeffs, self._lower_sign(), *(self._hint or (self._a, self._b, self._k)))
        return self._approx

    def __float__(self) -> float:
        return self.approx

    def _lower_sign(self) -> int:
        """Sign of the defining polynomial left of the root (at lo), cached."""
        if not self._slo:
            self._slo = _sign(_eval_dyadic(self._coeffs, self._a, self._k))
        return self._slo

    def _bisect(self) -> None:
        """Halve the window in place, hint honoured; a midpoint on the root makes it exact."""
        self._adopt(*_halve(self._coeffs, self._lower_sign(), self._a, self._b, self._k,
                            self._hint))

    def _step(self) -> "AlgebraicReal":
        """A copy one bisection step narrower; self itself when it is exact."""
        if self._value is not None:
            return self
        out = self._copy(self._mult)
        out._bisect()
        return out

    def _copy(self, multiplicity: int) -> "AlgebraicReal":
        """The same root, window and hint with its own multiplicity and caches."""
        if self._value is not None:
            return AlgebraicReal.from_rational(self._value, self._var, multiplicity)
        return AlgebraicReal._from_window(self._var, self._coeffs, self._a, self._b, self._k,
                                          multiplicity, self._slo, self._hint)

    def _adopt(self, a: int, b: int, k: int) -> None:
        """Keep the window (a, b) / 2**k, or the exact root a / 2**k when a == b.

        The represented number is unchanged, so the cached approximation
        stays valid.
        """
        if a == b:
            self._value = Fraction(a, 1 << k)
        else:
            self._a, self._b, self._k = a, b, k

    def refine(self, width_bound) -> "AlgebraicReal":
        """Shrink the isolating interval to at most the given width."""
        width_bound = coerce_rational(width_bound)
        if width_bound <= 0:
            raise ValueError("width bound must be positive")
        num, den = width_bound.numerator, width_bound.denominator
        if self._value is not None or (self._b - self._a) * den <= num << self._k:
            return self
        out = self._copy(self._mult)
        while out._value is None and (out._b - out._a) * den > num << out._k:
            if out._k - self._k >= _REFINE_CAP:
                raise RuntimeError("refinement failed to converge")
            out._bisect()
        return out

    def compare_rational(self, other) -> int:
        """Sign of (self - other) for an exact rational other.

        An int is used as it is, and a root that snaps to it stores it as a
        Fraction.
        """
        if not isinstance(other, int):
            other = coerce_rational(other)
        num, den = other.numerator, other.denominator
        if self._value is None:
            k0 = self._k
            while self._value is None:
                k = self._k
                if num << k <= self._a * den:
                    return 1
                if num << k >= self._b * den:
                    return -1
                # other is inside the window on every round that gets here, and
                # is its only root exactly when the polynomial vanishes there
                if k == k0 and _eval_int_at(self._coeffs, num, den) == 0:
                    self._value = Fraction(other)
                    return 0
                self._bisect()
        return _sign(self._value - other)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"AlgebraicReal({self._var}={self._value})"
        return f"AlgebraicReal({self._var} in ({self.lo}, {self.hi}])"


def _cauchy_window(coeffs) -> tuple[int, int, int]:
    """A dyadic window (a, b, k) holding every real root of coeffs.

    Cauchy: every root has |x| < 1 + max|c_i| / |lead| <= 2**e.
    """
    rest = max(abs(c) for c in coeffs[:-1])
    e = max(rest.bit_length() - abs(coeffs[-1]).bit_length() + 1, 0) + 1
    return -1 << e, 1 << e, 0


def _sturm_count(chain):
    """A root counter for _isolate_square_free from a Sturm chain of f or -f.

    It counts the sign variations at a / 2**k, which fall by one past each
    root, or gives None when a / 2**k is a root: chain[0] vanishes there.
    """
    def count(a, k):
        values = [_eval_dyadic(p, a, k) for p in chain]
        return _variations(values) if values[0] else None
    return count


def _bracket_count(coeffs, brackets):
    """A root counter for _isolate_square_free from _cubic_brackets(coeffs, ...).

    It counts the roots above a / 2**k by comparing a / 2**k with the
    brackets, and evaluates coeffs only inside one, where the sign against
    the bracket's slo tells the side of its root; None at a root.
    """
    def count(m, j):
        above = 0
        for (a, b, k), slo in reversed(brackets):
            if m << k >= b << j:
                break
            if m << k > a << j:
                s = _sign(_eval_dyadic(coeffs, m, j))
                return above + (s == slo) if s else None
            above += 1
        return above
    return count


def _isolate_square_free(coeffs: tuple[int, ...], count):
    """Isolate the real roots of a square-free integer polynomial.

    count(a, k) is a root counter (_sturm_count or _bracket_count): it
    falls by one past each root of coeffs and is None at a root.  The
    windows it leaves are the nodes of one bisection tree, rooted at
    coeffs' Cauchy window and fixed by where the roots are, whichever
    counter reads them.  Returns (hit, windows): hit is None and windows
    are dyadic (a, b, k), descending, one per real root; or hit is a
    bisection point that is a root, as a Fraction, which ends the walk, and
    windows are only those found before it.
    """
    windows = []
    a, b, k = _cauchy_window(coeffs)
    # each entry: a window with the counts at its two ends
    stack = [(a, b, k, count(a, k), count(b, k))]
    while stack:
        a, b, k, va, vb = stack.pop()
        if va - vb == 1:
            windows.append((a, b, k))
        elif va - vb > 1:
            if k >= _REFINE_CAP:
                raise RuntimeError("root isolation failed to converge")
            m = a + b
            vm = count(m, k + 1)
            if vm is None:
                return Fraction(m, 1 << (k + 1)), windows
            stack.append((a << 1, m, k + 1, va, vm))
            stack.append((m, b << 1, k + 1, vm, vb))
    return None, windows


def _rational_value(r: AlgebraicReal) -> Fraction | None:
    """The value of the windowed root r when it is rational, else None.

    r's defining polynomial is primitive, so by the rational root theorem a
    rational root is a multiple of 1 / |lead|.  A copy of r's hint, or of
    its window when it has none, is narrowed until it is at most that wide,
    with no cap.  Then the one multiple strictly inside it, if there is one,
    is the only candidate, and one exact evaluation decides it.  r itself is
    left as it is.

    Each narrowing step takes an exact Newton step from the window's
    midpoint and proposes the cell of a grid 2**s times finer than the
    window that holds the Newton point, clamped into the window.  Exact
    signs at the cell's ends keep it only when they certify the root inside;
    then s doubles.  Otherwise the midpoint's sign halves the window, and s
    halves.  Near a simple root the kept cells shrink quadratically, so a
    huge lead costs about log2 log2(|lead| * width) steps, not
    log2(|lead| * width) halvings.
    """
    coeffs, slo = r._coeffs, r._lower_sign()
    a, b, k = r._hint or (r._a, r._b, r._k)
    lead = abs(coeffs[-1])
    s = 1
    while (b - a) * lead > 1 << k:
        m, j = a + b, k + 1
        fm = _eval_dyadic(coeffs, m, j)
        if not fm:
            return Fraction(m, 1 << j)
        dm = _eval_dyadic(_derivative(coeffs), m, j)
        if dm:
            # the Newton point is (m - fm / dm) / 2**j, in the cell
            # [t, t + 1] / 2**(k + s) of the finer grid
            t = ((m * dm - fm) << (s - 1)) // dm
            t = min(max(t, a << s), (b << s) - 1)
            ks = k + s
            st = slo if t == a << s else _sign(_eval_dyadic(coeffs, t, ks))
            su = -slo if t + 1 == b << s else _sign(_eval_dyadic(coeffs, t + 1, ks))
            if not st or not su:
                return Fraction(t if not st else t + 1, 1 << ks)
            if st == slo and su == -slo:
                a, b, k = t, t + 1, ks
                s *= 2
                continue
        s = max(s >> 1, 1)
        a, b, k = (m, b << 1, j) if (fm > 0) == (slo > 0) else (a << 1, m, j)
    n = (a * lead >> k) + 1  # n / lead is the least multiple above a / 2**k
    if n << k < b * lead and not _eval_int_at(coeffs, n, lead):
        return Fraction(n, lead)
    return None


def _ends(r: AlgebraicReal) -> tuple[int, int, int]:
    """(lo numerator, hi numerator, common denominator) of r's window."""
    if r._value is not None:
        return r._value.numerator, r._value.numerator, r._value.denominator
    return r._a, r._b, 1 << r._k


def _order(x: AlgebraicReal, y: AlgebraicReal) -> int:
    """Compare by (lo, hi)."""
    (xl, xh, xd), (yl, yh, yd) = _ends(x), _ends(y)
    return _sign(xl * yd - yl * xd) or _sign(xh * yd - yh * xd)


def _overlaps(x: AlgebraicReal, y: AlgebraicReal) -> bool:
    """Open windows meet; an exact root clashes only with a window strictly around it."""
    (xl, xh, xd), (yl, yh, yd) = _ends(x), _ends(y)
    return xl * yd < yh * xd and yl * xd < xh * yd


def _make_disjoint(items: list[AlgebraicReal]) -> list[AlgebraicReal]:
    for _ in range(_REFINE_CAP):
        items.sort(key=cmp_to_key(_order))
        clashes = False
        for i in range(len(items) - 1):
            if _overlaps(items[i], items[i + 1]):
                for r in items[i:i + 2]:
                    if r._value is None:
                        r._bisect()
                clashes = True
        if not clashes:
            return items
    raise RuntimeError("failed to separate root intervals")


def square_free_decompose(p: MPoly) -> list[tuple[MPoly, int]]:
    """Split a univariate polynomial into coprime square-free factors.

    Returns (factor, multiplicity) pairs with monic factors; the product of
    factor**multiplicity equals p up to a nonzero constant.
    """
    var, dense = _univar(p)
    if var is None:
        if not dense:
            raise ValueError("cannot decompose the zero polynomial")
        return []
    coeffs = _int_clear(dense)
    return [(dense_to_mpoly([Fraction(c, f[-1]) for c in f], var), m)
            for f, m in _square_free_int(coeffs, _int_gcd(coeffs, _derivative(coeffs)))]


def isolate_real_roots(p: MPoly) -> list[AlgebraicReal]:
    """All real roots of a univariate polynomial, sorted ascending.

    Roots carry their multiplicity; isolating intervals are pairwise disjoint.
    Every rational root is exact, and every window holds an irrational root.
    """
    var, dense = _univar(p)
    if var is None:
        if not dense:
            raise ValueError("cannot isolate roots of the zero polynomial")
        return []
    return _isolate_int(var, _int_clear(dense))


def _isolate_int(var: str, coeffs) -> list[AlgebraicReal]:
    """isolate_real_roots on primitive integer coefficients, not all zero.

    A constant has no root.  A linear square-free factor is its root.  Any
    other is searched in its own Cauchy window, which holds all its roots.
    A cubic with disc != 0 is square-free, and its certified brackets count
    its roots, each window keeping its bracket as a hint.  Otherwise one
    remainder sequence serves twice: the Sturm chain of coeffs ends in
    gcd(f, f'), Yun's first gcd, and when f is square-free the same chain
    isolates its roots.  Yun factors and cubics whose brackets fail get
    chains of their own.  One loop walks the factor, then takes its
    rational roots: the bisection point that hit one, which ends the walk,
    or else those its windows snap to (_rational_value).  It divides them
    out, and walks the cofactor afresh from its own Cauchy window by its
    own Sturm chain, so the windows do not depend on how the rational roots
    were found; a cofactor's windows snap to none.  The
    windows of one factor with no rational root are leaves of one bisection
    tree, so already disjoint and ascending; only other results are sorted
    and separated.
    """
    if len(coeffs) == 1:
        return []
    items: list[AlgebraicReal] = []
    disc = len(coeffs) == 4 and _cubic_discriminant(coeffs)
    if disc:
        chain, factors = None, [(coeffs if coeffs[-1] > 0 else tuple(-c for c in coeffs), 1)]
    else:
        chain = _sturm_chain(coeffs)
        factors = _square_free_int(coeffs, chain[-1])
    for factor, mult in factors:
        if len(factor) == 2:
            items.append(AlgebraicReal.from_rational(Fraction(-factor[0], factor[1]), var, mult))
            continue
        brackets = disc and _cubic_brackets(factor, disc)
        if brackets:
            count = _bracket_count(factor, brackets)
        else:
            # a factor as long as coeffs is coeffs up to sign
            whole = chain and len(factor) == len(coeffs)
            count = _sturm_count(chain if whole else _sturm_chain(factor))
        rational = []
        hints = brackets or repeat((None, 0))
        while True:
            hit, windows = _isolate_square_free(factor, count)
            # the walk's windows are descending, the brackets ascending
            roots = [AlgebraicReal._from_window(var, factor, a, b, k, mult, slo, hint)
                     for (a, b, k), (hint, slo) in zip(reversed(windows), hints)]
            found = ([hit] if hit is not None
                     else [q for q in map(_rational_value, roots) if q is not None])
            if not found:
                break
            for q in found:
                factor = tuple(_exact_div(factor, (-q.numerator, q.denominator)))
            rational += found
            roots, hints = [], repeat((None, 0))
            if len(factor) == 1:
                break
            count = _sturm_count(_sturm_chain(factor))
        items += roots
        items += [AlgebraicReal.from_rational(q, var, mult) for q in rational]
    if len(items) > 1 and (len(factors) > 1 or rational):
        return _make_disjoint(items)
    return items


def sign_at(q: MPoly, alpha: AlgebraicReal) -> int:
    """Certified sign of q at an algebraic real; exact zero detection included."""
    var, dense = _univar(q)
    if var is not None and var != alpha.var:
        raise ValueError(f"q is in {var!r} but the point is in {alpha.var!r}")
    return _sign_dense_at(_int_clear(dense), alpha)


def _sign_dense_at(qi, alpha: AlgebraicReal) -> int:
    """Sign query on ascending integer coefficients; tightens alpha in place.

    qi must be trimmed; any positive scaling of q gives the same answer.
    """
    if len(qi) <= 1:
        return _sign(qi[0]) if qi else 0
    if alpha._value is None:
        k0 = alpha._k
        while alpha._value is None:
            a, b, k = alpha._a, alpha._b, alpha._k
            if k - k0 >= _REFINE_CAP:
                raise RuntimeError("sign determination failed to converge")
            low, high = _interval_horner(qi, a, b, k)
            if low > 0:
                return 1
            if high < 0:
                return -1
            if k - k0 == _ZERO_TEST_ROUND:
                # interval bounds refuse to settle: rule exact zero in or out.
                # The window isolates one root of the defining polynomial and
                # its ends are no roots, so d changes sign over it exactly
                # when that root is a common root of q and it.
                d = _int_gcd(qi, alpha._coeffs)
                if len(d) > 1 and (_eval_dyadic(d, a, k) > 0) != (_eval_dyadic(d, b, k) > 0):
                    return 0
            alpha._bisect()
    return _sign(_eval_int_at(qi, alpha._value.numerator, alpha._value.denominator))


def _image(alpha: AlgebraicReal, qi, scale: int, candidates) -> AlgebraicReal:
    """A fixed point's y = qi(alpha) / scale, for Equilibrium.y_root.

    alpha is its x root; qi / scale is v x (1 - x) bound on integers.  A
    rational alpha maps to a rational y with no call to candidates, so a
    rational x root never isolates the cubic's twin.  Otherwise alpha
    shrinks until the interval image of qi / scale meets just one of the
    isolated y roots candidates(alpha) gives, and a copy of it is the image.
    Only the candidates that meet the image are stepped: the image, an
    interval bound over a halved window, and every candidate's window only
    shrink, so one that misses it never meets a later one.
    """
    if alpha._value is None:
        roots = candidates(alpha)
        k0 = alpha._k
        while alpha._value is None:
            k = alpha._k
            if k - k0 >= _REFINE_CAP:
                raise RuntimeError("image root selection failed to converge")
            low, high = _interval_horner(qi, alpha._a, alpha._b, k)
            den = scale << (k * (len(qi) - 1))  # the value box is [low, high] / den
            live = []
            for cand in roots:
                cl, ch, cd = _ends(cand)
                if low * cd <= ch * den and cl * den <= high * cd:
                    live.append(cand)
            if len(live) == 1:
                return live[0]._copy(alpha._mult)
            roots = [c._step() for c in live]
            alpha._bisect()
    num, den = alpha._value.numerator, alpha._value.denominator
    val = Fraction(_eval_int_at(qi, num, den), scale * den ** (len(qi) - 1))
    return AlgebraicReal.from_rational(val, "y", alpha._mult)


def _fit_unit_interval(root: AlgebraicReal) -> None:
    """Halve a root in (0, 1) until its window lies inside (0, 1) or it is exact."""
    while root._value is None and not (root._a > 0 and root._b < 1 << root._k):
        root._bisect()


def _window_text(root: AlgebraicReal) -> list:
    """[lo, hi] of root's window as format_rational prints them, no Fraction built."""
    if root._value is not None:
        text = format_rational(root._value)
        return [text, text]
    return [format_dyadic(root._a, root._k), format_dyadic(root._b, root._k)]
