"""Real-root isolation and exact sign evaluation for univariate polynomials.

A real algebraic number is stored as a square-free defining polynomial with
primitive integer coefficients plus an isolating window with dyadic endpoints
(a / 2**k, b / 2**k), kept as the integers a, b, k.  The endpoints are never
roots, so the root lies strictly inside; a rational root is stored exactly, as
a Fraction, instead.  Isolation starts from a power-of-two root bound, counts
roots with Sturm sequences and bisects, so every endpoint stays dyadic; a
bisection point that hits a root is snapped to an exact rational root on the
spot, which is also what keeps every endpoint off the roots.  A polynomial's
Sturm chain is also its remainder sequence with f': its last element is
gcd(f, f'), so a constant there proves f square-free, and Yun's square-free
decomposition runs only when it is not.

A sign query at a root bisects the root's window until an interval bound of
the queried polynomial settles.  Only a query still unsettled after
_ZERO_TEST_ROUND rounds computes the gcd that certifies an exact zero.

All decisions below (membership, signs, comparisons) are certified by exact
integer arithmetic: polynomials are scaled by positive integers only and
dyadic points by shifts, which keeps every sign.  Fractions appear only at
the edges (MPoly input, rational roots, lo/hi).  Floats appear only in the
nearest double to a root (approx): float Newton proposes it and exact sign
evaluations at the midpoints to its neighbours certify it, so the cached
value is the correctly rounded root and no decision reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import zip_longest
from math import gcd, inf, lcm, nextafter

from .exactpoly import (
    MPoly, _dense_coeffs, _dense_trim, _exact_div, _int_clear, _int_gcd, _primitive,
    _pseudo_rem, dense_to_mpoly,
)

# Rational-root snapping is attempted only when divisor enumeration is cheap:
# both end coefficients at most _SNAP_VALUE_LIMIT and at most
# _SNAP_PAIR_LIMIT candidate fractions.  Beyond that, isolation falls back to
# pure bisection, which is still exact (the root just stays an interval).
_SNAP_VALUE_LIMIT = 10**6
_SNAP_PAIR_LIMIT = 256

_REFINE_CAP = 4000  # safety valve; no certified path needs anywhere near this

# A sign query asks for gcd(q, f) only after this many rounds of interval
# bounds have failed to settle: nonzero queries on scan cells settle by round
# 9 but for a rare few, so almost no query pays for a gcd.  A true zero
# costs the extra halvings before the gcd proves it.
_ZERO_TEST_ROUND = 10

# The nearest double to a root starts from a float Newton seed of at most
# _SEED_STEPS iterations.  They stop once the float value of the polynomial
# is within _FLOAT_NOISE times the sum of its terms' sizes: Horner's rounding
# error at degree n is below 2n * 2**-53 times that sum, so up to degree 16
# the float value says no more there.  The seed is certified exactly; one
# still wrong after _ULP_MOVES one-ulp moves gives way to bisection.
_SEED_STEPS = 60
_FLOAT_NOISE = 2.0**-48
_ULP_MOVES = 8


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


def _halve(coeffs, slo: int, a: int, b: int, k: int) -> tuple[int, int, int]:
    """One bisection step of the window (a, b) / 2**k around a simple root.

    slo is the polynomial's sign left of the root.  Returns the half that
    keeps the root, or (m, m, k) when the midpoint m / 2**k is the root.
    """
    m = a + b
    k += 1
    s = _sign(_eval_dyadic(coeffs, m, k))
    if s == 0:
        return m, m, k
    if s == slo:
        return m, b << 1, k
    return a << 1, m, k


def _dyadic_window(coeffs, lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """A dyadic window inside (lo, hi) around the one simple root there.

    Returns a == b when a grid point hits the root.
    """
    if _eval_int_at(coeffs, lo.numerator, lo.denominator) * \
            _eval_int_at(coeffs, hi.numerator, hi.denominator) >= 0:
        raise ValueError("(lo, hi) must isolate a simple root with non-root endpoints")
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


def _bisect_double(coeffs, slo: int, a: int, b: int, k: int) -> float:
    """The double nearest the simple root in (a, b) / 2**k, by bisection.

    Rounding is monotone: once both ends round to the same double, so does
    every point between them.  A midpoint that hits the root is rounded
    itself, half to even.
    """
    while a != b and a / (1 << k) != b / (1 << k):
        a, b, k = _halve(coeffs, slo, a, b, k)
    return a / (1 << k)


def _float_eval(cf, x: float) -> tuple[float, float, float]:
    """p(x), p'(x) and sum |c_i x**i| in floats, cf the coefficients highest first."""
    fx, dfx, size = cf[0], 0.0, abs(cf[0])
    ax = abs(x)
    for c in cf[1:]:
        dfx = dfx * x + fx
        fx = fx * x + c
        size = size * ax + abs(c)
    return fx, dfx, size


def _seed(coeffs, slo: int, lo: float, hi: float) -> float:
    """A double near the root in [lo, hi], uncertified.

    Float Newton, bracketed by float signs, runs until the float value of
    the polynomial is within its rounding error.  That can be some ulps
    from the root, so one last Newton step takes its residual exactly.
    """
    cf = [float(c) for c in reversed(coeffs)]
    left, right = lo, hi
    x = 0.5 * (lo + hi)
    for _ in range(_SEED_STEPS):
        fx, dfx, size = _float_eval(cf, x)
        if abs(fx) <= size * _FLOAT_NOISE or fx != fx:
            break
        if (fx > 0) == (slo > 0):
            left = x
        else:
            right = x
        nx = x - fx / dfx if dfx else x
        if not left <= nx <= right:
            nx = 0.5 * (left + right)
        if nx == x:
            break
        x = nx
    n, den = x.as_integer_ratio()
    j = den.bit_length() - 1
    residual = _eval_dyadic(coeffs, n, j) / (1 << (j * (len(coeffs) - 1)))
    dfx = _float_eval(cf, x)[1]
    nx = x - residual / dfx if dfx else x
    # float signs near the root can be wrong, so the bracket may have lost it
    return nx if lo <= nx <= hi else x


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
    evaluations decide.  d starts from a float Newton seed and moves one
    ulp each time the root turns out past a midpoint.  A midpoint that is
    the root (a tie), a window or coefficient beyond the float range, a
    zero (whose sign the window decides) or a seed that does not settle
    falls back to bisection, which gives the same double.
    """
    try:
        d = _seed(coeffs, slo, a / (1 << k), b / (1 << k))
        for _ in range(_ULP_MOVES):
            if d == 0:
                break
            down = nextafter(d, -inf)
            side = _side(coeffs, slo, a, b, k, down, d)
            if side < 0:
                d = down
                continue
            if side == 0:
                break
            up = nextafter(d, inf)
            side = _side(coeffs, slo, a, b, k, d, up)
            if side > 0:
                d = up
                continue
            if side == 0:
                break
            return d
    except OverflowError:
        pass
    return _bisect_double(coeffs, slo, a, b, k)


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending, built from its prime factors."""
    divs = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            powers = [1]
            while n % p == 0:
                n //= p
                powers.append(powers[-1] * p)
            divs = [d * t for d in divs for t in powers]
        p += 1 if p == 2 else 2
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def _strip_rational_roots(coeffs: tuple[int, ...]) -> tuple[list[Fraction], tuple[int, ...]]:
    """Snap rational roots of a square-free integer polynomial, within budget.

    A root s/q in lowest terms has s | f(0) and q | lead(f), and f = (q x - s) g
    with g integral, so (q - s) | f(1) and (q + s) | f(-1): those two filters
    rule out most candidates before any evaluation.
    """
    roots = [Fraction(0)] if coeffs[0] == 0 else []  # square-free: 0 is a simple root
    work = tuple(coeffs[len(roots):])
    if len(work) <= 1:
        return roots, work
    a0, an = abs(work[0]), abs(work[-1])
    if a0 > _SNAP_VALUE_LIMIT or an > _SNAP_VALUE_LIMIT:
        return roots, work
    num_divs, den_divs = _divisors(a0), _divisors(an)
    if 2 * len(num_divs) * len(den_divs) > _SNAP_PAIR_LIMIT:
        return roots, work
    at_one, at_minus_one = sum(work), _eval_int_at(work, -1, 1)
    for q in den_divs:
        for p in num_divs:
            if gcd(p, q) != 1:
                continue
            for s in (p, -p):
                if (s != q and at_one % (q - s)) or (s != -q and at_minus_one % (q + s)):
                    continue
                if _eval_int_at(work, s, q) == 0:
                    roots.append(Fraction(s, q))
                    work = tuple(_exact_div(work, (-s, q)))
                    if len(work) <= 1:
                        return roots, work
                    at_one, at_minus_one = sum(work), _eval_int_at(work, -1, 1)
    return roots, work


class AlgebraicReal:
    """A real root of a square-free integer polynomial, isolated exactly.

    Either the root is an exact rational (is_rational, lo == hi == value), or
    it is the one root strictly inside the dyadic window (a / 2**k, b / 2**k),
    whose endpoints are not roots.  lo and hi give the window as Fractions.
    """

    __slots__ = ("_var", "_coeffs", "_value", "_a", "_b", "_k", "_slo", "_mult",
                 "_approx", "_poly")

    def __init__(self, var: str, coeffs: tuple[int, ...], lo, hi, multiplicity: int = 1):
        """lo == hi is the exact root lo; otherwise (lo, hi) isolates a simple root."""
        lo, hi = Fraction(lo), Fraction(hi)
        self._var, self._coeffs, self._mult, self._slo = var, tuple(coeffs), multiplicity, 0
        self._value = self._approx = self._poly = None
        if lo == hi:
            self._value = lo
        else:
            self._adopt(*_dyadic_window(self._coeffs, lo, hi))

    @classmethod
    def _from_window(cls, var, coeffs, a, b, k, multiplicity, slo=0) -> "AlgebraicReal":
        out = cls.__new__(cls)
        out._var, out._coeffs, out._mult, out._slo = var, coeffs, multiplicity, slo
        out._value = out._approx = out._poly = None
        out._adopt(a, b, k)
        return out

    @classmethod
    def from_rational(cls, value, var: str = "x", multiplicity: int = 1) -> "AlgebraicReal":
        value = Fraction(value)
        return cls(var, (-value.numerator, value.denominator), value, value, multiplicity)

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
    def defining_poly(self) -> MPoly:
        if self._poly is None:
            self._poly = dense_to_mpoly(self._coeffs, self._var)
        return self._poly

    @property
    def approx(self) -> float:
        """The double nearest the root (cached); the window is left as it is."""
        if self._approx is None:
            if self._value is not None:
                self._approx = float(self._value)
            else:
                self._approx = _nearest_double(
                    self._coeffs, self._lower_sign(), self._a, self._b, self._k)
        return self._approx

    def __float__(self) -> float:
        return self.approx

    def _lower_sign(self) -> int:
        """Sign of the defining polynomial left of the root (at lo), cached."""
        if not self._slo:
            self._slo = _sign(_eval_dyadic(self._coeffs, self._a, self._k))
        return self._slo

    def _step(self) -> "AlgebraicReal":
        """One bisection step; snaps to exact if the midpoint is the root."""
        if self._value is not None:
            return self
        window = _halve(self._coeffs, self._lower_sign(), self._a, self._b, self._k)
        return AlgebraicReal._from_window(self._var, self._coeffs, *window, self._mult, self._slo)

    def _copy(self, multiplicity: int) -> "AlgebraicReal":
        """The same root and window with its own multiplicity and caches."""
        if self._value is not None:
            return AlgebraicReal.from_rational(self._value, self._var, multiplicity)
        return AlgebraicReal._from_window(self._var, self._coeffs, self._a, self._b, self._k,
                                          multiplicity, self._slo)

    def _adopt(self, a: int, b: int, k: int) -> None:
        """Keep a tighter window found while answering a query.

        a == b means the exact root a / 2**k.  The represented number is
        unchanged, so the cached approximation and polynomial stay valid.
        """
        if a == b:
            self._value = Fraction(a, 1 << k)
        else:
            self._a, self._b, self._k = a, b, k

    def refine(self, width_bound) -> "AlgebraicReal":
        """Shrink the isolating interval to at most the given width."""
        width_bound = Fraction(width_bound)
        if width_bound <= 0:
            raise ValueError("width bound must be positive")
        if self._value is not None:
            return self
        num, den = width_bound.numerator, width_bound.denominator
        a, b, k = self._a, self._b, self._k
        while a != b and (b - a) * den > num << k:
            if k - self._k >= _REFINE_CAP:
                raise RuntimeError("refinement failed to converge")
            a, b, k = _halve(self._coeffs, self._lower_sign(), a, b, k)
        if k == self._k:
            return self
        return AlgebraicReal._from_window(self._var, self._coeffs, a, b, k, self._mult, self._slo)

    def compare_rational(self, other) -> int:
        """Sign of (self - other) for an exact rational other."""
        other = Fraction(other)
        if self._value is not None:
            return _sign(self._value - other)
        num, den = other.numerator, other.denominator
        a, b, k = self._a, self._b, self._k
        try:
            while True:
                if num << k <= a * den:
                    return 1
                if num << k >= b * den:
                    return -1
                if _eval_int_at(self._coeffs, num, den) == 0:
                    # the only root of the defining polynomial in the window
                    self._value = other
                    return 0
                a, b, k = _halve(self._coeffs, self._lower_sign(), a, b, k)
        finally:
            if self._value is None and k != self._k:
                self._adopt(a, b, k)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"AlgebraicReal({self._var}={self._value})"
        return f"AlgebraicReal({self._var} in ({self.lo}, {self.hi}])"


def _isolate_square_free(coeffs: tuple[int, ...], chain):
    """Isolate all real roots of a square-free integer polynomial.

    chain is the Sturm chain of coeffs or of -coeffs: the variation counts
    are the same for both.  Returns (exact_roots, windows, final_coeffs):
    rational roots snapped when a bisection point hits one, dyadic windows
    (a, b, k) for the rest, and the (possibly deflated) defining polynomial
    valid for every window.
    """
    exact_roots, windows = [], []

    def var_at(a, k):
        return _variations(_eval_dyadic(p, a, k) for p in chain)

    # Cauchy: every root has |x| < 1 + max|c_i| / |lead| <= 2**e
    rest = max(abs(c) for c in coeffs[:-1])
    e = max(rest.bit_length() - abs(coeffs[-1]).bit_length() + 1, 0) + 1
    # each entry: a window with the Sturm variation counts at its two ends
    stack = [(-1 << e, 1 << e, 0, var_at(-1 << e, 0), var_at(1 << e, 0))]
    while stack:
        a, b, k, va, vb = stack.pop()
        if va - vb == 1:
            windows.append((a, b, k))
        elif va - vb > 1:
            if k >= _REFINE_CAP:
                raise RuntimeError("root isolation failed to converge")
            m = a + b
            if _eval_dyadic(coeffs, m, k + 1) == 0:
                # bisection landed on a root: snap it, deflate, recount
                root = Fraction(m, 1 << (k + 1))
                exact_roots.append(root)
                coeffs = tuple(_exact_div(coeffs, (-root.numerator, root.denominator)))
                chain = _sturm_chain(coeffs)
                stack = [(a_, b_, k_, var_at(a_, k_), var_at(b_, k_))
                         for a_, b_, k_, _, _ in stack + [(a, b, k, 0, 0)]]
                continue
            vm = var_at(m, k + 1)
            stack.append((a << 1, m, k + 1, va, vm))
            stack.append((m, b << 1, k + 1, vm, vb))
    return exact_roots, windows, coeffs


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
                items[i] = items[i]._step()
                items[i + 1] = items[i + 1]._step()
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
    Rational roots are snapped to exact form when candidate testing is within
    budget (always the case at small coefficients).
    """
    var, dense = _univar(p)
    if var is None:
        if not dense:
            raise ValueError("cannot isolate roots of the zero polynomial")
        return []
    return _isolate_int(var, _int_clear(dense))


def _isolate_int(var: str, coeffs) -> list[AlgebraicReal]:
    """isolate_real_roots on primitive integer coefficients, degree >= 1.

    One remainder sequence serves twice: the Sturm chain of coeffs ends in
    gcd(f, f'), Yun's first gcd, and when f is square-free and has no
    rational root to strip, the same chain isolates its roots.  Yun factors
    and deflated polynomials get chains of their own.
    """
    items: list[AlgebraicReal] = []
    chain = _sturm_chain(coeffs)
    square_free = len(chain[-1]) == 1
    for factor, mult in _square_free_int(coeffs, chain[-1]):
        rational, rest = _strip_rational_roots(factor)
        if len(rest) > 1:
            whole = square_free and not rational  # rest is coeffs, up to sign
            exacts, windows, rest = _isolate_square_free(
                rest, chain if whole else _sturm_chain(rest))
            rational += exacts
            items += [AlgebraicReal._from_window(var, rest, a, b, k, mult)
                      for a, b, k in windows]
        items += [AlgebraicReal.from_rational(r, var, mult) for r in rational]
    return _make_disjoint(items)


def sturm_sign_count(p: MPoly, lo, hi) -> int:
    """Number of distinct real roots of a square-free p in (lo, hi].

    The endpoints must not be roots (then (lo, hi] holds the same roots as
    the open interval, and the Sturm count is exact).
    """
    lo, hi = Fraction(lo), Fraction(hi)
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
    chain = _sturm_chain(coeffs)
    v_lo, v_hi = (_variations(_eval_int_at(c, num, den) for c in chain) for num, den in ends)
    return v_lo - v_hi


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
    if alpha._value is not None:
        return _sign(_eval_int_at(qi, alpha._value.numerator, alpha._value.denominator))
    coeffs, slo = alpha._coeffs, alpha._lower_sign()
    a, b, k = alpha._a, alpha._b, alpha._k
    try:
        for round_no in range(_REFINE_CAP):
            low, high = _interval_horner(qi, a, b, k)
            if low > 0:
                return 1
            if high < 0:
                return -1
            if round_no == _ZERO_TEST_ROUND:
                # interval bounds refuse to settle: rule exact zero in or out.
                # The window isolates one root of coeffs and its ends are no
                # roots, so d changes sign over it exactly when that root is
                # a common root of q and coeffs.
                d = _int_gcd(qi, coeffs)
                if len(d) > 1 and (_eval_dyadic(d, a, k) > 0) != (_eval_dyadic(d, b, k) > 0):
                    return 0
            a, b, k = _halve(coeffs, slo, a, b, k)
            if a == b:
                return _sign(_eval_dyadic(qi, a, k))
        raise RuntimeError("sign determination failed to converge")
    finally:
        if k != alpha._k:
            alpha._adopt(a, b, k)


def refine(alpha: AlgebraicReal, width_bound) -> AlgebraicReal:
    return alpha.refine(width_bound)


def _charpoly(m) -> list[int]:
    """det(w I - m) of a square integer matrix, ascending coefficients.

    Faddeev-LeVerrier: every division by k is exact, since the
    characteristic polynomial of an integer matrix has integer coefficients.
    """
    n = len(m)
    coeffs = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = m M_(k-1) + c_(n-k+1) I,  c_(n-k) = -tr(m M_k) / k
        lift = coeffs[n - k + 1]
        mk = [[sum(row[l] * mk[l][j] for l in range(n)) + (lift if i == j else 0)
               for j in range(n)] for i, row in enumerate(m)]
        coeffs[n - k] = -sum(m[i][l] * mk[l][i] for i in range(n) for l in range(n)) // k
    return coeffs


def _image_coeffs(f, qi, scale: int) -> list[int]:
    """Integer polynomial whose roots are q(x) over the roots x of f, q = qi / scale.

    With c = lead(f) and n = deg f, z = c x is a root of the monic integer
    g(z) = c**(n-1) f(z / c), and Q(z) = sum qi_k c**(d-k) z**k equals
    c**d scale q(x), d = deg q.  The characteristic polynomial P of
    multiplication by Q in Z[z]/(g) has the roots c**d scale q(x), so
    P(c**d scale y) vanishes at every q(x): the norm of y - q(x), which is
    Res_x(f, y - q) up to a constant.
    """
    n, c, d = len(f) - 1, f[-1], len(qi) - 1
    g = [f[k] * c ** (n - 1 - k) for k in range(n)] + [1]
    r = _pseudo_rem([qi[k] * c ** (d - k) for k in range(d + 1)], g)  # exact: g is monic
    r += [0] * (n - len(r))
    # row j holds Q z**j mod g: the transpose of the multiplication matrix,
    # which has the same characteristic polynomial
    rows = []
    for _ in range(n):
        rows.append(r)
        top = r[-1]
        r = [-top * g[0]] + [r[i - 1] - top * g[i] for i in range(1, n)]
    t = c**d * scale
    return [p * t**k for k, p in enumerate(_charpoly(rows))]


def algebraic_image(alpha: AlgebraicReal, q: MPoly, out_var: str) -> AlgebraicReal:
    """The value q(alpha) as an AlgebraicReal in out_var, exactly.

    The defining polynomial is the characteristic polynomial of
    multiplication by q modulo alpha's defining polynomial, taken on
    integers (see _image_coeffs); the right root is picked by shrinking
    alpha until the interval image of q pins a unique candidate.
    """
    var, dense = _univar(q)
    if var is not None and var != alpha.var:
        raise ValueError("q must be univariate in the point's variable")
    dense = dense or [Fraction(0)]
    # q = qi / scale exactly: rescaling q would shift the value box away from
    # the candidate roots and select a wrong preimage
    scale = lcm(*[c.denominator for c in dense])
    return _image(alpha, [c.numerator * (scale // c.denominator) for c in dense],
                  scale, out_var, {})


def _image(alpha: AlgebraicReal, qi, scale: int, out_var: str, images: dict) -> AlgebraicReal:
    """algebraic_image for q = qi / scale, qi ascending integer coefficients.

    images keeps the isolated roots of each image polynomial, keyed by the
    defining polynomial, qi, scale and out_var, so that conjugate roots
    share them; it is meant to live for one batch of calls.
    """
    if alpha.is_rational:
        num, den = alpha.value.numerator, alpha.value.denominator
        val = Fraction(_eval_int_at(qi, num, den), scale * den ** (len(qi) - 1))
        return AlgebraicReal.from_rational(val, out_var, alpha.multiplicity_in_source)
    key = (alpha._coeffs, tuple(qi), scale, out_var)
    candidates = images.get(key)
    if candidates is None:
        candidates = images[key] = _isolate_int(
            out_var, _primitive(_image_coeffs(alpha._coeffs, qi, scale)))
    coeffs, slo = alpha._coeffs, alpha._lower_sign()
    a, b, k = alpha._a, alpha._b, alpha._k
    try:
        for _ in range(_REFINE_CAP):
            low, high = _interval_horner(qi, a, b, k)
            den = scale << (k * (len(qi) - 1))  # the value box is [low, high] / den
            live = []
            for cand in candidates:
                cl, ch, cd = _ends(cand)
                if low * cd <= ch * den and cl * den <= high * cd:
                    live.append(cand)
            if len(live) == 1:
                return live[0]._copy(alpha._mult)
            candidates = [c._step() for c in candidates]
            a, b, k = _halve(coeffs, slo, a, b, k)
            if a == b:
                alpha._adopt(a, b, k)
                return _image(alpha, qi, scale, out_var, images)
        raise RuntimeError("image root selection failed to converge")
    finally:
        if alpha._value is None and k != alpha._k:
            alpha._adopt(a, b, k)
