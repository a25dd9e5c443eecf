"""Duopoly map model: parameters, float dynamics, exact equilibria, stability.

The map advances both coordinates simultaneously:

    x' = (1 - a) x + a u y (1 - y)
    y' = (1 - b) y + b v x (1 - x)

with adjustment speeds 0 < a, b <= 1 and reaction intensities u, v > 0.
Fixed points solve a triangular pair: a cubic in x alone, then a relation
giving y as a polynomial image of x.  The map is symmetric under
(x, u, a) <-> (y, v, b), so the y coordinates off the origin are the roots
of the same cubic with u and v swapped; an exact y coordinate is picked
from those roots as the image of its x.  Everything on the exact side works
with rationals and certified algebraic numbers; the float side exists for
simulation and cross-checks only.

The model's polynomials are built once, at import, and the locus, the
Jacobian and its Jury conditions are written once: on the polynomial
generators they give y_relation() and stability_conditions(), on floats
jury_report's diagnostics, and bound on integers the sign queries.  Every
fixed point holds its ModelParams and a _Point, that point bound once on
integers; those of one equilibria() call share it, and equilibrium_report
and jury_report read that one binding, which one built alone makes on
first need.  A _Point finishes a _Row, u, a and b bound once, with its own
v: alone it stages its own row.  A point's positive and stable fixed
points are counted by its row, the one owner of that count (_Row.counts):
it finishes the row's cubic at v, divides out its content, and hands the
primitive cubic straight to the bracket rule (_bracket_counts), which
counts on integers alone, in one pass with no intermediate object but the
brackets: on the float brackets that exact sign evaluations certify,
around the cubic's lowest and highest real roots only.  It builds a _Point
only where they give way, as a scan cell's count rarely does.  Every other
isolation takes one route, realroots._isolate_int, over the whole line,
with brackets around every real root: a scan cell's cubic where the
brackets fail (_Point.line_counts), and in equilibria() and the reports
the whole cubic and its twin.  It bisects from the root bound, counting
roots against such brackets where they hold and by Sturm sequences where
not: the windows are nodes of one bisection tree, fixed by the roots
alone, so the x_interval a report prints is the same either way.  Only
realroots halves a window, into (0, 1) for a positive root too, or reads
one.  Every stability form is bound from its frozen polynomial
(exactpoly.integer_terms): a point binds the three Jury conditions on the
locus (_CD_ON_LOCUS) once, and the reports share them (_Point.conditions).
On the locus they are affine in the fold a b (C + x C'), C the cubic: the
flip is the fold plus 2 (2 - a - b), so positive with it as a, b <= 1, and
the modulus a + b less the fold.  At a positive root of C the fold has the
sign of C', which a certified bracket holds; so a scan cell decides a
bracketed root's stability by the modulus condition alone.  At a root of C
that equals Q, the modulus plus 4 a b C, a quadratic, as their x**3 terms
cancel; a row binds it with the cubic, and the rule bounds it inline from
its terms' values at the bracket's ends, with at most one exact sign
query.  Reports, and cells whose brackets give way, ask all three in one
order and judge them by _verdict.

The module uses only the standard library.  jury_report takes the float
eigenvalue moduli in closed form from the trace and determinant.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactpoly import (
    A, B, MPoly, U, V, X, Y, _exact_div, _primitive, bind, dense_to_mpoly, finish, integer_terms,
    power_tables, stage,
)
from .rational import coerce_rational, format_rational
from .realroots import (
    AlgebraicReal, _cubic_brackets, _cubic_discriminant, _fit_unit_interval, _image,
    _isolate_int, _sign_dense_at, _window_text,
)
from .record import FrozenRecord, Record

DIVERGENCE_THRESHOLD = 1e12


def _check_speeds(*speeds: Fraction) -> None:
    """Refuse a speed outside 0 < s <= 1, the one rule of ModelParams and ScanSpec."""
    if not all(0 < s.numerator <= s.denominator for s in speeds):
        raise ValueError("adjustment speeds must satisfy 0 < a <= 1 and 0 < b <= 1")


class ModelParams(FrozenRecord):
    """Exact map parameters.  Floats are rejected; pass str/int/Fraction."""

    __slots__ = ("u", "v", "a", "b")

    def __init__(self, u, v, a=1, b=1):
        u, v, a, b = (coerce_rational(t) for t in (u, v, a, b))
        # a Fraction's denominator is positive, so the checks run on integers
        if u.numerator <= 0 or v.numerator <= 0:
            raise ValueError("reaction intensities must satisfy u > 0 and v > 0")
        _check_speeds(a, b)
        super().__init__(u, v, a, b)

    def as_floats(self):
        return float(self.u), float(self.v), float(self.a), float(self.b)

    def describe(self) -> dict:
        return {name: format_rational(getattr(self, name)) for name in ("u", "v", "a", "b")}


class State(FrozenRecord):
    __slots__ = ("x", "y")


class Trajectory(Record):
    __slots__ = ("states", "left_unit_square", "diverged_at")


def _locus(x, v):
    """The reaction v x (1 - x), y on the fixed point locus; floats, Fractions or MPolys."""
    return v * x * (1 - x)


def _update(x, y, u, v, a, b):
    """One step of the map, in plain arithmetic."""
    return (1 - a) * x + _locus(y, a * u), (1 - b) * y + _locus(x, b * v)


def step(state: State, params: ModelParams) -> State:
    return State(*_update(state.x, state.y, *params.as_floats()))


def iterate(state: State, params: ModelParams, n: int) -> Trajectory:
    """Run n steps; stop early once a coordinate passes the divergence bar."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    # a NaN never passes the divergence bar, so its orbit would run silently
    if not (math.isfinite(state.x) and math.isfinite(state.y)):
        raise ValueError("start point must be finite")
    floats = params.as_floats()
    x, y = state.x, state.y
    states = [State(x, y)]
    left = not (0 <= x <= 1 and 0 <= y <= 1)
    diverged_at = None
    for t in range(1, n + 1):
        x, y = _update(x, y, *floats)
        states.append(State(x, y))
        if not (0 <= x <= 1 and 0 <= y <= 1):
            left = True
        if abs(x) > DIVERGENCE_THRESHOLD or abs(y) > DIVERGENCE_THRESHOLD:
            diverged_at = t
            break
    return Trajectory(states, left, diverged_at)


# -- fixed point structure -------------------------------------------------

_CUBIC = (U * V**2) * X**3 - 2 * (U * V**2) * X**2 + (U * V**2 + U * V) * X - U * V + 1
_CUBIC_TERMS = integer_terms(_CUBIC)


# the fixed point locus y = v x (1 - x), y as a polynomial image of x
_LOCUS = _locus(X, V)
_Y_RELATION = Y - _LOCUS
_LOCUS_TERMS = integer_terms(_LOCUS)


def equilibrium_cubic() -> MPoly:
    """Cubic whose roots are the x coordinates of fixed points off x = 0."""
    return _CUBIC


def y_relation() -> MPoly:
    """Vanishes exactly on the fixed point locus y = v x (1 - x)."""
    return _Y_RELATION


class _Lazy:
    """Slots filled on first read, by the class's _make_<name> method.

    A slot not yet set fails the normal lookup and lands in __getattr__,
    which fills it; every later read is a plain slot read.  Unlike
    functools.cached_property, which on Python 3.10 and 3.11 takes a lock
    on every first read, this takes none: threads racing on a first read
    each compute the same value, and one of them stays.
    """

    __slots__ = ()

    def __getattr__(self, name):
        make = getattr(type(self), "_make_" + name, None)
        if make is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = make(self)
        setattr(self, name, value)
        return value


class Equilibrium(_Lazy):
    """One fixed point, carried by its exact x coordinate.

    y is recovered on demand as the algebraic image v x (1 - x); the
    certified flags read the sign of x alone.  The cubic at x = 1 + t is
    u v**2 (t**3 + t**2) + u v t + 1, and its twin likewise, so every fixed
    point has x < 1 and y < 1: it is in the unit square when x >= 0 and
    positive when x > 0.  A fixed point holds the _Point it was found at,
    and shares its bound conditions and y candidates with the other fixed
    points there; one built alone binds its own point on the first read
    that needs it, never for a flag.  _point and y_root are _Lazy slots,
    each filled by its _make_<name> method on first read.
    """

    __slots__ = ("x_root", "params", "is_positive", "in_unit_square", "y_root", "_point")

    def __init__(self, x_root: AlgebraicReal, params: ModelParams, *, _point=None):
        self.x_root = x_root
        self.params = params
        # x < 1 at every fixed point, so the sign of x settles both flags
        side = x_root.compare_rational(0)
        self.is_positive = side > 0
        self.in_unit_square = side >= 0
        if side > 0:
            # kept only for the x_interval a report prints
            _fit_unit_interval(x_root)
        if _point is not None:
            self._point = _point

    def _make__point(self) -> "_Point":
        return _Point.of(self.params)

    def _make_y_root(self) -> AlgebraicReal:
        point = self._point
        return _image(self.x_root, *point.locus, point.y_candidates)

    @property
    def multiplicity(self) -> int:
        return self.x_root.multiplicity_in_source

    @property
    def x_approx(self) -> float:
        return self.x_root.approx

    @property
    def y_approx(self) -> float:
        return self.y_root.approx

    def __repr__(self):
        try:
            x = f"x~{self.x_root.approx:.6g}"
        except OverflowError:  # past the double range: the exact root instead
            x = repr(self.x_root)
        return f"Equilibrium({x}, mult={self.multiplicity}, positive={self.is_positive})"


def bound_cubic(u, v) -> MPoly:
    """The equilibrium cubic with parameters bound, up to a positive factor."""
    return dense_to_mpoly(_primitive(bind(_CUBIC_TERMS, power_tables(u, v, 1, 1))), "x")


def equilibria(params: ModelParams) -> list:
    """All fixed points, sorted by x.  The origin is always one of them.

    The full fixed point locus is x * cubic = 0, so when u v = 1 the
    cubic's root at x = 0 is the origin again: the two merge into a single
    entry whose multiplicity counts both contributions.  The parameters are
    bound once per call, and every fixed point holds that binding.
    """
    return _Point.of(params).equilibria(params)


# -- stability -------------------------------------------------------------

def _jacobian(x, y, u, v, a, b):
    """The map's 2x2 Jacobian at (x, y), on floats, Fractions and MPolys alike."""
    return [[1 - a, u * a * (1 - 2 * y)], [v * b * (1 - 2 * x), 1 - b]]


def _jury(jac):
    """Trace, determinant and the three Jury conditions of a 2x2 matrix."""
    (j11, j12), (j21, j22) = jac
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    return tr, det, (1 - tr + det, 1 + tr + det, 1 - det)


def jacobian(x, y, params: ModelParams):
    """2x2 Jacobian at (x, y); exact when fed exact values, float otherwise."""
    if isinstance(x, float) or isinstance(y, float):
        return _jacobian(x, y, *params.as_floats())
    return _jacobian(x, y, params.u, params.v, params.a, params.b)


_STABILITY_CONDITIONS = _jury(_jacobian(X, Y, U, V, A, B))[2]


def stability_conditions():
    """The three inner-unit-circle conditions for the characteristic pair.

    All three strictly positive certifies both eigenvalues inside the unit
    circle; a strict negative certifies an eigenvalue outside.
    """
    return _STABILITY_CONDITIONS


# y is a polynomial image of x on the fixed point locus, so each condition
# reduces to a univariate sign query once parameters are bound
_CD_ON_LOCUS = tuple(cd.substitute("y", _LOCUS) for cd in _STABILITY_CONDITIONS)
_CONDITION_TERMS = tuple(integer_terms(cd) for cd in _CD_ON_LOCUS)
# the cubic, and above its x**3 term (as certificates._KIND_TERMS packs) Q:
# the modulus condition plus 4 a b C, equal to it at roots of C, free of x**3
_ROW_TERMS = integer_terms(_CUBIC + X**4 * (_CD_ON_LOCUS[2] + 4 * A * B * _CUBIC))


def bound_stability_polys(params: ModelParams):
    binding = {"u": params.u, "v": params.v, "a": params.a, "b": params.b}
    return tuple(cd.evaluate(binding) for cd in _CD_ON_LOCUS)


class _Row:
    """u, a and b bound on integers once, for every point that shares them.

    tables are the power tables of (u, v, a, b) with v's left open (None).
    cubic is the equilibrium cubic staged from them (exactpoly.stage) with
    the bracket rule's quadratic Q (_bracket_counts) packed above it
    (_ROW_TERMS), which every point finishes with its own v's table
    (finish).  A scan row holds one for its cells, and counts each cell's
    fixed points (counts).
    """

    __slots__ = ("tables", "cubic")

    def __init__(self, up, ap, bp):
        self.tables = (up, None, ap, bp)
        self.cubic = stage(_ROW_TERMS, self.tables)

    def finish(self, vp) -> tuple:
        """(cubic, Q) at v's table vp: the primitive cubic and Q's ascending coefficients.

        The cubic's lead u v**2 is never zero, so its content is positive.
        """
        c0, c1, c2, c3, q0, q1, q2 = finish(self.cubic, vp)
        content = math.gcd(c0, c1, c2, c3)
        return (c0 // content, c1 // content, c2 // content, c3 // content), (q0, q1, q2)

    def counts(self, v: Fraction, vp) -> tuple:
        """(positive, stable): the positive fixed points at v, and how many are stable.

        vp is v's power table.  A fixed point is positive when x > 0,
        counted once whatever its multiplicity (every root of C is below 1,
        see Equilibrium).  The bracket rule (_bracket_counts) settles most
        points on the finished cubic and Q alone; where it gives way, a
        _Point built here takes the whole-line route (_Point.line_counts).
        """
        return _bracket_counts(*self.finish(vp)) or _Point(v, self, vp).line_counts()


class _Point(_Lazy):
    """One parameter point, bound once on integers, and what its fixed points share.

    It is bound from row, the _Row of u, a and b, and from vp, v's power
    table: a point alone (of) stages its own row, and a row's count
    (_Row.counts) builds one only where its brackets give way.  It holds no
    ModelParams; ModelParams or ScanSpec checked its parameters.  tables are
    the power tables of (u, v, a, b), and every value bound from them is
    the exact one times their common denominator.  cubic, the equilibrium
    cubic's primitive integer x-coefficients (see bound_cubic), whose lead
    is positive, is finished from the row with v's table at once
    (_Row.finish), since every point reads it.  On first read, as plain
    slots with no lock (_Lazy): conditions, the fold, flip and modulus
    conditions of bound_stability_polys as positive multiples, not
    primitive parts, each bound at the tables from its frozen form, the
    second being the first at a = b = 1; and locus, y = v x (1 - x) over
    its denominator, bound alike.  Reports, e0_stable and the whole-line
    route of _Row.counts read the one conditions; the bracket rule
    (_bracket_counts) reads none of them, only Q, finished with the cubic.
    y_candidates, the y roots that realroots._image picks a fixed point's y
    coordinate from, are taken from the cubic's twin bound with u and v
    swapped and isolated on first use.  A point lives as long as the fixed
    points that hold it.
    """

    __slots__ = ("v", "tables", "cubic", "conditions", "locus", "_y_roots")

    def __init__(self, v: Fraction, row: _Row, vp):
        self.v = v
        up, _, ap, bp = row.tables
        self.tables = (up, vp, ap, bp)
        self.cubic, _ = row.finish(vp)
        self._y_roots = None

    @classmethod
    def of(cls, params: ModelParams) -> "_Point":
        """The point of params alone, staging its own row."""
        up, vp, ap, bp = power_tables(params.u, params.v, params.a, params.b)
        return cls(params.v, _Row(up, ap, bp), vp)

    def _make_conditions(self) -> tuple:
        """bound_stability_polys, each bound at the tables, so times their common denominator.

        The flip is the fold plus 2 (2 - a - b), so the two bind alike only
        at a = b = 1, where the second is the first object.
        """
        fold, flip, modulus = (bind(terms, self.tables) for terms in _CONDITION_TERMS)
        return fold, fold if flip == fold else flip, modulus

    def _make_locus(self) -> tuple:
        """y = v x (1 - x) here as (ascending integer x-coefficients, denominator), reduced."""
        coeffs = bind(_LOCUS_TERMS, self.tables)
        scale = math.prod(t[0] for t in self.tables)
        common = math.gcd(scale, *coeffs)
        return tuple(c // common for c in coeffs), scale // common

    def line_counts(self) -> tuple:
        """_Row.counts from the whole-line roots above 0, each judged as a report judges it.

        Every real root is isolated (realroots._isolate_int), and each above
        0 is stable when _verdict on all three of its signs says so.
        """
        roots = [r for r in _isolate_int("x", self.cubic) if r.compare_rational(0) > 0]
        return len(roots), sum(_verdict(self.signs(r)) == "stable" for r in roots)

    def equilibria(self, params: ModelParams) -> list:
        """equilibria(params) for the params of this point, each fixed point holding it."""
        # the cubic's lead u v**2 is never zero, so its degree is always 3
        origin_mult = 1
        found = []
        for r in _isolate_int("x", self.cubic):
            if r.is_rational and r.value == 0:
                origin_mult += r.multiplicity_in_source
            else:
                found.append(Equilibrium(r, params, _point=self))
        # the roots ascend, so the origin goes after those with x < 0
        origin = AlgebraicReal.from_rational(Fraction(0), "x", origin_mult)
        below = sum(not eq.in_unit_square for eq in found)
        found.insert(below, Equilibrium(origin, params, _point=self))
        return found

    def y_factor(self, g) -> tuple:
        """Primitive integer y-coefficients whose roots are v x (1 - x) at g's roots.

        g is the factor of the cubic that defines an x root.  The map is
        symmetric under (x, u, a) <-> (y, v, b), so the y coordinates off
        the origin are the roots of the cubic's twin, the cubic with u and v
        swapped: Res_x(cubic, y - v x (1 - x)) = v**3 cubic(u <-> v, x -> y).
        A whole cubic g maps to the twin.  A quadratic g, the cubic deflated
        by one rational root r, maps to the twin with the image of r divided
        out.  Every rational root snaps, so no window's g is linear.
        """
        up, vp, ap, bp = self.tables
        twin = _primitive(bind(_CUBIC_TERMS, (vp, up, ap, bp)))
        if len(g) == 4:
            return twin
        # r is the cubic's root sum -c2 / c3 less g's, -g1 / g2
        c = self.cubic
        y = _locus(Fraction(g[1], g[2]) - Fraction(c[2], c[3]), self.v)
        return tuple(_exact_div(twin, (-y.numerator, y.denominator)))

    def y_candidates(self, root: AlgebraicReal) -> list:
        """The isolated roots of y_factor over a windowed x root's factor.

        Isolated on first use and kept, since every windowed x root of one
        point has the same factor g: the cubic, or the cubic with its one
        rational root divided out (a cubic with disc = 0 has only rational
        roots, so no window).  No root of y_factor is rational: at a fixed
        point x = u y (1 - y) and y = v x (1 - x), so x and y are rational
        together, and g has no rational root; the rational root test on each
        window finds none.  A twin with one real root isolates to its root
        bound's window, counted against its certified bracket with no
        bisection and no Sturm chain.
        """
        if self._y_roots is None:
            self._y_roots = _isolate_int("y", self.y_factor(root._coeffs))
        return self._y_roots

    def signs(self, root: AlgebraicReal) -> tuple:
        """Certified signs of the three conditions at an x root, asked in order.

        The first two conditions coincide only at a = b = 1, where
        conditions holds one for both and its sign is asked once.
        """
        d1, d2, d3 = self.conditions
        s1 = _sign_dense_at(d1, root)
        return s1, (s1 if d2 is d1 else _sign_dense_at(d2, root)), _sign_dense_at(d3, root)


def _bracket_counts(cubic, q) -> tuple | None:
    """(positive, stable) of _Row.counts from the cubic's certified brackets, or None.

    cubic is a point's primitive cubic C and q the ascending coefficients of
    its Q (_Row.finish).  A fixed point is stable when C' and the
    modulus condition (the third of _Point.conditions, the one a report
    asks) are positive there (see the module docstring): at a root of C the
    fold has the sign of C', and a positive fold makes the flip positive.
    C's lead is positive, so C' > 0 at its lowest and highest real roots
    and C' < 0 at the middle one of three, which is never stable.

    With disc < 0 the cubic has one real root.  It lies below 0 when
    C(0) > 0, and it is 0 itself when C(0) = 0 (u v = 1, where C is x times
    a quadratic with discriminant -4 u**2 v**3 over a positive factor): no
    fixed point is positive.  Otherwise the cubic's outer roots are
    bracketed (realroots._cubic_brackets with outer set): one bracket when
    disc < 0, two sharing their lower sign when disc > 0.  Each with lower
    sign -1 holds a root where C rises, and two of them leave the middle
    root between them, so a lowest bracket starting at 0 or above puts
    every root above 0.  Any other case (disc = 0, failed brackets, lower
    sign 1, or a lowest bracket reaching below 0) gives None, for the
    whole-line route (_Point.line_counts).

    Q is the modulus condition plus 4 a b C, times a positive factor: the
    two agree at every root of C, where both are a positive multiple of
    s - Phi, with s = 1/a + 1/b and Phi = x C' (ROADMAP item 12), so a
    bracketed root is stable when Q is positive there, and gcd(Q, C) is the
    modulus condition's gcd with C.  Q's x coefficient 2 a b (u v**2 + u v) is
    positive and its x**2 coefficient -2 a b u v**2 negative.  So over a
    bracket [a, b] / 2**j, 0 <= a, where x and x**2 both rise, 2**(2j) Q is
    least with the linear term at a and the square term at b, and greatest
    the other way round: no interval Horner loop runs, and only where the
    two bounds straddle 0 is Q's sign asked exactly.
    """
    disc = _cubic_discriminant(cubic)
    if disc < 0 <= cubic[0]:
        return 0, 0
    brackets = _cubic_brackets(cubic, disc, outer=True)
    # the brackets share their lower sign, and the lowest starts first
    if not brackets or brackets[0][1] > 0 or brackets[0][0][0] < 0:
        return None
    q0, q1, q2 = q
    stable = 0
    for (a, b, j), _ in brackets:
        base = q0 << 2 * j
        if base + (q1 * b << j) + q2 * a * a < 0:  # 2**(2j) Q at most
            continue
        if base + (q1 * a << j) + q2 * b * b > 0:  # 2**(2j) Q at least
            stable += 1
        else:
            root = AlgebraicReal._from_window("x", cubic, a, b, j, 1, -1)
            stable += _sign_dense_at((q0, q1, q2), root) > 0
    # one real root, or three with the middle one between the brackets
    return 2 * len(brackets) - 1, stable


def _verdict(signs: tuple) -> str:
    """Jury rule: stable if every sign is positive, unstable if one is negative, else marginal."""
    low = min(signs)
    return "stable" if low > 0 else "unstable" if low < 0 else "marginal"


class StabilityReport(Record):
    __slots__ = ("cd_signs", "cd_values", "trace", "det", "eig_moduli", "verdict")


def _eig_moduli(tr: float, det: float) -> tuple:
    """Eigenvalue moduli of a real 2x2 matrix from its trace and determinant.

    Descending.  Real arithmetic only, so the result does not hang on a
    platform's complex hypot.  Real roots take the stable form: the larger
    root has no cancellation, and the smaller is det over it.
    """
    disc = tr * tr - 4 * det
    if disc < 0:
        return (math.sqrt(det), math.sqrt(det))
    big = (tr + math.copysign(math.sqrt(disc), tr)) / 2
    small = det / big if big else 0.0
    return tuple(sorted((abs(big), abs(small)), reverse=True))


def jury_report(eq: Equilibrium, params: ModelParams) -> StabilityReport:
    """Certified sign triple plus float diagnostics for one fixed point.

    params must be eq's own parameters, whose point already holds the bound
    conditions; any other binding raises ValueError, since the signs of one
    point's conditions at another point's root mean nothing.
    """
    if params != eq.params:
        raise ValueError("jury_report takes the fixed point's own parameters")
    signs = eq._point.signs(eq.x_root)

    u, v, a, b = params.as_floats()
    xf = eq.x_root.approx
    tr, det, values = _jury(_jacobian(xf, _locus(xf, v), u, v, a, b))
    return StabilityReport(signs, values, tr, det, _eig_moduli(tr, det), _verdict(signs))


def e0_stable(params: ModelParams) -> bool:
    """Exact strict test for attraction at the origin.

    At x = 0 the locus has y = 0, so each condition's value there is its
    bound constant term, up to a positive factor.
    """
    return _verdict(tuple(d[0] for d in _Point.of(params).conditions)) == "stable"


def equilibrium_report(params: ModelParams) -> dict:
    """JSON-ready summary of every fixed point with certified stability.

    The parameters are bound once per call, and fixed points whose x roots
    share a defining factor share its y candidates.  Queries run in
    a fixed order, since x_interval is the window they leave behind: the
    sign queries, then the y image, then the read.
    """
    point = _Point.of(params)
    entries = []
    for eq in point.equilibria(params):
        signs = point.signs(eq.x_root)
        entries.append({
            "x_approx": eq.x_approx,
            "y_approx": eq.y_approx,
            "x_interval": _window_text(eq.x_root),
            "multiplicity": eq.multiplicity,
            "positive": eq.is_positive,
            "in_unit_square": eq.in_unit_square,
            "cd_signs": list(signs),
            "verdict": _verdict(signs),
        })
    return {
        "schema_version": 1,
        "params": params.describe(),
        "equilibria": entries,
    }
