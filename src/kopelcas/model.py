"""Duopoly map model: parameters, float dynamics, exact equilibria, stability.

The map advances both coordinates simultaneously:

    x' = (1 - a) x + a u y (1 - y)
    y' = (1 - b) y + b v x (1 - x)

with adjustment speeds 0 < a, b <= 1 and reaction intensities u, v > 0.
Fixed points solve a triangular pair: a cubic in x alone, then a relation
giving y as a polynomial image of x.  Everything on the exact side works
with rationals and certified algebraic numbers; the float side exists for
simulation and cross-checks only.

Each equilibria() call binds its parameter point once on integers, as a
_Point that every fixed point it returns holds; equilibrium_report,
jury_report and the scanner all read that one binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactpoly import (
    A, B, MPoly, ONE, U, V, X, Y, _dense_trim, _primitive, bind, dense_to_mpoly,
    integer_terms, power_tables,
)
from .rational import coerce_rational, format_rational
from .realroots import AlgebraicReal, _image, _isolate_int, _sign_dense_at

DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True)
class ModelParams:
    """Exact map parameters.  Floats are rejected; pass str/int/Fraction."""

    u: Fraction
    v: Fraction
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("u", "v", "a", "b"):
            object.__setattr__(self, name, coerce_rational(getattr(self, name)))
        if self.u <= 0 or self.v <= 0:
            raise ValueError("reaction intensities must satisfy u > 0 and v > 0")
        if not (0 < self.a <= 1) or not (0 < self.b <= 1):
            raise ValueError("adjustment speeds must satisfy 0 < a <= 1 and 0 < b <= 1")

    def as_floats(self):
        return float(self.u), float(self.v), float(self.a), float(self.b)

    def describe(self) -> dict:
        return {name: format_rational(getattr(self, name)) for name in ("u", "v", "a", "b")}


@dataclass(frozen=True)
class State:
    x: float
    y: float


@dataclass
class Trajectory:
    states: list
    left_unit_square: bool
    diverged_at: int | None


def _update(x, y, u, v, a, b):
    """One step of the map on floats or numpy arrays alike."""
    return (1 - a) * x + a * u * y * (1 - y), (1 - b) * y + b * v * x * (1 - x)


def step(state: State, params: ModelParams) -> State:
    return State(*_update(state.x, state.y, *params.as_floats()))


def iterate(state: State, params: ModelParams, n: int) -> Trajectory:
    """Run n steps; stop early once a coordinate passes the divergence bar."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
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


def all_stay_in_unit_square(params: ModelParams, xs, ys, steps: int) -> bool:
    """Vectorized check that every start point keeps its whole orbit in [0,1]^2."""
    floats = params.as_floats()
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if not (np.all((x >= 0) & (x <= 1)) and np.all((y >= 0) & (y <= 1))):
        return False
    for _ in range(steps):
        x, y = _update(x, y, *floats)
        if not (np.all((x >= 0) & (x <= 1)) and np.all((y >= 0) & (y <= 1))):
            return False
    return True


# -- fixed point structure -------------------------------------------------

def equilibrium_cubic() -> MPoly:
    """Cubic whose roots are the x coordinates of fixed points off x = 0."""
    return (U * V**2) * X**3 - 2 * (U * V**2) * X**2 + (U * V**2 + U * V) * X - U * V + 1


_CUBIC_TERMS = integer_terms(equilibrium_cubic())


def y_relation() -> MPoly:
    # vanishes exactly when y = v x (1 - x)
    return Y + V * X**2 - V * X


def triangular_system():
    """Solve order and polynomials: y eliminated first, then the cubic in x."""
    return [Y, X], [y_relation(), equilibrium_cubic()]


# y = v x (1 - x) has the sign of x (1 - x), since v > 0
_Y_SIGN = (0, 1, -1)


class Equilibrium:
    """One fixed point, carried by its exact x coordinate.

    y is recovered on demand as the algebraic image v x (1 - x); the
    certified flags work from the x side alone.  A fixed point from
    equilibria() holds the _Point it was found at, and shares that point's
    bound conditions and y image roots with the other fixed points there.
    """

    __slots__ = ("x_root", "params", "is_positive", "_in_unit_square", "_y", "_point")

    def __init__(self, x_root: AlgebraicReal, params: ModelParams):
        self.x_root = x_root
        self.params = params
        self.is_positive = (x_root.compare_rational(0) > 0
                            and _sign_dense_at(_Y_SIGN, x_root) > 0)
        self._in_unit_square = None
        self._y = None
        self._point = None

    @property
    def in_unit_square(self) -> bool:
        if self._in_unit_square is None:
            v = self.params.v
            # v x (1 - x) - 1, scaled by v's denominator
            y_minus_one = (-v.denominator, v.numerator, -v.numerator)
            self._in_unit_square = (
                self.x_root.compare_rational(0) >= 0
                and self.x_root.compare_rational(1) <= 0
                and _sign_dense_at(_Y_SIGN, self.x_root) >= 0
                and _sign_dense_at(y_minus_one, self.x_root) <= 0
            )
        return self._in_unit_square

    @property
    def multiplicity(self) -> int:
        return self.x_root.multiplicity_in_source

    @property
    def y_root(self) -> AlgebraicReal:
        if self._y is None:
            p, q = self.params.v.numerator, self.params.v.denominator
            images = self._point.images if self._point is not None else {}
            # y = (p x - p x**2) / q with v = p / q
            self._y = _image(self.x_root, (0, p, -p), q, "y", images)
        return self._y

    @property
    def x_approx(self) -> float:
        return self.x_root.approx

    @property
    def y_approx(self) -> float:
        return self.y_root.approx

    def __repr__(self):
        return (f"Equilibrium(x~{self.x_root.approx:.6g}, mult={self.multiplicity}, "
                f"positive={self.is_positive})")


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
    return _Point(params).equilibria()


# -- stability -------------------------------------------------------------

def jacobian(x, y, params: ModelParams):
    """2x2 Jacobian at (x, y); exact when fed exact values, float otherwise."""
    if isinstance(x, float) or isinstance(y, float):
        u, v, a, b = params.as_floats()
    else:
        u, v, a, b = params.u, params.v, params.a, params.b
    return [[1 - a, u * a * (1 - 2 * y)], [v * b * (1 - 2 * x), 1 - b]]


def _trace_det():
    tr = 2 - A - B
    det = (ONE - A) * (ONE - B) - U * V * A * B * (1 - 2 * X) * (1 - 2 * Y)
    return tr, det


def stability_conditions():
    """The three inner-unit-circle conditions for the characteristic pair.

    All three strictly positive certifies both eigenvalues inside the unit
    circle; a strict negative certifies an eigenvalue outside.
    """
    tr, det = _trace_det()
    cd1 = 1 - tr + det
    cd2 = 1 + tr + det
    cd3 = 1 - det
    return cd1, cd2, cd3


# y is a polynomial image of x on the fixed point locus, so each condition
# reduces to a univariate sign query once parameters are bound
_CD_ON_LOCUS = tuple(
    cd.substitute("y", V * X - V * X**2) for cd in stability_conditions()
)


def bound_stability_polys(params: ModelParams):
    binding = {"u": params.u, "v": params.v, "a": params.a, "b": params.b}
    return tuple(cd.evaluate(binding) for cd in _CD_ON_LOCUS)


_CD_TERMS = tuple(integer_terms(cd) for cd in _CD_ON_LOCUS)


class _Point:
    """One parameter point, bound once on integers, and what its fixed points share.

    tables are the power tables of (u, v, a, b); conditions, bound from them
    on first use, are the primitive parts of bound_stability_polys; images
    keeps the y image roots of each cubic factor (see realroots._image).  A
    point lives as long as the fixed points that hold it.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.tables = power_tables(params.u, params.v, params.a, params.b)
        self.images = {}

    @cached_property
    def conditions(self) -> tuple:
        return tuple(_primitive(_dense_trim(bind(terms, self.tables))) for terms in _CD_TERMS)

    def cubic(self) -> tuple:
        """Primitive integer x-coefficients of the equilibrium cubic (see bound_cubic)."""
        return _primitive(bind(_CUBIC_TERMS, self.tables))

    def equilibria(self) -> list:
        """equilibria(params), each fixed point holding this point."""
        # the cubic's lead u v**2 is never zero, so its degree is always 3
        roots = _isolate_int("x", self.cubic())
        origin_mult = 1
        kept = []
        for r in roots:
            if r.is_rational and r.value == 0:
                origin_mult += r.multiplicity_in_source
            else:
                kept.append(r)
        origin = AlgebraicReal.from_rational(Fraction(0), "x", origin_mult)
        ordered = [r for r in kept if r.compare_rational(0) < 0]
        ordered.append(origin)
        ordered += [r for r in kept if r.compare_rational(0) > 0]
        eqs = [Equilibrium(r, self.params) for r in ordered]
        for eq in eqs:
            eq._point = self
        return eqs

    def signs(self, root: AlgebraicReal):
        """Certified signs of the three bound conditions at an x root, asked lazily.

        The first two conditions differ by twice the trace 2 - a - b, so they
        coincide only at a = b = 1, where the second sign repeats the first.
        """
        d1, d2, d3 = self.conditions
        s1 = _sign_dense_at(d1, root)
        yield s1
        yield s1 if d2 == d1 else _sign_dense_at(d2, root)
        yield _sign_dense_at(d3, root)

    def is_stable(self, root: AlgebraicReal) -> bool:
        """The Jury rule at an x root, asking no sign past the first that fails it."""
        return _is_stable(self.signs(root))


def _is_stable(signs) -> bool:
    """The Jury rule: every condition strictly positive.

    Reads the signs in order and stops at the first one that is not.
    """
    return all(s > 0 for s in signs)


def _verdict(signs: tuple) -> str:
    """stable by the Jury rule, unstable if a condition is negative, else marginal."""
    if _is_stable(signs):
        return "stable"
    return "unstable" if min(signs) < 0 else "marginal"


@dataclass
class StabilityReport:
    cd_signs: tuple
    cd_values: tuple
    trace: float
    det: float
    eig_moduli: tuple
    verdict: str


def jury_report(eq: Equilibrium, params: ModelParams) -> StabilityReport:
    """Certified sign triple plus float diagnostics for one fixed point.

    The conditions come from eq's point when it was bound from params, and
    are bound from params otherwise.
    """
    point = eq._point
    if point is None or point.params != params:
        point = _Point(params)
    signs = tuple(point.signs(eq.x_root))

    u, v, a, b = params.as_floats()
    xf = eq.x_root.approx
    yf = v * xf * (1 - xf)
    jac = jacobian(xf, yf, params)
    tr = jac[0][0] + jac[1][1]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    eigs = np.linalg.eigvals(np.array(jac, dtype=float))
    moduli = tuple(sorted((abs(eigs[0]), abs(eigs[1])), reverse=True))
    values = (1 - tr + det, 1 + tr + det, 1 - det)
    return StabilityReport(signs, values, tr, det, moduli, _verdict(signs))


def e0_stable(params: ModelParams) -> bool:
    """Exact strict test for attraction at the origin.

    At x = 0 the locus has y = 0, so each condition's value there is its
    bound constant term, up to a positive factor.
    """
    return _is_stable(d[0] for d in _Point(params).conditions)


def equilibrium_report(params: ModelParams) -> dict:
    """JSON-ready summary of every fixed point with certified stability.

    The parameters are bound once per call, and fixed points whose x roots
    share a defining cubic share the roots of its y image.  Queries run in
    a fixed order, since x_interval is the window they leave behind: the
    sign queries, then the y image, then the read.
    """
    point = _Point(params)
    entries = []
    for eq in point.equilibria():
        signs = tuple(point.signs(eq.x_root))
        entries.append({
            "x_approx": eq.x_approx,
            "y_approx": eq.y_approx,
            "x_interval": [format_rational(eq.x_root.lo), format_rational(eq.x_root.hi)],
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
