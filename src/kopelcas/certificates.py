"""Parameter-space sign certificates for counting and stability.

A handful of polynomials in the parameters decide, before any root is
isolated, how many positive fixed points exist and how many of those are
stable.  The chain forms, which carry the stability conditions onto the
parameters, all come from one cubic in a speed-free variable s,

    R(u, v, s) = s^3 + (9 - u v) s^2 - D s + (u v - 1) D,

with D the discriminant factor COUNT_DISCRIMINANT.  R is the product of
s - Phi over the three roots of the equilibrium cubic C, where
Phi = x C'(x); as a resultant, Res_x(C, s - x C') = u^3 v^6 R.  Each chain
form is R at one argument, times the cube of that argument's denominator:

    MODULUS_CHAIN        (a b)^3 R((a + b) / (a b))
    FLIP_CHAIN           (a b)^3 R(-2 (2 - a - b) / (a b))
    MODULUS_FULL_SPEED   R(2)
    FLIP_FULL_SPEED      R(0) = (u v - 1) D
    MODULUS_HOMOGENEOUS  a^3 R(2 / a)

None of the classification code trusts these forms blindly: verify_all()
re-derives the general-speed chains from the model's stability conditions
with exact resultant arithmetic and compares term by term, so a slip in R
or in an argument is a loud test failure, not a silent misclassification.

Derivation route for the chain resultants: eliminate y from a stability
condition using the fixed point relation y = v x (1 - x), then eliminate
x using the equilibrium cubic.  What remains involves parameters only.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .exactpoly import A, B, MPoly, U, V, X, Y, bind, integer_terms, power_tables, resultant
from .model import _CUBIC, _LOCUS, _STABILITY_CONDITIONS, _Y_RELATION, ModelParams, _locus
from .record import FrozenRecord


class EquilibriumCountClass(Enum):
    THREE_POSITIVE = "ThreePositive"
    ONE_POSITIVE = "OnePositive"
    TWO_POSITIVE_BOUNDARY = "TwoPositiveBoundary"
    ONE_POSITIVE_TRIPLE = "OnePositiveTriple"
    NONE_OR_DEGENERATE = "NoneOrDegenerate"


class StableCountClass(Enum):
    TWO_STABLE = "TwoStable"
    ONE_STABLE = "OneStable"
    THEOREM_SILENT = "TheoremSilent"


# the count each class asserts: positive fixed points for an
# EquilibriumCountClass, stable ones for a StableCountClass; None asserts nothing
EXPECTED_COUNT = {
    EquilibriumCountClass.THREE_POSITIVE: 3,
    EquilibriumCountClass.ONE_POSITIVE: 1,
    EquilibriumCountClass.TWO_POSITIVE_BOUNDARY: 2,
    EquilibriumCountClass.ONE_POSITIVE_TRIPLE: 1,
    EquilibriumCountClass.NONE_OR_DEGENERATE: 0,
    StableCountClass.TWO_STABLE: 2,
    StableCountClass.ONE_STABLE: 1,
    StableCountClass.THEOREM_SILENT: None,
}


# discriminant factor of the equilibrium cubic: positive gives three distinct
# positive fixed points, negative gives one real root, zero is the merge locus
COUNT_DISCRIMINANT = U**2 * V**2 - 4 * U**2 * V - 4 * U * V**2 + 18 * U * V - 27

# sign of u v - 1 controls whether the cubic's roots sit on the positive side
POSITIVITY_THRESHOLD = U * V - 1

# second factor of the inflection resultant; together with the discriminant
# it pins the unique parameter point carrying a triple root
TRIPLE_ROOT_COMPANION = 2 * U * V**2 - 9 * U * V + 27

# the coefficients of R in s, constant first
_R = (POSITIVITY_THRESHOLD * COUNT_DISCRIMINANT, -COUNT_DISCRIMINANT, 9 - U * V, 1)


def _r_at(num, den) -> MPoly:
    """den**3 R(u, v, num / den), for num and den free of s."""
    return sum(c * num**k * den ** (3 - k) for k, c in enumerate(_R))


# chain resultants of the flip and modulus conditions, general speeds
FLIP_CHAIN = _r_at(-2 * (2 - A - B), A * B)
MODULUS_CHAIN = _r_at(A + B, A * B)

# full-speed restrictions (a = b = 1)
FLIP_FULL_SPEED = _r_at(0, 1)
MODULUS_FULL_SPEED = _r_at(2, 1)

# homogeneous speeds (b = a): the modulus chain collapses onto this cubic in a
MODULUS_HOMOGENEOUS = _r_at(2, A)

# extra cuts needed to carve the two-stable region out of the sign chart
STABLE_CUT_LINEAR = U * V - 15
STABLE_CUT_QUADRATIC = (
    U**2 * V**2 - 4 * U**2 * V - 5 * U * V**2 + 21 * U * V + 11 * V - 60
)


class NamedCertificate(FrozenRecord):
    __slots__ = ("name", "poly", "role")


def build_certificates() -> dict:
    entries = [
        NamedCertificate("count_discriminant", COUNT_DISCRIMINANT,
                         "separates one from three positive fixed points"),
        NamedCertificate("positivity_threshold", POSITIVITY_THRESHOLD,
                         "roots cross zero exactly on u v = 1"),
        NamedCertificate("triple_root_companion", TRIPLE_ROOT_COMPANION,
                         "vanishes with the discriminant only at the triple root point"),
        NamedCertificate("flip_chain", FLIP_CHAIN,
                         "flip condition eliminated onto parameter space: "
                         "(a b)^3 R at s = -2 (2 - a - b) / (a b)"),
        NamedCertificate("modulus_chain", MODULUS_CHAIN,
                         "modulus condition eliminated onto parameter space: "
                         "(a b)^3 R at s = (a + b) / (a b)"),
        NamedCertificate("flip_full_speed", FLIP_FULL_SPEED,
                         "flip chain at a = b = 1: R at s = 0"),
        NamedCertificate("modulus_full_speed", MODULUS_FULL_SPEED,
                         "modulus chain at a = b = 1: R at s = 2"),
        NamedCertificate("stable_cut_linear", STABLE_CUT_LINEAR,
                         "extra cut for the two-stable region"),
        NamedCertificate("stable_cut_quadratic", STABLE_CUT_QUADRATIC,
                         "extra cut for the two-stable region"),
        NamedCertificate("modulus_homogeneous", MODULUS_HOMOGENEOUS,
                         "modulus chain at b = a, common cubic factor removed: a^3 R at s = 2 / a"),
    ]
    return {e.name: e for e in entries}


# -- identity verification -------------------------------------------------

class IdentityResult(FrozenRecord):
    __slots__ = ("name", "passed", "pairs")  # pairs: (derived, expected), all must agree

    @property
    def difference(self) -> MPoly:
        for lhs, rhs in self.pairs:
            if lhs != rhs:
                return lhs - rhs
        return MPoly.zero()


def _chain_resultant(condition: MPoly) -> MPoly:
    return resultant(resultant(condition, _Y_RELATION, "y"), _CUBIC, "x")


# each identity builds its (derived, expected) pairs on demand, reading only the model
# polynomials it needs, in the order of verify_all().  Only the chain resultants re-derive
# R from the Jury conditions and catch a slip in R; the restrictions only compare R with itself.
_IDENTITY_PAIRS = {
    "cubic-at-origin": lambda: [(resultant(_CUBIC, X, "x"), U * V - 1)],
    "cubic-at-one": lambda: [(resultant(_CUBIC, 1 - X, "x"), MPoly.constant(1))],
    "cubic-discriminant": lambda: [(
        resultant(_CUBIC, _CUBIC.derivative("x"), "x"), -(U**3 * V**6) * COUNT_DISCRIMINANT)],
    "cubic-inflection": lambda: [(
        resultant(_CUBIC, _CUBIC.derivative("x").derivative("x"), "x"),
        -8 * U**3 * V**6 * TRIPLE_ROOT_COMPANION)],
    "fold-chain-resultant": lambda: [(
        _chain_resultant(_STABILITY_CONDITIONS[0]),
        -(A**3 * B**3 * U**3 * V**6) * (U * V - 1) * COUNT_DISCRIMINANT)],
    "flip-chain-resultant": lambda: [(
        _chain_resultant(_STABILITY_CONDITIONS[1]), -(U**3 * V**6) * FLIP_CHAIN)],
    "modulus-chain-resultant": lambda: [(
        _chain_resultant(_STABILITY_CONDITIONS[2]), (U**3 * V**6) * MODULUS_CHAIN)],
    "flip-full-speed-factorization": lambda: [
        (FLIP_CHAIN.evaluate({"a": 1, "b": 1}), FLIP_FULL_SPEED),
        (FLIP_FULL_SPEED, (U * V - 1) * COUNT_DISCRIMINANT)],
    "modulus-full-speed-restriction": lambda: [
        (MODULUS_CHAIN.evaluate({"a": 1, "b": 1}), MODULUS_FULL_SPEED)],
    # the restriction keeps a positive cubic factor in the speed, so the
    # two sides agree only after that factor is made explicit
    "modulus-homogeneous-restriction": lambda: [
        (MODULUS_CHAIN.substitute("b", A), A**3 * MODULUS_HOMOGENEOUS)],
    "triangular-substitution": lambda: [(
        (X - _locus(Y, U)).substitute("y", _LOCUS), X * _CUBIC)],
}

IDENTITY_NAMES = tuple(_IDENTITY_PAIRS)


def verify_identity(name: str) -> IdentityResult:
    if name not in _IDENTITY_PAIRS:
        raise ValueError(f"unknown identity name: {name}")
    pairs = tuple(_IDENTITY_PAIRS[name]())
    return IdentityResult(name, all(l == r for l, r in pairs), pairs)


def verify_all() -> list:
    return [verify_identity(name) for name in IDENTITY_NAMES]


# -- classification --------------------------------------------------------
#
# Each classifier reads the signs of a few of the frozen certificates.  A
# kind's are compiled into one integer term list, certificate i as the
# coefficient of x**i, so one binding on integers per scan cell gives every
# value, the class and the flag for a cell on a certificate's zero set (a 0).
#
# The kinds are declared here and nowhere else: KINDS, the certificates each
# kind reads, EXPECTED_COUNT and the speed rule in _kind_speed.  The scanner
# and the command line read them from this module.

_KIND_CERTIFICATES = {
    "count": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD),
    "stable": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD, MODULUS_FULL_SPEED,
               STABLE_CUT_LINEAR, STABLE_CUT_QUADRATIC),
    "homogeneous": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD, MODULUS_HOMOGENEOUS),
}
KINDS = tuple(_KIND_CERTIFICATES)
_KIND_TERMS = {kind: integer_terms(sum(X**i * p for i, p in enumerate(polys)))
               for kind, polys in _KIND_CERTIFICATES.items()}


def _certificate_values(kind: str, tables) -> list[int]:
    """The kind's certificates bound by power tables, each times their common denominator."""
    return bind(_KIND_TERMS[kind], tables)


def _classify_values(kind: str, u, v, values):
    """The class at (u, v) from the signs of _certificate_values(kind, ...)."""
    if kind == "count":
        disc, threshold = values
        if disc == 0:  # the triple point (3, 3) is on it
            if u == 3 and v == 3:
                return EquilibriumCountClass.ONE_POSITIVE_TRIPLE
            return EquilibriumCountClass.TWO_POSITIVE_BOUNDARY
        if disc > 0:
            return EquilibriumCountClass.THREE_POSITIVE
        if threshold > 0:
            return EquilibriumCountClass.ONE_POSITIVE
        return EquilibriumCountClass.NONE_OR_DEGENERATE
    disc, threshold, mod, *cuts = values
    if kind == "stable":
        linear, quadratic = cuts
        if disc > 0 and mod > 0 and linear < 0 and quadratic > 0:
            return StableCountClass.TWO_STABLE
    if threshold > 0 and ((disc < 0 and mod > 0) or (disc > 0 and mod < 0)):
        return StableCountClass.ONE_STABLE
    return StableCountClass.THEOREM_SILENT


def _kind_speed(kind: str, a, name: str = "a"):
    """The common speed a kind is classified at; errors call the speed `name`.

    Only the homogeneous kind reads a speed, and it needs one.  The count
    and stable kinds hold at a = b = 1 and refuse a speed rather than
    drop it.
    """
    if kind not in _KIND_CERTIFICATES:
        raise ValueError(f"unknown kind: {kind}")
    if kind == "homogeneous":
        if a is None:
            raise ValueError(f"homogeneous classifications and scans need {name}")
        return a
    if a is not None:
        raise ValueError(f"{kind} classifications and scans take no speed: drop {name}, "
                         "only the homogeneous kind reads one")
    return Fraction(1)


def classify(kind: str, u, v, a=None):
    """The class of (u, v) for a kind in KINDS; a is the homogeneous kind's speed."""
    speed = _kind_speed(kind, a)
    p = ModelParams(u, v, speed, speed)
    return _classify_values(kind, p.u, p.v,
                            _certificate_values(kind, power_tables(p.u, p.v, p.a, p.b)))


def classify_equilibrium_count(u, v) -> EquilibriumCountClass:
    """Number of positive fixed points from parameter signs alone."""
    return classify("count", u, v)


def classify_stable_best_response(u, v) -> StableCountClass:
    """Stable positive fixed point count at full adjustment speed.

    The sufficient sign patterns do not cover the whole parameter set; the
    silent value means no conclusion, not a count of zero.
    """
    return classify("stable", u, v)


def classify_stable_homogeneous(u, v, a) -> StableCountClass:
    """Stable count when both players share the adjustment speed a."""
    return classify("homogeneous", u, v, a)
