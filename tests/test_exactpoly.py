import copy
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kopelcas.exactpoly import (
    MPoly, NEG_INF, VARS, X, Y, U, V, A, B,
    BIND_TOP, _dense_coeffs, _denominator_lcm, _int_divide, _int_gcd, _int_terms, bind,
    dense_to_mpoly, finish, integer_terms, power_tables, resultant, stage,
)
from kopelcas.certificates import _KIND_CERTIFICATES, _KIND_TERMS
from kopelcas.model import (
    _CD_ON_LOCUS, _CONDITION_TERMS, _CUBIC, _CUBIC_TERMS, _LOCUS, _LOCUS_TERMS, _ROW_TERMS,
)
from oracles import coefficient_of


def equilibrium_cubic():
    # u*v^2*x^3 - 2*u*v^2*x^2 + (u*v^2 + u*v)*x - u*v + 1
    return U * V**2 * X**3 - 2 * U * V**2 * X**2 + (U * V**2 + U * V) * X - U * V + 1


def random_poly(rng, names, max_deg=2, max_terms=4, coeff_range=6):
    p = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = MPoly.constant(F(rng.randint(-coeff_range, coeff_range), rng.randint(1, 3)))
        for name in names:
            term = term * MPoly.var(name) ** rng.randint(0, max_deg)
        p = p + term
    return p


# -- construction, arithmetic, text form ----------------------------------

def test_zero_and_constant():
    assert MPoly.zero().is_zero()
    assert MPoly.zero() == 0
    assert MPoly.constant(F(3, 4)).as_fraction() == F(3, 4)
    assert (MPoly.constant(2) + MPoly.constant(-2)).is_zero()
    assert MPoly.zero().to_str() == "0"


@pytest.mark.parametrize("value", [0, 3, F(-5, 2)])
def test_a_constant_hashes_as_its_value(value):
    # equal objects hash alike, so a set holds the constant and its value once
    c = MPoly.constant(value)
    assert c == value and hash(c) == hash(value)
    assert len({c, value}) == 1


def test_immutable_polynomials_pickle_and_copy():
    # restoring the slot by assignment would trip the immutability guard
    p = MPoly.constant(F(1, 3)) * equilibrium_cubic()
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p) and clone.to_str() == p.to_str()
    with pytest.raises(AttributeError):
        p._terms = {}


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MPoly.constant(0.5)
    with pytest.raises(TypeError):
        X * 0.5


def test_malformed_exponent_tuples_rejected():
    # an exponent tuple is six non-negative ints, checked before the
    # coefficient, so a zero coefficient does not let a bad key through
    for exp in [(-1, 0, 0, 0, 0, 0), (1,), (1, 0, 0, 0, 0, 0, 0), (1.0, 0, 0, 0, 0, 0),
                (True, 0, 0, 0, 0, 0), "x"]:
        for coeff in (2, 0):
            with pytest.raises(ValueError, match="non-negative ints"):
                MPoly({exp: coeff})
    assert MPoly({(1, 0, 0, 0, 0, 0): 3}).to_str() == "3*x"
    assert MPoly({(0, 0, 2, 0, 0, 0): 0}).is_zero()


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MPoly.var("z")
    with pytest.raises(ValueError):
        X.degree("w")


def test_canonical_text_form():
    t1 = equilibrium_cubic()
    assert t1.to_str() == "u*v^2*x^3 - 2*u*v^2*x^2 + u*v^2*x + u*v*x - u*v + 1"
    r1 = U**2 * V**2 - 4 * U**2 * V - 4 * U * V**2 + 18 * U * V - 27
    assert r1.to_str() == "u^2*v^2 - 4*u^2*v - 4*u*v^2 + 18*u*v - 27"
    assert (-X + 1).to_str() == "-x + 1"
    assert (X * F(1, 2)).to_str() == "1/2*x"


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng, ["x", "y", "u"])
        q = random_poly(rng, ["x", "y", "u"])
        r = random_poly(rng, ["x", "y", "u"])
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + MPoly.zero() == p
        assert p * MPoly.constant(1) == p
        assert p - p == 0


def test_degree_conventions():
    t1 = equilibrium_cubic()
    assert t1.degree("x") == 3
    assert t1.degree("u") == 1
    assert t1.degree("v") == 2
    assert t1.degree("y") == 0
    assert MPoly.zero().degree("x") == NEG_INF
    assert MPoly.constant(5).degree("x") == 0


def test_coefficient_of():
    t1 = equilibrium_cubic()
    assert coefficient_of(t1, "x", 3) == U * V**2
    assert coefficient_of(t1, "x", 1) == U * V**2 + U * V
    assert coefficient_of(t1, "x", 0) == 1 - U * V


# -- calculus, evaluation, substitution -----------------------------------

def test_derivative():
    t1 = equilibrium_cubic()
    dt1 = t1.derivative("x")
    assert dt1 == 3 * U * V**2 * X**2 - 4 * U * V**2 * X + U * V**2 + U * V
    d2t1 = dt1.derivative("x")
    assert d2t1 == 6 * U * V**2 * X - 4 * U * V**2
    assert MPoly.constant(3).derivative("x") == 0
    # product rule on random inputs
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng, ["x", "u"])
        q = random_poly(rng, ["x", "u"])
        assert (p * q).derivative("x") == p.derivative("x") * q + p * q.derivative("x")


def test_evaluate_sample_points():
    t1 = equilibrium_cubic()
    assert t1.evaluate({"u": 4, "v": 4}) == 64 * X**3 - 128 * X**2 + 80 * X - 15
    assert t1.evaluate({"u": 2, "v": 2}) == 8 * X**3 - 16 * X**2 + 12 * X - 3
    assert t1.evaluate({"u": 3, "v": 3}) == 27 * X**3 - 54 * X**2 + 36 * X - 8
    full = t1.evaluate({"u": 4, "v": 4, "x": F(3, 4)})
    assert full.as_fraction() == 0


def test_evaluate_is_partial():
    p = X * Y + U
    q = p.evaluate({"y": F(1, 2)})
    assert q == F(1, 2) * X + U
    assert q.variables() == {"x", "u"}


def test_substitute_composition():
    p = X**2 + 1
    assert p.substitute("x", Y + 1) == Y**2 + 2 * Y + 2
    # substituting an absent variable is a no-op
    assert p.substitute("y", X) == p


def test_substitution_identity_for_equilibrium_cubic():
    # eliminating y from the fixed-point equation leaves x times the cubic
    fixed_point_x = X - U * Y * (1 - Y)
    reduced = fixed_point_x.substitute("y", V * X * (1 - X))
    assert reduced == X * equilibrium_cubic()


def test_substitute_evaluate_commute():
    rng = random.Random(13)
    for _ in range(20):
        p = random_poly(rng, ["x", "y", "u"])
        q = random_poly(rng, ["x", "u"])
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        lhs = p.substitute("y", q).evaluate({"u": c})
        rhs = p.evaluate({"u": c}).substitute("y", q.evaluate({"u": c}))
        assert lhs == rhs


# -- exact division on integer term dicts ----------------------------------

def int_terms(p):
    """p cleared to integers, as the resultant clears its arguments."""
    return _int_terms(p, _denominator_lcm(p))


def int_product(f, g):
    return int_terms(MPoly(f) * MPoly(g))


def test_int_divide_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        f = int_terms(random_poly(rng, ["x", "y", "v"]))
        g = int_terms(random_poly(rng, ["x", "y", "v"]))
        if not g:
            continue
        assert _int_divide(int_product(f, g), g) == f


# -- determinants and resultants ------------------------------------------
#
# The oracle is the definition: the Sylvester matrix and its determinant by
# cofactor expansion, independent of the remainder sequence in resultant().

def sylvester_matrix(p, q, name):
    """The (m+n) x (m+n) Sylvester matrix of p and q in the variable name."""
    m = int(p.degree(name))
    n = int(q.degree(name))
    if m < 1 or n < 1:
        raise ValueError("sylvester_matrix needs positive degree in the eliminated variable")
    pc = [coefficient_of(p, name, m - j) for j in range(m + 1)]
    qc = [coefficient_of(q, name, n - j) for j in range(n + 1)]
    rows = []
    for i in range(n):
        row = [MPoly.zero()] * (m + n)
        row[i:i + m + 1] = pc
        rows.append(row)
    for i in range(m):
        row = [MPoly.zero()] * (m + n)
        row[i:i + n + 1] = qc
        rows.append(row)
    return rows


def naive_det(matrix):
    # cofactor expansion along the first row, minors memoized by their
    # remaining columns so that 10 x 10 Sylvester matrices stay cheap
    n = len(matrix)
    memo = {}

    def minor(k, cols):
        if k == n:
            return MPoly.constant(1)
        if cols not in memo:
            total = MPoly.zero()
            for pos, j in enumerate(cols):
                if not matrix[k][j].is_zero():
                    piece = matrix[k][j] * minor(k + 1, cols[:pos] + cols[pos + 1:])
                    total = total + (piece if pos % 2 == 0 else -piece)
            memo[cols] = total
        return memo[cols]

    return minor(0, tuple(range(n)))


def test_cofactor_oracle_on_small_matrices():
    c = MPoly.constant
    assert naive_det([[c(0), c(0)], [c(1), c(2)]]) == 0
    assert naive_det([[c(0), c(1)], [c(1), c(0)]]) == -1
    assert naive_det([[c(2), c(1), c(0)], [c(1), c(3), c(1)], [c(0), c(1), c(4)]]) == 18
    assert naive_det([[U, V], [V, U]]) == U**2 - V**2


def test_resultant_linear_pair():
    assert resultant(X - U, X - V, "x") == U - V


def test_resultant_of_cubic_with_linear():
    t1 = equilibrium_cubic()
    assert resultant(t1, X, "x") == U * V - 1
    assert resultant(t1, 1 - X, "x") == 1


def test_resultant_degree_zero_conventions():
    t1 = equilibrium_cubic()
    # degree-0 second argument contributes its deg(p)-th power
    assert resultant(t1, U + 1, "x") == (U + 1) ** 3
    assert resultant(MPoly.constant(5), MPoly.constant(7), "x") == 1
    assert resultant(MPoly.zero(), X + 1, "x") == 0
    with pytest.raises(ValueError):
        resultant(MPoly.zero(), MPoly.zero(), "x")


def test_resultant_product_of_roots_oracle():
    # res(p, q, x) = lc(p)^deg(q) * prod q(root_i) for p split over Q
    rng = random.Random(29)
    for _ in range(25):
        roots = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        lc = F(rng.choice([1, 2, 3, -2]))
        p = MPoly.constant(lc)
        for r in roots:
            p = p * (X - r)
        q = random_poly(rng, ["x"], max_deg=2, max_terms=3)
        if q.is_zero():
            continue
        dq = q.degree("x")
        expected = lc ** int(dq)
        for r in roots:
            expected *= q.evaluate({"x": r}).as_fraction()
        assert resultant(p, q, "x") == MPoly.constant(expected)


def test_resultant_multiplicativity():
    rng = random.Random(31)
    for _ in range(15):
        p = random_poly(rng, ["x", "u"], max_deg=2, max_terms=3)
        q = random_poly(rng, ["x", "u"], max_deg=2, max_terms=3)
        r = random_poly(rng, ["x", "u"], max_deg=2, max_terms=3)
        if p.is_zero() or q.is_zero() or r.is_zero():
            continue
        assert resultant(p * q, r, "x") == resultant(p, r, "x") * resultant(q, r, "x")


def test_resultant_detects_common_root():
    rng = random.Random(37)
    for _ in range(15):
        w = F(rng.randint(-5, 5), rng.randint(1, 3))
        p = (X - w) * random_poly(rng, ["x"], max_deg=2, max_terms=2)
        q = (X - w) * random_poly(rng, ["x"], max_deg=1, max_terms=2)
        if p.degree("x") == NEG_INF or q.degree("x") == NEG_INF:
            continue
        assert resultant(p, q, "x") == 0
    # and a shared-root-free pair is nonzero
    assert resultant((X - 1) * (X - 2), X - 3, "x") != 0


def test_resultant_specializes():
    # evaluating parameters commutes with the resultant when the leading
    # coefficients survive the evaluation
    rng = random.Random(41)
    t1 = equilibrium_cubic()
    d = t1.derivative("x")
    for _ in range(10):
        uval = F(rng.randint(1, 9), rng.randint(1, 3))
        vval = F(rng.randint(1, 9), rng.randint(1, 3))
        binding = {"u": uval, "v": vval}
        lhs = resultant(t1, d, "x").evaluate(binding)
        rhs = resultant(t1.evaluate(binding), d.evaluate(binding), "x")
        assert lhs == rhs


def test_resultant_self_is_zero():
    t1 = equilibrium_cubic()
    assert resultant(t1, t1, "x") == 0


def test_sylvester_shape():
    m = sylvester_matrix(X**3 - 2, X**2 + 1, "x")
    assert len(m) == 5 and all(len(row) == 5 for row in m)
    with pytest.raises(ValueError):
        sylvester_matrix(X, MPoly.constant(1), "x")


# -- univariate gcd --------------------------------------------------------

def test_gcd_univariate():
    # ascending integer coefficients; () is the zero polynomial
    p = (2, -3, 1)  # (x - 1)(x - 2)
    assert _int_gcd(p, (6, -5, 1)) == (-2, 1)  # with (x - 2)(x - 3)
    assert _int_gcd(p, (-5, 1)) == (1,)
    assert _int_gcd(p, ()) == _int_gcd((), p) == p
    assert _int_gcd((), ()) == ()
    # the result is primitive with a positive lead, whatever the arguments' content and signs
    assert _int_gcd((-4, 4), (2, -2)) == (-1, 1)
    assert _int_gcd((-12, -6, 6), (4, -2)) == (-2, 1)  # 6 (x - 2)(x + 1) and -2 (x - 2)
    assert _int_gcd((-2, 3, -1), ()) == p
    assert _int_gcd((-6,), ()) == _int_gcd((3,), (6,)) == (1,)


def test_dense_to_mpoly():
    assert dense_to_mpoly([F(-15), F(80), F(-128), F(64)], "x") == \
        64 * X**3 - 128 * X**2 + 80 * X - 15


def test_integer_binding_scales_by_the_common_denominator():
    terms = integer_terms(3 * U**2 * X**2 - V * A * B + 1)
    tables = power_tables(F(2, 3), F(5, 7), F(1, 2), F(1))
    scale = 3**3 * 7**3 * 2**3
    exact = [1 - F(5, 7) * F(1, 2), 0, 3 * F(2, 3) ** 2]
    assert bind(terms, tables) == [c * scale for c in exact]


def test_binding_the_zero_polynomial_gives_no_coefficients():
    tables = power_tables(F(2, 3), F(5, 7), F(1, 2), F(1))
    terms = integer_terms(MPoly.zero())
    assert bind(terms, tables) == finish(stage(terms, tables), tables[1]) == []
    assert _dense_coeffs(MPoly.zero(), "x") == []


@pytest.mark.parametrize("poly", [X * Y + 1, F(1, 2) * X + 1, U**4 + X])
def test_integer_binding_rejects_what_it_cannot_bind(poly):
    with pytest.raises(ValueError):
        integer_terms(poly)


# -- the coefficient invariant and the integer kernel ----------------------
#
# Hypothesis runs derandomized, so every run draws the same examples.


# integral and proper-fraction coefficients alike, over x, u and v
coefficients = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 3))
exponents = st.tuples(st.integers(0, 2), st.just(0), st.integers(0, 2),
                      st.integers(0, 1), st.just(0), st.just(0))
polys = st.dictionaries(exponents, coefficients, max_size=4).map(MPoly)
nonconstant = polys.filter(lambda p: p.degree("x") >= 1)
contents = st.sampled_from([2, -3, 6])


def assert_canonical(p):
    # an int when integral, else a Fraction in lowest terms with denominator > 1
    for _, c in p.terms():
        assert c != 0
        assert type(c) is int or (type(c) is F and c.denominator > 1), repr(c)


def test_integral_results_come_back_as_ints():
    half = F(1, 2) * X + F(1, 2)
    for p in (half * 2, half + half, (F(1, 2) * X**2).derivative("x"),
              (F(1, 3) * X * U).evaluate({"u": 3}), MPoly.constant(F(6, 3))):
        assert_canonical(p)
        assert all(type(c) is int for _, c in p.terms())
    assert type(MPoly.constant(F(6, 3)).as_fraction()) is F


@given(polys, polys, coefficients)
def test_every_operation_keeps_the_coefficient_invariant(p, q, s):
    results = [p + q, p - q, p * q, p * s, p ** 2, p.derivative("x"),
               p.evaluate({"u": s}), p.evaluate({"x": s, "v": 2}), p.substitute("u", q)]
    if not (p.is_zero() and q.is_zero()):
        results.append(resultant(p, q, "x"))
    for r in results:
        assert_canonical(r)


def substitute_term_by_term(p, name, q):
    """The oracle: each term's power e of name cleared, then multiplied by q e times."""
    i = VARS.index(name)
    total = MPoly.zero()
    for exp, c in p.terms():
        term = MPoly({exp[:i] + (0,) + exp[i + 1:]: c})
        for _ in range(exp[i]):
            term = term * q
        total = total + term
    return total


# up to degree 4 in each of x, u and v, so substitution skips and reaches powers
composable = st.dictionaries(
    st.tuples(st.integers(0, 4), st.just(0), st.integers(0, 4), st.integers(0, 4),
              st.just(0), st.just(0)),
    coefficients, max_size=6).map(MPoly)


@given(composable, polys, st.sampled_from(["x", "u", "v"]))
def test_substitute_matches_term_by_term_composition(p, q, name):
    # q is over x, u and v, so it may hold the replaced variable itself
    composed = p.substitute(name, q)
    assert composed == substitute_term_by_term(p, name, q)
    assert_canonical(composed)


@given(st.one_of(st.just(MPoly.zero()), st.builds(MPoly.constant, coefficients), polys),
       st.integers(0, 6))
def test_power_matches_the_repeated_product(p, n):
    product = MPoly.constant(1)
    for _ in range(n):
        product = product * p
    assert p ** n == product
    assert_canonical(p ** n)


# sparse in x up to degree 5, so remainder sequences skip degrees
sparse_exponents = st.tuples(st.integers(0, 5), st.just(0), st.integers(0, 1),
                             st.integers(0, 1), st.just(0), st.just(0))
sparse = st.dictionaries(sparse_exponents, coefficients, min_size=1, max_size=4).map(MPoly)
sparse_nonconstant = sparse.filter(lambda p: p.degree("x") >= 1)

W = X**2 + U * X + 1  # a common factor to plant
# (p, q) pairs that take the remainder sequence down each of its branches
PRS_CASES = {
    "gap-3-then-drop-to-constant": (X**6 + U, X**3 + V),
    "equal-degrees-drop-by-3": (X**4 + U * X + 1, X**4 + V),
    "gap-2-drop-to-constant": (X**5 + V * X**2 + U, X**3 + V),
    "gap-2-drop-by-2-twice": (X**6 + V, X**4 + U * X**2 + 1),
    "three-steps": (X**5 + U * X**2 + V, 3 * X**3 + X - U),
    "deg-p-below-deg-q": (X**2 + U, X**5 + V * X + 1),
    "both-odd": (X**3 + U * X + F(1, 2), X**5 - V * X**2 + 2),
    "both-odd-swapped": (X**5 - V * X**2 + 2, X**3 + U * X + F(1, 2)),
    "planted-common-factor": (W * (X**3 + V), W * (2 * X - V)),
    "planted-square": (W**2, W * (X + U)),
    "common-root-at-zero": (X * (X**2 + V), X * (U * X + 1)),
    "parameter-leading-coefficients": (U * X**3 + X + 1, (U - V) * X**2 + V),
    "leading-coefficient-with-a-root": ((U - 1) * X**4 + V * X**2 + 1, U * X**3 - V),
    "rational-coefficients": (F(2, 3) * X**4 - F(1, 5) * U * X + V, F(3, 7) * X**2 + F(1, 2)),
}


@pytest.mark.parametrize("case", PRS_CASES)
def test_resultant_matches_the_cofactor_determinant_on_each_branch(case):
    p, q = PRS_CASES[case]
    m, n = int(p.degree("x")), int(q.degree("x"))
    res = resultant(p, q, "x")
    assert res == naive_det(sylvester_matrix(p, q, "x"))
    assert resultant(q, p, "x") == (-1) ** (m * n) * res
    if case.startswith(("planted", "common-root")):
        assert res == 0
    else:
        assert res != 0


def test_resultant_singular_and_parameter_leading_coefficient():
    # a shared root makes the Sylvester matrix singular
    assert resultant((X - 1) * (X + 2), (X - 1) * (3 * X + U), "x") == 0
    # leading coefficients that depend on the parameters stay in the result
    p, q = U * X**2 + 1, X - V
    assert resultant(p, q, "x") == U * V**2 + 1
    assert resultant(q, p, "x") == U * V**2 + 1
    assert resultant(U * X + 1, V * X - 1, "x") == -U - V


@given(sparse_nonconstant, sparse_nonconstant)
def test_resultant_matches_the_cofactor_determinant(p, q):
    res = resultant(p, q, "x")
    assert res == naive_det(sylvester_matrix(p, q, "x"))
    m, n = int(p.degree("x")), int(q.degree("x"))
    assert resultant(q, p, "x") == (-1) ** (m * n) * res


@given(polys, polys.filter(lambda q: not q.is_zero()), contents)
def test_int_divide_by_a_non_primitive_divisor(p, q0, content):
    # an exact multiple over Z divides by a divisor with content, and by its
    # primitive part, which leaves the content in the quotient (Gauss's lemma)
    f, q = int_terms(p), int_terms(q0)
    g = {exp: c * content for exp, c in q.items()}
    product = int_product(f, g)
    assert _int_divide(product, g) == f
    assert _int_divide(product, q) == {exp: c * content for exp, c in f.items()}


@given(polys, nonconstant)
def test_a_non_multiple_is_not_divisible(p, q):
    # q divides p q + 1 only if it divides 1, which a nonconstant q cannot;
    # a monomial q and a q of several terms take the two division routes
    with pytest.raises(ValueError, match="not divisible"):
        _int_divide(int_terms(p * q + 1), int_terms(q))
    with pytest.raises(ValueError, match="not divisible"):
        _int_divide(int_terms(p * X + 1), int_terms(X))


def test_a_remainder_in_a_quotient_coefficient_is_not_divisible():
    # the exponents divide, but 3 = 1 * 2 + 1 leaves a remainder in the first
    # or the second quotient coefficient, or on division by a monomial;
    # dropping it would cancel every term and return 1, x + 1 and 1
    for f, g in ((3 * X + 1, 2 * X + 1), (2 * X**2 + 4 * X + 1, 2 * X + 1), (3 * X, 2 * X)):
        with pytest.raises(ValueError, match="not divisible"):
            _int_divide(int_terms(f), int_terms(g))


# -- staged integer binding ------------------------------------------------

def bind_term_by_term(poly, tables):
    """The oracle: each term's coefficient times its powers' table entries."""
    up, vp, ap, bp = tables
    dense = [0] * (poly.degree("x") + 1)
    for (ex, _, eu, ev, ea, eb), c in poly.terms():
        dense[ex] += c * up[eu] * vp[ev] * ap[ea] * bp[eb]
    return dense


parameter_powers = st.integers(0, BIND_TOP)
bindable_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.just(0), parameter_powers, parameter_powers,
              parameter_powers, parameter_powers),
    st.integers(-10**6, 10**6).filter(bool), min_size=1, max_size=12).map(MPoly)
rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 60))


# the package's frozen term lists, compiled at import, with their polynomials
FROZEN_TERMS = [(_CUBIC, _CUBIC_TERMS), (_LOCUS, _LOCUS_TERMS),
                (_CUBIC + X**4 * (_CD_ON_LOCUS[2] + 4 * A * B * _CUBIC), _ROW_TERMS),
                *zip(_CD_ON_LOCUS, _CONDITION_TERMS),
                *((sum(X**i * p for i, p in enumerate(polys)), _KIND_TERMS[kind])
                  for kind, polys in _KIND_CERTIFICATES.items())]
# a 40-digit coefficient at every power of u, v, a and b that binding reads
WIDE_POLY = MPoly({(sum(e) % 4, 0, *e): (-1) ** sum(e) * (10**39 + 7 * sum(e) + e[0])
                   for e in itertools.product(range(BIND_TOP + 1), repeat=4)})
WIDE_TERMS = integer_terms(WIDE_POLY)


@given(bindable_polys, rationals, rationals, rationals, rationals)
def test_staged_binding_matches_term_by_term_binding(poly, u, v, a, b):
    up, vp, ap, bp = power_tables(u, v, a, b)
    for form, terms in [*FROZEN_TERMS, (WIDE_POLY, WIDE_TERMS), (poly, integer_terms(poly))]:
        # the swapped tables are how the cubic's twin is bound
        for tables in ((up, vp, ap, bp), (vp, up, ap, bp)):
            expected = bind_term_by_term(form, tables)
            assert finish(stage(terms, tables), tables[1]) == expected
            assert bind(terms, tables) == expected
            # staging never reads v's table
            assert stage(terms, (tables[0], None, ap, bp)) == stage(terms, tables)
