"""Packed monomials: the kernel against its tuple-keyed oracles, and the exponent cap.

Every MPoly term is keyed by one int, FIELD bits per variable, and every
exponent is below EXP_CAP.  The products, quotients, refusals and
resultants of the packed kernel are checked through terms() against
tests/oracles.py's copies of the kernel on exponent tuples, on polynomials
in all six variables whose exponents reach just below the cap.  Past the
cap, a product, power, substitution or resultant raises OverflowError and
never carries into the next variable's field; at one below, each works.
"""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kopelcas import certificates, cli, exactpoly
from kopelcas.exactpoly import (
    EXP_CAP, ONE, VARS, MPoly, X, Y, U, V, A, B, _int_divide, _raw, dense_to_mpoly, resultant,
)
from oracles import tuple_int_divide, tuple_mul_into, tuple_resultant, tuple_terms

HALF = EXP_CAP // 2
GENERATORS = dict(zip(VARS, (X, Y, U, V, A, B)))


def polys(top, max_terms=4, exponents=None):
    """Integer polynomials in all six variables, each exponent in [0, top].

    exponents, if given, maps a variable to its own range of exponents.
    """
    exps = [st.integers(0, top) if exponents is None or name not in exponents
            else exponents[name] for name in VARS]
    return st.dictionaries(st.tuples(*exps), st.integers(-9, 9).filter(bool),
                           min_size=1, max_size=max_terms).map(MPoly)


def monomials(top):
    return polys(top, max_terms=1)


def oracle_terms(terms: dict) -> list:
    """A tuple-keyed term dict in terms() order, zeros dropped."""
    return sorted(((exp, c) for exp, c in terms.items() if c), reverse=True)


def divides_alike(f, g):
    """f / g by _int_divide and by the tuple kernel: the same quotient, or both refuse."""
    results = []
    for divide, dividend, divisor in ((_int_divide, f._terms, g._terms),
                                      (tuple_int_divide, tuple_terms(f), tuple_terms(g))):
        try:
            results.append(divide(dividend, divisor))
        except ValueError as exc:
            results.append(str(exc))
    packed, tupled = results
    if isinstance(tupled, str):
        assert packed == tupled == "not divisible"
    else:
        assert _raw(packed).terms() == oracle_terms(tupled)
    return packed


# -- the packed kernel against the tuple-keyed one -------------------------

@given(polys(HALF), polys(EXP_CAP - 1 - HALF))
def test_a_product_matches_the_tuple_kernel(f, g):
    # exponent sums reach EXP_CAP - 1, one below the cap
    product = tuple_mul_into({}, tuple_terms(f), tuple_terms(g))
    assert (f * g).terms() == oracle_terms(product)


@given(polys(HALF), st.one_of(monomials(EXP_CAP - 1 - HALF), polys(EXP_CAP - 1 - HALF)))
def test_a_quotient_matches_the_tuple_kernel(f, g):
    # by a monomial or by several terms: the two routes of the division
    assert _raw(divides_alike(f * g, g)) == f


@given(polys(EXP_CAP - 1), monomials(EXP_CAP - 1))
def test_division_by_a_monomial_refuses_as_the_tuple_kernel_does(f, m):
    # any exponent of m above f's borrows from the next field up; the
    # guard bit or the sign shows it, and the tuple kernel's min(d) < 0
    divides_alike(f, m)


@given(polys(HALF), polys(EXP_CAP - 1 - HALF).filter(lambda g: not g.is_constant()),
       st.integers(2, 5))
def test_an_inexact_quotient_is_refused_as_by_the_tuple_kernel(f, g, content):
    # f g + 1 leaves 1 once f is taken out, which a nonconstant g cannot
    # divide; content g divides f g only where content divides f
    assert divides_alike(f * g + 1, g) == "not divisible"
    divides_alike(f * g, content * g)


# the resultant bounds its kernel's degrees by (m + 1)(n deg p + m deg q) in
# each other variable: with degrees m, n <= 2 in the eliminated variable and
# 42 elsewhere that is 3 (2 42 + 2 42) = 504, just below the cap
RESULTANT_TOP = 42


@st.composite
def resultant_pairs(draw):
    name = draw(st.sampled_from(VARS))
    degree = {name: st.integers(0, 2)}
    p, q = (draw(polys(RESULTANT_TOP, max_terms=3, exponents=degree)
                 .filter(lambda r: r.degree(name) > 0)) for _ in range(2))
    return p, q, name


@given(resultant_pairs())
def test_a_resultant_matches_the_bareiss_determinant_on_tuples(pair):
    p, q, name = pair
    assert resultant(p, q, name).terms() == oracle_terms(tuple_resultant(p, q, name))


@given(resultant_pairs())
def test_the_resultant_kernel_stays_within_its_stated_bound(pair):
    # every key a kernel product makes, during one resultant, has each
    # exponent at most (m + 1)(n deg p + m deg q), the docstring's bound
    p, q, name = pair
    made = []
    mul_into = exactpoly._mul_into
    exactpoly._mul_into = lambda out, f, g: made.append(mul_into(out, f, g)) or out
    try:
        resultant(p, q, name)
    finally:
        exactpoly._mul_into = mul_into
    m, n = int(p.degree(name)), int(q.degree(name))
    if m < n:
        p, q, m, n = q, p, n, m
    for i, var in enumerate(VARS):
        if var != name:
            bound = (m + 1) * (n * p.degree(var) + m * q.degree(var))
            assert all(exp[i] <= bound for out in made for exp, _ in _raw(out).terms())


# -- the cap ---------------------------------------------------------------

def monomial(name, e):
    exp = [0] * len(VARS)
    exp[VARS.index(name)] = e
    return MPoly({tuple(exp): 1})


@pytest.mark.parametrize("name", VARS)
def test_the_constructor_refuses_an_exponent_at_the_cap(name):
    below = monomial(name, EXP_CAP - 1)
    assert below.degree(name) == EXP_CAP - 1 and below.variables() == {name}
    exp = [0] * len(VARS)
    exp[VARS.index(name)] = EXP_CAP
    with pytest.raises(ValueError, match="non-negative ints"):
        MPoly({tuple(exp): 1})
    with pytest.raises(ValueError, match=f"below {EXP_CAP}"):
        dense_to_mpoly([0] * EXP_CAP + [1], name)
    assert dense_to_mpoly([0] * (EXP_CAP - 1) + [1], name) == below


@pytest.mark.parametrize("name", VARS)
def test_a_product_or_power_past_the_cap_raises(name):
    g = GENERATORS[name]
    top = monomial(name, EXP_CAP - 1)
    assert monomial(name, HALF) * monomial(name, EXP_CAP - 1 - HALF) == top
    assert g ** (EXP_CAP - 1) == top
    # the field's guard bit is set, and the carry it would make into the
    # next variable up never lands: each raises, none returns that variable
    for past in (lambda: top * g, lambda: g ** EXP_CAP, lambda: (top + 1) * (g + 1),
                 lambda: monomial(name, HALF) ** 2):
        with pytest.raises(OverflowError, match="cap"):
            past()


@pytest.mark.parametrize("name", VARS)
def test_a_substitution_past_the_cap_raises(name):
    other = "x" if name != "x" else "y"
    g = GENERATORS[other]
    # the replacement's powers: 2 (cap/2 - 1) fits, 2 (cap/2) does not
    assert (g**2).substitute(other, monomial(name, HALF - 1)) == monomial(name, 2 * HALF - 2)
    with pytest.raises(OverflowError, match="cap"):
        (g**2).substitute(other, monomial(name, HALF))
    # or the composition itself: name**(cap - 1 - k) g, g -> name**k, fits,
    # and one more power of name does not
    k = 100
    replaced = (monomial(name, EXP_CAP - 1 - k) * g).substitute(other, monomial(name, k))
    assert replaced == monomial(name, EXP_CAP - 1)
    with pytest.raises(OverflowError, match="cap"):
        (monomial(name, EXP_CAP - k) * g).substitute(other, monomial(name, k))


def test_a_resultant_past_its_bound_raises():
    # m = n = 1: the bound is 2 (deg p + deg q) in y, so 2 (200 + 55) = 510 fits
    res = resultant(X - Y**200, X - Y**55, "x")
    assert res.terms() == oracle_terms(tuple_resultant(X - Y**200, X - Y**55, "x"))
    assert res == Y**200 - Y**55
    with pytest.raises(OverflowError, match="cap"):
        resultant(X - Y**200, X - Y**56, "x")
    # the folded OR of u**128 + u**127 is 255, twice the degree: that cheap
    # bound fails at 2 (255 + 1), and the exact degrees, 2 * 128, pass
    p, q = X + U**128 + U**127, X + V
    assert resultant(p, q, "x").terms() == oracle_terms(tuple_resultant(p, q, "x"))


def test_a_cap_overflow_exits_two_on_the_command_line(monkeypatch, capsys):
    monkeypatch.setitem(certificates._IDENTITY_PAIRS, "cubic-at-origin",
                        lambda: [(Y ** EXP_CAP, ONE)])
    assert cli.main(["verify-identities"]) == 2
    assert f"an exponent reached the cap {EXP_CAP}" in capsys.readouterr().err


# -- the tuple surface -----------------------------------------------------

@given(polys(EXP_CAP - 1, max_terms=6))
def test_round_trips_keep_exponent_tuples_and_terms_order(p):
    terms = p.terms()
    exps = [exp for exp, _ in terms]
    assert exps == sorted(exps, reverse=True)
    assert MPoly(dict(terms)) == p
    constructor, (payload,) = p.__reduce__()
    assert constructor is MPoly and payload == dict(terms)
    assert all(type(exp) is tuple and len(exp) == len(VARS) for exp in payload)
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and twin.terms() == terms
    assert p.variables() == {VARS[i] for exp in exps for i, e in enumerate(exp) if e}
    for i, name in enumerate(VARS):
        assert p.degree(name) == max(exp[i] for exp in exps)
