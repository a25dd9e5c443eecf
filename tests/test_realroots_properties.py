"""Property tests for the algebraic-number layer.

Hypothesis runs derandomized, so every run draws the same examples.
Polynomials are built from planted roots: distinct rationals plus
irreducible quadratics (x - s)**2 - n, so every root is known in closed form.
"""

from fractions import Fraction as F
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kopelcas import model, realroots
from kopelcas.exactpoly import MPoly, X, _int_gcd, dense_to_mpoly
from kopelcas.realroots import (
    AlgebraicReal, _cubic_brackets, _cubic_discriminant, _eval_dyadic, _halve, _image,
    _int_clear, _interval_horner, _isolate_int, _isolate_square_free, _make_disjoint,
    _sign_dense_at, _square_free_int, _sturm_chain, _sturm_count, isolate_real_roots, sign_at,
)
from oracles import (
    bracket_counts, coefficient_of, remainder, replayed_compare, replayed_refine, replayed_sign,
    replayed_step, sturm_sign_count,
)
from test_model_properties import integer_cubics

rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 8))
# (x - s)**2 - n with n not a square: two irrational roots s +/- sqrt(n)
quadratics = st.tuples(st.integers(-3, 3),
                       st.integers(2, 40).filter(lambda n: math.isqrt(n) ** 2 != n))
small_polys = st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
                       min_size=2, max_size=5).filter(lambda cs: any(cs[1:]))


def _quadratic(s, n) -> MPoly:
    return (X - s) ** 2 - n


def _planted(rational_roots, quads, lead=1) -> MPoly:
    p = MPoly.constant(lead)
    for r in rational_roots:
        p = p * (X - r)
    for s, n in quads:
        p = p * _quadratic(s, n)
    return p


planted_polys = st.builds(
    _planted,
    st.lists(rationals, max_size=3, unique=True),
    st.lists(quadratics, max_size=2, unique_by=lambda q: q[0] * 1000 + q[1]),
    st.sampled_from([1, -2, 3]),
).filter(lambda p: not p.is_constant())


def _square_free(coeffs) -> bool:
    return len(_int_gcd(coeffs, [k * c for k, c in enumerate(coeffs)][1:])) == 1


# integer coefficients drawn as they come, with no planted root: few have a
# rational root, so most leave every root a window
drawn_polys = st.lists(st.integers(-60, 60), min_size=2, max_size=6).filter(
    lambda cs: cs[-1] != 0 and _square_free(cs)).map(
    lambda cs: sum((c * X**k for k, c in enumerate(cs)), MPoly.zero()))


def _value_at(p: MPoly, t: F) -> F:
    return p.evaluate({"x": t}).as_fraction()


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _is_dyadic(t: F) -> bool:
    return t.denominator & (t.denominator - 1) == 0


def _check_window(r):
    """A window root has dyadic, non-root endpoints and one root inside."""
    f = dense_to_mpoly(r._coeffs, r.var)
    if r.is_rational:
        assert _value_at(f, r.value) == 0
        return
    assert r.lo < r.hi and _is_dyadic(r.lo) and _is_dyadic(r.hi)
    assert _value_at(f, r.lo) != 0 and _value_at(f, r.hi) != 0
    assert sturm_sign_count(f, r.lo, r.hi) == 1


def _check_nested(inner, outer_lo, outer_hi):
    assert outer_lo <= inner.lo and inner.hi <= outer_hi


@given(planted_polys, st.lists(st.sampled_from(["step", "compare", "sign", "adopt"]),
                               min_size=1, max_size=8),
       st.lists(rationals, min_size=8, max_size=8), small_polys)
def test_windows_stay_dyadic_and_off_roots(p, ops, probes, q_coeffs):
    qi = _int_clear(q_coeffs)
    while not qi[-1]:
        qi = qi[:-1]
    for r in isolate_real_roots(p):
        _check_window(r)
        expected = r.approx
        for op, t in zip(ops, probes):
            lo, hi = r.lo, r.hi
            if op == "step":
                r = r._step()
            elif op == "compare":
                got = r.compare_rational(t)
                if abs(expected - float(t)) > 1e-9:
                    assert got == (1 if expected > t else -1)
            elif op == "sign":
                got = _sign_dense_at(qi, r)
                value = sum(float(c) * expected**k for k, c in enumerate(qi))
                if abs(value) > 1e-6:
                    assert got == (1 if value > 0 else -1)
            elif not r.is_rational:
                r._adopt(*_halve(r._coeffs, r._lower_sign(), r._a, r._b, r._k))
            _check_window(r)
            _check_nested(r, lo, hi)


@given(st.lists(rationals, max_size=4, unique=True),
       st.lists(quadratics, max_size=3, unique_by=lambda q: q),
       st.randoms(use_true_random=False))
def test_make_disjoint_separates_every_pair(rational_roots, quads, rnd):
    # distinct quadratics (x - s)**2 - n with n not a square share no root;
    # one polynomial per root set, so windows of different sets can clash
    items = []
    for r in rational_roots:
        items += isolate_real_roots(X - r)
    for s, n in quads:
        items += isolate_real_roots(_quadratic(s, n))
    rnd.shuffle(items)
    out = _make_disjoint(items)
    for a, b in zip(out, out[1:]):
        assert a.lo <= b.lo
    for i, a in enumerate(out):
        _check_window(a)
        for b in out[i + 1:]:
            if a.is_rational and b.is_rational:
                assert a.value != b.value
            elif a.is_rational:
                assert not b.lo < a.value < b.hi
            elif b.is_rational:
                assert not a.lo < b.value < a.hi
            else:
                assert max(a.lo, b.lo) >= min(a.hi, b.hi)


@given(st.lists(rationals, min_size=1, max_size=3, unique=True),
       st.lists(quadratics, max_size=1), st.booleans(), small_polys)
def test_sign_at_matches_exact_value_at_rational_roots(rational_roots, quads, big, q_coeffs):
    p = _planted(rational_roots, quads)
    if big:
        # end coefficients past 10**6 and many more divisor pairs
        p = p * (X**2 + 1000003)
    q = sum((c * X**k for k, c in enumerate(q_coeffs)), MPoly.zero())
    roots = isolate_real_roots(p)
    assert len(roots) == len(rational_roots) + 2 * len(quads)
    for r in roots:
        if r.is_rational:
            assert r.value in rational_roots
            assert sign_at(q, r) == _sign(_value_at(q, r.value))
        else:
            # a window holds a quadratic's root: every rational one snaps
            assert any(sign_at(_quadratic(s, n), r) == 0 for s, n in quads)


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _brute_force_strip(coeffs):
    """Every candidate +-p/q as a Fraction, sorted, tested one by one."""
    roots, work = [], list(coeffs)
    while work and work[0] == 0:
        roots.append(F(0))
        work.pop(0)
    if len(work) <= 1:
        return roots, tuple(work)
    nums, dens = _divisors(abs(work[0])), _divisors(abs(work[-1]))
    for r in sorted({F(s * p, q) for p in nums for q in dens for s in (1, -1)}):
        if len(work) > 1 and sum(c * r**k for k, c in enumerate(work)) == 0:
            roots.append(r)
            quot, acc = [], F(0)
            for c in reversed(work[1:]):
                acc = acc * r + c
                quot.append(acc)
            work = list(_int_clear(quot[::-1]))
    return roots, tuple(work)


def _positive_lead(coeffs) -> tuple:
    return tuple(coeffs) if coeffs[-1] > 0 else tuple(-c for c in coeffs)


@given(st.one_of(planted_polys, drawn_polys))
def test_strip_rational_roots_matches_brute_force(p):
    # isolation snaps exactly the rational roots that a search over every
    # candidate finds, and leaves the rest as windows of their cofactor
    coeffs = _int_clear([coefficient_of(p, "x", k).as_fraction()
                         for k in range(int(p.degree("x")) + 1)])
    roots = _isolate_int("x", coeffs)
    expected_roots, expected_rest = _brute_force_strip(coeffs)
    assert sorted(r.value for r in roots if r.is_rational) == sorted(expected_roots)
    assert all(r._coeffs == _positive_lead(expected_rest) for r in roots if not r.is_rational)


# a nonzero rational root s/q with q up to 10**9; the first planted root's s
# and q are both past 10**6, and so are the polynomial's end coefficients
big_rationals = st.builds(F, st.integers(-10**9, 10**9).filter(bool), st.integers(1, 10**9))
past_a_million = st.tuples(st.integers(10**6 + 1, 10**9), st.integers(10**6 + 1, 10**9),
                           st.sampled_from([1, -1])).filter(lambda t: math.gcd(t[0], t[1]) == 1)


@given(past_a_million, st.lists(big_rationals, max_size=2), st.lists(quadratics, max_size=1))
def test_every_planted_rational_root_snaps(first, others, quads):
    s, q, sign = first
    planted = {F(sign * s, q), *others}
    p = _planted(planted, quads)
    coeffs = _int_clear([coefficient_of(p, "x", k).as_fraction()
                         for k in range(int(p.degree("x")) + 1)])
    assert min(abs(coeffs[0]), abs(coeffs[-1])) > 10**6
    roots = _isolate_int("x", coeffs)
    assert len(roots) == len(planted) + 2 * len(quads)
    assert {r.value for r in roots if r.is_rational} == planted
    for r in roots:
        if not r.is_rational:
            # the window's cofactor is the planted quadratic, with no rational root
            assert len(r._coeffs) == 3 and _brute_force_strip(r._coeffs)[0] == []
            assert any(sign_at(_quadratic(c, n), r) == 0 for c, n in quads)


@given(planted_polys)
def test_approx_is_the_nearest_double(p):
    for r in isolate_real_roots(p):
        d = F(r.approx)
        half_ulp = F(math.ulp(r.approx)) / 2
        # strictly between the midpoints to the neighbouring doubles
        assert r.compare_rational(d - half_ulp) > 0 and r.compare_rational(d + half_ulp) < 0


def _bisected_double(r) -> float:
    """The nearest double by halving r's window until both ends round alike.

    The rounding loop approx ran before its float seed, kept as the oracle.
    """
    a, b, k = r._a, r._b, r._k
    slo = _sign(_eval_dyadic(r._coeffs, a, k))
    while a != b and a / (1 << k) != b / (1 << k):
        a, b, k = _halve(r._coeffs, slo, a, b, k)
    return a / (1 << k)


# m (x - s)**2 - n: irrational roots s +/- sqrt(n / m), close together for
# large m, like fixed points next to a fold
close_pairs = st.tuples(st.integers(-3, 3), st.integers(1, 10**6), st.integers(1, 50)).filter(
    lambda t: math.isqrt(t[1] * t[2]) ** 2 != t[1] * t[2])


@given(st.lists(close_pairs, min_size=1, max_size=2), st.lists(rationals, max_size=2),
       st.integers(0, 3))
def test_approx_matches_bisection(pairs, rational_roots, probes):
    p = _planted(rational_roots, [])
    for s, m, n in pairs:
        p = p * (m * (X - s) ** 2 - n)
    for r in isolate_real_roots(p):
        for t in range(probes):  # tighten some windows first, as sign queries do
            r.compare_rational(F(t, 3))
        if r.is_rational:
            continue
        window = r.lo, r.hi
        expected = _bisected_double(r)
        assert r.approx == expected
        assert (r.lo, r.hi) == window


def _isolate_factor_by_factor(coeffs):
    """Isolation with a gcd and a Sturm chain of its own for every factor."""
    items = []
    df = [k * c for k, c in enumerate(coeffs)][1:]
    for factor, mult in _square_free_int(coeffs, _int_gcd(coeffs, df)):
        rational, rest = _brute_force_strip(factor)
        if len(rest) > 1:
            hit, windows = _isolate_square_free(rest, _sturm_count(_sturm_chain(rest)))
            assert hit is None
            items += [AlgebraicReal._from_window("x", rest, a, b, k, mult)
                      for a, b, k in windows]
        items += [AlgebraicReal.from_rational(r, "x", mult) for r in rational]
    return _make_disjoint(items)


def _described(r):
    if r.is_rational:
        return r.value, r.multiplicity_in_source
    return r._coeffs, r._a, r._b, r._k, r.multiplicity_in_source


@given(st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=3,
                unique_by=lambda t: t[0]),
       st.lists(st.tuples(quadratics, st.integers(1, 2)), max_size=2,
                unique_by=lambda t: t[0]),
       st.sampled_from([1, -1, -2, 3]), st.booleans())
def test_isolation_reuses_the_chain_without_changing_a_root(rational_roots, quads, lead, big):
    # planted repeated factors, negative leads, rational roots to strip and
    # irreducible quadratics; big puts the end coefficients past 10**6
    p = MPoly.constant(lead)
    for r, m in rational_roots:
        p = p * (X - r) ** m
    for (c, n), m in quads:
        p = p * _quadratic(c, n) ** m
    if big:
        p = p * (X**2 + 1000003)
    if p.is_constant():
        return
    coeffs = _int_clear([coefficient_of(p, "x", k).as_fraction()
                         for k in range(int(p.degree("x")) + 1)])
    df = [k * c for k, c in enumerate(coeffs)][1:]
    assert _square_free_int(coeffs, _sturm_chain(coeffs)[-1]) == \
        _square_free_int(coeffs, _int_gcd(coeffs, df))
    got = _isolate_int("x", coeffs)
    expected = _isolate_factor_by_factor(coeffs)
    assert [_described(r) for r in got] == [_described(r) for r in expected]
    assert len(got) == len(rational_roots) + 2 * len(quads)


# a window (a / 2**k, b / 2**k) per branch of _interval_horner: a >= 0, b <= 0, or a < 0 < b
WINDOWS = {
    "nonnegative": lambda m, w: (m, m + w),
    "nonpositive": lambda m, w: (-m - w, -m),
    "straddling": lambda m, w: (-m - 1, w + 1),
}


@pytest.mark.parametrize("side", WINDOWS)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=7),
       st.integers(0, 50), st.integers(0, 50), st.integers(0, 8),
       st.lists(st.fractions(0, 1), max_size=4))
def test_interval_horner_bounds_the_value_over_the_window(side, coeffs, m, w, k, steps):
    a, b = WINDOWS[side](m, w)
    low, high = _interval_horner(coeffs, a, b, k)
    scale = 2 ** (k * (len(coeffs) - 1))
    for s in [F(0), F(1), *steps]:
        t = F(a + s * (b - a), 2**k)
        value = scale * sum(c * t**i for i, c in enumerate(coeffs))
        assert low <= value <= high, (t, value)


def _product(*factors) -> tuple:
    """Primitive integer coefficients of a product of ascending integer polynomials."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, p in enumerate(out):
            for j, c in enumerate(f):
                prod[i + j] += p * c
        out = prod
    return _int_clear([F(c) for c in out])


def _close_pair(s, g, t, n) -> tuple:
    """t (2**g x - s)**2 - n with n <= t: two roots s / 2**g +- sqrt(n / t) / 2**g."""
    return (s * s * t - n, -2 * s * t * 2**g, t * 4**g)


# cubics as they come; cubics with a pair of roots closer than 2**-40, at
# and off 0, times a planted rational root, which snaps and leaves the pair
# to a Sturm chain; the same plus 1, which mostly has no rational root and
# keeps its brackets; and a planted rational root times a small quadratic
generic_cubics = st.lists(st.integers(-10**4, 10**4), min_size=4, max_size=4).filter(
    lambda cs: cs[-1] != 0).map(lambda cs: _product(cs))
close_cubics = st.builds(
    lambda q, p, s, g, t, n: _product((-p, q), _close_pair(s, g, t, min(n, t))),
    st.integers(1, 8), st.integers(-12, 12), st.integers(-3, 3), st.integers(42, 60),
    st.integers(1, 50), st.integers(1, 50))
shifted_close_cubics = close_cubics.map(lambda c: _product((c[0] + 1, *c[1:])))
planted_cubics = st.builds(
    lambda r, c, n: _product((-r.numerator, r.denominator), (c, 0, 1) if n else (-c, 0, 1)),
    rationals, st.integers(1, 40), st.booleans())
drawn_cubics = st.one_of(generic_cubics, close_cubics, shifted_close_cubics, planted_cubics)


def _sturm_route(coeffs):
    """_isolate_int with the certified brackets refused, so Sturm chains count.

    A cubic with disc != 0 asks for its brackets once, and this checks that
    it was refused them.
    """
    asked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realroots, "_cubic_brackets", lambda *args, **kwargs: asked.append(args))
        roots = _isolate_int("x", coeffs)
    assert len(asked) == (_cubic_discriminant(coeffs) != 0)
    return roots


@given(drawn_cubics)
def test_bracket_counts_give_the_sturm_windows(coeffs):
    got = _isolate_int("x", coeffs)
    expected = _sturm_route(coeffs)
    assert [_described(r) for r in got] == [_described(r) for r in expected]
    for r in got:
        if r._hint is not None:
            a, b, k = r._hint
            assert _sign(_eval_dyadic(r._coeffs, a, k)) == r._slo == -_sign(
                _eval_dyadic(r._coeffs, b, k))


def _float_eval(cf, x: float) -> tuple[float, float, float]:
    """p(x), p'(x) and sum |c_i x**i| in floats, cf the coefficients highest first."""
    fx, dfx, size = cf[0], 0.0, abs(cf[0])
    ax = abs(x)
    for c in cf[1:]:
        dfx = dfx * x + fx
        fx = fx * x + c
        size = size * ax + abs(c)
    return fx, dfx, size


def _generic_brackets(coeffs, disc):
    """_cubic_brackets through the generic loops _float_eval and _eval_dyadic.

    The reference the degree-3 kernel must match bit for bit.  Each sorted
    seed proposes a bracket, None where its floats fail or its ends show no
    strict sign change.  Of three, the outer two must hold, be apart and
    share their lower sign, and the gap between them stands in for the
    middle one where that fails or is not apart from both.
    """
    if not disc:
        return None
    try:
        lead = float(coeffs[-1])
        cf = [float(c) / lead for c in reversed(coeffs)]
        seeds = realroots._cubic_seeds(cf, disc > 0)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    if len(seeds) != (3 if disc > 0 else 1):
        return None

    def bracket(x):
        try:
            fx, dfx, size = _float_eval(cf, x)
            k = max(-math.frexp((abs(fx) + size * realroots._FLOAT_NOISE) / abs(dfx))[1], 0)
            n, den = x.as_integer_ratio()
        except (OverflowError, ZeroDivisionError, ValueError):
            return None
        m = (n << k) // den
        slo = _sign(_eval_dyadic(coeffs, m - 1, k))
        if slo * _sign(_eval_dyadic(coeffs, m + 2, k)) >= 0:
            return None
        return (m - 1, m + 2, k), slo

    def apart(lower, upper):
        return F(lower[0][1], 1 << lower[0][2]) <= F(upper[0][0], 1 << upper[0][2])

    brackets = [bracket(x) for x in sorted(seeds)]
    low, high = brackets[0], brackets[-1]
    if low is None or high is None:
        return None
    if len(brackets) == 3:
        if low[1] != high[1] or not apart(low, high):
            return None
        if brackets[1] is None or not (apart(low, brackets[1]) and apart(brackets[1], high)):
            (_, hi, j), (lo, _, k) = low[0], high[0]
            top = max(j, k)
            brackets[1] = (hi << (top - j), lo << (top - k), top), -low[1]
    return brackets


# the first cubic has disc = 0 and the second a coefficient past the float range
@pytest.mark.parametrize("coeffs", [(2, -3, 0, 1), (1, 0, -10**400, 1)])
def test_the_bracket_kernel_refuses_what_the_generic_loops_refuse(coeffs):
    disc = _cubic_discriminant(coeffs)
    assert _cubic_brackets(coeffs, disc) is None is _generic_brackets(coeffs, disc)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("seed", [pytest.param(-1.0, id="right-end"),
                                  pytest.param(1.5, id="left-end")])
def test_a_bracket_end_on_the_root_is_refused_as_the_generic_loops_refuse(
        monkeypatch, sign, seed):
    # +-(x - 1)(x**2 + 1) has its one real root at 1, and each wrong seed
    # puts that end of its bracket on it: a zero end is no strict sign change
    coeffs = tuple(sign * c for c in (-1, 1, -1, 1))
    monkeypatch.setattr(realroots, "_cubic_seeds", lambda cf, three, outer=False: [seed])
    disc = _cubic_discriminant(coeffs)
    assert _cubic_brackets(coeffs, disc) is None is _generic_brackets(coeffs, disc)


@settings(max_examples=400)
@given(st.one_of(drawn_cubics, shifted_close_cubics), st.integers(0, 3),
       st.sampled_from([1, 10**150, 10**300, 10**400]), st.sampled_from([None, 0, 1, -1]))
def test_the_bracket_kernel_matches_the_generic_loops(coeffs, at, scale, disc):
    # a coefficient scaled toward and past the float range overflows the
    # closed form or the error bound; disc overridden (0, or a wrong sign)
    # sends the seeds down the refusals
    coeffs = tuple(c * scale if i == at else c for i, c in enumerate(coeffs))
    if disc is None:
        disc = _cubic_discriminant(coeffs)
    assert _cubic_brackets(coeffs, disc) == _generic_brackets(coeffs, disc)


def _with_model_signs(coeffs) -> tuple:
    """coeffs negated, then with x -> -x, as needed for c1 >= 0 >= c2, as in the model's cubic.

    Q's coefficient signs then are the model's, which the bracket rule's
    bounds take as given: q1 = 2 M c1 > 0 > q2 = M c2 where c1 and c2 are
    not 0.
    """
    if coeffs[2] > 0:
        coeffs = tuple(-c for c in coeffs)
    if coeffs[1] < 0:
        coeffs = tuple(-c if i % 2 else c for i, c in enumerate(coeffs))
    return coeffs


# roots near 2**-49, 2**-48 and 2: the middle seed's bracket holds the
# close pair, so it has no sign change, while the lowest holds one root,
# and the gap up to the highest's bracket holds the middle one
_CLOSE_PAIR_NEAR_ZERO = (-2, 1688849860263937, -316912650057058194799105933312,
                 158456325028528675187087900672)


@settings(max_examples=400)
@given(st.one_of(drawn_cubics, shifted_close_cubics), st.integers(0, 3),
       st.sampled_from([1, 10**150, 10**300, 10**400]), st.sampled_from([None, 0, 1, -1]),
       st.integers(1, 10**40), st.integers(1, 10**40))
@example(_CLOSE_PAIR_NEAR_ZERO, 0, 1, None, 1, 1)
@example(_CLOSE_PAIR_NEAR_ZERO, 0, 1, None, 1, 10**6)
def test_the_outer_brackets_are_the_first_and_last(coeffs, at, scale, disc, k, m):
    # the outer call gives brackets exactly where the full call does, its
    # first and last, and the bracket rule matches its oracle, which takes
    # those of the full call and Q's signs exactly, on the strategies of
    # the kernel's bit-for-bit test above, disc forced through the rule's
    # own name for it.  Q is the hand form at speed terms k and m
    coeffs = _with_model_signs(tuple(c * scale if i == at else c for i, c in enumerate(coeffs)))
    assume(coeffs[1] and coeffs[2])
    if disc is None:
        disc = _cubic_discriminant(coeffs)
    full = _cubic_brackets(coeffs, disc)
    if full is not None and len(full) == 3:
        full = [full[0], full[-1]]
    assert _cubic_brackets(coeffs, disc, outer=True) == full
    q = remainder(coeffs, k, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_cubic_discriminant", lambda c: disc)
        got = model._bracket_counts(coeffs, q)
    assert got == bracket_counts(coeffs, q, disc)


def _has_no_rational_root(coeffs, nums, dens) -> bool:
    """No candidate +-s/q, s in nums and q in dens, is a root of coeffs."""
    return all(sum(c * F(sign * n, d) ** k for k, c in enumerate(coeffs))
               for n in nums for d in dens for sign in (1, -1))


def test_brackets_separate_close_roots_and_give_way_at_a_midpoint_root():
    # (3 x - 1)(2**85 x**2 - 1) + 1: roots near +-2**-42 and 1/3.  Its end
    # coefficients 2 and 3 * 2**85 leave few candidates, and none is a root.
    coeffs = (2, -3, -2**85, 3 * 2**85)
    assert _has_no_rational_root(coeffs, (1, 2), [m << j for m in (1, 3) for j in range(86)])
    roots = _isolate_int("x", coeffs)
    assert [r._hint is not None for r in roots] == [True, True, True]
    assert [_described(r) for r in roots] == [_described(r) for r in _sturm_route(coeffs)]
    # the pair is less than 2**-40 apart
    assert roots[0].compare_rational(F(-1, 2**41)) > 0 > roots[1].compare_rational(F(1, 2**41))
    # 2**61 (2 x - 1)(5 x**2 - 5 x + 1) + 1: a root near 1/2 + 2**-60
    # between 0.276 and 0.724.  2**61 - 1 is prime, so the candidates are
    # few, and none is a root.  The walk's midpoint 1/2 lies inside that
    # root's bracket, and one exact sign puts the root above it.
    coeffs = (1 - 2**61, 7 * 2**61, -15 * 2**61, 10 * 2**61)
    assert _has_no_rational_root(coeffs, (1, 2**61 - 1),
                                 [m << j for m in (1, 5) for j in range(63)])
    roots = _isolate_int("x", coeffs)
    assert [r._hint is not None for r in roots] == [True, True, True]
    ha, hb, hk = roots[1]._hint
    assert ha << 1 < 1 << hk < hb << 1
    assert roots[1].compare_rational(F(1, 2)) > 0
    assert [_described(r) for r in roots] == [_described(r) for r in _sturm_route(coeffs)]
    # (2 x - 1) times a quadratic with roots near 0.4 and 0.7 and big
    # coefficients: the walk's midpoint 1/2 is a root, snapped by bisection
    coeffs = _product((-1, 2), (280001, -1100003, 1000003))
    roots = _isolate_int("x", coeffs)
    assert [r.is_rational for r in roots] == [False, True, False]
    assert roots[1].value == F(1, 2)
    assert [_described(r) for r in roots] == [_described(r) for r in _sturm_route(coeffs)]


def _bare(r):
    """r with no hint: every halving evaluates."""
    if r.is_rational:
        return r
    return AlgebraicReal._from_window(r.var, r._coeffs, r._a, r._b, r._k, r._mult, r._slo)


def _window(r):
    return r._value if r.is_rational else (r._a, r._b, r._k)


def _taylor_shift(coeffs) -> tuple:
    """The ascending coefficients of f(y - 1)."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * (-1) ** (i - j)
    return tuple(out)


@given(st.one_of(generic_cubics, close_cubics, shifted_close_cubics),
       st.lists(st.tuples(st.sampled_from(["refine", "compare", "sign", "image"]),
                          rationals, st.integers(1, 80)), min_size=1, max_size=6),
       small_polys)
def test_hints_leave_the_windows_of_evaluated_halving(coeffs, ops, q_coeffs):
    qi = _int_clear(q_coeffs)
    while not qi[-1]:
        qi = qi[:-1]
    twin = _taylor_shift(coeffs)  # its roots are the x roots plus 1
    hinted_ys = _isolate_int("y", twin)
    bare_ys = [_bare(y) for y in hinted_ys]
    for hinted in _isolate_int("x", coeffs):
        bare = _bare(hinted)
        for op, t, n in ops:
            if op == "refine":
                hinted, bare = hinted.refine(F(1, 2**n)), bare.refine(F(1, 2**n))
            elif op == "compare":
                assert hinted.compare_rational(t) == bare.compare_rational(t)
            elif op == "sign":
                assert _sign_dense_at(qi, hinted) == _sign_dense_at(qi, bare)
            else:
                y1 = _image(hinted, (1, 1), 1, lambda alpha: hinted_ys)
                y2 = _image(bare, (1, 1), 1, lambda alpha: bare_ys)
                assert _window(y1) == _window(y2)
                assert y1.is_rational or y1._hint in [y._hint for y in hinted_ys]
            assert _window(hinted) == _window(bare)
        assert hinted.approx == bare.approx


def _trimmed(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


# a query is drawn coefficients, or the cubic times a drawn factor: that one
# vanishes at every root, so at a window only the gcd certifies the zero
scaling_queries = st.lists(st.tuples(st.booleans(), st.lists(st.integers(-50, 50), min_size=1,
                                                             max_size=4)), min_size=1, max_size=4)


@settings(max_examples=300)
@example((2, -2, -1, 1), [(True, [1])], 3)  # (x - 1)(x**2 - 2): two windows share the zero
@given(integer_cubics(), scaling_queries, st.integers(1, 2**64))
def test_a_positive_multiple_of_a_query_leaves_every_answer_and_window(coeffs, queries, c):
    # a report asks positive multiples of its conditions, not their primitive parts
    qs = [_trimmed(_product(coeffs, q) if shared else q) for shared, q in queries]
    for plain, scaled in zip(_isolate_int("x", coeffs), _isolate_int("x", coeffs)):
        for q in qs:
            assert _sign_dense_at(q, plain) == _sign_dense_at(tuple(c * t for t in q), scaled)
            assert (plain.lo, plain.hi) == (scaled.lo, scaled.hi)


# a query and what it takes: a rational at the window's i / d (outside it
# for i < 0 or i > d), a drawn factor, alone or times the defining
# polynomial, or a width under 2**(-4 (i + 8)) / d
window_queries = st.lists(
    st.tuples(st.sampled_from(["compare", "sign", "refine", "step"]), st.integers(-8, 16),
              st.integers(1, 8), st.booleans(),
              st.lists(st.integers(-50, 50), min_size=1, max_size=4)),
    min_size=1, max_size=8)


@settings(max_examples=200)
@given(st.one_of(planted_polys, drawn_polys, drawn_cubics), window_queries)
def test_every_query_leaves_the_window_of_its_own_halving_loop(source, queries):
    # the oracles replay each query as a loop over a shadow window written
    # back at the end; the window or exact value each query leaves must be
    # theirs, and refine and _step must leave the root they copy alone
    roots = isolate_real_roots(source) if isinstance(source, MPoly) else _isolate_int("x", source)
    for r in roots:
        for op, i, d, shared, q in queries:
            before, coeffs, hint = _window(r), r._coeffs, r._hint
            if op == "compare":
                t = r.lo + (r.hi - r.lo) * F(i, d) if not r.is_rational else r.value + F(i, d)
                got = r.compare_rational(t)
                expected, after = replayed_compare(coeffs, hint, before, t)
                assert got == expected
            elif op == "sign":
                qi = _trimmed(_product(coeffs, q) if shared else q)
                got = _sign_dense_at(qi, r)
                expected, after = replayed_sign(coeffs, hint, before, qi)
                assert got == expected
            else:
                if op == "refine":
                    width = F(1, d << 4 * (i + 8))
                    out, after = r.refine(width), replayed_refine(coeffs, hint, before, width)
                else:
                    out, after = r._step(), replayed_step(coeffs, hint, before)
                assert _window(r) == before
                r = out
            assert _window(r) == after
