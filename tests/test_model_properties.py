"""Property tests for the integer stability binder and the fixed points.

Hypothesis runs derandomized, so every run draws the same examples.  The
symbolic route, MPoly.evaluate on the conditions reduced onto the fixed
point locus, serves as the oracle for the binder; the report route,
Equilibrium.is_positive and jury_report's verdicts, serves as the oracle
for a scan cell's counts (_Row.counts), on its certified brackets and on
the whole-line isolation it falls back to; whole-line isolation serves as
the oracle for the discriminant's sign, and that fallback for the scan's
certified float brackets; the locus y = v x (1 - x) on doubles serves as
the oracle for y; and the unit-square flag's retired definition, three
exact signs, serves as the oracle for Equilibrium.in_unit_square.
"""

from fractions import Fraction as F
import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from kopelcas import model, realroots
from kopelcas.certificates import COUNT_DISCRIMINANT
from kopelcas.exactpoly import _int_clear, dense_to_mpoly
from kopelcas.model import (
    ModelParams, _cubic_discriminant, _Point, bound_stability_polys, e0_stable, equilibria,
    equilibrium_report, jury_report, stability_conditions,
)
from kopelcas.rational import format_rational
from kopelcas.realroots import (
    AlgebraicReal, _cubic_brackets, _eval_int_at, _isolate_int, _sign_dense_at, sign_at,
)
from oracles import coefficient_of, point_counts, point_remainder, sturm_sign_count


intensities = st.builds(F, st.integers(1, 200), st.integers(1, 40))
speeds = st.builds(F, st.integers(1, 20), st.integers(1, 20)).filter(lambda s: s <= 1)
# full speed, a shared speed below one, and two different speeds
speed_pairs = st.one_of(
    st.just((F(1), F(1))),
    speeds.filter(lambda s: s < 1).map(lambda s: (s, s)),
    st.tuples(speeds, speeds).filter(lambda ab: ab[0] != ab[1]),
)


def _dense_x(poly) -> list:
    return [coefficient_of(poly, "x", k).as_fraction() for k in range(int(poly.degree("x")) + 1)]


@given(intensities, intensities, speed_pairs)
def test_binder_is_a_positive_multiple_of_the_symbolic_binding(u, v, ab):
    a, b = ab
    params = ModelParams(u, v, a, b)
    dense = _Point.of(params).conditions
    for d, poly in zip(dense, bound_stability_polys(params)):
        p = _dense_x(poly)
        assert len(d) == len(p)
        ratio = F(d[-1]) / p[-1]
        assert ratio > 0
        assert all(F(di) == ratio * pi for di, pi in zip(d, p))
    # the first two conditions differ by twice the trace 2 - a - b
    assert (dense[0] == dense[1]) == (a == b == 1)


@given(st.integers(-2**70, 2**70), st.integers(0, 80), st.integers(0, 2**20))
@example(0, 0, 1)
@example(0, 9, 0)
@example(-12, 0, 5)
@example(-12, 3, 0)
@example(-48, 4, 80)
def test_window_text_matches_format_rational(a, k, width):
    # a report prints a window's ends from its integers (a, b, k); width 0
    # is an exact root, printed from its Fraction
    root = AlgebraicReal._from_window("x", (-2, 0, 1), a, a + width, k, 1)
    lo, hi = F(a, 1 << k), F(a + width, 1 << k)
    assert root.is_rational == (width == 0)
    assert model._window_text(root) == [format_rational(lo), format_rational(hi)]


@given(intensities, intensities, speed_pairs)
def test_jury_signs_and_origin_match_the_symbolic_route(u, v, ab):
    a, b = ab
    params = ModelParams(u, v, a, b)
    polys = bound_stability_polys(params)
    for eq in equilibria(params):
        signs = jury_report(eq, params).cd_signs
        assert signs == tuple(sign_at(p, eq.x_root) for p in polys)
    origin = {"x": 0, "y": 0, "u": u, "v": v, "a": a, "b": b}
    expected = all(cd.evaluate(origin).as_fraction() > 0 for cd in stability_conditions())
    assert e0_stable(params) == expected


@given(intensities, intensities, speed_pairs)
def test_fixed_point_y_follows_the_float_locus(u, v, ab):
    for eq in equilibria(ModelParams(u, v, *ab)):
        x = eq.x_approx
        expected = float(v) * x * (1 - x)
        assert abs(eq.y_approx - expected) <= 1e-9 * max(1.0, abs(expected))


def _retired_in_unit_square(eq) -> bool:
    """The unit-square flag as it was once computed: 0 <= x <= 1 and y <= 1, by exact signs."""
    qi, scale = eq._point.locus
    # y - 1, scaled by the locus's denominator; 0 <= x <= 1 gives y >= 0
    y_minus_one = (qi[0] - scale,) + qi[1:]
    return (eq.x_root.compare_rational(0) >= 0
            and eq.x_root.compare_rational(1) <= 0
            and _sign_dense_at(y_minus_one, eq.x_root) <= 0)


# u v below 1, at 1 and above it
uv_products = st.one_of(
    st.builds(F, st.integers(1, 39), st.integers(40, 400)),
    st.just(F(1)),
    st.builds(F, st.integers(41, 4000), st.integers(1, 40)),
)


@given(intensities, uv_products, speed_pairs)
def test_every_fixed_point_lies_below_one(u, uv, ab):
    # the unit-square flag is the sign of x, as the retired definition says;
    # where u v <= 1 the count discriminant is negative
    params = ModelParams(u, uv / u, *ab)
    for eq in equilibria(params):
        assert eq.x_root.compare_rational(1) < 0 and eq.y_root.compare_rational(1) < 0
        assert eq.in_unit_square == _retired_in_unit_square(eq)
    disc = COUNT_DISCRIMINANT.evaluate({"u": params.u, "v": params.v}).as_fraction()
    assert disc < 0 or uv > 1


def _report_answer(params) -> list:
    """(approx, multiplicity, stable) of the positive fixed points, by the report route."""
    return [(e.x_approx, e.multiplicity, jury_report(e, params).verdict == "stable")
            for e in equilibria(params) if e.is_positive]


def _report_counts(params) -> tuple:
    answer = _report_answer(params)
    return len(answer), sum(stable for _, _, stable in answer)


def _fallback_counts(point) -> tuple:
    """point_counts(point) as a scan cell takes them when its brackets fail.

    Every cell then isolates its whole cubic, and this checks that it did,
    but for one whose signs alone put its one real root at or below 0
    (disc < 0 and C(0) >= 0, C(0) = 0 on u v = 1), which asks for no
    bracket and isolates nothing.
    """
    calls = []
    isolate = model._isolate_int
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_cubic_brackets", lambda *args, **kwargs: None)
        patch.setattr(model, "_isolate_int", lambda *args: calls.append(args) or isolate(*args))
        answer = point_counts(point)
    cubic = point.cubic
    settled = _cubic_discriminant(cubic) < 0 <= cubic[0]
    assert len(calls) == (not settled)
    return answer


@given(intensities, intensities, speed_pairs)
def test_positive_roots_are_the_positive_equilibria(u, v, ab):
    # the bracket route, the forced fallback and the report count alike
    params = ModelParams(u, v, *ab)
    point = _Point.of(params)
    assert point_counts(point) == _fallback_counts(point) == _report_counts(params)


@pytest.mark.parametrize("u, v, a, b, positive", [
    # u v = 1: the cubic's root 0 is the origin, at the window's end
    pytest.param(F(2), F(1, 2), F(1), F(1), [], id="uv-one"),
    pytest.param(F(3), F(3), F(1), F(1), [(2 / 3, 3, False)], id="triple-point"),
    pytest.param(F(2), F(2), F(1), F(1), [(0.5, 1, True)], id="rational-half"),
    pytest.param(F(1, 5), F(9), F(1), F(1), [(0.048591172235676966, 1, True)],
                 id="root-near-zero"),
    # u v < 1: the cubic's one real root lies below 0
    pytest.param(F(1, 10), F(6), F(1), F(1), [], id="negative-root"),
    pytest.param(F(4), F(4), F(1, 2), F(3, 4),
                 [(0.3454915028125263, 1, False), (0.75, 1, False),
                  (0.9045084971874737, 1, False)],
                 id="unequal-speeds"),
])
def test_positive_roots_named_cases(u, v, a, b, positive):
    params = ModelParams(u, v, a, b)
    assert _report_answer(params) == positive
    point = _Point.of(params)
    expected = len(positive), sum(stable for _, _, stable in positive)
    assert point_counts(point) == _fallback_counts(point) == expected


small_roots = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def integer_cubics(draw):
    """Ascending primitive integer cubics: drawn, or with planted roots.

    Planted roots come simple, double or triple, or as one rational root
    times (x - s)**2 - n, whose other two roots are real for n > 0 and a
    complex pair for n < 0.
    """
    shape = draw(st.sampled_from(["drawn", "simple", "double", "triple", "quadratic"]))
    if shape == "drawn":
        coeffs = draw(st.lists(st.integers(-40, 40), min_size=4, max_size=4))
        assume(coeffs[3] != 0)
        return _int_clear([F(c) for c in coeffs])
    r, s = draw(small_roots), draw(small_roots)
    if shape == "quadratic":
        n = draw(st.sampled_from([n for n in range(-9, 10) if n]))
        factors = [(-r, 1), (s * s - n, -2 * s, 1)]
    else:
        t = draw(small_roots)
        roots = {"simple": [r, s, t], "double": [r, r, s], "triple": [r, r, r]}[shape]
        factors = [(-x, 1) for x in roots]
    poly = [F(draw(st.sampled_from([1, -2, 3])))]
    for f in factors:
        out = [F(0)] * (len(poly) + len(f) - 1)
        for i, p in enumerate(poly):
            for j, c in enumerate(f):
                out[i + j] += p * c
        poly = out
    return _int_clear(poly)


@given(integer_cubics())
def test_discriminant_sign_counts_the_simple_real_roots(coeffs):
    # the certified brackets trust disc's sign for the real-root count
    disc = _cubic_discriminant(coeffs)
    roots = _isolate_int("x", coeffs)
    mults = [r.multiplicity_in_source for r in roots]
    if disc > 0:
        assert mults == [1, 1, 1]
    elif disc < 0:
        assert mults == [1]
    else:
        assert max(mults) > 1


def _unit_brackets(point):
    """The roots of point's cubic in (0, 1) as their certified brackets, or None.

    None when the brackets fail or one reaches across 0 or 1, where a scan
    cell falls back to whole-line isolation.
    """
    cubic = point.cubic
    brackets = _cubic_brackets(cubic, _cubic_discriminant(cubic))
    if brackets is None:
        return None
    roots = []
    for (a, b, k), slo in brackets:
        if a < 0 < b or a < 1 << k < b:
            return None
        if 0 <= a and b <= 1 << k:
            roots.append(AlgebraicReal._from_window("x", cubic, a, b, k, 1, slo))
    return roots


@given(intensities, intensities)
def test_certified_brackets_match_the_sturm_route(u, v):
    point = _Point.of(ModelParams(u, v))
    cubic = point.cubic
    certified = _unit_brackets(point)
    assume(certified is not None)
    sturm = [r for r in _isolate_int("x", cubic)
             if r.compare_rational(0) > 0 and r.compare_rational(1) < 0]
    assert [(r.approx, r.multiplicity_in_source) for r in certified] == \
        [(r.approx, r.multiplicity_in_source) for r in sturm]
    assert [tuple(point.signs(r)) for r in certified] == [tuple(point.signs(r)) for r in sturm]
    assert point_counts(point) == _fallback_counts(point)
    poly = dense_to_mpoly([F(c) for c in cubic], "x")
    for r in certified:
        assert not r.is_rational
        assert 0 <= r.lo < r.hi <= 1
        for end in (r.lo, r.hi):
            assert _eval_int_at(cubic, end.numerator, end.denominator) != 0
        assert sturm_sign_count(poly, r.lo, r.hi) == 1


@given(intensities, intensities, st.tuples(speeds, speeds).filter(lambda ab: ab[0] != ab[1]))
def test_fallback_roots_are_the_positive_equilibria(u, v, ab):
    # the whole-line route a scan cell falls back to, against the report's
    # positive fixed points and their Jury verdicts
    params = ModelParams(u, v, *ab)
    assert _fallback_counts(_Point.of(params)) == _report_counts(params)


@given(intensities, intensities, speed_pairs)
def test_scan_stability_is_the_jury_verdict(u, v, ab):
    # the scan's rule asks at most the modulus condition; the report asks all three
    params = ModelParams(u, v, *ab)
    point = _Point.of(params)
    assume(_unit_brackets(point) is not None)
    assert point_counts(point) == _report_counts(params)


@given(intensities, intensities, speed_pairs)
def test_the_remainder_has_the_modulus_sign_where_the_fold_is_positive(u, v, ab):
    # Q = K + M (3 c0 + 2 c1 x + c2 x**2) is the modulus condition plus 4 M C
    point = _Point.of(ModelParams(u, v, *ab))
    roots = [r for r in _unit_brackets(point) or () if r._lower_sign() < 0]
    assume(roots)
    q = point_remainder(point)
    for r in roots:
        assert _sign_dense_at(q, r) == _sign_dense_at(point.conditions[2], r)


@given(intensities, intensities, speed_pairs)
def test_a_bracket_holds_the_fold_sign(u, v, ab):
    # the fold is a b x C' at a root of the cubic C, and a bracket's lower
    # sign is C's left of a simple root, the opposite of the sign of C' there
    point = _Point.of(ModelParams(u, v, *ab))
    roots = _unit_brackets(point)
    assume(roots)
    for r in roots:
        assert -r._lower_sign() == _sign_dense_at(point.conditions[0], r)


def _counting_fallback(monkeypatch) -> list:
    """Record each call of the whole-line route that _Point makes."""
    calls = []
    isolate = model._isolate_int
    monkeypatch.setattr(model, "_isolate_int", lambda *args: calls.append(args) or isolate(*args))
    return calls


def _scan_answer(u, v) -> tuple:
    return point_counts(_Point.of(ModelParams(u, v)))


def _counted(positive) -> tuple:
    return len(positive), sum(stable for _, _, stable in positive)


THREE_INSIDE = [(0.4952651682454746, 1, True), (0.6923076923076923, 1, False),
                (0.8124271394468331, 1, True)]


@pytest.mark.parametrize("u, v, speed, positive", [
    pytest.param(F(3), F(3), 1, [(2 / 3, 3, False)], id="triple-point"),
    # disc = 0 away from the triple point, where the double root is
    # marginal and the simple one has Phi = u v - 9: a double root at 5/6,
    # and u v = 27/2 past 9 + s = 11
    pytest.param(F(27, 8), F(4), 1, [(1 / 3, 1, False), (5 / 6, 2, False)], id="fold"),
    # a double root at 3/4, and u v = 10 inside (9, 9 + s) at s = 2 and 8
    pytest.param(F(25, 8), F(16, 5), 1, [(0.5, 1, True), (0.75, 2, False)],
                 id="fold-stable"),
    pytest.param(F(25, 8), F(16, 5), F(1, 4), [(0.5, 1, True), (0.75, 2, False)],
                 id="fold-stable-quarter-speed"),
    # coefficients past the float range
    pytest.param(F(10**200), F(10**200), 1,
                 [(1e-200, 1, False), (1.0, 1, False), (1.0, 1, False)], id="past-floats"),
])
def test_positive_roots_fall_back_to_sturm(monkeypatch, u, v, speed, positive):
    params = ModelParams(u, v, speed, speed)
    assert _report_answer(params) == positive
    report = [e for e in equilibrium_report(params)["equilibria"] if e["positive"]]
    assert (len(report), sum(e["verdict"] == "stable" for e in report)) == _counted(positive)
    point = _Point.of(params)
    calls = _counting_fallback(monkeypatch)
    assert point_counts(point) == _counted(positive)
    assert len(calls) == 1


@given(intensities, intensities, speed_pairs)
def test_the_remainder_rises_in_x_and_falls_in_x_squared(u, v, ab):
    # _quadratic_bounds takes these signs as given: Q's linear coefficient
    # is 2 M c1 and its lead M c2, with M > 0, c1 = u v**2 + u v and
    # c2 = -2 u v**2 over a positive factor
    _, q1, q2 = point_remainder(_Point.of(ModelParams(u, v, *ab)))
    assert q1 > 0 > q2


@pytest.mark.parametrize("u, v", [
    pytest.param(F(2), F(1, 2), id="uv-one"),
    pytest.param(F(1), F(1), id="uv-one-unit"),
    pytest.param(F(1, 10**30), F(10**30), id="uv-one-wide"),
    pytest.param(F(7, 3), F(3, 7), id="uv-one-fractional"),
])
def test_uv_one_counts_none_with_no_isolation(monkeypatch, u, v):
    # the cubic's constant term 1 - u v is zero and its disc is negative:
    # x times a quadratic with no real root, settled on integers
    assert _report_answer(ModelParams(u, v)) == []
    cubic = _Point.of(ModelParams(u, v)).cubic
    assert cubic[0] == 0 and _cubic_discriminant(cubic) < 0
    calls = _counting_fallback(monkeypatch)
    brackets = []
    monkeypatch.setattr(model, "_cubic_brackets", lambda *args, **kw: brackets.append(args))
    assert _scan_answer(u, v) == (0, 0)
    assert calls == [] and brackets == []


@pytest.mark.parametrize("wrong", [
    pytest.param(lambda seeds: [math.nan] * len(seeds), id="nan"),
    pytest.param(lambda seeds: seeds[1:], id="one-short"),
    pytest.param(lambda seeds: seeds + seeds[:1], id="one-extra"),
    pytest.param(lambda seeds: seeds[:1] * 3, id="repeated"),
    pytest.param(lambda seeds: [s + 0.3 for s in seeds], id="shifted"),
    pytest.param(lambda seeds: [1e300] * len(seeds), id="far-off"),
])
@pytest.mark.parametrize("u, v, positive", [
    pytest.param(F(13, 4), F(13, 4), THREE_INSIDE, id="three-roots"),
    pytest.param(F(1, 5), F(9), [(0.048591172235676966, 1, True)], id="one-root"),
])
def test_wrong_seeds_fall_back_to_sturm(monkeypatch, wrong, u, v, positive):
    # the floats only choose where to look: wrong seeds cost the Sturm route, never an answer
    assert _report_answer(ModelParams(u, v)) == positive
    calls = _counting_fallback(monkeypatch)
    assert _scan_answer(u, v) == _counted(positive)
    assert calls == []
    seeds = realroots._cubic_seeds
    monkeypatch.setattr(realroots, "_cubic_seeds", lambda cf, three: wrong(seeds(cf, three)))
    assert _scan_answer(u, v) == _counted(positive)
    assert len(calls) == 1
