"""Property tests for the integer stability binder and the fixed points.

Hypothesis runs derandomized, so every run draws the same examples.  The
symbolic route, MPoly.evaluate on the conditions reduced onto the fixed
point locus, serves as the oracle for the binder; the report route's
Equilibrium.is_positive serves as the oracle for the scan's positive roots;
the locus y = v x (1 - x) on doubles serves as the oracle for y.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kopelcas.model import (
    ModelParams, _Point, bound_stability_polys, e0_stable, equilibria,
    jury_report, stability_conditions,
)
from kopelcas.realroots import sign_at

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

intensities = st.builds(F, st.integers(1, 200), st.integers(1, 40))
speeds = st.builds(F, st.integers(1, 20), st.integers(1, 20)).filter(lambda s: s <= 1)
# full speed, a shared speed below one, and two different speeds
speed_pairs = st.one_of(
    st.just((F(1), F(1))),
    speeds.filter(lambda s: s < 1).map(lambda s: (s, s)),
    st.tuples(speeds, speeds).filter(lambda ab: ab[0] != ab[1]),
)


def _dense_x(poly) -> list:
    return [poly.coefficient_of("x", k).as_fraction() for k in range(int(poly.degree("x")) + 1)]


@PROPERTY
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


@PROPERTY
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


@PROPERTY
@given(intensities, intensities, speed_pairs)
def test_fixed_point_y_follows_the_float_locus(u, v, ab):
    for eq in equilibria(ModelParams(u, v, *ab)):
        x = eq.x_approx
        expected = float(v) * x * (1 - x)
        assert abs(eq.y_approx - expected) <= 1e-9 * max(1.0, abs(expected))


def _positive_both_ways(params):
    """(approx, multiplicity) of the positive fixed points by each route."""
    scan = [(r.approx, r.multiplicity_in_source) for r in _Point.of(params).positive_roots()]
    report = [(e.x_approx, e.multiplicity) for e in equilibria(params) if e.is_positive]
    return scan, report


@PROPERTY
@given(intensities, intensities, speed_pairs)
def test_positive_roots_are_the_positive_equilibria(u, v, ab):
    scan, report = _positive_both_ways(ModelParams(u, v, *ab))
    assert scan == report


@pytest.mark.parametrize("u, v, a, b, positive", [
    # u v = 1: the cubic's root 0 is the origin, at the window's end
    pytest.param(F(2), F(1, 2), F(1), F(1), [], id="uv-one"),
    pytest.param(F(3), F(3), F(1), F(1), [(2 / 3, 3)], id="triple-point"),
    pytest.param(F(2), F(2), F(1), F(1), [(0.5, 1)], id="rational-half"),
    pytest.param(F(1, 5), F(9), F(1), F(1), [(0.048591172235676966, 1)], id="root-near-zero"),
    # u v < 1: the cubic's one real root lies below 0
    pytest.param(F(1, 10), F(6), F(1), F(1), [], id="negative-root"),
    pytest.param(F(4), F(4), F(1, 2), F(3, 4),
                 [(0.3454915028125263, 1), (0.75, 1), (0.9045084971874737, 1)],
                 id="unequal-speeds"),
])
def test_positive_roots_named_cases(u, v, a, b, positive):
    scan, report = _positive_both_ways(ModelParams(u, v, a, b))
    assert scan == report == positive
