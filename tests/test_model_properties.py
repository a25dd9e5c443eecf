"""Property tests for the integer stability binder.

Hypothesis runs derandomized, so every run draws the same examples.  The
symbolic route, MPoly.evaluate on the conditions reduced onto the fixed
point locus, serves as the oracle.
"""

from fractions import Fraction as F

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
    dense = _Point(params).conditions
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
