import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from kopelcas import model
from kopelcas.exactpoly import X, parse_poly
from kopelcas.model import (
    Equilibrium, ModelParams, State, Trajectory, all_stay_in_unit_square, bound_cubic,
    bound_stability_polys, e0_stable, equilibria, equilibrium_cubic, equilibrium_report,
    iterate, jacobian, jury_report, stability_conditions, step, triangular_system,
    y_relation,
)
from kopelcas.realroots import isolate_real_roots, sign_at


def test_params_validation():
    p = ModelParams("4", "4")
    assert p.u == 4 and p.a == 1 and p.b == 1
    assert ModelParams(F(13, 4), "3.25").v == F(13, 4)
    with pytest.raises(ValueError):
        ModelParams(0, 1)
    with pytest.raises(ValueError):
        ModelParams(1, -2)
    with pytest.raises(ValueError):
        ModelParams(1, 1, a=0)
    with pytest.raises(ValueError):
        ModelParams(1, 1, b="3/2")
    with pytest.raises(TypeError):
        ModelParams(1.5, 2)  # floats are not exact inputs


def test_step_matches_hand_computation():
    p = ModelParams(2, 3, a="1/2", b="1/4")
    s = step(State(0.2, 0.4), p)
    # x' = 0.5*0.2 + 0.5*2*0.4*0.6, y' = 0.75*0.4 + 0.25*3*0.2*0.8
    assert s.x == pytest.approx(0.1 + 0.24)
    assert s.y == pytest.approx(0.3 + 0.12)


def test_iterate_counts_and_divergence():
    p = ModelParams(4, 4)
    tr = iterate(State(0.3, 0.6), p, 25)
    assert len(tr.states) == 26
    assert tr.diverged_at is None
    assert not tr.left_unit_square

    # u v large with a start outside the trapping region blows up
    pbig = ModelParams(40, 40)
    tr2 = iterate(State(-0.5, -0.5), pbig, 200)
    assert tr2.diverged_at is not None
    assert tr2.left_unit_square
    assert len(tr2.states) == tr2.diverged_at + 1


def test_fixed_point_is_fixed():
    p = ModelParams(4, 4, a="1/3", b="2/3")
    s = State(0.75, 0.75)
    out = step(s, p)
    assert out.x == pytest.approx(0.75) and out.y == pytest.approx(0.75)


def test_all_stay_in_unit_square_batch():
    p = ModelParams(4, 4)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0, 1, size=200)
    ys = rng.uniform(0, 1, size=200)
    assert all_stay_in_unit_square(p, xs, ys, 500)
    assert not all_stay_in_unit_square(p, [1.5], [0.5], 1)


def test_symbolic_pieces():
    assert str(equilibrium_cubic()) == "u*v^2*x^3 - 2*u*v^2*x^2 + u*v^2*x + u*v*x - u*v + 1"
    assert str(y_relation()) == "v*x^2 - v*x + y"
    order, polys = triangular_system()
    assert [str(w) for w in order] == ["y", "x"]
    assert polys[0] == y_relation() and polys[1] == equilibrium_cubic()


class TestEquilibria:
    def test_two_positive_plus_symmetric(self):
        eqs = equilibria(ModelParams(4, 4))
        assert len(eqs) == 4
        xs = [e.x_approx for e in eqs]
        assert xs == sorted(xs)
        assert xs[0] == 0.0
        assert eqs[0].multiplicity == 1 and not eqs[0].is_positive
        assert eqs[2].x_root.value == F(3, 4)
        assert eqs[2].y_root.value == F(3, 4)
        assert all(e.is_positive for e in eqs[1:])
        assert all(e.in_unit_square for e in eqs)
        # the outer pair swaps coordinates
        assert eqs[1].y_approx == pytest.approx(eqs[3].x_approx, abs=1e-12)
        assert eqs[3].y_approx == pytest.approx(eqs[1].x_approx, abs=1e-12)

    def test_single_positive(self):
        eqs = equilibria(ModelParams(2, 2))
        assert len(eqs) == 2
        assert eqs[0].x_root.value == 0
        assert eqs[1].x_root.value == F(1, 2)
        assert eqs[1].y_root.value == F(1, 2)
        assert eqs[1].is_positive and eqs[1].multiplicity == 1

    def test_triple_point(self):
        eqs = equilibria(ModelParams(3, 3))
        assert len(eqs) == 2
        assert eqs[1].x_root.value == F(2, 3)
        assert eqs[1].multiplicity == 3
        assert eqs[1].is_positive

    def test_merged_origin_when_uv_is_one(self):
        eqs = equilibria(ModelParams(2, "1/2"))
        assert eqs[0].x_root.value == 0
        # origin plus the cubic's simple root there
        assert eqs[0].multiplicity == 2
        assert sum(1 for e in eqs if e.x_root.is_rational and e.x_root.value == 0) == 1

    def test_negative_equilibrium_flags(self):
        # at u = v = 1/2 the point (-1, -1) is fixed
        eqs = equilibria(ModelParams("1/2", "1/2"))
        assert eqs[0].x_root.value == -1
        assert not eqs[0].is_positive
        assert not eqs[0].in_unit_square
        assert eqs[0].y_root.value == -1

    def test_equilibria_satisfy_map_numerically(self):
        rng = random.Random(11)
        for _ in range(25):
            u = F(rng.randint(1, 16), 4)
            v = F(rng.randint(1, 16), 4)
            p = ModelParams(u, v, a=F(rng.randint(1, 4), 4), b=F(rng.randint(1, 4), 4))
            for eq in equilibria(p):
                s = State(eq.x_approx, eq.y_approx)
                out = step(s, p)
                assert abs(out.x - s.x) < 1e-9
                assert abs(out.y - s.y) < 1e-9


class TestStability:
    def test_jacobian_exact_and_float(self):
        p = ModelParams(4, 4, a="1/2", b="1/2")
        j = jacobian(F(3, 4), F(3, 4), p)
        assert j == [[F(1, 2), -1], [-1, F(1, 2)]]
        jf = jacobian(0.75, 0.75, p)
        assert jf[0][1] == pytest.approx(-1.0)

    def test_condition_polynomials(self):
        cd1, cd2, cd3 = stability_conditions()
        # full-speed symmetric point: trace is zero so the first two agree
        b1 = {"a": 1, "b": 1, "u": 4, "v": 4, "x": F(3, 4), "y": F(3, 4)}
        assert cd1.evaluate(b1).as_fraction() == cd2.evaluate(b1).as_fraction() == -3
        assert cd3.evaluate(b1).as_fraction() == 5

    def test_symmetric_point_unstable_at_4_4(self):
        p = ModelParams(4, 4)
        eqs = equilibria(p)
        rep = jury_report(eqs[2], p)
        assert rep.cd_signs == (-1, -1, 1)
        assert rep.verdict == "unstable"
        assert rep.det == pytest.approx(-4.0)
        assert rep.trace == pytest.approx(0.0)

    def test_asymmetric_pair_unstable_at_4_4(self):
        p = ModelParams(4, 4)
        eqs = equilibria(p)
        for eq in (eqs[1], eqs[3]):
            rep = jury_report(eq, p)
            assert rep.cd_signs[2] == -1
            assert rep.verdict == "unstable"
            assert rep.det == pytest.approx(4.0)
        # CD3 over the three nonzero equilibria: one +, two -
        cd3_signs = sorted(jury_report(e, p).cd_signs[2] for e in eqs[1:])
        assert cd3_signs == [-1, -1, 1]

    def test_asymmetric_pair_stable_at_13_quarters(self):
        p = ModelParams(F(13, 4), F(13, 4))
        eqs = equilibria(p)
        assert len(eqs) == 4
        reports = [jury_report(e, p) for e in eqs]
        assert reports[2].verdict == "unstable"  # symmetric one
        assert reports[1].verdict == "stable"
        assert reports[3].verdict == "stable"
        assert all(r.cd_signs[2] == 1 for r in reports[1:])
        for r in (reports[1], reports[3]):
            assert max(r.eig_moduli) < 1
            assert r.det == pytest.approx(1 / 16)

    def test_verdict_matches_eigenvalues(self):
        rng = random.Random(23)
        for _ in range(40):
            p = ModelParams(F(rng.randint(1, 16), 4), F(rng.randint(1, 16), 4),
                            a=F(rng.randint(1, 4), 4), b=F(rng.randint(1, 4), 4))
            for eq in equilibria(p):
                rep = jury_report(eq, p)
                radius = max(rep.eig_moduli)
                if rep.verdict == "stable":
                    assert radius < 1 + 1e-9
                elif rep.verdict == "unstable" and radius > 1 + 1e-6:
                    pass  # strictly expanding direction confirmed
                if radius < 1 - 1e-6:
                    assert rep.verdict == "stable"
                if rep.verdict == "marginal":
                    assert radius == pytest.approx(1.0, abs=1e-6)

    def test_origin_window(self):
        # in the admissible speed range the origin attracts exactly when u v < 1
        assert e0_stable(ModelParams("1/2", "1/2"))
        assert not e0_stable(ModelParams(2, 2))
        assert not e0_stable(ModelParams(1, 1))  # u v = 1 is marginal
        assert e0_stable(ModelParams("1/2", "1/2", a="1/100", b="1/100"))
        p = ModelParams(2, 2, a="1/100", b="1/100")
        assert not e0_stable(p)
        origin = equilibria(p)[0]
        assert jury_report(origin, p).verdict == "unstable"

    def test_origin_marginal_on_uv_one(self):
        p = ModelParams(2, "1/2")
        origin = [e for e in equilibria(p)
                  if e.x_root.is_rational and e.x_root.value == 0][0]
        rep = jury_report(origin, p)
        assert rep.cd_signs[0] == 0
        assert rep.verdict in ("marginal", "unstable")

    def test_bound_polys_dedup_at_full_speed(self):
        p1, p2, _ = bound_stability_polys(ModelParams(4, 4))
        assert p1 == p2
        q1, q2, _ = bound_stability_polys(ModelParams(4, 4, a="1/2"))
        assert q1 != q2


def test_report_schema():
    rep = equilibrium_report(ModelParams(4, 4))
    assert rep["schema_version"] == 1
    assert rep["params"] == {"u": "4", "v": "4", "a": "1", "b": "1"}
    assert len(rep["equilibria"]) == 4
    entry = rep["equilibria"][2]
    assert entry["x_approx"] == 0.75
    assert entry["multiplicity"] == 1
    assert entry["positive"] is True
    assert entry["verdict"] == "unstable"
    lo, hi = entry["x_interval"]
    assert F(lo) <= F(3, 4) <= F(hi)
    json.dumps(rep)  # must be serializable as is


def test_report_intervals_bracket_roots():
    rep = equilibrium_report(ModelParams(F(13, 4), F(13, 4)))
    for entry in rep["equilibria"]:
        lo, hi = (F(s) for s in entry["x_interval"])
        assert float(lo) - 1e-15 <= entry["x_approx"] <= float(hi) + 1e-15


# fixed points whose x coordinates off the origin are three irrational roots
# of one cubic (the cubic depends on u and v alone)
THREE_IRRATIONAL = [(F(7, 2), F(13, 4), F(1, 3), F(2, 3)), (F(7, 2), F(41, 10), F(1, 4), F(3, 4)),
                    (F(19, 5), F(7, 2), F(1), F(1, 2)), (F(9, 2), F(5), F(1), F(1))]


def test_report_y_approx_matches_each_y_root_alone():
    for point in THREE_IRRATIONAL:
        params = ModelParams(*point)
        eqs = equilibria(params)
        assert len(eqs) == 4 and sum(eq.x_root.is_rational for eq in eqs) == 1
        # a fixed point built alone shares no image roots with the others
        alone = [Equilibrium(eq.x_root, params).y_root.approx for eq in eqs]
        assert [e["y_approx"] for e in equilibrium_report(params)["equilibria"]] == alone


def test_report_y_roots_are_distinct_with_their_own_multiplicity(monkeypatch):
    seen = []
    bind_equilibria = model._Point.equilibria

    def recording(point):
        seen[:] = bind_equilibria(point)
        return seen

    monkeypatch.setattr(model._Point, "equilibria", recording)
    # plus u v = 1 (origin of multiplicity 2) and the triple point (3, 3)
    for point in THREE_IRRATIONAL + [(F(2), F(1, 2), F(1), F(1)), (F(3), F(3), F(1, 2), F(1))]:
        equilibrium_report(ModelParams(*point))
        ys = [eq.y_root for eq in seen]
        assert len({id(y) for y in ys}) == len(ys)
        assert [y.multiplicity_in_source for y in ys] == [eq.multiplicity for eq in seen]


def test_report_stability_matches_jury_report():
    from test_report_digests import POINTS

    for point in POINTS:
        params = ModelParams(*point)
        entries = equilibrium_report(params)["equilibria"]
        reports = [jury_report(eq, params) for eq in equilibria(params)]
        assert [e["cd_signs"] for e in entries] == [list(r.cd_signs) for r in reports]
        assert [e["verdict"] for e in entries] == [r.verdict for r in reports]


@pytest.mark.parametrize("point", THREE_IRRATIONAL + [(F(2), F(1, 2), F(1, 3), F(1))])
def test_equilibrium_built_alone_matches_equilibria(point):
    # Equilibrium(root, params) on a freshly isolated cubic root holds no
    # bound point; at u v = 1 its root 0 is the merged origin
    params = ModelParams(*point)
    found = {eq.x_approx: eq for eq in equilibria(params)}
    roots = isolate_real_roots(bound_cubic(params.u, params.v))
    # every root but the one merged with the origin at u v = 1 is a fixed point of its own
    assert len(roots) == len(found) - (params.u * params.v != 1)
    for r in roots:
        alone = Equilibrium(r, params)
        eq = found[alone.x_approx]
        assert (alone.is_positive, alone.in_unit_square, alone.y_approx) == (
            eq.is_positive, eq.in_unit_square, eq.y_approx)


def test_jury_report_binds_parameters_other_than_the_fixed_points():
    differs = 0
    for point in THREE_IRRATIONAL:
        params = ModelParams(*point)
        u, v, a, b = point
        for other in (ModelParams(u, v, a / 2, b), ModelParams(u + 1, v, a, b),
                      ModelParams(u, v / 2, 1, 1)):
            assert other != params
            polys = bound_stability_polys(other)
            for eq in equilibria(params):
                signs = jury_report(eq, other).cd_signs
                assert signs == tuple(sign_at(p, eq.x_root) for p in polys)
                differs += signs != jury_report(eq, params).cd_signs
    # the check can tell the two bindings apart
    assert differs > 0
