import hashlib
import json
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from kopelcas import model, realroots
from kopelcas.exactpoly import (
    A, B, U, V, X, Y, _exact_div, bind, integer_terms, power_tables, resultant,
)
from kopelcas.model import (
    Equilibrium, ModelParams, State, _LOCUS_TERMS, bound_cubic, bound_stability_polys,
    e0_stable, equilibria, equilibrium_cubic, equilibrium_report, iterate, jacobian, jury_report,
    stability_conditions, step, y_relation,
)
from kopelcas.realroots import AlgebraicReal, _isolate_int, isolate_real_roots, sign_at
from kopelcas.scanner import ScanSpec, scan
from oracles import coefficient_of, point_remainder, quadratic_bounds, spy_chains
from test_mirrored_cubic import POOL
from test_report_digests import POINTS


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
    # the checks run on numerators and denominators; the edges hold exactly
    tiny = ModelParams(F(1, 10**30), 1, a=1)
    assert tiny.u == F(1, 10**30) and tiny.a == 1
    speeds = re.escape("adjustment speeds must satisfy 0 < a <= 1 and 0 < b <= 1")
    intensities = re.escape("reaction intensities must satisfy u > 0 and v > 0")
    for bad, message in (({"a": 1 + F(1, 10**9)}, speeds), ({"b": 0}, speeds),
                         ({"u": F(-1, 3)}, intensities), ({"v": 0}, intensities)):
        with pytest.raises(ValueError, match=message):
            ModelParams(**{"u": 1, "v": 1, **bad})


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


def test_symbolic_pieces():
    assert str(equilibrium_cubic()) == "u*v^2*x^3 - 2*u*v^2*x^2 + u*v^2*x + u*v*x - u*v + 1"
    assert str(y_relation()) == "v*x^2 - v*x + y"
    # each polynomial is built once, at import
    assert equilibrium_cubic() is equilibrium_cubic()
    assert y_relation() is y_relation()
    assert stability_conditions() is stability_conditions()


def test_eliminating_x_gives_the_cubic_with_u_and_v_swapped():
    # the map is symmetric under (x, u, a) <-> (y, v, b), so the y coordinates
    # off the origin solve the cubic's twin; a is free in the cubic and holds u
    # while v takes its place
    cubic = equilibrium_cubic()
    twin = cubic.substitute("u", A).substitute("v", U).substitute("a", V).substitute("x", Y)
    assert str(twin) == "u^2*v*y^3 - 2*u^2*v*y^2 + u^2*v*y + u*v*y - u*v + 1"
    assert resultant(cubic, y_relation(), "x") == V**3 * twin


def test_no_fixed_point_reaches_one():
    # C(1 + t) has positive coefficients only, so C has no root x >= 1, and
    # the same holds for its twin, u and v swapped, whose roots are the y
    # coordinates: every fixed point has x < 1 and y < 1
    assert model._CUBIC.substitute("x", 1 + X) == (
        U * V**2 * X**3 + U * V**2 * X**2 + U * V * X + 1)
    twin = model._CUBIC.substitute("u", A).substitute("v", U).substitute("a", V)
    assert twin.substitute("x", 1 + X) == U**2 * V * X**3 + U**2 * V * X**2 + U * V * X + 1


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

    def test_repr_past_the_double_range_prints_the_exact_root(self):
        # at u = v = 1e-400 the fixed point off the origin is x = 1 - 10**400
        eq = equilibria(ModelParams("1e-400", "1e-400"))[0]
        assert repr(eq) == f"Equilibrium(AlgebraicReal(x={1 - 10**400}), mult=1, positive=False)"
        assert repr(equilibria(ModelParams(2, 2))[1]) == (
            "Equilibrium(x~0.5, mult=1, positive=True)")

    def test_unit_square_asks_no_sign_query(self, monkeypatch):
        # every fixed point has x < 1 and y < 1, so the flag is the sign of
        # x, taken when the fixed point is built: reading it asks nothing
        eq = equilibria(ModelParams(4, 4))[1]
        calls = []
        sign_dense_at = model._sign_dense_at
        monkeypatch.setattr(model, "_sign_dense_at",
                            lambda *args: calls.append(args) or sign_dense_at(*args))
        compare = AlgebraicReal.compare_rational
        monkeypatch.setattr(AlgebraicReal, "compare_rational",
                            lambda self, q: calls.append(q) or compare(self, q))
        assert eq.in_unit_square
        assert calls == []

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

    def test_jacobian_and_conditions_are_the_derivative_of_the_map(self):
        # the partial derivatives of the map step() iterates, at seeded
        # random exact points, against jacobian() and the condition polynomials
        partials = [[f.derivative(z) for z in ("x", "y")]
                    for f in model._update(X, Y, U, V, A, B)]
        rng = random.Random(12)
        for _ in range(40):
            x, y = (F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2))
            params = ModelParams(F(rng.randint(1, 60), rng.randint(1, 12)),
                                 F(rng.randint(1, 60), rng.randint(1, 12)),
                                 F(rng.randint(1, 12), 12), F(rng.randint(1, 12), 12))
            binding = {"x": x, "y": y, **{k: getattr(params, k) for k in "uvab"}}
            jac = [[d.evaluate(binding).as_fraction() for d in row] for row in partials]
            assert jacobian(x, y, params) == jac
            tr = jac[0][0] + jac[1][1]
            det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
            assert [cd.evaluate(binding).as_fraction() for cd in stability_conditions()] == [
                1 - tr + det, 1 + tr + det, 1 - det]

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
                elif rep.verdict == "unstable":
                    # a strictly negative condition certifies a modulus past 1
                    assert radius > 1 - 1e-9
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
        # the fold is 1 - u v = 0, the flip equals it at full speed, and the
        # modulus is a + b > 0
        assert rep.cd_signs == (0, 0, 1)
        assert rep.verdict == "marginal"

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

    def recording(point, params):
        seen[:] = bind_equilibria(point, params)
        return seen

    monkeypatch.setattr(model._Point, "equilibria", recording)
    # plus u v = 1 (origin of multiplicity 2) and the triple point (3, 3)
    for point in THREE_IRRATIONAL + [(F(2), F(1, 2), F(1), F(1)), (F(3), F(3), F(1, 2), F(1))]:
        equilibrium_report(ModelParams(*point))
        ys = [eq.y_root for eq in seen]
        assert len({id(y) for y in ys}) == len(ys)
        assert [y.multiplicity_in_source for y in ys] == [eq.multiplicity for eq in seen]


def test_windowed_roots_of_a_point_share_one_factor():
    # so _Point.y_candidates isolates once, from the first root it is asked
    # for: over the kbench point pool every windowed x root of a point has
    # the whole cubic, or the cubic with its one rational root divided out
    shapes = set()
    for point in POOL:
        params = ModelParams(*point)
        windows = [eq.x_root for eq in model._Point.of(params).equilibria(params)
                   if not eq.x_root.is_rational]
        factors = {r._coeffs for r in windows}
        assert len(factors) <= 1, point
        shapes |= {(len(g), len(windows)) for g in factors}
    # both factor shapes occur, and some factor holds more than one window
    assert {(3, 2), (4, 1), (4, 3)} <= shapes


def test_positive_roots_narrow_to_the_windows_the_unit_square_query_leaves():
    # the oracle is the sign query on x (1 - x), the locus bound at v = 1,
    # that Equilibrium once asked at every positive root for the window it
    # leaves behind; over the pool every positive root keeps the same window
    y_sign = tuple(bind(_LOCUS_TERMS, power_tables(1, 1, 1, 1)))

    def window(root):
        return root.value if root.is_rational else (root._a, root._b, root._k)

    narrowed = 0
    for point in POOL:
        params = ModelParams(*point)
        cubic = model._Point.of(params).cubic
        for old, new in zip(_isolate_int("x", cubic), _isolate_int("x", cubic)):
            if old.compare_rational(0) <= 0:
                continue
            assert realroots._sign_dense_at(y_sign, old) == 1
            before = window(new)
            assert Equilibrium(new, params).is_positive
            assert window(new) == window(old), point
            narrowed += window(new) != before
    assert narrowed > 100


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
    # Equilibrium(root, params) on a freshly isolated cubic root binds a
    # point of its own; at u v = 1 its root 0 is the merged origin
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
        assert jury_report(alone, params) == jury_report(eq, params)


@pytest.mark.parametrize("first", ["in_unit_square", "y_root"])
def test_equilibrium_built_alone_binds_its_point_on_first_need(monkeypatch, first):
    # the flags need no binding; the first read that does binds one point
    params = ModelParams(F(13, 4), F(7, 2), F(1, 4), F(1, 2))
    roots = isolate_real_roots(bound_cubic(params.u, params.v))
    built = []
    of = model._Point.of.__func__
    monkeypatch.setattr(model._Point, "of",
                        classmethod(lambda cls, p: built.append(p) or of(cls, p)))
    alone = [Equilibrium(r, params) for r in roots]
    assert [eq.is_positive for eq in alone] == [True, True, True]
    assert built == []
    eq = alone[0]
    getattr(eq, first)
    assert built == ([] if first == "in_unit_square" else [params])
    assert (eq.in_unit_square, eq.y_root.approx) == (True, eq.y_approx)
    assert jury_report(eq, params).verdict == "stable"
    assert built == [params]
    # a fixed point of equilibria() holds its call's point and binds none
    shared = equilibria(params)
    built.clear()
    assert [e.in_unit_square for e in shared] == [True, True, True, True]
    assert built == []


def test_jury_report_rejects_parameters_other_than_the_fixed_points():
    for point in THREE_IRRATIONAL:
        params = ModelParams(*point)
        u, v, a, b = point
        polys = bound_stability_polys(params)
        for eq in equilibria(params):
            for other in (ModelParams(u, v, a / 2, b), ModelParams(u + 1, v, a, b),
                          ModelParams(u, v / 2, 1, 1)):
                assert other != params
                with pytest.raises(ValueError, match="own parameters"):
                    jury_report(eq, other)
            signs = jury_report(eq, eq.params).cd_signs
            assert signs == tuple(sign_at(p, eq.x_root) for p in polys)


def _lapack_moduli(jac):
    return sorted((abs(z) for z in np.linalg.eigvals(np.array(jac, dtype=float))), reverse=True)


def test_closed_form_moduli_match_eigvals():
    # the Jacobian jury_report forms at every digest fixed point, plus random
    # real 2x2 matrices, against LAPACK
    jacs = []
    for point in POINTS:
        params = ModelParams(*point)
        u, v, a, b = params.as_floats()
        for eq in equilibria(params):
            xf = eq.x_root.approx
            jac = jacobian(xf, v * xf * (1 - xf), params)
            rep = jury_report(eq, params)
            assert rep.eig_moduli == model._eig_moduli(rep.trace, rep.det)
            assert rep.eig_moduli == pytest.approx(_lapack_moduli(jac), rel=0, abs=1e-12)
            jacs.append(jac)
    assert len(jacs) > 200
    rng = random.Random(5)
    for _ in range(2000):
        jac = [[rng.uniform(-3, 3), rng.uniform(-3, 3)], [rng.uniform(-3, 3), rng.uniform(-3, 3)]]
        tr = jac[0][0] + jac[1][1]
        det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        assert model._eig_moduli(tr, det) == pytest.approx(_lapack_moduli(jac), rel=0, abs=1e-12)


@pytest.mark.parametrize("jac", [
    [[0.5, -2.0], [1.0, 0.3]],    # complex pair
    [[2.0, 1.0], [0.0, 2.0]],     # repeated eigenvalue, disc = 0
    [[-0.5, 0.0], [0.0, -0.5]],   # repeated and negative
    [[1.0, 2.0], [2.0, 4.0]],     # one zero eigenvalue, det = 0
    [[0.0, 0.0], [0.0, 0.0]],     # both zero
    [[0.0, 3.0], [-2.0, 0.0]],    # purely imaginary pair, tr = 0
    [[0.0, 3.0], [2.0, 0.0]],     # real pair of opposite sign, tr = 0
], ids=["complex", "repeated", "repeated-negative", "zero", "all-zero", "imaginary",
        "opposite"])
def test_closed_form_moduli_special_cases(jac):
    tr = jac[0][0] + jac[1][1]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    moduli = model._eig_moduli(tr, det)
    assert moduli == pytest.approx(_lapack_moduli(jac), rel=0, abs=1e-12)
    if tr * tr < 4 * det:
        assert moduli == (det ** 0.5, det ** 0.5)


def test_closed_form_moduli_avoid_cancellation():
    # tr = 1e8, det = 1: the small root is 1e-8 (1 + 1e-16 + ...), and
    # (tr - sqrt(disc)) / 2 loses it to cancellation
    big, small = model._eig_moduli(1e8, 1.0)
    assert big == pytest.approx(1e8, rel=1e-15)
    assert small == pytest.approx(1e-8, rel=1e-12)
    big, small = model._eig_moduli(-1e8, 1.0)
    assert (big, small) == pytest.approx((1e8, 1e-8), rel=1e-12)


def _report_digest(point) -> str:
    report = equilibrium_report(ModelParams(*point))
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class TestReportBrackets:
    """Reports count roots against certified brackets, or by Sturm chains, with the same bytes.

    Each digest is the report's sorted-key JSON as printed before reports
    took brackets, when every x cubic and twin went by Sturm chains.  Those
    at 1e200 and 1e-120 were re-recorded when every rational root began to
    snap: there the root 1 - 1/u is exact, and only it and its cofactor's
    windows moved.
    """

    THREE_ROOTS = ((F(13, 4), F(7, 2), F(1, 4), F(1, 2)),
                   "ec01fe86c1e91e6ddc4bad4a371b5ef5e9ed983002cae27f47a2fe7e3932f268")

    @pytest.mark.parametrize("point, digest", [
        # x = 1/2 is a rational root, snapped in its bracket
        pytest.param((F(2), F(2), F(1, 4), F(3, 4)),
                     "bd566b0c57b1fa565e30c0315676956c76387b380ff6d735467a6b41e4b1e40a",
                     id="half"),
        pytest.param((F(3), F(3), F(1), F(1)),
                     "338b17a8df137562eabf505736ed1a140e99236d56843b0ccd2e8daeacf401e4",
                     id="triple-point"),
        # disc = 0 with a double root at 5/6
        pytest.param((F(27, 8), F(4), F(1), F(1)),
                     "b89d9792ddb0e62c33e163cf8731bfdb4660306e7dbfe3d9d8ce95f6e6b019d3",
                     id="fold"),
        # coefficients past the float range, and past it the other way; the
        # rational root 1 - 1/u at u = v snaps
        pytest.param((F(10**200), F(10**200), F(1), F(1)),
                     "be9eee4f6bdb5a842c5be8d67611e7d69c088251d6fa471f414a272a829b98b2",
                     id="1e200"),
        pytest.param((F(1, 10**120), F(1, 10**120), F(1), F(1)),
                     "b2b56d947aea696b5906b243c5c6ef378171ff40284f6fef42e4221a8bff9d90",
                     id="1e-120"),
    ])
    def test_named_fallbacks_build_a_chain_for_the_x_cubic(self, monkeypatch, point, digest):
        cubic = model._Point.of(ModelParams(*point)).cubic
        chains = spy_chains(monkeypatch)
        assert _report_digest(point) == digest
        # the whole cubic's chain, or with disc != 0 the chain of its cofactor
        # once the bracket test snaps a rational root
        cofactors = [tuple(_exact_div(cubic, (-r.value.numerator, r.value.denominator)))
                     for r in realroots._isolate_int("x", cubic) if r.is_rational]
        assert chains and chains[0] in (cubic, tuple(-c for c in cubic), *cofactors)

    def test_three_roots_build_no_chain(self, monkeypatch):
        point, digest = self.THREE_ROOTS
        chains = spy_chains(monkeypatch)
        assert _report_digest(point) == digest
        assert chains == []
        eqs = equilibria(ModelParams(*point))
        assert sum(not eq.x_root.is_rational for eq in eqs) == 3
        assert all(eq.y_root._hint is not None for eq in eqs if not eq.x_root.is_rational)

    @pytest.mark.parametrize("wrong", [
        pytest.param(lambda seeds: [math.nan] * len(seeds), id="nan"),
        pytest.param(lambda seeds: seeds[1:], id="one-short"),
        pytest.param(lambda seeds: [s + 0.3 for s in seeds], id="shifted"),
    ])
    def test_wrong_seeds_build_chains_and_the_same_bytes(self, monkeypatch, wrong):
        point, digest = self.THREE_ROOTS
        seeds = realroots._cubic_seeds
        monkeypatch.setattr(realroots, "_cubic_seeds",
                            lambda cf, three, outer=False: wrong(seeds(cf, three, outer)))
        chains = spy_chains(monkeypatch)
        assert _report_digest(point) == digest
        # the x cubic and its twin, each by its own chain
        assert len(chains) == 2


class TestScanStabilityRule:
    """The Jury conditions on the locus are affine in the fold, so a scan asks one.

    On y = v x (1 - x) the fold condition is a b (C + x C') for the
    equilibrium cubic C, the flip condition is the fold plus 2 (2 - a - b),
    and the modulus condition is a + b less the fold.  At a root of C in
    (0, 1) the fold has the sign of C' there, which a certified bracket
    already holds, and with a, b <= 1 a positive fold makes the flip
    positive.  So _Row.counts asks at most the modulus, and there the
    modulus equals the quadratic Q, the modulus plus 4 a b C, which a row
    binds from that polynomial with the cubic.
    """

    FIG2 = (F(5, 2), F(5))

    def test_fold_is_the_cubic_and_its_slope(self):
        cubic = model._CUBIC
        assert model._CD_ON_LOCUS[0] == A * B * (cubic + X * cubic.derivative("x"))

    def test_flip_is_the_fold_plus_twice_two_less_the_speeds(self):
        cd1, cd2, _ = model._CD_ON_LOCUS
        assert cd2 - cd1 == 2 * (2 - A - B)

    def test_modulus_is_the_speeds_less_the_fold(self):
        cd1, _, cd3 = model._CD_ON_LOCUS
        assert cd1 + cd3 == A + B

    def test_the_slope_term_is_three_cubics_less_a_quadratic(self):
        # x C' + (3 c0 + 2 c1 x + c2 x**2) = 3 C, on the cubic's x-coefficients in u and v
        cubic = model._CUBIC
        c0, c1, c2, _ = (coefficient_of(cubic, "x", i) for i in range(4))
        assert X * cubic.derivative("x") + (3 * c0 + 2 * c1 * X + c2 * X**2) == 3 * cubic

    def test_the_remainder_is_the_modulus_plus_four_cubics(self):
        # Q = modulus + 4 a b C on the bound integers, at unequal speeds and
        # at full speed: the row's Q against the point's modulus condition
        four_cubics = integer_terms(4 * A * B * model._CUBIC)
        for params in (ModelParams(4, 4, F(1, 2), F(3, 4)), ModelParams(F(13, 4), F(13, 4))):
            point = model._Point.of(params)
            modulus = point.conditions[2]
            four_c = bind(four_cubics, point.tables)
            assert [d + e for d, e in zip(modulus, four_c)] == [*point_remainder(point), 0]

    def test_a_scan_asks_at_most_one_sign_per_positive_root(self, monkeypatch):
        # a bound of Q over a bracket whose root has C' > 0, and an exact
        # query only where that bound straddles 0: the middle one of three
        # roots asks nothing, so the bounds are at most the positive roots.
        # The rule bounds Q inline, so each answer it gives on brackets has
        # its bounds taken again here, over the same outer brackets
        straddles, exact = [], []
        real_rule, real_sign = model._bracket_counts, model._sign_dense_at

        def rule(cubic, q):
            answer = real_rule(cubic, q)
            if answer and answer[0]:  # a count on brackets is never (0, 0)
                disc = realroots._cubic_discriminant(cubic)
                for (a, b, j), _ in realroots._cubic_brackets(cubic, disc, outer=True):
                    low, high = quadratic_bounds(q, a, b, j)
                    straddles.append(low <= 0 <= high)
            return answer

        monkeypatch.setattr(model, "_bracket_counts", rule)
        monkeypatch.setattr(model, "_sign_dense_at", lambda *args: exact.append(args)
                            or real_sign(*args))
        grid = scan("homogeneous", ScanSpec(self.FIG2, self.FIG2, 10, a_value=F(1, 2)))
        assert not grid.disagreements()
        positive = sum(cell.numeric_positive for cell in grid.cells)
        assert 0 < len(straddles) <= positive
        assert len(exact) == sum(straddles)

    def test_a_wrong_remainder_makes_a_scan_disagree(self, monkeypatch):
        # Q's constant term a + b + a b (3 c0) with 2 c0 in place of 3 c0,
        # c0 = 1 - u v, planted in Q's polynomial: the certificates catch it
        planted = model._CD_ON_LOCUS[2] + 4 * A * B * model._CUBIC - A * B * (1 - U * V)
        spec = ScanSpec(self.FIG2, self.FIG2, 20)
        assert not scan("stable", spec).disagreements()
        monkeypatch.setattr(model, "_ROW_TERMS", integer_terms(model._CUBIC + X**4 * planted))
        assert scan("stable", spec).disagreements()
