"""Fixed points' y candidates from the cubic's twin: property and byte checks.

The map is symmetric under (x, u, a) <-> (y, v, b), so the y coordinates
off the origin are the roots of the equilibrium cubic with u and v swapped,
its twin.  For every x root left as a window, the model's y polynomial
(_Point.y_factor) must be the primitive resultant Res_x(g, scale y - qi(x)),
taken by exactpoly.resultant for the map y = v x (1 - x) = qi / scale at the
root's factor g, the oracle here: up to a constant, the characteristic
polynomial of multiplication by the map modulo g.  The candidates the model
isolates from it must be the roots _isolate_int gives, up to order.  Then
the selection, x_interval and y_approx keep their bytes: the digests below
were recorded before the model took its y polynomial from the twin.  Those
of window-1/3, fold-window, rational-pair-windows, RATIONAL_TWIN and the
seeded batch were re-recorded when every rational root began to snap: only
the x_interval of the newly exact roots and of their cofactors' roots moved.
"""

import hashlib
import importlib.util
import itertools
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from kopelcas import model, realroots
from kopelcas.exactpoly import Y, _dense_coeffs, _int_clear, dense_to_mpoly, power_table, resultant
from kopelcas.model import ModelParams, _Point, _Row, equilibrium_report
from kopelcas.realroots import _isolate_int
from kopelcas.scanner import grid_points
from oracles import spy_chains


def _seeded():
    rng = random.Random(13)
    pts = []
    for _ in range(60):
        a, b = rng.sample(range(1, 21), 2)
        pts.append((F(rng.randint(1, 200), 20), F(rng.randint(1, 200), 20), F(a, 20), F(b, 20)))
    for _ in range(20):
        pts.append((F(rng.randint(1, 5000), rng.randint(1, 700)),
                    F(rng.randint(1, 5000), rng.randint(1, 700)),
                    F(rng.randint(1, 50), 50), F(rng.randint(1, 50), 50)))
    return pts


def _with_roots(r1, r2, r3):
    """(u, v) where the cubic has the roots r1, r2, r3 (they sum to 2), by Vieta.

    The roots pairwise sum to 1 + 1/v and multiply to (u v - 1) / (u v**2).
    """
    assert r1 + r2 + r3 == 2
    v = 1 / (r1 * r2 + r1 * r3 + r2 * r3 - 1)
    return 1 / (v * (1 - v * r1 * r2 * r3)), v


SEEDED = _seeded()
SEEDED_DIGEST = "e50b120a1aba505e1efe337b4fbc2984fa3e6b74af334165304660eb9693eb12"

# name: (u, v, a, b), sha256 of the report's sorted-key JSON
NAMED = {
    # x = 1/2 is a rational root, so y takes the rational shortcut
    "half-2-2": ((F(2), F(2), F(1, 4), F(3, 4)),
        "bd566b0c57b1fa565e30c0315676956c76387b380ff6d735467a6b41e4b1e40a"),
    "half-8/3-1": ((F(8, 3), F(1), F(1, 2), F(1)),
        "fcf2efaf0de24ab6a453d877ac44e11ef76b43e9c784f67431494d20a24b1256"),
    # x = 3/4 is rational and deflates the cubic to an irrational pair
    "deflated-4-4": ((F(4), F(4), F(1, 2), F(3, 4)),
        "7b3050de5d5456415328747d693c6ec94b645d92fd69845fa2e95db0656b4655"),
    # one real root, a window of the whole cubic
    "deflated-16/5-3/2": ((F(16, 5), F(3, 2), F(3, 5), F(2, 5)),
        "2fb5f09d2401a76ebd5455cf13257768b43257b3d066b638f75cedefe0bc0a75"),
    # u v = 1: a cubic root merges with the origin
    "uv-one-2-1/2": ((F(2), F(1, 2), F(1, 3), F(1)),
        "d50c6ca4a5663fdb1365408b6e71b352a51df674b8f8518c1ef95531623d3945"),
    "uv-one-1/3-3": ((F(1, 3), F(3), F(1, 2), F(1, 5)),
        "cbe9a8ffff8aaa82da3902944daf690506e5ec104bdc891e7843a9638cb95fd1"),
    # the triple point
    "triple-3-3": ((F(3), F(3), F(1, 2), F(1)),
        "094021c7475291bcb5547c5ee1247d733f0998711f123f815ce389f8fcf80ced"),
    # x = 1/3, the one real root, with end coefficients past 10**6: the
    # test in its bracket snaps it
    "window-1/3": ((F(4218750000, 1250787419), F(99991, 25000), F(1, 2), F(3, 4)),
        "7a77c98c627ad46382deb8388f35275e21516d7a098598b047c4be811014253b"),
    # a double root with end coefficients past 10**6: both Yun factors are
    # linear, so each is its root
    "fold-window": ((*_with_roots(F(500001, 10**6), F(500001, 10**6), F(999998, 10**6)),
                     F(1, 2), F(1, 3)),
        "0d8bf8281b0930d58cd462255b38250ecce3f88327b64ff3fd5f6e06fe0a821c"),
    # three rational roots with end coefficients past 10**6: bisection snaps
    # 5/8, and the test snaps the other two in the quadratic's windows
    "rational-pair-windows": ((*_with_roots(F(5, 8), F(11, 16) + F(889, 22222),
                                            F(11, 16) - F(889, 22222)), F(1, 2), F(1, 3)),
        "2b4975787eb3a8b5ee4c4eaa9078d0802ae8eab8aafb1b6487c3d9aea4751663"),
}


def _report_bytes(point) -> bytes:
    return json.dumps(equilibrium_report(ModelParams(*point)), sort_keys=True).encode()


def _described(roots):
    return sorted((r.lo, r.hi, r._coeffs, r.multiplicity_in_source) for r in roots)


def _window_roots(point):
    params = ModelParams(*point)
    where = _Point.of(params)
    return where, [eq.x_root for eq in where.equilibria(params) if not eq.x_root.is_rational]


def _resultant_image(g, qi, scale):
    """Primitive integer y-coefficients of Res_x(g, scale y - qi(x))."""
    res = resultant(dense_to_mpoly(g, "x"), scale * Y - dense_to_mpoly(qi, "x"), "x")
    return _int_clear(_dense_coeffs(res, "y"))


@pytest.mark.parametrize("point", SEEDED + [p for p, _ in NAMED.values()])
def test_y_factor_is_the_characteristic_polynomial(point):
    where, roots = _window_roots(point)
    for root in roots:
        g = root._coeffs
        oracle = _resultant_image(g, *where.locus)
        assert where.y_factor(g) == oracle
        assert _described(where.y_candidates(root)) == _described(_isolate_int("y", oracle))


# the factor lengths of each named point's windowed x roots: a whole cubic
# and a quadratic deflated by a rational root.  Every rational root snaps, so
# no window is linear or holds a rational root, and every other named point
# is all rational.
WINDOW_FACTORS = {
    "deflated-4-4": [3, 3],
    "deflated-16/5-3/2": [4],
}


def test_named_points_reach_every_factor_shape():
    for name, (point, _) in NAMED.items():
        _, roots = _window_roots(point)
        assert [len(r._coeffs) for r in roots] == WINDOW_FACTORS.get(name, [])


# x = 1/6 is the one real root of a whole cubic whose end coefficients have
# 384 signed divisor pairs: it snaps, and y = 7/9 is its rational image
RATIONAL_TWIN = ((F(27, 28), F(28, 5), F(1, 2), F(1, 3)),
                 "1aaaf3e4cc5b38d79333b84268ebb5f23aa464bdf363366f3027f5ad804f68af")


def _lone_real_root(g, roots) -> bool:
    """g is the whole cubic, and the x roots left as its windows are its only real root."""
    return len(g) == 4 and sum(r._coeffs == g for r in roots) == 1


def test_report_isolates_y_candidates_once_per_factor(monkeypatch):
    calls = []

    def counted(var, coeffs, **keywords):
        calls.append((var, coeffs))
        return _isolate_int(var, coeffs, **keywords)

    most = chainless = snapped = 0
    for point in SEEDED + [p for p, _ in NAMED.values()] + [RATIONAL_TWIN[0]]:
        where, roots = _window_roots(point)
        factors = {r._coeffs for r in roots}
        # a whole cubic with one real root has a twin with one real root too
        lone = {g for g in factors if _lone_real_root(g, roots)}
        rational = {g for g in lone
                    if any(y.is_rational for y in _isolate_int("y", where.y_factor(g)))}
        monkeypatch.setattr(model, "_isolate_int", counted)
        chains = spy_chains(monkeypatch)
        calls.clear()
        equilibrium_report(ModelParams(*point))
        monkeypatch.undo()
        # one y isolation per windowed x factor, lone twins included
        assert sorted(c for var, c in calls if var == "y") == sorted(
            where.y_factor(g) for g in factors)
        for g in lone - rational:
            twin = where.y_factor(g)
            chainless += twin not in chains and tuple(-c for c in twin) not in chains
        snapped += len(rational)
        if len(factors) == 1:
            most = max(most, len(roots))
    # some cubic leaves three windows, all sharing one isolation
    assert most == 3
    # a lone twin is counted against its bracket alone.  None has a rational
    # root: x = u y (1 - y) and y = v x (1 - x) at a fixed point, so x and y
    # are rational together, and every rational x root snaps.
    assert chainless >= 40 and snapped == 0


def test_report_finds_no_rational_root_in_a_y_window(monkeypatch):
    # x and y are rational together at a fixed point, so the rational root
    # test finds none in the y candidates of a windowed x root
    tested = []
    test = realroots._rational_value
    monkeypatch.setattr(realroots, "_rational_value",
                        lambda r: tested.append((r.var, test(r))) or tested[-1][1])
    windowed = 0
    for point in SEEDED + [p for p, _ in NAMED.values()] + [RATIONAL_TWIN[0]]:
        report = equilibrium_report(ModelParams(*point))
        windowed += sum(lo != hi for lo, hi in (e["x_interval"] for e in report["equilibria"]))
    y_values = [value for var, value in tested if var == "y"]
    assert windowed > 100 and len(y_values) > 100
    assert y_values == [None] * len(y_values)


def _lattice(seed, count):
    """Points on the 1/20 lattice with u, v up to 10 and a != b, as report batches take."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        a, b = rng.sample(range(1, 21), 2)
        pts.append((F(rng.randint(1, 200), 20), F(rng.randint(1, 200), 20), F(a, 20), F(b, 20)))
    return pts


def test_lone_twin_isolates_to_its_root_bound_window(monkeypatch):
    # every whole cubic with one real root, seeded, named or on the lattice:
    # its twin, whose one real root is irrational, isolates to the Cauchy
    # window itself, hinted by its one certified bracket, with no bisection
    # and no chain
    counts, chains = [], spy_chains(monkeypatch)
    bracket_count = realroots._bracket_count

    def counted(coeffs, brackets):
        count = bracket_count(coeffs, brackets)
        return lambda a, k: counts.append((a, k)) or count(a, k)

    monkeypatch.setattr(realroots, "_bracket_count", counted)
    checked = 0
    for point in SEEDED + [p for p, _ in NAMED.values()] + [RATIONAL_TWIN[0]] + _lattice(16, 200):
        where, roots = _window_roots(point)
        for root in roots:
            g = root._coeffs
            if len(g) == 4:
                assert (model._cubic_discriminant(g) < 0) == _lone_real_root(g, roots)
            twin = where.y_factor(g)
            if not _lone_real_root(g, roots):
                continue
            (hint, slo), = realroots._cubic_brackets(twin, -1)
            counts.clear()
            chains.clear()
            (got,) = where.y_candidates(root)
            assert got._coeffs == twin and not got.is_rational
            assert (got._a, got._b, got._k) == realroots._cauchy_window(twin)
            assert got._hint == hint and got._slo == slo
            assert got.multiplicity_in_source == 1
            # the counter read the window's two ends and no midpoint
            assert len(counts) == 2 and chains == []
            checked += 1
    assert checked >= 150


def _kbench_common():
    """kbench/common.py, loaded by its path: kbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "kbench" / "common.py"
    spec = importlib.util.spec_from_file_location("kbench_common", path)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks the module up in sys.modules while it runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# the 6000 points of kbench's point pool, drawn by kbench itself
POOL = _kbench_common().pool_points()


def test_no_window_has_a_linear_defining_polynomial():
    # every rational root snaps, so a window's defining polynomial has no
    # rational root and is never linear: y_factor takes no linear factor.
    # tests/test_realroots_properties.py checks the same on planted roots.
    for point in POOL:
        where = _Point.of(ModelParams(*point))
        for var, coeffs in (("x", where.cubic), ("y", where.y_factor(where.cubic))):
            assert all(len(r._coeffs) > 2 for r in _isolate_int(var, coeffs) if not r.is_rational)


def test_every_hinted_root_takes_its_double_with_no_bisection(monkeypatch):
    # approx takes one exact Newton step from the midpoint of a root's hint,
    # a certified bracket, and that step lands on the nearest double: over
    # a tenth of the pool no hinted x or y root falls back to bisection
    bisected = []
    bisect = realroots._bisect_double
    monkeypatch.setattr(realroots, "_bisect_double",
                        lambda *args: bisected.append(args) or bisect(*args))
    hinted = 0
    for point in POOL[::10]:
        for eq in model.equilibria(ModelParams(*point)):
            for root in (eq.x_root, eq.y_root):
                if root._hint is not None:
                    root.approx
                    hinted += 1
    assert hinted > 2000 and bisected == []


def _scan_cubics():
    """The cell cubics of the 200x200 count and Figure 2 scans and the 100x100 slices."""
    ones = power_table(F(1))
    for lo, hi, n in ((F(1, 20), F(10), 200), (F(5, 2), F(5), 200), (F(5, 2), F(5), 100)):
        columns = [(v, power_table(v)) for v in grid_points(lo, hi, n)]
        for u in grid_points(lo, hi, n):
            row = _Row(power_table(u), ones, ones)
            for v, vp in columns:
                yield _Point(v, row, vp).cubic


def test_every_cubic_off_a_zero_discriminant_gets_certified_brackets():
    # the closed-form float roots, unpolished, bracket every real root of
    # every scan cell's cubic, pool cubic and twin with disc != 0; only
    # disc = 0 leaves a cubic with no brackets
    points = [_Point.of(ModelParams(*p)) for p in POOL + _lattice(16, 200)]
    cubics = itertools.chain(_scan_cubics(), (where.cubic for where in points),
                             (where.y_factor(where.cubic) for where in points))
    checked = 0
    for cubic in cubics:
        disc = realroots._cubic_discriminant(cubic)
        if disc:
            assert realroots._cubic_brackets(cubic, disc) is not None, cubic
            checked += 1
    assert checked > 100000


def test_rational_twin_root_stays_snapped():
    point, digest = RATIONAL_TWIN
    _, roots = _window_roots(point)
    assert roots == []
    fixed = [eq for eq in model.equilibria(ModelParams(*point)) if eq.x_root.compare_rational(0)]
    # x snaps to 1/6, and y is its rational image
    assert fixed[0].x_root.is_rational and fixed[0].x_root.value == F(1, 6)
    assert fixed[0].y_root.is_rational and fixed[0].y_root.value == F(7, 9)
    report = equilibrium_report(ModelParams(*point))
    assert [p["x_interval"] for p in report["equilibria"]] == [["0", "0"], ["1/6", "1/6"]]
    assert report["equilibria"][1]["y_approx"] == 7 / 9
    assert hashlib.sha256(_report_bytes(point)).hexdigest() == digest


@pytest.mark.parametrize("name", NAMED)
def test_named_report_bytes(name):
    point, digest = NAMED[name]
    assert hashlib.sha256(_report_bytes(point)).hexdigest() == digest


def test_seeded_report_bytes():
    h = hashlib.sha256()
    for point in SEEDED:
        h.update(_report_bytes(point))
        h.update(b"\n")
    assert h.hexdigest() == SEEDED_DIGEST
