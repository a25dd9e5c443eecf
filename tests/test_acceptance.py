"""Acceptance suite: every headline claim at its stated size and tolerance.

Each criterion is one test so the verbose run shows one pass/fail line per
criterion.  The two 200x200 reproduction grids dominate the runtime; the
second one is shared between criteria 5 and 6 through a module fixture.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from kopelcas.certificates import (
    COUNT_DISCRIMINANT, EXPECTED_COUNT, StableCountClass, classify_equilibrium_count,
    classify_stable_homogeneous, verify_all,
)
from kopelcas.exactpoly import dense_to_mpoly
from kopelcas.model import (
    ModelParams, _update, bound_stability_polys, e0_stable, equilibria, jury_report,
)
from kopelcas.realroots import isolate_real_roots, sign_at
from kopelcas.scanner import (
    ScanSpec, scan_equilibrium_count,
    scan_stability_best_response, scan_stability_homogeneous,
)
from oracles import sturm_sign_count

FIG2_SQUARE = (F(5, 2), F(5))


@pytest.fixture(scope="module")
def fig2_grid():
    return scan_stability_best_response(ScanSpec(FIG2_SQUARE, FIG2_SQUARE, 200))


def _positive_equilibria(u, v):
    params = ModelParams(u, v)
    return params, [e for e in equilibria(params) if e.is_positive]


def _cd3_signs(params, positives):
    cd3 = bound_stability_polys(params)[2]
    return sorted(sign_at(cd3, eq.x_root) for eq in positives)


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    results = verify_all()
    elapsed = time.perf_counter() - t0
    assert len(results) == 11
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert elapsed < 10.0
    print(f"criterion 1 (identity suite, {elapsed:.2f}s): PASS")


def test_criterion_2_sample_points():
    # (4,4): three positive fixed points, x in {3/4, (5 +/- sqrt5)/8}
    params, pos = _positive_equilibria(4, 4)
    assert len(pos) == 3
    lo_c, mid, hi_c = pos
    assert mid.x_root.compare_rational(F(3, 4)) == 0
    conj = dense_to_mpoly([F(5), F(-20), F(16)], "x")
    # a certified zero of the conjugate-pair polynomial plus the side of its
    # axis of symmetry pins each closed form exactly, which subsumes interval
    # containment of the closed-form value
    assert sign_at(conj, lo_c.x_root) == 0
    assert sign_at(conj, hi_c.x_root) == 0
    assert lo_c.x_root.compare_rational(F(5, 8)) < 0
    assert hi_c.x_root.compare_rational(F(5, 8)) > 0
    s5 = math.sqrt(5.0)
    assert abs(lo_c.x_approx - (5 - s5) / 8) < 1e-12
    assert abs(mid.x_approx - 0.75) < 1e-12
    assert abs(hi_c.x_approx - (5 + s5) / 8) < 1e-12
    assert _cd3_signs(params, pos) == [-1, -1, 1]

    # (13/4,13/4): x in {9/13, (17 +/- sqrt17)/26}, all three pass CD3
    params, pos = _positive_equilibria(F(13, 4), F(13, 4))
    assert len(pos) == 3
    lo_c, mid, hi_c = pos
    assert mid.x_root.compare_rational(F(9, 13)) == 0
    conj = dense_to_mpoly([F(68), F(-221), F(169)], "x")
    assert sign_at(conj, lo_c.x_root) == 0
    assert sign_at(conj, hi_c.x_root) == 0
    assert lo_c.x_root.compare_rational(F(17, 26)) < 0
    assert hi_c.x_root.compare_rational(F(17, 26)) > 0
    s17 = math.sqrt(17.0)
    assert abs(lo_c.x_approx - (17 - s17) / 26) < 1e-12
    assert abs(hi_c.x_approx - (17 + s17) / 26) < 1e-12
    assert _cd3_signs(params, pos) == [1, 1, 1]

    # (3,3): one positive fixed point (2/3, 2/3) of multiplicity three
    params, pos = _positive_equilibria(3, 3)
    assert len(pos) == 1
    assert pos[0].x_root.compare_rational(F(2, 3)) == 0
    assert pos[0].multiplicity == 3
    assert pos[0].y_root.compare_rational(F(2, 3)) == 0

    # (2,2): unique positive fixed point (1/2, 1/2)
    params, pos = _positive_equilibria(2, 2)
    assert len(pos) == 1
    assert pos[0].x_root.compare_rational(F(1, 2)) == 0
    assert pos[0].y_root.compare_rational(F(1, 2)) == 0
    assert pos[0].multiplicity == 1
    print("criterion 2 (sample points): PASS")


def test_criterion_3_origin_window():
    rng = random.Random(314159)
    stable_seen = unstable_seen = 0
    for _ in range(1000):
        u = F(rng.randint(1, 60), rng.randint(1, 10))
        v = F(rng.randint(1, 60), rng.randint(1, 10))
        a = F(rng.randint(1, 16), 16)
        b = F(rng.randint(1, 16), 16)
        params = ModelParams(u, v, a=a, b=b)
        origin = next(e for e in equilibria(params)
                      if e.x_root.is_rational and e.x_root.value == 0)
        verdict = jury_report(origin, params).verdict
        assert e0_stable(params) == (verdict == "stable")
        if verdict == "stable":
            stable_seen += 1
        else:
            unstable_seen += 1
    # both outcomes must actually be exercised by the draw
    assert stable_seen >= 20 and unstable_seen >= 20

    # exactly on the window edge the first condition vanishes identically
    for _ in range(30):
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        params = ModelParams(F(p, q), F(q, p),
                             a=F(rng.randint(1, 16), 16), b=F(rng.randint(1, 16), 16))
        origin = next(e for e in equilibria(params)
                      if e.x_root.is_rational and e.x_root.value == 0)
        rep = jury_report(origin, params)
        assert rep.cd_signs[0] == 0
        assert rep.verdict == "marginal"
        assert not e0_stable(params)
    print(f"criterion 3 (origin window, {stable_seen} stable / "
          f"{unstable_seen} not): PASS")


def test_criterion_4_figure_1_count_partition():
    t0 = time.perf_counter()
    grid = scan_equilibrium_count(ScanSpec((F(1, 20), 10), (F(1, 20), 10), 200))
    elapsed = time.perf_counter() - t0
    assert len(grid.cells) == 40000
    assert grid.disagreements() == []
    three = set()
    one = set()
    disc_pos = set()
    disc_neg_above = set()
    for c in grid.cells:
        if c.cert_class == "ThreePositive":
            three.add((c.u, c.v))
        elif c.cert_class == "OnePositive":
            one.add((c.u, c.v))
        disc = COUNT_DISCRIMINANT.evaluate({"u": c.u, "v": c.v}).as_fraction()
        if disc > 0:
            disc_pos.add((c.u, c.v))
        elif disc < 0 and c.u * c.v > 1:
            disc_neg_above.add((c.u, c.v))
    # the two shaded regions are exactly the discriminant sign sets
    assert three == disc_pos
    assert one == disc_neg_above
    assert elapsed < 120.0
    print(f"criterion 4 (count partition 200x200, {elapsed:.1f}s, "
          f"{len(three)} three-cell / {len(one)} one-cell): PASS")


def test_criterion_5_figure_2_two_stable_window(fig2_grid):
    grid = fig2_grid
    assert len(grid.cells) == 40000
    assert grid.disagreements() == []
    two = [c for c in grid.cells if c.cert_class == "TwoStable"]
    one = [c for c in grid.cells if c.cert_class == "OneStable"]
    assert two
    assert all(c.numeric_stable == 2 for c in two)
    assert all(c.numeric_stable == 1 for c in one)
    print(f"criterion 5 (two-stable window, {len(two)} TwoStable / "
          f"{len(one)} OneStable cells): PASS")


def test_criterion_6_figure_3_speed_slices(fig2_grid):
    for a in (F(1, 4), F(1, 2), F(3, 4)):
        grid = scan_stability_homogeneous(
            ScanSpec(FIG2_SQUARE, FIG2_SQUARE, 100, a_value=a))
        assert grid.disagreements() == []
        one = [c for c in grid.cells if c.cert_class == "OneStable"]
        assert one
        assert all(c.numeric_stable == 1 for c in one)

    # the full-speed slice must repartition criterion 5's grid identically,
    # and its certificate cells inherit that grid's enumeration counts
    full_speed_one = set()
    for c in fig2_grid.cells:
        if classify_stable_homogeneous(c.u, c.v, 1) is StableCountClass.ONE_STABLE:
            full_speed_one.add((c.u, c.v))
    reference_one = {(c.u, c.v) for c in fig2_grid.cells
                     if c.cert_class == "OneStable"}
    assert full_speed_one == reference_one
    by_point = {(c.u, c.v): c for c in fig2_grid.cells}
    assert all(by_point[pt].numeric_stable == 1 for pt in full_speed_one)
    print("criterion 6 (speed slices a=1/4,1/2,3/4,1): PASS")


def _orbits_stay_in_unit_square(params, x, y, steps):
    """Whether every orbit from the arrays (x, y) stays in [0, 1]^2 for steps
    steps of model._update."""
    floats = params.as_floats()
    for t in range(steps + 1):
        if t:
            x, y = _update(x, y, *floats)
        if not np.all((0 <= x) & (x <= 1) & (0 <= y) & (y <= 1)):
            return False
    return True


def test_criterion_7_trapping_square():
    rng = random.Random(777)
    starts = np.random.default_rng(777)
    xs = starts.uniform(0.0, 1.0, 1000)
    ys = starts.uniform(0.0, 1.0, 1000)
    cases = [ModelParams(4, 4)]
    for i in range(10):
        u = F(rng.randint(1, 32), 8)
        v = F(rng.randint(1, 32), 8)
        if i % 2:
            cases.append(ModelParams(u, v, a=F(rng.randint(1, 16), 16),
                                     b=F(rng.randint(1, 16), 16)))
        else:
            cases.append(ModelParams(u, v))
    for params in cases:
        assert _orbits_stay_in_unit_square(params, xs, ys, 10_000), params.describe()
    # the check sees a start outside the square, and an orbit that leaves it
    assert not _orbits_stay_in_unit_square(ModelParams(2, 2), np.array([1.5]), np.array([0.5]), 0)
    assert not _orbits_stay_in_unit_square(ModelParams(5, 5), np.array([0.5]), np.array([0.5]), 1)
    print("criterion 7 (trapping square, 11 maps x 1000 starts x 1e4 steps): PASS")


def test_criterion_8_unit_square_containment():
    rng = random.Random(161803)
    checked = 0
    threshold_cases = 0
    for k in range(1000):
        u = F(rng.randint(1, 48), rng.randint(1, 6))
        excess = F(0) if k < 15 else F(rng.randint(0, 60), rng.randint(1, 6))
        v = (1 + excess) / u
        assert u * v >= 1
        if u * v == 1:
            threshold_cases += 1
        for eq in equilibria(ModelParams(u, v)):
            assert eq.in_unit_square, (u, v, eq.x_approx)
            checked += 1
    assert threshold_cases >= 15
    print(f"criterion 8 (unit square containment, {checked} fixed points, "
          f"{threshold_cases} exactly on uv=1): PASS")


def _planted_cubic(roots, lead):
    r0, r1, r2 = roots
    e1, e2, e3 = r0 + r1 + r2, r0 * r1 + r0 * r2 + r1 * r2, r0 * r1 * r2
    dense = [-lead * e3, lead * e2, -lead * e1, F(lead)]
    return dense, dense_to_mpoly(dense, "x")


def _grid_sign_changes(dense, lo, hi):
    grid = np.linspace(float(lo), float(hi), 4001)
    vals = np.polyval([float(c) for c in reversed(dense)], grid)
    s = np.sign(vals)
    # a grid point landing exactly on a root contributes no product flip,
    # so exact zeros are crossings in their own right
    return int(np.sum(s[:-1] * s[1:] < 0)) + int(np.sum(s == 0))


def test_criterion_9_root_isolation_oracle():
    rng = random.Random(271828)

    # half the draws allow repeated roots to exercise multiplicities
    for _ in range(500):
        den = rng.randint(1, 6)
        roots = sorted(F(rng.randint(-12, 12), den) for _ in range(3))
        lead = rng.choice([c for c in range(-9, 10) if c])
        _, poly = _planted_cubic(roots, lead)
        expected = {}
        for r in roots:
            expected[r] = expected.get(r, 0) + 1
        got = {}
        for alpha in isolate_real_roots(poly):
            matches = [r for r in expected if alpha.compare_rational(r) == 0]
            assert len(matches) == 1
            got[matches[0]] = alpha.multiplicity_in_source
        assert got == expected

    # the other half has distinct roots on a coarse lattice, so a dense
    # float grid is a sound independent counter (spacing far below the
    # minimal root gap, every crossing simple)
    for _ in range(500):
        ks = rng.sample(range(-16, 17), 3)
        roots = sorted(F(k, 8) for k in ks)
        lead = rng.choice([c for c in range(-9, 10) if c])
        dense, poly = _planted_cubic(roots, lead)
        iso = isolate_real_roots(poly)
        assert len(iso) == 3
        for alpha, r in zip(iso, roots):
            assert alpha.compare_rational(r) == 0
            assert alpha.multiplicity_in_source == 1
        lo, hi = roots[0] - F(1, 3), roots[2] + F(1, 3)
        assert sturm_sign_count(poly, lo, hi) == _grid_sign_changes(dense, lo, hi)
        sub_lo = roots[0] + F(1, 48)
        assert (sturm_sign_count(poly, sub_lo, hi)
                == _grid_sign_changes(dense, sub_lo, hi))
    print("criterion 9 (root isolation oracle, 1000 planted cubics): PASS")


def test_property_classification_matches_enumeration_full_scale():
    # the count classifier against actual enumeration at scale, with draws
    # kept off the discriminant variety where the class is ill-posed
    rng = random.Random(424242)
    guard = F(1, 10**6)
    accepted = 0
    while accepted < 10_000:
        u = F(rng.randint(1, 100), rng.randint(1, 10))
        v = F(rng.randint(1, 100), rng.randint(1, 10))
        if abs(COUNT_DISCRIMINANT.evaluate({"u": u, "v": v}).as_fraction()) < guard:
            continue
        label = classify_equilibrium_count(u, v)
        positives = [e for e in equilibria(ModelParams(u, v)) if e.is_positive]
        assert EXPECTED_COUNT[label] == len(positives), (u, v, label)
        accepted += 1
    print("full-scale classification vs enumeration (10000 draws): PASS")
