"""Grid scan behaviour on small grids where every cell can be hand-checked."""

import inspect
import json
from collections import Counter
from fractions import Fraction as F

import pytest

from kopelcas import exactpoly, model, realroots, scanner
from kopelcas.certificates import (
    COUNT_DISCRIMINANT, EXPECTED_COUNT, KINDS, MODULUS_FULL_SPEED, MODULUS_HOMOGENEOUS,
    POSITIVITY_THRESHOLD, STABLE_CUT_LINEAR, STABLE_CUT_QUADRATIC, EquilibriumCountClass,
    StableCountClass, _KIND_TERMS, classify_equilibrium_count, classify_stable_best_response,
    classify_stable_homogeneous,
)
from kopelcas.exactpoly import power_table
from kopelcas.model import (
    Equilibrium, ModelParams, _CUBIC_TERMS, _Point, _Row, equilibria,
    equilibrium_report,
)
from kopelcas.scanner import (
    ScanCell, ScanGrid, ScanSpec, emit_grid, grid_points, scan,
    scan_equilibrium_count, scan_stability_best_response,
    scan_stability_homogeneous,
)
from oracles import point_counts

SCANS = {"count": scan_equilibrium_count, "stable": scan_stability_best_response,
         "homogeneous": scan_stability_homogeneous}


class TestGridPoints:
    def test_endpoints_and_spacing(self):
        pts = grid_points(F(1, 20), F(10), 200)
        assert len(pts) == 200
        assert pts[0] == F(1, 20)
        assert pts[-1] == F(10)
        steps = {b - a for a, b in zip(pts, pts[1:])}
        assert steps == {(F(10) - F(1, 20)) / 199}
        assert all(isinstance(p, F) for p in pts)

    def test_two_points_are_the_endpoints(self):
        assert grid_points(F(1), F(3), 2) == [F(1), F(3)]

    def test_hits_interior_rationals_exactly(self):
        # (2,4) at resolution 3 passes through 3 exactly, no rounding
        assert grid_points(2, 4, 3) == [F(2), F(3), F(4)]


class TestScanSpec:
    def test_accepts_mixed_inputs(self):
        spec = ScanSpec(("1/2", 4), (F(1, 2), "4"), 3)
        assert spec.u_range == (F(1, 2), F(4))
        assert spec.v_range == (F(1, 2), F(4))

    def test_rejects_bad_ranges(self):
        # the only check a scan cell's parameters get: cells build no ModelParams
        with pytest.raises(ValueError, match="strictly positive"):
            ScanSpec((0, 4), (1, 4), 3)
        with pytest.raises(ValueError, match="strictly positive"):
            ScanSpec((1, 4), (0, 4), 3)
        with pytest.raises(ValueError, match="below the upper bound"):
            ScanSpec((4, 4), (1, 4), 3)
        with pytest.raises(ValueError, match="below the upper bound"):
            ScanSpec((1, 4), (5, 4), 3)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError, match="at least 2"):
            ScanSpec((1, 4), (1, 4), 1)

    def test_rejects_a_resolution_that_is_not_an_int(self):
        # scan would fail later, in range(), with no word of which field
        for resolution in (3.0, F(5), "5"):
            with pytest.raises(TypeError, match="resolution must be an int"):
                ScanSpec((1, 4), (1, 4), resolution)

    def test_rejects_out_of_range_speed(self):
        for a in (F(3, 2), 0, F(-1, 2)):
            with pytest.raises(ValueError, match="0 < a <= 1"):
                ScanSpec((1, 4), (1, 4), 3, a_value=a)


class TestCountScan:
    def test_three_by_three_classes(self):
        grid = scan_equilibrium_count(ScanSpec((2, 4), (2, 4), 3))
        assert grid.kind == "count"
        assert len(grid.cells) == 9
        by_point = {(c.u, c.v): c for c in grid.cells}
        assert by_point[(F(3), F(3))].cert_class == "OnePositiveTriple"
        assert by_point[(F(4), F(4))].cert_class == "ThreePositive"
        assert by_point[(F(4), F(4))].numeric_positive == 3
        assert by_point[(F(2), F(2))].cert_class == "OnePositive"
        assert by_point[(F(2), F(2))].numeric_positive == 1
        assert grid.disagreements() == []

    def test_cell_classes_match_direct_classification(self):
        grid = scan_equilibrium_count(ScanSpec((F(1, 2), F(9, 2)), (F(1, 2), F(9, 2)), 4))
        for cell in grid.cells:
            assert cell.cert_class == classify_equilibrium_count(cell.u, cell.v).value
            assert cell.a is None

    def test_triple_point_is_near_boundary(self):
        # the discriminant vanishes at (3,3): flagged, and still checked
        grid = scan_equilibrium_count(ScanSpec((2, 4), (2, 4), 3))
        cell = next(c for c in grid.cells if (c.u, c.v) == (F(3), F(3)))
        assert cell.near_boundary
        assert cell.agree

    def test_near_boundary_cells_are_not_exempt(self, monkeypatch):
        # a wrong expectation on the zero set must show as a disagreement
        monkeypatch.setitem(EXPECTED_COUNT, EquilibriumCountClass.ONE_POSITIVE_TRIPLE, 2)
        grid = scan_equilibrium_count(ScanSpec((2, 4), (2, 4), 3))
        bad = grid.disagreements()
        assert [(c.u, c.v) for c in bad] == [(F(3), F(3))]
        assert bad[0].near_boundary

    def test_unit_threshold_is_near_boundary(self):
        # (1/2, 2) sits exactly on uv = 1
        grid = scan_equilibrium_count(ScanSpec((F(1, 2), 2), (F(1, 2), 2), 3))
        cell = next(c for c in grid.cells if (c.u, c.v) == (F(1, 2), F(2)))
        assert cell.near_boundary
        assert cell.cert_class == "NoneOrDegenerate"
        assert cell.numeric_positive == 0

    def test_u_major_ordering(self):
        grid = scan_equilibrium_count(ScanSpec((1, 2), (3, 4), 2))
        assert [(c.u, c.v) for c in grid.cells] == [
            (F(1), F(3)), (F(1), F(4)), (F(2), F(3)), (F(2), F(4))]

    def test_cells_build_no_equilibrium(self, monkeypatch):
        # the cells count the cubic's roots in (0, 1) directly; this grid
        # holds u v = 1 at (1/2, 2) and (2, 1/2), and the triple point (3, 3)
        built = []
        init = Equilibrium.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Equilibrium, "__init__", counting)
        grid = scan("count", ScanSpec((F(1, 2), 5), (F(1, 2), 5), 10))
        assert len(grid.cells) == 100 and grid.disagreements() == []
        assert built == []
        # the counter sees the enumeration route that reports use
        assert len(equilibria(ModelParams(4, 4))) == 4
        assert len(built) == 4

    @pytest.mark.parametrize("kind", KINDS)
    def test_cells_build_no_model_params(self, kind, monkeypatch):
        # ScanSpec checks a scan's parameters once; a cell binds them unchecked
        built = []
        init = ModelParams.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModelParams, "__init__", counting)
        a = F(1, 2) if kind == "homogeneous" else None
        grid = scan(kind, ScanSpec((F(1, 2), 5), (F(1, 2), 5), 6, a_value=a))
        assert len(grid.cells) == 36 and grid.disagreements() == []
        assert built == []
        # the counter sees the ModelParams a point alone is made from
        _Point.of(ModelParams(4, 4))
        assert len(built) == 1


class TestStableScan:
    def test_two_stable_window_cell(self):
        grid = scan_stability_best_response(ScanSpec((3, F(7, 2)), (3, F(7, 2)), 3))
        by_point = {(c.u, c.v): c for c in grid.cells}
        cell = by_point[(F(13, 4), F(13, 4))]
        assert cell.cert_class == "TwoStable"
        assert cell.numeric_stable == 2
        assert cell.agree
        # (3,3) lies on the discriminant: the theorem is silent there
        assert by_point[(F(3), F(3))].cert_class == "TheoremSilent"
        assert grid.disagreements() == []

    def test_classes_match_direct_classification(self):
        grid = scan_stability_best_response(ScanSpec((F(5, 2), 5), (F(5, 2), 5), 4))
        for cell in grid.cells:
            assert cell.cert_class == classify_stable_best_response(cell.u, cell.v).value

    def test_silent_cells_still_record_numeric_count(self):
        # agreement is vacuous for TheoremSilent but the enumeration column
        # is filled in regardless, so silent regions stay auditable
        grid = scan_stability_best_response(ScanSpec((F(5, 2), 5), (F(5, 2), 5), 4))
        silent = [c for c in grid.cells if c.cert_class == "TheoremSilent"]
        assert silent
        assert all(isinstance(c.numeric_stable, int) for c in silent)
        assert all(c.agree for c in silent)


class TestHomogeneousScan:
    def test_requires_speed(self):
        with pytest.raises(ValueError, match="need a_value"):
            scan_stability_homogeneous(ScanSpec((3, 4), (3, 4), 2))

    def test_speed_threads_into_cells_and_classes(self):
        spec = ScanSpec((3, 4), (3, 4), 3, a_value=F(1, 2))
        grid = scan_stability_homogeneous(spec)
        for cell in grid.cells:
            assert cell.a == F(1, 2)
            assert cell.cert_class == classify_stable_homogeneous(
                cell.u, cell.v, F(1, 2)).value
        assert grid.disagreements() == []

    def test_full_speed_matches_plain_stable_scan(self):
        # the shared-speed statement has no two-stable branch, so at a=1 it
        # can only be silent where the full-speed classifier says TwoStable;
        # the enumeration column must agree cell for cell regardless
        spec_h = ScanSpec((3, F(7, 2)), (3, F(7, 2)), 3, a_value=1)
        spec_s = ScanSpec((3, F(7, 2)), (3, F(7, 2)), 3)
        cells_h = scan_stability_homogeneous(spec_h).cells
        cells_s = scan_stability_best_response(spec_s).cells
        for ch, cs in zip(cells_h, cells_s):
            assert ch.numeric_stable == cs.numeric_stable
            if ch.cert_class != "TheoremSilent":
                assert ch.cert_class == cs.cert_class


class TestKinds:
    SPEED = {"count": None, "stable": None, "homogeneous": F(1, 2)}

    @pytest.mark.parametrize("kind", KINDS)
    def test_scan_emits_the_named_scan_bytes(self, kind):
        spec = ScanSpec((F(5, 2), 5), (F(5, 2), 5), 4, a_value=self.SPEED[kind])
        for fmt in ("csv", "json"):
            assert emit_grid(scan(kind, spec), fmt) == emit_grid(SCANS[kind](spec), fmt)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            scan("bogus", ScanSpec((3, 4), (3, 4), 2))

    @pytest.mark.parametrize("kind", ["count", "stable"])
    def test_full_speed_kinds_refuse_a_speed(self, kind):
        # a dropped speed would scan every cell at a = 1 (stable column
        # 0, 0, 0, 0 here; 0, 1, 1, 2 at a = 1/2) while the JSON printed 1/2
        spec = ScanSpec((3, F(7, 2)), (3, F(7, 2)), 2, a_value=F(1, 2))
        with pytest.raises(ValueError, match="drop a_value"):
            SCANS[kind](spec)


class TestStagedBinding:
    FIG2 = (F(5, 2), F(5))

    @staticmethod
    def _count_staging(monkeypatch) -> Counter:
        staged = Counter()
        real = exactpoly.stage

        def counting(terms, tables):
            staged[id(terms)] += 1
            return real(terms, tables)

        monkeypatch.setattr(scanner, "stage", counting)
        monkeypatch.setattr(model, "stage", counting)
        return staged

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_row_stages_each_polynomial_once(self, kind, monkeypatch):
        staged = self._count_staging(monkeypatch)
        n = 5
        a = F(1, 2) if kind == "homogeneous" else None
        # u v > 1 throughout, so every cell has a positive fixed point whose
        # fold condition is positive (the cubic climbs from 1 - u v < 0 at 0
        # to 1 at 1), and every cell reads the modulus at it
        scan(kind, ScanSpec(self.FIG2, self.FIG2, n, a_value=a))
        # the kind's certificates are one term list, and the scan's stability
        # rule takes the modulus from the cubic, so a row stages the kind's
        # form and the cubic and no stability condition
        assert staged == {id(_KIND_TERMS[kind]): n, id(_CUBIC_TERMS): n}

    @pytest.mark.parametrize("kind", ["stable", "homogeneous"])
    def test_a_scan_builds_no_condition_set(self, kind, monkeypatch):
        made = []
        real = _Point._make_conditions
        monkeypatch.setattr(_Point, "_make_conditions",
                            lambda point: made.append(real(point)) or made[-1])
        a = F(1, 2) if kind == "homogeneous" else None
        grid = scan(kind, ScanSpec(self.FIG2, self.FIG2, 10, a_value=a))
        assert not grid.disagreements()
        assert sum(cell.numeric_stable for cell in grid.cells) > 0
        # a bracketed cell builds the modulus form alone, never the three
        assert made == []
        # a report still builds all three, once
        equilibrium_report(ModelParams(4, 4, F(1, 2), F(1, 2)))
        assert len(made) == 1 and len({id(c) for c in made[0]}) == 3

    @pytest.mark.parametrize("speed", [F(1), F(1, 2)])
    def test_a_report_point_stages_every_condition_once(self, speed, monkeypatch):
        staged = self._count_staging(monkeypatch)
        made = []
        real = _Point._make_conditions

        def counting(point):
            made.append(real(point))
            return made[-1]

        monkeypatch.setattr(_Point, "_make_conditions", counting)
        equilibrium_report(ModelParams(4, 4, speed, speed))
        # the three conditions are read off the finished cubic, so the cubic
        # is the one term list staged, and the point builds its conditions once
        assert staged == {id(_CUBIC_TERMS): 1}
        assert len(made) == 1
        # at a = b = 1 the second condition is the first, built once
        assert len({id(c) for c in made[0]}) == (2 if speed == 1 else 3)

    def test_full_speed_binds_the_second_condition_as_the_first(self):
        full = _Point.of(ModelParams(4, 4))
        assert full.conditions[1] is full.conditions[0]
        half = _Point.of(ModelParams(4, 4, F(1, 2), F(1, 2)))
        assert half.conditions[1] is not half.conditions[0]
        assert half.conditions[1] != half.conditions[0]
        # a point of a scan row finishes the row's staged forms alike
        ones = power_table(F(1))
        row = _Row(power_table(F(4)), ones, ones)
        cell = _Point(F(3), row, power_table(F(3)))
        assert cell.conditions[1] is cell.conditions[0]
        assert cell.conditions == _Point.of(ModelParams(4, 3)).conditions
        assert cell.cubic == _Point.of(ModelParams(4, 3)).cubic

    def test_a_point_has_one_constructor_and_no_params(self):
        # row, v and v's table are all required; a point alone goes through _Point.of
        signature = inspect.signature(_Point.__init__)
        assert [p.default for p in signature.parameters.values()] == [inspect.Parameter.empty] * 4
        ones = power_table(F(1))
        cell = _Point(F(3), _Row(power_table(F(4)), ones, ones), power_table(F(3)))
        for point in (cell, _Point.of(ModelParams(4, 3))):
            assert not hasattr(point, "params")
            assert point.v == F(3)


class TestCertifiedBrackets:
    FIG2 = (F(5, 2), F(5))

    def test_only_the_zero_sets_build_a_sturm_chain(self, monkeypatch):
        # off u v = 1 and disc = 0, float brackets certified by exact signs
        # isolate every cell's cubic, so no cell builds a Sturm chain
        chains = []
        build = realroots._sturm_chain
        monkeypatch.setattr(realroots, "_sturm_chain", lambda c: chains.append(c) or build(c))
        grid = scan("stable", ScanSpec(self.FIG2, self.FIG2, 10))
        assert chains == []
        assert not grid.disagreements()
        # the zero-set grid holds the triple point (3, 3), whose cubic
        # (3 x - 2)**3 builds one; its u v = 1 cells settle on integers
        grid = scan("count", ScanSpec((F(1, 2), 4), (F(1, 2), 4), 8))
        assert chains == [(-8, 36, -54, 27)]
        assert not grid.disagreements()

    @pytest.mark.parametrize("kind, a, square, resolution, fallbacks", [
        # the triple point, where disc = 0; the u v = 1 cells settle on integers
        ("count", None, (F(1, 2), F(4)), 8, {(F(3), F(3))}),
        # coefficients past the float range: every cell
        ("count", None, (F(10**200), F(2 * 10**200)), 3, None),
        # disc = 0 with a double root at 5/6, at both speeds
        ("stable", None, (F(27, 8), F(4)), 2, {(F(27, 8), F(4)), (F(4), F(27, 8))}),
        ("homogeneous", F(1, 4), (F(27, 8), F(4)), 2, {(F(27, 8), F(4)), (F(4), F(27, 8))}),
    ])
    def test_a_cell_whose_brackets_give_way_counts_as_the_report(
            self, monkeypatch, kind, a, square, resolution, fallbacks):
        # the whole-line route judges each positive root by the report's Jury rule
        isolated, routes = [], []
        isolate, line_counts = model._isolate_int, _Point.line_counts

        def counted(point):
            before = len(isolated)
            answer = line_counts(point)
            up = point.tables[0]  # u = up[1] / up[0] (exactpoly.power_table)
            routes.append((F(up[1], up[0]), point.v, len(isolated) > before))
            return answer

        monkeypatch.setattr(model, "_isolate_int",
                            lambda *args, **kw: isolated.append(args) or isolate(*args, **kw))
        monkeypatch.setattr(_Point, "line_counts", counted)
        grid = scan(kind, ScanSpec(square, square, resolution, a_value=a))
        monkeypatch.undo()
        assert all(isolates for _, _, isolates in routes)
        fell_back = {(u, v) for u, v, _ in routes}
        assert len(fell_back) == len(routes)
        cells = [c for c in grid.cells if (c.u, c.v) in fell_back]
        assert fell_back == (fallbacks or {(c.u, c.v) for c in grid.cells})
        speed = 1 if a is None else a
        for cell in cells:
            report = equilibrium_report(ModelParams(cell.u, cell.v, speed, speed))
            positive = [e for e in report["equilibria"] if e["positive"]]
            assert cell.numeric_positive == len(positive), (cell.u, cell.v)
            assert cell.numeric_stable == sum(e["verdict"] == "stable" for e in positive)


class TestRowBoundCells:
    """A scan cell counts on its row's bound integers and builds a _Point only to fall back."""

    FIG2 = (F(5, 2), F(5))

    @pytest.mark.parametrize("kind, a, square", [
        # steps of 1/2 from 1/2 to 6: u v = 1 at (1/2, 2), (1, 1), (2, 1/2) and the triple point
        ("count", None, (F(1, 2), F(6))),
        ("stable", None, FIG2),
        ("homogeneous", F(3, 7), FIG2),
    ])
    def test_cell_counts_are_the_point_counts(self, kind, a, square):
        # the row's speed factors K = k vp[0] and M = m content against a
        # point's own, and the bracket rule against the whole-line route
        grid = scan(kind, ScanSpec(square, square, 12, a_value=a))
        speed = 1 if a is None else a
        for cell in grid.cells:
            point = _Point.of(ModelParams(cell.u, cell.v, speed, speed))
            answer = cell.numeric_positive, cell.numeric_stable
            assert answer == point_counts(point) == point.line_counts(), (cell.u, cell.v)
        assert not grid.disagreements()

    def test_a_scan_builds_a_point_only_to_fall_back(self, monkeypatch):
        built = []
        init = _Point.__init__

        def counting(point, v, row, vp):
            built.append(v)
            init(point, v, row, vp)

        monkeypatch.setattr(_Point, "__init__", counting)
        scan("stable", ScanSpec(self.FIG2, self.FIG2, 10))
        assert built == []
        # on this grid only the triple point (3, 3), where disc = 0
        scan("count", ScanSpec((F(1, 2), F(4)), (F(1, 2), F(4)), 8))
        assert built == [F(3)]
        # coefficients past the float range: every cell
        scan("count", ScanSpec((F(10**200), F(2 * 10**200)), (F(10**200), F(2 * 10**200)), 3))
        assert len(built) == 1 + 9

    def test_label_table_is_expected_count(self):
        table = scanner._label_table()
        assert len(table) == len(EXPECTED_COUNT)
        for label, expected in EXPECTED_COUNT.items():
            stable = isinstance(label, StableCountClass)
            assert table[id(label)] == (label.value, expected, stable)


class TestDisagreements:
    def test_filter_keeps_only_failed_cells(self):
        spec = ScanSpec((1, 2), (1, 2), 2)
        good = ScanCell(F(1), F(1), None, "OnePositive", 1, 0, True, False)
        bad = ScanCell(F(2), F(2), None, "OnePositive", 3, 0, False, False)
        grid = ScanGrid(spec, "count", [good, bad, good])
        assert grid.disagreements() == [bad]


class TestNearBoundary:
    """near_boundary flags exactly the cells on a certificate's zero set."""

    # step 1/2 from 1/2 to 5: u v = 1, the triple point (3, 3) and u v = 15 are on the grid
    SQUARE = (F(1, 2), F(5))
    CERTIFICATES = {
        "count": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD),
        "stable": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD, MODULUS_FULL_SPEED,
                   STABLE_CUT_LINEAR, STABLE_CUT_QUADRATIC),
        "homogeneous": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD, MODULUS_HOMOGENEOUS),
    }

    @pytest.mark.parametrize("kind, a", [("count", None), ("stable", None),
                                         ("homogeneous", F(1, 2)), ("homogeneous", F(3, 7))])
    def test_flag_matches_fraction_reference(self, kind, a):
        spec = ScanSpec(self.SQUARE, self.SQUARE, 10, a_value=a)
        grid = SCANS[kind](spec)
        for cell in grid.cells:
            binding = {"u": cell.u, "v": cell.v, "a": 1 if a is None else a}
            expected = any(p.evaluate(binding).as_fraction() == 0
                           for p in self.CERTIFICATES[kind])
            assert cell.near_boundary == expected, (cell.u, cell.v)
        flagged = {(c.u, c.v) for c in grid.cells if c.near_boundary}
        assert {(F(1), F(1)), (F(3), F(3))} <= flagged
        assert len(flagged) < len(grid.cells)

    @pytest.mark.parametrize("kind, a, square, resolution, expected", [
        # u v = 1 three times, and disc = 0 at the triple point
        ("count", None, (F(1, 2), F(4)), 8,
         {(F(1, 2), F(2)), (F(1), F(1)), (F(2), F(1, 2)), (F(3), F(3))}),
        # disc = 0 at the first two, and (4, 4) lies on the quadratic stable cut
        ("stable", None, (F(27, 8), F(4)), 2, {(F(27, 8), F(4)), (F(4), F(27, 8)), (F(4), F(4))}),
        ("homogeneous", F(1, 4), (F(27, 8), F(4)), 2, {(F(27, 8), F(4)), (F(4), F(27, 8))}),
    ])
    def test_flags_exactly_the_grid_points_on_a_zero_set(self, kind, a, square, resolution,
                                                          expected):
        grid = scan(kind, ScanSpec(square, square, resolution, a_value=a))
        assert {(c.u, c.v) for c in grid.cells if c.near_boundary} == expected
        assert not grid.disagreements()


def _reference_csv(grid) -> str:
    """emit_grid's CSV formatted cell by cell, each value on its own."""
    coords = ("u", "v", "a") if grid.kind == "homogeneous" else ("u", "v")
    verdicts = ("cert_class", "numeric_positive", "numeric_stable", "agree", "near_boundary")
    lines = [",".join([n for name in coords for n in (name, name + "_float")] + list(verdicts))]
    for cell in grid.cells:
        values = []
        for name in coords:
            q = getattr(cell, name)
            values += (str(q), float(q))
        values += [getattr(cell, name) for name in verdicts]
        lines.append(",".join(("true" if v else "false") if isinstance(v, bool) else str(v)
                              for v in values))
    return "\n".join(lines) + "\n"


class TestEmission:
    def test_csv_matches_a_cell_by_cell_formatter(self):
        # equal but distinct Fractions, integer values (one a plain int), an a
        # column, repeated and distinct verdicts, and cells in no grid order
        half, other_half = F(3, 2), F(6, 4)
        assert half == other_half and half is not other_half
        cells = [
            ScanCell(half, F(2), F(1, 4), "OnePositive", 1, 1, True, False),
            ScanCell(F(10, 5), other_half, F(1, 4), "OnePositive", 1, 1, True, False),
            ScanCell(F(1, 3), 2, F(1, 4), "TheoremSilent", 3, 2, True, True),
            ScanCell(other_half, half, F(2, 8), "OnePositive", 1, 0, False, False),
            ScanCell(F(2), F(1, 3), F(1, 4), "TheoremSilent", 3, 2, True, True),
        ]
        spec = ScanSpec((1, 2), (1, 2), 2, a_value=F(1, 4))
        grid = ScanGrid(spec, "homogeneous", cells)
        assert emit_grid(grid, "csv") == _reference_csv(grid)
        # a scan's own cells, emitted backwards
        grid = scan_equilibrium_count(ScanSpec((F(1, 2), 4), (F(1, 2), 4), 8))
        grid.cells.reverse()
        assert emit_grid(grid, "csv") == _reference_csv(grid)

    def test_csv_shape_and_determinism(self):
        grid = scan_equilibrium_count(ScanSpec((2, 4), (2, 4), 3))
        text = emit_grid(grid, "csv")
        assert text == emit_grid(grid, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ("u,u_float,v,v_float,cert_class,"
                            "numeric_positive,numeric_stable,agree,near_boundary")
        assert len(lines) == 10
        assert "3,3.0,3,3.0,OnePositiveTriple,1,0,true,true" in lines

    def test_csv_homogeneous_has_speed_columns(self):
        grid = scan_stability_homogeneous(ScanSpec((3, 4), (3, 4), 2, a_value=F(1, 2)))
        lines = emit_grid(grid, "csv").strip().split("\n")
        assert lines[0].startswith("u,u_float,v,v_float,a,a_float,")
        assert all(",1/2,0.5," in line for line in lines[1:])

    def test_exact_and_float_columns_are_consistent(self):
        grid = scan_equilibrium_count(ScanSpec((F(1, 3), 1), (F(1, 3), 1), 2))
        lines = emit_grid(grid, "csv").strip().split("\n")[1:]
        first = lines[0].split(",")
        assert first[0] == "1/3"
        assert first[1] == repr(1 / 3)

    def test_json_document(self):
        grid = scan_equilibrium_count(ScanSpec((2, 4), (2, 4), 3))
        doc = json.loads(emit_grid(grid, "json"))
        assert doc["schema_version"] == 1
        assert doc["kind"] == "count"
        assert doc["resolution"] == 3
        assert doc["u_range"] == ["2", "4"]
        assert doc["a_value"] is None
        assert "boundary_epsilon" not in doc
        assert len(doc["cells"]) == 9
        triple = next(c for c in doc["cells"] if c["u"] == "3" and c["v"] == "3")
        assert triple["cert_class"] == "OnePositiveTriple"
        assert triple["near_boundary"] is True

    def test_writes_file(self, tmp_path):
        grid = scan_equilibrium_count(ScanSpec((2, 4), (2, 4), 2))
        target = tmp_path / "scan_count_2.csv"
        text = emit_grid(grid, "csv", str(target))
        assert target.read_text(encoding="utf-8") == text

    def test_unknown_format_rejected(self):
        grid = scan_equilibrium_count(ScanSpec((2, 4), (2, 4), 2))
        with pytest.raises(ValueError, match="unknown emission format"):
            emit_grid(grid, "parquet")
