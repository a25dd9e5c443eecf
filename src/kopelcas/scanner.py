"""Parameter grid scans comparing certificate classes against enumeration.

Every cell is classified twice, by independent routes: once by evaluating
the frozen parameter-space certificates, once by actually isolating the
positive fixed points at that cell, the cubic's roots above 0, and
certifying their stability.  The two answers land side by side in the
emitted table.  Both routes run in exact arithmetic, so they must agree in
every cell, on a certificate's zero set too: any disagreement is a bug in
one of the routes, never a rounding artifact.  Enumeration counts on
float-proposed brackets that exact sign evaluations certify, by the one
count a row of the model owns (model._Row.counts, its bracket rule
model._bracket_counts), and isolates the whole line only where they fail
or the lowest reaches below 0.  A cell whose cubic C has one real root
(disc < 0) and C(0) >= 0 has that root at or below 0 (at 0 on u v = 1),
so it counts none and asks for no bracket.  Otherwise only the lowest and
highest real roots are bracketed, from their two closed-form seeds alone:
C rises through both, and the middle one of three, which lies between
their brackets, is never stable.  A bracket holds the sign of
the fold condition at its root, so a bracketed root's stability takes the
modulus condition's sign alone.  At a root of C that is the sign of a
quadratic Q, which the bracket rule bounds inline: one bound from its
terms' values at the narrow bracket's ends mostly settles it, and only
where that does not is an exact sign query asked.  A root of the
whole-line route (model._Point.line_counts) is judged as a report judges
it, by the Jury rule on all three signs.

Parameters are bound on integers, in stages (exactpoly.stage and finish).
The kind's certificates, as one term list with certificate i the
coefficient of x**i (certificates._KIND_TERMS), the equilibrium cubic and
the stability rule's quadratic are compiled at import, each stage into
straight-line integer code.  A scan builds the power tables of its speeds
and of each v once.  Each row builds u's table and stages the
certificates, and the cubic and the quadratic as one model._Row.  Each
cell finishes them with its v's table alone and counts on those integers
(model._Row.counts): a model._Point is built only where its brackets give
way, and no ModelParams, so ScanSpec and the kind's speed rule are the
only checks its parameters get.  The finished certificate coefficients
are the certificate values, all over a single positive denominator, and
the class comes from their signs; the class's text, its expected count
and whether that counts stable points come from one table a scan builds
from EXPECTED_COUNT (_label_table).  near_boundary is true when the cell
lies on a certificate's zero set: one of those integers is 0, a report
column only that exempts no cell from the agreement check.

The scan kinds are declared in certificates, not here: KINDS, the
certificates each kind reads, the count each class asserts (EXPECTED_COUNT)
and the speed rule, under which only the homogeneous kind reads
spec.a_value.  A cell agrees when its class asserts no count or asserts the
one enumeration found: positive fixed points for a count class, stable ones
for a stable class.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .certificates import (
    EXPECTED_COUNT, StableCountClass, _KIND_TERMS, _classify_values, _kind_speed,
)
from .exactpoly import finish, power_table, stage
from .model import _Row, _check_speeds
from .rational import coerce_rational, format_rational
from .record import FrozenRecord, Record


class ScanSpec(FrozenRecord):
    __slots__ = ("u_range", "v_range", "resolution", "a_value")

    def __init__(self, u_range: tuple, v_range: tuple, resolution: int,
                 a_value: Fraction | None = None):
        u = tuple(coerce_rational(t) for t in u_range)
        v = tuple(coerce_rational(t) for t in v_range)
        if a_value is not None:
            a_value = coerce_rational(a_value)
            _check_speeds(a_value)
        for lo, hi in (u, v):
            if lo <= 0:
                raise ValueError("scan ranges must stay strictly positive")
            if lo >= hi:
                raise ValueError("scan range lower bound must be below the upper bound")
        if not isinstance(resolution, int):
            raise TypeError("resolution must be an int")
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        super().__init__(u, v, resolution, a_value)


class ScanCell(FrozenRecord):
    """One grid cell's two answers; near_boundary: on a certificate's zero set."""

    __slots__ = ("u", "v", "a", "cert_class", "numeric_positive", "numeric_stable", "agree",
                 "near_boundary")


class ScanGrid(Record):
    __slots__ = ("spec", "kind", "cells")

    def disagreements(self):
        return [c for c in self.cells if not c.agree]


def grid_points(lo, hi, resolution: int) -> list:
    """resolution exact rationals from lo to hi inclusive, evenly spaced."""
    lo = coerce_rational(lo)
    hi = coerce_rational(hi)
    # lo + k (hi - lo) / n = (p s n + k (r q - p s)) / (q s n) for lo = p/q, hi = r/s
    n = resolution - 1
    start, den = lo.numerator * hi.denominator, lo.denominator * hi.denominator
    step = hi.numerator * lo.denominator - start
    return [Fraction(start * n + k * step, den * n) for k in range(resolution)]


def _label_table() -> dict:
    """(cert_class text, expected count, counts stable points) per class in EXPECTED_COUNT.

    Keyed by the class object's id, since classes are singletons and an
    Enum member's own hash is a Python call.  A scan builds it once.
    """
    return {id(label): (label.value, expected, isinstance(label, StableCountClass))
            for label, expected in EXPECTED_COUNT.items()}


def scan(kind: str, spec: ScanSpec) -> ScanGrid:
    """Classify every cell of spec's grid both ways, for a kind in certificates.KINDS.

    Only the homogeneous kind reads spec.a_value, and it needs it; a
    speed given to the count or stable kind raises ValueError.
    """
    speed = _kind_speed(kind, spec.a_value, "a_value")
    sp = power_table(speed)
    columns = [(v, power_table(v)) for v in grid_points(*spec.v_range, spec.resolution)]
    labels = _label_table()
    cells = []
    for u in grid_points(*spec.u_range, spec.resolution):
        row = _Row(power_table(u), sp, sp)
        certificates = stage(_KIND_TERMS[kind], row.tables)
        for v, vp in columns:
            values = finish(certificates, vp)
            text, expected, stable_class = labels[id(_classify_values(kind, u, v, values))]
            positive, stable = row.counts(v, vp)
            agree = expected is None or (stable if stable_class else positive) == expected
            cells.append(ScanCell(u, v, spec.a_value, text, positive, stable, agree,
                                  0 in values))
    return ScanGrid(spec, kind, cells)


def scan_equilibrium_count(spec: ScanSpec) -> ScanGrid:
    return scan("count", spec)


def scan_stability_best_response(spec: ScanSpec) -> ScanGrid:
    return scan("stable", spec)


def scan_stability_homogeneous(spec: ScanSpec) -> ScanGrid:
    return scan("homogeneous", spec)


# -- emission --------------------------------------------------------------

# The emitted columns: each grid coordinate exact ("p/q") and then as the
# nearest float, a only in the homogeneous kind, then these cell fields.
_VERDICT_COLUMNS = ("cert_class", "numeric_positive", "numeric_stable", "agree",
                    "near_boundary")


def _cell_values(cell: ScanCell, coords: tuple) -> list:
    """A cell's value per column, as JSON writes it."""
    values = []
    for name in coords:
        q = getattr(cell, name)
        values += (format_rational(q), float(q))
    return values + [getattr(cell, name) for name in _VERDICT_COLUMNS]


def _csv_field(value) -> str:
    """A value as JSON writes it, strings bare: str of a float is its repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_grid(grid: ScanGrid, fmt: str = "csv", path=None) -> str:
    """Serialize deterministically; identical grids emit identical bytes.

    A CSV row is joined from texts made once per grid: "p/q,float" per
    coordinate object, keyed by its id, and the verdict columns per
    distinct tuple of their values.  A scan's cells share their row's u and
    their column's v, and the grid keeps every object alive, so no id is
    reused; a Fraction's own hash would take a modular inverse.  A grid has
    a few hundred coordinate objects and a few dozen verdicts, so a cell
    formats nothing itself.
    JSON writes each cell's values (_cell_values).
    """
    coords = ("u", "v", "a") if grid.kind == "homogeneous" else ("u", "v")
    columns = [n for name in coords for n in (name, name + "_float")] + list(_VERDICT_COLUMNS)
    if fmt == "csv":
        coord_text, verdict_text = {}, {}
        coord_values, verdict_values = attrgetter(*coords), attrgetter(*_VERDICT_COLUMNS)
        lines = [",".join(columns)]
        for cell in grid.cells:
            parts = []
            for q in coord_values(cell):
                text = coord_text.get(id(q))
                if text is None:
                    fields = format_rational(q), float(q)
                    text = coord_text[id(q)] = ",".join(map(_csv_field, fields))
                parts.append(text)
            key = verdict_values(cell)
            text = verdict_text.get(key)
            if text is None:
                text = verdict_text[key] = ",".join(map(_csv_field, key))
            parts.append(text)
            lines.append(",".join(parts))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        import json  # here, so that import kopelcas does not load it

        cells = [dict(zip(columns, _cell_values(c, coords))) for c in grid.cells]
        doc = {
            "schema_version": 1,
            "kind": grid.kind,
            "resolution": grid.spec.resolution,
            "u_range": [format_rational(t) for t in grid.spec.u_range],
            "v_range": [format_rational(t) for t in grid.spec.v_range],
            "a_value": (format_rational(grid.spec.a_value)
                        if grid.spec.a_value is not None else None),
            "cells": cells,
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        raise ValueError(f"unknown emission format: {fmt}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
