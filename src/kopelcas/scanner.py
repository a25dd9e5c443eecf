"""Parameter grid scans comparing certificate classes against enumeration.

Every cell is classified twice, by independent routes: once by evaluating
the frozen parameter-space certificates, once by actually isolating the
fixed points at that cell and certifying their signs and stability.  The
two answers land side by side in the emitted table.  Both routes run in
exact arithmetic, so they must agree in every cell, on a certificate's zero
set too: any disagreement is a bug in one of the routes, never a rounding
artifact.

Each cell binds its parameters once, on integers, as one model._Point: the
certificates the kind reads, the equilibrium cubic and the stability
conditions are compiled from their frozen forms at import, and all of them
are bound from the point's power tables, which share a single positive
denominator.  The class comes from the signs of the certificate values.
near_boundary is true when a certificate value lies within boundary_epsilon
of zero, tested exactly on those integers.  The flag is a report column
only; it exempts no cell from the agreement check.

The scan kinds are declared in certificates, not here: KINDS, the
certificates each kind reads, the count each class asserts (EXPECTED_COUNT)
and the speed rule, under which only the homogeneous kind reads
spec.a_value.  A cell agrees when its class asserts no count or asserts the
one enumeration found: positive fixed points for a count class, stable ones
for a stable class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .certificates import (
    EXPECTED_COUNT, StableCountClass, _certificate_values, _classify_values, _kind_speed,
)
from .model import ModelParams, _Point
from .rational import coerce_rational, format_rational


@dataclass(frozen=True)
class ScanSpec:
    u_range: tuple
    v_range: tuple
    resolution: int
    a_value: Fraction | None = None
    boundary_epsilon: Fraction = Fraction(1, 1000)

    def __post_init__(self):
        u = tuple(coerce_rational(t) for t in self.u_range)
        v = tuple(coerce_rational(t) for t in self.v_range)
        object.__setattr__(self, "u_range", u)
        object.__setattr__(self, "v_range", v)
        object.__setattr__(self, "boundary_epsilon", coerce_rational(self.boundary_epsilon))
        if self.a_value is not None:
            object.__setattr__(self, "a_value", coerce_rational(self.a_value))
            if not (0 < self.a_value <= 1):
                raise ValueError("adjustment speeds must satisfy 0 < a <= 1 and 0 < b <= 1")
        for lo, hi in (u, v):
            if lo <= 0:
                raise ValueError("scan ranges must stay strictly positive")
            if lo >= hi:
                raise ValueError("scan range lower bound must be below the upper bound")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.boundary_epsilon <= 0:
            raise ValueError("boundary epsilon must be positive")


@dataclass(frozen=True)
class ScanCell:
    u: Fraction
    v: Fraction
    a: Fraction | None
    cert_class: str
    numeric_positive: int
    numeric_stable: int
    agree: bool
    near_boundary: bool


@dataclass
class ScanGrid:
    spec: ScanSpec
    kind: str
    cells: list

    def disagreements(self):
        return [c for c in self.cells if not c.agree]


def grid_points(lo, hi, resolution: int) -> list:
    """resolution exact rationals from lo to hi inclusive, evenly spaced."""
    lo = coerce_rational(lo)
    hi = coerce_rational(hi)
    span = hi - lo
    return [lo + Fraction(k, resolution - 1) * span for k in range(resolution)]


def scan(kind: str, spec: ScanSpec) -> ScanGrid:
    """Classify every cell of spec's grid both ways, for a kind in certificates.KINDS.

    Only the homogeneous kind reads spec.a_value, and it needs it; a
    speed given to the count or stable kind raises ValueError.
    """
    speed = _kind_speed(kind, spec.a_value, "a_value")
    eps_num, eps_den = spec.boundary_epsilon.numerator, spec.boundary_epsilon.denominator
    us = grid_points(*spec.u_range, spec.resolution)
    vs = grid_points(*spec.v_range, spec.resolution)
    cells = []
    for u in us:
        for v in vs:
            point = _Point(ModelParams(u, v, a=speed, b=speed))
            # every bound value is the exact one times this denominator
            scale = math.prod(t[0] for t in point.tables)
            values = _certificate_values(kind, point.tables)
            label = _classify_values(kind, u, v, values)
            expected = EXPECTED_COUNT[label]

            positives = [e for e in point.equilibria() if e.is_positive]
            numeric_positive = len(positives)
            numeric_stable = sum(point.is_stable(eq.x_root) for eq in positives)

            # |value| < eps, with value = n / scale and eps = eps_num / eps_den
            near = any(abs(n) * eps_den < eps_num * scale for n in values)
            numeric = numeric_stable if isinstance(label, StableCountClass) else numeric_positive
            agree = expected is None or numeric == expected
            cells.append(ScanCell(u, v, spec.a_value, label.value, numeric_positive,
                                  numeric_stable, agree, near))
    return ScanGrid(spec, kind, cells)


def scan_equilibrium_count(spec: ScanSpec) -> ScanGrid:
    return scan("count", spec)


def scan_stability_best_response(spec: ScanSpec) -> ScanGrid:
    return scan("stable", spec)


def scan_stability_homogeneous(spec: ScanSpec) -> ScanGrid:
    return scan("homogeneous", spec)


# -- emission --------------------------------------------------------------

def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _cell_row(cell: ScanCell, with_a: bool) -> list:
    row = [format_rational(cell.u), repr(float(cell.u)),
           format_rational(cell.v), repr(float(cell.v))]
    if with_a:
        row += [format_rational(cell.a), repr(float(cell.a))]
    row += [cell.cert_class, str(cell.numeric_positive), str(cell.numeric_stable),
            _bool_str(cell.agree), _bool_str(cell.near_boundary)]
    return row


def emit_grid(grid: ScanGrid, fmt: str = "csv", path=None) -> str:
    """Serialize deterministically; identical grids emit identical bytes."""
    with_a = grid.kind == "homogeneous"
    if fmt == "csv":
        header = ["u", "u_float", "v", "v_float"]
        if with_a:
            header += ["a", "a_float"]
        header += ["cert_class", "numeric_positive", "numeric_stable",
                   "agree", "near_boundary"]
        lines = [",".join(header)]
        lines += [",".join(_cell_row(c, with_a)) for c in grid.cells]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        cells = []
        for c in grid.cells:
            entry = {"u": format_rational(c.u), "u_float": float(c.u),
                     "v": format_rational(c.v), "v_float": float(c.v)}
            if with_a:
                entry["a"] = format_rational(c.a)
                entry["a_float"] = float(c.a)
            entry.update({"cert_class": c.cert_class,
                          "numeric_positive": c.numeric_positive,
                          "numeric_stable": c.numeric_stable,
                          "agree": c.agree,
                          "near_boundary": c.near_boundary})
            cells.append(entry)
        doc = {
            "schema_version": 1,
            "kind": grid.kind,
            "resolution": grid.spec.resolution,
            "u_range": [format_rational(t) for t in grid.spec.u_range],
            "v_range": [format_rational(t) for t in grid.spec.v_range],
            "a_value": (format_rational(grid.spec.a_value)
                        if grid.spec.a_value is not None else None),
            "boundary_epsilon": format_rational(grid.spec.boundary_epsilon),
            "cells": cells,
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        raise ValueError(f"unknown emission format: {fmt}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
