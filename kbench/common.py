"""Inputs, answer key and digests shared by the benchmark scripts.

Every input comes from a seed.  Scan windows sit on fixed rational lattices
and a seed shifts each window by whole lattice steps; point batches are
seeded draws from a fixed pool.  The answer key in golden/ holds the
certified result of every cell and pool point a seed can reach, so any seed
is checked against answers fixed once by make_golden.py.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden" / "answers.json.gz"

# one caller, no threads: numpy's BLAS must not spread onto the second core
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

SHIFTS = 10      # a seed moves each window by 0..9 lattice steps per axis
TILE_SIDE = 10   # a tile is a 10 x 10 strided sub-grid spanning its window

WORKLOADS = ("scan-count", "scan-stable", "point-reports", "identities")

# the point pool: u, v on the 1/20 lattice up to 10, distinct speeds a != b
POOL_SIZE = 6000
POOL_SEED = 20230129


def import_package():
    """Import kopelcas from this checkout's src/, pinned to one BLAS thread."""
    if not (SRC / "kopelcas" / "__init__.py").is_file():
        raise SystemExit(f"kbench: no kopelcas package under {SRC}")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import kopelcas
    return kopelcas


@dataclass(frozen=True)
class Lattice:
    """A window of size x size points lo + i * step, on both axes."""

    name: str
    kind: str                  # scanner kind: count, stable or homogeneous
    lo: Fraction
    step: Fraction
    size: int
    a: Fraction | None = None  # shared speed of a homogeneous slice

    @property
    def stride(self) -> int:
        return self.size // TILE_SIDE

    @property
    def extent(self) -> int:
        """Lattice points per axis that some seed's window reaches."""
        return self.size + SHIFTS - 1

    def point(self, i: int) -> Fraction:
        return self.lo + i * self.step


LATTICES = {lat.name: lat for lat in (
    # Figure 1 square 1/20..10 at the 200x200 gate resolution
    Lattice("count", "count", Fraction(1, 20), Fraction(1, 20), 200),
    # Figure 2 square 5/2..5: stable scan at 200, speed slices at 100
    Lattice("stable", "stable", Fraction(5, 2), Fraction(5, 398), 200),
    Lattice("homogeneous-1/4", "homogeneous", Fraction(5, 2), Fraction(5, 198), 100,
            Fraction(1, 4)),
    Lattice("homogeneous-1/2", "homogeneous", Fraction(5, 2), Fraction(5, 198), 100,
            Fraction(1, 2)),
    Lattice("homogeneous-3/4", "homogeneous", Fraction(5, 2), Fraction(5, 198), 100,
            Fraction(3, 4)),
)}

SCAN_LATTICES = {
    "scan-count": ("count",),
    "scan-stable": ("stable", "homogeneous-1/4", "homogeneous-1/2", "homogeneous-3/4"),
}


@dataclass(frozen=True)
class Tile:
    """Cells (i0 + stride * k, j0 + stride * l) of a lattice, k, l < TILE_SIDE."""

    lattice: Lattice
    i0: int
    j0: int

    def indices(self):
        s = self.lattice.stride
        return [(self.i0 + s * k, self.j0 + s * l)
                for k in range(TILE_SIDE) for l in range(TILE_SIDE)]

    def ranges(self):
        lat = self.lattice
        span = lat.stride * (TILE_SIDE - 1)
        return ((lat.point(self.i0), lat.point(self.i0 + span)),
                (lat.point(self.j0), lat.point(self.j0 + span)))


def scan_tiles(workload: str, seed: int, answers: "Answers") -> list:
    """The seed's tiles in scan order.

    The tile holding the most cells on an exact zero set (u v = 1, the
    triple point) comes first, so every run meets them; the rest follow in
    seeded order.  Only one leads: zero-set cells cost more than most, and a
    list that began with every such tile would hold a share of them that
    varied from seed to seed.  Several lattices interleave round-robin.
    """
    rng = random.Random(f"{workload}:{seed}")
    groups = []
    for name in SCAN_LATTICES[workload]:
        lat = LATTICES[name]
        su, sv = rng.randrange(SHIFTS), rng.randrange(SHIFTS)
        tiles = [Tile(lat, su + ou, sv + ov)
                 for ou in range(lat.stride) for ov in range(lat.stride)]
        rng.shuffle(tiles)
        zero = answers.zero_cells[name]
        lead = max(tiles, key=lambda t: len(zero.intersection(t.indices())))
        tiles.remove(lead)
        groups.append([lead] + tiles)
    return [t for rnd in zip(*groups) for t in rnd]


def pool_points() -> list:
    """The fixed pool of exact (u, v, a, b), a != b, as Fractions."""
    rng = random.Random(POOL_SEED)
    out = []
    for _ in range(POOL_SIZE):
        a, b = rng.sample(range(1, 21), 2)
        out.append((Fraction(rng.randint(1, 200), 20), Fraction(rng.randint(1, 200), 20),
                    Fraction(a, 20), Fraction(b, 20)))
    return out


def point_order(seed: int, answers: "Answers") -> list:
    """Seeded order of pool indices, stratified by certified answer.

    Points with the same certified answer (same fixed-point structure and
    verdicts) form a stratum.  Each point gets a seeded key spreading its
    stratum evenly over [0, 1), so every prefix of the order holds each
    stratum in proportion: a short run is a representative batch.
    """
    rng = random.Random(f"point-reports:{seed}")
    strata = {}
    for k, d in enumerate(answers.points):
        strata.setdefault(d, []).append(k)
    keyed = []
    for members in strata.values():
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((rank + offset) / len(members), k) for rank, k in enumerate(members)]
    return [k for _, k in sorted(keyed)]


# -- certified answers and their digests -----------------------------------

SCAN_COLUMNS = ("u", "v", "cert_class", "numeric_positive", "numeric_stable")


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def certified_scan_rows(csv_text: str) -> list:
    """The certified columns of an emitted scan CSV, one joined row per cell.

    Columns are found by header name, so added columns change nothing here.
    """
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    picks = [header.index(c) for c in SCAN_COLUMNS]
    return [",".join(fields[k] for k in picks)
            for fields in (line.split(",") for line in lines[1:])]


def certified_report(report: dict) -> list:
    """The certified fields of an equilibrium_report, one line per fixed point.

    x_interval and the float approximations are left out: a different
    isolation kernel may legitimately change them.
    """
    return [f"{e['multiplicity']}:{int(e['positive'])}:{int(e['in_unit_square'])}:"
            f"{','.join(str(s) for s in e['cd_signs'])}:{e['verdict']}"
            for e in report["equilibria"]]


def _cell_code(cls: int, positive: int, stable: int) -> str:
    return chr(33 + (cls * 4 + positive) * 4 + stable)


def _cell_decode(ch: str):
    code = ord(ch) - 33
    return code // 16, (code // 4) % 4, code % 4


class Answers:
    """The answer key: certified scan cells per lattice, digests per pool point."""

    def __init__(self, doc: dict):
        self.classes = {}
        self.cells = {}
        self.zero_cells = {}
        for name, lat in LATTICES.items():
            entry = doc["lattices"][name]
            if (entry["lo"], entry["step"], entry["extent"]) != (
                    str(lat.lo), str(lat.step), lat.extent):
                raise ValueError(f"answer key for {name} was made for another lattice")
            self.classes[name] = entry["classes"]
            self.cells[name] = entry["cells"]
            self.zero_cells[name] = {tuple(ij) for ij in entry["zero"]}
        self.points = doc["points"]
        if len(self.points) != POOL_SIZE:
            raise ValueError("answer key holds a different point pool")

    @classmethod
    def load(cls, path=GOLDEN_PATH) -> "Answers":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def scan_rows(self, tile: Tile) -> list:
        """Expected certified rows of a tile, in the scanner's cell order."""
        lat = tile.lattice
        cells = self.cells[lat.name]
        classes = self.classes[lat.name]
        rows = []
        for i, j in tile.indices():
            cls, positive, stable = _cell_decode(cells[i * lat.extent + j])
            rows.append(f"{lat.point(i)},{lat.point(j)},{classes[cls]},{positive},{stable}")
        return rows


def encode_lattice(lat: Lattice, grid, zero: list) -> dict:
    """Answer-key entry for a full-extent scan of one lattice."""
    classes = sorted({c.cert_class for c in grid.cells})
    cells = "".join(_cell_code(classes.index(c.cert_class), c.numeric_positive,
                               c.numeric_stable) for c in grid.cells)
    return {"lo": str(lat.lo), "step": str(lat.step), "extent": lat.extent,
            "classes": classes, "cells": cells, "zero": zero}
