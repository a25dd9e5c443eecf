#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size, in under a minute.

    python3 kbench/smoke_test.py
    python3 -m pytest -q kbench/smoke_test.py

Checks the metric names and units against BENCHMARK.json, that every
workload passes its answer checks, and that a planted wrong answer and a
planted raised error each show up as failed operations without stopping
the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common
import run
from common import Answers

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY = 1.0  # seconds of timed calls: a few operations in each pass


def _result(tally, metrics, units) -> dict:
    doc = json.loads(run.result_line(tally, metrics, units))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == set(units)
    for name, entry in doc["metrics"].items():
        assert entry == {"value": metrics[name], "unit": units[name]}
    return doc


def test_metric_names_and_units():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_every_workload_passes_at_tiny_size():
    answers = Answers.load()
    for workload in common.WORKLOADS:
        doc = _result(*run.end_to_end(workload, 3, TINY, answers)[:3])
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2, workload
        assert all(entry["value"] > 0 for entry in doc["metrics"].values()), workload
        tally, metrics = run.traced(workload, 3, 0.05, answers)
        doc = _result(tally, metrics, run.PER_LAYER)
        assert doc["correct"] and doc["attempted"] >= 1, workload


def test_planted_wrong_answers_are_counted():
    answers = Answers.load()
    first_tile = common.scan_tiles("scan-count", 5, answers)[0]
    i, j = first_tile.indices()[0]
    k = i * first_tile.lattice.extent + j
    cells = answers.cells["count"]
    cls, positive, stable = common._cell_decode(cells[k])
    wrong = common._cell_code(cls, positive, stable ^ 1)
    answers.cells["count"] = cells[:k] + wrong + cells[k + 1:]
    # every point sharing the first point's answer gets the same wrong digest,
    # which keeps the stratified point order as it was
    first = answers.points[common.point_order(5, answers)[0]]
    answers.points = ["0" * 16 if d == first else d for d in answers.points]
    for workload in ("scan-count", "point-reports"):
        tally, metrics, units, _ = run.end_to_end(workload, 5, TINY, answers)
        doc = _result(tally, metrics, units)
        assert not doc["correct"] and 0 < doc["failed"] < doc["attempted"], workload


def test_planted_errors_are_counted():
    answers = Answers.load()
    for name, workload in (("scan_equilibrium_count", "scan-count"),
                           ("equilibrium_report", "point-reports"),
                           ("verify_identity", "identities")):
        real = getattr(run.kc, name)
        calls = []

        def fails_once(*args, real=real, calls=calls):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("planted failure")
            return real(*args)

        setattr(run.kc, name, fails_once)
        try:
            tally, metrics, units, _ = run.end_to_end(workload, 7, TINY, answers)
        finally:
            setattr(run.kc, name, real)
        doc = _result(tally, metrics, units)
        ops = common.TILE_SIDE ** 2 if workload == "scan-count" else 1
        assert not doc["correct"] and doc["failed"] == ops, workload
        assert doc["attempted"] > doc["failed"], workload


def test_command_line_contract():
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", "identities",
           "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["correct"] and set(doc["metrics"]) == set(run.END_TO_END)
    # without the package source next to it, the benchmark fails and prints no
    # result; the bare copy sits inside the checkout, which is all a run may touch
    with tempfile.TemporaryDirectory(dir=common.ROOT, prefix=".kbench-bare-") as bare:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, Path(bare) / common.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd[1] = str(Path(bare) / common.BENCH_DIR.name / "run.py")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=bare)
        assert out.returncode != 0 and not out.stdout.strip()


if __name__ == "__main__":
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print(f"{test.__name__}: ok")
