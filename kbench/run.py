#!/usr/bin/env python3
"""The kopelcas benchmark: one workload per process, closed loop, one caller.

    python3 kbench/run.py --workload scan-count --seed 1 --seconds 20 --trace 0

Workloads (kbench/README.md says why each was chosen):
  scan-count     count dual-route scan tiles of the Figure 1 square, plus CSV
  scan-stable    stable scan and speed slices a = 1/4, 1/2, 3/4, Figure 2 square
  point-reports  equilibrium_report on exact (u, v, a, b) with a != b
  identities     verify_identity over the eleven identity names

With --trace 0 a seeded list of operations is called in a few passes that
take about --seconds, and the end-to-end metrics are reported, each time
rescaled to a fixed host speed by a reference loop (with_reference).  With --trace 1 a fixed,
seeded amount of work is run once untraced and once replayed layer by layer
(replay.py), and the per-layer metrics are reported.  Every answer is
checked against the answer key in golden/; a failing operation is counted,
never raised.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import common
from common import Answers, TILE_SIDE

kc = common.import_package()
import replay  # noqa: E402

SCANS = {"count": "scan_equilibrium_count", "stable": "scan_stability_best_response",
         "homogeneous": "scan_stability_homogeneous"}

# positive fixed points per count class off the discriminant variety
POSITIVE_BY_CLASS = {"ThreePositive": 3, "OnePositive": 1, "NoneOrDegenerate": 0}

# fixed work of a traced run, per second of --seconds (tiles on scans,
# points, rounds of identities), sized so that a traced run takes about as
# long as an untraced one
TRACE_WORK = {"scan-count": 1.7, "scan-stable": 1.8, "point-reports": 30, "identities": 18}

# passes over one list of operations in an end-to-end run: few on the scans,
# where tiles differ more from one another than a tile's calls do, so a run
# is better spent on more tiles
PASSES = {"scan-count": 3, "scan-stable": 3, "point-reports": 11, "identities": 9}
# on a slow host, passes stop once they have taken this many times --seconds
# inside calls, so that a run's length stays bounded
WALL_CAP = 1.25
# fresh-interpreter imports behind setup_s, spread evenly over the run
SETUP_REPEATS = 9
# typical milliseconds per call, reference loops included, on the shared
# 2-core host the benchmark was tuned on; they fix how many operations a
# run's list holds, not what is measured
CALL_MS = {"scan-count": 280, "scan-stable": 280, "point-reports": 15, "identities": 4.5}
# the reference loop's usual time on that host; every end-to-end time is
# rescaled to the host speed at which the loop takes this long
REFERENCE_S = 140e-6
# reference loops timed right before and right after each timed call
REFERENCE_REPEATS = 3

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

SCAN_SPANS = ("certificates.classify", "realroots.isolate", "model.flags",
              "realroots.sign")  # with emit and unaccounted: one cell's time
PER_LAYER = {
    **{f"{name}_us": "us" for name in (
        "certificates.classify", "realroots.square_free", "realroots.isolate",
        "realroots.sign", "model.flags", "realroots.approx", "realroots.image",
        "model.jury", "model.unit_square", "exactpoly.bind")},
    **{f"certificates.identity_ms.{name}": "ms"
       for name in kc.certificates.IDENTITY_NAMES},
    "scanner.emit_us_per_cell": "us",
    "scanner.unaccounted_us": "us",
    **{name: "count" for name in (
        "realroots.roots", "realroots.rational_roots", "realroots.sign_queries",
        "realroots.sign_zero", "realroots.bisect_steps", "model.positive",
        "model.verdict.stable", "model.verdict.unstable", "model.verdict.marginal",
        "scanner.cells", "scanner.near_boundary", "scanner.disagreements")},
    "trace.overhead_frac": "frac",
}

# hand-measured per-cell costs on a 60x60 stable grid, from ROADMAP.md
ROADMAP_60X60_US = (
    ("classify", "certificates.classify_us", 102),
    ("boundary check", None, 117),
    ("isolation", "realroots.isolate_us", 404),
    ("  of which Yun square-free", "realroots.square_free_us", 167),
    ("flags", "model.flags_us", 489),
    ("stability signs", "realroots.sign_us", 1113),
)


class Tally:
    """Operations attempted and failed; a failing operation never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = 0

    def call(self, ops, call, check):
        """One public call of `ops` operations; check() returns failed ops.

        Returns (result or None, seconds inside the call, failed ops).
        """
        self.attempted += ops
        start = perf_counter()
        try:
            result = call()
        except Exception:  # counted as failed operations, the loop goes on
            self.note_error()
            result = None
        elapsed = perf_counter() - start
        failed = ops
        if result is not None:
            try:
                failed = check(result)
            except Exception:  # malformed output fails the whole call
                self.note_error()
        self.failed += failed
        return result, elapsed, failed

    def note_error(self):
        """Count an exception from the package; print the first traceback."""
        self.errors += 1
        if self.errors == 1:
            traceback.print_exc(file=sys.stderr)


# -- operations and their checks ---------------------------------------------

def scan_call(tile):
    """Scan one tile and emit its CSV: (grid, csv text, emit seconds)."""
    u_range, v_range = tile.ranges()
    spec = kc.ScanSpec(u_range, v_range, TILE_SIDE, a_value=tile.lattice.a)
    grid = getattr(kc, SCANS[tile.lattice.kind])(spec)
    start = perf_counter()
    text = kc.emit_grid(grid)
    return grid, text, perf_counter() - start


def bad_cells(tile, answers, result) -> set:
    """Cells that disagree, or whose certified columns are off the answer key."""
    grid, text, _ = result
    bad = {k for k, cell in enumerate(grid.cells) if not cell.agree}
    rows = common.certified_scan_rows(text)
    expected = answers.scan_rows(tile)
    if common.digest(rows) != common.digest(expected):
        bad |= {k for k in range(len(expected)) if k >= len(rows) or rows[k] != expected[k]}
    return bad


def check_report(expected_digest, params, report) -> int:
    """1 if the certified fields or the positive count are wrong, else 0."""
    if common.digest(common.certified_report(report)) != expected_digest:
        return 1
    u, v = params.u, params.v
    if u * u * v * v - 4 * u * u * v - 4 * u * v * v + 18 * u * v - 27 == 0:
        return 0  # on the discriminant variety the class is a boundary label
    positives = sum(e["positive"] for e in report["equilibria"])
    return int(positives != POSITIVE_BY_CLASS[kc.classify_equilibrium_count(u, v).value])


def operations(workload, seed, answers):
    """The seed's endless stream of (ops, call, check, input) for a workload."""
    if workload in common.SCAN_LATTICES:
        for tile in itertools.cycle(common.scan_tiles(workload, seed, answers)):
            yield (TILE_SIDE * TILE_SIDE, lambda t=tile: scan_call(t),
                   lambda r, t=tile: len(bad_cells(t, answers, r)), tile)
    elif workload == "point-reports":
        pool = common.pool_points()
        for k in itertools.cycle(common.point_order(seed, answers)):
            params = kc.ModelParams(*pool[k])
            yield (1, lambda p=params: kc.equilibrium_report(p),
                   lambda r, p=params, d=answers.points[k]: check_report(d, p, r), params)
    else:
        rng = random.Random(f"identities:{seed}")
        names = list(kc.certificates.IDENTITY_NAMES)
        while True:
            rng.shuffle(names)
            for name in names:
                yield (1, lambda n=name: kc.verify_identity(n),
                       lambda r, n=name: int(not (r.passed and r.name == n)), name)


# -- end-to-end run ------------------------------------------------------------

def reference_loop() -> int:
    """Fixed pure-Python work outside the package: big-int steps and a dict."""
    x, seen = 12345678901234567, {}
    for i in range(300):
        x = (x * 6364136223846793005 + i) % 340282366920938463463374607431768211297
        seen[i & 63] = x
    return len(seen)


def reference_seconds() -> float:
    """Mean seconds of REFERENCE_REPEATS reference loops, timed now."""
    start = perf_counter()
    for _ in range(REFERENCE_REPEATS):
        reference_loop()
    return (perf_counter() - start) / REFERENCE_REPEATS


def with_reference(fn):
    """fn() and the mean reference-loop seconds right before and after it.

    Other tenants of a shared host slow the core for stretches of seconds
    to minutes, and the reference loop slows with it.  A time multiplied by
    REFERENCE_S over the reference seconds around it therefore holds still
    while the host's load moves, and moves in full with the package.
    """
    before = reference_seconds()
    result = fn()
    return result, (before + reference_seconds()) / 2


def import_seconds() -> float:
    """Seconds for a fresh interpreter to import kopelcas."""
    code = ("import time; t = time.perf_counter(); import kopelcas; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(common.SRC), **common.BLAS_ENV)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=common.ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds() -> tuple:
    """(rescaled, measured) seconds of one fresh import."""
    elapsed, around = with_reference(import_seconds)
    return elapsed * REFERENCE_S / around, elapsed


def tail(samples):
    """(value, percentile, beyond): the highest percentile with 10 samples beyond it.

    With 10 samples or fewer no such percentile exists; the maximum is used.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return ordered[n - 1 - beyond], 100 * (n - beyond) / n, beyond


def end_to_end(workload, seed, seconds, answers):
    """Closed loop: PASSES[workload] passes over one seeded list of operations.

    The list is the seed's first operations, as many as take about
    --seconds in all passes here (CALL_MS); every pass calls them in order,
    and passes stop early once they have spent WALL_CAP times --seconds
    inside calls.  The package keeps no cache and its work is deterministic,
    so calls with the same input repeat identical work; an operation's time
    is the median over all successful calls with its input.  op_tail_ms is
    taken over these times, except on the scans: a run there holds a few
    dozen tiles, too few for a tail, so it is taken over every tile call.
    A failed call is counted and its time dropped.  setup_s is the median of
    SETUP_REPEATS fresh-interpreter imports spread evenly over the run.
    Every time is rescaled by the reference loops around it (with_reference).
    """
    # a list holds whole rounds of its kinds (scan lattices, identity names),
    # so that every seed weighs the kinds alike
    rounds = {"scan-count": len(common.SCAN_LATTICES["scan-count"]),
              "scan-stable": len(common.SCAN_LATTICES["scan-stable"]),
              "point-reports": 1,
              "identities": len(kc.certificates.IDENTITY_NAMES)}[workload]
    passes = PASSES[workload]
    size = rounds * max(1, round(seconds * 1000 / (passes * CALL_MS[workload] * rounds)))
    todo = list(itertools.islice(operations(workload, seed, answers), size))
    tally = Tally()
    times, raw = {}, {}  # rescaled and measured seconds of successful calls, per input
    call_ms = []  # each successful call, rescaled, per operation
    references = []  # reference seconds around each call
    setup_every = max(1, passes * size // SETUP_REPEATS)
    setups = [setup_seconds()]
    calls, spent = 0, 0.0
    for _ in range(passes):
        if spent >= WALL_CAP * seconds:
            break
        for ops, call, check, key in todo:
            (_, elapsed, failed), around = with_reference(
                lambda: tally.call(ops, call, check))
            spent += elapsed
            references.append(around)
            if not failed:
                rescaled = elapsed * REFERENCE_S / around
                times.setdefault(key, []).append(rescaled)
                raw.setdefault(key, []).append(elapsed)
                call_ms.append(rescaled * 1000 / ops)
            calls += 1
            if calls % setup_every == 0 and len(setups) < SETUP_REPEATS:
                setups.append(setup_seconds())
    per_op, ops_per_s = _typical(todo, times)
    raw_per_op, raw_ops_per_s = _typical(todo, raw)
    scan = workload in common.SCAN_LATTICES
    tail_of = call_ms if scan else per_op
    tail_ms, tail_pct, beyond = tail(tail_of) if tail_of else (0.0, 0.0, 0)
    metrics = {
        "setup_s": statistics.median(at_reference for at_reference, _ in setups),
        "ops_per_s": ops_per_s,
        "op_p50_ms": statistics.median(per_op) if per_op else 0.0,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unit = "per cell of a 100-cell tile call" if scan else "per call"
    load = statistics.median(references) / REFERENCE_S if references else 0.0
    raw_p50 = statistics.median(raw_per_op) if raw_per_op else 0.0
    notes = {"setup_s": f"median of {len(setups)} fresh imports; as measured "
                        f"{statistics.median(t for _, t in setups):.6g} s",
             "ops_per_s": f"{len(per_op)} calls on {len(times)} distinct inputs, "
                          f"{calls // size} passes; as measured {raw_ops_per_s:.6g} 1/s",
             "op_p50_ms": f"{unit}, median of {len(per_op)} calls; as measured "
                          f"{raw_p50:.6g} ms",
             "op_tail_ms": f"{unit}, p{tail_pct:.1f} of {len(tail_of)} "
                           f"{'calls' if scan else 'operations'}, {beyond} beyond",
             "host load": f"the reference loop took {load:.4g} times its "
                          f"{REFERENCE_S * 1e6:.0f} us (median of {len(references)})"}
    return tally, metrics, END_TO_END, notes


def _typical(todo, times):
    """Per-operation milliseconds and operations per second of a list.

    Each operation takes the median of the calls with its input.
    """
    typical = {key: statistics.median(ts) for key, ts in times.items()}
    timed = [(ops, typical[key]) for ops, _, _, key in todo if key in typical]
    per_op = [t * 1000 / ops for ops, t in timed]
    total = sum(t for _, t in timed)
    return per_op, (sum(ops for ops, _ in timed) / total if total else 0.0)


# -- traced run ------------------------------------------------------------------

def traced(workload, seed, seconds, answers):
    size = max(1, round(seconds * TRACE_WORK[workload]))
    if workload in common.SCAN_LATTICES:
        return _traced_scan(workload, seed, size, answers)
    if workload == "point-reports":
        return _traced_points(seed, size, answers)
    return _traced_identities(seed, size, answers)


def _traced_scan(workload, seed, tiles, answers):
    tr = replay.Tracer()
    tally = Tally()
    stream = operations(workload, seed, answers)
    untraced = replayed = emit = 0.0
    cells = 0
    for _ in range(tiles):
        ops, call, _, tile = next(stream)
        result, elapsed, _ = tally.call(ops, call, lambda r: 0)
        if result is None:
            continue
        grid, _, emit_s = result
        untraced += elapsed
        emit += emit_s
        cells += len(grid.cells)
        tr.counts["scanner.cells"] += len(grid.cells)
        tr.counts["scanner.near_boundary"] += sum(c.near_boundary for c in grid.cells)
        tr.counts["scanner.disagreements"] += len(grid.disagreements())
        try:
            bad = bad_cells(tile, answers, result)
        except Exception:  # malformed output fails the whole tile
            tally.note_error()
            bad = set(range(ops))
        start = perf_counter()
        for k, cell in enumerate(grid.cells):
            try:
                counts = replay.replay_cell(tr, tile.lattice.kind, cell.u, cell.v, cell.a)
            except Exception:  # a failing replay fails its cell
                tally.note_error()
                counts = None
            if counts != (cell.numeric_positive, cell.numeric_stable):
                bad.add(k)
        replayed += perf_counter() - start
        tally.failed += len(bad)
    metrics = _span_metrics(tr, max(cells, 1))
    metrics["scanner.emit_us_per_cell"] = emit / max(cells, 1) * 1e6
    metrics["scanner.unaccounted_us"] = (
        untraced / max(cells, 1) * 1e6 - metrics["scanner.emit_us_per_cell"]
        - sum(metrics[f"{name}_us"] for name in SCAN_SPANS))
    metrics["trace.overhead_frac"] = replayed / untraced - 1 if untraced else 0.0
    if metrics["scanner.unaccounted_us"] < 0:
        print("kbench: warning: the replayed spans exceed the untraced time per cell; "
              "scanner.unaccounted_us is negative", file=sys.stderr)
    return tally, metrics


def _traced_points(seed, points, answers):
    tr = replay.Tracer()
    tally = Tally()
    stream = operations("point-reports", seed, answers)
    untraced = replayed = 0.0
    for _ in range(points):
        ops, call, check, params = next(stream)
        report, elapsed, _ = tally.call(ops, call, lambda r: 0)
        if report is None:
            continue
        untraced += elapsed
        start = perf_counter()
        try:
            verdicts = replay.replay_point(tr, params)
            failed = bool(check(report)
                          or verdicts != [e["verdict"] for e in report["equilibria"]])
        except Exception:  # a failing replay or check fails its point
            tally.note_error()
            failed = True
        replayed += perf_counter() - start
        tally.failed += failed
    metrics = _span_metrics(tr, points)
    metrics["trace.overhead_frac"] = replayed / untraced - 1 if untraced else 0.0
    return tally, metrics


def _traced_identities(seed, rounds, answers):
    tr = replay.Tracer()
    tally = Tally()
    stream = operations("identities", seed, answers)
    untraced = replayed = 0.0
    for _ in range(rounds * len(kc.certificates.IDENTITY_NAMES)):
        ops, call, check, name = next(stream)
        untraced += tally.call(ops, call, check)[1]
        tr.next_op()
        start = perf_counter()
        with tr.span(f"certificates.identity.{name}"):
            tally.call(ops, call, check)
        replayed += perf_counter() - start
    metrics = _span_metrics(tr, 1)
    for name in kc.certificates.IDENTITY_NAMES:
        durations = [end - start for _, span, start, end in tr.spans
                     if span == f"certificates.identity.{name}"]
        metrics[f"certificates.identity_ms.{name}"] = statistics.median(durations) * 1000
    metrics["trace.overhead_frac"] = replayed / untraced - 1
    return tally, metrics


def _span_metrics(tr, ops):
    """Every per-layer metric: span time per operation in us, and counts."""
    totals = tr.totals()
    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            metrics[name] = tr.counts[name]
        elif name.endswith("_us"):
            metrics[name] = totals[name[:-3]] / ops * 1e6
        else:
            metrics[name] = 0.0  # set by the workload's traced run where it applies
    return metrics


# -- report ------------------------------------------------------------------------

def result_line(tally, metrics, units) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def print_table(workload, tally, metrics, units, notes) -> None:
    print(f"kopelcas benchmark, workload {workload}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<58} {metrics[name]:>14.6g} {unit}{note}")
    for name, note in notes.items():
        if name not in units:
            print(f"  {name}: {note}")
    frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':<58} {frac:>14.6g} frac  "
          f"({tally.failed} of {tally.attempted} operations)")


def print_roadmap_comparison(metrics) -> None:
    print("per-cell layer costs: this traced run vs ROADMAP.md's hand-measured 60x60 baseline")
    print(f"  {'stage':<28} {'traced us':>10} {'ROADMAP us':>11}")
    for stage, name, roadmap_us in ROADMAP_60X60_US:
        traced_us = f"{metrics[name]:.0f}" if name else "n/a"
        print(f"  {stage:<28} {traced_us:>10} {roadmap_us:>11}")
    print("  the boundary check is private to the scanner: it stays in "
          "scanner.unaccounted_us until spans move inside the package")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    answers = Answers.load()
    if args.trace:
        tally, metrics = traced(args.workload, args.seed, args.seconds, answers)
        units, notes = PER_LAYER, {}
    else:
        tally, metrics, units, notes = end_to_end(args.workload, args.seed,
                                                  args.seconds, answers)
    print_table(args.workload, tally, metrics, units, notes)
    if args.trace and args.workload in common.SCAN_LATTICES:
        print_roadmap_comparison(metrics)
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
