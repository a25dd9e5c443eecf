#!/usr/bin/env python3
"""Rebuild the benchmark's answer key, golden/answers.json.gz.

    python3 kbench/make_golden.py

Scans every lattice over the full extent any seed can reach and reports
every pool point, with the package in this checkout.  Run it only when the
inputs change (lattices, pool, shifts); a kernel change must reproduce the
key, never regenerate it.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import gzip
import json
import multiprocessing

import common

# certificate polynomials whose zero set bounds each scan kind's classes
ZERO_SET_CERTIFICATES = {
    "count": ("count_discriminant", "positivity_threshold"),
    "stable": ("count_discriminant", "positivity_threshold", "modulus_full_speed",
               "stable_cut_linear", "stable_cut_quadratic"),
    "homogeneous": ("count_discriminant", "positivity_threshold", "modulus_homogeneous"),
}


def lattice_entry(name: str) -> dict:
    kc = common.import_package()
    lat = common.LATTICES[name]
    hi = lat.point(lat.extent - 1)
    spec = kc.ScanSpec((lat.lo, hi), (lat.lo, hi), lat.extent, a_value=lat.a)
    scan = {"count": kc.scan_equilibrium_count, "stable": kc.scan_stability_best_response,
            "homogeneous": kc.scan_stability_homogeneous}[lat.kind]
    grid = scan(spec)
    if grid.disagreements():
        raise SystemExit(f"{name}: the scan disagrees with itself; no key written")
    certs = kc.build_certificates()
    polys = [certs[c].poly for c in ZERO_SET_CERTIFICATES[lat.kind]]
    zero = []
    for i in range(lat.extent):
        for j in range(lat.extent):
            binding = {"u": lat.point(i), "v": lat.point(j)}
            if lat.a is not None:
                binding["a"] = lat.a
            if any(p.evaluate(binding).is_zero() for p in polys):
                zero.append([i, j])
    print(f"{name}: {len(grid.cells)} cells, {len(zero)} on exact zero sets", flush=True)
    return common.encode_lattice(lat, grid, zero)


def point_digests(part: int, parts: int) -> list:
    kc = common.import_package()
    out = []
    for u, v, a, b in common.pool_points()[part::parts]:
        report = kc.equilibrium_report(kc.ModelParams(u, v, a, b))
        out.append(common.digest(common.certified_report(report)))
    return out


def main() -> None:
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        lattice_jobs = {name: pool.apply_async(lattice_entry, (name,))
                        for name in common.LATTICES}
        point_jobs = [pool.apply_async(point_digests, (k, 2)) for k in range(2)]
        lattices = {name: job.get() for name, job in lattice_jobs.items()}
        halves = [job.get() for job in point_jobs]
    points = [None] * common.POOL_SIZE
    points[0::2], points[1::2] = halves
    doc = {"lattices": lattices, "points": points}
    common.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical across rebuilds of the same key
    with open(common.GOLDEN_PATH, "wb") as raw, \
            gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode())
    print(f"wrote {common.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
