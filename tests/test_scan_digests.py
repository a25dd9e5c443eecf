"""Scan emissions pinned byte for byte.

The digests were recorded with the Fraction-based root kernel.  Every
column of a scan row is certified (or derived from the exact grid point),
so a change of isolation strategy must leave these bytes untouched.
"""

import hashlib
from fractions import Fraction as F

import pytest

from kopelcas.scanner import (
    ScanSpec, emit_grid, scan_equilibrium_count, scan_stability_best_response,
    scan_stability_homogeneous,
)

FIG1 = (F(1, 20), F(10))
FIG2 = (F(5, 2), F(5))

CASES = {
    # Figure 1 square, off-lattice grid: generic cubic coefficients
    "count": (scan_equilibrium_count, ScanSpec(FIG1, FIG1, 16), "csv",
              "5aa89eea494cbc71e994a755e29cdbd0ed4063c5a023675ba5fffc95b58a536b"),
    # step 1/2 from 1/2: u v = 1 cells and the triple point (3, 3) are on the grid
    "count-zero-sets": (scan_equilibrium_count, ScanSpec((F(1, 2), F(4)), (F(1, 2), F(4)), 8),
                        "csv",
                        "ace349ea3c41cc4bcc58249c9326d49094d62eb692d9f9b3450838d9c862f76f"),
    "stable": (scan_stability_best_response, ScanSpec(FIG2, FIG2, 16), "csv",
               "e52cc68f436731bc0a03439612bf4b45ba977286b4adb4f2700eb0bb13df0d82"),
    "homogeneous": (scan_stability_homogeneous, ScanSpec(FIG2, FIG2, 16, a_value=F(1, 2)),
                    "csv",
                    "c603d0c78186f1ba6b0b54b7ef4ee1483e03fbd1af7c5cc499d536723acce31e"),
    # the other speed slices: a scan binds its speeds once, for every row
    "homogeneous-1/4": (scan_stability_homogeneous,
                        ScanSpec(FIG2, FIG2, 16, a_value=F(1, 4)), "csv",
                        "69c9c34d5522c5449826bf68f56cd9bb9910660d4b40f0e0f81657f25f35fe9e"),
    "homogeneous-3/4": (scan_stability_homogeneous,
                        ScanSpec(FIG2, FIG2, 16, a_value=F(3, 4)), "csv",
                        "1ccef3bd2ebb74bcbd81222a1f157b82be492c6c48bff5a1632d9e3ea7ed33e3"),
    "stable-json": (scan_stability_best_response, ScanSpec(FIG2, FIG2, 6), "json",
                    "94944850d91182f1f0c1404c07fa5091c772cd6d45e9818f6a290029f7aeebd1"),
    # the a and a_float columns in JSON
    "homogeneous-json": (scan_stability_homogeneous,
                         ScanSpec(FIG2, FIG2, 6, a_value=F(1, 2)), "json",
                         "fb870257c80baccd970fc609656376c7d00e86e45029ba09d37fd215b60a290e"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_emission_digest(name):
    scan, spec, fmt, expected = CASES[name]
    text = emit_grid(scan(spec), fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == expected
