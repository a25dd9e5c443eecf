"""equilibrium_report JSON pinned byte for byte over fixed exact points and kbench's pool.

The digest was recorded with the resultant-based y image and the symbolic
stability binding.  Every field of a report is either certified or derived
from the exact isolating window (x_interval, and the correctly rounded
doubles x_approx and y_approx), so a change in how the y image or the
stability polynomials are computed must leave these bytes untouched.
"""

import hashlib
import json
from fractions import Fraction as F

from kopelcas.model import ModelParams, equilibrium_report
from test_mirrored_cubic import POOL


def _points():
    pts = []
    # a != b over a spread of intensities, one, two and three fixed points
    speeds = [(F(1, 4), F(3, 4)), (F(1, 20), F(1)), (F(7, 10), F(1, 3)), (F(1), F(1, 2))]
    for i, u in enumerate((F(1, 20), F(3, 5), F(7, 4), F(5, 2), F(3), F(19, 5),
                           F(9, 2), F(6), F(10))):
        for j, v in enumerate((F(1, 10), F(1), F(2), F(5, 2), F(13, 4), F(41, 10),
                               F(29, 5), F(8))):
            a, b = speeds[(i + j) % len(speeds)]
            pts.append((u, v, a, b))
    # u v = 1: a cubic root merges with the origin
    pts += [(F(2), F(1, 2), F(1), F(1)), (F(1, 3), F(3), F(1, 2), F(1, 5)),
            (F(4), F(1, 4), F(3, 4), F(1, 4)), (F(1), F(1), F(1, 2), F(1, 2))]
    # the triple point (3, 3) at several speeds
    pts += [(F(3), F(3), a, b) for a, b in ((F(1), F(1)), (F(1, 2), F(1, 2)),
                                            (F(1, 3), F(2, 3)))]
    # rational roots: x = 1/2 is a root when u v = 8 / (4 - v)
    pts += [(F(2), F(2), F(1), F(1)), (F(2), F(2), F(1, 4), F(3, 4)),
            (F(8, 3), F(1), F(1, 2), F(1)), (F(16, 5), F(3, 2), F(3, 5), F(2, 5))]
    # negative y: fixed points with x < 0 (no fixed point has x >= 1)
    pts += [(F(1, 5), F(9), F(1), F(1, 2)), (F(1, 10), F(6), F(1, 3), F(1)),
            (F(1, 2), F(7), F(9, 10), F(1, 10)), (F(1, 4), F(5), F(1), F(1))]
    # a = b != 1 and the homogeneous slices
    pts += [(F(13, 4), F(13, 4), s, s) for s in (F(1, 4), F(1, 2), F(3, 4), F(1))]
    pts += [(F(4), F(4), s, s) for s in (F(1, 4), F(1, 2), F(3, 4), F(1))]
    # wide denominators
    pts += [(F(101, 37), F(211, 53), F(17, 19), F(5, 23)),
            (F(997, 100), F(3, 997), F(1, 7), F(6, 7)),
            (F(355, 113), F(22, 7), F(2, 3), F(3, 4)),
            (F(1001, 200), F(999, 250), F(1, 1000), F(999, 1000))]
    return pts


POINTS = _points()
DIGEST = "fd55f3d295f1ebdfbff34f955f5fc37d8d6a9ba2929d34487c239a4bfffad1d1"
# kbench's 6000-point report pool, each report's JSON hashed in pool order
POOL_DIGEST = "c5c0305de53d7f1a8e6b460f557f1ae9d575dd1c57c74efdaba7eaf223e0e20b"


def test_point_count():
    assert 90 <= len(POINTS) <= 110


def test_equilibrium_report_digest():
    h = hashlib.sha256()
    for u, v, a, b in POINTS:
        report = equilibrium_report(ModelParams(u, v, a, b))
        h.update(json.dumps(report, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST


def test_pool_report_digest():
    h = hashlib.sha256()
    for point in POOL:
        h.update(json.dumps(equilibrium_report(ModelParams(*point)), sort_keys=True).encode())
    assert h.hexdigest() == POOL_DIGEST
