"""kopel-cas stability JSON pinned byte for byte over fixed exact points.

The digest was recorded when the command bound the stability conditions
through its own per-report helper.  It covers every field but eig_moduli:
the signs and verdicts are certified, x_approx and y_approx are correctly
rounded doubles, and cd_values, trace and det are plain float arithmetic on
x_approx.  The eigenvalue moduli come from numpy's LAPACK eigvals, which
may round differently from one build to another.
"""

import hashlib
import json

from test_report_digests import POINTS

from kopelcas.cli import main

FIELDS = ("x_approx", "y_approx", "multiplicity", "positive", "cd_signs", "cd_values",
          "trace", "det", "verdict")
DIGEST = "e613d8093a359948f9505bdf085cf930f548ea5be408487c1ccfeb71469bb5ea"


def test_stability_command_digest(capsys):
    h = hashlib.sha256()
    for u, v, a, b in POINTS:
        assert main(["stability", "--u", str(u), "--v", str(v),
                     "--a", str(a), "--b", str(b)]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["reports"] = [{k: r[k] for k in FIELDS} for r in doc["reports"]]
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST
