"""The README's Python API example runs and prints what it did when written."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

EXPECTED = """\
0.0 0.0 1 unstable
0.4952651682454746 0.8124271394468331 1 stable
0.6923076923076923 0.6923076923076923 1 unstable
0.8124271394468331 0.4952651682454746 1 stable
EquilibriumCountClass.THREE_POSITIVE
StableCountClass.THEOREM_SILENT
0 u,u_float,v,v_float,a,a_float,cert_class,numeric_positive,numeric_stable,agree,near_boundary
"""


def _api_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_python_api_example_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_api_block(), str(README), "exec"), {})
    assert out.getvalue() == EXPECTED
