"""realroots._rational_value ends within the pass count its docstring proves.

Its narrowing loop is capped at bit_length((b - a) |lead|) - k + 1 passes,
one more than the steps a window that at least halves each pass can take.
A copy of the function whose range() records each cap and the passes it
started shows that no call over kbench's 6000 report points leaves the loop
by its end.  A copy with a planted slip, one halving's << 1 read as << 2 so
that the window widens, raises RuntimeError on the root (17 - sqrt 17) / 26
of 169 x**2 - 221 x + 68, a factor of the cubic at u = v = 13/4.  Before the
cap, that slip kept the loop running on this root without end.
"""

import ast
import inspect
import textwrap

import pytest

from kopelcas import cli, realroots
from kopelcas.exactpoly import X
from kopelcas.model import ModelParams, equilibrium_report
from kopelcas.realroots import isolate_real_roots
from test_mirrored_cubic import POOL


def copy_of_rational_value(monkeypatch, names=None, slip=None):
    """A compiled copy of _rational_value in realroots' namespace, put in its place.

    names rebinds globals of the copy only; slip(tree) edits its syntax
    tree before it is compiled.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(realroots._rational_value)))
    if slip is not None:
        slip(tree)
    namespace = dict(vars(realroots), **(names or {}))
    exec(compile(tree, "<copy of _rational_value>", "exec"), namespace)
    monkeypatch.setattr(realroots, "_rational_value", namespace["_rational_value"])
    return namespace["_rational_value"]


class CountedRange:
    """range(n) that records n and how many of its passes were started."""

    def __init__(self, n, log):
        self.n, self.started = n, 0
        log.append(self)

    def __iter__(self):
        for i in range(self.n):
            self.started = i + 1
            yield i


def test_the_report_pool_never_needs_the_cap(monkeypatch):
    log = []
    copy_of_rational_value(monkeypatch, {"range": lambda n: CountedRange(n, log)})
    for point in POOL:
        equilibrium_report(ModelParams(*point))
    assert len(log) > 1000
    # a run that left by the loop's end would have raised RuntimeError; each
    # one broke out or returned at or before its last allowed pass
    assert all(1 <= r.started <= r.n for r in log)
    assert any(r.started > 1 for r in log)


def widen_one_halving(tree):
    """Plant the slip: the halving step's (m, b << 1, j) reads (m, b << 2, j)."""
    halving = [e for node in ast.walk(tree) if isinstance(node, ast.Tuple) for e in node.elts
               if isinstance(e, ast.BinOp) and isinstance(e.op, ast.LShift)
               and isinstance(e.right, ast.Constant) and e.right.value == 1]
    assert [ast.unparse(e) for e in halving] == ["b << 1", "a << 1"]
    halving[0].right.value = 2


def test_a_slip_that_widens_the_window_raises_instead_of_hanging(monkeypatch, capsys):
    conjugates = 169 * X**2 - 221 * X + 68
    assert not any(r.is_rational for r in isolate_real_roots(conjugates))
    copy_of_rational_value(monkeypatch, slip=widen_one_halving)
    with pytest.raises(RuntimeError, match="rational root test failed to converge"):
        isolate_real_roots(conjugates)
    # an internal failure, not a disagreement: the command line exits 3
    assert cli.main(["equilibria", "--u", "13/4", "--v", "13/4"]) == 3
    assert "rational root test failed to converge" in capsys.readouterr().err
