"""The symmetric diagonal u = v = t in closed form, against the gate scans.

On u = v = t the symmetric fixed point is x = y = 1 - 1/t, with
Phi = (t - 1)(3 - t), and for t > 3 the swapped pair shares
Phi = (t - 3)(t + 1) (Kopel, CSF 7, 1996; Bischi, Mammana & Gardini,
CSF 11, 2000).  A fixed point is stable at b = a iff 0 < Phi < s, s = 2/a,
so the counts of a diagonal cell are
  (0, 0) for t <= 1, where no fixed point is positive;
  (1, 1) for 1 < t < 3, the symmetric one alone, with 0 < Phi <= 1 < s;
  (1, 0) at the triple point t = 3, marginal;
  (3, 2) for t > 3 while (t - 1)**2 < 4 + s, that is Phi < s for the pair,
  and (3, 0) past it, the symmetric one having Phi < 0.
Two MPoly identities pin where that comes from: D(t, t) = (t - 3)**3 (t + 1)
for the discriminant factor D, and R(t, t, s) =
(s + (t - 1)(t - 3)) (s - (t - 3)(t + 1))**2 for R, whose roots in s are the
Phi of the three fixed points.  The gate scans' digests compare the scan
with itself; this compares their diagonal cells with the closed form, in
integer comparisons alone.
"""

import pytest

from kopelcas.certificates import COUNT_DISCRIMINANT, _r_at
from kopelcas.exactpoly import U, X
from test_scan_digests import _emission


def test_the_discriminant_on_the_diagonal():
    assert COUNT_DISCRIMINANT.substitute("v", U) == (U - 3) ** 3 * (U + 1)


def test_r_on_the_diagonal_has_the_pair_as_a_double_root():
    # R(u, v, s) with s written as x
    r = _r_at(X, 1)
    assert r.substitute("v", U) == (X + (U - 1) * (U - 3)) * (X - (U - 3) * (U + 1)) ** 2


def _ratio(text: str) -> tuple:
    """(p, q) of a rational printed as "p/q" or "p", q > 0."""
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def _expected(t: tuple, a: tuple) -> tuple:
    """(positive, stable) on the diagonal at t = p/q and b = a = al/be, s = 2 be/al."""
    (p, q), (al, be) = t, a
    if p <= q:
        return 0, 0
    if p < 3 * q:
        return 1, 1
    if p == 3 * q:
        return 1, 0
    # (t - 1)**2 < 4 + s, times al q**2
    return (3, 2) if al * (p - q) ** 2 < (4 * al + 2 * be) * q * q else (3, 0)


@pytest.mark.parametrize("name, cells", [
    ("gate-count-200", 200),
    ("gate-stable-200", 200),
    ("gate-homogeneous-1/4-100", 100),
    ("gate-homogeneous-1/2-100", 100),
    ("gate-homogeneous-3/4-100", 100),
])
def test_the_gate_scans_count_the_diagonal_in_closed_form(name, cells):
    header, *rows = (line.split(",") for line in _emission(name).splitlines())
    column = {field: i for i, field in enumerate(header)}
    diagonal = [r for r in rows if r[column["u"]] == r[column["v"]]]
    assert len(diagonal) == cells
    seen = set()
    for r in diagonal:
        t = _ratio(r[column["u"]])
        a = _ratio(r[column["a"]]) if "a" in column else (1, 1)
        got = int(r[column["numeric_positive"]]), int(r[column["numeric_stable"]])
        assert got == _expected(t, a), (name, r[column["u"]])
        seen.add(got)
    # the count square crosses t = 1 and t = 3; the Figure 2 square starts at 5/2
    assert seen >= {(1, 1), (3, 2), (3, 0)}
