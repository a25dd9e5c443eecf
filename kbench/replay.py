"""Traced replay: each operation again, through the public call of each layer.

Spans are recorded here, around calls into the package, not inside it.
A span is (operation id, name, start, end), kept in memory; every span is
a direct child of its operation, since the replay calls each layer in turn.
Counts are read from outside, e.g. bisection steps from the exact halving
of an isolating interval.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from common import import_package

kc = import_package()
from kopelcas.model import bound_cubic, bound_stability_polys  # noqa: E402
from kopelcas.realroots import square_free_decompose  # noqa: E402

CLASSIFY = {
    "count": lambda u, v, a: kc.classify_equilibrium_count(u, v),
    "stable": lambda u, v, a: kc.classify_stable_best_response(u, v),
    "homogeneous": kc.classify_stable_homogeneous,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._op = 0

    def next_op(self) -> None:
        self._op += 1

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((self._op, name, start, perf_counter()))

    def totals(self) -> Counter:
        """Seconds per span name, summed over all operations."""
        out = Counter()
        for _, name, start, end in self.spans:
            out[name] += end - start
        return out

    def sign(self, poly, root) -> int:
        """sign_at with its query, zero and bisection counts."""
        before = root.hi - root.lo
        with self.span("realroots.sign"):
            s = kc.sign_at(poly, root)
        self.counts["realroots.sign_queries"] += 1
        if s == 0:
            self.counts["realroots.sign_zero"] += 1
        after = root.hi - root.lo
        if before and after:
            # widths halve exactly, so the shrink is 2**steps; a query that
            # snapped the root to an exact rational adds no steps
            self.counts["realroots.bisect_steps"] += (before / after).numerator.bit_length() - 1
        return s

    def isolate(self, u, v) -> list:
        cubic = bound_cubic(u, v)
        with self.span("realroots.square_free"):
            square_free_decompose(cubic)
        with self.span("realroots.isolate"):
            roots = kc.isolate_real_roots(cubic)
        self.counts["realroots.roots"] += len(roots)
        self.counts["realroots.rational_roots"] += sum(r.is_rational for r in roots)
        return roots


def replay_cell(tr: Tracer, kind: str, u, v, a) -> tuple:
    """One scan cell: (positive count, stable count), as the scanner counts them.

    Stability queries stop at the first negative sign.  The scanner's
    stable count also stops at a zero; the replay asks the remaining
    conditions there, to tell an unstable fixed point from a marginal one.
    """
    tr.next_op()
    with tr.span("certificates.classify"):
        CLASSIFY[kind](u, v, a)
    params = kc.ModelParams(u, v, a, a) if a is not None else kc.ModelParams(u, v)
    roots = tr.isolate(u, v)
    with tr.span("model.flags"):
        eqs = [kc.Equilibrium(r, params) for r in roots]
    positives = [e for e in eqs if e.is_positive]
    tr.counts["model.positive"] += len(positives)
    with tr.span("exactpoly.bind"):
        p1, p2, p3 = bound_stability_polys(params)
    first_two_equal = p2 == p1
    stable = 0
    for eq in positives:
        signs = []
        for k, poly in enumerate((p1, p2, p3)):
            s = signs[0] if k == 1 and first_two_equal else tr.sign(poly, eq.x_root)
            signs.append(s)
            if s < 0:
                break
        verdict = _verdict(signs)
        tr.counts[f"model.verdict.{verdict}"] += 1
        stable += verdict == "stable"
    return len(positives), stable


def replay_point(tr: Tracer, params) -> list:
    """One equilibrium_report, layer by layer; returns the verdicts.

    Isolation and the flags are timed on freshly isolated roots.  The
    per-point layers are then timed on the fixed points of equilibria(),
    in equilibrium_report's order: jury_report first, then x_approx, the
    y image and its approximation, and in_unit_square.  jury_report binds
    the stability polynomials and asks its sign queries itself, so a second
    pass on fresh fixed points gives those two parts of model.jury alone.
    """
    tr.next_op()
    roots = tr.isolate(params.u, params.v)
    with tr.span("model.flags"):
        [kc.Equilibrium(r, params) for r in roots]
    verdicts = []
    for eq in kc.equilibria(params):
        with tr.span("model.jury"):
            verdicts.append(kc.jury_report(eq, params).verdict)
        # each property computes on first access and caches
        with tr.span("realroots.approx"):
            eq.x_approx
        with tr.span("realroots.image"):
            eq.y_root
        with tr.span("realroots.approx"):
            eq.y_approx
        with tr.span("model.unit_square"):
            eq.in_unit_square
        tr.counts["model.positive"] += eq.is_positive
        tr.counts[f"model.verdict.{verdicts[-1]}"] += 1
    for eq in kc.equilibria(params):
        with tr.span("exactpoly.bind"):
            p1, p2, p3 = bound_stability_polys(params)
        tr.sign(p1, eq.x_root)
        if p2 != p1:
            tr.sign(p2, eq.x_root)
        tr.sign(p3, eq.x_root)
    return verdicts


def _verdict(signs) -> str:
    if all(s > 0 for s in signs):
        return "stable"
    if any(s < 0 for s in signs):
        return "unstable"
    return "marginal"
