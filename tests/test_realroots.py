import math
import random
from fractions import Fraction as F

import pytest

from kopelcas import model, realroots
from kopelcas.exactpoly import MPoly, X, Y, _dense_coeffs, _int_clear, dense_to_mpoly, resultant
from kopelcas.model import _cubic_discriminant
from kopelcas.realroots import (
    _ZERO_TEST_ROUND, AlgebraicReal, _cubic_brackets, _image, _isolate_int, _sign_dense_at,
    isolate_real_roots, sign_at, square_free_decompose,
)
from kopelcas.rational import format_rational
from oracles import coefficient_of, point_counts, sturm_sign_count


def cubic(u, v):
    # the equilibrium cubic with parameters bound to exact rationals
    u, v = F(u), F(v)
    return (u * v**2) * X**3 - (2 * u * v**2) * X**2 + (u * v**2 + u * v) * X + (1 - u * v)


# -- square-free decomposition --------------------------------------------

def test_square_free_triple_root():
    p = 27 * X**3 - 54 * X**2 + 36 * X - 8  # (3x - 2)^3 up to scale
    assert square_free_decompose(p) == [(X - F(2, 3), 3)]


def test_square_free_mixed():
    p = (X - 1) * (X - 1) * (X + 2)
    assert square_free_decompose(p) == [(X + 2, 1), (X - 1, 2)]


def test_square_free_trivial():
    p = X**2 + 1
    assert square_free_decompose(p) == [(X**2 + 1, 1)]
    # scaling only changes the dropped constant
    assert square_free_decompose(5 * X**2 + 5) == [(X**2 + 1, 1)]


def test_square_free_random_reassembly():
    rng = random.Random(101)
    for _ in range(40):
        roots = {}
        for _ in range(rng.randint(1, 3)):
            roots[F(rng.randint(-4, 4), rng.randint(1, 3))] = rng.randint(1, 3)
        p = MPoly.constant(rng.choice([1, 2, -3]))
        for r, m in roots.items():
            p = p * (X - r) ** m
        decomp = square_free_decompose(p)
        rebuilt = MPoly.constant(1)
        for f, m in decomp:
            rebuilt = rebuilt * f**m
        # monic product of factor^mult matches p up to the leading constant
        lead = coefficient_of(p, "x", int(p.degree("x"))).as_fraction()
        assert rebuilt * lead == p


def test_square_free_errors():
    with pytest.raises(ValueError):
        square_free_decompose(MPoly.zero())
    with pytest.raises(ValueError):
        square_free_decompose(X * Y)


# -- isolation -------------------------------------------------------------

def test_isolate_three_roots_with_snap():
    roots = isolate_real_roots(cubic(4, 4))
    assert len(roots) == 3
    assert [r.multiplicity_in_source for r in roots] == [1, 1, 1]
    mid = roots[1]
    assert mid.is_rational and mid.value == F(3, 4)
    # the outer pair solves 16x^2 - 20x + 5 = 0
    minpoly = 16 * X**2 - 20 * X + 5
    assert sign_at(minpoly, roots[0]) == 0
    assert sign_at(minpoly, roots[2]) == 0
    assert abs(roots[0].approx - (5 - 5**0.5) / 8) < 1e-12
    assert abs(roots[2].approx - (5 + 5**0.5) / 8) < 1e-12


def test_isolate_single_root():
    roots = isolate_real_roots(cubic(2, 2))
    assert len(roots) == 1
    assert roots[0].is_rational and roots[0].value == F(1, 2)


def test_isolate_triple_root():
    roots = isolate_real_roots(cubic(3, 3))
    assert len(roots) == 1
    assert roots[0].is_rational and roots[0].value == F(2, 3)
    assert roots[0].multiplicity_in_source == 3


def test_isolate_conjugate_pair_point():
    roots = isolate_real_roots(cubic(F(13, 4), F(13, 4)))
    assert len(roots) == 3
    assert roots[1].is_rational and roots[1].value == F(9, 13)
    minpoly = 169 * X**2 - 221 * X + 68
    assert sign_at(minpoly, roots[0]) == 0
    assert sign_at(minpoly, roots[2]) == 0
    lo = (17 - 17**0.5) / 26
    hi = (17 + 17**0.5) / 26
    assert abs(roots[0].approx - lo) < 1e-12
    assert abs(roots[2].approx - hi) < 1e-12


def test_isolate_multiplicity_mix():
    p = (X - 1) ** 2 * (X + 2)
    roots = isolate_real_roots(p)
    assert [(r.value, r.multiplicity_in_source) for r in roots] == [(-2, 1), (1, 2)]


def test_a_linear_factor_is_its_root_with_no_isolation(monkeypatch):
    # Yun's factors of (x - 1)**2 (x + 2) are linear: the one Sturm chain
    # built is the whole polynomial's, which gives Yun's first gcd
    chains = []
    build = realroots._sturm_chain
    monkeypatch.setattr(realroots, "_sturm_chain", lambda c: chains.append(tuple(c)) or build(c))
    roots = isolate_real_roots((X - 1) ** 2 * (X + 2))
    assert [(r.value, r.multiplicity_in_source) for r in roots] == [(-2, 1), (1, 2)]
    assert chains == [(2, -3, 0, 1)]


def test_a_cofactor_left_by_the_walk_reuses_its_sturm_chain(monkeypatch):
    # x (x**2 - 3): the walk snaps x = 0 at its first midpoint and counts the
    # rest by the chain of x**2 - 3, which then walks the cofactor again
    chains = []
    build = realroots._sturm_chain
    monkeypatch.setattr(realroots, "_sturm_chain", lambda c: chains.append(tuple(c)) or build(c))
    roots = _isolate_int("x", (0, -3, 0, 1))
    assert [r.value for r in roots if r.is_rational] == [0]
    assert [r._coeffs for r in roots if not r.is_rational] == [(-3, 0, 1)] * 2
    assert chains.count((-3, 0, 1)) == 1


def test_isolate_no_real_roots():
    assert isolate_real_roots(X**2 + 1) == []
    assert isolate_real_roots(MPoly.constant(3)) == []
    with pytest.raises(ValueError):
        isolate_real_roots(MPoly.zero())


def test_integer_isolation_of_a_nonzero_constant_finds_no_root():
    # as isolate_real_roots does; a cofactor may come out constant
    for c in (1, -1, 7):
        assert _isolate_int("x", (c,)) == []


def test_isolate_sorted_disjoint_random():
    rng = random.Random(202)
    for _ in range(100):
        planted = sorted({F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))})
        mults = [rng.randint(1, 3) for _ in planted]
        p = MPoly.constant(rng.choice([1, -2, 3]))
        for r, m in zip(planted, mults):
            p = p * (X - r) ** m
        if rng.random() < 0.4:
            p = p * (X**2 + 1)  # no real contribution
        roots = isolate_real_roots(p)
        assert [(r.value, r.multiplicity_in_source) for r in roots] == list(zip(planted, mults))
        # sorted ascending and pairwise disjoint
        for a, b in zip(roots, roots[1:]):
            assert a.hi <= b.lo or a.value < b.value


def test_isolate_beyond_snap_budget_still_certifies():
    # end coefficients past 10**6 still snap the rational root exactly
    r = F(1000003, 2000003)
    p = (2000003 * X - 1000003) * (X**2 + 1)
    roots = isolate_real_roots(p)
    assert len(roots) == 1
    assert roots[0].is_rational and roots[0].value == r
    assert roots[0].approx == float(r)


def test_small_coefficients_with_many_divisor_pairs_snap_a_rational_root(monkeypatch):
    # the equilibrium cubic at (u, v) = (27/28, 28/5): x = 1/6 is its one real
    # root, and 110 and 756 have 8 and 24 divisors, 384 signed candidate
    # pairs.  Its bracket holds one multiple of 1/756, and one exact
    # evaluation there snaps the root; the cofactor has no real root.
    coeffs = (-110, 891, -1512, 756)
    evaluations = []
    evaluate = realroots._eval_int_at

    def counted(c, num, den):
        evaluations.append(F(num, den))
        return evaluate(c, num, den)

    monkeypatch.setattr(realroots, "_eval_int_at", counted)
    roots = isolate_real_roots(dense_to_mpoly(coeffs, "x"))
    assert len(roots) == 1 and roots[0].is_rational and roots[0].value == F(1, 6)
    assert evaluations == [F(1, 6)]


def test_a_rational_root_with_a_huge_denominator_snaps_past_the_refine_cap(monkeypatch):
    # (10**1500 x - 3)(x**2 - 2): 3 / 10**1500 sits in a window about 1 wide,
    # which the rational test narrows to 10**-1500, some 5000 halvings, past
    # _REFINE_CAP.  Newton steps narrow every window in a few hundred exact
    # evaluations in all, not one per halving.
    evaluations = []
    evaluate = realroots._eval_dyadic
    monkeypatch.setattr(realroots, "_eval_dyadic",
                        lambda c, a, k: evaluations.append(k) or evaluate(c, a, k))
    p = (10**1500 * X - 3) * (X**2 - 2)
    roots = isolate_real_roots(p)
    assert len(evaluations) < 300
    assert [r.is_rational for r in roots] == [False, True, False]
    assert roots[1].value == F(3, 10**1500)
    for r in (roots[0], roots[2]):
        assert r._coeffs == (-2, 0, 1)
        assert sign_at(X**2 - 2, r) == 0


def test_isolation_with_a_mismatched_chain_stops_at_the_cap():
    # the chain [1, x, 1] loses two sign variations at x = 0, where x^2 - 2
    # has no root: every window ending at 0 still counts two roots, so
    # bisection never separates them and must stop at the depth cap
    with pytest.raises(RuntimeError):
        realroots._isolate_square_free(
            (-2, 0, 1), realroots._sturm_count([(1,), (0, 1), (1,)]))


def _planted_six():
    # x (2x - 1)(x - 2)(x + 1)(2x^2 - 1): rational roots at 0 and 1/2, and
    # outside (0, 1) at -1 and 2; irrational ones at -1/sqrt 2 and 1/sqrt 2
    return _int_clear(_dense_coeffs(X * (2 * X - 1) * (X - 2) * (X + 1) * (2 * X**2 - 1), "x"))


def test_isolation_with_no_window_keeps_every_root():
    roots = _isolate_int("x", _planted_six())
    assert [r.value for r in roots if r.is_rational] == [-1, 0, F(1, 2), 2]
    assert [r.approx for r in roots] == [-1.0, -(2**-0.5), 0.0, 0.5, 2**-0.5, 2.0]
    assert all(r.multiplicity_in_source == 1 for r in roots)


# -- Sturm counting --------------------------------------------------------

def test_sturm_sign_count_basic():
    assert sturm_sign_count(X**2 - 2, 0, 2) == 1
    assert sturm_sign_count(X**2 - 2, -2, 2) == 2
    assert sturm_sign_count(X**2 - 2, 2, 3) == 0


def test_sturm_sign_count_cubics():
    assert sturm_sign_count(cubic(4, 4), 0, 1) == 3
    assert sturm_sign_count(cubic(2, 2), 0, 1) == 1
    assert sturm_sign_count(cubic(2, 2), -5, 0) == 0


def test_sturm_sign_count_rejects_root_endpoint():
    with pytest.raises(ValueError):
        sturm_sign_count(X**2 - 1, 1, 2)
    with pytest.raises(ValueError):
        sturm_sign_count(X**2 - 1, -1, 2)
    with pytest.raises(ValueError):
        sturm_sign_count(X**2 - 1, 2, 2)


def test_sturm_count_matches_dense_grid():
    # brute-force oracle: strict sign changes over a fine grid
    rng = random.Random(303)
    for _ in range(30):
        planted = sorted({F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))})
        p = MPoly.constant(1)
        for r in planted:
            p = p * (X - r)
        count = sturm_sign_count(p, F(-7), F(7))
        assert count == len(planted)
        step = F(1, 64)
        grid_signs = []
        t = F(-7) + F(1, 128)  # offset keeps grid points off the planted roots
        while t < 7:
            val = p.evaluate({"x": t}).as_fraction()
            if val:
                grid_signs.append(1 if val > 0 else -1)
            t += step
        changes = sum(1 for s1, s2 in zip(grid_signs, grid_signs[1:]) if s1 != s2)
        assert changes == count


# -- signs, comparison, refinement ----------------------------------------

def test_sign_at_exact_point():
    root = AlgebraicReal.from_rational(F(3, 4))
    assert sign_at(4 * X - 3, root) == 0
    assert sign_at(X - 1, root) == -1
    assert sign_at(X, root) == 1
    assert sign_at(MPoly.constant(-2), root) == -1
    assert sign_at(MPoly.zero(), root) == 0


def test_sign_at_irrational_zero_detection():
    roots = isolate_real_roots(cubic(4, 4))
    low = roots[0]
    assert sign_at(16 * X**2 - 20 * X + 5, low) == 0
    assert sign_at(16 * X**2 - 20 * X + 6, low) != 0
    assert sign_at(X - 1, low) == -1
    assert sign_at(X, low) == 1


def _sqrt2(p):
    return next(r for r in isolate_real_roots(p) if 1 < r.approx < 2)


def _count_gcd_calls(monkeypatch):
    calls = []
    gcd = realroots._int_gcd

    def counting(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(realroots, "_int_gcd", counting)
    return calls


@pytest.mark.parametrize("t", [F(13, 10), F(3, 2), F(7, 5)])
def test_nonzero_sign_settling_late_asks_no_gcd(monkeypatch, t):
    # x - t at sqrt(2): the interval bound settles only once the window
    # excludes t, a few rounds in, and well before the zero certificate
    r = _sqrt2(X**2 - 2)
    k0 = r._k
    calls = _count_gcd_calls(monkeypatch)
    assert _sign_dense_at((-t.numerator, t.denominator), r) == (1 if t < 1.4142 else -1)
    assert 3 <= r._k - k0 < _ZERO_TEST_ROUND
    assert calls == []


def test_zero_at_irrational_common_root_is_certified(monkeypatch):
    r = _sqrt2((X**2 - 2) * (X - 5))
    assert r._coeffs == (-2, 0, 1)
    k0 = r._k
    calls = _count_gcd_calls(monkeypatch)
    # q = (x**2 - 2)(3x + 1) vanishes at sqrt(2); interval bounds never settle
    assert _sign_dense_at((-2, -6, 1, 3), r) == 0
    assert len(calls) == 1
    assert r._k - k0 == _ZERO_TEST_ROUND
    assert not r.is_rational and r.lo < r.hi
    for end in (r.lo, r.hi):
        assert end.denominator & (end.denominator - 1) == 0  # dyadic
        assert end**2 != 2
    assert r.lo**2 < 2 < r.hi**2


def test_sign_at_wrong_variable():
    root = isolate_real_roots(cubic(4, 4))[0]
    with pytest.raises(ValueError):
        sign_at(Y - 1, root)


def test_sign_at_matches_float_sign_random():
    rng = random.Random(404)
    roots = isolate_real_roots(cubic(4, 4)) + isolate_real_roots(cubic(F(13, 4), F(13, 4)))
    for _ in range(60):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
        q = sum((c * X**k for k, c in enumerate(coeffs)), MPoly.zero())
        if q.is_zero():
            continue
        for r in roots:
            certified = sign_at(q, r)
            approx = sum(float(c) * r.approx**k for k, c in enumerate(coeffs))
            if abs(approx) > 1e-9:
                assert certified == (1 if approx > 0 else -1)


def test_compare_rational():
    low = isolate_real_roots(cubic(4, 4))[0]  # (5 - sqrt 5)/8 ~ 0.3455
    assert low.compare_rational(F(1, 4)) == 1
    assert low.compare_rational(F(1, 2)) == -1
    assert low.compare_rational(0) == 1
    exact = AlgebraicReal.from_rational(F(2, 3))
    assert exact.compare_rational(F(2, 3)) == 0
    assert exact.compare_rational(1) == -1


def test_compare_rational_takes_an_int_as_its_fraction():
    # each root is isolated twice, one copy compared with ints and the other
    # with the equal Fractions: same signs, same windows left behind
    for p in (cubic(4, 4), X**2 - 2, (X - 1) * (X**2 - 20000000), 3 * X**3 - 7 * X + 1):
        by_int, by_fraction = isolate_real_roots(p), isolate_real_roots(p)
        for r, s in zip(by_int, by_fraction):
            for t in (-3, -1, 0, 1, 2, 5):
                assert r.compare_rational(t) == s.compare_rational(F(t))
                assert (r.lo, r.hi, r.is_rational) == (s.lo, s.hi, s.is_rational)


def test_root_snapped_through_an_int_keeps_a_fraction():
    # 1 in a window of the whole cubic: the comparison with it snaps the
    # root exactly
    coeffs = _int_clear(_dense_coeffs((X - 1) * (X**2 - 20000000), "x"))
    by_int, by_fraction = (AlgebraicReal("x", coeffs, 0, 4096) for _ in range(2))
    assert not by_int.is_rational
    assert by_int.compare_rational(1) == 0 and by_fraction.compare_rational(F(1)) == 0
    assert type(by_int.value) is F and by_int.value == by_fraction.value == 1
    assert ([format_rational(by_int.lo), format_rational(by_int.hi)]
            == [format_rational(by_fraction.lo), format_rational(by_fraction.hi)] == ["1", "1"])


def test_compare_rational_evaluates_the_rational_once(monkeypatch):
    # 141421356/10**8 lies deep inside the window of sqrt 2, so the
    # comparison bisects many times; the polynomial's value there is asked once
    root = isolate_real_roots(X**2 - 2)[1]
    other = F(141421356, 10**8)
    assert root.lo < other < root.hi
    calls = []
    evaluate = realroots._eval_int_at
    monkeypatch.setattr(realroots, "_eval_int_at",
                        lambda *args: calls.append(args) or evaluate(*args))
    assert root.compare_rational(other) == 1
    assert root.hi - root.lo < F(1, 10**8)
    assert len(calls) == 1
    # a rational outside the window is decided with no evaluation
    assert root.compare_rational(2) == -1
    assert len(calls) == 1


def test_refine_shrinks_and_preserves():
    root = isolate_real_roots(cubic(4, 4))[0]
    tight = root.refine(F(1, 10**12))
    assert tight.hi - tight.lo <= F(1, 10**12)
    assert root.lo <= tight.lo and tight.hi <= root.hi
    assert sign_at(16 * X**2 - 20 * X + 5, tight) == 0
    exact = AlgebraicReal.from_rational(F(1, 2))
    assert exact.refine(F(1, 100)) is exact
    with pytest.raises(ValueError):
        root.refine(0)


@pytest.mark.parametrize("build", [
    lambda: AlgebraicReal("x", (-2, 0, 1), 1.0, 2),
    lambda: AlgebraicReal("x", (-2, 0, 1), 1, 2.0),
    lambda: AlgebraicReal.from_rational(0.1),
    lambda: isolate_real_roots(X**2 - 2)[1].refine(0.1),
    lambda: isolate_real_roots(X**2 - 2)[1].compare_rational(1.5),
    lambda: sturm_sign_count(X**2 - 2, 0.1, 2),
    lambda: sturm_sign_count(X**2 - 2, 0, 2.5),
], ids=["lo", "hi", "from_rational", "refine", "compare_rational", "sturm-lo", "sturm-hi"])
def test_rational_inputs_refuse_a_float(build):
    # a float would be taken at its binary value, 0.1 as 3602879701896397 / 2**55
    with pytest.raises(TypeError):
        build()


def test_approx_is_correctly_rounded_for_known_roots():
    roots = isolate_real_roots(cubic(4, 4))
    expected = [(5 - 5**0.5) / 8, 0.75, (5 + 5**0.5) / 8]
    for r, e in zip(roots, expected):
        assert abs(r.approx - e) < 1e-15
        assert float(r) == r.approx


def _counting_bisection(monkeypatch) -> list:
    """Count the calls of the bisection fallback behind AlgebraicReal.approx."""
    calls = []
    bisect = realroots._bisect_double

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(realroots, "_bisect_double", counted)
    return calls


FOLD_CUBIC = (-4685, 40404, -71188, 35594)
FOLD_WINDOW = (F(896, 2**10), F(912, 2**10))
FOLD_DOUBLE = 0.8794775977524464


def test_seeded_double_next_to_a_fold(monkeypatch):
    # next to the fold of this cubic, the Newton step from the midpoint of
    # its certified bracket lands on the nearest double, with no bisection
    calls = _counting_bisection(monkeypatch)
    (hinted,) = [r for r in _isolate_int("x", FOLD_CUBIC) if r._hint and r.hi == F(15, 16)]
    assert hinted.lo == F(7, 8)
    assert hinted.approx == FOLD_DOUBLE
    assert not calls
    # from the midpoint of a window with no hint the step falls short, and
    # one bisection finds the same double
    root = AlgebraicReal("x", FOLD_CUBIC, *FOLD_WINDOW)
    assert root._hint is None
    assert root.approx == FOLD_DOUBLE
    assert len(calls) == 1
    # approx never keeps a tighter window
    assert (root.lo, root.hi) == FOLD_WINDOW


@pytest.mark.parametrize("ulps", [-4, -1, 1, 4, 40])
def test_an_off_seed_falls_back_to_one_bisection(monkeypatch, ulps):
    # a seed the midpoint signs do not certify, any number of ulps off,
    # falls back to one bisection, which finds the nearest double
    seed = FOLD_DOUBLE
    for _ in range(abs(ulps)):
        seed = math.nextafter(seed, math.copysign(math.inf, ulps))
    monkeypatch.setattr(realroots, "_seed", lambda *args: seed)
    calls = _counting_bisection(monkeypatch)
    assert AlgebraicReal("x", FOLD_CUBIC, *FOLD_WINDOW).approx == FOLD_DOUBLE
    assert len(calls) == 1


def test_exact_tie_rounds_half_even_through_bisection(monkeypatch):
    # (2**53 x - (2**53 + 1)) (x**2 - 2): the root 1 + 2**-53 sits halfway
    # between the doubles 1 and 1 + 2**-52, and the window does not snap it
    calls = _counting_bisection(monkeypatch)
    t = 2**53
    root = AlgebraicReal("x", (2 * (t + 1), -2 * t, -(t + 1), t), F(1), F(5, 4))
    assert not root.is_rational
    assert root.approx == 1.0
    assert len(calls) == 1
    assert not root.is_rational  # the midpoint that hit the root is not adopted


def test_coefficients_past_the_float_range_take_the_bisection(monkeypatch):
    # (x**2 - 2) (x + 10**400): no coefficient but the lead converts to a
    # float, yet the Newton step is exact; it lands off sqrt(2) because the
    # window (1, 2) with no hint is wide, so the bisection finds the double
    calls = _counting_bisection(monkeypatch)
    big = 10**400
    root = AlgebraicReal("x", (-2 * big, -2, big, 1), F(1), F(2))
    assert root.approx == 2**0.5
    assert len(calls) == 1


def test_root_in_the_double_range_with_a_window_past_it():
    # x + 10**200 on (-2**1100, 0): the left end rounds past the largest double
    root = AlgebraicReal("x", (10**200, 1), F(-2**1100), F(0))
    assert not root.is_rational
    assert root.approx == -1e200


def test_root_past_the_double_range_overflows():
    # x + 10**400: the whole window (-2**1400, -2**1200) lies past the doubles
    root = AlgebraicReal("x", (10**400, 1), F(-2**1400), F(-2**1200))
    with pytest.raises(OverflowError):
        root.approx


def test_rational_root_past_the_double_range_overflows_as_a_window_does():
    window = AlgebraicReal("x", (10**400, 1), F(-2**1400), F(-2**1200))
    exact = AlgebraicReal.from_rational(F(-10**400))
    for root in (window, exact):
        with pytest.raises(OverflowError, match="^the root lies beyond the double range$"):
            root.approx


# -- y images under the fixed point locus ----------------------------------

def _resultant_candidates(qi, scale):
    """Fresh candidates per root: the isolated roots of Res_x(f, scale y - qi(x))."""
    image = scale * Y - dense_to_mpoly(qi, "x")
    return lambda root: _isolate_int("y", _int_clear(_dense_coeffs(
        resultant(dense_to_mpoly(root._coeffs, "x"), image, "x"), "y")))


def test_image_of_a_rational_root_asks_for_no_candidates():
    root = AlgebraicReal.from_rational(F(3, 4))
    img = _image(root, (0, 4, -4), 1, lambda r: pytest.fail("candidates were asked for"))
    assert img.is_rational and img.value == F(3, 4)
    assert img.var == "y"


def test_image_swaps_conjugate_pair():
    roots = isolate_real_roots(cubic(4, 4))
    img = _image(roots[0], (0, 4, -4), 1, _resultant_candidates((0, 4, -4), 1))
    # 4 x (1 - x) sends (5 - sqrt 5)/8 to (5 + sqrt 5)/8
    assert abs(img.approx - (5 + 5**0.5) / 8) < 1e-12
    y_min = 16 * Y**2 - 20 * Y + 5
    assert sign_at(y_min, img) == 0


def test_a_lone_candidate_is_the_image_after_one_bound(monkeypatch):
    # at u = 1/5, v = 9 the cubic has one real root, and so has its image
    # polynomial: both the window of that one candidate and every interval
    # image of the x window hold the true y, so the first bound picks it
    qi, scale = (0, 9, -9), 1
    roots = isolate_real_roots(cubic(F(1, 5), F(9)))
    assert len(roots) == 1 and not roots[0].is_rational
    candidates = _resultant_candidates(qi, scale)(roots[0])
    assert len(candidates) == 1
    window = (roots[0].lo, roots[0].hi)
    bounds = []
    horner = realroots._interval_horner
    monkeypatch.setattr(realroots, "_interval_horner",
                        lambda *args: bounds.append(args) or horner(*args))
    img = _image(roots[0], qi, scale, lambda root: candidates)
    monkeypatch.undo()
    assert len(bounds) == 1
    assert img is not candidates[0] and (img.lo, img.hi) == (candidates[0].lo, candidates[0].hi)
    assert (roots[0].lo, roots[0].hi) == window
    assert img.approx == 0.4160706319479576


def test_shared_image_candidates_give_each_root_its_own_copy():
    # the three fixed points off the origin at u = 7/2, v = 13/4 are
    # irrational roots of one cubic, so their y images share one polynomial
    q = F(13, 4) * (X - X**2)
    qi, scale = (0, 13, -13), 4  # q = qi / scale, as the model passes it
    # narrow windows pick a candidate before any of them is refined
    roots = [r.refine(F(1, 2**40)) for r in isolate_real_roots(cubic(F(7, 2), F(13, 4)))]
    assert len(roots) == 3 and not any(r.is_rational for r in roots)
    fresh = _resultant_candidates(qi, scale)
    alone = [_image(r, qi, scale, fresh) for r in isolate_real_roots(cubic(F(7, 2), F(13, 4)))]
    res = resultant(dense_to_mpoly(roots[0]._coeffs, "x"), Y - q, "x")
    candidates = _isolate_int("y", _int_clear(_dense_coeffs(res, "y")))
    asked = []

    def shared_candidates(root):
        asked.append(root._coeffs)
        return candidates

    twice = AlgebraicReal("x", roots[0]._coeffs,
                          roots[0].lo, roots[0].hi, multiplicity=2)
    shared = [_image(r, qi, scale, shared_candidates) for r in [twice] + roots[1:]]
    assert asked == [roots[0]._coeffs] * 3
    assert [s.approx for s in shared] == [a.approx for a in alone]
    assert len({id(s) for s in shared}) == 3
    assert not any(s is c for s in shared for c in candidates)
    assert [s.multiplicity_in_source for s in shared] == [2, 1, 1]
    assert all(c.multiplicity_in_source == 1 for c in candidates)


def test_rational_image_of_an_irrational_root():
    # x**2 sends sqrt 2 to 2, a double root of the image polynomial (y - 2)**2:
    # the image keeps the multiplicity of its preimage
    root = AlgebraicReal("x", (-2, 0, 1), F(1), F(2))
    img = _image(root, (0, 0, 1), 1, _resultant_candidates((0, 0, 1), 1))
    assert img.is_rational and img.value == 2
    assert img.multiplicity_in_source == 1


def test_constructor_moves_rational_window_onto_dyadic_grid():
    # x^2 - 2 on (1/3, 5/3): the stored window is dyadic and inside the given one
    root = AlgebraicReal("x", (-2, 0, 1), F(1, 3), F(5, 3))
    assert root.lo.denominator & (root.lo.denominator - 1) == 0
    assert root.hi.denominator & (root.hi.denominator - 1) == 0
    assert F(1, 3) <= root.lo < root.hi <= F(5, 3)
    assert sign_at(X**2 - 2, root) == 0
    assert root.approx == 2**0.5
    # a grid endpoint that is the root itself comes back exact
    half = AlgebraicReal("x", (-1, 2), F(1, 3), F(1))
    assert half.is_rational and half.value == F(1, 2)
    with pytest.raises(ValueError):
        AlgebraicReal("x", (-2, 0, 1), F(2), F(3))  # no sign change: no root inside


def test_constructor_refuses_a_window_with_several_roots_or_a_multiple_one():
    # (x - 1)(x - 2)(x - 3) changes sign over (0, 4), yet holds three roots
    with pytest.raises(ValueError, match="exactly one root"):
        AlgebraicReal("x", (-6, 11, -6, 1), 0, 4)
    # (x - 1)**2 (x - 2) changes sign over (0, 3), which holds the double root too
    with pytest.raises(ValueError, match="exactly one root"):
        AlgebraicReal("x", (-2, 5, -4, 1), 0, 3)
    # (x - 1)**3 changes sign over (0, 2) at its one root, a triple one
    with pytest.raises(ValueError, match="exactly one root"):
        AlgebraicReal("x", (-1, 3, -3, 1), 0, 2)
    # a window around one simple root is kept, square-free polynomial or not
    for coeffs, lo, hi in [((-6, 11, -6, 1), F(3, 2), F(5, 2)), ((-2, 5, -4, 1), F(3, 2), 3)]:
        root = AlgebraicReal("x", coeffs, lo, hi)
        assert root.approx == 2.0 and root.compare_rational(2) == 0


def test_constructor_rejects_a_reversed_window(monkeypatch):
    # the sign check passes on (2, 1) for x^2 - 2, and the dyadic grid
    # between reversed ends never holds a point: refuse before the search
    def unreachable(*args):
        pytest.fail("a reversed window reached the dyadic search")

    monkeypatch.setattr(realroots, "_dyadic_window", unreachable)
    with pytest.raises(ValueError, match="lower end"):
        AlgebraicReal("x", (-2, 0, 1), F(2), F(1))


def test_constructor_rejects_an_exact_value_that_is_no_root():
    with pytest.raises(ValueError, match="no root"):
        AlgebraicReal("x", (-2, 0, 1), 1, 1)
    # a true rational root is kept as it is, and from_rational still works
    assert AlgebraicReal("x", (-1, 2), F(1, 2), F(1, 2)).value == F(1, 2)
    assert AlgebraicReal.from_rational(F(-3, 7), "y", 2).value == F(-3, 7)


@pytest.mark.parametrize("coeffs, lo, hi, error", [
    ((), 0, 1, ValueError),
    ((), 1, 1, ValueError),
    ((-1, 1, 0), 0, 2, ValueError),
    ((-1, 1, 0), 1, 1, ValueError),
    ((0,), 1, 1, ValueError),
    ((-0.5, 1.0), F(1, 2), F(1, 2), TypeError),
    ((-2, 0, 1.0), 1, 2, TypeError),
    ((-1, F(2)), F(1, 2), F(1, 2), TypeError),
])
def test_constructor_refuses_malformed_coefficients(monkeypatch, coeffs, lo, hi, error):
    # no coefficients, a zero lead or a coefficient that is no int is
    # refused before any evaluation
    def unreachable(*args):
        pytest.fail("malformed coefficients reached an evaluation")

    monkeypatch.setattr(realroots, "_eval_int_at", unreachable)
    monkeypatch.setattr(realroots, "_dyadic_window", unreachable)
    with pytest.raises(error):
        AlgebraicReal("x", coeffs, lo, hi)


def test_from_rational_builds_the_root_with_no_evaluation(monkeypatch):
    def unreachable(*args):
        raise AssertionError("from_rational evaluated its own root")

    monkeypatch.setattr(realroots, "_eval_int_at", unreachable)
    r = AlgebraicReal.from_rational(F(-3, 7), "y", 2)
    assert (r.var, r._coeffs, r.multiplicity_in_source) == ("y", (3, 7), 2)
    assert r.is_rational and r.lo == r.hi == F(-3, 7) and r.approx == -3 / 7


@pytest.mark.parametrize("route", ["brackets", "sturm"])
def test_a_bracket_across_one_holds_a_positive_root(monkeypatch, route):
    # at u = 10**20, v = 1 the one real root is about 1 - 10**-20: the float
    # error bound near x = 1 dwarfs that gap, so the certified bracket
    # crosses 1.  No fixed point reaches 1, so the bracket counts as it
    # stands, with no whole-line isolation; with the brackets failing
    # outright the Sturm route gives the same count
    point = model._Point.of(model.ModelParams(10**20, 1, F(1, 2), F(1, 3)))
    [((a, b, k), _)] = _cubic_brackets(point.cubic, _cubic_discriminant(point.cubic))
    assert 0 <= a < 1 << k < b
    if route == "sturm":
        monkeypatch.setattr(model, "_cubic_brackets", lambda *args, **kwargs: None)
    calls = []
    isolate = model._isolate_int
    monkeypatch.setattr(model, "_isolate_int", lambda *args: calls.append(args) or isolate(*args))
    assert point_counts(point) == (1, 0)
    assert len(calls) == (route == "sturm")


@pytest.mark.parametrize("coeffs, disc, seeds", [
    # x^3 - 3x + 1 seeded on its critical points: Newton divides by f' = 0
    pytest.param((1, -3, 0, 1), 81, [-1.0, 1.0, 1.0], id="zero-derivative"),
    # x^3 + x + 1 has one real root, given a positive disc: sqrt(-p / 3) fails
    pytest.param((1, 1, 0, 1), 1, None, id="math-domain"),
])
def test_unit_cubic_roots_answer_float_failures_with_none(monkeypatch, coeffs, disc, seeds):
    if seeds is not None:
        monkeypatch.setattr(realroots, "_cubic_seeds", lambda cf, three, outer=False: seeds)
    assert _cubic_brackets(coeffs, disc) is None
