import math
import random
from fractions import Fraction as F

import pytest

from kopelcas import realroots
from kopelcas.exactpoly import MPoly, X, Y
from kopelcas.realroots import (
    _ZERO_TEST_ROUND, AlgebraicReal, _divisors, _image, _sign_dense_at, algebraic_image,
    isolate_real_roots, refine, sign_at, square_free_decompose, sturm_sign_count,
)


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
        lead = p.coefficient_of("x", int(p.degree("x"))).as_fraction()
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


def test_isolate_no_real_roots():
    assert isolate_real_roots(X**2 + 1) == []
    assert isolate_real_roots(MPoly.constant(3)) == []
    with pytest.raises(ValueError):
        isolate_real_roots(MPoly.zero())


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
    # huge end coefficients switch snapping off; isolation stays exact
    r = F(1000003, 2000003)
    p = (2000003 * X - 1000003) * (X**2 + 1)
    roots = isolate_real_roots(p)
    assert len(roots) == 1
    assert roots[0].compare_rational(r) == 0
    assert abs(roots[0].approx - float(r)) < 1e-12


def test_isolation_with_a_mismatched_chain_stops_at_the_cap():
    # the chain [1, x, 1] loses two sign variations at x = 0, where x^2 - 2
    # has no root: every window ending at 0 still counts two roots, so
    # bisection never separates them and must stop at the depth cap
    with pytest.raises(RuntimeError):
        realroots._isolate_square_free((-2, 0, 1), [(1,), (0, 1), (1,)])


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


def test_refine_shrinks_and_preserves():
    root = isolate_real_roots(cubic(4, 4))[0]
    tight = refine(root, F(1, 10**12))
    assert tight.hi - tight.lo <= F(1, 10**12)
    assert root.lo <= tight.lo and tight.hi <= root.hi
    assert sign_at(16 * X**2 - 20 * X + 5, tight) == 0
    exact = AlgebraicReal.from_rational(F(1, 2))
    assert refine(exact, F(1, 100)) is exact
    with pytest.raises(ValueError):
        refine(root, 0)


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
    # next to the fold of this cubic float Newton stalls ulps from the root;
    # the exact residual step and the certificate still land on the nearest
    # double without bisection
    calls = _counting_bisection(monkeypatch)
    root = AlgebraicReal("x", FOLD_CUBIC, *FOLD_WINDOW)
    assert (root.lo, root.hi) == FOLD_WINDOW
    assert root.approx == FOLD_DOUBLE
    assert not calls
    # approx never keeps a tighter window
    assert (root.lo, root.hi) == FOLD_WINDOW


@pytest.mark.parametrize("ulps, bisections", [(-4, 0), (-1, 0), (1, 0), (4, 0), (40, 1)])
def test_seed_ulps_away_moves_or_falls_back(monkeypatch, ulps, bisections):
    # a seed a few ulps off moves onto the answer one ulp at a time; one
    # that does not settle within _ULP_MOVES falls back to bisection
    seed = FOLD_DOUBLE
    for _ in range(abs(ulps)):
        seed = math.nextafter(seed, math.copysign(math.inf, ulps))
    monkeypatch.setattr(realroots, "_seed", lambda *args: seed)
    calls = _counting_bisection(monkeypatch)
    assert AlgebraicReal("x", FOLD_CUBIC, *FOLD_WINDOW).approx == FOLD_DOUBLE
    assert len(calls) == bisections


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
    # (x**2 - 2) (x + 10**400): no coefficient but the lead converts to a float
    calls = _counting_bisection(monkeypatch)
    big = 10**400
    root = AlgebraicReal("x", (-2 * big, -2, big, 1), F(1), F(2))
    assert root.approx == 2**0.5
    assert len(calls) == 1


# -- images under polynomial maps -----------------------------------------

def test_algebraic_image_rational():
    root = AlgebraicReal.from_rational(F(3, 4))
    img = algebraic_image(root, 4 * X * (1 - X), "y")
    assert img.is_rational and img.value == F(3, 4)
    assert img.var == "y"


def test_algebraic_image_swaps_conjugate_pair():
    roots = isolate_real_roots(cubic(4, 4))
    img = algebraic_image(roots[0], 4 * X * (1 - X), "y")
    # 4 x (1 - x) sends (5 - sqrt 5)/8 to (5 + sqrt 5)/8
    assert abs(img.approx - (5 + 5**0.5) / 8) < 1e-12
    y_min = 16 * Y**2 - 20 * Y + 5
    assert sign_at(y_min, img) == 0


def test_shared_image_candidates_give_each_root_its_own_copy():
    # the three fixed points off the origin at u = 7/2, v = 13/4 are
    # irrational roots of one cubic, so their y images share one polynomial
    q = F(13, 4) * (X - X**2)
    qi, scale = (0, 13, -13), 4  # q = qi / scale, as the model passes it
    # narrow windows pick a candidate before any of them is refined
    roots = [r.refine(F(1, 2**40)) for r in isolate_real_roots(cubic(F(7, 2), F(13, 4)))]
    assert len(roots) == 3 and not any(r.is_rational for r in roots)
    alone = [algebraic_image(r, q, "y") for r in isolate_real_roots(cubic(F(7, 2), F(13, 4)))]
    images = {}
    twice = AlgebraicReal("x", roots[0]._coeffs,
                          roots[0].lo, roots[0].hi, multiplicity=2)
    shared = [_image(r, qi, scale, "y", images) for r in [twice] + roots[1:]]
    assert len(images) == 1
    assert [s.approx for s in shared] == [a.approx for a in alone]
    assert len({id(s) for s in shared}) == 3
    assert not any(s is c for s in shared for c in next(iter(images.values())))
    assert [s.multiplicity_in_source for s in shared] == [2, 1, 1]
    assert all(c.multiplicity_in_source == 1 for c in next(iter(images.values())))


def test_rational_image_of_an_irrational_root():
    # x**2 sends sqrt 2 to 2, a double root of the image polynomial (y - 2)**2:
    # the image keeps the multiplicity of its preimage
    root = AlgebraicReal("x", (-2, 0, 1), F(1), F(2))
    img = algebraic_image(root, X**2, "y")
    assert img.is_rational and img.value == 2
    assert img.multiplicity_in_source == 1


def test_algebraic_image_constant_map():
    root = isolate_real_roots(cubic(4, 4))[0]
    img = algebraic_image(root, MPoly.constant(F(7, 2)), "y")
    assert img.is_rational and img.value == F(7, 2)
    assert algebraic_image(root, MPoly.zero(), "y").value == 0


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


def test_divisors_match_brute_force():
    # sieve: each d is appended to the lists of its multiples, in ascending order
    top = 20000
    expected = [[] for _ in range(top + 1)]
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            expected[m].append(d)
    for n in range(1, top + 1):
        assert _divisors(n) == expected[n], n
