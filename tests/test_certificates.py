import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kopelcas.certificates import (
    COUNT_DISCRIMINANT, EXPECTED_COUNT, FLIP_CHAIN, FLIP_FULL_SPEED, IDENTITY_NAMES, KINDS,
    MODULUS_CHAIN, MODULUS_FULL_SPEED, MODULUS_HOMOGENEOUS, POSITIVITY_THRESHOLD,
    STABLE_CUT_LINEAR, STABLE_CUT_QUADRATIC, TRIPLE_ROOT_COMPANION,
    EquilibriumCountClass, StableCountClass,
    build_certificates, classify, classify_equilibrium_count,
    classify_stable_best_response, classify_stable_homogeneous,
    verify_all, verify_identity, _R, _certificate_values, _r_at,
)
from kopelcas import certificates
from kopelcas.exactpoly import A, B, MPoly, U, V, X, bind, power_tables, resultant
from kopelcas.model import (
    ModelParams, _CUBIC_TERMS, _Point, equilibria,
    equilibrium_cubic, jury_report,
)
from oracles import dense_x

CountClass = EquilibriumCountClass
StableClass = StableCountClass


intensities = st.builds(F, st.integers(1, 200), st.integers(1, 40))
speeds = st.builds(F, st.integers(1, 20), st.integers(1, 20)).filter(lambda s: s <= 1)

# the certificates each classifier reads, in the order it reads them
KIND_CERTIFICATES = {
    "count": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD),
    "stable": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD, MODULUS_FULL_SPEED,
               STABLE_CUT_LINEAR, STABLE_CUT_QUADRATIC),
    "homogeneous": (COUNT_DISCRIMINANT, POSITIVITY_THRESHOLD, MODULUS_HOMOGENEOUS),
}


def _from_rows(rows):
    """The polynomial of (coeff, powers of u, v, a[, b]) rows, built as one term dict."""
    return MPoly({(0, 0, *powers) + (0,) * (4 - len(powers)): coeff for coeff, *powers in rows})


# the chain forms written out term by term: an oracle for the ones the
# module derives from R (terms: coeff, u, v, a, b)
EXPANDED_FORMS = {
    "FLIP_CHAIN": _from_rows([
        (1, 3, 3, 3, 3), (-4, 3, 2, 3, 3), (-4, 2, 3, 3, 3), (17, 2, 2, 3, 3),
        (4, 2, 1, 3, 3), (4, 1, 2, 3, 3), (-2, 2, 2, 3, 2), (-2, 2, 2, 2, 3),
        (-45, 1, 1, 3, 3), (8, 2, 1, 3, 2), (8, 1, 2, 3, 2), (8, 2, 1, 2, 3),
        (8, 1, 2, 2, 3), (4, 2, 2, 2, 2), (-36, 1, 1, 3, 2), (-36, 1, 1, 2, 3),
        (-16, 2, 1, 2, 2), (-16, 1, 2, 2, 2), (27, 0, 0, 3, 3), (-4, 1, 1, 3, 1),
        (64, 1, 1, 2, 2), (-4, 1, 1, 1, 3), (54, 0, 0, 3, 2), (54, 0, 0, 2, 3),
        (16, 1, 1, 2, 1), (16, 1, 1, 1, 2), (36, 0, 0, 3, 1), (-36, 0, 0, 2, 2),
        (36, 0, 0, 1, 3), (-16, 1, 1, 1, 1), (8, 0, 0, 3, 0), (-120, 0, 0, 2, 1),
        (-120, 0, 0, 1, 2), (8, 0, 0, 0, 3), (-48, 0, 0, 2, 0), (48, 0, 0, 1, 1),
        (-48, 0, 0, 0, 2), (96, 0, 0, 1, 0), (96, 0, 0, 0, 1), (-64, 0, 0, 0, 0),
    ]),
    "MODULUS_CHAIN": _from_rows([
        (1, 3, 3, 3, 3), (-4, 3, 2, 3, 3), (-4, 2, 3, 3, 3), (17, 2, 2, 3, 3),
        (4, 2, 1, 3, 3), (4, 1, 2, 3, 3), (-1, 2, 2, 3, 2), (-1, 2, 2, 2, 3),
        (-45, 1, 1, 3, 3), (4, 2, 1, 3, 2), (4, 1, 2, 3, 2), (4, 2, 1, 2, 3),
        (4, 1, 2, 2, 3), (-18, 1, 1, 3, 2), (-18, 1, 1, 2, 3), (27, 0, 0, 3, 3),
        (-1, 1, 1, 3, 1), (-2, 1, 1, 2, 2), (-1, 1, 1, 1, 3), (27, 0, 0, 3, 2),
        (27, 0, 0, 2, 3), (9, 0, 0, 3, 1), (18, 0, 0, 2, 2), (9, 0, 0, 1, 3),
        (1, 0, 0, 3, 0), (3, 0, 0, 2, 1), (3, 0, 0, 1, 2), (1, 0, 0, 0, 3),
    ]),
    "FLIP_FULL_SPEED": (
        U**3 * V**3 - 4 * U**3 * V**2 - 4 * U**2 * V**3 + 17 * U**2 * V**2
        + 4 * U**2 * V + 4 * U * V**2 - 45 * U * V + 27
    ),
    "MODULUS_FULL_SPEED": (
        U**3 * V**3 - 4 * U**3 * V**2 - 4 * U**2 * V**3 + 15 * U**2 * V**2
        + 12 * U**2 * V + 12 * U * V**2 - 85 * U * V + 125
    ),
    "MODULUS_HOMOGENEOUS": _from_rows([
        (1, 3, 3, 3), (-4, 3, 2, 3), (-4, 2, 3, 3), (17, 2, 2, 3),
        (4, 2, 1, 3), (4, 1, 2, 3), (-2, 2, 2, 2), (-45, 1, 1, 3),
        (8, 2, 1, 2), (8, 1, 2, 2), (-36, 1, 1, 2), (27, 0, 0, 3),
        (-4, 1, 1, 1), (54, 0, 0, 2), (36, 0, 0, 1), (8, 0, 0, 0),
    ]),
}


def _ev(poly, u, v, a=None):
    binding = {"u": u, "v": v}
    if a is not None:
        binding["a"] = a
    return poly.evaluate(binding).as_fraction()


class TestFrozenForms:
    def test_term_counts(self):
        assert len(FLIP_CHAIN.terms()) == 40
        assert len(MODULUS_CHAIN.terms()) == 28
        assert len(MODULUS_HOMOGENEOUS.terms()) == 16
        assert len(COUNT_DISCRIMINANT.terms()) == 5

    def test_sample_values(self):
        assert _ev(COUNT_DISCRIMINANT, 4, 4) == 5
        assert _ev(COUNT_DISCRIMINANT, 2, 2) == -3
        assert _ev(COUNT_DISCRIMINANT, 3, 3) == 0
        assert _ev(COUNT_DISCRIMINANT, F(13, 4), F(13, 4)) == F(17, 256)
        assert _ev(COUNT_DISCRIMINANT, F(27, 8), 4) == 0
        assert _ev(MODULUS_FULL_SPEED, 4, 4) == 45
        assert _ev(MODULUS_FULL_SPEED, 2, 2) == 25
        assert _ev(MODULUS_FULL_SPEED, F(13, 4), F(13, 4)) == F(9225, 4096)
        assert _ev(STABLE_CUT_LINEAR, 4, 4) == 1
        assert _ev(STABLE_CUT_LINEAR, F(13, 4), F(13, 4)) == F(-71, 16)
        assert _ev(STABLE_CUT_QUADRATIC, F(13, 4), F(13, 4)) == F(45, 256)

    def test_homogeneous_interpolates_full_speed(self):
        assert MODULUS_HOMOGENEOUS.evaluate({"a": 1}) == MODULUS_FULL_SPEED
        assert _ev(MODULUS_HOMOGENEOUS, 2, 2, 1) == 25
        # hand check: ((-9 a + 6) a + 20) a + 8 at a = 1/2
        assert _ev(MODULUS_HOMOGENEOUS, 2, 2, F(1, 2)) == F(147, 8)

    @given(intensities, intensities, speeds, speeds)
    def test_fast_evaluators_match_polynomials(self, u, v, a, b):
        # each compiled evaluator gives its frozen form's exact value times
        # the binding tables' common denominator
        tables = power_tables(u, v, a, b)
        denominator = math.prod(t[0] for t in tables)
        assert denominator > 0
        for kind, polys in KIND_CERTIFICATES.items():
            expected = [_ev(poly, u, v, a) * denominator for poly in polys]
            assert _certificate_values(kind, tables) == expected, kind
        binding = {"u": u, "v": v, "a": a, "b": b}
        expected = [c * denominator for c in dense_x(equilibrium_cubic().evaluate(binding))]
        assert bind(_CUBIC_TERMS, tables) == expected
        # the integer cubic equilibria() isolates is a positive multiple of the exact one
        cubic = dense_x(equilibrium_cubic().evaluate({"u": u, "v": v}))
        bound = _Point.of(ModelParams(u, v, a, b)).cubic
        ratio = F(bound[-1]) / cubic[-1]
        assert ratio > 0
        assert [F(c) for c in bound] == [ratio * c for c in cubic]

    @pytest.mark.parametrize("name", EXPANDED_FORMS)
    def test_derived_form_matches_its_expansion(self, name):
        derived = getattr(certificates, name)
        assert derived == EXPANDED_FORMS[name]
        assert derived.to_str() == EXPANDED_FORMS[name].to_str()

    def test_what_r_means(self):
        # A stands in for s: R is the product of s - x C'(x) over the roots
        # of the cubic C, and it has a double root in s where u = v
        r = _r_at(A, 1)
        d = COUNT_DISCRIMINANT
        assert r == A**3 + (9 - U * V) * A**2 - d * A + (U * V - 1) * d
        cubic = equilibrium_cubic()
        assert resultant(cubic, A - X * cubic.derivative("x"), "x") == U**3 * V**6 * r
        assert resultant(r, r.derivative("a"), "a") == -64 * U**2 * V**2 * (U - V)**2 * d

    def test_discriminant_is_negative_where_uv_is_at_most_one(self):
        # with p = u v, the last two parts are negative for u, v > 0 and the
        # first is not positive for p <= 1: so D < 0 there.  A count cell
        # with disc > 0 thus has u v > 1, where every coefficient of C(-x)
        # is negative, so C's three real roots are all positive
        p = U * V
        assert COUNT_DISCRIMINANT == (p - 1) * (p + 19) - 8 - 4 * p * (U + V)

    def test_registry(self):
        certs = build_certificates()
        assert len(certs) == 10
        assert certs["count_discriminant"].poly == COUNT_DISCRIMINANT
        assert certs["flip_chain"].poly == FLIP_CHAIN
        assert all(c.role for c in certs.values())


class TestIdentities:
    def test_each_identity_passes(self):
        for name in IDENTITY_NAMES:
            result = verify_identity(name)
            assert result.passed, name
            assert result.difference.is_zero()

    def test_verify_all(self):
        results = verify_all()
        assert len(results) == 11
        assert [r.name for r in results] == list(IDENTITY_NAMES)
        assert all(r.passed for r in results)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            verify_identity("no-such-identity")

    def test_literal_drift_would_be_caught(self, monkeypatch):
        # the derived side comes from resultants, so a perturbed literal
        # cannot silently agree with it
        drifted = FLIP_CHAIN + U * V
        assert drifted.evaluate({"a": 1, "b": 1}) != FLIP_FULL_SPEED
        assert drifted != FLIP_CHAIN
        # nor can a slip in R: with its s^2 coefficient 9 - u v read as
        # 8 - u v, both general-speed chains fail their resultant comparison
        monkeypatch.setattr(certificates, "_R", (_R[0], _R[1], 8 - U * V, _R[3]))
        monkeypatch.setattr(certificates, "FLIP_CHAIN", _r_at(-2 * (2 - A - B), A * B))
        monkeypatch.setattr(certificates, "MODULUS_CHAIN", _r_at(A + B, A * B))
        assert not verify_identity("flip-chain-resultant").passed
        assert not verify_identity("modulus-chain-resultant").passed

    def test_companion_pins_triple_point(self):
        # the discriminant and its companion vanish together only at (3, 3)
        assert _ev(TRIPLE_ROOT_COMPANION, 3, 3) == 0
        assert _ev(COUNT_DISCRIMINANT, 3, 3) == 0
        assert _ev(TRIPLE_ROOT_COMPANION, F(27, 8), 4) != 0


class TestCountClassification:
    def test_golden_points(self):
        assert classify_equilibrium_count(4, 4) is CountClass.THREE_POSITIVE
        assert classify_equilibrium_count(2, 2) is CountClass.ONE_POSITIVE
        assert classify_equilibrium_count(3, 3) is CountClass.ONE_POSITIVE_TRIPLE
        assert classify_equilibrium_count(F(13, 4), F(13, 4)) is CountClass.THREE_POSITIVE
        assert classify_equilibrium_count(F(27, 8), 4) is CountClass.TWO_POSITIVE_BOUNDARY
        assert classify_equilibrium_count("1/2", "1/2") is CountClass.NONE_OR_DEGENERATE
        assert classify_equilibrium_count(2, "1/2") is CountClass.NONE_OR_DEGENERATE

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            classify_equilibrium_count(0, 1)
        with pytest.raises(ValueError):
            classify_equilibrium_count(1, "-2")
        with pytest.raises(TypeError):
            classify_equilibrium_count(1.5, 2)

    def test_matches_enumeration(self):
        expected = {
            CountClass.THREE_POSITIVE: 3,
            CountClass.ONE_POSITIVE: 1,
            CountClass.TWO_POSITIVE_BOUNDARY: 2,
            CountClass.ONE_POSITIVE_TRIPLE: 1,
            CountClass.NONE_OR_DEGENERATE: 0,
        }
        rng = random.Random(47)
        for _ in range(120):
            u = F(rng.randint(1, 48), rng.randint(1, 6))
            v = F(rng.randint(1, 48), rng.randint(1, 6))
            label = classify_equilibrium_count(u, v)
            eqs = equilibria(ModelParams(u, v))
            positive = sum(1 for e in eqs if e.is_positive)
            assert positive == expected[label], (u, v, label)

    def test_sign_constant_segment_keeps_count(self):
        # walking a segment interior to one sign region never changes the count
        for k in range(5):
            t = F(k, 4)
            u = F(7, 2) + t * F(1, 2)  # from (7/2, 7/2) to (4, 4)
            assert COUNT_DISCRIMINANT.evaluate({"u": u, "v": u}).as_fraction() > 0
            assert classify_equilibrium_count(u, u) is CountClass.THREE_POSITIVE
            eqs = equilibria(ModelParams(u, u))
            assert sum(1 for e in eqs if e.is_positive) == 3


class TestStableClassification:
    def test_golden_points(self):
        assert classify_stable_best_response(4, 4) is StableClass.THEOREM_SILENT
        assert classify_stable_best_response(2, 2) is StableClass.ONE_STABLE
        assert classify_stable_best_response(F(13, 4), F(13, 4)) is StableClass.TWO_STABLE
        assert classify_stable_best_response(3, 3) is StableClass.THEOREM_SILENT
        # boundary values stay silent rather than claiming a count
        assert classify_stable_best_response(1, 1) is StableClass.THEOREM_SILENT

    def test_matches_jury_verdicts(self):
        counts = {StableClass.TWO_STABLE: 2, StableClass.ONE_STABLE: 1}
        rng = random.Random(59)
        checked = 0
        for _ in range(150):
            # sample where the sufficient conditions actually bite
            u = F(rng.randint(9, 40), 8)
            v = F(rng.randint(9, 40), 8)
            label = classify_stable_best_response(u, v)
            if label is StableClass.THEOREM_SILENT:
                continue
            p = ModelParams(u, v)
            stable = sum(1 for e in equilibria(p)
                         if e.is_positive and jury_report(e, p).verdict == "stable")
            assert stable == counts[label], (u, v, label)
            checked += 1
        assert checked > 20

    def test_homogeneous_golden(self):
        assert classify_stable_homogeneous(2, 2, 1) is StableClass.ONE_STABLE
        assert classify_stable_homogeneous(2, 2, "1/2") is StableClass.ONE_STABLE
        assert classify_stable_homogeneous(4, 4, "1/2") is StableClass.THEOREM_SILENT
        assert classify_stable_homogeneous("1/2", "1/2", "1/2") is StableClass.THEOREM_SILENT
        with pytest.raises(ValueError):
            classify_stable_homogeneous(2, 2, 0)
        with pytest.raises(ValueError):
            classify_stable_homogeneous(2, 2, 2)

    def test_homogeneous_agrees_with_full_speed_at_one(self):
        rng = random.Random(61)
        for _ in range(80):
            u = F(rng.randint(1, 40), rng.randint(1, 5))
            v = F(rng.randint(1, 40), rng.randint(1, 5))
            hom = classify_stable_homogeneous(u, v, 1)
            full = classify_stable_best_response(u, v)
            if hom is StableClass.ONE_STABLE:
                assert full in (StableClass.ONE_STABLE, StableClass.TWO_STABLE)
            if full is StableClass.ONE_STABLE:
                assert hom is StableClass.ONE_STABLE

    def test_homogeneous_matches_jury(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(120):
            u = F(rng.randint(1, 40), rng.randint(1, 5))
            v = F(rng.randint(1, 40), rng.randint(1, 5))
            a = F(rng.randint(1, 8), 8)
            label = classify_stable_homogeneous(u, v, a)
            if label is StableClass.THEOREM_SILENT:
                continue
            p = ModelParams(u, v, a=a, b=a)
            stable = sum(1 for e in equilibria(p)
                         if e.is_positive and jury_report(e, p).verdict == "stable")
            assert stable == 1, (u, v, a)
            checked += 1
        assert checked > 20


class TestKindTable:
    NAMED = {
        "count": lambda u, v, a: classify_equilibrium_count(u, v),
        "stable": lambda u, v, a: classify_stable_best_response(u, v),
        "homogeneous": classify_stable_homogeneous,
    }
    SPEED = {"count": None, "stable": None, "homogeneous": F(1, 2)}
    POINTS = [(2, 2), (3, 3), (4, 4), (F(13, 4), F(13, 4)), (F(27, 8), 4), ("1/2", "1/2")]

    @pytest.mark.parametrize("kind", KINDS)
    def test_classify_matches_the_named_classifier(self, kind):
        a = self.SPEED[kind]
        for u, v in self.POINTS:
            assert classify(kind, u, v, a) is self.NAMED[kind](u, v, a), (u, v)

    @pytest.mark.parametrize("kind", KINDS)
    def test_speed_rule(self, kind):
        # only the homogeneous kind reads a speed; the others refuse one
        # rather than answer at a = 1
        if kind == "homogeneous":
            with pytest.raises(ValueError, match="need a"):
                classify(kind, 2, 2)
        else:
            with pytest.raises(ValueError, match="take no speed"):
                classify(kind, F(13, 4), F(13, 4), F(1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            classify("bogus", 2, 2)

    def test_every_class_asserts_a_count_or_none(self):
        assert set(EXPECTED_COUNT) == set(EquilibriumCountClass) | set(StableCountClass)
        assert EXPECTED_COUNT[StableCountClass.THEOREM_SILENT] is None
