"""The record classes behave as values: equality, hash, repr, immutability and copies."""

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from kopelcas import (
    AlgebraicReal, IdentityResult, ModelParams, NamedCertificate, ScanCell, ScanGrid, ScanSpec,
    StabilityReport, State, Trajectory, build_certificates, model, verify_identity,
)
from kopelcas.record import FrozenRecord, Record

CUT = build_certificates()["stable_cut_linear"].poly

# each frozen record built twice from equal inputs, in different spellings,
# and the field an assignment is tried on
FROZEN = [
    (lambda: ModelParams("1/2", 3), lambda: ModelParams(F(1, 2), F(3), 1, F(1)), "u"),
    (lambda: State(0.25, 0.5), lambda: State(0.25, 0.5), "x"),
    (lambda: ScanSpec((1, 2), ("1", "2"), 3), lambda: ScanSpec((F(1), 2), (1, F(2)), 3), "resolution"),
    (lambda: ScanSpec((1, 2), (1, 2), 3, a_value="1/2"),
     lambda: ScanSpec((1, 2), (1, 2), 3, F(1, 2)), "a_value"),
    (lambda: ScanCell(F(1), F(2), None, "ThreePositive", 3, 1, True, False),
     lambda: ScanCell(F(1), F(2), None, "ThreePositive", 3, 1, True, False), "agree"),
    (lambda: NamedCertificate("cut", CUT, "a cut"),
     lambda: NamedCertificate("cut", CUT, "a cut"), "poly"),
    (lambda: IdentityResult("cubic-at-one", True, ((CUT, CUT),)),
     lambda: IdentityResult("cubic-at-one", True, ((CUT, CUT),)), "passed"),
]
IDS = ["ModelParams", "State", "ScanSpec", "ScanSpec-speed", "ScanCell", "NamedCertificate",
       "IdentityResult"]


@pytest.mark.parametrize("make, twin, field", FROZEN, ids=IDS)
class TestFrozenRecords:
    def test_equal_inputs_give_equal_values_and_hashes(self, make, twin, field):
        first, second = make(), twin()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_assignment_is_refused(self, make, twin, field):
        record = make()
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_round_trip(self, make, twin, field, clone):
        record = make()
        cloned = clone(record)
        assert type(cloned) is type(record)
        assert cloned == record and hash(cloned) == hash(record)

    def test_other_classes_never_compare_equal(self, make, twin, field):
        record = make()
        assert record != (getattr(record, field),)
        assert record != object()


def test_a_different_field_breaks_equality():
    assert ModelParams(1, 2) != ModelParams(1, 2, "1/2")
    assert State(0.25, 0.5) != State(0.5, 0.25)
    assert ScanSpec((1, 2), (1, 2), 3) != ScanSpec((1, 2), (1, 2), 4)
    assert verify_identity("cubic-at-one") != verify_identity("cubic-at-origin")


def test_model_params_fill_in_full_speed_and_check_their_inputs():
    params = ModelParams("1/2", 3)
    assert (params.u, params.v, params.a, params.b) == (F(1, 2), F(3), F(1), F(1))
    assert all(type(q) is F for q in (params.u, params.v, params.a, params.b))
    assert ModelParams(u=1, v=2, b="1/4") == ModelParams(1, 2, 1, F(1, 4))
    with pytest.raises(TypeError):
        ModelParams(0.5, 3)
    with pytest.raises(TypeError):
        ModelParams(1, 2, b=0.5)
    for speeds in ((0, 1), (1, 0), (F(3, 2), 1), (1, -1)):
        with pytest.raises(ValueError):
            ModelParams(1, 2, *speeds)
    with pytest.raises(ValueError):
        ModelParams(0, 2)


def test_reprs_name_every_field():
    assert repr(ModelParams("1/2", 3)) == (
        "ModelParams(u=Fraction(1, 2), v=Fraction(3, 1), a=Fraction(1, 1), b=Fraction(1, 1))")
    assert repr(State(0.25, 0.5)) == "State(x=0.25, y=0.5)"
    assert repr(ScanSpec((1, 2), (1, 2), 3)) == (
        "ScanSpec(u_range=(Fraction(1, 1), Fraction(2, 1)), "
        "v_range=(Fraction(1, 1), Fraction(2, 1)), resolution=3, a_value=None)")
    assert repr(ScanCell(F(1), F(2), None, "X", 1, 0, True, False)) == (
        "ScanCell(u=Fraction(1, 1), v=Fraction(2, 1), a=None, cert_class='X', "
        "numeric_positive=1, numeric_stable=0, agree=True, near_boundary=False)")
    assert repr(NamedCertificate("cut", CUT, "a cut")) == (
        "NamedCertificate(name='cut', poly=MPoly('u*v - 15'), role='a cut')")
    assert repr(verify_identity("cubic-at-one")) == (
        "IdentityResult(name='cubic-at-one', passed=True, pairs=((MPoly('1'), MPoly('1')),))")
    assert repr(Trajectory([State(0.0, 0.0)], False, None)) == (
        "Trajectory(states=[State(x=0.0, y=0.0)], left_unit_square=False, diverged_at=None)")


@pytest.mark.parametrize("make, field", [
    (lambda: Trajectory([State(0.0, 0.0)], False, None), "diverged_at"),
    (lambda: StabilityReport((1, 1, 1), (0.5, 1.5, 0.25), 0.5, 0.75, (0.9, 0.8), "stable"),
     "verdict"),
    (lambda: ScanGrid(ScanSpec((1, 2), (1, 2), 2), "count", []), "cells"),
], ids=["Trajectory", "StabilityReport", "ScanGrid"])
def test_mutable_records_compare_by_value_and_are_unhashable(make, field):
    record, twin = make(), make()
    assert record == twin
    with pytest.raises(TypeError):
        hash(record)
    setattr(twin, field, 1)
    assert getattr(twin, field) == 1 and record != twin
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


# every record class, for the constructor checks below
RECORDS = (ModelParams, State, Trajectory, StabilityReport, NamedCertificate, IdentityResult,
           ScanSpec, ScanCell, ScanGrid)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_wrong_field_count_is_a_type_error_naming_the_class(cls):
    n = len(cls.__slots__)
    # ModelParams and ScanSpec default their last fields, so n - 1 is a valid call there
    counts = (0, n + 1) if cls.__init__ is not cls._set_fields else (0, n - 1, n + 1)
    for count in counts:
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
            cls(*[1] * count)


def test_only_records_that_check_their_inputs_write_a_constructor():
    classes = {*Record.__subclasses__(), *FrozenRecord.__subclasses__()} - {FrozenRecord}
    assert classes == set(RECORDS)
    for cls in classes:
        setter = cls._set_fields
        # the setter is generated, one line per field, and is no other class's
        assert setter.__code__.co_filename == f"<record {cls.__name__}>"
        assert list(inspect.signature(setter).parameters) == ["self", *cls.__slots__]
        # a class body writes __init__ only where the inputs are checked;
        # every other record's constructor is its generated setter
        written = cls.__init__.__code__.co_filename == inspect.getsourcefile(cls)
        assert written == (cls in (ModelParams, ScanSpec))
        assert written == (cls.__init__ is not setter)
    assert Record.__init__.__code__.co_filename == inspect.getsourcefile(Record)


def test_equilibrium_flags_and_y_are_computed_once(monkeypatch):
    queries = []
    for name in ("_sign_dense_at", "_image"):
        query = getattr(model, name)
        monkeypatch.setattr(model, name,
                            lambda *args, _name=name, _query=query: queries.append(_name)
                            or _query(*args))
    compare = AlgebraicReal.compare_rational
    monkeypatch.setattr(AlgebraicReal, "compare_rational",
                        lambda self, q: queries.append("compare") or compare(self, q))
    # the flags are set when a fixed point is built, y on its first read
    eqs = model.equilibria(ModelParams("13/4", "13/4", "1/4", "1/2"))
    queries.clear()
    flags = [(eq.is_positive, eq.in_unit_square) for eq in eqs]
    assert flags == [(False, True)] + [(True, True)] * 3
    assert queries == []
    for eq in eqs:
        first = eq.y_root
        assert queries
        queries.clear()
        assert eq.y_root is first
        assert queries == []
