"""The package's exports: every name in kopelcas.__all__ resolves, and none is retired."""

import ast
import importlib
import re
from pathlib import Path

import kopelcas

# (module, name) of public functions removed because nothing in the package,
# its CLI or its benchmark called them
RETIRED = (("exactpoly", "parse_poly"), ("realroots", "algebraic_image"),
           ("realroots", "refine"), ("model", "triangular_system"),
           ("certificates", "all_identities_hold"), ("exactpoly", "gcd_univariate"),
           ("model", "all_stay_in_unit_square"), ("exactpoly", "exact_divide"))


def test_every_exported_name_resolves():
    assert len(set(kopelcas.__all__)) == len(kopelcas.__all__)
    for name in kopelcas.__all__:
        assert getattr(kopelcas, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from kopelcas import *", namespace)
    assert set(kopelcas.__all__) <= set(namespace)


def test_retired_names_are_neither_exported_nor_defined():
    for module, name in RETIRED:
        assert name not in kopelcas.__all__, name
        assert not hasattr(kopelcas, name), name
        assert not hasattr(importlib.import_module(f"kopelcas.{module}"), name), name
    # the root method of the module-level wrapper's name stays; the root's
    # MPoly, which only tests read, is gone
    assert callable(kopelcas.AlgebraicReal.refine)
    assert not hasattr(kopelcas.AlgebraicReal, "defining_poly")


def _project_dependencies(text):
    """The [project] table's dependencies array, read from the TOML text.

    Python 3.10 has no tomllib; the array holds only quoted strings, so past
    its comments it is a Python literal.
    """
    table = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    value = re.search(r"^dependencies\s*=\s*(\[.*?\])", table, re.M | re.S).group(1)
    return ast.literal_eval(re.sub(r"#.*", "", value))


def test_the_package_declares_no_runtime_dependency():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert _project_dependencies(text) == []
