"""Projection-sized resultants pinned byte for byte.

The digests were recorded from the Sylvester-matrix (Bareiss) resultant,
before the subresultant remainder sequence replaced it.  These are the
eliminations a projection in (u, v) runs: the flip and modulus chains
against each other in v, with a and b free and at b = a, and the flip chain
at b = a against its derivative in v.  A change of elimination route must
leave the canonical text of each result untouched.
"""

import hashlib

import pytest

from kopelcas.certificates import FLIP_CHAIN, MODULUS_CHAIN
from kopelcas.exactpoly import A, resultant

FLIP_HOMOGENEOUS = FLIP_CHAIN.substitute("b", A)
CASES = {
    "flip-modulus-free-speeds": (
        lambda: (FLIP_CHAIN, MODULUS_CHAIN), 536,
        "d1dbd0b3c00d03fae278ea26423c2029971add186ca0d809230d7dfbb8111333"),
    "flip-modulus-at-b-equal-a": (
        lambda: (FLIP_HOMOGENEOUS, MODULUS_CHAIN.substitute("b", A)), 89,
        "b6f63d8b6b8ba1c918ecfba5d5929269a8559b8bc588023b59890e37bfb8ceb0"),
    "flip-against-its-v-derivative-at-b-equal-a": (
        lambda: (FLIP_HOMOGENEOUS, FLIP_HOMOGENEOUS.derivative("v")), 89,
        "64c1d7c6e6c6dfd888893ea63961c0fa5626a0824f9d2cefa198b3b62fc48f4a"),
}


@pytest.mark.parametrize("case", CASES)
def test_projection_resultant_digest(case):
    pair, terms, digest = CASES[case]
    res = resultant(*pair(), "v")
    assert res.num_terms() == terms
    assert hashlib.sha256(res.to_str().encode()).hexdigest() == digest
