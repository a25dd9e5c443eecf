"""verify_all() pairs and the verify-identities output pinned byte for byte.

The digests were recorded with the Fraction-coefficient MPoly layer, before
integral coefficients became ints and the resultant moved to integer
Bareiss elimination.  Every derived side is an exact polynomial, so a change
of coefficient representation or elimination route must leave the canonical
text of each pair untouched.
"""

import hashlib

from kopelcas.certificates import verify_all
from kopelcas.cli import main

PAIRS_DIGEST = "bcaeb3210f023cd8cec0f447b45b962f5d8621ad710e08d0745e9a64c721c5b7"
CLI_DIGESTS = {
    (): "c532ce471af8a6a5048fb5e472d3c37d142105b3f10681860ca16b501a1dcf0d",
    ("--json",): "71afcae04c61ba8d15a8bef26ede081facf8ab6a4b18bf710d39ab3bdd73149c",
}


def test_identity_pair_digest():
    h = hashlib.sha256()
    for result in verify_all():
        for lhs, rhs in result.pairs:
            h.update(f"{lhs.to_str()}|{rhs.to_str()}\n".encode())
    assert h.hexdigest() == PAIRS_DIGEST


def test_verify_identities_output_digest(capsys):
    for flags, expected in CLI_DIGESTS.items():
        assert main(["verify-identities", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == expected
