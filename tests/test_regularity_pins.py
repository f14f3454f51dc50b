"""Pinned regularity decisions and the package's export list.

``is_regular`` decides whether the indeterminacy loci of ``f`` and
``f^-1`` on the hyperplane at infinity meet.  The table below pins its
verdict, method, witness and details for eight maps (Henon maps in
dimensions 3 and 2, a triangular map, shears in dimensions 3 and 4, and
the identities in dimensions 2 to 4), and the digests pin the
``verify-map`` JSON reports, so a change in how the constraint forms are
built cannot move a decision or a report unnoticed.
"""

import hashlib

import pytest

import affdyn
from affdyn.cli import main
from affdyn.dynamics import AffineAutomorphism, is_regular
from affdyn.parsing import parse_map_file

from conftest import bundled_map_text

MAPS = {
    "henon3": bundled_map_text(),
    "henon2": "vars x y\nforward: y | x + y^2\ninverse: y - x^2 | x\n",
    "triangular": "vars x y\nforward: x + y^2 | y\ninverse: x - y^2 | y\n",
    "shear3": "vars x y z\nforward: x | y | z + x^2\ninverse: x | y | z - x^2\n",
    "shear4": "vars a b c e\nforward: a | b | c | e + a^2\ninverse: a | b | c | e - a^2\n",
    "identity2": "vars x y\nforward: x | y\ninverse: x | y\n",
    "identity3": "vars x y z\nforward: x | y | z\ninverse: x | y | z\n",
    "identity4": "vars a b c e\nforward: a | b | c | e\ninverse: a | b | c | e\n",
}

# (verdict, method, witness, sorted details)
DECISIONS = {
    "henon3": ("regular", "irrelevant-power-elimination", None,
               (("bound", 10), ("saturation_degree", 6))),
    "henon2": ("regular", "binary-form-gcd", None,
               (("gcd_degree", 0), ("zero_at_(1:0)", False))),
    "triangular": ("not_regular", "binary-form-gcd", (0, 1, 0),
                   (("gcd_degree", 0), ("witness_verified", True), ("zero_at_(1:0)", True))),
    "shear3": ("not_regular", "irrelevant-power-elimination", (0, 0, 0, 1),
               (("reason", "fewer than three constraints"), ("witness_verified", True))),
    "shear4": ("not_regular", "monte-carlo", (0, 0, 4, 5, -2),
               (("seed", 0), ("trials", 5000))),
    "identity2": ("regular", "binary-form-gcd", None,
                  (("gcd_degree", 0), ("zero_at_(1:0)", False))),
    "identity3": ("regular", "irrelevant-power-elimination", None,
                  (("bound", 1), ("saturation_degree", 1))),
    "identity4": ("undetermined", "monte-carlo", None, (("seed", 0), ("trials", 5000))),
}

# sha256 of ``verify-map MAP --out report.json``
REPORT_DIGESTS = {
    "henon3": "1b3e1bda24ca831c9ef99d1da9843c1eb4c2c7be6009398b4b9c47e029b9e89b",
    "henon2": "d128875d7e15f6ecf2e40d7d4e5a6f44ad80ceb2bd0f42f1da11470bbf9b3701",
    "triangular": "1d2e011e49f1e7d100ab2cdd77900e42d6f063e7dd066858c7e08afef59a6025",
    "shear3": "b97902c9fdf1f8a71ac090d86aec3608c995d68f020ea35511b8f70d98c3c9ee",
    "shear4": "cd3b272a4dd1e3a1f786b47a989606fbb57fc4e527f74d6f8eab14625cce1e19",
    "identity2": "9152f449c7b7e2957f1812005f1945a286810026d09ed76917ebe9274f35bf0c",
    "identity3": "33d35595531e022aaf4bf72ee5399c4a0ffe3fae2afed64e23802312760a5642",
    "identity4": "115cb3f99a0c7639a29b8977e8e5e0edce5915982d9dd6db18c4776e6e78f5c6",
}


def automorphism(name: str) -> AffineAutomorphism:
    mf = parse_map_file(MAPS[name])
    return AffineAutomorphism(mf.forward, mf.inverse, mf.names)


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_decision_is_pinned(name):
    result = is_regular(automorphism(name))
    pin = (result.verdict, result.method, result.witness, tuple(sorted(result.details.items())))
    assert pin == DECISIONS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_verify_map_report_is_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.map"
    path.write_text(MAPS[name])
    out = tmp_path / "report.json"
    assert main(["verify-map", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_DIGESTS[name]


def test_every_export_resolves():
    for name in affdyn.__all__:
        getattr(affdyn, name)  # AttributeError names a stale export
