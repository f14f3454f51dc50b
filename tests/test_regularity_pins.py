"""Pinned regularity decisions and the package's export list.

``is_regular`` decides whether the indeterminacy loci of ``f`` and
``f^-1`` on the hyperplane at infinity meet.  The table below pins its
verdict, method, witness and details for ten maps (Henon maps in
dimensions 3 and 2, the product of two Henon maps on A^4, a triangular
map, shears in dimensions 3 and 4, and the identities in dimensions 2 to
5), and the digests pin the
``verify-map`` JSON reports, both their payload and their compact bytes,
so a change in how the constraint forms are built cannot move a decision
or a report unnoticed.
"""

import hashlib

import pytest

import affdyn
from affdyn.cli import main
from affdyn.dynamics import AffineAutomorphism, is_regular
from affdyn.parsing import parse_map_file

from conftest import bundled_map_text, indented

MAPS = {
    "henon3": bundled_map_text(),
    "henon2": "vars x y\nforward: y | x + y^2\ninverse: y - x^2 | x\n",
    "triangular": "vars x y\nforward: x + y^2 | y\ninverse: x - y^2 | y\n",
    "shear3": "vars x y z\nforward: x | y | z + x^2\ninverse: x | y | z - x^2\n",
    "shear4": "vars a b c e\nforward: a | b | c | e + a^2\ninverse: a | b | c | e - a^2\n",
    "identity2": "vars x y\nforward: x | y\ninverse: x | y\n",
    "identity3": "vars x y z\nforward: x | y | z\ninverse: x | y | z\n",
    "identity4": "vars a b c e\nforward: a | b | c | e\ninverse: a | b | c | e\n",
    "henon_product4": "vars a b c e\nforward: b | a + b^2 | e | c + e^2\n"
                      "inverse: b - a^2 | a | e - c^2 | c\n",
    "identity5": "vars a b c e g\nforward: a | b | c | e | g\ninverse: a | b | c | e | g\n",
}

# (verdict, method, witness, sorted details)
DECISIONS = {
    "henon3": ("regular", "irrelevant-power-elimination", None,
               (("bound", 10), ("saturation_degree", 6))),
    "henon2": ("regular", "irrelevant-power-elimination", None,
               (("bound", 3), ("saturation_degree", 3))),
    "triangular": ("not_regular", "irrelevant-power-elimination", (0, 1, 0),
                   (("bound", 3), ("reason", "no saturation up to the degree bound"),
                    ("witness_verified", True))),
    "shear3": ("not_regular", "irrelevant-power-elimination", (0, 0, 0, 1),
               (("reason", "fewer than 3 constraints"), ("witness_verified", True))),
    "shear4": ("not_regular", "irrelevant-power-elimination", (0, 0, 0, 0, 1),
               (("reason", "fewer than 4 constraints"), ("witness_verified", True))),
    "identity2": ("regular", "irrelevant-power-elimination", None,
                  (("bound", 1), ("saturation_degree", 1))),
    "identity3": ("regular", "irrelevant-power-elimination", None,
                  (("bound", 1), ("saturation_degree", 1))),
    "identity4": ("regular", "irrelevant-power-elimination", None,
                  (("bound", 1), ("saturation_degree", 1))),
    "henon_product4": ("regular", "irrelevant-power-elimination", None,
                       (("bound", 5), ("saturation_degree", 5))),
    "identity5": ("regular", "irrelevant-power-elimination", None,
                  (("bound", 1), ("saturation_degree", 1))),
}

# sha256 of ``verify-map MAP --out report.json``, re-indented by
# ``conftest.indented``: the payload pinned since reports were indented.
REPORT_DIGESTS = {
    "henon3": "1b3e1bda24ca831c9ef99d1da9843c1eb4c2c7be6009398b4b9c47e029b9e89b",
    "henon2": "5c27352c162a7da53a9d65d785d275105df5d059e9beee097ca9316912c49091",
    "triangular": "f4d7339cb1a24e6ae1d92777da124f6a15b4c44b0fc7a5e82dcc9c334e1d7bbf",
    "shear3": "9cc5208b12545b1e5deb3ef91fb3a624893d31aa448c08e23ad56a3f9d1a1c3c",
    "shear4": "f3dfdf19eed8fee98c3d422fa506c8e69752b560e3cb7bc034e7f3a785984c89",
    "identity2": "18f99899864c5245ff278c975c8c1f893d1ba0a9c150bdabcba10404807f1003",
    "identity3": "33d35595531e022aaf4bf72ee5399c4a0ffe3fae2afed64e23802312760a5642",
    "identity4": "3df8c0aba839f2359f6ebe00296d737e0284ae941f9e77fa785a1c0f2ec5902a",
    "henon_product4": "0b7454493d46e28a5986c0937ff1f8d8c2aded4b3a94cc34fe82b4925b5ad25d",
    "identity5": "c31459794c4efd0131e15364023d7397114bdb054b18e308c32cfb52435d454c",
}

# sha256 of the same reports as written: compact and key-sorted.
COMPACT_DIGESTS = {
    "henon3": "4913d1fc1494098a820104c8be416cb76ccc6336d91da024503eb27c304e0ad9",
    "henon2": "ed621cb34af6e25f5036dfa1bdc35e3b858b4534d5b9bacc756cbf68d6f3cfab",
    "triangular": "6a747fb4e47749c22a5a26b3de4c9c18babeaca18597ea51b42f3d0794817a51",
    "shear3": "88ec012f3d722eb8091222fe7e1fb2d0e043c5652330e8f1c539e7a1c7cdc789",
    "shear4": "88988d19b482115f8e6a590146a82f438e29153e2be9ad049a3be06b875f6102",
    "identity2": "4632e9826ba10030df2617481f89b755260090154dbaa1a2664254498d1079f6",
    "identity3": "5fc42d9f19ecea0ee79ec5a5c56017194ca1f09ea7497816bc42980ff26d3fd9",
    "identity4": "4b85a9025d0b191bbd7d15ea0e8304452b0907eaa6b0fd52d5b8522557c0b0d9",
    "henon_product4": "253d61367a514af160676be5788be1e121e2e5ab10b71cfef0957dcfa9aebb93",
    "identity5": "3f47897a0143617bc4997b089c532a99b9f74fb9b7f19c9cdd8ee60438ae5442",
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
    report = out.read_bytes()
    assert hashlib.sha256(indented(report)).hexdigest() == REPORT_DIGESTS[name]
    assert hashlib.sha256(report).hexdigest() == COMPACT_DIGESTS[name]


def test_every_export_resolves():
    for name in affdyn.__all__:
        getattr(affdyn, name)  # AttributeError names a stale export
