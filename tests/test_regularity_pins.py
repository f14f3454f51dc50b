"""Pinned regularity decisions and the package's export list.

``is_regular`` decides whether the indeterminacy loci of ``f`` and
``f^-1`` on the hyperplane at infinity meet.  The table below pins its
verdict, method, witness and details for fourteen maps (the bundled
Henon-type family in dimensions 3, 4 and 5, the Henon map in dimension
2, the product of two Henon maps on A^4, a triangular map, shears in
dimensions 3, 4 and 6, the identities in dimensions 2 to 5, and ``far2``,
whose locus ``(7:1)`` lies outside the witness search bound), and the
digests pin the ``verify-map`` JSON reports, both their payload and their
compact bytes, so a change in how the constraint forms are built or
eliminated cannot move a decision or a report unnoticed.  The dense
exact rank of ``oracles`` checks the sparse elimination on every map but
``henon5``, whose dense rows at degree 20 take minutes.
"""

import hashlib

import pytest

import affdyn
from affdyn.cli import main
from affdyn.dynamics import AffineAutomorphism, is_regular
from affdyn.parsing import parse_map_file

from conftest import assert_sparse_rank_matches_dense, bundled_map_text, indented

MAPS = {
    "henon3": bundled_map_text(),
    "henon4": bundled_map_text("henon4"),
    "henon5": bundled_map_text("henon5"),
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
    "shear6": "vars a b c e g k\nforward: a | b | c | e | g | k + a^2\n"
              "inverse: a | b | c | e | g | k - a^2\n",
    "far2": "vars x y\nforward: x + 7*(x - 7*y)^2 | y + (x - 7*y)^2\n"
            "inverse: x - 7*(x - 7*y)^2 | y - (x - 7*y)^2\n",
}

# (verdict, method, witness, sorted details)
DECISIONS = {
    "henon3": ("regular", "irrelevant-power-elimination", None,
               (("bound", 10), ("saturation_degree", 6))),
    "henon4": ("regular", "irrelevant-power-elimination", None,
               (("bound", 29), ("saturation_degree", 11))),
    "henon5": ("regular", "irrelevant-power-elimination", None,
               (("bound", 76), ("saturation_degree", 20))),
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
    "shear6": ("not_regular", "irrelevant-power-elimination", (0, 0, 0, 0, 0, 0, 1),
               (("reason", "fewer than 6 constraints"), ("witness_verified", True))),
    "far2": ("not_regular", "irrelevant-power-elimination", None,
             (("bound", 3), ("reason", "no saturation up to the degree bound"),
              ("witness_search_bound", 6))),
}

# sha256 of ``verify-map MAP --out report.json``, re-indented by
# ``conftest.indented``.  Re-recorded when the report lost its ``seed`` key
# (``verify-map`` takes no seed): each payload is the earlier one without it.
# The ``henon4`` digests were recorded with the dense rank, before the rows
# became sparse; ``henon5``'s with the sparse rows, as the dense rank takes
# about five minutes there.
REPORT_DIGESTS = {
    "henon3": "e37611b9d51bbc32e63ebc5b17841248d9a5928a16e8ed78aade5576dfe8982a",
    "henon4": "ae5e355cb8b57ba75cac13d40f486d1456e1387718f3a604dee0e77cbaaa56af",
    "henon5": "2e5df4eb638a0c583031dffacb2105e96eb68fc5983ba2ad0d4efd3becd0338d",
    "henon2": "4d1b289d079fc8cf4067848590e9f8a5798b91a8039976dbf7774203522afdc5",
    "triangular": "9550562256c8c1ced4bc03eb1871af1ac99af08ead5711c7db3d885db9e981d4",
    "shear3": "5038a619ef8a1edca4ccd379ba39d9f00ba7e2e597c11598fb0cb040a55e96fc",
    "shear4": "d65227cb1d52cec76926b06b284718502de7ca9b3c237b32ecdaf814f14d1e73",
    "identity2": "75fbc65209d43379a1e96566d79f3e36cb90cff13f98c61ecd4527235ab88a73",
    "identity3": "d90cd2b31f2714abd300e5a23f5490e76cd80da48eb21904fdf646a05897b9db",
    "identity4": "5522189484be84dd4f17e844fc09ff13dc9d659898368e1be36ed0bab2f4454b",
    "henon_product4": "ab8f1c9babc1410de213a02bc807d625ce5409cd2e778008ec4dce61cef2a78d",
    "identity5": "7b64ca335820d133edcc3b74116b4c7b8c0088712c64243cc28849c92f9c463b",
    "shear6": "1351967cd6331b7cddc9b78cfc000e7c893c06dd096ce6945722df3926e154b6",
    "far2": "6c99cf9950041f252bb9bda6cb20385059d33e668d2a5f98f6d29e0200ccc25d",
}

# sha256 of the same reports as written: compact and key-sorted.
COMPACT_DIGESTS = {
    "henon3": "a81caa28c064458c54ad6b839c8dded48b6b0380728eec053cbec1b8a547772f",
    "henon4": "1e7b4c6cbf8836d8008c9d83faa8d75551b8f07e232cd0d76667f4a7de3de8a5",
    "henon5": "7dc103ec268a70898a31691249ae38a148498f8227c54b3694f8ed85aa9eae12",
    "henon2": "96d67c6b89379c2396c0292a0a5a628137a5cfc342589c31b71470039ce9347d",
    "triangular": "a181370a23a18ebb0a66d1ee7fbf3943a1f284fd5883521b1c0d27d3f6ab7d47",
    "shear3": "c5369ef1489f6ec0c85237488a9dd1a57b4d2d36ad943cc08901c2011fcb9f33",
    "shear4": "e23d7f7c5129b8c6e1c707b23feab605854e45916d6265cfb9cb22c4189fd9a4",
    "identity2": "fbb831b7bf14b91f5e431f7449825f2991dec77b3c4229b4d2e3e83eb3251132",
    "identity3": "8fcd5d657492404149885327363bacbc55895814b23fc34936feac79f0be95f0",
    "identity4": "1c06456741f87ec94e7a7efd9af5a86ff40cbd333f2a482060c462a5b587093d",
    "henon_product4": "c8e3d98a6fb2828b9e8bf781ed15551a5b58837679008610120650a07e71e28f",
    "identity5": "c41ef787d517be443e9c3070415d5547cef6af76d6d1aef43ccc1c64129b5e19",
    "shear6": "8d70c4b0aeab7aaaebe57a599116e41c8dd310f6242c6f18f27fc1521e1f6b4f",
    "far2": "248d13f2197eeb227a357310e80b73e366d523f1f5973c10b5858dc88419e0b2",
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


@pytest.mark.parametrize("name", sorted(set(MAPS) - {"henon5"}))
def test_sparse_rank_matches_dense_rank(name):
    assert_sparse_rank_matches_dense(automorphism(name))


def test_every_export_resolves():
    for name in affdyn.__all__:
        getattr(affdyn, name)  # AttributeError names a stale export
