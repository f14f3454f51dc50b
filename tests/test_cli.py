import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest

from affdyn import cli, kernel
from affdyn.cli import main
from affdyn.inequality import DeltaReport

from conftest import LEDGER_PATHS, bundled_map_text, indented


@pytest.fixture()
def henon_map(tmp_path):
    path = tmp_path / "henon3.map"
    path.write_text(bundled_map_text())
    return str(path)


@pytest.fixture()
def datum_paths(tmp_path):
    out = []
    for source in LEDGER_PATHS:
        path = tmp_path / source.name
        path.write_text(source.read_text())
        out.append(str(path))
    return out


class TestVerifyMap:
    def test_henon(self, henon_map, capsys):
        assert main(["verify-map", henon_map]) == 0
        out = capsys.readouterr().out
        assert "regular, d=2, d'=4" in out

    def test_identity(self, tmp_path, capsys):
        path = tmp_path / "ident.map"
        path.write_text("vars x y\nforward: x | y\ninverse: x | y\n")
        assert main(["verify-map", str(path)]) == 0
        assert "regular, d=1, d'=1" in capsys.readouterr().out

    def test_triangular_reports_witness(self, tmp_path, capsys):
        path = tmp_path / "tri.map"
        path.write_text("vars x y\nforward: x + y^2 | y\ninverse: x - y^2 | y\n")
        assert main(["verify-map", str(path)]) == 0
        out = capsys.readouterr().out
        assert "not_regular" in out and "witness" in out

    def test_bad_inverse_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.map"
        path.write_text(
            "vars x y z\nforward: y | z + y^2 | x + z^2\n"
            "inverse: z - (y - x^2) | x | y - x^2\n"
        )
        for argv in (
            ["verify-map", str(path)],
            ["orbit", str(path), "--point", "1,1,1", "--depth", "2"],
            ["canonical", str(path), "--point", "1,1,1", "--depth", "2"],
            ["inequality", str(path), "--sampler", "box:1"],
        ):
            assert main(argv) == 1, argv[0]
            assert "inverse verification failed" in capsys.readouterr().err

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.map"
        path.write_text("vars x y\nforward: x + | y\ninverse: x | y\n")
        assert main(["verify-map", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_inverse_block_exits_two(self, tmp_path, capsys):
        partial = tmp_path / "partial.map"
        partial.write_text("vars x y\nforward: x + y^2 | y\n")
        for argv in (
            ["verify-map", str(partial)],
            ["orbit", str(partial), "--point", "1,1", "--depth", "2"],
            ["canonical", str(partial), "--point", "1,1", "--depth", "2"],
            ["inequality", str(partial), "--sampler", "box:1"],
        ):
            assert main(argv) == 2, argv[0]
            assert capsys.readouterr() == ("", "error: missing inverse block\n"), argv[0]


class TestOrbit:
    def test_json_report(self, henon_map, tmp_path, capsys):
        out = tmp_path / "orbit.json"
        code = main(
            ["orbit", henon_map, "--point", "1,1,1", "--depth", "4", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["points"] == ["1,1,1", "1,2,2", "2,6,5", "6,41,27", "41,1708,735"]
        assert not report["truncated"]

    def test_byte_identical_reruns(self, henon_map, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["orbit", henon_map, "--point", "1,1,1", "--depth", "6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, henon_map, tmp_path):
        out = tmp_path / "orbit.csv"
        main(
            ["orbit", henon_map, "--point", "0,0,0", "--depth", "2",
             "--format", "csv", "--out", str(out)]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "step,point,height"
        assert len(lines) == 4

    def test_budget_flag(self, henon_map, tmp_path):
        out = tmp_path / "orbit.json"
        main(
            ["orbit", henon_map, "--point", "1,1,1", "--depth", "40",
             "--bit-budget", "64", "--out", str(out)]
        )
        report = json.loads(out.read_text())
        assert report["truncated"] and report["completed_depth"] < 40


class TestHeightAndCanonical:
    def test_height(self, tmp_path):
        out = tmp_path / "h.json"
        assert main(["height", "--point", "1/2,3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["height_integer"] == 6

    def test_canonical(self, henon_map, tmp_path):
        out = tmp_path / "c.json"
        code = main(
            ["canonical", henon_map, "--point", "1,1,1", "--depth", "8", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["value"] - 0.4659) < 1e-3
        assert report["plus"]["step_height_integers"][:5] == [1, 2, 6, 41, 1708]
        assert sorted(report) == [
            "certified", "map_id", "minus", "plus", "point", "tail_bound", "value",
        ]

    def test_canonical_fixed_point(self, henon_map, tmp_path):
        out = tmp_path / "c0.json"
        main(["canonical", henon_map, "--point", "0,0,0", "--depth", "4", "--out", str(out)])
        assert json.loads(out.read_text())["value"] == 0.0

    def test_canonical_fixed_point_past_the_float_range(self, henon_map, tmp_path):
        # 2.0**1024 (forward) and 4.0**512 (inverse) overflow a float.
        out = tmp_path / "c1100.json"
        code = main(
            ["canonical", henon_map, "--point", "0,0,0", "--depth", "1100", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["value"] == 0.0 and report["tail_bound"] == 0.0
        assert report["plus"]["depth"] == report["minus"]["depth"] == 1100

    def test_canonical_needs_stopping_rule(self, henon_map):
        # The depth is the one stopping rule: argparse requires it.
        with pytest.raises(SystemExit) as err:
            main(["canonical", henon_map, "--point", "1,1,1"])
        assert err.value.code == 2


class TestInequality:
    def test_box_sampler_passes(self, henon_map, tmp_path, capsys):
        out = tmp_path / "ineq.json"
        code = main(
            ["inequality", henon_map, "--sampler", "box:3", "--out", str(out)]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["stabilized"] and report["count"] == 343

    def test_multiple_samplers(self, henon_map, capsys):
        code = main(
            ["inequality", henon_map, "--sampler", "box:1",
             "--sampler", "orbit:4:(1,1,1);(0,1,2)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS: ") and out.endswith(
            " over 37 points (0 skipped); sample below warmup; stabilization not evaluated\n"
        )

    def test_random_bounds_read_like_rationals(self, henon_map, tmp_path, capsys):
        # random:COUNT:N means random:COUNT:N:3, as rationals:N means rationals:N:3.
        reports = []
        for spec in ("random:100:5", "random:100:5:3"):
            out = tmp_path / "report.json"
            assert main(["inequality", henon_map, "--sampler", spec, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        for spec in ("rationals:5:3:9", "random:100:5:3:9"):
            assert main(["inequality", henon_map, "--sampler", spec]) == 2

    def test_bad_sampler_exits_two(self, henon_map, capsys):
        assert main(["inequality", henon_map, "--sampler", "carrots:1"]) == 2

    @pytest.mark.parametrize("seed", ["(1,1)", "(1,1,1,1)"])
    def test_orbit_seed_of_wrong_dimension_exits_two(self, henon_map, capsys, seed):
        argv = ["inequality", henon_map, "--sampler", f"orbit:2:{seed}"]
        assert main(argv) == 2
        count = seed.count(",") + 1
        assert capsys.readouterr().err == (
            f"error: bad sampler spec 'orbit:2:{seed}': "
            f"point has {count} coordinates, expected 3\n"
        )

    def test_unstable_verdict_exits_one(self, henon_map, capsys):
        code = main(
            ["inequality", henon_map, "--sampler", "random:64:50:20", "--sampler", "box:1"]
        )
        assert code == 1
        assert capsys.readouterr().out == (
            "FAIL: min_delta=0.0 over 91 points (0 skipped); "
            "min moved 1.55186 between the last two checkpoints\n"
        )

    def test_empty_sample_exits_one(self, henon_map, capsys):
        # No denominator allowed: the value table is empty, nothing is drawn.
        argv = ["inequality", henon_map, "--sampler", "rationals:5:0"]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "FAIL: min_delta=nan over 0 points (0 skipped); "
            "the sample kept no point; nothing to verify\n"
        )

    @pytest.mark.parametrize("spec", ["random:5:3:0", "random:5:-1:3"])
    def test_empty_value_table_draws_nothing(self, henon_map, capsys, spec):
        # The random sampler draws from the same table: none, so no point.
        argv = ["inequality", henon_map, "--sampler", spec]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "FAIL: min_delta=nan over 0 points (0 skipped); "
            "the sample kept no point; nothing to verify\n",
            "",
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("box:-1", "box bound must be non-negative, got -1"),
            ("random:-2:3:3", "random sampler count must be non-negative, got -2"),
        ],
    )
    def test_out_of_range_sampler_exits_two(self, henon_map, capsys, spec, message):
        argv = ["inequality", henon_map, "--sampler", spec]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad sampler spec {spec!r}: {message}\n"

    def test_unknown_flag_rejected(self, henon_map):
        for argv in (
            ["inequality", henon_map, "--frobnicate"],
            ["orbit", henon_map, "--point", "1,1,1", "--depth", "2", "--seed", "1"],
            ["height", "--point", "1,2", "--bit-budget", "3"],
            ["verify-map", henon_map, "--format", "csv"],
            ["canonical", henon_map, "--point", "1,1,1", "--depth", "2", "--convention", "sum"],
            ["canonical", henon_map, "--point", "1,1,1", "--depth", "2", "--tolerance", "1e-4"],
            ["verify-map", henon_map, "--trust-inverse", henon_map],
            ["inequality", henon_map, "--silverman"],
            ["inequality", henon_map, "--assume-regular"],
            ["inequality", henon_map, "--slack", "0.1"],
            ["inequality", henon_map, "--warmup", "8"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv

    def test_reports_match_pinned_digests(self, henon_map, tmp_path, capsys):
        # sha256 of the report files and the verdict lines, recorded before
        # points were kept in (nums, den) form from sampler to report; the
        # two random mixes were recorded while the random sampler still drew
        # Fractions.  A JSON report has two: of its payload in the indented
        # layout, as pinned then, and of its compact bytes.
        seeds = "(1,1,1);(1/2,0,-1)"
        box_minimum = "-0.23048443379588357"
        mixes = {
            "200 bits": (
                ["--sampler", "box:3", "--sampler", "rationals:2:2",
                 "--sampler", f"orbit:6:{seeds}", "--bit-budget", "200"],
                "over 700 points (0 skipped)",
                box_minimum,
                {
                    "json": "948898075966a9051ea5264443b377796d26f5679a6bad67525f91ab79817770",
                    "json compact": "c94c54e9fb32d03ffe43b623f6b54ec1025455945843a24c4e504244a4a30270",
                    "csv": "ac64a6aa7df320f46715462efbf6e4d284aa5083dae9a9475e58fdc21160eded",
                },
            ),
            "24 bits": (
                ["--sampler", "box:6", "--sampler", "rationals:3:3",
                 "--sampler", f"orbit:12:{seeds}", "--bit-budget", "24"],
                "over 5581 points (2 skipped)",
                box_minimum,
                {
                    "json": "ee3209f627b628eb19c4a8592196fef4fd51817d72e528fcfaaa39159766dde4",
                    "json compact": "a706214cadffe6069e4efd3ae6030524c674990e056a87cc3d65e2728f753e18",
                    "csv": "53260dc9dedda9e16b8a3020e6d4c7e3b4135f5d67af74ff6f0e17b487edb0fe",
                },
            ),
            "random 50:20": (
                ["--sampler", "random:2000:50:20", "--seed", "3"],
                "over 2000 points (0 skipped)",
                "0.42230347696509885",
                {
                    "json": "3b66e7ac3c4ad0ad13a6e385adf9cf11fa48fd03c72e92167f120937d2b55dd8",
                    "json compact": "ed9007431f1f8963db521db4b597948760f1c02073afb68458bf7789053007e6",
                    "csv": "68daeb75fa37e45661f9c54a84550853482b77e0585365b55d4b43b4a4303bfb",
                },
            ),
            "random 5:3": (
                ["--sampler", "random:300:5:3", "--seed", "0"],
                "over 300 points (0 skipped)",
                box_minimum,
                {
                    "json": "55780ab3c899230535e391365e61f7ec13f60347933f5317e30b779b44e6bbfe",
                    "json compact": "847a46bc3649005c4e4c9fe8eec18ba63910280fb03481900839e9934568f8b7",
                    "csv": "9882d06ba3e0505640e10634df80977dc7d7a51fa963abd4e9349be2ae67e538",
                },
            ),
        }
        forms = {"json": [], "csv": ["--format", "csv"]}
        for name, (argv, counts, minimum, digests) in mixes.items():
            for form, extra in forms.items():
                out = tmp_path / f"{form}.report"
                code = main(["inequality", henon_map, *argv, *extra, "--out", str(out)])
                assert code == 0, (name, form)
                assert capsys.readouterr().out == (
                    f"PASS: min_delta={minimum} {counts}; "
                    "min moved 0 between the last two checkpoints\n"
                ), (name, form)
                report = out.read_bytes()
                if form == "csv":
                    assert hashlib.sha256(report).hexdigest() == digests[form], (name, form)
                    continue
                digest = hashlib.sha256(indented(report)).hexdigest()
                assert digest == digests[form], (name, form)
                compact = hashlib.sha256(report).hexdigest()
                assert compact == digests[f"{form} compact"], (name, form)

    def test_json_payload_built_only_for_json(self, henon_map, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("JSON payload built")

        monkeypatch.setattr(DeltaReport, "to_json_dict", refuse)
        out = tmp_path / "ineq.csv"
        base = ["inequality", henon_map, "--sampler", "box:1"]
        assert main([*base, "--format", "csv", "--out", str(out)]) == 0
        assert main([*base, "--format", "csv"]) == 0
        assert main(base) == 0

    def test_csv_to_stdout_is_one_table(self, henon_map, capsys):
        argv = ["inequality", henon_map, "--sampler", "box:1", "--format", "csv"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("point,H_point,")
        assert len(lines) == 28  # the header and one line per point of box:1
        assert captured.err.startswith("PASS: ")

    def test_csv_output(self, henon_map, tmp_path):
        out = tmp_path / "ineq.csv"
        main(["inequality", henon_map, "--sampler", "box:1", "--format", "csv",
              "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("point,")
        assert len(lines) == 28


class TestDivisor:
    def test_bundled_pair(self, datum_paths, tmp_path, capsys):
        out = tmp_path / "divisor.json"
        code = main(["divisor", *datum_paths, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "D = 7/8*H" in printed and "effective: True" in printed
        report = json.loads(out.read_text())
        assert report["D"]["coefficients"]["E4"] == "1/2"
        assert report["D"]["coefficients"]["F7"] == "0"

    def test_violating_datum_exits_one(self, datum_paths, tmp_path, capsys):
        data = json.loads(open(datum_paths[0]).read())
        data["map_pullback"][5] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["divisor", str(bad), datum_paths[1]])
        assert code == 1
        assert "essential-map-coefficient" in capsys.readouterr().out

    def test_ineffective_mutation_exits_one(self, datum_paths, tmp_path, capsys):
        data = json.loads(open(datum_paths[0]).read())
        data["blowdown_pullback"][3] = 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["divisor", str(bad), datum_paths[1]])
        assert code == 1
        out = capsys.readouterr().out
        assert "first negative coefficient: E3" in out

    def test_reports_match_pinned_digests(self, datum_paths, tmp_path, capsys):
        # sha256 of the report files and of the printed lines (the ``D = ``
        # line among them), recorded while every ledger coefficient was
        # still a Fraction: the printed form of D must not depend on how
        # it is computed.
        data = json.loads(open(datum_paths[0]).read())
        data["blowdown_pullback"][3] = 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        cases = {
            "bundled": (
                datum_paths,
                0,
                {
                    "json": "b5e139eb8179fe2f1032f35e31996ab48c501a5506df26dd032140dd1e37beba",
                    "csv": "2e8e781196e8ac87ffe5c0f78630b4ce84ce4d5124a46228e73fffa28bc58b2e",
                    "printed": "af168bace02c6bc555a4518ed08036da9ee9aaa04c5b5cf1d5f3cd922730a08b",
                },
            ),
            "ineffective": (
                [str(bad), datum_paths[1]],
                1,
                {
                    "json": "86ca81902f8b7ee2a480899915576182a40692b911d615038c2d964b986bfcf8",
                    "csv": "43a852e06ca426ac61f61232ca4c26518a769e590cfe8070480752af555495dc",
                    "printed": "c35ca494e8c42c36510c5fcb85cabb24c3df2478f67a54b700837e6078da5f0f",
                },
            ),
        }
        for name, (paths, exit_code, digests) in cases.items():
            for form in ("json", "csv"):
                out = tmp_path / f"divisor.{form}"
                assert main(["divisor", *paths, "--format", form, "--out", str(out)]) == exit_code
                printed = capsys.readouterr().out
                assert hashlib.sha256(printed.encode()).hexdigest() == digests["printed"], name
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[form], (name, form)

    def test_csv_to_stdout_is_one_table(self, datum_paths, tmp_path, capsys):
        assert main(["divisor", *datum_paths, "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["label", "coefficient"]
        report = tmp_path / "divisor.json"
        assert main(["divisor", *datum_paths, "--out", str(report)]) == 0
        coefficients = json.loads(report.read_text())["D"]["coefficients"]
        assert len(rows) == len(coefficients) and dict(rows) == coefficients
        assert err.startswith("D = 7/8*H") and "effective: True\n" in err

    def test_single_datum_validates(self, datum_paths, capsys):
        assert main(["divisor", datum_paths[0]]) == 0

    def test_garbage_json_exits_two(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        assert main(["divisor", str(bad)]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: {**data, "labels": 5},
            lambda data: 5,
            lambda data: {**data, "pushforward": []},
            lambda data: {**data, "essential_index": 1.7},
            lambda data: {**data, "name": 5},
        ],
        ids=["labels-int", "top-level-int", "pushforward-empty", "essential-float",
             "name-int"],
    )
    def test_malformed_datum_exits_two(self, edit, datum_paths, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        with open(datum_paths[0], encoding="utf-8") as handle:
            bad.write_text(json.dumps(edit(json.load(handle))))
        assert main(["divisor", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "copies, form, message",
        [
            (1, "csv", "--format csv needs exactly two data"),
            (2, "json", "need one forward-side and one inverse-side datum"),
        ],
        ids=["csv-one-datum", "same-side-pair"],
    )
    def test_request_shape_checked_before_output(
        self, copies, form, message, datum_paths, tmp_path, capsys
    ):
        data = json.loads(open(datum_paths[0]).read())
        data["map_pullback"][5] = 2  # a violation, which validation would print
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / f"divisor.{form}"
        argv = ["divisor", *[str(bad)] * copies, "--format", form, "--out", str(out)]
        assert main(argv) == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()


class TestReportLayout:
    """Every JSON report is one compact, key-sorted line of strict JSON: the
    payload the indented layout held, written by the C encoder."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify-map", "MAP"], 0),
            (["orbit", "MAP", "--point", "1,1/2,-3", "--depth", "5"], 0),
            (["height", "--point", "1/2,3"], 0),
            (["canonical", "MAP", "--point", "1,1,1", "--depth", "8"], 0),
            (["canonical", "SHEAR", "--point", "1,1", "--depth", "3"], 1),
            (["inequality", "MAP", "--sampler", "box:2", "--sampler", "rationals:1:2"], 0),
            (["inequality", "MAP", "--sampler", "random:5:50:20", "--bit-budget", "1"], 1),
            (["divisor", "DATUM"], 0),
        ],
        ids=["verify-map", "orbit", "height", "canonical", "canonical-degree-one",
             "inequality", "inequality-all-skipped", "divisor"],
    )
    def test_one_line_reloads_and_reruns(
        self, argv, code, henon_map, datum_paths, tmp_path, capsys
    ):
        shear = tmp_path / "shear.map"
        shear.write_text("vars x y\nforward: x + y | y\ninverse: x - y | y\n")
        expand = {"MAP": [henon_map], "SHEAR": [str(shear)], "DATUM": datum_paths}
        argv = [part for arg in argv for part in expand.get(arg, [arg])]
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == code
            reports.append(out.read_bytes())
        printed = capsys.readouterr().out
        report = reports[0]
        assert report == reports[1]
        assert report.endswith(b"\n") and report.count(b"\n") == 1

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        payload = json.loads(report, parse_constant=refuse)
        compact = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert report == compact.encode()
        if argv[0] == "inequality" and code == 1:
            assert payload["count"] == 0 and payload["skipped"] == 5
            assert payload["min_delta"] is None and payload["stabilized"] is False
            assert printed == 2 * (
                "FAIL: min_delta=nan over 0 points (5 skipped); "
                "the sample kept no point; nothing to verify\n"
            )
        if argv[0] == "canonical" and code == 1:
            # Degree 1: the extrapolated tail is infinite, and null in JSON.
            assert payload["tail_bound"] is None and payload["certified"] is False
            assert payload["plus"]["tail_bound"] is None
        pretty = subprocess.run(
            [sys.executable, "-m", "json.tool", "--sort-keys", "--indent", "2",
             str(tmp_path / "a.json")],
            capture_output=True, check=True,
        ).stdout
        assert pretty == indented(report)


ONE_VARIABLE = "vars x\nforward: x + 1\ninverse: x - 1\n"
NOT_UTF8 = b"vars x y\nforward: x | y\ninverse: x | y\n# \xff\n"


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"m.map": ONE_VARIABLE}, ["verify-map", "m.map"], "dimension >= 2"),
        ({"m.map": ONE_VARIABLE}, ["inequality", "m.map", "--sampler", "box:1"],
         "dimension >= 2"),
        ({"m.map": "vars x y\nforward: x | 0\ninverse: x | 0\n"}, ["verify-map", "m.map"],
         "automorphism coordinates cannot be zero"),
        ({"m.map": NOT_UTF8}, ["verify-map", "m.map"], "can't decode byte 0xff"),
        ({"d.json": b'{"side": "\xff"}'}, ["divisor", "d.json"], "can't decode byte 0xff"),
        ({}, ["canonical", "MAP", "--point", "1,1,1", "--depth", "0"], "depth must be >= 1"),
        ({}, ["orbit", "MAP", "--point", "1,1,1", "--depth", "-1"], "depth must be >= 0"),
        ({}, ["inequality", "MAP", "--sampler", "orbit:-1:1,1,1"],
         "orbit depth must be non-negative, got -1"),
        ({}, ["orbit", "MAP", "--point", "1000,1,1", "--depth", "2", "--bit-budget", "4"],
         "starting point already exceeds the bit budget"),
        ({}, ["inequality", "MAP", "--sampler", "orbit:2:1000,1,1", "--bit-budget", "4"],
         "starting point already exceeds the bit budget"),
    ],
    ids=["one-variable-verify-map", "one-variable-inequality", "zero-coordinate",
         "map-not-utf8", "datum-not-utf8", "canonical-depth-0", "orbit-depth-negative",
         "orbit-sampler-depth-negative", "orbit-start-over-budget",
         "orbit-sampler-seed-over-budget"],
)
def test_input_errors_exit_two(files, argv, message, henon_map, tmp_path, capsys):
    paths = {"MAP": henon_map}
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths[name] = str(path)
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_plain_value_error_exits_three(monkeypatch, henon_map, capsys):
    # No input check raised it: a ValueError from inside affdyn is a fault.
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(kernel, "eval_point", broken)
    assert main(["orbit", henon_map, "--point", "1,1,1", "--depth", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == "internal error: ValueError: boom"


def test_internal_error_exits_three(monkeypatch, capsys):
    # An exception main does not map is a fault of the program, not a FAIL
    # verdict (1) and not an input error (2).
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_height", broken)
    assert main(["height", "--point", "1,2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    first, second, *_ = err.splitlines()
    assert (first, second) == (
        "internal error: RuntimeError: boom",
        "Traceback (most recent call last):",
    )
    assert err.endswith("RuntimeError: boom\n")


def test_console_entry_point(henon_map):
    proc = subprocess.run(
        [sys.executable, "-m", "affdyn.cli", "verify-map", henon_map],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "regular, d=2, d'=4" in proc.stdout
