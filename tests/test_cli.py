import hashlib
import json
import math
import subprocess
import sys

import pytest

from affdyn import cli
from affdyn.cli import main
from affdyn.inequality import DeltaReport

from conftest import bundled_map_text, indented


@pytest.fixture()
def henon_map(tmp_path):
    path = tmp_path / "henon3.map"
    path.write_text(bundled_map_text())
    return str(path)


@pytest.fixture()
def datum_paths(tmp_path):
    import importlib.resources

    data = importlib.resources.files("affdyn") / "data"
    out = []
    for name in ("henon3_resolution_forward.json", "henon3_resolution_inverse.json"):
        path = tmp_path / name
        path.write_text((data / name).read_text())
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

    def test_missing_inverse_needs_trust_flag(self, tmp_path, capsys):
        partial = tmp_path / "partial.map"
        partial.write_text("vars x y\nforward: x + y^2 | y\n")
        assert main(["verify-map", str(partial)]) == 2
        trusted = tmp_path / "inv.map"
        trusted.write_text("vars x y\nforward: x - y^2 | y\n")
        assert main(["verify-map", str(partial), "--trust-inverse", str(trusted)]) == 0


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

    def test_budget_env_override(self, henon_map, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFDYN_BIT_BUDGET", "64")
        out = tmp_path / "orbit.json"
        main(["orbit", henon_map, "--point", "1,1,1", "--depth", "40", "--out", str(out)])
        assert json.loads(out.read_text())["truncated"]


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
        assert report["convention"] == "sum"

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
        assert main(["canonical", henon_map, "--point", "1,1,1"]) == 2


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

    def test_multiple_samplers_and_silverman(self, henon_map, capsys):
        code = main(
            ["inequality", henon_map, "--sampler", "box:1",
             "--sampler", "orbit:4:(1,1,1);(0,1,2)", "--silverman",
             "--assume-regular"]
        )
        assert code == 0

    def test_bad_sampler_exits_two(self, henon_map, capsys):
        assert main(["inequality", henon_map, "--sampler", "carrots:1"]) == 2

    @pytest.mark.parametrize("seed", ["(1,1)", "(1,1,1,1)"])
    def test_orbit_seed_of_wrong_dimension_exits_two(self, henon_map, capsys, seed):
        argv = ["inequality", henon_map, "--sampler", f"orbit:2:{seed}", "--assume-regular"]
        assert main(argv) == 2
        count = seed.count(",") + 1
        assert capsys.readouterr().err == (
            f"error: bad sampler spec 'orbit:2:{seed}': "
            f"point has {count} coordinates, expected 3\n"
        )

    def test_unstable_verdict_exits_one(self, henon_map, capsys):
        code = main(
            ["inequality", henon_map, "--sampler", "box:2", "--warmup", "60",
             "--slack", "0.02", "--assume-regular"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_empty_sample_exits_one(self, henon_map, capsys):
        # No denominator allowed: the value table is empty, nothing is drawn.
        argv = ["inequality", henon_map, "--sampler", "rationals:5:0", "--assume-regular"]
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            "FAIL: min_delta=nan over 0 points (0 skipped); "
            "the sample kept no point; nothing to verify\n"
        )

    @pytest.mark.parametrize("spec", ["random:5:3:0", "random:5:-1:3"])
    def test_empty_value_table_draws_nothing(self, henon_map, capsys, spec):
        # The random sampler draws from the same table: none, so no point.
        argv = ["inequality", henon_map, "--sampler", spec, "--assume-regular"]
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
        argv = ["inequality", henon_map, "--sampler", spec, "--assume-regular"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad sampler spec {spec!r}: {message}\n"

    def test_unknown_flag_rejected(self, henon_map):
        with pytest.raises(SystemExit) as err:
            main(["inequality", henon_map, "--frobnicate"])
        assert err.value.code == 2

    def test_reports_match_pinned_digests(self, henon_map, tmp_path, capsys):
        # sha256 of the report files and the verdict lines, recorded before
        # points were kept in (nums, den) form from sampler to report; the
        # two random mixes were recorded while the random sampler still drew
        # Fractions.  A JSON report has two: of its payload in the indented
        # layout, as pinned then, and of its compact bytes.
        seeds = "(1,1,1);(1/2,0,-1)"
        box_minima = ("-0.23048443379588357", "-0.1438410362258904")
        mixes = {
            "200 bits": (
                ["--sampler", "box:3", "--sampler", "rationals:2:2",
                 "--sampler", f"orbit:6:{seeds}", "--bit-budget", "200"],
                "over 700 points (0 skipped)",
                box_minima,
                {
                    "json": "948898075966a9051ea5264443b377796d26f5679a6bad67525f91ab79817770",
                    "json compact": "c94c54e9fb32d03ffe43b623f6b54ec1025455945843a24c4e504244a4a30270",
                    "csv": "ac64a6aa7df320f46715462efbf6e4d284aa5083dae9a9475e58fdc21160eded",
                    "silverman": "2550d77bc713acc5ee05524a3cb7863449181c2fd48e0ba3e36aeb230f466c9d",
                    "silverman compact": "9bdef59f203577673bd5b4ed71fc5098243856149be63b73c1e75fc9def5d942",
                },
            ),
            "24 bits": (
                ["--sampler", "box:6", "--sampler", "rationals:3:3",
                 "--sampler", f"orbit:12:{seeds}", "--bit-budget", "24"],
                "over 5581 points (2 skipped)",
                box_minima,
                {
                    "json": "ee3209f627b628eb19c4a8592196fef4fd51817d72e528fcfaaa39159766dde4",
                    "json compact": "a706214cadffe6069e4efd3ae6030524c674990e056a87cc3d65e2728f753e18",
                    "csv": "53260dc9dedda9e16b8a3020e6d4c7e3b4135f5d67af74ff6f0e17b487edb0fe",
                    "silverman": "47a64edd0dcd57772c30f7cedb6766530f6aa8c93f9a25be3ae0bdaf501fcefe",
                    "silverman compact": "3164f38c73ed748b301c1ede8e126c32996d771c9970946c91efd21d54ec6a82",
                },
            ),
            "random 50:20": (
                ["--sampler", "random:2000:50:20", "--seed", "3"],
                "over 2000 points (0 skipped)",
                ("0.42230347696509885", "0.7688770672450715"),
                {
                    "json": "3b66e7ac3c4ad0ad13a6e385adf9cf11fa48fd03c72e92167f120937d2b55dd8",
                    "json compact": "ed9007431f1f8963db521db4b597948760f1c02073afb68458bf7789053007e6",
                    "csv": "68daeb75fa37e45661f9c54a84550853482b77e0585365b55d4b43b4a4303bfb",
                    "silverman": "2f350a9917b5941992e031b97770f3700b0fe15fc18f1cb9e2a52a7cb6da736a",
                    "silverman compact": "6b132f77cae9eca6a2990e693547aa428c16cb5212d29e34d68b49a0cb00f2e9",
                },
            ),
            "random 5:3": (
                ["--sampler", "random:300:5:3", "--seed", "0"],
                "over 300 points (0 skipped)",
                box_minima,
                {
                    "json": "55780ab3c899230535e391365e61f7ec13f60347933f5317e30b779b44e6bbfe",
                    "json compact": "847a46bc3649005c4e4c9fe8eec18ba63910280fb03481900839e9934568f8b7",
                    "csv": "9882d06ba3e0505640e10634df80977dc7d7a51fa963abd4e9349be2ae67e538",
                    "silverman": "58f2ec1e81e6ce79d31c444e595d18cdb48c159b739a12eba803a74616dae336",
                    "silverman compact": "127df30af477e8b6a6370f70827eba027801d09559b72da07ee7b736ba2572f0",
                },
            ),
        }
        forms = {"json": [], "csv": ["--format", "csv"], "silverman": ["--silverman"]}
        for name, (argv, counts, (minimum, silverman_minimum), digests) in mixes.items():
            for form, extra in forms.items():
                out = tmp_path / f"{form}.report"
                code = main(["inequality", henon_map, *argv, *extra, "--out", str(out)])
                assert code == 0, (name, form)
                delta = silverman_minimum if form == "silverman" else minimum
                assert capsys.readouterr().out == (
                    f"PASS: min_delta={delta} {counts}; "
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
        base = ["inequality", henon_map, "--sampler", "box:1", "--assume-regular"]
        assert main([*base, "--format", "csv", "--out", str(out)]) == 0
        assert main([*base, "--format", "csv"]) == 0
        assert main(base) == 0

    def test_csv_to_stdout_is_one_table(self, henon_map, capsys):
        argv = ["inequality", henon_map, "--sampler", "box:1", "--format", "csv",
                "--assume-regular"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("point,H_point,")
        assert len(lines) == 28  # the header and one line per point of box:1
        assert captured.err.startswith("PASS: ")

    def test_csv_output(self, henon_map, tmp_path):
        out = tmp_path / "ineq.csv"
        main(["inequality", henon_map, "--sampler", "box:1", "--format", "csv",
              "--out", str(out), "--assume-regular"])
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

    def test_single_datum_validates(self, datum_paths, capsys):
        assert main(["divisor", datum_paths[0]]) == 0

    def test_garbage_json_exits_two(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        assert main(["divisor", str(bad)]) == 2


class TestReportLayout:
    """Every JSON report is one compact, key-sorted line: the payload the
    indented layout held, written by the C encoder."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-map", "MAP"],
            ["orbit", "MAP", "--point", "1,1/2,-3", "--depth", "5"],
            ["height", "--point", "1/2,3"],
            ["canonical", "MAP", "--point", "1,1,1", "--depth", "8"],
            ["inequality", "MAP", "--sampler", "box:2", "--sampler", "rationals:1:2"],
            ["inequality", "MAP", "--sampler", "random:5:50:20", "--bit-budget", "1",
             "--assume-regular"],
            ["divisor", "DATUM"],
        ],
        ids=["verify-map", "orbit", "height", "canonical", "inequality",
             "inequality-all-skipped", "divisor"],
    )
    def test_one_line_reloads_and_reruns(self, argv, henon_map, datum_paths, tmp_path, capsys):
        expand = {"MAP": [henon_map], "DATUM": datum_paths}
        argv = [part for arg in argv for part in expand.get(arg, [arg])]
        all_skipped = argv[-1] == "--assume-regular"
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == (1 if all_skipped else 0)
            reports.append(out.read_bytes())
        printed = capsys.readouterr().out
        report = reports[0]
        assert report == reports[1]
        assert report.endswith(b"\n") and report.count(b"\n") == 1
        payload = json.loads(report)
        compact = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert report == compact.encode()
        if all_skipped:
            assert payload["count"] == 0 and payload["skipped"] == 5
            assert math.isnan(payload["min_delta"]) and payload["stabilized"] is False
            assert printed == 2 * (
                "FAIL: min_delta=nan over 0 points (5 skipped); "
                "the sample kept no point; nothing to verify\n"
            )
        pretty = subprocess.run(
            [sys.executable, "-m", "json.tool", "--sort-keys", "--indent", "2",
             str(tmp_path / "a.json")],
            capture_output=True, check=True,
        ).stdout
        assert pretty == indented(report)


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
