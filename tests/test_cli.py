import csv
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from affdyn import cli, inequality, kernel
from affdyn.cli import main
from affdyn.heights import weil_height_integer
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

    def test_bad_inverse_residual_uses_the_map_variables(self, tmp_path, capsys):
        path = tmp_path / "bad.map"
        path.write_text(
            "vars x y z\nforward: y | z + y^2 | x + z^2\n"
            "inverse: z - (y - x^2) | x | y - x^2\n"
        )
        assert main(["verify-map", str(path)]) == 1
        assert capsys.readouterr() == (
            "",
            "inverse verification failed: forward o inverse is not the identity: "
            "coordinate 2 has residual x^4 - 2*x^2*y + x^2 + y^2 - y\n",
        )

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

    def test_reports_match_pinned_digests(self, henon_map, tmp_path):
        # sha256 of the report files, recorded while canonical heights still
        # ran a loop of their own and orbit measured every point again.
        cases = {
            "canonical unit": (
                ["canonical", henon_map, "--point", "1,1,1", "--depth", "8"],
                0,
                {
                    "json": "ed01e5556785e4aae47814e39b50e273215918bed7b28ef6d4c5e5f781e6f6db",
                    "csv": "e51112e6f85083b880f6b20f3ec83a7236089901ae9f60197107ac7723640b0e",
                },
            ),
            "canonical past the float range": (
                ["canonical", henon_map, "--point", "0,0,0", "--depth", "1100"],
                0,
                {
                    "json": "6cb021d12d21eec5d6449fb7ee0ca80665aa030acaf1bf654a7a7d0f37ea12ad",
                    "csv": "4dc7509e1fcdf27d56888593959bcf5df2f8128649c56a7c9acbf4691bddbfd3",
                },
            ),
            "canonical at 64 bits": (
                ["canonical", henon_map, "--point", "1/2,0,-1", "--depth", "6",
                 "--bit-budget", "64"],
                1,
                {
                    "json": "20b02a9a850da6a30c897a3ee58cb72e810ffed799ba58310b9823e26627c26a",
                    "csv": "1abfbe9910be5ebcbe8d1e641a1ec0cab54fd6dadff1c741f8e1a8a879b2f637",
                },
            ),
            "orbit forward": (
                ["orbit", henon_map, "--point", "1,1,1", "--depth", "6"],
                0,
                {
                    "json": "4535e01bc66abf447e7bc754eeba980c5defb7474e1c3ab0f06961744c77ebbc",
                    "csv": "0c7e0fcac05e933379650f509dca9a8ee147f73a8477ac0b1e0f9be91c0e3084",
                },
            ),
            "orbit inverse": (
                ["orbit", henon_map, "--point", "1,1,1", "--depth", "6",
                 "--direction", "inverse"],
                0,
                {
                    "json": "af72251ee8602a13d16cd540d37e576f1ae9546ecec3ef1db45203362257e3ce",
                    "csv": "da08d7f215dabfc8e50dcc88bffa9a47a75a7ddc7a27ff5130fdda17331c1355",
                },
            ),
            # Recorded while height converted its point three times.
            "height": (
                ["height", "--point", "1/2,3"],
                0,
                {
                    "json": "bf36501d1cfdea9048a0d3cd7a6582b3e592bf9a40dc405a870a767c0cd8b7d3",
                    "csv": "c0c99ac4e1b2c8339435bc7a0c0cf4992913cb74826e26eeb7f8cb85e220a4ac",
                },
            ),
            "height with a negative coordinate": (
                ["height", "--point=-7,0,5/3"],
                0,
                {
                    "json": "e1759586007ab0e0b99f8f559181b252b513c68d9093658a8af935fcfbba97e1",
                    "csv": "1c29af6d94b23dc1306fe5b1bfe5e52a6e571265e665bb21ef398288d2f26aad",
                },
            ),
        }
        for name, (argv, exit_code, digests) in cases.items():
            for form, digest in digests.items():
                out = tmp_path / f"{form}.report"
                assert main([*argv, "--format", form, "--out", str(out)]) == exit_code, name
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (name, form)

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

    def test_five_dimensional_family_member(self, tmp_path, capsys):
        # The n = 5 member of henon3's family: deciding its regularity takes
        # under a second, so a small sample runs end to end.
        path = tmp_path / "henon5.map"
        path.write_text(bundled_map_text("henon5"))
        out = tmp_path / "r.json"
        assert main(["inequality", str(path), "--sampler", "box:1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("PASS: ")
        report = json.loads(out.read_text())
        assert report["regularity"] == "regular" and report["count"] == 243

    def test_multiple_samplers(self, henon_map, capsys):
        # 37 points: below warmup the verdict rule is never evaluated, and
        # an unevaluated verdict FAILS.
        code = main(
            ["inequality", henon_map, "--sampler", "box:1",
             "--sampler", "orbit:4:(1,1,1);(0,1,2)"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: ") and out.endswith(
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

    def test_no_sampler_samples_the_rationals_defaults(self, tmp_path, capsys):
        # Without --sampler, and with rationals:N or random:COUNT alone, the
        # omitted fields are the sampler dataclasses' own defaults.
        path = tmp_path / "henon2.map"
        path.write_text("vars x y\nforward: y | x + y^2\ninverse: y - x^2 | x\n")
        reports = []
        for specs in ([], ["rationals:5:3"], ["rationals:5"], ["rationals"]):
            out = tmp_path / "report.json"
            argv = [part for spec in specs for part in ("--sampler", spec)]
            code = main(["inequality", str(path), *argv, "--out", str(out)])
            assert code == (2 if specs == ["rationals"] else 0)
            reports.append(out.read_bytes() if code == 0 else None)
        assert reports[0] == reports[1] == reports[2] and reports[3] is None
        sample = json.loads(reports[0])["sample"]
        assert sample == inequality.RationalBoxSampler().describe()
        assert cli._parse_sampler("random:7", 2, 2) == inequality.RandomRationalSampler(7, seed=2)

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
        # The reference layouts never run in the CLI; a CSV run never runs
        # the JSON writer, and a JSON run never runs the CSV writer.
        def refuse(name):
            def method(self, *args):
                raise AssertionError(f"{name} ran")

            return method

        for name in ("to_json_dict", "to_csv_rows"):
            monkeypatch.setattr(DeltaReport, name, refuse(name))
        out = tmp_path / "ineq.report"
        # box:1 keeps 27 points, below warmup: each run FAILS and exits 1.
        base = ["inequality", henon_map, "--sampler", "box:1"]
        with monkeypatch.context() as patch:
            patch.setattr(DeltaReport, "write_json", refuse("write_json"))
            assert main([*base, "--format", "csv", "--out", str(out)]) == 1
            assert main([*base, "--format", "csv"]) == 1
            assert main(base) == 1  # no --out: no JSON report at all
        with monkeypatch.context() as patch:
            patch.setattr(DeltaReport, "write_csv", refuse("write_csv"))
            assert main([*base, "--out", str(out)]) == 1

    def test_csv_to_stdout_is_one_table(self, henon_map, capsys):
        argv = ["inequality", henon_map, "--sampler", "box:1", "--format", "csv"]
        assert main(argv) == 1  # 27 points, below warmup
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("point,H_point,")
        assert len(lines) == 28  # the header and one line per point of box:1
        assert captured.err.startswith("FAIL: ")

    def test_csv_output(self, henon_map, tmp_path):
        out = tmp_path / "ineq.csv"
        main(["inequality", henon_map, "--sampler", "box:1", "--format", "csv",
              "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("point,")
        assert len(lines) == 28

    def test_failed_write_leaves_no_partial_report(self, henon_map, tmp_path, monkeypatch, capsys):
        # The CSV writer raises after its header and first chunk of 10
        # records: the run exits 3, writes no --out file, and keeps the one
        # an earlier run wrote.
        out = tmp_path / "ineq.csv"
        argv = ["inequality", henon_map, "--sampler", "box:2", "--format", "csv",
                "--out", str(out)]
        assert main(argv) == 0
        complete = out.read_bytes()

        class CutHandle:
            def __init__(self, handle):
                self.handle, self.writes = handle, 0

            def write(self, text):
                if self.writes == 2:
                    raise RuntimeError("cut")
                self.writes += 1
                return self.handle.write(text)

        write_csv = DeltaReport.write_csv
        monkeypatch.setattr(inequality, "CHUNK_RECORDS", 10)
        monkeypatch.setattr(
            DeltaReport, "write_csv", lambda self, handle: write_csv(self, CutHandle(handle))
        )
        for earlier in (None, b"earlier report\n"):
            if earlier is None:
                out.unlink()
            else:
                out.write_bytes(earlier)
            capsys.readouterr()
            assert main(argv) == 3, earlier
            assert "internal error: RuntimeError: cut" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                name for name in ("henon3.map", earlier and out.name) if name
            )
            assert earlier is None or out.read_bytes() == earlier
        monkeypatch.undo()
        assert main(argv) == 0
        assert out.read_bytes() == complete

    def test_out_writes_into_a_fifo(self, henon_map, tmp_path):
        # A target that is not a regular file is written in place, not
        # replaced by a renamed file.
        regular, fifo = tmp_path / "ineq.csv", tmp_path / "ineq.fifo"
        base = ["inequality", henon_map, "--sampler", "box:1", "--format", "csv", "--out"]
        assert main([*base, str(regular)]) == 1
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main([*base, str(fifo)]) == 1
        reader.join(timeout=30)
        assert received == [regular.read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["henon3.map", "ineq.csv", "ineq.fifo"]


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
        data = json.loads(Path(datum_paths[0]).read_text())
        data["map_pullback"][5] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["divisor", str(bad), datum_paths[1]])
        assert code == 1
        assert "essential-map-coefficient" in capsys.readouterr().out

    def test_ineffective_mutation_exits_one(self, datum_paths, tmp_path, capsys):
        data = json.loads(Path(datum_paths[0]).read_text())
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
        data = json.loads(Path(datum_paths[0]).read_text())
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

    @pytest.mark.parametrize("form", ["json", "csv"])
    def test_out_in_missing_directory_prints_nothing(
        self, form, datum_paths, tmp_path, capsys
    ):
        # The D lines are printed only once the report is written.
        out = tmp_path / "missing" / f"divisor.{form}"
        assert main(["divisor", *datum_paths, "--format", form, "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            Path(path).name for path in datum_paths
        )

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
        data = json.loads(Path(datum_paths[0]).read_text())
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
# Map texts whose second line the parser cannot read: nested past the
# stack, or an integer past the interpreter's int-from-str digit limit.
NESTED_PARENTHESES = f"vars x y\nforward: {'(' * 3000}x{')' * 3000} | y\ninverse: x | y\n"
NESTED_SIGNS = f"vars x y\nforward: {'-' * 3000}x | y\ninverse: x | y\n"
LONG_LITERAL = f"vars x y\nforward: x + {'9' * 5000} | y\ninverse: x | y\n"
LONG_COORDINATE = "1" + "0" * 5000  # 5,001 digits
LONG_POWER = "vars x y\nforward: x + 2^30000000 | y\ninverse: x - 2^30000000 | y\n"


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"m.map": ONE_VARIABLE}, ["verify-map", "m.map"], "dimension >= 2"),
        ({"m.map": ONE_VARIABLE}, ["inequality", "m.map", "--sampler", "box:1"],
         "dimension >= 2"),
        ({"m.map": "vars x y\nforward: x | 0\ninverse: x | 0\n"}, ["verify-map", "m.map"],
         "automorphism coordinates cannot be zero"),
        ({"m.map": NOT_UTF8}, ["verify-map", "m.map"], "can't decode byte 0xff"),
        ({"m.map": "varsx y\nforward: x | y\ninverse: x | y\n"}, ["verify-map", "m.map"],
         "unrecognized line 'varsx y'"),
        ({"d.json": b'{"side": "\xff"}'}, ["divisor", "d.json"], "can't decode byte 0xff"),
        ({"m.map": NESTED_PARENTHESES}, ["verify-map", "m.map"],
         "expression nested too deeply (line 2)"),
        ({"m.map": NESTED_SIGNS}, ["verify-map", "m.map"], "expression nested too deeply (line 2)"),
        ({"m.map": LONG_LITERAL}, ["verify-map", "m.map"],
         "integer of 5000 digits is too long (line 2, column 14)"),
        ({"m.map": "vars x y z\nforward: x |  | y\ninverse: x | y | z\n"}, ["verify-map", "m.map"],
         "expected a number, variable, or parenthesized expression (line 2, column 15)"),
        ({"d.json": "[" * 100_000}, ["divisor", "d.json"], "maximum recursion depth exceeded"),
        ({"d.json": '{"essential_index": %s}' % ("9" * 5000)}, ["divisor", "d.json"],
         "d.json: integer of 5000 digits is too long\n"),
        ({}, ["height", "--point", "0.5,1"], "coordinate 1 of the point: unexpected character '.'"),
        ({}, ["height", "--point", "1,1e5"], "coordinate 2 of the point: unexpected 'e5'"),
        ({}, ["height", "--point", f"1 {LONG_COORDINATE}"],
         f"coordinate 1 of the point: unexpected '{LONG_COORDINATE[:20]}...'\n"),
        ({}, ["height", "--point", "1/0,1"], "coordinate 1 of the point: division by zero"),
        ({}, ["height", "--point", f"{LONG_COORDINATE},1/3,-2"],
         "coordinate 1 of the point: integer of 5001 digits is too long\n"),
        ({}, ["inequality", "MAP", "--sampler", f"box:{LONG_COORDINATE}"],
         f"bad sampler spec 'box:{LONG_COORDINATE[:16]}...': integer of 5001 digits is too long\n"),
        ({}, ["inequality", "MAP", "--sampler", f"box:{'x' * 5000}"],
         f"bad sampler spec 'box:{'x' * 16}...': unknown identifier '{'x' * 20}...'\n"),
        ({}, ["height", "--point", "2^30000000,0,0"],
         "coordinate 1 of the point: constant power of more than 1048576 bits\n"),
        ({"m.map": LONG_POWER}, ["verify-map", "m.map"],
         "constant power of more than 1048576 bits (line 2, column 14)\n"),
        ({"m.map": "vars x y\nforward: x + \uff11 | y\ninverse: x - 1 | y\n"},
         ["verify-map", "m.map"], "unexpected character '\uff11' (line 2, column 14)\n"),
        ({}, ["inequality", "MAP", "--sampler", "box:\u0663"],
         "bad sampler spec 'box:\u0663': unexpected character '\u0663'\n"),
        ({}, ["inequality", "MAP", "--sampler", "rationals:5:3:9"],
         "bad sampler spec 'rationals:5:3:9': too many fields\n"),
        ({}, ["inequality", "MAP", "--sampler", "rationals:5:"],
         "bad sampler spec 'rationals:5:': empty expression\n"),
        ({}, ["orbit", "MAP", "--point", "1,1,1", "--depth", "1/2"],
         "error: --depth: not an integer: '1/2'\n"),
        ({}, ["orbit", "MAP", "--point", "1,1,1", "--depth", "2", "--bit-budget", "1e3"],
         "error: --bit-budget: unexpected 'e3'\n"),
        ({}, ["inequality", "MAP", "--seed", "1_0"], "error: --seed: unexpected '_0'\n"),
        ({}, ["orbit", "MAP", "--point", "1,1,1", "--depth", "\u30007"],
         "error: --depth: unexpected character '\\u3000'\n"),
        ({}, ["height", "--point", "1,\u00a02"],
         "coordinate 2 of the point: unexpected character '\\xa0'\n"),
        ({"m.map": "vars\u3000x y\nforward: y | x\ninverse: y | x\n"}, ["verify-map", "m.map"],
         "unrecognized line 'vars\\u3000x y' (line 1)\n"),
        ({}, ["height", "--point", "2^1048575*2^1048575,0"],
         "coordinate 1 of the point: coefficient of more than 1048576 bits\n"),
        ({}, ["canonical", "MAP", "--point", "1,1,1", "--depth", "0"], "depth must be >= 1"),
        ({}, ["orbit", "MAP", "--point", "1,1,1", "--depth", "-1"], "depth must be >= 0"),
        ({}, ["inequality", "MAP", "--sampler", "orbit:-1:1,1,1"],
         "orbit depth must be non-negative, got -1"),
        ({}, ["orbit", "MAP", "--point", "1000,1,1", "--depth", "2", "--bit-budget", "4"],
         "starting point already exceeds the bit budget"),
        ({}, ["inequality", "MAP", "--sampler", "orbit:2:1000,1,1", "--bit-budget", "4"],
         "starting point already exceeds the bit budget"),
        ({}, ["canonical", "MAP", "--point", "300,-7,5/2", "--depth", "3", "--bit-budget", "8"],
         "starting point already exceeds the bit budget"),
        ({}, ["orbit", "MAP", "--point", "1,1,1", "--depth", "2", "--out", "OUT"],
         "No such file or directory: 'OUT'\n"),
        ({}, ["canonical", "MAP", "--point", "1,1,1", "--depth", "2", "--out", "OUT"],
         "No such file or directory: 'OUT'\n"),
        ({}, ["inequality", "MAP", "--sampler", "box:1", "--out", "OUT"],
         "No such file or directory: 'OUT'\n"),
        ({}, ["verify-map", "MAP", "--out", "OUT"], "No such file or directory: 'OUT'\n"),
    ],
    ids=["one-variable-verify-map", "one-variable-inequality", "zero-coordinate",
         "map-not-utf8", "vars-without-space", "datum-not-utf8", "map-nested-parentheses",
         "map-nested-signs", "map-long-literal", "map-empty-coordinate", "datum-nested-arrays",
         "datum-long-integer", "point-decimal", "point-exponent", "point-long-trailing-token",
         "point-zero-denominator", "point-long-integer", "sampler-long-bound",
         "sampler-long-word", "point-long-power", "map-long-power", "map-fullwidth-digit",
         "sampler-arabic-digit", "sampler-too-many-fields", "sampler-empty-field",
         "depth-not-integer", "bit-budget-exponent", "seed-underscore",
         "depth-ideographic-space", "point-no-break-space", "map-vars-ideographic-space",
         "point-product-past-the-cap",
         "canonical-depth-0", "orbit-depth-negative", "orbit-sampler-depth-negative",
         "orbit-start-over-budget", "orbit-sampler-seed-over-budget", "canonical-start-over-budget",
         "orbit-out-in-missing-directory", "canonical-out-in-missing-directory",
         "inequality-out-in-missing-directory", "verify-map-out-in-missing-directory"],
)
def test_input_errors_exit_two(files, argv, message, henon_map, tmp_path, capsys):
    # OUT is a report path in a directory that does not exist: the message
    # names it as given, no verdict is printed, and no file is left behind.
    paths = {"MAP": henon_map, "OUT": str(tmp_path / "missing" / "report")}
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
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.replace(str(tmp_path), "")) < 200  # a long input is not echoed
    assert message.replace("OUT", paths["OUT"]) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["henon3.map", *files])


# Spellings of a number and what every reader of numbers in input text
# makes of each: its value, or None for an input error.  The two rational
# readers take 1/2, and each integer reader refuses it as "not an integer".
SPELLINGS = [
    ("7", 7), ("-7", -7), ("+7", 7), (" 7 ", 7), ("(7)", 7), ("2^3", 8), ("6/2", 3),
    ("1_0", None), ("\u0663", None), ("\uff11", None), ("1/2", Fraction(1, 2)),
    ("0x10", None), ("1e3", None), ("x", None),
]
# Every reader, as a command line with S for the spelling.  An integer
# reader's value is the last positional argument of the call after it,
# to the named ``cli`` attribute, replaced here (for a flag, that
# argument's attribute), so that no range check after the reader (a box
# bound must be non-negative) hides it.
# The rational readers write theirs to the report: the map is
# (a, b) -> (b, a + S b^2), and the orbit of (0, 1) steps to (1, S).
INTEGER_READERS = {
    "box:B": (["inequality", "MAP", "--sampler", "box:S"], "BoxSampler", None),
    "rationals:N": (["inequality", "MAP", "--sampler", "rationals:S"], "RationalBoxSampler", None),
    "rationals:N:D": (["inequality", "MAP", "--sampler", "rationals:1:S"],
                      "RationalBoxSampler", None),
    "random:COUNT": (["inequality", "MAP", "--sampler", "random:S"], "RandomRationalSampler", None),
    "random:COUNT:N": (["inequality", "MAP", "--sampler", "random:1:S"],
                       "RandomRationalSampler", None),
    "random:COUNT:N:D": (["inequality", "MAP", "--sampler", "random:1:1:S"],
                         "RandomRationalSampler", None),
    "orbit:DEPTH": (["inequality", "MAP", "--sampler", "orbit:S:1,1,1"], "OrbitSampler", None),
    "--depth": (["canonical", "MAP", "--point", "1,1,1", "--depth", "S"], "cmd_canonical", "depth"),
    "--bit-budget": (["orbit", "MAP", "--point", "1,1,1", "--depth", "1", "--bit-budget", "S"],
                     "cmd_orbit", "bit_budget"),
    "--seed": (["inequality", "MAP", "--seed", "S"], "cmd_inequality", "seed"),
}
RATIONAL_READERS = {
    "map coefficient": ["orbit", "m.map", "--point", "0,1", "--depth", "1"],
    "point coordinate": ["height", "--point", "S"],
}


class Taken(BaseException):
    """What a reader handed on, carried out of ``main`` past its handlers."""


@pytest.mark.parametrize("spelling, value", SPELLINGS)
def test_every_reader_reads_a_number_one_way(
    spelling, value, henon_map, tmp_path, monkeypatch, capsys
):
    def take(*args, **kwargs):
        raise Taken(args[-1])

    (tmp_path / "m.map").write_text(
        f"vars a b\nforward: b | a + {spelling}*b^2\ninverse: b - ({spelling})*a^2 | a\n"
    )
    paths = {"MAP": henon_map, "m.map": str(tmp_path / "m.map")}
    got, wanted = {}, {}
    for reader, argv in RATIONAL_READERS.items():
        code = main([paths.get(arg, arg.replace("S", spelling)) for arg in argv])
        out, err = capsys.readouterr()
        if code == 0:
            report = json.loads(out)
            text = report["points"][1].split(",")[1] if "points" in report else report["point"]
            got[reader] = Fraction(text)
        else:
            got[reader] = (code, out, err.startswith("error: ") and err.count("\n"))
        wanted[reader] = value if value is not None else (2, "", 1)
    for reader, (argv, consumer, flag) in INTEGER_READERS.items():
        with monkeypatch.context() as patch:
            patch.setattr(cli, consumer, take)
            try:
                code = main([paths.get(arg, arg.replace("S", spelling)) for arg in argv])
            except Taken as taken:
                got[reader] = getattr(taken.args[0], flag) if flag else taken.args[0]
            else:
                out, err = capsys.readouterr()
                got[reader] = (code, out, err.startswith("error: ") and err.count("\n"))
        integer = isinstance(value, int)
        wanted[reader] = value if integer else (2, "", 1)
    assert got == wanted


def test_echoed_integers_past_4300_digits_are_hex(henon_map, tmp_path, capsys):
    # An integer flag or field reads up to the constant cap, past what a
    # report writes in decimal: the report writes it as exact hex.
    big = hex(10**5000)
    runs = [
        (["orbit", henon_map, "--point", "1,1,1", "--depth", "10^5000", "--bit-budget", "64"],
         lambda r: r["requested_depth"]),
        (["inequality", henon_map, "--sampler", "orbit:10^5000:1,1,1", "--bit-budget", "64"],
         lambda r: r["sample"]["depth"]),
        (["inequality", henon_map, "--sampler", "random:0", "--seed", "10^5000"],
         lambda r: (r["seed"], r["sample"]["seed"])),
    ]
    for argv, echoed in runs:
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) in (0, 1)
        assert echoed(json.loads(out.read_text())) in (big, (big, big))
    capsys.readouterr()


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
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "affdyn.cli", "verify-map", henon_map],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0
    assert "regular, d=2, d'=4" in proc.stdout


# -- reports past 4,300 digits ----------------------------------------------


def report_integer(value) -> int:
    """An integer as a report writes it: a JSON number, decimal text, or
    exact hex text past 4,300 digits."""
    return value if isinstance(value, int) else int(value, 0)


def report_point(text: str) -> tuple[Fraction, ...]:
    """A point text whose numerators and denominators may be hex."""
    return tuple(
        Fraction(*(report_integer(part) for part in coord.split("/")))
        for coord in text.split(",")
    )


def run_report(argv, form, tmp_path):
    """Run at the default bit budget; return the exit code and the report."""
    out = tmp_path / f"report.{form}"
    code = main([*argv, "--format", form, "--out", str(out)])
    limit = csv.field_size_limit(1 << 30)  # a deep point is one long field
    try:
        with open(out, encoding="utf-8", newline="") as handle:
            report = json.load(handle) if form == "json" else list(csv.reader(handle))
    finally:
        csv.field_size_limit(limit)
    return code, report


def assert_some_hex(values) -> None:
    assert any(isinstance(v, str) and v.startswith("0x") for v in values)


@pytest.fixture(scope="module")
def deep_orbits(henon):
    return {
        direction: henon.orbit((1, 1, 1), 20, direction)
        for direction in ("forward", "inverse")
    }


class TestDefaultBudgetReports:
    """Each of these runs once exited 3: CPython refuses to write an integer
    of more than 4,300 digits in decimal.  Reports now write such integers
    in exact hex, and the hex reads back to the heights the orbit measured."""

    @pytest.mark.parametrize("form", ["json", "csv"])
    def test_canonical_depth_12(self, henon_map, tmp_path, deep_orbits, form):
        argv = ["canonical", henon_map, "--point", "1,1,1", "--depth", "12"]
        code, report = run_report(argv, form, tmp_path)
        assert code in (0, 1)
        expected = {d: list(deep_orbits[d].heights[:13]) for d in ("forward", "inverse")}
        if form == "json":
            written = {
                side["direction"]: side["step_height_integers"]
                for side in (report["plus"], report["minus"])
            }
        else:
            assert report[0] == ["k", "direction", "height_integer", "value"]
            written = {"forward": [], "inverse": []}
            for _, direction, integer, _ in report[1:]:
                written[direction].append(integer)
        assert_some_hex(written["forward"] + written["inverse"])
        for direction, integers in written.items():
            assert [report_integer(v) for v in integers] == expected[direction], direction

    @pytest.mark.parametrize(
        "direction, depth, form",
        [("inverse", 12, "json"), ("forward", 20, "json"), ("forward", 20, "csv")],
    )
    def test_orbit(self, henon_map, tmp_path, deep_orbits, direction, depth, form):
        argv = ["orbit", henon_map, "--point", "1,1,1", "--depth", str(depth),
                "--direction", direction]
        code, report = run_report(argv, form, tmp_path)
        assert code == 0
        points = report["points"] if form == "json" else [row[1] for row in report[1:]]
        assert any("0x" in text for text in points)
        heights = [weil_height_integer(report_point(text)) for text in points]
        assert heights == list(deep_orbits[direction].heights[: len(points)])
        assert len(points) == depth + 1 or deep_orbits[direction].truncated

    @pytest.mark.parametrize("form", ["json", "csv"])
    def test_inequality_orbit_sampler(self, henon_map, tmp_path, deep_orbits, form):
        argv = ["inequality", henon_map, "--sampler", "orbit:14:(1,1,1)"]
        code, report = run_report(argv, form, tmp_path)
        assert code in (0, 1)
        if form == "json":
            assert report["count"] == 15 and report["skipped"] == 0
            written = [r["height_integers"] for r in report["records"]]
        else:
            written = [row[1:4] for row in report[1:]]
        assert_some_hex([v for triple in written for v in triple])
        forward = deep_orbits["forward"].heights
        inverse_of_start = deep_orbits["inverse"].heights[1]
        expected = [
            [forward[k], forward[k + 1], forward[k - 1] if k else inverse_of_start]
            for k in range(15)
        ]
        assert [[report_integer(v) for v in triple] for triple in written] == expected


@pytest.mark.parametrize(
    "argv, code",
    [
        (["orbit", "--point", "1,1,1", "--depth", "12"], 0),
        (["inequality", "--sampler", "orbit:14:(1,1,1)", "--format", "csv"], 1),
    ],
    ids=["orbit", "inequality-csv"],
)
def test_low_int_str_limit_writes_the_same_report(henon_map, tmp_path, argv, code):
    # Both reports hold decimal integers of more than 640 digits, and under
    # PYTHONINTMAXSTRDIGITS=640 both runs once exited 3: the front end now
    # raises that limit to the 4,300 digits a report writes in decimal.
    root = Path(__file__).resolve().parent.parent
    reports = {}
    for limit in (None, "640"):
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        out = tmp_path / f"report-{limit}"
        done = subprocess.run(
            [sys.executable, "-m", "affdyn.cli", argv[0], henon_map, *argv[1:],
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == code, done.stderr
        reports[limit] = out.read_bytes()
    assert re.search(rb"\d{641}", reports[None])
    assert reports["640"] == reports[None]


def test_perfbench_tracer_leaves_reports_unchanged(henon_map, tmp_path):
    # The benchmark's tracer wraps DeltaReport methods and cli names by
    # attribute; a renamed hook must fail here, and tracing must not change
    # a report.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import tracer\n"
        "from affdyn import cli\n"
        "recorder = tracer.Tracer('tier-1')\n"
        "if sys.argv[2] == 'traced':\n"
        "    tracer.install(recorder)\n"
        "code = cli.main(sys.argv[3:])\n"
        "print(sorted({span[0] for span in recorder.spans}), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for form in ("json", "csv"):
        reports = {}
        for mode in ("plain", "traced"):
            out = tmp_path / f"{mode}.{form}"
            argv = ["inequality", henon_map, "--sampler", "box:1", "--format", form,
                    "--out", str(out)]
            done = subprocess.run(
                [sys.executable, "-c", script, str(root / "perfbench"), mode, *argv],
                capture_output=True, text=True, env=env,
            )
            assert done.returncode == 1, done.stderr  # 27 points, below warmup
            spans = done.stderr.strip().splitlines()[-1]
            reports[mode] = out.read_bytes()
            if mode == "traced":
                assert "'inequality.batch_verify'" in spans and "'cli.write'" in spans, spans
            else:
                assert spans == "[]"
        assert reports["traced"] == reports["plain"], form
