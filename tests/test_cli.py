import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from qheine import BaseSystem, catalog, cli, report
from qheine.errors import InvalidConfig
from qheine.multisum import make_context
from util import parse_csv


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestReportValues:
    @pytest.mark.parametrize("prec", [128, 192, 256, 1024])
    def test_values_round_trip_at_run_precision(self, prec):
        with mp.workprec(prec):
            values = (mpf(1) / 3, -+mp.pi, mpc(mpf(2) / 7, -1 / mp.e))
        for value in values:
            parsed = report.parse_complex(report.complex_dict(value, prec), prec)
            assert type(parsed) is type(value)
            assert parsed == value

    def test_128_bit_values_keep_50_digits(self):
        third = mpf(1) / 3
        assert report.value_str(third, 128) == report.value_str(third)
        assert len(report.value_str(third, 128)) == len("0.") + 50
        assert report.value_digits(1024) == 311


class TestVerifyCommand:
    def test_q_binomial_all_pass(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--identity", "q_binomial", "--samples", "5", "--seed", "1"],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        assert parsed["header"]["mode"] == "verify"
        assert len(parsed["cases"]) == 5
        assert all(case["passed"] for case in parsed["cases"])
        assert parsed["total"]["passed"] == 5
        assert parsed["total"]["exit_code"] == 0

    def test_unknown_identity_exit_2(self, capsys):
        code = cli.main(["verify", "--identity", "nonexistent"])
        assert code == 2

    def test_bad_dims_exit_2(self):
        assert cli.main(["verify", "--identity", "q_binomial", "--dims", "n"]) == 2

    def test_deterministic_reports(self, capsys):
        argv = [
            "verify",
            "--identity", "bibasic_heine",
            "--identity", "q_binomial",
            "--samples", "2",
            "--seed", "9",
        ]
        code1, out1 = run_cli(capsys, argv)
        code2, out2 = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert report.strip_volatile(out1) == report.strip_volatile(out2)
        assert out1 != out2  # the timestamp differs

    def test_round_trip_precision(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--identity", "ram_core", "--samples", "2", "--seed", "4"],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        precision = parsed["header"]["config"]["precision"]
        for case in parsed["cases"]:
            for side in ("lhs", "rhs"):
                text = case[side]["re"]
                digits = sum(ch.isdigit() for ch in text.split("e")[0])
                assert digits >= 40
                value = report.parse_value(text, precision)
                assert report.value_str(value) == text

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_worst_error_at_run_precision(self, capsys, prec):
        # The summary writes its worst relative error with the digits of the
        # run's precision, so it is the worst case row's rel_error exactly.
        code, out = run_cli(
            capsys,
            [
                "verify", "--identity", "q_binomial", "--samples", "3",
                "--seed", "3", "--precision", str(prec),
            ],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        worst = max(
            parsed["cases"],
            key=lambda case: report.parse_value(case["rel_error"], prec),
        )
        (summary,) = parsed["summaries"]
        assert summary["worst_rel_error"] == worst["rel_error"]
        assert len(summary["worst_rel_error"]) > report.value_digits(prec)

    def test_dims_flag_restricts_assignments(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "verify",
                "--identity", "thm_heine8",
                "--dims", "n=1,m=1",
                "--samples", "2",
                "--seed", "2",
            ],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        assert len(parsed["cases"]) == 2
        assert all(case["dims"] == {"n": 1, "m": 1} for case in parsed["cases"])

    @pytest.mark.parametrize(
        "identity, dims",
        [("q_binomial", "nn=2"), ("q_binomial", "n=2"), ("thm_heine7", "nn=2")],
    )
    def test_dims_name_of_no_requested_identity_exit_2(self, identity, dims):
        argv = ["verify", "--identity", identity, "--dims", dims, "--samples", "1"]
        assert cli.main(argv) == 2

    def test_dims_of_any_family_pass_with_all(self):
        cli.validate_config(cli.RunConfig(dims=[{"n": 2, "m": 1}]))
        with pytest.raises(InvalidConfig, match="no requested identity"):
            cli.validate_config(cli.RunConfig(dims=[{"n": 2, "nn": 1}]))

    def test_csv_report(self, capsys, tmp_path):
        out_path = tmp_path / "cases.csv"
        code = cli.main(
            [
                "verify",
                "--identity", "q_binomial",
                "--samples", "3",
                "--seed", "1",
                "--report", "csv",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 3
        value = report.parse_value(rows[0]["lhs_re"], 128)
        assert report.value_str(value) == rows[0]["lhs_re"]

    def test_text_report(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "verify",
                "--identity", "q_binomial",
                "--samples", "1",
                "--report", "text",
            ],
        )
        assert code == 0
        assert "PASS" in out
        assert "total" in out

    def test_config_file_overrides_flags(self, capsys, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"samples": 2, "seed": 6}))
        code, out = run_cli(
            capsys,
            [
                "verify",
                "--identity", "q_binomial",
                "--samples", "5",
                "--seed", "1",
                "--config", str(config_path),
            ],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        assert parsed["header"]["config"]["samples"] == 2
        assert parsed["header"]["config"]["seed"] == 6
        assert len(parsed["cases"]) == 2

    def test_config_file_unknown_key(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        code = cli.main(
            ["verify", "--identity", "q_binomial", "--config", str(config_path)]
        )
        assert code == 2

    def test_verification_failure_exit_1(self, capsys):
        # An unattainably tight tolerance turns every case into a failure.
        code, out = run_cli(
            capsys,
            [
                "verify",
                "--identity", "q_binomial",
                "--samples", "2",
                "--tol", "1e-40",
            ],
        )
        assert code == 1
        parsed = report.parse_json_lines(out)
        assert parsed["total"]["failed"] == 2

    def test_pole_exit_1(self, capsys, monkeypatch):
        # heine_2phi1 at c = q^-2: the lhs term at k = 3 divides by 0.
        def pole(identity, seed, count, prec):
            params = {"a": mpf("0.3"), "b": mpf("0.25"), "c": mpf(4), "z": mpf("0.2")}
            return [make_context(params, BaseSystem(mpf(1) / 2, 1, 1, prec))]

        monkeypatch.setattr(catalog, "sample_domain", pole)
        code = cli.main(["verify", "--identity", "heine_2phi1", "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: heine_2phi1 lhs: zero denominator")
        assert captured.err.count("\n") == 1, captured.err


class TestComposeCommand:
    def test_classical_pair(self, capsys):
        code, out = run_cli(
            capsys,
            ["compose", "--blocks", "q_bin", "--base", "q_bin",
             "--samples", "3", "--seed", "1"],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        assert len(parsed["cases"]) == 3
        assert all(case["passed"] for case in parsed["cases"])
        assert parsed["cases"][0]["identity"] == "composed:q_bin/q_bin"
        # Compose and verify rows share one schema.
        _, verify_out = run_cli(
            capsys, ["verify", "--identity", "q_binomial", "--samples", "1"]
        )
        verify_row = report.parse_json_lines(verify_out)["cases"][0]
        row = parsed["cases"][0]
        assert set(row) == set(verify_row)
        assert {"lhs_terms", "lhs_tail_bound", "rhs_tail_bound", "params"} <= set(row)
        reparsed = report.parse_json_lines(report.render_json_lines([row]))
        assert reparsed["cases"] == [row]

    def test_run_precision_not_ambient(self):
        # Blocks derive constants from their parameters; those must be
        # formed at the run's 128 bits, not at the ambient 53.
        old = mp.prec
        mp.prec = 53
        try:
            for blocks, base in (
                (["kajihara:1x2"], "q_bin"),
                (["q_euler"], "q_euler"),
                (["extra_c:2"], "q_bin"),
            ):
                config = cli.RunConfig(
                    mode="compose",
                    blocks=blocks,
                    base=base,
                    samples=2,
                    seed=3,
                    precision=128,
                )
                records, code = cli.run_compose(config)
                assert code == 0, (blocks, base)
                assert mp.prec == 53
        finally:
            mp.prec = old

    def test_two_block_assignment(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "compose",
                "--blocks", "milne_lilly:2,gk:2",
                "--base", "extra_c:2",
                "--samples", "2",
                "--seed", "3",
                "--tol", "1e-18",
            ],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        assert all(case["passed"] for case in parsed["cases"])

    def test_case_rows_name_the_identity_as_the_summary_does(self, capsys):
        # With its block dimensions, as the summary names it.
        code, out = run_cli(
            capsys,
            ["compose", "--blocks", "milne_lilly:2,gk:1", "--base", "q_bin",
             "--samples", "2", "--seed", "1"],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        label = "composed:milne_lilly:2+gk:1/q_bin"
        assert [row["identity"] for row in parsed["summaries"]] == [label]
        assert [row["identity"] for row in parsed["cases"]] == [label, label]

    def test_broken_block_exit_3(self, capsys):
        code, out = run_cli(
            capsys,
            ["compose", "--blocks", "broken", "--base", "q_bin", "--samples", "1"],
        )
        assert code == 3
        parsed = report.parse_json_lines(out)
        assert parsed["cases"][0]["status"] == "property-H-failed"

    def test_broken_block_csv_exit_3(self, capsys):
        # The failed case has its status and no values, as in json-lines.
        argv = ["compose", "--blocks", "broken", "--base", "q_bin", "--samples", "1"]
        code, out = run_cli(capsys, argv + ["--report", "csv"])
        assert code == 3
        [row] = parse_csv(out)
        assert (row["status"], row["passed"]) == ("property-H-failed", "False")
        assert row["rel_error"] == row["lhs_re"] == row["rhs_converged"] == ""

    def test_unknown_block_exit_2(self):
        assert cli.main(["compose", "--blocks", "nonsense"]) == 2

    def test_mixed_blocks(self, capsys):
        # A transformation block and a q-binomial block over a
        # transformation base block.
        code, out = run_cli(
            capsys,
            ["compose", "--blocks", "q_bin,q_euler", "--base", "q_euler",
             "--samples", "1", "--seed", "2"],
        )
        assert code == 0
        parsed = report.parse_json_lines(out)
        assert parsed["cases"][0]["identity"] == "composed:q_bin+q_euler/q_euler"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["compose", "--blocks", "gk:0"], None),
            (["compose", "--blocks", "milne_lilly:-1"], None),
            (["compose", "--blocks", "kajihara:2x0"], None),
            (["verify", "--identity", "q_binomial"], {"samples": "2"}),
            (["verify", "--identity", "q_binomial"], {"dims": {"n": 2}}),
            (["verify", "--identity", "q_binomial", "--max-shell", "-1"], None),
            (["verify", "--identity", "q_binomial", "--tail-tol", "0"], None),
            # A dimension the block does not have is refused, not ignored.
            (["compose", "--blocks", "q_bin:3", "--base", "q_euler:2"], None),
            (["compose", "--base", "q_euler:2"], None),
            # An empty list verified nothing and passed, or ran every family
            # at all-ones dimensions.
            (["verify", "--identity", "q_binomial"], {"identities": []}),
            (["verify", "--identity", "q_binomial"], {"dims": []}),
            # No side can stop early when min_shells reaches the shell cap:
            # --max-shell, else the family's or composed identity's own.
            (
                ["verify", "--identity", "thm_heine7", "--min-shells", "100"]
                + ["--max-shell", "5"],
                None,
            ),
            (["verify", "--identity", "thm_heine7", "--max-shell", "0"], None),
            (["verify", "--identity", "thm_heine7", "--min-shells", "50"], None),
            (["compose", "--blocks", "q_bin"], {"min_shells": 50}),
        ],
    )
    def test_config_error_exit_2(self, capsys, tmp_path, argv, config):
        self._exits_2(capsys, tmp_path, argv, config)

    @pytest.mark.parametrize("value", [{}, True])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(cli.RunConfig)])
    def test_wrong_typed_config_value_exit_2(self, capsys, tmp_path, name, value):
        # No field takes a dict, and none takes a bool for its int or float.
        argv = ["verify", "--identity", "q_binomial", "--samples", "1"]
        self._exits_2(capsys, tmp_path, argv, {name: value})

    @pytest.mark.parametrize(
        "argv, config",
        [
            (
                ["verify", "--identity", "q_binomial"],
                {"mode": "compose", "blocks": ["q_bin"], "samples": 1},
            ),
            (
                ["compose", "--blocks", "q_bin"],
                {"mode": "verify", "identities": ["q_binomial"], "samples": 1},
            ),
        ],
    )
    def test_config_of_the_other_command_exit_2(self, capsys, tmp_path, argv, config):
        # The command names the run: a config file for the other command is
        # refused instead of switching the run to it.
        self._exits_2(capsys, tmp_path, argv, config)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "q_binomial", "--samples", "1", "--seed", "2"],
            ["compose", "--blocks", "q_bin", "--samples", "1", "--seed", "2"],
        ],
    )
    def test_report_header_config_reloads(self, capsys, tmp_path, argv):
        # The header's config names the command's own mode, so it loads.
        code, out = run_cli(capsys, argv)
        config_path = tmp_path / "run.json"
        header = report.parse_json_lines(out)["header"]
        config_path.write_text(json.dumps(header["config"]))
        again, replay = run_cli(capsys, [argv[0], "--config", str(config_path)])
        assert code == again == 0
        assert report.strip_volatile(replay) == report.strip_volatile(out)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "name, flag", [("tolerance", "--tol"), ("tail_tol", "--tail-tol")]
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_tolerance_exit_2(
        self, capsys, tmp_path, value, name, flag, source
    ):
        # A tolerance of inf passed every case and nan failed every one, and
        # either wrote a header that is not JSON.
        argv = ["verify", "--identity", "q_binomial", "--samples", "1"]
        if source == "flag":
            self._exits_2(capsys, tmp_path, argv + [flag, value], None)
        else:
            # json.dumps writes Infinity and NaN, which json.load reads back.
            self._exits_2(capsys, tmp_path, argv, {name: float(value)})

    @staticmethod
    def _exits_2(capsys, tmp_path, argv, config):
        if config is not None:
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps(config))
            argv = argv + ["--config", str(config_path)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identity", "q_binomial", "--samples", "1"],
        ["compose", "--samples", "1"],
        ["export-catalog"],
    ],
)
def test_unwritable_out_exit_2(capsys, monkeypatch, tmp_path, argv):
    # A report path in a missing directory is a configuration error, found
    # before any case is verified.
    verify, cases = catalog.verify, []

    def counted(*args, **kwargs):
        cases.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(catalog, "verify", counted)
    out = tmp_path / "missing" / "r.jsonl"
    code = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()
    assert cases == []


class TestExportCatalog:
    def test_document(self, capsys):
        code, out = run_cli(capsys, ["export-catalog"])
        assert code == 0
        document = json.loads(out)
        assert document["schema_version"] == "1"
        assert len(document["identities"]) == 33


class TestConfigParsing:
    @pytest.mark.parametrize("command", ["verify", "compose"])
    def test_flag_defaults_are_run_config_defaults(self, command):
        # A flag stores under its field's name and reads its default there;
        # the fields named here are one command's own, or built from flags.
        args = vars(cli.build_parser().parse_args([command]))
        default = cli.RunConfig()
        own = {"mode", "identities", "dims", "blocks", "base"}
        for name in {f.name for f in dataclasses.fields(cli.RunConfig)} - own:
            assert args[name] == getattr(default, name), name

    def test_float_field_accepts_an_int(self):
        cli.validate_config(cli.RunConfig(tail_tol=1, tolerance=0))

    def test_parse_dims(self):
        assert cli.parse_dims_spec("n=2,m=1") == {"n": 2, "m": 1}
        with pytest.raises(InvalidConfig):
            cli.parse_dims_spec("n=x")

    def test_parse_block_spec(self):
        assert cli.parse_block_spec("milne_lilly:2") == ("milne_lilly", (2,))
        assert cli.parse_block_spec("kajihara:2x1") == ("kajihara", (2, 1))
        assert cli.parse_block_spec("q_bin") == ("q_bin", (1,))


def _load_script(name):
    """The module of ``scripts/<name>.py``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_side_cost_prints_one_side_of_one_case(capsys):
    # scripts/side_cost.py times one side alone on the family's first draw
    # at seed 1; its index and shell counts are those of the report, and
    # it counts the infinite products the side computed.
    script = _load_script("side_cost")
    argv = ["master_instance_lauricella", "--dims", "p=2,n=2,m=1", "--side", "lhs"]
    assert script.main(argv) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("master_instance_lauricella lhs seconds=")
    assert line.endswith(" terms=52360 shells=32 products=18"), line


def test_fold_cost_prints_both_tables(capsys):
    # scripts/fold_cost.py times raw_product and raw_sum against the
    # sequential folds: one row per precision and count in each table.
    script = _load_script("fold_cost")
    assert script.main(["--number", "1", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [line for line in lines if line.startswith("| bits |")]
    assert [h.split("|")[4].strip() for h in headers] == ["raw_product µs", "raw_sum µs"]
    rows = [line for line in lines if line.startswith("| ") and line[2].isdigit()]
    assert len(rows) == 2 * 3 * 4
    assert {row.split("|")[1].strip() for row in rows} == {"128", "256", "1024"}


class TestReportDigests:
    """The stripped reports of the reference sweep, of the hiprec_sweep
    families at 1024 bits and of the compose_mix specs hash to the digests
    recorded here, and so do the compose runs of the two blocks that
    compose_mix never draws, with their exit codes: a change that means to
    keep every value bit for bit keeps them.  A change that moves values
    updates these constants and says in CHANGES.md which values moved and
    why."""

    DIGESTS = {
        "reference": "91477ea8d28c63d542be075a028a9822462e53b1f1e82726e5523e343b841b54",
        "compose_mix": "727257adddec85f5e1c2d8332487abbf7691b3605855411a3b2effbe18b602fe",
        "hiprec": "8cdd85d251a2a5fc4dd11444e4b7a48f1d5783660f1dd329430c5e4a7ac08833",
    }

    # block -> (qheine compose arguments, exit code, digest)
    COMPOSE_RUNS = {
        "extra_c": (
            "--blocks extra_c:2,extra_c:1 --base extra_c:2 --samples 2 --seed 5",
            0,
            "019c9feb22562cffd581f389cf35e584348905bff35f55800cf94e2b9b69951b",
        ),
        "broken": (
            "--blocks broken --base q_bin --samples 2 --seed 5",
            3,
            "59162053b73f2c9f51710cf92416367da4d05d261d818ed350704acb8d9532f6",
        ),
    }

    @pytest.mark.parametrize("run", sorted(DIGESTS))
    def test_digest_is_unchanged(self, capsys, run):
        script = _load_script("report_digest")
        capsys.readouterr()
        assert script.main([] if run == "reference" else [run]) == 0
        assert capsys.readouterr().out.split() == [self.DIGESTS[run]]

    @pytest.mark.parametrize("block", sorted(COMPOSE_RUNS))
    def test_compose_digest_is_unchanged(self, capsys, block):
        arguments, exit_code, digest = self.COMPOSE_RUNS[block]
        script = _load_script("report_digest")
        capsys.readouterr()
        assert script.main(["compose", *arguments.split()]) == exit_code
        assert capsys.readouterr().out.split() == [digest]


class TestReportDiff:
    """scripts/report_diff.py fails a pair of reports whose cases did
    different work, even when every value and verdict agrees."""

    @staticmethod
    def _script():
        return _load_script("report_diff")

    def test_changed_term_count_fails(self, tmp_path, capsys):
        base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
        argv = ["verify", "--identity", "q_binomial", "--samples", "2", "--seed", "1"]
        assert cli.main(argv + ["--out", str(base)]) == 0
        lines = base.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if '"kind":"case"' in line)
        lines[index], count = re.subn(
            r'"lhs_terms":(\d+)',
            lambda match: f'"lhs_terms":{int(match.group(1)) + 1}',
            lines[index],
        )
        assert count == 1
        new.write_text("".join(lines), encoding="utf-8")
        diff = self._script()
        capsys.readouterr()
        assert diff.main([str(base), str(base)]) == 0
        assert "CHANGED" not in capsys.readouterr().out
        assert diff.main([str(base), str(new)]) == 1
        out = capsys.readouterr().out
        assert out.count("COUNTS CHANGED") == 1 and "VERDICT" not in out


def test_report_digest_saves_the_reports_it_hashes(tmp_path, capsys, monkeypatch):
    # --save writes the stripped reports joined in run order; their sha256
    # is the digest printed, and report_diff.py reads them, the cases of
    # every run, and refuses a file that holds one case twice.
    digest, diff = _load_script("report_digest"), _load_script("report_diff")
    verify = ["verify", "--identity", "q_binomial", "--samples", "2", "--seed", "1"]
    compose = ["compose", "--blocks", "q_bin", "--base", "q_bin", "--samples", "1"]
    monkeypatch.setattr(digest, "commands", lambda extra: [verify, compose])
    saved = tmp_path / "joined.jsonl"
    capsys.readouterr()
    assert digest.main(["--save", str(saved)]) == 0
    printed = capsys.readouterr().out.split()
    text = saved.read_text(encoding="utf-8")
    assert printed == [hashlib.sha256(text.encode("utf-8")).hexdigest()]
    assert report.strip_volatile(text) == text
    cases = report.parse_json_lines(text)["cases"]
    identities = {case["identity"] for case in cases}
    assert identities == {"q_binomial", "composed:q_bin/q_bin"}
    assert diff.main([str(saved), str(saved)]) == 0
    out = capsys.readouterr().out
    # Three case lines and the largest change.
    assert len(out.splitlines()) == 4 and "CHANGED" not in out
    monkeypatch.setattr(digest, "commands", lambda extra: [verify, verify])
    twice = tmp_path / "twice.jsonl"
    assert digest.main(["--save", str(twice)]) == 0
    assert diff.main([str(saved), str(twice)]) == 2
    assert "appears twice" in capsys.readouterr().err


def test_report_digest_of_a_compose_run():
    root = Path(__file__).resolve().parents[1]
    argv = ["compose", "--blocks", "q_bin", "--base", "q_bin", "--samples", "1"]
    command = [sys.executable, str(root / "scripts" / "report_digest.py")]
    command += argv + ["--seed", "3"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    digests = []
    for _ in range(2):
        run = subprocess.run(command, capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", run.stdout)
        digests.append(run.stdout)
    assert digests[0] == digests[1]


def test_compose_showcase_matches_the_catalog(capsys, monkeypatch):
    showcase = _load_script("compose_showcase")
    assert showcase.main(["--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("lhs/rhs agreement: 0.0 / 0.0") == len(showcase.FAMILIES) == 4

    # Composed sides evaluated at another precision differ: the script says
    # which and exits 1.
    def at_96_bits(params, bases):
        return make_context(params, BaseSystem(bases.q, bases.h, bases.t, 96))

    monkeypatch.setattr(showcase, "make_context", at_96_bits)
    assert showcase.main(["--seed", "4"]) == 1
    assert "composed sides differ from the catalog: bibasic_heine," in (
        capsys.readouterr().out
    )


def test_report_digest_commands():
    # The argv each form of report_digest.py runs; no run is made.
    digest = _load_script("report_digest")
    assert digest.command([]) == digest.ARGV
    compose = ["compose", "--blocks", "q_bin", "--base", "q_bin"]
    assert digest.command(compose) == compose
    argv = digest.command(["hiprec", "--seed", "2"])
    assert argv[:1] == ["verify"] and "--all" not in argv
    assert argv[argv.index("--precision") + 1] == "1024"
    assert argv[-2:] == ["--seed", "2"]
    identities = [arg[len("--identity=") :] for arg in argv if "--identity=" in arg]
    excluded = set(digest.workloads.HIPREC_EXCLUDED)
    expected = [f.id for f in catalog.register_all() if f.id not in excluded]
    assert identities == expected and len(identities) == 29
    assert excluded <= {f.id for f in catalog.register_all()}


def test_report_digest_compose_mix_commands():
    # One compose argv per compose_mix spec, at seed 1 with the spec's
    # sample count; no run is made.
    digest = _load_script("report_digest")
    specs = digest.workloads.COMPOSE_SPECS
    argvs = digest.commands(["compose_mix", "--precision", "256"])
    assert len(argvs) == len(specs) == 5
    for argv, (blocks, base, samples) in zip(argvs, specs):
        assert argv == [
            "compose",
            "--blocks",
            ",".join(blocks),
            "--base",
            base,
            "--samples",
            str(samples),
            "--seed",
            "1",
            "--precision",
            "256",
        ]
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        cli.validate_config(config)
        assert (tuple(config.blocks), config.base) == (blocks, base)
        assert (config.samples, config.seed, config.precision) == (samples, 1, 256)
    # The other forms run one command each.
    for extra in ([], ["hiprec"], ["compose", "--blocks", "q_bin", "--base", "q_bin"]):
        assert digest.commands(extra) == [digest.command(extra)]
