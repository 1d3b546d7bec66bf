"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.experiments import all_specs


class TestParser:
    def test_run_accepts_every_spec(self):
        parser = build_parser()
        for spec in all_specs():
            args = parser.parse_args(["run", spec.id])
            assert args.experiments == [spec.id]

    def test_run_accepts_multiple_specs(self):
        args = build_parser().parse_args(["run", "fig1a", "fig1c"])
        assert args.experiments == ["fig1a", "fig1c"]

    def test_defaults(self):
        args = build_parser().parse_args(["run", "fig1c"])
        assert args.scale == 1.0
        assert args.seed == 42
        assert args.jobs == 1
        assert args.out is None
        assert not args.force
        assert args.csv_dir is None

    def test_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "run", "fig1b",
                "--scale", "0.1", "--seed", "7",
                "--jobs", "4", "--out", str(tmp_path / "arts"), "--force",
                "--csv-dir", str(tmp_path), "--log-y",
            ]
        )
        assert args.scale == 0.1
        assert args.seed == 7
        assert args.jobs == 4
        assert args.out == tmp_path / "arts"
        assert args.force
        assert args.csv_dir == tmp_path
        assert args.log_y and not args.log_x

    def test_all_subcommand(self):
        assert build_parser().parse_args(["all"]).command == "all"

    def test_sweep_subcommand(self):
        args = build_parser().parse_args(
            ["sweep", "scenario", "--axis", "substrate=oscar,chord"]
        )
        assert args.target == "scenario"
        assert args.axis == ["substrate=oscar,chord"]

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figZZ"])
        assert "invalid choice" in capsys.readouterr().err


class TestMain:
    def test_fig1a_renders(self, capsys):
        exit_code = main(["run", "fig1a", "--scale", "0.02"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fig1a" in out
        assert "analytic_mean" in out
        assert "finished in" in out
        assert "ran 1, cached 0" in out

    def test_bare_experiment_name_still_works(self, capsys):
        # Back-compat: `repro fig1a` == `repro run fig1a`.
        exit_code = main(["fig1a", "--scale", "0.02"])
        assert exit_code == 0
        assert "analytic_mean" in capsys.readouterr().out

    def test_flags_first_spelling_still_works(self, capsys):
        # The old single parser accepted options before the positional.
        exit_code = main(["--scale", "0.02", "fig1a"])
        assert exit_code == 0
        assert "analytic_mean" in capsys.readouterr().out

    def test_flag_value_colliding_with_command_name(self, tmp_path, capsys):
        # "run" here is the value of --out, not a subcommand.
        exit_code = main(
            ["fig1a", "--scale", "0.02", "--out", str(tmp_path / "run")]
        )
        assert exit_code == 0
        assert "analytic_mean" in capsys.readouterr().out

    def test_flags_before_subcommand(self, capsys):
        exit_code = main(["--tag", "ablation", "list"])
        assert exit_code == 0
        assert "abl-sampling" in capsys.readouterr().out

    def test_object_param_rejected_from_cli(self, capsys):
        exit_code = main(["run", "ext-mercury", "--param", "oscar_config=foo"])
        assert exit_code == 2
        assert "oscar_config" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        exit_code = main(["fig1a", "--scale", "0.02", "--csv-dir", str(tmp_path)])
        assert exit_code == 0
        csv_file = tmp_path / "fig1a.csv"
        assert csv_file.exists()
        assert csv_file.read_text().startswith("series,x,y")
        assert "series written to" in capsys.readouterr().out

    def test_small_growth_experiment(self, capsys):
        exit_code = main(["fig1c", "--scale", "0.015", "--seed", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "constant" in out and "stepped" in out

    def test_queries_flag_caps_measurement(self, capsys):
        exit_code = main(["fig1c", "--scale", "0.015", "--queries", "20"])
        assert exit_code == 0
        assert "fig1c" in capsys.readouterr().out

    def test_queries_flag_ignored_by_fig1a(self, capsys):
        exit_code = main(["fig1a", "--scale", "0.02", "--queries", "20"])
        assert exit_code == 0

    def test_param_override(self, capsys):
        exit_code = main(["run", "fig1a", "--scale", "0.02", "--param", "mean_degree=30"])
        assert exit_code == 0
        assert "30.000" in capsys.readouterr().out

    def test_param_requires_single_experiment(self, capsys):
        exit_code = main(["run", "fig1a", "fig1c", "--param", "mean_degree=30"])
        assert exit_code == 2
        assert "--param" in capsys.readouterr().err

    def test_unknown_param_rejected(self, capsys):
        exit_code = main(["run", "fig1a", "--param", "bogus=1"])
        assert exit_code == 2
        assert "bogus" in capsys.readouterr().err

    def test_unparsable_param_value_rejected(self, capsys):
        # A bad value spelling is a user error (exit 2), not a traceback.
        exit_code = main(["run", "fig1a", "--param", "mean_degree=abc"])
        assert exit_code == 2
        assert "mean_degree" in capsys.readouterr().err

    def test_artifact_cache_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        assert "ran 1, cached 0" in capsys.readouterr().out
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        out = capsys.readouterr().out
        assert "ran 0, cached 1" in out
        assert "served from cache" in out
        # --force re-simulates despite the cache.
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store, "--force"]) == 0
        assert "ran 1, cached 0" in capsys.readouterr().out


class TestListSubcommand:
    def test_lists_every_spec(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for spec in all_specs():
            assert spec.id in out
        assert "substrate-churn" in out  # registered sweeps shown too

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "abl-sampling" in out
        assert "fig1a" not in out

    def test_params_shown(self, capsys):
        assert main(["list", "--params"]) == 0
        out = capsys.readouterr().out
        assert "--param mean_degree" in out
        assert "--param sizes=10000,31600,100000 (tuple)" in out

    def test_every_listed_default_round_trips(self):
        for spec in all_specs():
            for param in spec.params:
                if param.default is None:
                    # Object-valued parameters are set programmatically only.
                    with pytest.raises(ConfigError):
                        param.coerce(param.text)
                else:
                    assert param.coerce(param.text) == param.default, (spec.id, param.name)

    def test_unknown_tag_fails(self, capsys):
        assert main(["list", "--tag", "nope"]) == 1


class TestSweepSubcommand:
    def test_adhoc_axis_sweep(self, capsys):
        exit_code = main(
            [
                "sweep", "scenario",
                "--axis", "substrate=oscar,chord",
                "--scale", "0.008", "--queries", "10",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "substrate=oscar" in out and "substrate=chord" in out
        assert "final_cost" in out

    def test_unknown_sweep_rejected(self, capsys):
        assert main(["sweep", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_sweep_csv_one_file_per_point(self, tmp_path, capsys):
        exit_code = main(
            [
                "sweep", "scenario", "--axis", "substrate=oscar,chord",
                "--scale", "0.008", "--queries", "10", "--csv-dir", str(tmp_path),
            ]
        )
        assert exit_code == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "scenario-substrate_chord.csv",
            "scenario-substrate_oscar.csv",
        ]

    def test_bad_axis_spelling_rejected(self, capsys):
        assert main(["sweep", "scenario", "--axis", "substrate"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err


class TestReportSubcommand:
    def test_report_from_artifacts(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        report = tmp_path / "EXPERIMENTS.md"
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        capsys.readouterr()
        assert main(["report", "--out", store, "--file", str(report)]) == 0
        text = report.read_text()
        assert "# Experiment record" in text
        assert "`fig1a`" in text
        assert "analytic_mean" in text

    def test_report_skips_scenario_grid_points(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        report = tmp_path / "EXPERIMENTS.md"
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        assert main(
            [
                "sweep", "scenario", "--axis", "substrate=oscar",
                "--scale", "0.008", "--queries", "10", "--out", store,
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--out", store, "--file", str(report)]) == 0
        text = report.read_text()
        assert "`fig1a`" in text
        # An arbitrary sweep grid point is not a canonical record.
        assert "`scenario`" not in text

    def test_report_without_artifacts_fails(self, tmp_path, capsys):
        exit_code = main(
            ["report", "--out", str(tmp_path / "empty"), "--file", str(tmp_path / "E.md")]
        )
        assert exit_code == 1
        assert "no artifacts" in capsys.readouterr().err


def _stored_scalars(out, spec_id: str) -> dict:
    """The scalars of the single artifact ``repro run --out`` stored for
    ``spec_id`` — what the CI smoke gates read."""
    (path,) = (out / spec_id).glob("*.json")
    return json.loads(path.read_text(encoding="utf-8"))["result"]["scalars"]


class TestRunConfigErrors:
    @pytest.mark.parametrize(
        ("spec_id", "assignment", "needle"),
        [
            ("steady-churn", "half_life=0", "half_life"),
            ("steady-churn", "repair_every=0", "repair_every"),
            ("detector-churn", "loss=1.5", "loss"),
            ("serve-churn", "replicas=0", "replication factor"),
            ("serve-churn", "cache_size=-1", "cache capacity"),
            ("steady-churn", "epochs=0", "epochs"),
            ("detector-churn", "epochs=0", "epochs"),
            ("serve-churn", "epochs=0", "epochs"),
        ],
    )
    def test_engine_config_error_is_one_line_exit_2(self, spec_id, assignment, needle, capsys):
        argv = ["run", spec_id, "--param", "size=200", "--param", assignment]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("run: ")
        assert needle in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_other_errors_keep_their_traceback(self):
        # An unknown key distribution is a plain ValueError, not a
        # ConfigError: it propagates instead of becoming an exit code.
        with pytest.raises(ValueError, match="unknown key distribution") as info:
            main(["run", "steady-churn", "--param", "size=200", "--param", "keys=bogus"])
        assert not isinstance(info.value, ConfigError)


class TestSpecSmokes:
    """The CI smoke gates run these specs and read these scalars."""

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_steady_churn_reports_churn_seconds(self, tmp_path, capsys):
        argv = ["run", "steady-churn", "--param", "size=300", "--param", "epochs=3",
                "--param", "n_queries=32", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert _stored_scalars(tmp_path, "steady-churn")["churn_seconds"] > 0

    def test_detector_churn_reports_evictions(self, tmp_path, capsys):
        argv = ["run", "detector-churn", "--param", "size=300", "--param", "epochs=4",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        scalars = _stored_scalars(tmp_path, "detector-churn")
        assert {"evictions", "false_evictions"} <= scalars.keys()

    def test_serve_churn_reports_data_loss_counts(self, tmp_path, capsys):
        argv = ["run", "serve-churn", "--param", "size=300", "--param", "epochs=3",
                "--param", "n_queries=256", "--param", "membership=probe",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        scalars = _stored_scalars(tmp_path, "serve-churn")
        gated = {"items_lost_total", "under_k_final", "phantom_total", "stale_serves"}
        assert gated <= scalars.keys()


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "fig1a", "--scale", "0.02"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "fig1a" in completed.stdout

    def test_help_lists_subcommands(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        for command in ("run", "sweep", "list", "report"):
            assert command in completed.stdout

    def test_run_help_lists_experiments(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        # argparse wraps the id list across lines; compare without whitespace.
        compact = "".join(completed.stdout.split())
        for name in ("fig1c", "ext-range", "abl-sampling"):
            assert name in compact
