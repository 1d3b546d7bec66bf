"""CLI-boundary tests for ``repro lint`` (the PR 4/5 validation convention).

Bad input must die at the boundary with a ``lint: ...`` message on
stderr and exit status 2 — never as a traceback from inside the
analyzer — and the ``oscar-repro`` front-end must dispatch ``lint``
before the main parser, with a stub subparser so ``--help`` lists it.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.run import main as lint_main
from repro.cli import build_parser, main as cli_main

CLEAN = "x = 1\n"
DIRTY = "import time\n\n\ndef f():\n    return time.time()\n"


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "dirty.py").write_text(DIRTY)
    return pkg


class TestExitStatuses:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text(CLEAN)
        assert lint_main([str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        assert lint_main([str(tree)]) == 1
        assert "CLK001" in capsys.readouterr().out

    def test_unknown_rule_code_exits_two(self, tree, capsys):
        assert lint_main(["--select", "NOPE", str(tree)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lint: unknown rule code")

    def test_bad_path_exits_two(self, capsys):
        assert lint_main(["definitely/not/here"]) == 2
        assert "lint: no such file or directory" in capsys.readouterr().err

    def test_non_python_file_exits_two(self, tmp_path, capsys):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        assert lint_main([str(target)]) == 2
        assert "lint: not a Python file" in capsys.readouterr().err

    def test_broken_baseline_exits_two(self, tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        assert lint_main(["--baseline", str(baseline), str(tree)]) == 2
        assert "lint:" in capsys.readouterr().err

    def test_conflicting_baseline_flags_exit_two(self, tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        code = lint_main(
            ["--baseline", str(baseline), "--no-baseline", str(tree)]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestFlags:
    def test_json_format(self, tree, capsys):
        assert lint_main(["--format", "json", str(tree)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-lint/1"
        assert payload["counts"] == {"CLK001": 1}

    def test_select_narrows(self, tree, capsys):
        assert lint_main(["--select", "RNG001", str(tree)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RNG001", "KEY001", "SOA001", "ITER001", "CLK001", "DOC001"):
            assert code in out

    def test_write_baseline_round_trip(self, tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert lint_main(["--write-baseline", str(baseline), str(tree)]) == 0
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == "repro-lint-baseline/1"
        assert payload["entries"][0]["justification"] == "TODO: justify"
        # The generated placeholder cannot be consumed as-is ...
        assert lint_main(["--baseline", str(baseline), str(tree)]) == 2
        # ... until a human writes the real justification.
        payload["entries"][0]["justification"] = "test fixture"
        baseline.write_text(json.dumps(payload))
        assert lint_main(["--baseline", str(baseline), str(tree)]) == 0
        capsys.readouterr()


class TestFrontEnd:
    def test_repro_lint_dispatches(self, tree, capsys):
        assert cli_main(["lint", str(tree)]) == 1
        assert "CLK001" in capsys.readouterr().out

    def test_repro_lint_bad_input_exits_two(self, capsys):
        assert cli_main(["lint", "definitely/not/here"]) == 2
        assert "lint:" in capsys.readouterr().err

    def test_lint_help_lists_rules_flagset(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--select", "--format", "--baseline", "--write-baseline"):
            assert flag in out

    def test_top_level_help_lists_lint(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "lint" in capsys.readouterr().out
