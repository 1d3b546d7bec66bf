"""Fast checks of the benchmark itself, every workload at its tiny size.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402

WORKLOADS = sorted(bench.WORKLOADS["tiny"])
SEED = 1


@pytest.fixture(scope="module")
def plain() -> dict[str, bench.Report]:
    return {w: bench.run(w, SEED, 0, trace=False, scale="tiny") for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict[str, bench.Report]:
    return {w: bench.run(w, SEED, 0, trace=True, scale="tiny") for w in WORKLOADS}


def test_registry_matches_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS["full"])
    assert sorted(bench.WORKLOADS["full"]) == WORKLOADS
    for key, registry in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == registry


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_reports_every_end_to_end_metric(plain, workload: str) -> None:
    report = plain[workload]
    out = io.StringIO()
    bench.print_report(report, out)
    text = out.getvalue()
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report.problems
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert len(bench.by_instance(report.rounds)) == bench.WORKLOADS["tiny"][workload].instances
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, (unit, better) in bench.END_TO_END.items():
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(value) and value > 0, name
        line = next(row for row in text.splitlines() if row.startswith(name + " "))
        assert f"({better} is better)" in line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_simulated_outcome_unchanged(plain, traced, workload: str) -> None:
    report = traced[workload]
    assert report.correct, report.problems
    for group in bench.by_instance(report.rounds):
        assert len({bench.digest(r.outcome) for r in group}) == 1
    assert report.digest == plain[workload].digest
    result = report.result()
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    metrics = report.metrics
    shares = sum(metrics[f"{layer}.share"] for layer in bench.LAYERS)
    assert shares + metrics["trace.unattributed_frac"] == pytest.approx(1.0)


def test_probe_churn_reports_detection_lag(traced) -> None:
    metrics = traced["probe-churn"].metrics
    assert metrics["membership.evictions"] > 0
    assert metrics["membership.detection_lag_p90"] >= metrics["membership.detection_lag_p50"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_check_catches_a_changed_outcome(plain, workload: str) -> None:
    committed = bench.load_digests()["tiny"][workload][str(SEED)]
    assert plain[workload].digest == committed
    wrong = {"tiny": {workload: {str(SEED): "0" * 16}}}
    report = bench.run(workload, SEED, 0, trace=False, scale="tiny", digests=wrong)
    assert not report.correct
    assert report.result()["correct"] is False
    assert any("digest" in problem for problem in report.problems)
