"""Self-test of the benchmark: a short run of every workload, untraced and
traced, prints every metric of BENCHMARK.json with its unit, and the metrics
that apply to a workload carry a measured value.

Run from the repository root (takes about two minutes):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DOC["workloads"]]

ALL = set(WORKLOADS)
COMPOSED = {"cora-gcn", "pubmed-gcnlp", "cora-sweep"}

# Per-layer metrics that must read above zero on the named workloads. The
# rest may legitimately read zero (a failed trial count, a layer the
# workload never enters).
APPLIES = {
    "data.load_dataset_s": ALL,
    "data.splits_s": {"cora-sweep"},
    "graph.build_operator_s": ALL,
    "networks.compile_s": ALL,
    "networks.forward_train_ms": ALL,
    "networks.backward_ms": ALL,
    "networks.forward_infer_ms": ALL,
    "networks.executor_self_ms": ALL,
    **{
        f"networks.{k}.{m}": ALL
        for k in ("dropout", "linear", "relu", "softmax")
        for m in ("fwd_ms", "vjp_ms", "calls", "elements")
    },
    **{f"networks.smooth.{m}": {"cora-gcn", "pubmed-gcnlp"} for m in ("fwd_ms", "vjp_ms", "calls", "elements")},
    **{f"networks.lp.{m}": {"pubmed-gcnlp", "cora-sweep"} for m in ("fwd_ms", "vjp_ms", "calls", "elements")},
    "training.loss_ms": COMPOSED,
    "training.adam_ms": COMPOSED,
    "training.validation_ms": COMPOSED,
    "training.epoch_ms_p50": ALL,
    "training.epoch_ms_p90": ALL,
    "evaluation.accuracy_ms": COMPOSED,
    **{f"lpnn.{m}": {"cora-lpnn"} for m in ("loss_ms", "g_forward_ms", "g_backward_ms", "adam_ms")},
    **{f"cli.{m}": {"cora-sweep"} for m in ("trial_s_p50", "trial_s_p90", "trial_compile_s", "concurrency")},
    "cost.feature_prop.ops": {"cora-gcn", "pubmed-gcnlp"},
    "cost.feature_prop.ms": {"cora-gcn", "pubmed-gcnlp"},
    "cost.hidden.ops": {"cora-gcn", "pubmed-gcnlp"},
    "cost.hidden.ms": ALL,
    "cost.classifier.ops": {"cora-gcn", "pubmed-gcnlp"},
    "cost.classifier.ms": ALL,
    "cost.label_prop.ops": {"pubmed-gcnlp"},
    "cost.label_prop.ms": {"pubmed-gcnlp", "cora-sweep"},
    "cost.unmodelled.ms": ALL,
    "trace.epochs_per_s": ALL,
    "trace.untraced_epochs_per_s": ALL,
    "trace.spans": ALL,
}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = run_bench(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in DOC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, entry in metrics.items():
        assert entry["value"] > 0, name
    assert metrics["ok_share"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    metrics = run_bench(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in DOC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    applies = [name for name, where in APPLIES.items() if workload in where]
    assert [n for n in applies if not metrics[n]["value"] > 0] == []
    assert metrics["trace.missing_layers"]["value"] == 0

    value = {k: v["value"] for k, v in metrics.items()}
    # Train-mode forward time is attributed to entry-kind spans: the executor's
    # own time is a small share of its forward and backward spans.
    chain_ms = value["networks.forward_train_ms"] + value["networks.backward_ms"]
    assert value["networks.executor_self_ms"] < 0.1 * chain_ms
    kinds_fwd = sum(value[f"networks.{k}.fwd_ms"] for k in
                    ("dropout", "linear", "relu", "smooth", "softmax", "lp"))
    assert kinds_fwd > 0.8 * value["networks.forward_train_ms"]


def test_refuses_to_run_without_the_package():
    """In a directory holding only the benchmark, the run fails without a result."""
    bare = ROOT / ".perfbench_work" / "bare"
    (bare / "perfbench").mkdir(parents=True, exist_ok=True)
    try:
        for name in ("run.py", "tracing.py"):
            (bare / "perfbench" / name).write_bytes((ROOT / "perfbench" / name).read_bytes())
        (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cora-gcn", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
