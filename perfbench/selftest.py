"""Self-test of the benchmark: seconds-scale runs of every workload.

Run from the repository root (about a minute)::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so the repository's own test suite
does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import (END_TO_END_UNITS, PER_LAYER_UNITS,  # noqa: E402
                       WORKLOADS, run_workload)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: public calls each workload must reach in its traced run
COMMON_CALLS = {"load_dataset", "Runner.run", "overall_discrepancy",
                "protected_discrepancy", "average_shortest_path_length",
                "triangle_count", "ServeDaemon.generate",
                "ContinuousBatcher.submit", "ContinuousBatcher.step",
                "Backend.decode_step"}
EXPECTED_CALLS = {
    "fairgen-blog": COMMON_CALLS | {
        "sample_walks", "WalkEngine.walks", "assemble_from_scores",
        "TransformerWalkModel.sample_chunked", "Tensor.backward", "Adam.step",
        "train_step", "node2vec_embedding", "SkipGramModel.train",
        "ContextSampler.sample", "FairDiscriminator.train_step",
        "FairDiscriminator.predict_log_proba", "SelfPacedState.update",
        "SelfPacedState.pseudo_labels", "TransformerWalkModel.log_likelihood",
        "TransformerWalkModel.log_likelihood_pair", "FairGen.generate_walks"},
    "serve-acm": COMMON_CALLS,
}


def _quiet(*_args):
    pass


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == PER_LAYER_UNITS
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = run_workload(workload, seed=3, seconds=4, trace=False,
                          tiny=True, log=_quiet)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == END_TO_END_UNITS
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_spans_every_exercised_call(workload, tmp_path):
    from repro.obs.trace import load_trace, summarize_trace

    path = tmp_path / "trace.json"
    result = run_workload(workload, seed=4, seconds=4, trace=True, tiny=True,
                          trace_path=str(path), log=_quiet)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == PER_LAYER_UNITS
    calls = {e["args"]["call"] for e in load_trace(path) if e["ph"] == "B"}
    assert EXPECTED_CALLS[workload] <= calls
    layers = {row["name"] for row in summarize_trace([path])}
    assert {"data", "eval", "experiments", "nn", "serve"} <= layers
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["serve.requests"] > 0 and values["serve.failed"] == 0
    assert 0 <= values["trace.unattributed_share"] < 1
    if workload == "fairgen-blog":
        assert values["train.step_s"] > 0 and values["embedding.sgns_s"] > 0
    if workload == "serve-acm":
        assert values["train.steps"] == 0 and values["nn.backward_calls"] == 0


def test_one_corrupted_response_fails_a_check():
    result = run_workload("serve-acm", seed=5, seconds=4, trace=False,
                          tiny=True, corrupt=0, log=_quiet)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-acm",
         "--seed", "6", "--seconds", "4", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-acm",
         "--seed", "1", "--seconds", "25", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
