"""Toy-size smoke runs of the benchmark, so the harness does not rot.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from run import CheckFailed, check_reference  # noqa: E402
from spans import command_metrics  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


# a seed past the recorded input sets, so the runs also cover the folding
def run_bench(cwd, workload, trace, seed=INPUT_SETS + 3):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _copy_checkout(dst, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(dst, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = run_bench(tmp_path, "eval-rank", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()


def test_traced_run_names_a_missing_boundary(tmp_path):
    _copy_checkout(tmp_path)
    module = tmp_path / "src" / "hiertype" / "evaluation.py"
    module.write_text(module.read_text().replace("rank_types", "rank_all_types"))
    model = tmp_path / "src" / "hiertype" / "model.py"
    model.write_text(model.read_text() + "\nrank_all_types = rank_types\n")
    proc = run_bench(tmp_path, "eval-rank", 1)
    assert proc.returncode != 0
    assert "hiertype.evaluation.rank_types" in proc.stderr
    assert "correct" not in proc.stdout


def test_reference_check_fails_on_any_differing_value():
    reference = {"train_loss": 600.0, "dev_map": 0.25}
    check_reference({"train_loss": 600.0 * (1 + 1e-7), "dev_map": 0.25}, reference)
    with pytest.raises(CheckFailed, match="dev_map"):
        check_reference({"train_loss": 600.0, "dev_map": 0.2501}, reference)
    with pytest.raises(CheckFailed):
        check_reference({"train_loss": 600.0}, reference)


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.train", 0.0, 10.0, -1, 4, "r0"],
        ["prepare_typing_batch", 1.0, 2.0, 0, 4, "r0"],
        ["EmbeddingTable.vectors", 1.2, 1.7, 1, 7, "r0"],
        ["encode_vectors_cached", 2.0, 5.0, 0, 1, "r0"],
        ["adam_step", 5.0, 6.0, 0, 1, "r0"],
        ["adam_step", 8.0, 9.0, 0, 1, "r0"],
    ]
    m = command_metrics(spans, structure_batch=2, n_types=10)
    assert m["training.self_s"] == pytest.approx(10.0 - 1.0 - 3.0 - 2.0)
    assert m["training.prepare_s"] == pytest.approx(1.0)
    assert m["corpus.vectors_s"] == pytest.approx(0.5)
    assert m["corpus.tokens"] == 7
    assert m["model.encode_s"] == pytest.approx(3.0)
    assert m["training.steps"] == 2
    assert m["training.step_ms_p50"] == pytest.approx(3000.0)
    assert m["training.pair_cells"] == (4 + 2 * 2) * 10
