"""Tests of the benchmark itself: a tiny pass of every workload through the
same code the full runs use, and the output checks against corrupted input."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run as bench_run  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.checks import (  # noqa: E402
    check_broad_ranks,
    check_two_stage_order,
    reference_order,
    reference_rank,
    reference_scores,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_tiny_run_passes_checks_and_reports_every_metric(name, seed, tmp_path):
    result = workloads.run(name, seed, 0.05, False, tmp_path, size="tiny")
    assert result.problems == []
    assert result.attempted > 0 and result.failed == 0
    assert {k: unit for k, (_, unit) in result.metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    result = workloads.run(name, 3, 0.05, True, tmp_path, size="tiny")
    assert result.problems == []
    assert {k: unit for k, (_, unit) in result.metrics.items()} == PER_LAYER
    metrics = {k: value for k, (value, _) in result.metrics.items()}
    assert metrics["data.generate_calls"] == 1
    if name == "train_default":
        assert metrics["tensor.backward_calls"] > 0 and metrics["training.adamw_calls"] > 0
        assert metrics["pipeline.compose_calls"] == 0 and metrics["metrics.ranks_calls"] == 0
    else:
        assert metrics["tensor.backward_calls"] == 0
        assert metrics["checkpoint.load_calls"] == 1
        assert metrics["encoders.text_global_spread"] > 0
        assert metrics["pipeline.rerank_reordered_share"] > 0


def test_untouched_model_state_fails_the_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "perturbed_model", lambda cfg, seed, work_dir: workloads.fr.RetrievalModel(cfg))
    result = workloads.run("query_500", 0, 0.05, False, tmp_path, size="tiny")
    assert not result.correct
    assert result.failed > 0
    assert any("text globals are identical" in p for p in result.problems)


def test_json_line_is_last_and_exact(tmp_path, monkeypatch):
    sizes = workloads.Query500.sizes
    monkeypatch.setattr(workloads.Query500, "sizes", dict(sizes, full=sizes["tiny"]))
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench_run.main(["--workload", "query_500", "--seed", "4", "--seconds", "0.05",
                               "--out", str(tmp_path)])
    assert code == 0
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(END_TO_END)
    run_dir = tmp_path / "query_500-seed4-trace0"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 4 and manifest["run_config"]["seed"] == 4
    assert json.loads((run_dir / "result.json").read_text())["outputs"]["ranks_digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_500", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _gallery(n=40, c=8, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, c))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def test_reference_rank_counts_ties_at_lower_index():
    scores = np.array([0.5, 0.9, 0.5, 0.5, 0.1])
    assert reference_rank(scores, 1) == 1
    assert reference_rank(scores, 0) == 2
    assert reference_rank(scores, 3) == 4
    assert list(reference_order(scores)) == [1, 0, 2, 3, 4]


def test_wrong_broad_rank_fails_check_a():
    gallery = _gallery()
    queries = gallery[[3, 7]]
    truths = np.array([3, 7])
    good = [reference_rank(reference_scores(gallery, q), t) for q, t in zip(queries, truths)]
    assert check_broad_ranks(good, queries, gallery, truths) == []
    bad = [good[0], good[1] + 1]
    assert len(check_broad_ranks(bad, queries, gallery, truths)) == 1


def test_corrupted_ordering_fails_check_b():
    k = 5
    scores = reference_scores(_gallery(), _gallery(1, seed=9)[0])
    ref = reference_order(scores)
    reranked = np.concatenate([ref[:k][::-1], ref[k:]])
    assert check_two_stage_order(reranked, scores, k) == []

    swapped_tail = reranked.copy()
    swapped_tail[[k + 1, k + 2]] = swapped_tail[[k + 2, k + 1]]
    assert check_two_stage_order(swapped_tail, scores, k)

    outsider = reranked.copy()
    outsider[[0, k + 3]] = outsider[[k + 3, 0]]
    assert check_two_stage_order(outsider, scores, k)

    duplicate = reranked.copy()
    duplicate[-1] = duplicate[0]
    assert check_two_stage_order(duplicate, scores, k)

    assert check_two_stage_order(reranked[:-1], scores, k)
