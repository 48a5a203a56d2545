"""Golden outputs of the CLI `query` and `eval` verbs, compared byte for byte.

The fixtures under `tests/golden/` pin the ranking and metrics CSVs of a tiny
run (`pair_count=20`) against a checkpoint whose zero-initialised tensors
(`*.bind.out_*`, `fusion.block*.out_*`, `fusion.delta_scale`) hold seeded
non-zero values. At zero init every delta is zero and the text globals are
all the same vector, so a fixture from such a model would pin nothing of
the focused view.

Regenerate the fixtures (only when a change is meant to alter the outputs):

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from focusrank.cli import execute, parse_args
from focusrank.config import default_config
from focusrank.model import RetrievalModel
from focusrank.rng import RandomStream

GOLDEN = Path(__file__).resolve().parent / "golden"
PAIR_COUNT = 20
CHECKPOINT_SEED = 7
ZERO_INIT = re.compile(r"(\.bind\.out_[wb]|^fusion\.block\d+\.out_[wb])$")

QUERY_CASES = [
    (direction, indicators)
    for direction in ("t2v", "v2t")
    for indicators in ("true", "false")
]


def write_checkpoint(path: Path) -> Path:
    """Save a default-config model whose zero-initialised tensors are seeded."""
    cfg = default_config()
    cfg.pair_count = PAIR_COUNT
    model = RetrievalModel(cfg.validate())
    stream = RandomStream(CHECKPOINT_SEED).child("golden")
    state = model.params.state()
    for name, value in state.items():
        if ZERO_INIT.search(name):
            state[name] = stream.child(name).normal(value.shape, scale=0.1 / math.sqrt(cfg.dim))
    state["fusion.delta_scale"] = np.asarray(0.1)
    model.params.load_state(state)
    model.save(path)
    return path


def run_verb(verb: str, out: Path, checkpoint: Path, **overrides) -> None:
    args = [verb, "--out", str(out), "--set", f"pair_count={PAIR_COUNT}",
            "--set", f"checkpoint={checkpoint}"]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    assert execute(parse_args(args)) == 0


def query_output(out: Path, checkpoint: Path, direction: str, indicators: str) -> bytes:
    run_verb("query", out, checkpoint, query_index=3, query_direction=direction,
             use_query_indicators=indicators)
    return (out / "query_result.csv").read_bytes()


def eval_output(out: Path, checkpoint: Path) -> bytes:
    run_verb("eval", out, checkpoint)
    return (out / "metrics.csv").read_bytes()


def query_fixture(direction: str, indicators: str) -> Path:
    suffix = "indicators" if indicators == "true" else "no_indicators"
    return GOLDEN / f"query_{direction}_{suffix}.csv"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return write_checkpoint(tmp_path_factory.mktemp("golden") / "model.bin")


def test_checkpoint_moves_the_focused_view(checkpoint, tmp_path):
    # Guards the fixtures' premise: the seeded model gives non-zero deltas.
    rows = query_output(tmp_path, checkpoint, "t2v", "true").decode().splitlines()[1:]
    assert any(float(row.split(",")[3]) != 0.0 for row in rows)


@pytest.mark.parametrize("direction,indicators", QUERY_CASES)
def test_query_matches_golden(checkpoint, tmp_path, direction, indicators, capsys):
    got = query_output(tmp_path, checkpoint, direction, indicators)
    assert got == query_fixture(direction, indicators).read_bytes()


def test_eval_metrics_match_golden(checkpoint, tmp_path, capsys):
    assert eval_output(tmp_path, checkpoint) == (GOLDEN / "eval_metrics.csv").read_bytes()


def regenerate(work: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    ckpt = write_checkpoint(work / "model.bin")
    for direction, indicators in QUERY_CASES:
        blob = query_output(work / f"q_{direction}_{indicators}", ckpt, direction, indicators)
        query_fixture(direction, indicators).write_bytes(blob)
    (GOLDEN / "eval_metrics.csv").write_bytes(eval_output(work / "eval", ckpt))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)
