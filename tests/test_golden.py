"""Golden outputs of the CLI `train`, `query` and `eval` verbs, compared byte for byte.

The fixtures under `tests/golden/` pin the ranking and metrics CSVs of a tiny
run (`pair_count=20`), with and without query indicators, plus `query` on a
gallery smaller than the default k=10 (`pair_count=5`), where stage 1 keeps
every entry. They run against a
checkpoint whose zero-initialised tensors (`*.bind.out_*`,
`fusion.block*.out_*`, `fusion.delta_scale`) hold seeded non-zero values. At zero init every delta is zero and the text globals are
all the same vector, so a fixture from such a model would pin nothing of
the focused view.

`test_chunked_rankings_match_pins` pins, by sha256, every row that
`rank_queries` returns for the 20 queries of each direction. The test cuts
them into chunks of 8, 8 and 4 and ranks each chunk in one call, as
`evaluate_two_stage` does with `FUSION_CHUNK` (the fixtures above rank one
chunk): broad-only, two-stage, two-stage without stage-1 scores, and
two-stage on the 5-entry gallery. Its digests are constants in this file.

The training fixtures pin `training_log.csv` and the sha256 of `model.bin`
after two epochs of `train` at `pair_count=20, batch_size=10`, with Gumbel
noise, without it (`use_gumbel=false`), with a fusion temperature but no
noise, and without query indicators. Each training run is a fresh
interpreter with one BLAS thread: how OpenBLAS splits a GEMM between threads
sets its summation order, so with the default thread count the trained bits
would follow the number of usable cores.

`gumbel_temp` is the fusion attention temperature at inference too, whether
or not training adds noise (`use_gumbel` switches the noise only); a test
below pins that on the checkpoint.

`gradcheck.csv` is the output of the `gradcheck` verb, compared by
`test_cli.py::TestExecute::test_gradcheck_passes`.

Regenerate the fixtures (only when a change is meant to alter the outputs):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from focusrank import pipeline
from focusrank.cli import execute, parse_args
from focusrank.config import RunConfig
from focusrank.data import build_galleries, generate_synthetic_pairs
from focusrank.model import RetrievalModel
from focusrank.rng import RandomStream

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIR_COUNT = 20
SMALL_PAIR_COUNT = 5  # below the default k: the re-ranked block is the whole gallery
CHECKPOINT_SEED = 7
ZERO_INIT = re.compile(r"(\.bind\.out_[wb]|^fusion\.block\d+\.out_[wb])$")

QUERY_CASES = [
    (direction, indicators)
    for direction in ("t2v", "v2t")
    for indicators in ("true", "false")
]
SMALL_DIRECTIONS = ("t2v", "v2t")
# 20 queries per direction rank in chunks of 8, 8 and 4.
PIN_CHUNK = 8
RANKING_PINS = {
    "broad-only": "c539800d2e6c3b3d0174e3154a35cc2d217a23a3df8fbdad160117a05941de1e",
    "two-stage": "9676ffa37ebf9d5d7a0e41fb3619880541f7e9377b11058a9e6b67728f8a6b2f",
    "two-stage-without-stage1": "6d5509a2a48aa3a83f0a8ac7dbc2a391c0ac47786fec81556d0275aab8654311",
    "small-gallery": "e28e368c38cfbe06583470e54e47eb432685f95117be0f02656034f6e1b89025",
}
TRAIN_SIZE = ("--set", f"pair_count={PAIR_COUNT}", "--set", "batch_size=10", "--set", "epochs=2")
TRAIN_CASES = {
    "default": (),
    "deterministic": ("--set", "use_gumbel=false"),
    "deterministic_temp": ("--set", "use_gumbel=false", "--set", "gumbel_temp=0.7"),
    "no_indicators": ("--set", "use_query_indicators=false"),
}


def write_checkpoint(path: Path) -> Path:
    """Save a default-config model whose zero-initialised tensors are seeded."""
    cfg = RunConfig()
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


def run_verb(verb: str, out: Path, checkpoint: Path, pair_count: int = PAIR_COUNT,
             **overrides) -> None:
    args = [verb, "--out", str(out), "--set", f"pair_count={pair_count}",
            "--set", f"checkpoint={checkpoint}"]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    assert execute(parse_args(args)) == 0


def query_output(out: Path, checkpoint: Path, direction: str, indicators: str,
                 pair_count: int = PAIR_COUNT) -> bytes:
    run_verb("query", out, checkpoint, pair_count, query_index=3, query_direction=direction,
             use_query_indicators=indicators)
    return (out / "query_result.csv").read_bytes()


def eval_output(out: Path, checkpoint: Path, indicators: str = "true") -> bytes:
    run_verb("eval", out, checkpoint, use_query_indicators=indicators)
    return (out / "metrics.csv").read_bytes()


def gradcheck_output(out: Path) -> bytes:
    assert execute(parse_args(["gradcheck", "--out", str(out)])) == 0
    return (out / "gradcheck.csv").read_bytes()


def train_output(out: Path, case: str) -> tuple[bytes, str]:
    """(training_log.csv bytes, sha256 of model.bin) of one tiny `train` run,
    in a fresh interpreter with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    done = subprocess.run(
        [sys.executable, "-m", "focusrank", "train", "--out", str(out), *TRAIN_SIZE,
         *TRAIN_CASES[case]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    model_digest = hashlib.sha256((out / "model.bin").read_bytes()).hexdigest()
    return (out / "training_log.csv").read_bytes(), model_digest


def train_fixtures(case: str) -> tuple[Path, Path]:
    return GOLDEN / f"train_{case}_log.csv", GOLDEN / f"train_{case}_model.sha256"


def query_fixture(direction: str, indicators: str) -> Path:
    suffix = "indicators" if indicators == "true" else "no_indicators"
    return GOLDEN / f"query_{direction}_{suffix}.csv"


def small_query_fixture(direction: str) -> Path:
    return GOLDEN / f"query_{direction}_small_gallery.csv"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return write_checkpoint(tmp_path_factory.mktemp("golden") / "model.bin")


def test_checkpoint_moves_the_focused_view(checkpoint, tmp_path):
    # Guards the fixtures' premise: the seeded model gives non-zero deltas.
    rows = query_output(tmp_path, checkpoint, "t2v", "true").decode().splitlines()[1:]
    assert any(float(row.split(",")[3]) != 0.0 for row in rows)


def test_inference_uses_the_fusion_temperature(checkpoint, tmp_path, capsys):
    # The temperature is part of the trained function; the noise switch is not.
    def query_at(temp, noise):
        out = tmp_path / f"{temp}_{noise}"
        run_verb("query", out, checkpoint, query_index=3, gumbel_temp=temp, use_gumbel=noise)
        return (out / "query_result.csv").read_bytes()

    cooled = query_at("0.5", "true")
    assert query_at("0.5", "false") == cooled
    assert query_at("1.0", "true") != cooled


@pytest.mark.parametrize("direction,indicators", QUERY_CASES)
def test_query_matches_golden(checkpoint, tmp_path, direction, indicators, capsys):
    got = query_output(tmp_path, checkpoint, direction, indicators)
    assert got == query_fixture(direction, indicators).read_bytes()


@pytest.mark.parametrize("direction", SMALL_DIRECTIONS)
def test_small_gallery_query_matches_golden(checkpoint, tmp_path, direction, capsys):
    got = query_output(tmp_path, checkpoint, direction, "true", SMALL_PAIR_COUNT)
    assert len(got.decode().splitlines()) == SMALL_PAIR_COUNT + 1
    assert got == small_query_fixture(direction).read_bytes()


def test_eval_metrics_match_golden(checkpoint, tmp_path, capsys):
    assert eval_output(tmp_path, checkpoint) == (GOLDEN / "eval_metrics.csv").read_bytes()


def test_eval_without_indicators_matches_golden(checkpoint, tmp_path, capsys):
    got = eval_output(tmp_path, checkpoint, "false")
    assert got == (GOLDEN / "eval_metrics_no_indicators.csv").read_bytes()


@pytest.fixture(scope="module")
def encoded(checkpoint):
    """The checkpoint model, its (globals, focus) queries per direction, and
    the galleries they rank against: of the 20 pairs, and of 5 pairs."""
    def config(pair_count):
        cfg = RunConfig()
        cfg.pair_count = pair_count
        return cfg.validate()

    model = RetrievalModel(config(PAIR_COUNT))
    model.load(checkpoint)
    text_q, video_q, videos, texts = build_galleries(model, generate_synthetic_pairs(model.cfg))
    small = build_galleries(model, generate_synthetic_pairs(config(SMALL_PAIR_COUNT)))
    return model, (text_q, video_q), (videos, texts), small[2:]


@pytest.mark.parametrize("case", RANKING_PINS)
def test_chunked_rankings_match_pins(encoded, case, monkeypatch):
    model, queries, galleries, small_galleries = encoded
    net = None if case == "broad-only" else model.fusion
    if case == "two-stage-without-stage1":
        monkeypatch.setattr(model.fusion.cfg, "use_stage1_scores", False)
    if case == "small-gallery":
        galleries = small_galleries
    digest = hashlib.sha256()
    for (globals_, focus), gallery in zip(queries, galleries):
        for start in range(0, PAIR_COUNT, PIN_CHUNK):
            rows = slice(start, start + PIN_CHUNK)
            final = pipeline.rank_queries(globals_[rows], focus[rows], gallery, net, model.cfg.k)
            for row in range(len(final.order)):
                for name in ("order", "final_score", "stage1_score", "delta"):
                    values = getattr(final, name)[row]
                    digest.update(values.dtype.str.encode() + values.tobytes())
    assert digest.hexdigest() == RANKING_PINS[case]


@pytest.mark.parametrize("case", TRAIN_CASES)
def test_train_matches_golden(tmp_path, case):
    log_csv, model_digest = train_output(tmp_path, case)
    log_fixture, digest_fixture = train_fixtures(case)
    assert log_csv == log_fixture.read_bytes()
    assert model_digest == digest_fixture.read_text().strip()


def regenerate(work: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    ckpt = write_checkpoint(work / "model.bin")
    for direction, indicators in QUERY_CASES:
        blob = query_output(work / f"q_{direction}_{indicators}", ckpt, direction, indicators)
        query_fixture(direction, indicators).write_bytes(blob)
    for direction in SMALL_DIRECTIONS:
        blob = query_output(work / f"small_{direction}", ckpt, direction, "true", SMALL_PAIR_COUNT)
        small_query_fixture(direction).write_bytes(blob)
    (GOLDEN / "eval_metrics.csv").write_bytes(eval_output(work / "eval", ckpt))
    (GOLDEN / "eval_metrics_no_indicators.csv").write_bytes(
        eval_output(work / "eval_no_indicators", ckpt, "false"))
    (GOLDEN / "gradcheck.csv").write_bytes(gradcheck_output(work / "gradcheck"))
    for case in TRAIN_CASES:
        log_csv, model_digest = train_output(work / f"train_{case}", case)
        log_fixture, digest_fixture = train_fixtures(case)
        log_fixture.write_bytes(log_csv)
        digest_fixture.write_text(model_digest + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    sys.exit(0)
