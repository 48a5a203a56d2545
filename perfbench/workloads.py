"""The benchmark's three workloads and the loop that measures them.

Each workload is one process with one closed-loop client: it sends its next
operation only when the previous one has returned.

- `train_default`: `training.train_loop` on the default `RunConfig`. An
  operation is one `train_step`; a unit is one whole `train_loop`. The step
  runs forward and backward, so autograd, AdamW and the encoders dominate;
  gallery ranking, composition and metrics do not run.
- `eval_4096`: the largest gallery the synthetic token layout allows
  (N=4096). A unit encodes both galleries with `data.build_galleries` and
  then ranks a seeded subset of 512 queries per direction with
  `metrics.evaluate_two_stage`, broad-only and then two-stage. An operation
  is one chunk of 64 queries per direction in both modes: one fusion batch
  of `pipeline.rank_queries` at its default chunk size, as in the CLI's
  eval. Work per query grows with N; nothing needs gradients.
- `query_500`: one raw item per request, alternating t2v and v2t in a seeded
  order, encoded at batch size 1 and ranked by `pipeline.rank_full` against a
  500-entry gallery built in set-up. An operation is one t2v request and
  then one v2t request; a unit is one pass over all 1000 (direction, item)
  requests. Per-call Python overhead and unbatched fusion dominate; the
  gallery scan is small.

End-to-end metrics, reported by every workload from an untraced run:

- `setup_s`: median wall time of the set-up (data generation, model build,
  checkpoint load, and gallery encoding on query_500), repeated in each run.
- `peak_rss_mb`: peak resident memory of the process.
- `op_ms_p50`, `op_ms_p90`: median and 90th percentile of operation time.
- `items_per_s`: pairs trained per second of `train_loop` wall time
  (shuffling and checkpoint writes included); queries, each ranked in both
  modes, per second of `evaluate_two_stage` time; requests per second of
  request time.
- `encode_items_per_s`: texts plus videos encoded per second of encoder
  time: `encode_*_batch` inside training steps, `build_galleries`, and the
  batch-of-one `encode_text`/`encode_video` of each request.

A traced run (`--trace 1`) reports per-layer totals instead; see
`tracing.layer_metrics` and `QUALITY_UNITS`.

Every call into the program goes through a module or class attribute
(`fr.data.build_galleries`, `fr.pipeline.rank_full`, ...), because that is
where the tracer installs its wrappers.
"""

from __future__ import annotations

import math
import re
import resource
import statistics
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

import focusrank as fr

from .checks import (
    check_broad_ranks,
    check_two_stage_order,
    digest,
    reference_order,
    reference_rank,
    reference_scores,
)
from .tracing import Tracer, layer_metrics, layer_targets, replaced

# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed,
# at most SETUP_MAX times; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 2.0
clock = time.perf_counter

# Parameters the model initialises to zero. Left at zero, every text global
# is the same vector and `delta_scale` cancels re-ranking, so eval_4096 and
# query_500 load a checkpoint in which these hold small seeded values.
_ZERO_INIT = re.compile(r"(\.bind\.out_[wb]|^fusion\.block\d+\.out_[wb])$")


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    config: dict[str, object] = field(default_factory=dict)

    def fail_op(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


# Ranking quality over the queries of one unit, R@1 per direction. "Moved": the
# true item's rank differs between broad-only and two-stage. "Reordered": the
# two-stage top-k block is not in stage-1 order. Moved needs the true item in
# the top-k, which at chance-level recall (about 2.5 of 1024 queries on
# eval_4096) can fail to happen, so the workload check rests on reordered.
QUALITY_UNITS = {
    "pipeline.candidate_recall_at_k": "share",
    "pipeline.rerank_moved_share": "share",
    "pipeline.rerank_reordered_share": "share",
    "metrics.r1_broad_t2v": "%",
    "metrics.r1_broad_v2t": "%",
    "metrics.r1_two_stage_t2v": "%",
    "metrics.r1_two_stage_v2t": "%",
    "encoders.text_global_spread": "std",
}


def percentile_ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q))


def perturbed_model(cfg, seed: int, work_dir) -> "fr.RetrievalModel":
    """A model whose zero-initialised tensors hold small values drawn from
    `seed`, saved and loaded back through the checkpoint format."""
    model = fr.model.RetrievalModel(cfg)
    stream = fr.rng.RandomStream(seed).child("perfbench", "perturb")
    state = model.params.state()
    for name, value in state.items():
        if _ZERO_INIT.search(name):
            state[name] = stream.child(name).normal(value.shape, scale=0.1 / math.sqrt(cfg.dim))
    state["fusion.delta_scale"] = np.asarray(stream.child("fusion.delta_scale").uniform((), 0.05, 0.15))
    model.params.load_state(state)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        model.save(f"{tmp}/model.bin")
        loaded = fr.model.RetrievalModel(cfg)
        loaded.load(f"{tmp}/model.bin")
    return loaded


def text_global_spread(text_globals: np.ndarray) -> float:
    """Largest per-coordinate standard deviation of the text globals across items."""
    return float(np.asarray(text_globals).std(axis=0).max())


class Workload:
    """One workload: `setup` builds its state, `unit` runs one repeatable
    unit of work, records its operations in `result` and checks them."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.size = dict(self.sizes[size])
        self.cfg = fr.config.RunConfig(**self.size.pop("cfg"), seed=seed).validate()
        self.op_seconds: list[float] = []
        self.items = 0
        self.item_seconds = 0.0
        self.encode_items = 0
        self.encode_seconds = 0.0
        # Ranking quality of the last unit; zero where a workload does not rank.
        self.quality = {name: (0.0, unit) for name, unit in QUALITY_UNITS.items()}
        self.units_run = 0

    def timing_targets(self) -> list[tuple]:
        """Wrappers the untraced run needs to time its operations."""
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, tracer: Tracer, result: Result) -> None:
        raise NotImplementedError

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "op_ms_p50": (percentile_ms(self.op_seconds, 50), "ms"),
            "op_ms_p90": (percentile_ms(self.op_seconds, 90), "ms"),
            "items_per_s": (self.items / self.item_seconds, "1/s"),
            "encode_items_per_s": (self.encode_items / self.encode_seconds, "1/s"),
        }


class _RankingQuality:
    """Per-query ranks before and after re-ranking, for the quality metrics."""

    def __init__(self, k: int):
        self.k = k
        self.rows = []  # (direction, broad rank, two-stage rank, block reordered)

    def add(self, direction, broad_rank, final_rank, reordered) -> None:
        self.rows.append((direction, int(broad_rank), int(final_rank), bool(reordered)))

    def metrics(self, spread: float) -> dict[str, tuple[float, str]]:
        broad = np.array([r[1] for r in self.rows])
        final = np.array([r[2] for r in self.rows])
        values = {
            "pipeline.candidate_recall_at_k": np.mean(broad <= self.k),
            "pipeline.rerank_moved_share": np.mean(broad != final),
            "pipeline.rerank_reordered_share": np.mean([r[3] for r in self.rows]),
            "encoders.text_global_spread": spread,
        }
        for direction in ("t2v", "v2t"):
            mask = np.array([r[0] == direction for r in self.rows])
            values[f"metrics.r1_broad_{direction}"] = 100.0 * np.mean(broad[mask] == 1)
            values[f"metrics.r1_two_stage_{direction}"] = 100.0 * np.mean(final[mask] == 1)
        return {name: (float(values[name]), unit) for name, unit in QUALITY_UNITS.items()}

    def check_active(self, result: Result, spread: float) -> None:
        """The model state must make both stages do real work. Text globals
        of a freshly initialised model differ only by rounding (a spread of
        about 1e-16); the seeded state spreads them by about 0.1."""
        if not spread > 1e-9:
            result.fail_op("text globals are identical across items")
        if not any(r[3] for r in self.rows):
            result.fail_op("re-ranking reordered no candidate block")


class TrainDefault(Workload):
    name = "train_default"
    sizes = {
        "full": {"cfg": {}},
        "tiny": {"cfg": {"pair_count": 20, "batch_size": 10, "epochs": 1}},
    }

    def timing_targets(self):
        model = fr.model.RetrievalModel
        return [
            (fr.training, "train_step", "training.step"),
            (model, "encode_text_batch", "encoders.text_forward"),
            (model, "encode_video_batch", "encoders.video_forward"),
        ]

    def setup(self) -> None:
        self.dataset = fr.data.generate_synthetic_pairs(fr.data.spec_from_config(self.cfg))
        self.model = fr.model.RetrievalModel(self.cfg)
        self.first_log = None

    def unit(self, tracer: Tracer, result: Result) -> None:
        model = self.model if self.units_run == 0 else fr.model.RetrievalModel(self.cfg)
        since = len(tracer.spans)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            start = clock()
            try:
                logs = fr.training.train_loop(self.dataset, model, self.cfg, out_dir=tmp)
            except fr.errors.TrainingAbort as exc:  # raised on a non-finite loss
                logs = None
                result.fail_op(f"training aborted: {exc}")
            wall = clock() - start
        steps = tracer.durations("training.step", since)
        self.op_seconds += steps
        result.attempted += len(steps)
        self.item_seconds += wall
        self.encode_seconds += sum(tracer.durations("encoders.text_forward", since))
        self.encode_seconds += sum(tracer.durations("encoders.video_forward", since))
        self.units_run += 1
        if logs is None:
            return
        n = len(self.dataset)
        pairs = n - 1 if n % self.cfg.batch_size == 1 else n  # a last batch of one is dropped
        self.items += pairs * self.cfg.epochs
        self.encode_items += 2 * pairs * self.cfg.epochs
        log = [(s.epoch, s.step, *astuple(s.report)) for s in logs]
        if self.first_log is None:
            self.first_log = log
            result.outputs["final_combined_loss"] = repr(logs[-1].report.combined)
            result.outputs["loss_log_digest"] = digest(np.array([row[2:] for row in log]))
        elif log != self.first_log:
            for a, b in zip(log, self.first_log):
                if a != b:
                    result.fail_op(f"repeat changed the loss at epoch {a[0]} step {a[1]}")


class Eval4096(Workload):
    name = "eval_4096"
    sizes = {
        "full": {
            "cfg": {"pair_count": 4096, "cohort_size": 16, "coarse_clusters": 256},
            "queries": 512,
            "chunk": 64,
        },
        "tiny": {
            "cfg": {"pair_count": 64, "cohort_size": 4, "coarse_clusters": 16},
            "queries": 16,
            "chunk": 8,
        },
    }

    def setup(self) -> None:
        self.dataset = None  # free the previous repeat's pairs before generating
        self.dataset = fr.data.generate_synthetic_pairs(fr.data.spec_from_config(self.cfg))
        self.model = perturbed_model(self.cfg, self.seed, self.work_dir)
        subset = fr.rng.RandomStream(self.seed).child("perfbench", "eval-queries")
        self.subset = subset.permutation(len(self.dataset))[: self.size["queries"]]
        self.first_ranks = None

    def unit(self, tracer: Tracer, result: Result) -> None:
        k = self.cfg.k
        start = clock()
        text_q, video_q, video_gallery, text_gallery = fr.data.build_galleries(self.model, self.dataset)
        self.encode_seconds += clock() - start
        self.encode_items += 2 * len(self.dataset)
        sides = {
            "t2v": (text_q[0], video_gallery.globals_),
            "v2t": (video_q[0], text_gallery.globals_),
        }
        quality = _RankingQuality(k)
        captured: list[tuple[list, np.ndarray]] = []
        compute_ranks = fr.metrics.compute_ranks

        def capturing(ranked_ids, truth_ids):
            ranks = compute_ranks(ranked_ids, truth_ids)
            captured.append((ranked_ids, ranks))
            return ranks

        unit_ranks = []
        chunk = self.size["chunk"]
        with replaced(fr.metrics, "compute_ranks", capturing):
            for begin in range(0, len(self.subset), chunk):
                idx = self.subset[begin : begin + chunk]
                truth = idx.tolist()
                captured.clear()
                t0 = clock()
                for mode in ("broad-only", "two-stage"):
                    fr.metrics.evaluate_two_stage(
                        (text_q[0][idx], text_q[1][idx]),
                        video_gallery,
                        (video_q[0][idx], video_q[1][idx]),
                        text_gallery,
                        net=self.model.fusion,
                        k=k,
                        mode=mode,
                        truth_t2v=truth,
                        truth_v2t=truth,
                    )
                dt = clock() - t0
                self.op_seconds.append(dt)
                self.item_seconds += dt
                self.items += len(idx)
                result.attempted += 1
                ranks = tuple(r for _, r in captured)
                unit_ranks.append(ranks)
                problems = self._check_chunk(captured, idx, sides, quality)
                if self.first_ranks is not None:
                    first = self.first_ranks[len(unit_ranks) - 1]
                    if not all(np.array_equal(a, b) for a, b in zip(first, ranks)):
                        problems.append("repeat changed the ranks")
                if problems:
                    result.fail_op(f"queries {truth[0]}..: " + "; ".join(problems[:3]))
        if self.first_ranks is None:
            self.first_ranks = unit_ranks
            result.outputs["ranks_digest"] = digest(*[r for chunk_ranks in unit_ranks for r in chunk_ranks])
        spread = text_global_spread(text_q[0])
        quality.check_active(result, spread)
        self.quality = quality.metrics(spread)
        self.units_run += 1

    def _check_chunk(self, captured, idx, sides, quality) -> list[str]:
        if len(captured) != 4:
            return [f"expected 4 rank lists (2 modes x 2 directions), got {len(captured)}"]
        k = self.cfg.k
        problems = []
        (_, broad_t2v), (_, broad_v2t), (orders_t2v, final_t2v), (orders_v2t, final_v2t) = captured
        for direction, broad, orders, final in (
            ("t2v", broad_t2v, orders_t2v, final_t2v),
            ("v2t", broad_v2t, orders_v2t, final_v2t),
        ):
            queries, gallery = sides[direction]
            problems += check_broad_ranks(broad, queries[idx], gallery, idx)
            for q, truth, order, final_rank, broad_rank in zip(queries[idx], idx, orders, final, broad):
                scores = reference_scores(gallery, q)
                problems += check_two_stage_order(order, scores, k)
                where = np.nonzero(np.asarray(order) == truth)[0]
                if where.size != 1 or where[0] + 1 != final_rank:
                    problems.append(f"two-stage rank of item {truth} disagrees with its ordering")
                reordered = not np.array_equal(order[:k], reference_order(scores)[:k])
                quality.add(direction, broad_rank, final_rank, reordered)
        return problems


class Query500(Workload):
    name = "query_500"
    sizes = {"full": {"cfg": {}}, "tiny": {"cfg": {"pair_count": 20}}}

    def setup(self) -> None:
        self.dataset = fr.data.generate_synthetic_pairs(fr.data.spec_from_config(self.cfg))
        self.model = perturbed_model(self.cfg, self.seed, self.work_dir)
        self.text_q, self.video_q, self.video_gallery, self.text_gallery = fr.data.build_galleries(
            self.model, self.dataset
        )
        stream = fr.rng.RandomStream(self.seed).child("perfbench", "query-order")
        n = len(self.dataset)
        self.orders = {"t2v": stream.child("t2v").permutation(n), "v2t": stream.child("v2t").permutation(n)}
        self.first_digests: dict[tuple[str, int], str] = {}

    def unit(self, tracer: Tracer, result: Result) -> None:
        model, k = self.model, self.cfg.k
        quality = _RankingQuality(k)
        for j in range(len(self.dataset)):
            # One operation is a t2v request followed by a v2t request. Their
            # latencies differ by half, so the median of single requests would
            # sit in the gap between the two and jump with small changes.
            pair_seconds, problems = 0.0, []
            for direction in ("t2v", "v2t"):
                item = int(self.orders[direction][j])
                t0 = clock()
                if direction == "t2v":
                    query = model.encode_text(fr.TextSequence(self.dataset.texts[item]))
                    gallery = self.video_gallery
                else:
                    query = model.encode_video(fr.VideoClip(self.dataset.videos[item]))
                    gallery = self.text_gallery
                t1 = clock()
                final = fr.pipeline.rank_full(query, gallery, model.fusion, k)
                t2 = clock()
                pair_seconds += t2 - t0
                self.encode_seconds += t1 - t0
                self.encode_items += 1
                problems += [
                    f"{direction} item {item}: {p}"
                    for p in self._check_request(direction, item, query, gallery, final, quality)
                ]
            self.op_seconds.append(pair_seconds)
            self.item_seconds += pair_seconds
            self.items += 2
            result.attempted += 1
            if problems:
                result.fail_op("; ".join(problems[:3]))
        if self.units_run == 0:
            result.outputs["ranks_digest"] = digest(np.array([r[1:3] for r in quality.rows]))
        spread = text_global_spread(self.text_gallery.globals_)
        quality.check_active(result, spread)
        self.quality = quality.metrics(spread)
        self.units_run += 1

    def _check_request(self, direction, item, query, gallery, final, quality) -> list[str]:
        k = self.cfg.k
        problems = []
        batched = (self.text_q if direction == "t2v" else self.video_q)[0][item]
        if not np.allclose(query.global_vec, batched, rtol=0.0, atol=1e-9):
            problems.append("single-item global differs from the batched encoding")
        scores = reference_scores(gallery.globals_, query.global_vec)
        if not np.allclose(final.stage1_score, scores, rtol=0.0, atol=1e-12):
            problems.append("stage-1 scores differ from the reference")
        problems += check_two_stage_order(final.order, scores, k)
        where = np.nonzero(final.order == item)[0]
        reordered = not np.array_equal(final.order[:k], reference_order(scores)[:k])
        final_rank = where[0] + 1 if where.size else 0
        quality.add(direction, reference_rank(scores, item), final_rank, reordered)
        key = (direction, item)
        seen = digest(final.order, final.final_score)
        if self.first_digests.setdefault(key, seen) != seen:
            problems.append("repeat changed the ranking")
        return problems


WORKLOADS = {w.name: w for w in (TrainDefault, Eval4096, Query500)}


def run(name: str, seed: int, seconds: float, trace: bool, work_dir, size: str = "full") -> Result:
    """Set up and measure one workload; end-to-end metrics when `trace` is
    off, per-layer metrics when it is on."""
    workload = WORKLOADS[name](seed, size, work_dir)
    result = Result(config=asdict(workload.cfg))
    if trace:
        _run_traced(workload, seconds, result)
    else:
        _run_plain(workload, seconds, result)
    return result


def _timed_unit(workload: Workload, tracer: Tracer, targets, result: Result) -> float:
    with tracer.patched(targets):
        start = clock()
        workload.unit(tracer, result)
        return clock() - start


def _run_plain(workload: Workload, seconds: float, result: Result) -> None:
    setup_seconds = []
    while len(setup_seconds) < SETUP_MIN or (
        sum(setup_seconds) < SETUP_SECONDS and len(setup_seconds) < SETUP_MAX
    ):
        start = clock()
        workload.setup()
        setup_seconds.append(clock() - start)
    tracer, targets = Tracer(), workload.timing_targets()
    units: list[float] = []
    start = clock()
    # Always two units, so the repeat check runs.
    while len(units) < 2 or clock() - start + statistics.mean(units) <= seconds:
        units.append(_timed_unit(workload, tracer, targets, result))
    result.metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **workload.end_to_end(),
    }


def _run_traced(workload: Workload, seconds: float, result: Result) -> None:
    """Set up under tracing, run one warm-up unit, then alternate an untraced
    and a traced unit while time remains (at least once). Per-layer totals
    cover the set-up and the first traced unit; the tracing overhead compares
    the median traced unit with the median untraced one."""
    report, targets = Tracer(), layer_targets(fr)
    with report.patched(targets):
        workload.setup()
    plain = workload.timing_targets()
    start = clock()
    _timed_unit(workload, Tracer(), plain, result)
    walls: dict[bool, list[float]] = {False: [], True: []}
    while not walls[True] or clock() - start + statistics.mean(walls[False] + walls[True]) * 2 <= seconds:
        walls[False].append(_timed_unit(workload, Tracer(), plain, result))
        walls[True].append(_timed_unit(workload, report if not walls[True] else Tracer(), targets, result))
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    result.metrics = {
        **layer_metrics(report),
        **workload.quality,
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }
