"""In-memory spans around calls into focusrank's public functions.

A `Tracer` replaces module attributes and class methods with wrappers that
record one span per call: name, start, end and the index of the enclosing
span. Nothing is written until the run ends, and the originals are put back
when the `patched` block exits. The program itself carries no tracing code:
every span is recorded from here, around the call into a layer.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap `(owner, attribute, span name)` targets for the block's duration."""
        with ExitStack() as stack:
            for owner, attr, name in targets:
                stack.enter_context(replaced(owner, attr, self.wrap(name, getattr(owner, attr))))
            yield self

    def _outermost(self, name: str, since: int):
        """Spans called `name` not nested in another span of the same name,
        so a layer reached through two wrapped entry points counts once."""
        for span in self.spans[since:]:
            if span.name != name:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent < 0:
                yield span

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Seconds spent in each outermost span of `name`, from span index `since` on."""
        return [s.end - s.start for s in self._outermost(name, since)]

    def self_seconds(self, name: str) -> float:
        """Total duration of `name` spans minus the time their direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        return sum(s.end - s.start - child_time[i] for i, s in enumerate(self.spans) if s.name == name)


@contextmanager
def replaced(owner, attr: str, value):
    """Set `owner.attr` to `value` for the block's duration."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def layer_targets(fr) -> list[tuple]:
    """Every traced entry point, keyed by the per-layer metric it feeds.

    `fr` is the imported `focusrank` package. Functions that another module
    imports by name are wrapped in the module that calls them, since that is
    the attribute the call looks up.
    """
    model, pipeline, training = fr.model.RetrievalModel, fr.pipeline, fr.training
    return [
        (fr.tensor.Tensor, "backward", "tensor.backward"),
        (training.AdamW, "step", "training.adamw"),
        (training, "train_step", "training.step"),
        (training, "contrastive_loss", "losses.contrastive"),
        (fr.encoders, "scaled_dot_attention", "ops.attention"),
        (pipeline, "scaled_dot_attention", "ops.attention"),
        (model, "encode_text_batch", "encoders.text_forward"),
        (model, "encode_video_batch", "encoders.video_forward"),
        (pipeline.FusionNetwork, "candidate_tokens", "pipeline.fusion"),
        (pipeline.FusionNetwork, "fuse", "pipeline.fusion"),
        (pipeline.FusionNetwork, "project", "pipeline.fusion"),
        (pipeline, "focused_fuse", "pipeline.fusion"),
        (pipeline, "project_deltas", "pipeline.fusion"),
        (pipeline, "broad_view_scores", "pipeline.broad_scores"),
        (pipeline, "stage1_order", "pipeline.order"),
        (training, "stage1_order", "pipeline.order"),
        (pipeline, "select_top_k", "pipeline.top_k"),
        (pipeline, "compose_scores", "pipeline.compose"),
        (fr.metrics, "compute_ranks", "metrics.ranks"),
        (fr.data, "generate_synthetic_pairs", "data.generate"),
        (fr.data, "build_galleries", "data.encode"),
        (model, "save", "checkpoint.save"),
        (model, "load", "checkpoint.load"),
    ]


# Layers whose inclusive time is reported; `training.step` is reported as
# self time (its own Python minus the layers it calls), not inclusively.
TIMED_LAYERS = (
    "tensor.backward",
    "training.adamw",
    "losses.contrastive",
    "ops.attention",
    "encoders.text_forward",
    "encoders.video_forward",
    "pipeline.fusion",
    "pipeline.broad_scores",
    "pipeline.order",
    "pipeline.top_k",
    "pipeline.compose",
    "metrics.ranks",
    "data.generate",
    "data.encode",
    "checkpoint.save",
    "checkpoint.load",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals of a traced run.

    `<layer>_ms` is the time inside the layer's outermost spans, inclusive:
    time in `ops.attention` also counts in the encoder or fusion span around
    it. `<layer>_calls` counts those spans. A layer that does not run on a
    workload reports 0 for both.
    """
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_LAYERS:
        durations = tracer.durations(name)
        out[f"{name}_ms"] = (1e3 * sum(durations), "ms")
        out[f"{name}_calls"] = (float(len(durations)), "count")
    out["training.step_self_ms"] = (1e3 * tracer.self_seconds("training.step"), "ms")
    out["training.step_calls"] = (float(len(tracer.durations("training.step"))), "count")
    return out
