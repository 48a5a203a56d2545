"""Command-line surface: train, eval, query, gradcheck and ablate.

Artifacts are CSV files (deterministic byte-for-byte given seed + config)
plus binary checkpoints. Log verbosity comes from $FOCUSRANK_LOG_LEVEL.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, apply_overrides, load_config, parse_value
from .data import build_galleries, generate_synthetic_pairs
from .encoders import TextSequence, VideoClip
from .errors import FocusrankError, UsageError
from .gradcheck import run_gradient_suite
from .metrics import MetricsReport, evaluate_two_stage
from .model import RetrievalModel
from .pipeline import rank_full
from .training import train_loop

log = logging.getLogger("focusrank")

VERBS = ("train", "eval", "query", "gradcheck", "ablate")

# Cumulative component rows mirroring the on/off ablation axes:
# query indicators, stage-1 scores in the composition, gumbel sampling.
COMPONENT_ROWS = (
    ("baseline", dict(use_query_indicators="false", use_stage1_scores="false", use_gumbel="false")),
    ("+indicators", dict(use_query_indicators="true", use_stage1_scores="false", use_gumbel="false")),
    ("+stage1_scores", dict(use_query_indicators="true", use_stage1_scores="true", use_gumbel="false")),
    ("+gumbel", dict(use_query_indicators="true", use_stage1_scores="true", use_gumbel="true")),
)


# A string value (a path, a direction) may hold a comma: it is whole, never a sweep.
_STRING_KEYS = {f.name for f in fields(RunConfig) if f.type == "str"}


def _split_overrides(pairs: list[str], allow_sweep: bool) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        values = [value] if key in _STRING_KEYS else value.split(",")
        values = [v.strip() for v in values]
        if len(values) > 1 and not allow_sweep:
            raise UsageError(f"comma list for {key!r} is only valid with the ablate verb")
        # Validate the key and every value eagerly so typos fail at parse time.
        for v in values:
            parse_value(key, v)
        if key in overrides:
            raise UsageError(f"duplicate --set key {key!r}")
        overrides[key] = ",".join(values)
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focusrank",
        description="Two-stage text-video retrieval: train, evaluate, re-rank.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", default=None, help="config file (defaults apply if omitted)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override; ablate accepts comma lists to sweep")
        p.add_argument("--out", default="out", help="artifact directory")
        if verb == "ablate":
            p.add_argument("--components", action="store_true",
                           help="run the cumulative component rows instead of a key sweep")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse `argv` into argparse's namespace: `verb`, `config`, `out`, and
    `set`, the `--set` overrides as a key -> raw value dict; ablate adds
    `components`. Override keys and single values are checked here."""
    ns = build_parser().parse_args(argv)
    ns.set = _split_overrides(ns.set, allow_sweep=ns.verb == "ablate")
    return ns


def _load(cmd: argparse.Namespace, overrides: dict[str, str]) -> RunConfig:
    cfg = load_config(cmd.config) if cmd.config else RunConfig()
    return apply_overrides(cfg, overrides)


def _make_out_dir(out_dir: Path) -> None:
    """Create an artifact directory before any work, or fail as a usage error."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use output directory {out_dir}: {exc.strerror}") from None


def _write_csv(path: Path, header, rows) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _float(x) -> str:
    return repr(float(x))


def _run_training(cfg: RunConfig, dataset, out_dir: Path) -> RetrievalModel:
    model = RetrievalModel(cfg)
    logs = train_loop(dataset, model, cfg, out_dir=str(out_dir))
    rows = [
        (s.epoch, s.step, _float(s.report.t2v), _float(s.report.v2t),
         _float(s.report.focus_t), _float(s.report.focus_v), _float(s.report.combined))
        for s in logs
    ]
    _write_csv(out_dir / "training_log.csv",
               ("epoch", "step", "l_t2v", "l_v2t", "l_focus_t", "l_focus_v", "combined"), rows)
    log.info("trained %d steps; final combined loss %.6f", len(logs), logs[-1].report.combined)
    return model


def _evaluate(model: RetrievalModel, dataset, modes) -> list[MetricsReport]:
    text_q, video_q, video_gallery, text_gallery = build_galleries(model, dataset)
    reports = []
    for mode in modes:
        out = evaluate_two_stage(text_q, video_gallery, video_q, text_gallery,
                                 net=model.fusion, k=model.cfg.k, mode=mode)
        reports.extend(out.values())
    return reports


def execute(cmd: argparse.Namespace) -> int:
    out_dir = Path(cmd.out)
    if cmd.verb == "ablate":
        return _ablate(cmd, out_dir)

    cfg = _load(cmd, cmd.set)
    if cmd.verb == "query" and cfg.query_index >= cfg.pair_count:
        raise UsageError(f"query_index {cfg.query_index} outside dataset of {cfg.pair_count} pairs")
    _make_out_dir(out_dir)
    if cmd.verb == "train":
        _run_training(cfg, generate_synthetic_pairs(cfg), out_dir)
        return 0

    if cmd.verb in ("eval", "query"):
        model = RetrievalModel(cfg)
        if cfg.checkpoint:
            model.load(cfg.checkpoint)
        dataset = generate_synthetic_pairs(cfg)

    if cmd.verb == "eval":
        reports = _evaluate(model, dataset, ("broad-only", "two-stage"))
        _write_csv(out_dir / "metrics.csv", ("direction", "stage", *MetricsReport.COLUMNS),
                   [(r.direction, r.stage, *map(_float, r.scores())) for r in reports])
        for r in reports:
            print(f"{r.direction} {r.stage}: R@1={r.r1:.1f} R@5={r.r5:.1f} "
                  f"R@10={r.r10:.1f} MdR={r.mdr:.1f} MnR={r.mnr:.2f}")
        return 0

    if cmd.verb == "query":
        i = cfg.query_index
        _, _, video_gallery, text_gallery = build_galleries(model, dataset)
        if cfg.query_direction == "t2v":
            query, gallery = model.encode_text(TextSequence(dataset.texts[i])), video_gallery
        else:
            query, gallery = model.encode_video(VideoClip(dataset.videos[i])), text_gallery
        final = rank_full(query, gallery, model.fusion, cfg.k)
        rows = []
        for rank, idx in enumerate(final.order, start=1):
            rows.append((rank, int(idx), _float(final.stage1_score[idx]),
                         _float(final.delta[idx]), _float(final.final_score[idx])))
        _write_csv(out_dir / "query_result.csv",
                   ("rank", "id", "stage1_score", "delta", "final_score"), rows)
        print(f"query {i} ({cfg.query_direction}): top id {final.order[0]}")
        return 0

    # gradcheck, the last verb argparse accepts
    results = run_gradient_suite(seed=cfg.seed)
    ok = True
    rows = []
    for r in results:
        status = "pass" if r.passed() else "FAIL"
        ok &= r.passed()
        print(f"{status} {r.name}: max relative error {r.max_rel_error:.3e} "
              f"(worst: {r.worst_param})")
        rows.append((r.name, _float(r.max_rel_error), r.worst_param, status))
    _write_csv(out_dir / "gradcheck.csv",
               ("check", "max_rel_error", "worst_param", "status"), rows)
    return 0 if ok else 1


def _ablate(cmd: argparse.Namespace, out_dir: Path) -> int:
    sweeps = {k: v for k, v in cmd.set.items() if "," in v and k not in _STRING_KEYS}
    if cmd.components:
        # The rows would drop a sweep, and their values would override a --set.
        clashes = sorted(set(sweeps) | (set(cmd.set) & set(COMPONENT_ROWS[0][1])))
        if clashes:
            raise UsageError("--components runs its own rows; it takes no --set "
                             f"sweep or component key (got {', '.join(clashes)})")
        runs = COMPONENT_ROWS
        swept_key = "components"
    elif len(sweeps) != 1:
        raise UsageError("ablate needs exactly one --set key=v1,v2,... sweep "
                         "(or --components)")
    else:
        swept_key, raw = next(iter(sweeps.items()))
        runs = [(value, {swept_key: value}) for value in raw.split(",")]
        parsed = [parse_value(swept_key, value) for value, _ in runs]
        if len(set(parsed)) != len(parsed):
            raise UsageError(f"ablate sweep {swept_key}={raw} repeats a value")

    base = {k: v for k, v in cmd.set.items() if k not in sweeps}
    # Every row's config is checked before the first row trains.
    configs = [(label, _load(cmd, {**base, **extra})) for label, extra in runs]
    _make_out_dir(out_dir)
    # So is every row's directory: a blocked one must not end the sweep midway.
    run_dirs = [out_dir / f"ablate_{swept_key}_{label}".replace("+", "") for label, _ in configs]
    for run_dir in run_dirs:
        _make_out_dir(run_dir)
    results = []
    for (label, cfg), run_dir in zip(configs, run_dirs):
        log.info("ablate %s=%s", swept_key, label)
        dataset = generate_synthetic_pairs(cfg)
        model = _run_training(cfg, dataset, run_dir)
        results.append((label, *_evaluate(model, dataset, ("two-stage",))))
    columns = [f"{d}_{c}" for d in ("t2v", "v2t") for c in MetricsReport.COLUMNS]
    _write_csv(out_dir / "ablation.csv", ("key", "value", *columns),
               [(swept_key, label, *map(_float, t2v.scores() + v2t.scores()))
                for label, t2v, v2t in results])
    for label, t2v, v2t in results:
        print(f"{swept_key}={label}: t2v R@1={t2v.r1:.1f} v2t R@1={v2t.r1:.1f}")
    return 0


def main(argv=None) -> int:
    level = os.environ.get("FOCUSRANK_LOG_LEVEL", "INFO").upper()
    try:
        # basicConfig checks the level only when it installs the first handler.
        if not isinstance(logging.getLevelName(level), int):
            raise UsageError(f"FOCUSRANK_LOG_LEVEL {level!r} is not a log level")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        cmd = parse_args(sys.argv[1:] if argv is None else argv)
    except FocusrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(cmd)
    except FocusrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
