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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .config import RunConfig, apply_overrides, default_config, load_config, parse_value
from .data import build_galleries, generate_synthetic_pairs, spec_from_config
from .errors import FocusrankError, UsageError
from .gradcheck import run_gradient_suite
from .metrics import MetricsReport, evaluate_two_stage
from .model import RetrievalModel
from .pipeline import rank_queries
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


@dataclass
class Command:
    verb: str
    config_path: str | None = None
    overrides: dict[str, str] = field(default_factory=dict)
    out_dir: str = "out"
    seed: int | None = None
    deterministic: bool = False
    components: bool = False


def _split_overrides(pairs: list[str], allow_sweep: bool) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        # Validate the key (and single values) eagerly so typos fail at parse time.
        if "," in value:
            if not allow_sweep:
                raise UsageError(
                    f"comma list for {key!r} is only valid with the ablate verb"
                )
            for v in value.split(","):
                parse_value(key, v)
        else:
            parse_value(key, value)
        if key in overrides:
            raise UsageError(f"duplicate --set key {key!r}")
        overrides[key] = value.strip()
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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--deterministic", action="store_true",
                       help="disable gumbel noise during training as well")
        if verb == "ablate":
            p.add_argument("--components", action="store_true",
                           help="run the cumulative component rows instead of a key sweep")
    return parser


def parse_args(argv) -> Command:
    ns = build_parser().parse_args(argv)
    overrides = _split_overrides(ns.set, allow_sweep=ns.verb == "ablate")
    return Command(
        verb=ns.verb,
        config_path=ns.config,
        overrides=overrides,
        out_dir=ns.out,
        seed=ns.seed,
        deterministic=ns.deterministic,
        components=getattr(ns, "components", False),
    )


def _load(cmd: Command, extra: dict[str, str] | None = None) -> RunConfig:
    cfg = load_config(cmd.config_path) if cmd.config_path else default_config()
    merged = dict(cmd.overrides)
    if extra:
        merged.update(extra)
    apply_overrides(cfg, merged)
    if cmd.seed is not None:
        cfg.seed = cmd.seed
    return cfg.validate()


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _float(x) -> str:
    return repr(float(x))


def _run_training(cfg: RunConfig, out_dir: Path, deterministic: bool) -> RetrievalModel:
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_synthetic_pairs(spec_from_config(cfg))
    model = RetrievalModel(cfg)
    logs = train_loop(dataset, model, cfg, out_dir=str(out_dir), deterministic=deterministic)
    rows = [
        (s.epoch, s.step, _float(s.report.t2v), _float(s.report.v2t),
         _float(s.report.focus_t), _float(s.report.focus_v), _float(s.report.combined))
        for s in logs
    ]
    _write_csv(out_dir / "training_log.csv",
               ("epoch", "step", "l_t2v", "l_v2t", "l_focus_t", "l_focus_v", "combined"), rows)
    model.save(out_dir / "model.bin")
    log.info("trained %d steps; final combined loss %.6f", len(logs), logs[-1].report.combined)
    return model


def _evaluate(cfg: RunConfig, model: RetrievalModel) -> list[MetricsReport]:
    dataset = generate_synthetic_pairs(spec_from_config(cfg))
    text_q, video_q, video_gallery, text_gallery = build_galleries(model, dataset)
    reports = []
    for mode in ("broad-only", "two-stage"):
        net = model.fusion if cfg.use_query_indicators else None
        out = evaluate_two_stage(
            text_q, video_gallery, video_q, text_gallery, net=net, k=cfg.k, mode=mode
        )
        reports.extend(out.values())
    return reports


def _metrics_rows(reports: list[MetricsReport]):
    return [
        (r.direction, r.stage, _float(r.r1), _float(r.r5), _float(r.r10),
         _float(r.mdr), _float(r.mnr))
        for r in reports
    ]


def execute(cmd: Command) -> int:
    out_dir = Path(cmd.out_dir)
    if cmd.verb == "train":
        cfg = _load(cmd)
        _run_training(cfg, out_dir, cmd.deterministic)
        return 0

    if cmd.verb == "eval":
        cfg = _load(cmd)
        model = RetrievalModel(cfg)
        if cfg.checkpoint:
            model.load(cfg.checkpoint)
        reports = _evaluate(cfg, model)
        _write_csv(out_dir / "metrics.csv", MetricsReport.CSV_HEADER, _metrics_rows(reports))
        for r in reports:
            print(f"{r.direction} {r.stage}: R@1={r.r1:.1f} R@5={r.r5:.1f} "
                  f"R@10={r.r10:.1f} MdR={r.mdr:.1f} MnR={r.mnr:.2f}")
        return 0

    if cmd.verb == "query":
        cfg = _load(cmd)
        model = RetrievalModel(cfg)
        if cfg.checkpoint:
            model.load(cfg.checkpoint)
        dataset = generate_synthetic_pairs(spec_from_config(cfg))
        if cfg.query_index >= len(dataset):
            raise UsageError(f"query_index {cfg.query_index} outside dataset")
        text_q, video_q, video_gallery, text_gallery = build_galleries(model, dataset)
        if cfg.query_direction == "t2v":
            (globals_, focus), gallery = text_q, video_gallery
        else:
            (globals_, focus), gallery = video_q, text_gallery
        i = cfg.query_index
        net = model.fusion if cfg.use_query_indicators else None
        (final,) = rank_queries(
            globals_[i : i + 1], None if focus is None else focus[i : i + 1], gallery, net, cfg.k
        )
        rows = []
        for rank, idx in enumerate(final.order, start=1):
            rows.append((rank, int(gallery.ids[idx]), _float(final.stage1_score[idx]),
                         _float(final.delta[idx]), _float(final.final_score[idx])))
        _write_csv(out_dir / "query_result.csv",
                   ("rank", "id", "stage1_score", "delta", "final_score"), rows)
        print(f"query {i} ({cfg.query_direction}): top id {gallery.ids[final.order[0]]}")
        return 0

    if cmd.verb == "gradcheck":
        cfg = _load(cmd)
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

    if cmd.verb == "ablate":
        return _ablate(cmd, out_dir)

    raise UsageError(f"unknown verb {cmd.verb!r}")


def _ablate(cmd: Command, out_dir: Path) -> int:
    if cmd.components:
        runs = [(label, extra) for label, extra in COMPONENT_ROWS]
        swept_key = "components"
    else:
        sweeps = {k: v for k, v in cmd.overrides.items() if "," in v}
        if len(sweeps) != 1:
            raise UsageError("ablate needs exactly one --set key=v1,v2,... sweep "
                             "(or --components)")
        swept_key, raw = next(iter(sweeps.items()))
        runs = [(value, {swept_key: value}) for value in raw.split(",")]

    rows = []
    for label, extra in runs:
        base = {k: v for k, v in cmd.overrides.items() if "," not in v}
        sub_cmd = replace(cmd, overrides=base)
        cfg = _load(sub_cmd, extra=extra)
        run_dir = out_dir / f"ablate_{swept_key}_{label}".replace("+", "")
        log.info("ablate %s=%s", swept_key, label)
        model = _run_training(cfg, run_dir, cmd.deterministic)
        reports = {(r.direction, r.stage): r for r in _evaluate(cfg, model)}
        t2v = reports[("t2v", "two-stage")]
        v2t = reports[("v2t", "two-stage")]
        rows.append((swept_key, label,
                     _float(t2v.r1), _float(t2v.r5), _float(t2v.r10),
                     _float(t2v.mdr), _float(t2v.mnr),
                     _float(v2t.r1), _float(v2t.r5), _float(v2t.r10),
                     _float(v2t.mdr), _float(v2t.mnr)))
    _write_csv(out_dir / "ablation.csv",
               ("key", "value",
                "t2v_R@1", "t2v_R@5", "t2v_R@10", "t2v_MdR", "t2v_MnR",
                "v2t_R@1", "v2t_R@5", "v2t_R@10", "v2t_MdR", "v2t_MnR"), rows)
    for row in rows:
        print(f"{row[0]}={row[1]}: t2v R@1={float(row[2]):.1f} v2t R@1={float(row[7]):.1f}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("FOCUSRANK_LOG_LEVEL", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
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
