"""Benchmark entry point for focusrank.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each

Run it from a checkout of the repository; the program is imported from the
checkout's `src/` and runs with one BLAS thread. With `--trace 0` the last
line of standard output is one JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run instead. The
metrics are defined in `perfbench/workloads.py`. The run manifest and the full
result, with the outputs recorded to compare arithmetic across commits, are
written to `.perfbench_out/<workload>-seed<N>-trace<T>/`.

The exit code is 0 when every output check passed, 1 when one failed and 2
when the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_default", "eval_4096", "query_500")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out"),
                        help="directory for manifests, results and temporary checkpoints")
    return parser


def git_commit(root: Path) -> str:
    """The checked-out commit, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def manifest(args, config: dict) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "run_config": config,
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "focusrank").is_dir():
        print(f"error: no focusrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads. The matrices here are small:
    # a second thread makes no operation faster on two cores, and every
    # operation then waits on whichever core is busier, which on a shared
    # host widened the run-to-run spread of every timing.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out) / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest(args, result.config), indent=2) + "\n")
    full = dict(line, outputs=result.outputs, problems=result.problems)
    (out_dir / "result.json").write_text(json.dumps(full, indent=2) + "\n")

    for problem in result.problems[:20]:
        print(f"check failed: {problem}")
    for name, value in result.outputs.items():
        print(f"output {name} = {value}")
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(line))
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Run each workload in its own process, so peak memory is per workload."""
    status, lines = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        status = max(status, proc.returncode)
        lines[name] = json.loads(out[-1]) if proc.returncode in (0, 1) and out else None
    print(json.dumps(lines))
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
