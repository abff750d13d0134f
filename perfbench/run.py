"""Run one workload of the wmseg benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify --seed 20250925 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20        # each workload in turn

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run and prints the per-layer metrics. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
sample counts and the environment, is also written to ``.bench_out/``, and a
traced run writes its spans there too.

The package is imported from ``src/`` of the checkout the script sits in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# Pin BLAS/OpenMP pools to one thread before numpy is imported: the
# benchmark is a single-threaded closed loop.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20250925
# Held out: not used while tuning the benchmark or a change; a claimed gain
# must also hold on this seed.
HELDOUT_SEED = 4102026
WORKLOAD_NAMES = ("verify", "experiment", "certify")


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wmseg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def _fmt(name: str, entry: dict) -> str:
    value = entry["value"]
    text = "n/a" if value is None else f"{value:.6g}"
    base = ""
    if "k" in entry:
        base = f"  ({entry['k']}/{entry['n']})"
    elif "n" in entry:
        base = f"  (n={entry['n']})"
    return f"  {name:<48} {text:>14} {entry['unit']}{base}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    if args.workload == "all":
        # One process per workload, so each reports its own peak RSS.
        for name in WORKLOAD_NAMES:
            code = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
            ]).returncode
            if code:
                return code
        return 0
    if not (ROOT / "src" / "wmseg" / "__init__.py").is_file():
        print(f"error: no wmseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs the package path above

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.size,
        out_dir,
        trace_path=out_dir / f"{args.workload}-spans.npz" if args.trace else None,
    )
    env = environment(args.seed)
    full = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "env": env,
        "attempted": result.attempted,
        "failed": result.failed,
        "report": result.report,
        "samples_ms": result.samples_ms,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"wmseg benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, entry in result.report.items():
        print(_fmt(name, entry))
    print("env " + json.dumps(env, sort_keys=True))
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
