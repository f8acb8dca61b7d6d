"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serving --seed 1 --seconds 20 --trace 0

Runs passes of one workload, each in a fresh interpreter
(``perfbench/worker.py``), one after another, until ``--seconds`` would
be exceeded (at least one pass).  ``--trace 0`` times untraced passes and
reports the end-to-end metrics as medians over passes; ``--trace 1``
alternates an untraced and a traced pass and reports the per-layer
metrics.  Every pass's outputs are checked.  Context lines (provenance,
per-pass figures) come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT)]

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: No pass starts after this many seconds, and a pass is killed at
#: ``DEADLINE``; the whole run must end within 180 s.
LAST_START = 120.0
DEADLINE = 170.0
#: Each pass is one single-threaded interpreter; hash seeding is fixed
#: so dictionary layouts, and therefore timings, repeat across runs.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def provenance(args: argparse.Namespace) -> dict:
    """Where and on what this run measured."""
    import numpy

    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Spawn one pass; returns the worker's result plus ``setup_s``, or
    ``{"error": ...}`` when it did not finish cleanly."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    env = {**os.environ, **CHILD_ENV}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f} s and was killed"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    return result


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program source not found at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    for key, value in provenance(args).items():
        print(f"provenance {key} {value}")

    began = time.monotonic()
    cycle = (False,) if args.trace == 0 else (False, True)
    passes: list[dict] = []
    errors: list[str] = []
    cycles = 0
    while not errors:
        for traced in cycle:
            elapsed = time.monotonic() - began
            result = run_pass(args.workload, args.seed, traced, DEADLINE - elapsed)
            if "error" in result:
                errors.append(result["error"])
                break
            passes.append(result)
            print(
                f"pass {len(passes)} traced={int(traced)} setup_s={result['setup_s']:.4f} "
                f"wall_s={result['wall_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f} "
                f"attempted={result['attempted']} failed={len(result['failures'])}"
            )
            for message in result["failures"]:
                print(f"  FAILED {message}")
        cycles += 1
        elapsed = time.monotonic() - began
        if elapsed + elapsed / cycles > args.seconds or elapsed > LAST_START:
            break

    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(len(p["failures"]) for p in passes) + len(errors)
    for message in errors:
        print(f"ERROR {message}")
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics: dict[str, dict] = {}
    if untraced:
        for name in untraced[0]["extras"]:
            value, unit = untraced[-1]["extras"][name]
            if isinstance(value, (int, float)):
                value = statistics.median(p["extras"][name][0] for p in untraced)
            print(f"context {name} {value} {unit}")
        print(f"context error_rate {failed / attempted if attempted else 0.0} ratio")
    if args.trace == 0 and untraced:
        values = {
            "setup_s": median_of(untraced, "setup_s"),
            "wall_s": median_of(untraced, "wall_s"),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    elif args.trace == 1 and untraced and traced:
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_ratio"] = median_of(traced, "wall_s") / median_of(untraced, "wall_s")
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
        table = traced[-1]["table"]
        total = traced[-1]["wall_s"]
        print(f"layer table of the last traced pass ({total:.4f} s traced, "
              f"{median_of(untraced, 'wall_s'):.4f} s untraced median):")
        print(f"  {'span':36} {'calls':>9} {'incl_s':>9} {'self_s':>9} {'self%':>6}")
        for name, calls, inclusive, self_s in table:
            print(f"  {name:36} {calls:9d} {inclusive:9.4f} {self_s:9.4f} {100 * self_s / total:6.1f}")
        print(f"  sum of self times {sum(row[3] for row in table):.4f} s")

    correct = not errors and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
