"""Benchmark entry point: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory, so there is nothing to build.  The client is one
closed loop: one process, one operation at a time, each an in-process call
to qmetric.cli.main.  Every workload runs in fresh child processes with
the BLAS thread count fixed through the environment.

--trace 0 prints every end-to-end metric, from MEASURE_PROCESSES fresh
children run one after another, each setting up and measuring for a share
of --seconds.  --trace 1 prints every per-layer metric, from one child
that traces all workloads.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the full result, with the
environment stamp, is also written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("verify-ladder", "search-small", "transport")

# A Python process's speed depends on its memory layout and hash seed, and
# a shared host has slow periods lasting many seconds; measuring in several
# processes spread over the run evens out both.  It also gives the set-up
# time several samples.
MEASURE_PROCESSES = 3
BLAS_THREADS = 1
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "1/s",
    "latency_gmean_ms": "ms",
    "latency_tail_ms": "ms",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.endswith(".calls") or last in ("iterations", "restarts"):
        return "count"
    if last == "peak_mb":
        return "MB"
    if last in ("found_ratio", "gap_rel_p50"):
        return "ratio"
    if last == "trace_overhead_pct":
        return "%"
    if ".iter_us." in name:
        return "us"
    return "ms"


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(role: str, args, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--role", role, "--out-dir", str(OUT_DIR),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left to start the {role} process")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(children: list) -> dict:
    """End-to-end figures from each operation's best time over all children.

    Latency is summarised by the geometric mean and by the mean of the
    slowest fifth, not by percentiles: the latency operations fall into
    clusters by shape (n=3 verifies near 3 ms, n=6 near 20 ms), and a
    percentile that lands in the gap between two clusters jumps by the
    width of the gap when one operation crosses it.
    """
    best: dict = {}
    for child in children:
        for i, dt, units, throughput, latency in child["best"]:
            if i not in best or dt < best[i][0]:
                best[i] = (dt, units, throughput, latency)
    work = sum(units for _, units, throughput, _ in best.values() if throughput)
    busy = sum(dt for dt, _, throughput, _ in best.values() if throughput)
    latency = sorted(1e3 * dt for dt, _, _, latency in best.values() if latency)
    return {
        "setup_s": statistics.median(child["setup_s"] for child in children),
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
        "throughput": work / busy,
        "latency_gmean_ms": statistics.geometric_mean(latency),
        "latency_tail_ms": statistics.mean(latency[-max(1, len(latency) // 5):]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="qmetric closed-loop benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qmetric" / "__init__.py").is_file():
        print(f"error: no qmetric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            children = [run_child("trace", args, args.seconds, deadline)]
            metrics = {name: (value, layer_unit(name)) for name, value in children[0]["metrics"].items()}
            detail = {}
        else:
            share = args.seconds / MEASURE_PROCESSES
            children = [run_child("measure", args, share, deadline) for _ in range(MEASURE_PROCESSES)]
            values = end_to_end(children)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            detail = {"setup_samples_s": [c["setup_s"] for c in children],
                      "rounds": [c["rounds"] for c in children]}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for err in (err for child in children for err in child["errors"]):
        print(f"failed: {err}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": children[0]["stamp"], **detail, "result": result}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    print("environment: " + json.dumps(children[0]["stamp"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:<60} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
