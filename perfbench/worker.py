"""One fresh benchmark process: set up a workload, then measure or trace it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --role measure|trace --out-dir DIR

measure  sets up (imports, generates the inputs and runs one untimed
         warm-up per distinct shape), then runs rounds of the workload's
         operations, untraced, until S seconds have passed; prints the
         set-up time and each operation's best time.
trace    sets up every workload in turn with one untraced round, which
         also gives the reference results, then runs rounds of the traced
         mirrors, each op with spans off and on, for S/3 seconds each; prints the per-layer
         figures, with the cost of the spans as trace_overhead_pct, and
         writes the spans as JSON lines.

The last line of stdout is one JSON object.  run.py starts this file with
the BLAS thread count fixed through the environment.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qmetric  # noqa: E402
from qmetric.search import structure_basis  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import BUILDERS, STALL_BUDGETS, WORKLOADS, Docs, Mismatch, Op, call_cli  # noqa: E402

MAX_ERRORS_SHOWN = 5
# A shared host stalls a process for bursts of a few milliseconds; repeating
# a cheap op gives its best time more chances to fall between the bursts.
REPEAT_S = 0.03
MAX_REPEATS = 8


class Runner:
    """Inputs, operations and failure counts of one workload in this process."""

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.dir = work_dir / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
        self.ops: list[Op] = BUILDERS[workload](rng, Docs(self.dir))
        self.facts: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, op: Op, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            kind = "mismatch" if isinstance(exc, Mismatch) else type(exc).__name__
            self.errors.append(f"{self.workload} {' '.join(op.argv[:2])}: {kind}: {exc}")

    def warm_up(self) -> None:
        """One untimed run per distinct shape and code path, filling the shape caches."""
        seen = set()
        for op in self.ops:
            key = (op.kind, op.cls, op.shape, op.mode)
            if key not in seen:
                seen.add(key)
                try:
                    call_cli(op.argv)
                except Exception:  # noqa: BLE001 - a failing op is counted in the timed rounds
                    pass

    def run_untraced(self, i: int, op: Op) -> float | None:
        """Time one command; check it against its reference.  None on failure."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            code, out = call_cli(op.argv)
            dt = time.perf_counter() - t0
            self.facts[i] = op.check(code, out)
        except Exception as exc:  # noqa: BLE001 - the benchmark counts and reports every failure
            self.facts.pop(i, None)
            self.fail(op, exc)
            return None
        return dt

    def round_untraced(self, samples: list, deadline: float = math.inf) -> None:
        """Every op once, a cheap one back to back until it has taken REPEAT_S.

        Stops early, between ops, once `deadline` has passed.
        """
        for i, op in enumerate(self.ops):
            if time.perf_counter() >= deadline:
                return
            spent = 0.0
            for _ in range(MAX_REPEATS):
                dt = self.run_untraced(i, op)
                if dt is None:
                    break
                samples.append((i, dt, self.facts[i].get("iterations", 1)))
                spent += dt
                if spent >= REPEAT_S:
                    break

    def run_traced(self, i: int, op: Op, rec: Recorder) -> float | None:
        """Time the op's mirror and compare it with the untraced result.  None on failure."""
        self.attempted += 1
        try:
            with rec.span(f"op.{op.kind}", cls=op.cls):
                t0 = time.perf_counter()
                result = op.mirror(rec)
            dt = time.perf_counter() - t0
            if i not in self.facts:
                raise Mismatch("no untraced result to compare with")
            op.compare(result, self.facts[i])
            if op.probe is not None:
                op.probe(rec)
        except Exception as exc:  # noqa: BLE001 - the benchmark counts and reports every failure
            self.fail(op, exc)
            return None
        return dt


def rounds_for(seconds: float, step) -> int:
    """Run step(round_index) for whole rounds until `seconds` have passed, at least once."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        step(rounds)
        rounds += 1
    return rounds


def stamp(seed: int) -> dict:
    blas = numpy_blas()
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        text = head.read_text().strip()
        if text.startswith("ref: "):
            target = ROOT / ".git" / text[5:]
            commit = target.read_text().strip() if target.is_file() else None
        else:
            commit = text
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qmetric": getattr(qmetric, "__version__", None),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
    }


def numpy_blas() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner: Runner, seconds: float) -> dict:
    """Each operation's best time over the rounds run in `seconds`.

    The first round is whole, so every operation has a time; the rest stop
    at the deadline.  The same operations repeat every round, and the best
    of them filters out the slow periods of a shared host, which would
    otherwise dominate the spread between runs.
    """
    samples: list = []
    deadline = time.perf_counter() + seconds
    runner.round_untraced(samples)
    rounds = 1
    while time.perf_counter() < deadline:
        runner.round_untraced(samples, deadline)
        rounds += 1
    best: dict[int, tuple[float, float]] = {}
    for i, dt, units in samples:
        if i not in best or dt < best[i][0]:
            best[i] = (dt, units)
    return {
        "peak_rss_mb": peak_rss_mb(),
        "rounds": rounds,
        "best": [[i, dt, units, runner.ops[i].throughput, runner.ops[i].latency]
                 for i, (dt, units) in sorted(best.items())],
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def per_round(rec: Recorder, rounds: int, name: str, **attrs) -> float:
    return rec.busy_ms(name, **attrs) / rounds


def count_per_round(rec: Recorder, rounds: int, name: str, **attrs) -> float:
    return len(rec.select(name, **attrs)) / rounds


def memory_peak(run, name: str) -> float:
    """Tracemalloc peak inside the first `name` span of run(recorder)."""
    rec = Recorder(memory_for=frozenset({name}))
    run(rec)
    return rec.select(name)[0]["peak_mb"]


def largest(ops: list[Op], kind: str, cls: str) -> Op:
    chosen = [op for op in ops if op.kind == kind and op.cls == cls]
    return max(chosen, key=lambda op: sum(op.shape))


def verify_ladder_layers(rec: Recorder, k: int, runner: Runner) -> dict:
    big = largest(runner.ops, "verify", "large")
    m = {
        "cli.parse.ms": per_round(rec, k, "cli.parse"),
        "exchange.load_element.ms": per_round(rec, k, "exchange.load_element"),
        "exchange.load_element.calls": count_per_round(rec, k, "exchange.load_element"),
        "exchange.save_report.ms": per_round(rec, k, "exchange.save_report"),
        "exchange.save_element.ms": per_round(rec, k, "exchange.save_element"),
        "exchange.load_metric_space.ms": per_round(rec, k, "exchange.load_metric_space"),
    }
    for fn in ("from_finite_metric", "conic_combine", "direct_sum", "tensor_product"):
        m[f"construct.{fn}.ms"] = per_round(rec, k, f"construct.{fn}")
    for cls in ("small", "large"):
        m[f"axioms.check_triangle.ms.{cls}"] = per_round(rec, k, "axioms.check_triangle", cls=cls)
        m[f"axioms.check_positive.ms.{cls}"] = per_round(rec, k, "axioms.check_positive", cls=cls)
    m["axioms.check_triangle.peak_mb"] = memory_peak(big.mirror, "axioms.check_triangle")
    m["axioms.triangle_defect.ms"] = per_round(rec, k, "axioms.triangle_defect")
    for fn in ("check_nondegenerate", "check_diag_vanish", "check_flip_symmetric",
               "check_alg_diag", "check_alg_nondegenerate_sampled"):
        m[f"axioms.{fn}.ms"] = per_round(rec, k, f"axioms.{fn}")
    for fn in ("validate", "flip", "mult_map", "op_norm", "min_eig", "mid_embed"):
        m[f"algebra.{fn}.ms"] = per_round(rec, k, f"algebra.{fn}")
    m["algebra.mid_embed.peak_mb"] = memory_peak(big.probe, "algebra.mid_embed")
    m["op.verify.self_ms"] = rec.self_ms("op.verify") / k
    m["op.construct.self_ms"] = rec.self_ms("op.construct") / k
    return m


def search_small_layers(rec: Recorder, k: int, runner: Runner) -> dict:
    spans = rec.select("search.feasibility_search")
    m = {
        "cli.parse.ms": per_round(rec, k, "cli.parse"),
        "exchange.save_outcome.ms": per_round(rec, k, "exchange.save_outcome"),
        "search.feasibility_search.ms.stall": per_round(rec, k, "search.feasibility_search", cls="stall"),
        "search.feasibility_search.ms.found": per_round(rec, k, "search.feasibility_search", cls="found"),
    }
    big = largest(runner.ops, "search", "found")
    m["search.feasibility_search.peak_mb"] = memory_peak(big.mirror, "search.feasibility_search")
    for blocks, _ in STALL_BUDGETS:
        chosen = [s for s in spans if s["cls"] == "stall" and tuple(s["shape"]) == blocks]
        secs = sum(s["end"] - s["start"] for s in chosen)
        iters = sum(s["iterations"] for s in chosen)
        m["search.iter_us.shape-" + "-".join(map(str, blocks))] = 1e6 * secs / iters
    restarts = sum(s["restarts"] for s in spans)
    m["search.restarts"] = restarts / k
    m["search.iterations"] = sum(s["iterations"] for s in spans) / k
    m["search.found_ratio"] = sum(1 for s in spans if s["found"]) / restarts
    m["op.search.self_ms"] = rec.self_ms("op.search") / k
    return m


def transport_layers(rec: Recorder, k: int, runner: Runner) -> dict:
    general = rec.select("lipschitz.mk_distance", path="general")
    m = {
        "cli.parse.ms": per_round(rec, k, "cli.parse"),
        "exchange.load_element.ms": per_round(rec, k, "exchange.load_element"),
        "exchange.load_state.ms": per_round(rec, k, "exchange.load_state"),
        "exchange.load_metric_space.ms": per_round(rec, k, "exchange.load_metric_space"),
        "construct.from_finite_metric.ms": per_round(rec, k, "construct.from_finite_metric"),
        "lipschitz.metric_pseudo_inverse.ms": per_round(rec, k, "lipschitz.metric_pseudo_inverse"),
        "lipschitz.lip_seminorm.ms": per_round(rec, k, "lipschitz.lip_seminorm"),
        "lipschitz.mk_distance.lp.ms": per_round(rec, k, "lipschitz.mk_distance", path="lp"),
        "lipschitz.mk_distance.general.ms": per_round(rec, k, "lipschitz.mk_distance", path="general"),
        "lipschitz.mk_distance.general.iterations": sum(s["iterations"] for s in general) / k,
        "lipschitz.mk_distance.general.gap_rel_p50": statistics.median(s["gap_rel"] for s in general),
        "lipschitz.pure_state_bound.ms": per_round(rec, k, "lipschitz.pure_state_bound"),
    }
    big = largest(runner.ops, "distance", "ascent")
    m["lipschitz.mk_distance.general.peak_mb"] = memory_peak(big.mirror, "lipschitz.mk_distance")
    m["op.distance.self_ms"] = rec.self_ms("op.distance") / k
    m["op.lipschitz.self_ms"] = rec.self_ms("op.lipschitz") / k
    return m


LAYERS = {
    "verify-ladder": verify_ladder_layers,
    "search-small": search_small_layers,
    "transport": transport_layers,
}
# structure_basis is cached per shape and mode, so the search workload is
# traced first, while those caches are still cold in this process.
TRACE_ORDER = ("search-small", "verify-ladder", "transport")


def trace(seed: int, seconds: float, work_dir: Path, spans_path: Path) -> dict:
    rec = Recorder()
    metrics: dict = {}
    attempted = failed = 0
    errors: list = []
    for workload in TRACE_ORDER:
        runner = Runner(workload, seed, work_dir)
        if workload == "search-small":
            for blocks, mode in sorted({(op.shape, op.mode) for op in runner.ops}):
                with rec.span("search.structure_basis"):
                    structure_basis(blocks, mode)
        # one untraced round fills the shape caches and gives the results
        # the mirrors are compared with
        runner.round_untraced([])
        off = Recorder(enabled=False)
        start = len(rec.spans)
        ratios: list = []

        def step(round_index: int) -> None:
            # each op runs with spans off and on back to back, alternating
            # which goes first, so neither order nor a slow period biases it
            for i, op in enumerate(runner.ops):
                order = (off, rec) if (i + round_index) % 2 == 0 else (rec, off)
                times = {id(r): runner.run_traced(i, op, r) for r in order}
                if None not in times.values():
                    ratios.append(times[id(rec)] / times[id(off)])

        k = rounds_for(seconds / len(TRACE_ORDER), step)
        view = Recorder()
        view.spans = rec.spans[start:]
        layer = LAYERS[workload](view, k, runner)
        if workload == "search-small":
            layer["search.structure_basis.cold_ms"] = rec.busy_ms("search.structure_basis")
        # the median over operations keeps a slow period of the host out
        layer["trace_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
        metrics.update({f"{workload}.{name}": value for name, value in layer.items()})
        attempted += runner.attempted
        failed += runner.failed
        errors += runner.errors
    rec.write_jsonl(spans_path)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("measure", "trace"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    work_dir = args.out_dir / "work" / f"{args.role}-{os.getpid()}"
    try:
        if args.role == "trace":
            spans_path = args.out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            out = trace(args.seed, args.seconds, work_dir, spans_path)
        else:
            runner = Runner(args.workload, args.seed, work_dir)
            runner.warm_up()
            out = {"setup_s": time.perf_counter() - T_START}
            out.update(measure(runner, args.seconds))
            out.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
        out["stamp"] = stamp(args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
