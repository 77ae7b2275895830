"""Compare two sets of untraced benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a results directory written by run.py (a checkout's
.perfbench/results).  Runs are paired by workload and seed.  One row per
workload and end-to-end metric gives each side's median and quartiles,
the change of the medians, how many pairs the new side won, and a verdict
against the bounds in BENCHMARK.json:

unresolved  either side's quartile spread, as a share of its median, is wider
            than the bound, and not every new run beats every base run
worse       the new median is worse than the base median by more than the bound
better      the new side won at least nine tenths of the pairs and the medians
            differ by more than the base side's quartile spread
same        none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(results: Path) -> dict:
    """{workload: {seed: {metric: value}}} from the untraced result files."""
    out: dict = {}
    for path in sorted(results.glob("*-trace0.json")):
        doc = json.loads(path.read_text())
        metrics = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
        out.setdefault(doc["workload"], {})[doc["seed"]] = metrics
    return out


def summary(values: list) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list, new: list, pairs: list, lower_better: bool, bound: float) -> tuple[str, float, int]:
    sign = 1.0 if lower_better else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (n_med - b_med) / abs(b_med)
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", worse_by, wins
    if worse_by > bound:
        return "worse", worse_by, wins
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > spread(base):
        return "better", worse_by, wins
    return "same", worse_by, wins


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    header = f"{'workload':<14}{'metric':<16}{'base median [q1, q3]':<34}{'new median [q1, q3]':<34}{'change':>9}{'wins':>8}  verdict"
    print(header)
    status = 0
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [v[name] for v in base[workload].values()]
            n = [v[name] for v in new[workload].values()]
            pairs = [(base[workload][s][name], new[workload][s][name]) for s in seeds]
            result, worse_by, wins = verdict(b, n, pairs, metric["better"] == "lower", metric["bound"])
            bm, bq1, bq3 = summary(b)
            nm, nq1, nq3 = summary(n)
            print(
                f"{workload:<14}{name:<16}"
                f"{f'{bm:.4g} [{bq1:.4g}, {bq3:.4g}]':<34}"
                f"{f'{nm:.4g} [{nq1:.4g}, {nq3:.4g}]':<34}"
                f"{-worse_by:>+9.1%}{f'{wins}/{len(pairs)}':>8}  {result}"
            )
            if result == "worse":
                status = 1
    print("change is the improvement of the new median over the base median; "
          "wins counts seeds where the new run was better.")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
