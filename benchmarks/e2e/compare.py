"""Compare two sets of benchmark runs, parent against change::

    python -m benchmarks.e2e.compare PARENT CHANGE

Each side is a directory of run records written by ``python -m
benchmarks.e2e --out DIR`` (or one JSON file holding a list of them).
Runs are paired in start order per workload, so run the two commits
alternately, with the same seed in each pair, at least ten pairs.

For every (workload, metric) with a bound, it prints both sides' median
and quartiles, the share of pairs the change wins (ties count for
neither), and a verdict:

* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, unless every change run reads better
  than every parent run;
* ``unchanged``: otherwise, and whenever every pair reads the same (a
  metric fixed by the seed varies across seeds, not within a pair).

Exits 1 if any verdict is ``worse``, 2 on fewer than ten pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .summary import EXTRA_METRICS, Metric, benchmark_metrics, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced run records under ``path``, per workload, in start order."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    runs: dict[str, list[dict]] = {}
    for f in files:
        doc = json.loads(f.read_text(encoding="utf-8"))
        for run in doc if isinstance(doc, list) else [doc]:
            if isinstance(run, dict) and "metrics" in run and not run.get("trace"):
                runs.setdefault(run["workload"], []).append(run)
    for group in runs.values():
        group.sort(key=lambda r: r["started"])
    return runs


def verdict(parent: list[float], change: list[float], metric: Metric) -> dict:
    """The §8 verdict for one (workload, metric) over paired runs."""
    sign = 1.0 if metric.better == "lower" else -1.0  # sign * delta > 0: worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs) / len(pairs)

    def share(delta: float, base: float) -> float:
        if base:
            return delta / abs(base)
        return 0.0 if delta == 0 else float("inf")

    worse_by = share(sign * (cm - pm), pm)
    spread = max(share(p3 - p1, pm), share(c3 - c1, cm))
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if all(p == c for p, c in pairs):
        result = "unchanged"
    elif wins >= WIN_SHARE and sign * (pm - cm) > p3 - p1:
        result = "better"
    elif worse_by > metric.bound:
        result = "worse"
    elif spread > metric.bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "worse_by": worse_by, "verdict": result}


def compare(parent_dir: Path, change_dir: Path) -> list[tuple]:
    """Rows of ``(workload, metric, verdict dict)``; raises ValueError on
    fewer than :data:`MIN_PAIRS` pairs."""
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    metrics = [*benchmark_metrics("end_to_end"), *EXTRA_METRICS]
    rows = []
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        if n < MIN_PAIRS:
            raise ValueError(f"{workload}: {n} pairs, need {MIN_PAIRS}")
        p_runs, c_runs = parent[workload][:n], change[workload][:n]
        for metric in metrics:
            if not all(metric.name in r["metrics"] for r in p_runs + c_runs):
                continue
            p = [r["metrics"][metric.name]["value"] for r in p_runs]
            c = [r["metrics"][metric.name]["value"] for r in c_runs]
            rows.append((workload, metric, verdict(p, c, metric)))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    try:
        rows = compare(args.parent, args.change)
    except ValueError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print(f"{'workload':<10} {'metric':<22} {'unit':<10} "
          f"{'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>5}  verdict")
    for workload, metric, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{workload:<10} {metric.name:<22} {metric.unit:<10} "
              f"{fmt(v['parent']):>32} {fmt(v['change']):>32} "
              f"{v['wins']:>5.2f}  {v['verdict']}")
    return 1 if any(v["verdict"] == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
