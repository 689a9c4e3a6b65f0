"""Compare two sets of benchmark results, pair by pair.

Each set is a directory of result files named ``<workload>-<seed>.json``,
each holding the last line ``run.py`` printed.  Runs of the parent and of
the change with the same workload and seed form a pair; make them
alternately (parent first for one seed, change first for the next) so
that drift of the machine's speed falls on both sides alike::

    python3 fjbench/compare.py PARENT_DIR CHANGE_DIR
    python3 fjbench/compare.py RESULTS_DIR          # one set: spreads only

For every workload and metric it prints each side's median and quartiles,
their spread (interquartile distance over the median) and the share of
pairs the change won (ties count for neither side).  Verdicts:

- ``gain``: the change won at least 9 pairs in 10 and the medians differ,
  in the better direction, by more than the parent's interquartile
  distance;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
- ``unresolved``: a side's spread exceeds the bound, unless every run of
  the change reads better than every run of the parent;
- ``same``: none of these.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_results(directory: str) -> dict[tuple[str, str], dict]:
    """(workload, seed) -> parsed result line."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, _, seed = name[:-len(".json")].rpartition("-")
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        out[(workload, seed)] = json.loads(lines[-1])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: list[float], change: list[float], wins: int,
            pairs: int, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if bound is not None and sign * (cm - pm) < -bound * abs(pm):
        return "regression"
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if bound is not None and max(spread(parent), spread(change)) > bound \
            and not all_better:
        return "unresolved"
    if pairs and wins >= 0.9 * pairs and sign * (cm - pm) > (p3 - p1):
        return "gain"
    return "same"


def fmt(value: float) -> str:
    return f"{value:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="result directory of the parent")
    parser.add_argument("change", nargs="?",
                        help="result directory of the change")
    args = parser.parse_args(argv)
    spec = load_spec(SPEC)
    parent = load_results(args.parent)
    change = load_results(args.change) if args.change else {}
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})
    failures = 0
    for workload in workloads:
        seeds = sorted(s for w, s in parent if w == workload)
        rows = [r for (w, _), r in parent.items() if w == workload]
        names = list(rows[0]["metrics"]) if rows else []
        print(f"== {workload} ({len(seeds)} parent runs)")
        for side, results in (("parent", parent), ("change", change)):
            bad = [s for (w, s), r in results.items()
                   if w == workload and (not r["correct"] or r["failed"])]
            if bad:
                failures += 1
                print(f"   {side}: incorrect or failed operations on seeds "
                      f"{', '.join(bad)}")
        for name in names:
            meta = spec.get(name, {})
            bound = meta.get("bound")
            better = meta.get("better", "lower")
            p_vals = [parent[(workload, s)]["metrics"][name]["value"]
                      for s in seeds]
            line = (f"   {name:<30} parent {fmt(statistics.median(p_vals))}"
                    f" [{' '.join(fmt(q) for q in quartiles(p_vals))}]"
                    f" spread {spread(p_vals):.3f}")
            if bound is not None:
                line += f" (bound {bound})"
            paired = [s for s in seeds if (workload, s) in change]
            if paired:
                c_vals = [change[(workload, s)]["metrics"][name]["value"]
                          for s in paired]
                p_pair = [parent[(workload, s)]["metrics"][name]["value"]
                          for s in paired]
                wins = sum((c > p) if better == "higher" else (c < p)
                           for c, p in zip(c_vals, p_pair))
                line += (f" | change {fmt(statistics.median(c_vals))}"
                         f" [{' '.join(fmt(q) for q in quartiles(c_vals))}]"
                         f" won {wins}/{len(paired)} "
                         f"-> {verdict(p_vals, c_vals, wins, len(paired), better, bound)}")
            elif bound is not None and spread(p_vals) > bound:
                line += " -> unsteady"
            print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
