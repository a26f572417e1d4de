"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/run.py compare RESULTS_PARENT RESULTS_CHANGE

Each argument is a directory of result records written by ``run.py`` (copy
``perfbench/results`` away after each set).  Untraced runs are paired by
workload and seed.  A metric is

* ``improved`` when the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ, in the better direction, by more than
  the parent's interquartile distance;
* ``worse`` when the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
* ``unresolved`` when it is not worse but the parent's interquartile distance
  is wider than the bound, unless every run of the change reads better than
  every parent run;
* ``unchanged`` otherwise.

Traced runs of the same workload and seed must give identical computed counts;
every mismatch is listed.  Exit code 1 if any metric is worse or a count
differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Bound for the workload-specific latencies (star_ms_*, cmd_s.*), which are
# recorded next to the BENCHMARK.json metrics; the same as wall_s's.
EXTRA_BOUND = 0.25


def load(directory: str) -> dict:
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound: float, lower_better: bool) -> str:
    def better(a, b):
        return a < b if lower_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    iqr = p3 - p1
    if better(cm, pm) and wins >= 0.9 * len(pairs) and abs(cm - pm) > iqr:
        return "improved"
    worse_share = (cm - pm) / abs(pm) if lower_better else (pm - cm) / abs(pm)
    if worse_share > bound:
        return "worse"
    all_better = all(better(c, p) for c in change for p in parent)
    if iqr > bound * abs(pm) and not all_better:
        return "unresolved"
    return "unchanged"


def metric_specs(rec: dict, spec: dict) -> dict:
    out = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    for name in rec.get("workload_metrics", {}):
        out[name] = (EXTRA_BOUND, True)
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parent, change = load(argv[0]), load(argv[1])
    bad = False
    print(f"{'workload':<9} {'metric':<22} {'pairs':>5} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'bound':>6}  verdict")
    workloads = sorted({k[0] for k in parent if k[2] == 0} & {k[0] for k in change if k[2] == 0})
    for wl in workloads:
        seeds = sorted({k[1] for k in parent if k[0] == wl and k[2] == 0}
                       & {k[1] for k in change if k[0] == wl and k[2] == 0})
        if not seeds:
            print(f"{wl:<9} no seed run on both sides")
            continue
        first = parent[(wl, seeds[0], 0)]
        for name, (bound, lower_better) in metric_specs(first, spec).items():
            def series(runs):
                vals = []
                for s in seeds:
                    rec = runs[(wl, s, 0)]
                    m = rec["metrics"].get(name) or rec.get("workload_metrics", {}).get(name)
                    vals.append(m["value"] if m else None)
                return vals
            p, c = series(parent), series(change)
            if None in p or None in c:
                continue
            v = verdict(p, c, bound, lower_better)
            bad |= v == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{wl:<9} {name:<22} {len(seeds):>5} {fmt.format(*quartiles(p)):>32} "
                  f"{fmt.format(*quartiles(c)):>32} {bound:>6}  {v}")
    for key in sorted(set(parent) & set(change)):
        if key[2] != 1:
            continue
        pc, cc = parent[key].get("counts", {}), change[key].get("counts", {})
        for name in sorted(set(pc) | set(cc)):
            if pc.get(name) != cc.get(name):
                bad = True
                print(f"count differs: {key[0]} seed {key[1]} {name}: "
                      f"{pc.get(name)} -> {cc.get(name)}")
    return 1 if bad else 0
