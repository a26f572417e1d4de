#!/usr/bin/env python3
"""Write the outcome of a parent/change benchmark comparison as one JSON file.

    python3 tools/bench_record.py RESULTS_PARENT RESULTS_CHANGE --out BENCH_<n>.json

The arguments are the two result directories that
``perfbench/run.py compare`` reads.  The record holds each side's
environment (its seeds, and every distinct environment its runs reported),
each side's failure counts per workload, and, for every workload and metric
that ``compare`` prints, the pair count, both sides' quartiles, the bound and
the verdict; traced runs add the computed counts that differ between the
sides.  Pairing, quartiles and verdicts come from ``perfbench/compare.py``
itself, so the file says what ``compare`` said.  A side whose runs record no
git commit (a tree without ``.git``, such as a ``git archive`` export) cannot
be traced to a tree, so the tool warns; run the benchmark from ``git clone``
checkouts instead.  Byte-compile both checkouts before the runs
(``python -m compileall -q src`` in each): where ``PYTHONDONTWRITEBYTECODE=1``
is set, a tree whose sources no longer match its ``__pycache__`` recompiles
every module on each import probe, which adds about 30 ms to ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from compare import SPEC, load, metric_specs, quartiles, verdict  # noqa: E402


def side(runs: dict) -> dict:
    envs = []
    for rec in runs.values():
        env = {k: v for k, v in rec["env"].items() if k != "seed"}
        if env not in envs:
            envs.append(env)
    failures = {}
    for (wl, seed, trace), rec in sorted(runs.items()):
        if trace == 0:
            failures.setdefault(wl, {})[str(seed)] = f"{rec['attempted']}/{rec['failed']}"
    return {"seeds": sorted({k[1] for k in runs}), "environments": envs,
            "attempted/failed": failures}


def record(parent: dict, change: dict) -> dict:
    spec = json.loads(SPEC.read_text())
    rows = []
    untraced = lambda runs: {k[0] for k in runs if k[2] == 0}  # noqa: E731
    for wl in sorted(untraced(parent) & untraced(change)):
        seeds = sorted({k[1] for k in parent if k[0] == wl and k[2] == 0}
                       & {k[1] for k in change if k[0] == wl and k[2] == 0})
        if not seeds:
            continue
        for name, (bound, lower_better) in metric_specs(parent[(wl, seeds[0], 0)], spec).items():
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
            rows.append({"workload": wl, "metric": name, "pairs": len(seeds),
                         "better": "lower" if lower_better else "higher", "bound": bound,
                         "parent_q1_med_q3": list(quartiles(p)),
                         "change_q1_med_q3": list(quartiles(c)),
                         "verdict": verdict(p, c, bound, lower_better)})
    counts = []
    for key in sorted(set(parent) & set(change)):
        if key[2] != 1:
            continue
        pc, cc = parent[key].get("counts", {}), change[key].get("counts", {})
        counts += [{"workload": key[0], "seed": key[1], "count": name,
                    "parent": pc.get(name), "change": cc.get(name)}
                   for name in sorted(set(pc) | set(cc)) if pc.get(name) != cc.get(name)]
    traced = sorted({(k[0], k[1]) for k in parent if k[2] == 1}
                    & {(k[0], k[1]) for k in change if k[2] == 1})
    return {"parent": side(parent), "change": side(change), "metrics": rows,
            "traced_pairs": [list(t) for t in traced], "count_differences": counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="result directory of the parent commit")
    ap.add_argument("change", help="result directory of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    rec = record(load(args.parent), load(args.change))
    for name in ("parent", "change"):
        if any(env.get("git_commit") is None for env in rec[name]["environments"]):
            print(f"warning: {name} runs record no git commit", file=sys.stderr)
    Path(args.out).write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
