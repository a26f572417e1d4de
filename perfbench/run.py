#!/usr/bin/env python3
"""Benchmark of the gupstar library and CLI.

Run one workload (closed loop, one client, one process):

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

Compare two sets of results (for example the parent commit and a change):

    python3 perfbench/run.py compare RESULTS_PARENT RESULTS_CHANGE

The workload repeats its fixed list of operations while another iteration
still fits into ``--seconds`` (at least twice; the first is a warm-up),
checks every output, prints each metric by name with its unit and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the run wraps the library's layers in spans
and reports the per-layer metrics instead.  The full record (environment,
every sample, failures, spans) is written to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.

The BLAS thread count is recorded but never set, because the n=128 products
depend strongly on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("algebra", "export", "verify")

MIN_ITERATIONS = 2    # the CSV digests are compared between iterations
IMPORT_PROBES = 3     # fresh-interpreter imports timed per iteration; setup takes their median

IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t = time.perf_counter()\n"
                "import gupstar.cli\n"
                "print(time.perf_counter() - t)\n")


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the whole package."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
    }


def percentile(values, q: int):
    """q-th percentile by statistics.quantiles; needs 10 samples beyond it."""
    if len(values) * (100 - q) < 1000:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def latency_metrics(samples: dict) -> dict:
    """Median (and p90 where allowed) of the star and CLI command latencies."""
    out = {}

    def entry(value, unit, values):
        return {"value": value, "unit": unit, "samples": len(values)}

    for key, values in sorted(samples.items()):
        if key.startswith("star."):
            size = key.split(".", 1)[1]
            ms = [v * 1e3 for v in values]
            out[f"star_ms_p50.{size}"] = entry(statistics.median(ms), "ms", ms)
            p90 = percentile(ms, 90)
            if p90 is not None:
                out[f"star_ms_p90.{size}"] = entry(p90, "ms", ms)
        elif key.startswith("cmd_s."):
            out[key] = entry(statistics.median(values), "s", values)
    return out


class Timer:
    """Times each library call of one iteration and names it to the tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict = {}

    def call(self, key, fn, *args):
        if self.tracer:
            self.tracer.scope = key
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples.setdefault(key, []).append(time.perf_counter() - t0)
            if self.tracer:
                self.tracer.scope = None


def make_workload(workloads, name: str, seed: int, workdir: Path):
    if name == "algebra":
        return workloads.Algebra(seed)
    if name == "export":
        return workloads.Export(seed, str(workdir))
    return workloads.Verify()


def run_workload(args, spec: dict) -> int:
    wall_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gupstar.cli  # noqa: F401  (loads every layer before any patching)
    if not Path(gupstar.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: gupstar imported from {gupstar.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import SPAN_FIELDS, Tracer

    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    wl = make_workload(workloads, args.workload, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        iterations, setup, samples, failures = [], [], {}, {}
        # Every iteration repeats the same checked operations on the same
        # inputs, so a check is counted once by name: attempted once, failed
        # if any of its repeats failed.  The counts then depend on the seed
        # alone, not on how many iterations fitted into --seconds.
        outcome: dict = {}  # check name -> (passed every repeat, failed unexpectedly)
        repeats = 0

        def record(checks):
            nonlocal repeats
            for c in checks:
                repeats += 1
                ok, unexpected = outcome.get(c.name, (True, False))
                outcome[c.name] = (ok and c.ok,
                                   unexpected or (not c.ok and c.known_defect is None))
                if c.ok:
                    continue
                entry = failures.setdefault(c.name, {"count": 0, "measured": [], "tol": c.tol,
                                                     "note": c.note,
                                                     "known_defect": c.known_defect})
                entry["count"] += 1
                if c.measured is not None:
                    entry["measured"].append(c.measured)

        start = time.perf_counter()
        deadline = start + args.seconds
        # Every iteration sets up afresh: a new interpreter times the import
        # and the inputs are built anew, so no carrier outlives its iteration
        # and work moved into construction shows in setup_s.  The first
        # iteration is a warm-up that no time metric uses.  A traced run then
        # alternates traced and untraced iterations; their difference is the
        # tracing overhead.  A further iteration starts only if one of the
        # typical length so far still ends before the deadline.
        min_iterations = MIN_ITERATIONS + (2 if tracer else 0)
        lengths = []
        while len(iterations) < min_iterations or (
                time.perf_counter() + statistics.median(lengths) < deadline):
            i = len(iterations)
            traced = tracer is not None and i % 2 == 1
            inputs = None  # let the previous inputs go before building new ones
            if traced:
                tracer.install()
                tracer.begin(f"build{i}", keep_spans=i == 1)
                inputs = wl.build()
            elif tracer:
                inputs = wl.build()
            else:
                import_s = statistics.median(import_seconds() for _ in range(IMPORT_PROBES))
                t0 = time.perf_counter()
                inputs = wl.build()
                setup.append({"import_s": import_s, "build_s": time.perf_counter() - t0})
            timer = Timer(tracer if traced else None)
            if traced:
                tracer.begin(f"iter{i}", keep_spans=i == 1)
            checks = wl.run(inputs, timer)
            if traced:
                tracer.uninstall()
            iterations.append({"traced": traced,
                               "wall_s": sum(sum(v) for v in timer.samples.values())})
            if not traced and i > 0:
                for key, values in timer.samples.items():
                    samples.setdefault(key, []).extend(values)
            for check in checks:
                record(check())
            checks = None  # the checks hold this iteration's carriers
            lengths.append(time.perf_counter() - start - sum(lengths))
        record(wl.final_checks())
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              "inputs": wl.describe(), "iterations": iterations}
    untraced = [it["wall_s"] for it in iterations if not it["traced"]][1:]  # no warm-up
    if tracer:
        epochs = [f"iter{i}" for i, it in enumerate(iterations) if it["traced"]]
        per_epoch = [tracer.epoch_metrics(e) for e in epochs]
        counts = {k: [m[k] for m in per_epoch] for k in per_epoch[0]
                  if not k.endswith((".self_s", ".wall_s", ".gflops"))}
        repeat = all(len(set(v)) == 1 for v in counts.values())
        record([workloads.Check("computed counts repeat across traced iterations", repeat,
                      note="" if repeat else json.dumps(counts))])
        layer = {k: statistics.median(m[k] for m in per_epoch) for k in per_epoch[0]}
        builds = [tracer.epoch_metrics(f"build{e[4:]}") for e in epochs]
        for key in ("families.resolve.self_s", "families.resolve.wall_s"):
            layer[key] = statistics.median(b[key] for b in builds)
        traced_wall = statistics.median(it["wall_s"] for it in iterations if it["traced"])
        layer["tracing.overhead_s"] = traced_wall - statistics.median(untraced)
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        result["layer_metrics"] = layer
        result["counts"] = {k: v[0] for k, v in counts.items()}
        result["attribution"] = tracer.attribution()
        result["span_fields"] = list(SPAN_FIELDS)
        result["spans"] = tracer.spans
    else:
        values = {"setup_s": statistics.median(x["import_s"] + x["build_s"] for x in setup),
                  "wall_s": statistics.median(untraced),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        result["setup"] = setup
        result["workload_metrics"] = latency_metrics(samples)
    attempted = len(outcome)
    failed = sum(not ok for ok, _ in outcome.values())
    unexpected = sum(u for _, u in outcome.values())
    result.update(metrics=metrics, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, failures=failures, check_repeats=repeats,
                  correct=unexpected == 0, run_s=time.perf_counter() - wall_start)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, sort_keys=True) + "\n")
    report(result, out)
    print(json.dumps({"correct": result["correct"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def report(result: dict, path: Path) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"iterations {len(result['iterations'])}")
    print(f"env python {env['python']} numpy {env['numpy']} blas {env['blas']['name']} "
          f"{env['blas']['version']} OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']} cpus {env['usable_cpus']} "
          f"commit {env['git_commit']}")
    rows = dict(result["metrics"])
    rows.update(result.get("workload_metrics", {}))
    for name, m in rows.items():
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_ratio':<44} {result['fail_ratio']:.6g} ({result['failed']}"
          f" of {result['attempted']} checks)")
    for scope, a in result.get("attribution", {}).items():
        top = ", ".join(f"{k} {v:.0%}" for k, v in list(a["share"].items())[:4])
        print(f"  self time under {scope} ({a['self_s']:.3g} s over traced iterations): {top}")
    for name, f in result["failures"].items():
        tag = "known defect" if f["known_defect"] else "FAILED"
        measured = f" measured {max(f['measured']):.4g} > tol {f['tol']:.3g}" if f["measured"] else ""
        print(f"  {tag}: {name} x{f['count']}{measured} {f['note']}".rstrip())
    print(f"results written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gupstar" / "__init__.py").is_file():
        print(f"error: no gupstar sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
