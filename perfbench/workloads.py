"""The benchmark's workloads: inputs from a seed, a fixed operation list, checks.

Each workload builds its inputs from the workload seed alone, then runs one
fixed list of operations per iteration.  `run` times every library call
through ``timer.call(key, fn, *args)`` and returns check callables, which the
driver invokes after the iteration, outside any tracing; each returns a list
of ``Check``.  Tolerances are the ones the repository's tests and ``verify``
use.

Why these workloads:

* ``algebra`` -- library calls only, star products at n=128 (where the BLAS
  call in ``compose_kernels`` dominates) and n=512 (where the kernel shear and
  coefficient FFTs dominate).  Operands mix unmodulated bumps, same-position
  modulated states, and a pair whose modulations differ by a non-integer, so a
  fast path for integer modulations cannot slow the quadrature route unseen.
* ``export`` -- CLI commands writing CSV at grid 128, a quarter of the
  default grid's work so that one run holds about eight iterations; lattice
  synthesis and CSV formatting dominate, the products themselves are small.
* ``verify`` -- the invariant suites, the only workload running the formal
  engine, the transforms and the slow reference routes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass

import numpy as np

# Library calls go through the module objects, so that the tracer's patched
# bindings are the ones called.
from gupstar import cli, families
from gupstar import star_algebra as sa
from gupstar.beta_arith import BetaContext

ASSOC_TOL = 1e-10      # tests/test_star_algebra.py::test_associativity, relative to |f||g||h|
ADJOINT_TOL = 1e-10    # tests/test_star_algebra.py::test_inner_product
KINK_TOL_AT_512 = 1e-4  # gupstar.verify._kink_tol: 1e-4 * max((512/n)^2, 1)
DEFAULT_GRID = 256     # the CLI's default grid, passed explicitly
EXPORT_GRID = 128      # a quarter of the default's work, so a run holds ~8 iterations
SAMPLES = 201          # the CLI's default window samples per axis


def kink_tol(n: int) -> float:
    return KINK_TOL_AT_512 * max((512.0 / n) ** 2, 1.0)


@dataclass
class Check:
    name: str
    ok: bool
    measured: float | None = None
    tol: float | None = None
    note: str = ""
    known_defect: str | None = None


def _off_lattice_xi(rng: random.Random, step: float) -> float:
    """A position strictly between lattice points, away from both neighbours."""
    return round(step * (rng.randint(-2, 2) + rng.uniform(0.2, 0.8)), 6)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

class Algebra:
    """Products, involution, trace and inner product on resolved families."""

    name = "algebra"
    # per iteration: jobs of each operand kind at each size
    JOBS = ((128, 2), (512, 1))
    KINDS = ("bump", "same_position", "non_integer_pair")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ctx = BetaContext(1.0, 1.0, 0.5)
        step = self.ctx.q_lattice_step
        self.specs = []
        for n, reps in self.JOBS:
            for _ in range(reps):
                for kind in self.KINDS:
                    self.specs.append((n, kind, self._labels(kind, rng, step)))

    @staticmethod
    def _labels(kind: str, rng: random.Random, step: float):
        if kind == "bump":
            return tuple(f"bump:{rng.randrange(1, 10 ** 6)}" for _ in range(3))
        xi = _off_lattice_xi(rng, step)
        if kind == "same_position":
            return (f"rho:{xi}", f"ml:{xi}", f"rho:{xi}")
        # rho:x has modulation -x/step, so y - x = step * (k + u) with
        # fractional u makes the contracted modulations differ by a non-integer
        y = round(xi + step * (rng.randint(0, 2) + rng.uniform(0.2, 0.8)), 6)
        return (f"rho:{xi}", f"rho:{y}", f"rho:{xi}")

    def describe(self) -> list:
        return [{"n": n, "kind": kind, "operands": list(labels)} for n, kind, labels in self.specs]

    def build(self):
        return [(n, kind, labels, tuple(families.resolve_family(lab, self.ctx, n) for lab in labels))
                for n, kind, labels in self.specs]

    def run(self, inputs, timer):
        checks = []
        for n, kind, labels, (f, g, h) in inputs:
            key = f"star.n{n}"
            left = timer.call(key, sa.star, timer.call(key, sa.star, f, g), h)
            right = timer.call(key, sa.star, f, timer.call(key, sa.star, g, h))
            fi = timer.call("involution", sa.involution, f)
            tr = timer.call("trace", sa.trace, timer.call(key, sa.star, fi, g))
            ip = timer.call("inner", sa.inner, f, g)
            checks.append(self._checker(n, kind, labels, (f, g, h), left, right, tr, ip))
        return checks

    @staticmethod
    def _checker(n, kind, labels, operands, left, right, tr, ip):
        def check():
            f, g, h = operands
            tag = f"{kind}@n{n}({','.join(labels)})"
            scale = ASSOC_TOL * sa.norm2(f) * sa.norm2(g) * sa.norm2(h)
            res = float(np.abs(left.values - right.values).max())
            out = [Check(f"associativity {tag}", res <= scale, res, scale)]
            if kind == "non_integer_pair":
                # star claims no exactness here; only finiteness is checked
                finite = bool(np.isfinite(left.values).all() and np.isfinite(right.values).all()
                              and np.isfinite([tr, ip]).all())
                out.append(Check(f"finite {tag}", finite))
            else:
                gap = abs(ip - tr)
                out.append(Check(f"inner_vs_trace {tag}", gap <= ADJOINT_TOL, gap, ADJOINT_TOL))
            return out
        return check

    def final_checks(self) -> list:
        return []


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _digest(path: str):
    h = hashlib.sha256()
    rows = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            rows += block.count(b"\n")
    return h.hexdigest(), rows - 1  # minus the header line


class Export:
    """CLI commands run in-process, writing CSV into a scratch directory."""

    name = "export"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        step = BetaContext(1.0, 1.0, 0.5).q_lattice_step
        self.workdir = workdir
        self.xi = _off_lattice_xi(rng, step)
        s, t, u = (rng.randrange(1, 10 ** 6) for _ in range(3))
        xi = str(self.xi)
        field_rows = EXPORT_GRID * EXPORT_GRID
        lattice_rows = (4 * EXPORT_GRID + 1) * EXPORT_GRID  # half width 2n around the origin
        window_rows = SAMPLES * SAMPLES
        # (metric name, argv, {file: expected data rows}, reports a pointwise difference)
        self.commands = [
            ("star", ["star", f"bump:{s}", f"bump:{t}"],
             {"star_field.csv": field_rows, "star_lattice.csv": lattice_rows}, False),
            ("star_symbol", ["star", "q", f"bump:{u}"],
             {"star_field.csv": field_rows, "star_lattice.csv": lattice_rows}, False),
            ("export", ["export", f"ml:{xi}"],
             {"field.csv": field_rows, "lattice.csv": lattice_rows}, False),
            ("mlstate", ["mlstate", "--xi", xi, "--json"],
             {"mlstate_eval.csv": window_rows, "mlstate_wigner.csv": window_rows}, True),
            ("eigenstate", ["eigenstate", "--xi", xi, "--json"],
             {"eigenstate_eval.csv": window_rows, "eigenstate_wigner.csv": window_rows}, True),
        ]
        self.digests: dict = {}

    def describe(self) -> list:
        return [{"metric": f"cmd_s.{name}", "argv": argv + ["--grid", str(EXPORT_GRID)]}
                for name, argv, _, _ in self.commands]

    def build(self):
        return None

    def run(self, _inputs, timer):
        checks = []
        for name, argv, files, has_diff in self.commands:
            out_dir = os.path.join(self.workdir, name)
            os.makedirs(out_dir, exist_ok=True)
            rc, stdout, stderr = timer.call(f"cmd_s.{name}", _run_cli,
                                            argv + ["--grid", str(EXPORT_GRID), "--out", out_dir])
            checks.append(self._checker(name, rc, stdout, stderr, out_dir, files, has_diff))
        return checks

    def _checker(self, name, rc, stdout, stderr, out_dir, files, has_diff):
        def check():
            ok = rc == 0
            detail = [] if ok else [f"exit {rc}: {stderr.strip()[:200]}"]
            for fname, expected in files.items():
                path = os.path.join(out_dir, fname)
                if not os.path.exists(path):
                    ok = False
                    detail.append(f"{fname} missing")
                    continue
                digest, rows = _digest(path)
                self.digests.setdefault(f"{name}/{fname}", set()).add(digest)
                if rows != expected:
                    ok = False
                    detail.append(f"{fname}: {rows} rows, expected {expected}")
            shutil.rmtree(out_dir, ignore_errors=True)
            out = [Check(f"{name}: exit code and row counts", ok, note="; ".join(detail))]
            if has_diff:
                tol = kink_tol(EXPORT_GRID)
                try:
                    diff = float(json.loads(stdout.strip().splitlines()[-1])["max_pointwise_difference"])
                except (ValueError, KeyError, IndexError):
                    diff = math.inf
                defect = None
                if name == "mlstate":
                    defect = ("mlstate at an off-lattice xi does not converge to the evaluator, "
                              "although the ml_phase_state docstring says it should: the gap "
                              "does not shrink between n=128, 256 and 512")
                out.append(Check(f"{name} --xi {self.xi}: max_pointwise_difference",
                                 diff <= tol, diff, tol, known_defect=defect if diff > tol else None))
            return out
        return check

    def final_checks(self) -> list:
        """CSV output must be byte-identical between the iterations of a run."""
        return [Check(f"sha256 repeats across iterations: {key}", len(d) == 1)
                for key, d in sorted(self.digests.items())]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify:
    """`gupstar verify --json` in-process at the default grid and seed.

    The suites draw their own random inputs from the CLI's default seed (42),
    so the workload seed does not change what runs: every seed measures the
    same battery.
    """

    name = "verify"
    ARGV = ["verify", "--json", "--grid", str(DEFAULT_GRID), "--seed", "42"]

    def describe(self) -> list:
        return [{"argv": self.ARGV}]

    def build(self):
        return None

    def run(self, _inputs, timer):
        rc, stdout, stderr = timer.call("cmd_s.verify", _run_cli, self.ARGV)

        def check():
            try:
                report = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return [Check("verify passed", False, note=f"exit {rc}: {stderr.strip()[:200]}")]
            failing = [c["name"] for suite in report["suites"].values() for c in suite
                       if not c["pass"]]
            return [Check("verify passed", rc == 0 and report.get("passed") is True,
                          note=", ".join(failing))]

        return [check]

    def final_checks(self) -> list:
        return []

