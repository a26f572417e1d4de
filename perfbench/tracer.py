"""Span tracer that times gupstar's layers from outside the library.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper in every ``gupstar.*`` namespace that holds the original,
because several modules import names directly (``star_algebra`` imports
``kernel_of``, ``cli`` imports ``star`` and ``synth_grid``).  A few entry
points that are not module functions are wrapped as well: the
``TorusField.coeffs`` method, the suite registry ``verify.SUITES`` and the
evaluator closures handed out by ``states``.  `uninstall` restores every
original binding, so untraced iterations run the library unmodified.

Each call records a span ``(id, parent, epoch, scope, name, start, end)``,
where the scope is the workload operation that caused it.  Spans are kept in
memory; per-epoch aggregates (self time, calls, computed counts) are kept next
to them, so that one epoch is one iteration of a workload.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("beta_arith", "sampling", "transforms", "operator_rep", "star_algebra",
          "states", "families", "formal_cas", "verify", "cli")

# Index and file helpers called thousands of times per product; their cost
# stays in the caller's self time instead of adding a span per call.
UNWRAPPED = {"sampling.angle_nodes", "sampling.mode_numbers", "sampling.write_text_atomic"}

# Metric groups over span names: group -> member spans.
GROUPS = {
    "sampling.synth": ("sampling.synth_columns", "sampling.synth_grid", "sampling.synth",
                       "sampling.lattice_from_field"),
    "sampling.csv": ("sampling.torus_to_csv", "sampling.lattice_to_csv"),
    "states.csv": ("states.phase_space_csv",),
    "states.construct": ("states.position_eigenvector", "states.ml_wavefunction",
                         "states.ml_phase_state", "states.ml_phase_function"),
    "states.evaluate": ("states.evaluate",),
    "star_algebra.star_symbol": ("star_algebra.star_symbol_left", "star_algebra.star_symbol_right"),
    "families.resolve": ("families.resolve_family",),
}
SYNTH = set(GROUPS["sampling.synth"])
SPAN_FIELDS = ("id", "parent", "epoch", "scope", "name", "start", "end")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.epoch = None
        self.self_s: dict = defaultdict(lambda: defaultdict(float))
        self.wall_s: dict = defaultdict(lambda: defaultdict(float))
        self.calls: dict = defaultdict(lambda: defaultdict(int))
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.by_scope: dict = defaultdict(lambda: defaultdict(float))
        self.scope = None  # the workload operation running, set by the driver
        self.keep_spans = True
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._seen: dict = {}
        self._restore: list = []

    # -- epochs ---------------------------------------------------------------

    def begin(self, epoch: str, keep_spans: bool) -> None:
        """Start a new aggregation epoch (one workload iteration).

        Span records are kept only for epochs that ask for them: a verify
        iteration alone makes some 60 000 spans.
        """
        self.epoch = epoch
        self.keep_spans = keep_spans
        self._seen = {}

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, after, args, kwargs)

        return traced

    def _call(self, name, fn, after, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[2] += dur
            if self.keep_spans:
                self.spans.append((frame[0], parent[0] if parent else None, self.epoch,
                                   self.scope, name, t0, t1))
            self.self_s[self.epoch][name] += dur - frame[2]
            self.wall_s[self.epoch][name] += dur
            self.calls[self.epoch][name] += 1
            if self.scope is not None:
                self.by_scope[self.scope][name] += dur - frame[2]
        if after is not None:
            out = after(parent[1] if parent else None, args, out)
        return out

    # -- computed counts --------------------------------------------------------

    def _count(self, key: str, value: int) -> None:
        self.counts[self.epoch][key] += value

    def _after_compose(self, _parent, args, out):
        n = args[0].n
        self._count("operator_rep.compose_kernels.flops", 8 * n ** 3)
        self._count("operator_rep.compose_kernels.bytes", 48 * n ** 2)
        return out

    def _after_coeffs(self, _parent, args, out):
        obj = args[0]
        key = id(obj)
        if key not in self._seen:
            seen = self._seen
            # the weakref callback forgets the id when the carrier dies, so a
            # later carrier reusing the address counts as a new one
            seen[key] = weakref.ref(obj, lambda _r, k=key: seen.pop(k, None))
            self._count("sampling.coeffs.unique", 1)
        return out

    def _after_synth(self, parent, _args, out):
        if parent not in SYNTH:
            values = getattr(out, "values", out)
            self._count("sampling.synth.points", int(getattr(values, "size", 1)))
        return out

    def _csv_counter(self, key: str, path_index: int):
        def after(_parent, args, out):
            self._count(key, os.path.getsize(args[path_index]))
            return out
        return after

    def _after_constructor(self, _parent, _args, out):
        """Wrap the evaluator closures that state constructors hand out."""
        if callable(out):  # ml_phase_function returns the evaluator itself
            return self.wrap("states.evaluate", out)
        if dataclasses.is_dataclass(out) and hasattr(out, "rho_qp"):
            return dataclasses.replace(out, rho_qp=self.wrap("states.evaluate", out.rho_qp))
        return out

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            return
        after = {
            "operator_rep.compose_kernels": self._after_compose,
            "sampling.torus_to_csv": self._csv_counter("sampling.csv.bytes", 1),
            "sampling.lattice_to_csv": self._csv_counter("sampling.csv.bytes", 1),
            "states.phase_space_csv": self._csv_counter("states.csv.bytes", 0),
            "states.ml_phase_function": self._after_constructor,
            "states.position_eigenvector": self._after_constructor,
        }
        after.update({name: self._after_synth for name in SYNTH})
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"gupstar.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self.wrap(name, obj, after.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname == "gupstar" or modname.startswith("gupstar."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])

        sampling = sys.modules["gupstar.sampling"]
        self._patch(sampling.TorusField, "coeffs",
                    self.wrap("sampling.coeffs", sampling.TorusField.coeffs, self._after_coeffs))
        suites = sys.modules["gupstar.verify"].SUITES
        for key, fn in list(suites.items()):
            self._restore.append((suites.__setitem__, key, fn))
            suites[key] = self.wrap(f"verify.suite.{key}", fn)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    # -- results --------------------------------------------------------------

    def epoch_metrics(self, epoch: str) -> dict:
        """Per-layer values of one epoch, keyed by metric name."""
        self_s, wall_s = self.self_s[epoch], self.wall_s[epoch]
        calls, counts = self.calls[epoch], self.counts[epoch]

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        for group, names in GROUPS.items():
            out[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
        for name in ("operator_rep.kernel_of", "operator_rep.element_of",
                     "operator_rep.compose_kernels", "sampling.coeffs",
                     "sampling.field_from_coeffs", "star_algebra.star",
                     "star_algebra.involution", "star_algebra.star_direct",
                     "formal_cas.formal_star"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in ("operator_rep.compose_kernels", "sampling.coeffs", "star_algebra.star",
                     "formal_cas.formal_star"):
            out[f"{name}.calls"] = calls.get(name, 0)
        out["beta_arith.calls"] = sum(v for k, v in calls.items() if k.startswith("beta_arith."))
        out["families.resolve.wall_s"] = wall_s.get("families.resolve_family", 0.0)
        for suite in sys.modules["gupstar.verify"].SUITES:
            out[f"verify.suite.{suite}.wall_s"] = wall_s.get(f"verify.suite.{suite}", 0.0)
        for key in ("operator_rep.compose_kernels.flops", "operator_rep.compose_kernels.bytes",
                    "sampling.synth.points", "sampling.csv.bytes", "states.csv.bytes"):
            out[key] = counts.get(key, 0)
        ck = out["operator_rep.compose_kernels.self_s"]
        out["operator_rep.compose_kernels.gflops"] = (
            out["operator_rep.compose_kernels.flops"] / ck / 1e9 if ck > 0 else 0.0)
        n_coeffs = out["sampling.coeffs.calls"]
        out["sampling.coeffs.unique_ratio"] = (
            counts.get("sampling.coeffs.unique", 0) / n_coeffs if n_coeffs else 0.0)
        return out

    def attribution(self) -> dict:
        """Share of each span group in the self time under each operation."""
        group_of = {m: g for g, members in GROUPS.items() for m in members}
        out = {}
        for scope, names in sorted(self.by_scope.items()):
            total = sum(names.values())
            by_group: dict = defaultdict(float)
            for name, v in names.items():
                by_group[group_of.get(name, name)] += v
            ranked = sorted(by_group.items(), key=lambda kv: -kv[1])
            out[scope] = {"self_s": total,
                          "share": {k: v / total for k, v in ranked} if total else {}}
        return out
