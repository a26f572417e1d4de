"""Command-line interface: verification suites, state exports, products.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.  All file
output goes through atomic writes; identical configuration and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .beta_arith import BetaContext
from .families import resolve_family
from .formal_cas import ALT, MAIN, ParseError, formal_star, format_poly, parse_poly
from .sampling import _even_size, lattice_from_field, lattice_to_csv, synth_grid, torus_to_csv
from .star_algebra import SymbolObservable, star, star_symbol_left, star_symbol_right
from .states import ml_phase_state, phase_space_csv, position_eigenvector
from .verify import SUITES, RunConfig, run_suites


def _grid_size(text: str) -> int:
    """argparse type of ``--grid``: a positive even integer, as :func:`angle_nodes` takes."""
    try:
        return _even_size(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive even integer, got {text!r}") from None


# Every flag a subcommand may take; each subcommand registers the ones it reads.
_FLAGS = {
    "beta": (("--beta",), dict(type=float, default=1.0, help="deformation parameter (default 1)")),
    "hbar": (("--hbar",), dict(type=float, default=1.0, help="action scale (default 1)")),
    "lambda": (("--lambda",), dict(dest="lam", type=float, default=0.5,
                                   help="ordering parameter in [0, 1] (default 0.5)")),
    "grid": (("--grid",), dict(dest="grid_n", type=_grid_size, default=256,
                               help="angle grid size, even (default 256)")),
    "seed": (("--seed",), dict(type=int, default=42,
                               help="seed for randomized checks (default 42)")),
    "out": (("--out",), dict(default=".", help="output directory for data files")),
    "json": (("--json",), dict(action="store_true", help="emit a JSON report on stdout")),
    "lattice-halfwidth": (("--lattice-halfwidth",), dict(
        type=int, default=None, help="position-lattice half width M >= 0 (default 2*grid)")),
}
_CONTEXT = ("beta", "hbar", "lambda", "grid")


def _add_flags(ap: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flags, kwargs = _FLAGS[name]
        ap.add_argument(*flags, **kwargs)


def _config(args) -> RunConfig:
    return RunConfig(beta=args.beta, hbar=args.hbar, lam=args.lam,
                     grid_n=args.grid_n, seed=args.seed)


def _ctx(args) -> BetaContext:
    return BetaContext(args.beta, args.hbar, args.lam)


def cmd_verify(args) -> int:
    cfg = _config(args)
    suites = run_suites(cfg, names=args.suite or None)
    report = {"config": {"beta": cfg.beta, "hbar": cfg.hbar, "lambda": cfg.lam,
                         "grid_n": cfg.grid_n, "seed": cfg.seed},
              "suites": {k: [c.as_dict() for c in v] for k, v in suites.items()}}
    failed = 0
    for name, checks in suites.items():
        for c in checks:
            if c.skipped:
                tag = "SKIP"
            elif c.passed:
                tag = "PASS"
            else:
                tag = "FAIL"
                failed += 1
            if not args.json:
                extra = f"  [{c.note}]" if c.note else ""
                print(f"{tag}  {c.name:<52} measured {c.measured:.3e}  tol {c.tolerance:.1e}{extra}")
    report["passed"] = failed == 0
    if args.json:
        print(json.dumps(report, indent=None, sort_keys=True))
    else:
        total = sum(len(v) for v in suites.values())
        print(f"{total} checks, {failed} failures")
    return 0 if failed == 0 else 1


def cmd_window(args) -> int:
    """Export the evaluator and Wigner-route grids of a closed-form state.

    ``mlstate`` exports a maximal-localization state, ``eigenstate`` a
    position eigenvector, both over the same (q, p) window.
    """
    bounds = (args.qmin, args.qmax, args.pmin, args.pmax)
    if not all(np.isfinite(bounds)):
        raise ValueError("--qmin/--qmax/--pmin/--pmax must be finite")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    ctx = _ctx(args)
    qs = np.linspace(args.qmin, args.qmax, args.samples)
    ps = np.linspace(args.pmin, args.pmax, args.samples)
    if args.command == "mlstate":
        state = ml_phase_state(ctx, args.xi, args.grid_n)
        evaluate = state.evaluate
    else:
        state = position_eigenvector(ctx, args.xi, args.grid_n)
        evaluate = state.rho_qp
    ev = np.asarray(evaluate(qs[:, None], ps), dtype=complex)  # (q, p) layout
    wg = synth_grid(state.rho, qs, ps)
    files = [f"{args.command}_eval.csv", f"{args.command}_wigner.csv"]
    os.makedirs(args.out, exist_ok=True)
    for name, vals in zip(files, (ev, wg)):
        phase_space_csv(os.path.join(args.out, name), qs, ps, vals)
    diff = float(np.abs(ev - wg).max())
    report = {"xi": args.xi, "max_pointwise_difference": diff, "files": files}
    if args.command == "mlstate":
        report.update({"lambda": args.lam, "grid_n": args.grid_n,
                       "max_abs_imag_eval": float(np.abs(ev.imag).max())})
    print(json.dumps(report, sort_keys=True) if args.json else
          f"wrote {files[0]}, {files[1]} (max pointwise difference {diff:.3e})")
    return 0


def _export_field(args, f, prefix: str, label: str) -> int:
    """Write a field and its position-lattice samples as CSV."""
    M = 2 * args.grid_n if args.lattice_halfwidth is None else args.lattice_halfwidth
    lat = lattice_from_field(f, half_width=M)
    os.makedirs(args.out, exist_ok=True)
    torus_to_csv(f, os.path.join(args.out, f"{prefix}field.csv"))
    lattice_to_csv(lat, os.path.join(args.out, f"{prefix}lattice.csv"))
    print(f"wrote {prefix}field.csv, {prefix}lattice.csv for {label}")
    return 0


def cmd_star(args) -> int:
    ctx = _ctx(args)
    f = resolve_family(args.f, ctx, args.grid_n)
    g = resolve_family(args.g, ctx, args.grid_n)
    if isinstance(f, SymbolObservable) and isinstance(g, SymbolObservable):
        print("error: at most one operand may be an unbounded symbol", file=sys.stderr)
        return 2
    if isinstance(f, SymbolObservable):
        out = star_symbol_left(f, g)
    elif isinstance(g, SymbolObservable):
        out = star_symbol_right(f, g)
    else:
        out = star(f, g)
    return _export_field(args, out, "star_", f"{args.f} * {args.g}")


def cmd_formal(args) -> int:
    pair = {"main": MAIN, "alt": ALT}[args.pair]
    try:
        f = parse_poly(args.f)
        g = parse_poly(args.g)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    res = formal_star(pair, f, g, args.order)
    print(format_poly(res.poly))
    print(f"terminated: {'yes' if res.terminated else 'no'} (through order {args.order})")
    return 0


def cmd_export(args) -> int:
    f = resolve_family(args.family, _ctx(args), args.grid_n)
    if isinstance(f, SymbolObservable):
        print("error: symbols have no field to export", file=sys.stderr)
        return 2
    return _export_field(args, f, "", args.family)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gupstar",
        description="Minimal-length phase-space quantization toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_flags(p, *_CONTEXT, "seed", "json")
    p.add_argument("--suite", action="append", choices=list(SUITES),
                   help="restrict to a named suite (repeatable)")
    p.set_defaults(fn=cmd_verify)

    for name, help_text in (("mlstate", "export a maximal-localization state"),
                            ("eigenstate", "export a position eigenvector")):
        p = sub.add_parser(name, help=help_text)
        _add_flags(p, *_CONTEXT, "out", "json")
        p.add_argument("--xi", type=float, default=0.0, help="position (default 0)")
        p.add_argument("--qmin", type=float, default=-10.0)
        p.add_argument("--qmax", type=float, default=10.0)
        p.add_argument("--pmin", type=float, default=-10.0)
        p.add_argument("--pmax", type=float, default=10.0)
        p.add_argument("--samples", type=int, default=201)
        p.set_defaults(fn=cmd_window)

    p = sub.add_parser("star", help="star product of two built-in fields")
    _add_flags(p, *_CONTEXT, "out", "lattice-halfwidth")
    p.add_argument("f", help="field family (rho0, rho:<xi>, ml[:<xi>], bump[:<seed>], q, q^<k>)")
    p.add_argument("g", help="field family")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("formal", help="exact truncated star product of polynomials")
    p.add_argument("--pair", choices=("main", "alt"), default="main",
                   help="derivation pair (default main)")
    p.add_argument("--order", type=int, default=4, help="truncation order (default 4)")
    p.add_argument("f", help="polynomial, e.g. 'q', '3/2 q^2 p', 'q p s'")
    p.add_argument("g", help="polynomial")
    p.set_defaults(fn=cmd_formal)

    p = sub.add_parser("export", help="export a built-in field as CSV")
    _add_flags(p, *_CONTEXT, "out", "lattice-halfwidth")
    p.add_argument("family", help="field family name")
    p.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
