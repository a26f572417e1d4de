import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gupstar.beta_arith import BetaContext
from gupstar.cli import main
from gupstar.families import resolve_family
from gupstar.star_algebra import star_symbol_right


def run(args):
    return main(args)


def read_grid(path):
    rows = [l.split(",") for l in path.read_text().strip().split("\n")[1:]]
    qs = sorted({float(r[0]) for r in rows})
    ps = sorted({float(r[1]) for r in rows})
    vals = {(float(r[0]), float(r[1])): float(r[2]) + 1j * float(r[3]) for r in rows}
    return qs, ps, vals


def test_verify_small_grid_exits_zero(capsys):
    rc = run(["verify", "--grid", "8", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for cs in report["suites"].values() for c in cs}
    assert any("skipped" in c and c["skipped"]
               for cs in report["suites"].values() for c in cs)
    for cs in report["suites"].values():
        for c in cs:
            assert {"name", "measured", "tolerance", "pass"} <= set(c)
    assert "arith.homomorphism_mod_pi" in names


def test_verify_single_suite(capsys):
    rc = run(["verify", "--grid", "64", "--suite", "arithmetic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "arith." in out and "star." not in out


def test_verify_rejects_unknown_suite(capsys):
    # a suite name that matches none (or only a prefix) is a usage error, not an empty run
    for name in ("nope", "star"):
        assert run(["verify", "--suite", name]) == 2
        assert "usage:" in capsys.readouterr().err
    assert run(["verify", "--suite", "star_algebra", "--grid", "32"]) == 0
    assert "star." in capsys.readouterr().out


def test_verify_lambda_endpoints(capsys):
    for lam in ("0.0", "1.0"):
        rc = run(["verify", "--grid", "48", "--lambda", lam, "--suite", "arithmetic",
                  "--suite", "sampling", "--suite", "states"])
        capsys.readouterr()
        assert rc == 0


def test_mlstate_symmetric_is_real(tmp_path, capsys):
    rc = run(["mlstate", "--grid", "64", "--samples", "41", "--out", str(tmp_path), "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["max_abs_imag_eval"] < 1e-12
    qs, ps, vals = read_grid(tmp_path / "mlstate_eval.csv")
    assert len(qs) == 41 and len(ps) == 41
    mid = dict(zip(["q", "p"], [qs[20], ps[20]]))
    assert mid["q"] == pytest.approx(0.0)
    assert vals[(0.0, 0.0)].real == pytest.approx(1 + 2 / math.pi, abs=1e-10)


def test_mlstate_standard_ordering_parity(tmp_path, capsys):
    rc = run(["mlstate", "--grid", "64", "--samples", "41", "--lambda", "0.0",
              "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    qs, ps, vals = read_grid(tmp_path / "mlstate_eval.csv")
    worst = 0.0
    has_imag = 0.0
    for q in qs[::5]:
        for p in ps:
            v, w = vals[(q, p)], vals[(q, -p)]
            worst = max(worst, abs(v.imag + w.imag))
            has_imag = max(has_imag, abs(v.imag))
    assert worst < 1e-10     # imaginary part odd in momentum
    assert has_imag > 1e-3   # and genuinely nonzero away from the symmetric case


def test_determinism_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = run(["mlstate", "--grid", "32", "--samples", "21", "--out", str(d)])
        capsys.readouterr()
        assert rc == 0
    assert (d1 / "mlstate_eval.csv").read_bytes() == (d2 / "mlstate_eval.csv").read_bytes()
    assert (d1 / "mlstate_wigner.csv").read_bytes() == (d2 / "mlstate_wigner.csv").read_bytes()

    for d in (d1, d2):
        rc = run(["star", "bump:7", "bump:9", "--grid", "16", "--out", str(d),
                  "--lattice-halfwidth", "8"])
        capsys.readouterr()
        assert rc == 0
    assert (d1 / "star_field.csv").read_bytes() == (d2 / "star_field.csv").read_bytes()


def test_star_families(tmp_path, capsys):
    rc = run(["star", "rho0", "rho0", "--grid", "16", "--out", str(tmp_path),
              "--lattice-halfwidth", "6"])
    capsys.readouterr()
    assert rc == 0
    text = (tmp_path / "star_field.csv").read_text()
    first = text.strip().split("\n")[1].split(",")
    assert float(first[2]) == pytest.approx(2.0, abs=1e-10)  # rho0 is its own square

    rc = run(["star", "q", "rho:3.7", "--grid", "32", "--out", str(tmp_path),
              "--lattice-halfwidth", "4"])
    capsys.readouterr()
    assert rc == 0


def test_star_with_a_symbol_on_the_right(tmp_path, capsys):
    # `star <field> q` takes cmd_star's star_symbol_right branch
    rc = run(["star", "bump:3", "q", "--grid", "32", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    field = np.loadtxt(tmp_path / "star_field.csv", delimiter=",", skiprows=1)
    lattice = np.loadtxt(tmp_path / "star_lattice.csv", delimiter=",", skiprows=1)
    assert field.shape == (32 * 32, 4) and lattice.shape == ((2 * 64 + 1) * 32, 4)
    ctx = BetaContext(1.0, 1.0, 0.5)
    ref = star_symbol_right(resolve_family("bump:3", ctx, 32), resolve_family("q", ctx, 32))
    assert np.array_equal(field[:, 2] + 1j * field[:, 3], ref.values.ravel())


def test_star_ordering_dependence(tmp_path, capsys):
    """The bump product genuinely depends on the ordering parameter."""
    sums = {}
    for lam in ("0.5", "0.0"):
        d = tmp_path / lam
        rc = run(["star", "bump:3", "bump:4", "--grid", "32", "--lambda", lam,
                  "--out", str(d), "--lattice-halfwidth", "8"])
        capsys.readouterr()
        assert rc == 0
        rows = (d / "star_field.csv").read_text().strip().split("\n")[1:]
        sums[lam] = sum(abs(float(r.split(",")[2])) for r in rows)
    assert abs(sums["0.5"] - sums["0.0"]) > 1e-6 * max(sums.values())


def test_formal_command(capsys):
    assert run(["formal", "--pair", "main", "q", "p", "--order", "1"]) == 0
    out = capsys.readouterr().out
    assert "terminated: yes" in out
    assert run(["formal", "--pair", "alt", "q", "q", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "lam" in out
    assert run(["formal", "--pair", "main", "p", "p", "--order", "2"]) == 0
    assert "p^2" in capsys.readouterr().out


def test_formal_readme_examples(capsys):
    assert run(["formal", "--pair", "main", "q", "p", "--order", "1"]) == 0
    assert capsys.readouterr().out == (
        "i*hbar - i*hbar*lam + i*p^2*beta*hbar - i*p^2*beta*hbar*lam + q*p\n"
        "terminated: yes (through order 1)\n")
    assert run(["formal", "--pair", "alt", "q", "q", "--order", "2"]) == 0
    assert capsys.readouterr().out == (
        "p^2*beta^2*hbar^2*lam - p^2*beta^2*hbar^2*lam^2 - i*q*p*beta*hbar"
        " + 2*i*q*p*beta*hbar*lam + q^2\n"
        "terminated: yes (through order 2)\n")


def test_usage_errors(capsys, tmp_path):
    assert run(["formal", "q @", "p"]) == 2
    capsys.readouterr()
    assert run(["star", "nosuch", "rho0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run(["star", "q", "q^2", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_formal_rejects_a_zero_denominator(capsys):
    # a usage error like any other parse error: exit 2 and one line, no traceback
    assert run(["formal", "1/0", "q"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error:") and err.count("\n") == 1


def test_formal_rejects_huge_exponents(capsys):
    assert run(["formal", "q", "q^99999999"]) == 2
    assert "exceeds the limit 64" in capsys.readouterr().err
    assert run(["formal", "q", "q^64"]) == 0
    assert "terminated: yes" in capsys.readouterr().out


def test_star_rejects_huge_symbol_powers(capsys, tmp_path):
    # the symbol power has the parser's exponent limit: one error line, no file
    assert run(["star", "q^1100", "bump:1", "--grid", "16", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: symbol power 1100 exceeds the limit 64\n"
    assert not list(tmp_path.iterdir())
    assert run(["star", "q^64", "bump:1", "--grid", "16", "--out", str(tmp_path)]) == 0


def test_unread_flags_are_usage_errors(capsys, tmp_path):
    # each subcommand accepts only the flags it reads
    assert run(["formal", "--grid", "64", "q", "p"]) == 2
    capsys.readouterr()
    assert run(["star", "rho0", "rho0", "--seed", "3", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert not (tmp_path / "star_field.csv").exists()


def test_eigenstate_export(tmp_path, capsys):
    rc = run(["eigenstate", "--grid", "32", "--samples", "21", "--xi", "2.0",
              "--out", str(tmp_path), "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    qs, ps, vals = read_grid(tmp_path / "eigenstate_eval.csv")
    assert vals[(2.0, 0.0)].real == pytest.approx(1.0, abs=1e-12)
    assert vals[(4.0, 0.0)].real == pytest.approx(0.0, abs=1e-12)


def test_export_command(tmp_path, capsys):
    rc = run(["export", "ml", "--grid", "16", "--out", str(tmp_path),
              "--lattice-halfwidth", "4"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "field.csv").exists()
    assert (tmp_path / "lattice.csv").exists()


@pytest.mark.parametrize("args,name", [(["mlstate", "--xi", "nan"], "xi"),
                                       (["eigenstate", "--xi", "inf"], "xi"),
                                       (["export", "rho:inf"], "xi"),
                                       (["star", "rho:nan", "rho0"], "xi"),
                                       (["eigenstate", "--beta", "inf"], "beta")],
                         ids=["mlstate-nan", "eigenstate-inf", "export-inf", "star-nan",
                              "eigenstate-beta-inf"])
def test_non_finite_input_is_a_usage_error(tmp_path, capsys, args, name):
    assert run(args + ["--grid", "16", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"{name} must be finite" in err[0]
    assert list(tmp_path.iterdir()) == []


def test_overflowing_position_is_a_usage_error(tmp_path, capsys):
    # xi = 1e308 is finite, but its modulation's phases overflow: the files were
    # written from NaN-laden intermediates with exit code 0
    assert run(["eigenstate", "--xi", "1e308", "--grid", "16", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "too large" in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["0", "-4", "7"])
@pytest.mark.parametrize("args", [["verify"], ["mlstate"], ["eigenstate"], ["export", "bump"],
                                  ["star", "bump", "bump"]],
                         ids=["verify", "mlstate", "eigenstate", "export", "star"])
def test_grid_must_be_a_positive_even_integer(tmp_path, capsys, args, grid):
    out = ["--out", str(tmp_path / "out")] if args[0] != "verify" else []
    assert run(args + ["--grid", grid] + out) == 2
    err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err) == 1 and "--grid" in err[0] and "positive even integer" in err[0]
    assert not (tmp_path / "out").exists()


def test_exported_files_follow_the_umask(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        rc = run(["export", "rho0", "--grid", "16", "--out", str(tmp_path),
                  "--lattice-halfwidth", "2"])
    finally:
        os.umask(old)
    capsys.readouterr()
    assert rc == 0
    for name in ("field.csv", "lattice.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640


@pytest.mark.parametrize("args", [["--qmin", "nan"], ["--qmax", "inf"], ["--pmin", "-inf"],
                                  ["--pmax", "nan"], ["--samples", "0"], ["--samples", "-2"]],
                         ids=["qmin-nan", "qmax-inf", "pmin-inf", "pmax-nan", "samples-0",
                              "samples-neg"])
@pytest.mark.parametrize("command", ["mlstate", "eigenstate"])
def test_window_arguments_are_validated(tmp_path, capsys, command, args):
    out = tmp_path / "out"
    assert run([command, "--grid", "16", "--samples", "5", *args, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_lattice_halfwidth(tmp_path, capsys):
    out = tmp_path / "neg"
    assert run(["star", "rho0", "rho0", "--grid", "16", "--out", str(out),
                "--lattice-halfwidth", "-3"]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not out.exists()

    rc = run(["export", "bump", "--grid", "16", "--out", str(tmp_path),
              "--lattice-halfwidth", "0"])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "lattice.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 16
    assert {float(r.split(",")[0]) for r in rows} == {0.0}


def test_package_runs_as_a_module():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "gupstar", "formal", "--pair", "main", "q", "p",
                           "--order", "1"], cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("i*hbar - i*hbar*lam + i*p^2*beta*hbar - i*p^2*beta*hbar*lam + q*p\n"
                           "terminated: yes (through order 1)\n")


def test_importing_the_cli_loads_every_traced_layer():
    # perfbench/run.py imports gupstar.cli alone; its tracer then reads
    # sys.modules["gupstar.<layer>"] for each layer it times, so none may be deferred
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "import sys, gupstar.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert [layer for layer in tracer.LAYERS if f"gupstar.{layer}" not in loaded] == []
