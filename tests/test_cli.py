import json
import math
import os
import stat

import pytest

from gupstar.cli import main


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


def test_usage_errors(capsys, tmp_path):
    assert run(["formal", "q @", "p"]) == 2
    capsys.readouterr()
    assert run(["star", "nosuch", "rho0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run(["star", "q", "q^2", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run(["nosuchcommand"]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("args", [["mlstate", "--xi", "nan"], ["eigenstate", "--xi", "inf"],
                                  ["export", "rho:inf"], ["star", "rho:nan", "rho0"]],
                         ids=["mlstate-nan", "eigenstate-inf", "export-inf", "star-nan"])
def test_non_finite_input_is_a_usage_error(tmp_path, capsys, args):
    assert run(args + ["--grid", "16", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "must be finite" in err[0]
    assert list(tmp_path.iterdir()) == []


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
