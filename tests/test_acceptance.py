"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Defaults: beta = hbar = 1, symmetric ordering, n = 256 unless a criterion pins
another resolution.  Tolerances are stated inline and never loosened at run
time; the one expected failure (the quoted second-order coefficient of the
alternative product) is asserted verbatim and marked as such, with the derived
coefficient pinned right below it.

A criterion that a `verify` check already states is read from one run of the
battery at the CLI defaults: ``BATTERY`` maps its label to those check names.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gupstar.beta_arith import BetaContext
from gupstar.cli import main as cli_main
from gupstar.families import random_element, random_state
from gupstar.formal_cas import ALT, FormalPoly, formal_star
from gupstar.operator_rep import (adjoint_kernel, apply_operator, compose_kernels,
                                  hilbert_schmidt, kernel_of, marginal_momentum,
                                  trace_op, uncertainty, wigner)
from gupstar.sampling import angle_nodes, synth_grid, wf_inner
from gupstar.star_algebra import inner, involution, norm2, pointwise_trace, star, trace
from gupstar.states import ml_phase_state, ml_wavefunction
from gupstar.verify import SUITES, RunConfig, _kernel_samples as kernel_samples

CTX = BetaContext(1.0, 1.0, 0.5)


def report(name: str, measured: float, tol: float) -> None:
    ok = measured <= tol
    print(f"{'PASS' if ok else 'FAIL'}  {name}: measured {measured:.3e}  tolerance {tol:.1e}")
    assert ok, f"{name}: {measured:.3e} exceeds {tol:.1e}"


BATTERY = {
    "criterion 1: exact algebra oracle (main family)": (
        "formal.position_momentum_commutator", "formal.position_square",
        "formal.momentum_square", "formal.classical_bracket"),
    "criterion 1: alternative family (derived second order)": (
        "formal.alt_position_square_derived", "formal.alt_momentum_square",
        "formal.alt_commutator"),
    "criterion 2a: star vs brute-force double quadrature (8x8)": (
        "star.vs_brute_double_quadrature",),
    "criterion 5: C*-property |f* f| = |f|^2": ("star.cstar_property",),
    "criterion 7a: star eigenvalue relations, both sides": (
        "states.position_eigen_left", "states.position_eigen_right"),
    "criterion 7b: operator eigenvalue relation": ("states.position_eigen_operator",),
    "criterion 8g: origin value 1 + 2/pi": ("states.ml_origin_value",),
    "criterion 10: truncation error slope 3 +/- 0.3": ("formal.truncation_slope",),
}


@pytest.fixture(scope="module")
def battery(suite_results):
    """Every check of the verify battery at the CLI defaults, by name."""
    return {c.name: c for suite in SUITES for c in suite_results(RunConfig(), suite)}


def report_battery(battery, label: str) -> None:
    """Report each check of one BATTERY row; a name missing from the battery fails."""
    for name in BATTERY[label]:
        if name not in battery:
            report(f"{label} [{name} is not in the battery]", math.inf, 0.0)
        c = battery[name]
        report(f"{label} [{name}]", c.measured, c.tolerance)


Q = FormalPoly.var("q")
P = FormalPoly.var("p")
LAM = FormalPoly.var("lam")
HBAR = FormalPoly.var("hbar")
BETA = FormalPoly.var("beta")
ONE = FormalPoly.const(1)


def test_criterion_1_exact_algebra_oracle(battery):
    report_battery(battery, "criterion 1: exact algebra oracle (main family)")


def test_criterion_1_alt_product_derived_coefficient(battery):
    report_battery(battery, "criterion 1: alternative family (derived second order)")


@pytest.mark.xfail(strict=True, reason=(
    "the quoted second-order target carries coefficient lam(1-lam)/2, but the "
    "defining exponential expansion of the alternative product forces "
    "lam(1-lam); verified independently by the coordinate-change route. "
    "See the derived-coefficient test above for the pinned true value."))
def test_criterion_1_alt_product_as_stated():
    half = Fraction(1, 2)
    stated = (Q * Q + (HBAR * BETA * Q * P * (LAM.scale(2) - ONE)).scale(0, 1)
              + (HBAR * HBAR * BETA * BETA * P * P * LAM * (ONE - LAM)).scale(half))
    r = formal_star(ALT, Q, Q, 2)
    assert r.poly == stated


def test_criterion_2_star_correctness(battery, rng):
    report_battery(battery, "criterion 2a: star vs brute-force double quadrature (8x8)")

    worst = 0.0
    for _ in range(20):
        f, g, h = (random_element(CTX, 128, rng) for _ in range(3))
        l = star(star(f, g), h)
        r = star(f, star(g, h))
        worst = max(worst, float(np.abs(l.values - r.values).max()
                                 / (norm2(f) * norm2(g) * norm2(h))))
    report("criterion 2b: associativity residual (20 triples, n=128)", worst, 1e-8)


def test_criterion_3_trace_identities(rng):
    n = 256
    f = random_element(CTX, n, rng)
    g = random_element(CTX, n, rng)
    report("criterion 3a: trace is cyclic",
           abs(trace(star(f, g)) - trace(star(g, f))), 1e-9)
    fp = random_element(CTX, n, rng, parity=0)
    gp = random_element(CTX, n, rng, parity=0)
    report("criterion 3b: symmetric-ordering trace of the star is pointwise",
           abs(trace(star(fp, gp)) - pointwise_trace(fp, gp)), 1e-8)


def test_criterion_4_involution_algebra(rng):
    n = 256
    f = random_element(CTX, n, rng)
    g = random_element(CTX, n, rng)
    r1 = np.abs(involution(star(f, g)).values
                - star(involution(g), involution(f)).values).max()
    r1 /= max(np.abs(star(f, g).values).max(), 1e-300)
    r2 = np.abs(involution(involution(f)).values - f.values).max()
    r3 = abs(norm2(involution(f)) - norm2(f))
    a, b = random_state(CTX, n, rng), random_state(CTX, n, rng)
    freal = wigner(a, b).with_values(wigner(a, b).values + wigner(b, a).values)
    r4 = np.abs(involution(freal).values - np.conj(freal.values[::-1, :])).max()
    report("criterion 4: involution algebra", max(r1, r2, r3, r4), 1e-8)


def _algebra_side_norm(f, iters=60):
    """Operator norm of star-multiplication estimated in field space."""
    rng = np.random.default_rng(11)
    g = f.with_values(rng.standard_normal(f.values.shape)
                      + 1j * rng.standard_normal(f.values.shape))
    g = g.with_values(g.values / norm2(g))
    fstar = involution(f)
    est = 0.0
    for _ in range(iters):
        h = star(fstar, star(f, g))
        nh = norm2(h)
        if nh == 0.0:
            return 0.0
        new = math.sqrt(nh)
        g = h.with_values(h.values / nh)
        if abs(new - est) < 1e-10 * new:
            return new
        est = new
    return est


def test_criterion_5_representation_faithfulness(battery, rng):
    n = 64
    worst = {"composition": 0.0, "adjoint": 0.0, "trace": 0.0, "hs": 0.0, "norm": 0.0}
    for _ in range(20):
        f = random_element(CTX, n, rng)
        g = random_element(CTX, n, rng)
        kf, kg = kernel_of(f), kernel_of(g)
        fg = kernel_samples(kernel_of(star(f, g)))
        worst["composition"] = max(worst["composition"],
                                   float(np.abs(fg - kernel_samples(compose_kernels(kf, kg))).max()
                                         / np.abs(fg).max()))
        worst["adjoint"] = max(worst["adjoint"],
                               float(np.abs(kernel_samples(kernel_of(involution(f)))
                                            - kernel_samples(adjoint_kernel(kf))).max()
                                     / np.abs(kernel_samples(kf)).max()))
        worst["trace"] = max(worst["trace"],
                             abs(trace_op(kf) - trace(f)) / max(abs(trace(f)), 1e-12))
        worst["hs"] = max(worst["hs"],
                          abs(hilbert_schmidt(kf, kg) - inner(f, g)) / abs(inner(f, g)))
        op_side = np.linalg.svd(kernel_samples(kf, weighted=True), compute_uv=False)[0]
        alg_side = _algebra_side_norm(f)
        worst["norm"] = max(worst["norm"], abs(op_side - alg_side) / op_side)
    for key, tol in (("composition", 1e-7), ("adjoint", 1e-7), ("trace", 1e-7),
                     ("hs", 1e-7), ("norm", 1e-7)):
        report(f"criterion 5: {key} intertwiner (20 elements)", worst[key], tol)
    report_battery(battery, "criterion 5: C*-property |f* f| = |f|^2")


def test_criterion_6_wigner_calculus(rng):
    n = 256
    worst = 0.0
    for _ in range(5):
        a, b, c, d = (random_state(CTX, n, rng) for _ in range(4))
        w_ab, w_cd = wigner(a, b), wigner(c, d)
        worst = max(worst, float(np.abs(involution(w_ab).values - wigner(b, a).values).max()))
        worst = max(worst, abs(trace(w_ab) - wf_inner(a, b)))
        worst = max(worst, abs(inner(w_ab, w_cd) - np.conj(wf_inner(a, c)) * wf_inner(b, d)))
        worst = max(worst, float(np.abs(star(w_ab, w_cd).values
                                        - wf_inner(a, d) * wigner(c, b).values).max()))
        f = random_element(CTX, n, rng)
        worst = max(worst, float(np.abs(star(f, w_ab).values
                                        - wigner(a, apply_operator(f, b)).values).max()))
        worst = max(worst, float(np.abs(star(w_ab, f).values
                                        - wigner(apply_operator(involution(f), a), b).values).max()))
    report("criterion 6a: Wigner calculus identities (i)-(v)", worst, 1e-8)

    a = random_state(CTX, n, rng)
    m = marginal_momentum(wigner(a, a))
    report("criterion 6b: momentum marginal equals the density",
           float(np.abs(m - np.abs(a.values) ** 2).max()), 1e-8)


def test_criterion_7_position_eigenvectors(battery):
    report_battery(battery, "criterion 7a: star eigenvalue relations, both sides")
    report_battery(battery, "criterion 7b: operator eigenvalue relation")


def _ml_window_error(n):
    ml = ml_phase_state(CTX, 0.0, n)
    qs = np.linspace(-10, 10, 21)
    ks = np.arange(0, n, max(1, n // 64))
    ps = np.tan(angle_nodes(n)[ks])
    grid = synth_grid(ml.rho, qs, ps)
    ref = ml.evaluate(qs[:, None], ps)
    return float(np.abs(grid - ref).max())


def test_criterion_8_maximal_localization(battery):
    e512 = _ml_window_error(512)
    report("criterion 8a: sampled Wigner vs closed form (n=512)", e512, 1e-4)
    e2048 = _ml_window_error(2048)
    report("criterion 8b: error shrinks by at least 3x at n=2048", 3.0 * e2048, e512)

    n = 512
    for xi in (0.0, 3.7):
        u = uncertainty(ml_wavefunction(CTX, xi, n))
        report(f"criterion 8c: mean position equals {xi}", abs(u.mean_q - xi), 1e-8)
        report("criterion 8d: mean momentum vanishes", abs(u.mean_p), 1e-8)
        report("criterion 8e: minimal position spread",
               abs(u.dq - CTX.min_dq) / CTX.min_dq, 1e-6)
        report("criterion 8f: uncertainty bound saturated", abs(u.gup_slack), 1e-6)
    report_battery(battery, "criterion 8g: origin value 1 + 2/pi")


def test_criterion_9_uncertainty_inequality():
    n = 256
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        st = random_state(CTX, n, rng, localized=True)
        worst = min(worst, uncertainty(st).gup_slack)
    report("criterion 9: uncertainty inequality over 100 random states",
           max(0.0, -worst), 1e-9)


def test_criterion_10_asymptotic_consistency(battery):
    report_battery(battery, "criterion 10: truncation error slope 3 +/- 0.3")


def test_criterion_11_figure_data(tmp_path, capsys):
    rc = cli_main(["mlstate", "--out", str(tmp_path / "sym"), "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    report("criterion 11a: symmetric-ordering grid is real",
           rep["max_abs_imag_eval"], 1e-12)

    rc = cli_main(["mlstate", "--lambda", "0.0", "--out", str(tmp_path / "std")])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "std" / "mlstate_eval.csv").read_text().strip().split("\n")[1:]
    im = np.array([float(r.split(",")[3]) for r in rows]).reshape(201, 201)
    # momentum runs along the second axis; pair each column with its mirror
    worst = float(np.abs(im + im[:, ::-1]).max())
    report("criterion 11b: standard-ordering imaginary part odd in momentum",
           worst, 1e-10)
