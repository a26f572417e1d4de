import math

import numpy as np
import pytest

from gupstar import states
from gupstar.beta_arith import BetaContext
from gupstar.operator_rep import uncertainty, wigner
from gupstar.sampling import mode_numbers
from gupstar.states import (eigenvector_flags, ml_phase_function, ml_sinc_form,
                            ml_wavefunction, position_eigenvector)


def ml_defining_integral(ctx, xi, q, p, nquad=20001):
    """Simpson quadrature of the localization profile's defining integral."""
    lam = ctx.lam
    hb = ctx.hbar * ctx.sqrt_beta
    al = math.atan(ctx.sqrt_beta * p)
    x = np.linspace(-np.pi / 2, np.pi / 2, nquad)
    A1 = al + lam * x
    A2 = al - (1 - lam) * x
    wrap1 = np.floor((A1 + np.pi / 2) / np.pi)
    wrap2 = np.floor((A2 + np.pi / 2) / np.pi)
    u = (q - xi) / (2 * hb)
    phase = np.exp(1j * (2 * u * x + (np.pi * xi / hb) * (wrap1 - wrap2)))
    integrand = np.abs(np.cos(A1)) * np.abs(np.cos(A2)) * phase
    from scipy.integrate import simpson
    val = simpson(integrand.real, x=x) + 1j * simpson(integrand.imag, x=x)
    return 2 / np.pi * val


def test_eigenvector_profile(ctx):
    n = 64
    pe = position_eigenvector(ctx, 0.7, n)
    assert pe.rho_qp(0.7, 5.0) == pytest.approx(1.0)
    for m in (1, -1, 3):
        assert abs(pe.rho_qp(0.7 + 2 * m, 0.0)) < 1e-15
    # transformed profile is a pure first-slot phase of fixed modulus
    assert np.abs(np.abs(pe.rho.values) - 2.0).max() < 1e-12
    assert np.abs(wigner(pe.psi, pe.psi).values - pe.rho.values).max() < 1e-12


def test_eigenvector_not_a_state(ctx):
    flags = eigenvector_flags(ctx, 3.7)
    assert flags["dq_below_min"] and 0.0 <= flags["dq"] < 1e-6 * ctx.min_dq
    assert not flags["on_lattice"]
    assert flags["divergence_slope"] > 0.5
    m = flags["regularized_q2"]
    assert m[0] < m[1] < m[2]
    lattice_flags = eigenvector_flags(ctx, 4.0)  # on the sampling lattice
    assert lattice_flags["on_lattice"]


def test_spreads_do_not_cancel_far_from_the_origin():
    # sqrt(<q^2> - <q>^2) read up to 2.83 here for an exact spread of 0
    ctx = BetaContext(1.0, 1.0, 0.5)
    dqs = [uncertainty(position_eigenvector(ctx, xi, 128).psi).dq
           for xi in np.linspace(1e8, 1.37e8, 25)]
    assert max(dqs) <= 1e-6 * ctx.min_dq
    assert eigenvector_flags(ctx, 1.35e8)["dq_below_min"]
    # and gave dq - min_dq = -2.4e-4 for the minimal spread here
    assert abs(uncertainty(ml_wavefunction(ctx, 1e6, 256)).dq - ctx.min_dq) <= 1e-9


def test_ml_wavefunction(ctx):
    n = 256
    psi = ml_wavefunction(ctx, 0.0, n)
    assert abs(psi.norm() - 1.0) < 1e-13
    # vanishes continuously toward the point at infinity
    edge = np.abs(psi.values[[0, n - 1]]).max()
    assert edge < 4.0 / n


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_ml_coefficients_have_a_closed_form(beta):
    ctx = BetaContext(beta, 0.7, 0.3)
    gaps = []
    for n in (32, 64, 128, 256, 512):
        closed = states._ml_coeffs(ctx, n)
        for xi in (0.0, 1.0, -0.916955, 3.7):
            c = ml_wavefunction(ctx, xi, n).coeffs()
            assert np.abs(c - closed).max() <= 1e-14 * np.abs(closed).max()
        # the window's coefficients amp (2/pi) (-1)^m / (1 - 4 m^2), aliased at O(n^-2)
        m = mode_numbers(n)
        window = math.sqrt(2 * ctx.sqrt_beta / math.pi) * (2 / np.pi) * (-1.0) ** m / (1 - 4 * m ** 2)
        gaps.append(np.abs(closed - window).max())
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((ratios > 3.9) & (ratios < 4.1)), ratios


def test_ml_moments_off_lattice(ctx):
    n = 256
    psi = ml_wavefunction(ctx, 3.7, n)
    u = uncertainty(psi)
    assert u.mean_p == pytest.approx(0.0, abs=1e-12)
    assert u.dq == pytest.approx(1.0, rel=1e-9)


def test_ml_evaluator_against_defining_integral(ctx, rng):
    scipy = pytest.importorskip("scipy")
    for lam in (0.5, 0.0, 0.31):
        c = BetaContext(1.0, 1.0, lam)
        for xi in (0.0, 3.7):
            ev = ml_phase_function(c, xi)
            for _ in range(6):
                q = rng.uniform(-6, 6)
                p = rng.uniform(-8, 8)
                ref = ml_defining_integral(c, xi, q, p)
                assert abs(ev(q, p) - ref) < 5e-9


def test_ml_sinc_form_on_strip(ctx, rng):
    # the plain three-term sinc expression is exact on the central strip
    ev = ml_phase_function(ctx, 0.0)
    for _ in range(50):
        q = rng.uniform(-8, 8)
        p = rng.uniform(-0.99, 0.99)  # |p| < 1 at the symmetric ordering
        assert abs(ev(q, p) - ml_sinc_form(ctx, 0.0, q, p)) < 1e-12


def test_ml_reality_and_parity(ctx):
    ev = ml_phase_function(ctx, 0.0)
    for q, p in ((0.3, 2.7), (-4.1, 11.0), (1.0, 0.2)):
        assert abs(ev(q, p).imag) < 1e-13          # symmetric ordering: real
    c0 = BetaContext(1.0, 1.0, 0.0)
    ev0 = ml_phase_function(c0, 0.0)
    for q, p in ((0.3, 2.7), (-4.1, 5.0)):
        assert abs(ev0(q, p) - np.conj(ev0(q, -p))) < 1e-13  # Im odd in p


@pytest.mark.parametrize("beta,hbar,lam", [(1.0, 1.0, 0.5), (2.0, 0.7, 0.3),
                                           (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)])
def test_ml_evaluator_broadcasts_like_scalar_calls(monkeypatch, beta, hbar, lam):
    ctx = BetaContext(beta, hbar, lam)
    ev = ml_phase_function(ctx, -0.916955)
    # p = 0, the seam angles where a composed angle meets the window edge, and a spread
    seams = [math.tan(s * a * math.pi / 2) / ctx.sqrt_beta
             for a in (lam, 1 - lam) if a < 1 for s in (1.0, -1.0)]
    ps = np.concatenate([[0.0, 1e12], seams, np.linspace(-9, 9, 11)])
    qs = np.linspace(-7, 7, 15)
    window = ev(qs[:, None], ps)
    assert window.shape == (qs.size, ps.size)
    ref = np.array([[ev(q, p) for p in ps] for q in qs])
    assert np.abs(window - ref).max() <= 1e-15 * np.abs(ref).max()
    assert isinstance(ev(0.3, 2.0), complex)
    assert ev(qs, 2.0).shape == qs.shape and ev(0.3, ps).shape == ps.shape
    # a window of many chunks gives the one-chunk values
    monkeypatch.setattr(states, "_CHUNK", 64)
    assert np.abs(ev(qs[:, None], ps) - window).max() <= 1e-15 * np.abs(ref).max()


def test_eigenvector_profile_broadcasts(ctx):
    pe = position_eigenvector(ctx, 0.7, 16)
    qs, ps = np.linspace(-5, 5, 7), np.linspace(-3, 3, 4)
    window = pe.rho_qp(qs[:, None], ps)
    assert window.shape == (7, 4)
    assert np.array_equal(window, np.array([[pe.rho_qp(q, p) for p in ps] for q in qs]))
