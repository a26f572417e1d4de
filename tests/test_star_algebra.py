import math

import numpy as np
import pytest

from gupstar.beta_arith import BetaContext
from gupstar.families import random_element, random_state, resolve_family
from gupstar.operator_rep import wigner
from gupstar.sampling import (TorusField, Wavefunction, _line_values, angle_nodes, deriv_p,
                              field_from_coeffs, mode_numbers, seminorm, wf_inner)
from gupstar.star_algebra import (SymbolObservable, cstar_norm_estimate, expectation, inner,
                                  involution, norm2, pointwise_trace, s_operator, star,
                                  star_symbol_left, star_symbol_right, trace)
from gupstar.states import ml_phase_state, position_eigenvector


def test_projector_idempotence(ctx):
    rho0 = position_eigenvector(ctx, 0.0, 64).rho
    assert np.abs(star(rho0, rho0).values - rho0.values).max() < 1e-12
    assert trace(rho0) == pytest.approx(1.0, abs=1e-13)
    assert inner(rho0, rho0) == pytest.approx(1.0, abs=1e-13)


def test_wigner_pair_product(ctx, rng):
    n = 64
    a, b, c, d = (random_state(ctx, n, rng) for _ in range(4))
    lhs = star(wigner(a, b), wigner(c, d))
    rhs = wf_inner(a, d) * wigner(c, b).values
    assert np.abs(lhs.values - rhs).max() < 1e-10 * np.abs(rhs).max()


def test_associativity(ctx, rng):
    n = 64
    for _ in range(5):
        f, g, h = (random_element(ctx, n, rng) for _ in range(3))
        l = star(star(f, g), h)
        r = star(f, star(g, h))
        assert np.abs(l.values - r.values).max() < 1e-10 * (norm2(f) * norm2(g) * norm2(h))


def test_trace_identities(ctx, rng):
    n = 64
    f = random_element(ctx, n, rng)
    g = random_element(ctx, n, rng)
    assert abs(trace(star(f, g)) - trace(star(g, f))) < 1e-10
    fp = random_element(ctx, n, rng, parity=0)
    gp = random_element(ctx, n, rng, parity=0)
    assert abs(trace(star(fp, gp)) - pointwise_trace(fp, gp)) < 1e-10


def test_involution_algebra(ctx, rng):
    n = 64
    f = random_element(ctx, n, rng)
    g = random_element(ctx, n, rng)
    lhs = involution(star(f, g))
    rhs = star(involution(g), involution(f))
    assert np.abs(lhs.values - rhs.values).max() < 1e-9 * np.abs(rhs.values).max()
    assert np.abs(involution(involution(f)).values - f.values).max() < 1e-11
    assert abs(norm2(involution(f)) - norm2(f)) < 1e-11
    # adjoint of a rank-one element swaps the pair
    a, b = random_state(ctx, n, rng), random_state(ctx, n, rng)
    assert np.abs(involution(wigner(a, b)).values - wigner(b, a).values).max() < 1e-11


def test_symmetric_involution_is_conjugation(ctx, rng):
    n = 32
    a, b = random_state(ctx, n, rng), random_state(ctx, n, rng)
    freal = TorusField(ctx, wigner(a, b).values + wigner(b, a).values)
    # real-valued in phase space: fixed by the involution, conjugation-symmetric
    assert np.abs(involution(freal).values - freal.values).max() < 1e-10
    assert np.abs(np.conj(freal.values[::-1, :]) - freal.values).max() < 1e-10


def test_s_operator(ctx, rng):
    n = 48
    f = random_element(ctx, n, rng)
    assert np.abs(s_operator(f).values - f.values).max() < 1e-13  # lam = 1/2
    ctx3 = BetaContext(1.0, 1.0, 0.3)
    f3 = random_element(ctx3, n, rng)
    g3 = random_element(ctx3, n, rng)
    assert abs(trace(s_operator(f3)) - trace(f3)) < 1e-10
    lhs = s_operator(star(f3, g3))
    rhs = star(s_operator(f3), s_operator(g3))
    assert rhs.ctx.lam == pytest.approx(0.7)
    assert np.abs(lhs.values - rhs.values).max() < 1e-9 * np.abs(rhs.values).max()
    assert np.abs(s_operator(s_operator(f3)).values - f3.values).max() < 1e-12


def test_inner_product(ctx, rng):
    n = 64
    f = random_element(ctx, n, rng)
    g = random_element(ctx, n, rng)
    assert inner(f, f).real >= 0
    assert abs(inner(f, g) - trace(star(involution(f), g))) < 1e-10
    assert norm2(star(f, g)) <= (1 + 1e-9) * norm2(f) * norm2(g)


def test_seminorm_continuity_bound(ctx, rng):
    n = 48
    f = random_element(ctx, n, rng)
    g = random_element(ctx, n, rng)
    prod = star(f, g)
    for nn in (0, 1):
        for mm in (0, 1):
            lhs = seminorm(prod, nn, mm)
            rhs = sum(math.comb(nn, k) * math.comb(mm, l) * ctx.lam ** k
                      * seminorm(f, 0, k + l) * seminorm(g, nn - k, mm - l)
                      for k in range(nn + 1) for l in range(mm + 1))
            assert lhs <= rhs / (2 * ctx.hbar * ctx.sqrt_beta) * (1 + 1e-9) + 1e-12


def test_cstar_norm(ctx, rng):
    n = 64
    rho0 = position_eigenvector(ctx, 0.0, n).rho
    assert cstar_norm_estimate(rho0) == pytest.approx(1.0, abs=1e-9)
    f = random_element(ctx, n, rng)
    nrm = cstar_norm_estimate(f)
    assert abs(cstar_norm_estimate(star(involution(f), f)) - nrm ** 2) < 1e-6 * nrm ** 2
    assert nrm <= norm2(f) * (1 + 1e-9)


def test_symbol_operations(ctx, rng):
    n = 64
    g = random_element(ctx, n, rng)
    one = SymbolObservable.position_power(ctx, n, 0)
    assert np.abs(star_symbol_left(one, g).values - g.values).max() < 1e-13
    assert np.abs(star_symbol_right(g, one).values - g.values).max() < 1e-13

    qsym = SymbolObservable.position_power(ctx, n, 1)
    rho = position_eigenvector(ctx, 3.7, n).rho
    assert np.abs(star_symbol_left(qsym, rho).values - 3.7 * rho.values).max() < 1e-10
    assert np.abs(star_symbol_right(rho, qsym).values - 3.7 * rho.values).max() < 1e-10

    gl = random_element(ctx, n, rng, localized=True)
    comm = star_symbol_left(qsym, gl).values - star_symbol_right(gl, qsym).values
    ref = 1j * ctx.hbar * deriv_p(gl).values
    assert np.abs(comm - ref).max() < 1e-9 * np.abs(ref).max()

    with pytest.raises(ValueError):
        SymbolObservable(-1, one.phi)


def _per_mode_symbol_product(sym, g, side):
    """Reference: one rolled multiplier pass over g's coefficients per phi mode."""
    ctx, n = g.ctx, g.n
    lam, hs = ctx.lam, ctx.hbar * ctx.sqrt_beta
    gc, (s0, b0), mu0 = g.coeffs(), g.mod, sym.phi.mod
    m = mode_numbers(n)
    c, b = np.meshgrid(m, m, indexing="ij")
    out = np.zeros_like(gc)
    for mi, amp in zip(m.astype(int), sym.phi.coeffs()):
        if side == "left":
            mult = (-2.0 * hs * (lam * (mu0 + mi) + (b0 + b) + (s0 + c))) ** sym.power
            out += amp * np.roll(mult * gc, mi, axis=1)
        else:
            mult = (2.0 * hs * ((1 - lam) * (mu0 + mi) - (s0 + c))) ** sym.power
            out += amp * np.roll(mult * gc, (-mi, mi), axis=(0, 1))
    mod = (s0, b0 + mu0) if side == "left" else (s0 - mu0, b0 + mu0)
    return field_from_coeffs(ctx, out, mod)


@pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (2.0, 0.7)])
@pytest.mark.parametrize("lam", [0.0, 0.31, 0.5, 1.0])
def test_symbol_products_match_the_per_mode_sum(beta, hbar, lam):
    ctx, n = BetaContext(beta, hbar, lam), 48
    rng = np.random.default_rng(11)
    # bump fills alpha modes up to n/2 - 2, so phi keeps |mode| <= 1 and every
    # product stays in band; beyond it the two routes alias differently
    m = mode_numbers(n)
    phi_c = np.where(np.abs(m) <= 1, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0)
    phis = [SymbolObservable.position_power(ctx, n, 0).phi,
            SymbolObservable.from_momentum_function(
                ctx, n, lambda p: 1.0 / (1.0 + beta * p ** 2)).phi,
            Wavefunction(ctx, _line_values(phi_c, 0.43), 0.43)]
    gs = [resolve_family("bump", ctx, n), resolve_family("rho:3.7", ctx, n),
          field_from_coeffs(ctx, random_element(ctx, n, rng).coeffs(), (0.21, 0.37))]
    for phi in phis:
        for g in gs:
            for power in range(4):
                sym = SymbolObservable(power, phi)
                for side, out in (("left", star_symbol_left(sym, g)),
                                  ("right", star_symbol_right(g, sym))):
                    ref = _per_mode_symbol_product(sym, g, side)
                    assert out.mod == pytest.approx(ref.mod, abs=1e-15)
                    err = np.abs(out.values - ref.values).max()
                    assert err <= 1e-11 * np.abs(ref.values).max(), (side, power, phi.mod, g.mod)


def test_symbol_on_another_grid_or_context_raises(ctx, rng):
    g = random_element(ctx, 32, rng)
    for sym in (SymbolObservable.position_power(ctx, 64, 1),
                SymbolObservable.position_power(BetaContext(2.0, 1.0, 0.5), 32, 1)):
        with pytest.raises(ValueError):
            star_symbol_left(sym, g)
        with pytest.raises(ValueError):
            star_symbol_right(g, sym)


def test_symbol_left_equals_row_multiplication(ctx, rng):
    # power zero acts by evaluating phi at the composed momentum argument
    n = 32
    g = random_element(ctx, n, rng)
    phi = SymbolObservable.from_momentum_function(
        ctx, n, lambda p: 1.0 / (1.0 + p ** 2), power=0)
    out = star_symbol_left(phi, g)
    a = angle_nodes(n)
    ref = np.empty((n, n), complex)
    for j in range(n):
        arg = a[None, :] + ctx.lam * a[j]
        ref[j] = (1.0 / (1.0 + np.tan(arg) ** 2)) * g.values[j]
    # compare away from the seam where tan overflows numerically
    cols = slice(2, n - 2)
    num = np.abs(out.values[:, cols] - ref[:, cols]).max()
    assert num < 1e-8 * np.abs(g.values).max()


def test_expectation(ctx, rng):
    n = 128
    ml = ml_phase_state(ctx, 0.0, n)
    one = SymbolObservable.position_power(ctx, n, 0)
    assert abs(expectation(one, ml.rho) - 1.0) < 1e-8
    qsym = SymbolObservable.position_power(ctx, n, 1)
    assert abs(expectation(qsym, ml_phase_state(ctx, 1.5, n).rho) - 1.5) < 5e-2
    odd = SymbolObservable.from_momentum_function(
        ctx, n, lambda p: np.arctan(p), power=0)
    assert abs(expectation(odd, ml.rho)) < 1e-6
    f = random_element(ctx, n, rng)
    assert expectation(f, ml.rho) == pytest.approx(trace(star(f, ml.rho)))


def test_context_mismatch_raises(ctx, rng):
    f = random_element(ctx, 16, rng)
    g = random_element(BetaContext(2.0, 1.0, 0.5), 16, rng)
    with pytest.raises(ValueError):
        star(f, g)
    h = random_element(ctx, 32, rng)
    with pytest.raises(ValueError):
        inner(f, h)
