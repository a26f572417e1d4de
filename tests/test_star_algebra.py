import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import CODECS, forbid
from hypothesis import strategies as st

from gupstar.beta_arith import BetaContext
from gupstar.families import random_element, random_state, resolve_family
from gupstar import operator_rep, sampling, star_algebra
from gupstar.operator_rep import (OperatorKernel, adjoint_kernel, apply_operator, compose_kernels,
                                  element_of, kernel_of, trace_op, wigner)
from gupstar.sampling import (TorusField, Wavefunction, _band_convolution, _band_reach,
                              _line_values, _relabel, angle_nodes, deriv_p, deriv_pprime,
                              field_from_coeffs, mode_numbers, seminorm, shift_field,
                              wavefunction_from_coeffs)
from gupstar.star_algebra import (SymbolObservable, cstar_norm_estimate, expectation, inner,
                                  involution, norm2, s_operator, star, star_direct,
                                  star_symbol_left, star_symbol_right, trace)
from gupstar.states import ml_phase_state, position_eigenvector
from gupstar.transforms import mult_by_q


def test_projector_idempotence(ctx):
    rho0 = position_eigenvector(ctx, 0.0, 64).rho
    assert np.abs(star(rho0, rho0).values - rho0.values).max() < 1e-12
    assert trace(rho0) == pytest.approx(1.0, abs=1e-13)
    assert inner(rho0, rho0) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("mods", [None, ((0.58, -0.21), (0.21, 0.16))])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
def test_star_direct_matches_star_at_an_integer_difference(lam, mods):
    # modulated pairs whose contracted modulations differ by an integer
    # (f.mod[1] + g.mod[0] = 0): rho:0.37 with itself, or random band-limited
    # fields; the one-integral midpoint route and the kernel composition agree
    ctx = BetaContext(2.0, 0.7, lam)
    if mods is None:
        f = g = resolve_family("rho:0.37", ctx, 32)
    else:
        rng = np.random.default_rng(3)
        f, g = (field_from_coeffs(ctx, random_element(ctx, 32, rng).coeffs(), m) for m in mods)
    direct, ref = star_direct(f, g), star(f, g)
    assert direct.mod == pytest.approx(ref.mod, abs=1e-12)
    assert np.abs(direct.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()


def test_symmetric_involution_is_conjugation(ctx, rng):
    n = 32
    a, b = random_state(ctx, n, rng), random_state(ctx, n, rng)
    freal = TorusField(ctx, wigner(a, b).values + wigner(b, a).values)
    # real-valued in phase space: conjugation-symmetric
    assert np.abs(np.conj(freal.values[::-1, :]) - freal.values).max() < 1e-10


def test_symbol_operations(ctx, rng):
    n = 64
    g = random_element(ctx, n, rng)
    one = SymbolObservable.position_power(ctx, n, 0)
    assert np.abs(star_symbol_left(one, g).values - g.values).max() < 1e-13
    assert np.abs(star_symbol_right(g, one).values - g.values).max() < 1e-13
    with pytest.raises(ValueError):
        SymbolObservable(-1, one.phi)


def test_symbol_power_is_a_nonnegative_integer(ctx):
    n = 16
    phi = SymbolObservable.position_power(ctx, n, 0).phi
    for bad in (1.5, 2.0, True, False, -1, np.int64(-2), "2", None):
        with pytest.raises(ValueError, match="nonnegative integer"):
            SymbolObservable(bad, phi)
    with pytest.raises(ValueError, match="exceeds the limit 64"):
        SymbolObservable(65, phi)
    assert SymbolObservable(64, phi).power == 64
    g = resolve_family("rho:0.7", ctx, n)
    sym = SymbolObservable(np.int64(2), phi)
    ref = star_symbol_left(SymbolObservable(2, phi), g)
    assert np.array_equal(star_symbol_left(sym, g).values, ref.values)


def _shift_in_band(x, m, axis=1):
    """x moved by m modes along axis (alpha: 1, alpha': 0); modes pushed out of
    [-n/2, n/2) are dropped."""
    c = np.moveaxis(np.fft.fftshift(x, axes=axis), axis, 1)
    out = np.zeros_like(c)
    if m >= 0:
        out[:, m:] = c[:, :c.shape[1] - m]
    else:
        out[:, :m] = c[:, -m:]
    return np.fft.ifftshift(np.moveaxis(out, 1, axis), axes=axis)


def _per_mode_symbol_product(sym, g, side):
    """Reference: one shifted multiplier pass over g's coefficients per phi mode.

    Both shifts truncate at the band edge: the alpha shift, and the right
    product's alpha' shift.
    """
    ctx, n = g.ctx, g.n
    lam, hs = ctx.lam, ctx.hbar * ctx.sqrt_beta
    gc, mu0 = g.coeffs(), sym.phi.mod
    s0, b0 = -g.mod[1], g.mod[0] + g.mod[1]  # the sheared codec's offsets
    m = mode_numbers(n)
    c, b = np.meshgrid(m, m, indexing="ij")
    out = np.zeros_like(gc)
    for mi, amp in zip(m.astype(int), sym.phi.coeffs()):
        if side == "left":
            mult = (-2.0 * hs * (lam * (mu0 + mi) + (b0 + b) + (s0 + c))) ** sym.power
            out += amp * _shift_in_band(mult * gc, mi)
        else:
            mult = (2.0 * hs * ((1 - lam) * (mu0 + mi) - (s0 + c))) ** sym.power
            out += amp * _shift_in_band(_shift_in_band(mult * gc, -mi, axis=0), mi)
    s0, b0 = (s0, b0 + mu0) if side == "left" else (s0 - mu0, b0 + mu0)
    return field_from_coeffs(ctx, out, (s0 + b0, -s0))


@pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (2.0, 0.7)])
@pytest.mark.parametrize("lam", [0.0, 0.31, 0.5, 1.0])
def test_symbol_products_match_the_per_mode_sum(beta, hbar, lam):
    ctx, n = BetaContext(beta, hbar, lam), 48
    rng = np.random.default_rng(11)
    # bump fills alpha modes up to n/2 - 2, so phi keeps |mode| <= 1 and these
    # products stay in band
    m = mode_numbers(n)
    phi_c = np.where(np.abs(m) <= 1, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0)
    phis = [SymbolObservable.position_power(ctx, n, 0).phi,
            SymbolObservable.from_momentum_function(
                ctx, n, lambda p: 1.0 / (1.0 + beta * p ** 2)).phi,
            Wavefunction(ctx, _line_values(phi_c, 0.43), 0.43)]
    gs = [resolve_family("bump", ctx, n), resolve_family("rho:3.7", ctx, n),
          field_from_coeffs(ctx, random_element(ctx, n, rng).coeffs(), (0.58, -0.21))]
    pairs = [(phi, g) for phi in phis for g in gs]
    # a pair that overflows the band: the angle sawtooth arctan(sqrt(beta) p) fills
    # every phi mode and the localization state's field every alpha mode; the
    # products are the band projection of the per-mode sum
    saw = SymbolObservable.from_momentum_function(ctx, n, lambda p: np.arctan(ctx.sqrt_beta * p))
    ml = ml_phase_state(ctx, 0.0, n).rho
    assert sampling._band_reach(saw.phi.coeffs()) + sampling._band_reach(
        ml.coeffs().any(axis=0)) > n // 2
    pairs.append((saw.phi, ml))
    for phi, g in pairs:
        for power in range(4):
            sym = SymbolObservable(power, phi)
            for side, out in (("left", star_symbol_left(sym, g)),
                              ("right", star_symbol_right(g, sym))):
                ref = _per_mode_symbol_product(sym, g, side)
                assert out.mod == pytest.approx(ref.mod, abs=1e-15)
                err = np.abs(out.values - ref.values).max()
                assert err <= 1e-11 * np.abs(ref.values).max(), (side, power, phi.mod, g.mod)


@pytest.mark.parametrize("n", [2, 4, 6, 16])
def test_symbol_products_project_full_band_operands(n):
    # full-band g and phi push terms past both band edges in both slots
    ctx = BetaContext(2.0, 0.7, 0.3)
    rng = np.random.default_rng(n)
    g = field_from_coeffs(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                          (0.2, -0.45))
    phi = sampling.wavefunction_from_coeffs(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                            0.3)
    for power in range(3):
        sym = SymbolObservable(power, phi)
        for side, out in (("left", star_symbol_left(sym, g)), ("right", star_symbol_right(g, sym))):
            ref = _per_mode_symbol_product(sym, g, side)
            assert np.abs(out.coeffs() - ref.coeffs()).max() <= 1e-13 * np.abs(ref.coeffs()).max()


def test_right_symbol_product_drops_alpha_prime_overflow():
    # phi = e^{4i alpha} (mode +2) moves g's one coefficient at (c, b) = (-7, 0) to
    # alpha mode 2 on both sides; the right product also moves it to alpha' mode
    # -9, past the band, so it is dropped (a cyclic move put +1 at (7, 2), and the
    # grid would sample mode -9 as -1 times mode 7)
    ctx, n = BetaContext(1.0, 1.0, 0.5), 16
    gc, phi_c, expected = np.zeros((n, n), complex), np.zeros(n, complex), np.zeros((n, n))
    gc[-7, 0], phi_c[2], expected[-7, 2] = 1.0, 1.0, 1.0
    g = field_from_coeffs(ctx, gc)
    sym = SymbolObservable(0, sampling.wavefunction_from_coeffs(ctx, phi_c))
    assert np.abs(star_symbol_right(g, sym).coeffs()).max() <= 1e-15
    assert np.abs(star_symbol_left(sym, g).coeffs() - expected).max() <= 1e-15


def test_symbol_products_run_no_codec(monkeypatch):
    # the products act on coefficients: none of the sample codecs is named in
    # their code or imported by star_algebra for them, and none runs
    for fn in (star_algebra._symbol_product, star_symbol_left, star_symbol_right):
        used = set(fn.__code__.co_names)
        assert not used & {"_line_values", "_sheared_values", "_sheared_mod"}, fn.__name__
    assert not hasattr(star_algebra, "_sheared_values")
    assert not hasattr(star_algebra, "_sheared_mod")
    ctx, n = BetaContext(2.0, 0.7, 0.3), 32
    rng = np.random.default_rng(8)
    g = field_from_coeffs(ctx, random_element(ctx, n, rng).coeffs(), (0.58, -0.21))
    phi = sampling.wavefunction_from_coeffs(ctx, rng.standard_normal(n), 0.43)
    refs = [star_symbol_left(SymbolObservable(2, phi), g).coeffs(),
            star_symbol_right(g, SymbolObservable(2, phi)).coeffs()]
    forbid(monkeypatch, "a symbol product ran a codec", sampling, *CODECS)
    outs = [star_symbol_left(SymbolObservable(2, phi), g).coeffs(),
            star_symbol_right(g, SymbolObservable(2, phi)).coeffs()]
    for out, ref in zip(outs, refs):
        assert np.array_equal(out, ref)


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
    phi = SymbolObservable.from_momentum_function(ctx, n, lambda p: 1.0 / (1.0 + p ** 2))
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
    f = random_element(ctx, n, rng)
    assert expectation(f, ml.rho) == pytest.approx(trace(star(f, ml.rho)))


@pytest.mark.parametrize("case", ["contexts-and-grids", "star-of-kernels", "star-with-a-kernel",
                                  "involution-of-a-kernel", "inner-of-kernels",
                                  "ordering-flip-of-a-kernel", "cstar-norm-of-a-kernel",
                                  "trace-of-a-kernel", "operator-on-a-field"])
def test_mismatched_operands_raise(ctx, rng, case):
    f = random_element(ctx, 16, rng)
    g = random_element(BetaContext(2.0, 1.0, 0.5), 16, rng)
    h, k = random_element(ctx, 32, rng), kernel_of(f)
    # a kernel holds no algebra element and a field no state, though each has a ctx and an n
    checks = {"contexts-and-grids": [(ValueError, "different contexts", star, f, g),
                                     (ValueError, "different grids", inner, f, h)],
              "star-of-kernels": [(TypeError, "TorusField", star, k, k)],
              "star-with-a-kernel": [(TypeError, "TorusField", star, f, k)],
              "involution-of-a-kernel": [(TypeError, "TorusField", involution, k)],
              "inner-of-kernels": [(TypeError, "TorusField", inner, k, k)],
              "ordering-flip-of-a-kernel": [(TypeError, "TorusField", s_operator, k)],
              "cstar-norm-of-a-kernel": [(TypeError, "TorusField", cstar_norm_estimate, k)],
              "trace-of-a-kernel": [(TypeError, "TorusField", trace, k)],
              "operator-on-a-field": [(TypeError, "Wavefunction", apply_operator, f, f)]}
    for error, match, route, *operands in checks[case]:
        with pytest.raises(error, match=match):
            route(*operands)


def test_double_ordering_flip_pairs_with_the_original():
    # 1 - (1 - lam) rounds off lam at 32 of these lams; the flipped-back element still
    # pairs with f, and its held array is f's, so the product is f's own bit for bit
    rng = np.random.default_rng(22)
    moved = 0
    for lam in (k / 100 for k in range(101)):
        ctx = BetaContext(2.0, 0.7, lam)
        f = random_element(ctx, 4, rng)
        back = s_operator(s_operator(f))
        moved += back.ctx != ctx
        assert np.array_equal(sampling._held(star(back, f)), sampling._held(star(f, f)))
        assert abs(inner(back, f) - inner(f, f)) == 0.0
    assert moved == 32


@pytest.mark.parametrize("lam", [0.07, 0.3, 0.75])
def test_orderings_two_ulps_apart_do_not_pair(lam):
    rng = np.random.default_rng(23)
    near = np.nextafter(np.nextafter(lam, 1.0), 1.0)
    f, g = (random_element(BetaContext(2.0, 0.7, x), 4, rng) for x in (lam, near))
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="different contexts"):
            star(a, b)
    # beta and hbar compare exactly
    for beta, hbar in ((np.nextafter(2.0, 3.0), 0.7), (2.0, np.nextafter(0.7, 1.0))):
        h = random_element(BetaContext(beta, hbar, lam), 4, rng)
        with pytest.raises(ValueError, match="different contexts"):
            star(f, h)


def test_algebra_path_runs_no_sheared_codec(monkeypatch):
    # products, involutions and traces of coefficient-held fields stay in coefficients;
    # at integer contracted modulation differences, and in inner products of fields with
    # equal modulations, no 1-d codec runs either: those routes run no FFT at all
    ctx, n = BetaContext(2.0, 0.7, 0.3), 32
    rng = np.random.default_rng(41)
    m = np.abs(mode_numbers(n))
    band = (m[:, None] <= n // 8) & (m[None, :] <= n // 8)
    f, g, h = (field_from_coeffs(ctx, band * (rng.standard_normal((n, n))
                                              + 1j * rng.standard_normal((n, n))), mod)
               for mod in ((0.0, 0.0), (0.0, 0.0), (-0.25, -0.25)))
    message = "codec called on the algebra path"
    forbid(monkeypatch, message, sampling, "_sheared_values", "_sheared_coeffs")
    # band-limited families are Wigner fields built as coefficient outer products
    bump, rho = resolve_family("bump:5", ctx, n), resolve_family("rho:0.37", ctx, n)
    # the contracted slot of these products has a non-integer modulation difference
    fgh, bump_rho = star(star(f, g), h), star(bump, rho)
    for module in (operator_rep, star_algebra):
        forbid(monkeypatch, message, module, "_line_values")
    fi = involution(f)
    tr = trace(star(fi, g))
    sf = s_operator(f)
    kf, kg = kernel_of(f), kernel_of(g)
    kfg = compose_kernels(kf, kg)
    back = element_of(kfg)
    rho2, rho_i = star(rho, rho), involution(rho)
    tr_rho, tr_bb = trace(rho), trace(star(involution(bump), bump))
    tr_op = trace_op(kernel_of(rho))
    fg_in, bb_norm = inner(f, g), norm2(bump)
    monkeypatch.undo()
    lv = fgh.values
    assert np.abs(lv - star(f, star(g, h)).values).max() <= 1e-12 * np.abs(lv).max()
    assert abs(tr - inner(f, g)) <= 1e-12 * norm2(f) * norm2(g)
    assert np.array_equal(sf.coeffs(), f.coeffs()) and sf.ctx.lam == pytest.approx(0.7)
    # the kernel route scales both operands by 1/(2 pi hbar) and the product back, star
    # folds both scales into the contraction weight.  Each route sums the same n products,
    # and rounds each term at most n + 10 times (the n - 1 additions, the complex product,
    # the scales and their constants), so by Higham's bound each is within
    # sqrt(2) gamma_(n+10) S of the exact sum, S the sum of the terms' sizes
    fg = star(f, g)
    perm, _ = sampling._contraction(n, 0)
    weight = np.pi / ctx.sqrt_beta / (2 * np.pi * ctx.hbar)
    size = weight * (np.abs(sampling._held(f)) @ np.abs(sampling._held(g))[perm])
    u = np.finfo(float).eps / 2
    gamma = (n + 10) * u / (1 - (n + 10) * u)
    gap = np.abs(sampling._held(back) - sampling._held(fg))
    assert (gap <= 2 * math.sqrt(2) * gamma * size).all()
    assert abs(tr_rho - 1.0) <= 1e-13 and abs(tr_op - 1.0) <= 1e-13
    assert np.abs(rho2.values - rho.values).max() <= 1e-12 * np.abs(rho.values).max()
    assert np.abs(rho_i.values - rho.values).max() <= 1e-12 * np.abs(rho.values).max()
    assert abs(tr_bb - inner(bump, bump)) <= 1e-12 * norm2(bump) ** 2 and bb_norm == norm2(bump)
    assert abs(fg_in - _sample_inner(f, g)) <= 1e-13 * norm2(f) * norm2(g)
    assert np.isfinite(bump_rho.coeffs()).all()


def test_operator_maps_are_scales_of_the_held_coefficients(monkeypatch):
    # fields hold their kernel's coefficients: the kernel maps, products at an integer
    # and a non-integer contracted difference, the ordering flip, a Wigner pair that fits
    # the band, the random family built from such pairs, the action on a state, the
    # coefficient scales, both symbol products and the Parseval inner product relabel no
    # coefficient grid; the products, the action and the Wigner pair build no kernel, and
    # a product builds one carrier, its own
    ctx, n = BetaContext(2.0, 0.7, 0.3), 32
    rng = np.random.default_rng(43)
    m = np.abs(mode_numbers(n))
    band = (m[:, None] <= n // 8) & (m[None, :] <= n // 8)
    f, g = (field_from_coeffs(ctx, band * (rng.standard_normal((n, n))
                                           + 1j * rng.standard_normal((n, n))), mod)
            for mod in ((0.58, -0.21), (0.21, 0.16)))  # contracted difference -0.21 + 0.21 = 0
    phi, psi = random_state(ctx, n, rng), random_state(ctx, n, rng)
    forbid(monkeypatch, "a coefficient grid was relabeled", sampling, "_relabel")
    k = kernel_of(f)
    back = element_of(k)
    built, own = [], sampling._Carrier._own.__func__
    monkeypatch.setattr(sampling._Carrier, "_own", classmethod(
        lambda cls, *args, **kw: built.append(cls) or own(cls, *args, **kw)))
    forbid(monkeypatch, "a kernel was built", operator_rep.OperatorKernel, "_own")
    fg = star(f, g)
    assert built == [TorusField]
    gf = star(g, f)  # contracted difference 0.16 + 0.58, sampled
    assert built == [TorusField] * 2
    w, phi_f = wigner(phi, psi), apply_operator(f, phi)
    assert _band_reach(phi.coeffs()) + _band_reach(psi.coeffs()) <= n // 2 - 1
    sf, r = s_operator(f), random_element(ctx, n, rng)
    sym = SymbolObservable(2, phi)
    for route in (shift_field(f, 0.3, -0.2), deriv_p(f), deriv_pprime(f), mult_by_q(f),
                  star_symbol_left(sym, g), star_symbol_right(g, sym)):
        assert route.n == n
    assert inner(f, f).real > 0
    monkeypatch.undo()
    scale = 2 * np.pi * ctx.hbar
    assert np.array_equal(k.coef, _relabel(f.coeffs(), 0, -1, 1, 1) / scale)
    assert np.array_equal(back.coeffs(), _relabel(k.coef, 1, 1, -1, 0) * scale)
    ref = star_direct(f, g).values
    assert fg.mod == (0.58, 0.16) and np.abs(fg.values - ref).max() <= 1e-12 * np.abs(ref).max()
    ref = compose_kernels(kernel_of(g), k).coef
    assert np.abs(kernel_of(gf).coef - ref).max() <= 1e-13 * np.abs(ref).max()
    ref = apply_operator(element_of(k), phi).coeffs()
    assert phi_f.mod == 0.58 and np.abs(phi_f.coeffs() - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(sf.coeffs(), f.coeffs()) and sf.ctx.lam == pytest.approx(0.7)
    outer = np.outer(psi.coeffs(), np.conj(phi.coeffs()[-np.arange(n)]))
    assert np.abs(kernel_of(w).coef - outer).max() <= 1e-15 * np.abs(outer).max()
    assert r.n == n and np.isfinite(r.values).all()


def _sheared_band_layout(n, skew):
    """``sampling._band_layout``'s index for sheared coefficients: (c, b) at ``at[c * n + b]``."""
    m = mode_numbers(n).astype(int)
    if skew:
        s = m[:, None] + m
        return ((s % n) * (2 * n) + (m - n // 2 * (s < 0)) % (2 * n)).ravel(), 2 * n
    return (np.arange(n)[:, None] * (3 * n // 2) + m % (3 * n // 2)).ravel(), 3 * n // 2


def _sheared_symbol_product(sym, g, a, z, skew):
    """The symbol product's band convolution on g's sheared coefficients."""
    n, power, phi = g.n, sym.power, sym.phi
    k = np.arange(power + 1)[:, None, None]
    binom = np.array([math.comb(power, j) for j in range(power + 1)], dtype=float)
    amp = binom[:, None, None] * phi.coeffs() * (a * (phi.mod + mode_numbers(n))) ** k
    gz = [g.coeffs()]
    for _ in range(power):
        gz.append(gz[-1] * z)
    return _band_convolution(amp, gz[::-1], _sheared_band_layout(n, skew))


@pytest.mark.parametrize("mod", [(0.0, 0.0), (0.58, -0.21)])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [8, 32, 128])
def test_held_routes_match_the_sheared_route(n, lam, mod):
    # the routes that act mode by mode on the held array give the bits of the same
    # arithmetic on the sheared coefficients; inner sums in another order
    ctx = BetaContext(2.0, 0.7, lam)
    rng = np.random.default_rng(n)
    f, g = (field_from_coeffs(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                              mod) for _ in range(2))
    phi = wavefunction_from_coeffs(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.25)
    fc, gc, sb = f.coeffs(), g.coeffs(), ctx.sqrt_beta
    nu, bt = f.freq_grids()
    # each reference is a statement of its own, as in the library: numpy multiplies a
    # large temporary right operand in place, operands swapped (pytest's assert rewriting
    # keeps temporaries alive and would not), and a complex product fused with a
    # multiply-add is not commutative in the last bit
    shifted = fc * np.exp(2j * (nu * 0.31 + bt * -0.17))
    dp = fc * (2j * sb * bt)
    dpp = fc * (2j * sb * nu)
    q = 1j * ctx.hbar * dpp
    mult = (2j * sb * nu) ** 2 * (2j * sb * bt) ** 1
    semi = float(np.abs(field_from_coeffs(ctx, fc * mult, mod).values).max())
    assert np.array_equal(shift_field(f, 0.31, -0.17).coeffs(), shifted)
    assert np.array_equal(deriv_p(f).coeffs(), dp)
    assert np.array_equal(deriv_pprime(f).coeffs(), dpp)
    assert np.array_equal(mult_by_q(f).coeffs(), q)
    assert seminorm(f, 2, 1) == semi
    hs, m = ctx.hbar * sb, mode_numbers(n)
    for power in range(4):
        sym = SymbolObservable(power, phi)
        left = _sheared_symbol_product(sym, g, -2.0 * hs * lam,
                                       -2.0 * hs * (g.mod[0] + m[:, None] + m), skew=False)
        right = _sheared_symbol_product(sym, g, 2.0 * hs * (1 - lam),
                                        2.0 * hs * (g.mod[1] - m[:, None]), skew=True)
        assert np.array_equal(star_symbol_left(sym, g).coeffs(), left)
        assert np.array_equal(star_symbol_right(g, sym).coeffs(), right)
    # Parseval at equal modulations: one vdot over the n^2 modes, the order changed
    pref = (np.pi / n) ** 2 / (4 * np.pi ** 2 * ctx.hbar ** 2 * ctx.beta)
    ref = pref * n * n * np.vdot(fc, gc)
    bound = n * n * np.finfo(float).eps * pref * n * n * np.linalg.norm(fc) * np.linalg.norm(gc)
    assert abs(inner(f, g) - ref) <= bound


def _sample_inner(f, g):
    """The sample sum that ``inner`` evaluates, written out."""
    n = f.n
    pref = (np.pi / n) ** 2 / (4 * np.pi ** 2 * f.ctx.hbar ** 2 * f.ctx.beta)
    return complex(pref * np.vdot(f.values, g.values))


@pytest.mark.parametrize("beta,hbar,lam", [(1.0, 1.0, 0.5), (2.0, 0.7, 0.3)])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_inner_routes_match_the_sample_sum(beta, hbar, lam, n):
    ctx = BetaContext(beta, hbar, lam)
    rng = np.random.default_rng(n)

    def field(mod):  # full band, Nyquist row and column included
        coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return field_from_coeffs(ctx, coef, mod)

    f = field((0.675, -0.3))
    # coefficient routes: Parseval at equal mods, one 1-d codec each at a shared alpha offset
    for g in (field((0.675, -0.3)), f, field((-0.825, 1.2)), field((2.375, -2.0))):
        assert abs(inner(f, g) - _sample_inner(f, g)) <= 1e-13 * norm2(f) * norm2(g)
    # a different alpha offset is the sample sum, bit for bit
    g = field((-0.325, -0.3))
    assert inner(f, g) == _sample_inner(f, g)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
contexts = st.builds(BetaContext, st.sampled_from([1.0, 2.0]), st.sampled_from([1.0, 0.7]),
                     st.floats(0.0, 1.0))
sizes = st.sampled_from([16, 32, 64])
seeds = st.integers(0, 2 ** 32 - 1)


@PROPERTY
@given(ctx=contexts, n=sizes, seed=seeds, localized=st.booleans())
def test_star_is_associative_on_band_limited_triples(ctx, n, seed, localized):
    rng = np.random.default_rng(seed)
    f, g, h = (random_element(ctx, n, rng, localized=localized) for _ in range(3))
    left, right = star(star(f, g), h), star(f, star(g, h))
    assert left.mod == right.mod
    assert np.abs(left.values - right.values).max() < 1e-10 * norm2(f) * norm2(g) * norm2(h)


@PROPERTY
@given(ctx=contexts, n=sizes, seed=seeds, localized=st.booleans())
def test_involution_is_an_anti_automorphism(ctx, n, seed, localized):
    rng = np.random.default_rng(seed)
    f, g = (random_element(ctx, n, rng, localized=localized) for _ in range(2))
    lhs, rhs = involution(star(f, g)), star(involution(g), involution(f))
    assert lhs.mod == rhs.mod
    assert np.abs(lhs.values - rhs.values).max() <= 1e-9 * np.abs(rhs.values).max()


finite_mods = st.floats(-1e6, 1e6)


@PROPERTY
@given(ctx=contexts, seed=seeds, fm=st.tuples(finite_mods, finite_mods),
       gm=st.tuples(finite_mods, finite_mods), phi_mod=finite_mods, psi_mod=finite_mods)
def test_modulations_move_without_arithmetic(ctx, seed, fm, gm, phi_mod, psi_mod):
    # fields and kernels carry the same pair (mu_u, mu_v): the maps, the involution and the
    # products only move and negate it, so each identity holds exactly
    n = 8
    rng = np.random.default_rng(seed)

    def coef(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    f, g = field_from_coeffs(ctx, coef(n, n), fm), field_from_coeffs(ctx, coef(n, n), gm)
    assert kernel_of(f).mod == f.mod and element_of(kernel_of(f)).mod == f.mod
    assert involution(involution(f)).mod == f.mod
    assert kernel_of(involution(f)).mod == operator_rep.adjoint_kernel(kernel_of(f)).mod
    assert star(f, g).mod == (f.mod[0], g.mod[1])
    full = [sampling.wavefunction_from_coeffs(ctx, coef(n), m) for m in (phi_mod, psi_mod)]
    one_mode = [sampling.wavefunction_from_coeffs(ctx, np.eye(n)[1], m) for m in (phi_mod, psi_mod)]
    for phi, psi in (full, one_mode):  # the sampled and the relabeled route
        assert wigner(phi, psi).mod == (psi_mod, -phi_mod)
    sym = SymbolObservable(1, full[0])
    assert star_symbol_left(sym, g).mod == (g.mod[0] + phi_mod, g.mod[1])
    assert star_symbol_right(g, sym).mod == (g.mod[0], g.mod[1] + phi_mod)


def test_double_involution_keeps_the_exact_inner_route(monkeypatch):
    # the field of kernel modulation (0.1 + 0.7, -0.1): involution twice gives back the
    # same pair, so inner against f is Parseval and runs no codec
    ctx, n = BetaContext(1.0, 1.0, 0.5), 16
    rng = np.random.default_rng(4)
    coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = element_of(operator_rep.OperatorKernel(ctx, coef, (0.1 + 0.7, -0.1)))
    ref = inner(f, f)
    forbid(monkeypatch, "inner ran a codec", sampling, *CODECS)
    assert inner(involution(involution(f)), f) == ref


# ---------------------------------------------------------------------------
# the involution, the kernel diagonal and inner read the occupied block only
# ---------------------------------------------------------------------------

MODS = [(0.0, 0.0), (0.25, -0.25), (0.37, 0.18)]  # unmodulated, same position, non-integer


def _block_fields(ctx, n, mod):
    """One-mode ``rho``, quarter-band ``bump``, full-band ``ml`` and raw samples, at ``mod``."""
    fields = [field_from_coeffs(ctx, resolve_family(label, ctx, n).coeffs(), mod)
              for label in ("rho:0.4", "bump:3", "ml:0.4")]
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return fields + [TorusField(ctx, raw, mod)]


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("mod", MODS)
def test_involution_is_the_signed_reflection(lam, mod):
    # conj(K[-v, -u]) s_u s_v with s = -1 at the Nyquist index alone (its -m leaves the
    # band); == allows the block route's +0 where the dense product wrote -0
    ctx, n = BetaContext(1.0, 1.0, lam), 32
    rev = -np.arange(n) % n
    s = np.where(mode_numbers(n) == -n // 2, -1.0, 1.0)
    fields = _block_fields(ctx, n, mod)
    assert [np.count_nonzero(sampling._held(f)) for f in fields[:3]] == [1, 15 * 15, n * n]
    for f in fields:
        k = kernel_of(f)
        for held, out in ((sampling._held(f), lambda: sampling._held(involution(f))),
                          (k.coef, lambda: operator_rep.adjoint_kernel(k).coef)):
            reflected = np.conj(held[rev][:, rev].T)
            ref = reflected * s[:, None]
            ref = ref * s[None, :]
            assert np.array_equal(out(), ref)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("mod", MODS)
def test_diagonal_is_the_full_gather_sum(lam, mod):
    # every row u gathered, held[u, r - u] signed by the wrap sign of the mode sum, summed
    ctx, n = BetaContext(1.0, 1.0, lam), 32
    m, u, r = mode_numbers(n), np.arange(n)[:, None], np.arange(n)
    msum = m[u] + m[(r - u) % n]
    sign = np.where((msum < -n // 2) | (msum >= n // 2), -1.0, 1.0)
    for f in _block_fields(ctx, n, mod):
        held = sampling._held(f)
        terms = held[u, (r - u) % n] * sign
        ref = terms.sum(axis=0)
        assert np.array_equal(sampling._diagonal(f), ref)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1 - ku)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("mod", MODS)
def test_alpha_sampled_inner_matches_the_dense_decode(lam, mod):
    # a shared alpha offset and mu_v apart by 1/4: the alpha' slot is sampled, over the
    # alpha modes both fields occupy; the dense decode samples every mode
    ctx, n = BetaContext(1.0, 1.0, lam), 32
    pref = (np.pi / n) ** 2 / (4 * np.pi ** 2 * ctx.hbar ** 2 * ctx.beta)
    moved = (mod[0] + 0.25, mod[1] - 0.25)
    for f in _block_fields(ctx, n, mod):
        for g in _block_fields(ctx, n, moved):
            fl = _line_values(f.coeffs().T)
            gl = _line_values(g.coeffs().T, f.mod[1] - g.mod[1])
            ref = pref * n * np.vdot(fl, gl)
            # both sums are within gamma of the exact one: complex terms, 2 n^2 real ones
            size = pref * n * (np.abs(fl) * np.abs(gl)).sum()
            assert abs(inner(f, g) - ref) <= 2 * _gamma(2 * n * n) * size


@pytest.mark.parametrize("mod", MODS)
def test_zero_and_disjoint_alpha_bands_give_exactly_zero(mod):
    ctx, n = BetaContext(2.0, 0.7, 0.3), 32
    zero = field_from_coeffs(ctx, np.zeros((n, n)), mod)
    assert not sampling._held(involution(zero)).any() and trace(zero) == 0
    moved, apart = (mod[0] + 0.25, mod[1] - 0.25), (mod[0] + 0.25, mod[1])
    for gmod in (mod, moved, apart):
        for g in _block_fields(ctx, n, gmod):
            assert inner(zero, g) == 0 and inner(g, zero) == 0
    # alpha modes 1 and 3, several alpha' modes each: their held rows and columns reach
    # common sums, which decode to exact zeros
    cf, cg = np.zeros((n, n), complex), np.zeros((n, n), complex)
    cf[[0, 2, 5], 1], cg[[0, 1, 7], 3] = [1.0, 2j, -0.5], [0.3, 1.0 - 1j, 2.0]
    for gmod in (mod, moved):
        f, g = field_from_coeffs(ctx, cf, mod), field_from_coeffs(ctx, cg, gmod)
        assert inner(f, g) == 0 and inner(g, f) == 0
    one_f, one_g = np.zeros((n, n), complex), np.zeros((n, n), complex)
    one_f[2, 1], one_g[2, 3] = 1.0, 1.0  # one entry each: no alpha mode in common
    assert inner(field_from_coeffs(ctx, one_f, mod), field_from_coeffs(ctx, one_g, moved)) == 0


def _peak_bytes(fn):
    """Peak traced allocation of ``fn()``, after one call that fills every cache."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_PEAK_N = 256  # an n x n complex array is 1 MiB here, its int64 index 0.5 MiB


@pytest.mark.parametrize("route,bound", [
    ("relabel", 16 * _PEAK_N ** 2 + 64 * 1024),  # the output, no copy of the cached index
    ("involution", 1.25 * 16 * _PEAK_N ** 2),  # the zero-filled result
    ("trace", 0.25e6),
    ("inner", 0.25e6),  # rho:-0.5 and rho:1.3: mu_v 0.9 apart, the alpha' slot sampled
])
def test_block_routes_allocate_what_the_block_needs(route, bound):
    ctx, n = BetaContext(1.0, 1.0, 0.5), _PEAK_N
    x, y = resolve_family("rho:-0.5", ctx, n), resolve_family("rho:1.3", ctx, n)
    held = sampling._held(resolve_family("ml:0.3", ctx, n))
    run = {"relabel": lambda: _relabel(held, 1, 1, -1, 0), "involution": lambda: involution(x),
           "trace": lambda: trace(x), "inner": lambda: inner(x, y)}[route]
    assert _peak_bytes(run) <= bound


def _same_block(a, b):
    """Two pairs of ``sampling._occupied`` are one: slices where both are, equal masks elsewhere."""
    return len(a) == len(b) and all(
        isinstance(x, slice) and isinstance(y, slice)
        or not isinstance(x, slice) and not isinstance(y, slice) and np.array_equal(x, y)
        for x, y in zip(a, b))


def _assert_records_its_block(carrier):
    # written by an algebra route: the block is recorded at construction, and it is
    # exactly what a scan of the held array finds
    assert carrier._block is not None
    assert _same_block(carrier._block, sampling._occupied(sampling._held(carrier)))
    assert all(isinstance(k, slice) or not k.flags.writeable for k in carrier._block)


def _block_pairs(ctx, n):
    """Operand pairs: the full band, one mode each (paired and sampled), empty paired inner
    modes, the zero field, and the full band times one mode."""
    full, one = (resolve_family(label, ctx, n) for label in ("ml:0.3", "rho:0.3"))
    m = mode_numbers(n)
    part = (m >= 1) & (m <= 3)  # column modes 1..3 pair with row modes -3..-1, none held
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    disjoint = (element_of(OperatorKernel(ctx, raw * part)),
                element_of(OperatorKernel(ctx, raw * part[:, None])))
    zero = field_from_coeffs(ctx, np.zeros((n, n)))
    sampled = (one, resolve_family("rho:1.0", ctx, n))  # contracted d = 0.15 - 0.5
    return {"full": (full, full), "one_mode": (one, one), "sampled": sampled,
            "empty_inner": disjoint, "zero": (zero, zero), "full_one": (full, one)}


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("pair", ["full", "one_mode", "sampled", "empty_inner", "zero", "full_one"])
def test_algebra_routes_record_the_block_they_wrote(lam, pair):
    ctx, n = BetaContext(2.0, 0.7, lam), 32
    f, g = _block_pairs(ctx, n)[pair]
    kf, kg = kernel_of(f), kernel_of(g)
    psi = wavefunction_from_coeffs(ctx, sampling._held(g)[:, 1], g.mod[0])  # g's column 1
    products = [star(f, g), compose_kernels(kf, kg), apply_operator(f, psi)]
    for out in products + [involution(f), involution(g), adjoint_kernel(kf), adjoint_kernel(kg)]:
        _assert_records_its_block(out)
    if pair in ("empty_inner", "zero"):
        assert not any(sampling._held(out).any() for out in products)
    # a product of products reads the recorded blocks and records its own
    _assert_records_its_block(star(products[0], involution(products[0])))


def test_a_non_finite_entry_inside_a_written_block_is_rejected():
    # one-mode operands whose product overflows: only the 1 x 1 block is scanned, and
    # the overflow in it is still caught
    ctx, n = BetaContext(1.0, 1.0, 0.5), 32
    coef = np.zeros((n, n), complex)
    coef[0, 0] = 1e300
    k, psi = OperatorKernel(ctx, coef), wavefunction_from_coeffs(ctx, coef[:, 0])
    f = element_of(k)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="kernel coefficients must be finite"):
            compose_kernels(k, k)
        with pytest.raises(ValueError, match="field coefficients must be finite"):
            star(f, f)
        with pytest.raises(ValueError, match="wavefunction coefficients must be finite"):
            apply_operator(f, psi)


def test_carriers_built_elsewhere_find_their_block_on_first_read():
    # constructors, codecs and families scan for no block; the first read fills the slot,
    # and copies and pickles rebuild with an empty slot that refills to the same block
    ctx, n = BetaContext(1.0, 1.0, 0.5), 32
    built = [resolve_family(label, ctx, n) for label in ("rho:0.3", "bump:3", "ml:0.3")]
    built += [OperatorKernel(ctx, np.eye(n)), wavefunction_from_coeffs(ctx, np.eye(n)[1])]
    for c in built:
        assert c._block is None
        first = sampling._occupied(c)
        assert sampling._occupied(c) is first and c._block is first
        assert _same_block(first, sampling._occupied(sampling._held(c)))
    product = star(built[0], built[1])
    for c in built + [product]:
        block = sampling._occupied(c)
        for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert twin._block is None
            assert _same_block(sampling._occupied(twin), block)


def _scans_no_full_array(mp, n):
    """Patch ``_occupied`` and ``_all_finite`` to raise when handed an n x n array."""
    def guarded(real):
        def scan(a, *rest):
            if isinstance(a, np.ndarray) and a.shape == (n, n):
                raise AssertionError("an n x n array was scanned")
            return real(a, *rest)
        return scan

    for module in (sampling, operator_rep):
        mp.setattr(module, "_occupied", guarded(sampling._occupied))
    mp.setattr(sampling, "_all_finite", guarded(sampling._all_finite))


def test_products_on_filled_blocks_scan_no_full_array(monkeypatch):
    # at n = 512 the one-mode product and involution read their operands' recorded blocks
    # and scan only the block they write; an operand whose block is not yet filled would
    # be scanned whole, which the same guard catches
    ctx, n = BetaContext(1.0, 1.0, 0.5), 512
    rho, fresh = (resolve_family("rho:0.3", ctx, n) for _ in range(2))
    sampling._occupied(rho)
    with monkeypatch.context() as mp:
        _scans_no_full_array(mp, n)
        prod, inv = star(rho, rho), involution(rho)
        _, again = star(prod, rho), involution(inv)
        with pytest.raises(AssertionError, match="an n x n array was scanned"):
            star(fresh, fresh)
    assert np.array_equal(sampling._held(prod), sampling._held(star(fresh, fresh)))
    assert np.array_equal(sampling._held(again), sampling._held(rho))
