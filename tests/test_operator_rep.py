import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import CODECS, forbid

from gupstar.beta_arith import BetaContext
from gupstar import operator_rep, sampling, star_algebra
from gupstar.families import random_element, random_state
from gupstar.families import resolve_family
from gupstar.operator_rep import (OperatorKernel, adjoint_kernel,
                                  apply_operator, compose_kernels, element_of, hilbert_schmidt,
                                  kernel_of, lambda_ordered_operator, marginal_momentum,
                                  operator_norm, phat_apply, qhat_apply, state_check, trace_op,
                                  uncertainty, wigner)
from gupstar.sampling import (TorusField, Wavefunction, _line_coeffs, _line_values, _relabel,
                              _relabel_index, angle_nodes, field_from_coeffs, mode_numbers,
                              wavefunction_from_coeffs, wf_inner)
from gupstar.star_algebra import SymbolObservable, expectation, inner, involution, star, trace
from gupstar.states import ml_phase_state, position_eigenvector
from gupstar.verify import _kernel_samples as kernel_samples


def test_kernel_of_projector(ctx):
    n = 64
    pe = position_eigenvector(ctx, 0.0, n)
    k = kernel_of(pe.rho)
    outer = np.outer(pe.psi.values, np.conj(pe.psi.values))
    assert np.abs(kernel_samples(k) - outer).max() < 1e-12


def test_kernel_standard_ordering_alignment(rng):
    # lam = 0: the kernel argument pair is (difference, first argument)
    ctx0 = BetaContext(1.0, 1.0, 0.0)
    n = 32
    a, b = random_state(ctx0, n, rng), random_state(ctx0, n, rng)
    w = wigner(a, b)
    k = kernel_of(w)
    assert np.abs(kernel_samples(k) - np.outer(b.values, np.conj(a.values))).max() < 1e-10


# kernel_of / element_of, the involution and the kernel adjoint as lattice maps
RELABEL_INVERSE_PAIRS = [((0, -1, 1, 1), (1, 1, -1, 0)),
                         ((1, 1, 0, -1), (1, 1, 0, -1)),
                         ((0, -1, -1, 0), (0, -1, -1, 0))]


@pytest.mark.parametrize("fwd,back", RELABEL_INVERSE_PAIRS)
def test_relabel_inverse_pairs_are_exact(rng, fwd, back):
    for n in (8, 24):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(_relabel(_relabel(x, *fwd), *back), x)
        assert np.array_equal(_relabel(_relabel(x, *back), *fwd), x)
        i, j = np.arange(n)[:, None], np.arange(n)[None, :]
        for a, b, c, d in (fwd, back):
            assert np.array_equal(_relabel(x, a, b, c, d), x[(a * i + b * j) % n, (c * i + d * j) % n])
            # the cached gather index is shared by every call, so it must be read-only
            assert not _relabel_index(n, a, b, c, d).flags.writeable


def test_kernel_maps_need_no_sample_tables():
    # the operator layer works on kernel coefficients: it never samples a kernel
    src = Path(__file__).resolve().parent.parent / "src" / "gupstar"
    op = (src / "operator_rep.py").read_text()
    assert "_sheared_values" not in op and "_sheared_coeffs" not in op
    for name in ("operator_rep.py", "star_algebra.py"):
        assert "meshgrid" not in (src / name).read_text()


def _modulated_element(ctx, n, rng, mod):
    m = np.abs(mode_numbers(n))
    coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coef[m > n // 8, :] = 0
    coef[:, m > n // 8] = 0
    return field_from_coeffs(ctx, coef, mod)


def _kernel_pairs():
    out = []
    for lam in (0.0, 0.3, 1.0):
        ctx = BetaContext(2.0, 0.7, lam)
        rng = np.random.default_rng(31)
        f, g = (random_element(ctx, 48, rng) for _ in range(2))
        out.append(pytest.param(f, g, id=f"lam{lam}"))
    ctx = BetaContext(2.0, 0.7, 0.3)
    out.append(pytest.param(resolve_family("rho:0.3", ctx, 48), resolve_family("rho:1.0", ctx, 48),
                            id="rho:0.3*rho:1.0"))
    rng = np.random.default_rng(32)
    h = _modulated_element(ctx, 48, rng, (0.58, -0.21))  # the sheared codec's (s0, b0) = (0.21, 0.37)
    out.append(pytest.param(h, random_element(ctx, 48, rng), id="mod(0.21,0.37)"))
    out.append(pytest.param(h, h, id="mod(0.21,0.37)^2"))
    return out


@pytest.mark.parametrize("f,g", _kernel_pairs())
def test_compose_kernels_matches_sample_route(f, g):
    kf, kg = kernel_of(f), kernel_of(g)
    old = kernel_samples(kf, weighted=True) @ kernel_samples(kg)
    new = compose_kernels(kf, kg)
    assert new.mod == (kf.mod[0], kg.mod[1])
    assert np.abs(kernel_samples(new) - old).max() <= 1e-12 * np.abs(old).max()


def _quadrature(kf, kg):
    """The midpoint rule over the sampled contracted slot, written out."""
    left = _line_values(kf.coef, kf.mod[1])
    right = _line_values(kg.coef.T, kg.mod[0])
    return np.pi / (kf.n * kf.ctx.sqrt_beta) * (left @ right.T)


@pytest.mark.parametrize("beta,hbar,lam", [(1.0, 1.0, 0.5), (2.0, 0.7, 0.3)])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_compose_kernels_matches_the_quadrature(beta, hbar, lam, n):
    ctx = BetaContext(beta, hbar, lam)
    rng = np.random.default_rng(n)

    def kernel(mod):  # full band, Nyquist row and column included
        return OperatorKernel(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), mod)

    # integer contracted difference d: the signed mode pairing, equal up to rounding
    for d in (-3, 0, 1, 2):
        kf, kg = kernel((0.3, 0.375)), kernel((d - 0.375, -0.2))
        assert kf.mod[1] + kg.mod[0] == d
        ref, out = _quadrature(kf, kg), compose_kernels(kf, kg)
        assert out.mod == (kf.mod[0], kg.mod[1])
        assert np.abs(out.coef - ref).max() <= 1e-13 * np.abs(ref).max()
    # any other d samples the contracted slot, bit for bit
    for mu in (0.625, np.nextafter(1.0, 2.0)):
        kf, kg = kernel((0.3, 0.0)), kernel((mu, -0.2))
        assert not float(kf.mod[1] + kg.mod[0]).is_integer()
        assert np.array_equal(compose_kernels(kf, kg).coef, _quadrature(kf, kg))


@pytest.mark.parametrize("f,g", _kernel_pairs())
def test_kernel_maps_commute_with_involution(f, g):
    # K(f*) = K(f)^dagger holds as one lattice identity, so only the codec rounds
    for h in (f, g):
        lhs, rhs = kernel_of(involution(h)), adjoint_kernel(kernel_of(h))
        assert lhs.mod == pytest.approx(rhs.mod, abs=1e-15)
        assert np.abs(lhs.coef - rhs.coef).max() <= 1e-13 * np.abs(rhs.coef).max()
        sampled = kernel_samples(kernel_of(h)).conj().T
        assert np.abs(kernel_samples(rhs) - sampled).max() <= 1e-12 * np.abs(sampled).max()


def _full_contraction(left, right, mu):
    """``operator_rep._contract`` over the full arrays, and the sizes of its sums.

    Returns ``(ref, size)``: ``ref`` multiplies every n x n entry, and
    ``size`` is the same sum of the terms' absolute values.
    """
    held = sampling._held(left)
    hold = 2 * np.pi * left.ctx.hbar if isinstance(left, TorusField) else 1.0
    d = sampling._integral(left.mod[1], mu)
    if d is not None:
        perm, sign = sampling._contraction(left.n, d)
        a = held * ((np.pi / left.ctx.sqrt_beta / hold) * sign)
        b = right[perm]
    else:
        a = np.pi / (left.n * left.ctx.sqrt_beta) / hold * _line_values(held, left.mod[1])
        b = _line_values(right.T, mu).T
    return a @ b, np.abs(a) @ np.abs(b)


def _assert_occupied_block(out, left, right, mu):
    """``out`` is 0 off the occupied rows x columns and the full product on them.

    Both routes sum the same n terms, the block route skipping exact zeros,
    so by Higham's bound, as in ``test_algebra_path_runs_no_sheared_codec``,
    each is within sqrt(2) gamma_(n+10) S of the exact sum.
    """
    ref, size = _full_contraction(left, right, mu)
    block = sampling._held(left).any(axis=1)
    if right.ndim == 2:
        block = block[:, None] & right.any(axis=0)
    assert (out[~block] == 0).all()
    u = np.finfo(float).eps / 2
    gamma = (left.n + 10) * u / (1 - (left.n + 10) * u)
    assert (np.abs(out - ref) <= 2 * math.sqrt(2) * gamma * size).all()


BLOCK_PAIRS = [("rho:0.37", "rho:0.37"),  # one mode each
               ("bump:3", "bump:5"),      # half the band
               ("ml:0.3", "ml:0.3"),      # the full band
               ("ml:0.3", "rho:0.3"),     # full rows, one inner mode and one column
               ("rho:0.37", "rho:1.0"),   # a non-integer d: the sampled slot
               ("ml:0.3", "rho:1.0")]


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("left,right", BLOCK_PAIRS, ids="*".join)
def test_products_contract_only_the_occupied_block(lam, left, right):
    ctx, n = BetaContext(2.0, 0.7, lam), 32
    f, g = resolve_family(left, ctx, n), resolve_family(right, ctx, n)
    _assert_occupied_block(sampling._held(star(f, g)), f, sampling._held(g), g.mod[0])
    kf, kg = kernel_of(f), kernel_of(g)
    _assert_occupied_block(compose_kernels(kf, kg).coef, kf, kg.coef, kg.mod[0])
    rng = np.random.default_rng(3)
    for psi in (_band_state(ctx, n, rng, 3, g.mod[0]), random_state(ctx, n, rng)):
        _assert_occupied_block(apply_operator(f, psi).coeffs(), f, psi.coeffs(), psi.mod)


def test_disjoint_inner_modes_contract_to_exactly_zero():
    # K's columns hold modes 1..3 and R's rows modes 1..3, but at d = 0 column mode v
    # pairs with row mode -v, so every term of the product is skipped
    ctx, n = BetaContext(1.0, 1.0, 0.5), 16
    rng = np.random.default_rng(5)
    m = mode_numbers(n)
    part = (m >= 1) & (m <= 3)
    full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kf, kg = OperatorKernel(ctx, full * part), OperatorKernel(ctx, full * part[:, None])
    psi = wavefunction_from_coeffs(ctx, np.where(part, 1.0 + 2.0j, 0))
    assert not compose_kernels(kf, kg).coef.any()
    assert not sampling._held(star(element_of(kf), element_of(kg))).any()
    assert not apply_operator(element_of(kf), psi).coeffs().any()
    assert hilbert_schmidt(adjoint_kernel(kf), kg) == 0
    # the mirrored rows, modes -3..-1, pair with every occupied column
    mirrored = OperatorKernel(ctx, full * part[(-np.arange(n)) % n, None])
    out = compose_kernels(kf, mirrored).coef
    assert out.all()
    _assert_occupied_block(out, kf, mirrored.coef, 0.0)


def test_full_band_star_makes_no_copy_beyond_the_product():
    # scaled left operand, gathered right operand, their product: three n x n complex
    # arrays, as before the block route; the masks and indices are O(n), and the slack
    # is far below one more n x n array (1 MiB)
    ctx, n = BetaContext(1.0, 1.0, 0.5), 256
    f = resolve_family("ml:0.3", ctx, n)
    assert sampling._held(f).all()
    star(f, f)  # the pairing's cache
    tracemalloc.start()
    try:
        star(f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * n * n + 64 * 1024


def test_apply_operator(ctx):
    pe = position_eigenvector(ctx, 3.7, 64)
    out = apply_operator(pe.rho, pe.psi)
    assert np.abs(out.values - pe.psi.values).max() < 1e-11  # unit-norm projector


@pytest.mark.parametrize("beta,hbar,lam", [(1.0, 1.0, 0.5), (2.0, 0.7, 0.3)])
def test_apply_operator_matches_the_sampled_matrix(beta, hbar, lam):
    # kernel mod (0.62, -0.25): the contracted difference d = psi.mod - 0.25
    ctx, n = BetaContext(beta, hbar, lam), 48
    rng = np.random.default_rng(7)
    f = _modulated_element(ctx, n, rng, (0.62, -0.25))
    k = kernel_of(f)
    for mu, integer in ((0.25, True), (1.25, True), (-0.75, True), (0.0, False), (0.6, False)):
        psi = _band_state(ctx, n, rng, n // 8, mu)
        assert float(k.mod[1] + mu).is_integer() == integer
        ref = kernel_samples(k, weighted=True) @ psi.values
        out = apply_operator(f, psi)
        assert out.mod == k.mod[0]
        assert np.abs(out.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_apply_matches_direct_quadrature(ctx, rng):
    """Row-shifted trapezoid form of the action, independent of kernels."""
    n = 32
    from gupstar.sampling import shift_field
    f = random_element(ctx, n, rng)
    psi = random_state(ctx, n, rng)
    a = angle_nodes(n)
    acc = np.zeros(n, dtype=complex)
    for j in range(n):
        frow = shift_field(f, 0.0, -ctx.lam * a[j]).values[j]  # F(a'_j, a - lam a'_j)
        pv = psi.at_offset(-a[j])
        acc += frow * pv
    direct = acc * (np.pi / n) / (2 * np.pi * ctx.hbar * ctx.sqrt_beta)
    ref = apply_operator(f, psi)
    assert np.abs(direct - ref.values).max() < 1e-10 * np.abs(ref.values).max()


def test_trace_op(ctx, rng):
    n = 64
    pe = position_eigenvector(ctx, 0.0, n)
    assert trace_op(kernel_of(pe.rho)) == pytest.approx(1.0, abs=1e-12)
    # full band: diagonal modes u + v leave the band and wrap with the half-offset sign
    for mod in ((0.3, 0.375), (0.25, -0.25), (-1.0, 3.0)):
        k, kh = (OperatorKernel(ctx, rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)), mod) for _ in range(2))
        mtot = k.mod[0] + k.mod[1]
        dm = _line_coeffs(np.diagonal(kernel_samples(k)), mtot)  # the sampled diagonal's coefficients
        terms = np.pi / ctx.sqrt_beta * dm * np.sinc(mtot + mode_numbers(n))
        assert abs(trace_op(k) - terms.sum()) <= 1e-13 * np.abs(terms).sum()
        # the adjoint is the conjugate transpose on samples, Nyquist row and column included,
        # so Tr(k^dagger kh) is the double midpoint sum
        sampled = kernel_samples(k).conj().T
        adj = kernel_samples(adjoint_kernel(k))
        assert np.abs(adj - sampled).max() <= 1e-12 * np.abs(sampled).max()
        mk, mh = kernel_samples(k, weighted=True), kernel_samples(kh, weighted=True)
        hs_scale = np.linalg.norm(mk) * np.linalg.norm(mh)
        assert abs(hilbert_schmidt(k, kh) - np.vdot(mk, mh)) <= 1e-13 * hs_scale


def _gamma(k):
    """Higham's gamma_k: the relative error bound of a k-step product or sum chain."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("mod", [(0.0, 0.0), (0.25, -0.25), (-0.5, 0.5), (0.3, 0.375)])
def test_one_trace_on_fields_from_raw_samples(lam, mod):
    # raw samples put coefficients where the sheared and the kernel readings of the held
    # array differ; the trace, its identities and the momentum marginal read the kernel
    # diagonal alone.  Each bound is gamma_k times the sum of the sizes of the terms,
    # for each of the two routes compared: a trace sums the n^2 held entries with its
    # weights (|sinc| <= 1) in chains of at most 2n + 10 roundings, a product entry sums
    # n terms, and a sample sums the n^2 entries through two FFT passes
    ctx, n = BetaContext(2.0, 0.7, lam), 16
    rng = np.random.default_rng(29)
    f, g = (TorusField(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), mod)
            for _ in range(2))
    k, hs = kernel_of(f), ctx.hbar * ctx.sqrt_beta
    size_f, size_g = (np.abs(sampling._held(x)).sum() for x in (f, g))
    tr, bound = trace(f), 2 * _gamma(2 * n + 10) * size_f / (2 * hs)
    assert abs(tr) > 1e3 * bound  # the bounds are not vacuous
    assert abs(tr - trace_op(k)) <= bound and abs(state_check(f).trace - tr) <= bound
    diagonal = np.diagonal(kernel_samples(k)).real
    bound = 2 * _gamma(2 * n + 20) * np.abs(k.coef).sum()
    assert np.abs(marginal_momentum(f) - diagonal).max() <= bound
    if sampling._integral(*mod) is None:  # no exact pairing: the product identities are quadratures
        return
    bound = 2 * _gamma(3 * n + 20) * size_f * size_g / (2 * np.pi * ctx.hbar) / (2 * hs) ** 2
    assert abs(trace(star(f, g)) - trace(star(g, f))) <= bound
    assert abs(inner(f, g) - trace(star(involution(f), g))) <= bound


def test_the_kernel_diagonal_is_read_once(monkeypatch):
    # trace, trace_op, the momentum marginal, the state check and expectations all read
    # the diagonal through sampling._diagonal; none has a reading of its own
    ctx, n = BetaContext(2.0, 0.7, 0.3), 16
    rng = np.random.default_rng(6)
    f, rho = random_element(ctx, n, rng), resolve_family("rho:0.37", ctx, n)
    k, sym = kernel_of(f), SymbolObservable.position_power(ctx, n, 1)
    message = "the kernel diagonal was read outside sampling._diagonal"
    for module in (sampling, operator_rep, star_algebra):
        forbid(monkeypatch, message, module, "_diagonal")
    routes = (lambda: trace(f), lambda: trace_op(k), lambda: marginal_momentum(rho),
              lambda: state_check(rho), lambda: expectation(f, rho), lambda: expectation(sym, rho))
    for route in routes:
        with pytest.raises(AssertionError, match=message):
            route()


def test_operator_norm(ctx, rng):
    # the largest singular value of the weighted sample matrix, also on a modulated kernel
    for f in (random_element(ctx, 48, rng), _modulated_element(ctx, 48, rng, (0.58, -0.21))):
        k = kernel_of(f)
        sv = np.linalg.svd(kernel_samples(k, weighted=True), compute_uv=False)[0]
        assert operator_norm(k) == pytest.approx(sv, rel=1e-8)
    zero = kernel_of(TorusField(ctx, np.zeros((48, 48), complex)))
    assert operator_norm(zero) == 0.0


def _sampled_wigner(phi, psi):
    """Reference: the sampled construction, both states shifted row by row."""
    ctx, ap = psi.ctx, angle_nodes(psi.n)
    ps, ph = psi.at_offset(ctx.lam * ap), phi.at_offset(-(1 - ctx.lam) * ap)
    return TorusField(ctx, 2 * np.pi * ctx.hbar * ps * np.conj(ph), (psi.mod, -phi.mod))


def _band_state(ctx, n, rng, reach, mod):
    """Coefficient-held state whose nonzero modes reach |m| = reach exactly."""
    m = np.abs(mode_numbers(n))
    c = np.where(m <= reach, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0)
    return wavefunction_from_coeffs(ctx, c, mod)


@pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (2.0, 0.7)])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
def test_wigner_relabels_pairs_that_fit_the_band(monkeypatch, beta, hbar, lam):
    ctx, n = BetaContext(beta, hbar, lam), 48
    rng = np.random.default_rng(23)
    psi = _band_state(ctx, n, rng, 13, 0.37)
    phi = _band_state(ctx, n, rng, n // 2 - 1 - 13, -0.21)  # the pair reaches n/2 - 1
    past = _band_state(ctx, n, rng, n // 2 - 13, -0.21)     # one mode further
    pe = position_eigenvector(ctx, 0.83, n).psi
    fits = [(phi, psi), (psi, phi), (pe, psi), (pe, pe)]
    with monkeypatch.context() as mp:
        forbid(mp, "wigner sampled a pair that fits the band", operator_rep, "_line_values")
        fields = [wigner(a, b) for a, b in fits]
    for (a, b), w in zip(fits, fields):
        ref = _sampled_wigner(a, b)
        assert w.mod == ref.mod
        assert np.abs(w.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()
        outer = np.outer(b.values, np.conj(a.values))
        assert np.abs(kernel_samples(kernel_of(w)) - outer).max() <= 1e-13 * np.abs(outer).max()
    # past the band edge, and for the kinked localization states, wigner samples
    ml = ml_phase_state(ctx, 0.37, n)
    for a, b, w in ((past, psi, wigner(past, psi)), (ml.psi, ml.psi, ml.rho)):
        ref = _sampled_wigner(a, b)
        assert w.mod == ref.mod and np.array_equal(w.values, ref.values)


def test_marginal(ctx):
    # exact at the symmetric ordering: held tighter than the kink schedule of
    # verify's states.ml_marginal
    ml = ml_phase_state(ctx, 0.0, 256)
    p = np.tan(angle_nodes(256))
    ref = (2 / math.pi) / (1 + p ** 2)
    assert np.abs(marginal_momentum(ml.rho) - ref).max() < 1e-8


def test_position_momentum_operators(ctx, rng):
    n = 256
    phi = random_state(ctx, n, rng)
    psi2 = random_state(ctx, n, rng)
    assert abs(wf_inner(phi, qhat_apply(psi2)) - wf_inner(qhat_apply(phi), psi2)) < 1e-11
    assert abs(wf_inner(phi, phat_apply(psi2)) - wf_inner(phat_apply(phi), psi2)) < 1e-11


def _sampled_qhat(psi):
    """The position operator by samples: d/d alpha decoded, scaled and encoded again."""
    m = mode_numbers(psi.n)
    m[psi.n // 2] = 0.0
    d = _line_values(psi.coeffs() * 2j * (m + psi.mod), psi.mod)
    return Wavefunction(psi.ctx, 1j * psi.ctx.hbar * psi.ctx.sqrt_beta * d, mod=psi.mod)


@pytest.mark.parametrize("beta,hbar", [(1.0, 1.0), (2.0, 0.7)])
def test_qhat_scales_the_coefficients(monkeypatch, beta, hbar):
    ctx, n = BetaContext(beta, hbar, 0.3), 64
    rng = np.random.default_rng(41)
    full = rng.standard_normal(n) + 1j * rng.standard_normal(n)  # the Nyquist mode included
    states = [random_state(ctx, n, rng), _band_state(ctx, n, rng, 9, 0.37),
              wavefunction_from_coeffs(ctx, full, -0.21)]
    refs = [_sampled_qhat(psi) for psi in states]
    with monkeypatch.context() as mp:
        forbid(mp, "qhat_apply ran the line codec", sampling, "_line_values", "_line_coeffs")
        forbid(mp, "qhat_apply ran the line codec", operator_rep, "_line_values")
        outs = [qhat_apply(psi) for psi in states]
    for out, ref in zip(outs, refs):
        assert out.mod == ref.mod
        assert np.abs(out.coeffs() - ref.coeffs()).max() <= 1e-13 * np.abs(ref.coeffs()).max()


def test_qhat_differentiates_attached_derivative_samples(ctx):
    # the localization state is kinked at infinity: its exact derivative samples
    # differ from the coefficient scale, and qhat_apply encodes them as given
    ml = ml_phase_state(ctx, 0.37, 64).psi
    out = qhat_apply(ml)
    ref = Wavefunction(ctx, 1j * ctx.hbar * ctx.sqrt_beta * ml.deriv, ml.mod)
    assert out.mod == ml.mod and np.array_equal(out.coeffs(), ref.coeffs())
    assert np.abs(out.coeffs() - _sampled_qhat(wavefunction_from_coeffs(
        ctx, ml.coeffs(), ml.mod)).coeffs()).max() > 1e-6


def test_state_check(ctx, rng):
    n = 128
    a, b = random_state(ctx, n, rng), random_state(ctx, n, rng)
    mix = TorusField(ctx, 0.5 * wigner(a, a).values + 0.5 * wigner(b, b).values)
    rep = state_check(mix)
    assert rep.passed and rep.hermitian and abs(rep.trace - 1) < 1e-10
    off = state_check(wigner(a, b))
    assert not off.hermitian and not off.passed
    ml = ml_phase_state(ctx, 0.0, n)
    rep2 = state_check(ml.rho, eig_tol=-1e-5)
    assert rep2.passed and rep2.min_eig > -1e-5
    d = rep.as_dict()
    assert set(d) >= {"hermitian", "trace", "min_eig", "passed"}


def test_state_check_reads_d_without_sampling(monkeypatch):
    # kernel mod (b.mod, -a.mod): d = b.mod - a.mod = 0.37 pairs no modes, so no
    # self-adjoint kernel has it, and the check decides without sampling anything
    ctx, n = BetaContext(2.0, 0.7, 0.3), 48
    rng = np.random.default_rng(5)
    a, b = _band_state(ctx, n, rng, 5, 0.0), _band_state(ctx, n, rng, 5, 0.37)
    w = wigner(a, b)
    # one state written with modulations 0.13 and 1.13: d = 1, although the mod sum
    # 1.13 - 0.13 rounds off 1, which sampling._integral snaps
    c = _band_state(ctx, n, rng, 5, 0.13).normalized()
    same = wavefunction_from_coeffs(ctx, np.roll(c.coeffs(), -1), 1.13)
    rho = field_from_coeffs(ctx, wigner(c, same).coeffs(), (1.13, -0.13))
    assert sum(kernel_of(rho).mod) != 1.0
    forbid(monkeypatch, "state_check ran a codec", sampling, *CODECS)
    rep = state_check(w)
    assert not rep.hermitian and not rep.passed
    assert rep.hermiticity_residual == math.inf and math.isnan(rep.min_eig)
    assert state_check(rho).passed


def test_mod_sum_snaps_only_what_rounding_explains():
    assert sampling._integral(1.13, -0.13) == 1       # 1.13 - 0.13 = 0.9999999999999999
    assert sampling._integral(0.15, -1.15) == -1
    assert sampling._integral(0.3, 0.375) is None
    off = np.nextafter(1.0, 2.0)  # one ulp of its only nonzero term: a genuine offset
    assert sampling._integral(0.0, off) is None


def test_lattice_neighbours_contract_by_the_signed_pairing(monkeypatch):
    # rho:0.3 and rho:2.3 lie one lattice step apart: their contracted d is -1 in exact
    # arithmetic, which the kernel modulations round to -0.9999999999999999
    ctx, n = BetaContext(1.0, 1.0, 0.5), 64
    rng = np.random.default_rng(12)
    f, g = resolve_family("rho:0.3", ctx, n), resolve_family("rho:2.3", ctx, n)
    # random coefficients under the same two modulations give a product that is not ~0
    fr, gr = (field_from_coeffs(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                                h.mod) for h in (f, g))
    pairs = [(kernel_of(a), kernel_of(b)) for a, b in ((f, g), (fr, gr))]
    assert not any((kf.mod[1] + kg.mod[0]).is_integer() for kf, kg in pairs)
    refs = [_quadrature(kf, kg) for kf, kg in pairs]
    forbid(monkeypatch, "the contracted slot was sampled", operator_rep, "_line_values")
    for (kf, kg), ref in zip(pairs, refs):
        # the projectors of two lattice neighbours are orthogonal: compare on the operands' scale
        scale = np.pi / ctx.sqrt_beta * np.linalg.norm(kf.coef) * np.linalg.norm(kg.coef)
        assert np.abs(compose_kernels(kf, kg).coef - ref).max() <= 1e-12 * scale
    out, ref = compose_kernels(*pairs[1]), refs[1]
    assert np.abs(out.coef - ref).max() <= 1e-12 * np.abs(ref).max()
    # the product keeps the outer modulations, whose sum the same helper reads as 1
    assert star(f, g).mod == (f.mod[0], g.mod[1]) and sampling._integral(*star(f, g).mod) == 1


def test_wigner_snaps_an_integral_modulation_difference():
    # one state written with modulations 0.13 and 1.13: the field keeps (1.13, -0.13), whose
    # sum is 0.9999999999999999, and state_check reads d = 1 through sampling._integral
    ctx, n = BetaContext(2.0, 0.7, 0.3), 48
    rng = np.random.default_rng(5)
    c = _band_state(ctx, n, rng, 5, 0.13).normalized()
    same = wavefunction_from_coeffs(ctx, np.roll(c.coeffs(), -1), 1.13)
    w = wigner(c, same)  # fits the band: the relabeled outer product
    assert w.mod == (1.13, -0.13)
    assert state_check(w).passed
    # a pair that overflows the band is sampled with the same pair, so the check pairs
    # modes (the aliased samples are not self-adjoint, but the residual is finite)
    wide = _band_state(ctx, n, rng, 14, 0.13).normalized()
    ws = wigner(wide, wavefunction_from_coeffs(ctx, np.roll(wide.coeffs(), -1), 1.13))
    plain = wigner(wide, wide)
    assert ws.mod == (1.13, -0.13)
    assert np.abs(ws.values - plain.values).max() <= 1e-12 * np.abs(plain.values).max()
    assert math.isfinite(state_check(ws).hermiticity_residual)


def test_involution_negates_the_nyquist_modes_like_the_adjoint():
    # on a full-band field the Nyquist row and column of the kernel change sign
    ctx, n = BetaContext(1.0, 1.0, 0.5), 16
    rng = np.random.default_rng(8)
    for mod in ((0.0, 0.0), (0.58, -0.21)):
        f = field_from_coeffs(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), mod)
        lhs, rhs = kernel_of(involution(f)).coef, adjoint_kernel(kernel_of(f)).coef
        assert np.abs(lhs - rhs).max() <= 1e-15 * np.abs(rhs).max()
        assert np.array_equal(involution(involution(f)).coeffs(), f.coeffs())


def test_state_check_spectrum_matches_the_sampled_matrix():
    ctx, n = BetaContext(2.0, 0.7, 0.3), 128
    rng = np.random.default_rng(9)
    a, b = random_state(ctx, n, rng), random_state(ctx, n, rng)
    mix = field_from_coeffs(ctx, 0.5 * wigner(a, a).coeffs() + 0.5 * wigner(b, b).coeffs())
    for rho in (ml_phase_state(ctx, 0.37, n).rho, mix):
        M = kernel_samples(kernel_of(rho), weighted=True)
        rep = state_check(rho, herm_tol=1e-4, eig_tol=-1e-5)
        assert rep.passed
        # the coefficient matrix is unitarily similar to M: same spectrum, same Frobenius norms
        assert abs(rep.min_eig - np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min()) <= 1e-14
        res = np.linalg.norm(M - M.conj().T) / np.linalg.norm(M)
        assert abs(rep.hermiticity_residual - res) <= 1e-12


def test_uncertainty(ctx, rng):
    n = 256
    ml = ml_phase_state(ctx, 0.0, n)
    assert uncertainty(ml.psi).dp == pytest.approx(1.0, rel=1e-12)
    for _ in range(20):
        st = random_state(ctx, n, rng, localized=True)
        assert uncertainty(st).gup_slack >= -1e-9
    with pytest.raises(ValueError):
        uncertainty(Wavefunction(ctx, 2.0 * ml.psi.values))


@pytest.mark.parametrize("name", ["wf_inner", "compose_kernels", "hilbert_schmidt",
                                  "apply_operator", "wigner", "lambda_ordered_operator"])
def test_operands_from_different_contexts_are_rejected(name):
    rng = np.random.default_rng(3)
    c1, c2 = BetaContext(1.0, 1.0, 0.5), BetaContext(2.0, 1.0, 0.5)
    f1, f2 = random_element(c1, 16, rng), random_element(c2, 16, rng)
    s1, s2 = random_state(c1, 16, rng), random_state(c2, 16, rng)
    call = {"wf_inner": lambda: wf_inner(s1, s2),
            "compose_kernels": lambda: compose_kernels(kernel_of(f1), kernel_of(f2)),
            "hilbert_schmidt": lambda: hilbert_schmidt(kernel_of(f1), kernel_of(f2)),
            "apply_operator": lambda: apply_operator(f1, s2),
            "wigner": lambda: wigner(s1, s2),
            "lambda_ordered_operator": lambda: lambda_ordered_operator(
                SymbolObservable.position_power(c1, 16, 1))(s2)}[name]
    with pytest.raises(ValueError, match="different contexts"):
        call()


@pytest.mark.parametrize("name", ["kernel_of", "state_check", "marginal_momentum", "element_of",
                                  "adjoint_kernel", "trace_op", "operator_norm", "hilbert_schmidt",
                                  "compose_kernels-field-left", "compose_kernels-field-right"])
def test_operator_maps_reject_the_wrong_carrier_kind(name):
    # a kernel holds its coefficients without the field's 2 pi hbar: read as the other
    # kind it would be scaled wrongly, so each map names the carrier it takes
    ctx = BetaContext(2.0, 0.7, 0.5)
    f = random_element(ctx, 16, np.random.default_rng(3))
    k = kernel_of(f)
    kind, route, *operands = {
        "kernel_of": ("TorusField", kernel_of, k),
        "state_check": ("TorusField", state_check, k),
        "marginal_momentum": ("TorusField", marginal_momentum, k),
        "element_of": ("OperatorKernel", element_of, f),
        "adjoint_kernel": ("OperatorKernel", adjoint_kernel, f),
        "trace_op": ("OperatorKernel", trace_op, f),
        "operator_norm": ("OperatorKernel", operator_norm, f),
        "hilbert_schmidt": ("OperatorKernel", hilbert_schmidt, f, f),
        "compose_kernels-field-left": ("OperatorKernel", compose_kernels, f, k),
        "compose_kernels-field-right": ("OperatorKernel", compose_kernels, k, f)}[name]
    with pytest.raises(TypeError, match=f"must be an? {kind}, got "):
        route(*operands)
