import numpy as np
import pytest

from gupstar.beta_arith import BetaContext
from gupstar.families import random_element, random_qlocalized, random_state
from gupstar.operator_rep import wigner
from gupstar.sampling import TorusField, angle_nodes, field_from_coeffs, mode_numbers, synth_grid
from gupstar.star_algebra import inner
from gupstar.transforms import (SymplecticPair, _pair_lattice, conv_generalized, conv_unit,
                                symplectic_fourier, twisted_conv)


def test_self_inverse_and_tag(ctx, rng):
    f = random_element(ctx, 32, rng)
    pair = symplectic_fourier(f)
    assert isinstance(pair, SymplecticPair) and pair.transformed
    assert np.array_equal(pair.values, f.values.T)
    back = symplectic_fourier(pair)
    assert not back.transformed
    assert np.array_equal(back.values, f.values)
    with pytest.raises(TypeError):
        symplectic_fourier(3.0)


def test_symmetric_fixed_point(ctx, rng):
    f = random_element(ctx, 32, rng)
    sym = TorusField(ctx, 0.5 * (f.values + f.values.T))
    assert np.abs(symplectic_fourier(sym).values - sym.values).max() < 1e-14


def test_conv_unit_and_commutativity(ctx, rng):
    n = 48
    f = random_element(ctx, n, rng)
    g = random_element(ctx, n, rng)
    u = conv_unit(ctx, n)
    assert np.abs(conv_generalized(f, u).values - f.values).max() < 1e-10
    c1 = conv_generalized(f, g)
    c2 = conv_generalized(g, f)
    assert np.abs(c1.values - c2.values).max() < 1e-10 * np.abs(c1.values).max()


def test_conv_unit_matches_bruteforce_solve(ctx, rng):
    """Solve the convolution identity as a linear system on a 16x16 grid.

    The quadrature form of the row convolution is a circulant system in the
    unit's offset values; solving it for a random row must reproduce the
    discrete point mass that conv_unit carries.
    """
    n = 16
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)  # full-band row
    w = (np.pi / n) / ctx.sqrt_beta
    A = np.empty((n, n), dtype=complex)
    for k in range(n):
        for t in range(n):
            A[k, t] = w * row[(k - t) % n]
    x = np.linalg.solve(A, row)
    expected = np.zeros(n, dtype=complex)
    expected[0] = ctx.sqrt_beta * n / np.pi
    assert np.abs(x - expected).max() < 1e-9 * np.abs(expected[0])
    # and the packaged unit takes exactly these values at the offset points
    u = conv_unit(ctx, n)
    m = mode_numbers(n)
    offs = np.array([(ctx.sqrt_beta / np.pi) * np.exp(2j * m * (np.pi * t / n)).sum()
                     for t in range(n)])
    assert np.abs(offs - expected).max() < 1e-10 * np.abs(expected[0])
    assert np.abs(u.values[0].sum() * (np.pi / n) / ctx.sqrt_beta - 1.0) < 1e-12


def test_product_convolution_exchange(rng):
    for lam in (0.0, 0.5, 0.31):
        ctx = BetaContext(1.0, 1.0, lam)
        n = 64
        f = random_qlocalized(ctx, n, rng)
        g = random_qlocalized(ctx, n, rng)
        pair = conv_generalized(symplectic_fourier(f), symplectic_fourier(g))
        h = symplectic_fourier(pair).field
        h = h.with_values(h.values / (2 * np.pi * ctx.hbar))
        qs = np.linspace(-4, 4, 9)
        ps = np.linspace(-3, 3, 7)
        lhs = synth_grid(h, qs, ps)
        rhs = synth_grid(f, qs, ps) * synth_grid(g, qs, ps)
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-8


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("gmod", [(0.58, -0.21), (-0.4 + 1.13, 0.4)])
def test_pair_convolution_matches_the_wrapped_sum(n, lam, gmod):
    # T[r, k] = pi/(n sqrt(beta)) sum_j F[j, r] G(wrap(a_k - a_j), a_r), G read off its
    # full-band modulated coefficients by an explicit mode sum at the wrapped angles
    ctx = BetaContext(2.0, 0.7, lam)
    rng = np.random.default_rng(n)
    F, G = (field_from_coeffs(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                              mod) for mod in ((0.0, 0.0), gmod))
    ts = np.arange(-(n // 2), n // 2)  # wrap(a_k - a_j) = pi t/n, t in [-n/2, n/2)
    nu, bt = G.freq_grids()
    phase = np.exp(2j * (nu * (np.pi * ts / n)[:, None, None, None]
                         + bt * angle_nodes(n)[None, :, None, None]))  # [t, r, c, b]
    gt = np.einsum("cb,trcb->tr", G.coeffs(), phase)
    t = (np.arange(n)[:, None] - np.arange(n)[None, :] + n // 2) % n  # [k, j]: index into ts
    ref = np.pi / (n * ctx.sqrt_beta) * np.einsum("jr,kjr->rk", F.values, gt[t])
    out = conv_generalized(symplectic_fourier(F), symplectic_fourier(G)).values
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def _twisted_conv_with_phase_tables(u, v):
    """Reference: the exponential-table discretization the line-codec route replaced.

    The same midpoint sums, with the u rows, the alpha sums and the closing
    lattice-to-angle sum written as explicit n x n phase tables and a matrix
    product per lattice index, O(n^4).
    """
    F, G = u.field, v.field
    ctx, n = F.ctx, F.n
    lam, hs = ctx.lam, ctx.hbar * ctx.sqrt_beta
    ap = angle_nodes(n)
    m = mode_numbers(n).astype(int)
    UL = _pair_lattice(u, m)
    VC = G.coeffs().T[(-m) % n] / (2 * hs)
    O = np.zeros((n, n), dtype=complex)
    for i2, m2 in enumerate(m):
        d = m2 - m
        VCg = np.where(((d >= -(n // 2)) & (d < n // 2))[:, None], VC[d % n], 0)
        W = UL * np.exp(2j * (1 - lam) * np.outer(d, ap))
        Mje = W.T @ VCg  # (j, e)
        freq = mode_numbers(n) - lam * m2
        T = (np.exp(-2j * np.outer(ap, freq)) * Mje).sum(axis=0)
        O[i2] = (2 * np.pi * ctx.hbar / n) * (np.exp(2j * np.outer(ap, freq)) @ T)
    tagged = 2 * hs * (np.exp(-2j * np.outer(ap, m)) @ O)
    return tagged.T


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("lam", [0.0, 0.31, 0.5, 1.0])
def test_twisted_conv_matches_the_phase_table_route(n, lam):
    ctx = BetaContext(2.0, 0.7, lam)
    rng = np.random.default_rng(n)
    band = random_element(ctx, n, rng), random_element(ctx, n, rng)
    full = tuple(field_from_coeffs(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                 for _ in range(2))
    for f, g in (band, full):
        u, v = symplectic_fourier(f), symplectic_fourier(g)
        ref = _twisted_conv_with_phase_tables(u, v)
        out = twisted_conv(u, v).field.values
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    zero = symplectic_fourier(TorusField(ctx, np.zeros((n, n), complex)))
    assert np.abs(twisted_conv(zero, symplectic_fourier(band[1])).field.values).max() == 0.0
    assert np.abs(_twisted_conv_with_phase_tables(zero, symplectic_fourier(band[1]))).max() == 0.0


def test_twisted_conv_zero_and_origin(ctx, rng):
    n = 32
    g = random_element(ctx, n, rng)
    zero = TorusField(ctx, np.zeros((n, n), complex))
    out = twisted_conv(symplectic_fourier(zero), symplectic_fourier(g))
    assert np.abs(out.field.values).max() == 0.0

    # at the symmetric ordering the value at the origin is the plain overlap:
    # the origin value of a transformed object is the trace of its source
    from gupstar.star_algebra import pointwise_trace, trace
    a1 = random_state(ctx, n, rng, parity=0)
    f = wigner(a1, a1)  # real-valued element at lam = 1/2
    tc = twisted_conv(symplectic_fourier(f), symplectic_fourier(f))
    origin = trace(symplectic_fourier(tc).field)
    expected = 2 * np.pi * ctx.hbar * pointwise_trace(f, f)
    assert abs(origin - expected) < 1e-8 * abs(expected)


def test_parseval(ctx, rng):
    f = random_element(ctx, 64, rng)
    g = random_element(ctx, 64, rng)
    pf, pg = symplectic_fourier(f), symplectic_fourier(g)
    assert abs(inner(f, g) - inner(pf.field.with_values(pf.values),
                                   pg.field.with_values(pg.values))) < 1e-12
