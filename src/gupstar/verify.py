"""Named invariant suites behind the `verify` command.

Each suite returns a list of check results with a stable name, the measured
residual, and the tolerance it was held to.  Heavy cross-checks that need an
independent slow code path run on reduced internal grids (their names say so);
checks that need spectral margins are skipped with an explicit marker when the
configured grid is too coarse to carry them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import beta_arith as ba
from .beta_arith import INFINITY, BetaContext
from .families import random_element, random_qlocalized, random_state
from .formal_cas import (ALT, MAIN, FormalPoly, classical_limit, formal_commutator,
                         formal_eval, formal_star)
from .operator_rep import (adjoint_kernel, apply_operator, compose_kernels,
                           element_of, hilbert_schmidt, kernel_of, lambda_ordered_operator,
                           marginal_momentum, operator_norm, phat_apply, qhat_apply,
                           state_check, trace_op, uncertainty, wigner)
from .sampling import (AngleGrid, TorusField, Wavefunction, _line_values,
                       analyze, angle_nodes, deriv_p, deriv_pprime, field_from_coeffs,
                       lattice_from_field, mode_numbers, quad_mu, seminorm, shift_field,
                       synth, synth_grid, wf_inner)
from .star_algebra import (SymbolObservable, cstar_norm_estimate, expectation, inner,
                           involution, norm2, pointwise_trace, s_operator, star, star_direct,
                           star_symbol_left, star_symbol_right, trace)
from .states import (eigenvector_flags, ml_phase_state, ml_sinc_form,
                     position_eigenvector)
from .transforms import (SymplecticPair, conv_generalized, conv_unit,
                         mult_by_q, symplectic_fourier, twisted_conv)

__all__ = ["RunConfig", "CheckResult", "SUITES", "run_suites"]


@dataclass(frozen=True)
class RunConfig:
    beta: float = 1.0
    hbar: float = 1.0
    lam: float = 0.5
    grid_n: int = 256
    seed: int = 42

    def ctx(self) -> BetaContext:
        return BetaContext(self.beta, self.hbar, self.lam)


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""

    def as_dict(self) -> dict:
        measured = None if math.isnan(self.measured) else self.measured
        d = {"name": self.name, "measured": measured,
             "tolerance": self.tolerance, "pass": bool(self.passed)}
        if self.skipped:
            d["skipped"] = True
        if self.note:
            d["note"] = self.note
        return d


class _Suite:
    def __init__(self, cfg: RunConfig):
        self.rng = np.random.default_rng(cfg.seed)
        self.out: List[CheckResult] = []

    def check(self, name: str, measured: float, tol: float, note: str = "") -> None:
        m = float(measured)
        self.out.append(CheckResult(name, m, tol, bool(m <= tol), note=note))

    def check_true(self, name: str, ok: bool, note: str = "") -> None:
        self.out.append(CheckResult(name, 0.0 if ok else 1.0, 0.0, bool(ok), note=note))

    def skip(self, name: str, note: str) -> None:
        self.out.append(CheckResult(name, float("nan"), 0.0, True, skipped=True, note=note))


def _rel(a, b, scale=None) -> float:
    num = np.abs(np.asarray(a) - np.asarray(b)).max()
    if scale is None:
        scale = max(np.abs(np.asarray(b)).max(), 1e-300)
    return float(num / scale)


def _field_err(f: TorusField, g: TorusField, rel: bool = True) -> float:
    num = np.abs(f.values - g.values).max()
    if not rel:
        return float(num)
    return float(num / max(np.abs(g.values).max(), 1e-300))


# ---------------------------------------------------------------------------
# suite: generalized arithmetic
# ---------------------------------------------------------------------------

def suite_arithmetic(cfg: RunConfig) -> List[CheckResult]:
    s = _Suite(cfg)
    ctx = cfg.ctx()
    rng = s.rng

    def rand_ext():
        r = rng.uniform()
        if r < 0.08:
            return INFINITY
        return float(rng.standard_normal() * 3.0)

    worst_assoc = worst_comm = 0.0
    ok_neutral = ok_inverse = True
    for _ in range(400):
        x, y, z = rand_ext(), rand_ext(), rand_ext()
        l = ba.oplus(ctx, x, ba.oplus(ctx, y, z))
        r = ba.oplus(ctx, ba.oplus(ctx, x, y), z)
        worst_assoc = max(worst_assoc, _angle_gap(ctx, l, r))
        worst_comm = max(worst_comm, _angle_gap(ctx, ba.oplus(ctx, x, y), ba.oplus(ctx, y, x)))
        ok_neutral &= _angle_gap(ctx, ba.oplus(ctx, x, 0.0), x) < 1e-12
        inv = ba.oplus(ctx, x, ba.negate(x))
        ok_inverse &= ba.is_infinite(inv) is False and abs(float(inv)) < 1e-9 * (1 + _mag(x))
    # the singular pairing beta x y = 1 must land on infinity, not blow up
    x = 2.0
    s.check_true("arith.singular_pair_is_infinity",
                 ba.is_infinite(ba.oplus(ctx, x, 1.0 / (ctx.beta * x))))
    s.check("arith.assoc_mod_pi", worst_assoc, 1e-11)
    s.check("arith.comm_mod_pi", worst_comm, 1e-12)
    s.check_true("arith.neutral_element", ok_neutral)
    s.check_true("arith.inverse_element", ok_inverse)
    s.check_true("arith.infinity_table",
                 ba.oplus(ctx, INFINITY, INFINITY) == 0.0
                 and ba.is_infinite(ba.oplus(ctx, 0.0, INFINITY))
                 and abs(ba.oplus(ctx, 1.0, INFINITY) + 1.0 / ctx.beta) < 1e-14)

    worst = 0.0
    for _ in range(2000):
        x, y = rand_ext(), rand_ext()
        worst = max(worst, _angle_gap(ctx, ba.oplus(ctx, x, y), x, y))
    s.check("arith.homomorphism_mod_pi", worst, 1e-12)

    worst_d1 = worst_d2 = 0.0
    for _ in range(400):
        lam1, lam2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        # scalar scaling distributes over addition on principal-range sums
        ax, ay = rng.uniform(-0.95 * math.pi / 4, 0.95 * math.pi / 4, 2)
        x = ba.momentum_of(ctx, ax)
        y = ba.momentum_of(ctx, ay)
        a = ba.circ(ctx, lam1, ba.oplus(ctx, x, y))
        b = ba.oplus(ctx, ba.circ(ctx, lam1, x), ba.circ(ctx, lam1, y))
        worst_d1 = max(worst_d1, _angle_gap(ctx, a, b))
        z = rand_ext()
        c = ba.oplus(ctx, ba.circ(ctx, lam1, z), ba.circ(ctx, lam2, z))
        d = ba.circ(ctx, lam1 + lam2, z)
        worst_d2 = max(worst_d2, _angle_gap(ctx, c, d))
    s.check("arith.circ_distributive", worst_d1, 1e-12,
            note="principal-range sums; scaling is not a circle homomorphism")
    s.check("arith.circ_additive", worst_d2, 1e-12)

    worst = 0.0
    for _ in range(400):
        x = float(rng.standard_normal() * 3.0) or 0.7
        half = ba.circ(ctx, 0.5, x)
        ref = x / (math.sqrt(1 + ctx.beta * x * x) + 1)  # stable form of the half point
        worst = max(worst, abs(half - ref) / max(abs(ref), 1e-30))
    s.check("arith.half_point_identity", worst, 1e-12)

    p1 = 1.0 / ctx.sqrt_beta
    s.check("arith.pairing_bilinear",
            abs(ba.pairing(ctx, 2.0, ba.oplus(ctx, p1, 0.5))
                - ba.pairing(ctx, 2.0, p1) - ba.pairing(ctx, 2.0, 0.5)), 1e-12)
    s.check_true("arith.angle_round_trip",
                 ba.is_infinite(ba.momentum_of(ctx, ba.angle_of(ctx, INFINITY)))
                 and abs(ba.momentum_of(ctx, ba.angle_of(ctx, 1.25)) - 1.25) < 1e-12)
    return s.out


def _mag(x):
    return 0.0 if ba.is_infinite(x) else abs(float(x))


def _angle_gap(ctx, x, y, z=0.0) -> float:
    """Distance modulo pi between the angle of x and the angle sum of y and z."""
    d = ba.angle_of(ctx, x) - ba.angle_of(ctx, y) - ba.angle_of(ctx, z)
    return abs(ba.canon_angle(d))


# ---------------------------------------------------------------------------
# suite: sampling substrate
# ---------------------------------------------------------------------------

def suite_sampling(cfg: RunConfig) -> List[CheckResult]:
    s = _Suite(cfg)
    ctx = cfg.ctx()
    n = cfg.grid_n
    grid = AngleGrid(n)
    a = angle_nodes(n)

    s.check("sampling.quad_constant",
            abs(quad_mu(ctx, grid, np.ones(n)) - math.pi / ctx.sqrt_beta), 1e-12)
    s.check("sampling.quad_oscillatory",
            abs(quad_mu(ctx, grid, np.exp(2j * a))), 1e-14)

    psi0 = Wavefunction(ctx, np.full(n, math.sqrt(ctx.sqrt_beta / math.pi), dtype=complex))
    s.check("sampling.psi0_normalized",
            abs(quad_mu(ctx, grid, np.abs(psi0.values) ** 2) - 1.0), 1e-13)

    if n < 16:
        s.skip("sampling.translation_invariance", "insufficient resolution")
        s.skip("sampling.shift_exactness", "insufficient resolution")
        s.skip("sampling.synth_analyze_roundtrip", "insufficient resolution")
    else:
        psi = random_state(ctx, n, s.rng)
        worst = 0.0
        for _ in range(5):
            eta = float(s.rng.uniform(-2, 2))
            shifted = psi.at_offset(-math.atan(ctx.sqrt_beta * eta))
            worst = max(worst, abs(quad_mu(ctx, grid, np.abs(shifted) ** 2)
                                   - quad_mu(ctx, grid, np.abs(psi.values) ** 2)))
        s.check("sampling.translation_invariance", worst, 1e-12)

        f = random_element(ctx, n, s.rng)
        g1 = shift_field(f, 0.0, math.pi / n)
        s.check("sampling.shift_on_grid",
                _rel(g1.values, np.roll(f.values, -1, axis=1)), 1e-12)
        g2 = shift_field(f, 0.0, math.pi)
        s.check("sampling.shift_alpha_period", _field_err(g2, f), 1e-12)
        d1, d2 = s.rng.uniform(-1, 1, 2)
        h = shift_field(shift_field(f, d1, d2), -d1, -d2)
        s.check("sampling.shift_exactness", _field_err(h, f), 1e-11)

        # the round trip needs a field whose position content sits on the
        # lattice: integer first-slot frequencies
        fi = _lattice_band_limited(ctx, n, s.rng)
        lat = lattice_from_field(fi, half_width=n // 2)
        back = analyze(ctx, lat)
        s.check("sampling.synth_analyze_roundtrip", _field_err(back, fi), 1e-10)

    rho0 = position_eigenvector(ctx, 0.0, n).rho
    s.check("sampling.synth_rho0_center", abs(synth(rho0, 0.0, 0.3) - 1.0), 1e-12)
    s.check("sampling.synth_rho0_lattice_zero",
            abs(synth(rho0, ctx.q_lattice_step, -0.7)), 1e-12)

    const = TorusField(ctx, np.ones((n, n), dtype=complex))
    s.check("sampling.seminorm_constant", seminorm(const, 1, 1), 1e-12)
    modef = TorusField(ctx, np.exp(2j * a)[:, None] * np.ones((1, n)))
    s.check("sampling.seminorm_first_slot_mode",
            abs(seminorm(modef, 1, 0) - 2 * ctx.sqrt_beta), 1e-10)
    s.check("sampling.seminorm_sup", abs(seminorm(modef, 0, 0) - 1.0), 1e-12)
    return s.out


# ---------------------------------------------------------------------------
# suite: transforms
# ---------------------------------------------------------------------------

def _pair_lattice(pair: SymplecticPair, ms: np.ndarray) -> np.ndarray:
    """Values of a transformed pair on the position lattice times the grid."""
    F = pair.field
    n = F.n
    fc = F.coeffs()
    lam = F.ctx.lam
    out = np.empty((ms.size, n), dtype=complex)
    for i, m in enumerate(ms):
        col = fc[:, int(-m) % n] if abs(m) <= n // 2 else np.zeros(n, complex)
        out[i] = _line_values(col, -lam * m) / (2 * F.ctx.hbar * F.ctx.sqrt_beta)
    return out


def suite_transforms(cfg: RunConfig) -> List[CheckResult]:
    s = _Suite(cfg)
    ctx = cfg.ctx()
    n = cfg.grid_n
    if n < 32:
        s.skip("transforms.all", "insufficient resolution")
        return s.out

    f = random_element(ctx, min(n, 64), s.rng)
    pair = symplectic_fourier(f)
    back = symplectic_fourier(pair)
    s.check_true("transforms.self_inverse",
                 (not back.transformed) and np.array_equal(back.values, f.values))
    sym = TorusField(ctx, (f.values + f.values.T) / 2)
    s.check("transforms.symmetric_fixed_point",
            _rel(symplectic_fourier(sym).values, sym.values), 1e-14)

    # brute double-quadrature cross-check of the transform on a small grid
    nb = 32
    fb = _lattice_band_limited(ctx, nb, s.rng)
    ms = np.arange(-nb // 2, nb // 2 + 1)
    lat = lattice_from_field(fb, half_width=nb // 2)
    ab = angle_nodes(nb)
    E = np.exp(-2j * np.outer(ab, ms))          # q integral: lattice transform
    qtr = ctx.q_lattice_step * np.einsum("jm,mk->jk", E, lat.values)
    w = (np.pi / nb) / ctx.sqrt_beta
    brute = np.empty((ms.size, nb), dtype=complex)
    for i, m in enumerate(ms):                   # mu integral against e^{i(q', p)}
        brute[i] = w * (qtr * np.exp(2j * m * ab)[None, :]).sum(axis=1) / (2 * np.pi * ctx.hbar)
    ref = _pair_lattice(symplectic_fourier(fb), ms)
    s.check("transforms.fourier_brute_quadrature", _rel(brute, ref), 1e-8,
            note="independent double quadrature, 32x32")

    u = conv_unit(ctx, min(n, 64))
    g = random_element(ctx, min(n, 64), s.rng)
    s.check("transforms.conv_unit", _field_err(conv_generalized(g, u), g), 1e-10)
    h = random_element(ctx, min(n, 64), s.rng)
    s.check("transforms.conv_commutative",
            _rel(conv_generalized(g, h).values, conv_generalized(h, g).values), 1e-10)

    nq = min(max(n, 64), 128)
    fq = random_qlocalized(ctx, nq, s.rng)
    gq = random_qlocalized(ctx, nq, s.rng)
    pp = conv_generalized(symplectic_fourier(fq), symplectic_fourier(gq))
    hh = symplectic_fourier(pp).field
    hh = hh.with_values(hh.values / (2 * np.pi * ctx.hbar))
    qs = np.linspace(-4, 4, 9)
    ps = np.linspace(-3, 3, 7)
    lhs = synth_grid(hh, qs, ps)
    rhs = synth_grid(fq, qs, ps) * synth_grid(gq, qs, ps)
    s.check("transforms.product_convolution_exchange", _rel(lhs, rhs), 1e-8,
            note="transform of pointwise product vs convolution of transforms")

    nt = 32
    ft = random_element(ctx, nt, s.rng)
    gt = random_element(ctx, nt, s.rng)
    tc = twisted_conv(symplectic_fourier(ft), symplectic_fourier(gt))
    s.check("transforms.twisted_conv_defining_relation",
            _rel(tc.field.values, 2 * np.pi * ctx.hbar * star(ft, gt).values), 1e-8,
            note="independent lattice route vs kernel-composition star, 32x32")
    ht = random_element(ctx, nt, s.rng)
    t1 = twisted_conv(tc, symplectic_fourier(ht))
    t2 = twisted_conv(symplectic_fourier(ft),
                      twisted_conv(symplectic_fourier(gt), symplectic_fourier(ht)))
    s.check("transforms.twisted_conv_associative",
            _rel(t1.field.values, t2.field.values), 1e-8)
    zero = TorusField(ctx, np.zeros((nt, nt), complex))
    s.check("transforms.twisted_conv_zero",
            np.abs(twisted_conv(symplectic_fourier(zero), symplectic_fourier(gt)).field.values).max(),
            1e-300)

    # derivative/multiplication exchange under the transform, lattice route
    nf = min(max(n, 64), 96)
    fl = random_qlocalized(ctx, nf, s.rng)
    ms2 = np.arange(-nf // 2, nf // 2)
    lhs = _pair_lattice(symplectic_fourier(fl), ms2) * (ms2 * ctx.q_lattice_step)[:, None]
    rhs = _pair_lattice(symplectic_fourier(deriv_p(fl)), ms2) * (1j * ctx.hbar)
    s.check("transforms.position_mult_exchanges_momentum_derivative",
            _rel(lhs, rhs), 1e-8)
    atan = np.arctan(ctx.sqrt_beta * np.tan(angle_nodes(nf))) / ctx.sqrt_beta
    lhs2 = _pair_lattice(symplectic_fourier(fl), ms2) * atan[None, :]
    dq = fl.with_values(fl.values * (1j / (ctx.hbar * ctx.sqrt_beta)) * angle_nodes(nf)[:, None])
    rhs2 = _pair_lattice(symplectic_fourier(dq), ms2) * (-1j * ctx.hbar)
    s.check("transforms.angle_mult_exchanges_position_derivative",
            _rel(lhs2, rhs2), 1e-8)

    s.check("transforms.parseval",
            abs(inner(f, f).real - inner(symplectic_fourier(f).field, symplectic_fourier(f).field).real)
            / max(inner(f, f).real, 1e-300), 1e-12)

    s.check("transforms.mult_by_q_constant",
            np.abs(mult_by_q(TorusField(ctx, np.ones((nf, nf), complex))).values).max(), 1e-12)
    rho = position_eigenvector(ctx, 1.3, nf).rho
    s.check("transforms.mult_by_q_eigenphase",
            _rel(mult_by_q(rho).values, 1.3 * rho.values), 1e-11)
    return s.out


# ---------------------------------------------------------------------------
# suite: star algebra
# ---------------------------------------------------------------------------

def brute_star_7b(f: TorusField, g: TorusField, ms: np.ndarray) -> np.ndarray:
    """Independent double-quadrature star product on the lattice times grid.

    Direct two-momentum-integral discretization with explicit mode sums and
    canonical angle composition; no shared code with the kernel route.
    """
    ctx, n = f.ctx, f.n
    lam = ctx.lam
    a = angle_nodes(n)
    fc, gc = f.coeffs(), g.coeffs()
    nuf, btf = f.freq_grids()
    nug, btg = g.freq_grids()

    def field_eval(coefs, nu, bt, ap_vals, a_vals):
        # direct mode sum at arbitrary points (ap_vals, a_vals), same shape
        out = np.zeros(np.broadcast(ap_vals, a_vals).shape, dtype=complex)
        for ic in range(n):
            for ib in range(n):
                cv = coefs[ic, ib]
                if cv == 0:
                    continue
                out = out + cv * np.exp(2j * (nu[ic, ib] * ap_vals + bt[0, ib] * a_vals))
        return out

    w = (np.pi / n) / ctx.sqrt_beta
    pref = w * w / (2 * np.pi * ctx.hbar) ** 2
    out = np.zeros((ms.size, n), dtype=complex)
    A2, A1 = np.meshgrid(a, a, indexing="ij")  # A1 = alpha' nodes, A2 = alpha'' nodes
    for k, alpha in enumerate(a):
        arg_f = np.arctan(np.tan(alpha + lam * A2))      # canonical <alpha + lam a''>
        arg_g = np.arctan(np.tan(alpha - (1 - lam) * A1))
        Fv = field_eval(fc, nuf, btf, A1, arg_f)
        Gv = field_eval(gc, nug, btg, A2, arg_g)
        phase_angle = A1 + A2
        for i, m in enumerate(ms):
            phases = np.exp(2j * m * phase_angle)
            out[i, k] = pref * (Fv * Gv * phases).sum()
    return out


def suite_star_algebra(cfg: RunConfig) -> List[CheckResult]:
    s = _Suite(cfg)
    ctx = cfg.ctx()
    n = cfg.grid_n
    if n < 32:
        s.skip("star.all", "insufficient resolution")
        return s.out

    # --- oracle comparisons ------------------------------------------------
    n8 = 8
    if ctx.lam in (0.0, 0.5, 1.0):
        parity = 1 if ctx.lam == 0.5 else None
        f8 = random_element(ctx, n8, s.rng, mmax=1, parity=parity)
        g8 = random_element(ctx, n8, s.rng, mmax=1, parity=parity)
    else:
        # momentum-diagonal fields keep the oracle quadrature exact at any lam
        f8 = _momentum_diagonal(ctx, n8, s.rng)
        g8 = _momentum_diagonal(ctx, n8, s.rng)
    ms = np.arange(-4, 5)  # keeps every oracle frequency below the alias bound
    brute = brute_star_7b(f8, g8, ms)
    prod = lattice_from_field(star(f8, g8), ms[-1]).values
    s.check("star.vs_brute_double_quadrature", _rel(prod, brute), 1e-8,
            note="independent two-integral oracle, 8x8 grid")

    nd = 32
    fd = random_element(ctx, nd, s.rng)
    gd = random_element(ctx, nd, s.rng)
    s.check("star.vs_direct_twisted_convolution",
            _rel(star_direct(fd, gd).values, star(fd, gd).values), 1e-10,
            note="one-integral midpoint route, 32x32")

    # --- algebraic structure -------------------------------------------------
    na = min(n, 128)
    worst = 0.0
    for _ in range(5):
        f, g, h = (random_element(ctx, na, s.rng) for _ in range(3))
        l = star(star(f, g), h)
        r = star(f, star(g, h))
        worst = max(worst, np.abs(l.values - r.values).max()
                    / (norm2(f) * norm2(g) * norm2(h)))
    s.check("star.associativity", worst, 1e-8)

    f, g = random_element(ctx, na, s.rng), random_element(ctx, na, s.rng)
    s.check("star.trace_cyclic", abs(trace(star(f, g)) - trace(star(g, f))), 1e-9)

    ctx_h = ctx.with_lam(0.5)
    fh = random_element(ctx_h, na, s.rng, parity=0)
    gh = random_element(ctx_h, na, s.rng, parity=0)
    s.check("star.symmetric_trace_is_pointwise",
            abs(trace(star(fh, gh)) - pointwise_trace(fh, gh)), 1e-8,
            note="symmetric ordering, matched-parity fields")

    s.check("star.involution_antihom",
            _rel(involution(star(f, g)).values, star(involution(g), involution(f)).values), 1e-8)
    s.check("star.involution_involutive",
            _field_err(involution(involution(f)), f, rel=False), 1e-10)
    s.check("star.involution_isometry", abs(norm2(involution(f)) - norm2(f)), 1e-10)
    a_st = random_state(ctx_h, na, s.rng)
    b_st = random_state(ctx_h, na, s.rng)
    freal = TorusField(ctx_h, wigner(a_st, b_st).values + wigner(b_st, a_st).values)
    s.check("star.symmetric_involution_is_conjugation",
            _field_err(involution(freal), freal), 1e-10,
            note="real-valued element is a fixed point when lam = 1/2")

    s.check("star.s_operator_identity_at_half",
            _field_err(s_operator(fh), fh), 1e-12)
    s.check("star.s_operator_trace", abs(trace(s_operator(f)) - trace(f)), 1e-10)
    sf, sg = s_operator(f), s_operator(g)
    s.check("star.s_operator_ordering_flip",
            _rel(s_operator(star(f, g)).values, star(sf, sg).values), 1e-8)

    s.check("star.inner_vs_trace_form",
            abs(inner(f, g) - trace(star(involution(f), g))), 1e-9)
    s.check_true("star.inner_positive", inner(f, f).real >= 0)

    s.check("star.submultiplicative",
            max(0.0, norm2(star(f, g)) - (1 + 1e-9) * norm2(f) * norm2(g)), 1e-300)

    # Leibniz rules
    nl = max(na, 128)
    fl = random_element(ctx, nl, s.rng, localized=True)
    gl = random_element(ctx, nl, s.rng, localized=True)
    l = deriv_p(star(fl, gl))
    r1 = star(deriv_p(fl), gl)
    r2 = star(fl, deriv_p(gl))
    s.check("star.momentum_derivation",
            _rel(l.values, r1.values + r2.values), 1e-9)
    saw = angle_nodes(nl) * (1j / (ctx.hbar * ctx.sqrt_beta))
    dq = lambda x: x.with_values(x.values * saw[:, None])
    l = dq(star(fl, gl))
    r = star(dq(fl), gl).values + star(fl, dq(gl)).values
    s.check("star.position_derivation", _rel(l.values, r), 1e-8,
            note="localized fields; seam contributions below tolerance")

    lq = deriv_pprime(star(fl, gl))
    r_first = ctx.lam * star(deriv_p(fl), gl).values + star(fl, deriv_pprime(gl)).values
    s.check("star.first_slot_recursion",
            _rel(lq.values, r_first), 1e-8,
            note="D_p' (f o g) = lam D_p f o g + f o D_p' g")

    # seminorm continuity bound for orders up to one
    fb = random_element(ctx, 48, s.rng)
    gb = random_element(ctx, 48, s.rng)
    prod = star(fb, gb)
    ok = True
    margin = 1e-9
    for nn in (0, 1):
        for mm in (0, 1):
            lhs = seminorm(prod, nn, mm)
            rhs = 0.0
            for kk in range(nn + 1):
                for ll in range(mm + 1):
                    rhs += (math.comb(nn, kk) * math.comb(mm, ll) * ctx.lam ** kk
                            * seminorm(fb, 0, kk + ll) * seminorm(gb, nn - kk, mm - ll))
            rhs /= (2 * ctx.hbar * ctx.sqrt_beta)
            ok &= lhs <= rhs * (1 + 1e-9) + margin
    s.check_true("star.seminorm_continuity_bound", ok)

    # C*-norm estimates
    rho0 = position_eigenvector(ctx, 0.0, na).rho
    s.check("star.cstar_projection_norm", abs(cstar_norm_estimate(rho0) - 1.0), 1e-7)
    nf = cstar_norm_estimate(f)
    s.check("star.cstar_property",
            abs(cstar_norm_estimate(star(involution(f), f)) - nf ** 2) / nf ** 2, 1e-6)
    s.check("star.cstar_below_l2", max(0.0, nf - norm2(f) * (1 + 1e-9)), 1e-300)

    # unbounded symbols
    one = SymbolObservable.position_power(ctx, na, 0)
    s.check("star.symbol_unit", _field_err(star_symbol_left(one, f), f), 1e-12)
    qsym = SymbolObservable.position_power(ctx, nl, 1)
    lcomm = star_symbol_left(qsym, gl).values - star_symbol_right(gl, qsym).values
    s.check("star.symbol_commutator_is_derivative",
            _rel(lcomm, 1j * ctx.hbar * deriv_p(gl).values), 1e-8)

    rho_ml = ml_phase_state(ctx, 1.5, na).rho
    e_q = expectation(SymbolObservable.position_power(ctx, na, 1), rho_ml)
    s.check("star.expectation_position_on_localized", abs(e_q - 1.5),
            _kink_tol(na, 3e-3), note="grid-limited localization state")
    s.check("star.expectation_unit", abs(expectation(one, rho_ml) - 1.0), 1e-8)
    odd = SymbolObservable.from_momentum_function(
        ctx, na, lambda p: np.arctan(ctx.sqrt_beta * p), power=0)
    s.check("star.expectation_odd_symbol_vanishes",
            abs(expectation(odd, ml_phase_state(ctx, 0.0, na).rho)),
            _kink_tol(na, 3e-8), note="parity of the localization profile")
    return s.out


def _momentum_diagonal(ctx, n, rng) -> TorusField:
    coef = np.zeros((n, n), dtype=complex)
    coef[:, 0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coef[np.abs(mode_numbers(n)) > n // 4, 0] = 0
    return field_from_coeffs(ctx, coef)


def _lattice_band_limited(ctx, n, rng) -> TorusField:
    """Random element with integer first-slot frequencies.

    Full Wigner-pair content when the ordering makes that possible, otherwise
    a momentum-diagonal element.
    """
    if ctx.lam in (0.0, 1.0):
        return random_element(ctx, n, rng)
    if ctx.lam == 0.5:
        return random_element(ctx, n, rng, parity=0)
    return _momentum_diagonal(ctx, n, rng)


def _kink_tol(n: int, base_at_512: float) -> float:
    return base_at_512 * max((512.0 / n) ** 2, 1.0)


# ---------------------------------------------------------------------------
# suite: operator representation
# ---------------------------------------------------------------------------

def suite_operator(cfg: RunConfig) -> List[CheckResult]:
    s = _Suite(cfg)
    ctx = cfg.ctx()
    n = min(cfg.grid_n, 128)
    if cfg.grid_n < 32:
        s.skip("operator.all", "insufficient resolution")
        return s.out

    f = random_element(ctx, n, s.rng)
    g = random_element(ctx, n, s.rng)
    kf, kg = kernel_of(f), kernel_of(g)

    s.check("operator.kernel_round_trip", _field_err(element_of(kf), f), 1e-10)
    s.check("operator.composition_intertwines",
            _rel(kernel_of(star(f, g)).values, compose_kernels(kf, kg).values), 1e-8)
    s.check("operator.adjoint_intertwines",
            _rel(kernel_of(involution(f)).values, adjoint_kernel(kf).values), 1e-8)
    s.check("operator.trace_intertwines", abs(trace_op(kf) - trace(f)), 1e-9)
    s.check("operator.hilbert_schmidt_intertwines",
            abs(hilbert_schmidt(kf, kg) - inner(f, g)), 1e-9)
    sv = np.linalg.svd(kf.matrix(), compute_uv=False)[0]
    s.check("operator.norm_power_iteration_vs_svd",
            abs(operator_norm(kf) - sv) / sv, 1e-7)

    psi = random_state(ctx, n, s.rng)
    phi = random_state(ctx, n, s.rng)
    s.check("operator.apply_composition",
            _rel(apply_operator(star(f, g), psi).values,
                 apply_operator(f, apply_operator(g, psi)).values), 1e-8)
    s.check("operator.apply_adjoint",
            abs(wf_inner(phi, apply_operator(involution(f), psi))
                - np.conj(wf_inner(psi, apply_operator(f, phi)))), 1e-9)

    # Wigner calculus
    sts = [random_state(ctx, n, s.rng) for _ in range(4)]
    a1, b1, c1, d1 = sts
    s.check("operator.wigner_adjoint",
            _field_err(involution(wigner(a1, b1)), wigner(b1, a1)), 1e-10)
    s.check("operator.wigner_trace", abs(trace(wigner(a1, b1)) - wf_inner(a1, b1)), 1e-10)
    s.check("operator.wigner_inner",
            abs(inner(wigner(a1, b1), wigner(c1, d1))
                - np.conj(wf_inner(a1, c1)) * wf_inner(b1, d1)), 1e-10)
    s.check("operator.wigner_product",
            _rel(star(wigner(a1, b1), wigner(c1, d1)).values,
                 wf_inner(a1, d1) * wigner(c1, b1).values), 1e-8)
    s.check("operator.wigner_module_left",
            _rel(star(f, wigner(a1, b1)).values,
                 wigner(a1, apply_operator(f, b1)).values), 1e-8)
    s.check("operator.wigner_module_right",
            _rel(star(wigner(a1, b1), f).values,
                 wigner(apply_operator(involution(f), a1), b1).values), 1e-8)

    marg = marginal_momentum(wigner(a1, a1))
    s.check("operator.marginal_is_density",
            np.abs(marg - np.abs(a1.values) ** 2).max(), 1e-9)
    s.check("operator.marginal_normalized",
            abs(quad_mu(ctx, AngleGrid(n), marg) - 1.0), 1e-10)

    nc = 256
    psi_l = random_state(ctx, nc, s.rng, localized=True)
    p_grid = np.tan(angle_nodes(nc)) / ctx.sqrt_beta
    comm = (qhat_apply(phat_apply(psi_l)).values - phat_apply(qhat_apply(psi_l)).values)
    ref = 1j * ctx.hbar * (1 + ctx.beta * p_grid ** 2) * psi_l.values
    s.check("operator.canonical_commutator", _rel(comm, ref), 1e-8,
            note="localized state keeps the product in band; internal grid 256")
    s.check("operator.position_symmetric",
            abs(wf_inner(phi, qhat_apply(psi)) - wf_inner(qhat_apply(phi), psi)), 1e-10)

    # ordered symbols
    phi_fun = SymbolObservable.from_momentum_function(
        ctx, n, lambda p: 1.0 / (1.0 + ctx.beta * p ** 2), power=0)
    op0 = lambda_ordered_operator(phi_fun)
    s.check("operator.ordered_power0",
            _rel(op0(psi).values, phi_fun.phi.values * psi.values), 1e-12)
    q1 = SymbolObservable.position_power(ctx, n, 1)
    op1 = lambda_ordered_operator(q1)
    s.check("operator.ordered_power1_is_position",
            _rel(op1(psi).values, qhat_apply(psi).values), 1e-10)
    sym2 = SymbolObservable(2, phi_fun.phi)
    op2 = lambda_ordered_operator(sym2)
    lhs = wf_inner(phi, op2(psi))
    rhs = trace(star_symbol_left(sym2, wigner(phi, psi)))
    s.check("operator.ordered_vs_symbol_pairing", abs(lhs - rhs) / max(abs(rhs), 1e-30), 1e-7)

    # states and uncertainties
    ml = ml_phase_state(ctx, 0.0, n)
    rep = state_check(ml.rho, herm_tol=_kink_tol(n, 4e-6), eig_tol=-_kink_tol(n, 3e-7))
    s.check_true("operator.state_check_localization", rep.passed,
                 note="hermiticity/positivity floors follow the kink schedule")
    mix = TorusField(ctx, 0.5 * wigner(a1, a1).values + 0.5 * wigner(b1, b1).values)
    s.check_true("operator.state_check_mixture", state_check(mix).passed)
    s.check_true("operator.state_check_rejects_offdiagonal",
                 not state_check(wigner(a1, b1)).hermitian)

    u = uncertainty(ml.psi)
    s.check("operator.localization_spread", abs(u.dq - ctx.min_dq), 1e-9)
    worst = 0.0
    for _ in range(25):
        st = random_state(ctx, n, s.rng, localized=True)
        worst = min(worst, uncertainty(st).gup_slack)
    s.check("operator.uncertainty_inequality", max(0.0, -worst), 1e-9,
            note="25 random localized states")
    return s.out


# ---------------------------------------------------------------------------
# suite: closed-form states
# ---------------------------------------------------------------------------

def suite_states(cfg: RunConfig) -> List[CheckResult]:
    s = _Suite(cfg)
    ctx = cfg.ctx()
    n = cfg.grid_n
    if n < 32:
        s.skip("states.all", "insufficient resolution")
        return s.out
    n = min(n, 512)

    xis = [0.0, 1.0, ctx.q_lattice_step, 3.7]
    worst_l = worst_r = worst_q = 0.0
    for xi in xis:
        pe = position_eigenvector(ctx, xi, n)
        qsym = SymbolObservable.position_power(ctx, n, 1)
        scale = np.abs(pe.rho.values).max()
        worst_l = max(worst_l, np.abs(star_symbol_left(qsym, pe.rho).values
                                      - xi * pe.rho.values).max() / scale)
        worst_r = max(worst_r, np.abs(star_symbol_right(pe.rho, qsym).values
                                      - xi * pe.rho.values).max() / scale)
        worst_q = max(worst_q, np.abs(qhat_apply(pe.psi).values - xi * pe.psi.values).max())
    s.check("states.position_eigen_left", worst_l, 1e-9)
    s.check("states.position_eigen_right", worst_r, 1e-9)
    s.check("states.position_eigen_operator", worst_q, 1e-10)

    pe = position_eigenvector(ctx, 0.7, n)
    s.check("states.eigen_profile_peak", abs(pe.rho_qp(0.7, 2.0) - 1.0), 1e-14)
    s.check("states.eigen_profile_lattice_zeros",
            abs(pe.rho_qp(0.7 + 2 * ctx.q_lattice_step, 0.0)), 1e-14)
    s.check("states.eigen_wigner_consistency",
            _rel(wigner(pe.psi, pe.psi).values, pe.rho.values), 1e-10)
    flags = eigenvector_flags(ctx, 3.7)
    s.check_true("states.eigen_not_a_state",
                 flags["dq_below_min"] and flags["divergence_slope"] > 0.5)

    ml = ml_phase_state(ctx, 0.0, n)
    s.check("states.ml_normalized", abs(ml.psi.norm() - 1.0), 1e-12)
    u = uncertainty(ml.psi)
    s.check("states.ml_mean_position", abs(u.mean_q), 1e-8)
    s.check("states.ml_mean_momentum", abs(u.mean_p), 1e-8)
    s.check("states.ml_minimal_spread", abs(u.dq - ctx.min_dq) / ctx.min_dq, 1e-6)
    s.check("states.ml_saturates_bound", abs(u.gup_slack), 1e-6)
    ml37 = ml_phase_state(ctx, 3.7, n)
    s.check("states.ml_shifted_mean", abs(uncertainty(ml37.psi).mean_q - 3.7), 1e-8)

    if ctx.lam == 0.5 and ctx.beta == 1.0 and ctx.hbar == 1.0:
        s.check("states.ml_origin_value",
                abs(ml.evaluate(0.0, 0.0) - (1 + 2 / math.pi)), 1e-10)
    edge = np.abs(ml.psi.values[[0, n - 1]]).max()
    s.check("states.ml_vanishes_at_infinity", edge, 5.0 / n)

    # evaluator vs sampled Wigner construction over a window
    qs = np.linspace(-6, 6, 13)
    ks = np.arange(0, n, max(1, n // 32))
    ps = np.tan(angle_nodes(n)[ks]) / ctx.sqrt_beta
    grid_vals = synth_grid(ml.rho, qs, ps)
    ref = np.array([[ml.evaluate(qv, pv) for pv in ps] for qv in qs])
    s.check("states.ml_wigner_matches_evaluator",
            np.abs(grid_vals - ref).max(), _kink_tol(n, 1e-4),
            note="kink-limited convergence")

    # strip agreement with the plain sinc expression
    strip = min(ctx.lam, 1 - ctx.lam) * math.pi / 2
    if strip > 0.05:
        pmax = math.tan(0.95 * strip) / ctx.sqrt_beta
        ps2 = np.linspace(-pmax, pmax, 7)
        ref2 = np.array([[ml.evaluate(qv, pv) for pv in ps2] for qv in qs])
        sinc2 = np.array([[ml_sinc_form(ctx, 0.0, qv, pv) for pv in ps2] for qv in qs])
        s.check("states.ml_sinc_form_on_strip", np.abs(ref2 - sinc2).max(), 1e-12)
    else:
        s.skip("states.ml_sinc_form_on_strip", "strip empty for this ordering")

    rr = star(ml.rho, ml.rho)
    s.check("states.ml_idempotent",
            math.sqrt(max(inner(rr.with_values(rr.values - ml.rho.values),
                                rr.with_values(rr.values - ml.rho.values)).real, 0.0)),
            _kink_tol(n, 1e-6), note="purity of the localization state")

    marg = marginal_momentum(ml.rho)
    p_grid = np.tan(angle_nodes(n)) / ctx.sqrt_beta
    ref_m = (2 * ctx.sqrt_beta / math.pi) / (1 + ctx.beta * p_grid ** 2)
    s.check("states.ml_marginal", np.abs(marg - ref_m).max(), _kink_tol(n, 2e-6),
            note="sampled construction; exact at the symmetric ordering")

    xi_l = 2 * ctx.q_lattice_step
    mls = ml_phase_state(ctx, xi_l, n)
    qs3 = np.linspace(-3, 3, 7)
    shifted = np.array([[mls.evaluate(qv + xi_l, pv) for pv in ps] for qv in qs3])
    base = np.array([[ml.evaluate(qv, pv) for pv in ps] for qv in qs3])
    s.check("states.ml_lattice_shift_covariance", np.abs(shifted - base).max(), 1e-12)
    return s.out


# ---------------------------------------------------------------------------
# suite: formal engine
# ---------------------------------------------------------------------------

def suite_formal(cfg: RunConfig) -> List[CheckResult]:
    s = _Suite(cfg)
    q = FormalPoly.var("q")
    p = FormalPoly.var("p")
    one = FormalPoly.const(1)
    lam = FormalPoly.var("lam")
    hbar = FormalPoly.var("hbar")
    beta = FormalPoly.var("beta")

    comm = formal_commutator(MAIN, q, p, 1)
    target = (hbar + hbar * beta * p * p).scale(0, 1)
    s.check_true("formal.position_momentum_commutator",
                 comm.poly == target and comm.terminated)
    r = formal_star(MAIN, q, q, 4)
    s.check_true("formal.position_square", r.poly == q * q and r.terminated)
    r = formal_star(MAIN, p, p, 4)
    s.check_true("formal.momentum_square", r.poly == p * p and r.terminated)
    s.check_true("formal.classical_bracket",
                 classical_limit(MAIN, q, p) == one + beta * p * p)
    s.check_true("formal.classical_antisymmetry",
                 classical_limit(MAIN, p, q) == -(one + beta * p * p))
    s.check_true("formal.classical_leibniz",
                 classical_limit(MAIN, q * q, p) == (q + q) * (one + beta * p * p))

    alt_comm = formal_commutator(ALT, q, p, 3)
    s.check_true("formal.alt_commutator", alt_comm.poly == target)
    r = formal_star(ALT, p, p, 3)
    s.check_true("formal.alt_momentum_square", r.poly == p * p and r.terminated)
    derived = (q * q + (hbar * beta * q * p * (lam.scale(2) - one)).scale(0, 1)
               + hbar * hbar * beta * beta * p * p * lam * (one - lam))
    r = formal_star(ALT, q, q, 2)
    s.check_true("formal.alt_position_square_derived",
                 r.poly == derived and r.terminated,
                 note="second-order coefficient lam(1-lam), forced by the expansion")

    # order-by-order associativity on low-degree monomials
    ok = True
    monos = [q, p, q * p, p * p]
    for f in monos[:3]:
        for g in monos[:3]:
            for h in monos[:3]:
                K = 4
                l = formal_star(MAIN, formal_star(MAIN, f, g, K).poly, h, K).poly
                r = formal_star(MAIN, f, formal_star(MAIN, g, h, K).poly, K).poly
                for k in range(K + 1):
                    if l.coefficient_of_hbar(k) != r.coefficient_of_hbar(k):
                        ok = False
    s.check_true("formal.associativity_through_order4", ok)

    st = formal_star(MAIN, q * q, q * p, 10)
    s.check_true("formal.termination_degree_bound", st.terminated)

    # asymptotic consistency of the truncation against the integral product
    if cfg.grid_n < 128:
        s.skip("formal.truncation_slope", "insufficient resolution")
    else:
        slope = _truncation_slope(cfg)
        s.check("formal.truncation_slope", abs(slope - 3.0), 0.3,
                note=f"measured log-log slope {slope:.3f} over hbar = 0.1, 0.05, 0.025")
    return s.out


def _truncation_slope(cfg: RunConfig, order: int = 2) -> float:
    """Log-log slope of |integral product - truncated series| in hbar.

    Test pair: the position symbol q/(1 + beta p^2) against a Gaussian-in-q
    element.  For small ordering parameters the left product's expansion
    terminates (every surviving term needs a position derivative on the
    symbol), so the product is taken on the side whose series has an infinite
    tail.
    """
    n = min(max(cfg.grid_n, 256), 256)
    errs = []
    hbars = (0.1, 0.05, 0.025)
    from fractions import Fraction

    from .formal_cas import _main_dp
    phi_ring = FormalPoly({(0, 0, 0, 0, 0, 0, 1): (Fraction(1), Fraction(0))})
    use_right = cfg.lam < 0.5

    for hb in hbars:
        ctx = BetaContext(cfg.beta, hb, cfg.lam)
        lam = ctx.lam
        a = angle_nodes(n)
        cos2 = np.cos(a) ** 2
        s_width = 0.5
        ap = angle_nodes(n)[:, None]
        prof = s_width * math.sqrt(2 * math.pi) * np.exp(
            -(ap * s_width / (ctx.hbar * ctx.sqrt_beta)) ** 2 / 2.0)
        g = TorusField(ctx, prof * cos2[None, :])

        p_grid = np.tan(a) / ctx.sqrt_beta
        phi_tab = [phi_ring]
        for _ in range(order):
            phi_tab.append(_main_dp(phi_tab[-1]))
        phi_vals = [formal_eval(t, ctx, 0.0, p_grid) for t in phi_tab]

        saw = angle_nodes(n) * (1j / (ctx.hbar * ctx.sqrt_beta))

        def dq_field(x, times):
            v = x.values
            for _ in range(times):
                v = v * saw[:, None]
            return x.with_values(v)

        def colmult(vals, x):
            return x.with_values(x.values * vals[None, :])

        # the symbol on the right mirrors the left series: -lam <-> 1 - lam
        w, w_mirror = (1 - lam, -lam) if use_right else (-lam, 1 - lam)
        series = None
        for k in range(order + 1):
            coef = (1j * ctx.hbar) ** k / math.factorial(k)
            term = w ** k * mult_by_q(colmult(phi_vals[k], dq_field(g, k))).values
            if k >= 1:
                gk1 = deriv_p(dq_field(g, k - 1))
                term = term + k * w_mirror * w ** (k - 1) * colmult(phi_vals[k - 1], gk1).values
            series = coef * term if series is None else series + coef * term

        sym = SymbolObservable(1, Wavefunction(ctx, phi_vals[0].astype(complex)))
        exact = star_symbol_right(g, sym) if use_right else star_symbol_left(sym, g)
        diff = exact.with_values(exact.values - series)
        # measure on a fixed phase-space window so the hbar-dependent carrier
        # normalizations cannot contaminate the scaling
        qs = np.linspace(-2, 2, 9)
        ps = np.linspace(-2, 2, 9)
        errs.append(float(np.abs(synth_grid(diff, qs, ps)).max()))
    return (math.log(errs[0]) - math.log(errs[-1])) / (math.log(hbars[0]) - math.log(hbars[-1]))


SUITES = {
    "arithmetic": suite_arithmetic,
    "sampling": suite_sampling,
    "transforms": suite_transforms,
    "star_algebra": suite_star_algebra,
    "operator": suite_operator,
    "states": suite_states,
    "formal": suite_formal,
}


def run_suites(cfg: RunConfig, names: Optional[List[str]] = None):
    """Run the requested suites (all by default); returns results per suite."""
    results = {}
    for name, fn in SUITES.items():
        if names and name not in names:
            continue
        results[name] = fn(cfg)
    return results
