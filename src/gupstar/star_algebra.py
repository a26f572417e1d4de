"""The non-formal star product and its algebraic structure.

Algebra elements are carried as :class:`~gupstar.sampling.TorusField` samples
of their position transform.  The product is computed through the operator
picture: field -> integral kernel (an exact index shear), kernel composition
by invariant-measure quadrature, kernel -> field back.  On band-limited
carriers this equals the direct discretization of the defining twisted
convolution; a slow direct evaluation is kept as :func:`star_direct` so the
two routes can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .beta_arith import BetaContext
from .operator_rep import (
    compose_kernels,
    element_of,
    kernel_of,
    operator_norm,
)
from .sampling import (
    TorusField,
    Wavefunction,
    _line_values,
    angle_nodes,
    field_from_coeffs,
    mode_numbers,
)

__all__ = [
    "AlgebraElement",
    "SymbolObservable",
    "star",
    "star_direct",
    "involution",
    "s_operator",
    "trace",
    "inner",
    "norm2",
    "pointwise_trace",
    "cstar_norm_estimate",
    "star_symbol_left",
    "star_symbol_right",
    "expectation",
]

#: Algebra elements are torus fields; the alias documents intent at call sites.
AlgebraElement = TorusField


def _check_pair(f, g, what: str = "algebra elements") -> None:
    if f.ctx != g.ctx:
        raise ValueError(f"{what} live in different contexts")
    if f.n != g.n:
        raise ValueError(f"{what} live on different grids")


def star(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Star product of two elements.

    Kernel-composition route; exact for band-limited fields whenever the
    contracted modulations differ by an integer (same-position eigenvector
    products, Wigner pairs of a common state family, unmodulated fields).
    """
    _check_pair(f, g)
    return element_of(compose_kernels(kernel_of(f), kernel_of(g)))


def star_direct(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Midpoint discretization of the defining one-integral twisted convolution.

    (f~ . g~)(a', a) = (1/(2 pi hbar sqrt(beta)))
        Int f~(a'', a + lam (a' - a'')) g~(a' - a'', a - (1-lam) a'') da''

    with off-grid arguments evaluated through the sheared expansion.  Same
    values as :func:`star` on band-limited fields; kept as an independent code
    path for cross-checking, cost O(n^4).
    """
    _check_pair(f, g)
    ctx, n = f.ctx, f.n
    lam = ctx.lam
    ap = angle_nodes(n)
    fc, gc = f.coeffs(), g.coeffs()
    nuf, btf = f.freq_grids()
    nug, btg = g.freq_grids()
    X = ap[:, None] - ap[None, :]  # X[i, j] = a'_i - a''_j, raw values

    # F(a''_j, y) = sum_b FR[j, b] e^{2i btf_b y} with the first slot on-grid
    FR = np.einsum("cb,cjb->jb", fc,
                   np.exp(2j * nuf[:, None, :] * ap[None, :, None]), optimize=True)

    btf_b = btf[0, :]  # alpha frequencies depend on b only
    btg_b = btg[0, :]

    # G(X_ij, z_jk): inner sum over c with the full first-slot frequency
    GX = np.empty((n, n, n), dtype=complex)  # (b, i, j)
    for ib in range(n):
        GX[ib] = np.tensordot(gc[:, ib], np.exp(2j * nug[:, ib][:, None, None] * X[None, :, :]), axes=(0, 0))

    a = angle_nodes(n)
    Z = a[None, :] - (1 - lam) * ap[:, None]  # z[j, k] = a_k - (1-lam) a''_j

    w = (np.pi / n) / (2 * np.pi * ctx.hbar * ctx.sqrt_beta)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        yf = a[None, :] + lam * X[:, j][:, None]     # (i, k)
        Fv = FR[j][None, None, :] * np.exp(2j * btf_b[None, None, :] * yf[:, :, None])
        Fv = Fv.sum(axis=2)
        Gv = (GX[:, :, j].T[:, None, :] * np.exp(2j * btg_b[None, None, :] * Z[j][None, :, None])).sum(axis=2)
        out += w * Fv * Gv
    s0f, b0f = f.mod
    s0g, b0g = g.mod
    return TorusField(ctx, out, (s0g, b0f + s0f - s0g))


def involution(f: AlgebraElement) -> AlgebraElement:
    """Algebra adjoint: (f*)~(p', p) = conj f~(-p', p (-) (1-2 lam) o p').

    In sheared coefficients it is the exact relabeling
    (b, c) -> (-b, b + c) with conjugation; for lam = 1/2 it reduces to complex
    conjugation of f(q, p).
    """
    n = f.n
    coef = np.conj(f.coeffs())
    m = mode_numbers(n).astype(int)
    c, b = np.meshgrid(m, m, indexing="ij")
    out = np.zeros_like(coef)
    out[np.mod(b + c, n), np.mod(-b, n)] = coef
    s0, b0 = f.mod
    return field_from_coeffs(f.ctx, out, (s0 + b0, -b0))


def s_operator(f: AlgebraElement) -> AlgebraElement:
    """Conjugation-free ordering flip S f = conj((f*)).

    The coefficients are untouched; the element is re-expanded in the mirrored
    ordering, so the result lives in the context with lam -> 1 - lam.  For the
    symmetric ordering S is the identity.
    """
    ctx2 = f.ctx.with_lam(1.0 - f.ctx.lam)
    return field_from_coeffs(ctx2, f.coeffs(), f.mod)


def trace(f: AlgebraElement) -> complex:
    """Normalized phase-space integral tr(f) = Int f dq dmu / (2 pi hbar)."""
    coef = f.coeffs()
    n = f.n
    b = mode_numbers(n) + f.mod[1]
    colsum = coef.sum(axis=0)
    return complex((colsum * np.sinc(b)).sum() / (2 * f.ctx.hbar * f.ctx.sqrt_beta))


def inner(f: AlgebraElement, g: AlgebraElement) -> complex:
    """Hilbert-algebra scalar product (f, g) = tr(f* star g).

    Evaluates the equivalent sample sum with the discrete normalization
    1/(4 pi^2 hbar^2 beta) (pi/n)^2; derived from the transform conventions
    and pinned by the position-eigenvector golden tests.
    """
    _check_pair(f, g)
    n = f.n
    pref = (np.pi / n) ** 2 / (4 * np.pi ** 2 * f.ctx.hbar ** 2 * f.ctx.beta)
    return complex(pref * np.vdot(f.values, g.values))


def norm2(f: AlgebraElement) -> float:
    return math.sqrt(max(inner(f, f).real, 0.0))


def pointwise_trace(f: AlgebraElement, g: AlgebraElement) -> complex:
    """tr of the pointwise product f(q,p) g(q,p), computed transform-side.

    Int f g dl = (1/(4 pi^2 hbar^2 beta)) Int f~(a', a) g~(-a', a) da' da; the
    reflected first slot is on-grid by symmetry of the half-offset nodes.
    Exact when the combined first-slot frequencies of the two fields are
    integers (for the symmetric ordering: matched mode parity).
    """
    _check_pair(f, g)
    n = f.n
    pref = (np.pi / n) ** 2 / (4 * np.pi ** 2 * f.ctx.hbar ** 2 * f.ctx.beta)
    return complex(pref * (f.values * g.values[::-1, :]).sum())


def cstar_norm_estimate(f: AlgebraElement, rel_tol: float = 1e-8,
                        max_iter: int = 10_000, seed: int = 42) -> float:
    """Operator norm of star-multiplication by f (the C*-norm).

    Largest singular value of the weighted kernel matrix via power iteration;
    always bounded by the Hilbert-algebra norm ``norm2(f)``.
    """
    return operator_norm(kernel_of(f), rel_tol=rel_tol, max_iter=max_iter, seed=seed)


# ---------------------------------------------------------------------------
# unbounded symbols q^n phi(p)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolObservable:
    """Symbol q^power * phi(p) with phi smooth on the momentum circle."""

    power: int
    phi: Wavefunction

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("symbol power must be a nonnegative integer")

    @classmethod
    def position_power(cls, ctx: BetaContext, n: int, power: int = 1) -> "SymbolObservable":
        """The symbol q^power (phi identically one)."""
        return cls(power, Wavefunction(ctx, np.ones(n, dtype=complex)))

    @classmethod
    def from_momentum_function(cls, ctx: BetaContext, n: int, fn,
                               power: int = 0) -> "SymbolObservable":
        """Sample phi(p) on the angle grid; fn receives the momentum array."""
        p = np.tan(angle_nodes(n)) / ctx.sqrt_beta
        return cls(power, Wavefunction(ctx, np.asarray(fn(p), dtype=complex)))


def _symbol_product(sym: SymbolObservable, g: AlgebraElement, t, a, z) -> AlgebraElement:
    """Sampled ``sum_k C(P, k) phi_k(alpha + t alpha') g_{P-k}(alpha', alpha)``, P = sym.power.

    phi_k has phi's coefficients times ``(a mu)^k`` with ``mu = phi.mod + mode``;
    g_j has g's sheared coefficients times ``z^j``.  The binomial sum is the
    multiplier ``(a mu + z)^P`` of every (phi mode, g mode) pair, so the cost
    is one batched shift of phi and P inverse codecs of g, whatever phi's band.
    """
    _check_pair(sym.phi, g, "symbol and field")
    ctx, n, power, phi = g.ctx, g.n, sym.power, sym.phi
    k = np.arange(power + 1)[:, None, None]
    amp = phi.coeffs() * (a * (phi.mod + mode_numbers(n))) ** k
    rows = _line_values(amp, phi.mod, t * angle_nodes(n))  # [k, j, alpha]
    out = rows[power] * g.values
    gc = g.coeffs() if power else None
    for j in range(1, power + 1):
        gj = field_from_coeffs(ctx, gc * z ** j, g.mod).values
        out = out + math.comb(power, j) * rows[power - j] * gj
    return TorusField(ctx, out, (g.mod[0] + (t - ctx.lam) * phi.mod, g.mod[1] + phi.mod))


def star_symbol_left(sym: SymbolObservable, g: AlgebraElement) -> AlgebraElement:
    """Star product (q^n phi) star g for a field g on the symbol's grid and context.

    Row j multiplies g by phi at ``alpha + lam alpha'_j``; the position power
    weights each (phi mode mu, g mode (nu, b)) pair by the multiplier
    ``(-2 hbar sqrt(beta) (lam mu + nu + (1 - lam) b))^n``.  Exact when the
    product of phi and g stays inside the grid's band.
    """
    lam, hs = g.ctx.lam, g.ctx.hbar * g.ctx.sqrt_beta
    nu, bt = g.freq_grids()
    return _symbol_product(sym, g, lam, -2.0 * hs * lam, -2.0 * hs * (nu + (1 - lam) * bt))


def star_symbol_right(g: AlgebraElement, sym: SymbolObservable) -> AlgebraElement:
    """Star product g star (q^n phi); mirror of :func:`star_symbol_left`.

    phi is taken at ``alpha - (1 - lam) alpha'_j``; the multiplier is
    ``(2 hbar sqrt(beta) ((1 - lam) mu - nu + lam b))^n``.
    """
    lam, hs = g.ctx.lam, g.ctx.hbar * g.ctx.sqrt_beta
    nu, bt = g.freq_grids()
    return _symbol_product(sym, g, lam - 1.0, 2.0 * hs * (1 - lam), -2.0 * hs * (nu - lam * bt))


def expectation(obs: Union[SymbolObservable, AlgebraElement],
                rho: AlgebraElement) -> complex:
    """Expectation value tr(obs star rho) in the state rho."""
    if isinstance(obs, SymbolObservable):
        return trace(star_symbol_left(obs, rho))
    return trace(star(obs, rho))
