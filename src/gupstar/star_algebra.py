"""The non-formal star product and its algebraic structure.

Algebra elements are :class:`~gupstar.sampling.TorusField` carriers of their
position transform.  The product is computed through the operator picture:
fields hold their integral kernels' coefficients (times 2 pi hbar), so the
product is the kernel composition of the held arrays themselves, an
invariant-measure quadrature over the contracted slot (a signed mode pairing
and one matrix product when the contracted modulations differ by an
integer), with no kernel carrier built on the way.  Products, the
involution (the kernel adjoint's relabeling), ``s_operator`` and ``trace``
(the kernel diagonal, ``sampling._diagonal``) read the held array at its
kernel modes, the algebra side of ``sampling``'s rule; the products with
symbols ``q^P phi(p)`` and ``inner`` read it at its sheared modes, the
sample side, and only ``inner`` at different alpha offsets sums samples.
The products, the involution, the trace and ``inner``'s alpha'-sampled
branch read only the operands' occupied block (exact zeros).  On
band-limited carriers the product equals the direct discretization of the
defining twisted convolution; that discretization is kept as
:func:`star_direct` so the two routes can check each other.  It shares no
code with the kernel route: it is built on ``sampling``'s line codec and
:func:`~gupstar.sampling.shift_field`, n sheared decodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .beta_arith import BetaContext
from .formal_cas import _MAX_EXPONENT
from .operator_rep import _contract, kernel_of, operator_norm
from .sampling import (
    TorusField,
    Wavefunction,
    _adjoint,
    _alpha_modes,
    _band_convolution,
    _band_layout,
    _check_kind,
    _check_pair,
    _diagonal,
    _held,
    _held_modes,
    _integral,
    _line_coeffs,
    _line_values,
    _nonnegative_int,
    _sheared_columns,
    angle_nodes,
    mode_numbers,
    shift_field,
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


def star(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Star product of two elements.

    Kernel-composition route on the held arrays: fields hold their kernels'
    coefficients, so :func:`~gupstar.operator_rep._contract` pairs f's with
    g's directly, and the product holds the result with no kernel built.
    When the contracted modulations differ by an integer (same-position
    eigenvector products, Wigner pairs of a common state family, unmodulated
    fields) that is a signed mode pairing: one column scale, one row gather
    and one matrix product, exact for band-limited fields, with no transform.
    Otherwise the contracted slot is sampled and the midpoint rule only
    converges.  Either way only the occupied modes are contracted (exact
    zeros are skipped), so the cost is k_rows * k_inner * k_cols: a position
    eigenvector's one mode, a Wigner pair's block, the full band only for
    fields that fill it.
    """
    _check_kind(TorusField, "an algebra element", f, g)
    _check_pair(f, g)
    out, written = _contract(f, g, g.mod[0])
    return TorusField._own(f.ctx, out, (f.mod[0], g.mod[1]), written=written)


def star_direct(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Midpoint discretization of the defining one-integral twisted convolution.

    (f~ . g~)(a', a) = (1/(2 pi hbar sqrt(beta)))
        Int f~(a'', a + lam (a' - a'')) g~(a' - a'', a - (1-lam) a'') da''

    with off-grid arguments evaluated through the unwrapped sheared expansion.
    For each contracted node a''_j, f's row j is decoded by the line codec at
    the per-row offsets lam (a'_i - a''_j), and g is the field
    :func:`~gupstar.sampling.shift_field` moves by (-a''_j, -(1-lam) a''_j).
    Same values as :func:`star` on band-limited fields whose contracted
    modulations differ by an integer; kept as an independent code path for
    cross-checking.  Cost O(n^3 log n): n sheared decodes.
    """
    _check_pair(f, g)
    ctx, n = f.ctx, f.n
    lam = ctx.lam
    ap = angle_nodes(n)
    b0f = f.mod[0] + f.mod[1]
    rows = _line_coeffs(f.values, b0f)  # row j: f(a''_j, y) as a series in y
    out = np.zeros((n, n), dtype=complex)
    for j, x in enumerate(ap):
        # [i, k]: f(a''_j, a_k + lam (a'_i - a''_j)) and g(a'_i - a''_j, a_k - (1-lam) a''_j)
        fv = _line_values(rows[j], b0f, lam * (ap - x))
        gv = shift_field(g, -x, -(1 - lam) * x).values
        out += fv * gv
    out *= (np.pi / n) / (2 * np.pi * ctx.hbar * ctx.sqrt_beta)
    return TorusField(ctx, out, (f.mod[0], g.mod[1]))


def involution(f: AlgebraElement) -> AlgebraElement:
    """Algebra adjoint: (f*)~(p', p) = conj f~(-p', p (-) (1-2 lam) o p').

    :func:`~gupstar.operator_rep.adjoint_kernel` on the held coefficients, so
    ``kernel_of(involution(f))`` is ``adjoint_kernel(kernel_of(f))``; for
    lam = 1/2 it reduces to complex conjugation of f(q, p).  ``sampling._adjoint``
    reads the occupied block f records: a position eigenvector costs one mode
    and the zero fill of its result, a full-band field four slice copies and
    no fill.  The result records the block it was written with.
    """
    _check_kind(TorusField, "an algebra element", f)
    out, written = _adjoint(f)
    return TorusField._own(f.ctx, out, (-f.mod[1], -f.mod[0]), written=written)


def s_operator(f: AlgebraElement) -> AlgebraElement:
    """Conjugation-free ordering flip S f = conj((f*)).

    The coefficients are untouched; the element is re-expanded in the mirrored
    ordering, so the result lives in the context with lam -> 1 - lam.  For the
    symmetric ordering S is the identity.  ``s_operator(s_operator(f))`` pairs
    with f although ``1 - (1 - lam)`` can round off lam: operands compare
    orderings by ``sampling._same_lam``.
    """
    _check_kind(TorusField, "an algebra element", f)
    return TorusField._own(f.ctx.with_lam(1.0 - f.ctx.lam), _held(f), f.mod)


def trace(f: AlgebraElement) -> complex:
    """Normalized phase-space integral tr(f) = Int f dq dmu / (2 pi hbar).

    The operator trace of f's kernel: ``sampling._diagonal`` of the held
    array, mode b weighed by ``sinc(b + mu_u + mu_v) / (2 hbar sqrt(beta))``,
    free of any transform; the diagonal gathers only the occupied rows.  So
    it equals ``operator_rep.trace_op(kernel_of(f))`` to rounding on every
    field, and tr(f star g) = tr(g star f) and
    (f, g) = tr(f* star g) hold to rounding when the modulations pair.  Like
    every algebra route it reads kernel modes; a field holding coefficients
    in ``sampling``'s mismatch set M, as one encoded from arbitrary samples
    can, has a sample-side integral that differs from this trace.
    """
    _check_kind(TorusField, "an algebra element", f)
    b = mode_numbers(f.n) + (f.mod[0] + f.mod[1])
    return complex((_diagonal(f) * np.sinc(b)).sum() / (2 * f.ctx.hbar * f.ctx.sqrt_beta))


def inner(f: AlgebraElement, g: AlgebraElement) -> complex:
    """Hilbert-algebra scalar product (f, g), conjugate-linear in f.

    It equals tr(f* star g) only when the modulations of f and g differ by
    integers: equal modulations agree to rounding, and so do ``rho:0.3`` and
    ``rho:2.3``, one lattice step apart.  Otherwise the two differ by more
    than grid error: at n = 128 ``inner(rho:0.3, rho:1.0)`` is 0.81034 but
    ``trace(star(involution(f), g))`` is 0.65665 (ROADMAP item 1).

    The sample sum with the discrete normalization
    1/(4 pi^2 hbar^2 beta) (pi/n)^2, derived from the transform conventions
    and pinned by the position-eigenvector golden tests.  The route follows
    the modulations ``(mu_u, mu_v)`` alone, compared by ``sampling._integral``.
    When the fields share the alpha offset ``mu_u + mu_v``, the alpha sum is
    exactly n times the coefficient sum over each alpha mode, and so is the
    alpha' sum when ``mu_v`` is shared too (Parseval, no transform); with
    different ``mu_v`` only the alpha' slot is sampled, over the alpha modes
    both occupy (``sampling._alpha_modes``, exact zeros): one gather and one
    1-d codec call per field for those columns, with the phase
    ``exp(2i (mu_v_f - mu_v_g) alpha'_j)``.  Every other alpha mode adds an
    exact zero, so skipping it changes only the summation order; a pair
    with no alpha mode in common gives exactly 0.  Fields with different
    alpha offsets sum samples.
    """
    _check_kind(TorusField, "an algebra element", f, g)
    _check_pair(f, g)
    n = f.n
    pref = (np.pi / n) ** 2 / (4 * np.pi ** 2 * f.ctx.hbar ** 2 * f.ctx.beta)
    if _integral(*g.mod, -f.mod[0], -f.mod[1]) != 0:
        return complex(pref * np.vdot(f.values, g.values))
    if _integral(f.mod[1], -g.mod[1]) == 0:
        return complex(pref * n * n * np.vdot(_held(f), _held(g)))
    b = _alpha_modes(f, g)
    fl = _line_values(_sheared_columns(_held(f), b).T)  # [b, j]; one gathered array alive at a time
    gl = _line_values(_sheared_columns(_held(g), b).T, f.mod[1] - g.mod[1])
    return complex(pref * n * np.vdot(fl, gl))


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
    fv = f.values
    return complex(pref * (fv * (fv if g is f else g.values)[::-1, :]).sum())


def cstar_norm_estimate(f: AlgebraElement) -> float:
    """Operator norm of star-multiplication by f (the C*-norm).

    The largest singular value of f's kernel, read exactly from its
    coefficients by :func:`operator_norm`; always bounded by the
    Hilbert-algebra norm ``norm2(f)``.
    """
    _check_kind(TorusField, "an algebra element", f)
    return operator_norm(kernel_of(f))


# ---------------------------------------------------------------------------
# unbounded symbols q^n phi(p)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolObservable:
    """Symbol q^power * phi(p) with phi smooth on the momentum circle, power at most 64."""

    power: int
    phi: Wavefunction

    def __post_init__(self):
        p = _nonnegative_int(self.power, "symbol power")
        if p > _MAX_EXPONENT:
            raise ValueError(f"symbol power {p} exceeds the limit {_MAX_EXPONENT}")

    @classmethod
    def position_power(cls, ctx: BetaContext, n: int, power: int = 1) -> "SymbolObservable":
        """The symbol q^power (phi identically one)."""
        return cls(power, Wavefunction(ctx, np.ones(n, dtype=complex)))

    @classmethod
    def from_momentum_function(cls, ctx: BetaContext, n: int, fn) -> "SymbolObservable":
        """The symbol phi(p), power 0, sampled on the angle grid; fn gets the momentum array."""
        p = np.tan(angle_nodes(n)) / ctx.sqrt_beta
        return cls(0, Wavefunction(ctx, np.asarray(fn(p), dtype=complex)))


def _symbol_product(sym: SymbolObservable, g: AlgebraElement, a, z, mod,
                    skew: bool) -> AlgebraElement:
    """Band projection of ``sum_k C(P, k) phi_k g_{P-k}``, P = sym.power, in coefficients.

    phi_k has phi's coefficient at mode mu times ``(a (phi.mod + mu))^k`` and
    g_j has g's held coefficients times ``z^j`` (z broadcasts against them,
    written from ``sampling._held_modes``), so the (phi mode mu, g's sheared
    mode (c, b)) term carries the multiplier
    ``(a (phi.mod + mu) + z)^P``.  It lands on alpha mode ``b + mu``; with
    ``skew`` (the right product) it also moves to alpha' mode ``c - mu``.
    Terms whose alpha mode leaves ``[-n/2, n/2)`` are dropped, so the result
    is the band projection of the product: it keeps phi's parity, up to the
    unpaired Nyquist mode, and aliases no overflow.  The right product
    projects in both slots: a term whose alpha' mode ``c - mu`` leaves the
    band is dropped too (the skew layout of ``sampling._band_layout``).  The
    cost is one band-limited FFT convolution over the P + 1 terms, O(P n^2 log n)
    whatever phi's band, and no sample; the right product's FFTs cover 2n^2
    points per term against 3n^2/2 for the left.  ``mod`` is the product's
    modulation; the convolution's output is already in the held layout.
    """
    _check_pair(sym.phi, g, "symbol and field")
    n, power, phi = g.n, sym.power, sym.phi
    k = np.arange(power + 1)[:, None, None]
    binom = np.array([math.comb(power, j) for j in range(power + 1)], dtype=float)
    amp = binom[:, None, None] * phi.coeffs() * (a * (phi.mod + mode_numbers(n))) ** k
    gz = [_held(g)]  # g_j: g's coefficients times z^j, j = 0..P
    for _ in range(power):
        gz.append(gz[-1] * z)
    out = _band_convolution(amp, gz[::-1], _band_layout(n, skew))  # phi_k pairs with g_{P-k}
    return TorusField._own(g.ctx, out, mod)


def star_symbol_left(sym: SymbolObservable, g: AlgebraElement) -> AlgebraElement:
    """Star product (q^P phi) star g for a field g on the symbol's grid and context.

    On g's kernel, phi multiplies the first slot, of frequency ``u + mu_u``
    with u = c + b, and q acts there as ``-2 hbar sqrt(beta)`` times the
    frequency: ``u + mu_u`` next to g, plus ``phi.mod + mu`` past phi, mixed
    as 1 - lam and lam by the ordering.  So phi's mode mu moves g's mode
    (c, b) to (c, b + mu), with the multiplier
    ``(-2 hbar sqrt(beta) (lam (phi.mod + mu) + mu_u + c + b))^P``.  The
    result is the band projection of :func:`_symbol_product`: alpha modes
    past the band are dropped, never aliased, for the cost of one
    band-limited FFT convolution.  phi.mod adds to ``mod[0]``.
    """
    hs, (c, b) = g.ctx.hbar * g.ctx.sqrt_beta, _held_modes(g.n)
    z = -2.0 * hs * (g.mod[0] + c + b)
    mod = (g.mod[0] + sym.phi.mod, g.mod[1])
    return _symbol_product(sym, g, -2.0 * hs * g.ctx.lam, z, mod, skew=False)


def star_symbol_right(g: AlgebraElement, sym: SymbolObservable) -> AlgebraElement:
    """Star product g star (q^P phi); mirror of :func:`star_symbol_left`.

    phi multiplies the kernel's second slot, of frequency ``v + mu_v`` with
    v = -c, where q acts as ``2 hbar sqrt(beta)`` times the frequency, the
    ordering's weight 1 - lam on phi's share.  Its mode mu moves g's mode
    (c, b) to (c - mu, b + mu), with the multiplier
    ``(2 hbar sqrt(beta) ((1 - lam) (phi.mod + mu) + mu_v - c))^P``.
    The result is the band projection of :func:`_symbol_product` in both
    slots: terms whose alpha' mode ``c - mu`` or alpha mode ``b + mu``
    leaves the band are dropped, for about 4/3 of the left product's FFT work.
    phi.mod adds to ``mod[1]``.
    """
    hs, (c, _) = g.ctx.hbar * g.ctx.sqrt_beta, _held_modes(g.n)
    z = 2.0 * hs * (g.mod[1] - c)
    mod = (g.mod[0], g.mod[1] + sym.phi.mod)
    return _symbol_product(sym, g, 2.0 * hs * (1 - g.ctx.lam), z, mod, skew=True)


def expectation(obs: Union[SymbolObservable, AlgebraElement],
                rho: AlgebraElement) -> complex:
    """Expectation value tr(obs star rho) in the state rho."""
    if isinstance(obs, SymbolObservable):
        return trace(star_symbol_left(obs, rho))
    return trace(star(obs, rho))
