"""Momentum-space operator representation.

Every transformed field corresponds to an integral operator on the circle
Hilbert space.  An :class:`OperatorKernel` holds the coefficients of its
plain 2-d expansion with ``mod = (mu_u, mu_v)``; a field holds them times
2 pi hbar, so field -> kernel and kernel -> field are scales, and the
kernel adjoint, hence the algebra involution, is a transpose and a mode
reversal of the occupied block (``sampling._adjoint``).  Composition, the
star product and the action on a state contract the held arrays' inner slot
by the invariant-measure midpoint rule (:func:`_contract`, a field's 2 pi
hbar folded into its weight).  When
the contracted modulations differ by an integer that rule is exactly a
signed pairing of modes, so the result is one gather and one matrix product
of coefficient arrays; otherwise the contracted slot is sampled.  Either
way only the operands' occupied block is contracted (exact zeros skipped).
The rule (``_integral``), the pairing (``_contraction``), the kernel
diagonal (``_diagonal``) and the occupancy (``_occupied``) live in
``sampling``, which alone spells the grid's wrap sign: every map here reads
kernel modes, the algebra side of ``sampling``'s rule.  A map given a
kernel for a field, or the reverse, raises ``TypeError``.
The sample basis ``exp(2i(u + mu) alpha_a)`` is sqrt(n) times a unitary, so
norms and spectra are read from coefficients too: no kernel is ever sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .beta_arith import BetaContext
from .sampling import (
    TorusField,
    Wavefunction,
    _Carrier,
    _adjoint,
    _band_reach,
    _check_kind,
    _check_pair,
    _contraction,
    _diagonal,
    _held,
    _integral,
    _ix,
    _line_values,
    _occupied,
    _placed,
    angle_nodes,
    mode_numbers,
    wf_inner,
)

__all__ = [
    "OperatorKernel",
    "StateReport",
    "UncertaintyReport",
    "kernel_of",
    "element_of",
    "apply_operator",
    "compose_kernels",
    "adjoint_kernel",
    "trace_op",
    "hilbert_schmidt",
    "wigner",
    "marginal_momentum",
    "qhat_apply",
    "phat_apply",
    "lambda_ordered_operator",
    "operator_norm",
    "state_check",
    "uncertainty",
]


class OperatorKernel(_Carrier):
    """Integral kernel held by its coefficients, second slot paired with d mu.

    ``K(a, b) = exp(2i(mu_u a + mu_v b)) sum_{u,v} coef[u, v] exp(2i(u a + v b))``
    with ``mod = (mu_u, mu_v)``, the same pair as the field's ``mod``.
    ``OperatorKernel(ctx, coef, mod)`` holds a read-only copy of ``coef``; NaN
    or infinite coefficients or modulations are rejected.  Kernels this module
    computes hold their fresh arrays with the same checks and no copy
    (``OperatorKernel._own``).  A kernel is a carrier (``sampling._Carrier``),
    not a dataclass: immutable, and equal and hashed by identity, so two
    kernels with the same coefficients compare unequal.
    """

    __slots__ = ()
    _mod_what, _coef_what, _ndim = "kernel", "kernel coefficients", 2
    coef = property(_held, doc="The coefficients ``coef[u, v]``, read-only.")

    def __new__(cls, ctx: BetaContext, coef: np.ndarray, mod: tuple[float, float] = (0.0, 0.0)):
        # a copy: no memory shared with the caller
        return cls._own(ctx, np.array(coef, dtype=complex), mod)


def kernel_of(f: TorusField) -> OperatorKernel:
    """Integral kernel of the operator represented by a field.

    The field holds its kernel's coefficients times 2 pi hbar (``sampling.TorusField``),
    so the map is the 1/(2 pi hbar) scale, and ``mod`` passes through.
    """
    _check_kind(TorusField, "the field", f)
    return OperatorKernel._own(f.ctx, _held(f) / (2 * np.pi * f.ctx.hbar), f.mod)


def element_of(k: OperatorKernel) -> TorusField:
    """Inverse of :func:`kernel_of`: the field holding ``k.coef * 2 pi hbar``."""
    _check_kind(OperatorKernel, "the kernel", k)
    return TorusField._own(k.ctx, k.coef * (2 * np.pi * k.ctx.hbar), k.mod)


def _contract(left: _Carrier, right: _Carrier, mu: float) -> tuple:
    """Coefficients of ``int K(a, b) R(b, .) d mu(b)`` by the midpoint rule.

    ``left`` holds K, a kernel, or a field (K times 2 pi hbar, divided out of
    the weight).  ``right`` is a carrier holding R's coefficients with the
    contracted slot first (a kernel's or a field's 2-d array, or a state's)
    and ``mu`` that slot's modulation.  Returns ``sampling._placed``'s
    ``(out, written)``, the coefficients and the block written, which the
    caller hands to ``_own``.  When ``d = left.mod[1] + mu`` is an integer,
    the rule is exactly the signed mode pairing ``sampling._contraction``:
    one gather of ``right``'s rows, one scale of K's columns and one matrix
    product, with no transform.  For any
    other ``d`` the contracted slot is sampled (one 1-d codec call per
    operand) and summed; that quadrature only converges, it is not exact.
    ``d`` is read by ``sampling._integral``, so a difference that rounding
    moved off an integer still takes the exact pairing.

    Either route runs on the occupied block only, which the carriers record
    (``sampling._occupied``, exact zeros): K's occupied rows, ``right``'s
    occupied columns and, when paired, the inner modes where both K's column
    and its paired row of ``right`` hold a nonzero; the sampled route decodes
    only those rows and columns.  The product costs k_rows * k_inner * k_cols multiply-adds, and
    the rest of the result is 0.  Carriers are finite, so every skipped term
    is a signed zero and only the summation order can move a value.  An
    axis with every index occupied is indexed by a slice, so a full-band
    product makes no copy beyond the scaled K, the gathered rows and the
    product.
    """
    hold = 2 * np.pi * left.ctx.hbar if isinstance(left, TorusField) else 1.0
    held, rhs, n = _held(left), _held(right), left.n
    (rows, inner), (right_rows, *cols) = _occupied(left), _occupied(right)
    d = _integral(left.mod[1], mu)
    if d is not None:
        perm, sign = _contraction(n, d)
        if not isinstance(right_rows, slice):  # K's column v meets right's row perm[v]
            inner = right_rows[perm] if isinstance(inner, slice) else inner & right_rows[perm]
        # n times the weight: the pair sum is n
        scale = (np.pi / left.ctx.sqrt_beta / hold) * sign[inner]
        block = (held[_ix(rows, inner)] * scale) @ rhs[_ix(perm[inner], *cols)]
    else:
        lv = _line_values(held[rows], left.mod[1])        # [u, b]
        samples = _line_values(rhs.T[tuple(cols)], mu)  # [x, b], or [b] for a state
        block = np.pi / (n * left.ctx.sqrt_beta) / hold * (lv @ samples.T)
    return _placed(block, rhs, (rows, *cols))


def compose_kernels(kf: OperatorKernel, kg: OperatorKernel) -> OperatorKernel:
    """Kernel of the product: :func:`_contract` over the inner slot, outer slots kept.

    The cost is k_rows * k_inner * k_cols over the occupied modes: kf's
    rows, kg's columns and the paired inner modes where both hold a nonzero.
    """
    _check_kind(OperatorKernel, "a kernel", kf, kg)
    _check_pair(kf, kg, "kernels")
    out, written = _contract(kf, kg, kg.mod[0])
    return OperatorKernel._own(kf.ctx, out, (kf.mod[0], kg.mod[1]), written=written)


def adjoint_kernel(k: OperatorKernel) -> OperatorKernel:
    """Kernel of the adjoint operator: ``sampling._adjoint``, with ``mod`` -> (-mu_v, -mu_u)."""
    _check_kind(OperatorKernel, "the kernel", k)
    out, written = _adjoint(k)
    return OperatorKernel._own(k.ctx, out, (-k.mod[1], -k.mod[0]), written=written)


def apply_operator(f: TorusField, psi: Wavefunction) -> Wavefunction:
    """Act with the operator of a field on a state: :func:`_contract` with its coefficients."""
    _check_kind(TorusField, "the operator", f)
    _check_kind(Wavefunction, "the state", psi)
    _check_pair(f, psi, "field and wavefunction")
    out, written = _contract(f, psi, psi.mod)
    return Wavefunction._own(psi.ctx, out, f.mod[0], written=written)


def trace_op(k: OperatorKernel) -> complex:
    """Operator trace: invariant-measure integral of the kernel diagonal.

    ``sampling._diagonal`` reads the diagonal's line coefficients from
    ``k.coef`` at kernel modes over the rows k records (signed anti-diagonal
    sums), so no sample of the kernel is built; the midpoint rule weighs mode r by
    ``(pi/sqrt(beta)) sinc(r + mu_u + mu_v)``.  ``trace_op(kernel_of(f))`` is
    :func:`~gupstar.star_algebra.trace` of f to rounding: the same sum, with
    the field's 2 pi hbar in the weight.
    """
    _check_kind(OperatorKernel, "the kernel", k)
    mtot = k.mod[0] + k.mod[1]
    dm = _diagonal(k)
    return complex(np.pi / k.ctx.sqrt_beta * (dm * np.sinc(mtot + mode_numbers(k.n))).sum())


def hilbert_schmidt(kf: OperatorKernel, kg: OperatorKernel) -> complex:
    """Tr(kf^dagger kg), the trace of the composed kernel; exact when modulations match."""
    return trace_op(compose_kernels(adjoint_kernel(kf), kg))


# ---------------------------------------------------------------------------
# Wigner transform and density matrices
# ---------------------------------------------------------------------------

def wigner(phi: Wavefunction, psi: Wavefunction) -> TorusField:
    """Transformed field of the rank-one operator psi (phi, . ).

    ``W~(a', a) = 2 pi hbar psi(a + lam a') conj phi(a - (1 - lam) a')``;
    conjugate linear in phi, linear in psi.  Its kernel is
    ``psi(a) conj phi(b)``, with ``mod = (psi.mod, -phi.mod)`` on both routes
    and coefficients the outer product of psi's with ``conj c_phi[-v]``.
    When the nonzero modes of the pair fit the band, ``max|m|(psi) + max|m|(phi) <= n/2 - 1`` (exact zeros, no
    tolerance), the field holds that kernel times 2 pi hbar, as
    :func:`element_of` would, with no FFT and no n x n table.  Every other pair (kinked states
    that fill the band, sampled data with FFT noise) is sampled: row j
    evaluates both states at offsets proportional to alpha'_j (spectral
    shifts, exact on band-limited content, with the modulations handled in
    closed form), and the field encodes those samples once.
    """
    _check_pair(phi, psi, "wavefunctions")
    n, ctx = psi.n, psi.ctx
    cpsi, cphi = psi.coeffs(), phi.coeffs()
    if _band_reach(cpsi) + _band_reach(cphi) <= n // 2 - 1:
        outer = np.outer(cpsi, np.conj(cphi[-np.arange(n)]))
        return TorusField._own(ctx, outer * (2 * np.pi * ctx.hbar), (psi.mod, -phi.mod))
    ap = angle_nodes(n)
    ps = _line_values(cpsi, psi.mod, ctx.lam * ap)
    ph = _line_values(cphi, phi.mod, -(1 - ctx.lam) * ap)
    vals = 2 * np.pi * ctx.hbar * ps * np.conj(ph)
    return TorusField(ctx, vals, (psi.mod, -phi.mod))


def marginal_momentum(rho: TorusField) -> np.ndarray:
    """Momentum probability density on the grid: the kernel diagonal K(alpha, alpha).

    ``sampling._diagonal`` of the held array, decoded on the grid and divided
    by 2 pi hbar: the diagonal :func:`trace_op` integrates, read at kernel
    modes like every algebra route.  It equals the sheared reading
    ``f~(0, alpha)/(2 pi hbar)`` when rho holds nothing in ``sampling``'s
    mismatch set M.
    """
    _check_kind(TorusField, "the density", rho)
    diag = _line_values(_diagonal(rho), rho.mod[0] + rho.mod[1])
    return (diag / (2 * np.pi * rho.ctx.hbar)).real


# ---------------------------------------------------------------------------
# position / momentum operators and ordered symbols
# ---------------------------------------------------------------------------

def qhat_apply(psi: Wavefunction) -> Wavefunction:
    """Position operator i hbar sqrt(beta) d/d alpha.

    A coefficient scale: mode m by ``-2 hbar sqrt(beta) (m + mod)``, with the
    unpaired Nyquist m set to 0 (it carries no odd derivative).  A state
    with attached ``deriv`` samples (a kinked closed form) is differentiated
    by those samples instead.
    """
    if psi.deriv is not None:
        return Wavefunction(psi.ctx, 1j * psi.ctx.hbar * psi.ctx.sqrt_beta * psi.deriv, psi.mod)
    m = mode_numbers(psi.n)
    m[psi.n // 2] = 0.0
    scale = -2.0 * psi.ctx.hbar * psi.ctx.sqrt_beta * (m + psi.mod)
    return Wavefunction._own(psi.ctx, psi.coeffs() * scale, psi.mod)


def phat_apply(psi: Wavefunction) -> Wavefunction:
    """Momentum operator: multiplication by tan(alpha)/sqrt(beta)."""
    p = np.tan(angle_nodes(psi.n)) / psi.ctx.sqrt_beta
    return Wavefunction(psi.ctx, p * psi.values, mod=psi.mod)


def lambda_ordered_operator(sym) -> Callable[[Wavefunction], Wavefunction]:
    """Operator of the symbol q^n phi(p) in the chosen ordering.

    Returns a closure applying
    sum_l C(n, l) lam^l (1-lam)^(n-l) qhat^l phi(phat) qhat^(n-l).
    ``sym`` provides ``power`` (the q exponent) and ``phi`` (a Wavefunction-like
    sample vector of phi on the angle grid, with optional modulation).
    """
    npow = int(sym.power)
    phi = sym.phi

    def op(psi: Wavefunction) -> Wavefunction:
        _check_pair(phi, psi, "symbol and wavefunction")
        lam = psi.ctx.lam
        acc = 0.0
        for l in range(npow + 1):
            w = math.comb(npow, l) * lam ** l * (1 - lam) ** (npow - l)
            cur = psi
            for _ in range(npow - l):
                cur = qhat_apply(cur)
            cur = Wavefunction(psi.ctx, phi.values * cur.values, mod=phi.mod + cur.mod)
            for _ in range(l):
                cur = qhat_apply(cur)
            acc = acc + w * cur.coeffs()
        return Wavefunction._own(psi.ctx, acc, phi.mod + psi.mod)

    return op


# ---------------------------------------------------------------------------
# norms, state checks, uncertainties
# ---------------------------------------------------------------------------

def operator_norm(k: OperatorKernel) -> float:
    """Largest singular value of the kernel's operator, exactly.

    The weighted sample matrix is ``(pi/sqrt(beta)) U coef V^T`` with unitary
    ``U`` and ``V`` (the sample bases over sqrt(n)), so its spectral norm is
    that of the coefficients.
    """
    _check_kind(OperatorKernel, "the kernel", k)
    return float(np.pi / k.ctx.sqrt_beta * np.linalg.norm(k.coef, 2))


@dataclass(frozen=True)
class StateReport:
    """Outcome of :func:`state_check`.

    ``hermiticity_residual`` is the relative Frobenius norm ``||A - A^dagger||_F / ||A||_F``
    of the operator's matrix ``A``; it is infinite when ``d`` is not an integer.
    """

    hermitian: bool
    trace: complex
    min_eig: float
    hermiticity_residual: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "hermitian": self.hermitian,
            "trace": [self.trace.real, self.trace.imag],
            "min_eig": self.min_eig,
            "hermiticity_residual": self.hermiticity_residual,
            "passed": self.passed,
        }


def state_check(rho: TorusField, herm_tol: float = 1e-8,
                eig_tol: float = -1e-9) -> StateReport:
    """Verify the three state conditions on a candidate density field.

    The kernel acts on a state's coefficients as the matrix
    ``A = (pi/sqrt(beta)) coef[:, perm] * sign``, ``(perm, sign)`` the signed
    pairing at ``d = mod[0] + mod[1]``, read by ``sampling._integral``
    (the field and its kernel share ``mod``); ``A`` is unitarily similar to
    the weighted kernel matrix on sample vectors.
    Hermiticity asks that the relative Frobenius residual
    ``||A - A^dagger||_F / ||A||_F`` stay within ``herm_tol``; a non-integer
    ``d`` cannot be self-adjoint and reports an infinite residual.
    Positivity asks that the smallest eigenvalue of ``(A + A^dagger)/2`` stay
    above ``eig_tol`` (slightly negative to absorb roundoff on exact
    rank-deficient states).  The trace, :func:`trace_op` of the kernel, must
    be one to within 1e-8; it is ``star_algebra.trace(rho)`` to rounding, as
    both read the kernel diagonal (``sampling._diagonal``).
    """
    k = kernel_of(rho)  # a TypeError for any carrier but a field
    tr = trace_op(k)
    d = _integral(*rho.mod)
    hermitian, herm_res, min_eig = False, math.inf, math.nan
    if d is not None:
        perm, sign = _contraction(k.n, d)
        A = np.pi / k.ctx.sqrt_beta * k.coef[:, perm] * sign
        herm_res = float(np.linalg.norm(A - A.conj().T) / max(np.linalg.norm(A), 1e-300))
        hermitian = herm_res <= herm_tol
        if hermitian:
            min_eig = float(np.linalg.eigvalsh(0.5 * (A + A.conj().T)).min())
    passed = hermitian and abs(tr - 1.0) <= 1e-8 and min_eig >= eig_tol
    return StateReport(hermitian, tr, min_eig, herm_res, passed)


@dataclass(frozen=True)
class UncertaintyReport:
    mean_q: float
    mean_p: float
    dq: float
    dp: float
    gup_slack: float

    def as_dict(self) -> dict:
        return {"mean_q": self.mean_q, "mean_p": self.mean_p,
                "dq": self.dq, "dp": self.dp, "gup_slack": self.gup_slack}


def uncertainty(psi: Wavefunction) -> UncertaintyReport:
    """Means and spreads of position and momentum, plus the uncertainty slack.

    ``gup_slack = dq*dp - (hbar/2)(1 + beta*dp^2 + beta*<p>^2)`` is nonnegative
    for physical states and zero exactly on maximal-localization states.
    The spreads are the centred norms ``||(qhat - <q>) psi||`` and ``||(phat - <p>) psi||``
    on coefficients sharing psi's ``mod``: ``sqrt(<q^2> - <q>^2)`` cancels far from 0.
    """
    if abs(psi.norm() - 1.0) > 1e-8:
        raise ValueError("uncertainty requires a normalized wavefunction")
    ctx = psi.ctx
    qpsi = qhat_apply(psi)
    ppsi = phat_apply(psi)
    mean_q = wf_inner(psi, qpsi).real
    mean_p = wf_inner(psi, ppsi).real
    c = psi.coeffs()
    dq, dp = (math.sqrt(np.pi / ctx.sqrt_beta * np.vdot(d, d).real)  # Parseval, as in wf_inner
              for d in (qpsi.coeffs() - mean_q * c, ppsi.coeffs() - mean_p * c))
    slack = dq * dp - 0.5 * ctx.hbar * (1.0 + ctx.beta * dp ** 2 + ctx.beta * mean_p ** 2)
    return UncertaintyReport(mean_q, mean_p, dq, dp, slack)
