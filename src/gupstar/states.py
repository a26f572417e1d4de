"""Closed-form position eigenvectors and maximal-localization states.

Both families are built from exact evaluators; their carriers attach the
known modulation (position off the sampling lattice shows up as a real
frequency offset).  A position eigenvector is one coefficient, so its Wigner
field is an exact relabeling.  A localization state is sampled and encoded
once into line coefficients, like every carrier, and keeps exact derivative
samples for the kink its momentum profile has at infinity; its Wigner field
fills the band, so it is sampled and encoded once too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .beta_arith import BetaContext
from .operator_rep import uncertainty, wigner
from .sampling import (
    TorusField,
    Wavefunction,
    _CHUNK,
    _line_coeffs,
    _write_csv,
    angle_nodes,
    mode_numbers,
    wavefunction_from_coeffs,
)

__all__ = [
    "PositionEigenvector",
    "MaxLocalizationState",
    "position_eigenvector",
    "ml_wavefunction",
    "ml_phase_state",
    "ml_phase_function",
    "ml_sinc_form",
    "eigenvector_flags",
    "phase_space_csv",
]


def _mod_freq(ctx: BetaContext, xi: float) -> float:
    # e^{-i (xi, p)/hbar} = e^{2i mu alpha} with mu = -xi/(2 hbar sqrt(beta))
    if not math.isfinite(xi):
        raise ValueError(f"position xi must be finite, got {xi}")
    return -xi / (2.0 * ctx.hbar * ctx.sqrt_beta)


# ---------------------------------------------------------------------------
# position eigenvectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositionEigenvector:
    xi: float
    psi: Wavefunction
    rho: TorusField
    rho_qp: Callable


def position_eigenvector(ctx: BetaContext, xi: float, n: int) -> PositionEigenvector:
    """Eigenvector of star multiplication by the position coordinate.

    The phase-space profile is sinc((q - xi)/lattice_step); it is an exact
    eigenvector but not a physical state (its formal position spread sits
    below the minimal uncertainty).  psi holds one coefficient, the constant
    amplitude at mode 0 with modulation mu = -xi/(2 hbar sqrt(beta)), so its
    spectral derivative is exact and ``rho`` is the one-mode Wigner field
    built without sampling.
    """
    mu = _mod_freq(ctx, xi)
    coef = np.zeros(n, dtype=complex)
    coef[0] = math.sqrt(ctx.sqrt_beta / math.pi)
    psi = wavefunction_from_coeffs(ctx, coef, mu)
    rho = wigner(psi, psi)
    step = ctx.q_lattice_step

    def rho_qp(q, p=0.0):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        return np.sinc((q - xi) / step) + 0.0 * p  # constant in momentum

    return PositionEigenvector(xi, psi, rho, rho_qp)


def eigenvector_flags(ctx: BetaContext, xi: float) -> dict:
    """Evidence that a position eigenvector is not a physical state.

    Two complementary observations: the exact carrier gives a position spread
    of zero, strictly below the minimal uncertainty; and the lattice
    regularization (samples re-read as plain periodic data, which is what any
    modulation-blind treatment sees) has a second position moment that grows
    with resolution for off-lattice positions (grids of 128, 256 and 512
    nodes).  Returns the exact carrier's measured spread ``dq`` (on 128
    nodes) with the flag ``dq < min_dq``, and the growth slope of that
    divergent moment: ``log2`` of the ratio of its increments 128 -> 256 and
    256 -> 512.  The increments read the growing part alone, so the slope
    does not depend on hbar sqrt(beta), where a log-log slope of the moment
    itself is flattened by its constant xi^2.  It is near 1 off the lattice,
    and 0 when an increment is not positive, as on the lattice.
    """
    dq = uncertainty(position_eigenvector(ctx, xi, 128).psi).dq
    sizes = (128, 256, 512)
    on_lattice = abs(xi / ctx.q_lattice_step - round(xi / ctx.q_lattice_step)) < 1e-12
    moments = []
    for n in sizes:
        a = angle_nodes(n)
        v = np.exp(2j * _mod_freq(ctx, xi) * a)  # plain periodic reading
        c = _line_coeffs(v)
        m = mode_numbers(n)
        w = np.pi / (n * ctx.sqrt_beta)
        norm = w * np.vdot(v, v).real
        q2 = (ctx.hbar * ctx.sqrt_beta) ** 2 * np.pi / ctx.sqrt_beta * float(
            (4 * m ** 2 * np.abs(c) ** 2).sum()) / norm
        moments.append(q2)
    rises = np.diff(moments)  # the moment's growing part, grid by grid
    slope = math.log2(rises[1] / rises[0]) if (rises > 0).all() else 0.0
    return {
        "dq": dq,
        "dq_below_min": dq < ctx.min_dq,
        "on_lattice": on_lattice,
        "regularized_q2": moments,
        "divergence_slope": slope,
    }


# ---------------------------------------------------------------------------
# maximal localization
# ---------------------------------------------------------------------------

def ml_wavefunction(ctx: BetaContext, xi: float, n: int) -> Wavefunction:
    """Momentum wavefunction of the state of maximal localization at xi.

    Profile sqrt(2 sqrt(beta)/pi) (1 + beta p^2)^(-1/2) times the position
    phase; on the circle the modulus is |cos alpha|, continuous with a kink at
    infinity, so the exact alpha derivative is attached for the moment
    functionals.  Unit norm under the invariant quadrature.
    """
    mu = _mod_freq(ctx, xi)
    a = angle_nodes(n)
    amp = math.sqrt(2.0 * ctx.sqrt_beta / math.pi)
    g = np.abs(np.cos(a))
    phase = np.exp(2j * mu * a)
    vals = amp * g * phase
    dg = -np.sin(a) * np.sign(np.cos(a))
    deriv = amp * phase * (2j * mu * g + dg)
    return Wavefunction(ctx, vals, mod=mu, deriv=deriv)


def _ml_coeffs(ctx: BetaContext, n: int) -> np.ndarray:
    """Line coefficients of the grid samples of ``amp |cos alpha|``, in closed form.

    This is the localization profile's modulus, so they are the coefficients
    of ``ml_wavefunction`` at every xi (the position phase is its ``mod``).
    On the half-offset grid |cos alpha_j| = sin(t_j) with t_j = pi (j + 1/2)/n,
    and exp(-2i m alpha_j) = (-1)^m exp(-2i m t_j), so the encoder's sum is
    two geometric series over odd multiples of pi/(2n):

        c_m = amp (-1)^m / (2n) [csc(pi (1 - 2m)/(2n)) + csc(pi (1 + 2m)/(2n))],

    amp = sqrt(2 sqrt(beta)/pi).  They alias the window's coefficients
    ``amp (2/pi) (-1)^m / (1 - 4 m^2)`` at O(n^-2).  An oracle for the
    sampled family, which stays sampled.
    """
    m = mode_numbers(n)
    amp = math.sqrt(2.0 * ctx.sqrt_beta / math.pi)
    x = np.pi / (2 * n)
    return amp * (-1.0) ** m / (2 * n) * (1 / np.sin(x * (1 - 2 * m)) + 1 / np.sin(x * (1 + 2 * m)))


def ml_phase_function(ctx: BetaContext, xi: float) -> Callable:
    """Exact phase-space profile of the maximal-localization state.

    Closed-form evaluation of the defining Wigner integral, piecewise in the
    momentum angle: the window splits where either composed angle crosses the
    seam, and each piece is an elementary sinc combination.  Off-lattice
    positions additionally pick up seam phases, which is why the profile is an
    exact lattice translate only for xi on the sampling lattice.

    On a segment of length L and midpoint m,
    ``Int cos(a x + b) e^{2i u x} dx = sum_{s = +-1} (L/2) e^{i s (b + a m)}
    e^{2i u m} sinc((2u + s a) L / (2 pi))``, with (a, b) = (2 lam - 1, 2 alpha)
    and (1, 0) for the two factors of the integrand.

    Returns ``evaluate(q, p)``, which broadcasts q and p against each other
    like a ufunc: array arguments give an array of their broadcast shape
    (``evaluate(qs[:, None], ps)`` is a whole (q, p) window), two scalars give
    a complex number.  The breakpoints are found once per distinct p; the
    segment integrals are then evaluated for all points at once, shorter
    segment lists padded with zero-length segments, in chunks of at most
    ``_CHUNK`` floats per (point, segment) temporary.
    """
    lam = ctx.lam
    hb = ctx.hbar * ctx.sqrt_beta
    xph = math.pi * xi / hb

    def segments(pv: float) -> tuple[float, list]:
        """The angle of momentum pv and ``(seam factor, length, midpoint)`` of each segment."""
        al = math.atan(ctx.sqrt_beta * pv)
        pts = {-math.pi / 2, math.pi / 2}
        for k in (-2, -1, 0, 1, 2):
            for sgn in (1.0, -1.0):
                if lam != 0.0:
                    x = (sgn * math.pi / 2 + k * math.pi - al) / lam
                    if -math.pi / 2 < x < math.pi / 2:
                        pts.add(x)
                if lam != 1.0:
                    x = (al - sgn * math.pi / 2 - k * math.pi) / (1.0 - lam)
                    if -math.pi / 2 < x < math.pi / 2:
                        pts.add(x)
        pts = sorted(pts)
        out = []
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid = 0.5 * (lo + hi)
            k1 = math.floor((al + lam * mid + math.pi / 2) / math.pi)
            k2 = math.floor((al - (1 - lam) * mid + math.pi / 2) / math.pi)
            out.append(((-1.0) ** (k1 + k2) * np.exp(1j * xph * (k1 - k2)), hi - lo, mid))
        return al, out

    def evaluate(q, p):
        q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
        pu, which = np.unique(p, return_inverse=True)
        tables = [segments(pv) for pv in pu.tolist()]
        width = max((len(t) for _, t in tables), default=1)
        # (p, segment) tables; padding segments have L = 0 and add exactly nothing
        fac = np.zeros((pu.size, width), dtype=complex)
        L, mid = np.zeros((2, pu.size, width))
        for i, (_, t) in enumerate(tables):
            fac[i, :len(t)], L[i, :len(t)], mid[i, :len(t)] = zip(*t)
        al = np.array([al for al, _ in tables])[:, None]
        # weight of each sinc term by its s a (terms of equal s a merge): the seam
        # factor, the 2/pi in front and the halves of the two factors and of the cosine
        w = fac * L / (2 * np.pi)
        terms: dict = {}
        for a, b in ((2 * lam - 1, 2 * al), (1.0, 0.0)):
            for sg in (1.0, -1.0):
                terms[sg * a] = terms.get(sg * a, 0.0) + w * np.exp(1j * sg * (b + a * mid))
        qf, which = q.ravel(), which.ravel()
        total = np.empty(qf.size, dtype=complex)
        step = max(1, _CHUNK // (2 * width))
        for lo in range(0, qf.size, step):
            at = which[lo:lo + step]
            u = ((qf[lo:lo + step] - xi) / (2.0 * hb))[:, None]
            half_l, mp = 0.5 * L[at], mid[at]
            acc = 0.0
            for sa, wt in terms.items():
                y = (2.0 * u + sa) * half_l  # pi times the sinc argument
                acc = acc + wt[at] * np.divide(np.sin(y), y, out=np.ones_like(y), where=y != 0.0)
            total[lo:lo + step] = (acc * np.exp(2j * u * mp)).sum(axis=1)
        total = total.reshape(q.shape)
        return complex(total[()]) if total.ndim == 0 else total

    return evaluate


def ml_sinc_form(ctx: BetaContext, xi: float, q, p):
    """Three-term sinc expression for the localization profile.

    Valid where no composed angle leaves the principal window, i.e. on the
    momentum strip |arctan(sqrt(beta) p)| < (pi/2) min(lam, 1-lam); there it
    agrees exactly with :func:`ml_phase_function`.
    """
    lam = ctx.lam
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    u = (q - xi) / (2.0 * ctx.hbar * ctx.sqrt_beta)
    bp2 = ctx.beta * p ** 2
    t1 = 0.5 * (1 - bp2) / (1 + bp2) * (np.sinc(0.5 - lam - u) + np.sinc(0.5 - lam + u))
    t2 = 0.5 * (np.sinc(0.5 - u) + np.sinc(0.5 + u))
    t3 = 1j * ctx.sqrt_beta * p / (1 + bp2) * (np.sinc(0.5 - lam - u) - np.sinc(0.5 - lam + u))
    return t1 + t2 + t3


@dataclass(frozen=True)
class MaxLocalizationState:
    xi: float
    psi: Wavefunction
    rho: TorusField
    evaluate: Callable


def ml_phase_state(ctx: BetaContext, xi: float, n: int) -> MaxLocalizationState:
    """Maximal-localization state: wavefunction, Wigner field and evaluator.

    The field is built from the sampled wavefunction through the Wigner
    construction, so it carries the kink-limited interpolation error of the
    grid; the evaluator is exact.  At lattice positions ``xi = m * 2 hbar
    sqrt(beta)`` the two agree to O(n^-2) (max difference 5.8e-4, 1.3e-4,
    3.2e-5 at n = 64, 128, 256 for xi = 0).  At off-lattice positions they do
    not converge: the evaluator's wrap phases and the field's quasi-periodic
    continuation encode different objects, and the gap stays at 0.684 at every
    grid for xi = -0.916955 (ROADMAP item 1, unresolved).
    """
    psi = ml_wavefunction(ctx, xi, n)
    rho = wigner(psi, psi)
    return MaxLocalizationState(xi, psi, rho, ml_phase_function(ctx, xi))


# ---------------------------------------------------------------------------
# figure-window export
# ---------------------------------------------------------------------------

def phase_space_csv(path, qs: np.ndarray, ps: np.ndarray, vals: np.ndarray) -> None:
    """Write a (q, p) window of complex values as `q,p,re,im` rows."""
    _write_csv(path, "q,p,re,im", qs, ps, vals)
