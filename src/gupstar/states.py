"""Closed-form position eigenvectors and maximal-localization states.

Both families are built from exact evaluators; their sampled carriers attach
the known modulation (position off the sampling lattice shows up as a real
frequency offset) and, for the localization states, the exact derivative at
the kink the momentum profile has at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .beta_arith import BetaContext
from .operator_rep import wigner
from .sampling import (
    TorusField,
    Wavefunction,
    _line_coeffs,
    _write_csv,
    angle_nodes,
    mode_numbers,
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
    below the minimal uncertainty).
    """
    mu = _mod_freq(ctx, xi)
    a = angle_nodes(n)
    amp = math.sqrt(ctx.sqrt_beta / math.pi)
    vals = amp * np.exp(2j * mu * a)
    psi = Wavefunction(ctx, vals, mod=mu, deriv=2j * mu * vals)
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
    nodes).  Returns the spread flag and the log-log growth slope of that
    divergent moment.
    """
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
    if moments[0] > 0 and moments[-1] > 0:
        slope = math.log(moments[-1] / moments[0]) / math.log(sizes[-1] / sizes[0])
    else:
        slope = 0.0
    return {
        "dq_below_min": True,  # exact carrier: q-spread 0 < hbar sqrt(beta)
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


def _segment_integral(a_coef: float, b_coef: float, u, lo: float, hi: float):
    """Exact Int_lo^hi cos(a_coef x + b_coef) e^{2i u x} dx, vectorized in u."""
    u = np.asarray(u, dtype=float)
    L, m = hi - lo, 0.5 * (hi + lo)
    out = np.zeros(u.shape, dtype=complex)
    for sg in (1.0, -1.0):
        c = 2.0 * u + sg * a_coef
        out += 0.5 * np.exp(1j * sg * b_coef) * L * np.exp(1j * c * m) * np.sinc(c * L / (2 * np.pi))
    return out


def ml_phase_function(ctx: BetaContext, xi: float) -> Callable:
    """Exact phase-space profile of the maximal-localization state.

    Closed-form evaluation of the defining Wigner integral, piecewise in the
    momentum angle: the window splits where either composed angle crosses the
    seam, and each piece is an elementary sinc combination.  Off-lattice
    positions additionally pick up seam phases, which is why the profile is an
    exact lattice translate only for xi on the sampling lattice.  Returns a
    callable of (q, p) broadcasting over q arrays for scalar p.
    """
    lam = ctx.lam
    hb = ctx.hbar * ctx.sqrt_beta
    xph = math.pi * xi / hb

    def evaluate(q, p):
        q = np.asarray(q, dtype=float)
        scalar_q = q.ndim == 0
        qv = np.atleast_1d(q)
        pv = float(p)
        al = math.atan(ctx.sqrt_beta * pv)
        u = (qv - xi) / (2.0 * hb)
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
        total = np.zeros(qv.shape, dtype=complex)
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid = 0.5 * (lo + hi)
            k1 = math.floor((al + lam * mid + math.pi / 2) / math.pi)
            k2 = math.floor((al - (1 - lam) * mid + math.pi / 2) / math.pi)
            fac = (-1.0) ** (k1 + k2) * np.exp(1j * xph * (k1 - k2))
            part = 0.5 * (_segment_integral(2 * lam - 1, 2 * al, u, lo, hi)
                          + _segment_integral(1.0, 0.0, u, lo, hi))
            total += fac * part
        total *= 2.0 / math.pi
        return complex(total[0]) if scalar_q else total

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
    grid; the evaluator is exact, and the two converge algebraically as the
    grid is refined.
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
