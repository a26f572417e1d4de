"""Generalized arithmetic on the projectively extended momentum line.

The deformed addition ``x (+) y = (x + y)/(1 - beta*x*y)`` turns the extended
reals into a compact abelian group isomorphic to a circle.  Everything in this
module is exact scalar arithmetic in that group and its angle coordinate
``alpha = arctan(sqrt(beta) * p)``, in which the addition becomes ordinary
addition of angles modulo pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


class _PointAtInfinity:
    """The single point at infinity compactifying the momentum line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __neg__(self):
        return self


INFINITY = _PointAtInfinity()

#: A momentum value: a finite float or the point at infinity.
ExtReal = Union[float, _PointAtInfinity]

#: Canonical angle coordinate, representative in [-pi/2, pi/2).
Angle = float


def is_infinite(x: ExtReal) -> bool:
    return x is INFINITY


def _as_finite(x: ExtReal) -> float:
    v = float(x)
    if math.isnan(v):
        raise ValueError("NaN is not a valid momentum value")
    return v


@dataclass(frozen=True)
class BetaContext:
    """Deformation parameters and the constants derived from them.

    beta sets the inverse-squared momentum scale of the deformation, hbar the
    action scale, and lam in [0, 1] selects the operator ordering (0.5 is the
    symmetric one).
    """

    beta: float
    hbar: float
    lam: float = 0.5

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not 0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be finite and positive, got {self.hbar}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")

    @property
    def sqrt_beta(self) -> float:
        return math.sqrt(self.beta)

    @property
    def min_dq(self) -> float:
        """Smallest reachable position uncertainty."""
        return self.hbar * self.sqrt_beta

    @property
    def q_lattice_step(self) -> float:
        """Spacing of the position sampling lattice (twice ``min_dq``)."""
        return 2.0 * self.hbar * self.sqrt_beta

    @property
    def angle_halfwidth(self) -> float:
        return math.pi / 2.0

    def with_lam(self, lam: float) -> "BetaContext":
        return BetaContext(self.beta, self.hbar, lam)


def canon_angle(a: float) -> Angle:
    """Reduce an angle modulo pi to the canonical window [-pi/2, pi/2)."""
    r = math.fmod(a + math.pi / 2.0, math.pi)
    if r < 0.0:
        r += math.pi
    return r - math.pi / 2.0


def angle_of(ctx: BetaContext, p: ExtReal) -> Angle:
    """Angle coordinate of a momentum; infinity maps to -pi/2."""
    if is_infinite(p):
        return -math.pi / 2.0
    return math.atan(ctx.sqrt_beta * _as_finite(p))


def momentum_of(ctx: BetaContext, a: Angle) -> ExtReal:
    """Inverse of :func:`angle_of` on canonical representatives."""
    a = canon_angle(a)
    if a == -math.pi / 2.0:
        return INFINITY
    return math.tan(a) / ctx.sqrt_beta


def oplus(ctx: BetaContext, x: ExtReal, y: ExtReal) -> ExtReal:
    """Generalized addition, total on the extended line.

    Finite inputs with ``beta*x*y != 1`` give ``(x + y)/(1 - beta*x*y)``; the
    remaining cases follow the group closure: ``x (+) 1/(beta x) = INFINITY``,
    ``x (+) INFINITY = -1/(beta x)``, ``0 (+) INFINITY = INFINITY`` and
    ``INFINITY (+) INFINITY = 0``.  Where a formula leaves the float range
    (huge or subnormal arguments), the result is the sum of the two angles
    instead, and a value beyond the largest float is INFINITY.
    """
    if is_infinite(x) and is_infinite(y):
        return 0.0
    if is_infinite(x) or is_infinite(y):
        d = ctx.beta * _as_finite(y if is_infinite(x) else x)
        out = -1.0 / d if d != 0.0 else math.inf
        return out if math.isfinite(out) else INFINITY
    xf, yf = _as_finite(x), _as_finite(y)
    prod = ctx.beta * (xf * yf)  # exactly commutative; a finite x*y is never NaN
    if prod == 1.0:
        return INFINITY
    out = (xf + yf) / (1.0 - prod)
    if math.isfinite(prod) and math.isfinite(out):
        return out
    return momentum_of(ctx, angle_of(ctx, xf) + angle_of(ctx, yf))


def negate(x: ExtReal) -> ExtReal:
    return x if is_infinite(x) else -_as_finite(x)


def ominus(ctx: BetaContext, x: ExtReal, y: ExtReal) -> ExtReal:
    """Generalized subtraction ``x (+) (-y)``; the inverse of INFINITY is itself."""
    return oplus(ctx, x, negate(y))


def circ(ctx: BetaContext, lam: float, x: ExtReal) -> ExtReal:
    """Scalar action ``lam o x = tan(lam * arctan(sqrt(beta) x))/sqrt(beta)``.

    Defined only for ``|lam| <= 1``; the angle of x is taken in the branch
    (-pi/2, pi/2], so ``lam o INFINITY = tan(lam*pi/2)/sqrt(beta)``.
    """
    if not abs(lam) <= 1.0:
        raise ValueError(f"scalar factor must satisfy |lam| <= 1, got {lam}")
    if is_infinite(x):
        a = math.pi / 2.0
    else:
        a = math.atan(ctx.sqrt_beta * _as_finite(x))
    scaled = lam * a
    if canon_angle(scaled) == -math.pi / 2.0:
        return INFINITY
    return math.tan(scaled) / ctx.sqrt_beta


def pairing(ctx: BetaContext, q: float, p: ExtReal) -> float:
    """Generalized scalar product ``q * arctan(sqrt(beta) p)/sqrt(beta)``.

    At ``p = INFINITY`` the principal angle +pi/2 is used.
    """
    if is_infinite(p):
        a = math.pi / 2.0
    else:
        a = math.atan(ctx.sqrt_beta * _as_finite(p))
    return q * a / ctx.sqrt_beta


def angles_equal_mod_pi(a: float, b: float, tol: float = 1e-12) -> bool:
    """True when a and b agree as angles modulo pi within tol."""
    d = math.fmod(a - b, math.pi)
    if d < 0.0:
        d += math.pi
    return min(d, math.pi - d) <= tol
