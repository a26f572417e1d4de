"""Built-in state and field families for tests, verification and the CLI."""

from __future__ import annotations

import numpy as np

from .beta_arith import BetaContext
from .sampling import (
    TorusField,
    Wavefunction,
    _held,
    _line_coeffs,
    _line_values,
    angle_nodes,
    field_from_coeffs,
    mode_numbers,
    wavefunction_from_coeffs,
)
from .operator_rep import wigner
from .star_algebra import SymbolObservable
from .states import ml_phase_state, position_eigenvector

__all__ = [
    "random_state",
    "random_element",
    "random_qlocalized",
    "resolve_family",
]


def random_state(ctx: BetaContext, n: int, rng: np.random.Generator,
                 mmax: int | None = None, parity: int | None = None,
                 localized: bool = False) -> Wavefunction:
    """Random band-limited state on the momentum circle, unit norm.

    The state holds its masked mode coefficients.  ``mmax`` caps the mode
    numbers (default n/4 - 1: two such states fit the band together, so
    :func:`~gupstar.operator_rep.wigner` builds their pair as a coefficient
    outer product).  ``parity`` restricts to
    even or odd modes; ``localized`` draws a smooth bump well separated from
    the point at infinity (its samples near the seam are below 1e-12), which
    matters for checks involving the position multiplication sawtooth.
    """
    m = mode_numbers(n)
    if mmax is None:
        mmax = n // 4 - 1
    if localized:
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c *= np.exp(-(m * 0.30) ** 2)
        c[np.abs(m) > mmax] = 0
        if parity is not None:
            c[np.mod(m, 2) != parity] = 0
        vals = _line_values(c)
        center = rng.uniform(-0.1, 0.1)
        prof = np.exp(-((angle_nodes(n) - center) / 0.18) ** 2)
        # re-project to the band so spectral shifts stay exact
        c = _line_coeffs(vals * prof)
        c[np.abs(m) > mmax] = 0
    else:
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c *= np.exp(-(np.abs(m) / max(mmax / 2.0, 2.0)) ** 2)
        c[np.abs(m) > mmax] = 0
        if parity is not None:
            c[np.mod(m, 2) != parity] = 0
    return wavefunction_from_coeffs(ctx, c).normalized()


def random_element(ctx: BetaContext, n: int, rng: np.random.Generator,
                   mmax: int | None = None, parity: int | None = None,
                   localized: bool = False) -> TorusField:
    """Random band-limited algebra element built from two Wigner pairs.

    The element holds the sum of the two pairs' held kernel coefficients.
    """
    if mmax is None:
        mmax = n // 4 - 1 if localized else n // 8
    a = random_state(ctx, n, rng, mmax, parity, localized)
    b = random_state(ctx, n, rng, mmax, parity, localized)
    c = random_state(ctx, n, rng, mmax, parity, localized)
    d = random_state(ctx, n, rng, mmax, parity, localized)
    w1, w2 = wigner(a, b), wigner(c, d)
    z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return TorusField._own(ctx, z1 * _held(w1) + z2 * _held(w2), (0.0, 0.0))


def random_qlocalized(ctx: BetaContext, n: int, rng: np.random.Generator) -> TorusField:
    """Random element whose transform decays hard toward the window edge.

    Pointwise products of two such elements stay inside the position band
    (edge leakage below 1e-8 at the first-slot width 0.25), which is what the
    transform-side convolution identities need.
    """
    m = mode_numbers(n)
    bmax, cmax = min(4, n // 8), min(6, n // 8)
    coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coef *= np.exp(-(np.abs(m)[None, :] / 2.5) ** 2)
    coef[:, np.abs(m) > bmax] = 0
    coef[np.abs(m) > cmax, :] = 0
    base = field_from_coeffs(ctx, coef)
    prof = np.exp(-(angle_nodes(n) / 0.25) ** 2)[:, None]
    return TorusField(ctx, base.values * prof)


def resolve_family(label: str, ctx: BetaContext, n: int):
    """Resolve a CLI field family name into an algebra element or symbol.

    Names: ``rho0``, ``rho:<xi>``, ``ml`` or ``ml:<xi>``, ``bump`` or
    ``bump:<seed>``, ``q`` or ``q^<k>`` (position-power symbols).
    """
    name, _, arg = label.partition(":")
    if name == "rho0":
        return position_eigenvector(ctx, 0.0, n).rho
    if name == "rho":
        return position_eigenvector(ctx, float(arg or 0.0), n).rho
    if name == "ml":
        return ml_phase_state(ctx, float(arg or 0.0), n).rho
    if name == "bump":
        rng = np.random.default_rng(int(arg) if arg else 0)
        return random_element(ctx, n, rng, localized=True)
    if name == "q" or (name.startswith("q^") and name[2:].isdigit()):
        power = 1 if name == "q" else int(name[2:])
        return SymbolObservable.position_power(ctx, n, power)
    raise ValueError(f"unknown field family {label!r}")
