"""Symplectic Fourier transform, generalized and twisted convolutions.

At the level of position-transformed samples the symplectic Fourier transform
is the argument swap (F_b f)~(p', p) = f~(p, p'), so the production transform
is a transpose plus a side tag; the defining double quadrature survives as a
test oracle.  The convolutions are the transform-side companions of pointwise
multiplication and of the star product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import (
    TorusField,
    _check_pair,
    _cyclic_convolution,
    _held,
    _held_freq,
    _integral,
    _line_coeffs,
    _line_values,
    _wrap,
    mode_numbers,
    shift_field,
)

__all__ = [
    "SymplecticPair",
    "symplectic_fourier",
    "conv_generalized",
    "conv_unit",
    "twisted_conv",
    "mult_by_q",
]


@dataclass(frozen=True)
class SymplecticPair:
    """A field together with which side of the symplectic transform it is on.

    ``field`` always stores the untransformed element; ``transformed`` says
    whether the pair currently represents the element itself or its symplectic
    Fourier image.  ``values`` gives the samples of the represented side, so a
    transformed pair exposes the transposed array.
    """

    field: TorusField
    transformed: bool = False

    @property
    def values(self) -> np.ndarray:
        return self.field.values.T if self.transformed else self.field.values


def symplectic_fourier(x) -> SymplecticPair:
    """Apply the self-inverse symplectic Fourier transform (tag toggle).

    Accepts a plain field or a pair; two applications restore both the tag and
    the values exactly.
    """
    if isinstance(x, TorusField):
        return SymplecticPair(x, transformed=True)
    if isinstance(x, SymplecticPair):
        return SymplecticPair(x.field, transformed=not x.transformed)
    raise TypeError(f"cannot transform object of type {type(x).__name__}")


# ---------------------------------------------------------------------------
# generalized convolution
# ---------------------------------------------------------------------------

def conv_unit(ctx, n: int) -> TorusField:
    """Band-limited identity element of the generalized convolution.

    Its transform rows are identical Dirichlet spikes: every alpha mode enters
    with weight sqrt(beta)/pi and there is no first-slot dependence, the
    discrete counterpart of a position-momentum point mass.  The carrier
    encodes these samples like any other and gives them back to rounding,
    but off the grid its sheared expansion does not describe this element:
    the rows are constant in alpha', a frequency the sheared basis has only
    where lam*b is an integer.  Only the on-grid samples matter for
    convolution.
    """
    row = _line_values(np.full(n, ctx.sqrt_beta / np.pi, dtype=complex))
    return TorusField(ctx, np.tile(row, (n, 1)))


def _row_convolution(f: TorusField, g: TorusField) -> np.ndarray:
    """Per-row invariant-measure convolution along the alpha axis."""
    if _integral(*f.mod, -g.mod[0], -g.mod[1]) != 0:
        raise ValueError("generalized convolution needs matching alpha modulations")
    b0 = f.mod[0] + f.mod[1]
    cf, cg = _line_coeffs(f.values, b0), _line_coeffs(g.values, b0)
    return _line_values(np.pi / f.ctx.sqrt_beta * cf * cg, b0)


def conv_generalized(x, y):
    """Generalized convolution of two elements, carried transform side.

    For plain fields f, g this returns the exact samples of (f conv g)~: the
    alpha' rows multiply pointwise in their alpha Fourier coefficients with
    the invariant-measure weight.  For two transformed pairs it returns the
    transformed pair of the convolution, which is how the transform exchanges
    pointwise products for convolutions.  Note the first-slot structure of a
    plain-field result generally lies outside the sheared carrier basis; tests
    and consumers work with the sample values.
    """
    if isinstance(x, TorusField) and isinstance(y, TorusField):
        _check_pair(x, y, "convolution operands")
        mod = (x.mod[0] - y.mod[1], x.mod[1] + y.mod[1])  # alpha' offsets add, alpha's kept
        return TorusField(x.ctx, _row_convolution(x, y), mod)
    if isinstance(x, SymplecticPair) and isinstance(y, SymplecticPair):
        if not (x.transformed and y.transformed):
            raise ValueError("pair convolution expects both operands transformed")
        F, G = x.field, y.field
        _check_pair(F, G, "convolution operands")
        out = _pair_convolution(F, G)
        return SymplecticPair(TorusField(F.ctx, out.T), transformed=True)
    raise TypeError("conv_generalized expects two fields or two transformed pairs")


def _pair_convolution(F: TorusField, G: TorusField) -> np.ndarray:
    """Tagged-side convolution: contraction along the sources' first slot.

    Returns T[r, k] = (1/sqrt(beta)) Int F(s, a'_r) G(a_k - s, a'_r) ds, the
    transformed samples of the convolution of the two sources' images, by the
    midpoint rule over the nodes s = a_j.  The composed momentum carries the
    canonical representative, so each difference a_k - a_j is wrapped into
    [-pi/2, pi/2): it becomes pi t/n with t = (k - j) wrapped to [-n/2, n/2),
    which depends on (k - j) mod n alone.  So the sum is one cyclic
    convolution along the first slot.  G is read at the n angles pi t/n
    through its sheared expansion: node t + n/2 shifted by -pi/(2n) is pi t/n,
    so rolling those samples by n/2 puts angle pi t/n at row t mod n.
    """
    n = F.n
    gw = np.roll(shift_field(G, -np.pi / (2 * n)).values, n // 2, axis=0)  # [t mod n, r]
    return (np.pi / n) / F.ctx.sqrt_beta * _cyclic_convolution(F.values.T, gw.T)


def _pair_lattice(pair: SymplecticPair, ms: np.ndarray) -> np.ndarray:
    """Values of a transformed pair on the position lattice times the grid.

    Row i holds the pair at position lattice index ``ms[i]``: the source's
    alpha' coefficient column of mode -ms[i], decoded along alpha with the
    first-slot frequency offset -lam ms[i]; zero beyond the mode range.  One
    line decode with a per-row modulation.
    """
    F = pair.field
    n = F.n
    ms = np.asarray(ms)
    cols = np.where((np.abs(ms) <= n // 2)[:, None], F.coeffs().T[(-ms).astype(int) % n], 0)
    return _line_values(cols, -F.ctx.lam * ms[:, None]) / (2 * F.ctx.hbar * F.ctx.sqrt_beta)


def twisted_conv(u: SymplecticPair, v: SymplecticPair) -> SymplecticPair:
    """Twisted convolution of two transformed pairs.

    Direct discretization of the oscillatory-phase convolution: the position
    integral runs over the sampling lattice (exact for band-limited sources),
    the momentum integral over the angle grid.  Satisfies the defining
    relation against the star product, which is computed along an entirely
    different route; the two are compared in the test suite.

    Per lattice index m2, u's row at lattice index m' enters the alpha sum
    with its modes moved by the integer m2 - m' (its phase
    ``-lam m' + (1 - lam)(m2 - m')`` against the sum's ``-lam m2``): a gather
    of u's coefficients signed by ``sampling._wrap``, no transform.  One
    decode at the modulations -lam m2 gives the lattice rows, and one more
    in reverse row order (lattice index -r as mode r, wrapped) the angle
    grid.  The route stays independent of :func:`star`: it uses no kernel
    relabel and no mode pairing, only the lattice sums of the defining
    integral.  Cost O(n^3); meant for verification-scale grids.
    """
    if not (isinstance(u, SymplecticPair) and isinstance(v, SymplecticPair)):
        raise TypeError("twisted_conv expects two SymplecticPair operands")
    if not (u.transformed and v.transformed):
        raise ValueError("twisted_conv operands must be on the transformed side")
    F, G = u.field, v.field
    _check_pair(F, G, "twisted_conv operands")
    if F.mod != (0.0, 0.0) or G.mod != (0.0, 0.0):
        raise ValueError("twisted_conv supports unmodulated sources only")
    ctx, n = F.ctx, F.n
    lam, hs = ctx.lam, ctx.hbar * ctx.sqrt_beta
    m = mode_numbers(n).astype(int)
    neg, neg_sign = _wrap(-m, n)
    # row i: u's (UC) and v's (VC) source column at lattice index m_i
    UC = F.coeffs().T[neg] / (2 * hs)
    VC = G.coeffs().T[neg] / (2 * hs)
    src = m[None, :] + m[:, None]  # [m', b]: b + m', the source mode of b less m2
    T = np.empty((n, n), dtype=complex)
    for i2, m2 in enumerate(m):
        # v rows at lattice index m2 - m', zero outside the mode range
        d = m2 - m
        VCg = np.where(((d >= -(n // 2)) & (d < n // 2))[:, None], VC[d % n], 0)
        at, sign = _wrap(src - m2, n)
        T[i2] = n * (VCg * sign * np.take_along_axis(UC, at, axis=1)).sum(axis=0)
    O = (2 * np.pi * ctx.hbar / n) * _line_values(T, -lam * m[:, None])
    R = O[neg]  # row of mode r: lattice index -r
    R *= neg_sign[:, None]
    return SymplecticPair(TorusField(ctx, 2 * hs * _line_values(R.T)), transformed=True)


def mult_by_q(f: TorusField) -> TorusField:
    """Multiplication by the position coordinate, acting as i hbar D_{p'}.

    The spectral first-slot derivative realizes the improper-integral
    convention: boundary contributions at the seam are dropped, which is what
    sends a constant field to zero and a pure first-slot phase to its position
    eigenvalue.  A coefficient scale, so it runs no transform.
    """
    # deriv_pprime's product, named (see sampling.shift_field); no frequency grid outlives it
    d = _held(f) * (2j * f.ctx.sqrt_beta * _held_freq(f, 0))
    return TorusField._own(f.ctx, 1j * f.ctx.hbar * d, f.mod)
