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
    _line_coeffs,
    _line_values,
    angle_nodes,
    deriv_pprime,
    field_from_coeffs,
    mode_numbers,
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
    if f.mod[1] != g.mod[1]:
        raise ValueError("generalized convolution needs matching alpha modulations")
    b0 = f.mod[1]
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
        if x.ctx != y.ctx or x.n != y.n:
            raise ValueError("convolution operands live on different grids")
        return TorusField(x.ctx, _row_convolution(x, y), (x.mod[0] + y.mod[0], x.mod[1]))
    if isinstance(x, SymplecticPair) and isinstance(y, SymplecticPair):
        if not (x.transformed and y.transformed):
            raise ValueError("pair convolution expects both operands transformed")
        F, G = x.field, y.field
        if F.ctx != G.ctx or F.n != G.n:
            raise ValueError("convolution operands live on different grids")
        out = _pair_convolution(F, G)
        return SymplecticPair(TorusField(F.ctx, out.T), transformed=True)
    raise TypeError("conv_generalized expects two fields or two transformed pairs")


def _pair_convolution(F: TorusField, G: TorusField) -> np.ndarray:
    """Tagged-side convolution: contraction along the sources' first slot.

    Returns T[r, k] = (1/sqrt(beta)) Int F(s, a'_r) G(a_k - s, a'_r) ds, the
    transformed samples of the convolution of the two sources' images.  The
    off-grid first-slot evaluations of G use its sheared expansion at the raw
    (unwrapped) difference angles.
    """
    n = F.n
    ap = angle_nodes(n)
    gc = G.coeffs()
    nug, btg = G.freq_grids()
    bt = btg[0, :]
    # differences a_k - s_j cover (-pi, pi); the composed momentum carries the
    # canonical representative, so wrap them into the principal window
    dd = np.pi * np.arange(-(n - 1), n) / n
    dd = (dd + np.pi / 2) % np.pi - np.pi / 2
    M = np.empty((dd.size, n), dtype=complex)  # sum over c at each offset
    for i, x in enumerate(dd):
        M[i] = (gc * np.exp(2j * nug * x)).sum(axis=0)
    GT = M @ np.exp(2j * np.outer(bt, ap))  # (2n-1, n) values G(<x_d>, a'_r)
    w = (np.pi / n) / F.ctx.sqrt_beta
    fv = F.values
    out = np.empty((n, n), dtype=complex)
    for r in range(n):
        full = np.convolve(fv[:, r], GT[:, r])
        out[r] = w * full[n - 1:2 * n - 1]
    return out


def twisted_conv(u: SymplecticPair, v: SymplecticPair) -> SymplecticPair:
    """Twisted convolution of two transformed pairs.

    Direct discretization of the oscillatory-phase convolution: the position
    integral runs over the sampling lattice (exact for band-limited sources),
    the momentum integral over the angle grid.  Satisfies the defining
    relation against the star product, which is computed along an entirely
    different route; the two are compared in the test suite.  Cost O(n^3);
    meant for verification-scale grids.
    """
    if not (isinstance(u, SymplecticPair) and isinstance(v, SymplecticPair)):
        raise TypeError("twisted_conv expects two SymplecticPair operands")
    if not (u.transformed and v.transformed):
        raise ValueError("twisted_conv operands must be on the transformed side")
    F, G = u.field, v.field
    if F.ctx != G.ctx or F.n != G.n:
        raise ValueError("twisted_conv operands live on different grids")
    if F.mod != (0.0, 0.0) or G.mod != (0.0, 0.0):
        raise ValueError("twisted_conv supports unmodulated sources only")
    ctx, n = F.ctx, F.n
    lam = ctx.lam
    hs = ctx.hbar * ctx.sqrt_beta
    ap = angle_nodes(n)
    m = mode_numbers(n).astype(int)
    fc, gc = F.coeffs(), G.coeffs()

    # lattice rows of the transformed sources
    UL = np.empty((n, n), dtype=complex)
    VC = np.empty((n, n), dtype=complex)
    for i, mp in enumerate(m):
        UL[i] = _line_values(fc[:, (-mp) % n], -lam * mp) / (2 * hs)
        VC[i] = gc[:, (-mp) % n] / (2 * hs)

    idx = {mp: i for i, mp in enumerate(m)}
    O = np.zeros((n, n), dtype=complex)
    for i2, m2 in enumerate(m):
        # gather v rows at lattice index m2 - m', zero outside the mode range
        VCg = np.zeros((n, n), dtype=complex)
        for i1, m1 in enumerate(m):
            j = idx.get(m2 - m1)
            if j is not None:
                VCg[i1] = VC[j]
        W = UL * np.exp(2j * (1 - lam) * np.outer(m2 - m, ap))
        Mje = W.T @ VCg  # (j, e)
        freq = mode_numbers(n) - lam * m2
        T = (np.exp(-2j * np.outer(ap, freq)) * Mje).sum(axis=0)
        O[i2] = (2 * np.pi * ctx.hbar / n) * (np.exp(2j * np.outer(ap, freq)) @ T)
    tagged = 2 * hs * (np.exp(-2j * np.outer(ap, m)) @ O)
    return SymplecticPair(TorusField(ctx, tagged.T), transformed=True)


def mult_by_q(f: TorusField) -> TorusField:
    """Multiplication by the position coordinate, acting as i hbar D_{p'}.

    The spectral first-slot derivative realizes the improper-integral
    convention: boundary contributions at the seam are dropped, which is what
    sends a constant field to zero and a pure first-slot phase to its position
    eigenvalue.  A coefficient scale, so it runs no transform.
    """
    return field_from_coeffs(f.ctx, 1j * f.ctx.hbar * deriv_pprime(f).coeffs(), f.mod)
