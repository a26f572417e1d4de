"""Grids, discrete carriers and spectral primitives.

Momentum space is parametrized by the angle ``alpha = arctan(sqrt(beta) p)``;
all sampling happens on a uniform half-offset grid of n angles

    alpha_j = -pi/2 + pi*(j + 1/2)/n,    j = 0..n-1,

which never touches the point at infinity.  The invariant measure is
``d mu = d alpha / sqrt(beta)``, so the midpoint rule is the natural (and for
trigonometric polynomials exact) quadrature.

A :class:`TorusField` carries the position-transformed function f~(p', p) by
its kernel's coefficients (the sheared coefficients below, relabeled), and
a :class:`Wavefunction` a state by line coefficients.  Samples (``F[j, k]`` at
(alpha'_j, alpha_k)) are derived on demand and never cached; a carrier built
from samples encodes them once, and since each codec is an invertible map on
grid arrays its samples come back to rounding.  States, fields and
``operator_rep.OperatorKernel`` keep one ownership rule, written once in the
private base ``_Carrier``: public constructors copy their input, so a carrier
never shares memory with its caller; library routes hand a fresh array to
``_Carrier._own``, which checks and freezes it in place of a copy.  Carriers
are immutable and compare and hash by identity.
Transformed fields of algebra elements are not plainly pi-periodic in alpha':
they obey the glide periodicity F(A' + pi, A - lam*pi) = F(A', A).  The carrier
therefore expands fields in the sheared basis

    F(A', A) = phase(A', A) * sum_{b,c} coef[c, b]
               * exp(2i((lam*b + c) A' + b A)),

with integer b (alpha modes) and c (alpha' modes), plus an optional real
modulation pair ``mod = (mu_u, mu_v)``, its operator kernel's, contributing
``phase = exp(2i(mu_u (A + lam A') + mu_v (A - (1 - lam) A')))``.  The
modulation carries exactly the non-periodic content of position eigenvectors
and shifted localization states, keeping every spectral operation exact on
band-limited data; the sheared codec reads it as the alpha' and alpha
offsets ``(s0, b0) = (-mu_v, mu_u + mu_v)`` of ``_sheared_mod``.

Every conversion between grid samples and mode coefficients in the package
goes through the two codecs of this module: the 1-d codec
``_line_coeffs``/``_line_values`` along the last axis (real modulation,
optional scalar or per-row offset) and the 2-d sheared codec
``_sheared_coeffs``/``_sheared_values``, writing and reading a held array.
Operator kernels are never sampled: the operator layer works on their
coefficients and samples only a contracted slot with a non-integer offset.
Whether an offset is an integer is decided here for every layer, by
``_integral`` (a sum snapped where rounding explains the miss), and so is
the grid's wrap sign ``_wrap`` that the exact routes read: the pairing
``_contraction``, ``_adjoint``, the kernel diagonal ``_diagonal`` and
``twisted_conv``.  So is
which modes an array occupies, by exact zeros (``_occupied``), and each
route on a held array costs that block only: the contraction, the adjoint
``_adjoint``, the kernel diagonal ``_diagonal`` (its occupied rows), the
synthesis ``_sinc_sums`` and ``star_algebra.inner``'s alpha'-sampled
branch (the alpha modes both fields occupy, ``_alpha_modes``).  Every
carrier records its block in a slot, and the algebra routes read it
there.  A route that writes a result records it: it hands ``_Carrier._own``
the block it wrote and where it landed (``_placed``), and ``_own`` scans
that block alone.  Any other carrier is scanned the first time
``_occupied`` reads it.
The module also holds the package's FFT convolutions: the cyclic
``_cyclic_convolution``, shared by the lattice synthesis and the
transformed-pair convolution of ``transforms``, and the band-limited
``_band_convolution`` of the symbol products.  The latter lays n x n
coefficients out in n cyclic rows by a cached index layout ``(at, size)``
(``_band_layout``): row c of length 3n/2 for the left product, row
s = c + b of length 2n for the right one, whose terms also move in alpha'.

A field holds its kernel's layout ``K[u, v] = coef[-v, u + v]``, and only
this module knows it: ``_KERNEL``/``_SHEARED`` and ``_relabel_index`` gather
between it and the sheared ``coef[c, b]``, and ``_held_modes`` gives each
held entry its sheared mode pair (c, b).  A held entry has two readings,
and each route takes one.  The algebra side reads kernel modes (u, v) in
the band: the contraction, ``_adjoint`` and the kernel diagonal
``_diagonal``, which ``star_algebra.trace``, ``operator_rep.trace_op`` and
``operator_rep.marginal_momentum`` weigh.  The sample side reads sheared
modes (c, b) in the band: the codec, the scales ``shift_field``,
``deriv_p``, ``deriv_pprime``, ``seminorm`` and ``transforms.mult_by_q``,
the symbol products (``_band_layout`` composes the relabel into its
index), ``star_algebra.inner``, the synthesis (``_sinc_sums``,
``lattice_from_field``), the ``transforms`` references and ``verify``.
The readings differ only on the mismatch set M, the entries whose kernel
modes (c + b, -c) lie one inside ``[-n/2, n/2)`` and one outside, where
the wrap sign flips the entry; when a field holds nothing in M they
agree.  The band-fitting Wigner families (``bump``, ``rho``,
``random_element``) hold nothing there, ``ml`` holds only rounding at
lam = 1/2 and its kink aliasing at other orderings (an energy share near
5e-12 at n = 128), and a field encoded from arbitrary samples can hold
O(1).  ``freq_grids``, ``coeffs()`` and ``field_from_coeffs`` keep their
sheared contracts.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beta_arith import BetaContext, is_infinite

__all__ = [
    "Wavefunction",
    "TorusField",
    "LatticeField",
    "angle_nodes",
    "mode_numbers",
    "wavefunction_from_coeffs",
    "field_from_coeffs",
    "quad_mu",
    "wf_inner",
    "shift_field",
    "synth",
    "synth_grid",
    "lattice_from_field",
    "analyze",
    "seminorm",
    "deriv_p",
    "deriv_pprime",
    "torus_to_csv",
    "lattice_to_csv",
    "write_text_atomic",
]


def _even_size(n: int) -> int:
    """``n`` itself if it is a valid grid size, a positive even integer."""
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"grid size must be a positive even integer, got {n}")
    return n


def angle_nodes(n: int) -> np.ndarray:
    """The n half-offset angles ``alpha_j = -pi/2 + pi (j + 1/2)/n``, spacing pi/n."""
    return -np.pi / 2 + np.pi * (np.arange(_even_size(n)) + 0.5) / n


def mode_numbers(n: int) -> np.ndarray:
    """Integer mode numbers in FFT ordering: 0..n/2-1, -n/2..-1."""
    return np.fft.fftfreq(n, 1.0 / n)


def _wrap(modes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """FFT index and sign of integer modes: the grid's wrap rule.

    Mode ``r + k n``, r in ``[-n/2, n/2)``, samples as ``(-1)^k`` times mode r, FFT index
    ``r mod n``: ``exp(2i k n alpha_j) = exp(i k pi (2j + 1 - n)) = (-1)^k`` for even n.
    """
    return modes % n, 1.0 - 2.0 * (((modes + n // 2) // n) & 1)


# ---------------------------------------------------------------------------
# spectral codecs on the half-offset grid
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _edge_phase(n: int, sign: int) -> np.ndarray:
    """``exp(sign 2i m alpha_0)`` over the modes m of an n-grid, read-only.

    Built once per ``(n, sign)``; the cache keeps at most eight of these
    n-element vectors.
    """
    return _frozen(np.exp(sign * 2j * mode_numbers(n) * angle_nodes(n)[0]))


# The FFT pair along one axis; other modules use the codecs built on it.
def _vals_to_coeffs(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Coefficients of sum_m c_m e^{2i m alpha} from samples on the grid.

    The edge phase ``exp(-2i m alpha_0)`` comes from :func:`_edge_phase`'s
    cache (at most eight n-element vectors), as it does for the inverse
    :func:`_coeffs_to_vals`.
    """
    n = v.shape[axis]
    c = np.fft.fft(v, axis=axis) / n
    shape = [1] * v.ndim
    shape[axis] = n
    return c * _edge_phase(n, -1).reshape(shape)


def _coeffs_to_vals(c: np.ndarray, axis: int = -1) -> np.ndarray:
    n = c.shape[axis]
    shape = [1] * c.ndim
    shape[axis] = n
    return np.fft.ifft(c * _edge_phase(n, 1).reshape(shape), axis=axis) * n


def _line_coeffs(v: np.ndarray, mod: float = 0.0) -> np.ndarray:
    """Coefficients c_m of ``v(alpha) = e^{2i mod alpha} sum_m c_m e^{2i m alpha}``.

    Transforms along the last axis; ``mod`` is a real frequency offset.
    """
    return _vals_to_coeffs(v * np.exp(-2j * mod * angle_nodes(v.shape[-1])))


def _line_values(c: np.ndarray, mod: float = 0.0, offset=0.0) -> np.ndarray:
    """Inverse of :func:`_line_coeffs`, sampled at ``alpha_k + offset``.

    ``offset`` is a scalar or one offset per row; a 1-d ``c`` with per-row
    offsets gives one row of samples per offset.  ``mod`` is a scalar or a
    column of one modulation per row, shape (rows, 1).
    """
    n = c.shape[-1]
    t = np.asarray(offset, dtype=float)[..., None]
    if t.ndim > 1 or t[0]:  # a scalar zero offset would multiply by exp(0) = 1
        c = c * np.exp(2j * mode_numbers(n) * t)
    vals = _coeffs_to_vals(c)
    return vals * np.exp(2j * mod * (angle_nodes(n) + t)) if np.ndim(mod) or mod else vals


def _shear(n: int, lam: float, mod: tuple[float, float]) -> np.ndarray:
    """alpha'_j times the first-slot frequency offset lam*(b + b0) + s0.

    Shape (n, n) indexed [j, b]; at lam = 0 the offset is s0 alone and the
    result is an (n, 1) column, so no shear table is built.
    """
    s0, b0 = mod
    off = s0 + lam * (mode_numbers(n) + b0) if lam else s0
    return angle_nodes(n)[:, None] * off


@functools.lru_cache(maxsize=2)
def _shear_table(n: int, lam: float, s0: float, b0: float, sign: int) -> np.ndarray:
    """The n x n table ``exp(sign 2i _shear(n, lam, (s0, b0)))``, read-only.

    At most two tables are kept: at n = 512 one is 4 MB, and a larger cache
    raised the peak memory of products on modulated n = 512 fields by a
    tenth while gaining few hits.
    """
    return _frozen(np.exp(sign * 2j * _shear(n, lam, (s0, b0))))


def _shear_phase(n: int, lam: float, mod: tuple[float, float], sign: int) -> np.ndarray:
    """``exp(sign 2i _shear(n, lam, mod))``, from :func:`_shear_table`'s cache when lam > 0.

    At lam > 0 the signs of zero in ``mod`` cannot reach the table, so keys
    that compare equal give the same bits.  At lam <= 0 the phase is the
    (n, 1) column of ``s0`` alone, n exponentials, built on every call.
    """
    if lam > 0:
        return _shear_table(n, lam, mod[0], mod[1], sign)
    return np.exp(sign * 2j * _shear(n, lam, mod))


def _sheared_coeffs(v: np.ndarray, lam: float, mod: tuple[float, float]) -> np.ndarray:
    """The held array of the field with n x n samples ``v`` and modulation ``mod``.

    Sheared coefficients (module doc) relabeled by ``_KERNEL``; the shear phase
    is :func:`_shear_phase`'s, at lam > 0 one n x n table, at most two kept.
    """
    off = _sheared_mod(mod)
    cb = _line_coeffs(v, off[1]) * _shear_phase(v.shape[0], lam, off, -1)
    del v  # with cb rebound, a temporary input and the alpha pass are freed before the gather
    cb = _vals_to_coeffs(cb, axis=0)
    return _relabel(cb, *_KERNEL)


def _sheared_values(held: np.ndarray, lam: float, mod: tuple[float, float]) -> np.ndarray:
    """Inverse of :func:`_sheared_coeffs`; the gather lives only through the alpha' decode."""
    off = _sheared_mod(mod)
    cb = _coeffs_to_vals(_relabel(held, *_SHEARED), axis=0)
    cb *= _shear_phase(held.shape[0], lam, off, 1)
    return _line_values(cb, off[1])


def _cyclic_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[..., k] = sum_j a[..., j] b[..., (k - j) mod N]`` along the last axis by FFT.

    N is a's last length; a shorter ``b`` is zero-padded to it.
    """
    size = a.shape[-1]
    return np.fft.ifft(np.fft.fft(a) * np.fft.fft(b, size))


@functools.lru_cache(maxsize=8)
def _band_layout(n: int, skew: bool) -> tuple[np.ndarray, int]:
    """Index layout ``(at, size)`` of a held n x n array in n cyclic rows of length size.

    Held entry (u, v) sits at flat index ``at[u * n + v]`` (read-only), the
    place of its sheared coefficient (c, b), FFT ordering: the sheared
    layout composed with ``_relabel_index(n, *_KERNEL)``.  Left product:
    row c, b at b mod 3n/2; sums of two band
    modes lie in [-n, n - 2], less than 3n/2 from every band mode, so none
    wraps onto one.  Right product (``skew``): the move (c, b) -> (c - mu,
    b + mu) keeps s = c + b, so row s mod n, b at b mod 2n when s >= 0 and
    (b - n/2) mod 2n when s < 0.  The two slots of a row lie n/2 apart on
    both sides, so no move of size at most n/2 crosses between them, and
    within a slot no difference wraps onto a band mode.
    """
    m = mode_numbers(n).astype(int)
    if skew:
        s = m[:, None] + m
        at, size = (s % n) * (2 * n) + (m - n // 2 * (s < 0)) % (2 * n), 2 * n
    else:
        at, size = np.arange(n)[:, None] * (3 * n // 2) + m % (3 * n // 2), 3 * n // 2
    return _frozen(at.ravel()[_relabel_index(n, *_KERNEL)].ravel()), size


def _band_convolution(a: np.ndarray, b, layout: tuple[np.ndarray, int]) -> np.ndarray:
    """``out[c, m] = sum_k sum_mu a[k][mu] b[k][c + mu, m - mu]``, or ``b[k][c, m - mu]``.

    The symbol products' convolution along the alpha modes of n x n
    coefficients (the first form for the skew layout), summed over k; a[k]
    holds n modes and ``b`` may be a sequence.  (c, b) are sheared modes,
    read from and written to held arrays through the index.  ``layout`` is
    :func:`_band_layout`'s: laid out and read back through the same index,
    the cyclic rows drop, never wrap, each term whose target leaves
    ``[-n/2, n/2)``.  By FFT, summed in frequency space with one pair of
    spectra alive at a time; they cover 2n^2 points when skew, 3n^2/2 if not.
    """
    at, size = layout
    n = a.shape[-1]
    acc = None
    for x, y in zip(a, b):
        xr, yr = np.zeros(size, dtype=complex), np.zeros(n * size, dtype=complex)
        xr[mode_numbers(n).astype(int) % size], yr[at] = x.ravel(), y.ravel()
        term = np.fft.fft(xr) * np.fft.fft(yr.reshape(n, size))
        if acc is None:
            acc = term
        else:
            acc += term
    return np.fft.ifft(acc).ravel()[at].reshape(n, n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _relabel_index(n: int, a: int, b: int, c: int, d: int) -> np.ndarray:
    """Read-only flat index ``((a i + b j) mod n) * n + (c i + d j) mod n``, shape (n, n)."""
    i, j = np.arange(n)[:, None], np.arange(n)[None, :]
    return _frozen(((a * i + b * j) % n) * n + (c * i + d * j) % n)


def _relabel(coef: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
    """``out[i, j] = coef[(a i + b j) mod n, (c i + d j) mod n]``, exact: a permutation.

    One gather through an index built once per (n, a, b, c, d); unimodular, as
    FFT index i stands for every mode congruent to i on the n-periodic lattice.
    Plain indexing, not ``np.take``, which copies a read-only index on every
    call.
    """
    return coef.ravel()[_relabel_index(coef.shape[0], a, b, c, d)]


#: ``_relabel`` from sheared coef[c, b] to the held K[u, v] = coef[-v, u + v], and back.
_KERNEL, _SHEARED = (0, -1, 1, 1), (1, 1, -1, 0)


def _adjoint(k: "_Carrier") -> tuple:
    """Coefficients of conj K(b, a): ``out[i, j] = conj(coef[-j, -i]) s_i s_j``, s :func:`_wrap`'s.

    ``coef`` is the array carrier ``k`` holds.  A transpose and a mode
    reversal ``rev = -i mod n`` on each axis, over the occupied block that
    ``k`` records (:func:`_occupied`), with no n x n index.  When every row
    and column is occupied, the reversal keeps index 0 and reverses the rest,
    so the result is four slice copies of ``coef.T`` (index 0, then
    ``[:0:-1]`` on each axis) and no gather.  Any other block is one
    gather: a whole axis is read in the order rev, a partial one at its
    occupied indices, so the block ``coef.T[c x r]`` on rows r and columns c
    is the result's rows rev[c] x columns rev[r].  The block is conjugated
    in place.  The sign of -m is -1 at the Nyquist index alone: the block's
    Nyquist row and column are negated before :func:`_placed` places it.
    """
    coef = _held(k)
    n = coef.shape[0]
    rev, sign = _wrap(-mode_numbers(n).astype(int), n)  # rev[i] = -i mod n
    rows, cols = _occupied(k)
    if isinstance(rows, slice) and isinstance(cols, slice):
        out, t, at = np.empty_like(coef), coef.T, (rows, cols)
        out[0, 0], out[0, 1:] = t[0, 0], t[0, :0:-1]
        out[1:, 0], out[1:, 1:] = t[:0:-1, 0], t[:0:-1, :0:-1]
    else:
        r, c = (rev if isinstance(x, slice) else np.flatnonzero(x) for x in (rows, cols))
        out, at = coef.T[np.ix_(c, r)], (rev[c], rev[r])  # the result's rows and columns
    np.conjugate(out, out=out)
    flip_rows, flip_cols = (sign[x] < 0 for x in at)
    out[flip_rows] = -out[flip_rows]
    out[:, flip_cols] = -out[:, flip_cols]
    return _placed(out, coef, at)


@functools.lru_cache(maxsize=8)
def _diagonal_flip(n: int) -> np.ndarray:
    """Read-only n x n bool mask of :func:`_diagonal`'s gather: True where the wrap sign is -1.

    Gathered entry [u, r] is held entry (u, r - u), of modes m_u and
    m_v = m_r - m_u folded into the band.  Their sum is m_r itself, sign +1,
    exactly when m_r - m_u needs no fold, and m_r + n or m_r - n otherwise,
    so its :func:`_wrap` sign is that of the mode difference m_r - m_u.  In
    sorted mode order that difference is constant along diagonals: the mask
    is a window over the 2n - 1 signs, rolled to FFT order, one byte per
    entry and no n x n index.
    """
    _, sign = _wrap(np.arange(1 - n, n), n)  # at the differences 1 - n .. n - 1
    by_mode = np.lib.stride_tricks.sliding_window_view(sign < 0, n)[::-1]  # [u, r]: r - u
    return _frozen(np.roll(by_mode, n // 2, axis=(0, 1)))


def _diagonal(k: "_Carrier") -> np.ndarray:
    """Line coefficients of the diagonal K(a, a) of the kernel carrier ``k`` holds, FFT order.

    Mode r sums the held entries with ``u + v = r (mod n)``, each signed by
    the :func:`_wrap` sign of its mode sum m_u + m_v: one row gather and one
    sign flip in place (:func:`_diagonal_flip`).  Only the occupied rows u
    that ``k`` records (:func:`_occupied`) are gathered, through the same
    rows of the cached index and mask; when every row is occupied they are
    indexed by a slice, so no index is copied.  The algebra side's trace and momentum marginal
    are this times their weights.
    """
    held, u = _held(k), _occupied(k)[0]
    n = held.shape[0]
    diag = held.ravel()[_relabel_index(n, 1, 0, -1, 1)[u]]  # [u, r]: held[u, r - u]
    np.negative(diag, out=diag, where=_diagonal_flip(n)[u])
    return diag.sum(axis=0)


@functools.lru_cache(maxsize=8)
def _held_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sheared mode numbers ``(C, B)`` of the held entries K[u, v] = coef[-v, u + v].

    ``C = m[(-v) mod n]`` depends on v alone and is a row, shape (1, n);
    ``B = m[(u + v) mod n]`` is n x n; m is :func:`mode_numbers`.  Against a
    held array they broadcast as :meth:`TorusField.freq_grids`' c and b do
    against the sheared one.
    """
    m, v = mode_numbers(n), np.arange(n)
    return _frozen(m[(-v) % n][None, :]), _frozen(m[(v[:, None] + v) % n])


def _alpha_modes(*fields: "_Carrier"):
    """The sheared alpha modes b every field can occupy: a bool mask, or ``slice(None)``.

    Held entry (u, v) has alpha mode ``b = u + v (mod n)``, so an array's
    alpha modes lie among the sums of its occupied rows and columns, which
    the field records (:func:`_occupied`): a superset of the occupied columns
    of ``coeffs()``, found with no n x n scan.  A whole axis next to any
    occupied index reaches every b.
    """
    n = fields[0].n
    common = np.ones(n, dtype=bool)
    for f in fields:
        rows, cols = _occupied(f)
        if isinstance(rows, slice) or isinstance(cols, slice):
            continue
        hit = np.zeros(n, dtype=bool)
        hit[np.add.outer(np.flatnonzero(rows), np.flatnonzero(cols)) % n] = True
        common &= hit
    return _whole_or(common)


def _sheared_columns(held: np.ndarray, b) -> np.ndarray:
    """Columns ``coef[:, b]`` of the sheared coefficients, b a slice or mask: one gather."""
    return held.ravel()[_relabel_index(held.shape[0], *_SHEARED)[:, b]]


def _finite(a, what: str, ndim: int) -> np.ndarray:
    """Carrier data: a finite, C-ordered complex array of even size, square when 2-d."""
    return _all_finite(_shaped(a, what, ndim), what)


def _shaped(a, what: str, ndim: int) -> np.ndarray:
    """:func:`_finite` without the scan for NaN and infinite entries."""
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != ndim or a.shape != a.shape[:1] * ndim or a.shape[0] % 2:
        raise ValueError(f"{what} must form a {('1-d', 'square')[ndim - 1]} array of even size")
    return a


def _all_finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` itself, once no entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def _nonnegative_int(k, what: str) -> int:
    """``k`` as an int, once it is a nonnegative ``numbers.Integral`` that is not a bool."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {k!r}")
    return int(k)


def _check_pair(f, g, what: str = "algebra elements") -> None:
    """Reject two operands (carriers or kernels) from different contexts or grids.

    beta and hbar must be equal; the orderings are compared by :func:`_same_lam`.
    """
    a, b = f.ctx, g.ctx
    if (a.beta, a.hbar) != (b.beta, b.hbar) or not _same_lam(a.lam, b.lam):
        raise ValueError(f"{what} live in different contexts")
    if f.n != g.n:
        raise ValueError(f"{what} live on different grids")


def _check_kind(kind: type, what: str, *operands) -> None:
    """Reject operands that are not ``kind`` carriers: a kernel is no field, a field no state."""
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    for x in operands:
        if not isinstance(x, kind):
            raise TypeError(f"{what} must be {article} {kind.__name__}, got {type(x).__name__}")


def _finite_mod(mod, what: str):
    """A real modulation, one float or a pair, whose codec phases are finite.

    NaN or infinite parts are rejected, and so are finite ones too large for
    the codecs: the offsets they form (the sheared pair
    ``(-mu_v, mu_u + mu_v)`` included) times angles of size at most pi give
    phases below ``4 pi (|mu_u| + |mu_v|)``, which must not overflow.
    """
    m = float(mod) if np.ndim(mod) == 0 else (float(mod[0]), float(mod[1]))
    if not np.isfinite(m).all():
        raise ValueError(f"{what} modulation mod must be finite, got {m}")
    if not math.isfinite(4 * math.pi * sum(abs(x) for x in np.atleast_1d(m).tolist())):
        raise ValueError(f"{what} modulation mod is too large: its codec phases overflow, got {m}")
    return m


def _integral(*terms: float) -> Optional[int]:
    """The integer ``sum(terms)`` stands for, or None if it stands for none.

    Modulations are rounded reals, each within half an ulp of the value it
    stands for, so a sum that is an integer in exact arithmetic can land off
    one: ``1.13 - 0.13`` is 0.9999999999999999.  When the integer nearest the
    float sum lies within the half ulps of the terms, it is returned.  A
    distance the terms cannot account for, such as one ulp of a single
    nonzero term, is a non-integer offset.
    """
    total = sum(terms)
    k = round(total)
    return k if abs(total - k) <= 0.5 * sum(map(math.ulp, terms)) else None


def _same_lam(a: float, b: float) -> bool:
    """Whether two orderings are one: equal, or one is the other flipped twice.

    The ordering flip ``lam -> 1 - lam`` rounds ``1 - lam`` when lam < 1/2, so
    ``1 - (1 - lam)`` can miss lam (0.07 comes back as 0.07000000000000006,
    one of 32 such lams among 0.00, 0.01, ..., 1.00).  Flipped twice again it
    returns the same float, so any even number of flips lands on lam or on
    its double flip.  Any other difference, one ulp included, is another
    ordering.
    """
    return a == b or 1.0 - (1.0 - a) == b or 1.0 - (1.0 - b) == a


def _sheared_mod(mod: tuple[float, float]) -> tuple[float, float]:
    """The sheared codec's ``(s0, b0) = (-mu_v, mu_u + mu_v)`` of a field's ``mod``."""
    return -mod[1], mod[0] + mod[1]


@functools.lru_cache(maxsize=16)
def _contraction(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(perm, sign)`` of the midpoint rule at integer modulation offset d.

    ``sum_b exp(2i M alpha_b)`` is n for ``M = 0`` and 0 at every other mode of
    the band, so mode v of one slot pairs with mode ``-v - d`` of the other,
    read at FFT index ``perm[v]`` with the sign of :func:`_wrap`.
    """
    q, r = divmod(d, n)  # a huge d only flips the sign by the parity of q
    perm, sign = _wrap(-mode_numbers(n).astype(int) - r, n)
    return _frozen(perm), _frozen(sign * (1 - 2 * (q % 2)))


def _occupied(a) -> tuple:
    """One index per axis of ``a``, selecting the slices that hold a nonzero entry.

    Exact zeros only: an entry of any size, however small, occupies its
    slice.  An axis whose every slice is occupied gets ``slice(None)``, so
    indexing with it is a view; any other axis gets a bool mask.  A 2-d
    array's column 0 and row 0 are probed first: a probe with no zero
    answers its axis, with no scan of ``a``.

    ``a`` is an array or a carrier.  A carrier's pair, that of its held
    array, is recorded in its ``_block`` slot: by the algebra route that
    wrote the array, which hands :meth:`_Carrier._own` the block it wrote
    (:func:`_placed`, :func:`_landed`), or else here, the first time the
    carrier is read.  Either way it is this rule's pair for the whole array.
    """
    if isinstance(a, _Carrier):
        if a._block is None:
            object.__setattr__(a, "_block", _occupied(_held(a)))
        return a._block
    if a.ndim == 1:
        return (_whole_or(a != 0),)
    rows, cols = a.shape  # a probe needs the other axis to be nonempty
    return (slice(None) if cols and np.count_nonzero(a[:, 0]) == rows else _whole_or(a.any(axis=1)),
            slice(None) if rows and np.count_nonzero(a[0]) == cols else _whole_or(a.any(axis=0)))


def _ix(*index):
    """Index of the block ``index[0] x index[1] x ...``; whole axes (slices) stay views."""
    if len(index) == 2 and not isinstance(index[0], slice) and not isinstance(index[1], slice):
        return np.ix_(*index)
    return index


def _whole_or(mask: np.ndarray):
    """``slice(None)`` when ``mask`` is all True, else ``mask`` itself, made read-only.

    Read-only because a carrier keeps the masks of its block (:func:`_occupied`).
    """
    return slice(None) if mask.all() else _frozen(mask)


def _placed(block: np.ndarray, like: np.ndarray, index) -> tuple:
    """``(out, (block, index))``: ``block`` at ``index`` in an array shaped ``like``.

    ``out`` is ``block`` itself when it fills the shape, else ``block`` written
    into fresh zeros (``np.zeros``, which the allocator may hand out as
    untouched zero pages).  ``index`` holds one entry per axis: ``slice(None)``,
    a bool mask or integer positions.  The pair ``(block, index)`` is what a
    route hands :meth:`_Carrier._own` as ``written``.
    """
    if block.shape == like.shape:
        return block, (block, index)
    out = np.zeros(like.shape, like.dtype)
    out[_ix(*index)] = block
    return out, (block, index)


def _landed(block: np.ndarray, index, n: int, what: str) -> tuple:
    """:func:`_occupied` of an array that is ``block`` at ``index`` and 0 elsewhere.

    ``block`` is checked finite (the zeros around it are), and its own
    occupancy is lifted to the array's indices: a whole axis of the array
    keeps the block's index, any other axis gets the positions ``index``
    names that hold a nonzero, as a mask (``slice(None)`` when that is every
    index).  So the pair is exactly what a scan of the array would find, for
    the cost of a scan of the block.
    """
    _all_finite(block, what)
    lifted = []
    for k, at in zip(_occupied(block), index):
        if not isinstance(at, slice):
            hit = np.zeros(n, dtype=bool)
            hit[np.arange(n)[at][k]] = True
            k = _whole_or(hit)
        lifted.append(k)
    return tuple(lifted)


def _band_reach(c: np.ndarray) -> int:
    """Largest |mode| with a nonzero coefficient (:func:`_occupied`'s exact zeros), 0 if none."""
    return int(np.abs(mode_numbers(c.size)[_occupied(c)]).max(initial=0))


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

class _Carrier:
    """The ownership rule every coefficient carrier shares.

    A carrier holds a context ``ctx``, a modulation ``mod`` and one array of
    coefficients.  Public constructors copy their input; library routes hand
    a fresh array to :meth:`_own`, which checks and freezes it in place of a
    copy.  A carrier also holds its occupied block (:func:`_occupied`), two
    indices of at most n bools each, in the ``_block`` slot.  A carrier is
    immutable, compares and hashes by identity, and pickles and copies
    through :meth:`_own`, which leaves the block to be found again.  A
    subclass sets the names its errors give the modulation and the
    coefficients (``_mod_what``, ``_coef_what``) and the array's ``_ndim``;
    its own slots are the extra arguments of its ``_own``, in order.
    """

    __slots__ = ("ctx", "mod", "_coef", "_block", "__weakref__")

    @classmethod
    def _own(cls, ctx: BetaContext, coef: np.ndarray, mod, written=None):
        """The carrier holding ``coef`` itself, which the caller gives up.

        An algebra route that wrote ``coef`` passes ``written``, the
        ``(block, index)`` of :func:`_placed`: ``coef`` is 0 off the block, so
        only the block is scanned, for NaN and infinite entries and for the
        occupancy the carrier records (:func:`_landed`).  Without it the whole
        array is checked finite, and the occupancy waits for the first
        :func:`_occupied` of the carrier.
        """
        carrier = object.__new__(cls)
        object.__setattr__(carrier, "ctx", ctx)
        object.__setattr__(carrier, "mod", _finite_mod(mod, cls._mod_what))
        if written is None:
            coef, block = _finite(coef, cls._coef_what, cls._ndim), None
        else:
            coef = _shaped(coef, cls._coef_what, cls._ndim)
            block = _landed(*written, coef.shape[0], cls._coef_what)
        object.__setattr__(carrier, "_coef", _frozen(coef))
        object.__setattr__(carrier, "_block", block)
        return carrier

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild from the held arrays
        extra = (getattr(self, name) for name in self.__slots__)
        return self._own, (self.ctx, self._coef, self.mod, *extra)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ctx={self.ctx!r}, n={self.n}, mod={self.mod})"

    @property
    def n(self) -> int:
        return self._coef.shape[0]


def _held(carrier: _Carrier) -> np.ndarray:
    """The array a carrier holds, read-only: a field's kernel layout ``K[u, v]``."""
    return carrier._coef


# ---------------------------------------------------------------------------
# wavefunctions
# ---------------------------------------------------------------------------

class Wavefunction(_Carrier):
    """Momentum-representation state on the n-point angle grid.

    ``psi(alpha) = exp(2i*mod*alpha) * sum_m c_m exp(2i m alpha)`` with a real
    frequency offset ``mod``.  A state holds the coefficients c_m (FFT mode
    ordering): ``Wavefunction(ctx, values, mod, deriv)`` encodes its samples
    once through the line codec, :func:`wavefunction_from_coeffs` copies
    coefficients as given, and ``values`` decodes them on every call.
    Sampled closed-form states may attach ``deriv``, exact samples of
    d psi/d alpha (modulation included), kept as samples; the position
    operator uses them in place of the coefficient scale, which matters for
    states that are continuous but kinked at infinity.  ``norm`` is the
    midpoint quadrature of ``|psi|^2``.  Every held array is read-only.
    """

    __slots__ = ("deriv",)
    _mod_what, _coef_what, _ndim = "wavefunction", "wavefunction coefficients", 1

    def __new__(cls, ctx: BetaContext, values: np.ndarray, mod: float = 0.0,
                deriv: Optional[np.ndarray] = None):
        mod = _finite_mod(mod, "wavefunction")
        coef = _line_coeffs(_finite(values, "wavefunction samples", 1), mod)
        # a copy: the state never shares memory with the caller's arrays
        return cls._own(ctx, coef, mod, None if deriv is None else np.array(deriv, dtype=complex))

    @classmethod
    def _own(cls, ctx: BetaContext, coef: np.ndarray, mod: float, deriv=None,
             written=None) -> "Wavefunction":
        """The state holding ``coef`` and ``deriv`` themselves, which the caller gives up."""
        psi = super()._own(ctx, coef, mod, written=written)
        if deriv is not None:
            deriv = _frozen(_finite(deriv, "wavefunction derivative samples", 1))
            if deriv.shape != psi._coef.shape:
                raise ValueError("derivative samples must match the value samples")
        object.__setattr__(psi, "deriv", deriv)
        return psi

    @property
    def values(self) -> np.ndarray:
        """Samples psi(alpha_k) on the angle grid."""
        return _frozen(_line_values(self._coef, self.mod))

    def coeffs(self) -> np.ndarray:
        """Coefficients of the demodulated part, FFT mode ordering."""
        return self._coef

    def at_offset(self, t) -> np.ndarray:
        """Samples of psi(alpha_k + t), exact on band-limited content.

        ``t`` is a scalar, or an array of offsets giving one row per offset.
        """
        return _line_values(self.coeffs(), self.mod, t)

    def norm(self) -> float:
        return math.sqrt(max(quad_mu(self.ctx, np.abs(self.values) ** 2).real, 0.0))

    def normalized(self) -> "Wavefunction":
        """The state divided by its norm, attached derivative included."""
        nv = self.norm()
        if nv == 0.0:
            raise ValueError("cannot normalize the zero wavefunction")
        return self._own(self.ctx, self._coef / nv, self.mod,
                         None if self.deriv is None else self.deriv / nv)


def wavefunction_from_coeffs(ctx: BetaContext, coef: np.ndarray, mod: float = 0.0) -> Wavefunction:
    """The state holding a copy of the coefficients ``coef``; inverse of :meth:`Wavefunction.coeffs`."""
    return Wavefunction._own(ctx, np.array(coef, dtype=complex), mod)


def quad_mu(ctx: BetaContext, samples: np.ndarray) -> complex:
    """Invariant-measure quadrature of one row of n samples: (1/sqrt(beta)) * (pi/n) * sum.

    Exact for trigonometric modes e^{2ik alpha} with |k| < n.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"expected one row of samples, got shape {samples.shape}")
    return complex((np.pi / _even_size(samples.size)) / ctx.sqrt_beta * samples.sum())


def wf_inner(phi: Wavefunction, psi: Wavefunction) -> complex:
    """Hilbert-space scalar product, conjugate-linear in the first slot.

    The midpoint rule in d mu.  At equal ``mod`` (by :func:`_integral`) it is
    Parseval's ``(pi/sqrt(beta)) vdot(c_phi, c_psi)``, read from the
    coefficients; states whose modulations differ sum samples.
    """
    _check_pair(phi, psi, "wavefunctions")
    if _integral(psi.mod, -phi.mod) == 0:
        return complex(np.pi / phi.ctx.sqrt_beta * np.vdot(phi.coeffs(), psi.coeffs()))
    return complex((np.pi / phi.n) / phi.ctx.sqrt_beta * np.vdot(phi.values, psi.values))


# ---------------------------------------------------------------------------
# torus fields
# ---------------------------------------------------------------------------

class TorusField(_Carrier):
    """An n x n field f~(alpha'_j, alpha_k) held by its operator kernel's coefficients.

    ``TorusField(ctx, values, mod)`` encodes samples ``F[j, k]`` once through
    the sheared codec and :func:`field_from_coeffs` takes coefficients ``coef[c, b]``;
    both hold ``K[u, v] = coef[-v, u + v]``, ``operator_rep.kernel_of`` times 2 pi hbar.
    :meth:`coeffs` and ``values`` (decoded on every call) relabel back; nothing
    is cached, and every array a field holds or returns is read-only.
    """

    __slots__ = ()
    _mod_what, _coef_what, _ndim = "field", "field coefficients", 2

    def __new__(cls, ctx: BetaContext, values: np.ndarray,
                mod: tuple[float, float] = (0.0, 0.0)):
        mod = _finite_mod(mod, "field")
        coef = _sheared_coeffs(_finite(values, "field samples", 2), ctx.lam, mod)
        return cls._own(ctx, coef, mod)

    @property
    def values(self) -> np.ndarray:
        """Samples F[j, k] at (alpha'_j, alpha_k): :func:`_sheared_values` of the held array."""
        return _frozen(_sheared_values(self._coef, self.ctx.lam, self.mod))

    def coeffs(self) -> np.ndarray:
        """Sheared coefficients coef[c, b] of the demodulated part, a fresh read-only gather."""
        return _frozen(_relabel(self._coef, *_SHEARED))

    def freq_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Effective (alpha'-frequency, alpha-frequency) arrays, shape (n, n)."""
        m = mode_numbers(self.n)
        c, b = np.meshgrid(m, m, indexing="ij")
        return _freq(self, c, b, 0), _freq(self, c, b, 1)

    def with_values(self, values: np.ndarray) -> "TorusField":
        return TorusField(self.ctx, values, self.mod)


def field_from_coeffs(ctx: BetaContext, coef: np.ndarray,
                      mod: tuple[float, float] = (0.0, 0.0)) -> TorusField:
    """The field of sheared coefficients ``coef[c, b]``, held relabeled (a gather, not a view).

    Inverse of :meth:`TorusField.coeffs`.  The shape is checked before the
    gather, which relies on it; NaN and infinite entries are found once,
    on the held copy.
    """
    return TorusField._own(ctx, _relabel(_shaped(coef, "field coefficients", 2), *_KERNEL), mod)


def _freq(f: TorusField, c: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """Array ``axis`` of :meth:`TorusField.freq_grids` at sheared modes (c, b), which broadcast.

    Axis 0 is the alpha'-frequency ``lam (b + b0) + s0 + c``, axis 1 the
    alpha-frequency ``b + b0``; only the one asked for is built.
    """
    s0, b0 = _sheared_mod(f.mod)
    return f.ctx.lam * (b0 + b) + s0 + c if axis == 0 else b0 + b


def _held_freq(f: TorusField, axis: int) -> np.ndarray:
    """:func:`_freq` at each held entry: ``f.freq_grids()[axis]``, relabeled."""
    return _freq(f, *_held_modes(f.n), axis)


# The scales below multiply the held array by their multiplier in one expression, as
# the sheared route did: numpy multiplies a large temporary right operand in place,
# operands swapped, and a complex product fused with a multiply-add is not
# commutative in the last bit, so a helper taking the multiplier would move values.
def shift_field(f: TorusField, d_alpha_prime: float = 0.0, d_alpha: float = 0.0) -> TorusField:
    """The field translated by two scalar angles.

    Returns the field of ``F(alpha' + d_alpha_prime, alpha + d_alpha)``, a
    coefficient scale: mode (c, b) by
    ``exp(2i (nu d_alpha_prime + (b + b0) d_alpha))``.  Exact on band-limited
    fields.
    """
    nu, bt = _held_freq(f, 0), _held_freq(f, 1)
    phase = nu * float(d_alpha_prime) + bt * float(d_alpha)
    if not phase.any():
        return f
    return TorusField._own(f.ctx, _held(f) * np.exp(2j * phase), f.mod)


def deriv_p(f: TorusField) -> TorusField:
    """Translation generator in the second slot: sqrt(beta) d/d alpha."""
    return TorusField._own(f.ctx, _held(f) * (2j * f.ctx.sqrt_beta * _held_freq(f, 1)), f.mod)


def deriv_pprime(f: TorusField) -> TorusField:
    """Translation generator in the first slot: sqrt(beta) d/d alpha'."""
    return TorusField._own(f.ctx, _held(f) * (2j * f.ctx.sqrt_beta * _held_freq(f, 0)), f.mod)


def seminorm(f: TorusField, n_idx: int, m_idx: int) -> float:
    """Sup of |D_{p'}^n D_p^m f~| over the grid (Frechet seminorm).

    The derivatives scale the held coefficients, and the multiplier is built
    only where a coefficient is nonzero.  Where a factor of a scaled
    coefficient overflows, the coefficient is the exponential of its summed
    logarithms; once that overflows too, the result is inf: by Parseval the
    sup is at least the largest scaled coefficient.
    """
    n_idx, m_idx = (_nonnegative_int(k, "seminorm order") for k in (n_idx, m_idx))
    coef, sb = _held(f), f.ctx.sqrt_beta
    nz = coef != 0
    nu, bt = (_held_freq(f, axis)[nz] for axis in (0, 1))
    with np.errstate(all="ignore"):
        mult = (2j * sb * nu) ** n_idx * (2j * sb * bt) ** m_idx
        terms = coef[nz] * mult
        big = ~np.isfinite(terms)
        terms[big] = np.exp(np.log(coef[nz][big]) + sum(
            k * np.log(2j * sb * x[big]) for x, k in ((nu, n_idx), (bt, m_idx)) if k))
    if not np.isfinite(terms).all():
        return math.inf
    scaled = np.zeros_like(coef)
    scaled[nz] = terms
    return float(np.abs(_sheared_values(scaled, f.ctx.lam, f.mod)).max())


#: Elements (float64) of the largest temporary a window evaluation builds: 1 MB.
_CHUNK = 1 << 17


def _sin_pi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sin(pi x)/pi`` and where x is an integer (there the sine is exactly 0).

    The sine is taken as ``(-1)^k sin(pi (x - k))`` with ``k = rint(x)``, which
    keeps its relative accuracy when x is near an integer.  With it, for
    integer c, ``sinc(c + x) = (-1)^c sin(pi x) / (pi (c + x))``: one division
    per term instead of one sine.
    """
    k = np.rint(x)
    t = x - k
    return np.sin(np.pi * t) * (1 - 2 * (k % 2)) / np.pi, t == 0.0


def _sinc_sums(f: TorusField, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode window integrals ``sum_c coef[c, b] sinc(d_b + c + w)`` at every q.

    ``w = q/(2 hbar sqrt(beta))`` and ``d_b = lam*(b + b0) + s0``, so the
    argument is ``nu[c, b] + w``.  Returns ``(cols, out)``: ``cols`` are the
    FFT indices of the alpha modes with a nonzero coefficient and
    ``out[iq, j]`` is the sum at ``b = cols[j]``; every other mode sums to 0.

    With ``x = d_b + w`` the sum is ``sin(pi x)/pi * sum_c (-1)^c coef[c, b]
    / (c + x)`` (:func:`_sin_pi`), so a q costs one real reciprocal table
    ``1/(c + x)`` over the occupied rows and columns and one dot per real and
    imaginary part, and no sine per term.  Guard: at an integer x (a lattice
    q with integer ``d_b``) the sine vanishes and every term but ``c = -x`` is
    zero, so the sum is ``coef[-x, b]`` (0 when -x is no mode of the grid);
    those columns read the coefficient instead of dividing by zero.  The q
    axis is processed in chunks, and one table of at most ``_CHUNK`` elements
    (or one q) serves every chunk.
    """
    coef, n = f.coeffs(), f.n
    s0, b0 = _sheared_mod(f.mod)
    m = mode_numbers(n)
    rows, cols = (np.arange(n)[k] for k in _occupied(coef))
    c = m[rows]
    a = coef[np.ix_(rows, cols)].T * (1 - 2 * (c % 2))  # [b, c]: (-1)^c coef[c, b]
    a_re, a_im = np.ascontiguousarray(a.real), np.ascontiguousarray(a.imag)
    d = f.ctx.lam * (m[cols] + b0) + s0
    w = qs / (2.0 * f.ctx.hbar * f.ctx.sqrt_beta)
    out = np.empty((qs.size, cols.size), dtype=complex)
    step = max(1, _CHUNK // max(a.size, 1))
    table = np.empty((min(step, qs.size), cols.size, rows.size))  # reused by every chunk
    for lo in range(0, qs.size, step):
        x = d + w[lo:lo + step, None]  # [q, b]
        sin_x, on = _sin_pi(x)
        r = table[:x.shape[0]]
        np.add(np.where(on, x + 0.5, x)[:, :, None], c, out=r)  # any x serves where on
        np.reciprocal(r, out=r)  # [q, b, c]: 1/(c + x)
        sums = np.einsum("qbc,bc->qb", r, a_re) + 1j * np.einsum("qbc,bc->qb", r, a_im)
        blk = sin_x * sums
        if on.any():
            mode = -x[on]
            col = np.broadcast_to(cols, on.shape)[on]
            band = (mode >= -(n // 2)) & (mode < n // 2)  # a mode past the band may overflow int
            blk[on] = np.where(band, coef[np.where(band, mode, 0).astype(int) % n, col], 0.0)
        out[lo:lo + step] = blk
    return cols, out


def synth_grid(f: TorusField, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """f(q, p) on an arbitrary rectangular (q, p) window, shape (len(qs), len(ps)).

    The inverse position transform of :func:`lattice_from_field` at every q:
    the window integrals of :func:`_sinc_sums` for the occupied alpha modes,
    then one vector product per q with their phases ``exp(2i (b + b0) alpha(p))``.
    Every q must be finite and no p NaN; p = -inf or +inf is the point at
    infinity, alpha = -pi/2 or +pi/2.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    if not np.isfinite(qs).all() or np.isnan(ps).any():
        raise ValueError("synthesis needs finite positions q and momenta p that are not NaN")
    cols, sums = _sinc_sums(f, qs)
    b = mode_numbers(f.n)[cols] + _sheared_mod(f.mod)[1]
    eb = np.exp(2j * np.outer(b, np.arctan(f.ctx.sqrt_beta * ps)))  # (modes, len(ps))
    out = np.empty((qs.size, ps.size), dtype=complex)
    for iq, row in enumerate(sums):
        # not one matrix product: a threaded BLAS product leaves its workers
        # spinning, which slowed the CSV formatting after it by a third on 2 vCPUs
        out[iq] = row @ eb
    return out / (2.0 * f.ctx.hbar * f.ctx.sqrt_beta)


def synth(f: TorusField, q: float, p) -> complex:
    """Point evaluation of f(q, p) by :func:`synth_grid`; p may be INFINITY (p = -inf)."""
    return complex(synth_grid(f, q, -math.inf if is_infinite(p) else p)[0, 0])


# ---------------------------------------------------------------------------
# position-lattice fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LatticeField:
    """Samples f(q_m, p(alpha_k)) on the position lattice q_m = m * q_lattice_step.

    ``ms`` must be a 1-d array of integers (integral floats are accepted) and
    ``values`` finite; the field holds read-only copies of both.
    """

    ctx: BetaContext
    ms: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.ms, dtype=float)
        if m.ndim != 1 or not (np.isfinite(m) & (m == np.rint(m))).all():
            raise ValueError("lattice indices ms must form a 1-d array of integers")
        v = np.array(self.values, dtype=complex)  # copies: no memory shared with the caller
        if v.ndim != 2 or v.shape[0] != m.size or v.shape[1] % 2 != 0:
            raise ValueError("lattice field shape must be (len(ms), n) with even n")
        object.__setattr__(self, "ms", _frozen(m.astype(int)))
        object.__setattr__(self, "values", _frozen(_all_finite(v, "lattice field values")))

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return LatticeField, (self.ctx, self.ms, self.values)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def qs(self) -> np.ndarray:
        return self.ms * self.ctx.q_lattice_step


def lattice_from_field(f: TorusField, half_width: int) -> LatticeField:
    """Sample a field on the position lattice m in [-M, M], M = ``half_width``.

    Implements the inverse position transform
    ``f(q,p) = (1/(2 pi hbar sqrt(beta))) Int F(a', alpha(p)) e^{i q a'/(hbar sqrt(beta))} da'``
    at ``q = m * q_lattice_step``, exact for the carried frequency content.
    There ``w = q/(2 hbar sqrt(beta))`` is the integer m, so the window
    integral of alpha mode b is the correlation
    ``sum_c coef[c, b] sinc(d_b + c + m)`` with ``d_b = lam*(b + b0) + s0``:
    one table of ``sinc(d_b + k)``, built as ``(-1)^k sin(pi d_b)/(pi (d_b + k))``
    (:func:`_sin_pi`; 1 where ``d_b + k`` is 0), and one batched FFT correlate
    it with every coefficient column.
    """
    n = f.n
    M = _nonnegative_int(half_width, "lattice half width")
    s0, b0 = _sheared_mod(f.mod)
    d = f.ctx.lam * (mode_numbers(n) + b0) + s0
    k = np.arange(-(n // 2) - M, n // 2 + M)
    x = d[:, None] + k
    hit = x == 0.0
    sin_d, _ = _sin_pi(d)
    table = sin_d[:, None] * (1 - 2 * (k % 2)) / np.where(hit, 1.0, x)  # [b, c + m + n/2 + M]
    table[hit] = 1.0
    rev = np.fft.fftshift(f.coeffs(), axes=0)[::-1].T  # [b, n/2 - 1 - c]
    # a cyclic convolution over the table's own length n + 2M: the wrap
    # reaches only the first n - 1 outputs, and the 2M + 1 read start at n - 1
    corr = _cyclic_convolution(table, rev)
    sums = corr[:, n - 1:n + 2 * M].T  # [m + M, b]
    vals = _coeffs_to_vals(sums, axis=1) * np.exp(2j * b0 * angle_nodes(n))
    ms = np.arange(-M, M + 1)
    return LatticeField(f.ctx, ms, vals / (2.0 * f.ctx.hbar * f.ctx.sqrt_beta))


def analyze(lattice: LatticeField) -> TorusField:
    """Position transform of lattice samples onto the torus.

    ``f~(a', a) = q_lattice_step * sum_m f(q_m, a) e^{-2 i m a'}``; inverse of
    the lattice sampling of :func:`lattice_from_field` for data whose lattice modes
    fit below the Nyquist index n/2.
    """
    ctx = lattice.ctx
    ap = angle_nodes(lattice.n)[:, None]
    E = np.exp(-2j * ap * lattice.ms[None, :])
    vals = ctx.q_lattice_step * (E @ lattice.values)
    return TorusField(ctx, vals)


# ---------------------------------------------------------------------------
# CSV export (full double precision)
# ---------------------------------------------------------------------------

def write_text_atomic(path, text: str) -> None:
    """Write through a temporary file and a rename; the mode follows the umask."""
    path = os.path.abspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path, header: str, xs: np.ndarray, ys: np.ndarray, vals: np.ndarray) -> None:
    """Rows `x,y,re,im` of vals[i, k] at (xs[i], ys[k]), row-major, full precision.

    Each y is formatted once into a row template; a row of values then costs
    one ``%`` call over its real and imaginary parts.
    """
    template = "".join(f"\0,{y:.17g},%.17g,%.17g\n" for y in ys)
    parts = np.ascontiguousarray(vals, dtype=complex).view(float)
    rows = [template.replace("\0", f"{x:.17g}") % tuple(row.tolist())
            for x, row in zip(xs, parts)]
    write_text_atomic(path, "".join([header + "\n", *rows]))


def torus_to_csv(f: TorusField, path) -> None:
    """Rows `alpha_prime,alpha,re,im`, row-major in (j, k)."""
    ap = angle_nodes(f.n)
    _write_csv(path, "alpha_prime,alpha,re,im", ap, ap, f.values)


def lattice_to_csv(lat: LatticeField, path) -> None:
    """Rows `q,p,re,im`, row-major in (m, k)."""
    ps = np.tan(angle_nodes(lat.n)) / lat.ctx.sqrt_beta
    _write_csv(path, "q,p,re,im", lat.qs, ps, lat.values)
