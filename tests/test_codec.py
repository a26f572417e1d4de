"""The spectral codecs of ``sampling`` and the rule that they are the only ones."""

import re
from pathlib import Path

import numpy as np
import pytest
from conftest import forbid
from hypothesis import given, settings
from hypothesis import strategies as st

from gupstar import sampling, transforms
from gupstar.beta_arith import BetaContext
from gupstar.families import random_element
from gupstar.operator_rep import adjoint_kernel, kernel_of, trace_op
from gupstar.sampling import (TorusField, Wavefunction, _coeffs_to_vals, _edge_phase,
                              _line_coeffs, _line_values, _shear, _shear_phase, _shear_table,
                              _sheared_coeffs, _sheared_values, _vals_to_coeffs, angle_nodes,
                              field_from_coeffs, mode_numbers)
from gupstar.star_algebra import involution, star
from gupstar.transforms import symplectic_fourier, twisted_conv
from gupstar.verify import _rel

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
sizes = st.integers(1, 32).map(lambda k: 2 * k)
mods = st.floats(-40.0, 40.0)
seeds = st.integers(0, 2 ** 32 - 1)


def _samples(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY
@given(n=sizes, mod=mods, rows=st.integers(1, 4), seed=seeds)
def test_line_codec_round_trip(n, mod, rows, seed):
    v = _samples(seed, (rows, n))
    assert _rel(_line_values(_line_coeffs(v, mod), mod), v) <= 1e-12
    assert _rel(_line_coeffs(_line_values(v, mod), mod), v) <= 1e-12


@PROPERTY
@given(n=sizes, lam=st.floats(0.0, 1.0), mu_u=mods, mu_v=mods, seed=seeds)
def test_sheared_codec_round_trip(n, lam, mu_u, mu_v, seed):
    # samples <-> held array at a field's mod; at lam = 0 the codec builds no shear table
    v, mod = _samples(seed, (n, n)), (mu_u, mu_v)
    for lam_ in (lam, 0.0):
        assert _rel(_sheared_values(_sheared_coeffs(v, lam_, mod), lam_, mod), v) <= 1e-12
        assert _rel(_sheared_coeffs(_sheared_values(v, lam_, mod), lam_, mod), v) <= 1e-12


@PROPERTY
@given(n=sizes, mod=mods, seed=seeds, offsets=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
def test_at_offset_per_row_matches_scalar_calls(n, mod, seed, offsets):
    psi = Wavefunction(BetaContext(1.0, 1.0, 0.5), _samples(seed, n), mod)
    rows = psi.at_offset(np.array(offsets))
    assert rows.shape == (len(offsets), n)
    for t, row in zip(offsets, rows):
        assert _rel(row, psi.at_offset(t)) <= 1e-12


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_edge_phase_is_the_uncached_expression():
    for n in (2, 16, 48):
        assert _same_bits(_edge_phase(n, -1), np.exp(-2j * mode_numbers(n) * angle_nodes(n)[0]))
        assert _same_bits(_edge_phase(n, 1), np.exp(2j * mode_numbers(n) * angle_nodes(n)[0]))
        assert not _edge_phase(n, -1).flags.writeable and not _edge_phase(n, 1).flags.writeable


def test_cached_shear_phase_keeps_the_bits():
    # more keys than the two cached tables, each visited twice, so tables are
    # evicted and rebuilt; signed zeros and lam = 0 (no table) included.  A key's
    # field modulation (mu_u, mu_v) reaches the codec as (s0, b0) = (-mu_v, mu_u + mu_v).
    keys = [(16, 0.5, (0.0, -0.0)), (16, 0.5, (-0.0, 0.0)), (16, 0.5, (0.21, -0.21)),
            (16, 0.5, (0.58, -0.21)), (32, 0.3, (0.58, -0.21)), (16, 0.7, (0.58, -0.21)),
            (16, 0.0, (0.0, 0.0)), (16, 0.0, (0.0, -0.0)), (48, 1.0, (0.75, 1.5))]

    def coeffs(v, lam, mod):  # the codec with the shear phase built on every call
        cb = _line_coeffs(v, mod[1]) * np.exp(-2j * _shear(v.shape[0], lam, mod))
        return _vals_to_coeffs(cb, axis=0)

    def values(coef, lam, mod):
        cb = _coeffs_to_vals(coef, axis=0) * np.exp(2j * _shear(coef.shape[0], lam, mod))
        return _line_values(cb, mod[1])

    for seed in (0, 1):
        for n, lam, mod in keys:
            ctx = BetaContext(1.0, 1.0, lam)
            v = _samples(seed, (n, n))
            sheared = (-mod[1], mod[0] + mod[1])
            f = TorusField(ctx, v, mod)
            assert _same_bits(f.coeffs(), coeffs(v, lam, sheared))
            assert _same_bits(f.values, values(f.coeffs(), lam, sheared))
            g = field_from_coeffs(ctx, v, mod)
            assert _same_bits(g.values, values(v, lam, sheared))
            for sign in (-1, 1):  # signs of zero included, which the samples may not show
                assert _same_bits(_shear_phase(n, lam, sheared, sign),
                                  np.exp(sign * 2j * _shear(n, lam, sheared)))
    assert _shear_table.cache_info().maxsize == 2
    for sign in (-1, 1):
        table = _shear_table(16, 0.5, 0.21, 0.37, sign)
        assert table.shape == (16, 16) and not table.flags.writeable
        assert _same_bits(table, np.exp(sign * 2j * _shear(16, 0.5, (0.21, 0.37))))


def _lines_outside_sampling(pattern: str) -> list:
    """``file:line`` of every package line outside ``sampling.py`` that matches."""
    forbidden = re.compile(pattern)
    src = Path(__file__).resolve().parent.parent / "src" / "gupstar"
    return [f"{path.name}:{i}" for path in sorted(src.glob("*.py")) if path.name != "sampling.py"
            for i, line in enumerate(path.read_text().splitlines(), 1) if forbidden.search(line)]


def test_codecs_live_in_sampling_only():
    offenders = _lines_outside_sampling(
        r"\bnp\.fft\b|\bnumpy\.fft\b|\b_vals_to_coeffs\b|\b_coeffs_to_vals\b")
    assert not offenders, offenders


def test_exact_route_rule_lives_in_sampling_only():
    # whether two modulations pair exactly is decided by sampling._integral alone
    offenders = _lines_outside_sampling(
        r"\.is_integer\(\)|\bmod(\[[01]\])?\s*[!=]=\s*\w+\.mod\b")
    assert not offenders, offenders


@pytest.mark.parametrize("n", [2, 8, 48])
def test_wrap_is_the_grid_aliasing_rule(n):
    # mode r + k n samples on the half-offset grid as (-1)^k times mode r
    modes = np.arange(-3 * n, 3 * n)
    at, sign = sampling._wrap(modes, n)
    alpha = angle_nodes(n)
    assert ((at >= 0) & (at < n)).all() and set(np.unique(sign)) <= {-1.0, 1.0}
    lhs = np.exp(2j * modes[:, None] * alpha)
    rhs = sign[:, None] * np.exp(2j * mode_numbers(n)[at][:, None] * alpha)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_pairing_reads_only_the_parity_of_a_huge_offset():
    # d + n flips the pairing's sign and d + 2n keeps it; a d past int64, as between
    # position eigenvectors at 0 and 1e300, only changes the parity
    for n in (2, 8, 48):
        for d in (0, 3, -5):
            perm, sign = sampling._contraction(n, d)
            for shift, flip in ((n, -1.0), (2 * n * 10 ** 300, 1.0), (n * (10 ** 300 + 1), -1.0)):
                moved = sampling._contraction(n, d + shift)
                assert np.array_equal(moved[0], perm) and np.array_equal(moved[1], flip * sign)


def test_wrap_sign_lives_in_sampling_only(monkeypatch):
    # every exact route that moves a mode past the band reads its sign from sampling._wrap
    ctx, n = BetaContext(2.0, 0.7, 0.3), 16
    rng = np.random.default_rng(4)
    f, g = (random_element(ctx, n, rng) for _ in range(2))
    k = kernel_of(f)
    routes = {"involution": lambda: involution(f), "adjoint_kernel": lambda: adjoint_kernel(k),
              "trace_op": lambda: trace_op(k), "star": lambda: star(f, g),  # d = 0: the pairing
              "twisted_conv": lambda: twisted_conv(symplectic_fourier(f), symplectic_fourier(g))}
    sampling._contraction.cache_clear()  # a cached pairing or mask would not read the sign again
    sampling._diagonal_flip.cache_clear()
    message = "a wrap sign was taken outside sampling._wrap"
    for module in (sampling, transforms):
        forbid(monkeypatch, message, module, "_wrap")
    for route in routes.values():
        with pytest.raises(AssertionError, match=message):
            route()


def test_carrier_representation_lives_in_sampling_only():
    # the held arrays are private to the carriers: other modules read coeffs() and values
    offenders = _lines_outside_sampling(r"\._coef\b|\._values\b")
    assert not offenders, offenders


def test_phase_tables_live_in_sampling_only():
    # an n x n phase table is a codec written out by hand; verify's brute oracles
    # keep theirs on purpose, to stay independent of the codecs
    offenders = [line for line in _lines_outside_sampling(r"np\.exp\(.*np\.outer\(")
                 if not line.startswith("verify.py:")]
    assert not offenders, offenders
