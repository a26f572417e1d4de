import copy
import math
import pickle

import numpy as np
import pytest

from gupstar import sampling
from gupstar.beta_arith import INFINITY, BetaContext
from gupstar.families import random_element, random_state, resolve_family
from gupstar.operator_rep import OperatorKernel, qhat_apply
from gupstar.sampling import (LatticeField, TorusField, Wavefunction, _held, _line_coeffs,
                              _line_values, _relabel, _sheared_coeffs, _sheared_values, _sinc_sums,
                              _write_csv, analyze, angle_nodes, field_from_coeffs,
                              lattice_from_field, lattice_to_csv, mode_numbers, quad_mu, seminorm,
                              shift_field, synth, synth_grid, torus_to_csv,
                              wavefunction_from_coeffs, wf_inner)
from gupstar.states import ml_phase_state, position_eigenvector
from gupstar.verify import _rel


def test_grid_layout():
    nodes = angle_nodes(8)
    assert nodes[0] == pytest.approx(-math.pi / 2 + math.pi / 16)
    assert np.allclose(np.diff(nodes), math.pi / 8)
    for n in (7, 0, -2):
        with pytest.raises(ValueError, match="positive even integer"):
            angle_nodes(n)


def test_quad_mu_examples(ctx):
    assert quad_mu(ctx, np.ones(64)) == pytest.approx(math.pi, rel=1e-14)


def test_quad_mu_takes_one_row_of_even_length(ctx):
    # the grid size comes from the samples, so their shape is all there is to check
    for bad in (np.ones((2, 8)), np.ones((8, 1)), np.ones(7), np.ones(0), np.float64(1.0)):
        with pytest.raises(ValueError):
            quad_mu(ctx, bad)
    assert quad_mu(ctx, np.ones(2)) == pytest.approx(math.pi, rel=1e-15)


def test_quad_translation_invariance(ctx, rng):
    n = 128
    psi = random_state(ctx, n, rng)
    for _ in range(10):
        eta = rng.uniform(-3, 3)
        shifted = psi.at_offset(math.atan(eta))
        assert abs(quad_mu(ctx, np.abs(shifted) ** 2)
                   - quad_mu(ctx, np.abs(psi.values) ** 2)) < 1e-12


def test_shift_field_examples(ctx, rng):
    n = 64
    f = random_element(ctx, n, rng)
    assert np.array_equal(shift_field(f, 0.0, 0.0).values, f.values)
    rolled = shift_field(f, 0.0, math.pi / n)
    assert np.abs(rolled.values - np.roll(f.values, -1, axis=1)).max() < 1e-12
    assert np.abs(shift_field(f, 0.0, math.pi).values - f.values).max() < 1e-12
    d1, d2 = rng.uniform(-2, 2, 2)
    round_trip = shift_field(shift_field(f, d1, d2), -d1, -d2)
    assert np.abs(round_trip.values - f.values).max() < 1e-11
    with pytest.raises(TypeError):  # one offset per row is no longer a shift
        shift_field(f, 0.0, np.full(n, d2))


@pytest.mark.parametrize("lam", [0.5, 0.3, 0.0, 1.0])
def test_scalar_shift_scales_the_coefficients(lam):
    # a scalar d_alpha is a coefficient scale; the sampled route shifts every row
    ctx = BetaContext(1.0, 1.0, lam)
    rng = np.random.default_rng(17)
    n = 32
    for mod in ((0.0, 0.0), (0.58, -0.21)):
        f = field_from_coeffs(ctx, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), mod)
        b0 = mod[0] + mod[1]  # the alpha offset
        for d_prime, d in ((0.0, 0.3), (0.4, -1.7), (-0.25, math.pi / n)):
            ref = shift_field(f.with_values(_line_values(_line_coeffs(f.values, b0), b0,
                                                         np.full(n, d))), d_prime)
            out = shift_field(f, d_prime, d)
            assert out.mod == f.mod
            assert np.abs(out.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()


def _sinc_route(f, qs):
    """The per-term window integrals: ``np.sinc`` over every coefficient, once per q."""
    coef = f.coeffs()
    nu, _ = f.freq_grids()
    w = qs / (2.0 * f.ctx.hbar * f.ctx.sqrt_beta)
    out = np.empty((qs.size, f.n), dtype=complex)
    for iq, wv in enumerate(w):
        out[iq] = (coef * np.sinc(nu + wv)).sum(axis=0)
    return out


@pytest.mark.parametrize("beta,hbar,lam", [(1.0, 1.0, 0.5), (2.0, 0.7, 0.3),
                                           (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)])
def test_sinc_sums_match_the_sinc_route(beta, hbar, lam):
    ctx = BetaContext(beta, hbar, lam)
    n = 32
    rng = np.random.default_rng(3)
    fields = {
        "ml on the lattice": ml_phase_state(ctx, 2 * ctx.q_lattice_step, n).rho,
        "ml off the lattice": ml_phase_state(ctx, -0.916955, n).rho,
        "eigenvector": position_eigenvector(ctx, -0.916955, n).rho,
        "random": field_from_coeffs(ctx, rng.standard_normal((n, n))
                                    + 1j * rng.standard_normal((n, n)), (0.58, -0.21)),
    }
    h = 2.0 * ctx.hbar * ctx.sqrt_beta
    hits = 0
    for name, f in fields.items():
        s0, b0 = -f.mod[1], f.mod[0] + f.mod[1]
        d = ctx.lam * (mode_numbers(n) + b0) + s0
        # q where x = d_b + q/h is an integer for one occupied alpha mode b, then nudged
        b = np.flatnonzero(f.coeffs().any(axis=0))[:3]
        xs = np.array([-3.0, 0.0, 2.0])[:, None] - d[b]
        qs = np.concatenate([(xs + eps).ravel() * h for eps in (0.0, 1e-9, -1e-9, 1e-12, -1e-12)]
                            + [np.arange(-6.0, 7.0) * h, np.linspace(-10, 10, 41)])
        w = qs / h
        hits += int(((d[None, :] + w[:, None]) % 1.0 == 0.0).sum())
        cols, sums = _sinc_sums(f, qs)
        ref = _sinc_route(f, qs)
        out = np.zeros_like(ref)
        out[:, cols] = sums
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max(), name
        # synthesis reads the same sums: one point against the window
        assert synth(f, qs[4], 0.7) == pytest.approx(synth_grid(f, qs[4:5], [0.7])[0, 0],
                                                     rel=1e-13, abs=1e-15)
    assert hits > 0  # the integer-x guard ran


def test_sinc_sums_take_the_coefficient_at_an_integer_argument():
    # at an integer x the sum is coef[-x, b], or 0 when -x is no mode of the grid
    ctx, n = BetaContext(1.0, 1.0, 0.5), 8
    coef = np.zeros((n, n), dtype=complex)
    coef[3, 2] = 2.0 - 1.0j  # mode c = 3 at alpha mode b = 2: d_b = 1
    f = field_from_coeffs(ctx, coef)
    cols, sums = _sinc_sums(f, np.array([-8.0, 0.0, -10.0, 40.0]))  # w = q/2: x = -3, 1, -4, 21
    assert cols.tolist() == [2]
    assert sums[:, 0].tolist() == [2.0 - 1.0j, 0.0, 0.0, 0.0]


def test_synth_position_profile(ctx):
    n = 64
    rho0 = position_eigenvector(ctx, 0.0, n).rho
    assert synth(rho0, 1.0, 0.0) == pytest.approx(2 / math.pi, rel=1e-12)
    assert synth(rho0, 0.0, INFINITY) == pytest.approx(1.0, abs=1e-12)


def test_synthesis_rejects_non_finite_positions(ctx):
    rho = position_eigenvector(ctx, 0.3, 32).rho
    for qs, ps in (([math.nan], [0.0]), ([math.inf], [0.0]), ([-math.inf], [0.0]),
                   ([0.0, 1.0], [0.2, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            synth_grid(rho, qs, ps)
    for q, p in ((math.nan, 0.3), (math.inf, 0.3), (0.3, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            synth(rho, q, p)
    # p = -inf is the point at infinity, the INFINITY sentinel of synth
    at_inf = synth_grid(rho, [0.3, 1.1], [-math.inf, math.inf])
    assert np.isfinite(at_inf).all()
    assert synth(rho, 1.1, INFINITY) == at_inf[1, 0]


def test_synth_linearity(ctx, rng):
    n = 32
    f = random_element(ctx, n, rng)
    g = random_element(ctx, n, rng)
    h = TorusField(ctx, 2.0 * f.values - 1.5j * g.values)
    qs = np.array([0.3, -1.7])
    ps = np.array([0.0, 2.0])
    assert np.allclose(synth_grid(h, qs, ps),
                       2.0 * synth_grid(f, qs, ps) - 1.5j * synth_grid(g, qs, ps),
                       atol=1e-12)


def test_analyze_round_trip(ctx, rng):
    n = 64
    f = random_element(ctx, n, rng, parity=0)  # integer first-slot frequencies
    lat = lattice_from_field(f, half_width=n // 2)
    back = analyze(lat)
    assert back.ctx is ctx
    zero = LatticeField(ctx, np.arange(-4, 5), np.zeros((9, n)))
    assert np.abs(analyze(zero).values).max() == 0.0


def test_analyze_point_mass(ctx):
    # a single occupied lattice site transforms to a flat field
    n = 32
    ms = np.arange(-8, 9)
    vals = np.zeros((ms.size, n), dtype=complex)
    vals[8, :] = 1.0  # m = 0
    f = analyze(LatticeField(ctx, ms, vals))
    assert np.abs(f.values - 2.0).max() < 1e-13   # 2 hbar sqrt(beta) = 2


def test_seminorm(ctx, rng):
    n = 32
    const = TorusField(ctx, np.ones((n, n), complex))
    assert seminorm(const, 1, 0) < 1e-12
    assert seminorm(const, 0, 2) < 1e-12
    a = angle_nodes(n)
    mode = TorusField(ctx, np.exp(2j * a)[:, None] * np.ones((1, n)))
    assert seminorm(mode, 1, 0) == pytest.approx(2.0, rel=1e-12)
    for orders in ((-1, 0), (0.5, 0), (0, 1.0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="seminorm order must be a nonnegative integer"):
            seminorm(const, *orders)
    assert seminorm(mode, np.int64(1), np.int64(0)) == seminorm(mode, 1, 0)
    # high orders scale only the nonzero coefficients, with no warning, and order 50 keeps
    # the value of the full-array scale.  By Parseval the sup lies between the largest
    # scaled coefficient and the sum of their sizes, taken here by logarithms; past the
    # float range it is inf.  At order 257 some multipliers overflow, no scaled coefficient
    f = random_element(ctx, 64, np.random.default_rng(0))
    c, (nu, bt) = f.coeffs(), f.freq_grids()
    mult = (2j * ctx.sqrt_beta * nu) ** 50 * (2j * ctx.sqrt_beta * bt) ** 0
    scaled = c * mult
    assert seminorm(f, 50, 0) == float(np.abs(field_from_coeffs(ctx, scaled, f.mod).values).max())
    nz = c != 0
    for order in (50, 200, 257, 300):
        with np.errstate(divide="ignore"):  # nu is 0 on some nonzero coefficients
            logs = np.log(np.abs(c[nz])) + order * np.log(np.abs(2 * ctx.sqrt_beta * nu[nz]))
        low, high = logs.max(), logs.max() + math.log(nz.sum())
        if low > math.log(np.finfo(float).max):
            assert seminorm(f, order, 0) == math.inf
        else:
            assert low - 1e-12 * low <= math.log(seminorm(f, order, 0)) <= high + 1e-12 * high
    assert 257 * math.log(np.abs(2 * ctx.sqrt_beta * nu[nz]).max()) > math.log(np.finfo(float).max)


def test_wavefunction_norm_and_modulation(ctx):
    n = 64
    a = angle_nodes(n)
    psi = Wavefunction(ctx, np.exp(2j * 0.37 * a), mod=0.37)
    assert psi.norm() == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    shifted = psi.at_offset(0.9)
    assert np.abs(shifted - np.exp(2j * 0.37 * (a + 0.9))).max() < 1e-12
    q = qhat_apply(psi)  # i hbar sqrt(beta) d/d alpha, hbar = beta = 1
    assert q.mod == psi.mod
    assert np.abs(q.values - 1j * 2j * 0.37 * psi.values).max() < 1e-12


@pytest.mark.parametrize("mod", [0.0, 0.37])
def test_wf_inner_at_equal_mods_is_parseval(ctx, mod):
    n = 64
    rng = np.random.default_rng(9)
    # full band, the Nyquist mode included
    phi, psi = (wavefunction_from_coeffs(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                         mod) for _ in range(2))
    ref = (math.pi / n) / ctx.sqrt_beta * np.vdot(phi.values, psi.values)
    assert abs(wf_inner(phi, psi) - ref) <= 1e-14 * abs(ref)


def test_wf_inner_sums_samples_when_mods_differ(ctx):
    n = 64
    rng = np.random.default_rng(10)
    phi = wavefunction_from_coeffs(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.0)
    psi = wavefunction_from_coeffs(ctx, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.37)
    ref = complex((np.pi / n) / ctx.sqrt_beta * np.vdot(phi.values, psi.values))
    assert wf_inner(phi, psi) == ref
    assert wf_inner(psi, phi) == complex((np.pi / n) / ctx.sqrt_beta
                                         * np.vdot(psi.values, phi.values))


def test_csv_exports(tmp_path, ctx, rng):
    n = 8
    f = random_element(ctx, n, rng)
    path = tmp_path / "field.csv"
    torus_to_csv(f, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "alpha_prime,alpha,re,im"
    assert len(lines) == 1 + n * n
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(angle_nodes(n)[0])
    assert float(first[2]) == pytest.approx(f.values[0, 0].real)

    lat = lattice_from_field(f, half_width=3)
    lpath = tmp_path / "lattice.csv"
    lattice_to_csv(lat, lpath)
    llines = lpath.read_text().strip().split("\n")
    assert llines[0] == "q,p,re,im"
    assert len(llines) == 1 + 7 * n


def test_write_csv_matches_the_row_loop(tmp_path):
    def row_loop(header, xs, ys, vals):
        lines = [header]
        for i, x in enumerate(xs):
            for k, y in enumerate(ys):
                v = vals[i, k]
                lines.append(f"{x:.17g},{y:.17g},{v.real:.17g},{v.imag:.17g}")
        return "\n".join(lines) + "\n"

    edge = np.array([-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, 1e300, -1e300, 3.0, -7.0,
                     0.1, 2.0 / 3.0])
    xs = np.concatenate([edge, [0.0, 1.0]])
    ys = edge[::-1]
    re = np.resize(edge, (ys.size, xs.size))
    vals = (re + 1j * np.roll(re, 5, axis=1)).T  # non-contiguous, as cmd_window passes it
    assert not vals.flags.c_contiguous
    cases = [(xs, ys, vals), (np.arange(-3, 4), ys[:2], np.ones((7, 2), complex)),
             (xs[:0], ys, vals[:0]), (xs, ys[:0], vals[:, :0])]
    for i, (x, y, v) in enumerate(cases):
        path = tmp_path / f"{i}.csv"
        _write_csv(path, "q,p,re,im", x, y, v)
        assert path.read_text() == row_loop("q,p,re,im", x, y, v)


@pytest.mark.parametrize("family", ["bump:5", "rho:-0.916955", "ml:-0.916955", "modulated"])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [8, 32, 96])
def test_lattice_matches_the_per_q_route(n, lam, family):
    ctx = BetaContext(2.0, 0.7, lam)
    if family == "modulated":  # both modulation offsets nonzero
        rng = np.random.default_rng(n)
        coef = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = field_from_coeffs(ctx, coef, (0.58, -0.21))
    else:
        f = resolve_family(family, ctx, n)
    ps = np.tan(angle_nodes(n)) / ctx.sqrt_beta
    for M in (0, 1, 3, 2 * n):
        lat = lattice_from_field(f, M)
        assert np.array_equal(lat.ms, np.arange(-M, M + 1))
        ref = synth_grid(f, lat.qs, ps)
        assert np.abs(lat.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lattice_half_width_must_be_nonnegative(ctx, rng):
    f = random_element(ctx, 8, rng)
    for bad in (-1, 2.7, 2.0, True):
        with pytest.raises(ValueError, match="nonnegative integer"):
            lattice_from_field(f, bad)
    assert lattice_from_field(f, np.int64(1)).ms.tolist() == [-1, 0, 1]
    assert lattice_from_field(f, 0).values.shape == (1, 8)


def test_synth_band_limited_sinc_resampling(ctx, rng):
    """Position profiles are determined by their lattice samples."""
    n = 64
    f = random_element(ctx, n, rng, parity=0)
    ms = np.arange(-n // 2, n // 2 + 1)
    lat = lattice_from_field(f, n // 2).values
    k = 11  # fixed momentum column
    for q in (-3.3, 0.7, 1.9, 5.01):
        direct = synth_grid(f, np.array([q]), np.array([np.tan(angle_nodes(n)[k])]))[0, 0]
        resampled = (lat[:, k] * np.sinc((q - ms * ctx.q_lattice_step)
                                         / ctx.q_lattice_step)).sum()
        assert abs(direct - resampled) < 1e-9


def test_synth_of_a_far_eigenvector_casts_no_out_of_band_mode(ctx):
    # at xi = 1e300 every window argument is an integer whose mode lies past the band
    # and past int64: the guard reads no coefficient there (no cast warning) and gives 0
    rho = position_eigenvector(ctx, 1e300, 8).rho
    assert not synth_grid(rho, np.array([0.0, 1.3]), np.array([0.0, -2.0])).any()


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5])
def test_fields_hold_sheared_coefficients(lam):
    ctx, mod, n = BetaContext(2.0, 0.7, lam), (0.58, -0.21), 16
    rng = np.random.default_rng(17)
    v, c = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    f, g = TorusField(ctx, v.copy(), mod), field_from_coeffs(ctx, c.copy(), mod)
    # samples are encoded once through the sheared codec, which writes and reads the
    # held array at the field's mod, and decoded on every read
    assert np.array_equal(_held(f), _sheared_coeffs(v, lam, mod))
    assert _rel(f.values, v) <= 1e-12
    assert np.array_equal(g.coeffs(), c)
    assert np.array_equal(g.values, _sheared_values(_held(g), lam, mod))
    for h in (f, g):
        # the held array is the kernel layout K[u, v] = coef[-v, u + v]; coeffs() relabels it back
        assert _held(h) is _held(h) and not _held(h).flags.writeable
        assert np.array_equal(h.coeffs(), _relabel(_held(h), 1, 1, -1, 0))
        assert h.n == n and h.mod == mod
        assert not (h.values.flags.writeable or h.coeffs().flags.writeable)
        with pytest.raises(AttributeError):
            h.mod = (0.0, 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5])
def test_wavefunctions_hold_line_coefficients(lam):
    ctx, mod, n = BetaContext(2.0, 0.7, lam), 0.37, 16
    rng = np.random.default_rng(19)
    v, c, d = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
    psi, chi = Wavefunction(ctx, v.copy(), mod, d.copy()), wavefunction_from_coeffs(ctx, c.copy(), mod)
    assert np.array_equal(psi.coeffs(), _line_coeffs(v, mod))
    assert _rel(psi.values, v) <= 1e-12
    assert np.array_equal(psi.deriv, d) and chi.deriv is None  # derivative samples stay samples
    assert np.array_equal(chi.coeffs(), c)
    assert np.array_equal(chi.values, _line_values(c, mod))
    for h in (psi, chi):
        assert h.n == n and h.mod == mod and h.coeffs() is h.coeffs()
        assert not (h.values.flags.writeable or h.coeffs().flags.writeable)
        with pytest.raises(AttributeError):
            h.mod = 0.0
    assert not psi.deriv.flags.writeable
    # normalizing scales the coefficients and the attached derivative
    nv, nc = psi.norm(), chi.norm()
    assert np.array_equal(psi.normalized().coeffs(), psi.coeffs() / nv)
    assert np.array_equal(psi.normalized().deriv, d / nv)
    assert np.array_equal(chi.normalized().coeffs(), c / nc)


def test_carriers_survive_pickle_and_copy(ctx):
    rng = np.random.default_rng(5)
    v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    carriers = [TorusField(ctx, v, (0.58, -0.21)), field_from_coeffs(ctx, v, (0.58, -0.21)),
                Wavefunction(ctx, v[0], 0.37, v[1]), wavefunction_from_coeffs(ctx, v[0], 0.37)]
    for x in carriers:
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y.mod == x.mod and repr(y) == repr(x)
            assert np.array_equal(y.coeffs(), x.coeffs()) and not y.coeffs().flags.writeable
            assert np.array_equal(y.values, x.values)
    assert np.array_equal(copy.deepcopy(carriers[2]).deriv, v[1])
    kernel, lattice = OperatorKernel(ctx, v, (0.58, -0.21)), LatticeField(ctx, np.arange(-4, 4), v)
    for x, arrays in ((kernel, ("coef",)), (lattice, ("ms", "values"))):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y.ctx == x.ctx and getattr(y, "mod", 0) == getattr(x, "mod", 0)
            for name in arrays:
                held = getattr(y, name)
                assert np.array_equal(held, getattr(x, name)) and not held.flags.writeable


def test_carriers_compare_and_hash_by_identity(ctx):
    v = np.ones((8, 8), complex)
    builds = [lambda: Wavefunction(ctx, v[0]), lambda: TorusField(ctx, v),
              lambda: OperatorKernel(ctx, v), lambda: LatticeField(ctx, np.arange(-4, 4), v)]
    for build in builds:
        a, b = build(), build()
        assert a == a and not a != a and a != b and not a == b
        assert hash(a) == hash(a) and {a, b, a} == {a, b} and a in {a} and b not in {a}


def _alias_cases(ctx):
    """(constructor taking one caller array, reader of the carrier's copy) pairs."""
    return [
        (lambda a: TorusField(ctx, a.reshape(4, 4)), lambda f: f.values),
        (lambda a: field_from_coeffs(ctx, a.reshape(4, 4)), lambda f: f.coeffs()),
        (lambda a: OperatorKernel(ctx, a.reshape(4, 4)), lambda k: k.coef),
        (lambda a: LatticeField(ctx, np.arange(-1, 1), a.reshape(2, 8)), lambda lat: lat.values),
        (lambda a: Wavefunction(ctx, a), lambda psi: psi.values),
        (lambda a: Wavefunction(ctx, np.ones(16), 0.0, a), lambda psi: psi.deriv),
        (lambda a: wavefunction_from_coeffs(ctx, a), lambda psi: psi.coeffs()),
    ]


def test_carriers_do_not_alias_their_input(ctx):
    for build, held in _alias_cases(ctx):
        base = np.zeros(16, complex)
        carrier = build(base)
        base[0] = 7  # the caller's array stays writeable ...
        assert held(carrier).flat[0] == 0  # ... and the carrier does not see the write
        assert not held(carrier).flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_data_must_be_finite(ctx, bad):
    a = np.ones((8, 8), complex)
    a[2, 5] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        field_from_coeffs(ctx, a)
    with pytest.raises(ValueError, match="samples must be finite"):
        TorusField(ctx, a)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        wavefunction_from_coeffs(ctx, a[2])
    with pytest.raises(ValueError, match="samples must be finite"):
        Wavefunction(ctx, a[2])
    with pytest.raises(ValueError, match="square array of even size"):
        field_from_coeffs(ctx, np.ones((8, 6), complex))
    with pytest.raises(ValueError, match="kernel coefficients must be finite"):
        OperatorKernel(ctx, a)
    ones = np.ones((8, 8), complex)
    for mod in ((0.0, bad), (bad, 0.0)):
        with pytest.raises(ValueError, match="field modulation mod must be finite"):
            field_from_coeffs(ctx, ones, mod)
        with pytest.raises(ValueError, match="field modulation mod must be finite"):
            TorusField(ctx, ones, mod)
        with pytest.raises(ValueError, match="kernel modulation mod must be finite"):
            OperatorKernel(ctx, ones, mod)
    with pytest.raises(ValueError, match="wavefunction modulation mod must be finite"):
        wavefunction_from_coeffs(ctx, ones[0], bad)
    with pytest.raises(ValueError, match="wavefunction modulation mod must be finite"):
        Wavefunction(ctx, ones[0], bad)
    lattice = np.ones((3, 4), complex)
    lattice[1, 2] = bad
    with pytest.raises(ValueError, match="lattice field values must be finite"):
        LatticeField(ctx, [-1, 0, 1], lattice)
    with pytest.raises(ValueError, match="lattice indices ms must form a 1-d array of integers"):
        LatticeField(ctx, [-1, bad, 1], np.ones((3, 4)))


def test_field_from_coeffs_scans_for_nan_once(ctx, monkeypatch):
    # the shape is checked before the relabel gather, the entries once, on the held copy
    scans = []
    real = sampling._all_finite
    monkeypatch.setattr(sampling, "_all_finite", lambda a, what: scans.append(what) or real(a, what))
    field_from_coeffs(ctx, np.ones((8, 8)))
    assert scans == ["field coefficients"]


def test_modulations_whose_phases_overflow_are_rejected(ctx):
    # finite modulations whose codec pair (b0 = 1e308 + 1e308 = inf) or phase
    # (2 * 1e308 * alpha) overflows decoded to NaN samples with no error
    ones = np.ones((4, 4), complex)
    for mod in ((1e308, 1e308), (-1e308, 1.7e308), (1e308, 0.0)):
        with pytest.raises(ValueError, match="field modulation mod is too large"):
            field_from_coeffs(ctx, ones, mod)
        with pytest.raises(ValueError, match="field modulation mod is too large"):
            TorusField(ctx, ones, mod)
        with pytest.raises(ValueError, match="kernel modulation mod is too large"):
            OperatorKernel(ctx, ones, mod)
    with pytest.raises(ValueError, match="wavefunction modulation mod is too large"):
        wavefunction_from_coeffs(ctx, ones[0], 1e308)
    with pytest.raises(ValueError, match="wavefunction modulation mod is too large"):
        Wavefunction(ctx, ones[0], 1e308)
    # just inside the bound 4 pi (|mu_u| + |mu_v|) every sample is finite, at any lam
    big = 0.999 * np.finfo(float).max / (4 * np.pi)
    for lam in (0.0, 0.3, 1.0):
        c = BetaContext(1.0, 1.0, lam)
        psi = wavefunction_from_coeffs(c, ones[0], big)
        assert np.isfinite(psi.values).all() and np.isfinite(psi.at_offset(np.pi / 2)).all()
        for mod in ((big / 2, big / 2), (-big / 2, big / 2), (big, 0.0), (0.0, -big)):
            assert np.isfinite(field_from_coeffs(c, ones, mod).values).all()


def test_lattice_indices_are_a_1d_integer_array(ctx):
    # non-integral indices were truncated (0.5, 1.7, -0.9 became 0, 1, 0) and a 2-d ms of
    # matching size was accepted; both are rejected, integral floats are read as integers
    for ms in ([0.5, 1.7, -0.9], [[-1], [0], [1]]):
        with pytest.raises(ValueError, match="lattice indices ms must form a 1-d array of integers"):
            LatticeField(ctx, ms, np.ones((3, 4)))
    lat = LatticeField(ctx, [-1.0, 0.0, 1.0], np.ones((3, 4)))
    assert lat.ms.dtype.kind == "i"
    assert np.array_equal(lat.qs, np.array([-1, 0, 1]) * ctx.q_lattice_step)
