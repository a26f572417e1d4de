import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gupstar.beta_arith import (INFINITY, BetaContext, angle_of, angles_equal_mod_pi,
                                canon_angle, circ, is_infinite, momentum_of, negate,
                                ominus, oplus, pairing)


@pytest.fixture
def ctx1():
    return BetaContext(1.0, 1.0, 0.5)


def test_context_validation():
    with pytest.raises(ValueError):
        BetaContext(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        BetaContext(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        BetaContext(1.0, 1.0, 1.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            BetaContext(bad, 1.0, 0.5)
        with pytest.raises(ValueError, match="hbar must be finite and positive"):
            BetaContext(1.0, bad, 0.5)
    c = BetaContext(4.0, 0.5, 0.0)
    assert c.min_dq == 0.5 * 2.0
    assert c.q_lattice_step == 2 * c.min_dq
    assert c.angle_halfwidth == math.pi / 2


def test_oplus_basic(ctx1):
    assert oplus(ctx1, 0.0, 7.0) == 7.0
    assert oplus(ctx1, 2.0, 3.0) == pytest.approx(-1.0, abs=1e-15)
    assert oplus(ctx1, INFINITY, INFINITY) == 0.0
    assert is_infinite(oplus(ctx1, 0.0, INFINITY))
    assert oplus(ctx1, 1.0, INFINITY) == pytest.approx(-1.0)
    assert is_infinite(oplus(ctx1, 2.0, 0.5))  # beta x y = 1


def test_ominus(ctx1):
    assert ominus(ctx1, 5.0, 5.0) == 0.0
    assert ominus(ctx1, 1.0, INFINITY) == pytest.approx(-1.0)
    assert ominus(ctx1, 3.0, 2.0) == pytest.approx(1.0 / 7.0)
    assert negate(INFINITY) is INFINITY


def test_circ(ctx1):
    assert circ(ctx1, 1.0, 2.5) == pytest.approx(2.5)
    assert circ(ctx1, 0.5, 1.0) == pytest.approx(math.sqrt(2) - 1, rel=1e-12)
    twice = circ(ctx1, 0.5, circ(ctx1, 0.5, 3.0))
    assert twice == pytest.approx(circ(ctx1, 0.25, 3.0), rel=1e-12)
    assert circ(ctx1, 0.5, INFINITY) == pytest.approx(math.tan(math.pi / 4))
    with pytest.raises(ValueError):
        circ(ctx1, 1.5, 1.0)


def test_pairing(ctx1):
    assert pairing(ctx1, 0.0, 123.0) == 0.0
    assert pairing(ctx1, 1.0, 1.0) == pytest.approx(math.pi / 4)
    assert pairing(ctx1, 2.0, INFINITY) == pytest.approx(math.pi)
    lhs = pairing(ctx1, 2.0, oplus(ctx1, 1.0, 0.5))
    rhs = pairing(ctx1, 2.0, 1.0) + pairing(ctx1, 2.0, 0.5)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_angle_round_trip(ctx1):
    assert angle_of(ctx1, 0.0) == 0.0
    assert momentum_of(ctx1, 0.0) == 0.0
    assert angle_of(ctx1, 1.0) == pytest.approx(math.pi / 4)
    assert is_infinite(momentum_of(ctx1, -math.pi / 2))
    assert angle_of(ctx1, INFINITY) == -math.pi / 2
    assert canon_angle(math.pi / 2) == -math.pi / 2
    for p in (-3.3, -0.2, 0.0, 0.7, 11.0):
        assert momentum_of(ctx1, angle_of(ctx1, p)) == pytest.approx(p, rel=1e-12)


def test_group_laws_randomized(ctx1):
    rng = np.random.default_rng(7)

    def rand():
        r = rng.uniform()
        if r < 0.1:
            return INFINITY
        return float(rng.standard_normal() * 2.5)

    for _ in range(2000):
        x, y, z = rand(), rand(), rand()
        l = oplus(ctx1, x, oplus(ctx1, y, z))
        r = oplus(ctx1, oplus(ctx1, x, y), z)
        assert angles_equal_mod_pi(angle_of(ctx1, l), angle_of(ctx1, r), 1e-11)
        assert angles_equal_mod_pi(angle_of(ctx1, oplus(ctx1, x, y)),
                                   angle_of(ctx1, oplus(ctx1, y, x)), 1e-12)


def test_homomorphism_bulk(ctx1):
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        x = INFINITY if rng.uniform() < 0.05 else float(rng.standard_normal() * 3)
        y = INFINITY if rng.uniform() < 0.05 else float(rng.standard_normal() * 3)
        s = angle_of(ctx1, x) + angle_of(ctx1, y)
        assert angles_equal_mod_pi(s, angle_of(ctx1, oplus(ctx1, x, y)), 1e-12)


def test_half_point_identity(ctx1):
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = float(rng.standard_normal() * 3) or 0.9
        ref = x / (math.sqrt(1 + x * x) + 1)
        assert abs(circ(ctx1, 0.5, x) - ref) <= 1e-12 * abs(ref)


def test_circ_distributes_on_principal_range(ctx1):
    rng = np.random.default_rng(5)
    for _ in range(500):
        lam = rng.uniform(-1, 1)
        ax, ay = rng.uniform(-0.95 * math.pi / 4, 0.95 * math.pi / 4, 2)
        x, y = momentum_of(ctx1, ax), momentum_of(ctx1, ay)
        a = circ(ctx1, lam, oplus(ctx1, x, y))
        b = oplus(ctx1, circ(ctx1, lam, x), circ(ctx1, lam, y))
        assert angles_equal_mod_pi(angle_of(ctx1, a), angle_of(ctx1, b), 1e-12)
        l1, l2 = rng.uniform(-0.5, 0.5, 2)
        c = oplus(ctx1, circ(ctx1, l1, x), circ(ctx1, l2, x))
        d = circ(ctx1, l1 + l2, x)
        assert angles_equal_mod_pi(angle_of(ctx1, c), angle_of(ctx1, d), 1e-12)


points = st.one_of(st.just(INFINITY), st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(beta=st.sampled_from([0.3, 1.0, 2.0]), x=points, y=points, z=points)
# formulas that leave the float range: an overflowing product, a quotient
# beyond the largest float, a product that underflows to zero, huge times
# zero or tiny
@example(beta=0.3, x=INFINITY, y=2.2250738585072014e-308, z=5.0)
@example(beta=0.3, x=INFINITY, y=1.1125369292536007e-308, z=INFINITY)
@example(beta=0.3, x=INFINITY, y=5e-324, z=1.0)
@example(beta=1.0, x=1e200, y=1e200, z=-3.0)
@example(beta=2.0, x=1e308, y=0.0, z=0.0)
@example(beta=2.0, x=1e308, y=1e-300, z=0.0)
def test_oplus_group_law(beta, x, y, z):
    ctx = BetaContext(beta, 1.0, 0.5)
    same = lambda a, b, tol: angles_equal_mod_pi(angle_of(ctx, a), angle_of(ctx, b), tol)  # noqa: E731
    assert oplus(ctx, x, 0.0) == x and oplus(ctx, 0.0, x) == x  # identity
    assert ominus(ctx, x, x) == 0.0                             # inverse
    xy = oplus(ctx, x, y)
    assert xy == oplus(ctx, y, x)                               # commutativity
    assert same(ominus(ctx, xy, y), x, 1e-11)
    assert same(oplus(ctx, xy, z), oplus(ctx, x, oplus(ctx, y, z)), 1e-11)  # associativity
