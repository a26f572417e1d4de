import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupstar.formal_cas import (_MAX_EXPONENT, ALT, MAIN, FormalPoly, ParseError,
                                _derivative_table, classical_limit, formal_commutator,
                                formal_eval, formal_star, format_poly, parse_poly)
from gupstar.sampling import angle_nodes

Q = FormalPoly.var("q")
P = FormalPoly.var("p")
S = FormalPoly.var("s")
LAM = FormalPoly.var("lam")
HBAR = FormalPoly.var("hbar")
BETA = FormalPoly.var("beta")
ONE = FormalPoly.const(1)
I = FormalPoly.var("i")

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# small polynomials: sums of monomials in q, p, s, beta and i with rational
# coefficients, some over a power of 1 + beta p^2
_monomials = st.builds(
    lambda c, eq, ep, es, eb, d, ei: FormalPoly({(eq, ep, es, eb, 0, 0, d, ei): c}),
    st.fractions(-3, 3, max_denominator=4).filter(bool), st.integers(0, 2), st.integers(0, 2),
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 2), st.integers(0, 1))
polys = st.lists(_monomials, max_size=3).map(lambda ms: sum(ms, FormalPoly.zero()))


def test_ring_arithmetic():
    assert (Q + P) - P == Q
    assert Q * P == P * Q
    assert (Q + P) * (Q - P) == Q * Q - P * P
    assert FormalPoly.zero().is_zero()
    assert (Q - Q).is_zero()
    # the square root symbol closes: s^2 = 1 + beta p^2
    assert S * S == ONE + BETA * P * P
    assert S * S * S * S == (ONE + BETA * P * P) * (ONE + BETA * P * P)


@PROPERTY
@given(f=polys, g=polys, h=polys)
def test_ring_laws(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert FormalPoly(dict(f.terms)) == f
    assert all(isinstance(c, Fraction) and c and len(k) == 8 for k, c in f.terms.items())


def test_generators_reduce():
    assert I * I == ONE.scale(-1)
    assert I * I * I == -I and I * I * I * I == ONE
    assert S * S == ONE + BETA * P * P
    assert FormalPoly.const(2, -3) == ONE.scale(2) - I.scale(3)


def test_terms_are_read_only():
    f = Q * P + S
    with pytest.raises(TypeError):
        f.terms[(0, 0, 0, 0, 0, 0, 0, 0)] = Fraction(1)
    with pytest.raises(TypeError):
        del f.terms[(1, 1, 0, 0, 0, 0, 0, 0)]
    copy = dict(f.terms)
    copy[(0, 0, 0, 0, 0, 0, 0, 0)] = Fraction(1)
    assert FormalPoly(copy) == f + ONE
    assert f == Q * P + S and len(f.terms) == 2


def test_polynomials_copy_and_pickle():
    f = (Q * P + S).times_s_inverse()
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and hash(g) == hash(f) and g.terms == f.terms


def test_derivative_tables_are_memoized_and_immutable():
    f = Q * Q * P + S
    table = _derivative_table(ALT, f, 3)
    assert _derivative_table(ALT, f, 3) is table
    assert _derivative_table(ALT, Q * Q * P + S, 3) is table  # equal polynomials share it
    assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
    assert [len(row) for row in table] == [4, 3, 2, 1]
    assert table == _derivative_table.__wrapped__(ALT, f, 3)
    assert table[1][2] == ALT.d_position(ALT.d_momentum(ALT.d_momentum(f)))
    assert _derivative_table(MAIN, f, 3) != table


def test_denominator_cancellation():
    inv = FormalPoly({(0, 0, 0, 0, 0, 0, 1, 0): Fraction(1)})
    assert inv.times_bp2() == ONE
    assert (inv * (ONE + BETA * P * P)) == ONE
    # s * s^{-1} = 1
    assert S.times_s_inverse() == ONE
    assert inv.times_s_inverse() * S == inv


def test_main_products_exact():
    assert formal_star(MAIN, Q, Q, 0).terminated  # degree bound certifies it


def test_classical_limits():
    assert classical_limit(ALT, Q, P) == ONE + BETA * P * P


def test_termination_flag():
    # truncating below the degree bound must be flagged as unterminated
    r = formal_star(MAIN, Q * Q * P, Q * Q, 1)
    assert not r.terminated


def test_formal_eval_and_grid(ctx):
    f = Q * P
    assert formal_eval(f, ctx, 2.0, 3.0) == pytest.approx(6.0)
    inv = FormalPoly({(0, 0, 1, 0, 0, 0, 1, 0): Fraction(1)})  # s/(1+b p^2)
    v = formal_eval(inv, ctx, 0.0, 1.0)
    assert v == pytest.approx(np.sqrt(2.0) / 2.0)
    qs = np.arange(-2, 3)[:, None] * ctx.q_lattice_step
    ps = np.tan(angle_nodes(16))[None, :] / ctx.sqrt_beta
    assert np.abs(formal_eval(FormalPoly.const(3), ctx, qs, ps) - 3.0).max() < 1e-15
    assert np.allclose(formal_eval(Q, ctx, qs, ps)[:, 0], qs[:, 0])


def test_format_poly():
    assert format_poly(FormalPoly.zero()) == "0"
    r = formal_commutator(MAIN, Q, P, 1).poly
    assert format_poly(r) == "i*hbar*(1 + beta*p^2)"
    assert format_poly(formal_star(MAIN, P, P, 2).poly) == "p^2"
    assert "lam" in format_poly(formal_star(ALT, Q, Q, 2).poly)


def test_parse_poly():
    assert parse_poly("q p") == Q * P
    assert parse_poly("3/2 q^2 p") == (Q * Q * P).scale(Fraction(3, 2))
    assert parse_poly("q - p") == Q - P
    assert parse_poly("-q + 2 p") == -Q + (P + P)
    assert parse_poly("i*hbar s") == (HBAR * S).scale(0, 1)
    with pytest.raises(ParseError):
        parse_poly("q @ p")
    with pytest.raises(ParseError):
        parse_poly("q ^ x")


def test_mixed_coefficients_print_as_one_complex_number():
    assert format_poly(parse_poly("1/2 q - 3 i q")) == "(1/2 - 3*i)*q"
    assert format_poly(parse_poly("i q - q")) == "(-1 + i)*q"
    assert format_poly(parse_poly("-i p + 2/3")) == "2/3 - i*p"
    assert parse_poly("i^2") == ONE.scale(-1) and parse_poly("i") == I


def test_orders_above_the_degree_bound_are_not_computed():
    # q p has q-degree 1 in total, so the product terminates after order 1
    assert formal_star(MAIN, Q, P, 10 ** 6) == formal_star(MAIN, Q, P, 2)
    assert formal_star(ALT, Q, Q * P, 10 ** 6) == formal_star(ALT, Q, Q * P, 2)


def test_parse_poly_bounds_exponents():
    assert _MAX_EXPONENT == 64
    top = parse_poly(f"q^{_MAX_EXPONENT}")
    assert top.q_degree() == _MAX_EXPONENT and len(top.terms) == 1
    for text in (f"q^{_MAX_EXPONENT + 1}", "p q^99999999", "s^100000"):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert "exceeds the limit 64" in str(err.value)
        assert err.value.position == text.index("^") + 1


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("q p + !")
    assert "position 6" in str(err.value)
