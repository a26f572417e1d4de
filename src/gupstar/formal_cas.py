"""Exact formal star-product engine over a small polynomial ring.

Monomials are i^f q^a p^b s^e beta^c hbar^h lam^l / (1 + beta p^2)^d with
exact rational coefficients.  Two generators are formal square roots reduced
in every product: s with s^2 = 1 + beta p^2 and the imaginary unit i with
i^2 = -1, so e and f are 0 or 1; d tracks explicit denominator powers.
``FormalPoly.terms`` maps the key (a, b, e, c, h, l, d, f) -- the i exponent
comes last, after the denominator -- to a nonzero ``Fraction``.  The ordering
parameter stays symbolic, so ordering dependence comes out as a polynomial
identity rather than a sampled check.  Two derivation pairs are built in:
MAIN = (d/dq, (1 + beta p^2) d/dp) and the alternative momentum-dressed pair
ALT; both pairs commute, which the exponential product formula silently
relies on.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "FormalPoly",
    "DerivationPair",
    "StarResult",
    "ParseError",
    "MAIN",
    "ALT",
    "formal_star",
    "formal_commutator",
    "classical_limit",
    "formal_eval",
    "format_poly",
    "parse_poly",
]

# exponent tuple: (e_q, e_p, e_s, e_beta, e_hbar, e_lam, denom, e_i)
Key = Tuple[int, int, int, int, int, int, int, int]
_SLOT = {"q": 0, "p": 1, "s": 2, "beta": 3, "hbar": 4, "lam": 5, "i": 7}


def _acc(d: Dict[Key, Fraction], k: Key, c: Fraction) -> None:
    s = d.get(k, 0) + c
    if s:
        d[k] = s
    else:
        d.pop(k, None)


def _bp2_pieces(power: int):
    """Numerator expansion of (1 + beta p^2)^power: [(d e_p, d e_beta, coef)]."""
    return [(2 * j, j, math.comb(power, j)) for j in range(power + 1)]


def _divide_by_bp2(terms: Dict[Key, Fraction]) -> Optional[Dict[Key, Fraction]]:
    """Exact division of a numerator polynomial by 1 + beta p^2, else None."""
    rem = dict(terms)
    quo: Dict[Key, Fraction] = {}
    while rem:
        k = max(rem, key=lambda kk: (kk[1], kk[3]))  # lex in (p, beta)
        c = rem[k]
        if k[1] < 2 or k[3] < 1:
            return None
        qk = (k[0], k[1] - 2, k[2], k[3] - 1) + k[4:]
        _acc(quo, qk, c)
        _acc(rem, k, -c)                                              # beta p^2 piece
        _acc(rem, qk, -c)                                             # unit piece
    return quo


def _canonicalize(terms: Dict[Key, Fraction]) -> Dict[Key, Fraction]:
    """Minimal common denominator with exact cancellation of 1 + beta p^2."""
    terms = {k: c for k, c in terms.items() if c}
    if not terms:
        return {}
    dmax = max(k[6] for k in terms)
    if dmax == 0:
        return terms
    lifted: Dict[Key, Fraction] = {}
    for k, c in terms.items():
        for dep, deb, bc in _bp2_pieces(dmax - k[6]):
            _acc(lifted, (k[0], k[1] + dep, k[2], k[3] + deb, k[4], k[5], dmax, k[7]),
                 c * bc)
    d = dmax
    while d > 0:
        quo = _divide_by_bp2(lifted)
        if quo is None:
            break
        lifted = quo
        d -= 1
    if d == dmax:
        return lifted
    return {k[:6] + (d, k[7]): c for k, c in lifted.items()}


class FormalPoly:
    """Sparse exact polynomial in (q, p, s, beta, hbar, lam, i), s^2 and i^2 reduced.

    Instances are immutable, ``terms`` included (a read-only mapping from
    8-tuple keys to ``Fraction`` coefficients; take ``dict(f.terms)`` for a
    copy to edit), so polynomials can key caches.  All arithmetic is exact and
    returns canonical polynomials (no zero coefficients, minimal denominator
    power).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Key, Fraction]] = None, *, _canonical=False):
        t = dict(terms) if terms else {}
        t = t if _canonical else _canonicalize(t)
        object.__setattr__(self, "terms", types.MappingProxyType(t))

    def __setattr__(self, *_):
        raise AttributeError("FormalPoly is immutable")

    def __reduce__(self):  # pickle and copy rebuild from a copy of the terms
        return FormalPoly, (dict(self.terms),)

    @staticmethod
    def zero() -> "FormalPoly":
        return FormalPoly({}, _canonical=True)

    @staticmethod
    def const(re, im=0) -> "FormalPoly":
        return FormalPoly({(0,) * 8: Fraction(re), (0,) * 7 + (1,): Fraction(im)})

    @staticmethod
    def var(name: str, power: int = 1) -> "FormalPoly":
        key = [0] * 8
        key[_SLOT[name]] = power
        return FormalPoly({tuple(key): Fraction(1)})

    def __add__(self, other: "FormalPoly") -> "FormalPoly":
        t = dict(self.terms)
        for k, c in other.terms.items():
            _acc(t, k, c)
        return FormalPoly(t)

    def __neg__(self) -> "FormalPoly":
        return FormalPoly({k: -c for k, c in self.terms.items()}, _canonical=True)

    def __sub__(self, other: "FormalPoly") -> "FormalPoly":
        return self + (-other)

    def __mul__(self, other: "FormalPoly") -> "FormalPoly":
        out: Dict[Key, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                eq, ep, es, eb, eh, el, d, ei = map(operator.add, k1, k2)
                pairs, es = divmod(es, 2)                           # s^2 = 1 + beta p^2
                ipairs, ei = divmod(ei, 2)                          # i^2 = -1
                c = -c1 * c2 if ipairs % 2 else c1 * c2
                for dep, deb, bc in _bp2_pieces(pairs):
                    _acc(out, (eq, ep + dep, es, eb + deb, eh, el, d, ei), c * bc)
        return FormalPoly(out)

    def scale(self, re, im=0) -> "FormalPoly":
        return self * FormalPoly.const(re, im)

    def times_bp2(self) -> "FormalPoly":
        """Multiply by 1 + beta p^2 (cancels a denominator power when present)."""
        return self * _BP2

    def times_s_inverse(self) -> "FormalPoly":
        """Multiply by s^{-1} = s/(1 + beta p^2)."""
        return self * _S_INV

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"FormalPoly({format_poly(self)})"

    def q_degree(self) -> int:
        return max((k[0] for k in self.terms), default=0)

    def coefficient_of_hbar(self, power: int) -> "FormalPoly":
        t = {k[:4] + (0,) + k[5:]: c for k, c in self.terms.items() if k[4] == power}
        return FormalPoly(t)


_Q = FormalPoly.var("q")
_P = FormalPoly.var("p")
_S = FormalPoly.var("s")
_BETA = FormalPoly.var("beta")
_BP2 = FormalPoly.const(1) + _BETA * _P * _P
_S_INV = FormalPoly({(0, 0, 1, 0, 0, 0, 1, 0): Fraction(1)})


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def _d_dq(f: FormalPoly) -> FormalPoly:
    t: Dict[Key, Fraction] = {}
    for k, c in f.terms.items():
        if k[0] >= 1:
            _acc(t, (k[0] - 1,) + k[1:], c * k[0])
    return FormalPoly(t)


def _d_dp(f: FormalPoly) -> FormalPoly:
    """Plain p derivative, with ds/dp = beta p s/(1 + beta p^2)."""
    t: Dict[Key, Fraction] = {}
    for (eq, ep, es, eb, eh, el, d, ei), c in f.terms.items():
        if ep >= 1:
            _acc(t, (eq, ep - 1, es, eb, eh, el, d, ei), c * ep)
        if es == 1:
            _acc(t, (eq, ep + 1, 1, eb + 1, eh, el, d + 1, ei), c)
        if d >= 1:
            _acc(t, (eq, ep + 1, es, eb + 1, eh, el, d + 1, ei), c * (-2 * d))
    return FormalPoly(t)


def _main_dp(f: FormalPoly) -> FormalPoly:
    return _d_dp(f).times_bp2()


def _alt_dq(f: FormalPoly) -> FormalPoly:
    return _d_dq(f).times_s_inverse()


def _alt_dp(f: FormalPoly) -> FormalPoly:
    # -beta q p s d/dq + s (1 + beta p^2) d/dp
    return _S * _d_dp(f).times_bp2() - _BETA * _Q * _P * _S * _d_dq(f)


@dataclass(frozen=True)
class DerivationPair:
    """Left/right derivation pair entering the exponential product formula."""

    name: str
    d_position: Callable[[FormalPoly], FormalPoly]
    d_momentum: Callable[[FormalPoly], FormalPoly]


MAIN = DerivationPair("main", _d_dq, _main_dp)
ALT = DerivationPair("alt", _alt_dq, _alt_dp)


# ---------------------------------------------------------------------------
# the truncated product
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _derivative_table(pair: DerivationPair, f: FormalPoly, K: int):
    """table[a][b] = d_position^a d_momentum^b f for a + b <= K, as nested tuples.

    Memoized on ``(pair, f, K)``, at most 64 tables: the polynomials and the
    pair are immutable, so a table never changes once built.
    """
    row = [f]
    for b in range(1, K + 1):
        row.append(pair.d_momentum(row[b - 1]))
    table = [tuple(row)]
    for a in range(1, K + 1):
        prev = table[a - 1]
        table.append(tuple(pair.d_position(prev[b]) for b in range(K + 1 - a)))
    return tuple(table)


def _order_weights(k: int):
    """[(l, w_kl)]: the weights (i hbar)^k / k! C(k, l) (1 - lam)^l (-lam)^(k - l) of order k,
    with (1 - lam)^l expanded in lam and i^k = (-1)^(k // 2) i^(k % 2)."""
    return [(l, FormalPoly({(0, 0, 0, 0, k, k - l + j, 0, k % 2): Fraction(
        (-1) ** (k // 2 + k - l + j) * math.comb(k, l) * math.comb(l, j), math.factorial(k))
        for j in range(l + 1)}, _canonical=True)) for l in range(k + 1)]


def _star_order(tf, tg, k: int) -> FormalPoly:
    """Order-k bidifferential term of the product: sum_l w_kl tf[l][k-l] tg[k-l][l]."""
    out: Dict[Key, Fraction] = {}
    for l, weight in _order_weights(k):
        fi = tf[l][k - l]
        gi = tg[k - l][l]
        if fi.is_zero() or gi.is_zero():
            continue
        for key, c in (weight * (fi * gi)).terms.items():
            _acc(out, key, c)
    return FormalPoly(out)


@dataclass(frozen=True)
class StarResult:
    poly: FormalPoly
    terminated: bool


def formal_star(pair: DerivationPair, f: FormalPoly, g: FormalPoly, order: int) -> StarResult:
    """Truncated exponential star product through hbar^order.

    Reports whether the series terminates: all orders beyond the truncation
    vanish identically, which for polynomial inputs is certified by the
    position-degree bound (each order needs one position derivative per power
    on one side or the other).  Orders above that bound are exactly zero, so
    none is computed, whatever ``order`` asks for.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    bound = f.q_degree() + g.q_degree()
    tf = _derivative_table(pair, f, bound)
    tg = _derivative_table(pair, g, bound)
    total = sum((_star_order(tf, tg, k) for k in range(min(order, bound) + 1)), FormalPoly.zero())
    terminated = all(_star_order(tf, tg, k).is_zero() for k in range(order + 1, bound + 1))
    return StarResult(total, terminated)


def formal_commutator(pair: DerivationPair, f: FormalPoly, g: FormalPoly,
                      order: int) -> StarResult:
    a = formal_star(pair, f, g, order)
    b = formal_star(pair, g, f, order)
    return StarResult(a.poly - b.poly, a.terminated and b.terminated)


def classical_limit(pair: DerivationPair, f: FormalPoly, g: FormalPoly) -> FormalPoly:
    """Induced Poisson bracket: the hbar coefficient of the commutator over i."""
    bound = f.q_degree() + g.q_degree()
    comm = formal_commutator(pair, f, g, max(1, bound)).poly
    return comm.coefficient_of_hbar(1).scale(0, -1)  # divide by i


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def formal_eval(f: FormalPoly, ctx, q, p) -> np.ndarray:
    """Evaluate with the context's numeric parameters; q and p broadcast."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    s = np.sqrt(1.0 + ctx.beta * p ** 2)
    out = np.zeros(np.broadcast(q, p).shape, dtype=complex)
    for (eq, ep, es, eb, eh, el, d, ei), c in f.terms.items():
        val = complex(c) * 1j ** ei * ctx.beta ** eb * ctx.hbar ** eh * ctx.lam ** el
        out = out + val * q ** eq * p ** ep * s ** es / (1.0 + ctx.beta * p ** 2) ** d
    return out


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coef_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return _frac_str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{_frac_str(im)}*i"
    sign = "+" if im > 0 else "-"
    ia = abs(im)
    istr = "i" if ia == 1 else f"{_frac_str(ia)}*i"
    return f"({_frac_str(re)} {sign} {istr})"


def _mono_str(k: Key) -> str:
    parts = []
    for name, e in zip(_SLOT, k[:6]):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    if k[6] == 1:
        parts.append("(1 + beta*p^2)^-1")
    elif k[6] > 1:
        parts.append(f"(1 + beta*p^2)^-{k[6]}")
    return "*".join(parts)


def format_poly(f: FormalPoly) -> str:
    """Canonical text form: factored powers of 1 + beta p^2, sorted monomials."""
    if f.is_zero():
        return "0"
    # factor out as many powers of (1 + beta p^2) as divide the polynomial
    terms = dict(f.terms)
    power = 0
    if all(k[6] == 0 for k in terms):
        while True:
            quo = _divide_by_bp2(terms)
            if quo is None:
                break
            terms = quo
            power += 1
    coefs: Dict[tuple, list] = {}  # the i^0 and i^1 terms of a monomial share one (re, im)
    for k, c in sorted(terms.items()):
        coefs.setdefault(k[:7], [Fraction(0), Fraction(0)])[k[7]] = c
    pieces = []
    for k, (re, im) in coefs.items():
        mono = _mono_str(k)
        cs = _coef_str(re, im)
        if mono:
            if cs == "1":
                pieces.append(mono)
            elif cs == "-1":
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{cs}*{mono}")
        else:
            pieces.append(cs)
    body = " + ".join(pieces).replace("+ -", "- ")
    if power == 0:
        return body
    factor = "(1 + beta*p^2)" if power == 1 else f"(1 + beta*p^2)^{power}"
    if len(coefs) > 1:
        return f"{factor}*({body})"
    if body == "1":
        return factor
    return f"{body}*{factor}"


# ---------------------------------------------------------------------------
# expression parsing (grammar: rational coefficients, q^a p^b s^c products)
# ---------------------------------------------------------------------------

#: Largest exponent of :func:`parse_poly` and of a ``SymbolObservable``; ``x^e`` costs e products.
_MAX_EXPONENT = 64


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>beta|hbar|lam|[qpsi])|(?P<op>[\^*+-])|(?P<bad>\S))")


def parse_poly(text: str) -> FormalPoly:
    """Parse `q^a p^b s^c`-style sums with rational coefficients.

    An exponent above 64 (``_MAX_EXPONENT``) is a :class:`ParseError`.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        kind = "num" if m.group("num") else ("name" if m.group("name") else "op")
        tokens.append((kind, m.group(kind), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))

    i = 0

    def peek():
        return tokens[i]

    def advance():
        nonlocal i
        t = tokens[i]
        i += 1
        return t

    def parse_factor() -> FormalPoly:
        kind, val, at = advance()
        if kind == "num":
            if int(val.partition("/")[2] or 1) == 0:
                raise ParseError(f"zero denominator in {val!r}", at)
            return FormalPoly.const(Fraction(val))
        if kind == "name":
            base = FormalPoly.var(val)
            if peek()[0] == "op" and peek()[1] == "^":
                advance()
                k2, v2, a2 = advance()
                if k2 != "num" or "/" in v2:
                    raise ParseError("expected an integer exponent", a2)
                e = int(v2)
                if e > _MAX_EXPONENT:
                    raise ParseError(f"exponent {e} exceeds the limit {_MAX_EXPONENT}", a2)
                out = FormalPoly.const(1)
                for _ in range(e):
                    out = out * base
                return out
            return base
        raise ParseError("expected a coefficient or variable", at)

    def parse_term() -> FormalPoly:
        out = parse_factor()
        while True:
            kind, val, _ = peek()
            if kind == "op" and val == "*":
                advance()
                out = out * parse_factor()
            elif kind in ("num", "name"):
                out = out * parse_factor()
            else:
                return out

    def parse_sum() -> FormalPoly:
        sign = 1
        kind, val, _ = peek()
        if kind == "op" and val in "+-":
            advance()
            sign = -1 if val == "-" else 1
        out = parse_term().scale(sign)
        while True:
            kind, val, at = peek()
            if kind == "op" and val in "+-":
                advance()
                nxt = parse_term().scale(-1 if val == "-" else 1)
                out = out + nxt
            elif kind == "end":
                return out
            else:
                raise ParseError(f"unexpected token {val!r}", at)

    out = parse_sum()
    return out
