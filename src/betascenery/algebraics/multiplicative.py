"""Exact detection of multiplicative relations |a|^q = |b|^p.

Verdicts:
  Dependent(p, q)       -- |a|^q equals |b|^p exactly, q > 0, gcd(|p|, q) = 1
  IndependentCertified  -- no relation exists for any exponents (proved); its
                           reason names the rung that decided it

The certification ladder has two rungs, and both are complete:
  * rational vs rational: prime exponent vectors, read over a coprime base
    of the numerators and denominators instead of the primes.
  * every pair with an irrational operand (a rational is the degree-1 case):
    a height bound.  Suppose |a|^q = |b|^p with gcd(p, q) = 1 and take
    s p + t q = 1.  Then z = |a|^s |b|^t gives |a| = z^p and |b| = z^q, so
    q h(z) = h(b) for the absolute Weil height h.  z lies in Q(a, b), of
    degree at most D = deg a * deg b >= 2, and is not a root of unity since
    |b| != 1.  Voutier's Dobrowolski-type bound (P. Voutier, Acta Arith. 74,
    1996), d h(z) >= 2 / (log 3d)^3 in degree d >= 2, falls with d, and a
    rational z has h(z) >= log 2, which is larger; so h(z) >= h_min(D) =
    2 / (D (log 3D)^3).  Landau's inequality M(P) <= ||P||_2 on the primitive
    integer minimal polynomial P of b gives h(b) <= log ||P||_2 / deg b.
    Hence q <= Q* = floor(h(b) / h_min(D)), with both bounds rounded outward
    in interval arithmetic.  For each q <= Q* the only candidates for p are
    the integers in a certified enclosure of q log|a| / log|b|, and each gets
    an exact algebraic equality check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .algnum import AlgebraicNumber, FieldElement, monic_scaled_field
from .bigreal import BigReal


@dataclass(frozen=True)
class Dependent:
    p: int
    q: int

    def __str__(self):
        return f"Dependent(|a|^{self.q} = |b|^{self.p})"


@dataclass(frozen=True)
class IndependentCertified:
    reason: str

    def __str__(self):
        return f"IndependentCertified({self.reason})"


Verdict = Union[Dependent, IndependentCertified]


def _as_number(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, FieldElement):
        r = x.to_rational()
        return r if r is not None else x.to_algebraic()
    if isinstance(x, AlgebraicNumber):
        r = x.to_rational()
        return r if r is not None else x
    raise TypeError(f"unsupported operand type {type(x).__name__}")


def _coprime_base(numbers) -> list:
    """Pairwise coprime integers > 1 of which every one of `numbers` (> 0)
    is a product of powers, by factor refinement (E. Bach, J. Driscoll and
    J. Shallit, J. Algorithms 1993): while a pending m shares a factor g
    with a base element b, b leaves the base and b / g, g and m / g are
    refined in turn.  The product of the pending and base numbers falls by
    g each time, so this ends."""
    base: list = []
    pending = [n for n in numbers if n > 1]
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        for i, b in enumerate(base):
            g = math.gcd(m, b)
            if g > 1:
                del base[i]
                pending += [b // g, g, m // g]
                break
        else:
            base.append(m)
    return sorted(base)


def _exponent_vectors(a: Fraction, b: Fraction) -> Tuple[dict, dict]:
    """The exponent vectors of a and b over a coprime base of their
    numerators and denominators, zero entries dropped.  Distinct base
    elements have disjoint prime supports, and a prime p dividing the base
    element e has v_p(x) = v_e(x) v_p(e), so two vectors have equal supports
    and are proportional, with one ratio, exactly when the prime exponent
    vectors are."""
    base = _coprime_base([a.numerator, a.denominator,
                          b.numerator, b.denominator])

    def vector(q: Fraction) -> dict:
        vec = {}
        for e in base:
            k, n, d = 0, q.numerator, q.denominator
            while n % e == 0:
                n //= e
                k += 1
            while d % e == 0:
                d //= e
                k -= 1
            if k:
                vec[e] = k
        return vec
    return vector(a), vector(b)


def _normalize(p: int, q: int) -> Dependent:
    g = math.gcd(abs(p), q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return Dependent(p, q)


def _rat_rat(a: Fraction, b: Fraction) -> Verdict:
    va, vb = _exponent_vectors(a, b)
    if set(va) != set(vb):
        return IndependentCertified("prime-exponent test: prime supports "
                                    "differ")
    r0 = next(iter(vb))
    p, q = va[r0], vb[r0]
    if all(q * va[r] == p * vb[r] for r in vb):
        return _normalize(p, q)
    return IndependentCertified("prime-exponent test: exponent vectors are "
                                "not proportional")


def _degree(x) -> int:
    return 1 if isinstance(x, Fraction) else x.degree


def _exponent_bound(a, b) -> Tuple[int, int]:
    """(D, Q*): the degree bound D = deg a * deg b and the exponent bound
    Q* = floor(h(b) / h_min(D)) of the module docstring, with h(b) rounded
    up and h_min(D) down.  D >= 2: one operand is irrational."""
    D = _degree(a) * _degree(b)
    coeffs = ((b.denominator, -b.numerator) if isinstance(b, Fraction)
              else b.min_poly.coeffs)
    h_b = BigReal.from_int(sum(c * c for c in coeffs)).log() / (2 * _degree(b))
    log_3d = BigReal.from_int(3 * D).log()
    h_min = 2 / (log_3d * log_3d * log_3d * D)
    return D, math.floor((h_b / h_min).hi)


def _log_abs(x) -> BigReal:
    """log|x| enclosed away from 0 (|x| != 1), from 192 binary places up;
    a tiny |x| needs more places before its enclosure leaves 0."""
    prec = 192
    while True:
        if isinstance(x, Fraction):
            v = BigReal.from_fraction(abs(x), prec)
        else:
            v = BigReal.from_algebraic(x.abs_value(), prec)
        if v.lo > 0 and not (log := v.log()).contains(0):
            return log
        prec *= 2


def _abs_power(x, k: int) -> AlgebraicNumber:
    """|x|^k as an algebraic number (k may be negative)."""
    if isinstance(x, Fraction):
        return AlgebraicNumber.from_rational(abs(x) ** k)
    field, c = monic_scaled_field(x.abs_value())
    return ((field.beta() * Fraction(1, c)) ** k).to_algebraic()


def _height_rung(a, b) -> Verdict:
    D, q_max = _exponent_bound(a, b)
    ratio = _log_abs(a) / _log_abs(b)
    for q in range(1, q_max + 1):
        t = ratio * q
        for p in range(math.ceil(t.lo), math.floor(t.hi) + 1):
            if _abs_power(a, q).equals(_abs_power(b, p)):
                return _normalize(p, q)
    return IndependentCertified(
        f"height bound: no relation with q <= {q_max} (D = {D})")


def multiplicative_relation(a, b) -> Verdict:
    """Decide whether |a| and |b| are multiplicatively dependent.

    Accepts ints, Fractions, AlgebraicNumbers, and FieldElements.  Raises
    ValueError when either operand has absolute value 0 or 1 (relations are
    then trivial or vacuous).
    """
    a, b = _as_number(a), _as_number(b)
    for name, x in (("a", a), ("b", b)):
        if isinstance(x, Fraction) and abs(x) in (0, 1):
            raise ValueError(f"|{name}| is {abs(x)}; relation is degenerate")
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return _rat_rat(abs(a), abs(b))
    return _height_rung(a, b)
