"""Exact detection of multiplicative relations |a|^q = |b|^p.

Verdicts:
  Dependent(p, q)        -- |a|^q equals |b|^p exactly, q > 0, gcd(|p|, q) = 1
  IndependentCertified   -- no relation exists for any exponents (proved)
  IndependentUpTo(bound) -- no relation with |p|, q <= bound (search exhausted)

The certification ladder:
  * rational vs rational: prime exponent vectors; complete and exact.
  * rational vs algebraic: if some power b^p0 is exactly rational (decided in
    the number field), every relation factors through it and the rational
    test is complete, so the verdict stays certified.  Otherwise, two
    conjugates of b with certifiably distinct moduli prove b^p is irrational
    for all p != 0 (b^p = r would put every conjugate on one circle), again
    certified.  Only if both avenues fail does the verdict fall back to the
    bounded search.
  * algebraic vs algebraic: exponent pairs up to the bound are screened with
    outward-rounded 192-bit log arithmetic (a nonzero screened difference is
    a proof of inequality for that pair); surviving pairs get an exact
    algebraic equality check.  Exhaustion yields IndependentUpTo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

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


@dataclass(frozen=True)
class IndependentUpTo:
    bound: int

    def __str__(self):
        return f"IndependentUpTo({self.bound})"


Verdict = Union[Dependent, IndependentCertified, IndependentUpTo]


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


def _prime_vector(q: Fraction) -> dict:
    from sympy import factorint
    vec: dict = {}
    for prime, e in factorint(q.numerator).items():
        vec[int(prime)] = vec.get(int(prime), 0) + e
    for prime, e in factorint(q.denominator).items():
        vec[int(prime)] = vec.get(int(prime), 0) - e
    return {r: e for r, e in vec.items() if e}


def _normalize(p: int, q: int) -> Dependent:
    g = gcd(abs(p), q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return Dependent(p, q)


def _rat_rat(a: Fraction, b: Fraction) -> Verdict:
    va, vb = _prime_vector(a), _prime_vector(b)
    if set(va) != set(vb):
        return IndependentCertified("prime supports differ")
    r0 = next(iter(vb))
    p, q = va[r0], vb[r0]
    if all(q * va[r] == p * vb[r] for r in vb):
        return _normalize(p, q)
    return IndependentCertified("prime exponent vectors are not proportional")


def _rational_power(a: AlgebraicNumber, bound: int):
    """Least p in 1..bound with a^p rational, as (p, value), else None."""
    field, c = monic_scaled_field(a)
    beta = field.beta()
    power = field.from_rational(1)
    for p in range(1, bound + 1):
        power = power * beta
        r = power.to_rational()
        if r is not None:
            return p, r / Fraction(c) ** p
    return None


def _distinct_conjugate_moduli(a: AlgebraicNumber) -> bool:
    """True if two conjugates of `a` have certifiably different moduli."""
    iso = a.conjugates()
    while True:
        bounds = iso.all_modulus_bounds()
        for i in range(len(bounds)):
            for j in range(i + 1, len(bounds)):
                if bounds[i][1] < bounds[j][0] or bounds[j][1] < bounds[i][0]:
                    return True
        if iso.precision >= 512:   # equal moduli never separate
            return False
        iso = iso.refined()


def _log_abs(x, prec: int = 192) -> BigReal:
    if isinstance(x, Fraction):
        return BigReal.from_fraction(abs(x), prec).log()
    return BigReal.from_algebraic(x.abs_value(), prec).log()


def _abs_power_algebraic(a: AlgebraicNumber, k: int) -> AlgebraicNumber:
    """|a|^k as an algebraic number (k may be negative)."""
    field, c = monic_scaled_field(a.abs_value())
    elem = field.beta() ** abs(k) / Fraction(c) ** abs(k)
    if k < 0:
        elem = elem.inverse()
    return elem.to_algebraic()


def multiplicative_relation(a, b, search_bound: int = 64) -> Verdict:
    """Decide whether |a| and |b| are multiplicatively dependent.

    Accepts ints, Fractions, AlgebraicNumbers, and FieldElements.  Raises
    ValueError when either operand has absolute value 0 or 1 (relations are
    then trivial or vacuous).
    """
    a, b = _as_number(a), _as_number(b)
    for name, x in (("a", a), ("b", b)):
        if isinstance(x, Fraction) and abs(x) in (0, 1):
            raise ValueError(f"|{name}| is {abs(x)}; relation is degenerate")

    a_rat = isinstance(a, Fraction)
    b_rat = isinstance(b, Fraction)

    if a_rat and b_rat:
        return _rat_rat(abs(a), abs(b))

    if a_rat:
        # |a|^q = |b|^p with a rational, b algebraic: direct orientation.
        return _rat_alg(abs(a), b, search_bound)

    if b_rat:
        # _rat_alg decides |b|^q' = |a|^p'; transpose the exponents.
        verdict = _rat_alg(abs(b), a, search_bound)
        if isinstance(verdict, Dependent):
            p, q = verdict.q, verdict.p
            if q < 0:
                p, q = -p, -q
            return _normalize(p, q)
        return verdict

    return _alg_alg(a, b, search_bound)


def _rat_alg(r: Fraction, alpha: AlgebraicNumber, bound: int) -> Verdict:
    """Relation |r|^q = |alpha|^p for rational r, algebraic irrational alpha."""
    hit = _rational_power(alpha.abs_value(), bound)
    if hit is not None:
        p0, value = hit
        inner = _rat_rat(r, abs(value))
        if isinstance(inner, Dependent):
            # |r|^q = |alpha^p0|^k = |alpha|^(p0 k)
            return _normalize(p0 * inner.p, inner.q)
        return IndependentCertified(
            f"alpha^{p0} is rational and prime-exponent test refutes "
            "any relation through it")
    if _distinct_conjugate_moduli(alpha):
        return IndependentCertified(
            "two conjugates have distinct moduli, so no power of alpha "
            "is rational")
    return IndependentUpTo(bound)


def _alg_alg(a: AlgebraicNumber, b: AlgebraicNumber, bound: int) -> Verdict:
    la = _log_abs(a)
    lb = _log_abs(b)
    for q in range(1, bound + 1):
        for p_abs in range(1, bound + 1):
            for p in (p_abs, -p_abs):
                sign = (la * q - lb * p).sign_certain()
                if sign is not None and sign != 0:
                    continue
                x = _abs_power_algebraic(a, q)
                y = _abs_power_algebraic(b, p)
                if x.min_poly == y.min_poly and x.equals(y):
                    return _normalize(p, q)
    return IndependentUpTo(bound)
