"""Integer-coefficient polynomials with exact evaluation.

Coefficients are stored lowest-degree first.  Everything stays in exact
integers: signs at a rational a/b come from the homogeneous Horner value
b^d p(a/b), gcds from a primitive pseudo-remainder sequence, and real-root
counts from the Descartes descent of roots.py on p carried onto (0, 1) by
an integer affine map.  Evaluation over an interval with rational
endpoints uses exact rational interval arithmetic, so its bounds are
certificates, not estimates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import List, Sequence, Tuple

RatInterval = Tuple[Fraction, Fraction]

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+)(?:\s*/\s*(?P<cden>\d+))?\s*(?:\*\s*)?
                (?P<var1>x)(?:\s*(?:\^|\*\*)\s*(?P<exp1>\d+))?
          | (?P<var2>x)(?:\s*(?:\^|\*\*)\s*(?P<exp2>\d+))?
          | (?P<const>\d+)
        )(?:\s*/\s*(?P<den>\d+))?\s*""",
    re.VERBOSE,
)


def _parse_poly_string(text: str, rational: bool = False) -> list:
    """Parse forms like ``x^2 - x - 1`` or ``2*x**3 + 5`` into coefficients,
    lowest degree first.  With `rational`, terms may also carry
    denominators, as in ``x + x^2/2`` or ``1/3*x``, and the coefficients are
    Fractions.  Zero leading terms are dropped.  Only this grammar is
    read; nothing is evaluated."""
    pos = 0
    coeffs: dict = {}
    seen_any = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos or (
                not rational and (m.group("cden") or m.group("den"))):
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if seen_any and m.group("sign") == "":
            raise ValueError(f"missing +/- between terms in {text!r}")
        if m.group("const") is not None:
            c, e = int(m.group("const")), 0
        elif m.group("var2") is not None:
            c = 1
            e = int(m.group("exp2")) if m.group("exp2") else 1
        else:
            c = int(m.group("coeff"))
            e = int(m.group("exp1")) if m.group("exp1") else 1
        den = int(m.group("cden") or 1) * int(m.group("den") or 1)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        coeffs[e] = coeffs.get(e, 0) + Fraction(sign * c, den)
        pos = m.end()
        seen_any = True
    if not seen_any:
        raise ValueError("empty polynomial string")
    out = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out if rational else [int(c) for c in out]


def interval_mul(a: RatInterval, b: RatInterval) -> RatInterval:
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


# -- dense integer coefficient lists, lowest degree first ----------------------


def scaled_value(coeffs: Sequence[int], a: int, b: int) -> int:
    """b^d p(a/b) for p = coeffs of degree d, by homogeneous Horner:
    the sum of c_i a^i b^(d-i).  Its sign is the sign of p(a/b) for b > 0."""
    acc, power = coeffs[-1], 1
    for c in coeffs[-2::-1]:
        power *= b
        acc = acc * a + c * power
    return acc


def _trim(cs: List[int]) -> List[int]:
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs: List[int]) -> List[int]:
    """cs divided by its content, with a positive leading coefficient."""
    g = 0
    for c in cs:
        g = gcd(g, c)
    if g == 0:
        return [0]
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _prem(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The pseudo-remainder of a by b with a positive multiplier:
    |lc(b)|^(deg a - deg b + 1) a mod b, exactly, in integers."""
    r = list(a)
    lc, nb = b[-1], len(b)
    delta = max(len(a) - nb + 1, 0)
    steps = delta
    while len(r) >= nb and r != [0]:
        c, k = r[-1], len(r) - nb
        r = [lc * x for x in r]
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        r = _trim(r[:-1] or [0])
        steps -= 1
    # r is lc^(delta - steps) a mod b; finish with lc^steps, and flip the
    # sign where lc^delta is negative
    scale = lc ** steps * (-1 if lc < 0 and delta % 2 else 1)
    return [scale * x for x in r]


def _gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The primitive gcd of two nonzero integer polynomials, by the primitive
    pseudo-remainder sequence."""
    a, b = _primitive(list(a)), _primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b != [0]:
        r = _prem(a, b)
        a, b = b, _primitive(r) if r != [0] else [0]
    return a


def _divexact(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a / b for a primitive b that divides the integer polynomial a; by
    Gauss's lemma the quotient has integer coefficients.  Raises
    ArithmeticError when b does not divide a."""
    r, nb = list(a), len(b)
    q = [0] * max(len(a) - nb + 1, 1)
    while len(r) >= nb and r != [0]:
        c, rest = divmod(r[-1], b[-1])
        if rest:
            raise ArithmeticError("inexact polynomial division")
        k = len(r) - nb
        q[k] = c
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        r = _trim(r[:-1] or [0])
    if r != [0]:
        raise ArithmeticError("inexact polynomial division")
    return q


@dataclass(frozen=True)
class IntPolynomial:
    """Immutable integer polynomial, coefficients lowest-degree first."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (0,)
        object.__setattr__(self, "coeffs", cs)

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, source: "str | Iterable[int] | IntPolynomial") -> "IntPolynomial":
        if isinstance(source, IntPolynomial):
            return source
        if isinstance(source, str):
            return cls(tuple(_parse_poly_string(source)))
        return cls(tuple(int(c) for c in source))

    @classmethod
    def from_rational(cls, coeffs: Sequence[Fraction]) -> "IntPolynomial":
        """The rational polynomial times the lcm of its denominators."""
        den = lcm(*(Fraction(c).denominator for c in coeffs))
        return cls(tuple(int(c * den) for c in coeffs))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; sign chosen so the leading coefficient > 0."""
        return IntPolynomial(tuple(_primitive(list(self.coeffs))))

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def is_self_reciprocal(self) -> bool:
        """True iff p == ±(its reciprocal), i.e. roots closed under z -> 1/z."""
        rev = tuple(reversed(self.coeffs))
        return self.coeffs == rev or self.coeffs == tuple(-c for c in rev)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        x = Fraction(x)
        v = scaled_value(self.coeffs, x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    # -- gcds and factors ----------------------------------------------------

    @cached_property
    def _derivative_gcd(self) -> List[int]:
        """gcd(p, p'), kept on the polynomial: count_roots reads it on
        every call."""
        return _gcd(self.coeffs, self.derivative().coeffs)

    def squarefree(self) -> bool:
        """True iff no root is repeated: gcd(p, p') is a constant."""
        return self.degree < 1 or len(self._derivative_gcd) == 1

    def squarefree_part(self) -> "IntPolynomial":
        """The primitive p / gcd(p, p'): each root of p once."""
        if self.degree < 1:
            return self.primitive()
        return IntPolynomial(tuple(_primitive(_divexact(
            self.coeffs, self._derivative_gcd))))

    def divides(self, other: "IntPolynomial") -> bool:
        """True iff this nonzero polynomial divides `other` over Q."""
        return _prem(other.coeffs, self.coeffs) == [0]

    def is_irreducible(self) -> bool:
        """Irreducibility over Q (content and unit factors ignored),
        certified: see irreducible.py."""
        from .irreducible import is_irreducible
        return is_irreducible(self)

    def count_roots(self, lo: Fraction, hi: Fraction) -> int:
        """The number of real roots in the closed [lo, hi] of this
        square-free polynomial, exactly.  With lo = a / den and
        hi = (a + w) / den, the roots strictly between the ends are those
        of q(t) = den^d p((a + w t) / den) in (0, 1), which the descent of
        roots._unit_roots counts, and an end is a root where q is 0 there.
        Raises ValueError on a polynomial that is not square-free: the
        descent need not end at a repeated root."""
        from .roots import _unit_roots
        if not self.squarefree():
            raise ValueError("repeated roots; pass the square-free part")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo == hi:
            return int(self.sign_at(lo) == 0)
        den = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (den // lo.denominator)
        w = hi.numerator * (den // hi.denominator) - a
        # homogeneous Horner in t: q = q (a + w t) + c den^k, step by step
        q, power = [self.coeffs[-1]], 1
        for c in self.coeffs[-2::-1]:
            power *= den
            q = [a * x + w * y for x, y in zip(q + [0], [0] + q)]
            q[0] += c * power
        # q(0) and q(1) are den^d p(lo) and den^d p(hi)
        return len(_unit_roots(q)) + (q[0] == 0) + (sum(q) == 0)

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0 and self.degree > 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            if not parts:
                parts.append(term if c >= 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
