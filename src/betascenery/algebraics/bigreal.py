"""Arbitrary-precision reals with certified error bounds.

A BigReal is the interval [lo, hi] / 2^prec with integer endpoints lo <= hi:
prec counts binary places.  Arithmetic rounds the low endpoint down (`>>`,
`//`) and the high one up (the same operations on the negated value), so the
exact result always lies in the enclosure: the interval is a certificate, not
an estimate (R. E. Moore, Interval Analysis, 1966).  Operands of different
precision meet at the larger one, where the shift is exact.  An int or
Fraction operand of + - * / enters exactly, and only the result is rounded.
Exact sources (fractions, algebraic numbers) can be re-materialized at any
requested precision.  mpmath is needed only by `log`, for its certified
directed-rounding logarithm, and is imported there.
"""

from __future__ import annotations

from fractions import Fraction


class BigReal:
    """The real interval [lo, hi] / 2^prec: the exact value lies in it."""

    __slots__ = ("_lo", "_hi", "prec")

    def __init__(self, lo: int, hi: int, prec: int):
        self._lo, self._hi, self.prec = lo, hi, prec

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_fraction(cls, q, prec: int = 128) -> "BigReal":
        return cls.from_interval(q, q, prec)

    @classmethod
    def from_int(cls, n: int, prec: int = 128) -> "BigReal":
        return cls(n << prec, n << prec, prec)

    @classmethod
    def from_interval(cls, lo, hi, prec: int = 128) -> "BigReal":
        lo, hi = Fraction(lo), Fraction(hi)
        return cls((lo.numerator << prec) // lo.denominator,
                   -((-hi.numerator << prec) // hi.denominator), prec)

    @classmethod
    def from_algebraic(cls, a, prec: int = 128) -> "BigReal":
        lo, hi = a.refine_bits(prec + 2)
        return cls.from_interval(lo, hi, prec)

    # -- views ---------------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, 1 << self.prec)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, 1 << self.prec)

    def __float__(self) -> float:
        # int / int rounds correctly: the float nearest the exact midpoint
        return (self._lo + self._hi) / (1 << (self.prec + 1))

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def __repr__(self) -> str:
        return f"BigReal([{float(self.lo):.12g}, {float(self.hi):.12g}])"

    # -- arithmetic ----------------------------------------------------------

    def _ends(self, prec: int):
        """The endpoints at prec >= self.prec binary places (exact)."""
        s = prec - self.prec
        return self._lo << s, self._hi << s

    def __neg__(self):
        return BigReal(-self._hi, -self._lo, self.prec)

    def __add__(self, other):
        if isinstance(other, int):
            n = other << self.prec
            return BigReal(self._lo + n, self._hi + n, self.prec)
        if not isinstance(other, BigReal):
            other = BigReal.from_fraction(other, self.prec)
        prec = max(self.prec, other.prec)
        (a, b), (c, d) = self._ends(prec), other._ends(prec)
        return BigReal(a + c, b + d, prec)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, BigReal):
            # an int or Fraction a/c: one exact product per endpoint and one
            # directed division by c > 0, the ends swapped when a < 0
            a, c = other.numerator, other.denominator
            lo, hi = (self._lo * a, self._hi * a) if a >= 0 else \
                (self._hi * a, self._lo * a)
            return BigReal(lo // c, -(-hi // c), self.prec)
        prec = max(self.prec, other.prec)
        (a, b), (c, d) = self._ends(prec), other._ends(prec)
        if a >= 0 and c >= 0:
            lo, hi = a * c, b * d
        else:
            products = (a * c, a * d, b * c, b * d)
            lo, hi = min(products), max(products)
        return BigReal(lo >> prec, -(-hi >> prec), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, BigReal):
            return self * (1 / Fraction(other))
        prec = max(self.prec, other.prec)
        dens = other._ends(prec)
        if dens[0] <= 0 <= dens[1]:
            raise ZeroDivisionError("divisor interval contains zero")
        nums = [n << prec for n in self._ends(prec)]
        return BigReal(min(n // d for n in nums for d in dens),
                       max(-(-n // d) for n in nums for d in dens), prec)

    def __rtruediv__(self, other):
        # a/c / self = a / (c * self): both operands exact, one rounding
        q = Fraction(other)
        return (BigReal.from_int(q.numerator, self.prec)
                / (self * q.denominator))

    def log(self) -> "BigReal":
        """mpmath's certified logarithm of each endpoint at prec significant
        bits, rounded down at the low end and up at the high end."""
        from mpmath.libmp import (from_man_exp, mpf_log, round_ceiling,
                                  round_floor)

        if self._lo <= 0:
            raise ValueError("log of an interval touching (-inf, 0]")
        prec, ends = self.prec, []
        # s = -1 negates the high end, so that the floor below is a ceiling
        for n, rnd, s in ((self._lo, round_floor, 1),
                          (self._hi, round_ceiling, -1)):
            sign, man, exp, _ = mpf_log(from_man_exp(n, -prec), prec, rnd)
            v, e = (-s if sign else s) * man, exp + prec
            ends.append(s * (v << e if e >= 0 else v >> -e))
        return BigReal(ends[0], ends[1], prec)

    # -- certified decisions ---------------------------------------------------

    def floor_certain(self):
        """The integer floor if the enclosure decides it, else None."""
        flo = self._lo >> self.prec
        return flo if flo == self._hi >> self.prec else None
