"""Arbitrary-precision reals with certified error bounds.

A BigReal is the interval [lo, hi] / 2^prec with integer endpoints lo <= hi:
prec counts binary places.  Arithmetic rounds the low endpoint down (`>>`,
`//`) and the high one up (the same operations on the negated value), so the
exact result always lies in the enclosure: the interval is a certificate, not
an estimate (R. E. Moore, Interval Analysis, 1966).  Operands of different
precision meet at the larger one, where the shift is exact.  An int or
Fraction operand of + - * / enters exactly, and only the result is rounded.
Exact sources (fractions, algebraic numbers) can be re-materialized at any
requested precision.  `log` sums atanh series on integers with an
explicit error bound, so it is certified in the same way.
"""

from __future__ import annotations

import functools
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
        """The natural logarithm, the low end rounded down and the high end
        up (see _log_bounds)."""
        if self._lo <= 0:
            raise ValueError("log of an interval touching (-inf, 0]")
        prec = self.prec
        lo = _log_bounds(self._lo, prec)
        hi = lo if self._hi == self._lo else _log_bounds(self._hi, prec)
        return BigReal(lo[0], hi[1], prec)


def _atanh(u: int, v: int, w: int):
    """(s, e) with s <= 2^w atanh(u / v) <= s + e, for 0 <= u / v <= 1/3:
    the series sum_i t^(2i+1) / (2i+1) on w places, each power the floor
    of the one before times t^2, itself floored.  t^2 falls short by under
    2 units, so a power by under 3 more than t^2 times the shortfall before
    it, which keeps each below 27/8 (t^2 <= 1/9) and each term's shortfall
    below 5; the tail past the first power that floors to 0 is under 2."""
    p = (u << w) // v
    t2, s, i = p * p >> w, 0, 0
    while p:
        s += p // (2 * i + 1)
        p = p * t2 >> w
        i += 1
    return s, 5 * i + 2


# _log_bounds splits off the leading _TABLE_BITS + 1 bits of its argument,
# whose logarithms are summed once per precision and kept: 2^_TABLE_BITS
# of them and log 2, for each of a few precisions
_TABLE_BITS = 6

_atanh_kept = functools.lru_cache(maxsize=1024)(_atanh)


def _log_bounds(n: int, prec: int):
    """(lo, hi) with lo <= 2^prec log(n / 2^prec) <= hi, for n > 0.

    Write n = c 2^j (1 + d) with c = n >> j the leading r + 1 bits, so that
    c / 2^r lies in [1, 2) and d < 2^-r.  Then
    log(n / 2^prec) = (r + j - prec) log 2 + log(c / 2^r) + log(1 + d), and
    log y = 2 atanh((y - 1) / (y + 1)) for each of y = 2, c / 2^r and 1 + d,
    where the last ratio is below 2^-(r+1); all three are summed on prec + g
    places (R. P. Brent and P. Zimmermann, Modern Computer Arithmetic, 2010,
    section 4.4), the first two kept for the next call.  The g guard
    places keep the summed error below 2^-8 at prec places."""
    r = _TABLE_BITS
    j = n.bit_length() - 1 - r
    if j >= 0:
        c = n >> j
        d = (n - (c << j), n + (c << j))
    else:
        c, d = n << -j, (0, 1)
    k = r + j - prec
    w = prec + 8 + prec.bit_length() + abs(k).bit_length()
    s0, e0 = _atanh_kept(1, 3, w)
    s1, e1 = _atanh_kept(c - (1 << r), c + (1 << r), w)
    s2, e2 = _atanh(*d, w)
    lo = 2 * (s1 + s2 + k * (s0 if k >= 0 else s0 + e0))
    hi = lo + 2 * (e1 + e2 + abs(k) * e0)
    g = w - prec
    return lo >> g, -(-hi >> g)
