"""Arbitrary-precision reals with certified error bounds.

A BigReal wraps an outward-rounded interval (mpmath's `iv` context does the
directed rounding).  Arithmetic propagates the enclosure, so the exact
result always lies in [lo, hi]: the interval is a certificate, not an
estimate.  Precision is a per-value hint: operations run at the widest
precision among their operands, and exact sources (fractions, algebraic
numbers) can be re-materialized at any requested precision.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import (from_int, mpi_add, mpi_div, mpi_mul, mpi_sub,
                          round_ceiling, round_floor)


@contextmanager
def _iv_prec(bits: int):
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _endpoint_parts(t):
    """(signed mantissa, exponent) of a raw mpf tuple (sign, man, exp, bc):
    the endpoint's value is man * 2^exp."""
    sign, man, exp, _ = t
    if man == 0 and exp != 0:
        raise ValueError("non-finite interval endpoint")
    return (-man if sign else man), exp


def _endpoint_fraction(t) -> Fraction:
    """Exact rational value of a raw mpf tuple."""
    man, exp = _endpoint_parts(t)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _endpoint_floor(t) -> int:
    """Exact floor of a raw mpf tuple: an arithmetic shift of the signed
    mantissa, which rounds towards minus infinity."""
    man, exp = _endpoint_parts(t)
    return man << exp if exp >= 0 else man >> -exp


class BigReal:
    """Interval-backed real number: the exact value lies in [lo, hi]."""

    __slots__ = ("_iv", "prec")

    def __init__(self, interval, prec: int = 128):
        self._iv = interval
        self.prec = prec

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_fraction(cls, q, prec: int = 128) -> "BigReal":
        q = Fraction(q)
        with _iv_prec(prec):
            val = iv.mpf(q.numerator) / iv.mpf(q.denominator)
        return cls(val, prec)

    @classmethod
    def from_int(cls, n: int, prec: int = 128) -> "BigReal":
        with _iv_prec(prec):
            return cls(iv.mpf(n), prec)

    @classmethod
    def from_interval(cls, lo, hi, prec: int = 128) -> "BigReal":
        lo, hi = Fraction(lo), Fraction(hi)
        with _iv_prec(prec):
            a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
            b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
            val = iv.mpf([a.a, b.b])
        return cls(val, prec)

    @classmethod
    def from_algebraic(cls, a, prec: int = 128) -> "BigReal":
        lo, hi = a.refine_bits(prec + 2)
        return cls.from_interval(lo, hi, prec)

    # -- views ---------------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return _endpoint_fraction(self._iv._mpi_[0])

    @property
    def hi(self) -> Fraction:
        return _endpoint_fraction(self._iv._mpi_[1])

    def __float__(self) -> float:
        return float(self._iv.mid)

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def __repr__(self) -> str:
        return f"BigReal([{float(self.lo):.12g}, {float(self.hi):.12g}])"

    # -- arithmetic ----------------------------------------------------------

    def _lift(self, other) -> "BigReal":
        """other as a BigReal at this precision: an int enters as an exact
        point (outward-rounded if it needs more bits), any other rational
        through its outward-rounded quotient."""
        if isinstance(other, BigReal):
            return other
        if isinstance(other, int):
            prec = self.prec
            return BigReal(iv.make_mpf((from_int(other, prec, round_floor),
                                        from_int(other, prec, round_ceiling))),
                           prec)
        return BigReal.from_fraction(Fraction(other), self.prec)

    def _binop(self, other, op) -> "BigReal":
        """op on the raw endpoint tuples at the wider precision: the
        outward-rounded interval functions that mpmath's `iv` operators
        call, without switching the context's precision."""
        other = self._lift(other)
        prec = max(self.prec, other.prec)
        return BigReal(iv.make_mpf(op(self._iv._mpi_, other._iv._mpi_, prec)),
                       prec)

    def __add__(self, other):
        return self._binop(other, mpi_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, mpi_sub)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b, prec: mpi_sub(b, a, prec))

    def __mul__(self, other):
        return self._binop(other, mpi_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.contains(0):
            raise ZeroDivisionError("divisor interval contains zero")
        return self._binop(other, mpi_div)

    def __rtruediv__(self, other):
        if self.contains(0):
            raise ZeroDivisionError("divisor interval contains zero")
        return self._binop(other, lambda a, b, prec: mpi_div(b, a, prec))

    def log(self) -> "BigReal":
        if self.lo <= 0:
            raise ValueError("log of an interval touching (-inf, 0]")
        with _iv_prec(self.prec):
            return BigReal(iv.log(self._iv), self.prec)

    # -- certified decisions ---------------------------------------------------

    def floor_certain(self):
        """The integer floor if the enclosure decides it, else None."""
        lo, hi = self._iv._mpi_
        flo = _endpoint_floor(lo)
        return flo if flo == _endpoint_floor(hi) else None
