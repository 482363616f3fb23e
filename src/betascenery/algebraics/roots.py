"""Certified isolation of polynomial roots.

Real roots come back as disjoint rational intervals, refined by exact-sign
bisection.  Non-real roots come back as conjugate pairs boxed in rational
rectangles; rectangles are refined by quadrisection, re-counting roots with
an exact winding-number count at every split, so the boxes are certificates.
Modulus bounds are derived from box geometry in exact rational arithmetic.

sympy supplies the initial isolation and the exact rectangle root count; the
refinement loops and all decisions made from them live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import List, Tuple

from .intpoly import IntPolynomial


def _to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _qq(x: Fraction):
    from sympy.polys.domains import QQ
    return QQ(x.numerator, x.denominator)


@dataclass
class RealRootInterval:
    """Rational interval [lo, hi] containing exactly one real root.

    lo == hi means the root is rational and known exactly.
    """

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def modulus_bounds(self) -> Tuple[Fraction, Fraction]:
        if self.lo >= 0:
            return (self.lo, self.hi)
        if self.hi <= 0:
            return (-self.hi, -self.lo)
        return (Fraction(0), max(-self.lo, self.hi))


@dataclass
class ComplexRootBox:
    """Rectangle [re_lo, re_hi] x [im_lo, im_hi] holding one root of a
    conjugate pair (the one with positive imaginary part)."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def modulus_sq_bounds(self) -> Tuple[Fraction, Fraction]:
        """Exact bounds on |z|^2 over the rectangle."""
        if self.re_lo <= 0 <= self.re_hi:
            dx2 = Fraction(0)
        else:
            dx2 = min(self.re_lo * self.re_lo, self.re_hi * self.re_hi)
        if self.im_lo <= 0 <= self.im_hi:
            dy2 = Fraction(0)
        else:
            dy2 = min(self.im_lo * self.im_lo, self.im_hi * self.im_hi)
        lo = dx2 + dy2
        hi = max(re * re for re in (self.re_lo, self.re_hi)) + \
            max(im * im for im in (self.im_lo, self.im_hi))
        return (lo, hi)

    def modulus_bounds(self) -> Tuple[Fraction, Fraction]:
        lo2, hi2 = self.modulus_sq_bounds()
        return (_sqrt_lower(lo2), _sqrt_upper(hi2))

    @property
    def diameter(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)


@dataclass
class RootIsolation:
    poly: IntPolynomial
    real_roots: List[RealRootInterval] = field(default_factory=list)
    complex_pairs: List[ComplexRootBox] = field(default_factory=list)

    def all_modulus_bounds(self) -> List[Tuple[Fraction, Fraction]]:
        """Modulus bounds for every root, conjugate pairs listed once."""
        return [r.modulus_bounds()
                for r in self.real_roots + self.complex_pairs]


def _sqrt_lower(x: Fraction) -> Fraction:
    """Rational lower bound on sqrt(x), tight to ~1e-12."""
    if x <= 0:
        return Fraction(0)
    scale = 10**12
    n = (x.numerator * scale * scale) // x.denominator
    return Fraction(isqrt(n), scale)


def _sqrt_upper(x: Fraction) -> Fraction:
    if x <= 0:
        return Fraction(0)
    scale = 10**12
    n = -((-x.numerator * scale * scale) // x.denominator)  # ceil
    return Fraction(isqrt(n) + 1, scale)


def refine_real_root(p: IntPolynomial, lo: Fraction, hi: Fraction,
                     width: Fraction) -> RealRootInterval:
    """Shrink an isolating interval below `width` by exact-sign bisection."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return RealRootInterval(lo, hi)
    slo = p.sign_at(lo)
    if slo == 0:
        return RealRootInterval(lo, lo)
    if p.sign_at(hi) == 0:
        return RealRootInterval(hi, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = p.sign_at(mid)
        if sm == 0:
            return RealRootInterval(mid, mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return RealRootInterval(lo, hi)


def _root_separation_bound(p: IntPolynomial) -> Fraction:
    """A valid lower bound on the distance between distinct roots, from
    Mahler's inequality sep > sqrt(3) * d^-(d+2)/2 * M(p)^-(d-1) with the
    Mahler measure bounded by the coefficient 2-norm (Landau)."""
    d = p.degree
    if d < 2:
        return Fraction(1)
    norm_sq = sum(c * c for c in p.coeffs)
    denom = (d ** (d + 2)) * (norm_sq ** (d - 1))
    return Fraction(1, isqrt(denom) + 1)


def _count_in_box(dup, re_lo, re_hi, im_lo, im_hi) -> int:
    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_count_complex_roots
    return dup_count_complex_roots(
        dup, ZZ, inf=(_qq(re_lo), _qq(im_lo)), sup=(_qq(re_hi), _qq(im_hi)))


def refine_complex_box(p: IntPolynomial, box: ComplexRootBox,
                       diameter: Fraction) -> ComplexRootBox:
    """Shrink a one-root rectangle below `diameter` by counted quadrisection.

    Each split is verified by the exact root count; if a split line happens to
    pass through the root, a shifted split point is tried instead.  A box
    whose bottom edge lies on the real axis also counts the real roots on
    that edge, so when no split decides, the edge is lifted to half the root
    separation bound: the pair's root has 2 Im z = |z - conj(z)| >= sep.
    """
    dup = p.to_sympy_dup()
    cur = box
    splits = (Fraction(1, 2), Fraction(13, 29), Fraction(17, 31))
    while cur.diameter > diameter:
        horizontal = (cur.re_hi - cur.re_lo) >= (cur.im_hi - cur.im_lo)
        for frac in splits:
            if horizontal:
                mid = cur.re_lo + (cur.re_hi - cur.re_lo) * frac
                left = ComplexRootBox(cur.re_lo, mid, cur.im_lo, cur.im_hi)
                right = ComplexRootBox(mid, cur.re_hi, cur.im_lo, cur.im_hi)
            else:
                mid = cur.im_lo + (cur.im_hi - cur.im_lo) * frac
                left = ComplexRootBox(cur.re_lo, cur.re_hi, cur.im_lo, mid)
                right = ComplexRootBox(cur.re_lo, cur.re_hi, mid, cur.im_hi)
            try:
                n_left = _count_in_box(dup, left.re_lo, left.re_hi,
                                       left.im_lo, left.im_hi)
                n_right = _count_in_box(dup, right.re_lo, right.re_hi,
                                        right.im_lo, right.im_hi)
            except NotImplementedError:   # sympy: a root on a split line
                continue
            if n_left == 1 and n_right == 0:
                cur = left
                break
            if n_right == 1 and n_left == 0:
                cur = right
                break
        else:
            if cur.im_lo != 0:
                raise ArithmeticError(
                    "complex box refinement stalled; root may lie on every "
                    "candidate split line")
            cur = ComplexRootBox(cur.re_lo, cur.re_hi,
                                 _root_separation_bound(p) / 2, cur.im_hi)
    return cur


def real_root_intervals(p: IntPolynomial,
                        precision: int) -> List[RealRootInterval]:
    """The real roots of a square-free integer polynomial in ascending order,
    each in a disjoint interval of width <= 2^-precision.  Non-real roots are
    not boxed."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_isolate_real_roots_sqf
    width = Fraction(1, 2**precision)
    return [refine_real_root(p, _to_fraction(a), _to_fraction(b), width)
            for a, b in dup_isolate_real_roots_sqf(p.to_sympy_dup(), ZZ)]


def isolate_real_roots(p, precision: int = 64) -> RootIsolation:
    """Isolate all roots of a square-free integer polynomial.

    Real roots: disjoint rational intervals of width <= 2^-precision, one root
    each.  Non-real roots: one refined rectangle per conjugate pair, with
    exact modulus bounds available.  Raises ValueError on non-square-free
    input (the caller should isolate the square-free part instead) and on
    constant polynomials.
    """
    p = IntPolynomial.parse(p)
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    if not p.squarefree():
        raise ValueError(
            "polynomial has repeated roots; pass its square-free part")

    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_isolate_complex_roots_sqf

    dup = p.to_sympy_dup()
    width = Fraction(1, 2**precision)
    result = RootIsolation(poly=p, real_roots=real_root_intervals(p, precision))

    n_real = len(result.real_roots)
    if n_real < p.degree:
        boxes = dup_isolate_complex_roots_sqf(dup, ZZ)
        upper = []
        for (re_lo, im_lo), (re_hi, im_hi) in boxes:
            box = ComplexRootBox(_to_fraction(re_lo), _to_fraction(re_hi),
                                 _to_fraction(im_lo), _to_fraction(im_hi))
            if box.im_lo >= 0:
                upper.append(box)
        expected_pairs = (p.degree - n_real) // 2
        if len(upper) != expected_pairs:
            raise ArithmeticError(
                f"expected {expected_pairs} conjugate pairs, isolated "
                f"{len(upper)} upper-half boxes")
        for box in upper:
            result.complex_pairs.append(refine_complex_box(p, box, width))
    return result
