"""Certified isolation of polynomial roots.

Real roots come back as rational intervals with dyadic ends, one root in
each.  Descartes' rule of signs isolates them (G. E. Collins and A. G.
Akritas, SYMSAC 1976): inside a power-of-two bound on the roots, an interval
whose transformed polynomial shows no sign variation holds no root, one
that shows one variation holds exactly one, and any other is halved.  Every
transformation is an integer Taylor shift or scaling.  Exact-sign bisection
on integer numerators over a shared denominator refines them.  Non-real
roots come back as one inclusion disk per conjugate pair, certified by
Newton's bound: since p'/p(c) = sum_i 1/(c - z_i), some root lies within
d |p(c)| / |p'(c)| of any point c.  The centers are mpmath.polyroots
approximations rounded to dyadic Gaussian rationals, where p and p' are
evaluated exactly.  When the m disks in the upper half plane lie strictly
above the real axis and are pairwise disjoint, they and their mirror images
are 2m disjoint disks, each holding at least one non-real root.  The exact
real isolation leaves exactly 2m non-real roots, so each disk holds exactly
one.  A failed check, or polyroots not converging, doubles the working
precision; for a square-free polynomial that ends.  Every comparison is
made in exact integers, and modulus bounds are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple

from .intpoly import IntPolynomial, scaled_value

# conjugate_moduli and AlgebraicNumber.__float__ stop refining here and
# round the midpoint: a modulus exactly halfway between two floats keeps the
# ends of its enclosure on either side at every precision
_FLOAT_BITS_CAP = 1024


@dataclass
class RealRootInterval:
    """Rational interval [lo, hi] containing exactly one real root.

    lo == hi means the root is rational and known exactly.
    """

    lo: Fraction
    hi: Fraction

    def modulus_bounds(self) -> Tuple[Fraction, Fraction]:
        if self.lo >= 0:
            return (self.lo, self.hi)
        if self.hi <= 0:
            return (-self.hi, -self.lo)
        return (Fraction(0), max(-self.lo, self.hi))


@dataclass(frozen=True)
class ComplexRootDisk:
    """The closed disk |z - (re + i im) / scale| <= radius / scale holding
    exactly one root: the member of a conjugate pair with positive imaginary
    part.  All four fields are integers, and radius >= 1."""

    re: int
    im: int
    radius: int
    scale: int

    def modulus_bounds(self) -> Tuple[Fraction, Fraction]:
        """Exact rational bounds on the root's modulus."""
        # q <= scale * |center| < q + 1
        q = isqrt(self.re * self.re + self.im * self.im)
        return (Fraction(max(q - self.radius, 0), self.scale),
                Fraction(q + 1 + self.radius, self.scale))


@dataclass
class RootIsolation:
    """Every root of a square-free polynomial: real intervals of width at
    most 2^-precision, and one disk per conjugate pair."""

    poly: IntPolynomial
    precision: int
    real_roots: List[RealRootInterval]
    complex_pairs: List[ComplexRootDisk]

    def all_modulus_bounds(self) -> List[Tuple[Fraction, Fraction]]:
        """Modulus bounds for every root, conjugate pairs listed once."""
        return [r.modulus_bounds()
                for r in self.real_roots + self.complex_pairs]

    def refined(self) -> "RootIsolation":
        """The same roots, isolated at twice the precision."""
        bits = 2 * self.precision
        width = Fraction(1, 1 << bits)
        return RootIsolation(
            self.poly, bits,
            [refine_real_root(self.poly, r.lo, r.hi, width)
             for r in self.real_roots],
            complex_root_disks(self.poly, len(self.complex_pairs), bits))

    def conjugate_moduli(self) -> List[float]:
        """The modulus of every root, conjugate pairs once, largest first,
        each as the float nearest to it: refinement goes on until both ends
        of every enclosure round to the same float, or up to
        _FLOAT_BITS_CAP bits."""
        iso = self
        while True:
            bounds = iso.all_modulus_bounds()
            if iso.precision >= _FLOAT_BITS_CAP or \
                    all(float(lo) == float(hi) for lo, hi in bounds):
                return sorted((float((lo + hi) / 2) for lo, hi in bounds),
                              reverse=True)
            iso = iso.refined()


def refine_real_root(p: IntPolynomial, lo: Fraction, hi: Fraction,
                     width: Fraction) -> RealRootInterval:
    """Shrink an isolating interval below `width` by exact-sign bisection.
    The ends are integer numerators a < b over one denominator, which
    doubles at each step, so no Fraction is built inside the loop."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return RealRootInterval(lo, hi)
    cs = p.coeffs
    den = lo.denominator * hi.denominator // gcd(lo.denominator,
                                                 hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    slo = scaled_value(cs, a, den)
    if slo == 0:
        return RealRootInterval(lo, lo)
    if scaled_value(cs, b, den) == 0:
        return RealRootInterval(hi, hi)
    slo = slo > 0
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * den:
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        sm = scaled_value(cs, mid, den)
        if sm == 0:
            x = Fraction(mid, den)
            return RealRootInterval(x, x)
        if (sm > 0) == slo:
            a = mid
        else:
            b = mid
    return RealRootInterval(Fraction(a, den), Fraction(b, den))


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


def _gauss_horner(coeffs: Sequence[int], re: int, im: int,
                  scale: int) -> Tuple[int, int]:
    """scale^deg * p((re + i im) / scale) as (real, imaginary) integers."""
    vr, vi, power = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        power *= scale
        vr, vi = vr * re - vi * im + c * power, vr * im + vi * re
    return vr, vi


def _newton_disk(p: IntPolynomial, dp: IntPolynomial, re: int, im: int,
                 scale: int) -> Optional[ComplexRootDisk]:
    """The disk of radius d |p(c)| / |p'(c)|, rounded up to a whole 1/scale,
    around c = (re + i im) / scale; None where p'(c) = 0."""
    vr, vi = _gauss_horner(p.coeffs, re, im, scale)
    wr, wi = _gauss_horner(dp.coeffs, re, im, scale)
    w2 = wr * wr + wi * wi
    if w2 == 0:
        return None
    # (scale * radius)^2 = d^2 |v|^2 / |w|^2; take the integer ceiling of
    # its square root, at least 1
    t = -(-p.degree ** 2 * (vr * vr + vi * vi) // w2)
    return ComplexRootDisk(re, im, isqrt(max(t, 1) - 1) + 1, scale)


def _certified(disks: List[Optional[ComplexRootDisk]]) -> bool:
    """Every disk strictly above the real axis, and pairwise disjoint."""
    if any(d is None or d.im <= d.radius for d in disks):
        return False
    return all((a.re - b.re) ** 2 + (a.im - b.im) ** 2 >
               (a.radius + b.radius) ** 2
               for i, a in enumerate(disks) for b in disks[i + 1:])


def complex_root_disks(p: IntPolynomial, pairs: int,
                       bits: int) -> List[ComplexRootDisk]:
    """One certified disk for each of the `pairs` conjugate pairs of
    non-real roots of the square-free p, centered on a multiple of 2^-bits;
    `pairs` must be (degree - number of real roots) / 2."""
    if pairs == 0:
        return []
    import mpmath
    dp = p.derivative()
    coeffs = list(reversed(p.coeffs))
    while True:
        scale = 1 << bits
        try:
            with mpmath.workprec(bits):
                approx = [mpmath.mpc(z) for z in
                          mpmath.polyroots(coeffs, maxsteps=bits)]
                centers = [(int(mpmath.nint(z.real * scale)),
                            int(mpmath.nint(z.imag * scale))) for z in approx]
        except mpmath.libmp.NoConvergence:
            bits *= 2
            continue
        centers.sort(key=lambda c: c[1], reverse=True)
        disks = [_newton_disk(p, dp, re, im, scale)
                 for re, im in centers[:pairs]]
        if _certified(disks):
            return disks
        bits *= 2


def _taylor_shift1(cs: List[int]) -> List[int]:
    """The coefficients of p(x + 1), lowest degree first."""
    cs = list(cs)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += cs[j + 1]
    return cs


def _sign_variations(cs: Sequence[int]) -> int:
    signs = [c > 0 for c in cs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _unit_roots(q: List[int]) -> List[Tuple[int, int, bool]]:
    """The roots of q in the open (0, 1) as (c, j, exact): the root is
    c / 2^j when exact, else the only root in the open (c / 2^j,
    (c + 1) / 2^j), and then neither end is a root of q.

    The node (c, j) carries q_cj(t) = 2^(j d) q((t + c) / 2^j), whose
    roots in (0, 1) are those of q in its interval; Descartes' rule on
    (t + 1)^d q_cj(1 / (t + 1)) bounds their number, exactly when it
    reads 0 or 1.  Halving takes 2^d q_cj(t / 2) to the left half and its
    Taylor shift by 1 to the right half."""
    out = []
    stack = [(q, 0, 0)]
    while stack:
        q, c, j = stack.pop()
        v = _sign_variations(_taylor_shift1(q[::-1]))
        if v == 0:
            continue
        if v == 1 and q[0] != 0 and sum(q) != 0:     # neither end a root
            out.append((c, j, False))
            continue
        d = len(q) - 1
        left = [x << (d - i) for i, x in enumerate(q)]
        right = _taylor_shift1(left)
        if right[0] == 0:                       # a root on the midpoint
            out.append((2 * c + 1, j + 1, True))
        stack.append((right, 2 * c + 1, j + 1))
        stack.append((left, 2 * c, j + 1))
    return out


def real_root_intervals(p: IntPolynomial,
                        precision: int) -> List[RealRootInterval]:
    """The real roots of a square-free integer polynomial in ascending order,
    each alone in a closed interval of width <= 2^-precision (neighbours
    meet at most in an end that is no root); a dyadic root comes back
    exactly, as lo == hi.  Non-real roots are not isolated."""
    cs = list(p.coeffs)
    # every root has modulus below 1 + max |c_i| / |c_d| <= 2^k
    k = (-(-max(abs(c) for c in cs[:-1]) // abs(cs[-1])) + 1).bit_length()
    found = [RealRootInterval(Fraction(0), Fraction(0))] if cs[0] == 0 \
        else []
    # p(2^k t) and p(-2^k t) carry the positive and negative roots to (0, 1)
    for sign in (1, -1):
        q = [x * sign ** i << (k * i) for i, x in enumerate(cs)]
        for c, j, exact in _unit_roots(q):
            lo, hi = Fraction(sign * c << k, 1 << j), \
                Fraction(sign * (c + (not exact)) << k, 1 << j)
            found.append(RealRootInterval(min(lo, hi), max(lo, hi)))
    found.sort(key=lambda r: (r.lo, r.hi))
    width = Fraction(1, 1 << precision)
    return [refine_real_root(p, r.lo, r.hi, width) for r in found]


def isolate_real_roots(p, precision: int = 64) -> RootIsolation:
    """Isolate all roots of a square-free integer polynomial.

    Real roots: disjoint rational intervals of width <= 2^-precision, one root
    each.  Non-real roots: one certified disk per conjugate pair, centered
    on a multiple of 2^-precision or finer.  Raises ValueError on
    non-square-free input (the caller should isolate the square-free part
    instead) and on constant polynomials.
    """
    p = IntPolynomial.parse(p)
    if p.degree < 1:
        raise ValueError("cannot isolate roots of a constant polynomial")
    if not p.squarefree():
        raise ValueError(
            "polynomial has repeated roots; pass its square-free part")
    real = real_root_intervals(p, precision)
    pairs = (p.degree - len(real)) // 2
    return RootIsolation(p, precision, real,
                         complex_root_disks(p, pairs, precision))
