"""Certified isolation of polynomial roots.

Real roots come back as rational intervals with dyadic ends, one root in
each.  Descartes' rule of signs isolates them (G. E. Collins and A. G.
Akritas, SYMSAC 1976): inside a power-of-two bound on the roots, an interval
whose transformed polynomial shows no sign variation holds no root, one
that shows one variation holds exactly one, and any other is halved.  Every
transformation is an integer Taylor shift or scaling.  Refinement returns
what exact-sign bisection on integer numerators over a shared denominator
would; integer Newton steps guess its last cell, and exact signs confirm
it.  Non-real roots come back as one inclusion disk per conjugate pair,
certified by Newton's bound: since p'/p(c) = sum_i 1/(c - z_i), some root
lies within d |p(c)| / |p'(c)| of any point c.  The centers start from
numpy.roots, or from Aberth's points on circles where a float cannot
hold them, and are refined together by Aberth-Ehrlich steps on Gaussian
integers over 2^bits (D. A. Bini, Numerical computation of polynomial zeros
by means of Aberth's method, Numer. Algorithms 13, 1996), where p and p'
are evaluated exactly.  When the m disks in the upper half plane lie
strictly above the real axis and are pairwise disjoint, they and their
mirror images are 2m disjoint disks, each holding at least one non-real
root.  The exact real isolation leaves exactly 2m non-real roots, so each
disk holds exactly one.  A failed check doubles bits and goes on from the
same points; for a square-free polynomial, on which Aberth's iteration
converges to the simple roots, that ends.  Every comparison is made in
exact integers, and modulus bounds are exact rationals.
"""

from __future__ import annotations

from cmath import isfinite, nan
from dataclasses import dataclass
from fractions import Fraction
from math import cos, frexp, gcd, isqrt, pi, sin
from typing import List, Optional, Sequence, Tuple

from .intpoly import IntPolynomial, scaled_value

# conjugate_moduli and AlgebraicNumber.__float__ stop refining here and
# round the midpoint: a modulus exactly halfway between two floats keeps the
# ends of its enclosure on either side at every precision
_FLOAT_BITS_CAP = 1024

# Aberth sweeps at one precision before its disks are checked
_ABERTH_SWEEPS = 64

# refine_real_root guesses by Newton steps past this many halvings, which
# carry this many places below the grid
_NEWTON_LEVELS = 12
_GUARD_BITS = 32


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


def _newton_guess(cs: Sequence[int], dcs: Sequence[int], x0: int, step: int,
                  den: int, n: int, slo: bool) -> Tuple[int, int, int]:
    """Integer Newton steps for the root r of p in the grid coordinate t of
    (x0 + t step) / den, 0 < t < 2^n, carried with _GUARD_BITS places.
    Each step reads the exact sign of p at its point, so the bracket (u, v)
    around r shrinks as it goes, and a step that would leave it bisects
    instead.  Returns (ja, jb, m): r lies strictly between the grid points
    ja and jb, and m is the grid point nearest the last step."""
    g = _GUARD_BITS
    x0, den = x0 << g, den << g
    u, v = 0, 1 << (n + g)
    t = v >> 1
    for _ in range(n.bit_length() + 8):
        x = x0 + t * step
        s = scaled_value(cs, x, den)
        if s == 0:                      # r is this point
            u, v = t - 1, t + 1
            break
        if (s > 0) == slo:
            u = t
        else:
            v = t
        ds = scaled_value(dcs, x, den)
        if ds:
            nxt = s // (ds * step)
            if abs(nxt) << 16 <= 1 << g:    # below 2^-16 of a grid cell
                t -= nxt
                break
            nxt = t - nxt
        if not ds or not u < nxt < v:
            nxt = (u + v) >> 1
        t = nxt
    return u >> g, -(-v >> g), (t + (1 << (g - 1))) >> g


def refine_real_root(p: IntPolynomial, lo: Fraction, hi: Fraction,
                     width: Fraction) -> RealRootInterval:
    """Shrink an isolating interval below `width` to what bisection gives:
    after n halvings the cell of the grid lo + j (hi - lo) / 2^n that holds
    the root, or the root itself where it is a grid point.  Past
    _NEWTON_LEVELS halvings, integer Newton steps guess the cell first, and
    exact signs at its ends confirm it; bisection decides what they leave
    open.  The ends are integer numerators over one denominator, so no
    Fraction is built inside the loops."""
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
    # the fewest halvings n with (b - a) / (den 2^n) <= width
    q, r = (b - a) * width.denominator, den * width.numerator
    n = (-(-q // r) - 1).bit_length() if q > r else 0
    x0, step, den = a << n, b - a, den << n
    ja, jb, guess, tries = 0, 1 << n, 0, 0
    if n > _NEWTON_LEVELS:
        ja, jb, guess = _newton_guess(cs, p.derivative().coeffs, x0, step,
                                      den, n, slo)
        tries = 2
    # r lies strictly between the grid points ja and jb; the first `tries`
    # probes go to the guess and its neighbour on r's side, each kept
    # strictly between them, and the rest halve
    while jb - ja > 1:
        m = min(max(guess, ja + 1), jb - 1) if tries > 0 else (ja + jb) >> 1
        tries -= 1
        sm = scaled_value(cs, x0 + m * step, den)
        if sm == 0:
            x = Fraction(x0 + m * step, den)
            return RealRootInterval(x, x)
        if (sm > 0) == slo:
            ja, guess = m, m + 1
        else:
            jb, guess = m, m - 1
    return RealRootInterval(Fraction(x0 + ja * step, den),
                            Fraction(x0 + jb * step, den))


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


def _fixed(x: float, bits: int) -> int:
    """x 2^bits as an integer, floored where it is not one, for any bits
    (ldexp would overflow past about 1,000)."""
    m, e = frexp(x)
    n, s = int(m * (1 << 53)), e - 53 + bits
    return n << s if s >= 0 else n >> -s


def _circle_starts(p: IntPolynomial, bits: int) -> List[Tuple[int, int]]:
    """Aberth's starting points as Bini places them, as Gaussian integers
    over 2^bits: each edge (a, b) of the upper convex hull of the points
    (i, log2 |c_i|) puts b - a points on a circle of radius
    |c_a / c_b|^(1 / (b - a)), here a power of two, at the angles
    2 pi (j / (b - a) + a / d) + 0.7 (Bini, section 4).  A root at 0
    starts at 0."""
    pts = [(i, abs(c).bit_length()) for i, c in enumerate(p.coeffs) if c]
    hull: List[Tuple[int, int]] = []
    for x, y in pts:
        # drop the last vertex while it lies on or below the chord to (x, y)
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2:]
            if (x1 - x0) * (y - y0) < (y1 - y0) * (x - x0):
                break
            hull.pop()
        hull.append((x, y))
    starts = [(0, 0)] * pts[0][0]
    for (a, la), (b, lb) in zip(hull, hull[1:]):
        e = bits + round((la - lb) / (b - a))
        starts += [(_fixed(cos(t), e), _fixed(sin(t), e)) for t in
                   (2 * pi * (j / (b - a) + a / p.degree) + 0.7
                    for j in range(b - a))]
    return starts


def _starts(p: IntPolynomial, bits: int) -> List[Tuple[int, int]]:
    """Starting points for all degree-many roots as Gaussian integers over
    2^bits: numpy.roots where it gives a finite number, else the circle
    start."""
    # imported on first use: importing numpy from here, ahead of the
    # package's other modules, moved the peak memory of runs that never
    # isolate a root by about 4%
    import numpy as np
    try:
        with np.errstate(all="ignore"):
            seeds = np.roots([float(c) for c in reversed(p.coeffs)]).tolist()
    except (OverflowError, np.linalg.LinAlgError):     # beyond float range
        seeds = [nan] * p.degree
    circle = None if all(map(isfinite, seeds)) else _circle_starts(p, bits)
    return [(_fixed(z.real, bits), _fixed(z.imag, bits)) if isfinite(z)
            else circle[i] for i, z in enumerate(seeds)]


def _aberth_sweep(cs: Sequence[int], dcs: Sequence[int],
                  zs: List[Tuple[int, int]], scale: int) -> int:
    """One Gauss-Seidel sweep of the Aberth-Ehrlich correction
    z_k -= p / (p' - p sum_(j != k) 1 / (z_k - z_j)) over the Gaussian
    integers zs / scale, in place, each quotient floored; the largest
    component of a step, in units of 1 / scale."""
    largest = 0
    for k, (re, im) in enumerate(zs):
        # v = scale^d p(z_k) and w = scale^(d-1) p'(z_k); each
        # v / (scale (z_k - z_j)) also has scale^(d-1)
        vr, vi = _gauss_horner(cs, re, im, scale)
        wr, wi = _gauss_horner(dcs, re, im, scale)
        for j, (r, i) in enumerate(zs):
            dr, di = re - r, im - i
            n = dr * dr + di * di
            if j != k and n:
                wr -= (vr * dr + vi * di) // n
                wi -= (vi * dr - vr * di) // n
        n = wr * wr + wi * wi
        if n:
            sr, si = (vr * wr + vi * wi) // n, (vi * wr - vr * wi) // n
            zs[k] = (re - sr, im - si)
            largest = max(largest, abs(sr), abs(si))
    return largest


def complex_root_disks(p: IntPolynomial, pairs: int,
                       bits: int) -> List[ComplexRootDisk]:
    """One certified disk for each of the `pairs` conjugate pairs of
    non-real roots of the square-free p, centered on a Gaussian integer
    over 2^b for some b >= bits; `pairs` must be (degree - number of real
    roots) / 2."""
    if pairs == 0:
        return []
    cs, dp = p.coeffs, p.derivative()
    # every root lies in |z| >= 2^-k: resolve the smallest with 32 bits
    if cs[0]:
        k = (-(-max(abs(c) for c in cs[1:]) // abs(cs[0])) + 1).bit_length()
        bits = max(bits, k + 32)
    zs = _starts(p, bits)
    while True:
        scale = 1 << bits
        for _ in range(_ABERTH_SWEEPS):
            if _aberth_sweep(cs, dp.coeffs, zs, scale) <= 2:
                break
        upper = sorted(zs, key=lambda z: z[1], reverse=True)[:pairs]
        disks = [_newton_disk(p, dp, re, im, scale) for re, im in upper]
        if _certified(disks):
            return disks
        zs = [(re << bits, im << bits) for re, im in zs]
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
