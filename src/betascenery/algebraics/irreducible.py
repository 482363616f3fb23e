"""Certified irreducibility over Q.

A primitive square-free p of degree d >= 2 with p(0) != 0 is reducible iff
it has a factor of some degree k <= d/2.  Two sieves narrow the degrees and
the candidate factors, and an exact division confirms any survivor:

* Modulo a prime q that divides neither the leading coefficient nor the
  discriminant (p mod q stays square-free), a factor over Z maps to a
  product of irreducible factors mod q, so its degree is a sum of degrees
  found by distinct-degree factorisation.  A degree that is no such sum
  modulo some prime is ruled out.
* A factor of degree k vanishes on k of the roots of p, a set closed under
  conjugation, and lc(p) times the product of (x - root) over them has
  integer coefficients, since the factor's leading coefficient divides
  lc(p).  Those coefficients are enclosed in integer interval arithmetic
  over the certified root enclosures of roots.py: real intervals and
  Newton disks.  A set whose enclosures miss the integers is no factor; a
  set whose enclosures each hold one integer names the only candidate,
  which an exact division accepts or rejects.  Refining the roots decides
  every set.

For d <= 3 only k = 1 survives, and the second sieve is a rational-root
test.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import List, Optional, Sequence, Set, Tuple

from .intpoly import IntPolynomial, _trim, interval_mul
from .roots import ComplexRootDisk, RealRootInterval, isolate_real_roots

# distinct-degree factorisation stops after this many usable primes
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
_USABLE_PRIMES = 8
# the most root sets of one degree that the enclosure sieve will try: every
# degree up to 16 fits
_MAX_SETS = 100_000

IntInterval = Tuple[int, int]


# -- polynomials over Z/q, lowest degree first ---------------------------------


def _rem(a: Sequence[int], f: Sequence[int], q: int) -> List[int]:
    """a mod the monic f."""
    a, n = list(a), len(f) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            for i in range(n + 1):
                a[k - n + i] = (a[k - n + i] - c * f[i]) % q
    return _trim(a[:n] or [0])


def _quo(a: Sequence[int], g: Sequence[int], q: int) -> List[int]:
    """a / the monic g, for g dividing a."""
    a, n = list(a), len(g) - 1
    out = [0] * (len(a) - n)
    for k in range(len(a) - 1, n - 1, -1):
        c = out[k - n] = a[k]
        if c:
            for i in range(n + 1):
                a[k - n + i] = (a[k - n + i] - c * g[i]) % q
    return out


def _monic(a: List[int], q: int) -> List[int]:
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _gcd_mod(a: List[int], b: List[int], q: int) -> List[int]:
    while b != [0]:
        b = _monic(b, q)
        a, b = b, _rem(a, b, q)
    return a


def _mulmod(a: List[int], b: List[int], f: List[int], q: int) -> List[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _rem([c % q for c in prod], f, q)


def _powmod(h: List[int], e: int, f: List[int], q: int) -> List[int]:
    out = [1]
    while e:
        if e & 1:
            out = _mulmod(out, h, f, q)
        h = _mulmod(h, h, f, q)
        e >>= 1
    return out


def _degrees_mod(p: IntPolynomial, q: int) -> Optional[List[int]]:
    """The degrees of the irreducible factors of p mod q, by distinct-degree
    factorisation; None when q divides lc(p) or p mod q has a repeated
    factor (q divides the discriminant)."""
    if p.leading % q == 0:
        return None
    f = _monic([c % q for c in p.coeffs], q)
    df = _trim([k * c % q for k, c in enumerate(f)][1:])
    if df == [0] or len(_gcd_mod(f, df, q)) > 1:
        return None
    degrees: List[int] = []
    h, i = [0, 1], 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        h = _powmod(h, q, f, q)                 # x^(q^i) mod f
        xq_minus_x = _trim([(c - (k == 1)) % q for k, c in
                            enumerate(h + [0] * (2 - len(h)))])
        g = _gcd_mod(f, xq_minus_x, q)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = _quo(f, g, q)
            h = _rem(h, f, q)
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _possible_factor_degrees(p: IntPolynomial) -> Set[int]:
    """The degrees k <= d/2 that no prime rules out."""
    possible = set(range(1, p.degree // 2 + 1))
    usable = 0
    for q in _PRIMES:
        if not possible or usable == _USABLE_PRIMES:
            break
        degrees = _degrees_mod(p, q)
        if degrees is None:
            continue
        usable += 1
        sums = {0}
        for e in degrees:
            sums |= {s + e for s in sums}
        possible &= sums
    return possible


# -- factor candidates from root enclosures --------------------------------------


def _real_unit(r: RealRootInterval, scale: int) -> List[IntInterval]:
    """Enclosures of e_0 = 1 and e_1 = r, the latter scaled by `scale`."""
    lo = r.lo.numerator * scale // r.lo.denominator
    hi = -(-r.hi.numerator * scale // r.hi.denominator)
    return [(1, 1), (lo, hi)]


def _pair_unit(disk: ComplexRootDisk, scale: int) -> List[IntInterval]:
    """Enclosures of e_0 = 1, e_1 = z + conj(z) and e_2 = |z|^2 for the root
    z in `disk`, with e_j scaled by scale^j (a multiple of disk.scale)."""
    m = scale // disk.scale
    re = ((disk.re - disk.radius) * m, (disk.re + disk.radius) * m)
    im = ((disk.im - disk.radius) * m, (disk.im + disk.radius) * m)

    def least_abs(iv: IntInterval) -> int:
        return 0 if iv[0] <= 0 <= iv[1] else min(abs(iv[0]), abs(iv[1]))

    def most_abs(iv: IntInterval) -> int:
        return max(abs(iv[0]), abs(iv[1]))
    return [(1, 1), (2 * re[0], 2 * re[1]),
            (least_abs(re) ** 2 + least_abs(im) ** 2,
             most_abs(re) ** 2 + most_abs(im) ** 2)]


def _times(a: List[IntInterval], b: List[IntInterval]) -> List[IntInterval]:
    """Enclosures of the elementary symmetric functions of a union of root
    sets: e_j = sum_i e_i(A) e_(j-i)(B)."""
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            lo, hi = interval_mul(x, y)
            out[i + j] = (out[i + j][0] + lo, out[i + j][1] + hi)
    return out


def _candidate(es: List[IntInterval], lc: int, scale: int):
    """For enclosures of e_j scaled by scale^j: False when some lc * e_j
    holds no integer, None while some holds several, else the integer
    polynomial lc * prod (x - root)."""
    ints, decided = [], True
    for j, (lo, hi) in enumerate(es):
        s = scale ** j
        n_lo, n_hi = -(-lc * lo // s), lc * hi // s
        if n_lo > n_hi:
            return False
        decided = decided and n_lo == n_hi
        ints.append(n_lo)
    if not decided:
        return None
    return IntPolynomial(tuple((-1) ** j * n for j, n in enumerate(ints))[::-1])


def _has_factor(p: IntPolynomial, degrees: Set[int]) -> bool:
    """True iff the primitive square-free p has a factor whose degree is in
    `degrees`, decided by the second sieve of the module docstring, smallest
    degree first.  Raises ValueError rather than try more than _MAX_SETS
    root sets of one degree."""
    iso = isolate_real_roots(p, 64)
    sizes = [1] * len(iso.real_roots) + [2] * len(iso.complex_pairs)
    for k in sorted(degrees):
        counts = range((k + 1) // 2, k + 1)      # units in a set of degree k
        if sum(comb(len(sizes), n) for n in counts) > _MAX_SETS:
            raise ValueError(f"cannot certify that {p} is irreducible: too "
                             f"many candidate factors of degree {k}")
        sets = [s for n in counts for s in combinations(range(len(sizes)), n)
                if sum(sizes[u] for u in s) == k]
        while sets:
            scale = max([1 << iso.precision] +
                        [disk.scale for disk in iso.complex_pairs])
            units = [_real_unit(r, scale) for r in iso.real_roots] + \
                [_pair_unit(disk, scale) for disk in iso.complex_pairs]
            undecided = []
            for s in sets:
                es = [(1, 1)]
                for u in s:
                    es = _times(es, units[u])
                g = _candidate(es, p.leading, scale)
                if g is None:
                    undecided.append(s)
                elif g is not False and g.divides(p):
                    return True
            sets = undecided
            if sets:
                iso = iso.refined()
    return False


def is_irreducible(p: IntPolynomial) -> bool:
    """Irreducibility over Q, content and unit factors ignored."""
    p = p.primitive()
    if p.degree < 1:
        return False
    if p.degree == 1:
        return True
    if p.coeffs[0] == 0 or not p.squarefree():
        return False
    degrees = _possible_factor_degrees(p)
    return not degrees or not _has_factor(p, degrees)
