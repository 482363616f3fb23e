"""Greedy beta-expansions with certified arithmetic, the Parry density, and
digit-statistics for normality experiments.

The transformation is T(x) = beta*x - d with d = floor(beta*x), digits in
{0, ..., floor(beta)}.  When beta*x is exactly an integer m >= 1 the digit is
m and the remainder 0 (the expansion then continues with zeros); this is the
greedy, lexicographically largest convention.

Two kinds of starting point, one kernel:
  * exact x (a rational, or an element of the base's field): the integer
    lattice.  With c = 1 for an algebraic-integer beta (an integer, or a
    root of a monic polynomial), c = b for beta = a/b, and c the leading
    coefficient of a non-monic minimal polynomial, gamma = c*beta is an
    algebraic integer of degree d.  x is an integer vector v in the basis
    1, gamma, ..., gamma^(d-1) over a denominator q; multiplying by beta is
    the companion matrix of gamma with the denominator multiplied by c, so
    the k-th remainder sits over q*c^k.  This is the representation of a
    FieldElement, so a remainder becomes one without conversion.  The
    orbit runs in blocks of BLOCK digits.  One fixed-point read of the
    block's first point (NumberField._fixed, or one shifted division for
    a rational base) encloses it in [lo, hi] / 2^P, with P wide enough for
    the block's growth beta^BLOCK and MARGIN bits to spare.  Only the
    lower end is stepped, on plain integers with a lower bound of beta,
    and an integer W_j, bounded once per SEG steps from W_0 = hi - lo,
    gives lo_j <= X_j <= lo_j + W_j at step j for every point X of the
    enclosure, times 2^P (derived at `_Lattice._block`).  A digit and a
    float are taken only where lo_j and lo_j + W_j agree on them.  The
    exact vector then advances once per block, v <- gamma^k v - q S, with
    S the block's digits in Z[gamma] summed against cached columns of
    gamma's powers.  At a step the enclosure cannot decide, the block
    ends and one exact step reads the floor and float at once through
    NumberField._decide, whose precision doubles for the rest of the orbit
    when the two ends of its own enclosure disagree.  No floor or float
    comes from an uncertified value.  The record keeps the digits, the
    floats and the exact point after the last digit.  For a Pisot base
    the state's coordinates over q stay bounded (K. Schmidt 1980), so P
    stays put from block to block, and a digit costs a few operations on
    P-bit integers plus a 1/BLOCK share of one exact advance;
  * interval-valued x (BigReal), [lo, hi] / 2^P: its two exact ends run
    through the same kernel over one denominator, a block stepping their
    hull.  Greedy digits preserve order (W. Parry 1960), so the digits the
    ends share are those of every point between them; where their floors
    part, the orbit raises OrbitUndecidable, never silently rounded.  A
    point's float is the one both ends round to, else their midpoint's.

The Parry density sums beta^-n over the orbit of 1, which takes the same
lattice steps.  Its sums are integer sums on the lattice: the n orbit values
over c^(n-1), and the powers beta^-k over |a_0|^(n-1), for gamma's constant
coefficient a_0.  Each breakpoint and value is reduced once, when built.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Tuple, Union

import numpy as np

from .algebraics import (
    AlgebraicNumber,
    BigReal,
    ExactScalar,
    FieldElement,
    IntPolynomial,
    is_pisot,
    monic_scaled_field,
)
from .algebraics.algnum import FIXED_BITS
from .algebraics.intpoly import _parse_poly_string


class OrbitUndecidable(ValueError):
    """The two ends of an interval start take different digits at `step`,
    so no digit there holds for every point between them; `precision` is
    the start's binary places."""

    def __init__(self, step: int, precision: int):
        self.step = step
        self.precision = precision
        super().__init__(
            f"orbit undecidable at step {step}: the two ends of the "
            f"{precision}-place enclosure take different digits there; "
            "supply an exact or narrower starting point")


class BetaBase:
    """A base beta > 1 for greedy expansions.

    beta may be an integer >= 2, a Fraction > 1, or an AlgebraicNumber > 1.
    The pisot flag is computed once; exact orbit arithmetic lives in the
    field generated by a scaled (monic) copy of beta, and the integer
    lattice of that copy carries every exact orbit.
    """

    def __init__(self, beta):
        if isinstance(beta, (int, Fraction)):
            beta = Fraction(beta)
            if beta <= 1:
                raise ValueError("base must exceed 1")
            self.beta: Union[Fraction, AlgebraicNumber] = beta
            self.degree = 1
            self.floor_beta = math.floor(beta)
            self._field = None
            self._lattice = _Lattice((-beta.numerator, 1), None,
                                     beta.denominator)
        elif isinstance(beta, AlgebraicNumber):
            if beta.cmp_rational(1) <= 0:
                raise ValueError("base must exceed 1")
            r = beta.to_rational()
            if r is not None:
                self.__init__(r)
                return
            self.beta = beta
            self.degree = beta.degree
            self.floor_beta = math.floor(beta)
            self._field, scale = monic_scaled_field(beta)
            self._lattice = _Lattice(self._field.poly.coeffs, self._field,
                                     scale)
        else:
            raise TypeError("base must be an integer, Fraction, or "
                            "AlgebraicNumber")

    @functools.cached_property
    def pisot(self) -> bool:
        return is_pisot(self.beta)

    @property
    def is_integer(self) -> bool:
        return isinstance(self.beta, Fraction) and self.beta.denominator == 1

    @property
    def alphabet_size(self) -> int:
        """Number of possible digits: beta for integer bases (digit beta
        cannot occur since x < 1), floor(beta)+1 otherwise."""
        if self.is_integer:
            return int(self.beta)
        return self.floor_beta + 1

    def coerce_point(self, x):
        """Lift x into the exact arithmetic of this base, if possible."""
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, FieldElement):
            if self._field is None:
                r = x.to_rational()
                if r is None:
                    raise ValueError(
                        "algebraic point with a rational base: the point "
                        "must be rational")
                return r
            return FieldElement(self._field, x.num, x.den) \
                if self._field.same_field(x.field) else _reject_field()
        if isinstance(x, BigReal):
            return x
        if isinstance(x, float):
            return Fraction(x)
        raise TypeError(f"unsupported point type {type(x).__name__}")

    def __repr__(self):
        return f"BetaBase({float(self.beta):.10g}, pisot={self.pisot})"


def _reject_field():
    raise ValueError("point lies in a different algebraic field than the "
                     "base; express it in the base's field")


# Digits per block of the exact orbit kernel, the bits of slack that its
# enclosure keeps at the last step, and the steps per bound of its width.
BLOCK = 256
MARGIN = 64
SEG = 32


class _Lattice:
    """Exact orbit arithmetic for beta = gamma/c, gamma an algebraic integer
    and c >= 1 an integer.

    A point is an integer vector v in the power basis 1, gamma, ...,
    gamma^(d-1) over a denominator Q > 0, as a FieldElement stores it.
    Multiplying by beta is the integer companion matrix of gamma's monic
    minimal polynomial with Q multiplied by c, and subtracting a digit
    changes v[0] only, so the k-th point of an orbit from v/q sits over
    q*c^k.  `orbit` runs in blocks of BLOCK digits: the lower end lo_j of
    an integer enclosure of the block's first point, stepped with a lower
    bound of beta, and a proven bound W_j on its width, lo_j <= X_j <=
    lo_j + W_j, give the digits and floats of every point of it, and the
    exact vector advances once per block (see `orbit` and `_block`).
    """

    def __init__(self, coeffs: Sequence[int], field, scale: int):
        self.coeffs = tuple(coeffs)   # gamma's monic polynomial, lowest first
        self.field = field            # None for a rational base
        self.scale = scale            # c
        self.degree = len(self.coeffs) - 1

    @functools.cached_property
    def _log2_beta(self) -> float:
        """An upper bound of log2(beta), from the bounds the evaluator
        reads first."""
        _, hi, s = self._beta_bounds(FIXED_BITS)
        return math.log2(hi) - s

    def _beta_bounds(self, bits: int) -> Tuple[int, int, int]:
        """(lo, hi, s) with beta 2^s in [lo, hi]: exact for an integer
        base (s = 0), else s = bits."""
        if self.field is None:
            a = -self.coeffs[0]
            if self.scale == 1:
                return a, a, 0
            lo = hi = a << bits
        else:
            b, e = self.field._table(bits)
            lo, hi = b[0], b[0] + e[0]
        return lo // self.scale, -(-hi // self.scale), bits

    def orbit(self, ends, q: int, steps: int, room=math.inf
              ) -> Tuple[List[int], List[float], tuple, int]:
        """`steps` greedy digits from `ends`, the integer vectors over q of
        one point or of an interval's two ends, with the float of each
        remainder: (digits, floats, ends, q), the ends after the last digit
        over q*c^steps.  Two ends share q, as they share their digits; the
        digits stop short where their floors part.

        Each block of up to BLOCK digits, and none past the first `room`,
        reads one enclosure of the ends' hull (`_block`) and steps its
        lower end lo_j, with a proven bound W_j on its width: lo_j <= X_j <=
        lo_j + W_j for every point X of the hull, times 2^P.  Each end then
        advances over the k digits the block certified, v <- gamma^k v - q S
        with S = sum d_j c^(j+1) gamma^(k-1-j), and q grows by c^k.  A block
        cut short is followed by one exact step at each end: its floor and
        float come from one integer division for a rational value, else
        from the field's evaluator (`NumberField._decide`), whose precision
        starts at FIXED_BITS and doubles, for the rest of the orbit, at each
        step it cannot certify."""
        digits, floats, bits = [], [], FIXED_BITS
        while len(digits) < steps:
            n = len(digits)
            block = min(BLOCK, steps - n, room - n)
            k = self._block(ends, q, block, digits, floats) if block > 0 else 0
            if k:
                ends, q = self._advance(ends, q, digits[n:])
            if k < block or block <= 0:
                q *= self.scale
                ws = [_times_gamma(v, self.coeffs) for v in ends]
                (d, f), bits = self._read(ws[0], q, bits)
                if len(ws) > 1:
                    (dh, fh), bits = self._read(ws[1], q, bits)
                    if dh != d:
                        break
                    if fh != f:    # the float of the exact midpoint
                        (_, f), bits = self._read(
                            tuple(map(operator.add, *ws)), 2 * q, bits)
                ends = tuple((w[0] - d * q,) + w[1:] for w in ws)
                digits.append(d)
                floats.append(f)
        return digits, floats, ends, q

    def _read(self, w, q: int, bits: int) -> Tuple[Tuple[int, float], int]:
        """((floor(w/q), the float of the rest), the evaluator's precision
        after the read)."""
        if self.field is None:
            return _floor_and_rest(w[0], q), bits
        return self.field._decide(w, q, _floor_and_rest, bits)

    def _enclose(self, v, q: int, bits: int) -> Tuple[int, int]:
        """[lo, hi] / 2^bits around v/q, clamped at 0 from below: one
        fixed-point read, or one shifted division for a rational base."""
        a, r = (v[0] << bits, 0) if self.field is None else \
            self.field._fixed(v, bits)
        return max((a - r) // q, 0), -((-a - r) // q)

    def _block(self, ends, q: int, steps: int, digits: List[int],
               floats: List[float]) -> int:
        """Append up to `steps` digits and remainder floats of the orbit
        from `ends` over q, read from an enclosure [lo, hi] / 2^P of their
        hull, and return how many.  P covers the block's growth beta^steps,
        the state's size and MARGIN bits, and doubles until the enclosure's
        width times beta^steps is below 2^-MARGIN (`orbit` keeps the ends'
        spread below that).

        Only the lower end is stepped: every point X of the hull, times
        2^P, has lo_j <= X_j <= lo_j + W_j at step j, W_0 = hi - lo.  With
        beta 2^sh in [blo, bhi] (sh = P; sh = 0 and blo = bhi for an integer
        base), r = bhi / 2^sh and y = floor(lo_j blo / 2^sh), y <= beta X_j
        <= (lo_j + W_j) bhi / 2^sh < y + 1 + lo_j (bhi - blo) / 2^sh + r W_j
        <= y + r W_j + E, with E = bhi - blo + 1 as lo_j <= 2^P (E = 0 if
        sh = 0: the step is exact).  So W_(s+i) <= r^i W_s + E (1 + r + ...
        + r^(i-1)), which grows with i, and once per SEG steps W is bounded
        in integers, rounded up, by ceil(W_s p_SEG / 2^64) + ceil(E (p_0 +
        ... + p_(SEG-1)) / 2^64), with p_0 = 2^64 and p_(i+1) = ceil(p_i bhi
        / 2^sh) >= r^(i+1) 2^64.  A digit d = floor(y / 2^P) is taken only
        when lo_(j+1) = y - d 2^P has lo_(j+1) + W < 2^P, so that all of
        [y, y + W] has floor d, and a float f = float(lo_(j+1) >> cut) only
        when float(ceil((lo_(j+1) + W) / 2^cut)) == f, as rounding is
        monotone.  An exact 0, lo = W = 0, keeps W = 0."""
        growth = math.ceil(steps * self._log2_beta)
        # each end's rounding adds at most about 4 sum|v_i| / q + 2 to
        # hi - lo + 1 at any P, since the table's errors are 1 or 2
        size = max(sum(map(abs, v[1:])) for v in ends)
        width = max(size.bit_length() - q.bit_length() + 3, 0) + 2
        # rounded up to 32 bits, so an orbit's blocks share few tables
        bits = max(1, -(-(width + growth + MARGIN) // 32) * 32)
        while True:
            lo, hi = self._enclose(ends[0], q, bits)
            if len(ends) > 1:
                hi = self._enclose(ends[1], q, bits)[1]
            if (hi - lo + 1).bit_length() + growth + MARGIN <= bits:
                break
            bits *= 2
        blo, bhi, sh = self._beta_bounds(bits)
        # p[i] >= r^i 2^64 and sums[i - 1] >= E (p_0 + ... + p_(i-1)) / 2^64:
        # i steps take W to at most W p[i] / 2^64 + sums[i - 1]
        e = bhi - blo + 1 if sh else 0
        p = list(accumulate([bhi] * min(SEG, steps),
                            lambda t, b: -(-t * b >> sh), initial=1 << 64))
        sums = [-(-e * t >> 64) for t in accumulate(p)]
        # a remainder's float is read from its top 128 places
        cut, scale = float_cut(bits)
        mask, w, n = (1 << bits) - 1, hi - lo, len(digits)
        for start in range(0, steps, SEG):
            m = min(SEG, steps - start)
            w = -(-w * p[m] >> 64) + sums[m - 1] if lo or w else 0
            lim, up = mask + 1 - w, w + (1 << cut) - 1
            for _ in range(m):
                y = lo * blo >> sh
                lo = y & mask
                f = float(lo >> cut)
                if lo >= lim or float((lo + up) >> cut) != f:
                    return len(digits) - n
                digits.append(y >> bits)
                floats.append(f * scale)
        return steps

    def _advance(self, ends, q: int, digits: List[int]) -> Tuple[tuple, int]:
        """Each end v after k known digits: gamma^k v - q S over q c^k, with
        S = sum d_j c^(j+1) gamma^(k-1-j) summed once, coordinate by
        coordinate against the last k entries of the weighted columns of
        `_gamma_powers`, whose sum is c^(BLOCK-k) S."""
        k, c = len(digits), self.scale
        powers, columns = _gamma_powers(self.coeffs, c)
        s = [q * (sum(map(operator.mul, digits, col[BLOCK - k:]))
                  // c ** (BLOCK - k)) for col in columns]
        return tuple(tuple(map(operator.sub, self.mul(powers[k], v), s))
                     for v in ends), q * c ** k

    def replay(self, v, q: int, digits):
        """The points after each of the known digits, from v/q, exact:
        (v, q) <- (gamma v - d q c, q c)."""
        for d in digits:
            q *= self.scale
            w = _times_gamma(v, self.coeffs)
            v = (w[0] - d * q,) + w[1:]
            yield v, q

    def element(self, v, q: int) -> ExactScalar:
        """v/q as a Fraction or a FieldElement, reduced once."""
        if self.field is None:
            return Fraction(v[0], q)
        return FieldElement(self.field, v, q)

    def vector(self, x: ExactScalar, q: int) -> tuple:
        """The integer vector of x over q, a multiple of x's denominator."""
        if isinstance(x, Fraction):
            return (x.numerator * (q // x.denominator),)
        return tuple(a * (q // x.den) for a in x.num)

    def mul(self, x, y) -> tuple:
        """The integer vector of the product of x and y."""
        if self.field is None:
            return (x[0] * y[0],)
        return self.field._mul(x, y)

    def inverse(self, v) -> Tuple[tuple, int]:
        """1/v for a nonzero integer vector v, as an integer vector over a
        positive denominator."""
        if self.field is None:
            return ((1,), v[0]) if v[0] > 0 else ((-1,), -v[0])
        x = FieldElement(self.field, v, 1).inverse()
        return x.num, x.den


def _times_gamma(v: tuple, coeffs: Tuple[int, ...]) -> tuple:
    """The integer vector of gamma times v, for gamma a root of the monic
    polynomial with the given coefficients, lowest first."""
    top = v[-1]
    w = (0,) + v[:-1]
    if top:
        w = tuple([a - c * top for a, c in zip(w, coeffs)])
    return w


@functools.lru_cache(maxsize=64)
def _gamma_powers(coeffs: Tuple[int, ...], c: int
                  ) -> Tuple[Tuple[tuple, ...], Tuple[tuple, ...]]:
    """(gamma^0, ..., gamma^BLOCK as integer vectors, and for each
    coordinate i the column of c^(j+1) gamma^(BLOCK-1-j), j < BLOCK), once
    per polynomial and scale: each CLI call builds its base afresh."""
    powers = [(1,) + (0,) * (len(coeffs) - 2)]
    for _ in range(BLOCK):
        powers.append(_times_gamma(powers[-1], coeffs))
    cs = list(accumulate([c] * BLOCK, operator.mul))
    return tuple(powers), tuple(tuple(map(operator.mul, cs, col))
                                for col in zip(*powers[BLOCK - 1::-1]))


def _floor_and_rest(a: int, q: int) -> Tuple[int, float]:
    """(floor(a/q), the float nearest a/q - floor(a/q)), for q > 0."""
    d, m = divmod(a, q)
    return d, m / q


def float_cut(places: int) -> Tuple[int, float]:
    """(cut, scale) that read n / 2^places from n's top 128 places as
    float(n >> cut) * scale: exactly scaled, and 0 or at least 2^-128."""
    cut = max(places - 128, 0)
    return cut, 2.0 ** (cut - places)


@dataclass
class OrbitRecord:
    """A computed expansion: the digits d_1, ..., d_n, the floats of the
    points x_0, ..., x_{n-1} whose equidistribution normality is about, the
    point x_n after the last digit (exact, or for an interval start at P
    places a BigReal at P places around both ends' x_n), and the start's
    precision P (0 when exact).  The digits unwind x_n to every earlier
    point, x_(k-1) = (x_k + d_k)/beta."""
    digits: List[int]
    floats: List[float]
    end: object
    precision_used: int
    base: BetaBase


def beta_orbit(base: BetaBase, x, steps: int) -> OrbitRecord:
    """`steps` greedy digits of x in the given base.

    x must lie in [0, 1) (certified).  Exact inputs run in exact arithmetic
    and cannot be ambiguous; an interval input runs as its two exact ends
    and raises OrbitUndecidable at the first step where their digits part.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    x = base.coerce_point(x)
    lat = base._lattice
    zeros = (0,) * (lat.degree - 1)
    prec, room = 0, steps
    if isinstance(x, BigReal):
        if x.lo < 0 or x.hi >= 1:
            raise ValueError("starting point must be certified inside [0, 1)")
        prec, (lo, hi) = x.prec, x._ends(x.prec)
        ends, q = ((lo,) + zeros, (hi,) + zeros)[:1 + (hi > lo)], 1 << prec
        if hi > lo:
            # the ends' spread grows by beta a digit: past `room` digits it
            # would leave a block's enclosure fewer than MARGIN bits
            room = math.floor((prec - (hi - lo).bit_length() - MARGIN - 4)
                              / lat._log2_beta)
    elif x < 0 or x >= 1:
        raise ValueError("starting point must lie in [0, 1)")
    elif isinstance(x, Fraction):
        ends, q = ((x.numerator,) + zeros,), x.denominator
    else:
        ends, q = (x.num,), x.den
    digits, floats, ends, q = lat.orbit(ends, q, steps, room)
    if len(digits) < steps:
        raise OrbitUndecidable(len(digits), prec)
    if not isinstance(x, BigReal):
        end = lat.element(ends[0], q)
    else:
        # at whole 32-place words, as blocks read, so many P share tables
        up = -prec % 32
        end = BigReal(lat._enclose(ends[0], q, prec + up)[0] >> up,
                      -(-lat._enclose(ends[-1], q, prec + up)[1] >> up), prec)
    # the kernel's floats are those of x_1, ..., x_n
    return OrbitRecord(digits, [float(x), *floats[:-1]], end, prec, base)


# -- Parry density -------------------------------------------------------------


@dataclass
class ParryDensity:
    """The invariant density of T_beta, piecewise constant between the
    distinct orbit values of 1.  breakpoints[0] = 0, breakpoints[-1] = 1;
    values[j] is the (normalized) exact density on
    [breakpoints[j], breakpoints[j+1]); breakpoint_floats[j] is the float
    nearest breakpoints[j]."""
    base: BetaBase
    breakpoints: Tuple[ExactScalar, ...]
    values: Tuple[ExactScalar, ...]
    truncated_at: int
    tail_bound: float
    breakpoint_floats: Tuple[float, ...]

    @functools.cached_property
    def piece_floats(self) -> Tuple[np.ndarray, np.ndarray]:
        """(breakpoints, values) as read-only float arrays, converted on
        first use."""
        br = np.array(self.breakpoint_floats)
        vals = np.array([float(v) for v in self.values])
        br.setflags(write=False)
        vals.setflags(write=False)
        return br, vals

    def cdf(self, t: np.ndarray) -> np.ndarray:
        """Float CDF at the points t (vectorized)."""
        br, vals = self.piece_floats
        widths = np.diff(br)
        cum = np.concatenate([[0.0], np.cumsum(vals * widths)])
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(br, t, side="right") - 1,
                      0, len(vals) - 1)
        return np.clip(cum[idx] + vals[idx] * (t - br[idx]), 0.0, 1.0)


def orbit_of_one(base: BetaBase, max_terms: int):
    """Exact forward orbit 1, T(1), T^2(1), ... of the greedy map, each point
    once.  Returns (values including the leading 1, cycle), where cycle is an
    int or None: T of the last value is values[cycle], or 0 when
    cycle == len(values); None means the cap of max_terms values cut the
    orbit.  So cycle is truthy exactly when the values are the whole orbit,
    whether it ends at 0 or turns periodic; it does not mean that the
    expansion of 1 is finite.  For a Pisot base every orbit in Q(beta) is
    eventually periodic (K. Schmidt 1980)."""
    values, _, cycle = _orbit_of_one(base, max_terms)
    return values, cycle


def _orbit_of_one(base: BetaBase, max_terms: int):
    """`orbit_of_one`'s (values, floats, cycle), with the certified float of
    each value.  The steps are the lattice orbit of `beta_orbit`, taken in
    runs of doubling length: T^k(1) is an integer vector over c^k, replayed
    from the run's digits and reduced once when its value is built, and a
    value repeats when its reduced form does."""
    lat = base._lattice
    v, q = (1,) + (0,) * (lat.degree - 1), 1
    values, floats, seen, run = [lat.element(v, q)], [1.0], {}, 2
    while len(values) < max_terms:
        digits, fl, _, _ = lat.orbit((v,), q,
                                     min(run, max_terms - len(values)))
        for (v, q), f in zip(lat.replay(v, q, digits), fl):
            if not any(v):
                return values, floats, len(values)
            z = lat.element(v, q)
            k = seen.setdefault(z, len(values))
            if k < len(values):
                return values, floats, k
            values.append(z)
            floats.append(f)
        run *= 2
    return values, floats, None


def parry_density(base: BetaBase, truncation: int = 256) -> ParryDensity:
    """h(x) proportional to the sum of beta^-n over n with x < T^n(1),
    normalized to integrate to 1.  Exact bases only.  The sum is exact when
    the orbit of 1 ends at 0 or turns periodic within `truncation` terms
    (every Pisot base): a period of k terms is summed once and scaled by
    1/(1 - beta^-k).  Otherwise it stops after `truncation` terms and
    tail_bound bounds what is left.  The sums are integer sums on the
    lattice of beta = gamma/c (see the module docstring); the period factor
    and the normalizer cost one inverse each."""
    if not isinstance(base.beta, (Fraction, AlgebraicNumber)):
        raise TypeError("Parry construction needs an exact base")
    if truncation < 1:
        raise ValueError("truncation must be a positive term count")
    orbit, floats, cycle = _orbit_of_one(base, truncation)
    n = len(orbit)
    head = n if cycle is None else cycle
    lat, den = base._lattice, base._lattice.scale ** (n - 1)

    # after the leading 1, last in exact order, the orbit values are
    # distinct points of (0, 1): they are the interior breakpoints, and
    # T^n(1) > b_j iff its rank among the breakpoints exceeds j
    order = _exact_order(orbit, floats)

    # 1/gamma = -(a_1 + a_2 gamma + ... + gamma^(d-1))/a_0, so a step
    # divides the first coordinate by a_0, exactly over m = |a_0|^(n-1)
    a0, rest = lat.coeffs[0], lat.coeffs[1:]
    m = abs(a0) ** (n - 1)
    powers = [(m,) + (0,) * (lat.degree - 1)]
    for _ in range(n - 1):
        w = powers[-1]
        t = w[0] // a0
        powers.append(tuple(lat.scale * (x - t * a)
                            for x, a in zip(w[1:] + (0,), rest)))
    if head < n:
        # the terms from `head` on repeat with period k = n - head, so each
        # carries 1/(1 - beta^-k) = m/(m - m beta^-k) = m r/s
        r, s = lat.inverse(tuple(map(operator.sub, powers[0],
                                     powers[n - head])))
        powers = [tuple(s * x for x in w) for w in powers[:head]] + \
            [tuple(m * x for x in lat.mul(r, w)) for w in powers[head:]]
        m *= s

    # piece value on [b_j, b_{j+1}): the terms of rank above j, the leading
    # 1 having rank n, as suffix sums over the ranks, over m.  Summed by
    # parts, the integral of the pieces is the sum of beta^-k T^k(1), over
    # m * den, and each value is raw * den / that
    raw = list(accumulate([powers[i] for i in reversed(order)],
                          lambda u, v: tuple(map(operator.add, u, v))))
    edges = [lat.vector(z, den) for z in orbit]
    r, s = lat.inverse(tuple(map(sum, zip(*map(lat.mul, powers, edges)))))
    r = tuple(den * x for x in r)
    values = tuple(lat.element(lat.mul(v, r), s) for v in reversed(raw))

    if cycle is not None:
        tail = 0.0
    else:
        bf = float(base.beta)
        tail = bf ** (-(n - 1)) / (1 - 1 / bf)
    inner = order[:-1]
    return ParryDensity(base, (Fraction(0), *(orbit[i] for i in inner),
                               Fraction(1)),
                        values, n, tail, (0.0, *(floats[i] for i in inner),
                                          1.0))


def _exact_order(values: Sequence[ExactScalar],
                 floats: Sequence[float]) -> List[int]:
    """The indices of the values in their exact order.  Each value's nearest
    float is certified and monotone, so the sort key (float, value) compares
    values exactly only where their floats are equal."""
    return sorted(range(len(values)), key=lambda i: (floats[i], values[i]))


# -- normality statistics --------------------------------------------------------

DISCREPANCY_GRID = 1024


@dataclass
class NormalityStatistic:
    digit_freqs: np.ndarray
    discrepancy: float


def normality_from_orbit(rec: OrbitRecord,
                         density: Optional[ParryDensity] = None
                         ) -> NormalityStatistic:
    """Digit frequencies plus the sup over a uniform grid of DISCREPANCY_GRID
    points of |empirical orbit CDF - Parry CDF| (a star-discrepancy
    proxy)."""
    base = rec.base
    if density is None:
        density = parry_density(base)
    freqs = np.bincount(np.asarray(rec.digits),
                        minlength=base.alphabet_size) / len(rec.digits)
    pts = np.sort(rec.floats)
    t = np.arange(1, DISCREPANCY_GRID + 1) / DISCREPANCY_GRID
    emp = np.searchsorted(pts, t, side="right") / len(pts)
    disc = float(np.abs(emp - density.cdf(t)).max())
    return NormalityStatistic(freqs, disc)


# -- pushforward maps ---------------------------------------------------------------


class MapSpec:
    """A user-specified polynomial map with exact rational coefficients.  It
    must have a nonvanishing derivative on the stated hull (checked exactly)
    to count as a diffeomorphism."""

    def __init__(self, coeffs: Tuple[Fraction, ...]):
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise ValueError("a polynomial map needs degree >= 1")
        self.coeffs = coeffs

    @classmethod
    def parse(cls, text: str) -> "MapSpec":
        return cls(tuple(_parse_poly_string(text, rational=True)))

    def check_diffeo(self, hull_lo, hull_hi) -> None:
        """Reject maps whose derivative can vanish on [hull_lo, hull_hi]."""
        # count real roots of the derivative on a rational cover of the hull;
        # its leading coefficient is not 0, so a constant one has none
        deriv = [k * c for k, c in enumerate(self.coeffs)][1:]
        dpoly = IntPolynomial.from_rational(deriv)
        # the hull's outer dyadic cover at 2^-32, widened by 2^-30
        lo_enc = Fraction(math.floor(hull_lo * 2 ** 32) - 4, 2 ** 32)
        hi_enc = Fraction(-math.floor(-hull_hi * 2 ** 32) + 4, 2 ** 32)
        count = dpoly.squarefree_part().count_roots(lo_enc, hi_enc)
        if count:
            raise ValueError(
                "derivative vanishes on the hull; not a diffeomorphism there")

    def apply_exact(self, x: ExactScalar) -> ExactScalar:
        acc: ExactScalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = x * acc + c
        return acc

    def __repr__(self):
        terms = " + ".join(f"{c}*x^{k}" if k else str(c)
                           for k, c in enumerate(self.coeffs) if c)
        return f"MapSpec({terms})"


def pushforward_samples(points, g: MapSpec, hull=None):
    """Apply g exactly to exact scalars and reduce mod 1.  Returns (points
    in [0,1), mod1_applied), where the flag records whether any value
    actually left [0, 1).
    """
    if hull is not None:
        g.check_diffeo(*hull)
    out = []
    moved = False
    for p in points:
        y = g.apply_exact(p)
        out.append(y - math.floor(y))
        if y < 0 or y >= 1:
            moved = True
    return out, moved
