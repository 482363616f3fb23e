"""Greedy beta-expansions with certified arithmetic, the Parry density, and
digit-statistics for normality experiments.

The transformation is T(x) = beta*x - d with d = floor(beta*x), digits in
{0, ..., floor(beta)}.  When beta*x is exactly an integer m >= 1 the digit is
m and the remainder 0 (the expansion then continues with zeros); this is the
greedy, lexicographically largest convention.

Two arithmetic paths, chosen by the type of the starting point:
  * exact x (a rational, or an element of the base's field): the integer
    lattice.  With c = 1 for an algebraic-integer beta (an integer, or a
    root of a monic polynomial), c = b for beta = a/b, and c the leading
    coefficient of a non-monic minimal polynomial, gamma = c*beta is an
    algebraic integer of degree d.  x is an integer vector v in the basis
    1, gamma, ..., gamma^(d-1) over a denominator q; multiplying by beta is
    the companion matrix of gamma with the denominator multiplied by c, so
    the k-th remainder sits over q*c^k.  A floor is w_0 // q when
    w_1 = ... = w_{d-1} = 0 (the value is rational).  Otherwise it is read
    off fixed-point powers B_i = floor(gamma^i 2^P), taken from the
    certified isolating interval of gamma, with the error bound
    sum |w_i| E_i; when that enclosure straddles an integer, P doubles for
    the rest of the orbit and the floor is taken again.  No floor comes from
    an uncertified value.  Floats are certified the same way, and the exact
    remainders are built only when read;
  * interval-valued x (BigReal): certified propagation; if a floor cannot be
    decided at the available precision the orbit is reported undecidable at
    that step, never silently rounded.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from typing import List, Optional, Tuple, Union

import numpy as np

from .algebraics import (
    AlgebraicNumber,
    BigReal,
    ExactScalar,
    FieldElement,
    is_pisot,
    monic_scaled_field,
)
from .algebraics.intpoly import interval_mul
from .rng import UniformStream


class OrbitUndecidable(ValueError):
    """A floor decision could not be certified at the available precision."""

    def __init__(self, step: int, precision: int):
        self.step = step
        self.precision = precision
        super().__init__(
            f"orbit undecidable at step {step}: beta*x sits at an integer "
            f"boundary within the {precision}-bit enclosure; supply an exact "
            "or higher-precision starting point")


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
            self._beta_elem = None
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
            self._beta_elem = self._field.beta() / scale
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

    def exact_value(self):
        """beta as a Fraction or a FieldElement, for exact orbit steps."""
        if self._beta_elem is not None:
            return self._beta_elem
        return self.beta

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
            return self._field.element(list(x.vec)) \
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


# Starting precision, in bits, of the lattice's fixed-point powers of beta;
# a floor or float that it cannot certify doubles it for the rest of that
# orbit (or float array).  Every orbit starts here again.
LATTICE_BITS = 96


class _Lattice:
    """Exact orbit arithmetic for beta = gamma/c, gamma an algebraic integer
    and c >= 1 an integer.

    A point is an integer vector v in the power basis 1, gamma, ...,
    gamma^(d-1) over a denominator Q > 0.  Multiplying by beta is the
    integer companion matrix of gamma's monic minimal polynomial with Q
    multiplied by c, and subtracting a digit changes v[0] only, so the k-th
    point of an orbit from v/q sits over q*c^k.  Floors and floats come
    from fixed-point powers B_i = floor(gamma^i 2^P) under a certified error
    bound (see `_fixed`).
    """

    def __init__(self, coeffs: Sequence[int], field, scale: int):
        self.coeffs = tuple(coeffs)   # gamma's monic polynomial, lowest first
        self.field = field            # None for a rational base
        self.scale = scale            # c
        self.degree = len(self.coeffs) - 1
        self._tables: dict = {}
        if field is not None:
            # a private copy, so refining it leaves the field's own interval
            # (and with it FieldElement.__float__) as it was
            gen = field.generator
            self._gen = AlgebraicNumber(gen.min_poly, gen.lo, gen.hi,
                                        _validated=True)

    def lift(self, x) -> Tuple[Tuple[int, ...], int]:
        """(v, q) for a Fraction or an element of this base's field."""
        if isinstance(x, Fraction):
            return (x.numerator,) + (0,) * (self.degree - 1), x.denominator
        q = math.lcm(*(c.denominator for c in x.vec))
        return tuple(c.numerator * (q // c.denominator) for c in x.vec), q

    def exact(self, v, q) -> ExactScalar:
        if self.field is None:
            return Fraction(v[0], q)
        return FieldElement(self.field, tuple(Fraction(c, q) for c in v))

    def orbit(self, v, q, steps: int) -> Tuple[List[int], List[tuple]]:
        """The digits and remainder vectors of `steps` greedy steps from
        v/q: multiply by gamma and the denominator by c, take the floor,
        subtract it from v[0]."""
        digits, states = [], []
        if self.degree == 1:
            # beta = a/c: the step is x -> a*x over q*c, and its floor and
            # remainder are one integer divmod
            a, x = -self.coeffs[0], v[0]
            for _ in range(steps):
                q *= self.scale
                d, x = divmod(a * x, q)
                digits.append(d)
                states.append((x,))
            return digits, states
        bits = LATTICE_BITS
        for _ in range(steps):
            q *= self.scale
            top = v[-1]
            w = (0,) + v[:-1]
            if top:
                w = tuple(a - c * top for a, c in zip(w, self.coeffs))
            d, bits = self._decide(w, q, operator.floordiv, bits)
            v = (w[0] - d * q,) + w[1:]
            digits.append(d)
            states.append(v)
        return digits, states

    def floats(self, states: Sequence[tuple], q: int) -> List[float]:
        """The float nearest each v/Q, where the k-th state sits over
        Q = q*c^k."""
        out = []
        if self.degree == 1:
            for (x,) in states:
                out.append(x / q)   # int / int rounds correctly
                q *= self.scale
            return out
        bits = LATTICE_BITS
        for v in states:
            f, bits = self._decide(v, q, operator.truediv, bits)
            out.append(f)
            q *= self.scale
        return out

    def _table(self, bits: int):
        """(B, E) at precision P = bits for i = 1..d-1: gamma^i 2^P lies in
        [B_i, B_i + E_i]."""
        if bits not in self._tables:
            lo, hi = self._gen.refine_bits(bits + 32)
            b, e, pw = [], [], (Fraction(1), Fraction(1))
            for _ in range(self.degree - 1):
                pw = interval_mul(pw, (lo, hi))
                lo_i = math.floor(pw[0] * 2 ** bits)
                b.append(lo_i)
                e.append(-math.floor(-pw[1] * 2 ** bits) - lo_i)
            self._tables[bits] = (b, e)
        return self._tables[bits]

    def _fixed(self, v, bits: int) -> Tuple[int, int]:
        """(A, R) with sum v_i gamma^i 2^P in [A - R, A + R]: A sums
        v_i B_i, R bounds the rounding of the powers by sum |v_i| E_i."""
        b, e = self._table(bits)
        a, r = v[0] << bits, 0
        for vi, bi, ei in zip(v[1:], b, e):
            a += vi * bi
            r += abs(vi) * ei
        return a, r

    def _decide(self, v, q, read, bits: int):
        """(read(v/q), P) for floor division or true division: exact when
        v/q is rational, else read at both ends of the fixed-point enclosure
        [A - R, A + R] / (q 2^P), doubling P from `bits` until the two agree.
        v/q is then irrational, so it is neither an integer nor a float
        rounding boundary, and the doubling ends."""
        if not any(v[1:]):
            return read(v[0], q), bits
        while True:
            a, r = self._fixed(v, bits)
            den = q << bits
            lo = read(a - r, den)
            if read(a + r, den) == lo:
                return lo, bits
            bits *= 2

    def unwind(self, v, q, digits: Sequence[int]) -> ExactScalar:
        """Run the expansion back from the remainder v/q: x = c(x' + d)/gamma,
        with the integer matrix of c_0/gamma (c_0 the constant coefficient),
        so per digit the denominator gains a factor |c_0| and loses the
        factor c that the forward step put in.  One exact scalar is built at
        the end."""
        c0 = self.coeffs[0]
        sign, scale = (-1, -c0) if c0 < 0 else (1, c0)
        tail = self.coeffs[1:]
        for d in reversed(digits):
            u0 = v[0] + d * q
            v = tuple(sign * (c0 * a - u0 * c)
                      for a, c in zip(v[1:] + (0,), tail))
            q = q * scale // self.scale
        return self.exact(v, q)


class _LatticeRemainders(Sequence):
    """The remainders of a lattice orbit from v/q, stored as integer vectors;
    the one at position k of the orbit sits over q*c^(k+1), and reading it
    builds its exact Fraction or FieldElement.  It is a read-only sequence,
    not a list: like a list it compares equal to a list (or another such
    sequence) of the same values, but it has no `+` and is not meant for
    pickling; `list(rems)` builds every value."""

    def __init__(self, lattice: _Lattice, q: int, states: List[tuple],
                 positions: range):
        self.lattice = lattice
        self.q = q
        self.states = states
        self.positions = positions   # orbit step of each state

    def denominator(self, k: int) -> int:
        return self.q * self.lattice.scale ** (self.positions[k] + 1)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _LatticeRemainders(self.lattice, self.q, self.states[k],
                                      self.positions[k])
        return self.lattice.exact(self.states[k], self.denominator(k))

    def __eq__(self, other):
        if not isinstance(other, (list, _LatticeRemainders)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


@dataclass
class OrbitRecord:
    """A computed expansion: digits, exact or enclosed remainders, and the
    precision that carried the floor decisions."""
    start: object
    digits: List[int]
    remainders: Sequence[object]  # exact scalars or BigReal, one per step
    precision_used: int
    base: BetaBase

    def orbit_floats(self) -> np.ndarray:
        """Float values of x_0, ..., x_{n-1} (the points whose
        equidistribution normality is about)."""
        rems = self.remainders
        if isinstance(rems, _LatticeRemainders):
            start = rems.lattice.lift(self.start)[0]
            return np.array(rems.lattice.floats([start, *rems.states[:-1]],
                                                rems.q))
        return np.array([float(r) for r in [self.start, *rems[:-1]]])

    def reconstruct_exact(self):
        """Run the expansion backwards: ((x_n + d_n)/beta + ...)/beta.
        Exact orbits reproduce the starting point identically."""
        rems = self.remainders
        if not isinstance(rems, _LatticeRemainders):
            raise ValueError("exact reconstruction needs an exact orbit")
        return rems.lattice.unwind(rems.states[-1], rems.denominator(-1),
                                   self.digits)


def beta_orbit(base: BetaBase, x, steps: int) -> OrbitRecord:
    """`steps` greedy digits of x in the given base.

    x must lie in [0, 1) (certified).  Exact inputs run in exact arithmetic
    and cannot be ambiguous; interval inputs raise OrbitUndecidable when a
    floor cannot be certified.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    x = base.coerce_point(x)
    if isinstance(x, BigReal):
        if x.lo < 0 or x.hi >= 1:
            raise ValueError("starting point must be certified inside [0, 1)")
        return _orbit_interval(base, x, steps)
    if x < 0 or x >= 1:
        raise ValueError("starting point must lie in [0, 1)")
    lat = base._lattice
    v, q = lat.lift(x)
    digits, states = lat.orbit(v, q, steps)
    return OrbitRecord(x, digits,
                       _LatticeRemainders(lat, q, states, range(steps)),
                       0, base)


def _orbit_interval(base: BetaBase, x: BigReal, steps: int) -> OrbitRecord:
    needed = math.ceil(steps * math.log2(float(base.beta))) + 64
    prec = max(x.prec, needed)
    for attempt in range(2):
        if isinstance(base.beta, Fraction):
            b = BigReal.from_fraction(base.beta, prec)
        else:
            b = BigReal.from_algebraic(base.beta, prec)
        cur = BigReal.from_interval(x.lo, x.hi, prec)
        digits: List[int] = []
        rems: List[object] = []
        failed_at = None
        for k in range(steps):
            y = b * cur
            d = y.floor_certain()
            if d is None:
                failed_at = k
                break
            cur = y - d
            digits.append(int(d))
            rems.append(cur)
        if failed_at is None:
            return OrbitRecord(x, digits, rems, prec, base)
        prec *= 4  # one restart at higher working precision
    raise OrbitUndecidable(failed_at, prec // 4)


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
    normalizer: ExactScalar
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

    def sample(self, count: int, seed: int, *labels) -> np.ndarray:
        """Inverse-CDF draws (float) from the density."""
        br, vals = self.piece_floats
        widths = np.diff(br)
        masses = vals * widths
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        cum[-1] = 1.0
        u = UniformStream(seed, "parry", *labels).slice(0, count)
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1,
                      0, len(vals) - 1)
        frac = (u - cum[idx]) / np.where(masses[idx] > 0, masses[idx], 1.0)
        return br[idx] + frac * widths[idx]


def orbit_of_one(base: BetaBase, max_terms: int):
    """Exact forward orbit 1, T(1), T^2(1), ... of the greedy map, each point
    once.  Returns (values including the leading 1, cycle), where cycle is an
    int or None: T of the last value is values[cycle], or 0 when
    cycle == len(values); None means the cap of max_terms values cut the
    orbit.  So cycle is truthy exactly when the values are the whole orbit,
    whether it ends at 0 or turns periodic; it does not mean that the
    expansion of 1 is finite.  For a Pisot base every orbit in Q(beta) is
    eventually periodic (K. Schmidt 1980)."""
    b = base.exact_value()
    z = b ** 0   # 1, in the arithmetic of beta
    seen: dict = {}
    values = []
    while True:
        seen[z] = len(values)
        values.append(z)
        if len(values) == max_terms:
            return values, None
        y = b * z
        z = y - math.floor(y)
        if z == 0:
            return values, len(values)
        if z in seen:
            return values, seen[z]


def parry_density(base: BetaBase, truncation: int = 256) -> ParryDensity:
    """h(x) proportional to the sum of beta^-n over n with x < T^n(1),
    normalized to integrate to 1.  Exact bases only.  The sum is exact when
    the orbit of 1 ends at 0 or turns periodic within `truncation` terms
    (every Pisot base): a period of k terms is summed once and scaled by
    1/(1 - beta^-k).  Otherwise it stops after `truncation` terms and
    tail_bound bounds what is left."""
    if not isinstance(base.beta, (Fraction, AlgebraicNumber)):
        raise TypeError("Parry construction needs an exact base")
    if truncation < 1:
        raise ValueError("truncation must be a positive term count")
    orbit, cycle = orbit_of_one(base, truncation)
    n_terms = len(orbit)
    head = n_terms if cycle is None else cycle

    beta_inv = 1 / base.exact_value()

    # after the leading 1 the orbit values are distinct points of (0, 1):
    # they are the interior breakpoints, and T^n(1) > b_j iff its rank
    # among the breakpoints exceeds j
    floats, interior = _sorted_with_floats(orbit[1:])
    breakpoints = [Fraction(0)] + interior + [Fraction(1)]
    rank = {z: j for j, z in enumerate(breakpoints)}
    ranks = [rank[z] for z in orbit]

    # piece value on [b_j, b_{j+1}): sum beta^-n over n with T^n(1) > b_j,
    # a suffix sum over the ranks above j; the terms from `head` on repeat
    # with period k = n_terms - head, so each carries 1/(1 - beta^-k)
    powers = []
    p = orbit[0]
    for _ in range(n_terms):
        powers.append(p)
        p = p * beta_inv
    if head < n_terms:
        scale = 1 / (1 - powers[n_terms - head])
        powers[head:] = [w * scale for w in powers[head:]]
    at_rank = [orbit[0] * 0] * len(breakpoints)
    for r, w in zip(ranks, powers):
        at_rank[r] = at_rank[r] + w
    raw = list(accumulate(reversed(at_rank[1:])))[::-1]

    normalizer = raw[0] * 0
    for j, v in enumerate(raw):
        normalizer = normalizer + v * (breakpoints[j + 1] - breakpoints[j])
    inverse = 1 / normalizer
    values = tuple(v * inverse for v in raw)

    if cycle is not None:
        tail = 0.0
    else:
        bf = float(base.beta)
        tail = bf ** (-(n_terms - 1)) / (1 - 1 / bf)
    return ParryDensity(base, tuple(breakpoints), values, normalizer,
                        n_terms, tail, (0.0, *floats, 1.0))


def _sorted_with_floats(values: Sequence[ExactScalar]):
    """(floats, values), both in the exact order of the values.  The sort
    key is each value's nearest float, which is certified and monotone, so
    exact comparisons are needed only among values with equal floats."""
    keyed = sorted(zip(map(float, values), values), key=operator.itemgetter(0))
    floats, ordered = [], []
    for f, run in groupby(keyed, key=operator.itemgetter(0)):
        run = [z for _, z in run]
        floats += [f] * len(run)
        ordered += sorted(run) if len(run) > 1 else run
    return floats, ordered


# -- normality statistics --------------------------------------------------------


@dataclass
class NormalityStatistic:
    digit_freqs: np.ndarray
    discrepancy: float
    steps: int
    precision_used: int


def normality_statistic(base: BetaBase, x, steps: int,
                        density: Optional[ParryDensity] = None,
                        grid: int = 1024) -> NormalityStatistic:
    """Digit frequencies plus the sup over a uniform grid of
    |empirical orbit CDF - Parry CDF| (a star-discrepancy proxy)."""
    rec = beta_orbit(base, x, steps)
    return normality_from_orbit(rec, density=density, grid=grid)


def normality_from_orbit(rec: OrbitRecord,
                         density: Optional[ParryDensity] = None,
                         grid: int = 1024) -> NormalityStatistic:
    base = rec.base
    if density is None:
        density = parry_density(base)
    freqs = np.bincount(np.asarray(rec.digits),
                        minlength=base.alphabet_size) / len(rec.digits)
    pts = np.sort(rec.orbit_floats())
    t = np.arange(1, grid + 1) / grid
    emp = np.searchsorted(pts, t, side="right") / len(pts)
    disc = float(np.abs(emp - density.cdf(t)).max())
    return NormalityStatistic(freqs, disc, len(rec.digits),
                              rec.precision_used)


# -- pushforward maps ---------------------------------------------------------------


class MapSpec:
    """A user-specified smooth map: affine/polynomial with exact rational
    coefficients, or the built-in exponential.  Polynomials must have a
    nonvanishing derivative on the stated hull (checked exactly) to count as
    diffeomorphisms."""

    def __init__(self, kind: str, coeffs: Optional[Tuple[Fraction, ...]] = None):
        if kind not in ("poly", "exp"):
            raise ValueError(f"unknown map kind {kind!r}")
        self.kind = kind
        self.coeffs = coeffs
        if kind == "poly":
            if coeffs is None or len(coeffs) < 2:
                raise ValueError("a polynomial map needs degree >= 1")

    @classmethod
    def parse(cls, text: str) -> "MapSpec":
        text = text.strip()
        if text in ("exp", "exp(x)"):
            return cls("exp")
        import sympy
        x = sympy.Symbol("x")
        expr = sympy.sympify(text.replace("^", "**"), locals={"x": x})
        poly = sympy.Poly(expr, x)
        coeffs = []
        for c in reversed(poly.all_coeffs()):
            r = sympy.Rational(c)
            coeffs.append(Fraction(int(r.p), int(r.q)))
        return cls("poly", tuple(coeffs))

    def check_diffeo(self, hull_lo, hull_hi) -> None:
        """Reject maps whose derivative can vanish on [hull_lo, hull_hi]."""
        if self.kind == "exp":
            return
        deriv = [k * c for k, c in enumerate(self.coeffs)][1:]
        if len(deriv) == 1:
            if deriv[0] == 0:
                raise ValueError("affine map has zero slope")
            return
        # count real roots of the derivative on a rational cover of the hull
        import sympy
        x = sympy.Symbol("x")
        dpoly = sympy.Poly(
            sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                for k, c in enumerate(deriv)), x)
        if dpoly.is_zero:
            raise ValueError("derivative is identically zero")
        # the hull's outer dyadic cover at 2^-32, widened by 2^-30
        lo_enc = Fraction(math.floor(hull_lo * 2 ** 32) - 4, 2 ** 32)
        hi_enc = Fraction(-math.floor(-hull_hi * 2 ** 32) + 4, 2 ** 32)
        count = dpoly.count_roots(
            sympy.Rational(lo_enc.numerator, lo_enc.denominator),
            sympy.Rational(hi_enc.numerator, hi_enc.denominator))
        if count:
            raise ValueError(
                "derivative vanishes on the hull; not a diffeomorphism there")

    def apply_float(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.kind == "exp":
            return np.exp(xs)
        acc = np.zeros_like(xs)
        for c in reversed(self.coeffs):
            acc = acc * xs + float(c)
        return acc

    def apply_exact(self, x: ExactScalar) -> ExactScalar:
        if self.kind == "exp":
            raise ValueError("the exponential map has no exact path; use "
                             "float samples")
        acc: ExactScalar = Fraction(0)
        for c in reversed(self.coeffs):
            acc = x * acc + c
        return acc

    def __repr__(self):
        if self.kind == "exp":
            return "MapSpec(exp)"
        terms = " + ".join(f"{c}*x^{k}" if k else str(c)
                           for k, c in enumerate(self.coeffs) if c)
        return f"MapSpec({terms})"


def pushforward_samples(points, g: MapSpec, hull=None):
    """Apply g and reduce mod 1 for fractional-dynamics testing.

    Float arrays go through the float path; lists of exact scalars stay
    exact (polynomial maps only).  Returns (points in [0,1), mod1_applied),
    where the flag records whether any value actually left [0, 1).
    """
    if hull is not None:
        g.check_diffeo(*hull)
    if isinstance(points, np.ndarray):
        ys = g.apply_float(points)
        frac = np.mod(ys, 1.0)
        return frac, bool(np.any((ys < 0) | (ys >= 1)))
    out = []
    moved = False
    for p in points:
        y = g.apply_exact(p)
        out.append(y - math.floor(y))
        if y < 0 or y >= 1:
            moved = True
    return out, moved
