"""Greedy beta-expansions with certified arithmetic, the Parry density, and
digit-statistics for normality experiments.

The transformation is T(x) = beta*x - d with d = floor(beta*x), digits in
{0, ..., floor(beta)}.  When beta*x is exactly an integer m >= 1 the digit is
m and the remainder 0 (the expansion then continues with zeros); this is the
greedy, lexicographically largest convention.

Three arithmetic paths, chosen by the type of the starting point:
  * rational x with integer or rational beta: integer numerator arithmetic
    over a controlled denominator;
  * x in the field of an algebraic beta: exact field arithmetic, floors
    decided by certified interval refinement (never ambiguous);
  * interval-valued x (BigReal): certified propagation; if a floor cannot be
    decided at the available precision the orbit is reported undecidable at
    that step, never silently rounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebraics import (
    AlgebraicNumber,
    BigReal,
    ExactScalar,
    FieldElement,
    is_pisot,
    monic_scaled_field,
)
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
    field generated by a scaled (monic) copy of beta.
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
            self._field, self._scale = monic_scaled_field(beta)
            self._beta_elem = self._field.beta() / self._scale
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


@dataclass
class OrbitRecord:
    """A computed expansion: digits, exact or enclosed remainders, and the
    precision that carried the floor decisions."""
    start: object
    digits: List[int]
    remainders: List[object]      # exact scalars or BigReal, one per step
    precision_used: int
    base: BetaBase

    def orbit_floats(self) -> np.ndarray:
        """Float values of x_0, ..., x_{n-1} (the points whose
        equidistribution normality is about)."""
        pts = [self.start] + self.remainders[:-1]
        return np.array([float(r) for r in pts])

    def reconstruct_exact(self):
        """Run the expansion backwards: ((x_n + d_n)/beta + ...)/beta.
        Exact paths reproduce the starting point identically."""
        if any(isinstance(r, BigReal) for r in self.remainders):
            raise ValueError("exact reconstruction needs an exact orbit")
        # invert once: each FieldElement division is an extended-Euclid inverse
        b_inv = 1 / self.base.exact_value()
        x = self.remainders[-1]
        for d in reversed(self.digits):
            x = (x + d) * b_inv
        return x


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
    digits, rems = _orbit_exact(base, x, steps)
    return OrbitRecord(x, digits, rems, 0, base)


def _orbit_exact(base: BetaBase, x, steps: int):
    b = base.exact_value()
    if isinstance(b, Fraction) and isinstance(x, Fraction) \
            and b.denominator == 1:
        # integer base: fixed denominator, integer numerator recursion
        bn = b.numerator
        q = x.denominator
        p = x.numerator
        digits: List[int] = []
        rems: List[object] = []
        for _ in range(steps):
            p *= bn
            d = p // q
            p -= d * q
            digits.append(int(d))
            rems.append(Fraction(p, q))
        return digits, rems
    digits = []
    rems = []
    for _ in range(steps):
        y = b * x
        d = math.floor(y)
        x = y - d
        digits.append(int(d))
        rems.append(x)
    return digits, rems


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
    [breakpoints[j], breakpoints[j+1])."""
    base: BetaBase
    breakpoints: Tuple[ExactScalar, ...]
    values: Tuple[ExactScalar, ...]
    normalizer: ExactScalar
    truncated_at: int
    tail_bound: float

    def piece_floats(self) -> Tuple[np.ndarray, np.ndarray]:
        br = np.array([float(t) for t in self.breakpoints])
        vals = np.array([float(v) for v in self.values])
        return br, vals

    def cdf(self, t: np.ndarray) -> np.ndarray:
        """Float CDF at the points t (vectorized)."""
        br, vals = self.piece_floats()
        widths = np.diff(br)
        cum = np.concatenate([[0.0], np.cumsum(vals * widths)])
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(br, t, side="right") - 1,
                      0, len(vals) - 1)
        return np.clip(cum[idx] + vals[idx] * (t - br[idx]), 0.0, 1.0)

    def cdf_exact(self, t: ExactScalar) -> ExactScalar:
        if t <= 0:
            return Fraction(0)
        if t >= 1:
            return Fraction(1)
        acc = Fraction(0)
        for j, v in enumerate(self.values):
            lo, hi = self.breakpoints[j], self.breakpoints[j + 1]
            if t >= hi:
                acc = acc + v * (hi - lo)
            else:
                acc = acc + v * (t - lo)
                break
        return acc

    def sample(self, count: int, seed: int, *labels) -> np.ndarray:
        """Inverse-CDF draws (float) from the density."""
        br, vals = self.piece_floats()
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
    """Exact forward orbit 1, T(1), T^2(1), ... until it hits 0 or the cap.
    Returns (values including the leading 1, terminated_exactly)."""
    b = base.exact_value()
    z = b ** 0   # 1, in the arithmetic of beta
    out = [z]
    for _ in range(max_terms - 1):
        y = b * z
        z = y - math.floor(y)
        if z == 0:
            return out, True
        out.append(z)
    return out, False


def parry_density(base: BetaBase, truncation: int = 256) -> ParryDensity:
    """h(x) proportional to the sum of beta^-n over n with x < T^n(1),
    truncated at `truncation` terms (exactly when the orbit of 1 terminates),
    then normalized to integrate to 1.  Exact bases only."""
    if not isinstance(base.beta, (Fraction, AlgebraicNumber)):
        raise TypeError("Parry construction needs an exact base")
    if truncation < 1:
        raise ValueError("truncation must be a positive term count")
    orbit, exact_end = orbit_of_one(base, truncation)
    n_terms = len(orbit)

    beta_inv = 1 / base.exact_value()

    # distinct orbit values in (0, 1) are the interior breakpoints
    interior = []
    for z in orbit[1:]:
        if 0 < z < 1 and all(z != w for w in interior):
            interior.append(z)
    interior.sort()
    breakpoints = [Fraction(0)] + interior + [Fraction(1)]

    # piece value on [b_j, b_{j+1}): sum beta^-n over n with T^n(1) > b_j
    powers = []
    p = orbit[0]
    for _ in range(n_terms):
        powers.append(p)
        p = p * beta_inv
    raw = []
    for j in range(len(breakpoints) - 1):
        lo = breakpoints[j]
        total = powers[0] * 0
        for n, z in enumerate(orbit):
            if z > lo:
                total = total + powers[n]
        raw.append(total)

    normalizer = raw[0] * 0
    for j, v in enumerate(raw):
        normalizer = normalizer + v * (breakpoints[j + 1] - breakpoints[j])
    values = tuple(v / normalizer for v in raw)

    if exact_end:
        tail = 0.0
    else:
        bf = float(base.beta)
        tail = bf ** (-(n_terms - 1)) / (1 - 1 / bf)
    return ParryDensity(base, tuple(breakpoints), values, normalizer,
                        n_terms, tail)


# -- normality statistics --------------------------------------------------------


@dataclass
class NormalityStatistic:
    digit_freqs: np.ndarray
    discrepancy: float
    steps: int
    precision_used: int

    def as_row(self) -> List[float]:
        return [*map(float, self.digit_freqs), float(self.discrepancy)]


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
