"""Real algebraic numbers and exact number-field arithmetic.

An AlgebraicNumber is (irreducible minimal polynomial, rational isolating
interval); the interval is refined monotonically in place, so repeated
comparisons get cheaper and a refinement can never jump to a different root.

A NumberField wraps a monic irreducible polynomial and does exact field
arithmetic on coordinate vectors; signs of nonzero elements are decided by
interval Horner evaluation over the generator's isolating interval, refined
until the value interval excludes zero.  A nonzero coordinate vector has a
nonzero value (the minimal polynomial is minimal), so the loop terminates:
every comparison is exact, with no floating point on the decision path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from .intpoly import IntPolynomial, interval_add, interval_mul
from .roots import (_FLOAT_BITS_CAP, _root_separation_bound,
                    isolate_real_roots, real_root_intervals, refine_real_root)


class AlgebraicNumber:
    """A real root of an irreducible integer polynomial.

    The isolating interval [lo, hi] contains this root and no other root of
    min_poly.  refine() narrows it in place; all comparisons against
    rationals are exact.
    """

    __slots__ = ("min_poly", "_lo", "_hi", "_isolation")

    def __init__(self, min_poly, lo, hi, _validated: bool = False):
        poly = IntPolynomial.parse(min_poly).primitive()
        lo, hi = Fraction(lo), Fraction(hi)
        if not _validated:
            if poly.degree < 1:
                raise ValueError("constant polynomial has no roots")
            if not poly.is_irreducible():
                raise ValueError(
                    f"{poly} is reducible; minimal polynomials must be "
                    "irreducible over Q")
            if lo > hi or poly.count_roots(lo, hi) != 1:
                raise ValueError(
                    f"[{lo}, {hi}] does not isolate exactly one root of {poly}")
        self.min_poly = poly
        self._lo = lo
        self._hi = hi
        self._isolation = None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        q = Fraction(q)
        poly = IntPolynomial((-q.numerator, q.denominator))
        return cls(poly, q, q, _validated=True)

    @classmethod
    def largest_root(cls, poly) -> "AlgebraicNumber":
        """The greatest real root of `poly` (errors if there is none)."""
        poly = IntPolynomial.parse(poly).primitive()
        if not poly.is_irreducible():
            raise ValueError(f"{poly} is reducible; pass the minimal polynomial")
        roots = real_root_intervals(poly, precision=16)
        if not roots:
            raise ValueError(f"{poly} has no real roots")
        iv = roots[-1]
        return cls(poly, iv.lo, iv.hi, _validated=True)

    # -- refinement -----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def refine(self, width: Fraction) -> Tuple[Fraction, Fraction]:
        if self._hi - self._lo > width:
            iv = refine_real_root(self.min_poly, self._lo, self._hi, width)
            self._lo, self._hi = iv.lo, iv.hi
        return (self._lo, self._hi)

    def refine_bits(self, bits: int) -> Tuple[Fraction, Fraction]:
        return self.refine(Fraction(1, 2**bits))

    def __float__(self) -> float:
        """The float nearest this number: the interval is refined from 2^-64
        until both ends round to one float, or up to _FLOAT_BITS_CAP bits
        (a tie between two floats), and its midpoint is rounded."""
        bits = 64
        lo, hi = self.refine_bits(bits)
        while float(lo) != float(hi) and bits < _FLOAT_BITS_CAP:
            bits *= 2
            lo, hi = self.refine_bits(bits)
        return float((lo + hi) / 2)

    # -- exact comparisons ------------------------------------------------

    def to_rational(self) -> Optional[Fraction]:
        if self.degree == 1:
            return Fraction(-self.min_poly.coeffs[0], self.min_poly.coeffs[1])
        return None

    def cmp_rational(self, q) -> int:
        q = Fraction(q)
        r = self.to_rational()
        if r is not None:
            return (r > q) - (r < q)
        if self.min_poly(q) == 0:  # impossible for irreducible degree >= 2
            raise ArithmeticError("rational root of an irreducible polynomial")
        lo, hi = self._lo, self._hi
        while lo <= q <= hi:
            width = (hi - lo) / 4
            lo, hi = self.refine(width)
        return 1 if lo > q else -1

    def sign(self) -> int:
        return self.cmp_rational(0)

    def floor(self) -> int:
        r = self.to_rational()
        if r is not None:
            return math.floor(r)
        lo, hi = self._lo, self._hi
        # degree >= 2 here, so the value is irrational and never sits on an
        # integer boundary: refinement must eventually decide the floor
        while math.floor(lo) != math.floor(hi):
            lo, hi = self.refine((hi - lo) / 4)
        return math.floor(lo)

    __floor__ = floor

    def equals(self, other: "AlgebraicNumber") -> bool:
        if self.min_poly != other.min_poly:
            return False
        # same polynomial: distinct roots separate under refinement
        sep = _root_separation_bound(self.min_poly)
        a = self.refine(sep / 4)
        b = other.refine(sep / 4)
        return not (a[1] < b[0] or b[1] < a[0])

    def negated(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self.min_poly.compose_negate().primitive(),
                               -self._hi, -self._lo, _validated=True)

    def abs_value(self) -> "AlgebraicNumber":
        return self if self.sign() >= 0 else self.negated()

    def conjugates(self):
        """Root isolation of the full minimal polynomial (cached)."""
        if self._isolation is None:
            self._isolation = isolate_real_roots(self.min_poly)
        return self._isolation

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.min_poly} ~ {float(self):.10g})"


# ---------------------------------------------------------------------------
# Number fields
# ---------------------------------------------------------------------------


class NumberField:
    """Q(beta) for beta a root of a monic irreducible integer polynomial."""

    __slots__ = ("poly", "generator", "degree", "_same_field")

    def __init__(self, generator: AlgebraicNumber):
        poly = generator.min_poly
        if not poly.is_monic:
            raise ValueError(
                f"{poly} is not monic; field arithmetic here requires an "
                "algebraic integer generator")
        self.poly = poly
        self.generator = generator
        self.degree = poly.degree
        self._same_field: dict = {}

    def same_field(self, other: "NumberField") -> bool:
        """True iff `other` designates the same generator root (cached)."""
        if other is self:
            return True
        # each entry keeps its field alive, so its id cannot be reused
        entry = self._same_field.get(id(other))
        if entry is not None and entry[0] is other:
            return entry[1]
        hit = (self.poly == other.poly and
               self.generator.equals(other.generator))
        self._same_field[id(other)] = (other, hit)
        other._same_field[id(self)] = (self, hit)
        return hit

    def element(self, vec) -> "FieldElement":
        """The element sum_k vec[k] * beta^k, for a vector of any length:
        the top coordinate c is folded down by beta^d = -(a_0 + ... +
        a_{d-1} beta^{d-1}) until d coordinates remain."""
        d = self.degree
        v = [Fraction(x) for x in vec]
        low = self.poly.coeffs[:d]
        while len(v) > d:
            c = v.pop()
            if c:
                k = len(v) - d
                for i, a in enumerate(low):
                    v[k + i] -= c * a
        return FieldElement(self, tuple(v + [Fraction(0)] * (d - len(v))))

    def from_rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    def beta(self) -> "FieldElement":
        return self.element([0, 1])

    def __repr__(self) -> str:
        return f"NumberField({self.poly})"


def monic_scaled_field(a: AlgebraicNumber) -> Tuple[NumberField, int]:
    """The field generated by the algebraic integer c*a, plus the scale
    c > 0, the leading coefficient of a's minimal polynomial.  A monic a
    gives its own field on a itself and c = 1."""
    p = a.min_poly
    if p.is_monic:
        return NumberField(a), 1
    d = p.degree
    c = p.leading  # primitive() keeps it positive
    scaled = IntPolynomial(tuple(
        p.coeffs[k] * c ** (d - 1 - k) if k < d else 1 for k in range(d + 1)))
    gen = AlgebraicNumber(scaled, a.lo * c, a.hi * c, _validated=True)
    return NumberField(gen), c


class FieldElement:
    """Element of a NumberField in power-basis coordinates (Fractions)."""

    __slots__ = ("field", "vec")

    def __init__(self, field: NumberField, vec: Tuple[Fraction, ...]):
        self.field = field
        self.vec = vec

    # -- ring ops ---------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                if self.field.same_field(other.field):
                    return FieldElement(self.field, other.vec)
                raise TypeError(
                    "mixing elements of distinct algebraic fields is not "
                    "supported; express both in one field")
            return other
        return self.field.from_rational(Fraction(other))

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.vec, o.vec)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.vec))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(o.vec):
                    if b:
                        prod[i + j] += a * b
        return self.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm in
        Q[x] against the (irreducible) minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        a = [Fraction(c) for c in self.field.poly.coeffs]
        b = list(self.vec)
        while len(b) > 1 and b[-1] == 0:
            b.pop()
        s_prev, s_cur = [Fraction(0)], [Fraction(1)]

        def poly_divmod(num, den):
            num = num[:]
            q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
            while len(num) >= len(den) and any(num):
                while num and num[-1] == 0:
                    num.pop()
                if len(num) < len(den):
                    break
                c = num[-1] / den[-1]
                k = len(num) - len(den)
                q[k] = c
                for i, dc in enumerate(den):
                    num[i + k] -= c * dc
                num.pop()
            return q, (num or [Fraction(0)])

        r_prev, r_cur = a, b
        while True:
            while len(r_cur) > 1 and r_cur[-1] == 0:
                r_cur.pop()
            if len(r_cur) == 1:
                break
            q, r_next = poly_divmod(r_prev, r_cur)
            # s_next = s_prev - q * s_cur
            s_next = [Fraction(0)] * max(len(s_prev), len(q) + len(s_cur) - 1)
            for i, c in enumerate(s_prev):
                s_next[i] += c
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s_cur):
                        s_next[i + j] -= qc * sc
            r_prev, r_cur = r_cur, r_next
            s_prev, s_cur = s_cur, s_next
        c = r_cur[0]
        if c == 0:
            raise ArithmeticError("gcd degenerated; polynomial not irreducible?")
        return self.field.element([s / c for s in s_cur])

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- exact decisions ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.vec)

    def to_rational(self) -> Optional[Fraction]:
        if all(c == 0 for c in self.vec[1:]):
            return self.vec[0]
        return None

    def _horner(self) -> Tuple[Fraction, Fraction]:
        """Interval Horner: a rational enclosure of this element over the
        generator's current isolating interval."""
        gen = self.field.generator
        x = (gen.lo, gen.hi)
        acc = (self.vec[-1], self.vec[-1])
        for c in reversed(self.vec[:-1]):
            acc = interval_add(interval_mul(acc, x), (c, c))
        return acc

    def _enclose(self, done) -> Tuple[Fraction, Fraction]:
        """The first enclosure that satisfies `done`, narrowing the shared
        generator interval by steps of a sixteenth.  Each caller's test
        holds once the interval is narrow enough for an irrational element,
        which is neither zero, an integer nor a float rounding boundary, or
        at once for a rational one, whose enclosure is exact."""
        gen = self.field.generator
        while True:
            acc = self._horner()
            if done(acc):
                return acc
            gen.refine((gen.hi - gen.lo) / 16)

    def sign(self) -> int:
        r = self.to_rational()
        if r is not None:
            return (r > 0) - (r < 0)
        lo, _ = self._enclose(lambda iv: iv[0] > 0 or iv[1] < 0)
        return 1 if lo > 0 else -1

    def floor(self) -> int:
        r = self.to_rational()
        if r is not None:
            return math.floor(r)
        lo, _ = self._enclose(
            lambda iv: math.floor(iv[0]) == math.floor(iv[1]))
        return math.floor(lo)

    __floor__ = floor

    def enclosure(self, bits: int = 64) -> Tuple[Fraction, Fraction]:
        """Certified rational interval of width below 2^-bits."""
        r = self.to_rational()
        if r is not None:
            return (r, r)
        width = Fraction(1, 2 ** bits)
        return self._enclose(lambda iv: iv[1] - iv[0] < width)

    def __float__(self) -> float:
        """The float nearest this element: the generator is refined to
        2^-80, and further until both ends of the enclosure round to one
        float (large coordinates need more)."""
        self.field.generator.refine_bits(80)
        lo, _ = self._enclose(lambda iv: float(iv[0]) == float(iv[1]))
        return float(lo)

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        """Exact equality.  Elements of one field (same polynomial, same
        root) are equal iff their coordinates are; across fields, only two
        rational values are compared."""
        if isinstance(other, FieldElement):
            if self.field.same_field(other.field):
                return self.vec == other.vec
            r = self.to_rational()
            return r is not None and r == other.to_rational()
        if isinstance(other, (int, Fraction)):
            return self.to_rational() == other
        return NotImplemented

    def __hash__(self):
        r = self.to_rational()
        if r is not None:
            return hash(r)
        return hash((self.field.poly.coeffs, self.vec))

    def to_algebraic(self) -> AlgebraicNumber:
        """Minimal polynomial + isolating interval for this element."""
        r = self.to_rational()
        if r is not None:
            return AlgebraicNumber.from_rational(r)
        # the characteristic polynomial of multiplication by this element is
        # a power of its minimal polynomial, so its square-free part is it
        target = _charpoly(self).squarefree_part()
        # exact Horner evaluation inside the field confirms that it vanishes
        acc = self.field.from_rational(target.coeffs[-1])
        for c in reversed(target.coeffs[:-1]):
            acc = acc * self + c
        if not acc.is_zero():
            raise ArithmeticError("minimal polynomial does not vanish at "
                                  "element")
        # isolating interval: refine the generator until the Horner interval
        # of this element isolates exactly one root of the target
        lo, hi = self._enclose(
            lambda iv: target.count_roots(*iv) == 1)
        return AlgebraicNumber(target, lo, hi, _validated=True)


def _charpoly(x: FieldElement) -> IntPolynomial:
    """The characteristic polynomial of multiplication by x on the power
    basis, as a primitive integer polynomial.  With x = v / D for an integer
    vector v, the matrix M of v is integral, and Faddeev-LeVerrier gives its
    characteristic polynomial sum c_i t^i in integers: with M_1 = I,
    c_(n-k) = -tr(M M_k) / k and M_(k+1) = M M_k + c_(n-k) I, every division
    exact.  That of x is then proportional to sum c_i D^i t^i."""
    field, n = x.field, x.field.degree
    den = math.lcm(*(c.denominator for c in x.vec))
    col = [c * den for c in x.vec]
    cols = []                                   # v beta^j, column by column
    for _ in range(n):
        cols.append([int(c) for c in col])
        col = list(field.element([0] + col).vec)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    c = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(m[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]
        tr = sum(prod[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        c[n - k] = -tr // k
        mk = [[prod[i][j] + (c[n - k] if i == j else 0) for j in range(n)]
              for i in range(n)]
    return IntPolynomial(tuple(ci * den ** i for i, ci in enumerate(c))
                         ).primitive()


# ---------------------------------------------------------------------------
# Pisot test
# ---------------------------------------------------------------------------


def is_pisot(x) -> bool:
    """True iff x is a Pisot number: a real algebraic integer > 1 whose other
    conjugates all have modulus strictly below 1.

    The decision is exact: moduli are compared to 1 through the exact
    rational modulus bounds of the real intervals and the complex inclusion
    disks, refined until strict; unit-circle conjugates can occur only for
    self-reciprocal polynomials, which are dispatched combinatorially, so
    refinement always terminates.
    """
    if isinstance(x, FieldElement):
        x = x.to_algebraic()
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return q.denominator == 1 and q >= 2
    if not isinstance(x, AlgebraicNumber):
        raise TypeError(f"cannot test {type(x).__name__} for the Pisot property")

    if x.cmp_rational(1) <= 0:
        return False
    p = x.min_poly
    if not p.is_monic:
        return False
    d = p.degree
    if d == 1:
        return True  # integer >= 2 at this point
    if p.is_self_reciprocal():
        # roots closed under z -> 1/z: degree 2 gives {beta, 1/beta}; any
        # higher degree forces a second root with modulus >= 1
        return d == 2

    iso = x.conjugates()

    # locate x among the real roots: its interval overlaps exactly one of
    # the pairwise-disjoint isolation intervals once refined enough
    own = None
    while own is None:
        hits = [idx for idx, r in enumerate(iso.real_roots)
                if not (x.hi < r.lo or r.hi < x.lo)]
        if len(hits) == 1:
            own = hits[0]
        elif not hits:
            raise ArithmeticError("root lost during isolation")
        else:
            x.refine((x.hi - x.lo) / 4)

    # refinement keeps the real roots in order, so `own` stays valid
    while True:
        bounds = [r.modulus_bounds() for idx, r in enumerate(iso.real_roots)
                  if idx != own]
        bounds += [disk.modulus_bounds() for disk in iso.complex_pairs]
        if any(lo > 1 for lo, _ in bounds):
            return False
        if all(hi < 1 for _, hi in bounds):
            return True
        iso = iso.refined()


# ---------------------------------------------------------------------------
# Named constants and scalar parsing
# ---------------------------------------------------------------------------


def _named(poly: str) -> AlgebraicNumber:
    return AlgebraicNumber.largest_root(IntPolynomial.parse(poly))


def named_constant(name: str) -> AlgebraicNumber:
    table = {
        "golden": "x^2 - x - 1",
        "sqrt2": "x^2 - 2",
        "tribonacci": "x^3 - x^2 - x - 1",
        "plastic": "x^3 - x - 1",
        "supergolden": "x^3 - x^2 - 1",
    }
    if name not in table:
        raise ValueError(f"unknown named constant {name!r}; "
                         f"known: {sorted(table)}")
    return _named(table[name])


ExactScalar = Union[Fraction, FieldElement]


def parse_scalar(text: str) -> ExactScalar:
    """Parse an exact scalar: a rational like '-2/3', a named constant like
    'golden', or simple quotient forms '1/golden', 'golden/2', '-1/golden'."""
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        pass
    neg = text.startswith("-")
    if neg:
        text = text[1:].strip()
    num, _, den = text.partition("/")
    num, den = num.strip(), den.strip()

    def to_part(s):
        try:
            return Fraction(s)
        except ValueError:
            a = named_constant(s)
            return NumberField(a).beta()

    value = to_part(num) / to_part(den) if den else to_part(num)
    if neg:
        value = -value
    return value


def scalar_to_str(x: ExactScalar, nearest: Optional[float] = None) -> str:
    """x as text, with its nearest float: `nearest` when the caller already
    holds it, else float(x)."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, AlgebraicNumber):
        return f"root ~ {float(x):.12g} of {x.min_poly}"
    parts = []
    for k, c in enumerate(x.vec):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mag = "b" if k == 1 else f"b^{k}"
            if c == 1:
                term = mag
            elif c == -1:
                term = f"-{mag}"
            else:
                term = f"{c}*{mag}"
            parts.append(term)
    body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    approx = float(x) if nearest is None else nearest
    return f"{body} ~ {approx:.12g} (b root of {x.field.poly})"

