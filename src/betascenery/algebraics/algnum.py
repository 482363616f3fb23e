"""Real algebraic numbers and exact number-field arithmetic.

An AlgebraicNumber is (irreducible minimal polynomial, rational isolating
interval); the interval is refined monotonically in place, so repeated
comparisons get cheaper and a refinement can never jump to a different root.

A NumberField wraps a monic irreducible polynomial.  Its elements are
integer vectors over one positive denominator in the power basis, in lowest
terms; products fold by the monic polynomial in integers, and inverses come
from the characteristic polynomial (Cayley-Hamilton).  Every sign, floor
and float is read by the field's one fixed-point evaluator: integer powers
of the generator at 2^P under a certified error bound, with P doubled until
both ends of the enclosure give the same answer.  An element with a nonzero
irrational part is irrational (the minimal polynomial is minimal), so the
doubling ends: every decision is exact, with no floating point on its path.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Optional, Tuple, Union

from .intpoly import IntPolynomial, interval_mul
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


# Starting precision, in bits, of the fixed-point powers of a field's
# generator; a read that it cannot certify doubles it.
FIXED_BITS = 96


def _sign(a: int, q: int) -> int:
    return (a > 0) - (a < 0)


def _float_or_inf(a: int, q: int) -> float:
    """a/q for q > 0, or an infinity of a's sign where that overflows."""
    try:
        return a / q
    except OverflowError:
        return math.inf if a > 0 else -math.inf


class NumberField:
    """Q(beta) for beta a root of a monic irreducible integer polynomial.

    Every sign, floor and float of an element sum v_i beta^i / q comes from
    one evaluator: fixed-point powers B_i = floor(beta^i 2^P), taken from a
    certified isolating interval of beta, bound the value's 2^P multiple by
    [A - R, A + R] with A = v_0 2^P + sum v_i B_i and R = sum |v_i| E_i.
    The read is taken at both ends, and P doubles until they agree (see
    `_decide`).  The interval refined for the powers is a private copy of
    the generator, so evaluation never changes the public one.
    """

    __slots__ = ("poly", "generator", "degree", "_same_field", "_gen",
                 "_tables")

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
        self._gen = AlgebraicNumber(poly, generator.lo, generator.hi,
                                    _validated=True)
        self._tables: dict = {}

    def same_field(self, other: "NumberField") -> bool:
        """True iff `other` designates the same generator root (cached)."""
        if other is self:
            return True
        # each entry keeps its field alive, so its id cannot be reused
        entry = self._same_field.get(id(other))
        if entry is not None and entry[0] is other:
            return entry[1]
        hit = self.poly == other.poly and self._gen.equals(other._gen)
        self._same_field[id(other)] = (other, hit)
        other._same_field[id(self)] = (self, hit)
        return hit

    def element(self, vec) -> "FieldElement":
        """The element sum_k vec[k] * beta^k, for rational coordinates and
        a vector of any length."""
        v = [Fraction(x) for x in vec]
        q = math.lcm(*(c.denominator for c in v))
        return FieldElement(self, self._reduce(
            [c.numerator * (q // c.denominator) for c in v]), q)

    def _reduce(self, v: list) -> Tuple[int, ...]:
        """The d integer coordinates of sum_k v[k] beta^k: the top
        coordinate c is folded down by beta^d = -(a_0 + ... + a_{d-1}
        beta^{d-1}) until d coordinates remain."""
        d = self.degree
        low = self.poly.coeffs[:d]
        while len(v) > d:
            c = v.pop()
            if c:
                k = len(v) - d
                for i, a in enumerate(low):
                    v[k + i] -= c * a
        return tuple(v) + (0,) * (d - len(v))

    def _mul(self, x, y) -> Tuple[int, ...]:
        """The integer coordinates of (sum x_i beta^i)(sum y_j beta^j)."""
        prod = [0] * (2 * self.degree - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        return self._reduce(prod)

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def beta(self) -> "FieldElement":
        return self.element([0, 1])

    # -- the fixed-point evaluator -------------------------------------------

    def _table(self, bits: int):
        """(B, E) at precision P = bits for i = 1..d-1: beta^i 2^P lies in
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
        """(A, R) with sum v_i beta^i 2^P in [A - R, A + R]: A sums
        v_i B_i, R bounds the rounding of the powers by sum |v_i| E_i."""
        b, e = self._table(bits)
        a, r = v[0] << bits, 0
        for vi, bi, ei in zip(v[1:], b, e):
            a += vi * bi
            r += abs(vi) * ei
        return a, r

    def _decide(self, v, q: int, read, bits: int = FIXED_BITS):
        """(read(v/q), P) for a read of an integer over a positive one
        (floor division, true division, sign, or a floor together with the
        float of what is left): exact when v/q is rational,
        else read at both ends of the fixed-point enclosure
        [A - R, A + R] / (q 2^P), doubling P from `bits` until the two
        agree.  v/q is then irrational, so it is neither zero, an integer
        nor a float rounding boundary, and the doubling ends."""
        if not any(v[1:]):
            return read(v[0], q), bits
        while True:
            a, r = self._fixed(v, bits)
            den = q << bits
            lo = read(a - r, den)
            if read(a + r, den) == lo:
                return lo, bits
            bits *= 2

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
    """The element sum_k num[k] beta^k / den of a NumberField: an integer
    vector over a positive denominator, in lowest terms, so that equal
    elements have equal representations."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: Tuple[int, ...],
                 den: int = 1):
        g = math.gcd(den, *num)
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.field = field
        self.num = num
        self.den = den

    @property
    def vec(self) -> Tuple[Fraction, ...]:
        """The power-basis coordinates, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- ring ops ---------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                if self.field.same_field(other.field):
                    return FieldElement(self.field, other.num, other.den)
                raise TypeError(
                    "mixing elements of distinct algebraic fields is not "
                    "supported; express both in one field")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        p, q = self.den, o.den
        return FieldElement(self.field, tuple(
            a * q + b * p for a, b in zip(self.num, o.num)), p * q)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field._mul(self.num, o.num),
                            self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by Cayley-Hamilton: the characteristic
        polynomial p_0 + p_1 t + ... + p_n t^n of multiplication by x
        vanishes at x, and p_0 is, up to a factor, the norm of x, nonzero,
        so 1/x = -(p_1 + p_2 x + ... + p_n x^(n-1)) / p_0."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        p = _charpoly(self).coeffs
        acc = self.field.from_rational(p[-1])
        for c in reversed(p[1:-1]):
            acc = acc * self + c
        return acc * Fraction(-1, p[0])

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
        return not any(self.num)

    def to_rational(self) -> Optional[Fraction]:
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def sign(self) -> int:
        return self.field._decide(self.num, self.den, _sign)[0]

    def floor(self) -> int:
        return self.field._decide(self.num, self.den, operator.floordiv)[0]

    __floor__ = floor

    def enclosure(self, bits: int = 64) -> Tuple[Fraction, Fraction]:
        """Certified rational interval of width below 2^-bits: the cell
        [k, k + 1] / 2^(bits+1) with k the floor of 2^(bits+1) times this
        element."""
        n = bits + 1
        k = self.field._decide(self.num, self.den,
                               lambda a, q: (a << n) // q)[0]
        return Fraction(k, 2 ** n), Fraction(k + 1, 2 ** n)

    def __float__(self) -> float:
        """The float nearest this element.  An enclosure end beyond float
        range reads as an infinity, so wide ends disagree and P doubles; an
        agreed infinity raises OverflowError, as float() of a Fraction does.
        Ends that underflow to zeros of two signs agree, so a zero takes
        the element's sign."""
        f = self.field._decide(self.num, self.den, _float_or_inf)[0]
        if math.isinf(f):
            raise OverflowError("field element too large for a float")
        return f or 0.0 * self.sign()

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
        root) are equal iff their representations are; across fields, only
        two rational values are compared."""
        if isinstance(other, FieldElement):
            if self.field.same_field(other.field):
                return self.num == other.num and self.den == other.den
            r = self.to_rational()
            return r is not None and r == other.to_rational()
        if isinstance(other, (int, Fraction)):
            return self.to_rational() == other
        return NotImplemented

    def __hash__(self):
        r = self.to_rational()
        if r is not None:
            return hash(r)
        return hash((self.field.poly.coeffs, self.num, self.den))

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
        # isolating interval: narrow the enclosure until it holds exactly
        # one root of the target
        bits = 16
        while True:
            lo, hi = self.enclosure(bits)
            if target.count_roots(lo, hi) == 1:
                return AlgebraicNumber(target, lo, hi, _validated=True)
            bits *= 2


def _charpoly(x: FieldElement) -> IntPolynomial:
    """The characteristic polynomial of multiplication by x on the power
    basis, as a primitive integer polynomial.  With x = v / D, the matrix M
    of v is integral, and Faddeev-LeVerrier gives its characteristic
    polynomial sum c_i t^i in integers: with M_1 = I,
    c_(n-k) = -tr(M M_k) / k and M_(k+1) = M M_k + c_(n-k) I, every division
    exact.  That of x is then proportional to sum c_i D^i t^i."""
    field, n = x.field, x.field.degree
    col, cols = x.num, []                       # v beta^j, column by column
    for _ in range(n):
        cols.append(col)
        col = field._reduce([0, *col])
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
    return IntPolynomial(tuple(ci * x.den ** i for i, ci in enumerate(c))
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


@functools.cache
def _named(poly: str) -> Tuple[IntPolynomial, Fraction, Fraction]:
    """The isolation of the largest real root, found once per polynomial.
    A number refines in place, so each caller gets a fresh one built on it."""
    a = AlgebraicNumber.largest_root(IntPolynomial.parse(poly))
    return a.min_poly, a.lo, a.hi


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
    return AlgebraicNumber(*_named(table[name]), _validated=True)


ExactScalar = Union[Fraction, FieldElement]


def parse_fraction(text: str) -> Fraction:
    """A rational like '-2/3'; a zero denominator raises a
    ZeroDivisionError that names the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"{text!r} divides by zero") from None


def parse_scalar(text: str) -> ExactScalar:
    """Parse an exact scalar: a rational like '-2/3', a named constant like
    'golden', or simple quotient forms '1/golden', 'golden/2', '-1/golden'."""
    text = text.strip()
    try:
        return parse_fraction(text)
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

    try:
        value = to_part(num) / to_part(den) if den else to_part(num)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"{text!r} divides by zero") from None
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

