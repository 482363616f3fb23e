"""Exact scalar layer: certified roots, Pisot detection, multiplicative
relations, and interval arithmetic soundness."""

import gc
import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import betascenery as bs
from oracles import (STALLING_PISOT, bisected_root, field_inverse,
                     field_product, field_value, nearest_float_moduli,
                     pslq_relation, root_moduli, unit_disk_root_count)
from betascenery import (
    AlgebraicNumber,
    BigReal,
    Dependent,
    IndependentCertified,
    IntPolynomial,
    NumberField,
    is_pisot,
    isolate_real_roots,
    multiplicative_relation,
    named_constant,
    parse_scalar,
    scalar_to_str,
)
from betascenery.algebraics import monic_scaled_field, refine_real_root, roots
from betascenery.algebraics.multiplicative import _exponent_bound, _log_abs


# certified float values of the named constants (independent references)
FROZEN_ROOTS = {
    "golden": 1.618033988749895,
    "tribonacci": 1.8392867552141612,
    "plastic": 1.324717957244746,
    "sqrt2": 1.4142135623730951,
}


class TestRoots:
    @pytest.mark.parametrize("name,val", sorted(FROZEN_ROOTS.items()))
    def test_named_constants(self, name, val):
        a = named_constant(name)
        assert abs(float(a) - val) < 1e-14

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("lo,hi", [("1/2", "2"), ("2/3", "5/3"),
                                       ("3/4", "9/7"), ("4/5", "7/5"),
                                       ("9/10", "13/5"), ("1/2", "5/3")])
    def test_float_is_the_nearest_float(self, sign, lo, hi):
        # a root 2^-127 above or below 1 + 2^-53, the midpoint of the floats
        # 1 and 1 + 2^-52: the midpoint of a 2^-64-wide enclosure rounds to
        # either, depending on where the enclosure starts
        d = 2 ** 53
        poly = IntPolynomial((2 ** 72 * 5 * (d + 1) + sign,
                              -(2 ** 72) * (6 * d + 1), 2 ** 72 * d))
        root = AlgebraicNumber(poly, Fraction(lo), Fraction(hi))
        assert float(root) == (1 + 2.0 ** -52 if sign > 0 else 1.0)
        assert root.cmp_rational(1 + Fraction(1, 2 ** 53)) == sign
        assert (root.lo, root.hi) == (Fraction(lo), Fraction(hi))

    @pytest.mark.parametrize("make", [
        lambda: named_constant("tribonacci"),
        lambda: AlgebraicNumber.largest_root("2*x^2 - 2*x - 1")],
        ids=["tribonacci", "non-monic"])
    def test_decisions_read_the_field_evaluator(self, monkeypatch, make):
        # float, floor, comparison and sign of a fresh number all reach
        # NumberField._decide on the number's own field, and none narrows
        # the number: a second, refining path would show up here
        decides, narrowed = [], []
        decide, refine_bits = NumberField._decide, AlgebraicNumber.refine_bits

        def spy_decide(field, *args):
            decides.append(field)
            return decide(field, *args)

        def spy_refine_bits(a, bits):
            narrowed.append(a)
            return refine_bits(a, bits)

        monkeypatch.setattr(NumberField, "_decide", spy_decide)
        monkeypatch.setattr(AlgebraicNumber, "refine_bits", spy_refine_bits)
        for read in (float, math.floor,
                     lambda a: a.cmp_rational(Fraction(3, 2)),
                     lambda a: a.sign()):
            a = make()
            before = (a.lo, a.hi)
            decides.clear()
            narrowed.clear()
            read(a)
            assert decides and all(f is monic_scaled_field(a)[0]
                                   for f in decides)
            assert a not in narrowed and (a.lo, a.hi) == before

    def test_refine_tightens(self):
        a = named_constant("golden")
        lo, hi = a.refine_bits(200)
        assert Fraction(hi) - Fraction(lo) <= Fraction(1, 2 ** 200)
        # bracket of the golden number to 10 decimals
        assert lo <= Fraction(16180339888, 10 ** 10)
        assert hi >= Fraction(16180339887, 10 ** 10)

    def test_isolate_cubic(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        iso = isolate_real_roots(IntPolynomial((-6, 11, -6, 1)))
        assert len(iso.real_roots) == 3
        vals = sorted(float(Fraction(r.lo + r.hi) / 2) for r in iso.real_roots)
        for got, want in zip(vals, [1.0, 2.0, 3.0]):
            assert abs(got - want) < 1e-6

    def test_isolate_sqrt2(self):
        iso = isolate_real_roots(IntPolynomial((-2, 0, 1)))
        assert len(iso.real_roots) == 2
        hi = max(float(Fraction(r.lo + r.hi) / 2) for r in iso.real_roots)
        assert abs(hi - math.sqrt(2)) < 1e-6

    def test_no_real_roots(self):
        iso = isolate_real_roots(IntPolynomial((1, 0, 1)))
        assert iso.real_roots == []
        assert len(iso.complex_pairs) == 1

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=6),
           st.integers(1, 40), st.integers(-40, 40), st.integers(0, 6),
           st.integers(0, 320), st.integers(1, 7), st.booleans())
    @example([-2, 0, 1], 1, 0, 0, 200, 1, True)         # sqrt 2 and 0
    @example([-1, -1, 1], 8, 3, 2, 64, 3, False)         # golden and 3/8
    @settings(max_examples=120, deadline=None)
    def test_refine_matches_bisection(self, coeffs, q, c, start, bits,
                                      num, dyadic):
        """refine_real_root, Newton guess or not, returns exactly the
        interval of plain bisection, a rational root c / q hit on the grid
        included, for widths over powers of 2 and of 3."""
        p = IntPolynomial(tuple(coeffs))
        if p.degree >= 1:
            # a factor q x - c puts a rational root in p
            p = IntPolynomial(tuple(
                sum(a * b for i, a in enumerate(p.coeffs)
                    for j, b in enumerate((-c, q)) if i + j == k)
                for k in range(p.degree + 2)))
        assume(p.degree >= 1 and p.squarefree())
        width = Fraction(num, 2 ** bits if dyadic else 3 ** (bits // 2))
        for iv in roots.real_root_intervals(p, start):
            got = refine_real_root(p, iv.lo, iv.hi, width)
            assert (got.lo, got.hi) == bisected_root(p.coeffs, iv.lo, iv.hi,
                                                     width)

    @pytest.mark.parametrize("poly", sorted(STALLING_PISOT))
    def test_disks_hold_the_roots(self, poly):
        disks = isolate_real_roots(IntPolynomial.parse(poly)).complex_pairs
        _each_holds_one_root(_upper_roots(STALLING_PISOT[poly]), disks)

    def test_close_roots_get_disjoint_disks(self):
        """2^80 (x^2 + 1)^2 + 1 is square-free, with its two upper roots
        about 2^-40 from i, where double-precision starts sit about 1e-8
        off: Aberth steps still part them into two certified disks."""
        s = 2 ** 80
        p = IntPolynomial((s + 1, 0, 2 * s, 0, s))
        disks = roots.complex_root_disks(p, 2, 64)
        assert len(disks) == 2
        _each_holds_one_root(_upper_roots(list(reversed(p.coeffs))), disks)

    def test_circle_start_beyond_float_range(self):
        """A coefficient past float range leaves numpy no seeds; the circle
        start finds the roots near the cube roots of unity of
        2^1100 (x^2 + x + 1) + 1."""
        s = 2 ** 1100
        with pytest.raises(OverflowError):
            float(s)
        iso = isolate_real_roots(IntPolynomial((s + 1, s, s)))
        assert iso.real_roots == []
        _each_holds_one_root(_upper_roots([s, s, s + 1]), iso.complex_pairs)

    def test_circle_start_on_two_radii(self):
        """x^4 + 2^1100 x^2 + 1 has roots at i times the square roots of
        (2^1100 +- sqrt(2^2200 - 4)) / 2, about 2^550 and 2^-550: the
        circle start puts two points on each radius of its Newton
        polygon."""
        iso = isolate_real_roots(IntPolynomial((1, 0, 2 ** 1100, 0, 1)))
        with mpmath.workprec(4000):
            s = mpmath.mpf(2) ** 1100
            d = mpmath.sqrt(s * s - 4)
            upper = [mpmath.mpc(0, mpmath.sqrt((s + e) / 2)) for e in (d, -d)]
        _each_holds_one_root(upper, iso.complex_pairs)

    def test_disk_check_refuses_bad_disks(self):
        p = IntPolynomial.parse("x^3 - x - 1")
        disk, = roots.complex_root_disks(p, 1, 64)
        assert roots._certified([disk])
        assert not roots._certified([disk, disk])           # overlapping
        on_axis = roots._newton_disk(p, p.derivative(), disk.re, 0,
                                     disk.scale)
        assert not roots._certified([on_axis])


def _upper_roots(coeffs):
    """The roots in the upper half plane of the polynomial with coefficients
    `coeffs`, highest first, by mpmath.polyroots at 60 digits."""
    with mpmath.workdps(60):
        return [z for z in mpmath.polyroots(coeffs, maxsteps=500,
                                            extraprec=200)
                if mpmath.im(z) > mpmath.mpf(10) ** -40 * abs(z)]


def _each_holds_one_root(upper, disks):
    """Each disk holds exactly one of the roots `upper`, and there are as
    many disks as roots."""
    assert len(disks) == len(upper)
    for disk in disks:
        with mpmath.workprec(2 * disk.scale.bit_length() + 64):
            center = mpmath.mpc(disk.re, disk.im) / disk.scale
            inside = [z for z in upper if abs(z - center) <=
                      mpmath.mpf(disk.radius) / disk.scale]
        assert len(inside) == 1


# golden, tribonacci, plastic and supergolden (the cubic and quadratic
# Pisot bases of the certify benchmark), and x^4 - x^3 - x^2 - x - 1
PISOT_BASES = ["x^2 - x - 1", "x^3 - x^2 - x - 1", "x^3 - x - 1",
               "x^3 - x^2 - 1", "x^4 - x^3 - x^2 - x - 1"]


class TestPisot:
    def test_integers(self):
        assert is_pisot(2)
        assert is_pisot(10)
        assert not is_pisot(1)

    def test_classic_numbers(self):
        assert is_pisot(named_constant("golden"))
        assert is_pisot(named_constant("tribonacci"))
        assert is_pisot(named_constant("plastic"))

    def test_sqrt2_not_pisot(self):
        # conjugate -sqrt(2) has modulus > 1
        assert not is_pisot(named_constant("sqrt2"))

    def test_salem_not_pisot(self):
        # x^4 - x^3 - x^2 - x + 1 has conjugates on the unit circle
        poly = IntPolynomial((1, -1, -1, -1, 1))
        root = AlgebraicNumber.largest_root(poly)
        assert float(root) > 1
        assert not is_pisot(root)

    def test_quadratic_pisot(self):
        # x^2 - 3x + 1: root (3+sqrt5)/2, conjugate (3-sqrt5)/2 in (0,1)
        root = AlgebraicNumber.largest_root(IntPolynomial((1, -3, 1)))
        assert abs(float(root) - (3 + math.sqrt(5)) / 2) < 1e-12
        assert is_pisot(root)

    def test_non_algebraic_integer(self):
        assert not is_pisot(Fraction(3, 2))

    @pytest.mark.parametrize("poly", PISOT_BASES + [
        "x^2 - 2", "x^4 - x^3 - x^2 - x + 1", "x^3 - 5*x^2 + 6*x - 1"])
    def test_interval_reaching_the_next_lower_root(self, poly):
        # x's interval starts on the upper end of the isolation interval of
        # the next-lower real root, or on the lower root bound where there
        # is none, so that the two meet; in x^3 - 5x^2 + 6x - 1 that root
        # exceeds 1 and still meets x's interval after x is compared to 1
        p = IntPolynomial.parse(poly)
        bound = 1 + max(abs(c) for c in p.coeffs)
        real = isolate_real_roots(p).real_roots
        lo = real[-2].hi if len(real) > 1 else -bound
        x = AlgebraicNumber(p, lo, bound)
        coeffs = list(reversed(p.coeffs))
        count = unit_disk_root_count(coeffs)
        want = count == p.degree - 1 and sum(coeffs) < 0
        assert is_pisot(x) == want
        assert want == (poly in PISOT_BASES)


# Pairs (a, b) checked against mpmath.pslq: a rational, or a polynomial
# standing for its largest real root.
RELATION_TABLE = [
    ("1/2", "x^2 - 2"),                           # (1/2)^1 = sqrt2^-2
    ("1/3", "x^2 - x - 1"),
    ("1/3", "x^3 - x - 1"),
    ("1/4", "x^4 - 2"),                           # (1/4)^1 = (2^1/4)^-8
    ("x^2 - x - 1", "2"),
    ("x^2 + x - 1", "x^2 - x - 1"),               # 1/golden, golden
    ("x^2 - 3*x + 1", "x^2 - 4*x - 1"),           # golden^2, golden^3
    ("x^2 + x - 1", "x^3 - x^2 - x - 1"),
    ("x^3 - x - 1", "x^3 - x^2 - x - 1"),
    ("x^3 - x - 1", "x^3 - 3*x^2 + 2*x - 1"),     # plastic, plastic^3
    ("x^3 - 2", "x^2 - 2"),                       # 2^1/3, 2^1/2
    ("x^3 - x^2 - x - 1", "x^4 - x^3 - x^2 - x - 1"),
    ("x^4 - 2", "x^2 - 2"),                       # 2^1/4, 2^1/2
    ("x^4 - 4*x^2 + 2", "x^2 - 2"),
    ("x^4 - x^3 - x^2 - x - 1", "x^2 - 3*x + 1"),
]


def _relation_operand(text):
    if "x" in text:
        return AlgebraicNumber.largest_root(IntPolynomial.parse(text))
    return Fraction(text)


def _oracle_operand(text):
    if "x" in text:
        return list(reversed(IntPolynomial.parse(text).coeffs))
    return Fraction(text)


class TestMultiplicativeRelation:
    def test_power_relations(self):
        v = multiplicative_relation(Fraction(1, 3), 3)
        assert isinstance(v, Dependent)
        assert (Fraction(1, 3) ** v.q) == Fraction(3) ** v.p

        v = multiplicative_relation(Fraction(1, 4), 2)
        assert isinstance(v, Dependent)
        assert (Fraction(1, 4) ** v.q) == Fraction(2) ** v.p

        v = multiplicative_relation(Fraction(1, 6), Fraction(1, 6))
        assert isinstance(v, Dependent)
        assert (v.p, v.q) == (1, 1)

    def test_prime_support_independence(self):
        v = multiplicative_relation(Fraction(2, 3), 2)
        assert isinstance(v, IndependentCertified)
        v = multiplicative_relation(Fraction(1, 2), 3)
        assert v == IndependentCertified(
            "prime-exponent test: prime supports differ")
        v = multiplicative_relation(Fraction(4, 9), Fraction(2, 27))
        assert v == IndependentCertified(
            "prime-exponent test: exponent vectors are not proportional")

    def test_same_algebraic(self):
        g = named_constant("golden")
        v = multiplicative_relation(g, g)
        assert isinstance(v, Dependent)
        assert (v.p, v.q) == (1, 1)

    def test_rational_vs_golden(self):
        # h(golden) <= log(sqrt 3) / 2 and h_min(2) = 1 / (log 6)^3 leave
        # q = 1 alone, and (1/2)^1 is no power of the golden number
        v = multiplicative_relation(Fraction(1, 2), named_constant("golden"))
        assert v == IndependentCertified(
            "height bound: no relation with q <= 1 (D = 2)")

    def test_tiny_operands(self):
        # 2^-300 and 3 * 2^-400 lie below 2^-192, the first enclosure of
        # their logarithms
        s2 = AlgebraicNumber.largest_root(IntPolynomial.parse("x^2 - 2"))
        assert multiplicative_relation(Fraction(1, 2 ** 300), s2) == \
            Dependent(-600, 1)
        assert multiplicative_relation(s2, Fraction(3, 2 ** 400)) == \
            IndependentCertified(
                "height bound: no relation with q <= 1594 (D = 2)")

    def test_golden_powers(self):
        g = named_constant("golden")
        sq = AlgebraicNumber.largest_root(IntPolynomial((1, -3, 1)))  # g^2
        v = multiplicative_relation(sq, g)
        assert isinstance(v, Dependent)
        assert v.q * 2 == v.p  # sq^q = g^(2q)

    @pytest.mark.parametrize("a,b", RELATION_TABLE)
    def test_agrees_with_pslq(self, a, b):
        x, y = _relation_operand(a), _relation_operand(b)
        # every relation has |p|, |q| <= the larger of the two bounds
        bound = max(_exponent_bound(x, y)[1], _exponent_bound(y, x)[1])
        want = pslq_relation(_oracle_operand(a), _oracle_operand(b), bound)
        v = multiplicative_relation(x, y)
        if want is None:
            assert isinstance(v, IndependentCertified)
            assert v.reason.startswith("height bound: ")
        else:
            assert v == Dependent(*want)

    @pytest.mark.parametrize("a,b", RELATION_TABLE)
    def test_exponent_bound_formula(self, a, b):
        # Q* = floor(h(b) / h_min(D)) in floats, with h(b) from the 2-norm of
        # b's minimal polynomial; outward rounding may add at most one
        x, y = _relation_operand(a), _relation_operand(b)
        coeffs = _oracle_operand(b)
        if isinstance(coeffs, Fraction):
            coeffs = [coeffs.denominator, -coeffs.numerator]
        deg = len(coeffs) - 1
        D = deg * (len(_oracle_operand(a)) - 1
                   if isinstance(x, AlgebraicNumber) else 1)
        h_b = math.log(math.sqrt(sum(c * c for c in coeffs))) / deg
        q_max = math.floor(h_b / (2 / (D * math.log(3 * D) ** 3)))
        got_D, got_q = _exponent_bound(x, y)
        assert got_D == D and got_q in (q_max, q_max + 1)

    @given(coeffs=st.lists(st.integers(-4, 4), min_size=3, max_size=4),
           m=st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
           n=st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
    @example(coeffs=[-1, -1, 1], m=2, n=3)        # golden^2, golden^3
    @example(coeffs=[-1, -1, 0, 1], m=-3, n=2)    # plastic^-3, plastic^2
    @settings(max_examples=20, deadline=None)
    def test_powers_of_one_number_are_dependent(self, coeffs, m, n):
        # (|alpha|^m, |alpha|^n) has the relation p/q = m/n, whatever the
        # height bound: a bound that undercuts q would miss it
        assume(coeffs[-1] != 0 and coeffs[0] != 0)
        try:
            alpha = AlgebraicNumber.largest_root(IntPolynomial(tuple(coeffs)))
        except ValueError:                 # reducible, or no real root
            assume(False)
        field, c = monic_scaled_field(alpha)
        x = abs(field.beta() / c)
        v = multiplicative_relation(x ** m, x ** n)
        assert isinstance(v, Dependent)
        assert Fraction(v.p, v.q) == Fraction(m, n)

    @given(st.integers(2, 60), st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_integer_pairs_sound(self, a, b):
        v = multiplicative_relation(Fraction(a), Fraction(b))
        if isinstance(v, Dependent):
            assert Fraction(a) ** v.q == Fraction(b) ** v.p


# BigReal operands from raw integer endpoints of both signs at 0 to 96
# binary places, points among them; int and Fraction operands of both signs
BIGREALS = st.builds(lambda lo, width, prec: BigReal(lo, lo + width, prec),
                     st.integers(-2 ** 100, 2 ** 100),
                     st.one_of(st.just(0), st.integers(0, 2 ** 80)),
                     st.integers(0, 96))
OPERANDS = st.one_of(BIGREALS, st.integers(-10 ** 6, 10 ** 6),
                     st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 9))
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


# dyadic points for the log tests, each with the places it needs on top of
# the precision: next to 1, 2 and sqrt 2, and ends near 2^1000 and 2^-1000
LOG_POINTS = [(Fraction(2), 0), (Fraction(3), 0), (Fraction(7, 4), 0),
              (Fraction(11, 32), 0), (Fraction(181, 128), 0),
              (1 + Fraction(1, 2 ** 90), 0), (Fraction(3, 2) * 2 ** 1000, 0),
              (Fraction(2 ** 1000 - 2 ** 990), 0),
              (Fraction(5, 8) / 2 ** 1000, 1000),
              (Fraction(1, 2 ** 1000) + Fraction(1, 2 ** 1100), 1000)]


def _atanh_fraction_bounds(t: Fraction, places: int):
    """Fraction bounds on atanh(t) for 0 <= t < 1: the series' partial sum,
    and that plus the geometric bound t^(2K+1) / ((2K+1)(1 - t^2)) on its
    tail, with K terms enough to bring the tail below 2^-places."""
    s, k, power = Fraction(0), 0, t
    while True:
        tail = power / ((2 * k + 1) * (1 - t * t))
        if tail < Fraction(1, 2 ** places):
            return s, s + tail
        s += power / (2 * k + 1)
        k, power = k + 1, power * t * t


def _log_fraction_bounds(x: Fraction, places: int):
    """Fraction bounds on log x for x > 0, from x = 2^k m with m in [1, 2),
    log m = 2 atanh((m - 1) / (m + 1)) and log 2 = 2 atanh(1/3)."""
    k = x.numerator.bit_length() - x.denominator.bit_length()
    if x < Fraction(2) ** k:
        k -= 1
    m = x / Fraction(2) ** k
    m_lo, m_hi = _atanh_fraction_bounds((m - 1) / (m + 1), places)
    t_lo, t_hi = _atanh_fraction_bounds(Fraction(1, 3), places + 12)
    two = (t_lo, t_hi) if k >= 0 else (t_hi, t_lo)
    return 2 * (m_lo + k * two[0]), 2 * (m_hi + k * two[1])


def _exact_ends(v):
    return (v.lo, v.hi) if isinstance(v, BigReal) else (Fraction(v),)


class TestBigReal:
    @given(BIGREALS, OPERANDS, st.sampled_from(sorted(ARITHMETIC)),
           st.booleans())
    @example(BigReal(-3, 5, 2), Fraction(-7, 3), "/", True)
    @example(BigReal(1, 1, 0), BigReal(-2, 0, 7), "/", False)
    @settings(max_examples=600, deadline=None)
    def test_arithmetic_matches_fractions(self, x, y, op, flip):
        """Every result holds each exact combination of the operands'
        endpoints, and is wider than their hull by at most the two outward
        roundings of one unit in the last place, at the wider precision."""
        a, b = (y, x) if flip else (x, y)
        f, prec = ARITHMETIC[op], max(v.prec for v in (a, b)
                                      if isinstance(v, BigReal))
        if op == "/" and min(_exact_ends(b)) <= 0 <= max(_exact_ends(b)):
            with pytest.raises(ZeroDivisionError):
                f(a, b)
            return
        exact = [f(u, v) for u in _exact_ends(a) for v in _exact_ends(b)]
        got = f(a, b)
        assert got.prec == prec
        assert got.lo <= min(exact) and max(exact) <= got.hi
        assert got.hi - got.lo <= \
            max(exact) - min(exact) + Fraction(2, 2 ** prec)

    @given(BIGREALS)
    @example(BigReal.from_fraction(Fraction(1, 3)))
    @example(BigReal(-1, 2 ** 60 + 1, 60))
    @settings(max_examples=300, deadline=None)
    def test_float_is_the_nearest_to_the_midpoint(self, x):
        """float() rounds the exact midpoint, so it lies in [lo, hi]
        whenever a float does."""
        f = float(x)
        assert f == float((x.lo + x.hi) / 2)
        first = float(x.lo)
        if Fraction(first) < x.lo:
            first = math.nextafter(first, math.inf)
        assert x.lo <= Fraction(f) <= x.hi or Fraction(first) > x.hi

    def test_from_fraction_contains(self):
        x = BigReal.from_fraction(Fraction(1, 3), 128)
        assert x.contains(Fraction(1, 3))
        assert Fraction(x.hi) - Fraction(x.lo) <= Fraction(1, 2 ** 120)

    def test_elementary_functions(self):
        mpmath.mp.prec = 300
        eps = Fraction(1, 10 ** 60)  # decimal-string rounding slack
        x = BigReal.from_fraction(Fraction(7, 5), 256)
        got = x.log()
        ref = Fraction(mpmath.nstr(mpmath.log(mpmath.mpf(7) / 5), 70))
        assert Fraction(got.lo) - eps <= ref <= Fraction(got.hi) + eps

    @given(st.lists(st.tuples(st.integers(-2 ** 70, 2 ** 70),
                              st.integers(-90, 20)), min_size=2, max_size=2),
           st.integers(-3, 3))
    @example([(0, 0), (0, 0)], 0)
    @example([(0, 0), (5, 0)], 0)
    @example([(-7, 0), (-7, 0)], 0)
    @example([(3, -1), (5, -1)], 0)
    @example([(-1, -200), (1, -200)], 2)
    @settings(max_examples=300, deadline=None)
    def test_mantissa_floors_match_fractions(self, ends, shift):
        # endpoints man * 2^exp of both signs, exponents below and above
        # zero, zero and integers; the interval may straddle an integer,
        # which moves by `shift` so that it is not always 0
        ends = sorted((Fraction(m) * Fraction(2) ** e + shift for m, e in ends))
        # 200 binary places hold every endpoint exactly
        x = BigReal.from_interval(ends[0], ends[1], 200)
        assert (x.lo, x.hi) == tuple(ends)

    @given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)))
    @settings(max_examples=60, deadline=None)
    def test_enclosure_soundness(self, q):
        mpmath.mp.prec = 200
        x = BigReal.from_fraction(q, 160)
        got = x.log()
        ref = mpmath.log(mpmath.mpf(q.numerator) / q.denominator)
        lo, hi = Fraction(got.lo), Fraction(got.hi)
        assert lo <= Fraction(str(ref)) + Fraction(1, 2 ** 150)
        assert hi >= Fraction(str(ref)) - Fraction(1, 2 ** 150)

    @pytest.mark.parametrize("prec", [128, 192, 256])
    @pytest.mark.parametrize("x,shift", LOG_POINTS)
    def test_log_of_a_point(self, prec, x, shift):
        """log of the one-point interval x: at most 2 units of 2^-prec wide
        and inside mpmath's value at 400 bits, give or take 2^-390, and
        around the Fraction bounds of the atanh partial sums; x near 2^-1000
        is read on `shift` more places."""
        prec += shift
        n = x * 2 ** prec
        assert n.denominator == 1
        n = n.numerator
        got = BigReal(n, n, prec).log()
        assert 0 <= got._hi - got._lo <= 2
        with mpmath.workprec(400):
            ref = mpmath.log(mpmath.mpf(n) / mpmath.mpf(2) ** prec)
            tol = mpmath.mpf(2) ** -390
            assert mpmath.mpf(got._lo) / 2 ** prec - tol <= ref <= \
                mpmath.mpf(got._hi) / 2 ** prec + tol
        lo, hi = _log_fraction_bounds(Fraction(n, 2 ** prec), prec + 64)
        assert got.lo <= lo <= hi <= got.hi

    def test_log_abs_near_one(self):
        """|x| = 1 +- 2^-300: the enclosure of log|x| leaves 0 on the
        right side once the places pass 300."""
        eps = Fraction(1, 2 ** 300)
        for x, sign in ((1 + eps, 1), (-1 - eps, 1), (1 - eps, -1)):
            got = _log_abs(x)
            assert not got.contains(0)
            assert (got.lo > 0) == (sign > 0) and (got.hi < 0) == (sign < 0)
            assert got.contains(sign * eps - eps * eps / 2)


class TestScalarParsing:
    @pytest.mark.parametrize("text", ["1/3", "-2/7", "5", "0"])
    def test_rational_round_trip(self, text):
        x = parse_scalar(text)
        assert isinstance(x, Fraction)
        assert parse_scalar(scalar_to_str(x)) == x

    def test_field_element_display(self):
        s = scalar_to_str(parse_scalar("golden"))
        assert "1.6180339887" in s
        assert "x^2 - x - 1" in s

    def test_algebraic_display(self):
        s = scalar_to_str(named_constant("tribonacci"))
        assert "1.8392867552" in s

    def test_enclosure_width(self):
        g = parse_scalar("golden")
        lo, hi = g.enclosure(100)
        assert Fraction(hi) - Fraction(lo) <= Fraction(1, 2 ** 100)
        assert lo <= Fraction(16180339888, 10 ** 10)
        assert hi >= Fraction(16180339887, 10 ** 10)

    def test_exact_sign(self):
        g = named_constant("golden")
        assert g.sign() == 1
        assert float(g) == pytest.approx(1.618033988749895, abs=1e-14)


class TestStallingPisot:
    @pytest.mark.parametrize("poly", sorted(STALLING_PISOT))
    def test_pisot_against_numpy(self, poly):
        want = root_moduli(STALLING_PISOT[poly])
        root = AlgebraicNumber.largest_root(IntPolynomial.parse(poly))
        assert abs(float(root) - want[0]) < 1e-9
        assert want[0] > 1 and all(m < 1 for m in want[1:])
        assert is_pisot(root)
        got = sorted((float((lo + hi) / 2)
                      for lo, hi in root.conjugates().all_modulus_bounds()),
                     reverse=True)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9


class TestDiskSweep:
    """is_pisot against the Schur-Cohn count and the conjugate moduli
    against mpmath, over random irreducible integer polynomials."""

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=6),
           st.sampled_from([1, 1, 1, 2]))
    @example([-1, -1, -1], 1)              # tribonacci
    @example([-1, -1, -1, -1], 1)          # tetranacci
    @example([-1, -1, -1, 1], 1)           # Salem: two roots on the circle
    @example([-3, 1], 1)                   # x^2 - 3x + 1, self-reciprocal
    @settings(max_examples=80, deadline=None)
    def test_is_pisot_and_moduli(self, tail, lead):
        coeffs = [lead] + tail                      # highest degree first
        poly = IntPolynomial(tuple(reversed(coeffs)))
        assume(tail[-1] != 0 and math.gcd(*coeffs) == 1 and
               poly.is_irreducible())
        try:
            root = AlgebraicNumber.largest_root(poly)
        except ValueError:                          # no real root
            assume(False)
        count = unit_disk_root_count(coeffs)
        if count is not None:
            # Pisot: an algebraic integer whose conjugates but one lie
            # inside the circle, and that one exceeds 1, so that p(1) < 0
            want = lead == 1 and count == poly.degree - 1 and sum(coeffs) < 0
            assert is_pisot(root) == want
        # the same floats whatever precision the isolation starts from
        want = nearest_float_moduli(coeffs)
        assert root.conjugates().conjugate_moduli() == want
        assert isolate_real_roots(poly, precision=8).conjugate_moduli() == want


class TestFieldEquality:
    def test_roots_of_one_polynomial_differ(self):
        up = NumberField(AlgebraicNumber("x^2 - x - 1", 1, 2))
        down = NumberField(AlgebraicNumber("x^2 - x - 1", -1, 0))
        again = NumberField(AlgebraicNumber("x^2 - x - 1", Fraction(3, 2), 2))
        assert up.beta() != down.beta()
        assert not (up.beta() == down.beta())
        assert up.beta() == again.beta()
        assert hash(up.beta()) == hash(again.beta())
        assert up.from_rational(3) == down.from_rational(3)

    def test_dropped_fields_leave_no_verdict(self):
        # a freed field's address is often reused by the next one; the
        # same-field verdict must not pass from one to the other
        up = NumberField(AlgebraicNumber("x^2 - x - 1", 1, 2))
        for k in range(40):
            if k % 2:
                other = NumberField(
                    AlgebraicNumber("x^2 - x - 1", Fraction(3, 2), 2))
                assert up.beta() == other.beta()
                assert up.beta() - other.beta() == 0
            else:
                other = NumberField(AlgebraicNumber("x^2 - x - 1", -1, 0))
                assert up.beta() != other.beta()
                with pytest.raises(TypeError):
                    up.beta() - other.beta()
            del other
            gc.collect()

    def test_clustered_roots_near_a_tenth(self):
        # x^7 - 2 (10x - 1)^2 has two roots within 10^-4 of 1/10; the
        # verdict must come from the intervals as given, which it leaves
        poly = "x^7 - 200*x^2 + 40*x - 2"
        ivs = roots.real_root_intervals(IntPolynomial.parse(poly), 40)
        left, right = [r for r in ivs if abs(r.lo - Fraction(1, 10)) < 1e-3]
        gap = right.lo - left.hi
        low = AlgebraicNumber(poly, left.lo, left.hi + 2 * gap / 3)
        high = AlgebraicNumber(poly, left.hi + gap / 3, right.hi)
        narrow = AlgebraicNumber(poly, left.lo, left.hi)
        before = [(x.lo, x.hi) for x in (low, high, narrow)]
        assert not low.equals(high) and not high.equals(low)
        assert low.equals(narrow) and narrow.equals(low)
        assert not high.equals(narrow)
        assert [(x.lo, x.hi) for x in (low, high, narrow)] == before

    def test_rational_value_hashes_as_fraction(self):
        field = NumberField(named_constant("golden"))
        h = field.from_rational(Fraction(1, 2))
        assert h == Fraction(1, 2) and Fraction(1, 2) == h
        assert hash(h) == hash(Fraction(1, 2))
        assert len({h, Fraction(1, 2)}) == 1
        assert hash(field.from_rational(2)) == hash(2)


# Horner oracle: the generator as an mpmath root at 200 digits
ORACLE_DPS = 200


def _mp_generator(poly: str, approx: float):
    coeffs = list(reversed(IntPolynomial.parse(poly).coeffs))
    with mpmath.workdps(ORACLE_DPS):
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=4 * ORACLE_DPS)
        return min((mpmath.re(z) for z in roots if abs(mpmath.im(z)) < 1e-100),
                   key=lambda r: abs(r - approx))


ORACLE_FIELDS = {
    "golden": ("x^2 - x - 1", 1.618033988749895),
    "tribonacci": ("x^3 - x^2 - x - 1", 1.8392867552141612),
}
_MP_BETA = {name: _mp_generator(*spec) for name, spec in ORACLE_FIELDS.items()}

small_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=16)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


REDUCTION_FIELDS = ["golden", "tribonacci", "plastic",
                    "x^6 - x^5 - x^4 - x^3 - x^2 - x - 1"]


class TestElementReduction:
    def test_golden_fourth_power(self):
        field = NumberField(named_constant("golden"))
        assert field.element([0, 0, 0, 0, 1]).vec == (2, 3)

    @given(name=st.sampled_from(REDUCTION_FIELDS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_long_vectors_match_powers(self, name, data):
        # any length up to 4d, against sum v_k beta^k by repeated products
        field = NumberField(AlgebraicNumber.largest_root(
            IntPolynomial.parse(name)) if name[0] == "x"
            else named_constant(name))
        vec = data.draw(st.lists(small_rationals,
                                 max_size=4 * field.degree))
        beta, power = field.beta(), field.from_rational(1)
        want = field.from_rational(0)
        for c in vec:
            want = want + power * c
            power = power * beta
        assert field.element(vec).vec == want.vec


DIFFERENTIAL_FIELDS = {
    "golden": "x^2 - x - 1",
    "tribonacci": "x^3 - x^2 - x - 1",
    "plastic": "x^3 - x - 1",
    "sextic": "x^6 + 9*x^5 + 3*x^4 - 8*x^3 - 8*x^2 - 6*x + 4",
}
_DIFF_ROOTS = {name: AlgebraicNumber.largest_root(IntPolynomial.parse(poly))
               for name, poly in DIFFERENTIAL_FIELDS.items()}


@st.composite
def field_and_vectors(draw, count):
    name = draw(st.sampled_from(sorted(DIFFERENTIAL_FIELDS)))
    d = _DIFF_ROOTS[name].degree
    return name, [draw(st.lists(small_rationals, min_size=d, max_size=d))
                  for _ in range(count)]


class TestFieldElementDifferential:
    """FieldElement against sympy's Q[x]/(p) and mpmath at 60 digits, over
    a fresh field per example, so that no evaluation state carries over."""

    @given(field_and_vectors(2))
    @settings(max_examples=80, deadline=None)
    def test_products_and_inverses_match_sympy(self, drawn):
        name, (a, b) = drawn
        root = _DIFF_ROOTS[name]
        field = NumberField(root)
        x, y = field.element(a), field.element(b)
        poly = root.min_poly.coeffs
        assert list((x * y).vec) == field_product(poly, a, b)
        if any(a):
            inv = x.inverse()
            assert list(inv.vec) == field_inverse(poly, a)
            assert x * inv == 1 and inv * x == field.from_rational(1)

    @given(field_and_vectors(1))
    @settings(max_examples=80, deadline=None)
    def test_sign_floor_float_match_mpmath(self, drawn):
        name, (a,) = drawn
        root = _DIFF_ROOTS[name]
        x = NumberField(root).element(a)
        v = field_value(root.min_poly.coeffs, float(root), a)
        with mpmath.workdps(60):
            assert x.sign() == int(mpmath.sign(v))
            assert math.floor(x) == int(mpmath.floor(v))
        assert float(x) == float(v)

    @given(st.sampled_from(sorted(DIFFERENTIAL_FIELDS)), small_rationals)
    @settings(max_examples=40, deadline=None)
    def test_rational_element_is_its_fraction(self, name, q):
        field = NumberField(_DIFF_ROOTS[name])
        beta = field.beta()
        for e in (field.from_rational(q), (beta + q) - beta,
                  (beta * q) / beta):
            assert e == q and q == e
            assert hash(e) == hash(q)
            assert len({e, q}) == 1


class TestHornerOracle:
    @given(name=st.sampled_from(sorted(ORACLE_FIELDS)),
           vec=st.lists(small_rationals, min_size=3, max_size=3),
           q=small_rationals, bits=st.integers(1, 120))
    @settings(max_examples=80, deadline=None)
    def test_decisions_match_mpmath(self, name, vec, q, bits):
        # a fresh generator on the coarse interval [1, 2], so that every
        # decision below has to refine it
        poly = ORACLE_FIELDS[name][0]
        gen = AlgebraicNumber(poly, 1, 2)
        field = NumberField(gen)
        x = field.element(vec[:field.degree])
        with mpmath.workdps(ORACLE_DPS):
            b = _MP_BETA[name]
            v = sum(_mp(c) * b ** k for k, c in enumerate(x.vec))
            slack = mpmath.mpf(10) ** (20 - ORACLE_DPS)
            assert (x < 0) == (v < 0)
            qm = _mp(q)
            if x.to_rational() is None:
                # irrational: |v - q| is far above the 200-digit error
                assert (q < x) == (x > q) == (qm < v)
                assert (q > x) == (x < q) == (qm > v)
                assert (q <= x) == (x >= q) == (qm < v)
                assert q != x and x != q
            else:
                r = x.to_rational()
                assert (q < x) == (x > q) == (q < r)
                assert (q == x) == (x == q) == (q == r)
            # an irrational v is far from every integer; a rational one is
            # evaluated exactly when it is an integer
            assert math.floor(x) == int(mpmath.floor(v))
            lo, hi = x.enclosure(bits)
            assert hi - lo < Fraction(1, 2 ** bits)
            assert _mp(lo) - slack <= v <= _mp(hi) + slack
            assert float(x) == pytest.approx(float(v), rel=2 ** -50,
                                             abs=2 ** -60)
            # the generator's own decisions, read through its field
            assert gen.cmp_rational(q) == (1 if b > qm else -1)
            assert math.floor(gen) == int(mpmath.floor(b))
            assert float(gen) == float(b)
        assert (gen.lo, gen.hi) == (1, 2)

    @given(st.integers(1, 5000), st.booleans())
    @example(1540, False)   # a subnormal power
    @example(5000, False)   # a power far below float range
    @example(5000, True)
    @settings(max_examples=40, deadline=None)
    def test_float_sweep_of_golden_powers(self, k, shifted):
        """float() of (phi - 1)^k, a value near 2^(-0.69 k) on coordinates
        near 2^(0.69 k), and of F_k phi - F_(k+1) + 1/3, on the same
        coordinates around a value near 1/3: the float nearest mpmath's
        value, a zero with the sign of the value.  A golden orbit's exact
        steps read their floats through the same evaluator."""
        field = NumberField(AlgebraicNumber("x^2 - x - 1", 1, 2))
        fib = [0, 1]
        while len(fib) < k + 2:
            fib.append(fib[-1] + fib[-2])
        with mpmath.workdps(ORACLE_DPS + k // 4):
            if shifted:
                x = field.element([Fraction(1, 3) - fib[k + 1], fib[k]])
                v = fib[k] * mpmath.phi - fib[k + 1] + mpmath.mpf(1) / 3
            else:
                x = field.element([-1, 1]) ** k
                v = (mpmath.phi - 1) ** k
            sign, (man, exp) = (-1 if v < 0 else 1), abs(v).man_exp
        # correctly rounded, subnormals and zeros included
        nearest = sign * float(man * Fraction(2) ** exp)
        assert float(x) == nearest
        assert math.copysign(1, float(x)) == sign

    @pytest.mark.parametrize("n", [40, 100, 200, 2000, 5000])
    def test_float_of_large_coordinates(self, n):
        # F_n beta - F_(n+1) = +-beta^-n: coordinates near 2^(0.69 n) around
        # a value near 2^(-0.69 n), so a fixed-width enclosure is not enough.
        # From n = 2000 the first enclosure's ends are beyond float range,
        # and an offset keeps the value from underflowing to -0.0
        offset = Fraction(1, 3) if n >= 2000 else Fraction(0)
        fib = [0, 1]
        while len(fib) < n + 2:
            fib.append(fib[-1] + fib[-2])
        field = NumberField(AlgebraicNumber("x^2 - x - 1", 1, 2))
        x = field.element([offset - fib[n + 1], fib[n]])
        with mpmath.workdps(ORACLE_DPS + n // 4):
            v = fib[n] * mpmath.phi - fib[n + 1] + _mp(offset)
            assert float(x) == float(v)
