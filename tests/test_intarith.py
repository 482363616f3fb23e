"""Integer polynomial arithmetic against sympy as the oracle: real-root
isolation and counts, square-free parts, irreducibility, minimal
polynomials of field elements, and the rational relation verdicts."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from betascenery import AlgebraicNumber, IntPolynomial, NumberField
from betascenery.algebraics import irreducible
from betascenery.algebraics.multiplicative import (Dependent,
                                                   IndependentCertified,
                                                   _normalize, _rat_rat)
from betascenery.algebraics.roots import real_root_intervals

X = sympy.Symbol("x")


def sym(p: IntPolynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), X, domain="ZZ")


def from_sym(poly) -> IntPolynomial:
    """The primitive IntPolynomial, positive leading coefficient, of a sympy
    polynomial with rational coefficients."""
    cs = [sympy.Rational(c) for c in reversed(sympy.Poly(poly, X).all_coeffs())]
    return IntPolynomial.from_rational(
        [Fraction(int(c.p), int(c.q)) for c in cs]).primitive()


def sympy_irreducible(p: IntPolynomial) -> bool:
    _, factors = sympy.factor_list(sym(p))
    factors = [(f, m) for f, m in factors if f.degree() > 0]
    return len(factors) == 1 and factors[0][1] == 1 and \
        factors[0][0].degree() == p.degree


def product(*polys: str) -> IntPolynomial:
    out = sympy.Integer(1)
    for text in polys:
        out *= sympy.sympify(text.replace("^", "**"))
    return IntPolynomial(tuple(int(c) for c in
                               reversed(sympy.Poly(out, X).all_coeffs())))


# integer polynomials of degree <= 8, plain or as products of small factors,
# so that repeated, rational and clustered roots all turn up
SMALL = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(
    lambda cs: cs[-1] != 0).map(lambda cs: IntPolynomial(tuple(cs)))


def _times(ps):
    out = [1]
    for p in ps:
        prod = [0] * (len(out) + len(p.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p.coeffs):
                prod[i + j] += a * b
        out = prod
    return IntPolynomial(tuple(out))


POLYS = st.one_of(
    st.lists(st.integers(-20, 20), min_size=2, max_size=9).filter(
        lambda cs: cs[-1] != 0).map(lambda cs: IntPolynomial(tuple(cs))),
    st.lists(SMALL, min_size=1, max_size=3).map(_times).filter(
        lambda p: 1 <= p.degree <= 8))

CYCLOTOMIC = [n for n in range(1, 31) if sympy.totient(n) <= 8]
MIGNOTTE = IntPolynomial.parse("x^7 - 200*x^2 + 40*x - 2")   # x^7 - 2(10x - 1)^2
FIXED = {
    "x^4 - 10*x^2 + 1": IntPolynomial.parse("x^4 - 10*x^2 + 1"),
    "(2x - 1)(x^2 - 2)": product("2*x - 1", "x^2 - 2"),
    "(3x - 1)(x^2 - x - 1)": product("3*x - 1", "x^2 - x - 1"),
    "(x - 4)(5x - 3)": product("x - 4", "5*x - 3"),
    "4x^4 + 1": IntPolynomial.parse("4*x^4 + 1"),
    "(x^2 - x - 1)(x^3 - x - 1)": product("x^2 - x - 1", "x^3 - x - 1"),
    "(x^2 - 2)(x^2 - 3)": product("x^2 - 2", "x^2 - 3"),
    "(x^2 + x + 1)(x^2 + 1)": product("x^2 + x + 1", "x^2 + 1"),
    "(x^4 - 10x^2 + 1)(x^2 + 1)": product("x^4 - 10*x^2 + 1", "x^2 + 1"),
    "(2x^2 - 3)(3x^3 - x - 1)": product("2*x^2 - 3", "3*x^3 - x - 1"),
    "3x^3 - 5x + 1": IntPolynomial.parse("3*x^3 - 5*x + 1"),
    "6x^2 - 5x + 1": IntPolynomial.parse("6*x^2 - 5*x + 1"),
    "mignotte": MIGNOTTE,
}
FIXED.update({f"cyclotomic {n}": from_sym(sympy.cyclotomic_poly(n, X))
              for n in CYCLOTOMIC})


def check_isolation(p: IntPolynomial, bits: int = 12):
    q = p.squarefree_part()
    if q.degree < 1:
        return
    ivs = real_root_intervals(q, bits)
    assert len(ivs) == sym(q).count_roots()
    for r in ivs:
        assert r.hi - r.lo <= Fraction(1, 2 ** bits)
        assert sym(q).count_roots(r.lo, r.hi) == 1
        if r.lo == r.hi:
            assert q(r.lo) == 0
    for a, b in zip(ivs, ivs[1:]):
        # ascending, and two distinct roots
        assert a.hi <= b.lo and sym(q).count_roots(a.lo, b.hi) == 2


def check_counts(p: IntPolynomial, ends):
    q = p.squarefree_part()
    for lo in ends:
        for hi in ends:
            if lo <= hi:
                assert q.count_roots(lo, hi) == sym(q).count_roots(lo, hi)


class TestFixedExamples:
    @pytest.mark.parametrize("name", sorted(FIXED))
    def test_against_sympy(self, name):
        p = FIXED[name]
        assert p.squarefree() == (sym(p).gcd(sym(p).diff(X)).degree() == 0)
        assert p.is_irreducible() == sympy_irreducible(p)
        check_isolation(p)
        roots = sorted({Fraction(int(r.p), int(r.q))
                        for r in sympy.roots(sym(p), filter="Q")})
        check_counts(p, roots + [Fraction(-7, 2), Fraction(0),
                                 Fraction(1, 3), Fraction(1, 2), 5])

    def test_constants_print_with_their_sign(self):
        assert [str(IntPolynomial((c,))) for c in (0, 3, -3)] == ["0", "3", "-3"]

    def test_reducible_modulo_every_prime(self):
        p = FIXED["x^4 - 10*x^2 + 1"]
        for q in irreducible._PRIMES:
            degrees = irreducible._degrees_mod(p, q)
            assert degrees is None or degrees != [4]
        assert irreducible._possible_factor_degrees(p) == {2}
        assert p.is_irreducible()

    def test_cyclotomics_are_irreducible(self):
        for n in CYCLOTOMIC:
            assert FIXED[f"cyclotomic {n}"].is_irreducible(), n

    def test_root_on_the_first_midpoint(self):
        # 4 halves the bound 8, and 3/5 lies in the lower half, which must
        # be halved again: its closed interval may not end on the root 4
        p = FIXED["(x - 4)(5x - 3)"]
        ivs = real_root_intervals(p, 8)
        assert len(ivs) == 2 and ivs[0].lo < Fraction(3, 5) < ivs[0].hi
        assert (ivs[1].lo, ivs[1].hi) == (4, 4)

    def test_root_on_a_bisection_midpoint(self):
        p = FIXED["(2x - 1)(x^2 - 2)"]
        ivs = real_root_intervals(p, 16)
        assert [(r.lo, r.hi) for r in ivs][1] == (Fraction(1, 2),
                                                  Fraction(1, 2))
        half = Fraction(1, 2)
        assert p.count_roots(half, half) == 1
        assert p.count_roots(0, half) == 1
        assert p.count_roots(half, 2) == 2
        assert p.count_roots(-2, half) == 2

    def test_non_dyadic_rational_root(self):
        p = FIXED["(3x - 1)(x^2 - x - 1)"]
        r = real_root_intervals(p, 16)[1]
        assert r.lo < Fraction(1, 3) < r.hi
        assert p.count_roots(Fraction(1, 3), Fraction(1, 3)) == 1
        assert not p.is_irreducible()

    def test_clustered_roots(self):
        # two roots of the Mignotte polynomial lie within 10^-4 of 1/10
        ivs = real_root_intervals(MIGNOTTE, 40)
        near = [r for r in ivs if abs(r.lo - Fraction(1, 10)) < 10 ** -3]
        assert len(near) == 2 and near[0].hi < near[1].lo
        assert MIGNOTTE.is_irreducible() == sympy_irreducible(MIGNOTTE)


class TestAgainstSympy:
    @given(POLYS)
    @example(IntPolynomial.parse("x^4 - 10*x^2 + 1"))
    @settings(max_examples=120, deadline=None)
    def test_squarefree(self, p):
        P = sym(p)
        assert p.squarefree() == (P.gcd(P.diff(X)).degree() == 0)
        assert p.squarefree_part() == from_sym(P.sqf_part())

    @given(POLYS)
    @settings(max_examples=120, deadline=None)
    def test_real_roots(self, p):
        check_isolation(p)

    @given(st.lists(SMALL, min_size=1, max_size=3).map(_times),
           st.lists(st.fractions(-4, 4, max_denominator=6), max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_counts_with_roots_on_the_ends(self, p, extra):
        # the rational roots of p serve as interval ends
        roots = [Fraction(int(r.p), int(r.q))
                 for r in sympy.roots(sym(p), filter="Q")]
        check_counts(p, sorted(set(roots + extra)))

    @given(POLYS)
    @example(product("x^2 - x - 1", "x^3 - x - 1"))
    @settings(max_examples=120, deadline=None)
    def test_irreducible(self, p):
        assert p.is_irreducible() == sympy_irreducible(p)


FIELDS = ["x^2 - x - 1", "x^3 - x^2 - x - 1", "x^4 - 10*x^2 + 1",
          "x^3 - x - 1", "x^6 - 2"]


class TestMinimalPolynomial:
    @given(st.sampled_from(FIELDS),
           st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1,
                    max_size=3),
           st.integers(1, 3))
    @example("x^4 - 10*x^2 + 1", [Fraction(0), Fraction(0), Fraction(1)], 1)
    @example("x^6 - 2", [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
             1)
    @settings(max_examples=60, deadline=None)
    def test_against_resultant(self, poly, vec, power):
        gen = IntPolynomial.parse(poly)
        field = NumberField(AlgebraicNumber.largest_root(gen))
        x = field.element(vec) ** power
        assume(x.to_rational() is None)
        t = sympy.Symbol("t")
        elem = sum(sympy.Rational(c.numerator, c.denominator) * t ** k
                   for k, c in enumerate(x.vec))
        res = sympy.resultant(sym(gen).as_expr().subs(X, t), X - elem, t)
        _, factors = sympy.factor_list(res, X)
        (fac, _), = [(f, m) for f, m in factors if sympy.degree(f, X) > 0]
        got = x.to_algebraic()
        assert got.min_poly == from_sym(fac)
        # both floats are certified nearest floats of one number
        assert float(got) == float(x)


def factorint_verdict(a: Fraction, b: Fraction):
    """The relation verdict from prime exponent vectors by factorint."""
    def vector(q):
        vec = {}
        for prime, e in sympy.factorint(q.numerator).items():
            vec[int(prime)] = vec.get(int(prime), 0) + e
        for prime, e in sympy.factorint(q.denominator).items():
            vec[int(prime)] = vec.get(int(prime), 0) - e
        return {r: e for r, e in vec.items() if e}
    va, vb = vector(a), vector(b)
    if set(va) != set(vb):
        return IndependentCertified("prime-exponent test: prime supports "
                                    "differ")
    r0 = min(vb)
    p, q = va[r0], vb[r0]
    if all(q * va[r] == p * vb[r] for r in vb):
        return _normalize(p, q)
    return IndependentCertified("prime-exponent test: exponent vectors are "
                                "not proportional")


# rationals built from shared composite and prime factors, so that
# dependent pairs and near misses are common
FACTORS = st.sampled_from([2, 3, 5, 6, 10, 12, 15, 30, 49, 77])
RATIONALS = st.builds(
    lambda num, den, k: (Fraction(math.prod(num), math.prod(den))) ** k,
    st.lists(FACTORS, max_size=3), st.lists(FACTORS, max_size=3),
    st.integers(1, 3)).filter(lambda q: q != 1)


class TestRationalRelations:
    @given(RATIONALS, RATIONALS, st.integers(1, 3), st.integers(1, 3))
    @example(Fraction(4, 9), Fraction(2, 27), 1, 1)
    @example(Fraction(12), Fraction(18), 1, 1)
    @example(Fraction(6), Fraction(10), 1, 1)
    @settings(max_examples=200, deadline=None)
    def test_verdicts_match_factorint(self, a, b, m, n):
        for x, y in ((a, b), (a ** m, a ** n), (a ** m, b ** n)):
            assert _rat_rat(x, y) == factorint_verdict(x, y)

    def test_dependent_ratio(self):
        assert _rat_rat(Fraction(144), Fraction(1728)) == Dependent(2, 3)
