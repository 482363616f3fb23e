"""Greedy beta-expansions: digit conventions, exact orbit identities, the
piecewise invariant density against a transfer-operator oracle, normality
statistics, and smooth pushforwards."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import betascenery as bs
import betascenery.beta_numeration as bn
from betascenery import (
    AlgebraicNumber,
    BetaBase,
    BigReal,
    IntPolynomial,
    MapSpec,
    OrbitUndecidable,
    beta_orbit,
    named_constant,
    normality_from_orbit,
    orbit_of_one,
    parry_density,
    pushforward_samples,
)
from betascenery.algebraics.algnum import NumberField

from oracles import (
    beta_invariant_density,
    exact_beta,
    golden_parry_values,
    greedy_digits_ok,
    greedy_reference,
    parry_reference,
    tribonacci_parry_pieces,
    unwind_reference,
)

# bases of the lattice sweep: integers, rationals, Pisot numbers, one
# non-Pisot and one non-monic base (c = 2)
LATTICE_BASES = ["2", "3", "10", "3/2", "5/3", "7/2", "10/3", "x^2 - x - 1",
                 "x^3 - x^2 - x - 1", "x^3 - x - 1", "x^4 - x^3 - x^2 - x - 1",
                 "x^2 - 3*x + 1", "x^2 - 2", "2*x^2 - 3*x - 1"]


# bases and lengths of the kernel sweep: one block less, one block, one
# more, and three blocks and a part
KERNEL_BASES = ["2", "3", "3/2", "10/3", "x^2 - x - 1", "x^3 - x^2 - x - 1",
                "x^3 - x - 1", "2*x^2 - 2*x - 1", "x^2 - 2"]
# bases of the edge test: an integer, a rational, two Pisot units and the
# non-monic base
EDGE_BASES = ["2", "3/2", "x^2 - x - 1", "x^3 - x^2 - x - 1",
              "2*x^2 - 2*x - 1"]
KERNEL_STEPS = [bn.BLOCK - 1, bn.BLOCK, bn.BLOCK + 1, 3 * bn.BLOCK + 7]


def middle_thirds_point(n: int) -> Fraction:
    """A point of the middle-thirds set over 3^n, from a seeded word."""
    rng = np.random.default_rng(n)
    num = 0
    for w in rng.integers(0, 2, size=n).tolist():
        num = 3 * num + 2 * w
    return Fraction(num, 3 ** n)


def midpoint_above(f: float) -> Fraction:
    """The exact midpoint of f and the next float up."""
    return Fraction(f) + Fraction(math.ulp(f)) / 2


def unwound_start(base, x, j: int, seed: int):
    """A start whose j-th greedy remainder is x, from x by j unwinding
    steps, each digit drawn among those that keep the point in [0, 1)."""
    rng, b = np.random.default_rng(seed), exact_beta(base)
    for _ in range(j):
        top = max(d for d in range(base.floor_beta + 1) if x + d < b)
        x = unwind_reference(base, x, [int(rng.integers(0, top + 1))])
    return x


@functools.lru_cache(maxsize=None)
def lattice_base(text: str) -> BetaBase:
    try:
        return BetaBase(Fraction(text))
    except ValueError:
        return BetaBase(AlgebraicNumber.largest_root(IntPolynomial.parse(text)))


def assert_matches_reference(base, x, steps):
    """The lattice orbit against the plain exact-scalar loop: digits, the
    end point, floats and the backward reconstruction.  The digits and the
    end point fix every remainder between them."""
    rec = beta_orbit(base, x, steps)
    x = base.coerce_point(x)
    digits, rems = greedy_reference(base, x, steps)
    assert rec.digits == digits
    assert rec.end == rems[-1]
    # both float paths are certified: integer division or fixed point
    # here, Fraction division or interval Horner in the reference
    assert rec.floats == [float(r) for r in [x, *rems[:-1]]]
    assert unwind_reference(base, rec.end, digits) == x


def unwound_remainders(base, rec):
    """The remainders x_1, ..., x_n of an exact record, rebuilt from its
    end point by x_(k-1) = (x_k + d_k) / beta in exact scalars."""
    b_inv = 1 / exact_beta(base)
    rems = [rec.end]
    for d in reversed(rec.digits[1:]):
        rems.append((rems[-1] + d) * b_inv)
    return rems[::-1]


class TestDigits:
    def test_base_two_dyadic(self):
        rec = beta_orbit(BetaBase(2), Fraction(3, 4), 8)
        assert list(rec.digits) == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_base_ten_repeating(self):
        rec = beta_orbit(BetaBase(10), Fraction(1, 7), 12)
        assert list(rec.digits) == [1, 4, 2, 8, 5, 7] * 2

    def test_exact_integer_hit_gives_digit_then_zeros(self):
        # 2 * (1/2) lands exactly on 1: digit 1, remainder 0
        rec = beta_orbit(BetaBase(2), Fraction(1, 2), 4)
        assert list(rec.digits) == [1, 0, 0, 0]
        assert rec.end == 0

    def test_golden_inverse(self, golden_base):
        g = bs.parse_scalar("golden")
        rec = beta_orbit(golden_base, 1 / g, 6)
        assert list(rec.digits) == [1, 0, 0, 0, 0, 0]

    def test_alphabet(self, golden_base, tribonacci_base):
        assert BetaBase(2).alphabet_size == 2
        assert BetaBase(5).alphabet_size == 5
        assert golden_base.alphabet_size == 2
        assert tribonacci_base.alphabet_size == 2
        assert BetaBase(Fraction(7, 2)).alphabet_size == 4

    def test_rejects_base_at_most_one(self):
        with pytest.raises(ValueError):
            BetaBase(1)
        with pytest.raises(ValueError):
            BetaBase(Fraction(1, 2))

    def test_pisot_decided_on_first_read(self, monkeypatch):
        import betascenery.beta_numeration as bn
        calls = []

        def counting(x):
            calls.append(x)
            return bs.is_pisot(x)
        monkeypatch.setattr(bn, "is_pisot", counting)
        base = BetaBase(bs.named_constant("tribonacci"))
        assert calls == []
        assert base.pisot is True
        assert base.pisot is True
        assert len(calls) == 1

    def test_rejects_point_outside_unit_interval(self):
        with pytest.raises(ValueError):
            beta_orbit(BetaBase(2), Fraction(3, 2), 4)


class TestOrbitIdentities:
    @given(st.fractions(min_value=0, max_value=Fraction(999, 1000)))
    @settings(max_examples=40, deadline=None)
    def test_greedy_remainder(self, x):
        # x = sum d_k beta^-k + beta^-n * x_n with x_n in [0, 1), exactly
        base = BetaBase(3)
        n = 12
        rec = beta_orbit(base, x, n)
        acc = sum(Fraction(d, 3 ** (k + 1)) for k, d in enumerate(rec.digits))
        assert acc + Fraction(rec.end, 3 ** n) == x
        for r in unwound_remainders(base, rec):
            assert 0 <= r < 1

    def test_reconstruct_exact_rational(self):
        base = BetaBase(2)
        for q in [Fraction(1, 3), Fraction(5, 7), Fraction(113, 997)]:
            rec = beta_orbit(base, q, 200)
            assert unwind_reference(base, rec.end, rec.digits) == q

    def test_reconstruct_exact_field(self, golden_base):
        for q in [Fraction(1, 3), Fraction(2, 7), Fraction(22, 113)]:
            rec = beta_orbit(golden_base, q, 150)
            back = unwind_reference(golden_base, rec.end, rec.digits)
            assert back == q

    def test_orbit_of_one_golden(self, golden_base):
        vals, ended = orbit_of_one(golden_base, 10)
        # 1 -> golden - 1 -> 0: the expansion of 1 terminates
        assert ended
        assert len(vals) <= 3
        assert abs(float(vals[1]) - 0.6180339887498949) < 1e-12

    def test_orbit_of_one_tribonacci(self, tribonacci_base):
        vals, ended = orbit_of_one(tribonacci_base, 10)
        floats = [float(v) for v in vals]
        b = 1.8392867552141612
        assert ended
        assert floats[0] == 1.0
        assert abs(floats[1] - (b - 1)) < 1e-12
        assert abs(floats[2] - (b * b - b - 1)) < 1e-12

    def test_base_two_third_never_normal(self):
        # orbit of 1/3 in base 2 alternates between 1/3 and 2/3; the sup is
        # taken over a grid, so allow one grid cell of slack
        st_ = normality_from_orbit(beta_orbit(BetaBase(2), Fraction(1, 3), 400))
        assert st_.discrepancy >= 1 / 3 - 1 / bn.DISCREPANCY_GRID


@pytest.fixture
def block_calls(monkeypatch):
    """(digits before it, steps asked, steps taken) of each
    `_Lattice._block` call, in call order."""
    calls, block = [], bn._Lattice._block

    def recording(self, ends, q, steps, digits, floats):
        n = len(digits)
        calls.append((n, steps, block(self, ends, q, steps, digits, floats)))
        return calls[-1][2]
    monkeypatch.setattr(bn._Lattice, "_block", recording)
    return calls


class TestLatticeOrbit:
    """The integer-lattice kernel of every exact base against the
    exact-scalar reference loop and an mpmath oracle."""

    def test_every_exact_base_has_a_lattice(self, golden_base):
        # (gamma's polynomial, c): beta = gamma/c with gamma an algebraic
        # integer
        assert (golden_base._lattice.coeffs,
                golden_base._lattice.scale) == ((-1, -1, 1), 1)
        assert (BetaBase(10)._lattice.coeffs,
                BetaBase(10)._lattice.scale) == ((-10, 1), 1)
        assert (BetaBase(Fraction(3, 2))._lattice.coeffs,
                BetaBase(Fraction(3, 2))._lattice.scale) == ((-3, 1), 2)
        # 2x^2 - 2x - 1 scales to gamma^2 - 2 gamma - 2 with gamma = 2 beta
        non_monic = BetaBase(AlgebraicNumber.largest_root(IntPolynomial.parse(
            "2*x^2 - 2*x - 1")))
        assert (non_monic._lattice.coeffs,
                non_monic._lattice.scale) == ((-2, -2, 1), 2)

    def test_rational_base_remainders_sit_over_growing_denominators(self):
        # 1/7 in base 3/2: 3/14, 9/28, 27/56, 81/112, then 243/224 - 1
        base = BetaBase(Fraction(3, 2))
        rec = beta_orbit(base, Fraction(1, 7), 5)
        assert rec.digits == [0, 0, 0, 0, 1]
        assert list(base._lattice.replay((1,), 7, rec.digits)) == \
            [((3,), 14), ((9,), 28), ((27,), 56), ((81,), 112), ((19,), 224)]
        assert rec.floats == [1 / 7, 3 / 14, 9 / 28, 27 / 56, 81 / 112]
        assert rec.end == Fraction(19, 224)

    @pytest.mark.parametrize("text", ["2", "3/2", "10/3", "x^2 - x - 1",
                                      "2*x^2 - 3*x - 1"])
    def test_subnormal_floats(self, text):
        # x ~ 2^-1060: the first remainders' floats are subnormal, and each
        # must still be the float nearest the exact value
        base = lattice_base(text)
        x = Fraction(1, 7 * 2 ** 1057)
        rec = beta_orbit(base, x, 40)
        assert 0 < rec.floats[0] < 2.0 ** -1022
        assert_matches_reference(base, x, 40)
        # the interval path reads the same floats from its two exact ends
        wide = beta_orbit(base, BigReal.from_fraction(x, 2128), 40)
        assert wide.floats == rec.floats

    def test_acceptance_points(self, golden_base):
        # the point kinds of acceptance checks 6 and 9: exact attractor
        # points, rationals with 24-bit denominators and field points
        rng = np.random.default_rng(6)
        g = bs.parse_scalar("golden")
        points = []
        for _ in range(3):
            word = rng.integers(0, 2, size=400)
            points.append(sum(Fraction(2 * int(w), 3 ** (k + 1))
                              for k, w in enumerate(word)))
            den = int(rng.integers(1, 2 ** 24)) | 1
            points.append(Fraction(int(rng.integers(0, den)), den))
            u, v = (Fraction(int(rng.integers(0, 2 ** 20)), 2 ** 21)
                    for _ in range(2))
            points.append(u + v * (g - 1))
        for x in points:
            assert_matches_reference(golden_base, x, 400)

    @given(st.sampled_from(LATTICE_BASES),
           st.lists(st.fractions(min_value=-3, max_value=3,
                                 max_denominator=10 ** 6),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_sweep(self, text, coords):
        # a rational point when coords has one entry, else a field point
        # sum coords[k] beta^k reduced mod 1
        base = lattice_base(text)
        if len(coords) == 1 or base.degree == 1:
            x = coords[0] - math.floor(coords[0])
        else:
            x = base._field.element(coords[:base.degree])
            x = x - math.floor(x)
        assert_matches_reference(base, x, 60)

    def test_escalation_keeps_digits(self, monkeypatch):
        # a margin far below zero leaves every block's enclosure too wide to
        # take a step, so each step is an exact fallback step; a 4-bit start
        # cannot certify most of those floors or floats: the precision
        # doubles, and nothing else changes (field elements start their own
        # reads at FIXED_BITS, so only the fallback builds an 8-bit table)
        monkeypatch.setattr(bn, "FIXED_BITS", 4)
        monkeypatch.setattr(bn, "MARGIN", -10 ** 6)
        for name in ("golden", "tribonacci"):
            base = BetaBase(named_constant(name))
            assert_matches_reference(base, Fraction(22, 113), 300)
            assert 8 in base._field._tables

    def test_escalation_is_per_orbit(self, monkeypatch):
        # the coordinates of 1/3 + sqrt(2)/5 grow like sqrt(2)^n, so 2000
        # exact steps need powers far wider than the start; a later short
        # orbit on the same base starts again at FIXED_BITS.  The margin
        # makes every step an exact fallback step, whose reads are recorded
        base = BetaBase(AlgebraicNumber.largest_root(
            IntPolynomial.parse("x^2 - 2")))
        field = base._field
        used = []
        decide = NumberField._decide

        def recording(self, v, q, read, bits=bn.FIXED_BITS):
            out = decide(self, v, q, read, bits)
            if self is field:
                used.append(out[1])
            return out
        monkeypatch.setattr(NumberField, "_decide", recording)
        monkeypatch.setattr(bn, "MARGIN", -10 ** 6)
        x = base._field.element([Fraction(1, 3), Fraction(1, 5)])
        long = beta_orbit(base, x, 2000)
        assert max(used) > 8 * bn.FIXED_BITS
        used.clear()
        short = beta_orbit(base, x, 20)
        assert set(used) == {bn.FIXED_BITS}
        assert short.digits == long.digits[:20]

    @pytest.mark.parametrize("text", KERNEL_BASES)
    @given(steps=st.sampled_from(KERNEL_STEPS),
           coords=st.lists(st.fractions(min_value=-3, max_value=3,
                                        max_denominator=10 ** 6),
                           min_size=1, max_size=3),
           stop=st.integers(1, 3 * bn.BLOCK + 7))
    @example(steps=bn.BLOCK + 1, coords=[Fraction(2, 7)], stop=bn.BLOCK + 1)
    @example(steps=3 * bn.BLOCK + 7, coords=[Fraction(1, 7), Fraction(1, 3)],
             stop=2 * bn.BLOCK)
    @settings(max_examples=8, deadline=None)
    def test_kernel_matches_step_by_step(self, text, steps, coords, stop):
        # the block kernel against the one-step-at-a-time reference, across
        # block edges: digits, floats and the end point of the orbit and of
        # a prefix of it, which ends at an earlier remainder
        base = lattice_base(text)
        if len(coords) == 1 or base.degree == 1:
            x = coords[0] - math.floor(coords[0])
        else:
            x = base._field.element(coords[:base.degree])
            x = x - math.floor(x)
        rec = beta_orbit(base, x, steps)
        x = base.coerce_point(x)
        digits, rems = greedy_reference(base, x, steps)
        assert rec.digits == digits
        assert rec.floats == [float(r) for r in [x, *rems[:-1]]]
        assert rec.end == rems[-1]
        assert unwind_reference(base, rec.end, digits) == x
        stop = min(stop, steps)
        prefix = beta_orbit(base, x, stop)
        assert prefix.digits == digits[:stop]
        assert prefix.floats == rec.floats[:stop]
        assert prefix.end == rems[stop - 1]

    @pytest.mark.parametrize("text,x", [("2", Fraction(2, 7)),
                                        ("3/2", Fraction(1, 7)),
                                        ("x^2 - x - 1", Fraction(2, 7)),
                                        ("2*x^2 - 2*x - 1", Fraction(1, 3))])
    def test_forced_fallback_keeps_records(self, text, x, monkeypatch):
        # a margin far below zero stops every block at its first step, so
        # the orbit is all exact fallback steps: the record is the kernel's,
        # whose blocks take every digit
        base = lattice_base(text)
        steps = 2 * bn.BLOCK + 3
        taken = []
        block = bn._Lattice._block

        def counting(*args):
            taken.append(block(*args))
            return taken[-1]
        monkeypatch.setattr(bn._Lattice, "_block", counting)
        rec = beta_orbit(base, x, steps)
        assert taken == [bn.BLOCK, bn.BLOCK, 3]
        taken.clear()
        monkeypatch.setattr(bn, "MARGIN", -10 ** 6)
        forced = beta_orbit(base, x, steps)
        assert taken == [0] * steps
        assert forced.digits == rec.digits
        assert forced.floats == rec.floats
        assert forced.end == rec.end
        assert forced.precision_used == rec.precision_used == 0

    @pytest.mark.parametrize("text", KERNEL_BASES)
    def test_blocks_run_whole(self, text, block_calls):
        # the width bound certifies as much as the enclosure itself: a
        # 2,000-digit orbit reads ceil(2000 / BLOCK) blocks, one more where
        # a rare float or digit sits at the bound's edge; a loose bound
        # keeps every digit right and ends blocks early
        beta_orbit(lattice_base(text), middle_thirds_point(2_000), 2_000)
        assert len(block_calls) <= math.ceil(2_000 / bn.BLOCK) + 1

    @pytest.mark.parametrize("text", EDGE_BASES)
    @pytest.mark.parametrize("j", [100, bn.BLOCK + 77])
    @pytest.mark.parametrize("edge,sign", [("digit", -1), ("digit", 1),
                                           ("float", -1), ("float", 1)])
    def test_starts_at_the_bounds_edge(self, text, j, edge, sign,
                                       block_calls):
        # x_j sits 2^-700 from a digit boundary (beta x_j = 1) or from the
        # midpoint of two floats, far closer than any block's width bound
        # there, and the midpoint rounds (half to even) to the float on
        # the other side: the block must refuse the step that reads it,
        # and the exact step after it must give the reference's record
        base = lattice_base(text)
        b, delta = exact_beta(base), sign * Fraction(1, 2 ** 700)
        if edge == "digit":
            xj, cut = (1 + delta) / b, j
        else:
            f = next(g for g in (0.3, math.nextafter(0.3, 1))
                     if (float(midpoint_above(g)) > g) == (sign < 0))
            xj, cut = midpoint_above(f) + delta, j - 1
        x = unwound_start(base, xj, j, seed=j)
        rec = beta_orbit(base, x, j + 50)
        digits, rems = greedy_reference(base, x, j + 50)
        assert rems[j - 1] == xj
        assert rec.digits == digits
        assert rec.floats == [float(r) for r in [x, *rems[:-1]]]
        assert rec.end == rems[-1]
        assert any(n + k == cut < n + steps for n, steps, k in block_calls)

    @pytest.mark.parametrize("text,point,hit", [
        ("x^2 - x - 1", "gamma - 1", True),      # beta x = 1
        ("2*x^2 - 2*x - 1", "gamma - 2", True),  # x = 1/beta, gamma = 2 beta
        ("3/2", "2/3", True),
        ("x^2 - x - 1", "0", False),
        ("x^2 - 2", "1/3", False)])
    def test_exact_edges(self, text, point, hit, block_calls):
        # beta x exactly an integer (digit 1, then zeros), the point 0, and
        # 1/3 in base sqrt(2), whose every other remainder is rational
        base = lattice_base(text)
        if point.startswith("gamma"):
            x = base._field.beta() - int(point[-1])
        else:
            x = Fraction(point)
        for steps in (1, bn.BLOCK, bn.BLOCK + 5):
            assert_matches_reference(base, x, steps)
        rec = beta_orbit(base, x, 40)
        if hit:
            assert rec.digits == [1] + [0] * 39
            assert rec.end == 0
            # an exact 0 keeps a zero width bound: its blocks run whole
            block_calls.clear()
            beta_orbit(base, x, 2_000)
            assert len(block_calls) <= math.ceil(2_000 / bn.BLOCK) + 1
        if text == "x^2 - 2":
            rems = unwound_remainders(base, rec)
            assert all(r.to_rational() is not None for r in rems[1::2])
            assert all(r.to_rational() is None for r in rems[::2])

    def test_decide_reads_per_block(self, golden_base, monkeypatch):
        # 16,000 golden digits of a middle-thirds point with a 7,100-digit
        # ternary denominator: the kernel reads the evaluator only for an
        # exact fallback step, and the blocks cut short are few (a
        # per-digit read makes 16,000 calls)
        n, x = 16_000, middle_thirds_point(7_100)
        decide, calls = NumberField._decide, []

        def spy(field, *args):
            calls.append(args)
            return decide(field, *args)

        monkeypatch.setattr(NumberField, "_decide", spy)
        rec = beta_orbit(golden_base, x, n)
        assert len(rec.digits) == n
        assert len(calls) <= math.ceil(n / bn.BLOCK)

    def test_long_orbit_memory(self, golden_base):
        # the record keeps the digits, the floats and the end point, not
        # one exact remainder per digit: 32,000 golden digits of a point
        # over 3^14,100 peak at about 1.8 MiB of Python allocations, under
        # the 16 MB bound (one remainder per digit is about 2.8 KB a
        # coordinate)
        n, x = 32_000, middle_thirds_point(14_100)
        tracemalloc.start()
        try:
            rec = beta_orbit(golden_base, x, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rec.digits) == n
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("poly", ["x^2 - x - 1", "x^3 - x^2 - x - 1"])
    def test_greedy_oracle(self, poly):
        coeffs = list(reversed(IntPolynomial.parse(poly).coeffs))
        base = lattice_base(poly)
        g = base._field.beta()
        for x in (Fraction(3, 7), Fraction(1, 5) + Fraction(1, 9) * (g - 1)):
            rec = beta_orbit(base, x, 2000)
            vec = [x] if isinstance(x, Fraction) else list(x.vec)
            assert greedy_digits_ok(coeffs, vec, rec.digits)
            wrong = list(rec.digits)
            wrong[1000] ^= 1
            assert not greedy_digits_ok(coeffs, vec, wrong)

    def test_largest_root_boxes_no_complex_root(self, monkeypatch):
        import betascenery.algebraics.roots as roots
        calls = []
        disks = roots.complex_root_disks

        def counting(*args):
            calls.append(args)
            return disks(*args)
        monkeypatch.setattr(roots, "complex_root_disks", counting)
        base = BetaBase(named_constant("tribonacci"))
        beta_orbit(base, Fraction(1, 3), 100)
        parry_density(base)
        assert calls == []


class TestParryDensity:
    def test_integer_base_uniform(self):
        pd = parry_density(BetaBase(2))
        assert pd.values == (Fraction(1),)
        assert pd.tail_bound == 0.0

    def test_golden_frozen_values(self, golden_base):
        hi, lo, brk = golden_parry_values()
        pd = parry_density(golden_base)
        breaks, vals = pd.piece_floats
        assert vals.shape == (2,)
        assert abs(vals[0] - hi) < 1e-12
        assert abs(vals[1] - lo) < 1e-12
        assert abs(breaks[1] - brk) < 1e-12
        assert pd.tail_bound == 0.0  # expansion of 1 terminates

    def test_tribonacci_frozen_values(self, tribonacci_base):
        breaks, vals = tribonacci_parry_pieces()
        pd = parry_density(tribonacci_base)
        got_breaks, got_vals = pd.piece_floats
        assert got_vals.shape == (3,)
        for g, w in zip(got_breaks, breaks):
            assert abs(g - w) < 1e-12
        for g, w in zip(got_vals, vals):
            assert abs(g - w) < 1e-12

    @pytest.mark.parametrize("name", ["golden", "tribonacci"])
    def test_against_transfer_oracle(self, name):
        base = BetaBase(named_constant(name))
        pd = parry_density(base)
        mids, dens = beta_invariant_density(float(base.beta),
                                            n_bins=10_000)
        breaks, vals = pd.piece_floats
        idx = np.searchsorted(breaks, mids, side="right") - 1
        ours = vals[np.clip(idx, 0, len(vals) - 1)]
        l1 = np.abs(ours - dens).mean()
        assert l1 < 1e-3

    @pytest.mark.parametrize("poly,n_terms,cycle", [
        ("x^2 - x - 1", 2, 2),
        ("x^3 - x - 1", 5, 5),
        ("x^2 - 3*x + 1", 2, 1),
        ("x^3 - 3*x^2 + 2*x - 1", 3, 2),
        ("x^3 - 4*x^2 - x + 1", 3, 1),
    ])
    def test_pisot_sum_is_exact(self, poly, n_terms, cycle):
        # the orbit of 1 ends (cycle == n_terms) or turns periodic: the
        # series is summed in closed form, with no tail
        base = lattice_base(poly)
        vals, end = orbit_of_one(base, 256)
        assert (len(vals), end) == (n_terms, cycle)
        pd = parry_density(base)
        assert pd.tail_bound == 0.0
        assert pd.truncated_at == n_terms
        mids, dens = beta_invariant_density(float(base.beta), n_bins=10_000)
        breaks, values = pd.piece_floats
        idx = np.searchsorted(breaks, mids, side="right") - 1
        ours = values[np.clip(idx, 0, len(values) - 1)]
        assert np.abs(ours - dens).mean() < 1e-3

    def test_non_pisot_keeps_truncation(self):
        pd = parry_density(lattice_base("x^2 - 2"), truncation=64)
        assert pd.truncated_at == 64
        assert pd.tail_bound > 0

    def test_nonterminating_rational_base_tail(self):
        base = BetaBase(Fraction(3, 2))
        pd = parry_density(base, truncation=64)
        # 64 stored orbit values mean 63 applied steps
        assert pd.tail_bound == pytest.approx(
            1.5 ** -63 / (1 - 1 / 1.5), rel=1e-9)
        assert pd.tail_bound > 0
        assert pd.truncated_at == 64

    def test_piece_sums_grow_linearly(self, monkeypatch):
        # each piece value is a suffix sum over the ranks of the orbit
        # points, so the exact additions grow linearly with the orbit length
        # (one sum over the orbit per piece would grow quadratically)
        adds = []
        add = Fraction.__add__

        def counting(x, y):
            adds.append(1)
            return add(x, y)
        monkeypatch.setattr(Fraction, "__add__", counting)
        counts = {}
        for n in (128, 256):
            adds.clear()
            parry_density(BetaBase(Fraction(3, 2)), truncation=n)
            counts[n] = len(adds)
        assert counts[256] <= 2 * counts[128] + 2
        assert counts[256] < 4 * 256

    @pytest.mark.parametrize("text", [
        "3/2", "x^2 - x - 1", "x^3 - x^2 - x - 1",
        "x^6 + 9*x^5 + 3*x^4 - 8*x^3 - 8*x^2 - 6*x + 4"])
    def test_breakpoints_in_exact_order(self, text):
        # the breakpoints are sorted by their floats first; they must be
        # the orbit values of 1 in exact order (a list is sorted iff each
        # adjacent pair is), each with its own nearest float
        base = lattice_base(text)
        pd = parry_density(base)
        orbit, _ = orbit_of_one(base, 256)
        interior = list(pd.breakpoints[1:-1])
        assert set(interior) == set(orbit[1:])
        assert len(interior) == len(orbit) - 1
        assert all(a < b for a, b in zip(pd.breakpoints, pd.breakpoints[1:]))
        assert pd.breakpoint_floats == tuple(map(float, pd.breakpoints))

    def test_equal_floats_are_ordered_exactly(self, golden_base):
        field = golden_base._field
        third, tiny = Fraction(1, 3), Fraction(1, 2 ** 80)
        g = field.beta()
        values = [field.from_rational(third + tiny), g - 1,
                  field.from_rational(third),
                  field.from_rational(third - tiny),
                  field.from_rational(Fraction(1, 5)), (g - 1) + tiny]
        floats = [float(z) for z in values]
        assert floats[0] == floats[2] == floats[3]
        assert floats[1] == floats[5]
        order = bn._exact_order(values, floats)
        assert [values[i] for i in order] == [
            Fraction(1, 5), third - tiny, third, third + tiny, g - 1,
            (g - 1) + tiny]

    def test_one_fraction_per_breakpoint_and_value(self, monkeypatch):
        # the sums run on integer vectors: the only Fractions built are the
        # n orbit values (the leading 1 and the interior breakpoints), the
        # ends 0 and 1, and the n values
        base, made = BetaBase(Fraction(3, 2)), []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(1)
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        pd = parry_density(base, truncation=256)
        assert len(pd.values) == 256
        assert len(made) <= 2 * 256 + 4

    @given(beta=st.integers(1, 12).flatmap(lambda c: st.integers(
        c + 1, 10 * c).map(lambda a: Fraction(a, c))),
        truncation=st.integers(1, 80))
    @example(beta=Fraction(3), truncation=5)
    @example(beta=Fraction(3, 2), truncation=80)
    @settings(max_examples=60, deadline=None)
    def test_rational_bases_match_definition(self, beta, truncation):
        pd = parry_density(BetaBase(beta), truncation=truncation)
        breaks, values, terms, tail = parry_reference(beta, truncation)
        assert pd.breakpoints == tuple(breaks)
        assert pd.values == tuple(values)
        assert (pd.truncated_at, pd.tail_bound) == (terms, tail)
        assert pd.breakpoint_floats == tuple(map(float, breaks))

    @pytest.mark.parametrize("text", [
        "x^2 - x - 1", "x^3 - x^2 - x - 1", "x^2 - 2", "x^2 - x - 3",
        "2*x^2 - 3*x - 1", "x^6 + 9*x^5 + 3*x^4 - 8*x^3 - 8*x^2 - 6*x + 4",
        "x^2 - 3*x + 1", "x^3 - 3*x^2 + 2*x - 1"])
    def test_field_bases_match_definition(self, text):
        # the reference runs on FieldElement arithmetic alone: its orbit,
        # powers, order and sums hold no lattice vector; the last two
        # orbits turn periodic and carry the period factor
        base = lattice_base(text)
        pd = parry_density(base, truncation=32)
        breaks, values, terms, tail = parry_reference(exact_beta(base), 32)
        assert pd.breakpoints == tuple(breaks)
        assert pd.values == tuple(values)
        assert (pd.truncated_at, pd.tail_bound) == (terms, tail)

    def test_cdf_properties(self, golden_base):
        pd = parry_density(golden_base)
        xs = np.linspace(0, 1, 501)
        F = pd.cdf(xs)
        assert F[0] == pytest.approx(0.0, abs=1e-12)
        assert F[-1] == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(F) >= -1e-12).all()

class TestNormalityStatistic:
    def test_digit_freqs_sum(self, golden_base):
        rec = beta_orbit(golden_base, Fraction(2, 7), 500)
        st_ = normality_from_orbit(rec)
        assert st_.digit_freqs.sum() == pytest.approx(1.0)
        assert len(rec.digits) == 500

    @pytest.mark.parametrize("name", ["golden", "tribonacci"])
    def test_one_evaluator_read_per_field_step(self, name, monkeypatch):
        # the orbit reads the evaluator only at its exact fallback steps,
        # and the statistic reads none: far below one read a step
        base = BetaBase(named_constant(name))
        pd = parry_density(base)
        decide, calls = NumberField._decide, []

        def spy(field, *args):
            calls.append(args)
            return decide(field, *args)

        monkeypatch.setattr(NumberField, "_decide", spy)
        normality_from_orbit(beta_orbit(base, Fraction(2, 7), 500), density=pd)
        assert len(calls) <= 500 + 10

    def test_champernowne_base_two(self):
        # concatenated binary integers: provably equidistributed, and the
        # expansion runs through the exact integer fast path
        bits = ""
        k = 1
        while len(bits) < 2 ** 14:
            bits += bin(k)[2:]
            k += 1
        bits = bits[:2 ** 14]
        x = Fraction(int(bits, 2), 2 ** len(bits))
        rec = beta_orbit(BetaBase(2), x, 2 ** 14)
        assert list(rec.digits[:20]) == [int(c) for c in bits[:20]]
        st_ = normality_from_orbit(rec)
        assert st_.discrepancy < 0.05

    def test_discrepancy_grid_matches_manual(self, golden_base):
        pd = parry_density(golden_base)
        rec = beta_orbit(golden_base, Fraction(3, 7), 300)
        st_ = normality_from_orbit(rec, density=pd)
        # manual sup over a coarse grid never exceeds the reported value
        orb = np.array(rec.floats)
        for t in np.linspace(0.05, 0.95, 19):
            emp = (orb < t).mean()
            assert abs(emp - float(pd.cdf(np.array([t]))[0])) \
                <= st_.discrepancy + 5e-3


# the bases of the interval sweep: integer, rational, dyadic and
# non-dyadic, and the quadratic and cubic Pisot units
INTERVAL_BASES = ["2", "3", "3/2", "5/3", "x^2 - x - 1", "x^3 - x^2 - x - 1"]


@st.composite
def dyadic_intervals(draw):
    """[lo, hi] / 2^P in [0, 1) at 64 to 4,096 places, of width 0 or at
    most 2^-40, the width's binary order drawn first so that every order
    comes up."""
    prec = draw(st.integers(64, 4096))
    lo = draw(st.integers(0, (1 << prec) - 1))
    order = draw(st.integers(-1, prec - 40))
    width = draw(st.integers(0, 1 << order)) if order >= 0 else 0
    return BigReal(lo, min(lo + width, (1 << prec) - 1), prec)


class TestBigRealPath:
    def test_matches_exact_digits(self, golden_base):
        xb = BigReal.from_fraction(Fraction(1, 3), 512)
        r1 = beta_orbit(golden_base, xb, 100)
        r2 = beta_orbit(golden_base, Fraction(1, 3), 100)
        assert list(r1.digits) == list(r2.digits)
        assert r1.precision_used == 512

    def test_wide_interval_raises(self, golden_base):
        wide = BigReal.from_interval(Fraction(1, 3) - Fraction(1, 10 ** 12),
                                     Fraction(1, 3) + Fraction(1, 10 ** 12),
                                     256)
        with pytest.raises(OrbitUndecidable) as exc:
            beta_orbit(golden_base, wide, 200)
        # the ends' digits part at step 52; the precision is the input's
        assert (exc.value.step, exc.value.precision) == (52, 256)

    @pytest.mark.parametrize("name", ["2", "3", "3/2", "5/3", "x^2 - x - 1"])
    @given(x=st.fractions(0, 1, max_denominator=10 ** 6).filter(
        lambda q: q < 1))
    @example(x=Fraction(0))
    @example(x=Fraction(1, 3))
    @example(x=Fraction(3, 5))
    @settings(max_examples=25, deadline=None)
    def test_digits_match_the_lattice(self, name, x):
        """Enclosures of rational points give the exact path's digits: the
        enclosure's two dyadic ends run exactly, in the non-dyadic base 5/3
        and in golden alike.  An orbit that lands on 0 passes through an
        integer, which no enclosure of positive width decides."""
        base = lattice_base(name)
        steps = 300
        exact = beta_orbit(base, x, steps)
        prec = math.ceil(steps * math.log2(float(base.beta))) + 128
        try:
            rec = beta_orbit(base, BigReal.from_fraction(x, prec), steps)
        except OrbitUndecidable as e:
            assert unwound_remainders(base, exact)[e.step] == 0
            return
        assert list(rec.digits) == list(exact.digits)
        if base.degree == 1:    # the exact end point is a Fraction
            assert rec.end.contains(exact.end)
        # each enclosure is far narrower than 2^-53, so its float lies
        # within 2^-53 of the exact point's
        assert all(abs(f - e) <= 2.0 ** -53
                   for f, e in zip(rec.floats, exact.floats))

    @pytest.mark.parametrize("name", INTERVAL_BASES)
    @given(x=dyadic_intervals())
    @example(x=BigReal((1 << 127) - (1 << 27), (1 << 127) + (1 << 27), 128))
    @example(x=BigReal(3 << 1000, 3 << 1000, 1024))
    @settings(max_examples=25, deadline=None)
    def test_interval_is_its_two_ends(self, name, x):
        """An interval's digits are the longest common prefix of its two
        exact ends' orbits, and it raises where that prefix ends.  The
        record's floats are the ends' common float wherever they have one,
        else their exact midpoint's, and its end encloses both ends' last
        remainders."""
        base, steps = lattice_base(name), 300
        ends = [Fraction(e, 1 << x.prec) for e in x._ends(x.prec)]
        refs = [greedy_reference(base, e, steps) for e in ends]
        n = next((k for k, (a, b) in enumerate(zip(refs[0][0], refs[1][0]))
                  if a != b), steps)
        if n < steps:
            with pytest.raises(OrbitUndecidable) as exc:
                beta_orbit(base, x, steps)
            assert (exc.value.step, exc.value.precision) == (n, x.prec)
            if n == 0:
                return
        rec = beta_orbit(base, x, n)
        assert rec.digits == refs[0][0][:n]
        assert rec.precision_used == x.prec
        points = ([e, *rems[:n - 1]] for e, (_, rems) in zip(ends, refs))
        for f, a, b in zip(rec.floats, *points):
            fa, fb = float(a), float(b)
            assert f == (fa if fa == fb else float((a + b) / 2))
        for _, rems in refs:
            assert rec.end.lo <= rems[n - 1] <= rec.end.hi

    def test_no_interval_arithmetic(self, golden_base, monkeypatch):
        # an interval start runs as two exact ends on the lattice, and never
        # as BigReal arithmetic
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                     "__truediv__"):
            def spy(*args, op=getattr(BigReal, name), name=name):
                calls.append(name)
                return op(*args)
            monkeypatch.setattr(BigReal, name, spy)
        x = BigReal.from_fraction(Fraction(1, 3), 2128)
        rec = beta_orbit(golden_base, x, 2000)
        assert calls == []
        assert rec.digits == beta_orbit(golden_base, Fraction(1, 3),
                                        2000).digits

    @pytest.mark.parametrize("text", ["2", "3/2", "x^2 - x - 1"])
    def test_orbit_memory(self, text):
        # the record keeps one float a step and the end enclosure, not one
        # enclosure a step: 2,000 digits of 1/3 at 2,128 places peak at
        # about 0.11 MiB of Python allocations in all three bases (one
        # enclosure a step took 1.32 MiB in both rational bases)
        base = lattice_base(text)
        x = BigReal.from_fraction(Fraction(1, 3), 2128)
        tracemalloc.start()
        try:
            rec = beta_orbit(base, x, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(rec.digits), rec.precision_used) == (2000, 2128)
        assert peak < 2 ** 18

    def test_float_input_certified_shallow(self):
        rec = beta_orbit(BetaBase(2), 0.375, 10)
        assert list(rec.digits[:3]) == [0, 1, 1]


class TestPushforward:
    def test_affine_exact(self):
        g = MapSpec.parse("2*x + 5")
        pts = [Fraction(1, 3), Fraction(9, 10)]
        out, moved = pushforward_samples(pts, g)
        assert out[0] == Fraction(2, 3)  # 2/3 + 5 mod 1
        assert out[1] == Fraction(4, 5)  # 1.8 + 5 mod 1
        assert moved

    def test_polynomial_diffeo_accepted(self):
        g = MapSpec.parse("x**2 + x")
        out, _ = pushforward_samples([Fraction(1, 2)], g, hull=(0, 1))
        assert out[0] == Fraction(3, 4)

    def test_non_diffeo_rejected(self):
        g = MapSpec.parse("x**2")  # derivative vanishes at 0
        with pytest.raises(ValueError):
            pushforward_samples([Fraction(1, 2)], g, hull=(-1, 1))

class TestMapParser:
    @pytest.mark.parametrize("text,coeffs", [
        ("x + x^2/2", (0, 1, Fraction(1, 2))),
        ("x**2 + x", (0, 1, 1)),
        ("2*x + 5", (5, 2)),
        ("1/3*x - 2/7", (Fraction(-2, 7), Fraction(1, 3))),
        ("3*x/4 + x^3", (0, Fraction(3, 4), 0, 1)),
    ])
    def test_rational_polynomials(self, text, coeffs):
        g = MapSpec.parse(text)
        assert g.coeffs == coeffs

    @pytest.mark.parametrize("text", [
        "__import__('os').system('touch evaluated')", "sin(x)", "x*x",
        "x^2/0", "(x + 1)^2", "2**x", "x + y", "", "5", "x^2 - x^2", "exp",
        "exp(x)"])
    def test_anything_else_is_refused_unevaluated(self, text, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError):
            MapSpec.parse(text)
        assert list(tmp_path.iterdir()) == []

    def test_zero_leading_coefficient_is_refused(self):
        # parse drops zero leading terms; a direct caller gets the same rule
        with pytest.raises(ValueError, match="degree >= 1"):
            MapSpec((Fraction(5), Fraction(0)))

    @pytest.mark.parametrize("text,hull,ok", [
        ("x + x^2/2", (0, 1), True),        # g' = 1 + x, root at -1
        ("x + x^2/2", (-1, 0), False),      # the root sits on the hull's end
        ("x^3/3 - x/4", (Fraction(1, 2), 1), False),   # hull widened by 2^-30
        ("x^3/3 - x/4", (Fraction(3, 4), 1), True),
        ("x^3 + x", (-5, 5), True),         # g' = 3x^2 + 1 has no real root
        ("x^3 - 3*x^2 + 3*x", (0, 1), False),   # g' = 3(x - 1)^2
        ("2*x + 5", (-5, 5), True),         # g' = 2, a constant
    ])
    def test_derivative_roots_on_the_hull(self, text, hull, ok):
        g = MapSpec.parse(text)
        if ok:
            g.check_diffeo(*hull)
        else:
            with pytest.raises(ValueError, match="derivative vanishes"):
                g.check_diffeo(*hull)
