"""Greedy beta-expansions: digit conventions, exact orbit identities, the
piecewise invariant density against a transfer-operator oracle, normality
statistics, and smooth pushforwards."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    normality_statistic,
    orbit_of_one,
    parry_density,
    pushforward_samples,
)

from oracles import (
    beta_invariant_density,
    golden_parry_values,
    greedy_digits_ok,
    tribonacci_parry_pieces,
)

# bases of the lattice sweep: integers, rationals, Pisot numbers, one
# non-Pisot and one non-monic base (c = 2)
LATTICE_BASES = ["2", "3", "10", "3/2", "5/3", "7/2", "10/3", "x^2 - x - 1",
                 "x^3 - x^2 - x - 1", "x^3 - x - 1", "x^4 - x^3 - x^2 - x - 1",
                 "x^2 - 3*x + 1", "x^2 - 2", "2*x^2 - 3*x - 1"]


@functools.lru_cache(maxsize=None)
def lattice_base(text: str) -> BetaBase:
    try:
        return BetaBase(Fraction(text))
    except ValueError:
        return BetaBase(AlgebraicNumber.largest_root(IntPolynomial.parse(text)))


def greedy_orbit(base, x, steps):
    """The orbit in plain exact-scalar arithmetic (Fractions and field
    elements): the reference for the lattice."""
    b = base.exact_value()
    digits, rems = [], []
    for _ in range(steps):
        y = b * x
        d = math.floor(y)
        x = y - d
        digits.append(int(d))
        rems.append(x)
    return digits, rems


def unwind_reference(base, x, digits):
    """x_0 from the last remainder x: x <- (x + d)/beta, in exact scalars."""
    b_inv = 1 / base.exact_value()
    for d in reversed(digits):
        x = (x + d) * b_inv
    return x


def assert_matches_reference(base, x, steps):
    """The lattice orbit against the plain exact-scalar loop: digits,
    remainders, floats and the backward reconstruction."""
    rec = beta_orbit(base, x, steps)
    x = base.coerce_point(x)
    digits, rems = greedy_orbit(base, x, steps)
    assert rec.digits == digits
    assert list(rec.remainders) == rems
    # both float paths are certified: integer division or fixed point
    # here, Fraction division or interval Horner in the reference
    assert rec.orbit_floats().tolist() == [float(r) for r in [x, *rems[:-1]]]
    assert rec.reconstruct_exact() == x
    assert unwind_reference(base, rems[-1], digits) == x


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
        assert rec.remainders[-1] == 0

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
        assert acc + Fraction(rec.remainders[-1], 3 ** n) == x
        for r in rec.remainders:
            assert 0 <= r < 1

    def test_reconstruct_exact_rational(self):
        base = BetaBase(2)
        for q in [Fraction(1, 3), Fraction(5, 7), Fraction(113, 997)]:
            rec = beta_orbit(base, q, 200)
            assert rec.reconstruct_exact() == q

    def test_reconstruct_exact_field(self, golden_base):
        for q in [Fraction(1, 3), Fraction(2, 7), Fraction(22, 113)]:
            rec = beta_orbit(golden_base, q, 150)
            back = rec.reconstruct_exact()
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
        st_ = normality_statistic(BetaBase(2), Fraction(1, 3), 400, grid=1024)
        assert st_.discrepancy >= 1 / 3 - 1 / 1024


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
        rec = beta_orbit(BetaBase(Fraction(3, 2)), Fraction(1, 7), 5)
        assert rec.digits == [0, 0, 0, 0, 1]
        assert rec.remainders.states == [(3,), (9,), (27,), (81,), (19,)]
        assert [rec.remainders.denominator(k) for k in range(5)] == \
            [7 * 2 ** (k + 1) for k in range(5)]
        assert rec.remainders[1:3] == [Fraction(9, 28), Fraction(27, 56)]

    @pytest.mark.parametrize("text", ["2", "3/2", "10/3", "x^2 - x - 1",
                                      "2*x^2 - 3*x - 1"])
    def test_subnormal_floats(self, text):
        # x ~ 2^-1060: the first remainders' floats are subnormal, and each
        # must still be the float nearest the exact value
        base = lattice_base(text)
        x = Fraction(1, 7 * 2 ** 1057)
        rec = beta_orbit(base, x, 40)
        floats = rec.orbit_floats()
        assert 0 < floats[0] < 2.0 ** -1022
        assert_matches_reference(base, x, 40)

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
        # a 4-bit start cannot certify most floors or floats: the precision
        # doubles, and nothing else changes
        monkeypatch.setattr(bn, "LATTICE_BITS", 4)
        for name in ("golden", "tribonacci"):
            base = BetaBase(named_constant(name))
            assert_matches_reference(base, Fraction(22, 113), 300)
            assert max(base._lattice._tables) > 4

    def test_escalation_is_per_orbit(self, monkeypatch):
        # the coordinates of 1/3 + sqrt(2)/5 grow like sqrt(2)^n, so 2000
        # digits need powers far wider than the start; a later short orbit
        # on the same base starts again at LATTICE_BITS
        base = BetaBase(AlgebraicNumber.largest_root(
            IntPolynomial.parse("x^2 - 2")))
        lat = base._lattice
        used = []
        fixed = lat._fixed

        def recording(v, bits):
            used.append(bits)
            return fixed(v, bits)
        monkeypatch.setattr(lat, "_fixed", recording)
        x = base._field.element([Fraction(1, 3), Fraction(1, 5)])
        long = beta_orbit(base, x, 2000)
        assert max(used) > 8 * bn.LATTICE_BITS
        used.clear()
        short = beta_orbit(base, x, 20)
        assert set(used) == {bn.LATTICE_BITS}
        assert short.digits == long.digits[:20]

    def test_remainders_compare_like_a_list(self, golden_base):
        rec = beta_orbit(golden_base, Fraction(2, 7), 30)
        rems = list(rec.remainders)
        assert rec.remainders == rems and rems == rec.remainders
        assert rec.remainders[5:] == rems[5:]
        assert rec.remainders != rems[1:]
        assert rec.remainders != tuple(rems)

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
        third, tiny = Fraction(1, 3), Fraction(1, 2 ** 80)
        g = golden_base._field.beta()
        values = [third + tiny, g - 1, third, third - tiny, Fraction(1, 5),
                  (g - 1) + tiny]
        floats, ordered = bn._sorted_with_floats(values)
        assert ordered == [Fraction(1, 5), third - tiny, third, third + tiny,
                           g - 1, (g - 1) + tiny]
        assert floats == [float(z) for z in ordered]

    def test_cdf_properties(self, golden_base):
        pd = parry_density(golden_base)
        xs = np.linspace(0, 1, 501)
        F = pd.cdf(xs)
        assert F[0] == pytest.approx(0.0, abs=1e-12)
        assert F[-1] == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(F) >= -1e-12).all()

    def test_sampling_matches_density(self, golden_base):
        # 100 independent batches; the empirical CDF distance should be at
        # the 1/sqrt(n) scale in nearly every batch
        pd = parry_density(golden_base)
        bad = 0
        for rep in range(100):
            xs = np.sort(pd.sample(10_000, seed=rep))
            F = pd.cdf(xs)
            n = xs.size
            up = np.abs(np.arange(1, n + 1) / n - F).max()
            dn = np.abs(F - np.arange(0, n) / n).max()
            if max(up, dn) >= 0.03:
                bad += 1
        assert bad <= 5


class TestNormalityStatistic:
    def test_digit_freqs_sum(self, golden_base):
        st_ = normality_statistic(golden_base, Fraction(2, 7), 500)
        assert st_.digit_freqs.sum() == pytest.approx(1.0)
        assert st_.steps == 500

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
        orb = rec.orbit_floats()
        for t in np.linspace(0.05, 0.95, 19):
            emp = (orb < t).mean()
            assert abs(emp - float(pd.cdf(np.array([t]))[0])) \
                <= st_.discrepancy + 5e-3


class TestBigRealPath:
    def test_matches_exact_digits(self, golden_base):
        xb = BigReal.from_fraction(Fraction(1, 3), 512)
        r1 = beta_orbit(golden_base, xb, 100)
        r2 = beta_orbit(golden_base, Fraction(1, 3), 100)
        assert list(r1.digits) == list(r2.digits)
        assert r1.precision_used >= 512

    def test_wide_interval_raises(self, golden_base):
        wide = BigReal.from_interval(Fraction(1, 3) - Fraction(1, 10 ** 12),
                                     Fraction(1, 3) + Fraction(1, 10 ** 12),
                                     256)
        with pytest.raises(OrbitUndecidable) as exc:
            beta_orbit(golden_base, wide, 200)
        assert exc.value.step > 0
        assert exc.value.precision > 0

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

    def test_exp_float_path(self):
        g = MapSpec.parse("exp(x)")
        xs = np.array([0.0, 0.5])
        out, moved = pushforward_samples(xs, g, hull=(0, 1))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(math.exp(0.5) % 1.0)
        assert moved

    def test_pushforward_preserves_normality_empirically(self, golden_base):
        # a smooth change of variable must not destroy equidistribution of
        # sampled Parry points
        pd = parry_density(golden_base)
        xs = pd.sample(20_000, seed=5)
        g = MapSpec.parse("x + x**2/2")
        ys, _ = pushforward_samples(xs, g, hull=(0, 1))
        rec = np.sort(np.asarray(ys, dtype=float))
        # compare against the exact pushforward law via change of variables:
        # P(g(X) mod 1 <= t) with g increasing on [0,1], g(0)=0, g(1)=3/2
        # piece 1: g(x) <= t  -> x <= ginv(t); piece 2: 1 <= g(x) <= 1 + t
        def ginv(t):
            return np.sqrt(2 * t + 1) - 1
        ts = np.linspace(0.01, 0.99, 25)
        Femp = np.searchsorted(rec, ts) / rec.size
        golden_cdf = lambda v: pd.cdf(np.asarray(v, dtype=float))
        Fth = golden_cdf(ginv(ts)) - golden_cdf(ginv(np.ones_like(ts))) \
            + golden_cdf(ginv(1 + ts))
        assert np.abs(Femp - Fth).max() < 0.02
