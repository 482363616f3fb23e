"""Greedy beta-expansions: digit conventions, exact orbit identities, the
piecewise invariant density against a transfer-operator oracle, normality
statistics, and smooth pushforwards."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betascenery as bs
from betascenery import (
    BetaBase,
    BigReal,
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
    tribonacci_parry_pieces,
)


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


class TestParryDensity:
    def test_integer_base_uniform(self):
        pd = parry_density(BetaBase(2))
        assert pd.values == (Fraction(1),)
        assert pd.tail_bound == 0.0

    def test_golden_frozen_values(self, golden_base):
        hi, lo, brk = golden_parry_values()
        pd = parry_density(golden_base)
        breaks, vals = pd.piece_floats()
        assert vals.shape == (2,)
        assert abs(vals[0] - hi) < 1e-12
        assert abs(vals[1] - lo) < 1e-12
        assert abs(breaks[1] - brk) < 1e-12
        assert pd.tail_bound == 0.0  # expansion of 1 terminates

    def test_tribonacci_frozen_values(self, tribonacci_base):
        breaks, vals = tribonacci_parry_pieces()
        pd = parry_density(tribonacci_base)
        got_breaks, got_vals = pd.piece_floats()
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
        breaks, vals = pd.piece_floats()
        idx = np.searchsorted(breaks, mids, side="right") - 1
        ours = vals[np.clip(idx, 0, len(vals) - 1)]
        l1 = np.abs(ours - dens).mean()
        assert l1 < 1e-3

    def test_nonterminating_rational_base_tail(self):
        base = BetaBase(Fraction(3, 2))
        pd = parry_density(base, truncation=64)
        # 64 stored orbit values mean 63 applied steps
        assert pd.tail_bound == pytest.approx(
            1.5 ** -63 / (1 - 1 / 1.5), rel=1e-9)
        assert pd.tail_bound > 0
        assert pd.truncated_at == 64

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
