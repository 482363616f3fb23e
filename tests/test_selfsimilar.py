"""Similarity IFS layer: hulls, separated-pair search, and measure sampling
against an independent transfer-operator oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import betascenery as bs
from betascenery import (
    FieldElement,
    SimilarityIFS,
    SimilarityMap,
    find_separated_pair,
    sample_measure,
)

from oracles import cdf_eval, ifs_hull, ifs_invariant_cdf, ks_against_cdf


def fifs(pairs, weights=None):
    maps = [SimilarityMap(Fraction(r), Fraction(t)) for r, t in pairs]
    w = None if weights is None else [Fraction(x) for x in weights]
    return SimilarityIFS(maps, w)


class TestMapsAndHulls:
    def test_map_compose_and_fixed_point(self):
        f = SimilarityMap(Fraction(1, 3), Fraction(2, 3))
        g = SimilarityMap(Fraction(1, 2), Fraction(0))
        fg = f.compose(g)
        assert fg.ratio == Fraction(1, 6)
        assert fg.shift == Fraction(2, 3)
        assert f.fixed_point() == Fraction(1)

    def test_middle_thirds_hull(self, middle_thirds):
        assert middle_thirds.attractor_hull() == (Fraction(0), Fraction(1))

    def test_two_ratio_hull(self, two_ratio):
        assert two_ratio.attractor_hull() == (Fraction(0), Fraction(1))

    def test_reflected_hull(self, reflected):
        assert reflected.attractor_hull() == (Fraction(0), Fraction(1))

    def test_all_reversing_hull(self):
        ifs = fifs([("-1/2", 0), ("-1/2", 1)])
        assert ifs.attractor_hull() == (Fraction(-2, 3), Fraction(4, 3))

    @given(st.lists(
        st.tuples(st.fractions(-0.75, 0.75, max_denominator=12)
                  .filter(lambda r: r != 0),
                  st.fractions(-2, 2, max_denominator=12)),
        min_size=1, max_size=4))
    # L = f_1(p_2) = -1, while f_1 f_2 and f_2 f_1 fix -2/5 and 4/5: the
    # fixed points of words of length <= 2 alone would miss it
    @example([(Fraction(-1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1))])
    @example([(Fraction(1, 2), Fraction(1, 3))])
    @example([(Fraction(1, 2), Fraction(0)), (Fraction(-1, 3), Fraction(0))])
    @settings(max_examples=300, deadline=None)
    def test_hull_is_the_fixed_interval(self, pairs):
        ifs = fifs(pairs)
        lo, hi = ifs.attractor_hull()
        # [L, H] is the fixed interval of the hull map, exactly
        images = [f.image_interval(lo, hi) for f in ifs.maps]
        assert lo == min(a for a, _ in images)
        assert hi == max(b for _, b in images)
        # and agrees with iterated float interval images
        flo, fhi = ifs_hull([(float(r), float(t)) for r, t in pairs])
        scale = max(1.0, abs(float(lo)), abs(float(hi)))
        assert abs(flo - float(lo)) <= 1e-12 * scale
        assert abs(fhi - float(hi)) <= 1e-12 * scale

    def test_golden_hull_without_floats(self, monkeypatch):
        g = bs.parse_scalar("golden")

        def no_float(self):
            raise AssertionError("the hull converted a field element")
        monkeypatch.setattr(FieldElement, "__float__", no_float)
        ifs = SimilarityIFS([SimilarityMap(1 / g, 0),
                             SimilarityMap(1 / g, -1 / g),
                             SimilarityMap(-1 / g, 1)])
        assert ifs.attractor_hull() == (-g, Fraction(2))

    def test_default_weights_uniform(self, middle_thirds):
        assert middle_thirds.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            fifs([("1/3", 0), ("1/3", "2/3")], ["1/2", "1/3"])

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            fifs([("1", 0), ("1/2", "1/2")])
        with pytest.raises(ValueError):
            fifs([("0", 0), ("1/2", "1/2")])


def hull_images(ifs, p):
    """The images of the attractor hull under the pair's two word maps,
    computed from the IFS, not read off the pair."""
    hull = ifs.attractor_hull()
    return (ifs.word_map(p.word_i).image_interval(*hull),
            ifs.word_map(p.word_j).image_interval(*hull))


class TestSeparatedPair:
    def test_middle_thirds(self, middle_thirds):
        p = find_separated_pair(middle_thirds)
        assert p.length == 1
        assert {p.word_i, p.word_j} == {(0,), (1,)}
        assert p.ratio == Fraction(1, 3)
        hull_i, hull_j = hull_images(middle_thirds, p)
        gap = hull_j[0] - hull_i[1]
        assert gap == Fraction(1, 3)

    def test_touching_pieces_need_level_two(self):
        # both pieces cover [0,1] jointly; level-1 hulls touch at 1/2
        ifs = fifs([("1/2", 0), ("1/2", "1/2")])
        p = find_separated_pair(ifs)
        assert p.length == 2
        assert p.ratio == Fraction(1, 4)
        hull_i, hull_j = hull_images(ifs, p)
        assert hull_j[0] > hull_i[1]

    def test_three_maps_skip_middle(self):
        ifs = fifs([("1/3", 0), ("1/3", "1/3"), ("1/3", "2/3")])
        p = find_separated_pair(ifs)
        assert p.length == 1
        assert {p.word_i, p.word_j} == {(0,), (2,)}

    def test_two_ratio(self, two_ratio):
        p = find_separated_pair(two_ratio)
        assert p.length == 2
        assert p.ratio == Fraction(1, 6)
        hull_i, hull_j = hull_images(two_ratio, p)
        assert hull_j[0] - hull_i[1] > 0

    def test_reflected_needs_matching_orientation(self, reflected):
        p = find_separated_pair(reflected)
        # signed ratios of the two words must agree, so the product of
        # reversing maps along each word has the same parity
        assert p.ratio == Fraction(1, 9)
        assert p.ratio > 0

    def test_all_reversing(self):
        ifs = fifs([("-1/2", 0), ("-1/2", 1)])
        p = find_separated_pair(ifs)
        assert p.ratio == Fraction(1, 4)
        hull_i, hull_j = hull_images(ifs, p)
        assert hull_i[1] < hull_j[0]

    def test_failure_when_no_gap(self):
        # one map: attractor is a single point, no separated pair exists
        with pytest.raises(ValueError, match="finite"):
            find_separated_pair(fifs([("1/2", 0)]), max_length=3)

    @pytest.mark.parametrize("pairs", [
        [("1/3", 0), ("1/3", "2/3")],
        [("1/2", 0), ("1/3", "2/3")],
        [("1/3", 0), ("-1/3", 1)],
        [("-1/2", 0), ("-1/2", 1)],
        [("1/4", 0), ("1/4", "1/2"), ("1/5", "4/5")],
    ])
    def test_invariants(self, pairs):
        ifs = fifs(pairs)
        p = find_separated_pair(ifs)
        # equal signed contraction along both words
        r_i = r_j = Fraction(1)
        for u in p.word_i:
            r_i *= ifs.maps[u].ratio
        for u in p.word_j:
            r_j *= ifs.maps[u].ratio
        assert r_i == r_j == p.ratio
        assert len(p.word_i) == len(p.word_j) == p.length
        # strict gap between the cylinder hulls
        hull_i, hull_j = hull_images(ifs, p)
        assert hull_i[1] < hull_j[0]


class TestSampling:
    def test_inside_hull(self, two_ratio):
        xs = sample_measure(two_ratio, 5000, seed=3)
        assert xs.min() >= 0.0 and xs.max() <= 1.0

    def test_deterministic(self, middle_thirds):
        a = sample_measure(middle_thirds, 1000, seed=7)
        b = sample_measure(middle_thirds, 1000, seed=7)
        assert np.array_equal(a, b)
        c = sample_measure(middle_thirds, 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_against_transfer_oracle(self, middle_thirds):
        grid, F = ifs_invariant_cdf([(1 / 3, 0.0), (1 / 3, 2 / 3)],
                                    [0.5, 0.5])
        xs = sample_measure(middle_thirds, 20_000, seed=1)
        ks = ks_against_cdf(xs, lambda t: cdf_eval(grid, F, t))
        assert ks < 0.02

    def test_weighted_against_oracle(self):
        ifs = fifs([("1/2", 0), ("1/3", "2/3")], ["3/4", "1/4"])
        grid, F = ifs_invariant_cdf([(0.5, 0.0), (1 / 3, 2 / 3)],
                                    [0.75, 0.25])
        xs = sample_measure(ifs, 20_000, seed=2)
        ks = ks_against_cdf(xs, lambda t: cdf_eval(grid, F, t))
        assert ks < 0.02

    def test_reflected_against_oracle(self, reflected):
        grid, F = ifs_invariant_cdf([(1 / 3, 0.0), (-1 / 3, 1.0)],
                                    [0.5, 0.5])
        xs = sample_measure(reflected, 20_000, seed=4)
        ks = ks_against_cdf(xs, lambda t: cdf_eval(grid, F, t))
        assert ks < 0.02

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hull_invariant(self, seed):
        ifs = fifs([("-1/2", 0), ("-1/2", 1)])
        lo, hi = ifs.attractor_hull()
        xs = sample_measure(ifs, 200, seed=seed)
        assert xs.min() >= float(lo) - 1e-12
        assert xs.max() <= float(hi) + 1e-12
