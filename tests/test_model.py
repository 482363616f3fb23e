"""Disintegration model: component bookkeeping, exact weights, sampling
identities, atom bounds, and serialization."""

import bisect
import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betascenery as bs
from betascenery import rng, selfsimilar
from betascenery.rng import (UniformStream, cdf_thresholds, derive_key,
                             draw_symbols)
from betascenery.scenery import (build_extended_chain,
                                 rescale_model_for_gap, sample_Q,
                                 scenery_orbit)
from betascenery.selfsimilar import SAMPLE_CHUNK_UNIFORMS, canonical_scalar
from betascenery import (
    Model,
    ModelComponent,
    build_model,
    sample_measure,
    sampling_depth,
    verify_ssc,
)

from oracles import (Word, atom_mass_bound, eta_samples, inner_word,
                     ks_between, omega_word, prefixed)


def cylinder(model, omega, inner):
    """Exact image of the hull under a path's maps, composed from the base
    IFS words behind each component map rather than through the model."""
    ratio, shift = Fraction(1), Fraction(0)
    for i, u in zip(omega, inner):
        for s in model.components[i].words[u]:
            f = model.base.maps[s]
            shift, ratio = shift + ratio * f.shift, ratio * f.ratio
    h0, h1 = model.hull
    a, b = shift + ratio * h0, shift + ratio * h1
    return (a, b) if ratio > 0 else (b, a)


class TestStructure:
    def test_middle_thirds_single_component(self, middle_thirds_model):
        m = middle_thirds_model
        assert m.n_components == 1
        assert m.selection == (Fraction(1),)
        c = m.components[0]
        assert c.ratio == Fraction(1, 3)
        assert c.words == ((0,), (1,))
        assert c.weights == (Fraction(1, 2), Fraction(1, 2))
        assert verify_ssc(m) == Fraction(1, 3)

    def test_two_ratio_components(self, two_ratio_model):
        m = two_ratio_model
        assert m.n_components == 3
        got = sorted((c.ratio, sel) for c, sel in
                     zip(m.components, m.selection))
        assert got == [(Fraction(1, 9), Fraction(1, 4)),
                       (Fraction(1, 6), Fraction(1, 2)),
                       (Fraction(1, 4), Fraction(1, 4))]

    def test_selection_sums_to_one(self, two_ratio_model):
        assert sum(two_ratio_model.selection) == Fraction(1)

    def test_component_weights_sum_to_one(self, two_ratio_model):
        for c in two_ratio_model.components:
            assert sum(c.weights) == Fraction(1)

    def test_component_ratios_match_words(self, two_ratio_model):
        m = two_ratio_model
        for c in m.components:
            for w in c.words:
                r = Fraction(1)
                for u in w:
                    r *= m.base.maps[u].ratio
                assert r == c.ratio

    def test_reflected_model_has_reflection(self, reflected_model):
        assert reflected_model.has_reflection
        # some word in some component must reverse orientation
        neg = [u for c in reflected_model.components
               for w in c.words for u in w
               if reflected_model.base.maps[u].ratio < 0]
        assert neg

    def test_positive_model_has_no_reflection(self, two_ratio_model):
        assert not two_ratio_model.has_reflection

    def test_verify_ssc_gap(self, middle_thirds_model):
        g = verify_ssc(middle_thirds_model)
        assert g == Fraction(1, 3)

    def test_supplied_pair_words(self, middle_thirds):
        m = build_model(middle_thirds, pair_words=((0,), (1,)))
        assert m.components[0].words == ((0,), (1,))

    def test_rejects_overlapping_pair(self, middle_thirds):
        with pytest.raises(ValueError):
            build_model(middle_thirds, pair_words=((0,), (0,)))


def row_words(model, seed, *labels):
    """The component and inner words that `Model.word_rows` fills from
    the streams (seed, "omega", *labels) and (seed, "inner", *labels), as
    reference words that read one span of rows at a time."""
    keys = {s: [derive_key(seed, s, *labels)] for s in ("omega", "inner")}
    return tuple(Word(source=lambda start, n, col=col:
                      model.word_rows(keys.get, start, n)[col][0])
                 for col in (0, 1))


class TestOmegaWord:
    def test_deterministic_symbols(self, two_ratio_model):
        w1 = row_words(two_ratio_model, 11)[0]
        w2 = row_words(two_ratio_model, 11)[0]
        assert [w1.symbol(k) for k in range(50)] == \
               [w2.symbol(k) for k in range(50)]

    def test_shift_consistency(self, two_ratio_model):
        w = row_words(two_ratio_model, 5)[0]
        s = w.shift(3)
        assert [s.symbol(k) for k in range(20)] == \
               [w.symbol(k + 3) for k in range(20)]

    def test_symbols_in_range(self, two_ratio_model):
        w = row_words(two_ratio_model, 2)[0]
        syms = {w.symbol(k) for k in range(200)}
        assert syms <= set(range(two_ratio_model.n_components))
        assert len(syms) == two_ratio_model.n_components

    def test_selection_frequencies(self, two_ratio_model):
        m = two_ratio_model
        w = row_words(m, 17)[0]
        n = 4000
        counts = np.bincount([w.symbol(k) for k in range(n)],
                             minlength=m.n_components)
        for i, sel in enumerate(m.selection):
            assert abs(counts[i] / n - float(sel)) < 0.03


# positions on both sides of the first two block edges, and past them
EDGES = [0, 1, 1022, 1023, 1024, 1025, 2046, 2047, 2048, 2049, 3100]


def scalar_symbol(weights, stream, k):
    """The definition of a drawn symbol, one position at a time."""
    return int(np.searchsorted(cdf_thresholds(weights),
                               stream.slice(k, 1)[0], side="right"))


class TestWord:
    def test_omega_word_is_scalar_draw(self, two_ratio_model):
        m = two_ratio_model
        stream = UniformStream(3, "omega", "lab")
        for order in (EDGES, EDGES[::-1]):
            w = row_words(m, 3, "lab")[0]
            got = {k: w.symbol(k) for k in order}
            assert got == {k: scalar_symbol(m.selection, stream, k)
                           for k in order}

    def test_shift_inside_a_block(self, two_ratio_model):
        m = two_ratio_model
        stream = UniformStream(3, "omega")
        w = row_words(m, 3)[0]
        for shift in (1, 700, 1023, 1500):
            v = w.shift(shift)
            assert [v.symbol(k) for k in EDGES] == \
                [scalar_symbol(m.selection, stream, k + shift)
                 for k in EDGES]
            assert v.shift(5).symbol(1020) == w.symbol(shift + 1025)
            assert list(v.take(1020, 8)) == \
                [w.symbol(shift + k) for k in range(1020, 1028)]

    def test_inner_word_is_scalar_draw(self, two_ratio_model):
        # the row source reads place k of both streams for symbol k, from
        # any first place read
        m = two_ratio_model
        stream = UniformStream(6, "inner", "x")
        keys = {"omega": [derive_key(5, "omega")],
                "inner": [derive_key(6, "inner", "x")]}
        for start in (0, 37, 1024):
            omega, inner = (t[0] for t in m.word_rows(keys.get, start,
                                                      EDGES[-1] + 1))
            assert [inner[k] for k in EDGES] == \
                [scalar_symbol(m.components[omega[k]].weights,
                               stream, start + k) for k in EDGES]

    def test_inner_word_over_a_fixed_head(self, two_ratio_model):
        m = two_ratio_model
        head = (2, 0, 1)
        omega = prefixed(head, omega_word(m, 7))
        omega_stream = UniformStream(7, "omega")
        want_omega = [head[k] if k < len(head) else
                      scalar_symbol(m.selection, omega_stream, k - len(head))
                      for k in EDGES]
        assert [omega.symbol(k) for k in EDGES] == want_omega
        inner = prefixed((1,), inner_word(m, omega, 8))
        inner_stream = UniformStream(8, "inner")
        want_inner = [1] + [
            scalar_symbol(m.components[omega.symbol(k - 1)].weights,
                          inner_stream, k - 1) for k in EDGES[1:]]
        assert [inner.symbol(k) for k in EDGES] == want_inner
        assert [inner.shift(2).symbol(k) for k in EDGES[:-1]] == \
            [inner.symbol(k + 2) for k in EDGES[:-1]]

    def test_finite_word_ends(self, two_ratio_model):
        w = Word([1, 0, 2])
        assert [w.symbol(k) for k in range(3)] == [1, 0, 2]
        assert w.shift(2).symbol(0) == 2
        assert list(w.take(0, 2)) == [1, 0]
        assert list(w.take(1, 5)) == [0, 2]
        for word, k in ((w, 3), (w.shift(2), 1), (w.shift(5), 0)):
            with pytest.raises(IndexError):
                word.symbol(k)
        inner = inner_word(two_ratio_model, w.shift(1), 4)
        assert inner.take(0, 5).size == 2
        with pytest.raises(IndexError):
            inner.symbol(2)


def mixed_model(reflected_model):
    """Three components of 3, 1 and 2 copies of a map of the reflected
    model's pair, with unequal weights: an inner threshold table of two
    rows, one padded."""
    base = reflected_model.components[0]
    comps = [ModelComponent(
        maps=(base.maps[0],) * len(ws),
        weights=tuple(Fraction(w, sum(ws)) for w in ws),
        words=(base.words[0],) * len(ws), ratio=base.ratio)
        for ws in ((1, 2, 3), (1,), (3, 1))]
    return Model(reflected_model.base, reflected_model.pair, comps,
                 [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])


# the furthest position a read below reaches, past five stream blocks
FILL_SPAN = 5400
SMALL_OR_LARGE = st.one_of(st.integers(0, 40), st.integers(0, 2100))
# (view, action, position or shift, count): a read of one of the four
# words of a stationary sample, or of a shifted view of one
FILL_READ = st.tuples(st.integers(0, 15),
                      st.sampled_from(["symbol", "take", "shift"]),
                      SMALL_OR_LARGE, st.integers(0, 1100))


class TestFillPattern:
    """The row source reads whatever spans its reads ask for, but each
    symbol is a pure function of its position: the words of a stationary
    sample, read in any interleaving, match one reference drawn in a
    single slice."""

    @pytest.fixture(scope="class")
    def fill_models(self, middle_thirds_model, reflected_model):
        return {"mt": middle_thirds_model, "refl": reflected_model,
                "mixed": mixed_model(reflected_model)}

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(["mt", "refl", "mixed"]),
           seed=st.integers(0, 2 ** 32),
           heads=st.lists(st.lists(st.integers(0, 2), max_size=3),
                          min_size=2, max_size=2),
           reads=st.lists(FILL_READ, min_size=1, max_size=12))
    def test_words_do_not_depend_on_their_fill(self, fill_models, name,
                                                seed, heads, reads):
        m = fill_models[name]
        u_omega = UniformStream(seed, "omega", "fill").slice(0, FILL_SPAN)
        u_inner = UniformStream(seed, "inner", "fill").slice(0, FILL_SPAN)
        ref_omega = draw_symbols(m._selection_thresholds, u_omega).tolist()
        inner_cdfs = [cdf_thresholds(c.weights).tolist()
                      for c in m.components]
        ref_inner = [bisect.bisect_right(inner_cdfs[c], u)
                     for c, u in zip(ref_omega, u_inner.tolist())]
        # the component and inner words of the row source
        tail, inner = row_words(m, seed, "fill")
        refs = [ref_omega, ref_inner, heads[0] + ref_omega,
                heads[1] + ref_inner]
        views = [(w, 0, r) for w, r in zip(
            [tail, inner, prefixed(heads[0], tail),
             prefixed(heads[1], inner)], refs)]
        for which, action, k, n in reads:
            word, off, ref = views[which % len(views)]
            if action == "shift":
                if off + k <= 2100:
                    views.append((word.shift(k), off + k, ref))
            elif action == "symbol":
                assert word.symbol(k) == ref[off + k]
            else:
                assert word.take(k, n).tolist() == ref[off + k:off + k + n]


@pytest.fixture()
def slices(monkeypatch):
    """The (start, count) of every UniformStream.slice call, in order."""
    made = []
    real = UniformStream.slice

    def spy(stream, start, count):
        made.append((start, count))
        return real(stream, start, count)
    monkeypatch.setattr(UniformStream, "slice", spy)
    return made


class TestNothingUnread:
    """Uniforms that no comparison reads are never generated."""

    @pytest.fixture()
    def filled(self, monkeypatch):
        """The uniforms the shared generator makes, by stream key as the
        generator holds it."""
        made = {}
        real = rng._GENERATOR

        class Spy:
            def random(self, out):
                key = rng._STATE["state"]["key"]
                made[key] = made.get(key, 0) + out.size
                return real.random(out=out)
        monkeypatch.setattr(rng, "_GENERATOR", Spy())
        return made

    def test_one_component_reads_no_component_stream(
            self, middle_thirds_model, slices, filled):
        m = middle_thirds_model
        depth = sampling_depth([c.ratio for c in m.components])
        rows = SAMPLE_CHUNK_UNIFORMS // depth
        count = 2 * rows + 5
        m.sample_measure(count, 3)
        # three chunks, each reading only its inner half
        assert [start for start, _ in slices] == \
            [(count + s) * depth for s in range(0, count, rows)]
        assert sum(n for _, n in slices) == count * depth
        filled.clear()
        assert not row_words(m, 3)[0].take(0, 5000).any()
        assert set(filled) == generator_keys(3, [("inner",)])

    def test_stationary_words_hold_what_the_descent_reads(
            self, middle_thirds_model, two_ratio_model, filled):
        for model in (middle_thirds_model, two_ratio_model):
            m, _ = rescale_model_for_gap(model)
            filled.clear()
            sample_Q(m, build_extended_chain(m), 64, seed=5)
            # the state and time streams, each draw's inner stream, and its
            # omega stream only where the model has more than one component
            labels = [("Q-state",), ("Q-time",)]
            labels += [("inner", "Q-inner", j) for j in range(64)]
            if m.n_components > 1:
                labels += [("omega", "Q-omega", j) for j in range(64)]
            assert set(filled) == generator_keys(5, labels)
            assert max(filled.values()) < 1024

    def test_orbit_reads_only_its_two_streams(
            self, middle_thirds_model, two_ratio_model, reflected_model,
            filled):
        for model in (middle_thirds_model, two_ratio_model, reflected_model):
            m, _ = rescale_model_for_gap(model)
            filled.clear()
            scenery_orbit(m, T=60.0, dt=0.5, seed=4)
            # the inner stream, and the omega stream only where the model
            # has more than one component
            labels = [("inner", "orbit-inner")]
            if m.n_components > 1:
                labels += [("omega", "orbit-omega")]
            assert set(filled) == generator_keys(4, labels)


class TestChunking:
    """Both samplers give the same bits however `fold_in_chunks` cuts their
    rows, and read each uniform place of their stream once."""

    COUNT = 50

    @pytest.fixture()
    def runs(self, middle_thirds_model, two_ratio_model, reflected_model):
        """(draw, depth, first, end) for both samplers of each model: the
        places [first, end) of its stream that a draw reads.  The direct
        sampler reads count * depth places from 0, the model sampler twice
        as many, or only the inner half in a one-component model."""
        n = self.COUNT
        out = []
        for m in (middle_thirds_model, two_ratio_model, reflected_model):
            depth = sampling_depth([f.ratio for f in m.base.maps])
            out.append((functools.partial(sample_measure, m.base, n, seed=8),
                        depth, 0, n * depth))
            depth = sampling_depth([c.ratio for c in m.components])
            first = 0 if m.n_components > 1 else n * depth
            out.append((functools.partial(m.sample_measure, n, 9),
                        depth, first, 2 * n * depth))
        return out

    @staticmethod
    def budgets(depth):
        # the default, then budgets below the depth (one row per chunk),
        # just above it and around three rows
        return (SAMPLE_CHUNK_UNIFORMS, 1, depth - 1, depth + 1, 3 * depth + 2)

    def test_every_budget_gives_the_same_bits(self, runs, monkeypatch):
        for draw, depth, _, _ in runs:
            got = []
            for budget in self.budgets(depth):
                monkeypatch.setattr(selfsimilar, "SAMPLE_CHUNK_UNIFORMS",
                                    budget)
                got.append(draw().view(np.int64))
            assert all(np.array_equal(g, got[0]) for g in got)

    def test_chunks_tile_the_places_once(self, runs, slices, monkeypatch):
        for draw, depth, first, end in runs:
            for budget in self.budgets(depth):
                monkeypatch.setattr(selfsimilar, "SAMPLE_CHUNK_UNIFORMS",
                                    budget)
                slices.clear()
                draw()
                spans = sorted(slices)
                assert [s for s, _ in spans] == \
                    [first] + [s + k for s, k in spans[:-1]]
                assert sum(spans[-1]) == end


def generator_keys(seed, labels):
    """The keys of the streams (seed, *label) as the shared generator
    holds them: two little-endian 64-bit words."""
    keys = [derive_key(seed, *lab) for lab in labels]
    return {(k & (2 ** 64 - 1), k >> 64) for k in keys}


def sample_eta(model, omega, count, seed):
    """`count` float draws from eta_omega, from the uniforms of the stream
    (seed, "eta"), one row of len(omega) per point."""
    u = UniformStream(seed, "eta").slice(0, count * len(omega))
    return eta_samples(model, omega, u.reshape(count, len(omega)))


class TestSampling:
    def test_eta_in_hull(self, two_ratio_model):
        m = two_ratio_model
        xs = sample_eta(m, omega_word(m, 1).take(0, 40), 2000, 2)
        lo, hi = m.hull
        assert xs.min() >= float(lo) - 1e-12
        assert xs.max() <= float(hi) + 1e-12

    def test_shift_identity(self, two_ratio_model):
        # eta(omega) should equal the mixture: pick a first-level word u by
        # the weights of component omega_0, then map eta(shift omega)
        # through that word's similarity
        m = two_ratio_model
        omega = omega_word(m, 23)
        direct = sample_eta(m, omega.take(0, 50), 30_000, 101)

        comp = m.components[omega.symbol(0)]
        rng = np.random.default_rng(7)
        tail = sample_eta(m, omega.shift(1).take(0, 49), 30_000, 202)
        probs = np.array([float(x) for x in comp.weights])
        choice = rng.choice(len(comp.words), size=tail.size, p=probs)
        mixed = np.empty_like(tail)
        for j, w in enumerate(comp.words):
            r, t = Fraction(1), Fraction(0)
            for u in w:
                f = m.base.maps[u]
                r, t = r * f.ratio, r * f.shift + t
            # word map acts as x -> r x + t after composing left to right
            sel = choice == j
            mixed[sel] = float(r) * tail[sel] + float(t)
        assert ks_between(direct, mixed) < 0.025

    def test_disintegration_recovers_base_measure(self, middle_thirds_model):
        m = middle_thirds_model
        mixed = m.sample_measure(20_000, 5)
        direct = sample_measure(m.base, 20_000, seed=6)
        assert ks_between(mixed, direct) < 0.02

    def test_coded_points_match_value(self, middle_thirds_model):
        # the path's maps applied to the hull midpoint give exactly the
        # midpoint of the path's cylinder
        m = middle_thirds_model
        omega = omega_word(m, 4)
        om = omega.take(0, 60)
        for s in range(5):
            inner = inner_word(m, omega, 8, s).take(0, 60)
            lo, hi = cylinder(m, om, inner)
            assert m.point_of_path(om, inner) == (lo + hi) / 2
            assert float(hi - lo) < 1e-25

    def test_point_of_path_in_hull(self, two_ratio_model):
        m = two_ratio_model
        omega = omega_word(m, 10)
        om = omega.take(0, 30)
        h0, h1 = m.hull
        for s in range(3):
            inner = inner_word(m, omega, 11, s).take(0, 30)
            lo, hi = cylinder(m, om, inner)
            x = m.point_of_path(om, inner)
            assert h0 <= lo <= x <= hi <= h1


def horner_point(model, omega, inner):
    """The path's maps applied one by one, innermost first, to the hull
    midpoint: the sequential reference for the product-tree coder."""
    lo, hi = model.hull
    x = (lo + hi) / 2
    for i, u in zip(reversed(omega), reversed(inner)):
        f = model.components[i].maps[u]
        x = f.ratio * x + f.shift
    return canonical_scalar(x)


@pytest.fixture(scope="module")
def golden_square_model():
    # ratio 1/golden^2 with shifts 0 and 1 - ratio: maps over Q(golden)
    g = bs.parse_scalar("golden")
    r = 1 / (g * g)
    return build_model(bs.SimilarityIFS(
        [bs.SimilarityMap(r, Fraction(0)), bs.SimilarityMap(r, 1 - r)]))


class TestPointOfPath:
    @given(st.sampled_from(["middle_thirds_model", "two_ratio_model",
                            "reflected_model", "golden_square_model"]),
           st.one_of(st.sampled_from([0, 1, 2, 3, 7]),
                     st.integers(0, 200)),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_tree_matches_horner(self, request, name, length, data):
        m = request.getfixturevalue(name)
        omega = data.draw(st.lists(st.integers(0, m.n_components - 1),
                                   min_size=length, max_size=length))
        inner = [data.draw(st.integers(0, m.components[i].size - 1))
                 for i in omega]
        got = m.point_of_path(omega, inner)
        want = horner_point(m, omega, inner)
        assert got == want
        assert type(got) is type(want)


class TestAtomBound:
    def test_shrinks_with_depth(self, middle_thirds_model):
        m = middle_thirds_model
        prev = Fraction(1)
        for n in range(1, 12):
            b = atom_mass_bound(m, [0] * n)
            assert 0 < b <= prev
            prev = b
        assert prev < Fraction(1, 1000)

    def test_exact_product_of_max_weights(self, two_ratio_model):
        # bound multiplies the largest word weight of each selected
        # component; singleton components contribute a factor of one
        m = two_ratio_model
        w = omega_word(m, 1)
        prefix = [w.symbol(k) for k in range(14)]
        expect = Fraction(1)
        for s in prefix:
            expect *= max(m.components[s].weights)
        assert atom_mass_bound(m, prefix) == expect

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_prefix(self, prefix):
        m = build_model(bs.SimilarityIFS(
            [bs.SimilarityMap(Fraction(1, 2), Fraction(0)),
             bs.SimilarityMap(Fraction(1, 3), Fraction(2, 3))]))
        full = atom_mass_bound(m, prefix)
        shorter = atom_mass_bound(m, prefix[:-1])
        assert 0 < full <= shorter <= 1

    def test_bound_formula(self, middle_thirds_model):
        # single component with two equal weights: bound halves per level
        m = middle_thirds_model
        assert atom_mass_bound(m, [0, 0]) == Fraction(1, 4)


class TestSerialization:
    def test_round_trip_exact(self, two_ratio_model):
        m = two_ratio_model
        s = m.to_json()
        m2 = Model.from_json(s)
        assert m2.to_json() == s
        assert m2.selection == m.selection
        assert verify_ssc(m2) == verify_ssc(m)
        for c, c2 in zip(m.components, m2.components):
            assert c.ratio == c2.ratio
            assert c.words == c2.words
            assert c.weights == c2.weights

    def test_round_trip_sampling_identical(self, reflected_model):
        m2 = Model.from_json(reflected_model.to_json())
        a = sample_eta(reflected_model,
                       omega_word(reflected_model, 2).take(0, 30), 400, 3)
        b = sample_eta(m2, omega_word(m2, 2).take(0, 30), 400, 3)
        assert np.array_equal(a, b)

    def test_json_is_versioned(self, middle_thirds_model):
        doc = json.loads(middle_thirds_model.to_json())
        assert "format" in doc

    def test_golden_ratio_base_round_trip(self):
        # irrational contraction built over a quadratic field
        g = bs.parse_scalar("golden")
        r = 1 / (g * g)  # ~0.382, exact field element
        ifs = bs.SimilarityIFS(
            [bs.SimilarityMap(r, bs.parse_scalar("0")),
             bs.SimilarityMap(r, 1 - r)])
        m = build_model(ifs)
        m2 = Model.from_json(m.to_json())
        assert m2.to_json() == m.to_json()
        assert m2.n_components == m.n_components

    def test_document_does_not_depend_on_evaluation(self):
        # the document prints the field's interval; signs, floors, floats
        # and enclosures of the model's elements must leave it as it was
        g = bs.parse_scalar("golden")
        r = 1 / (g * g)
        m = build_model(bs.SimilarityIFS(
            [bs.SimilarityMap(r, bs.parse_scalar("0")),
             bs.SimilarityMap(r, 1 - r)]))
        before = m.to_json()
        r.enclosure(300)
        assert float(r * 10 ** 40) == pytest.approx(3.819660112501051e39)
        assert 0 < r < 1 - r and abs(r) == r and math.floor(g ** 9) == 76
        assert m.to_json() == before


class TestSamplingDepth:
    def test_depth_reaches_requested_bits(self, two_ratio_model):
        m = two_ratio_model
        d = sampling_depth([c.ratio for c in m.components])
        # worst contraction per level is max ratio 1/4
        assert Fraction(1, 4) ** d <= Fraction(1, 2 ** 60)

    def test_atom_bound_used_by_disintegration(self, middle_thirds_model):
        xs = middle_thirds_model.sample_measure(500, 1)
        assert np.isfinite(xs).all()
