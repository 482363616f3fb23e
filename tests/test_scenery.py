"""Scenery stack: exact chain algebra, deterministic window rendering, the
replay identity of the zoom flow, suspension sampling, and the spectral
obstruction check."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import betascenery as bs
from betascenery import (
    BetaBase,
    Inconclusive,
    NormalityImplied,
    build_extended_chain,
    build_model,
    center_and_window,
    compare_scenery_to_Q,
    evaluate_panel,
    named_constant,
    panel_average,
    panel_names,
    point_mass_window,
    rescale_model_for_gap,
    sample_Q,
    sample_measure,
    scenery_orbit,
    spectrum_obstruction,
    window_of_state,
    windows_of_states,
)
from betascenery.model import Word
from betascenery.scenery import focus_point, windows

from oracles import (cylinder_focus, cylinder_window, ks_between,
                     panel_by_masks)


@pytest.fixture(scope="module")
def mt_scaled(middle_thirds_model):
    m, c = rescale_model_for_gap(middle_thirds_model)
    return m


@pytest.fixture(scope="module")
def refl_scaled(reflected_model):
    m, c = rescale_model_for_gap(reflected_model)
    return m


@pytest.fixture(scope="module")
def two_ratio_scaled(two_ratio_model):
    m, c = rescale_model_for_gap(two_ratio_model)
    return m


class TestChain:
    def test_middle_thirds_exact(self, middle_thirds_model):
        ch = build_extended_chain(middle_thirds_model)
        assert ch.states == ((0, 0), (0, 1))
        assert ch.stationary == (Fraction(1, 2), Fraction(1, 2))
        assert ch.verify_stationary()
        assert not ch.has_orientation
        for row in ch.matrix:
            assert sum(row) == Fraction(1)
        assert all(r == pytest.approx(math.log(3)) for r in ch.roofs)
        assert ch.expected_roof() == pytest.approx(math.log(3), abs=1e-12)

    def test_two_ratio_exact(self, two_ratio_model):
        m = two_ratio_model
        ch = build_extended_chain(m)
        assert ch.size == sum(len(c.words) for c in m.components)
        assert ch.verify_stationary()
        assert sum(ch.stationary) == Fraction(1)
        # stationary mass of state (i, u) is selection_i * weight_u
        for s, pi in zip(ch.states, ch.stationary):
            i, u = s[0], s[1]
            assert pi == m.selection[i] * m.components[i].weights[u]
        # product structure: transition probabilities ignore the source
        for row in ch.matrix[1:]:
            assert row == ch.matrix[0]

    def test_expected_roof_closed_form(self, two_ratio_model):
        # selection (1/2, 1/4, 1/4) on ratios (1/6, 1/4, 1/9) gives
        # E[roof] = log 6 exactly
        ch = build_extended_chain(two_ratio_model)
        assert ch.expected_roof() == pytest.approx(math.log(6), abs=1e-12)

    def test_reflected_orientation(self, reflected_model):
        ch = build_extended_chain(reflected_model)
        assert ch.has_orientation
        assert all(len(s) == 3 for s in ch.states)
        assert ch.verify_stationary()
        assert ch.orientation_marginal() == (Fraction(1, 2), Fraction(1, 2))
        # transitions out of a reversing component flip the flag
        signs = {i: (c.ratio < 0)
                 for i, c in enumerate(reflected_model.components)}
        idx = {s: k for k, s in enumerate(ch.states)}
        for src in ch.states:
            for tgt in ch.states:
                p = ch.matrix[idx[src]][idx[tgt]]
                want_flip = signs[src[0]]
                if p > 0:
                    assert (tgt[2] != src[2]) == want_flip

    def test_diameter_bound(self, middle_thirds_model, two_ratio_model,
                            reflected_model):
        for m in (middle_thirds_model, two_ratio_model, reflected_model):
            ch = build_extended_chain(m)
            assert ch.diameter <= 2

    def test_length_biased_weights(self, two_ratio_model):
        ch = build_extended_chain(two_ratio_model)
        lb = ch.length_biased_weights()
        assert lb == pytest.approx(
            np.array([float(p) * r for p, r in zip(ch.stationary, ch.roofs)])
            / sum(float(p) * r for p, r in zip(ch.stationary, ch.roofs)))


class TestWindows:
    def test_point_mass_shape(self):
        w = point_mass_window(bins_half=64)
        assert w.bins.shape == (128,)
        assert w.bins.sum() == pytest.approx(1.0)
        assert w.zero_in_support

    def test_window_mass_bounded(self, mt_scaled):
        w = window_of_state(mt_scaled, mt_scaled.omega_word(1),
                            mt_scaled.inner_word(mt_scaled.omega_word(1), 2),
                            0, 3.0)
        assert w.bins.sum() <= 1.0 + 1e-9
        assert w.bins.min() >= 0.0
        assert w.zero_in_support

    def test_reflect_involution(self, mt_scaled):
        w = window_of_state(mt_scaled, mt_scaled.omega_word(4),
                            mt_scaled.inner_word(mt_scaled.omega_word(4), 5),
                            0, 2.0)
        r = w.reflect()
        assert np.array_equal(r.reflect().bins, w.bins)
        assert np.array_equal(r.bins, w.bins[::-1])

    def test_orientation_flag_reflects(self, mt_scaled):
        om = mt_scaled.omega_word(6)
        inner = mt_scaled.inner_word(om, 7)
        w0 = window_of_state(mt_scaled, om, inner, 0, 2.5)
        w1 = window_of_state(mt_scaled, om, inner, 1, 2.5)
        assert w0.l1_distance(w1.reflect()) < 1e-8

    def test_cdf_and_distances(self):
        a = point_mass_window(64)
        assert a.l1_distance(a) == 0.0
        assert a.ks_distance(a) == 0.0
        cdf = a.cdf()
        assert cdf[-1] == pytest.approx(1.0)
        assert (np.diff(cdf) >= 0).all()

    def test_central_mass(self):
        a = point_mass_window(64)
        assert a.central_mass(0.5) == pytest.approx(1.0)

    def test_panel_shape_and_names(self):
        names = panel_names()
        assert len(names) == 32
        assert len(set(names)) == 32
        w = point_mass_window(256)
        vec = evaluate_panel(w)
        assert vec.shape == (32,)
        assert vec[0] == pytest.approx(1.0)  # constant functional

    def test_panel_average(self, mt_scaled):
        om = mt_scaled.omega_word(8)
        ws = [window_of_state(mt_scaled, om,
                              mt_scaled.inner_word(om, s), 0, 1.0)
              for s in range(3)]
        avg = panel_average(ws)
        stack = np.stack([evaluate_panel(w) for w in ws]).mean(axis=0)
        assert avg == pytest.approx(stack)

    def test_mismatched_bins_rejected(self):
        a = point_mass_window(64)
        b = point_mass_window(128)
        with pytest.raises(ValueError):
            a.l1_distance(b)


@pytest.fixture(scope="module")
def weighted_scaled(middle_thirds):
    # weights 1/3 and 2/3: cylinder masses are not dyadic, so the order of
    # the float additions into a bin shows in its last bits
    m, c = rescale_model_for_gap(build_model(bs.SimilarityIFS(
        middle_thirds.maps, [Fraction(1, 3), Fraction(2, 3)])))
    return m


@pytest.fixture(scope="module")
def flipped_scaled():
    # both maps reverse orientation, so the pair component does too: the
    # focus split flips sides between the levels that credit siblings
    m, c = rescale_model_for_gap(build_model(bs.SimilarityIFS(
        [bs.SimilarityMap(Fraction(-1, 3), Fraction(1, 3)),
         bs.SimilarityMap(Fraction(-1, 3), Fraction(1))])))
    return m


DESCENT_MODELS = ["mt_scaled", "two_ratio_scaled", "refl_scaled",
                  "weighted_scaled", "flipped_scaled"]

# node_budget 4 trips the valve on every model; at eps_cut 0.05 the
# cylinders that still straddle a bin edge a few levels down are tiny
DESCENT_SETTINGS = {
    "default": {},
    "valve": {"node_budget": 4},
    "cutoff": {"eps_cut": 0.05},
    "both": {"node_budget": 9, "eps_cut": 1e-3, "bins_half": 32,
             "window_radius": 0.5},
    "coarse": {"node_budget": 12, "eps_cut": 0.02, "bins_half": 2},
}


def oracle_model(m):
    """The model as the cylinder oracle reads it: (comps, hull) in floats."""
    comps = [(float(c.ratio), [float(f.shift) for f in c.maps],
              [float(w) for w in c.weights]) for c in m.components]
    return comps, (float(m.hull[0]), float(m.hull[1]))


def descent_states(m, n):
    states = []
    for s in range(n):
        om = m.omega_word(1, "descent", s)
        inner = m.inner_word(om, 1, "descent", s)
        states.append((om.shift(s % 3), inner.shift(s % 3), s % 2,
                       0.37 * s % 3.0))
    return states


class TestBatchedDescent:
    """Every window's bins are the same floats whether it is rendered
    alone, in one block with the others, or in a block cut short."""

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    @pytest.mark.parametrize("setting", sorted(DESCENT_SETTINGS))
    def test_alone_together_and_across_blocks_agree(
            self, request, monkeypatch, model, setting):
        m = request.getfixturevalue(model)
        kw = DESCENT_SETTINGS[setting]
        states = descent_states(m, 7)
        alone = [window_of_state(m, *st, **kw) for st in states]
        together = windows_of_states(m, states, **kw)
        monkeypatch.setattr(windows, "WINDOW_BLOCK", 3)
        blocks = windows_of_states(m, iter(states), **kw)
        assert len(together) == len(blocks) == len(states)
        for a, b, c in zip(alone, together, blocks):
            assert np.array_equal(a.bins, b.bins)
            assert np.array_equal(a.bins, c.bins)

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_bins_match_cylinder_oracle(self, request, model):
        m = request.getfixturevalue(model)
        comps, hull = oracle_model(m)
        states = descent_states(m, 12)
        for setting, kw in DESCENT_SETTINGS.items():
            got = windows_of_states(m, states, **kw)
            for (om, inner, a, t), w in zip(states, got):
                want = cylinder_window(comps, hull, om.symbol, inner.symbol,
                                       a, t, **kw)
                assert np.array_equal(w.bins, want), setting

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_valve_and_cutoff_change_the_bins(self, request, model):
        m = request.getfixturevalue(model)
        states = descent_states(m, 7)
        full = windows_of_states(m, states)
        for setting in ("valve", "cutoff"):
            coarse = windows_of_states(m, states, **DESCENT_SETTINGS[setting])
            assert any(not np.array_equal(a.bins, b.bins)
                       for a, b in zip(full, coarse)), setting
            for w in coarse:
                assert w.bins.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_states_no_windows(self, mt_scaled):
        assert windows_of_states(mt_scaled, []) == []

    # small symbol tables and split chunks make the tables refill and the
    # split walks cross many chunks, also past the end of the tables
    @given(model=st.sampled_from(DESCENT_MODELS),
           setting=st.sampled_from(sorted(DESCENT_SETTINGS)),
           states=st.lists(st.tuples(st.integers(0, 2 ** 16),
                                     st.integers(0, 5), st.integers(0, 1),
                                     st.floats(0.0, 5.0)),
                           min_size=1, max_size=5),
           table=st.sampled_from([1, 5, 128]),
           chunk=st.sampled_from([1, 3, 64]))
    @example(model="refl_scaled", setting="default",
             states=[(7, 0, 1, 0.3), (8, 2, 0, 2.5)], table=128, chunk=64)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sweep_matches_cylinder_oracle(self, request, model, setting,
                                           states, table, chunk):
        m = request.getfixturevalue(model)
        comps, hull = oracle_model(m)
        kw = DESCENT_SETTINGS[setting]
        block, wants = [], []
        for seed, shift, a, t in states:
            om = m.omega_word(seed, "sweep")
            inner = m.inner_word(om, seed, "sweep")
            om, inner = om.shift(shift), inner.shift(shift)
            with np.errstate(invalid="ignore"):
                want = cylinder_window(comps, hull, om.symbol, inner.symbol,
                                       a, t, **kw)
            if np.isnan(want).any():
                # the valve left no mass inside the window
                with pytest.raises(ValueError, match="empty window"):
                    window_of_state(m, om, inner, a, t, **kw)
            else:
                block.append((om, inner, a, t))
                wants.append(want)
        with mock.patch.object(windows, "SYMBOL_TABLE", table), \
                mock.patch.object(windows, "SPLIT_CHUNK", chunk):
            got = windows_of_states(m, block, **kw)
        assert len(got) == len(wants)
        for w, want in zip(got, wants):
            assert np.array_equal(w.bins, want)

    @given(model=st.sampled_from(DESCENT_MODELS),
           states=st.lists(st.tuples(st.integers(0, 2 ** 16),
                                     st.integers(0, 5)),
                           min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_focus_points_match_oracle(self, request, model, states):
        m = request.getfixturevalue(model)
        comps, hull = oracle_model(m)
        words = []
        for seed, shift in states:
            om = m.omega_word(seed, "focus")
            inner = m.inner_word(om, seed, "focus")
            words.append((om.shift(shift), inner.shift(shift)))
        want = [cylinder_focus(comps, hull, om.symbol, inner.symbol)
                for om, inner in words]
        block = windows._focus(windows._Floats(m), windows._Symbols(
            [om for om, _ in words], [inner for _, inner in words]), 1e-15)
        assert block.tolist() == want
        assert [focus_point(m, om, inner) for om, inner in words] == want

    def test_omega_too_short_for_the_focus_walk(self, mt_scaled):
        # the focus walk of middle thirds needs about 32 levels
        with pytest.raises(IndexError, match="symbol sequence exhausted"):
            window_of_state(mt_scaled, Word([0] * 5), Word([0] * 40), 0, 1.0)

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_finite_words_end_where_the_oracle_needs_them(self, request,
                                                          model):
        # a finite word raises IndexError exactly when the scalar walks
        # read past its end: in the focus walk, the descent or the split
        m = request.getfixturevalue(model)
        comps, hull = oracle_model(m)
        om = m.omega_word(3, "finite")
        inner = m.inner_word(om, 3, "finite")
        raised = 0
        for n in range(0, 120, 4):
            for n_om, n_in in ((n, n), (n + 60, n), (n, n + 60)):
                fo, fi = Word(om.take(0, n_om)), Word(inner.take(0, n_in))
                try:
                    want = cylinder_window(comps, hull, fo.symbol, fi.symbol,
                                           1, 1.0)
                except IndexError:
                    raised += 1
                    with pytest.raises(IndexError,
                                       match="symbol sequence exhausted"):
                        window_of_state(m, fo, fi, 1, 1.0)
                    continue
                got = window_of_state(m, fo, fi, 1, 1.0)
                assert np.array_equal(got.bins, want), (n_om, n_in)
        assert 0 < raised < 90

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_panel_matches_mask_oracle(self, request, model):
        m = request.getfixturevalue(model)
        states = descent_states(m, 12)
        for kw in DESCENT_SETTINGS.values():
            for w in windows_of_states(m, states, **kw):
                assert np.array_equal(evaluate_panel(w),
                                      panel_by_masks(w.bins))


class TestShiftIdentity:
    """Magnifying by one roof equals shifting the symbolic state: the
    rendered windows must agree far beyond statistical tolerance."""

    def test_middle_thirds(self, mt_scaled):
        m = mt_scaled
        roof = math.log(3)
        for s in range(10):
            om = m.omega_word(s)
            inner = m.inner_word(om, 100 + s)
            w_zoom = window_of_state(m, om, inner, 0, roof + 0.4)
            w_shift = window_of_state(m, om.shift(1), inner.shift(1), 0, 0.4)
            assert w_zoom.l1_distance(w_shift) < 1e-6

    def test_reflected(self, refl_scaled):
        m = refl_scaled
        ch = build_extended_chain(m)
        for s in range(10):
            om = m.omega_word(50 + s)
            inner = m.inner_word(om, 200 + s)
            comp = m.components[om.symbol(0)]
            roof = -math.log(abs(float(comp.ratio)))
            flip = comp.ratio < 0
            w_zoom = window_of_state(m, om, inner, 0, roof + 0.3)
            w_shift = window_of_state(m, om.shift(1), inner.shift(1),
                                      1 if flip else 0, 0.3)
            assert w_zoom.l1_distance(w_shift) < 1e-6


class TestSceneryOrbit:
    def test_replay_matches_direct_windows(self, mt_scaled):
        m = mt_scaled
        om = m.omega_word(3)
        inner = m.inner_word(om, 3)
        orb = scenery_orbit(m, omega=om, inner=inner, T=4.0, dt=0.5, seed=3)
        assert len(orb) == len(orb.times)
        roof = math.log(3)
        # windows at times below the first roof must match direct rendering
        checked = 0
        for t, w in zip(orb.times, orb.windows):
            if t >= roof:
                break
            direct = window_of_state(m, om, inner, 0, t)
            assert w.l1_distance(direct) < 1e-9
            checked += 1
        assert checked >= 2

    def test_requires_wide_gap(self, middle_thirds_model):
        with pytest.raises(ValueError):
            scenery_orbit(middle_thirds_model, T=1.0)

    def test_time_grid(self, mt_scaled):
        orb = scenery_orbit(mt_scaled, T=3.0, dt=0.5, seed=1)
        assert orb.times == pytest.approx(np.arange(0, 3.0 + 1e-9, 0.5))


class TestSampleQ:
    def test_time_marginal_uniform_on_roof(self, mt_scaled):
        ch = build_extended_chain(mt_scaled)
        qs = sample_Q(mt_scaled, ch, 100_000, seed=4, with_windows=False)
        roof = math.log(3)
        # all states share one roof here, so t/roof should be uniform
        u = qs.times / roof
        assert u.min() >= 0 and u.max() <= 1
        grid = np.linspace(0.02, 0.98, 40)
        emp = np.searchsorted(np.sort(u), grid) / u.size
        assert np.abs(emp - grid).max() < 0.01

    def test_state_marginal_length_biased(self, two_ratio_scaled):
        m = two_ratio_scaled
        ch = build_extended_chain(m)
        qs = sample_Q(m, ch, 100_000, seed=5, with_windows=False)
        counts = np.bincount(qs.state_indices, minlength=ch.size)
        want = ch.length_biased_weights()
        assert np.abs(counts / counts.sum() - want).max() < 0.01

    def test_seed_invariance_of_panel_averages(self, mt_scaled):
        m = mt_scaled
        ch = build_extended_chain(m)
        a = sample_Q(m, ch, 800, seed=11)
        b = sample_Q(m, ch, 800, seed=12)
        pa = np.stack([evaluate_panel(w) for w in a.windows])
        pb = np.stack([evaluate_panel(w) for w in b.windows])
        diff = np.abs(pa.mean(0) - pb.mean(0))
        tol = 3 * np.sqrt(pa.var(0) / pa.shape[0] + pb.var(0) / pb.shape[0])
        assert (diff <= tol + 1e-12).all()

    def test_windows_rendered(self, mt_scaled):
        ch = build_extended_chain(mt_scaled)
        qs = sample_Q(mt_scaled, ch, 5, seed=6)
        assert len(qs.windows) == 5
        for w in qs.windows:
            assert w.bins.sum() <= 1 + 1e-9


class TestCenterAndWindow:
    def test_point_cloud_at_point_mass(self):
        # a degenerate cloud at the focus lands entirely in the two
        # innermost bins, like the atom window
        pts = np.zeros(1000)
        w = center_and_window(pts, 0.0, 5.0)
        assert w.central_mass(1.0 / w.bins_half) == pytest.approx(1.0)
        assert w.zero_in_support
        assert w.l1_distance(point_mass_window(w.bins_half)) <= 1.0

    def test_cantor_self_similarity(self, middle_thirds):
        # zooming by log 3 at the fixed point 0 reproduces the measure
        xs = sample_measure(middle_thirds, 200_000, seed=9)
        w1 = center_and_window(xs, 0.0, 1.0)
        w2 = center_and_window(xs, 0.0, 1.0 + math.log(3))
        assert w1.ks_distance(w2) < 0.02

    def test_empty_window_rejected(self):
        pts = np.full(100, 10.0)
        with pytest.raises(ValueError):
            center_and_window(pts, 0.0, 8.0)

    def test_weights_respected(self):
        pts = np.array([-0.5, 0.5])
        w = center_and_window(pts, 0.0, 0.0,
                              weights=np.array([0.25, 0.75]))
        half = w.bins_half
        left = w.bins[:half].sum()
        assert left == pytest.approx(0.25, abs=1e-12)


class TestComparison:
    def test_identical_distributions_have_zero_distance(self, mt_scaled):
        m = mt_scaled
        ch = build_extended_chain(m)
        qs = sample_Q(m, ch, 40, seed=7)
        orb = bs.SceneryOrbit(
            start=None, times=np.zeros(len(qs.windows)),
            windows=list(qs.windows), gap_rescale=1.0, bins_half=256)
        rep = compare_scenery_to_Q(orb, qs)
        assert rep.max_distance < 1e-12
        assert rep.names == panel_names()
        assert rep.panel_version == bs.PANEL_VERSION

    def test_orbit_approaches_Q(self, mt_scaled):
        # short run: the orbit averages land near the suspension averages
        m = mt_scaled
        ch = build_extended_chain(m)
        T = 150 * ch.expected_roof()
        orb = scenery_orbit(m, T=T, dt=0.25, seed=0)
        qs = sample_Q(m, ch, 2000, seed=1)
        rep = compare_scenery_to_Q(orb, qs)
        assert rep.max_distance < 0.05
        assert rep.n_orbit == len(orb)
        assert rep.n_q == 2000

    def test_report_serializes(self, mt_scaled):
        m = mt_scaled
        ch = build_extended_chain(m)
        qs = sample_Q(m, ch, 10, seed=8)
        orb = scenery_orbit(m, T=2.0, dt=0.5, seed=2)
        rep = compare_scenery_to_Q(orb, qs)
        d = rep.to_dict()
        assert set(d) >= {"panel_version", "max_distance",
                          "n_orbit_windows", "n_q_samples", "functionals"}
        assert len(d["functionals"]) == len(rep.names)
        assert all({"name", "orbit", "q", "distance"} <= set(f)
                   for f in d["functionals"])
        assert isinstance(rep.to_json(), str)


class TestSpectrum:
    def test_middle_thirds_base_two_certified(self, middle_thirds_model):
        v = spectrum_obstruction(middle_thirds_model, BetaBase(2))
        assert isinstance(v, NormalityImplied)
        assert v.witness == bs.IndependentCertified(
            "prime-exponent test: prime supports differ")

    def test_middle_thirds_base_three_obstructed(self, middle_thirds_model):
        v = spectrum_obstruction(middle_thirds_model, BetaBase(3))
        assert isinstance(v, Inconclusive)
        assert v.relations

    def test_middle_thirds_golden_certified(self, middle_thirds_model):
        v = spectrum_obstruction(middle_thirds_model,
                                 BetaBase(named_constant("golden")))
        assert isinstance(v, NormalityImplied)

    @pytest.mark.parametrize("name,q_max", [("tribonacci", 16),
                                            ("plastic", 13)])
    def test_golden_ratio_maps_certified_against_cubics(self, name, q_max):
        # |1/golden| against a cubic Pisot base: the height bound with
        # D = 2 * 3 proves independence
        ifs = bs.SimilarityIFS(
            [bs.SimilarityMap(bs.parse_scalar("1/golden"), Fraction(0)),
             bs.SimilarityMap(bs.parse_scalar("1/golden"), Fraction(1, 3))])
        v = spectrum_obstruction(build_model(ifs),
                                 BetaBase(named_constant(name)))
        assert isinstance(v, NormalityImplied)
        assert v.witness == bs.IndependentCertified(
            f"height bound: no relation with q <= {q_max} (D = 6)")

    def test_dyadic_pair_base_two_obstructed(self):
        ifs = bs.SimilarityIFS(
            [bs.SimilarityMap(Fraction(1, 2), Fraction(0)),
             bs.SimilarityMap(Fraction(1, 4), Fraction(3, 4))])
        m = build_model(ifs)
        v = spectrum_obstruction(m, BetaBase(2))
        assert isinstance(v, Inconclusive)

    def test_dyadic_pair_base_three_certified(self):
        ifs = bs.SimilarityIFS(
            [bs.SimilarityMap(Fraction(1, 2), Fraction(0)),
             bs.SimilarityMap(Fraction(1, 4), Fraction(3, 4))])
        m = build_model(ifs)
        v = spectrum_obstruction(m, BetaBase(3))
        assert isinstance(v, NormalityImplied)
        assert v.witness is not None

    def test_non_pisot_base_rejected(self, middle_thirds_model):
        with pytest.raises(ValueError):
            spectrum_obstruction(middle_thirds_model,
                                 BetaBase(named_constant("sqrt2")))

    def test_never_false_positive(self, two_ratio_model):
        # whenever the checker certifies, the witness ratio really is
        # multiplicatively independent from the base
        v = spectrum_obstruction(two_ratio_model, BetaBase(2))
        if isinstance(v, NormalityImplied):
            r = abs(two_ratio_model.components[v.component].ratio)
            check = bs.multiplicative_relation(r, Fraction(2))
            assert not isinstance(check, bs.Dependent)


class TestRescale:
    def test_gap_exceeds_window(self, middle_thirds_model):
        m, c = rescale_model_for_gap(middle_thirds_model)
        assert bs.verify_ssc(m) > 2
        assert c == Fraction(15, 2)  # (2 + 1/2) / (1/3)

    def test_identity_when_gap_wide(self, mt_scaled):
        m2, c = rescale_model_for_gap(mt_scaled)
        assert c == Fraction(1)
        assert m2 is mt_scaled

    def test_structure_preserved(self, two_ratio_model, two_ratio_scaled):
        assert two_ratio_scaled.n_components == two_ratio_model.n_components
        assert [c.ratio for c in two_ratio_scaled.components] == \
               [c.ratio for c in two_ratio_model.components]
        assert two_ratio_scaled.selection == two_ratio_model.selection
