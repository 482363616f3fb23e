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
    compare_scenery_to_Q,
    evaluate_panel,
    named_constant,
    panel_average,
    panel_names,
    point_mass_window,
    rescale_model_for_gap,
    sample_Q,
    scenery_orbit,
    spectrum_obstruction,
)
from betascenery.scenery import flow, windows
from betascenery.scenery.flow import stationary_draws

from oracles import (Word, cylinder_focus, cylinder_window, inner_word,
                     omega_word, orientation_marginal, panel_by_masks,
                     stationary_words, windows_of_words, word_fill)


def window(model, omega, inner, a, zoom_t, **kw):
    """The window of one state, rendered in a block of one."""
    return windows_of_words(model, [(omega, inner, a, zoom_t)], **kw)[0]


def l1(w, v):
    """The L1 distance between the bins of two windows."""
    return float(np.abs(w.bins - v.bins).sum())


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
        assert orientation_marginal(ch) == (Fraction(1, 2), Fraction(1, 2))
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
        w = point_mass_window()
        assert w.bins.shape == (512,)
        assert w.bins.sum() == pytest.approx(1.0)

    def test_window_mass_bounded(self, mt_scaled):
        w = window(mt_scaled, omega_word(mt_scaled, 1),
                   inner_word(mt_scaled, omega_word(mt_scaled, 1), 2), 0, 3.0)
        assert w.bins.sum() <= 1.0 + 1e-9
        assert w.bins.min() >= 0.0

    def test_reflect_involution(self, mt_scaled):
        w = window(mt_scaled, omega_word(mt_scaled, 4),
                   inner_word(mt_scaled, omega_word(mt_scaled, 4), 5), 0, 2.0)
        r = windows.WindowMeasure(w.bins[::-1])
        assert np.array_equal(r.bins[::-1], w.bins)
        assert np.array_equal(r.bins, w.bins[::-1])

    def test_orientation_flag_reflects(self, mt_scaled):
        om = omega_word(mt_scaled, 6)
        inner = inner_word(mt_scaled, om, 7)
        w0 = window(mt_scaled, om, inner, 0, 2.5)
        w1 = window(mt_scaled, om, inner, 1, 2.5)
        assert np.abs(w0.bins - w1.bins[::-1]).sum() < 1e-8

    def test_panel_shape_and_names(self):
        names = panel_names()
        assert len(names) == 32
        assert len(set(names)) == 32
        w = point_mass_window()
        vec = evaluate_panel(w)
        assert vec.shape == (32,)
        assert vec[0] == pytest.approx(1.0)  # constant functional

    def test_panel_average(self, mt_scaled):
        om = omega_word(mt_scaled, 8)
        ws = [window(mt_scaled, om, inner_word(mt_scaled, om, s), 0, 1.0)
              for s in range(3)]
        avg = panel_average(ws)
        stack = np.stack([evaluate_panel(w) for w in ws]).mean(axis=0)
        assert avg == pytest.approx(stack)

    def test_corrupted_block_raises(self, mt_scaled, monkeypatch):
        om = omega_word(mt_scaled, 1)
        states = [(om, inner_word(mt_scaled, om, s), 0, 1.0) for s in (2, 3)]
        block = np.stack([w.bins for w in windows_of_words(mt_scaled, states)])
        windows._check_block(block)
        heavy, moved = block.copy(), block.copy()
        heavy[1, 0] += 1e-9
        moved[1, 0] -= 0.5      # the row still sums to 1
        moved[1, -1] += 0.5
        for bad, text in ((block[:, :-1], "even length"),
                          (heavy, "window mass"), (moved, "negative bin")):
            with pytest.raises(ValueError, match=text):
                windows._check_block(bad)
        # the descent checks its block: a focus split that moves mass past
        # the left central bin leaves that bin negative
        split = windows._split_focus_mass

        def skewed(*args):
            left, right = split(*args)
            return left - 1e3, right + 1e3
        monkeypatch.setattr(windows, "_split_focus_mass", skewed)
        with pytest.raises(ValueError, match="negative bin mass"):
            windows_of_words(mt_scaled, states)

    def test_mismatched_bins_rejected(self):
        a = point_mass_window()
        b = windows.WindowMeasure(np.full(256, 1 / 256))
        with pytest.raises(ValueError):
            l1(a, b)


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
    "both": {"node_budget": 9, "eps_cut": 1e-3, "bins_half": 32},
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
        om = omega_word(m, 1, "descent", s)
        inner = inner_word(m, om, 1, "descent", s)
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
        alone = [window(m, *st, **kw) for st in states]
        together = windows_of_words(m, states, **kw)
        monkeypatch.setattr(windows, "WINDOW_BLOCK", 3)
        blocks = windows_of_words(m, iter(states), **kw)
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
            got = windows_of_words(m, states, **kw)
            for (om, inner, a, t), w in zip(states, got):
                want = cylinder_window(comps, hull, om.symbol, inner.symbol,
                                       a, t, **kw)
                assert np.array_equal(w.bins, want), setting

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_valve_and_cutoff_change_the_bins(self, request, model):
        m = request.getfixturevalue(model)
        states = descent_states(m, 7)
        full = windows_of_words(m, states)
        for setting in ("valve", "cutoff"):
            coarse = windows_of_words(m, states, **DESCENT_SETTINGS[setting])
            assert any(not np.array_equal(a.bins, b.bins)
                       for a, b in zip(full, coarse)), setting
            for w in coarse:
                assert w.bins.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_states_no_windows(self, mt_scaled):
        assert windows_of_words(mt_scaled, []) == []

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
            om = omega_word(m, seed, "sweep")
            inner = inner_word(m, om, seed, "sweep")
            om, inner = om.shift(shift), inner.shift(shift)
            with np.errstate(invalid="ignore"):
                want = cylinder_window(comps, hull, om.symbol, inner.symbol,
                                       a, t, **kw)
            if np.isnan(want).any():
                # the valve left no mass inside the window
                with pytest.raises(ValueError, match="empty window"):
                    window(m, om, inner, a, t, **kw)
            else:
                block.append((om, inner, a, t))
                wants.append(want)
        with mock.patch.object(windows, "SYMBOL_TABLE", table), \
                mock.patch.object(windows, "SPLIT_CHUNK", chunk):
            got = windows_of_words(m, block, **kw)
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
            om = omega_word(m, seed, "focus")
            inner = inner_word(m, om, seed, "focus")
            words.append((om.shift(shift), inner.shift(shift)))
        want = [cylinder_focus(comps, hull, om.symbol, inner.symbol)
                for om, inner in words]
        fl = windows._Floats(m)
        block = windows._focus(
            fl, windows._Symbols(word_fill(words), len(words)), 1e-15)
        assert block.tolist() == want
        # blocks of one window give the same points
        assert [float(windows._focus(
                    fl, windows._Symbols(word_fill([w]), 1), 1e-15)[0])
                for w in words] == want

    def test_omega_too_short_for_the_focus_walk(self, mt_scaled):
        # the focus walk of middle thirds needs about 32 levels
        with pytest.raises(IndexError, match="symbol sequence exhausted"):
            window(mt_scaled, Word([0] * 5), Word([0] * 40), 0, 1.0)

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_finite_words_end_where_the_oracle_needs_them(self, request,
                                                          model):
        # a finite word raises IndexError exactly when the scalar walks
        # read past its end: in the focus walk, the descent or the split
        m = request.getfixturevalue(model)
        comps, hull = oracle_model(m)
        om = omega_word(m, 3, "finite")
        inner = inner_word(m, om, 3, "finite")
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
                        window(m, fo, fi, 1, 1.0)
                    continue
                got = window(m, fo, fi, 1, 1.0)
                assert np.array_equal(got.bins, want), (n_om, n_in)
        assert 0 < raised < 90

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_panel_matches_mask_oracle(self, request, model):
        m = request.getfixturevalue(model)
        states = descent_states(m, 12)
        for kw in DESCENT_SETTINGS.values():
            for w in windows_of_words(m, states, **kw):
                assert np.array_equal(evaluate_panel(w),
                                      panel_by_masks(w.bins))


class TestBlockPanel:
    """The panel of a stacked block of windows is, row by row, the panel of
    each window alone, bit for bit; panel_average adds the rows in window
    order across WINDOW_BLOCK boundaries."""

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_rows_match_mask_oracle(self, request, model):
        m = request.getfixturevalue(model)
        ws = windows_of_words(m, descent_states(m, 130))
        want = [panel_by_masks(w.bins) for w in ws]
        for n in (1, 63, 64, 65, 130):
            rows = windows._panel_rows(np.stack([w.bins for w in ws[:n]]))
            assert rows.shape == (n, 32)
            for got, row in zip(rows, want):
                assert np.array_equal(got, row), n
        total = np.zeros(32)
        for row in want:
            total += row
        assert np.array_equal(panel_average(ws), total / 130)

    def test_point_mass_row(self):
        b = point_mass_window().bins
        assert np.array_equal(windows._panel_rows(b[None])[0],
                              panel_by_masks(b))


class TestShiftIdentity:
    """Magnifying by one roof equals shifting the symbolic state: the
    rendered windows must agree far beyond statistical tolerance."""

    def test_middle_thirds(self, mt_scaled):
        m = mt_scaled
        roof = math.log(3)
        for s in range(10):
            om = omega_word(m, s)
            inner = inner_word(m, om, 100 + s)
            w_zoom = window(m, om, inner, 0, roof + 0.4)
            w_shift = window(m, om.shift(1), inner.shift(1), 0, 0.4)
            assert l1(w_zoom, w_shift) < 1e-6

    def test_reflected(self, refl_scaled):
        m = refl_scaled
        ch = build_extended_chain(m)
        for s in range(10):
            om = omega_word(m, 50 + s)
            inner = inner_word(m, om, 200 + s)
            comp = m.components[om.symbol(0)]
            roof = -math.log(abs(float(comp.ratio)))
            flip = comp.ratio < 0
            w_zoom = window(m, om, inner, 0, roof + 0.3)
            w_shift = window(m, om.shift(1), inner.shift(1),
                             1 if flip else 0, 0.3)
            assert l1(w_zoom, w_shift) < 1e-6


def assert_same_symbols(got, ref):
    """Two block symbol sources of one block read the same symbols."""
    rows = np.arange(got.count)
    L = windows.SYMBOL_TABLE
    # within the tables, across their end, past them (through span),
    # and across the edge of the streams' first 1,024-uniform block
    for start, k in ((0, 1), (1, 5), (L - 30, 64), (L + 40, 64),
                     (1000, 100)):
        for a, b in zip(got.span(rows, start, k),
                        ref.span(rows, start, k)):
            assert np.array_equal(a, b)
    # a read past twice the first length refills the tables twice
    for which in (0, 1):
        assert np.array_equal(got.at(which, 3 * L, rows),
                              ref.at(which, 3 * L, rows))
    assert got.length == ref.length == 4 * L
    for a, b in zip(got.tables, ref.tables):
        assert np.array_equal(a, b)


class TestSceneryOrbit:
    def test_replay_matches_direct_windows(self, mt_scaled):
        m = mt_scaled
        # the words the orbit draws for its seed
        om = omega_word(m, 3, "orbit-omega")
        inner = inner_word(m, om, 3, "orbit-inner")
        orb = scenery_orbit(m, T=4.0, dt=0.5, seed=3)
        assert len(orb) == len(orb.times)
        roof = math.log(3)
        # windows at times below the first roof must match direct rendering
        checked = 0
        for t, w in zip(orb.times, orb.windows):
            if t >= roof:
                break
            direct = window(m, om, inner, 0, t)
            assert l1(w, direct) < 1e-9
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("model", ["mt_scaled", "two_ratio_scaled",
                                       "refl_scaled"])
    def test_orbit_tables_match_words(self, request, model, monkeypatch):
        # the orbit's span fill against one pair of reference words per
        # window, the orbit's words shifted past the roofs its time passed
        m = request.getfixturevalue(model)
        seed = 5
        calls = []
        real = flow.windows_of_tables

        def spy(model, fill, orientations, times):
            calls.append((fill, orientations, times))
            return real(model, fill, orientations, times)
        monkeypatch.setattr(flow, "windows_of_tables", spy)
        monkeypatch.setattr(windows, "WINDOW_BLOCK", 16)
        roofs = [-math.log(abs(float(c.ratio))) for c in m.components]
        # past 1,100 shifts: beyond the streams' first 1,024-place block
        T = 1120 * max(roofs)
        orb = scenery_orbit(m, T=T, dt=T / 150, seed=seed)
        [(fill, orientations, zooms)] = calls

        om = omega_word(m, seed, "orbit-omega")
        inner = inner_word(m, om, seed, "orbit-inner")
        shifts, want_a, want_t = [], [], []
        k, tau, a = 0, 0.0, 0
        for t in orb.times:
            while t - tau >= roofs[om.symbol(k)] - 1e-12:
                tau += roofs[om.symbol(k)]
                a ^= m.components[om.symbol(k)].reflects
                k += 1
            shifts.append(k)
            want_a.append(a)
            want_t.append(t - tau)
        assert list(orientations) == want_a
        assert list(zooms) == want_t
        assert shifts[-1] > 1100
        states = [(om.shift(k), inner.shift(k), a, t)
                  for k, a, t in zip(shifts, want_a, want_t)]
        for w, v in zip(orb.windows, windows_of_words(m, states)):
            assert np.array_equal(w.bins, v.bins)

        L = windows.SYMBOL_TABLE
        # a window whose first tables cross the 1,024-place block edge,
        # the first windows and the last
        edge = next(j for j, k in enumerate(shifts) if k > 1024 - L // 2)
        assert shifts[edge] < 1024
        draws = np.array([edge, 0, len(shifts) - 1, 1, edge + 1])
        assert_same_symbols(
            windows._Symbols(
                lambda rows, start, n: fill(draws[rows], start, n),
                draws.size),
            windows._Symbols(word_fill([states[j] for j in draws]),
                             draws.size))

    def test_requires_wide_gap(self, middle_thirds_model):
        with pytest.raises(ValueError):
            scenery_orbit(middle_thirds_model, T=1.0)

    def test_time_grid(self, mt_scaled):
        orb = scenery_orbit(mt_scaled, T=3.0, dt=0.5, seed=1)
        assert orb.times == pytest.approx(np.arange(0, 3.0 + 1e-9, 0.5))


class TestSampleQ:
    def test_time_marginal_uniform_on_roof(self, mt_scaled):
        ch = build_extended_chain(mt_scaled)
        _, times = stationary_draws(ch, 100_000, seed=4)
        roof = math.log(3)
        # all states share one roof here, so t/roof should be uniform
        u = times / roof
        assert u.min() >= 0 and u.max() <= 1
        grid = np.linspace(0.02, 0.98, 40)
        emp = np.searchsorted(np.sort(u), grid) / u.size
        assert np.abs(emp - grid).max() < 0.01

    def test_state_marginal_length_biased(self, two_ratio_scaled):
        m = two_ratio_scaled
        ch = build_extended_chain(m)
        states, _ = stationary_draws(ch, 100_000, seed=5)
        counts = np.bincount(states, minlength=ch.size)
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

    @pytest.mark.parametrize("model", DESCENT_MODELS)
    def test_tables_match_per_draw_words(self, request, model, monkeypatch):
        # the batch symbol tables against one pair of lazy words per draw,
        # built as a head before the model's seeded words
        m = request.getfixturevalue(model)
        ch = build_extended_chain(m)
        seed, n = 9, 40
        fills = []
        real = flow.windows_of_tables

        def spy(model, fill, orientations, times):
            fills.append(fill)
            return real(model, fill, orientations, times)
        monkeypatch.setattr(flow, "windows_of_tables", spy)
        # blocks of 16 draws: three blocks, the last one short
        monkeypatch.setattr(windows, "WINDOW_BLOCK", 16)
        qs = sample_Q(m, ch, n, seed)
        states = [ch.states[i] for i in qs.state_indices]
        words = [stationary_words(m, s, seed, j)
                 for j, s in enumerate(states)]
        want = windows_of_words(m, [
            (om, inner, s[2] if ch.has_orientation else 0, t)
            for (om, inner), s, t in zip(words, states, qs.times)])
        assert len(qs.windows) == n
        for w, v in zip(qs.windows, want):
            assert np.array_equal(w.bins, v.bins)

        draws = np.array([3, 0, 39, 17, 16])
        assert_same_symbols(
            windows._Symbols(
                lambda rows, start, k: fills[0](draws[rows], start, k),
                draws.size),
            windows._Symbols(word_fill([words[j] for j in draws]),
                             draws.size))


class TestComparison:
    def test_identical_distributions_have_zero_distance(self, mt_scaled):
        m = mt_scaled
        ch = build_extended_chain(m)
        qs = sample_Q(m, ch, 40, seed=7)
        orb = bs.SceneryOrbit(times=np.zeros(len(qs.windows)),
                              windows=list(qs.windows))
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

    def test_empty_orbit_or_samples_rejected(self, mt_scaled):
        qs = sample_Q(mt_scaled, build_extended_chain(mt_scaled), 4, seed=8)
        empty = bs.SceneryOrbit(times=np.zeros(0), windows=[])
        with pytest.raises(ValueError, match="windows to compare"):
            compare_scenery_to_Q(empty, qs)
        orb = scenery_orbit(mt_scaled, T=1.0, dt=0.5, seed=2)
        with pytest.raises(ValueError, match="windows to compare"):
            compare_scenery_to_Q(orb, [])

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
