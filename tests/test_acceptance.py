"""Desk-scale verification runs.

Each test is one numbered check with a stated tolerance and a wall-clock
budget, and prints a single ACCEPTANCE line (run with -s to see them all).
The statistical runs are frozen by seed, so every value asserted here is
reproducible bit for bit; measured values are noted next to each threshold.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import betascenery as bs
from betascenery.beta_numeration import OrbitRecord
from betascenery.rng import UniformStream, cdf_thresholds
from betascenery.scenery.windows import window_of_state

from oracles import ks_between


def report(num, name, passed, detail, elapsed, budget):
    line = (f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget}s budget)")
    print("\n" + line)
    assert passed, line
    assert elapsed < budget, f"{name}: over time budget, {line}"


def left_endpoints(model, n_points, n_digits, beta_float, seed, label):
    """Exact cylinder anchors of independent coding draws, deep enough that
    the whole cylinder shares the first n_digits expansion digits (up to a
    2^-64 boundary slack)."""
    target = n_digits * math.log(beta_float) + 64 * math.log(2)
    th_sel = cdf_thresholds(model.selection)
    th_inner = [cdf_thresholds(c.weights) for c in model.components]
    h0, h1 = model.hull
    pts = []
    for j in range(n_points):
        st = UniformStream(seed, label, j)
        ratio, shift = Fraction(1), Fraction(0)
        acc, k = 0.0, 0
        while acc < target:
            i = int(np.searchsorted(th_sel, st[2 * k], side="right"))
            u = int(np.searchsorted(th_inner[i], st[2 * k + 1],
                                    side="right"))
            f = model.components[i].maps[u]
            shift = shift + ratio * f.shift
            ratio = ratio * f.ratio
            acc += -math.log(abs(float(model.components[i].ratio)))
            k += 1
        pts.append(shift + ratio * (h0 if ratio > 0 else h1))
    return pts


@pytest.fixture(scope="module")
def cantor_points(middle_thirds_model):
    # 100 draws, exact, deep enough for 2000 binary digits; the same points
    # serve the base-2/base-3 contrast and the golden-base run
    return left_endpoints(middle_thirds_model, 100, 2000, 2.0, 0,
                          "cassels-point")


def test_01_golden_parry_closed_form(golden_base):
    t0 = time.monotonic()
    pd = bs.parry_density(golden_base)
    br, vals = pd.piece_floats
    s5 = math.sqrt(5.0)
    err = max(abs(vals[0] - (5 + 3 * s5) / 10),
              abs(vals[1] - (5 + s5) / 10),
              abs(br[1] - (s5 - 1) / 2))
    elapsed = time.monotonic() - t0
    report(1, "golden Parry density closed form", err < 1e-9,
           f"max error {err:.2e} < 1e-9", elapsed, 1.0)


def test_02_disintegration_marginal(middle_thirds, two_ratio):
    t0 = time.monotonic()
    worst = 0.0
    for ifs in (middle_thirds, two_ratio):
        model = bs.build_model(ifs)
        direct = bs.sample_measure(ifs, 100_000, seed=0)
        via_model = model.sample_measure(100_000, 1)
        worst = max(worst, ks_between(direct, via_model))
    elapsed = time.monotonic() - t0
    # measured: 0.00359 (middle thirds), 0.00666 (two-ratio)
    report(2, "disintegration sampling identity", worst < 0.01,
           f"worst KS {worst:.5f} < 0.01 at n=1e5", elapsed, 30.0)


def test_03_shift_identity(middle_thirds_model, two_ratio_model,
                           reflected_model):
    t0 = time.monotonic()
    worst = 0.0
    for base_model in (middle_thirds_model, two_ratio_model,
                       reflected_model):
        m, _ = bs.rescale_model_for_gap(base_model)
        for s in range(50):
            om = m.omega_word(s, "c3-omega")
            inner = m.inner_word(om, 1000 + s, "c3-inner")
            comp = m.components[om.symbol(0)]
            roof = -math.log(abs(float(comp.ratio)))
            flip = comp.ratio < 0
            kw = dict(bins_half=128, node_budget=100_000)
            w_zoom = window_of_state(m, om, inner, 0, roof + 0.37, **kw)
            w_shift = window_of_state(m, om.shift(1), inner.shift(1),
                                      1 if flip else 0, 0.37, **kw)
            worst = max(worst, w_zoom.l1_distance(w_shift))
    elapsed = time.monotonic() - t0
    # measured: 0.0 exactly for all 150 starts (deterministic rendering)
    report(3, "zoom-by-one-roof equals symbolic shift", worst < 0.02,
           f"worst L1 {worst:.2e} < 0.02 over 150 starts, 256 bins",
           elapsed, 120.0)


def test_04_chain_exactness(middle_thirds_model, two_ratio_model,
                            reflected_model):
    t0 = time.monotonic()
    cases = [(middle_thirds_model, math.log(3)),
             (two_ratio_model, math.log(6)),
             (reflected_model, math.log(9))]
    ok = True
    details = []
    for model, roof_closed in cases:
        ch = bs.build_extended_chain(model)
        ok &= ch.verify_stationary()          # exact rational linear algebra
        ok &= ch.diameter <= 2
        err = abs(ch.expected_roof() - roof_closed)
        ok &= err < 1e-12
        details.append(f"roof err {err:.1e}")
    marg = bs.build_extended_chain(reflected_model).orientation_marginal()
    ok &= marg == (Fraction(1, 2), Fraction(1, 2))   # exact equality
    elapsed = time.monotonic() - t0
    report(4, "extended chain stationarity", ok,
           "piP=pi exact, diameters <= 2, orientation marginal (1/2, 1/2), "
           + ", ".join(details), elapsed, 1.0)


def test_05_base_two_vs_base_three(cantor_points):
    t0 = time.monotonic()
    b2, b3 = bs.BetaBase(2), bs.BetaBase(3)
    freqs = []
    ternary_ones = 0
    total_ternary = 0
    for x in cantor_points:
        rec2 = bs.beta_orbit(b2, x, 2000)
        freqs.append(sum(rec2.digits) / 2000.0)
        rec3 = bs.beta_orbit(b3, x, 2000)
        ternary_ones += sum(1 for d in rec3.digits if d == 1)
        total_ternary += 2000
    mean2 = float(np.mean(freqs))
    freq3 = ternary_ones / total_ternary
    elapsed = time.monotonic() - t0
    # measured: mean2 = 0.50035, ternary digit-1 count exactly 0
    report(5, "digit statistics split by base",
           0.48 <= mean2 <= 0.52 and freq3 < 0.01,
           f"base-2 mean digit-1 freq {mean2:.5f} in [0.48, 0.52]; "
           f"base-3 digit-1 freq {freq3:.5f} < 0.01", elapsed, 120.0)


def test_06_golden_base_discrepancy_ladder(cantor_points, golden_base):
    t0 = time.monotonic()
    pd = bs.parry_density(golden_base)
    lengths = (250, 500, 1000, 2000)
    disc = {length: [] for length in lengths}
    for x in cantor_points:
        rec = bs.beta_orbit(golden_base, x, 2000)
        for length in lengths:
            prefix = OrbitRecord(x, rec.digits[:length],
                                 rec.remainders[:length],
                                 rec.precision_used, golden_base)
            stat = bs.normality_from_orbit(prefix, density=pd)
            disc[length].append(stat.discrepancy)
    means = [float(np.mean(disc[length])) for length in lengths]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    elapsed = time.monotonic() - t0
    # measured: 0.05829, 0.04274, 0.03095, 0.02212
    report(6, "golden-base equidistribution",
           decreasing and means[-1] < 0.05,
           "mean discrepancy " + " > ".join(f"{v:.4f}" for v in means)
           + " (strictly decreasing), final < 0.05", elapsed, 300.0)


def test_07_scenery_self_consistency(middle_thirds_model):
    t0 = time.monotonic()
    m, _ = bs.rescale_model_for_gap(middle_thirds_model)
    ch = bs.build_extended_chain(m)
    T = 200.0 * ch.expected_roof()
    orbit = bs.scenery_orbit(m, T=T, dt=0.25, seed=0)
    qs = bs.sample_Q(m, ch, 4000, seed=1)
    rep = bs.compare_scenery_to_Q(orbit, qs)
    contrast = float(np.abs(np.asarray(rep.orbit_average) -
                            bs.evaluate_panel(bs.point_mass_window())).max())
    elapsed = time.monotonic() - t0
    # measured: distance 0.00393, contrast 0.9742
    report(7, "magnification orbit matches stationary law",
           rep.max_distance < 0.05 and contrast > 0.2,
           f"max panel distance {rep.max_distance:.5f} < 0.05, "
           f"point-mass contrast {contrast:.4f} > 0.2", elapsed, 300.0)


def test_08_obstruction_verdicts(middle_thirds_model, golden_base):
    t0 = time.monotonic()
    dyadic = bs.build_model(bs.SimilarityIFS(
        [bs.SimilarityMap(Fraction(1, 2), Fraction(0)),
         bs.SimilarityMap(Fraction(1, 4), Fraction(3, 4))]))
    # hand verification: 1/3 is independent of 2 and of golden but a power
    # of 3; the dyadic pair's ratios are powers of 2 but independent of 3
    # and of golden
    expected = {
        ("thirds", "2"): "implied", ("thirds", "3"): "inconclusive",
        ("thirds", "golden"): "implied",
        ("dyadic", "2"): "inconclusive", ("dyadic", "3"): "implied",
        ("dyadic", "golden"): "implied",
    }
    bases = {"2": bs.BetaBase(2), "3": bs.BetaBase(3), "golden": golden_base}
    got = {}
    certified_rows = inconclusive_rows = 0
    for mname, model in (("thirds", middle_thirds_model),
                         ("dyadic", dyadic)):
        for bname, base in bases.items():
            v = bs.spectrum_obstruction(model, base)
            if isinstance(v, bs.NormalityImplied):
                got[(mname, bname)] = "implied"
                certified_rows += isinstance(v.witness,
                                             bs.IndependentCertified)
            else:
                got[(mname, bname)] = "inconclusive"
                inconclusive_rows += 1
    elapsed = time.monotonic() - t0
    report(8, "arithmetic obstruction table",
           got == expected and certified_rows == 4 and inconclusive_rows == 2,
           f"6 verdicts match hand check ({certified_rows} certified, "
           f"{inconclusive_rows} inconclusive)", elapsed, 1.0)


def test_09_orbit_reconstruction_contract(golden_base):
    t0 = time.monotonic()
    rng = random.Random(90210)
    base32 = bs.BetaBase(Fraction(3, 2))
    g = bs.parse_scalar("golden")
    exact_ok = 0
    for _ in range(700):
        den = rng.getrandbits(24) | 1
        x = Fraction(rng.randrange(den), den)
        rec = bs.beta_orbit(base32, x, 1000)
        exact_ok += (rec.reconstruct_exact() == x)
    for _ in range(300):
        u = Fraction(rng.getrandbits(20), 2 ** 21)         # [0, 1/2)
        v = Fraction(rng.getrandbits(20), 2 ** 21)
        x = u + v * (g - 1)                                # stays in [0, 1)
        rec = bs.beta_orbit(golden_base, x, 1000)
        exact_ok += (rec.reconstruct_exact() == x)
    # ambiguity is reported, never silently rounded: an interval input too
    # wide to certify a floor must raise instead of picking a digit
    wide = bs.BigReal.from_interval(Fraction(1, 3) - Fraction(1, 10 ** 12),
                                    Fraction(1, 3) + Fraction(1, 10 ** 12),
                                    256)
    reported = False
    try:
        bs.beta_orbit(golden_base, wide, 200)
    except bs.OrbitUndecidable as e:
        reported = e.step > 0 and e.precision > 0
    elapsed = time.monotonic() - t0
    report(9, "expansion reconstruction identity",
           exact_ok == 1000 and reported,
           f"{exact_ok}/1000 exact round-trips at n=1000 "
           "(identity exact, inside 2^-64 relative), ambiguity raised "
           "with step and precision", elapsed, 60.0)
