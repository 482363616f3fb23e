"""The four workloads: their inputs, made from the seed, and their
operations, each with the checks that its output must pass.

An operation is one call of ``betascenery.cli.main(argv)``, or one library
call where stated.  Every round of a run makes the same operations on the
same inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

import oracles

N_DIGITS = 2000

# IFS files, written by the benchmark: middle thirds, the two-ratio
# measure with ratios 1/2 and 1/3, and the reflected middle thirds
IFS = {
    "mt": {"maps": [{"s": "1/3", "t": "0"}, {"s": "1/3", "t": "2/3"}]},
    "two": {"maps": [{"s": "1/2", "t": "0"}, {"s": "1/3", "t": "2/3"}]},
    "refl": {"maps": [{"s": "1/3", "t": "0"}, {"s": "-1/3", "t": "1"}]},
}
IFS_RATIOS = {"mt": (Fraction(1, 3),), "two": (Fraction(1, 2), Fraction(1, 3)),
              "refl": (Fraction(1, 3), Fraction(-1, 3))}

# scenery runs: an orbit 16x the default length, sampled every 4 instead of
# every 0.25 time units, so its 881 windows are far less correlated than the
# default's; 1000 stationary windows.  See README for the tolerance.
SCENERY_T, SCENERY_DT, SCENERY_NQ, SCENERY_TOL = 3520.0, 4.0, 1000, 0.1
SCENERY_DUMP = 40
SCENERY_ROOF = {"mt": math.log(3), "refl": math.log(9)}
DISINTEGRATION_COUNT = 150_000
SAMPLE_COUNT = 100_000

CERTIFY_BASES = ["2", "3/2", "golden", "x^2 - 3*x + 1", "x^2 - 2",
                 "tribonacci", "plastic", "supergolden"]
PARRY_BASES = ["3/2", "golden", "x^2 - 3*x + 1", "tribonacci"]
SPECTRUM_BASES = ["2", "3", "golden", "x^2 - 3*x + 1", "plastic"]
RELATION_BASES = ["3", "x^2 - 2"]
CERTIFY_RATE = "certify_decisions_per_s"


@dataclass
class Op:
    """One operation: a CLI argv (run with its own --out-dir) or a library
    call.  `items` is the work it counts towards items_per_s and towards
    the rate named `rate`, e.g. normality_digits_per_s; `check` gets
    the CLI's (exit code, out dir) or the call's return value and returns a
    list of problems."""
    label: str
    rate: Optional[str]
    items: int
    check: Callable
    argv: Optional[List[str]] = None
    call: Optional[Callable] = None


# -- inputs ------------------------------------------------------------------------


def coded_point(name: str, rng: random.Random, digits: int = N_DIGITS):
    """An exact point of the IFS `name`: a random word, deep enough that
    every one of `digits` digits is fixed by it, applied to 1/2.  Returns
    (point, word)."""
    maps = [(Fraction(m["s"]), Fraction(m["t"])) for m in IFS[name]["maps"]]
    # contraction below beta^-digits * 2^-64 for the largest base used, 3
    need = digits * math.log(3) + 64 * math.log(2)
    word, acc = [], 0.0
    while acc < need:
        w = rng.randrange(len(maps))
        word.append(w)
        acc -= math.log(abs(maps[w][0]))
    x = Fraction(1, 2)
    for w in reversed(word):
        r, t = maps[w]
        x = r * x + t
    return x, word


def _write_ifs(in_dir: str) -> Dict[str, str]:
    os.makedirs(in_dir, exist_ok=True)
    paths = {}
    for name, doc in IFS.items():
        paths[name] = os.path.join(in_dir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


# -- reading CLI outputs -------------------------------------------------------------


def _report(out: str, command: str) -> dict:
    with open(os.path.join(out, f"{command}_report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rows(out: str, name: str) -> List[dict]:
    with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str) -> float:
    """A CSV number.  Under numpy 2 the CLI writes some cells as
    ``np.float64(0.5)`` (the repr of a numpy scalar); the value inside is
    read."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _exit_ok(rc) -> List[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


# -- checks ---------------------------------------------------------------------------


def check_normality(base: str, n_points: int, resonant: bool = False):
    """Mean discrepancy below 0.05 and mean digit frequencies within 0.05 of
    the invariant digit masses; in the resonant case (base 3 on middle-thirds
    points) the digit-1 frequency is exactly 0 instead."""
    def check(res):
        rc, out = res
        bad = _exit_ok(rc)
        if bad:
            return bad
        rep = _report(out, "normality")["results"]
        rows = _rows(out, "normality.csv")
        if len(rows) != n_points or rep["n_points"] != n_points:
            bad.append(f"{len(rows)} rows for {n_points} points")
        for r in rows:
            if int(r["n"]) != N_DIGITS:
                bad.append(f"row n = {r['n']}")
            freqs = [float(v) for k, v in r.items() if k.startswith("freq_")]
            if abs(sum(freqs) - 1) > 1e-12 or min(freqs) < 0:
                bad.append(f"point {r['point_id']}: frequencies {freqs}")
        freqs = np.asarray(rep["mean_digit_freqs"])
        if resonant:
            if any(float(r["freq_1"]) != 0.0 for r in rows) or freqs[1] != 0:
                bad.append("digit 1 occurs in base 3 on middle-thirds points")
            return bad
        if not rep["mean_discrepancy"] < 0.05:
            bad.append(f"mean discrepancy {rep['mean_discrepancy']}")
        masses = oracles.digit_masses(base)
        if freqs.size != masses.size or np.abs(freqs - masses).max() > 0.05:
            bad.append(f"digit frequencies {freqs} vs masses {masses}")
        return bad
    return check


def check_expand(base: str, points, exact: dict, words=None):
    """Each point's digits pass the base's identity check; base 3 on a
    middle-thirds point must reproduce the coding word.  The digits are kept
    in `exact` for the interval path."""
    def check(res):
        rc, out = res
        bad = _exit_ok(rc)
        if bad:
            return bad
        rows = _rows(out, "expand.csv")
        if len(rows) != len(points):
            return [f"{len(rows)} rows for {len(points)} points"]
        for k, (r, x) in enumerate(zip(rows, points)):
            digits = [int(d) for d in r["digits"].split()]
            if len(digits) != N_DIGITS or Fraction(r["x"]) != x:
                bad.append(f"row {k}: {len(digits)} digits of {r['x'][:20]}")
                continue
            bad += oracles.check_digits(base, x, digits)
            if words is not None and words[k] is not None and \
                    digits != [2 * w for w in words[k][:N_DIGITS]]:
                bad.append(f"row {k}: base-3 digits differ from the coding word")
            exact[(base, x)] = digits
        return bad
    return check


def check_interval(base: str, x: Fraction, exact: dict):
    def check(rec):
        bad = oracles.check_digits(base, x, rec.digits)
        if rec.digits != exact.get((base, x)):
            bad.append(f"base {base}: interval digits differ from the exact path")
        return bad
    return check


def check_scenery(model: str):
    n_orbit = int(math.floor(SCENERY_T / SCENERY_DT + 1e-9)) + 1

    def check(res):
        rc, out = res
        bad = _exit_ok(rc)  # the CLI's panel and contrast checks
        rep = _report(out, "scenery")["results"]
        if abs(rep["expected_roof"] - SCENERY_ROOF[model]) > 1e-12:
            bad.append(f"expected roof {rep['expected_roof']}")
        if rep["n_orbit_windows"] != n_orbit or rep["n_q_samples"] != SCENERY_NQ:
            bad.append(f"{rep['n_orbit_windows']} orbit and "
                       f"{rep['n_q_samples']} stationary windows")
        rows = [(int(r["window_id"]), _num(r["bin_lo"]), _num(r["bin_hi"]),
                 _num(r["mass"])) for r in _rows(out, "windows.csv")]
        if len({r[0] for r in rows}) != SCENERY_DUMP:
            bad.append("wrong number of dumped windows")
        return bad + oracles.check_windows(rows)
    return check


def check_disintegration(res):
    rc, out = res
    bad = _exit_ok(rc)  # the CLI's KS check
    rep = _report(out, "disintegration")["results"]
    if rep["count"] != DISINTEGRATION_COUNT or not 0 < rep["ks_distance"] < 0.01:
        bad.append(f"disintegration report {rep}")
    return bad


def check_samples(res):
    """Middle-thirds samples within KS 0.01 of the Cantor function."""
    rc, out = res
    bad = _exit_ok(rc)
    xs = np.array([float(r["value"]) for r in _rows(out, "samples.csv")])
    if xs.size != SAMPLE_COUNT:
        return bad + [f"{xs.size} samples"]
    ks = oracles.ks_to_cdf(xs, oracles.cantor_cdf)
    if not ks < 0.01:
        bad.append(f"KS distance to the Cantor function {ks:.4g}")
    return bad


def check_pisot(base: str):
    def check(res):
        rc, out = res
        return _exit_ok(rc) or \
            oracles.check_pisot(base, _report(out, "pisot")["results"])
    return check


def check_parry(base: str):
    def check(res):
        rc, out = res
        bad = _exit_ok(rc)
        if bad:
            return bad
        rep = _report(out, "parry")["results"]
        rows = _rows(out, "parry.csv")
        lo = [_num(r["piece_lo"]) for r in rows]
        hi = [_num(r["piece_hi"]) for r in rows]
        dens = [_num(r["density"]) for r in rows]
        return oracles.check_parry(base, lo, hi, dens, rep["tail_bound"])
    return check


def check_spectrum(ratios):
    def check(res):
        rc, out = res
        bad = _exit_ok(rc)
        if bad:
            return bad
        table = _report(out, "spectrum")["results"]["table"]
        if [row["beta"] for row in table] != SPECTRUM_BASES:
            return [f"spectrum rows {[row['beta'] for row in table]}"]
        for row in table:
            bad += oracles.check_spectrum_row(row, ratios)
        return bad
    return check


def check_relations(base: str, ifs_ratios, n_rows: int):
    """The model's component ratios are products of the IFS ratios over
    words of the pair length; each row's verdict is derived by hand."""
    def check(res):
        rc, out = res
        bad = _exit_ok(rc)
        if bad:
            return bad
        rep = _report(out, "model")["results"]
        table = rep["relation_table"]
        if len(table) != n_rows:
            return [f"{len(table)} relation rows"]
        words = {Fraction(1)}
        for _ in range(rep["pair_length"]):
            words = {w * r for w in words for r in ifs_ratios}
        for row in table:
            r = Fraction(row["ratio"])
            if r not in words:
                bad.append(f"component ratio {r} is no word product")
            bad += oracles.check_relation_row(row, r, base)
        return bad
    return check


# -- the workloads ------------------------------------------------------------------


def _cli_seed(rng: random.Random) -> List[str]:
    return ["--seed", str(rng.randrange(2 ** 31))]


def pisot_digits(rng, ifs, lib) -> List[Op]:
    ops: List[Op] = []
    for model, base in (("mt", "golden"), ("two", "tribonacci")):
        ops.append(Op(
            f"normality {model} {base}", "normality_digits_per_s",
            2 * N_DIGITS, check_normality(base, 2),
            argv=_cli_seed(rng) + ["normality", ifs[model], "--beta", base,
                                   "--n-points", "2",
                                   "--n-digits", str(N_DIGITS)]))
    for model, base in (("two", "golden"), ("mt", "tribonacci")):
        x, _ = coded_point(model, rng)
        ops.append(Op(
            f"expand {model} {base}", "expand_digits_per_s", N_DIGITS,
            check_expand(base, [x], {}),
            argv=_cli_seed(rng) + ["expand", "--beta", base, "--x", str(x),
                                   "--digits", str(N_DIGITS)]))
    return ops


def rational_digits(rng, ifs, lib) -> List[Op]:
    ops: List[Op] = []
    exact: dict = {}
    n_points = 4
    for model in ("mt", "two"):
        for base in ("2", "3", "3/2"):
            resonant = model == "mt" and base == "3"
            ops.append(Op(
                f"normality {model} {base}", "normality_digits_per_s",
                n_points * N_DIGITS, check_normality(base, n_points, resonant),
                argv=_cli_seed(rng) + ["normality", ifs[model], "--beta", base,
                                       "--n-points", str(n_points),
                                       "--n-digits", str(N_DIGITS)]))
    (x_mt, w_mt), (x_two, _) = coded_point("mt", rng), coded_point("two", rng)
    points = [x_mt, x_two]
    for base in ("2", "3", "3/2"):
        words = [w_mt, None] if base == "3" else None
        ops.append(Op(
            f"expand {base}", "expand_digits_per_s", 2 * N_DIGITS,
            check_expand(base, points, exact, words),
            argv=_cli_seed(rng) + ["expand", "--beta", base,
                                   "--x", str(x_mt), "--x", str(x_two),
                                   "--digits", str(N_DIGITS)]))
    # the interval path: beta_orbit on certified BigReal enclosures of the
    # same points, at the precision 2000 digits need plus 128 bits
    for base in ("2", "3", "3/2"):
        prec = math.ceil(N_DIGITS * math.log2(float(Fraction(base)))) + 128
        for tag, x in (("mt", x_mt), ("two", x_two)):
            ops.append(Op(
                f"beta_orbit interval {tag} {base}", None, 0,
                check_interval(base, x, exact),
                call=_interval_call(lib, base, x, prec)))
    return ops


def _interval_call(lib, base: str, x: Fraction, prec: int):
    def call():
        b = lib.BetaBase(Fraction(base))
        return lib.beta_orbit(b, lib.BigReal.from_fraction(x, prec), N_DIGITS)
    return call


def scenery_zoom(rng, ifs, lib) -> List[Op]:
    ops: List[Op] = []
    n_orbit = int(math.floor(SCENERY_T / SCENERY_DT + 1e-9)) + 1
    for model in ("mt", "refl"):
        ops.append(Op(
            f"scenery {model}", "scenery_windows_per_s", n_orbit + SCENERY_NQ,
            check_scenery(model),
            argv=_cli_seed(rng) + ["scenery", ifs[model],
                                   "--T", str(SCENERY_T),
                                   "--dt", str(SCENERY_DT),
                                   "--n-q", str(SCENERY_NQ),
                                   "--tolerance", str(SCENERY_TOL),
                                   "--dump-windows", str(SCENERY_DUMP)]))
    ops.append(Op(
        "disintegration mt", "sampler_points_per_s",
        2 * DISINTEGRATION_COUNT, check_disintegration,
        argv=_cli_seed(rng) + ["disintegration", ifs["mt"],
                               "--count", str(DISINTEGRATION_COUNT)]))
    ops.append(Op(
        "sample mt model", "sampler_points_per_s", SAMPLE_COUNT, check_samples,
        argv=_cli_seed(rng) + ["sample", ifs["mt"], "--mode", "model",
                               "--count", str(SAMPLE_COUNT)]))
    return ops


def certify(rng, ifs, lib) -> List[Op]:
    ops: List[Op] = []
    seed = _cli_seed(rng)
    for base in CERTIFY_BASES:
        ops.append(Op(f"pisot {base}", CERTIFY_RATE, 1, check_pisot(base),
                      argv=seed + ["pisot", base]))
    for base in PARRY_BASES:
        ops.append(Op(f"parry {base}", CERTIFY_RATE, 1, check_parry(base),
                      argv=seed + ["parry", "--beta", base]))
    spectrum_argv = seed + ["spectrum", ifs["mt"]]
    for base in SPECTRUM_BASES:
        spectrum_argv += ["--beta", base]
    ops.append(Op("spectrum mt", CERTIFY_RATE, len(SPECTRUM_BASES),
                  check_spectrum(IFS_RATIOS["mt"]), argv=spectrum_argv))
    for base in RELATION_BASES:
        ops.append(Op(f"model two {base}", CERTIFY_RATE, 3,
                      check_relations(base, IFS_RATIOS["two"], 3),
                      argv=seed + ["model", ifs["two"], "--beta", base]))
    return ops


WORKLOADS = {
    "pisot-digits": pisot_digits,
    "rational-digits": rational_digits,
    "scenery-zoom": scenery_zoom,
    "certify": certify,
}

# workloads whose operations isolate roots: their set-up makes one untimed
# `pisot golden` call, so the lazy import of sympy is done before timing
NEEDS_WARMUP = {"pisot-digits", "certify"}


def build(name: str, seed: int, in_dir: str, lib) -> List[Op]:
    """Write the IFS files and make the workload's operations from the
    seed."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng, _write_ifs(in_dir), lib)
