"""Self-test of the oracles: each accepts a correct output, made here
without the package under test, and rejects the same output with one
corruption (a flipped digit, a perturbed density piece, a swapped verdict).

    python3 perfbench/selftest.py

Exits 0 when every oracle behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np

import oracles
import workloads

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def accepts_and_rejects(what: str, good, bad) -> None:
    """good() must return no problems, bad() at least one."""
    expect(good() == [], f"{what}: accepts the correct output")
    expect(bad() != [], f"{what}: rejects the corrupted output")


def flipped(digits, k):
    out = list(digits)
    out[k] = 1 - out[k] if out[k] in (0, 1) else 0
    return out


def greedy_mp(name: str, x: Fraction, n: int):
    """Greedy digits in mpmath at ample precision (test data only)."""
    prec = int(n * math.log2(oracles.base_float(name))) + 256
    beta = oracles.base_mp(name, prec)
    with mpmath.workprec(prec):
        y = mpmath.mpf(x.numerator) / x.denominator
        out = []
        for _ in range(n):
            y *= beta
            d = int(mpmath.floor(y))
            y -= d
            out.append(d)
    return out


def main() -> int:
    rng = random.Random(0)
    n = 400
    x_two, _ = workloads.coded_point("two", rng, n)
    x_mt, word = workloads.coded_point("mt", rng, n)

    # digits in algebraic, integer and rational bases
    for name, x in (("golden", x_two), ("tribonacci", x_mt)):
        d = greedy_mp(name, x, n)
        accepts_and_rejects(f"greedy identity, {name}",
                            lambda: oracles.check_digits(name, x, d),
                            lambda: oracles.check_digits(name, x, flipped(d, 150)))
    # an inadmissible word: a 0 turned into a 1 next to a 1
    d = greedy_mp("golden", x_two, n)
    k = next(i for i in range(1, n) if d[i] == 0 and d[i - 1] == 1)
    expect(any("inadmissible" in p for p in
               oracles.check_digits("golden", x_two, flipped(d, k))),
           "Parry admissibility: rejects a 11 block in golden digits")
    for b in ("2", "3"):
        d = oracles.integer_digits(x_mt, int(b), n)
        accepts_and_rejects(f"long division, base {b}",
                            lambda: oracles.check_digits(b, x_mt, d),
                            lambda: oracles.check_digits(b, x_mt, flipped(d, 77)))
    expect(oracles.integer_digits(x_mt, 3, n) == [2 * w for w in word[:n]],
           "base 3 digits of a middle-thirds point are twice its coding word")
    beta, y, d32 = Fraction(3, 2), x_two, []
    for _ in range(n):
        y *= beta
        d32.append(y.numerator // y.denominator)
        y -= d32[-1]
    accepts_and_rejects("Fraction identity, base 3/2",
                        lambda: oracles.check_digits("3/2", x_two, d32),
                        lambda: oracles.check_digits("3/2", x_two, flipped(d32, 9)))

    # interval digits against the exact path
    exact = {("2", x_mt): oracles.integer_digits(x_mt, 2, n)}
    check = workloads.check_interval("2", x_mt, exact)
    good = SimpleNamespace(digits=exact[("2", x_mt)])
    accepts_and_rejects("interval digits equal the exact path",
                        lambda: check(good),
                        lambda: check(SimpleNamespace(digits=flipped(good.digits, 5))))

    # Parry densities: golden's closed form, and x^2 - 3x + 1 by hand:
    # T(1) = beta - 2 = 1/phi is a fixed point, so the density is
    # 1 + 1/(beta - 1) on [0, 1/phi) and 1 on [1/phi, 1), normalised
    phi = (1 + 5 ** 0.5) / 2
    gold = [(5 + 3 * 5 ** 0.5) / 10, (5 + 5 ** 0.5) / 10]
    accepts_and_rejects(
        "Parry density, golden",
        lambda: oracles.check_parry("golden", [0, 1 / phi], [1 / phi, 1], gold, 0.0),
        lambda: oracles.check_parry("golden", [0, 1 / phi], [1 / phi, 1],
                                    [gold[0], gold[1] * 1.001], 0.0))
    b2 = phi * phi
    raw = np.array([1 + 1 / (b2 - 1), 1.0])
    dens = raw / (raw[0] / phi + raw[1] * (1 - 1 / phi))
    accepts_and_rejects(
        "Parry density, x^2 - 3*x + 1",
        lambda: oracles.check_parry("x^2 - 3*x + 1", [0, 1 / phi], [1 / phi, 1],
                                    dens, 4.2e-107),
        lambda: oracles.check_parry("x^2 - 3*x + 1", [0, 1 / phi], [1 / phi, 1],
                                    dens * [1.0, 1.0 + 1e-6], 4.2e-107))

    # Pisot verdicts and conjugate moduli
    for name in ("golden", "tribonacci", "x^2 - 2"):
        pisot, moduli = oracles.pisot_truth(name)
        res = {"pisot": pisot, "conjugate_moduli": moduli,
               "value": oracles.base_float(name)}
        swapped = dict(res, pisot=not pisot)
        accepts_and_rejects(f"Pisot verdict, {name}",
                            lambda: oracles.check_pisot(name, res),
                            lambda: oracles.check_pisot(name, swapped))
    res = {"pisot": True, "conjugate_moduli": [1.6180339887, 0.6180339887 + 1e-6],
           "value": phi}
    expect(oracles.check_pisot("golden", res) != [],
           "conjugate moduli: rejects a modulus off by 1e-6")

    # verdict tables
    row3 = {"beta": "3", "verdict": "inconclusive",
            "relations": [{"component": 0, "p": -1, "q": 1, "verdict": "dependent"}]}
    row_g = {"beta": "golden", "verdict": "normality_implied", "evidence": "certified"}
    thirds = [Fraction(1, 3)]
    accepts_and_rejects("spectrum row, base 3 on middle thirds",
                        lambda: oracles.check_spectrum_row(row3, thirds),
                        lambda: oracles.check_spectrum_row(dict(row_g, beta="3"),
                                                           thirds))
    accepts_and_rejects("spectrum row, golden on middle thirds",
                        lambda: oracles.check_spectrum_row(row_g, thirds),
                        lambda: oracles.check_spectrum_row(dict(row3, beta="golden"),
                                                           thirds))
    dep = {"verdict": "dependent", "p": -4, "q": 1}
    accepts_and_rejects("relation row, 1/4 against x^2 - 2",
                        lambda: oracles.check_relation_row(dep, Fraction(1, 4),
                                                           "x^2 - 2"),
                        lambda: oracles.check_relation_row(
                            {"verdict": "independent_certified"}, Fraction(1, 4),
                            "x^2 - 2"))

    # scenery windows and samples
    bins = np.full(8, 1 / 8)
    rows = [(w, -1 + j / 4, -1 + (j + 1) / 4, bins[j]) for w in range(3)
            for j in range(8)]
    bad_rows = list(rows)
    bad_rows[5] = rows[5][:3] + (rows[5][3] + 1e-6,)
    accepts_and_rejects("windows sum to 1",
                        lambda: oracles.check_windows(rows),
                        lambda: oracles.check_windows(bad_rows))
    gen = np.random.default_rng(0)
    cantor = (2 * gen.integers(0, 2, size=(100_000, 40)) *
              3.0 ** -np.arange(1, 41)).sum(axis=1)
    expect(oracles.ks_to_cdf(cantor, oracles.cantor_cdf) < 0.01,
           "Cantor samples within KS 0.01 of the Cantor function")
    expect(oracles.ks_to_cdf(gen.random(100_000), oracles.cantor_cdf) > 0.01,
           "uniform samples rejected by the Cantor KS check")

    # a normality report, written as the CLI writes it
    tmp = Path(__file__).resolve().parent.parent / ".perfbench_out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)

    def normality(freqs, disc=0.01):
        (tmp / "normality_report.json").write_text(json.dumps(
            {"results": {"n_points": 1, "mean_digit_freqs": freqs,
                         "mean_discrepancy": disc}}))
        (tmp / "normality.csv").write_text(
            "point_id,beta,n,freq_0,freq_1,discrepancy,precision_used\n"
            f"0,golden,2000,{freqs[0]!r},{freqs[1]!r},{disc!r},0\n")
        return workloads.check_normality("golden", 1)((0, str(tmp)))

    m = [float(v) for v in oracles.digit_masses("golden")]
    accepts_and_rejects("normality report, golden",
                        lambda: normality(m),
                        lambda: normality([m[0] - 0.1, m[1] + 0.1]))
    shutil.rmtree(tmp)

    print(f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
