"""Checks on the program's outputs that recompute each answer without the
package under test.

Nothing here imports ``betascenery``.  Every function returns a list of
problem strings: empty means the output passed.  ``selftest.py`` feeds each
check a corrupted output and asserts that it complains.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence

import mpmath
import numpy as np

# minimal polynomials, coefficients from the constant term up
POLYS: Dict[str, Sequence[int]] = {
    "golden": (-1, -1, 1),
    "x^2 - 3*x + 1": (1, -3, 1),
    "x^2 - 2": (-2, 0, 1),
    "tribonacci": (-1, -1, -1, 1),
    "plastic": (-1, -1, 0, 1),
    "supergolden": (-1, 0, -1, 1),
}

# longest run of 1s a greedy expansion may contain: the expansion of 1 is
# 11 (golden) and 111 (tribonacci), and an admissible word stays below it
MAX_ONES_RUN = {"golden": 1, "tribonacci": 2}


def base_float(name: str) -> float:
    """Largest real root, from numpy, for a named base or a rational."""
    if name in POLYS:
        roots = np.roots(list(reversed(POLYS[name])))
        return float(max(r.real for r in roots if abs(r.imag) < 1e-12))
    return float(Fraction(name))


def base_mp(name: str, prec: int):
    """The base as an mpmath number at `prec` bits: the largest real root
    from ``mpmath.polyroots`` of its minimal polynomial."""
    with mpmath.workprec(prec):
        coeffs = [mpmath.mpf(c) for c in reversed(POLYS[name])]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=prec)
        real = [r for r in roots if abs(mpmath.im(r)) < mpmath.mpf(2) ** -20]
        return +max(mpmath.re(r) for r in real)


# -- digits --------------------------------------------------------------------


def check_greedy_identity(name: str, x: Fraction, digits: Sequence[int]) -> List[str]:
    """0 <= x - sum d_k beta^-k < beta^-n in mpmath for an algebraic base,
    plus the Parry admissibility of the digit word."""
    n = len(digits)
    beta_f = base_float(name)
    prec = int(n * math.log2(beta_f)) + 128
    beta = base_mp(name, prec)
    out = []
    if any(d not in (0, 1) for d in digits):
        out.append(f"{name}: digit outside {{0, 1}}")
    run = MAX_ONES_RUN[name] + 1
    word = "".join(map(str, digits))
    if "1" * run in word:
        out.append(f"{name}: inadmissible block {'1' * run} at "
                   f"{word.index('1' * run)}")
    with mpmath.workprec(prec):
        s = mpmath.mpf(0)
        for d in reversed(digits):
            s = (s + d) / beta
        rem = mpmath.mpf(x.numerator) / x.denominator - s
        tail = beta ** -n
        slack = mpmath.mpf(2) ** (-(prec - 32))
        if rem < -slack or rem >= tail * (1 + slack):
            out.append(f"{name}: greedy identity fails, remainder/beta^-n = "
                       f"{mpmath.nstr(rem / tail, 6)}")
    return out


def integer_digits(x: Fraction, b: int, n: int) -> List[int]:
    """Base-b digits of x in [0, 1) by long division on plain integers."""
    p, q = x.numerator, x.denominator
    out = []
    for _ in range(n):
        d, p = divmod(p * b, q)
        out.append(d)
    return out


def check_integer_digits(x: Fraction, b: int, digits: Sequence[int]) -> List[str]:
    want = integer_digits(x, b, len(digits))
    if list(digits) != want:
        k = next(i for i, (a, c) in enumerate(zip(digits, want)) if a != c)
        return [f"base {b}: digit {k} is {digits[k]}, long division gives "
                f"{want[k]}"]
    return []


def check_rational_identity(x: Fraction, beta: Fraction,
                            digits: Sequence[int]) -> List[str]:
    """0 <= x - sum d_k beta^-k < beta^-n, exactly in Fraction."""
    inv = 1 / beta
    s = Fraction(0)
    for d in reversed(digits):
        s = (s + d) * inv
    rem = x - s
    top = math.floor(beta)
    out = []
    if any(not 0 <= d <= top for d in digits):
        out.append(f"base {beta}: digit outside 0..{top}")
    if not 0 <= rem < inv ** len(digits):
        out.append(f"base {beta}: greedy identity fails")
    return out


def check_digits(name: str, x: Fraction, digits: Sequence[int]) -> List[str]:
    """Dispatch on the base: integer, rational or algebraic."""
    if name in POLYS:
        return check_greedy_identity(name, x, digits)
    beta = Fraction(name)
    if beta.denominator == 1:
        return check_integer_digits(x, int(beta), digits)
    return check_rational_identity(x, beta, digits)


# -- Parry density ----------------------------------------------------------------


def invariant_density(beta: float, n_grid: int = 20_000,
                      iters: int = 200) -> np.ndarray:
    """Cell averages of the invariant density of x -> beta*x mod 1, by
    power iteration of the transfer operator on a uniform grid."""
    mids = (np.arange(n_grid) + 0.5) / n_grid
    h = np.ones(n_grid)
    for _ in range(iters):
        new = np.zeros(n_grid)
        for d in range(int(math.floor(beta)) + 1):
            pre = (mids + d) / beta
            ok = pre < 1
            new[ok] += h[np.minimum((pre[ok] * n_grid).astype(int),
                                    n_grid - 1)] / beta
        new /= new.mean()
        if np.abs(new - h).max() < 1e-13:
            h = new
            break
        h = new
    return h


def digit_masses(name: str) -> np.ndarray:
    """Invariant mass of each digit's cylinder {x : floor(beta x) = d}."""
    if name not in POLYS and Fraction(name).denominator == 1:
        b = int(Fraction(name))
        return np.full(b, 1.0 / b)
    beta = base_float(name)
    h = invariant_density(beta)
    n = h.size
    mids = (np.arange(n) + 0.5) / n
    cyl = np.floor(mids * beta).astype(int)
    return np.bincount(cyl, weights=h / n, minlength=int(beta) + 1)


def check_parry(name: str, lo: Sequence[float], hi: Sequence[float],
                dens: Sequence[float], tail_bound: float) -> List[str]:
    """Integral 1 and invariance under the transfer operator of T_beta on a
    grid, within tail_bound plus float rounding; closed forms for golden."""
    beta = base_float(name)
    lo, hi, dens = map(np.asarray, (lo, hi, dens))
    out = []
    if lo[0] != 0.0 or abs(hi[-1] - 1.0) > 1e-15 or \
            np.any(np.abs(hi[:-1] - lo[1:]) > 1e-15):
        out.append(f"{name}: pieces do not tile [0, 1)")
    total = float(np.sum(dens * (hi - lo)))
    if abs(total - 1) > 1e-12:
        out.append(f"{name}: density integrates to {total!r}")

    def h(t):
        idx = np.clip(np.searchsorted(lo, t, side="right") - 1, 0,
                      len(dens) - 1)
        return dens[idx]

    y = (np.arange(4096) + 0.5) / 4096
    lh = np.zeros_like(y)
    near = np.zeros(y.shape, dtype=bool)
    for d in range(int(math.floor(beta)) + 1):
        pre = (y + d) / beta
        ok = pre < 1
        lh[ok] += h(pre[ok]) / beta
        near |= np.min(np.abs(pre[:, None] - lo[None, :]), axis=1) < 1e-9
    near |= np.min(np.abs(y[:, None] - lo[None, :]), axis=1) < 1e-9
    err = float(np.abs(lh - h(y))[~near].max())
    tol = 4 * tail_bound * float(dens.max()) + 1e-9
    if err > tol:
        out.append(f"{name}: transfer operator moves the density by {err:.3g} "
                   f"(allowed {tol:.3g})")
    if name == "golden":
        phi = (1 + 5 ** 0.5) / 2
        want = [(5 + 3 * 5 ** 0.5) / 10, (5 + 5 ** 0.5) / 10]
        if len(dens) != 2 or abs(lo[1] - 1 / phi) > 1e-12 or \
                np.abs(dens - want).max() > 1e-12:
            out.append("golden: density differs from (5+3*sqrt5)/10, "
                       "(5+sqrt5)/10 split at 1/phi")
    return out


# -- Pisot verdicts ---------------------------------------------------------------


def pisot_truth(name: str):
    """(is Pisot, conjugate moduli sorted descending) from numpy.roots, with
    one modulus for each real root and one for each complex pair; rationals
    are Pisot exactly when they are integers >= 2."""
    if name not in POLYS:
        q = Fraction(name)
        return q.denominator == 1 and q >= 2, []
    coeffs = POLYS[name]
    roots = np.roots(list(reversed(coeffs)))
    beta = max(r.real for r in roots if abs(r.imag) < 1e-12)
    others = [abs(r) for r in roots if abs(r - beta) > 1e-9]
    if any(abs(m - 1) < 1e-6 for m in others):
        raise ValueError(f"{name}: a conjugate sits too near the unit circle "
                         "for a float decision")
    pisot = bool(coeffs[-1] == 1 and beta > 1 and all(m < 1 for m in others))
    moduli = [float(abs(r)) for r in roots if r.imag >= -1e-12]
    return pisot, sorted(moduli, reverse=True)


def check_pisot(name: str, results: dict) -> List[str]:
    pisot, moduli = pisot_truth(name)
    out = []
    if results["pisot"] is not pisot:
        out.append(f"{name}: pisot={results['pisot']}, numpy roots say {pisot}")
    got = results["conjugate_moduli"]
    if len(got) != len(moduli) or \
            any(abs(a - b) > 1e-8 for a, b in zip(got, moduli)):
        out.append(f"{name}: conjugate moduli {got} vs numpy {moduli}")
    if abs(results["value"] - base_float(name)) > 1e-9:
        out.append(f"{name}: value {results['value']} vs {base_float(name)}")
    return out


# -- multiplicative relations -------------------------------------------------------


def _prime_exponents(q: Fraction) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        p = 2
        while n > 1:
            while n % p == 0:
                out[p] = out.get(p, 0) + sign
                n //= p
            p += 1
    return out


def relation(r: Fraction, base: str):
    """Hand derivation of |r|^q = beta^p (q > 0, gcd 1), or None when no
    such relation exists.

    * integer base b: the prime-exponent vectors of |r| and b must be
      proportional;
    * x^2 - 2: beta^2 = 2, so a relation with 2 at exponent p gives one with
      beta at exponent 2p;
    * golden, x^2 - 3*x + 1, plastic, tribonacci, supergolden: each has a
      conjugate of modulus other than beta's, so no nonzero power of beta is
      rational, and a rational |r| != 1 has no relation with it.
    """
    r = abs(r)
    if base == "x^2 - 2":
        rel = relation(r, "2")
        return None if rel is None else _reduced(2 * rel[0], rel[1])
    if base in POLYS:
        return None
    ev_b = _prime_exponents(Fraction(base))
    if len(ev_b) != 1:
        raise ValueError(f"no hand derivation for base {base}")
    (prime, e), = ev_b.items()
    ev_r = _prime_exponents(r)
    if set(ev_r) != {prime}:
        return None
    # |r| = prime^a and beta = prime^e give |r|^e = beta^a
    return _reduced(ev_r[prime], e)


def _reduced(p: int, q: int):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return (p, q) if q > 0 else (-p, -q)


def check_relation_row(row: dict, r: Fraction, base: str) -> List[str]:
    want = relation(r, base)
    if want is None:
        if row["verdict"] != "independent_certified":
            return [f"{base} vs {r}: {row['verdict']}, expected a certified "
                    "independence"]
        return []
    if row["verdict"] != "dependent" or (row["p"], row["q"]) != want:
        return [f"{base} vs {r}: {row}, expected dependent p, q = {want}"]
    return []


def check_spectrum_row(row: dict, ratios: Sequence[Fraction]) -> List[str]:
    """A row implies normality exactly when some component ratio has no
    relation with the base; otherwise it lists every relation."""
    base = row["beta"]
    rels = [relation(r, base) for r in ratios]
    if any(rel is None for rel in rels):
        if row["verdict"] != "normality_implied" or \
                row.get("evidence") != "certified":
            return [f"spectrum {base}: {row['verdict']}, expected certified "
                    "normality_implied"]
        return []
    got = [(x["component"], x["p"], x["q"]) for x in row.get("relations", [])]
    want = [(j, p, q) for j, (p, q) in enumerate(rels)]
    if row["verdict"] != "inconclusive" or got != want:
        return [f"spectrum {base}: {row}, expected inconclusive with {want}"]
    return []


# -- samples and windows --------------------------------------------------------


def cantor_cdf(x: np.ndarray, depth: int = 48) -> np.ndarray:
    """The Cantor function, from the ternary digits of x."""
    y = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    f = np.zeros_like(y)
    live = np.ones(y.shape, dtype=bool)
    w = 0.5
    for _ in range(depth):
        y = y * 3
        d = np.floor(y)
        y -= d
        f += np.where(live & (d >= 1), w, 0.0)
        live &= d != 1
        w /= 2
    return f


def ks_to_cdf(samples: np.ndarray, cdf) -> float:
    s = np.sort(samples)
    n = s.size
    f = cdf(s)
    i = np.arange(n)
    return float(max(((i + 1) / n - f).max(), (f - i / n).max()))


def check_windows(rows: Sequence[Sequence[float]]) -> List[str]:
    """Rows of (window_id, bin_lo, bin_hi, mass): every mass non-negative,
    every window summing to 1."""
    arr = np.asarray(rows, dtype=float)
    out = []
    if arr.size == 0:
        return ["no windows dumped"]
    if (arr[:, 3] < 0).any():
        out.append("negative window mass")
    ids = arr[:, 0].astype(int)
    sums = np.bincount(ids, weights=arr[:, 3])
    if np.abs(sums - 1).max() > 1e-9:
        out.append(f"window mass sums {sums.min():.12g}..{sums.max():.12g}")
    return out
