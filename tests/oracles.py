"""Independent numerical oracles used to freeze expected values.

Everything here is written against plain floats, numpy and mpmath, with no
imports from the package under test, so agreement between the two is
evidence rather than circularity.

  * ifs_invariant_cdf: transfer-operator fixed point for the invariant
    measure of a contracting similarity IFS, as a CDF on a fine grid.
  * beta_invariant_density: power iteration of the transfer operator of the
    greedy base-beta map on a fine grid.
  * ks_between: two-sample Kolmogorov-Smirnov statistic.
  * greedy_digits_ok: the greedy-expansion inequalities at high precision,
    with beta from mpmath.polyroots.
  * unit_disk_root_count: the exact Schur-Cohn count of roots inside the
    unit circle, from sympy's characteristic polynomial.
  * nearest_float_moduli: root moduli from mpmath.polyroots at 60 digits,
    each rounded to the nearest float.
  * pslq_relation: an integer relation between log|a| and log|b| from
    mpmath.pslq at 100 digits.
  * cylinder_focus, cylinder_window: the focus point and the bins of one
    scenery window, rendered one cylinder at a time in Python floats.
  * panel_by_masks: the 32 functionals of scenery panel fp-v1, each mass
    summed over a boolean mask of the bins.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
import numpy as np


def ifs_hull(maps: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Attractor bounding interval by iterating interval images."""
    lo, hi = -1.0, 1.0
    for _ in range(200):
        los, his = [], []
        for r, t in maps:
            a, b = r * lo + t, r * hi + t
            los.append(min(a, b))
            his.append(max(a, b))
        lo2, hi2 = min(los), max(his)
        if abs(lo2 - lo) < 1e-15 and abs(hi2 - hi) < 1e-15:
            break
        lo, hi = lo2, hi2
    return lo, hi


def ifs_invariant_cdf(maps: Sequence[Tuple[float, float]],
                      weights: Sequence[float],
                      n_bins: int = 10_000,
                      iters: int = 200) -> Tuple[np.ndarray, np.ndarray]:
    """Grid CDF of the invariant measure of {x -> r_i x + t_i} with the
    given weights: F(x) = sum_i p_i * P(f_i X <= x), iterated to the fixed
    point.  Returns (grid, F)."""
    lo, hi = ifs_hull(maps)
    pad = 1e-9 * max(1.0, hi - lo)
    grid = np.linspace(lo - pad, hi + pad, n_bins + 1)
    F = np.clip((grid - lo) / (hi - lo), 0.0, 1.0)
    for _ in range(iters):
        Fn = np.zeros_like(F)
        for (r, t), p in zip(maps, weights):
            y = (grid - t) / r
            Fi = np.interp(y, grid, F, left=0.0, right=1.0)
            if r > 0:
                Fn += p * Fi
            else:
                # decreasing map: P(rX + t <= x) = P(X >= y) = 1 - F(y-)
                Fn += p * (1.0 - Fi)
        F = Fn
    return grid, F


def cdf_eval(grid: np.ndarray, F: np.ndarray, xs: np.ndarray) -> np.ndarray:
    return np.interp(xs, grid, F, left=0.0, right=1.0)


def beta_invariant_density(beta: float, n_bins: int = 10_000,
                           iters: int = 400) -> Tuple[np.ndarray, np.ndarray]:
    """Invariant density of x -> beta*x mod 1 (greedy branches) by power
    iteration of the transfer operator on bin midpoints.

    (Lh)(x) = (1/beta) * sum_d h((x + d)/beta) over branches with
    (x + d)/beta < 1, d = 0..floor(beta).  Returns (midpoints, density).
    """
    mids = (np.arange(n_bins) + 0.5) / n_bins
    h = np.ones(n_bins)
    n_digits = int(math.floor(beta)) + 1
    for _ in range(iters):
        hn = np.zeros(n_bins)
        for d in range(n_digits):
            y = (mids + d) / beta
            inside = y < 1.0
            hn[inside] += np.interp(y[inside], mids, h,
                                    left=h[0], right=h[-1]) / beta
        hn /= hn.mean()
        h = hn
    return mids, h


def ks_between(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.union1d(a, b)
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(ca - cb).max())


def ks_against_cdf(samples: np.ndarray, cdf) -> float:
    """One-sample KS against a callable CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    up = np.abs(np.arange(1, n + 1) / n - F).max()
    dn = np.abs(F - np.arange(0, n) / n).max()
    return float(max(up, dn))


def golden_parry_values() -> Tuple[float, float, float]:
    """Hand-derived golden-base invariant density: value on [0, 1/phi),
    value on [1/phi, 1), and the breakpoint 1/phi."""
    s5 = math.sqrt(5.0)
    return (5 + 3 * s5) / 10, (5 + s5) / 10, (s5 - 1) / 2


def tribonacci_parry_pieces() -> Tuple[List[float], List[float]]:
    """Hand-derived piecewise density for the tribonacci base: the orbit of
    1 is {1, b-1, b^2-b-1, 0}, giving two interior breakpoints; the raw
    piece heights are geometric partial sums, normalized to integrate to 1.
    Returns (breakpoints including 0 and 1, values per piece)."""
    # real root of x^3 - x^2 - x - 1 by Newton from 2.0 (independent of the
    # package's certified root finder)
    b = 2.0
    for _ in range(60):
        b -= (b ** 3 - b ** 2 - b - 1) / (3 * b ** 2 - 2 * b - 1)
    z1 = b - 1
    z2 = b * b - b - 1
    raw = [1 + 1 / b + 1 / b ** 2, 1 + 1 / b, 1.0]
    breaks = [0.0, z2, z1, 1.0]
    mass = sum(v * (breaks[j + 1] - breaks[j]) for j, v in enumerate(raw))
    return breaks, [v / mass for v in raw]


# Irreducible Pisot polynomials, with integer coefficients highest degree
# first, on which root isolation once stalled: plastic^2, tetranacci and two
# more.  Their upper-half root boxes from sympy sit on the real axis.
STALLING_PISOT = {
    "x^3 - 2*x^2 + x - 1": [1, -2, 1, -1],
    "x^4 - x^3 - x^2 - x - 1": [1, -1, -1, -1, -1],
    "x^3 - 3*x^2 + 2*x - 1": [1, -3, 2, -1],
    "x^4 - 2*x^3 + x - 1": [1, -2, 0, 1, -1],
}


def root_moduli(coeffs: Sequence[int]) -> List[float]:
    """Moduli of the polynomial's roots by numpy.roots, one per conjugate
    pair, largest first."""
    return sorted((abs(z) for z in np.roots(coeffs) if z.imag > -1e-9),
                  reverse=True)


def unit_disk_root_count(coeffs: Sequence[int]) -> Optional[int]:
    """Number of roots strictly inside the unit circle of the integer
    polynomial `coeffs` (highest degree first), by Schur-Cohn: with A and B
    the lower-triangular Toeplitz matrices whose first columns are
    (a_0 .. a_{n-1}) and (a_n .. a_1), M = B^T B - A^T A is symmetric, and
    when it is nonsingular its positive eigenvalues count the roots inside.
    They are counted exactly, by Descartes' rule of signs on the
    characteristic polynomial, which is exact when every root is real.
    None when M is singular: a root on the circle, or two roots z, w with
    z * conj(w) = 1."""
    import sympy
    a = list(reversed(coeffs))
    n = len(a) - 1
    A = sympy.Matrix(n, n, lambda i, j: a[i - j] if i >= j else 0)
    B = sympy.Matrix(n, n, lambda i, j: a[n - i + j] if i >= j else 0)
    char = (B.T * B - A.T * A).charpoly().all_coeffs()
    if char[-1] == 0:
        return None
    signs = [c > 0 for c in char if c != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def nearest_float_moduli(coeffs: Sequence[int]) -> List[float]:
    """Moduli of the polynomial's roots (highest degree first), one per
    conjugate pair, largest first, from mpmath.polyroots at 60 digits and
    each rounded to the nearest float."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=200)
        tiny = mpmath.mpf(10) ** -40
        return sorted((float(abs(z)) for z in roots
                       if mpmath.im(z) > -tiny), reverse=True)


def greedy_digits_ok(coeffs: Sequence[int], x: Sequence[Fraction],
                     digits: Sequence[int]) -> bool:
    """True iff `digits` are the greedy beta-digits of x, for beta the
    largest real root of the integer polynomial `coeffs` (highest degree
    first) and x = sum_k x[k] beta^k with rational x[k].

    Every prefix m must satisfy 0 <= x - sum_{k<=m} d_k beta^-k < beta^-m.
    The sums run at n*log2(beta) + 128 bits, so the rounding error stays
    below 2^-100 * beta^-n; each inequality is given that much slack.
    """
    n = len(digits)
    beta_f = max(z.real for z in np.roots(coeffs) if abs(z.imag) < 1e-9)
    with mpmath.workprec(math.ceil(n * math.log2(beta_f)) + 128):
        beta = max(mpmath.re(z) for z in
                   mpmath.polyroots(coeffs, maxsteps=200, extraprec=64)
                   if abs(mpmath.im(z)) < mpmath.mpf(2) ** -64)
        inv = 1 / beta
        slack = inv ** n * mpmath.mpf(2) ** -100
        r = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * beta ** k
                        for k, c in enumerate(x))
        scale = mpmath.mpf(1)          # beta^-m
        for d in digits:
            if not 0 <= d <= math.floor(beta):
                return False
            scale *= inv
            r -= d * scale
            if r < -slack or r >= scale + slack:
                return False
    return True


def pslq_relation(a, b, maxcoeff: int) -> Optional[Tuple[int, int]]:
    """(p, q) with |a|^q = |b|^p, q > 0, from mpmath.pslq on
    [log|a|, log|b|] at 100 digits; None when it finds no relation with
    |p|, |q| <= maxcoeff.  An operand is a Fraction, or a list of integer
    coefficients (highest degree first) standing for the largest real root
    of that polynomial.  mpmath's maxcoeff bounds the 2-norm of the
    relation, which is at most sqrt(2) maxcoeff."""
    with mpmath.workdps(100):
        logs = []
        for x in (a, b):
            if isinstance(x, Fraction):
                value = mpmath.mpf(x.numerator) / x.denominator
            else:
                value = max(mpmath.re(z) for z in
                            mpmath.polyroots(x, maxsteps=500, extraprec=300)
                            if abs(mpmath.im(z)) < mpmath.mpf(10) ** -80)
            logs.append(mpmath.log(abs(value)))
        rel = mpmath.pslq(logs, maxcoeff=2 * maxcoeff, maxsteps=10 ** 5)
    if rel is None:
        return None
    q, p = rel[0], -rel[1]
    return (p, q) if q > 0 else (-p, -q)


def cylinder_focus(comps, hull: Tuple[float, float], omega, inner,
                   tol: float = 1e-15) -> float:
    """The focus point of a scenery window in Python floats: the nested map
    compositions along the (omega, inner) path, until the image of the
    hull is shorter than tol, applied to the hull midpoint."""
    hlo, hhi = hull
    scale = max(abs(hlo), abs(hhi), hhi - hlo, 1.0)
    x, p, k = 0.0, 1.0, 0
    while abs(p) * scale > tol and k < 5000:
        r, ts, _ = comps[omega(k)]
        x += p * ts[inner(k)]
        p *= r
        k += 1
    return x + p * 0.5 * (hlo + hhi)


def cylinder_window(comps, hull: Tuple[float, float], omega, inner, a: int,
                    zoom_t: float, bins_half: int = 256,
                    eps_cut: float = 1e-10, node_budget: int = 500_000,
                    window_radius: float = 1.0) -> np.ndarray:
    """Bins of one deterministic scenery window, one cylinder at a time in
    Python floats.  comps[c] is (ratio, shifts, weights) of component c;
    omega and inner map a position to a symbol.  Each cylinder gets the
    float operations of the package's descent in the same order (the
    focus cylinder split by word order once it fits a bin; then, at each
    level, the settled, tiny and over-budget cylinders, each in node
    order), so the bins must agree bit for bit."""
    hlo, hhi = hull
    n = 2 * bins_half

    def index(w):
        return min(max(int((w + 1.0) * bins_half), 0), n - 1)

    x = cylinder_focus(comps, hull, omega, inner)
    ezoom = math.exp(zoom_t) / window_radius
    sgn = -1.0 if a % 2 else 1.0

    bins = [0.0] * n
    A = 1.0
    nodes = [(0.0, 1.0)]       # (offset, mass) of each live cylinder
    focus = 0                  # the focus cylinder's place; None once split
    level = expanded = 0
    while nodes:
        split = None
        if focus is not None and \
                abs(A) * (hhi - hlo) * ezoom < 1.0 / bins_half:
            side = sgn * (1.0 if A > 0 else -1.0)
            left = right = 0.0
            m, j = 1.0, level
            while m > eps_cut and j < level + 100_000:
                r, ts, ws = comps[omega(j)]
                u = inner(j)
                for v in range(len(ts)):
                    if v != u:
                        if (ts[v] - ts[u]) * side < 0:
                            left += m * ws[v]
                        else:
                            right += m * ws[v]
                m *= ws[u]
                if r < 0:
                    side = -side
                j += 1
            left += 0.5 * m
            right += 0.5 * m
            bins[bins_half - 1] += nodes[focus][1] * left
            bins[bins_half] += nodes[focus][1] * right
            split, focus = focus, None
        adds, tiny, descend, ends = [], [], [], []
        for i, (off, m) in enumerate(nodes):
            if A > 0:
                lo, hi = off + A * hlo, off + A * hhi
            else:
                lo, hi = off + A * hhi, off + A * hlo
            w1 = (lo - x) * ezoom * sgn
            w2 = (hi - x) * ezoom * sgn
            wlo, whi = min(w1, w2), max(w1, w2)
            ends.append((wlo, whi))
            if i == focus:
                descend.append(i)
            elif i == split or whi <= -1.0 or wlo >= 1.0:
                continue
            elif wlo >= -1.0 and whi <= 1.0 and index(wlo) == index(whi):
                adds.append((index(wlo), m))
            elif m < eps_cut:
                tiny.append(i)
            else:
                descend.append(i)
        over = expanded + len(descend) > node_budget
        for i in tiny + (descend if over else []):
            wm = 0.5 * (ends[i][0] + ends[i][1])
            if abs(wm) <= 1.0:
                adds.append((index(wm), nodes[i][1]))
        for j, m in adds:
            bins[j] += m
        if over or not descend:
            break
        expanded += len(descend)
        r, ts, ws = comps[omega(level)]
        if focus is not None:
            focus = descend.index(focus) * len(ts) + inner(level)
        nodes = [(nodes[i][0] + A * t, nodes[i][1] * w)
                 for i in descend for t, w in zip(ts, ws)]
        A *= r
        level += 1
    bins = np.array(bins)
    return bins / bins.sum()


def panel_by_masks(bins: np.ndarray) -> np.ndarray:
    """The 32 functionals of panel fp-v1 on one window's bins, with every
    central and right-side mass and every symmetry defect summed over a
    boolean mask of the bins: a frozen copy of the panel as it was first
    written, which the package must match bit for bit."""
    b = np.asarray(bins, dtype=float)
    n = b.size
    mids = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    dyadic = [2.0 ** (-k) for k in range(8)]
    moments = [mids, mids ** 2, mids ** 3, mids ** 4, np.abs(mids)]
    central = [np.abs(mids) <= r for r in dyadic]
    right = [(mids >= 0) & (mids <= r) for r in dyadic]
    vals = np.empty(32)
    for k, sel in enumerate(central):
        vals[k] = b[sel].sum()
    for k, sel in enumerate(right):
        vals[8 + k] = b[sel].sum()
    for k, m in enumerate(moments):
        vals[16 + k] = float(b @ m)
    vals[21] = float(b.max())
    vals[22] = float((b > 1e-12).mean())
    vals[23] = float((b ** 2).sum())
    rev = b[::-1]
    for k, sel in enumerate(central):
        vals[24 + k] = 0.5 * float(np.abs(b[sel] - rev[sel]).sum())
    return vals
