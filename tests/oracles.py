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
  * bisected_root: an isolating interval halved at its midpoint, in
    plain Fractions, until it is no wider than asked.
  * unit_disk_root_count: the exact Schur-Cohn count of roots inside the
    unit circle, from sympy's characteristic polynomial.
  * nearest_float_moduli: root moduli from mpmath.polyroots at 60 digits,
    each rounded to the nearest float.
  * field_product, field_inverse: power-basis coordinates of a product
    and of an inverse in Q[x]/(p), by sympy's polynomial remainder and
    modular inverse over QQ.
  * field_value: sum c_k beta^k at 60 digits, with beta the real root of
    p nearest a float, from mpmath.polyroots.
  * pslq_relation: an integer relation between log|a| and log|b| from
    mpmath.pslq at 100 digits.
  * cylinder_focus, cylinder_window: the focus point and the bins of one
    scenery window, rendered one cylinder at a time in Python floats.
  * panel_by_masks: the 32 functionals of scenery panel fp-v1, each mass
    summed over a boolean mask of the bins.
  * eta_samples: float draws from eta_omega for one component path, the
    inverse-CDF pick and the map composition written out level by level.
  * atom_mass_bound: the product of each level's largest inner weight.
  * orientation_marginal: the stationary mass of a chain on each
    orientation, summed state by state.
  * exact_beta: beta in the exact scalars of its base's orbits.
  * greedy_reference: the greedy orbit one step at a time, x <- beta x -
    floor(beta x), in the exact scalars of the point.
  * unwind_reference: a start point from its digits and last remainder,
    x <- (x + d)/beta in the exact scalars of the point.
  * parry_reference: the Parry density straight from its definition,
    each piece value its own sum of beta^-n over the orbit of 1, in the
    exact scalars of beta (plain Fractions for a rational base).
  * Word, omega_word, inner_word: reference lazy words, finite or
    seeded; a seeded word draws each symbol from its own place of a
    uniform stream, one place at a time, with its own inverse-CDF pick.
  * prefixed, stationary_words: the omega and inner words of one
    stationary scenery draw, a fixed head before the seeded words: the
    per-draw construction that the stationary sampler's batch symbol
    tables must reproduce.
  * word_fill, windows_of_words: words as the fill of the package's
    windows_of_tables, and the windows that renders from them.

Of these, eta_samples through inner_word read a model, a chain or a base
only through their plain attributes (components, weights, selection, maps,
hull, states, stationary, a base's field generator and lattice scale) and
do their own arithmetic on them.  The seeded words read their uniforms one
place at a time from the package's UniformStream, whose places
test_determinism checks against Philox directly, and use neither
Model.word_rows nor rng.draw_symbols.  windows_of_words renders through
the package, so it is a harness, not an oracle.
"""

from __future__ import annotations

import bisect
import functools
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


def _qq_poly(coeffs: Sequence[Fraction]):
    """The sympy polynomial sum coeffs[k] x^k over QQ."""
    import sympy
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)] or [0],
                      sympy.Symbol("x"), domain="QQ")


def _coordinates(f, degree: int) -> List[Fraction]:
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
    return out + [Fraction(0)] * (degree - len(out))


def field_product(poly: Sequence[int], a: Sequence[Fraction],
                  b: Sequence[Fraction]) -> List[Fraction]:
    """The coordinates of a*b in Q[x]/(p), lowest degree first, for p, a
    and b given lowest degree first."""
    p = _qq_poly([Fraction(c) for c in poly])
    return _coordinates((_qq_poly(a) * _qq_poly(b)).rem(p), p.degree())


def field_inverse(poly: Sequence[int],
                  a: Sequence[Fraction]) -> List[Fraction]:
    """The coordinates of 1/a in Q[x]/(p), lowest degree first."""
    p = _qq_poly([Fraction(c) for c in poly])
    return _coordinates(_qq_poly(a).invert(p), p.degree())


@functools.lru_cache(maxsize=None)
def _real_root(poly: Tuple[int, ...], approx: float):
    with mpmath.workdps(60):
        roots = mpmath.polyroots(list(reversed(poly)), maxsteps=500,
                                 extraprec=400)
        return min((mpmath.re(z) for z in roots
                    if abs(mpmath.im(z)) < mpmath.mpf(10) ** -40),
                   key=lambda r: abs(r - approx))


def field_value(poly: Sequence[int], approx: float,
                coords: Sequence[Fraction]):
    """sum coords[k] beta^k as an mpmath number at 60 digits, with beta the
    real root of p (lowest degree first) nearest `approx`."""
    beta = _real_root(tuple(poly), approx)
    with mpmath.workdps(60):
        return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * beta ** k
                           for k, c in enumerate(coords))


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
                    eps_cut: float = 1e-10, node_budget: int = 500_000
                    ) -> np.ndarray:
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
    ezoom = math.exp(zoom_t)
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


def eta_samples(model, omega: Sequence[int], u: np.ndarray) -> np.ndarray:
    """Float draws from eta_omega for the component path omega, one per
    row of the uniforms u (shape (count, len(omega))): level k takes the
    map of component omega[k] whose inverse-CDF interval holds u[:, k]
    (thresholds the exact partial sums of the weights, each rounded to a
    float once), and the maps are applied to the hull midpoint, innermost
    first."""
    lo, hi = model.hull
    x = np.full(u.shape[0], (float(lo) + float(hi)) / 2)
    for k in range(len(omega) - 1, -1, -1):
        c = model.components[int(omega[k])]
        sums = [sum(c.weights[:j + 1], Fraction(0)) for j in range(c.size - 1)]
        pick = np.searchsorted([float(s) for s in sums], u[:, k],
                               side="right")
        r = np.array([float(f.ratio) for f in c.maps])
        t = np.array([float(f.shift) for f in c.maps])
        x = r[pick] * x + t[pick]
    return x


def atom_mass_bound(model, omega: Sequence[int]) -> Fraction:
    """Upper bound for the largest atom of eta_omega after the levels
    omega: the product of each level's largest inner weight (a singleton
    component contributes a factor of 1)."""
    bound = Fraction(1)
    for i in omega:
        bound *= max(model.components[i].weights)
    return bound


def orientation_marginal(chain) -> Optional[Tuple[Fraction, Fraction]]:
    """Total stationary mass of the chain on each orientation, or None
    when its states carry no orientation bit."""
    if not chain.has_orientation:
        return None
    m = [Fraction(0), Fraction(0)]
    for s, p in zip(chain.states, chain.stationary):
        m[s[2]] += p
    return m[0], m[1]


def exact_beta(base):
    """beta as a Fraction, or as an element of the base's field: its
    generator gamma = c*beta over the lattice scale c."""
    if base._field is None:
        return base.beta
    return base._field.beta() / base._lattice.scale


def greedy_reference(base, x, steps):
    """The digits and remainders of `steps` greedy steps from x, one step
    at a time in exact scalars (Fractions or field elements)."""
    b = exact_beta(base)
    digits, rems = [], []
    for _ in range(steps):
        y = b * x
        d = math.floor(y)
        x = y - d
        digits.append(int(d))
        rems.append(x)
    return digits, rems


def unwind_reference(base, x, digits):
    """x_0 from the last remainder x: x <- (x + d)/beta, in exact scalars."""
    b_inv = 1 / exact_beta(base)
    for d in reversed(digits):
        x = (x + d) * b_inv
    return x


def parry_reference(beta, truncation: int):
    """h(x) proportional to the sum of beta^-n over n >= 0 with x < T^n(1),
    from the definition, in the arithmetic of beta: a Fraction, or any
    exact scalar with +, -, *, /, floor and order.  The orbit of 1 stops at
    0, at a repeat, or at `truncation` values; when it repeats from index h
    with period k, the terms from h on stand for their periodic series and
    carry 1/(1 - beta^-k).  Each piece [b_j, b_j+1) sums the terms whose
    orbit value exceeds b_j, over the whole orbit.  Returns (breakpoints
    with 0 and 1, normalised values, terms, tail bound)."""
    orbit, head = [Fraction(1)], None
    while len(orbit) < truncation:
        y = beta * orbit[-1]
        z = y - math.floor(y)
        if z == 0 or z in orbit:
            head = len(orbit) if z == 0 else orbit.index(z)
            break
        orbit.append(z)
    n, inv = len(orbit), 1 / beta
    terms = [inv ** k for k in range(n)]
    if head is not None and head < n:
        period = 1 / (1 - inv ** (n - head))
        terms[head:] = [w * period for w in terms[head:]]
    breaks = [Fraction(0), *sorted(orbit[1:]), Fraction(1)]
    raw = [sum(w for z, w in zip(orbit, terms) if z > b) for b in breaks[:-1]]
    mass = sum(v * (hi - lo) for v, lo, hi in zip(raw, breaks, breaks[1:]))
    tail = 0.0
    if head is None:
        bf = float(beta)
        tail = bf ** (-(n - 1)) / (1 - 1 / bf)
    return breaks, [v / mass for v in raw], n, tail


class Word:
    """A reference symbol sequence read by position: ``symbol(k)``,
    ``take(start, n)`` and ``shift(m)``.

    ``Word(seq)`` is the finite word seq: reading past its end raises
    IndexError.  With a ``source``, where source(start, n) gives the n
    symbols from position start on (fewer where the word ends), the word
    starts with ``head`` and grows its buffer from the source as reads
    need it, at least doubling it.  Every shifted view shares that one
    buffer and differs only in its offset."""

    def __init__(self, head: Sequence[int] = (), source=None):
        self._root = None       # a shifted view's root word
        self._offset = 0
        self._buf = np.array(head, dtype=np.int64)
        self._source = source

    def _grow(self, stop: int) -> np.ndarray:
        parts, size = [self._buf], self._buf.size
        while size < stop and self._source is not None:
            more = self._source(size, max(stop - size, size))
            if not more.size:
                break
            parts.append(more)
            size += more.size
        if len(parts) > 1:
            self._buf = np.concatenate(parts)
        return self._buf

    def symbol(self, k: int) -> int:
        j = self._offset + k
        buf = (self._root or self)._grow(j + 1)
        if j >= buf.size:
            raise IndexError(f"symbol sequence exhausted at position {j}")
        return int(buf[j])

    def take(self, start: int, n: int) -> np.ndarray:
        """The n symbols from position start on, fewer where the word
        ends."""
        j = self._offset + start
        return (self._root or self)._grow(j + n)[j:j + n].copy()

    def shift(self, m: int) -> "Word":
        out = Word()
        out._root = self._root or self
        out._offset = self._offset + m
        return out


def _cuts(weights) -> List[float]:
    """Inverse-CDF cut points: the exact partial sums of all weights but
    the last, each rounded to the nearest float once."""
    sums, acc = [], Fraction(0)
    for w in weights[:-1]:
        acc += Fraction(w)
        sums.append(float(acc))
    return sums


def _scalar_draws(cuts_at, stream, start: int, n: int) -> np.ndarray:
    """Symbol k of a word for k in start .. start+n-1: the number of cut
    points cuts_at(k) at or below uniform k of the stream, read one place
    at a time."""
    return np.array([bisect.bisect_right(cuts_at(k),
                                         float(stream.slice(k, 1)[0]))
                     for k in range(start, start + n)], dtype=np.int64)


def omega_word(model, seed: int, *labels) -> Word:
    """The component word on the stream (seed, "omega", *labels): place k
    is the selection draw of its uniform k."""
    from betascenery.rng import UniformStream
    stream = UniformStream(seed, "omega", *labels)
    cuts = _cuts(model.selection)
    return Word(source=lambda start, n: _scalar_draws(
        lambda k: cuts, stream, start, n))


def inner_word(model, omega: Word, seed: int, *labels) -> Word:
    """The inner word over omega on the stream (seed, "inner", *labels):
    place k draws its uniform k from the weights of component
    omega.symbol(k), and the word ends where omega does."""
    from betascenery.rng import UniformStream
    stream = UniformStream(seed, "inner", *labels)
    cuts = [_cuts(c.weights) for c in model.components]

    def source(start, n):
        om = omega.take(start, n).tolist()
        return _scalar_draws(lambda k: cuts[om[k - start]], stream, start,
                             len(om))
    return Word(source=source)


def prefixed(head: Sequence[int], tail: Word) -> Word:
    """The lazy word that reads the fixed symbols head, then tail: its
    source reads tail len(head) places back."""
    h = len(head)
    return Word(head, lambda start, n: tail.take(start - h, n))


def stationary_words(model, state, seed: int, j: int):
    """(omega, inner) of stationary draw j in the chain state (component,
    inner symbol[, orientation]): the state's two symbols, then the words
    labelled "Q-omega" and "Q-inner" for draw j, the inner one over the
    omega tail."""
    tail = omega_word(model, seed, "Q-omega", j)
    return (prefixed(state[:1], tail),
            prefixed(state[1:2], inner_word(model, tail, seed, "Q-inner", j)))


def word_fill(words):
    """A fill for windows_of_tables from a list whose item j starts with
    draw j's (omega, inner) words: symbols start .. start+n-1 of the given
    rows' words as two (rows, n) tables, read with one take per word, -1
    where a finite word has ended."""
    def fill(rows, start, n):
        tables = np.full((2, len(rows), n), -1, dtype=np.int64)
        for col, table in enumerate(tables):
            for row, j in zip(table, rows.tolist()):
                got = words[j][col].take(start, n)
                row[:got.size] = got
        return tuple(tables)
    return fill


def windows_of_words(model, states, **kw):
    """The window of each state (omega, inner, orientation, zoom time), in
    order, rendered by the package's windows_of_tables from the states'
    words."""
    from betascenery.scenery.windows import windows_of_tables
    states = list(states)
    return windows_of_tables(model, word_fill(states),
                             [s[2] for s in states], [s[3] for s in states],
                             **kw)


def bisected_root(coeffs: Sequence[int], lo: Fraction, hi: Fraction,
                  width: Fraction) -> Tuple[Fraction, Fraction]:
    """The interval [lo, hi] around the one root of sum coeffs[i] x^i in
    it, halved at its midpoint until no wider than `width`; (x, x) as soon
    as an end or a midpoint x is the root."""
    def value(x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    for end in (lo, hi):
        if value(end) == 0:
            return end, end
    positive_lo = value(lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = value(mid)
        if v == 0:
            return mid, mid
        if (v > 0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi
