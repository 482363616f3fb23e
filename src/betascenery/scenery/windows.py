"""Window measures: what a magnified measure looks like through [-1, 1].

A WindowMeasure is a histogram over 2B equal bins on [-1, 1] (B = 256 halves
by default).  Two constructions produce them:

  * center_and_window: the empirical route; translate a weighted sample
    cloud to put the focus at 0, scale by e^t, condition on the window, bin.
  * window_of_state: the deterministic route used by orbit replay; descends
    the cylinder tree of a model measure with exact masses, splitting
    cylinders until each either fits inside one bin or holds negligible
    mass.  No sampling noise; resolution is set by the mass cutoff.

The comparison panel (a fixed, versioned family of 32 bounded functionals)
also lives here so every consumer shares one definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..model import Model, Word

DEFAULT_BINS_HALF = 256
MASS_CUTOFF = 1e-10
PANEL_VERSION = "fp-v1"


@dataclass
class WindowMeasure:
    """Probability histogram over 2B equal-width bins spanning [-1, 1]."""
    bins: np.ndarray
    zero_in_support: bool = True

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=float)
        if self.bins.ndim != 1 or self.bins.size % 2:
            raise ValueError("bins must be a flat array of even length")
        if np.any(self.bins < -1e-15):
            raise ValueError("negative bin mass")
        total = self.bins.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"window mass {total} is not 1")

    @property
    def bins_half(self) -> int:
        return self.bins.size // 2

    def midpoints(self) -> np.ndarray:
        n = self.bins.size
        return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)

    def reflect(self) -> "WindowMeasure":
        """The pushforward under x -> -x; an exact involution on bins."""
        return WindowMeasure(self.bins[::-1].copy(), self.zero_in_support)

    def l1_distance(self, other: "WindowMeasure") -> float:
        if self.bins.size != other.bins.size:
            raise ValueError("windows use different binnings")
        return float(np.abs(self.bins - other.bins).sum())

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.bins)

    def ks_distance(self, other: "WindowMeasure") -> float:
        if self.bins.size != other.bins.size:
            raise ValueError("windows use different binnings")
        return float(np.abs(self.cdf() - other.cdf()).max())

    def central_mass(self, radius: float) -> float:
        mids = self.midpoints()
        return float(self.bins[np.abs(mids) <= radius].sum())

    def csv_rows(self) -> List[Tuple[float, float, float]]:
        n = self.bins.size
        edges = np.linspace(-1.0, 1.0, n + 1)
        return [(edges[j], edges[j + 1], float(self.bins[j]))
                for j in range(n)]


def point_mass_window(bins_half: int = DEFAULT_BINS_HALF) -> WindowMeasure:
    """The window of a unit atom at the focus: all mass in the two bins
    meeting at 0."""
    bins = np.zeros(2 * bins_half)
    bins[bins_half - 1] = 0.5
    bins[bins_half] = 0.5
    return WindowMeasure(bins, True)


def center_and_window(points: np.ndarray, focus: float, t: float,
                      weights: Optional[np.ndarray] = None,
                      bins_half: int = DEFAULT_BINS_HALF,
                      window_radius: float = 1.0) -> WindowMeasure:
    """Empirical window: translate the cloud so `focus` sits at 0, scale by
    e^t, keep what lands in [-radius, radius], renormalize, and bin.

    With window_radius != 1 the conditioning interval is [-r, r] and the
    bins span it (the alternative conditioning convention); coordinates are
    divided by r so the result still lives on [-1, 1].
    """
    points = np.asarray(points, dtype=float)
    w = (points - focus) * math.exp(t) / window_radius
    if weights is None:
        weights = np.ones(points.size)
    else:
        weights = np.asarray(weights, dtype=float)
    inside = np.abs(w) <= 1.0
    kept = weights[inside]
    if kept.sum() <= 0:
        raise ValueError("empty window: no sample mass near the focus; "
                         "check that the focus lies in the support")
    hist, _ = np.histogram(w[inside], bins=2 * bins_half,
                           range=(-1.0, 1.0), weights=kept)
    hist = hist / hist.sum()
    bin_w = 1.0 / bins_half
    zero_near = bool(np.any(np.abs(w[inside]) <= bin_w))
    return WindowMeasure(hist, zero_near)


def _float_components(model: Model):
    """Per-component (ratio, shifts, weights) as floats, plus hull floats."""
    comps = []
    for c in model.components:
        r = float(c.ratio)
        ts = np.array([float(f.shift) for f in c.maps])
        ws = np.array([float(x) for x in c.weights])
        comps.append((r, ts, ws))
    hlo = float(model.hull[0])
    hhi = float(model.hull[1])
    return comps, hlo, hhi


def focus_point(model: Model, omega: Word, inner: Word,
                tol: float = 1e-15) -> float:
    """The point coded by the inner path through the component sequence:
    the limit of the nested map compositions, to float accuracy."""
    comps, hlo, hhi = _float_components(model)
    scale = max(abs(hlo), abs(hhi), hhi - hlo, 1.0)
    a, b = 1.0, 0.0
    k = 0
    while abs(a) * scale > tol and k < 5000:
        r, ts, _ = comps[omega.symbol(k)]
        b += a * ts[inner.symbol(k)]
        a *= r
        k += 1
    return b + a * 0.5 * (hlo + hhi)


def _split_focus_mass(bins: np.ndarray, node_mass: float, comps,
                      omega: Word, inner: Word, level: int, a_sign: float,
                      sgn: float, bins_half: int, eps_cut: float) -> None:
    """Distribute the focus cylinder's mass between the two central bins by
    word order instead of float positions: descend the inner path, crediting
    each sibling word's weight to whichever side of the chosen word it lies
    on (flipping with the running orientation)."""
    side_sign = a_sign * sgn
    left = 0.0
    right = 0.0
    m = 1.0
    j = level
    while m > eps_cut and j < level + 100_000:
        r, ts, ws = comps[omega.symbol(j)]
        u = inner.symbol(j)
        for v in range(len(ts)):
            if v == u:
                continue
            if (ts[v] - ts[u]) * side_sign < 0:
                left += m * ws[v]
            else:
                right += m * ws[v]
        m *= ws[u]
        if r < 0:
            side_sign = -side_sign
        j += 1
    left += 0.5 * m
    right += 0.5 * m
    bins[bins_half - 1] += node_mass * left
    bins[bins_half] += node_mass * right


def _bin_index(w: np.ndarray, bins_half: int) -> np.ndarray:
    """Bin of each window coordinate in [-1, 1], clamped to the end bins.
    np.minimum/np.maximum: np.clip costs several times more on arrays this
    small."""
    idx = ((w + 1.0) * bins_half).astype(np.int64)
    return np.minimum(np.maximum(idx, 0), 2 * bins_half - 1)


def window_of_state(model: Model, omega: Word, inner: Word, a: int,
                    zoom_t: float,
                    bins_half: int = DEFAULT_BINS_HALF,
                    eps_cut: float = MASS_CUTOFF,
                    node_budget: int = 500_000,
                    window_radius: float = 1.0) -> WindowMeasure:
    """Deterministic window of the model measure for component word omega,
    focused at the point coded by (omega, inner), orientation a, magnified
    by e^zoom_t and conditioned on [-radius, radius].

    Cylinder intervals descend breadth-first with exact mass bookkeeping;
    a cylinder stops when it fits inside one bin (mass assigned exactly) or
    when its mass drops below eps_cut (assigned to its midpoint bin).

    The chain of cylinders containing the focus needs care: the focus sits
    exactly on the edge between the two central bins, and once those
    cylinders shrink below float resolution their rendered positions are
    rounding noise while their mass can still be large (components with a
    single word contract length without contracting mass).  So as soon as
    the focus cylinder fits inside one bin, its mass is split between the
    two central bins symbolically, by walking the inner word's tail and
    adding each sibling word's weight to the side it sits on.  Everything
    else is misassigned by at most eps_cut per straddling chain.
    """
    comps, hlo, hhi = _float_components(model)
    x = focus_point(model, omega, inner)
    ezoom = math.exp(zoom_t) / window_radius
    sgn = -1.0 if a % 2 else 1.0

    # a level-k node is the affine image offs + A*[hull]; A is scalar per
    # level because maps within a component share one ratio
    bins = np.zeros(2 * bins_half)
    A = 1.0
    offs = np.array([0.0])
    mass = np.array([1.0])
    level = 0
    expanded = 0
    x_idx: Optional[int] = 0  # position of the focus cylinder, if still live
    while offs.size:
        if A > 0:
            lo, hi = offs + A * hlo, offs + A * hhi
        else:
            lo, hi = offs + A * hhi, offs + A * hlo
        w1 = (lo - x) * ezoom * sgn
        w2 = (hi - x) * ezoom * sgn
        wlo = np.minimum(w1, w2)
        whi = np.maximum(w1, w2)
        keep = (whi > -1.0) & (wlo < 1.0)

        if x_idx is not None and \
                abs(A) * (hhi - hlo) * ezoom < 1.0 / bins_half:
            _split_focus_mass(bins, float(mass[x_idx]), comps, omega, inner,
                              level, 1.0 if A > 0 else -1.0, sgn, bins_half,
                              eps_cut)
            keep[x_idx] = False
            x_idx = None

        idx_lo = _bin_index(wlo, bins_half)
        idx_hi = _bin_index(whi, bins_half)
        fully_in = (wlo >= -1.0) & (whi <= 1.0)
        settled = keep & fully_in & (idx_lo == idx_hi)
        tiny = keep & ~settled & (mass < eps_cut)
        if x_idx is not None:
            # never let rounding noise settle the focus cylinder early
            settled[x_idx] = False
            tiny[x_idx] = False
        np.add.at(bins, idx_lo[settled], mass[settled])

        if np.any(tiny):
            wm = 0.5 * (wlo[tiny] + whi[tiny])
            ok = np.abs(wm) <= 1.0
            np.add.at(bins, _bin_index(wm[ok], bins_half), mass[tiny][ok])

        descend = keep & ~settled & ~tiny
        if x_idx is not None:
            descend[x_idx] = True
        if expanded + descend.sum() > node_budget:
            # budget valve: resolve whatever is left by midpoint bins
            wm = 0.5 * (wlo[descend] + whi[descend])
            ok = np.abs(wm) <= 1.0
            np.add.at(bins, _bin_index(wm[ok], bins_half),
                      mass[descend][ok])
            break
        if not np.any(descend):
            break
        expanded += int(descend.sum())
        r, ts, ws = comps[omega.symbol(level)]
        if x_idx is not None:
            pos = int(np.count_nonzero(descend[:x_idx]))
            x_idx = pos * len(ts) + inner.symbol(level)
        offs = (offs[descend][:, None] + A * ts[None, :]).ravel()
        mass = (mass[descend][:, None] * ws[None, :]).ravel()
        A *= r
        level += 1

    total = bins.sum()
    if total < 1e-12:
        raise ValueError("empty window: the focus fell outside the "
                         "measure's support")
    return WindowMeasure(bins / total, True)


# -- the fixed comparison panel -------------------------------------------------

_DYADIC = [2.0 ** (-k) for k in range(8)]


def panel_names() -> List[str]:
    names = [f"central_mass_{k}" for k in range(8)]
    names += [f"right_mass_{k}" for k in range(8)]
    names += ["mean", "second_moment", "third_moment", "fourth_moment",
              "abs_mean", "max_bin", "occupied_fraction", "collision"]
    names += [f"symmetry_defect_{k}" for k in range(8)]
    return names


def evaluate_panel(w: WindowMeasure) -> np.ndarray:
    """The 32 bounded functionals of panel fp-v1, in panel_names order."""
    b = w.bins
    mids = w.midpoints()
    vals = np.empty(32)
    for k, r in enumerate(_DYADIC):
        vals[k] = b[np.abs(mids) <= r].sum()
    for k, r in enumerate(_DYADIC):
        vals[8 + k] = b[(mids >= 0) & (mids <= r)].sum()
    vals[16] = float(b @ mids)
    vals[17] = float(b @ mids ** 2)
    vals[18] = float(b @ mids ** 3)
    vals[19] = float(b @ mids ** 4)
    vals[20] = float(b @ np.abs(mids))
    vals[21] = float(b.max())
    vals[22] = float((b > 1e-12).mean())
    vals[23] = float((b ** 2).sum())
    rev = b[::-1]
    for k, r in enumerate(_DYADIC):
        sel = np.abs(mids) <= r
        vals[24 + k] = 0.5 * float(np.abs(b[sel] - rev[sel]).sum())
    return vals


def panel_average(windows: Sequence[WindowMeasure]) -> np.ndarray:
    if not windows:
        raise ValueError("no windows to average")
    acc = np.zeros(32)
    for w in windows:
        acc += evaluate_panel(w)
    return acc / len(windows)
