"""Window measures: what a magnified measure looks like through [-1, 1].

A WindowMeasure is a histogram over 2B equal bins on [-1, 1] (B = 256 halves
by default).  Two constructions produce them:

  * center_and_window: the empirical route; translate a weighted sample
    cloud to put the focus at 0, scale by e^t, condition on the window, bin.
  * windows_of_states: the deterministic route used by orbit replay and
    by the stationary sampler; descends the cylinder tree of a model
    measure with exact masses, splitting cylinders until each either fits
    inside one bin or holds negligible mass.  No sampling noise; resolution
    is set by the mass cutoff.  The windows of a run go down the tree
    together, WINDOW_BLOCK at a time: a level is one set of numpy calls
    over the nodes of every window in the block, each node tagged with its
    window, and all mass lands in one (windows, 2B) bin array.  Each window
    gets the float operations it would get alone, in the same order, so its
    bins do not depend on the block.  window_of_state is that descent for
    one state.

The comparison panel (a fixed, versioned family of 32 bounded functionals)
also lives here so every consumer shares one definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..model import Model, Word

DEFAULT_BINS_HALF = 256
MASS_CUTOFF = 1e-10
PANEL_VERSION = "fp-v1"
# windows rendered together by one descent: enough to amortise the numpy
# calls of each level over hundreds of nodes, few enough that the words of
# a block (about 37 KB for a stationary sample's four lazy words) stay small
WINDOW_BLOCK = 64


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
        return _midpoints(self.bins.size)

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


def _midpoints(n: int) -> np.ndarray:
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)


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


class _Floats:
    """The model as floats: per-component (ratio, shifts, weights) for the
    scalar walks, the same maps flattened into tables indexed by
    ``start[c] + v`` for the batched descent, and the hull."""

    def __init__(self, model: Model):
        self.comps = []
        for c in model.components:
            ts = np.array([float(f.shift) for f in c.maps])
            ws = np.array([float(x) for x in c.weights])
            self.comps.append((float(c.ratio), ts, ws))
        self.ratio = np.array([r for r, _, _ in self.comps])
        self.size = np.array([ts.size for _, ts, _ in self.comps])
        self.start = np.cumsum(self.size) - self.size
        self.shifts = np.concatenate([ts for _, ts, _ in self.comps])
        self.weights = np.concatenate([ws for _, _, ws in self.comps])
        self.hlo = float(model.hull[0])
        self.hhi = float(model.hull[1])


def _focus(fl: _Floats, omega: Word, inner: Word, tol: float) -> float:
    scale = max(abs(fl.hlo), abs(fl.hhi), fl.hhi - fl.hlo, 1.0)
    a, b = 1.0, 0.0
    k = 0
    while abs(a) * scale > tol and k < 5000:
        r, ts, _ = fl.comps[omega.symbol(k)]
        b += a * ts[inner.symbol(k)]
        a *= r
        k += 1
    return b + a * 0.5 * (fl.hlo + fl.hhi)


def focus_point(model: Model, omega: Word, inner: Word,
                tol: float = 1e-15) -> float:
    """The point coded by the inner path through the component sequence:
    the limit of the nested map compositions, to float accuracy."""
    return _focus(_Floats(model), omega, inner, tol)


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
    when its mass drops below eps_cut (assigned to its midpoint bin).  Once
    node_budget cylinders have been expanded, whatever is left goes to its
    midpoint bin.

    The chain of cylinders containing the focus needs care: the focus sits
    exactly on the edge between the two central bins, and once those
    cylinders shrink below float resolution their rendered positions are
    rounding noise while their mass can still be large (components with a
    single word contract length without contracting mass).  So as soon as
    the focus cylinder fits inside one bin, its mass is split between the
    two central bins symbolically, by walking the inner word's tail and
    adding each sibling word's weight to the side it sits on.  Everything
    else is misassigned by at most eps_cut per straddling chain.

    The descent is that of windows_of_states, on a block of one window:
    the bins equal those of the same state rendered in any block.
    """
    return windows_of_states(model, [(omega, inner, a, zoom_t)], bins_half,
                             eps_cut, node_budget, window_radius)[0]


def windows_of_states(model: Model,
                      states: Iterable[Tuple[Word, Word, int, float]],
                      bins_half: int = DEFAULT_BINS_HALF,
                      eps_cut: float = MASS_CUTOFF,
                      node_budget: int = 500_000,
                      window_radius: float = 1.0) -> List[WindowMeasure]:
    """The window of each state (omega, inner, a, zoom_t), in order, as
    window_of_state defines it.

    States are read lazily and rendered WINDOW_BLOCK at a time, so a
    generator of states holds no more than one block of words at once.
    """
    fl = _Floats(model)
    it = iter(states)
    out: List[WindowMeasure] = []
    while True:
        block = list(islice(it, WINDOW_BLOCK))
        if not block:
            return out
        out += _descend(fl, block, bins_half, eps_cut, node_budget,
                        window_radius)


def _descend(fl: _Floats, block, bins_half: int, eps_cut: float,
             node_budget: int, window_radius: float) -> List[WindowMeasure]:
    """One breadth-first descent of the cylinder tree for every state of
    the block, all windows in lockstep, one level at a time."""
    nw, nb = len(block), 2 * bins_half
    hlo, hhi = fl.hlo, fl.hhi
    x = np.array([_focus(fl, om, inn, 1e-15) for om, inn, _, _ in block])
    ezoom = np.array([math.exp(t) / window_radius for *_, t in block])
    sgn = np.array([-1.0 if a % 2 else 1.0 for _, _, a, _ in block])

    # a level-k node is the affine image offs + A*[hull]; A is one scalar
    # per window and level because maps within a component share one ratio
    bins = np.zeros((nw, nb))
    flat = bins.reshape(-1)
    A = np.ones(nw)
    expanded = np.zeros(nw, dtype=np.int64)
    wid = np.arange(nw)        # the window of each node
    offs = np.zeros(nw)
    mass = np.ones(nw)
    focus = np.arange(nw)      # each window's focus node; -1 once split
    level = 0
    while wid.size:
        An, xn, zn, sn = A[wid], x[wid], ezoom[wid], sgn[wid]
        up = An > 0
        lo = np.where(up, offs + An * hlo, offs + An * hhi)
        hi = np.where(up, offs + An * hhi, offs + An * hlo)
        w1 = (lo - xn) * zn * sn
        w2 = (hi - xn) * zn * sn
        wlo = np.minimum(w1, w2)
        whi = np.maximum(w1, w2)
        keep = (whi > -1.0) & (wlo < 1.0)

        split = (focus >= 0) & (np.abs(A) * (hhi - hlo) * ezoom
                                < 1.0 / bins_half)
        for w in np.flatnonzero(split):
            om, inn, _, _ = block[w]
            _split_focus_mass(bins[w], float(mass[focus[w]]), fl.comps, om,
                              inn, level, 1.0 if A[w] > 0 else -1.0, sgn[w],
                              bins_half, eps_cut)
            keep[focus[w]] = False
        focus[split] = -1
        live = focus[focus >= 0]

        idx_lo = _bin_index(wlo, bins_half)
        idx_hi = _bin_index(whi, bins_half)
        fully_in = (wlo >= -1.0) & (whi <= 1.0)
        settled = keep & fully_in & (idx_lo == idx_hi)
        tiny = keep & ~settled & (mass < eps_cut)
        # never let rounding noise settle a focus cylinder early
        settled[live] = False
        tiny[live] = False
        descend = keep & ~settled & ~tiny
        descend[live] = True
        count = np.bincount(wid[descend], minlength=nw)
        # budget valve: a window over budget resolves what is left by
        # midpoint bins and stops
        over = expanded + count > node_budget
        valve = over[wid] & descend
        descend &= ~valve

        # each window's adds in the order settled, tiny, valve, each in node
        # order: the float sums of its bins do not depend on the block
        at = [wid[settled] * nb + idx_lo[settled]]
        val = [mass[settled]]
        for sel in (tiny, valve):
            if sel.any():
                wm = 0.5 * (wlo[sel] + whi[sel])
                ok = np.abs(wm) <= 1.0
                at.append(wid[sel][ok] * nb + _bin_index(wm[ok], bins_half))
                val.append(mass[sel][ok])
        np.add.at(flat, np.concatenate(at), np.concatenate(val))

        par = np.flatnonzero(descend)
        pw = wid[par]
        go = np.flatnonzero(np.bincount(pw, minlength=nw))
        expanded += count
        sym = np.zeros(nw, dtype=np.int64)
        sym[go] = [block[w][0].symbol(level) for w in go]
        # a parent's children are the maps of its window's component at
        # this level, in map order
        k = fl.size[sym[pw]]
        first = np.cumsum(k) - k     # first child of each parent
        tab = np.repeat(fl.start[sym[pw]] - first, k) + np.arange(k.sum())
        wid = np.repeat(pw, k)
        offs = np.repeat(offs[par], k) + A[wid] * fl.shifts[tab]
        mass = np.repeat(mass[par], k) * fl.weights[tab]
        focus[over] = -1
        moved = np.flatnonzero(focus >= 0)
        if moved.size:
            at_par = np.searchsorted(par, focus[moved])
            focus[moved] = first[at_par] + np.array(
                [block[w][1].symbol(level) for w in moved])
        A[go] *= fl.ratio[sym[go]]
        level += 1

    # each window keeps its row of the block's array, normalised in place
    out = []
    for row in bins:
        total = row.sum()
        if total < 1e-12:
            raise ValueError("empty window: the focus fell outside the "
                             "measure's support")
        row /= total
        out.append(WindowMeasure(row, True))
    return out


# -- the fixed comparison panel -------------------------------------------------

_DYADIC = [2.0 ** (-k) for k in range(8)]


def panel_names() -> List[str]:
    names = [f"central_mass_{k}" for k in range(8)]
    names += [f"right_mass_{k}" for k in range(8)]
    names += ["mean", "second_moment", "third_moment", "fourth_moment",
              "abs_mean", "max_bin", "occupied_fraction", "collision"]
    names += [f"symmetry_defect_{k}" for k in range(8)]
    return names


@lru_cache(maxsize=None)
def _panel_grid(n: int):
    """Midpoint powers and the central and right-side masks of the panel on
    n bins, built once per bin count and frozen."""
    mids = _midpoints(n)
    moments = [mids, mids ** 2, mids ** 3, mids ** 4, np.abs(mids)]
    central = [np.abs(mids) <= r for r in _DYADIC]
    right = [(mids >= 0) & (mids <= r) for r in _DYADIC]
    for arr in moments + central + right:
        arr.setflags(write=False)
    return moments, central, right


def evaluate_panel(w: WindowMeasure) -> np.ndarray:
    """The 32 bounded functionals of panel fp-v1, in panel_names order."""
    b = w.bins
    moments, central, right = _panel_grid(b.size)
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


def panel_average(windows: Sequence[WindowMeasure]) -> np.ndarray:
    if not windows:
        raise ValueError("no windows to average")
    acc = np.zeros(32)
    for w in windows:
        acc += evaluate_panel(w)
    return acc / len(windows)
