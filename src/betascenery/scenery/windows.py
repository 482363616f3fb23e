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
    window, and all mass lands in one (windows, 2B) bin array.  A block
    reads its words once, into a (windows, L) table of component symbols
    and one of inner symbols, -1 where a finite word has ended; the focus
    points, the symbolic splits of the focus cylinders and the descent read
    those tables.  Each window gets the float operations it would get
    alone, in the same order (running products and sums are sequential
    numpy accumulations), so its bins do not depend on the block.
    window_of_state is that descent for one state.

The comparison panel (a fixed, versioned family of 32 bounded functionals)
also lives here so every consumer shares one definition.  It stays one
window at a time: summed over a block at once, its masses and moments
differ from the per-window sums in the last bits.
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
# calls of each level over hundreds of nodes, few enough that a block's
# words stay small (a stationary sample's four lazy words hold 1,024
# symbols each, about 37 KB with their buffers and streams)
WINDOW_BLOCK = 64
# first length of a block's symbol tables: past the focus walks and focus
# splits of the scenery benchmark's windows (at most 72 levels on middle
# thirds, 133 on the reflected model), so that few blocks read past them
SYMBOL_TABLE = 256
# levels of a focus split walked per round of array operations
SPLIT_CHUNK = 64


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
    """The model as floats: its maps flattened into tables indexed by
    ``start[c] + v`` (map v of component c), each component's ratio and
    map count, and the hull."""

    def __init__(self, model: Model):
        comps = model.components
        self.ratio = np.array([float(c.ratio) for c in comps])
        self.size = np.array([c.size for c in comps])
        self.start = np.cumsum(self.size) - self.size
        self.shifts = np.array([float(f.shift) for c in comps for f in c.maps])
        self.weights = np.array([float(x) for c in comps for x in c.weights])
        self.hlo = float(model.hull[0])
        self.hhi = float(model.hull[1])


def _rows(words: Sequence[Word], start: int, n: int) -> np.ndarray:
    """The n symbols of each word from position start on, one row per word,
    with -1 where a finite word has ended."""
    out = np.full((len(words), n), -1, dtype=np.int64)
    for row, word in zip(out, words):
        got = word.take(start, n)
        row[:got.size] = got
    return out


class _Symbols:
    """The omega and inner symbols of a block's windows as two
    (windows, L) tables, filled with one Word.take per word and refilled
    at twice the length when a read goes past L."""

    def __init__(self, omegas: Sequence[Word], inners: Sequence[Word]):
        self.words = (omegas, inners)
        self._fill(SYMBOL_TABLE)

    def _fill(self, n: int) -> None:
        self.tables = tuple(_rows(words, 0, n) for words in self.words)
        self.length = n

    def at(self, which: int, k: int, rows: np.ndarray) -> np.ndarray:
        """Symbol k of the given windows' omega (which=0) or inner (1)
        word; IndexError, as Word.symbol raises it, where one has ended."""
        while k >= self.length:
            self._fill(2 * self.length)
        got = self.tables[which][rows, k]
        if got.size and got.min() < 0:
            self.words[which][rows[np.argmax(got < 0)]].symbol(k)
        return got

    def span(self, rows: np.ndarray, start: int, n: int):
        """(omega, inner) symbols start..start+n of the given windows, -1
        past a word's end; read past the tables without growing them."""
        if start + n <= self.length:
            return tuple(t[rows, start:start + n] for t in self.tables)
        return tuple(_rows([words[w] for w in rows], start, n)
                     for words in self.words)


def _focus(fl: _Floats, sy: _Symbols, tol: float) -> np.ndarray:
    """The focus point of every window of the block: the nested map
    compositions along its (omega, inner) path, until the image of the hull
    is shorter than tol."""
    scale = max(abs(fl.hlo), abs(fl.hhi), fl.hhi - fl.hlo, 1.0)
    nw = len(sy.words[0])
    a, b = np.ones(nw), np.zeros(nw)
    live = np.arange(nw)
    for k in range(5000):
        live = live[np.abs(a[live]) * scale > tol]
        if not live.size:
            break
        om = sy.at(0, k, live)
        b[live] += a[live] * fl.shifts[fl.start[om] + sy.at(1, k, live)]
        a[live] *= fl.ratio[om]
    return b + a * 0.5 * (fl.hlo + fl.hhi)


def focus_point(model: Model, omega: Word, inner: Word,
                tol: float = 1e-15) -> float:
    """The point coded by the inner path through the component sequence:
    the limit of the nested map compositions, to float accuracy."""
    return float(_focus(_Floats(model), _Symbols([omega], [inner]), tol)[0])


def _split_focus_mass(fl: _Floats, sy: _Symbols, rows: np.ndarray,
                      level: int, side: np.ndarray, eps_cut: float):
    """The (left, right) shares of the focus cylinder's mass in the two
    central bins, for each window in rows, by word order instead of float
    positions: walk the inner path's tail from `level` while its mass m
    exceeds eps_cut, credit m times each sibling map's weight to the side of
    the chosen map it lies on (flipping with the running orientation
    `side`), then half the remaining m to each side.

    The tail is walked SPLIT_CHUNK levels at a time.  Within a chunk, m and
    the orientation are running products and each side's credit a running
    sum over the (level, sibling) terms, with 0.0 where a term does not
    apply: each window gets the float operations of the scalar walk, in
    its order."""
    n = rows.size
    m, left, right = np.ones(n), np.zeros(n), np.zeros(n)
    side = side.copy()
    kids = np.arange(fl.size.max())
    todo = np.arange(n)
    j, cap = level, level + 100_000
    while todo.size and j < cap:
        c = min(SPLIT_CHUNK, cap - j)
        t = np.arange(todo.size)
        om, inn = sy.span(rows[todo], j, c)
        ended = (om < 0) | (inn < 0)
        om, inn = np.maximum(om, 0), np.maximum(inn, 0)
        chosen = fl.start[om] + inn
        ms = np.cumprod(np.column_stack([m[todo], fl.weights[chosen]]),
                        axis=1)
        walk = np.logical_and.accumulate(ms[:, :c] > eps_cut, axis=1)
        if (walk & ended).any():
            # a walked level past a word's end: that word raises
            r, i = np.argwhere(walk & ended)[0]
            for words in sy.words:
                words[rows[todo[r]]].symbol(int(j + i))
        flips = np.where(fl.ratio[om] < 0, -1.0, 1.0)
        sides = np.cumprod(np.column_stack([side[todo], flips]), axis=1)
        sib = (walk[..., None] & (kids < fl.size[om][..., None])
               & (kids != inn[..., None]))
        v = np.where(sib, fl.start[om][..., None] + kids, 0)
        credit = ms[:, :c, None] * fl.weights[v]
        on_left = (fl.shifts[v] - fl.shifts[chosen][..., None]) \
            * sides[:, :c, None] < 0
        steps = walk.sum(axis=1)
        for acc, sel in ((left, sib & on_left), (right, sib & ~on_left)):
            terms = np.where(sel, credit, 0.0).reshape(todo.size, -1)
            acc[todo] = np.cumsum(np.column_stack([acc[todo], terms]),
                                  axis=1)[:, -1]
        m[todo] = ms[t, steps]
        side[todo] = sides[t, steps]
        todo = todo[steps == c]
        j += c
    return left + 0.5 * m, right + 0.5 * m


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
    sy = _Symbols([st[0] for st in block], [st[1] for st in block])
    x = _focus(fl, sy, 1e-15)
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

        fits = np.abs(A) * (hhi - hlo) * ezoom < 1.0 / bins_half
        split = np.flatnonzero((focus >= 0) & fits)
        if split.size:
            left, right = _split_focus_mass(
                fl, sy, split, level, np.where(A[split] > 0, 1.0, -1.0)
                * sgn[split], eps_cut)
            node_mass = mass[focus[split]]
            bins[split, bins_half - 1] += node_mass * left
            bins[split, bins_half] += node_mass * right
            keep[focus[split]] = False
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
        sym[go] = sy.at(0, level, go)
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
            focus[moved] = first[at_par] + sy.at(1, level, moved)
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


def _run(mask: np.ndarray) -> slice:
    """The slice of the one run of True in mask."""
    at = np.flatnonzero(mask)
    return slice(int(at[0]), int(at[-1]) + 1) if at.size else slice(0, 0)


@lru_cache(maxsize=None)
def _panel_grid(n: int):
    """Midpoint powers, frozen, and the central and right-side bin ranges
    of the panel on n bins, built once per bin count."""
    mids = _midpoints(n)
    moments = [mids, mids ** 2, mids ** 3, mids ** 4, np.abs(mids)]
    for arr in moments:
        arr.setflags(write=False)
    central = [_run(np.abs(mids) <= r) for r in _DYADIC]
    right = [_run((mids >= 0) & (mids <= r)) for r in _DYADIC]
    return moments, central, right


def evaluate_panel(w: WindowMeasure) -> np.ndarray:
    """The 32 bounded functionals of panel fp-v1, in panel_names order.
    Each mass and defect is one sum over a contiguous range of bins."""
    b = w.bins
    moments, central, right = _panel_grid(b.size)
    defect = np.abs(b - b[::-1])
    vals = np.empty(32)
    for k, s in enumerate(central):
        vals[k] = b[s].sum()
        vals[24 + k] = 0.5 * float(defect[s].sum())
    for k, s in enumerate(right):
        vals[8 + k] = b[s].sum()
    for k, m in enumerate(moments):
        vals[16 + k] = float(b @ m)
    vals[21] = float(b.max())
    vals[22] = float((b > 1e-12).mean())
    vals[23] = float((b ** 2).sum())
    return vals


def panel_average(windows: Sequence[WindowMeasure]) -> np.ndarray:
    if not windows:
        raise ValueError("no windows to average")
    acc = np.zeros(32)
    for w in windows:
        acc += evaluate_panel(w)
    return acc / len(windows)
