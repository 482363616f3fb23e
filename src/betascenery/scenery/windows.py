"""Window measures: what a magnified measure looks like through [-1, 1].

A WindowMeasure is a histogram over 2B equal bins on [-1, 1] (B = 256 halves
by default).  windows_of_tables renders them, for orbit replay and for the
stationary sampler alike: it descends the cylinder tree of a model measure
with exact masses, splitting cylinders until each either fits inside one
bin or holds negligible mass.  No sampling noise; resolution is set by the
mass cutoff.  The windows of a run go down the tree together, WINDOW_BLOCK
at a time: a level is one set of numpy calls over the nodes of every window
in the block, each node tagged with its window, and all mass lands in one
(windows, 2B) bin array.  A block reads its symbols once, into a
(windows, L) table of component symbols and one of inner symbols, -1 where
a finite word has ended; the focus points, the symbolic splits of the focus
cylinders and the descent read those tables.  The tables come from the
caller's fill function.  The orbit and the stationary sampler both fill
them straight from uniform streams through `Model.word_rows`, making only
the places the tables hold; no word object stands between the streams and
the tables.  Each window gets the float operations it would get alone, in
the same order (running products and sums are sequential numpy
accumulations), so its bins do not depend on the block: a block of one
window renders the same bins.

The comparison panel (a fixed, versioned family of 32 bounded functionals)
also lives here so every consumer shares one definition.  It runs over a
stacked block of windows, bit for bit as on each window alone; only its
moments stay one dot product per window, since a matrix-vector product
adds in another order and differs in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import List, Sequence

import numpy as np

from ..model import Model

DEFAULT_BINS_HALF = 256
MASS_CUTOFF = 1e-10
# cylinders a window may expand before the rest goes to midpoint bins
NODE_BUDGET = 500_000
PANEL_VERSION = "fp-v1"
# windows rendered by one descent, and stacked by the panel: enough to
# amortise numpy calls over thousands of nodes, few enough that a block's
# two symbol tables (0.5 MB each at their first length) and stacked bins
# (1 MB at 512 bins) stay small; 512 windows were no faster and raised the
# peak memory
WINDOW_BLOCK = 256
# first length of a block's symbol tables: past the focus walks and focus
# splits of the scenery benchmark's windows (at most 72 levels on middle
# thirds, 133 on the reflected model), so that few blocks read past them
SYMBOL_TABLE = 256
# levels of a focus split walked per round of array operations
SPLIT_CHUNK = 64


@dataclass
class WindowMeasure:
    """Probability histogram over 2B equal-width bins spanning [-1, 1],
    checked a block at a time where it is rendered (`_check_block`)."""
    bins: np.ndarray


def _check_block(bins: np.ndarray) -> None:
    """Reject a block of rendered windows, a (windows, 2B) array, unless
    each row is a probability histogram over an even number of bins."""
    if bins.ndim != 2 or bins.shape[1] % 2:
        raise ValueError("bins must be a flat array of even length")
    if (bins < -1e-15).any():
        raise ValueError("negative bin mass")
    totals = bins.sum(axis=1)
    off = np.abs(totals - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"window mass {totals[off][0]} is not 1")


def _midpoints(n: int) -> np.ndarray:
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)


def point_mass_window() -> WindowMeasure:
    """The window of a unit atom at the focus: all mass in the two bins
    meeting at 0."""
    bins = np.zeros(2 * DEFAULT_BINS_HALF)
    bins[DEFAULT_BINS_HALF - 1] = 0.5
    bins[DEFAULT_BINS_HALF] = 0.5
    return WindowMeasure(bins)


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


class _Symbols:
    """The omega and inner symbols of a block's count windows as two
    (windows, L) tables.  fill(rows, start, n) gives symbols start ..
    start+n-1 of the given windows' omega and inner words as two (rows, n)
    tables, -1 where a word has ended.  The tables grow to twice their
    length when a read goes past L."""

    def __init__(self, fill, count: int):
        self.fill, self.count = fill, count
        self.tables = fill(np.arange(count), 0, SYMBOL_TABLE)
        self.length = SYMBOL_TABLE

    def at(self, which: int, k: int, rows: np.ndarray) -> np.ndarray:
        """Symbol k of the given windows' omega (which=0) or inner (1)
        word; IndexError where one has ended."""
        while k >= self.length:
            more = self.fill(np.arange(self.count), self.length, self.length)
            self.tables = tuple(np.concatenate(t, axis=1)
                                for t in zip(self.tables, more))
            self.length *= 2
        got = self.tables[which][rows, k]
        if got.size and got.min() < 0:
            raise IndexError(f"symbol sequence exhausted at position {k}")
        return got

    def span(self, rows: np.ndarray, start: int, n: int):
        """(omega, inner) symbols start..start+n of the given windows, -1
        past a word's end; read past the tables without growing them."""
        if start + n <= self.length:
            return tuple(t[rows, start:start + n] for t in self.tables)
        return self.fill(rows, start, n)


def _focus(fl: _Floats, sy: _Symbols, tol: float) -> np.ndarray:
    """The focus point of every window of the block: the nested map
    compositions along its (omega, inner) path, until the image of the hull
    is shorter than tol."""
    scale = max(abs(fl.hlo), abs(fl.hhi), fl.hhi - fl.hlo, 1.0)
    nw = sy.count
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
        om_read, inn_read = sy.span(rows[todo], j, c)
        ended = (om_read < 0) | (inn_read < 0)
        om, inn = np.maximum(om_read, 0), np.maximum(inn_read, 0)
        chosen = fl.start[om] + inn
        ms = np.cumprod(np.column_stack([m[todo], fl.weights[chosen]]),
                        axis=1)
        walk = np.logical_and.accumulate(ms[:, :c] > eps_cut, axis=1)
        if (walk & ended).any():
            # a walked level past a word's end
            _, i = np.argwhere(walk & ended)[0]
            raise IndexError(f"symbol sequence exhausted at position {j + i}")
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


def windows_of_tables(model: Model, fill, orientations: Sequence[int],
                      times: Sequence[float],
                      bins_half: int = DEFAULT_BINS_HALF,
                      eps_cut: float = MASS_CUTOFF,
                      node_budget: int = NODE_BUDGET) -> List[WindowMeasure]:
    """The window of each draw j < len(times), in order: the model measure
    for draw j's component word omega, focused at the point coded by omega
    and its inner word, orientation orientations[j], magnified by
    e^times[j] and conditioned on [-1, 1].  fill(draws, start, n) gives
    symbols start .. start+n-1 of the omega and inner words of the draws
    (an index array) as two (draws, n) tables, -1 where a word has ended.

    Cylinder intervals descend breadth-first with exact mass bookkeeping;
    a cylinder stops when it fits inside one bin (mass assigned exactly) or
    when its mass drops below eps_cut (assigned to its midpoint bin).  Once
    node_budget cylinders of a window have been expanded, whatever is left
    goes to its midpoint bin.

    The chain of cylinders containing the focus needs care: the focus sits
    exactly on the edge between the two central bins, and once those
    cylinders shrink below float resolution their rendered positions are
    rounding noise while their mass can still be large (components with a
    single word contract length without contracting mass).  So as soon as
    the focus cylinder fits inside one bin, its mass is split between the
    two central bins symbolically, by walking the inner word's tail and
    adding each sibling word's weight to the side it sits on.  Everything
    else is misassigned by at most eps_cut per straddling chain.

    Rendered WINDOW_BLOCK draws at a time: fill is asked for the rows of
    one block at a time, never for all draws.
    """
    fl = _Floats(model)
    out: List[WindowMeasure] = []
    for j in range(0, len(times), WINDOW_BLOCK):
        block = slice(j, j + WINDOW_BLOCK)
        sy = _Symbols(lambda rows, start, n: fill(rows + j, start, n),
                      len(times[block]))
        out += _descend(fl, sy, orientations[block], times[block],
                        bins_half, eps_cut, node_budget)
    return out


def _descend(fl: _Floats, sy: _Symbols, orientations: Sequence[int],
             times: Sequence[float], bins_half: int, eps_cut: float,
             node_budget: int) -> List[WindowMeasure]:
    """One breadth-first descent of the cylinder tree for every window of
    the block, with symbols sy, orientations and zoom times, all windows in
    lockstep, one level at a time."""
    nw, nb = sy.count, 2 * bins_half
    hlo, hhi = fl.hlo, fl.hhi
    x = _focus(fl, sy, 1e-15)
    ezoom = np.array([math.exp(t) for t in times])
    sgn = np.array([-1.0 if a % 2 else 1.0 for a in orientations])

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

    # each window keeps its row of the block's array, normalised in place;
    # a sum along the rows adds each row as its own sum does
    totals = bins.sum(axis=1)
    if (totals < 1e-12).any():
        raise ValueError("empty window: the focus fell outside the "
                         "measure's support")
    bins /= totals[:, None]
    _check_block(bins)
    return [WindowMeasure(row) for row in bins]


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


def _panel_rows(M: np.ndarray) -> np.ndarray:
    """Panel fp-v1 of each row of the (windows, 2B) bin array M: a sum over
    a range of the row per mass and defect, a dot product per moment."""
    moments, central, right = _panel_grid(M.shape[1])
    defect = np.abs(M - M[:, ::-1])
    cols = [M[:, s].sum(axis=1) for s in central + right]
    cols += [[row @ m for row in M] for m in moments]
    cols += [M.max(axis=1), (M > 1e-12).mean(axis=1), (M ** 2).sum(axis=1)]
    cols += [0.5 * defect[:, s].sum(axis=1) for s in central]
    return np.column_stack(cols)


def evaluate_panel(w: WindowMeasure) -> np.ndarray:
    """The 32 bounded functionals of panel fp-v1, in panel_names order."""
    return _panel_rows(w.bins[None])[0]


def panel_average(windows: Sequence[WindowMeasure]) -> np.ndarray:
    """The mean panel, WINDOW_BLOCK windows stacked at a time."""
    if not windows:
        raise ValueError("no windows to average")
    acc, it = np.zeros(32), iter(windows)
    while block := list(islice(it, WINDOW_BLOCK)):
        for row in _panel_rows(np.stack([w.bins for w in block])):
            acc += row      # in window order, as the per-window sum adds
    return acc / len(windows)
