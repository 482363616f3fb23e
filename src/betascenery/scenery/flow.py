"""Magnification dynamics: orbit replay under the zoom flow and sampling
from the stationary suspension distribution.

The zoom flow acts on (sequence, focus, orientation) triples.  Rather than
magnifying a fixed sample cloud (whose resolution dies exponentially in t),
the orbit replays the shift identity: once the accumulated time passes
-log|ratio| of the leading component, the window of the magnified measure
equals the window of the shifted state, reflected when the leading ratio is
negative.  Each emitted window therefore zooms by at most one roof's worth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..model import Model, build_model, verify_ssc
from ..rng import UniformStream, derive_key, draw_symbols
from ..selfsimilar import SimilarityIFS, SimilarityMap
from .chain import ExtendedChain
from .windows import (PANEL_VERSION, SYMBOL_TABLE, WindowMeasure,
                      panel_average, panel_names, windows_of_tables)


def rescale_model_for_gap(model: Model):
    """Scale every translation by a common exact factor c so the separation
    gap inside each component is at least 5/2: above the window diameter 2
    by a margin of 1/2.  Returns the new model and c; c = 1 when the gap is
    already wide enough.

    The factor maps coordinates of results back: x_new = c * x_old.
    """
    g = verify_ssc(model)
    target = Fraction(5, 2)
    if g == float("inf") or g >= target:
        return model, Fraction(1)
    c = target / g
    base = SimilarityIFS(
        [SimilarityMap(f.ratio, f.shift * c) for f in model.base.maps],
        model.base.weights)
    scaled = build_model(base, pair_words=(model.pair.word_i,
                                           model.pair.word_j))
    return scaled, c


@dataclass
class SceneryOrbit:
    """Windows of one zoom trajectory, sampled on a uniform time grid."""
    times: np.ndarray
    windows: List[WindowMeasure]

    def __len__(self):
        return len(self.windows)


def _require_separated(model: Model) -> None:
    g = verify_ssc(model)
    if g != float("inf") and g <= 2:
        raise ValueError(
            "model gap must exceed the window diameter 2; apply "
            "rescale_model_for_gap first")


def scenery_orbit(model: Model, a: int = 0, T: float = 50.0,
                  dt: float = 0.25, seed: int = 0) -> SceneryOrbit:
    """Replay the zoom flow for time T from (omega, inner, a), omega and
    inner the words of `Model.word_rows` on the streams labelled
    "orbit-omega" and "orbit-inner", emitting the window at each multiple
    of dt, rendered as windows_of_tables renders it at its default
    resolution.  The window at time t is that of the state shifted by the
    s places whose roofs fit in t, its orientation flipped by each
    reflecting one among them, at zoom time t minus their roofs; omega's
    symbols for this are read by doubling.  Each block of windows fills
    its (windows, L) tables from one span of the two streams, the places
    its windows cover, each row read at its window's own shift."""
    _require_separated(model)
    roofs = model.roofs
    reflects = [c.reflects for c in model.components]
    omega: List[int] = []

    def keys(stream):
        return [derive_key(seed, stream, "orbit-" + stream)]

    def symbol(k):
        while k >= len(omega):
            more = model.word_rows(keys, len(omega),
                                   max(len(omega), SYMBOL_TABLE))[0]
            omega.extend(more[0].tolist())
        return omega[k]

    times = np.arange(0.0, T + 1e-12, dt)
    shifts, orientations, zooms = [], [], []
    shift_count = 0
    tau = 0.0
    a_cur = int(a) & 1
    for t in times:
        while t - tau >= roofs[symbol(shift_count)] - 1e-12:
            c = symbol(shift_count)
            tau += roofs[c]
            if reflects[c]:
                a_cur ^= 1
            shift_count += 1
        shifts.append(shift_count)
        orientations.append(a_cur)
        zooms.append(t - tau)
    shifts = np.array(shifts, dtype=np.int64)

    def fill(rows, start, n):
        at = shifts[rows] + start
        lo = int(at.min())
        span = model.word_rows(keys, lo, int(at.max()) - lo + n)
        cols = (at - lo)[:, None] + np.arange(n)
        return tuple(t[0][cols] for t in span)

    return SceneryOrbit(times, windows_of_tables(model, fill, orientations,
                                                 zooms))


@dataclass
class QSamples:
    """Draws from the stationary suspension law: per draw the chain state,
    the elapsed time within its roof, and the window."""
    windows: List[WindowMeasure]
    state_indices: np.ndarray
    times: np.ndarray

    def __len__(self):
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)


def stationary_draws(chain: ExtendedChain, n: int, seed: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(state indices, times) of n draws from the stationary law: the chain
    state from the roof-length-biased stationary vector (time spent in a
    state is proportional to its roof), the in-state time uniformly over
    [0, roof)."""
    thresholds = np.cumsum(chain.length_biased_weights())[:-1]
    u_state = UniformStream(seed, "Q-state").slice(0, n)
    u_time = UniformStream(seed, "Q-time").slice(0, n)
    idx = draw_symbols(thresholds, u_state)
    return idx, u_time * np.array(chain.roofs)[idx]


def sample_Q(model: Model, chain: ExtendedChain, n: int,
             seed: int) -> QSamples:
    """n independent draws from the stationary law of the zoom flow, with
    (state, time) from `stationary_draws`; the sequence continues i.i.d.
    beyond the state.  Draw j's omega and inner words start with its
    state's component and inner symbol, and go on one place later with
    the words of `Model.word_rows` on the streams labelled "Q-omega" and
    "Q-inner" for draw j.  Each block of windows fills its (draws, L)
    symbol tables straight from the draws' streams."""
    _require_separated(model)
    idx, ts = stationary_draws(chain, n, seed)
    states = np.array(chain.states, dtype=np.int64)[idx]

    def fill(draws, start, m):
        head = int(start == 0 and m > 0)
        tables = model.word_rows(
            lambda stream: [derive_key(seed, stream, "Q-" + stream, j)
                            for j in draws.tolist()],
            start + head - 1, m - head)
        if not head:
            return tables
        return tuple(np.concatenate([states[draws, col:col + 1], t], axis=1)
                     for col, t in enumerate(tables))

    a = states[:, 2] if chain.has_orientation else np.zeros(n, np.int64)
    return QSamples(windows_of_tables(model, fill, a, ts), idx, ts)


@dataclass
class ComparisonReport:
    """Per-functional distance between an orbit's time average and the
    stationary-sample average, over the fixed panel."""
    panel_version: str
    names: List[str]
    orbit_average: np.ndarray
    q_average: np.ndarray
    distances: np.ndarray
    max_distance: float
    n_orbit: int
    n_q: int

    def to_dict(self) -> dict:
        return {
            "panel_version": self.panel_version,
            "max_distance": self.max_distance,
            "n_orbit_windows": self.n_orbit,
            "n_q_samples": self.n_q,
            "functionals": [
                {"name": nm, "orbit": float(o), "q": float(q),
                 "distance": float(d)}
                for nm, o, q, d in zip(self.names, self.orbit_average,
                                       self.q_average, self.distances)],
        }


def compare_scenery_to_Q(orbit: SceneryOrbit,
                         q_samples: Union[QSamples, Sequence[WindowMeasure]]
                         ) -> ComparisonReport:
    """Max over the fp-v1 panel of |orbit time average - Q sample mean|."""
    q_windows = list(q_samples)
    if not orbit.windows or not q_windows:
        raise ValueError("no orbit or stationary-sample windows to compare")
    if q_windows[0].bins.size != orbit.windows[0].bins.size:
        raise ValueError("orbit and stationary samples use different "
                         "binnings")
    o_avg = panel_average(orbit.windows)
    q_avg = panel_average(q_windows)
    dist = np.abs(o_avg - q_avg)
    return ComparisonReport(PANEL_VERSION, panel_names(), o_avg, q_avg,
                            dist, float(dist.max()), len(orbit.windows),
                            len(q_windows))
