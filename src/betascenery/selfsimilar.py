"""Similarity maps and iterated function systems on the real line.

A similarity map is x -> r*x + t with r nonzero; an IFS is a finite list of
strict contractions (|r_i| < 1) with positive rational weights summing to 1.
The invariant measure mu = sum_i p_i * (f_i)_* mu is the distribution of the
random series obtained by composing maps drawn i.i.d. from the weights.

Scalars are exact throughout: Fractions, or elements of a single real
algebraic number field (all non-rational scalars must live in one field).
The attractor hull is in closed form: its ends are the extremes of the
fixed points of the maps, their images under the reversing maps and the
fixed points of pairs of reversing maps.  Floating point enters only in
bulk sampling, where it belongs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .algebraics import ExactScalar, FieldElement
from .rng import UniformStream, cdf_thresholds, draw_symbols


def canonical_scalar(x: ExactScalar) -> ExactScalar:
    """Fold rational-valued field elements down to plain Fractions so that
    equal scalars compare and hash equal regardless of representation."""
    if isinstance(x, FieldElement):
        r = x.to_rational()
        if r is not None:
            return r
    return x


def _as_scalar(x) -> ExactScalar:
    if isinstance(x, FieldElement):
        return canonical_scalar(x)
    return Fraction(x)


class SimilarityMap:
    """The affine map x -> ratio * x + shift with exact coefficients."""

    __slots__ = ("ratio", "shift")

    def __init__(self, ratio, shift):
        ratio = _as_scalar(ratio)
        shift = _as_scalar(shift)
        if ratio == 0:
            raise ValueError("similarity ratio must be nonzero")
        self.ratio = ratio
        self.shift = shift

    def __call__(self, x):
        return self.ratio * x + self.shift

    def compose(self, other: "SimilarityMap") -> "SimilarityMap":
        """self after other: x -> self(other(x))."""
        return SimilarityMap(self.ratio * other.ratio,
                             self.ratio * other.shift + self.shift)

    def image_interval(self, lo, hi) -> Tuple[ExactScalar, ExactScalar]:
        a, b = self(lo), self(hi)
        return (a, b) if self.ratio > 0 else (b, a)

    def fixed_point(self) -> ExactScalar:
        return self.shift / (1 - self.ratio)

    def __eq__(self, other):
        if not isinstance(other, SimilarityMap):
            return NotImplemented
        return self.ratio == other.ratio and self.shift == other.shift

    def __hash__(self):
        return hash((self.ratio, self.shift))

    def __repr__(self):
        return (f"SimilarityMap({float(self.ratio):.6g}*x + "
                f"{float(self.shift):.6g})")


def _check_one_field(scalars) -> None:
    field = None
    for s in scalars:
        if isinstance(s, FieldElement):
            if field is None:
                field = s.field
            elif field is not s.field and not field.same_field(s.field):
                raise ValueError(
                    "IFS scalars mix two distinct algebraic fields; express "
                    "all of them in a single field")


class SimilarityIFS:
    """A finite contracting IFS with rational weights.

    maps    -- tuple of SimilarityMap, each with |ratio| < 1
    weights -- tuple of positive Fractions summing to 1
    """

    def __init__(self, maps: Sequence[SimilarityMap], weights=None):
        maps = tuple(maps)
        if not maps:
            raise ValueError("an IFS needs at least one map")
        for f in maps:
            if abs(f.ratio) >= 1:
                raise ValueError(f"{f} is not a strict contraction")
        _check_one_field([f.ratio for f in maps] + [f.shift for f in maps])
        if weights is None:
            weights = [Fraction(1, len(maps))] * len(maps)
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != len(maps):
            raise ValueError("need one weight per map")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights) != 1:
            raise ValueError(f"weights sum to {sum(weights)}, expected 1")
        self.maps = maps
        self.weights = weights
        self._hull: Optional[Tuple[ExactScalar, ExactScalar]] = None

    @property
    def n(self) -> int:
        return len(self.maps)

    def __repr__(self):
        inner = ", ".join(repr(f) for f in self.maps)
        return f"SimilarityIFS([{inner}])"

    # -- words --------------------------------------------------------------

    def word_map(self, word: Sequence[int]) -> SimilarityMap:
        """f_{w_1} after f_{w_2} after ... after f_{w_k}."""
        if not word:
            return SimilarityMap(Fraction(1), Fraction(0))
        f = self.maps[word[0]]
        for i in word[1:]:
            f = f.compose(self.maps[i])
        return f

    def word_weight(self, word: Sequence[int]) -> Fraction:
        w = Fraction(1)
        for i in word:
            w *= self.weights[i]
        return w

    def words(self, length: int) -> Iterator[Tuple[int, ...]]:
        return itertools.product(range(self.n), repeat=length)

    # -- attractor hull -------------------------------------------------------

    def attractor_hull(self) -> Tuple[ExactScalar, ExactScalar]:
        """Exact convex hull [L, H] of the attractor K, in closed form.

        K = U_i f_i(K) (Hutchinson) and hull f_i(K) = f_i(hull K), so
            L = min_i min f_i([L, H]),   H = max_i max f_i([L, H]).
        C holds every fixed point p_i, f_i(p_j) for every reversing f_i and
        every j, and the fixed point of f_i f_j for every pair of reversing
        maps.  C lies in K, so L <= min C.  If f_i attains L, then L = p_i
        when r_i > 0, and otherwise L = f_i(H); if f_j attains H, then H is
        p_j or f_j(L), so L is f_i(p_j) or the fixed point of f_i f_j.
        Either way L is in C, so L = min C and, likewise, H = max C.
        """
        if self._hull is None:
            fixed = [f.fixed_point() for f in self.maps]
            flips = [f for f in self.maps if f.ratio < 0]
            points = (fixed + [f(p) for f in flips for p in fixed]
                      + [f.compose(g).fixed_point() for f in flips
                         for g in flips])
            self._hull = (canonical_scalar(min(points)),
                          canonical_scalar(max(points)))
        return self._hull


# a sample point's truncation error stays below 2^-SAMPLING_BITS of the hull
SAMPLING_BITS = 60


def sampling_depth(ratios: Sequence[ExactScalar]) -> int:
    """Word length making the truncation error below 2^-SAMPLING_BITS of the
    hull, for maps with these contraction ratios."""
    worst = max(abs(float(r)) for r in ratios)
    return max(1, math.ceil(SAMPLING_BITS / -math.log2(worst)))


# uniforms, not rows, per sampler chunk: a chunk stays in L2 at any depth
SAMPLE_CHUNK_UNIFORMS = 1 << 16


def fold_in_chunks(count: int, depth: int, fold) -> np.ndarray:
    """The `count` points fold(start, rows) returns for consecutive chunks
    of max(1, SAMPLE_CHUNK_UNIFORMS // depth) rows, in one array.  The
    budget counts uniforms so that a chunk's arrays (uniforms, int64 paths,
    the model's second uniforms: 1.5 MB at 2^16) fit a 2 MB L2 at any
    depth.  150k points, direct/model ms at budgets 2^14 ... 2^18 (numpy
    2.4, 2-core x86-64): middle thirds 83/88, 71/74, 65/72, 68/73, 72/114;
    ratios 1/2, 1/3 146/110, 128/99, 112/97, 110/94, 104/149.
    Counter-based uniforms make every chunking read the same draws."""
    out = np.empty(count)
    step = max(1, SAMPLE_CHUNK_UNIFORMS // depth)
    for start in range(0, count, step):
        rows = min(step, count - start)
        out[start:start + rows] = fold(start, rows)
    return out


def fold_paths(maps: Sequence[SimilarityMap], hull, paths: np.ndarray
               ) -> np.ndarray:
    """Float points of the (count, depth) map-index words `paths`: each
    word map applied to the hull midpoint, innermost map first."""
    r = np.array([float(f.ratio) for f in maps])
    t = np.array([float(f.shift) for f in maps])
    lo, hi = hull
    x = np.full(paths.shape[0], (float(lo) + float(hi)) / 2)
    for k in range(paths.shape[1] - 1, -1, -1):
        col = paths[:, k]
        x = r[col] * x + t[col]
    return x


def sample_measure(ifs: SimilarityIFS, count: int, depth: Optional[int] = None,
                   seed: int = 0, *labels) -> np.ndarray:
    """`count` i.i.d. draws from the invariant measure as float64; each
    point sits within diam(hull) * (max |ratio|)^depth of an exactly
    distributed one.  Deterministic given (seed, labels): symbols are drawn
    by `rng.draw_symbols` from the counter based stream."""
    if depth is None:
        depth = sampling_depth([f.ratio for f in ifs.maps])
    stream = UniformStream(seed, "ifs-words", *labels)
    thresholds = cdf_thresholds(ifs.weights)
    hull = ifs.attractor_hull()

    def fold(start, rows):
        u = stream.slice(start * depth, rows * depth).reshape(rows, depth)
        return fold_paths(ifs.maps, hull, draw_symbols(thresholds, u))
    return fold_in_chunks(count, depth, fold)


@dataclass(frozen=True)
class SeparatedPair:
    """Two equal-length words with the same exact derivative whose images of
    the attractor hull are strictly disjoint (a shared endpoint does not
    count).  I is lexicographically before J."""
    length: int
    word_i: Tuple[int, ...]
    word_j: Tuple[int, ...]
    ratio: ExactScalar


# words of one length that the separated-pair search compares, at most
PAIR_SEARCH_WORDS = 20000


def find_separated_pair(ifs: SimilarityIFS,
                        max_length: int = 8) -> SeparatedPair:
    """Shortest (then lexicographically least) separated pair of words.

    Scans word lengths 1, 2, ... and within each length examines pairs
    (I, J) in lexicographic order on the pair, keeping only those whose
    composed maps have the same exact signed derivative and strictly
    disjoint hull images.  Raises ValueError when the search space is
    exhausted without a hit.
    """
    hull = ifs.attractor_hull()
    if hull[0] == hull[1]:
        raise ValueError("the attractor is finite (all maps share one fixed "
                         "point); no separated pair can exist")
    for m in range(1, max_length + 1):
        if ifs.n ** m > PAIR_SEARCH_WORDS:
            raise ValueError(
                f"no separated pair found within the word budget "
                f"({PAIR_SEARCH_WORDS} words per level, level {m} needs "
                f"{ifs.n ** m})")
        entries: List[Tuple[Tuple[int, ...], ExactScalar,
                            Tuple[ExactScalar, ExactScalar]]] = []
        for word in ifs.words(m):
            f = ifs.word_map(word)
            entries.append((word, canonical_scalar(f.ratio),
                            f.image_interval(*hull)))
        for a in range(len(entries)):
            word_i, ratio_i, hull_i = entries[a]
            for b in range(a + 1, len(entries)):
                word_j, ratio_j, hull_j = entries[b]
                if ratio_i != ratio_j:
                    continue
                # strict disjointness, either side
                if hull_i[1] < hull_j[0] or hull_j[1] < hull_i[0]:
                    return SeparatedPair(m, word_i, word_j, ratio_i)
    raise ValueError(
        f"no separated pair of words up to length {max_length}; the IFS may "
        "have too much overlap or too little contrast")
