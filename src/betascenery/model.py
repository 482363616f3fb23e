"""Disintegration of a self-similar measure into a random model with strong
separation.

Starting from an IFS whose invariant measure mu may fail the open set
condition, group the words of a fixed length M: a separated pair (I, J) of
words with equal signed derivative and strictly disjoint hull images becomes
one two-map component, and every other word of length M becomes a singleton
component.  Because mu is also invariant for the length-M system,

    mu = q_0 * (ptilde_I (phi_I)* mu + ptilde_J (phi_J)* mu)
         + sum_W p_W (phi_W)* mu,

drawing an i.i.d. component sequence omega and forming the corresponding
random composition gives measures eta_omega with

    mu = E_omega[eta_omega],

and each eta_omega is dynamically self-similar: its level-k pieces are affine
copies of eta of the shifted sequence, with strong separation inside every
component.  All maps within one component share a single signed contraction
ratio, so the magnification clock of eta_omega ticks in steps determined by
omega alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebraics import (
    AlgebraicNumber,
    ExactScalar,
    FieldElement,
    IntPolynomial,
    NumberField,
)
from .rng import _BLOCK, UniformStream, cdf_thresholds
from .selfsimilar import (
    SeparatedPair,
    SimilarityIFS,
    SimilarityMap,
    canonical_scalar,
    find_separated_pair,
    fold_in_chunks,
    fold_paths,
    sampling_depth,
)


@dataclass(frozen=True)
class ModelComponent:
    """One symbol of the random model: maps applied together with inner
    weights, all sharing one signed contraction ratio."""
    maps: Tuple[SimilarityMap, ...]
    weights: Tuple[Fraction, ...]
    words: Tuple[Tuple[int, ...], ...]   # originating base-IFS words
    ratio: ExactScalar

    def __post_init__(self):
        for f in self.maps:
            if canonical_scalar(f.ratio) != self.ratio:
                raise ValueError("component maps must share one ratio")
        if len(self.maps) != len(self.weights) or \
                len(self.maps) != len(self.words):
            raise ValueError("maps, weights, words must align")
        if sum(self.weights) != 1:
            raise ValueError("inner weights must sum to 1")

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def max_weight(self) -> Fraction:
        return max(self.weights)

    @property
    def reflects(self) -> bool:
        return self.ratio < 0


class Model:
    """The random dynamically self-similar disintegration of an IFS measure.

    components[0] is always the separated pair; the rest are singletons for
    the remaining words of the pair's length, in lexicographic word order.
    selection[i] is the probability of drawing component i at each level.
    """

    def __init__(self, base: SimilarityIFS, pair: SeparatedPair,
                 components: Sequence[ModelComponent],
                 selection: Sequence[Fraction]):
        self.base = base
        self.pair = pair
        self.components = tuple(components)
        self.selection = tuple(Fraction(q) for q in selection)
        if len(self.selection) != len(self.components):
            raise ValueError("need one selection weight per component")
        if sum(self.selection) != 1:
            raise ValueError("selection weights must sum to 1")
        self.hull = base.attractor_hull()
        # the maps of all components, numbered component by component
        self._path_maps = tuple(f for c in self.components for f in c.maps)
        self._path_triples = tuple(map(_affine_triple, self._path_maps))
        self._first_map = np.cumsum(
            [0] + [c.size for c in self.components[:-1]])
        self._inner_thresholds = [cdf_thresholds(c.weights)
                                  for c in self.components]
        self._selection_thresholds = cdf_thresholds(self.selection)
        self._selection_thresholds.setflags(write=False)

    # -- structure ------------------------------------------------------------

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def gap(self) -> ExactScalar:
        """Exact distance between the two hull images of the pair component."""
        lo_j = self.pair.hull_j[0]
        hi_i = self.pair.hull_i[1]
        if lo_j > hi_i:
            return canonical_scalar(lo_j - hi_i)
        return canonical_scalar(self.pair.hull_i[0] - self.pair.hull_j[1])

    @property
    def has_reflection(self) -> bool:
        return any(c.reflects for c in self.components)

    def atom_mass_bound(self, omega: Sequence[int]) -> Fraction:
        """Upper bound for the largest atom of eta_omega after these levels:
        the product of each level's largest inner weight.  Singleton
        components contribute a factor of 1, so only pair levels shrink it."""
        bound = Fraction(1)
        for i in omega:
            bound *= self.components[i].max_weight
        return bound

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (self.base.maps == other.base.maps
                and self.base.weights == other.base.weights
                and self.pair.word_i == other.pair.word_i
                and self.pair.word_j == other.pair.word_j)

    def __repr__(self):
        sizes = "+".join(str(c.size) for c in self.components)
        return (f"Model({self.base.n} maps, pair length {self.pair.length}, "
                f"components {sizes})")

    # -- sampling -------------------------------------------------------------

    def omega_word(self, seed: int, *labels) -> "Word":
        """I.i.d. component symbols drawn from the selection weights."""
        stream = UniformStream(seed, "omega", *labels)
        return Word(source=lambda start: np.searchsorted(
            self._selection_thresholds, stream.slice(start, _BLOCK),
            side="right"))

    def inner_word(self, omega: "Word", seed: int, *labels) -> "Word":
        """Inner map choices over the component word omega: position k
        draws from the weights of component omega.symbol(k)."""
        stream = UniformStream(seed, "inner", *labels)

        def source(start):
            om = omega.take(start, _BLOCK)
            return self._add_inner_draws(np.zeros(om.size, dtype=np.int64),
                                         om, stream.slice(start, om.size))
        return Word(source=source)

    def _add_inner_draws(self, paths: np.ndarray, omega: np.ndarray,
                         u: np.ndarray) -> np.ndarray:
        """Add to paths, at each place, the inner map index that the
        uniform u draws from the weights of component omega there."""
        for i, thresholds in enumerate(self._inner_thresholds):
            if thresholds.size > 1:
                mask = omega == i
                paths[mask] += np.searchsorted(thresholds, u[mask],
                                               side="right")
        return paths

    def _fold(self, omega: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Float points of the (count, depth) component paths omega, with
        the inner map at each place drawn by the uniforms u."""
        paths = self._add_inner_draws(self._first_map[omega], omega, u)
        return fold_paths(self._path_maps, self.hull, paths)

    def point_of_path(self, omega: Sequence[int],
                      inner: Sequence[int]) -> ExactScalar:
        """Exact composition of the chosen maps applied to the hull midpoint.

        Each map is a triple (A, C, Q), meaning x -> (A x + C)/Q: integers
        for a rational map, (ratio, shift, 1) for a field-element one.  The
        triples are composed in one balanced product tree, so the integers
        multiplied at each level have about equal size."""
        paths = (self._first_map[np.asarray(omega, dtype=np.int64)]
                 + np.asarray(inner, dtype=np.int64))
        maps = [self._path_triples[k] for k in paths.tolist()]
        while len(maps) > 1:
            pairs = [_compose(f, g) for f, g in zip(maps[::2], maps[1::2])]
            maps = pairs + maps[len(pairs) * 2:]
        lo, hi = self.hull
        a, c, q = maps[0] if maps else (1, 0, 1)
        return canonical_scalar((a * ((lo + hi) / 2) + c) * Fraction(1, q))

    def sample_measure(self, count: int, seed: int, *labels,
                       depth: Optional[int] = None) -> np.ndarray:
        """`count` float draws from E_omega[eta_omega] = mu: every point gets
        an independent component path and inner path."""
        if depth is None:
            depth = sampling_depth([c.ratio for c in self.components])
        stream = UniformStream(seed, "model-measure", *labels)

        def fold(start, rows):
            # the component draws fill the stream's first count * depth
            # places, the inner draws the next count * depth
            u = stream.slice(start * depth, rows * depth)
            omega = np.searchsorted(self._selection_thresholds,
                                    u.reshape(rows, depth), side="right")
            u = stream.slice((count + start) * depth, rows * depth)
            return self._fold(omega, u.reshape(rows, depth))
        return fold_in_chunks(count, fold)

    def sample_eta(self, omega: Sequence[int], count: int, seed: int,
                   *labels) -> np.ndarray:
        """`count` float draws from eta_omega for one fixed component path."""
        omega = np.asarray(omega, dtype=np.int64)
        depth = len(omega)
        prod = 1.0
        for i in omega:
            prod *= abs(float(self.components[int(i)].ratio))
        if prod > 2.0 ** -50:
            raise ValueError(
                "component path too short for sampling; extend omega until "
                "its contraction product drops below 2^-50")
        stream = UniformStream(seed, "eta", *labels)
        u = stream.slice(0, count * depth).reshape(count, depth)
        return self._fold(np.broadcast_to(omega, (count, depth)), u)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        field = None
        for s in _model_scalars(self):
            if isinstance(s, FieldElement):
                gen = s.field.generator
                field = {"poly": str(s.field.poly),
                         "lo": str(gen.lo), "hi": str(gen.hi)}
                break
        doc = {
            "format": "dss-model-v1",
            "field": field,
            "maps": [{"ratio": _scalar_doc(f.ratio),
                      "shift": _scalar_doc(f.shift)}
                     for f in self.base.maps],
            "weights": [str(w) for w in self.base.weights],
            "pair": {"length": self.pair.length,
                     "word_i": list(self.pair.word_i),
                     "word_j": list(self.pair.word_j)},
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Model":
        doc = json.loads(text)
        if doc.get("format") != "dss-model-v1":
            raise ValueError("not a serialized model document")
        field = None
        if doc["field"] is not None:
            gen = AlgebraicNumber(IntPolynomial.parse(doc["field"]["poly"]),
                                  Fraction(doc["field"]["lo"]),
                                  Fraction(doc["field"]["hi"]))
            field = NumberField(gen)
        maps = [SimilarityMap(_scalar_load(m["ratio"], field),
                              _scalar_load(m["shift"], field))
                for m in doc["maps"]]
        weights = [Fraction(w) for w in doc["weights"]]
        base = SimilarityIFS(maps, weights)
        return build_model(base,
                           pair_words=(tuple(doc["pair"]["word_i"]),
                                       tuple(doc["pair"]["word_j"])))


def _affine_triple(f: SimilarityMap):
    """(A, C, Q) with f(x) = (A x + C)/Q: integers when f is rational."""
    r, s = f.ratio, f.shift
    if isinstance(r, Fraction) and isinstance(s, Fraction):
        q = math.lcm(r.denominator, s.denominator)
        return (r.numerator * (q // r.denominator),
                s.numerator * (q // s.denominator), q)
    return r, s, 1


def _compose(f, g):
    """The triple of f after g."""
    a1, c1, q1 = f
    a2, c2, q2 = g
    return a1 * a2, a1 * c2 + c1 * q2, q1 * q2


def _model_scalars(model: Model):
    for f in model.base.maps:
        yield f.ratio
        yield f.shift


def _scalar_doc(s: ExactScalar):
    if isinstance(s, Fraction):
        return {"frac": str(s)}
    return {"vec": [str(c) for c in s.vec]}


def _scalar_load(doc, field: Optional[NumberField]):
    if "frac" in doc:
        return Fraction(doc["frac"])
    if field is None:
        raise ValueError("vector scalar without a field declaration")
    return field.element([Fraction(c) for c in doc["vec"]])


def build_model(base: SimilarityIFS, max_length: int = 8,
                pair_words: Optional[Tuple[Tuple[int, ...],
                                           Tuple[int, ...]]] = None) -> Model:
    """Construct the disintegration model for `base`.

    Finds the shortest separated pair (or revalidates the supplied words),
    then groups the length-M words: the pair becomes the two-map component 0
    and every other word a singleton, with selection weights q_0 = p_I + p_J
    and p_W respectively.
    """
    hull = base.attractor_hull()
    if pair_words is None:
        pair = find_separated_pair(base, max_length=max_length)
    else:
        word_i, word_j = pair_words
        fi, fj = base.word_map(word_i), base.word_map(word_j)
        ri, rj = canonical_scalar(fi.ratio), canonical_scalar(fj.ratio)
        if ri != rj:
            raise ValueError("supplied words have different derivatives")
        hi_, hj_ = fi.image_interval(*hull), fj.image_interval(*hull)
        if not (hi_[1] < hj_[0] or hj_[1] < hi_[0]):
            raise ValueError("supplied words are not strictly separated")
        pair = SeparatedPair(len(word_i), tuple(word_i), tuple(word_j),
                             ri, hi_, hj_)

    m = pair.length
    w_i = base.word_weight(pair.word_i)
    w_j = base.word_weight(pair.word_j)
    q0 = w_i + w_j
    pair_comp = ModelComponent(
        maps=(base.word_map(pair.word_i), base.word_map(pair.word_j)),
        weights=(w_i / q0, w_j / q0),
        words=(pair.word_i, pair.word_j),
        ratio=pair.ratio)

    components: List[ModelComponent] = [pair_comp]
    selection: List[Fraction] = [q0]
    for word in base.words(m):
        if word in (pair.word_i, pair.word_j):
            continue
        f = base.word_map(word)
        components.append(ModelComponent(
            maps=(f,), weights=(Fraction(1),), words=(word,),
            ratio=canonical_scalar(f.ratio)))
        selection.append(base.word_weight(word))
    return Model(base, pair, components, selection)


class Word:
    """A symbol sequence read by position: ``symbol(k)``, ``take(start, n)``
    and ``shift(m)``.

    ``Word(seq)`` is the finite word seq: reading past its end raises
    IndexError.  With a ``source``, a function from a position to the
    symbols from there on (an empty array where the word ends), the word
    starts with ``head`` and grows its buffer a block at a time from the
    source.  Every shifted view shares that one int64 buffer and differs
    only in its offset.  Random words come from ``Model.omega_word`` and
    ``Model.inner_word``, which map a block of their uniform stream
    through the inverse-CDF thresholds with one vectorised searchsorted.
    """

    __slots__ = ("_root", "_offset", "_buf", "_source")

    def __init__(self, head: Sequence[int] = (), source=None):
        # a shifted view's root word; None on the root itself, which as its
        # own root would be a reference cycle that only the cycle collector
        # frees, long after a batch of windows has dropped its words
        self._root = None
        self._offset = 0
        self._buf = np.array(head, dtype=np.int64)
        self._source = source

    @classmethod
    def prefixed(cls, head: Sequence[int], tail: "Word") -> "Word":
        """Finitely many fixed leading symbols before the word tail."""
        h = len(head)
        return cls(head, lambda start: tail.take(start - h, _BLOCK))

    def _grow(self, stop: int) -> np.ndarray:
        """Extend this root buffer to at least `stop` symbols, unless the
        word ends first."""
        parts = [self._buf]
        size = self._buf.size
        while size < stop and self._source is not None:
            more = self._source(size)
            if not more.size:
                break
            parts.append(more)
            size += more.size
        if len(parts) > 1:
            self._buf = np.concatenate(parts)
        return self._buf

    def symbol(self, k: int) -> int:
        j = self._offset + k
        root = self._root or self
        buf = root._buf
        if j >= buf.size:
            buf = root._grow(j + 1)
            if j >= buf.size:
                raise IndexError(
                    f"symbol sequence exhausted at position {j}; supply a "
                    "longer prefix or a lazy word")
        return int(buf[j])

    def take(self, start: int, n: int) -> np.ndarray:
        """The n symbols from position start on, fewer where the word
        ends."""
        j = self._offset + start
        return (self._root or self)._grow(j + n)[j:j + n].copy()

    def shift(self, m: int) -> "Word":
        out = object.__new__(Word)
        out._root = self._root or self
        out._offset = self._offset + m
        return out


def verify_ssc(model: Model):
    """Minimum exact gap between hull images inside any multi-map component.

    Singleton components are vacuously separated and excluded from the
    minimum; a model with only singletons returns float('inf').  A
    nonpositive gap raises, naming the offending component.
    """
    lo, hi = model.hull
    best = None
    for idx, comp in enumerate(model.components):
        if comp.size == 1:
            continue
        images = [f.image_interval(lo, hi) for f in comp.maps]
        order = sorted(range(len(images)), key=lambda s: images[s][0])
        for a, b in zip(order, order[1:]):
            gap = canonical_scalar(images[b][0] - images[a][1])
            if gap <= 0:
                raise ValueError(
                    f"SSC violated: component {idx} hull images overlap "
                    f"(gap {float(gap):.6g})")
            if best is None or gap < best:
                best = gap
    return float("inf") if best is None else best
