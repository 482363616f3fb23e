"""The orientation-extended Markov chain driving the magnification dynamics.

States are (component, inner-map) pairs; when some component contracts with a
negative ratio, an orientation bit rides along and flips exactly when the
current component reverses.  All transition and stationary data are exact
rationals, verified by exact linear algebra at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from ..model import Model


@dataclass(frozen=True)
class ExtendedChain:
    """Exact finite Markov chain over (component, inner map[, orientation]).

    matrix[s][t] is the exact transition probability; stationary is the
    exact invariant row vector; roofs[s] is the magnification time spent in
    state s, -log|ratio of the state's component|.
    """
    states: Tuple[tuple, ...]
    matrix: Tuple[Tuple[Fraction, ...], ...]
    stationary: Tuple[Fraction, ...]
    roofs: Tuple[float, ...]
    has_orientation: bool
    diameter: int

    @property
    def size(self) -> int:
        return len(self.states)

    def verify_stationary(self) -> bool:
        """Exact check that pi P = pi and pi sums to 1."""
        n = self.size
        if sum(self.stationary) != 1:
            return False
        for col in range(n):
            acc = Fraction(0)
            for row in range(n):
                acc += self.stationary[row] * self.matrix[row][col]
            if acc != self.stationary[col]:
                return False
        return True

    def expected_roof(self) -> float:
        return float(sum(float(p) * r
                         for p, r in zip(self.stationary, self.roofs)))

    def length_biased_weights(self) -> np.ndarray:
        """Stationary law reweighted by the roof (the time a magnification
        trajectory actually spends in each state), normalized."""
        w = np.array([float(p) * r
                      for p, r in zip(self.stationary, self.roofs)])
        return w / w.sum()


def build_extended_chain(model: Model) -> ExtendedChain:
    """Construct the exact chain for a model.

    With every ratio positive the states are (i, u) and the chain is the
    i.i.d. product of the selection and inner weights.  With a reflecting
    component, states carry an orientation bit a that the transition flips
    exactly when leaving a reversing state; the stationary law puts mass
    (1/2) q_i w_u on each (i, u, a).
    """
    comps = model.components
    q = model.selection
    oriented = any(c.reflects for c in comps)

    states: List[tuple] = []
    if oriented:
        for a in (0, 1):
            for i, c in enumerate(comps):
                for u in range(c.size):
                    states.append((i, u, a))
    else:
        for i, c in enumerate(comps):
            for u in range(c.size):
                states.append((i, u))

    n = len(states)
    matrix: List[Tuple[Fraction, ...]] = []
    for src in states:
        flip = comps[src[0]].reflects
        row = []
        for tgt in states:
            if oriented:
                allowed = (tgt[2] != src[2]) if flip else (tgt[2] == src[2])
            else:
                allowed = True
            row.append(q[tgt[0]] * comps[tgt[0]].weights[tgt[1]]
                       if allowed else Fraction(0))
        matrix.append(tuple(row))

    if oriented:
        stationary = tuple(Fraction(1, 2) * q[s[0]] * comps[s[0]].weights[s[1]]
                           for s in states)
    else:
        stationary = tuple(q[s[0]] * comps[s[0]].weights[s[1]]
                           for s in states)

    roofs = tuple(float(model.roofs[s[0]]) for s in states)

    # reachability: BFS from every state through positive entries
    adj = [[c for c in range(n) if matrix[r][c] > 0] for r in range(n)]
    diameter = 0
    for start in range(n):
        dist = [-1] * n
        dist[start] = 0
        queue = [start]
        while queue:
            nxt = []
            for v in queue:
                for w in adj[v]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            queue = nxt
        if min(dist) < 0:
            raise ValueError("chain is reducible; the model construction "
                             "violated its own guarantees")
        diameter = max(diameter, max(dist))

    chain = ExtendedChain(tuple(states), tuple(matrix), stationary, roofs,
                          oriented, diameter)
    if not chain.verify_stationary():
        raise ValueError("stationary vector failed the exact check")
    return chain
