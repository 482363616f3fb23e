"""The arithmetic obstruction check that turns magnification dynamics into
digit-equidistribution statements.

A hidden multiplicative resonance between a contraction modulus |r| and the
base beta would allow the zoom flow to carry a nonzero eigenfrequency
k / log(beta): that requires |r|^q = beta^p for some integers.  Certifying
that some component's modulus admits no such relation removes every nonzero
frequency at once, and greedy digit statistics of the magnified measures
must then equidistribute.  The check below searches the components for an
independence witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..algebraics import (Dependent, IndependentCertified,
                          multiplicative_relation)
from ..beta_numeration import BetaBase
from ..model import Model


@dataclass(frozen=True)
class NormalityImplied:
    """Witness found: component `component`'s contraction modulus provably
    shares no power relation with the base; the witness's reason names the
    rung of the independence ladder that decided it."""
    component: int
    witness: IndependentCertified
    explanation: str


@dataclass(frozen=True)
class Inconclusive:
    """Every component modulus is multiplicatively tied to the base; the
    obstruction cannot be ruled out this way."""
    reason: str
    relations: Tuple[Tuple[int, Dependent], ...]


def spectrum_obstruction(model: Model, base: BetaBase):
    """Look for a component whose |ratio| is multiplicatively independent
    of beta.

    Any eigenfunction of the zoom flow at frequency k/log(beta), k != 0,
    forces 2*(k/log beta)*log|r_j| into the integers for every component j,
    i.e. a power relation |r_j|^q = beta^p.  One certified independent
    component therefore kills all nonzero frequencies, and the greedy
    digits in base beta of the magnified measures equidistribute.  Pisot
    bases only: the spectral argument needs the conjugates inside the unit
    circle.
    """
    if not base.pisot:
        raise ValueError("the obstruction argument requires a Pisot base; "
                         f"{base!r} is not one")
    beta = base.beta
    dependents = []
    for j, comp in enumerate(model.components):
        verdict = multiplicative_relation(abs(comp.ratio), beta)
        if isinstance(verdict, IndependentCertified):
            return NormalityImplied(
                j, verdict,
                f"component {j}: certified that no positive power of the "
                f"contraction modulus equals a rational power of the base "
                f"({verdict.reason}); a nonzero zoom-flow eigenfrequency "
                "would require exactly such a relation, so every "
                "non-atomic disintegrated measure has equidistributing "
                "greedy digits")
        dependents.append((j, verdict))
    return Inconclusive(
        "every component's contraction modulus satisfies a power relation "
        "with the base, so the frequency obstruction cannot be excluded",
        tuple(dependents))
