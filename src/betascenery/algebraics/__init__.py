"""Exact algebraic-number arithmetic: integer polynomials, certified root
isolation, number-field elements, interval reals, Pisot testing, and
multiplicative-relation detection."""

from .intpoly import IntPolynomial
from .roots import (
    ComplexRootDisk,
    RealRootInterval,
    RootIsolation,
    isolate_real_roots,
    refine_real_root,
)
from .algnum import (
    AlgebraicNumber,
    ExactScalar,
    FieldElement,
    NumberField,
    is_pisot,
    monic_scaled_field,
    named_constant,
    parse_scalar,
    scalar_to_str,
)
from .bigreal import BigReal
from .multiplicative import (
    Dependent,
    IndependentCertified,
    Verdict,
    multiplicative_relation,
)

__all__ = [
    "IntPolynomial",
    "RealRootInterval",
    "ComplexRootDisk",
    "RootIsolation",
    "isolate_real_roots",
    "refine_real_root",
    "AlgebraicNumber",
    "NumberField",
    "FieldElement",
    "ExactScalar",
    "is_pisot",
    "monic_scaled_field",
    "named_constant",
    "parse_scalar",
    "scalar_to_str",
    "BigReal",
    "Dependent",
    "IndependentCertified",
    "Verdict",
    "multiplicative_relation",
]
