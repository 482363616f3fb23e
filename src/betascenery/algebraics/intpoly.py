"""Integer-coefficient polynomials with exact evaluation.

Coefficients are stored lowest-degree first.  Arithmetic stays in exact
integers / Fractions; the one place outward rounding matters (evaluating over
an interval with rational endpoints) uses exact rational interval arithmetic,
so evaluation bounds are certificates, not estimates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Tuple

RatInterval = Tuple[Fraction, Fraction]

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*)?(?P<var1>x)(?:\s*(?:\^|\*\*)\s*(?P<exp1>\d+))?
          | (?P<var2>x)(?:\s*(?:\^|\*\*)\s*(?P<exp2>\d+))?
          | (?P<const>\d+)
        )\s*""",
    re.VERBOSE,
)


def _parse_poly_string(text: str) -> list[int]:
    """Parse forms like ``x^2 - x - 1`` or ``2*x**3 + 5`` into coefficients."""
    pos = 0
    coeffs: dict[int, int] = {}
    seen_any = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if seen_any and m.group("sign") == "":
            raise ValueError(f"missing +/- between terms in {text!r}")
        if m.group("const") is not None:
            c, e = int(m.group("const")), 0
        elif m.group("var2") is not None:
            c = 1
            e = int(m.group("exp2")) if m.group("exp2") else 1
        else:
            c = int(m.group("coeff"))
            e = int(m.group("exp1")) if m.group("exp1") else 1
        coeffs[e] = coeffs.get(e, 0) + sign * c
        pos = m.end()
        seen_any = True
    if not seen_any:
        raise ValueError("empty polynomial string")
    deg = max(coeffs)
    return [coeffs.get(k, 0) for k in range(deg + 1)]


def interval_add(a: RatInterval, b: RatInterval) -> RatInterval:
    return (a[0] + b[0], a[1] + b[1])


def interval_mul(a: RatInterval, b: RatInterval) -> RatInterval:
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


@dataclass(frozen=True)
class IntPolynomial:
    """Immutable integer polynomial, coefficients lowest-degree first."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (0,)
        object.__setattr__(self, "coeffs", cs)

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, source: "str | Iterable[int] | IntPolynomial") -> "IntPolynomial":
        if isinstance(source, IntPolynomial):
            return source
        if isinstance(source, str):
            return cls(tuple(_parse_poly_string(source)))
        return cls(tuple(int(c) for c in source))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g or 1

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; sign chosen so the leading coefficient > 0."""
        g = self.content()
        sgn = 1 if self.leading > 0 else -1
        return IntPolynomial(tuple(c * sgn // g for c in self.coeffs))

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def reciprocal(self) -> "IntPolynomial":
        """x^deg * p(1/x): the coefficient sequence reversed."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def compose_negate(self) -> "IntPolynomial":
        """p(-x)."""
        return IntPolynomial(tuple(c if k % 2 == 0 else -c
                                   for k, c in enumerate(self.coeffs)))

    def is_self_reciprocal(self) -> bool:
        """True iff p == ±(its reciprocal), i.e. roots closed under z -> 1/z."""
        rev = tuple(reversed(self.coeffs))
        return self.coeffs == rev or self.coeffs == tuple(-c for c in rev)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        v = self(Fraction(x))
        return (v > 0) - (v < 0)

    # -- interop -----------------------------------------------------------

    def to_sympy_dup(self):
        """Coefficient list in sympy's dense convention (highest first, ZZ)."""
        from sympy.polys.domains import ZZ
        return [ZZ(int(c)) for c in reversed(self.coeffs)]

    def to_sympy_expr(self, symbol):
        import sympy
        return sum(sympy.Integer(c) * symbol**k for k, c in enumerate(self.coeffs))

    def is_irreducible(self) -> bool:
        """Irreducibility over Q (content and unit factors ignored)."""
        if self.degree < 1:
            return False
        import sympy
        x = sympy.Symbol("x")
        _, factors = sympy.factor_list(self.to_sympy_expr(x), x)
        nontrivial = [(f, m) for f, m in factors if sympy.degree(f, x) > 0]
        return len(nontrivial) == 1 and nontrivial[0][1] == 1 and \
            sympy.degree(nontrivial[0][0], x) == self.degree

    def squarefree(self) -> bool:
        import sympy
        from sympy.polys.domains import ZZ
        from sympy.polys.densetools import dup_diff
        from sympy.polys.euclidtools import dup_gcd
        dup = self.to_sympy_dup()
        g = dup_gcd(dup, dup_diff(dup, 1, ZZ), ZZ)
        return len(g) <= 1

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0 and self.degree > 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
