"""Exact multivariate Laurent polynomials over the rationals.

A polynomial is a map from integer exponent vectors to nonzero rational
coefficients, tagged with an ordered tuple of variable names.  All
arithmetic is exact; nothing in this package touches floating point.

The canonical term order is graded lexicographic (total degree first,
ties broken on the exponent tuple), used for serialization and for every
choice of basis downstream, so results are byte-stable across runs.

One exact-number rule holds wherever the engine stores a coefficient: an
integral rational is a Python ``int`` and any other rational is a
``Fraction``.  ``exact`` applies the rule to a value from outside;
``int`` arithmetic pays no ``gcd``, and almost every coefficient the
engine meets is integral.  Sums, differences and
products of ``int``s and ``Fraction``s stay exact, but ``int / int`` is
a float, so each true division in the package keeps a ``Fraction``
operand: ``Fraction(1) / c`` in ``LaurentPoly.inverse_monomial`` and
``1 / Fraction(head)`` in ``linsolve._rref`` are the only two.

A polynomial is made in one of three ways.  ``LaurentPoly.__init__``
takes data from outside (parsing, the public constructors, a monomial's
inverse): it rebuilds every exponent vector as a tuple of ``int``s,
checks its length, cleans every coefficient with ``exact`` and drops the
zeros.  Arithmetic on the same ring builds a fresh dict from such
polynomials, whose keys are already right and whose zeros are already
dropped, and hands it to one of two private wrappers.  ``_of`` applies
the rule's integral-``Fraction`` step to every value, since a product of
``Fraction``s can be integral: products (``*``, ``diff``,
``filtered.ChartRing.mul``, ``filtered.Substitution`` and
``filtered.PairDerivation.apply``) use it.  ``_wrap`` applies nothing:
sums (``+``, ``-``, ``add_scaled``) apply the step to each value they
change as they write it, and ``-p`` and the grouped truncations only
negate or copy values that already follow the rule.  An operand that is
neither a polynomial nor an ``int`` or ``Fraction``, such as a float, is
refused: ``+``, ``-`` and ``*`` return ``NotImplemented``, so Python
raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import NonInvertibleSubstitution, ParseError

Exponent = Tuple[int, ...]
Rational = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def exact(value) -> Rational:
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``.

    Anything but an ``int`` is coerced through ``as_fraction``, so floats
    and bad literals raise as they do there.
    """
    if type(value) is int:
        return value
    c = as_fraction(value)
    return c.numerator if c.denominator == 1 else c


def format_fraction(c: Rational) -> str:
    return str(c)


def grlex_key(exps: Exponent) -> Tuple[int, Exponent]:
    return (sum(exps), exps)


class LaurentPoly:
    """Sparse exact Laurent polynomial.

    Instances are treated as immutable: every operation returns a new
    polynomial and nothing mutates ``terms`` after construction.  Zero
    coefficients are never stored; the zero polynomial has no terms.
    Exponents are read with ``operator.index``, so a non-integral one such
    as 1.5 raises ``TypeError`` instead of being truncated.

    ``_degree_rows`` is a private cache owned by ``filtered._degree_rows``,
    which documents its layout.  It is derived from ``terms`` alone, so
    sharing it is safe because instances are immutable.
    """

    __slots__ = ("vars", "terms", "_degree_rows")

    def __init__(self, vars: Sequence[str], terms: Optional[Mapping[Exponent, object]] = None):
        self.vars: Tuple[str, ...] = tuple(vars)
        n = len(self.vars)
        clean: Dict[Exponent, Rational] = {}
        if terms:
            for exps, coeff in terms.items():
                c = exact(coeff)
                # a zero term's exponent is read too, so it is refused as a nonzero one's is
                e = tuple(map(index, exps))
                if len(e) != n:
                    raise ValueError(f"exponent vector {e} has wrong length for {self.vars}")
                if c:
                    clean[e] = c
        self.terms = clean
        self._degree_rows = None

    @classmethod
    def _of(cls, vars: Tuple[str, ...], terms: Dict[Exponent, Rational]) -> "LaurentPoly":
        """Wrap ``terms`` that a product on the ring ``vars`` has just built.

        The caller hands over a fresh dict of nonzero coefficients whose keys
        are exponent tuples of the ring's length, so nothing is rebuilt or
        checked; only the exact-number rule is applied, since a product of
        ``Fraction``s can be integral.
        """
        for e, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[e] = c.numerator
        poly = object.__new__(cls)
        poly.vars = vars
        poly.terms = terms
        poly._degree_rows = None
        return poly

    @classmethod
    def _wrap(cls, vars: Tuple[str, ...], terms: Dict[Exponent, Rational]) -> "LaurentPoly":
        """Wrap a fresh dict of ``terms`` on the ring ``vars`` that already follows the rule."""
        poly = object.__new__(cls)
        poly.vars = vars
        poly.terms = terms
        poly._degree_rows = None
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "LaurentPoly":
        return cls(vars)

    @classmethod
    def const(cls, vars: Sequence[str], c) -> "LaurentPoly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "LaurentPoly":
        vars = tuple(vars)
        idx = vars.index(name)
        e = [0] * len(vars)
        e[idx] = 1
        return cls(vars, {tuple(e): 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(vars, {tuple(exps): coeff})

    # -- predicates and access ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def sorted_terms(self) -> List[Tuple[Exponent, Rational]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- arithmetic ----------------------------------------------------

    def _check_same_ring(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.vars, other)
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if not s:
                out.pop(e, None)
            else:
                out[e] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        return LaurentPoly._wrap(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._wrap(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.vars, other)
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if not s:
                out.pop(e, None)
            else:
                out[e] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        return LaurentPoly._wrap(self.vars, out)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return LaurentPoly.const(self.vars, other) - self

    def add_scaled(self, other: "LaurentPoly", c: Rational) -> "LaurentPoly":
        """``self + other * c`` in one pass (an axpy), for an ``int`` or ``Fraction`` ``c``.

        The terms come in the order of the two-step sum; a ``c`` of 1
        multiplies nothing.
        """
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot scale by {c!r}: not an exact rational")
        self._check_same_ring(other)
        out = dict(self.terms)
        one = c == 1
        for e, d in other.terms.items():
            s = out.get(e, 0) + (d if one else d * c)
            if not s:
                out.pop(e, None)
            else:
                out[e] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        return LaurentPoly._wrap(self.vars, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly._of(self.vars, {e: cc * other for e, cc in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_ring(other)
        out: Dict[Exponent, Rational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if not s:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly._of(self.vars, out)

    __rmul__ = __mul__

    def inverse_monomial(self) -> "LaurentPoly":
        """Invert a single-term polynomial; anything else has no Laurent inverse."""
        if len(self.terms) != 1:
            raise NonInvertibleSubstitution(
                f"{self} is not a unit monomial and cannot be inverted"
            )
        ((e, c),) = self.terms.items()
        return LaurentPoly(self.vars, {tuple(-x for x in e): Fraction(1) / c})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality is structural

    # -- calculus ------------------------------------------------------

    def diff(self, name: str) -> "LaurentPoly":
        idx = self.vars.index(name)
        out: Dict[Exponent, Rational] = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            e2 = list(e)
            e2[idx] = k - 1
            e2 = tuple(e2)
            s = out.get(e2, 0) + c * k
            if not s:
                out.pop(e2, None)
            else:
                out[e2] = s
        return LaurentPoly._of(self.vars, out)

    # -- grouped-degree utilities (used by truncated rings) -------------

    def truncate_group(self, start: int, max_deg: int) -> "LaurentPoly":
        """Drop terms whose total degree in the variables from ``start`` on exceeds max_deg."""
        kept = {e: c for e, c in self.terms.items() if sum(e[start:]) <= max_deg}
        if len(kept) == len(self.terms):
            return self
        return LaurentPoly._wrap(self.vars, kept)

    def part_group(self, start: int, deg: int) -> "LaurentPoly":
        """The slice of terms of exact total degree ``deg`` in the variables from ``start`` on."""
        return LaurentPoly._wrap(
            self.vars, {e: c for e, c in self.terms.items() if sum(e[start:]) == deg}
        )

    def min_group_degree(self, start: int) -> Optional[int]:
        """The least total degree of a term in the variables from ``start`` on; None for zero."""
        if not self.terms:
            return None
        return min(sum(e[start:]) for e in self.terms)

    # -- serialization ---------------------------------------------------

    def to_json_terms(self) -> List[List[object]]:
        return [[list(e), format_fraction(c)] for e, c in self.sorted_terms()]

    @classmethod
    def from_json_terms(cls, vars: Sequence[str], data: Iterable) -> "LaurentPoly":
        terms: Dict[Exponent, Rational] = {}
        for item in data:
            try:
                exps, coeff = item
                e = tuple(map(index, exps))
                c = as_fraction(coeff)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"malformed polynomial term {item!r}") from exc
            if len(e) != len(tuple(vars)):
                raise ParseError(
                    f"exponent vector {list(e)} has length {len(e)}, expected {len(tuple(vars))}"
                )
            if e in terms:
                raise ParseError(f"duplicate exponent vector {list(e)}")
            terms[e] = c
        return cls(vars, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.vars, e):
                if k == 0:
                    continue
                factors.append(name if k == 1 else f"{name}^{k}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self.vars!r}, {dict(self.sorted_terms())!r})"


def monomial_window(bounds: Sequence[Tuple[int, int]]) -> List[Exponent]:
    """All exponent vectors in a per-variable box, in canonical graded-lex order.

    ``bounds`` lists an inclusive (min, max) per variable; the result has
    size prod(max - min + 1).
    """
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError(f"empty window bound ({lo}, {hi})")
    vectors: List[Exponent] = [()]
    for lo, hi in bounds:
        vectors = [v + (k,) for v in vectors for k in range(lo, hi + 1)]
    vectors.sort(key=grlex_key)
    return vectors
