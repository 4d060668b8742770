"""Lifting of Maurer-Cartan elements along abelian extensions.

Finite-dimensional graded differential Lie algebras are given by explicit
structure constants and validated eagerly: the differential squares to
zero, the bracket is antisymmetric in the graded sense, Jacobi holds, and
the differential is a bracket derivation.  This module is a trust anchor
for the geometric ones, so nothing here is probabilistic.

Conventions: elements carry an integer homological degree; for x, y of
degrees |x|, |y| the bracket satisfies [x,y] = -(-1)^{|x||y|}[y,x].  In
particular a degree-one element may have [x,x] != 0, which is what makes
the Maurer-Cartan equation d(x) + [x,x]/2 = 0 a real condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import NotMaurerCartan, SectionNotValued
from .laurent import Rational, exact

Vector = Tuple[Rational, ...]


def vec(n: int, entries: Mapping[int, object] = ()) -> Vector:
    out = [0] * n
    for i, c in dict(entries).items():
        out[i] = exact(c)
    return tuple(out)


def add(a: Vector, b: Vector) -> Vector:
    return tuple(x if not y else y if not x else x + y for x, y in zip(a, b))


def sub(a: Vector, b: Vector) -> Vector:
    return tuple(x if not y else -y if not x else x - y for x, y in zip(a, b))


def scale(a: Vector, c) -> Vector:
    c = exact(c)
    if c == 1:
        return a
    return tuple(x * c if x else x for x in a)


def is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass
class GradedDgLie:
    """Graded dg Lie algebra with explicit rational structure constants.

    ``d[i][j]`` is the coefficient of basis i in d(basis j); ``brackets``
    maps an index pair (i, j) to the sparse expansion of [b_i, b_j].
    Missing pairs mean zero bracket.  All axioms are checked exactly at
    construction.  ``apply_d`` and ``bracket`` run on sparse views built
    once from the cleaned constants, so a zero coordinate or structure
    constant costs no product; the basis vectors are built once too.
    Constants are cleaned by ``laurent.exact``, so integral ones are ``int``s.
    """

    degrees: Tuple[int, ...]
    d: Tuple[Tuple[Rational, ...], ...]
    brackets: Dict[Tuple[int, int], Dict[int, Rational]]

    def __post_init__(self):
        n = len(self.degrees)
        self.d = tuple(tuple(exact(x) for x in row) for row in self.d)
        if len(self.d) != n or any(len(row) != n for row in self.d):
            raise ValueError("differential matrix must be square of the basis size")
        clean: Dict[Tuple[int, int], Dict[int, Rational]] = {}
        for (i, j), expansion in self.brackets.items():
            entry = {k: exact(c) for k, c in expansion.items() if exact(c)}
            if entry:
                clean[(i, j)] = entry
        self.brackets = clean
        # sparse views: the nonzero d entries of each column, brackets by first slot
        self._d_columns = tuple(
            tuple((i, self.d[i][j]) for i in range(n) if self.d[i][j] != 0) for j in range(n)
        )
        by_first: Dict[int, List[Tuple[int, Tuple[Tuple[int, Rational], ...]]]] = {}
        for (i, j), expansion in clean.items():
            by_first.setdefault(i, []).append((j, tuple(expansion.items())))
        self._by_first = by_first
        self._basis = tuple(vec(n, {i: 1}) for i in range(n))
        self._validate()

    # -- linear maps -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.degrees)

    def basis(self, i: int) -> Vector:
        return self._basis[i]

    def apply_d(self, v: Vector) -> Vector:
        out = [0] * self.n
        for j, x in enumerate(v):
            if x:
                for i, c in self._d_columns[j]:
                    out[i] += c * x
        return tuple(out)

    def bracket(self, v: Vector, w: Vector) -> Vector:
        out = [0] * self.n
        for i, x in enumerate(v):
            if not x:
                continue
            for j, expansion in self._by_first.get(i, ()):
                y = w[j]
                if not y:
                    continue
                c = x * y
                for k, coeff in expansion:
                    out[k] += c * coeff
        return tuple(out)

    def is_homogeneous(self, v: Vector, deg: int) -> bool:
        return all(x == 0 or self.degrees[i] == deg for i, x in enumerate(v))

    # -- validation -------------------------------------------------------

    def _validate(self):
        n = self.n
        # d raises degree by one
        for j in range(n):
            for i in range(n):
                if self.d[i][j] != 0 and self.degrees[i] != self.degrees[j] + 1:
                    raise ValueError(
                        f"d sends degree {self.degrees[j]} basis {j} to degree "
                        f"{self.degrees[i]} basis {i}"
                    )
        # d squared
        for j in range(n):
            ddj = self.apply_d(self.apply_d(self.basis(j)))
            if not is_zero(ddj):
                raise ValueError(f"d^2 != 0 on basis element {j}")
        # bracket grading and graded antisymmetry
        for (i, j), expansion in self.brackets.items():
            for k, c in expansion.items():
                if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                    raise ValueError(f"bracket [{i},{j}] is not degree-additive")
        for i in range(n):
            for j in range(n):
                lhs = self.bracket(self.basis(i), self.basis(j))
                sign = (-1) ** (self.degrees[i] * self.degrees[j])
                rhs = scale(self.bracket(self.basis(j), self.basis(i)), -sign)
                if lhs != rhs:
                    raise ValueError(f"bracket not graded-antisymmetric on ({i},{j})")
        # graded Jacobi: (-1)^{|x||z|}[x,[y,z]] + cyclic = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    di, dj, dk = self.degrees[i], self.degrees[j], self.degrees[k]
                    t1 = scale(
                        self.bracket(self.basis(i), self.bracket(self.basis(j), self.basis(k))),
                        (-1) ** (di * dk),
                    )
                    t2 = scale(
                        self.bracket(self.basis(j), self.bracket(self.basis(k), self.basis(i))),
                        (-1) ** (dj * di),
                    )
                    t3 = scale(
                        self.bracket(self.basis(k), self.bracket(self.basis(i), self.basis(j))),
                        (-1) ** (dk * dj),
                    )
                    if not is_zero(add(add(t1, t2), t3)):
                        raise ValueError(f"Jacobi fails on ({i},{j},{k})")
        # d is a derivation of the bracket
        for i in range(n):
            for j in range(n):
                lhs = self.apply_d(self.bracket(self.basis(i), self.basis(j)))
                rhs = add(
                    self.bracket(self.apply_d(self.basis(i)), self.basis(j)),
                    scale(
                        self.bracket(self.basis(i), self.apply_d(self.basis(j))),
                        (-1) ** self.degrees[i],
                    ),
                )
                if lhs != rhs:
                    raise ValueError(f"d is not a bracket derivation on ({i},{j})")


def is_mc(algebra: GradedDgLie, phi: Vector) -> Tuple[bool, Vector]:
    """Evaluate d(phi) + [phi,phi]/2 exactly; the witness is the residual."""
    if not algebra.is_homogeneous(phi, 1):
        raise NotMaurerCartan("candidate element is not concentrated in degree 1")
    resid = add(algebra.apply_d(phi), scale(algebra.bracket(phi, phi), Fraction(1, 2)))
    return is_zero(resid), resid


@dataclass
class AbelianExtension:
    """Ambient algebra with a distinguished abelian dg ideal and a section.

    ``kernel`` lists the basis indices spanning the ideal.  The quotient
    is realized on the complementary indices; ``section`` maps each
    quotient basis element to an ambient vector projecting back onto it
    (default: the coordinate inclusion).
    """

    ambient: GradedDgLie
    kernel: Tuple[int, ...]
    section: Optional[Dict[int, Vector]] = None
    quotient: GradedDgLie = field(init=False)
    quotient_basis: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        amb = self.ambient
        kernel = tuple(sorted(set(self.kernel)))
        if any(i < 0 or i >= amb.n for i in kernel):
            raise ValueError("kernel index out of range")
        self.kernel = kernel
        kset = set(kernel)
        self.quotient_basis = tuple(i for i in range(amb.n) if i not in kset)

        # the ideal must be d-stable, a Lie ideal, and abelian
        for j in kernel:
            dj = amb.apply_d(amb.basis(j))
            if any(dj[i] != 0 for i in self.quotient_basis):
                raise ValueError("kernel is not stable under the differential")
        for i in range(amb.n):
            for j in kernel:
                br = amb.bracket(amb.basis(i), amb.basis(j))
                if any(br[t] != 0 for t in self.quotient_basis):
                    raise ValueError("kernel is not an ideal")
        for i in kernel:
            for j in kernel:
                if not is_zero(amb.bracket(amb.basis(i), amb.basis(j))):
                    raise ValueError("kernel is not abelian")

        if self.section is None:
            self.section = {i: amb.basis(i) for i in self.quotient_basis}
        else:
            self.section = {i: tuple(exact(x) for x in v) for i, v in self.section.items()}
            for i in self.quotient_basis:
                sv = self.section.get(i)
                if sv is None:
                    raise ValueError(f"section misses quotient basis element {i}")
                # right inverse of the projection
                for j in self.quotient_basis:
                    expect = 1 if j == i else 0
                    if sv[j] != expect:
                        raise SectionNotValued(
                            "section is not a right inverse of the projection"
                        )

        self.quotient = self._build_quotient()

    def _build_quotient(self) -> GradedDgLie:
        amb = self.ambient
        qb = self.quotient_basis
        pos = {i: a for a, i in enumerate(qb)}
        degrees = tuple(amb.degrees[i] for i in qb)
        d = [
            [amb.d[i][j] for j in qb]
            for i in qb
        ]
        brackets: Dict[Tuple[int, int], Dict[int, Rational]] = {}
        for a, i in enumerate(qb):
            for b, j in enumerate(qb):
                br = amb.bracket(amb.basis(i), amb.basis(j))
                entry = {pos[t]: br[t] for t in qb if br[t] != 0}
                if entry:
                    brackets[(a, b)] = entry
        return GradedDgLie(degrees, tuple(tuple(row) for row in d), brackets)

    # -- maps between the three layers -----------------------------------

    def include_quotient(self, v: Vector) -> Vector:
        """Apply the section to a quotient vector."""
        out = [0] * self.ambient.n
        for a, i in enumerate(self.quotient_basis):
            c = v[a]
            if c == 0:
                continue
            for t, x in enumerate(self.section[i]):
                if x:
                    out[t] += c * x
        return tuple(out)

    def kernel_component(self, v: Vector) -> Vector:
        """Check a vector is kernel-valued and return it unchanged."""
        if any(v[i] != 0 for i in self.quotient_basis):
            raise SectionNotValued("value does not lie in the extension kernel")
        return v


def defects(ext: AbelianExtension):
    """The degree-1 and degree-0 failure maps of the section.

    Returns callables (delta1, delta2): delta1(x) = (d s - s d)(x) and
    delta2(x, y) = [s x, s y] - s [x, y], both kernel-valued.
    """
    amb, quo = ext.ambient, ext.quotient

    def delta1(x: Vector) -> Vector:
        val = sub(
            amb.apply_d(ext.include_quotient(x)),
            ext.include_quotient(quo.apply_d(x)),
        )
        return ext.kernel_component(val)

    def delta2(x: Vector, y: Vector) -> Vector:
        val = sub(
            amb.bracket(ext.include_quotient(x), ext.include_quotient(y)),
            ext.include_quotient(quo.bracket(x, y)),
        )
        return ext.kernel_component(val)

    return delta1, delta2


def lift_residual(ext: AbelianExtension, phi: Vector, alpha: Vector) -> Vector:
    """Residual of the lift equation for s(phi) + alpha.

    Zero exactly when s(phi) + alpha satisfies Maurer-Cartan upstairs.
    ``phi`` is a Maurer-Cartan element of the quotient; ``alpha`` an
    ambient degree-1 vector supported on the kernel.
    """
    ok, witness = is_mc(ext.quotient, phi)
    if not ok:
        raise NotMaurerCartan(f"base element fails Maurer-Cartan with residual {witness}")
    amb = ext.ambient
    ext.kernel_component(alpha)
    if not amb.is_homogeneous(alpha, 1):
        raise NotMaurerCartan("kernel correction is not concentrated in degree 1")
    delta1, delta2 = defects(ext)
    twisted = add(amb.apply_d(alpha), amb.bracket(ext.include_quotient(phi), alpha))
    return add(
        add(twisted, delta1(phi)),
        scale(delta2(phi, phi), Fraction(1, 2)),
    )
