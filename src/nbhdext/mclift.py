"""Lifting of Maurer-Cartan elements along abelian extensions.

Finite-dimensional graded differential Lie algebras are given by explicit
structure constants and validated eagerly: the differential squares to
zero, the bracket is antisymmetric in the graded sense, Jacobi holds, and
the differential is a bracket derivation.  This module is a trust anchor
for the geometric ones, so nothing here is probabilistic.  The axioms are
checked on the structure constants themselves: an identity on basis
elements can fail only where a constant it reads is nonzero, so only the
index pairs and triples with a nonzero bracket or d entry are visited, in
sorted order, and the first failure is the one a check of every pair and
triple would find.

Conventions: elements carry an integer homological degree; for x, y of
degrees |x|, |y| the bracket satisfies [x,y] = -(-1)^{|x||y|}[y,x].  In
particular a degree-one element may have [x,x] != 0, which is what makes
the Maurer-Cartan equation d(x) + [x,x]/2 = 0 a real condition.

The Maurer-Cartan residual of a degree-one v is a quadratic form in its
coordinates.  Degree-one basis elements have [b_i, b_j] = [b_j, b_i], so
2 d(v) + [v,v] = sum_i v_i 2 d(b_i) + sum_{i <= j} v_i v_j c_ij [b_i, b_j]
with c_ii = 1 and c_ij = 2 off the diagonal.  ``GradedDgLie.mc_residual``
reads those constants from a table built once per algebra, visits only
nonzero coordinates and unordered pairs, and halves the sum once.

For an abelian extension the lift equation is affine in the kernel
correction alpha: R(phi, alpha) = o(phi) + d_{s phi} alpha, where the
obstruction o(phi) = (ds - sd)(phi) + ([s phi, s phi] - s[phi, phi])/2
and d_{s phi} = d + [s phi, -] (Goldman and Millson 1988).  Collecting
terms, o(phi) = MC(s phi) - s(MC(phi)), and phi is Maurer-Cartan, so
o(phi) is the ambient residual of s(phi); this needs s to keep degrees,
which ``AbelianExtension`` checks.  ``lift_residual`` builds the parts
that depend on phi alone once per base element.

Every vector coefficient follows the exact-number rule of ``laurent``: an
integral one is an ``int``, any other a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .errors import NotMaurerCartan, SectionNotValued
from .laurent import Rational, exact

Vector = Tuple[Rational, ...]

_HALF = Fraction(1, 2)


def _in_basis(i, n: int) -> bool:
    return type(i) is int and 0 <= i < n


def _sign(e: int) -> int:
    """(-1)^e as an ``int``; ``(-1) ** e`` is a float for negative e."""
    return -1 if e % 2 else 1


def _check_length(v: Vector, n: int) -> None:
    if len(v) != n:
        raise ValueError(f"vector of length {len(v)} on a basis of size {n}")


def _exact_vector(out: List[Rational]) -> Vector:
    """``out`` as a vector, each integral ``Fraction`` in it replaced by its ``int``."""
    if Fraction in map(type, out):
        for i, x in enumerate(out):
            if type(x) is Fraction and x.denominator == 1:
                out[i] = x.numerator
    return tuple(out)


def vec(n: int, entries: Mapping[int, object] = ()) -> Vector:
    out = [0] * n
    for i, c in dict(entries).items():
        if not _in_basis(i, n):
            raise ValueError(f"index {i!r} is outside a basis of size {n}")
        out[i] = exact(c)
    return tuple(out)


def add(a: Vector, b: Vector) -> Vector:
    return _exact_vector([x if not y else y if not x else x + y for x, y in zip(a, b)])


def sub(a: Vector, b: Vector) -> Vector:
    return _exact_vector([x if not y else -y if not x else x - y for x, y in zip(a, b)])


def scale(a: Vector, c) -> Vector:
    c = exact(c)
    if c == 1:
        return a
    return _exact_vector([x * c if x else x for x in a])


def _half(a: Vector) -> Vector:
    """``scale(a, 1/2)``, with an even ``int`` halved by a shift and no ``Fraction`` built."""
    return _exact_vector([x >> 1 if type(x) is int and not x & 1 else x * _HALF for x in a])


def is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass
class GradedDgLie:
    """Graded dg Lie algebra with explicit rational structure constants.

    ``d[i][j]`` is the coefficient of basis i in d(basis j); ``brackets``
    maps an index pair (i, j) to the sparse expansion of [b_i, b_j].
    Missing pairs mean zero bracket, and every index must lie in the
    basis.  Each degree is an ``int``, since the signs are read off it.  All axioms are checked exactly at construction, on the
    cleaned constants.  ``apply_d``, ``bracket`` and ``mc_residual`` run
    on sparse views built once from them, so a zero coordinate or
    structure constant costs no product.  Constants are cleaned by
    ``laurent.exact``, so integral ones are ``int``s.
    """

    degrees: Tuple[int, ...]
    d: Tuple[Tuple[Rational, ...], ...]
    brackets: Dict[Tuple[int, int], Dict[int, Rational]]

    def __post_init__(self):
        n = len(self.degrees)
        for i, deg in enumerate(self.degrees):
            if type(deg) is not int:
                raise ValueError(f"degree {deg!r} of basis element {i} is not an int")
        for (i, j), expansion in self.brackets.items():
            if not (_in_basis(i, n) and _in_basis(j, n) and all(_in_basis(k, n) for k in expansion)):
                raise ValueError(f"bracket [{i},{j}] names an index outside a basis of size {n}")
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
        self._off_degree = {
            deg: tuple(i for i, e in enumerate(self.degrees) if e != deg)
            for deg in set(self.degrees)
        }
        self._validate()
        # the Maurer-Cartan quadratic form on each degree-1 index i: 2 d(b_i),
        # and [b_i, b_j] for degree-1 j >= i, doubled off the diagonal; graded
        # antisymmetry, checked above, makes [b_j, b_i] = [b_i, b_j]
        table: List[Tuple[tuple, tuple]] = [((), ())] * n
        for i in range(n):
            if self.degrees[i] != 1:
                continue
            pairs = tuple(
                (j, expansion if j == i else tuple((k, exact(2 * c)) for k, c in expansion))
                for j, expansion in by_first.get(i, ())
                if j >= i and self.degrees[j] == 1
            )
            table[i] = (tuple((k, exact(2 * c)) for k, c in self._d_columns[i]), pairs)
        self._mc_table = tuple(table)

    # -- linear maps -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.degrees)

    def basis(self, i: int) -> Vector:
        return vec(self.n, {i: 1})

    def apply_d(self, v: Vector) -> Vector:
        n = self.n
        _check_length(v, n)
        out = [0] * n
        for j, x in enumerate(v):
            if x:
                for i, c in self._d_columns[j]:
                    out[i] += c * x
        return _exact_vector(out)

    def bracket(self, v: Vector, w: Vector) -> Vector:
        n = self.n
        _check_length(v, n)
        _check_length(w, n)
        out = [0] * n
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
        return _exact_vector(out)

    def is_homogeneous(self, v: Vector, deg: int) -> bool:
        _check_length(v, self.n)
        return not any(v[i] for i in self._off_degree.get(deg, range(self.n)))

    def mc_residual(self, v: Vector) -> Vector:
        """d(v) + [v,v]/2 of a degree-1 v, summed through the quadratic-form table.

        Each nonzero coordinate is cleaned by ``laurent.exact``, so a float
        one is refused with ``TypeError`` before the sum is returned.
        """
        if not self.is_homogeneous(v, 1):
            raise NotMaurerCartan("candidate element is not concentrated in degree 1")
        out = [0] * self.n
        table = self._mc_table
        for i, x in enumerate(v):
            if not x:
                continue
            if type(x) is not int:
                x = exact(x)
            column, pairs = table[i]
            for k, c in column:
                out[k] += c * x
            for j, expansion in pairs:
                y = v[j]
                if not y:
                    continue
                c = x * y
                for k, e in expansion:
                    out[k] += c * e
        return _half(out)

    # -- validation -------------------------------------------------------

    def _validate(self):
        """Check the axioms on the constants, visiting only what can fail.

        Each identity below is a sum of products of constants; where every
        product has a zero factor it holds, so only the pairs and triples
        with a nonzero bracket or d entry are candidates.  They are visited
        in sorted order, so the first failure and its message are those of
        a check of every pair and triple.
        """
        n, deg, br, cols = self.n, self.degrees, self.brackets, self._d_columns
        # d raises degree by one
        for j, column in enumerate(cols):
            for i, _ in column:
                if deg[i] != deg[j] + 1:
                    raise ValueError(
                        f"d sends degree {deg[j]} basis {j} to degree {deg[i]} basis {i}"
                    )
        # d squared
        for j, column in enumerate(cols):
            dd: Dict[int, Rational] = {}
            for i, c in column:
                for k, e in cols[i]:
                    dd[k] = dd.get(k, 0) + e * c
            if any(dd.values()):
                raise ValueError(f"d^2 != 0 on basis element {j}")
        # bracket grading and graded antisymmetry
        for (i, j), expansion in br.items():
            for k in expansion:
                if deg[k] != deg[i] + deg[j]:
                    raise ValueError(f"bracket [{i},{j}] is not degree-additive")
        for i, j in sorted(set(br) | {(j, i) for i, j in br}):
            sign = -_sign(deg[i] * deg[j])
            if br.get((i, j), {}) != {k: sign * c for k, c in br.get((j, i), {}).items()}:
                raise ValueError(f"bracket not graded-antisymmetric on ({i},{j})")
        # graded Jacobi: (-1)^{|x||z|}[x,[y,z]] + cyclic = 0, which reads a
        # nonzero [b_j,b_k], [b_k,b_i] or [b_i,b_j]
        triples = set()
        for a, b in br:
            for c in range(n):
                triples.update(((c, a, b), (b, c, a), (a, b, c)))
        for i, j, k in sorted(triples):
            total: Dict[int, Rational] = {}
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                sign = _sign(deg[x] * deg[z])
                for t, c in br.get((y, z), {}).items():
                    for u, e in br.get((x, t), {}).items():
                        total[u] = total.get(u, 0) + sign * c * e
            if any(total.values()):
                raise ValueError(f"Jacobi fails on ({i},{j},{k})")
        # d is a derivation of the bracket: d[b_i,b_j] = [d b_i, b_j] + (-1)^{|i|}[b_i, d b_j],
        # which reads a nonzero [b_i,b_j], d b_i or d b_j
        moved = [j for j in range(n) if cols[j]]
        pairs = set(br)
        for m in moved:
            pairs.update((m, j) for j in range(n))
            pairs.update((i, m) for i in range(n))
        for i, j in sorted(pairs):
            total = {}
            for t, c in br.get((i, j), {}).items():
                for u, e in cols[t]:
                    total[u] = total.get(u, 0) + e * c
            for s, c in cols[i]:
                for u, e in br.get((s, j), {}).items():
                    total[u] = total.get(u, 0) - c * e
            sign = _sign(deg[i])
            for s, c in cols[j]:
                for u, e in br.get((i, s), {}).items():
                    total[u] = total.get(u, 0) - sign * c * e
            if any(total.values()):
                raise ValueError(f"d is not a bracket derivation on ({i},{j})")


def is_mc(algebra: GradedDgLie, phi: Vector) -> Tuple[bool, Vector]:
    """Evaluate d(phi) + [phi,phi]/2 exactly; the witness is the residual."""
    resid = algebra.mc_residual(phi)
    return is_zero(resid), resid


class _LiftBase(NamedTuple):
    """What the lift equation needs of one Maurer-Cartan base element phi."""

    phi: tuple
    s_phi: Vector
    # o(phi) = delta1(phi) + delta2(phi, phi)/2 = MC(s phi)
    obstruction: Vector
    # the nonzero entries of d_{s phi} on each degree-1 kernel basis element, built on demand
    columns: Dict[int, Tuple[Tuple[int, Rational], ...]]


@dataclass
class AbelianExtension:
    """Ambient algebra with a distinguished abelian dg ideal and a section.

    ``kernel`` lists the basis indices spanning the ideal.  The quotient
    is realized on the complementary indices; ``section`` maps each
    quotient basis element, and nothing else, to an ambient vector of its
    degree projecting back onto it (default: the coordinate inclusion).
    The ideal conditions are checked on the ambient structure constants.
    """

    ambient: GradedDgLie
    kernel: Tuple[int, ...]
    section: Optional[Dict[int, Vector]] = None
    quotient: GradedDgLie = field(init=False)
    quotient_basis: Tuple[int, ...] = field(init=False)
    # the parts of the last base element lift_residual was given
    _lift_memo: Optional[_LiftBase] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        amb = self.ambient
        if not all(_in_basis(i, amb.n) for i in self.kernel):
            raise ValueError("kernel index out of range")
        kernel = tuple(sorted(set(self.kernel)))
        self.kernel = kernel
        kset = set(kernel)
        self.quotient_basis = tuple(i for i in range(amb.n) if i not in kset)

        # the ideal must be d-stable, a Lie ideal, and abelian
        for j in kernel:
            if any(i not in kset for i, _ in amb._d_columns[j]):
                raise ValueError("kernel is not stable under the differential")
        if any(j in kset and any(t not in kset for t in expansion)
               for (_, j), expansion in amb.brackets.items()):
            raise ValueError("kernel is not an ideal")
        if any(i in kset and j in kset for i, j in amb.brackets):
            raise ValueError("kernel is not abelian")

        if self.section is None:
            self.section = {i: amb.basis(i) for i in self.quotient_basis}
        else:
            self.section = {i: tuple(exact(x) for x in v) for i, v in self.section.items()}
            quotient = set(self.quotient_basis)
            for i, sv in self.section.items():
                if not (_in_basis(i, amb.n) and i in quotient):
                    raise ValueError(f"section key {i!r} is not a quotient basis element")
                if len(sv) != amb.n:
                    raise ValueError(
                        f"section vector of basis element {i} has length {len(sv)}, "
                        f"not {amb.n}"
                    )
                if not amb.is_homogeneous(sv, amb.degrees[i]):
                    raise ValueError(
                        f"section vector of basis element {i} leaves degree {amb.degrees[i]}"
                    )
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
        # the nonzero entries of the section's image of each quotient basis element
        self._section_columns = tuple(
            tuple((t, x) for t, x in enumerate(self.section[i]) if x)
            for i in self.quotient_basis
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
        for (i, j), expansion in sorted(amb.brackets.items()):
            if i in pos and j in pos:
                entry = {pos[t]: c for t, c in sorted(expansion.items()) if t in pos}
                if entry:
                    brackets[(pos[i], pos[j])] = entry
        return GradedDgLie(degrees, tuple(tuple(row) for row in d), brackets)

    # -- maps between the three layers -----------------------------------

    def include_quotient(self, v: Vector) -> Vector:
        """Apply the section to a quotient vector."""
        _check_length(v, len(self.quotient_basis))
        out = [0] * self.ambient.n
        for c, column in zip(v, self._section_columns):
            if c:
                for t, x in column:
                    out[t] += c * x
        return _exact_vector(out)

    def kernel_component(self, v: Vector) -> Vector:
        """Check a vector is kernel-valued and return it unchanged."""
        _check_length(v, self.ambient.n)
        if any(v[i] != 0 for i in self.quotient_basis):
            raise SectionNotValued("value does not lie in the extension kernel")
        return v


def defects(ext: AbelianExtension):
    """The degree-1 and degree-0 failure maps of the section.

    Returns callables (delta1, delta2): delta1(x) = (d s - s d)(x) and
    delta2(x, y) = [s x, s y] - s [x, y], both kernel-valued.
    """
    amb, quo, s = ext.ambient, ext.quotient, ext.include_quotient

    def delta1(x: Vector) -> Vector:
        return ext.kernel_component(sub(amb.apply_d(s(x)), s(quo.apply_d(x))))

    def delta2(x: Vector, y: Vector) -> Vector:
        return ext.kernel_component(sub(amb.bracket(s(x), s(y)), s(quo.bracket(x, y))))

    return delta1, delta2


def _lift_base(ext: AbelianExtension, phi: Vector) -> _LiftBase:
    """The parts of the lift equation that depend on phi alone, from the one-entry memo."""
    _check_length(phi, ext.quotient.n)
    # cleaned, since 1.0 == 1 would let a float phi answer for an int one
    key = tuple(map(exact, phi))
    memo = ext._lift_memo
    if memo is not None and memo.phi == key:
        return memo
    witness = ext.quotient.mc_residual(key)
    if not is_zero(witness):
        raise NotMaurerCartan(f"base element fails Maurer-Cartan with residual {witness}")
    s_phi = ext.include_quotient(key)
    # o(phi) = MC(s phi) - s(MC(phi)), and MC(phi) = 0
    obstruction = ext.kernel_component(ext.ambient.mc_residual(s_phi))
    ext._lift_memo = memo = _LiftBase(key, s_phi, obstruction, {})
    return memo


def lift_residual(ext: AbelianExtension, phi: Vector, alpha: Vector) -> Vector:
    """Residual of the lift equation for s(phi) + alpha.

    Zero exactly when s(phi) + alpha satisfies Maurer-Cartan upstairs.
    ``phi`` is a Maurer-Cartan element of the quotient; ``alpha`` an
    ambient degree-1 vector supported on the kernel.  The residual is
    affine in alpha: o(phi) + d_{s phi} alpha, with the obstruction
    o(phi) = delta1(phi) + delta2(phi, phi)/2, which is the ambient
    Maurer-Cartan residual of s(phi), and d_{s phi} = d + [s phi, -].
    The Maurer-Cartan test of phi, s(phi), o(phi) and the columns of
    d_{s phi} on the degree-1 kernel basis depend on phi alone; they are
    kept in a one-entry memo on ``ext``, keyed by phi's entries cleaned by
    ``laurent.exact``; alpha's entries are cleaned too, so a float entry
    of either is refused with ``TypeError``.  For the same phi only the
    checks of alpha and the sum over its nonzero entries repeat.  Each
    column is built the first time an alpha needs it, and a phi that fails
    its checks leaves the memo as it was.
    """
    amb = ext.ambient
    base = _lift_base(ext, phi)
    alpha = tuple(map(exact, ext.kernel_component(alpha)))
    if not amb.is_homogeneous(alpha, 1):
        raise NotMaurerCartan("kernel correction is not concentrated in degree 1")
    out = list(base.obstruction)
    columns = base.columns
    for t, a in enumerate(alpha):
        if not a:
            continue
        column = columns.get(t)
        if column is None:
            e_t = amb.basis(t)
            twisted = add(amb.apply_d(e_t), amb.bracket(base.s_phi, e_t))
            column = columns[t] = tuple((i, c) for i, c in enumerate(twisted) if c)
        for i, c in column:
            out[i] += a * c
    return _exact_vector(out)
