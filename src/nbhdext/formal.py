"""Desk-scale model of pair derivations over a formal disk.

The disk carries p tangential variables and a free conormal slot of rank
q; the module side is truncated at a working order k.  Pair derivations
are stored through generator images exactly as in the chart engine, but
here the conormal-degree-zero components are allowed: vector fields,
conormal endomorphisms and bundle endomorphisms all live in degree zero.

As on the charts, only the conormal degree is truncated, never the
tangential one, so the identities checked here hold exactly at every
tangential degree.  The degree-a slice of a derivation is its
``component(a)``; the split operator of a slice is
``split_component_operator``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import NotFlat
from .filtered import ChartRing, PairDerivation, bracket, contract
from .laurent import LaurentPoly
from .linsolve import PolyMatrix

Connection = Sequence[PolyMatrix]  # one e x e coefficient matrix per tangential variable


@dataclass(frozen=True)
class FormalDisk:
    """Formal neighborhood of a point: p tangential and q normal variables, rank e."""

    p: int
    q: int
    e: int

    def __post_init__(self):
        if min(self.p, self.q, self.e) < 1:
            raise ValueError("disk dimensions must be positive")

    @property
    def ring(self) -> ChartRing:
        return ChartRing(
            tuple(f"x{i+1}" for i in range(self.p)),
            tuple(f"t{i+1}" for i in range(self.q)),
        )

    def der_l_element(
        self,
        x_images: Sequence[LaurentPoly],
        t_images: Sequence[LaurentPoly],
        module: Optional[PolyMatrix],
        l: int,
        k: int,
    ) -> PairDerivation:
        """An order-l element carrying algebra data up to the working order k.

        The module side is truncated at l; the tangential/conormal images
        keep their high-degree slices because splittings and cocycle
        evaluations at order k still read them.  With l = k it is an
        element at the working order.
        """
        ring = self.ring
        if module is None:
            module = PolyMatrix.zero(self.e, self.e, ring.names)
        # algebra data is kept one conormal degree above the working order so
        # brackets stay faithful there; component extraction reads <= k only
        return PairDerivation(
            ring,
            l,
            tuple(ring.truncate(p, k + 1) for p in x_images),
            tuple(ring.truncate(p, k + 1) for p in t_images),
            module.map(lambda m: ring.truncate(m, l)),
            algebra_trunc=k + 1,
        )

    def coordinate_field(self, b: int, k: int) -> PairDerivation:
        """d/dx_b with the flat-frame module lift: a generator of the base subalgebra."""
        ring = self.ring
        x_imgs = [ring.one() if i == b else ring.zero() for i in range(self.p)]
        return self.der_l_element(x_imgs, [ring.zero()] * self.q, None, k, k)

    def constant_endomorphism(self, mat: Sequence[Sequence[object]], k: int) -> PairDerivation:
        ring = self.ring
        module = PolyMatrix.from_scalar_rows(ring.names, mat)
        return self.der_l_element([ring.zero()] * self.p, [ring.zero()] * self.q, module, k, k)

    def trivial_connection(self) -> List[PolyMatrix]:
        ring = self.ring
        return [PolyMatrix.zero(self.e, self.e, ring.names) for _ in range(self.p)]


# -- connections --------------------------------------------------------------


def curvature(disk: FormalDisk, gamma: Connection) -> Dict[Tuple[int, int], PolyMatrix]:
    """R_(b,c) = d_b Gamma_c - d_c Gamma_b + [Gamma_b, Gamma_c] for b < c."""
    ring = disk.ring
    out = {}
    for b in range(disk.p):
        for c in range(b + 1, disk.p):
            name_b, name_c = ring.u_names[b], ring.u_names[c]
            term = (
                gamma[c].map(lambda m: m.diff(name_b))
                - gamma[b].map(lambda m: m.diff(name_c))
                + gamma[b].commutator(gamma[c])
            )
            out[(b, c)] = term.map(lambda m: ring.truncate(m, 0))
    return out


def is_flat(disk: FormalDisk, gamma: Connection) -> bool:
    return all(m.is_zero() for m in curvature(disk, gamma).values())


def splitting(
    disk: FormalDisk, d: PairDerivation, gamma: Connection, l: int, k: int
) -> PairDerivation:
    """Fill module degrees l+1..k with the connection lift of the tangential data.

    Degrees <= l of the module action are kept; the algebra data is shared.
    An element already carrying the split shape is a fixed point.
    """
    ring = disk.ring
    mat = d.module.map(lambda m: ring.truncate(m, l))
    for v in range(l + 1, k + 1):
        mat = mat + contract(ring, [ring.t_part(img, v) for img in d.u_images], gamma, k)
    return disk.der_l_element(d.u_images, d.t_images, mat, k, k)


def split_component_operator(
    disk: FormalDisk, d: PairDerivation, gamma: Connection, v: int, k: int
) -> PairDerivation:
    """The degree-v slice of d as a split operator on the order-k module."""
    ring = disk.ring
    x_imgs = [ring.t_part(img, v) for img in d.u_images]
    t_imgs = [ring.t_part(img, v + 1) for img in d.t_images]
    return disk.der_l_element(x_imgs, t_imgs, contract(ring, x_imgs, gamma, k), k, k)


def e_component(
    disk: FormalDisk, d: PairDerivation, gamma: Connection, v: int
) -> PolyMatrix:
    """O-linear residue in degree v: M_v minus the connection lift a_v . nabla."""
    ring = disk.ring
    a_v = [ring.t_part(img, v) for img in d.u_images]
    # the product is pure degree v, so truncate at v, not at d.order
    return d.module.map(lambda m: ring.t_part(m, v)) - contract(ring, a_v, gamma, v)


# -- the abelianized kernel ---------------------------------------------------


@dataclass
class AbelianizedKernel:
    """Value object for the quotient kernel of the order-(l -> k) extension.

    Matrix components sit in degrees l+1 .. min(k, 2l+1); degrees
    2l+2 .. k only remember the scalar trace direction.
    """

    disk: FormalDisk
    l: int
    k: int
    end_parts: Dict[int, PolyMatrix]
    scalar_parts: Dict[int, LaurentPoly]

    @classmethod
    def zero(cls, disk: FormalDisk, l: int, k: int) -> "AbelianizedKernel":
        ring = disk.ring
        ends = {
            v: PolyMatrix.zero(disk.e, disk.e, ring.names)
            for v in range(l + 1, min(k, 2 * l + 1) + 1)
        }
        scalars = {v: ring.zero() for v in range(2 * l + 2, k + 1)}
        return cls(disk, l, k, ends, scalars)

    def _comb(self, other: "AbelianizedKernel", sign: int) -> "AbelianizedKernel":
        ends = {
            v: self.end_parts[v] + other.end_parts[v].scale(sign)
            for v in self.end_parts
        }
        scalars = {
            v: self.scalar_parts[v] + other.scalar_parts[v] * sign
            for v in self.scalar_parts
        }
        return AbelianizedKernel(self.disk, self.l, self.k, ends, scalars)

    def __add__(self, other):
        return self._comb(other, 1)

    def __sub__(self, other):
        return self._comb(other, -1)

    def scaled(self, c) -> "AbelianizedKernel":
        c = Fraction(c)
        return AbelianizedKernel(
            self.disk,
            self.l,
            self.k,
            {v: m.scale(c) for v, m in self.end_parts.items()},
            {v: s * c for v, s in self.scalar_parts.items()},
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.end_parts.values()) and all(
            s.is_zero() for s in self.scalar_parts.values()
        )

    def __eq__(self, other):
        if not isinstance(other, AbelianizedKernel):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None


def project_kernel(
    disk: FormalDisk, d: PairDerivation, gamma: Connection, l: int, k: int
) -> AbelianizedKernel:
    """Projection 1-cochain: the O-linear residues above degree l, traced high up."""
    out = AbelianizedKernel.zero(disk, l, k)
    for v in range(l + 1, min(k, 2 * l + 1) + 1):
        out.end_parts[v] = e_component(disk, d, gamma, v)
    for v in range(2 * l + 2, k + 1):
        out.scalar_parts[v] = e_component(disk, d, gamma, v).trace()
    return out


def act_on_kernel(
    disk: FormalDisk,
    x: PairDerivation,
    gamma: Connection,
    m: AbelianizedKernel,
) -> AbelianizedKernel:
    """Action of a Der_l element on the abelianized kernel via its split lift.

    The action does not preserve the conormal grading: a degree-a slice of
    the lift pushes a degree-v matrix component to degree a+v, trading the
    matrix for its trace once it crosses the abelianization threshold.
    The lift's degree-a operator is its slice ``component(a)``: with a
    connection of t-degree 0, as ``e_component`` assumes, that slice's
    module part is the split operator plus the O-linear residue.
    """
    l, k = m.l, m.k
    ring = disk.ring
    out = AbelianizedKernel.zero(disk, l, k)
    sx = splitting(disk, x, gamma, l, k)
    ops = {a: sx.component(a) for a in range(k + 1)}
    for v, mat in m.end_parts.items():
        if mat.is_zero():
            continue
        for a in range(0, k - v + 1):
            target = v + a
            comp = ops[a].bracket_endo(mat).map(lambda p: ring.t_part(p, target))
            if target <= 2 * l + 1:
                out.end_parts[target] = out.end_parts[target] + comp
            else:
                out.scalar_parts[target] = out.scalar_parts[target] + comp.trace()
    for v, s in m.scalar_parts.items():
        if s.is_zero():
            continue
        for a in range(0, k - v + 1):
            out.scalar_parts[v + a] = out.scalar_parts[v + a] + ops[a].apply(s)
    return out


# -- the extension cocycle -----------------------------------------------------


def extension_cocycle(
    disk: FormalDisk,
    l: int,
    k: int,
    d1: PairDerivation,
    d2: PairDerivation,
    gamma: Connection,
    check_flat: bool = True,
) -> AbelianizedKernel:
    """Failure of the connection splitting to respect the bracket.

    Matrix degrees collect the cross terms of split slices against the
    O-linear residues plus the residue-residue commutators; degrees past
    the abelianization threshold keep only the traced form, where the
    commutator drops and the split slices act through the trace.
    Setting ``check_flat`` to False evaluates the raw formula for a curved
    connection, which is only a cochain, not a cocycle.
    """
    if check_flat and not is_flat(disk, gamma):
        raise NotFlat("the extension cocycle needs a flat connection")
    if l >= k:
        raise ValueError("need l < k")
    ring = disk.ring
    out = AbelianizedKernel.zero(disk, l, k)
    e1 = {p: e_component(disk, d1, gamma, p) for p in range(0, l + 1)}
    e2 = {p: e_component(disk, d2, gamma, p) for p in range(0, l + 1)}
    # both parts below read the split slices of degrees 1..k, each built once
    s1 = {a: split_component_operator(disk, d1, gamma, a, k) for a in range(1, k + 1)}
    s2 = {a: split_component_operator(disk, d2, gamma, a, k) for a in range(1, k + 1)}

    # cross terms enter antisymmetrized: the split slice of the first argument
    # acts on the residue of the second, minus the mirror term
    for v in range(l + 1, min(k, 2 * l + 1) + 1):
        acc = PolyMatrix.zero(disk.e, disk.e, ring.names)
        for p in range(0, l + 1):
            acc = acc + s1[v - p].bracket_endo(e2[p]) - s2[v - p].bracket_endo(e1[p])
        for p in range(max(v - l, 0), l + 1):
            acc = acc + (ring.matmul(e1[v - p], e2[p], k) - ring.matmul(e2[p], e1[v - p], k))
        out.end_parts[v] = acc.map(lambda m: ring.t_part(m, v))

    for v in range(2 * l + 2, k + 1):
        acc = ring.zero()
        for p in range(0, l + 1):
            acc = acc + s1[v - p].apply(e2[p].trace()) - s2[v - p].apply(e1[p].trace())
        out.scalar_parts[v] = ring.t_part(acc, v)
    return out


def splitting_defect(
    disk: FormalDisk,
    d1: PairDerivation,
    d2: PairDerivation,
    gamma: Connection,
    l: int,
    k: int,
) -> PairDerivation:
    """[s d1, s d2] - s [d1, d2]: zero on split pairs iff the connection is flat."""
    s1 = splitting(disk, d1, gamma, l, k)
    s2 = splitting(disk, d2, gamma, l, k)
    inner = bracket(
        project_to_order(disk, d1, l), project_to_order(disk, d2, l)
    )
    return bracket(s1, s2) - splitting(disk, inner, gamma, l, k)


def project_to_order(disk: FormalDisk, d: PairDerivation, l: int) -> PairDerivation:
    """Truncate the module side at order l (the quotient map of the extension)."""
    ring = disk.ring
    return PairDerivation(
        ring,
        l,
        d.u_images,
        d.t_images,
        d.module.map(lambda m: ring.truncate(m, l)),
        algebra_trunc=d.algebra_trunc,
    )


# -- relative Lie cochains ------------------------------------------------------


@dataclass
class RelativeCochain:
    """Alternating cochain on pair derivations valued in the abelianized kernel.

    The cochain is carried by an evaluator; degree-j cochains take j
    derivations.  Relativity and closedness are checked by sampling the
    truncated generator set, which is the only faithful finite handle on
    the full algebra.
    """

    disk: FormalDisk
    l: int
    k: int
    gamma: Connection
    degree: int
    evaluate: Callable[..., AbelianizedKernel]


def lie_differential(c: RelativeCochain) -> RelativeCochain:
    """Chevalley-Eilenberg differential on represented cochains.

    (delta c)(x_0..x_j) = sum_i (-1)^i x_i . c(..no x_i..)
                        + sum_{i<j} (-1)^{i+j} c([x_i,x_j], ..rest..).
    """
    disk, l, k, gamma = c.disk, c.l, c.k, c.gamma

    def evaluate(*args: PairDerivation) -> AbelianizedKernel:
        if len(args) != c.degree + 1:
            raise ValueError(f"expected {c.degree + 1} arguments")
        out = AbelianizedKernel.zero(disk, l, k)
        for i, x in enumerate(args):
            rest = args[:i] + args[i + 1 :]
            term = act_on_kernel(disk, x, gamma, c.evaluate(*rest))
            out = out + term.scaled((-1) ** i)
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                rest = tuple(
                    a for t, a in enumerate(args) if t != i and t != j
                )
                term = c.evaluate(bracket(args[i], args[j]), *rest)
                out = out + term.scaled((-1) ** (i + j))
        return out

    return RelativeCochain(disk, l, k, gamma, c.degree + 1, evaluate)


def extension_cochain(
    disk: FormalDisk, l: int, k: int, gamma: Connection
) -> RelativeCochain:
    return RelativeCochain(
        disk,
        l,
        k,
        gamma,
        2,
        lambda x, y: extension_cocycle(disk, l, k, x, y, gamma),
    )


def projection_cochain(
    disk: FormalDisk, l: int, k: int, gamma: Connection
) -> RelativeCochain:
    return RelativeCochain(
        disk,
        l,
        k,
        gamma,
        1,
        lambda x: project_kernel(disk, x, gamma, l, k),
    )


def relative_check(
    c: RelativeCochain, samples: Sequence[PairDerivation]
) -> Tuple[bool, Optional[str]]:
    """Vanishing under base-subalgebra insertions plus invariance.

    The base subalgebra is generated by coordinate vector fields and
    constant endomorphisms (well defined by flatness).  Returns the first
    counterexample found, if any.
    """
    disk, l, k, gamma = c.disk, c.l, c.k, c.gamma
    gens: List[Tuple[str, PairDerivation]] = [
        (f"d/dx{b+1}", splitting(disk, disk.coordinate_field(b, k), gamma, -1, k))
        for b in range(disk.p)
    ]
    for r in range(disk.e):
        for s in range(disk.e):
            mat = [[1 if (i, j) == (r, s) else 0 for j in range(disk.e)] for i in range(disk.e)]
            gens.append((f"E[{r},{s}]", disk.constant_endomorphism(mat, k)))

    sample_tuples = list(itertools.combinations(samples, c.degree - 1)) or [()]
    for name, g in gens:
        for rest in sample_tuples:
            if not c.evaluate(g, *rest).is_zero():
                return False, f"insertion of {name} does not vanish"
    # invariance: g . c(x_1..x_j) = sum_i c(x_1, .., [g, x_i], .., x_j)
    full_tuples = list(itertools.combinations(samples, c.degree)) or [()]
    for name, g in gens:
        for args in full_tuples:
            lhs = act_on_kernel(disk, g, gamma, c.evaluate(*args))
            rhs = AbelianizedKernel.zero(disk, l, k)
            for i in range(len(args)):
                replaced = list(args)
                replaced[i] = bracket(g, args[i])
                rhs = rhs + c.evaluate(*replaced)
            if not (lhs - rhs).is_zero():
                return False, f"invariance under {name} fails"
    return True, None
