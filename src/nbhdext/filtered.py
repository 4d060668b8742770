"""Truncated filtered algebras over chart rings and their automorphisms.

A chart carries tangential variables (Laurent exponents allowed where the
chart inverts monomials) and normal variables whose classes span the
conormal slot.  Everything of normal degree above the working order is
truncated away, which makes exp, log and all compositions finite exact
sums: each of them, and each truncated inverse, is one ``_series`` whose
step raises the conormal degree, so it stops after ``order`` steps.  Its
callers check that the step does before it runs and raise
``NotUnipotent`` where it does not.  Automorphisms and derivations are
stored through their generator images; application to arbitrary elements
goes through substitution or the Leibniz rule, which ``PairDerivation.apply``
sums in one pass over the element's terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from operator import add
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import NonInvertibleSubstitution, NotAdapted, NotUnipotent
from .laurent import Exponent, LaurentPoly, Rational, exact, grlex_key
from .linsolve import PolyMatrix


def _degree_rows(poly: LaurentPoly, p: int) -> List[Tuple[int, Exponent, Rational]]:
    """``poly``'s (t-degree, exps, coeff) rows, the variables after the first ``p`` normal.

    They are kept on the polynomial as ``poly._degree_rows = (p, rows)``,
    built on its first use under this ``p``; a use under another split
    rebuilds them.
    """
    cached = poly._degree_rows
    if cached is not None and cached[0] == p:
        return cached[1]
    rows = [(sum(e[p:]), e, c) for e, c in poly.terms.items()]
    poly._degree_rows = (p, rows)
    return rows


@dataclass(frozen=True)
class ChartRing:
    """Variables and inverted monomials of one chart.

    ``inverted`` lists exponent vectors (over the tangential variables
    only) of the monomials the chart inverts.  The one truncation is in the
    conormal degree, the total degree in the t-variables, as in the
    quotients X_k by powers of the ideal of X; the tangential degree is
    never cut.
    """

    u_names: Tuple[str, ...]
    t_names: Tuple[str, ...]
    inverted: Tuple[Exponent, ...] = ()

    @property
    def p(self) -> int:
        return len(self.u_names)

    @property
    def q(self) -> int:
        return len(self.t_names)

    @property
    def names(self) -> Tuple[str, ...]:
        return self.u_names + self.t_names

    def compatible(self, other: "ChartRing") -> bool:
        """Same variables; inverted monomials may differ.

        Arithmetic never consults the inversion data, so values from
        overlapping charts with richer localizations combine freely.
        """
        return self.u_names == other.u_names and self.t_names == other.t_names

    # -- element constructors -----------------------------------------

    def zero(self) -> LaurentPoly:
        return LaurentPoly.zero(self.names)

    def one(self) -> LaurentPoly:
        return LaurentPoly.const(self.names, 1)

    def const(self, c) -> LaurentPoly:
        return LaurentPoly.const(self.names, c)

    def u_var(self, b: int) -> LaurentPoly:
        return LaurentPoly.variable(self.names, self.u_names[b])

    def t_var(self, a: int) -> LaurentPoly:
        return LaurentPoly.variable(self.names, self.t_names[a])

    def monomial(self, exps: Sequence[int], coeff=1) -> LaurentPoly:
        return LaurentPoly.monomial(self.names, exps, coeff)

    # -- truncation-aware arithmetic ------------------------------------

    def truncate(self, p: LaurentPoly, t_max: int) -> LaurentPoly:
        return p.truncate_group(self.p, t_max)

    def mul(self, a: LaurentPoly, b: LaurentPoly, t_max: int) -> LaurentPoly:
        """``truncate(a * b, t_max)`` without forming the products it would drop.

        A product's t-degree is the sum of its factors', so a pair of terms
        is skipped when that sum is over ``t_max``.  The right factor's
        t-degrees are read from its rows (``_degree_rows``), which are kept
        on the polynomial, since right factors repeat across calls
        (memoized powers, substitution bases, conjugation scalars).
        Terms are visited in the order ``a * b`` visits them, so the
        result's terms come in the same order too.  A one-term ``a`` only
        shifts ``b``'s kept rows: their products are nonzero and their
        exponents distinct, so nothing accumulates or cancels.
        """
        a._check_same_ring(b)
        p = len(self.u_names)
        rows = _degree_rows(b, p)
        if len(a.terms) == 1:
            [(e1, c1)] = a.terms.items()
            t_room = t_max - sum(e1[p:])
            return LaurentPoly._of(a.vars, {
                tuple(map(add, e1, e2)): c1 * c2 for t2, e2, c2 in rows if t2 <= t_room
            })
        out: Dict[Exponent, Rational] = {}
        for e1, c1 in a.terms.items():
            t_room = t_max - sum(e1[p:])
            for t2, e2, c2 in rows:
                if t2 > t_room:
                    continue
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly._of(a.vars, out)

    def matmul(
        self, a: PolyMatrix, b: PolyMatrix, t_max: int, start: Optional[PolyMatrix] = None
    ) -> PolyMatrix:
        """``start + a . b``, each entry product truncated at ``t_max``.

        The one truncated matrix product: ``PolyMatrix.matmul``'s loop and
        shape check, with ``mul`` for the entry products.  A zero factor is
        skipped, sums run in ascending order, and an entry with nothing in
        it is the zero polynomial.  It lives here, not in ``linsolve``,
        because the exp/log/BCH path runs on the filtered and laurent layers
        alone (``bench/selftest.py`` checks that exp_log_roundtrip makes no
        call into linsolve).
        """
        if a.cols != b.rows:
            raise ValueError("shape mismatch in matmul")
        out = []
        for r, left in enumerate(a.entries):
            nonzero = [(c, f) for c, f in enumerate(left) if f.terms]
            row = []
            for j in range(b.cols):
                acc = None if start is None else start.entries[r][j]
                for c, f in nonzero:
                    g = b.entries[c][j]
                    if g.terms:
                        term = self.mul(f, g, t_max)
                        acc = term if acc is None else acc + term
                row.append(self.zero() if acc is None else acc)
            out.append(row)
        return PolyMatrix(out)

    def t_part(self, p: LaurentPoly, s: int) -> LaurentPoly:
        return p.part_group(self.p, s)

    def t_degree_min(self, p: LaurentPoly) -> Optional[int]:
        return p.min_group_degree(self.p)

    def restrict_to_x(self, p: LaurentPoly) -> LaurentPoly:
        return self.t_part(p, 0)

    def t_monomials(self, degree: int) -> List[Exponent]:
        """Exponent vectors over the t-variables of exact total degree, grlex order."""
        vecs: List[Tuple[int, ...]] = [()]
        for _ in range(self.q):
            vecs = [v + (k,) for v in vecs for k in range(degree + 1)]
        out = [v for v in vecs if sum(v) == degree]
        out.sort(key=grlex_key)
        return out

    # -- truncated inversion and substitution ---------------------------

    def invert_trunc(self, p: LaurentPoly, t_max: int) -> LaurentPoly:
        """Invert unit * (1 + nilpotent), truncated at ``t_max``.

        The t-degree-0 slice must be a monomial (else
        ``NonInvertibleSubstitution``), and the rest, after truncation, of
        t-degree >= 1 (else ``NotUnipotent``), so that its powers past
        ``t_max`` vanish and ``_series`` sums all of them.
        """
        head = self.restrict_to_x(p)
        if head.is_zero() or not head.is_monomial():
            raise NonInvertibleSubstitution(
                f"t-degree-0 part of {p} is not a unit monomial"
            )
        head_inv = head.inverse_monomial()
        tail = self.truncate(p - head, t_max)
        if tail.is_zero():
            return head_inv
        if self.t_degree_min(tail) < 1:
            # a term of negative t-degree: no power of it is truncated away
            raise NotUnipotent(f"{p} is not a unit monomial plus terms of t-degree >= 1")
        # (h + n)^-1 = h^-1 * sum (-n h^-1)^i, finite because n raises t-degree
        x = self.mul(-tail, head_inv, t_max)
        one = PolyMatrix([[self.one()]])
        step = lambda m: m.map(lambda f: self.mul(f, x, t_max))
        return self.mul(head_inv, _series(one, one, step, lambda n: 1, t_max)[0, 0], t_max)

    def subst_trunc(
        self,
        p: LaurentPoly,
        images: Mapping[str, LaurentPoly],
        t_max: int,
        target: Optional["ChartRing"] = None,
    ) -> LaurentPoly:
        """One truncated substitution into ``target`` (default: this ring); see ``Substitution``."""
        return Substitution(target or self, images, t_max)(p)


class Substitution:
    """A truncated substitution into ``target``, memoized for every polynomial it moves.

    ``images`` maps each source variable to a polynomial over ``target``;
    negative powers use truncated inversion.  The truncated power x^k of a
    variable's image is built once, as x^(k-1) times the image (times one
    truncated inverse for k < 0; x^1 and x^-1 are the truncated image and
    inverse themselves), and a monomial's image (``monomial_image``) is the
    truncated product of its powers, also built once, from its memoized
    prefix by one multiplication.  A polynomial's
    image is the sum of its scaled monomial images, with cancelled terms
    dropped: truncation commutes with rational scaling, so this equals one
    substitution of the whole polynomial.  Terms are moved in sorted order,
    so a missing image (``ValueError``) or a non-invertible one is reported
    on the same term as a fresh call would.  Only ``target``'s variables
    are read, never its ``inverted`` monomials, so one instance serves
    every ring compatible with ``target``.
    """

    def __init__(self, target: ChartRing, images: Mapping[str, LaurentPoly], t_max: int):
        self.target = target
        self.images = images
        self.t_max = t_max
        self._bases: Dict[Tuple[str, int], LaurentPoly] = {}
        self._powers: Dict[Tuple[str, int], LaurentPoly] = {}
        self._monomials: Dict[Tuple[str, ...], Dict[Exponent, LaurentPoly]] = {}

    def __call__(self, p: LaurentPoly) -> LaurentPoly:
        out: Dict[Exponent, Rational] = {}
        for e, c in p.sorted_terms():
            for f, d in self.monomial_image(p.vars, e).terms.items():
                s = out.get(f, 0) + c * d
                if s:
                    out[f] = s
                else:
                    out.pop(f, None)
        return LaurentPoly._of(self.target.names, out)

    def monomial_image(self, vars: Tuple[str, ...], exps: Exponent) -> LaurentPoly:
        """The truncated image of the monomial ``exps`` over ``vars``, built once.

        With ``x^e = x^prefix * var^k`` (``var`` the last variable with a
        nonzero exponent ``k``, the prefix ``e`` with that exponent set to 0),
        the image is the memoized prefix image times ``power(var, k)``.  That
        is one multiplication per new monomial and the same left fold over
        the variables as multiplying the powers one by one, so it gives the
        same polynomial.  A zero prefix gives zero without asking for ``var``'s image,
        and a prefix of exponent 0 (image 1) gives ``power(var, k)`` itself,
        with no product by one.
        """
        memo = self._monomials.setdefault(vars, {})
        image = memo.get(exps)
        if image is None:
            last = next((i for i in reversed(range(len(exps))) if exps[i]), None)
            if last is None:
                image = self.target.one()
            elif not any(exps[:last]):
                image = self.power(vars[last], exps[last])
            else:
                prefix = self.monomial_image(vars, exps[:last] + (0,) * (len(exps) - last))
                image = prefix if not prefix.terms else self.target.mul(
                    prefix, self.power(vars[last], exps[last]), self.t_max
                )
            memo[exps] = image
        return image

    def power(self, name: str, k: int) -> LaurentPoly:
        """The truncated image of ``name`` to the power ``k != 0``, built once."""
        power = self._powers.get((name, k))
        if power is None:
            step = 1 if k > 0 else -1
            base = self._base(name, step)
            power = self.target.truncate(base, self.t_max) if k == step else self.target.mul(
                self.power(name, k - step), base, self.t_max)
            self._powers[(name, k)] = power
        return power

    def _base(self, name: str, step: int) -> LaurentPoly:
        """The image of ``name`` (step 1) or its truncated inverse (step -1)."""
        base = self._bases.get((name, step))
        if base is None:
            base = self.images.get(name)
            if base is None:
                raise ValueError(f"no image supplied for variable {name!r}")
            if step < 0:
                base = self.target.invert_trunc(base, self.t_max)
            self._bases[(name, step)] = base
        return base


# -- automorphisms ----------------------------------------------------------


def _below_filtration(
    ring: ChartRing,
    u_parts: Iterable[LaurentPoly],
    t_parts: Iterable[LaurentPoly],
    module_parts: Iterable[LaurentPoly],
) -> Iterator[LaurentPoly]:
    """The nonzero parts, in order, under the filtration that unipotency asks for.

    A u-part or module entry must have t-degree at least 1 and a t-part at
    least 2: these are the parts of Phi - id of a unipotent automorphism
    and the values of a derivation that raises the conormal degree.
    """
    for parts, least in ((u_parts, 1), (t_parts, 2), (module_parts, 1)):
        for part in parts:
            if (d := ring.t_degree_min(part)) is not None and d < least:
                yield part


@dataclass
class FilteredAutomorphism:
    """Unipotent filtered automorphism, stored through generator images.

    ``module`` (optional) is the e x e matrix of the compatible module
    automorphism: column c holds the coefficients of the image of the
    c-th frame section.
    """

    ring: ChartRing
    order: int
    u_images: Tuple[LaurentPoly, ...]
    t_images: Tuple[LaurentPoly, ...]
    module: Optional[PolyMatrix] = None

    @staticmethod
    def identity(ring: ChartRing, order: int, rank: Optional[int] = None) -> "FilteredAutomorphism":
        return FilteredAutomorphism(
            ring,
            order,
            tuple(ring.u_var(b) for b in range(ring.p)),
            tuple(ring.t_var(a) for a in range(ring.q)),
            PolyMatrix.identity(rank, ring.names) if rank else None,
        )

    @cached_property
    def substitution(self) -> Substitution:
        """Phi on the truncated algebra, one memo for every element it moves."""
        images = dict(zip(self.ring.names, (*self.u_images, *self.t_images)))
        return Substitution(self.ring, images, self.order)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        return self.substitution(f)

    def act(self, sections: PolyMatrix) -> PolyMatrix:
        """M . Phi(X) on one module section per column of X, truncated at ``order``."""
        if self.module is None:
            raise ValueError("automorphism carries no module data")
        moved = sections.map(lambda f: self.apply(f) if f.terms else f)
        return self.ring.matmul(self.module, moved, self.order)

    def compose(self, other: "FilteredAutomorphism") -> "FilteredAutomorphism":
        """self after other (left action on elements)."""
        if not self.ring.compatible(other.ring):
            raise ValueError("automorphisms live on different charts")
        k = min(self.order, other.order)
        u_imgs = tuple(self.apply(img) for img in other.u_images)
        t_imgs = tuple(self.apply(img) for img in other.t_images)
        module = None
        if self.module is not None and other.module is not None:
            module = self.act(other.module)
        return FilteredAutomorphism(self.ring, k, u_imgs, t_imgs, module)

    def unipotency_defects(self) -> List[LaurentPoly]:
        ring = self.ring
        module = ()
        if self.module is not None:
            delta = self.module - PolyMatrix.identity(self.module.rows, ring.names)
            module = (p for row in delta.entries for p in row)
        return list(_below_filtration(
            ring,
            (img - ring.u_var(b) for b, img in enumerate(self.u_images)),
            (img - ring.t_var(a) for a, img in enumerate(self.t_images)),
            module,
        ))

    def is_unipotent(self) -> bool:
        return not self.unipotency_defects()


# -- pair derivations --------------------------------------------------------


@dataclass
class PairDerivation:
    """Derivation of the truncated pair, stored through generator values.

    ``order`` truncates the module side; algebra values are truncated at
    ``algebra_trunc`` (defaults to ``order``; formal disks run it one
    higher so top conormal data survives brackets).
    """

    ring: ChartRing
    order: int
    u_images: Tuple[LaurentPoly, ...]
    t_images: Tuple[LaurentPoly, ...]
    module: Optional[PolyMatrix] = None
    algebra_trunc: Optional[int] = None

    def __post_init__(self):
        if self.algebra_trunc is None:
            self.algebra_trunc = self.order

    @staticmethod
    def zero(ring: ChartRing, order: int, rank: Optional[int] = None,
             algebra_trunc: Optional[int] = None) -> "PairDerivation":
        return PairDerivation(
            ring,
            order,
            tuple(ring.zero() for _ in range(ring.p)),
            tuple(ring.zero() for _ in range(ring.q)),
            PolyMatrix.zero(rank, rank, ring.names) if rank else None,
            algebra_trunc,
        )

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """D(f) = sum over the variables v of df/dv . D(v), truncated at ``algebra_trunc``.

        One pass over f's terms: a term c x^e and a variable v with e_v != 0
        give the term c e_v x^(e - 1_v) of df/dv, and its products with the
        rows of D(v)'s ``_degree_rows`` (the table ``ChartRing.mul`` reads)
        go straight into one sum, skipped when their t-degree is over the
        bound.  That is the truncated sum of the products df/dv . D(v), so
        no derivative, product or partial sum is built.  ``f`` and the
        images live on the chart's variables in their order; a mismatch
        raises ``ValueError`` where a product df/dv . D(v) or the sum would
        mix rings (``_mismatch`` for f), and nowhere else.
        """
        ring = self.ring
        names = ring.names
        if f.vars != names:
            return self._mismatch(f)
        p = ring.p
        tables = []
        for i, image in enumerate(self.u_images + self.t_images):
            if image.terms:
                if image.vars != names:
                    if any(e[i] for e in f.terms):
                        raise ValueError(f"variable mismatch: {f.vars} vs {image.vars}")
                    continue
                # D(v) . x^(e - 1_v) for a normal v: its t-degree is one below x^e's
                tables.append((i, int(i >= p), _degree_rows(image, p)))
        k = self.algebra_trunc
        out: Dict[Exponent, Rational] = {}
        for e, c in f.terms.items():
            t = sum(e[p:])
            for i, lowers, rows in tables:
                ki = e[i]
                if not ki:
                    continue
                room = k - t + lowers
                lowered = list(e)
                lowered[i] = ki - 1
                ck = c * ki
                for t2, e2, c2 in rows:
                    if t2 > room:
                        continue
                    key = tuple(map(add, lowered, e2))
                    s = out.get(key, 0) + ck * c2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return LaurentPoly._of(names, out)

    def _mismatch(self, f: LaurentPoly) -> LaurentPoly:
        """``apply`` on an f over other variables than the chart's.

        Raises ``ValueError`` when a chart variable is missing from f, or
        when some variable that occurs in f has a nonzero image, since
        that product would mix rings; otherwise D(f) is the chart's zero.
        """
        ring = self.ring
        for i, image in enumerate(self.u_images + self.t_images):
            idx = f.vars.index(ring.names[i])  # ValueError when the chart variable is missing
            if image.terms and any(e[idx] for e in f.terms):
                raise ValueError(f"variable mismatch: {f.vars} vs {ring.names}")
        return ring.zero()

    def act(self, sections: PolyMatrix) -> PolyMatrix:
        """psi on one module section per column of X: D(X) + M . X, truncated at ``order``."""
        if self.module is None:
            raise ValueError("derivation carries no module data")
        ring, k = self.ring, self.order
        derived = sections.map(lambda f: ring.truncate(self.apply(f), k) if f.terms else f)
        return ring.matmul(self.module, sections, k, start=derived)

    def bracket_endo(self, endo: PolyMatrix) -> PolyMatrix:
        """[psi, endo] = D(endo) + [M, endo] for an O-linear endo, truncated at ``order``."""
        return self.act(endo) - self.ring.matmul(endo, self.module, self.order)

    # -- linear structure ----------------------------------------------

    def _binary(self, other: "PairDerivation", op) -> "PairDerivation":
        if not self.ring.compatible(other.ring):
            raise ValueError("derivations live on different charts")
        k = min(self.order, other.order)
        at = min(self.algebra_trunc, other.algebra_trunc)
        module = None
        if self.module is not None and other.module is not None:
            module = PolyMatrix(
                [
                    [op(self.module[r, c], other.module[r, c]) for c in range(self.module.cols)]
                    for r in range(self.module.rows)
                ]
            )
        elif self.module is not None or other.module is not None:
            raise ValueError("cannot combine module-valued with algebra-only derivation")
        return PairDerivation(
            self.ring,
            k,
            tuple(op(a, b) for a, b in zip(self.u_images, other.u_images)),
            tuple(op(a, b) for a, b in zip(self.t_images, other.t_images)),
            module,
            at,
        )

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def scaled(self, c) -> "PairDerivation":
        """``c`` times this derivation; ``c`` is cleaned with ``exact``, so a float raises."""
        c = exact(c)
        return PairDerivation(
            self.ring,
            self.order,
            tuple(img * c for img in self.u_images),
            tuple(img * c for img in self.t_images),
            self.module.scale(c) if self.module is not None else None,
            self.algebra_trunc,
        )

    def is_zero(self) -> bool:
        return (
            all(p.is_zero() for p in self.u_images)
            and all(p.is_zero() for p in self.t_images)
            and (self.module is None or self.module.is_zero())
        )

    def __eq__(self, other):
        if not isinstance(other, PairDerivation):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- graded components ----------------------------------------------

    def component(self, s: int) -> "PairDerivation":
        """Slice raising the conormal degree by exactly s."""
        ring = self.ring
        return PairDerivation(
            ring,
            self.order,
            tuple(ring.t_part(img, s) for img in self.u_images),
            tuple(ring.t_part(img, s + 1) for img in self.t_images),
            self.module.map(lambda p: ring.t_part(p, s)) if self.module is not None else None,
            self.algebra_trunc,
        )

    def raises_t_degree(self) -> bool:
        module = () if self.module is None else (p for row in self.module.entries for p in row)
        below = _below_filtration(self.ring, self.u_images, self.t_images, module)
        return next(below, None) is None


def bracket(x: PairDerivation, y: PairDerivation) -> PairDerivation:
    """Commutator of pair derivations, re-read off the generators."""
    if not x.ring.compatible(y.ring):
        raise ValueError("derivations live on different charts")
    k = min(x.order, y.order)
    at = min(x.algebra_trunc, y.algebra_trunc)
    u_imgs = tuple(
        x.apply(y.u_images[b]) - y.apply(x.u_images[b]) for b in range(x.ring.p)
    )
    t_imgs = tuple(
        x.apply(y.t_images[a]) - y.apply(x.t_images[a]) for a in range(x.ring.q)
    )
    ring = x.ring
    u_imgs = tuple(ring.truncate(p, at) for p in u_imgs)
    t_imgs = tuple(ring.truncate(p, at) for p in t_imgs)
    module = None
    if x.module is not None and y.module is not None:
        module = (x.act(y.module) - y.act(x.module)).map(lambda p: ring.truncate(p, k))
    elif x.module is not None or y.module is not None:
        raise ValueError("cannot bracket module-valued with algebra-only derivation")
    return PairDerivation(ring, k, u_imgs, t_imgs, module, at)


# -- exp and log -------------------------------------------------------------


def _series(total: PolyMatrix, seed: PolyMatrix, step, coeff, order: int) -> PolyMatrix:
    """total + sum over 1 <= n <= order of coeff(n) * step^n(seed).

    The caller guarantees that the seed has t-degree >= 0, that ``step``
    raises the t-degree by at least one and that it truncates above
    ``order``, so step^n(seed) has t-degree >= n and every term past
    ``order`` is zero: the sum is the whole series, and no step past the
    bound is taken.  ``exp_nilpotent`` and ``log_unipotent`` check this on
    their input, ``ChartRing.invert_trunc`` and
    ``cech.transition_log_defect`` on the element they expand in.  The sum
    stops early at a zero term; zero entries of a term add nothing, and
    each other entry is added in one pass by ``LaurentPoly.add_scaled``.
    """
    term = seed
    for n in range(1, order + 1):
        term = step(term)
        if term.is_zero():
            break
        c = coeff(n)
        total = PolyMatrix(
            [[t.add_scaled(f, c) if f.terms else t for t, f in zip(t_row, f_row)]
             for t_row, f_row in zip(total.entries, term.entries)]
        )
    return total


def _generators(ring: ChartRing) -> PolyMatrix:
    """The 1 x (p + q) row of the chart's generators u_1..u_p, t_1..t_q."""
    return PolyMatrix([[ring.u_var(b) for b in range(ring.p)]
                       + [ring.t_var(a) for a in range(ring.q)]])


def exp_nilpotent(d: PairDerivation) -> FilteredAutomorphism:
    """exp(D) as a finite sum; D must raise the conormal degree."""
    if not d.raises_t_degree():
        raise NotUnipotent("derivation does not raise the conormal degree")
    ring, k = d.ring, d.order
    coeff = lambda n: Fraction(1, factorial(n))
    gens = _generators(ring)
    step = lambda m: m.map(lambda f: ring.truncate(d.apply(f), k) if f.terms else f)
    images = _series(gens, gens, step, coeff, k).entries[0]
    module = None
    if d.module is not None:
        frame = PolyMatrix.identity(d.module.rows, ring.names)
        module = _series(frame, frame, d.act, coeff, k)
    return FilteredAutomorphism(ring, k, tuple(images[:ring.p]), tuple(images[ring.p:]), module)


def log_unipotent(phi: FilteredAutomorphism) -> PairDerivation:
    """log of a unipotent automorphism; finite alternating sum.

    Phi - id raises the t-degree only on polynomials in the t-variables:
    a truncated substitution into a negative t-power can drop terms that
    the whole power keeps.  So an image term that the truncation keeps and
    that has a negative t-exponent is refused with ``NotUnipotent``, as are
    unipotency defects, before the series runs.
    """
    defects = phi.unipotency_defects()
    if defects:
        raise NotUnipotent(f"automorphism is not unipotent: offending parts {defects[:2]}")
    ring, k = phi.ring, phi.order
    parts = [*phi.u_images, *phi.t_images]
    if phi.module is not None:
        parts += [f for row in phi.module.entries for f in row]
    p = ring.p
    if any(sum(e[p:]) <= k and min(e[p:], default=0) < 0 for f in parts for e in f.terms):
        raise NotUnipotent("automorphism has an image term with a negative t-exponent")
    # sum (-1)^(n+1)/n * (Phi - id)^n applied to the generators and the frame
    coeff = lambda n: Fraction((-1) ** (n + 1), n)
    step = lambda m: m.map(lambda f: ring.truncate(phi.apply(f) - f, k) if f.terms else f)
    gens = _generators(ring)
    images = _series(PolyMatrix.zero(1, gens.cols, ring.names), gens, step, coeff, k).entries[0]
    module = None
    if phi.module is not None:
        e = phi.module.rows
        frame, zero = PolyMatrix.identity(e, ring.names), PolyMatrix.zero(e, e, ring.names)
        module = _series(zero, frame, lambda m: phi.act(m) - m, coeff, k)
    return PairDerivation(ring, k, tuple(images[:ring.p]), tuple(images[ring.p:]), module)


def bch2(x: PairDerivation, y: PairDerivation) -> PairDerivation:
    """Degree-<=2 Baker-Campbell-Hausdorff composition of graded derivations.

    Degree 1: x1 + y1.  Degree 2: x2 + y2 + [x1, y1]/2.  Higher grading is
    dropped: the engine never asserts anything above degree 2.
    """
    x1, y1 = x.component(1), y.component(1)
    z = x1 + y1 + (x.component(2) + y.component(2) + bracket(x1, y1).scaled(Fraction(1, 2)))
    return z


def contract(
    ring: ChartRing, coeffs: Sequence[LaurentPoly], mats: Sequence[PolyMatrix], order: int
) -> PolyMatrix:
    """sum_b coeffs[b] * mats[b], products truncated at ``order``.

    Pairs a Hom(Omega^1, Sym^s) value with an End-valued one-form, such as
    a connection.  It is one truncated product of the row of blocks
    coeffs[b] * 1 with the column of blocks mats[b], so the zero
    coefficients are skipped.
    """
    e, zero = mats[0].rows, ring.zero()
    blocks = [[c if r == i else zero for c in coeffs for r in range(e)] for i in range(e)]
    stacked = [row for m in mats for row in m.entries]
    return ring.matmul(PolyMatrix(blocks), PolyMatrix(stacked), order)


# -- chart transitions -------------------------------------------------------


@dataclass
class ChartTransition:
    """Two-way transition data between adapted charts on one overlap U_ij, i < j.

    ``forward_*`` express the high chart's generators in the low chart's
    coordinates; ``backward_*`` the other way around.  Both directions are
    supplied so nothing ever needs polynomial inversion.  The images keyed
    by name, the linear part and the conormal matrix are read off on first
    use and kept.
    """

    ring_low: ChartRing
    ring_high: ChartRing
    forward_u: Tuple[LaurentPoly, ...]
    forward_t: Tuple[LaurentPoly, ...]
    backward_u: Tuple[LaurentPoly, ...]
    backward_t: Tuple[LaurentPoly, ...]

    @cached_property
    def forward(self) -> Dict[str, LaurentPoly]:
        """Full images over ``ring_low`` of the high chart's coordinates."""
        return dict(zip(self.ring_high.names, (*self.forward_u, *self.forward_t)))

    @cached_property
    def backward(self) -> Dict[str, LaurentPoly]:
        """Full images over ``ring_high`` of the low chart's coordinates."""
        return dict(zip(self.ring_low.names, (*self.backward_u, *self.backward_t)))

    @cached_property
    def images_ji(self) -> Dict[str, LaurentPoly]:
        """Images over ``ring_low`` of the high chart's coordinates, conormal part linear."""
        u, t = linear_images(self.ring_low, self.forward_u, self.forward_t)
        return dict(zip(self.ring_high.names, (*u, *t)))

    @cached_property
    def conormal_ji(self) -> PolyMatrix:
        """t^high_a = sum_b C[a][b] t^low_b over ``ring_low``."""
        return PolyMatrix([
            [self.images_ji[a].diff(b) for b in self.ring_low.t_names]
            for a in self.ring_high.t_names
        ])


def linear_images(
    ring: ChartRing, u_images: Sequence[LaurentPoly], t_images: Sequence[LaurentPoly]
) -> Tuple[Tuple[LaurentPoly, ...], Tuple[LaurentPoly, ...]]:
    """The linear part of a transition's generator images over ``ring``.

    Each tangential image keeps its t-degree-0 part, the base map on X, and
    each normal image its t-linear part, whose coefficients are the
    conormal matrix.
    """
    return (
        tuple(ring.restrict_to_x(img) for img in u_images),
        tuple(ring.t_part(img, 1) for img in t_images),
    )


def induced_transition(tr: ChartTransition, k: int) -> FilteredAutomorphism:
    """The unipotent discrepancy of a transition, an automorphism of the low chart.

    The linear part of the backward map, pushed through the full forward
    substitution, is the transition with its linear part divided out.
    """
    low, high = tr.ring_low, tr.ring_high
    for a, img in enumerate(tr.forward_t):
        if not low.restrict_to_x(img).is_zero():
            raise NotAdapted(
                f"transition image of normal variable {high.t_names[a]} does not preserve the ideal"
            )
    for a, img in enumerate(tr.backward_t):
        if not high.restrict_to_x(img).is_zero():
            raise NotAdapted(
                f"backward image of normal variable {low.t_names[a]} does not preserve the ideal"
            )
    fwd = Substitution(low, tr.forward, k)
    back_u, back_t = linear_images(high, tr.backward_u, tr.backward_t)
    phi = FilteredAutomorphism(
        low, k, tuple(fwd(img) for img in back_u), tuple(fwd(img) for img in back_t)
    )
    if not phi.is_unipotent():
        raise NotUnipotent(
            "transition directions are not mutually inverse: discrepancy is not unipotent"
        )
    return phi
