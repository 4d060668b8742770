"""Cech cochains on a cover nerve, the transition lift and its obstructions.

A cochain value is a ``PolyMatrix``, stored in the frame of its
simplex's smallest chart index: e x e for ``SYM_END`` and 1 x 1 for a
``FUNCTION``, so the value type only chooses the transport.  Values move
to a lower frame by substituting the high chart's coordinates:
Sym^v N^*-valued End E data through the linear (conormal) part of the
chart transition, conjugated by the bundle transitions, and functions
through the full truncated transition F_ij^*.  The obstruction
o_k is the t^k-part of the cocycle defect (G_ij . F_ij^* G_jh - G_ih) .
g_ih^-1 of transitions lifted order by order, G <- (1 + m) . G with
-delta(m) = o_n; for a rank-one bundle the log of the same defect gives
one linear system: G_ij = g_ij exp(lambda_ij) is a cocycle modulo t^(k+1)
exactly when delta(lambda) = rho.  No connection enters: the paper's
first-order formula c_1 = a^1 . At is kept in ``tests/cup_oracle.py``,
where the tests check that it equals o_1.  The nerve holds each overlap
as its ``filtered.ChartTransition``, whose low ring is the ring of the
double and which reads its images keyed by name, their linear part and
the conormal matrix off itself on first use.  Substitution is a linear
ring map, so each context keeps one memoized ``filtered.Substitution``
per overlap and transport.  delta is one alternating walk over
``CoverNerve.simplices``: on each simplex the face that drops the first
vertex is transported, the others enter with their signs.  The columns
of delta are read off the cofaces of one simplex at a time, from the
same simplices, and each column is linear in one pullback: a window
monomial is moved once and multiplied by the overlap's transport
pattern, the rows of g[a][r] . g^-1[c][b] for each target entry.  When
some image of a transport is one term, the transport is an
``ExponentMap``: a monomial's part over the one-term images is one term
read off an integer matrix, with no polynomial built.  When every image
is one term, as every linear transport of the shipped scenarios is,
that is the whole moved monomial, and the pattern's rows are shifted by
it straight into the column.  Otherwise, as for the full transport of a
twisted builtin, the part over the other images is moved through the
``Substitution`` once per distinct part and shifted by the one-term
part.  A transport with a missing image or a term of negative t-degree,
or none of one term, moves each monomial through its ``Substitution``.
Each coordinate key (simplex, entry, exps) is interned to an int once
per context, so the columns, the rows of the system and the torsor
split compare ints.
``solve_delta`` is the one build, solve and residual recheck behind both
the obstruction solves and the rank-one system; whole cochains and those
rechecks move through ``transport``.  The rank-one system eliminates
only the blocks its right-hand side touches, since it reads only its
verdict and the whole system's size; the obstruction solves eliminate
every window column, since their torsor count reads every free column.
``solve_coboundary`` only solves:
it returns ``Solved`` or ``UnresolvedWithinWindow``, and the cohomology
oracle and the nonzero certificate are read by the caller.  Its torsor
count folds delta_0's rows outside the window and then only those at
the solve's free columns.
All assembly is canonical: simplices, matrix entries and monomials are
walked in sorted order, so reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from operator import add, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import FrameMismatch, NonInvertibleSubstitution, NotClosed, NotUnipotent
from .filtered import ChartRing, ChartTransition, Substitution, _series
from .laurent import Exponent, LaurentPoly, Rational, exact, grlex_key, monomial_window
from .linsolve import ExactLinearSystem, PolyMatrix, Solution, _rref, solve_exact

Pair = Tuple[int, int]
Triple = Tuple[int, int, int]

# value type tags for cochains
SYM_END = "sym_end"    # Sym^v con (x) End E : PolyMatrix with degree-v entries
FUNCTION = "function"  # function on the simplex: 1 x 1 PolyMatrix, moved by the full F_ij^*


@dataclass
class CoverNerve:
    """Charts, overlaps and triples with their intersection rings.

    ``pairs[(i, j)]`` is the chart transition of U_ij, which holds its ring
    in both charts' coordinates; triples carry the ring in the smallest
    chart's coordinates.  The index set is totally ordered; a pair (i, j)
    is always stored with i < j and a triple (i, j, h) with i < j < h.
    """

    chart_rings: List[ChartRing]
    pairs: Dict[Pair, ChartTransition]
    triple_rings: Dict[Triple, ChartRing]

    @property
    def n(self) -> int:
        return len(self.chart_rings)

    def doubles(self) -> List[Pair]:
        return sorted(self.pairs)

    def triples(self) -> List[Triple]:
        return sorted(self.triple_rings)

    def quadruples(self) -> List[Tuple[int, int, int, int]]:
        """Each a < b < c < d whose four faces are triples, found from its face (a, b, c)."""
        trip = set(self.triple_rings)
        return sorted(
            (a, b, c, d)
            for (a, b, c) in trip
            for d in range(c + 1, self.n)
            if {(b, c, d), (a, c, d), (a, b, d)} <= trip
        )

    def simplices(self, size: int) -> List[Tuple[int, ...]]:
        """The sorted simplices with ``size`` vertices: charts, doubles, triples or quadruples."""
        if size == 1:
            return [(i,) for i in range(self.n)]
        by_size = {2: self.doubles, 3: self.triples, 4: self.quadruples}
        if size not in by_size:
            raise ValueError("differential implemented for degrees 0..2")
        return by_size[size]()


@dataclass
class BundleData:
    """Rank and transition matrices, with the inverse of each transition."""

    rank: int
    g: Dict[Pair, PolyMatrix]          # chart-i coordinates on U_ij, i < j
    g_inv: Dict[Pair, PolyMatrix] = field(init=False)

    def __post_init__(self):
        self.g_inv = {pair: mat.inverse_unit_det() for pair, mat in sorted(self.g.items())}


@dataclass(frozen=True)
class ExponentMap:
    """A substitution read by exponent arithmetic on the variables whose image is one term.

    Where the image of variable i is one term c_i . x^(E_i) of t-degree
    d_i >= 0, the image of x^e is prod c_i^(e_i) . x^(sum e_i E_i), of
    t-degree sum e_i d_i: the exponents move by an integer matrix, as on
    toric charts.  ``rest`` indexes the variables whose image has several
    terms; their part of a monomial is moved by the caller's substitution
    and then shifted by the one-term part.  ``columns[j]`` holds coordinate
    j of every E_i and ``inverses`` each 1/c_i under the exact-number rule,
    with d_i = 0, E_i = 0 and c_i = 1 standing in for the ``rest``;
    ``scaled`` indexes the images whose coefficient is not 1 and
    ``positive`` those of positive t-degree.
    """

    degrees: Tuple[int, ...]
    columns: Tuple[Tuple[int, ...], ...]
    coefficients: Tuple[Rational, ...]
    inverses: Tuple[Rational, ...]
    scaled: Tuple[int, ...]
    positive: Tuple[int, ...]
    rest: Tuple[int, ...] = ()

    @staticmethod
    def of(images: Sequence[Optional[LaurentPoly]], p: int) -> Optional["ExponentMap"]:
        """The map of ``images``, or None when one is missing or has a term of negative t-degree.

        ``images`` holds one image per source variable, over a ring whose
        first ``p`` variables are tangential.  A map needs at least one
        image of one term, so it is None when there is none.
        """
        terms, rest = [], []
        for i, image in enumerate(images):
            if image is None or any(sum(e[p:]) < 0 for e in image.terms):
                return None
            if len(image.terms) == 1:
                [(e, c)] = image.terms.items()
                [inverse] = image.inverse_monomial().terms.values()
                terms.append((sum(e[p:]), e, c, inverse))
            else:
                rest.append(i)
                terms.append((0, (0,) * len(image.vars), 1, 1))
        if len(rest) == len(terms):
            return None
        degrees, exps, coefficients, inverses = zip(*terms)
        return ExponentMap(
            degrees=degrees,
            columns=tuple(zip(*exps)),
            coefficients=coefficients,
            inverses=inverses,
            scaled=tuple(i for i, c in enumerate(coefficients) if c != 1),
            positive=tuple(i for i, d in enumerate(degrees) if d),
            rest=tuple(rest),
        )

    def moved(
        self,
        exps: Exponent,
        t_max: int,
        remainder: Callable[[Exponent], Optional[Tuple[Tuple, ...]]],
    ) -> Optional[Tuple[Tuple, ...]]:
        """The (t-degree, exponent, coefficient) rows of the image of x^exps, truncated.

        With no exponent on ``rest`` the image is one row, or none when its
        t-degree exceeds ``t_max``: with every e_i d_i >= 0 the partial
        products of a substitution only grow in t-degree, so this is what
        the truncated substitution keeps.  Otherwise ``remainder`` gives the
        rows of the truncated image of the monomial over ``rest``, or None
        when moving it raises; they are shifted by the one-term part and
        truncated again.  Truncation is a ring map on polynomials of
        t-degree >= 0, so that is the truncated image of x^exps.  None means
        the caller moves the whole monomial itself: for a negative power of
        an image of positive t-degree, which is not invertible, for a
        remainder that raises, and for a one-term part already past
        ``t_max``, whose image is zero unless the whole substitution raises
        first; that is left to the substitution, with no remainder moved.
        """
        for i in self.positive:
            if exps[i] < 0:
                return None
        degree = sum(map(mul, exps, self.degrees))
        rows = None
        if self.rest:
            remaining = [0] * len(exps)
            for i in self.rest:
                remaining[i] = exps[i]
            if any(remaining):
                if degree > t_max:
                    return None
                rows = remainder(tuple(remaining))
                if rows is None:
                    return None
        if rows is None and degree > t_max:
            return ()
        c = 1
        for i in self.scaled:
            k = exps[i]
            if k:
                c *= self.coefficients[i] ** k if k > 0 else self.inverses[i] ** -k
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        shift = tuple([sum(map(mul, exps, col)) for col in self.columns])
        if rows is None:
            return ((degree, shift, c),)
        room = t_max - degree
        return tuple([(t + degree, tuple(map(add, shift, e)), exact(c * x))
                      for t, e, x in rows if t <= room])


class CechContext:
    """Cover nerve plus transports: the working state of one scenario."""

    def __init__(self, nerve: CoverNerve, bundle: BundleData, order: int):
        self.nerve = nerve
        self.pairs = nerve.pairs
        self.bundle = bundle
        self.order = order
        # memos of derived data; they live and die with this context
        self._substitutions: Dict[Tuple[Pair, bool], Substitution] = {}
        self._exponent_maps: Dict[Tuple[Pair, str], Optional[ExponentMap]] = {}
        self._moved: Dict[Tuple[Pair, str],
                          Tuple[Optional[ExponentMap], Dict[Exponent, Tuple[Tuple, ...]]]] = {}
        self._patterns: Dict[Tuple[Pair, str], List[List[List[Tuple]]]] = {}
        self._cofaces: Dict[int, Dict[Tuple[int, ...], List[Tuple]]] = {}
        self._window_exponents: Dict[Tuple, List[Exponent]] = {}
        self._delta_maps: Dict[Tuple, Tuple[List[Tuple], List[Dict]]] = {}
        self._row_ids: Dict[Tuple, int] = {}

    # -- elementary transports (j-frame value to i-frame, (i,j) a stored pair) --

    def _transition(self, pair: Pair) -> ChartTransition:
        if pair not in self.pairs:
            raise FrameMismatch(f"no transport data for overlap {pair}")
        return self.pairs[pair]

    def pullback(self, pair: Pair, value: LaurentPoly, full: bool = False) -> LaurentPoly:
        """Substitute the high chart's coordinates through one memoized ``Substitution``.

        ``full`` substitutes the whole truncated transition F_ij^*, which
        moves functions; otherwise the conormal part is linear, which moves
        Sym^v N^*-valued values.  Each (pair, full) keeps one substitution,
        so variable powers and monomial images are built once per context.
        """
        return self._substitution(pair, full)(value)

    def _substitution(self, pair: Pair, full: bool) -> Substitution:
        sub = self._substitutions.get((pair, full))
        if sub is None:
            tr = self._transition(pair)
            sub = Substitution(tr.ring_low, tr.forward if full else tr.images_ji, self.order)
            self._substitutions[(pair, full)] = sub
        return sub

    def end_to_low(self, pair: Pair, value: PolyMatrix) -> PolyMatrix:
        ring, k = self._transition(pair).ring_low, self.order
        moved = value.map(lambda p: self.pullback(pair, p))
        return ring.matmul(ring.matmul(self.bundle.g[pair], moved, k), self.bundle.g_inv[pair], k)

    def transport(self, pair: Pair, vtype: str, value: PolyMatrix) -> PolyMatrix:
        if vtype == FUNCTION:
            return value.map(lambda p: self.pullback(pair, p, full=True))
        if vtype == SYM_END:
            return self.end_to_low(pair, value)
        raise ValueError(f"unknown value type {vtype!r}")

    def exponent_map(self, pair: Pair, vtype: str) -> Optional[ExponentMap]:
        """The ``ExponentMap`` of the transport of ``pair``, or None, read once.

        The transport substitutes the full images for a ``FUNCTION`` and the
        linear ones for ``SYM_END``.
        """
        key = (pair, vtype)
        if key not in self._exponent_maps:
            self.value_side(vtype)  # refuses any other value type
            tr = self._transition(pair)
            images = tr.forward if vtype == FUNCTION else tr.images_ji
            self._exponent_maps[key] = ExponentMap.of(
                [images.get(name) for name in tr.ring_high.names], tr.ring_low.p)
        return self._exponent_maps[key]

    def moved_monomial(self, pair: Pair, vtype: str, exps: Exponent) -> Tuple[Tuple, ...]:
        """P, the truncated image of the high-frame monomial x^exps, memoized.

        P is returned as (t-degree, exponent, coefficient) rows, the layout
        of the transport pattern's rows.  The memo of each (pair, vtype) is
        kept with the pair's ``ExponentMap``, fetched once when the memo is
        made.  P is read off the map when there is one; the monomial over
        the map's ``rest`` is moved through the pair's ``Substitution`` and
        kept in the same memo, so each distinct one is moved once.  Any
        monomial the map gives up on is read whole from the pullback's memo
        (``Substitution.monomial_image``), which raises ``ValueError`` and
        ``NonInvertibleSubstitution`` on the same monomial as a whole
        substitution would.
        """
        entry = self._moved.get((pair, vtype))
        if entry is None:
            entry = self._moved[(pair, vtype)] = (self.exponent_map(pair, vtype), {})
        emap, memo = entry
        moved = memo.get(exps)
        if moved is None:

            def remainder(rest: Exponent) -> Optional[Tuple[Tuple, ...]]:
                rows = memo.get(rest)
                if rows is None:
                    try:
                        rows = memo[rest] = self._substituted(pair, vtype, rest)
                    except NonInvertibleSubstitution:
                        return None
                return rows

            moved = None if emap is None else emap.moved(exps, self.order, remainder)
            if moved is None:
                moved = self._substituted(pair, vtype, exps)
            memo[exps] = moved
        return moved

    def _substituted(self, pair: Pair, vtype: str, exps: Exponent) -> Tuple[Tuple, ...]:
        """The rows of x^exps moved through the pair's ``Substitution``, term by term."""
        tr = self._transition(pair)
        image = self._substitution(pair, vtype == FUNCTION).monomial_image(tr.ring_high.names, exps)
        p = tr.ring_low.p
        return tuple((sum(e[p:]), e, c) for e, c in image.terms.items())

    def _pattern(self, pair: Pair, vtype: str) -> List[List[List[Tuple]]]:
        """The transport pattern of ``pair``: K[r][c] = [((a, b), rows), ...], row-major in (a, b).

        ``rows`` lists (t-degree, exponent, coefficient) for each term of the
        truncated product g[a][r] . g^-1[c][b], in grlex order, and a zero
        product is left out.  A ``FUNCTION`` has the 1 x 1 pattern of the
        constant 1.
        """
        table = self._patterns.get((pair, vtype))
        if table is None:
            ring = self._transition(pair).ring_low
            if vtype == FUNCTION:
                products = {(0, 0, 0, 0): ring.one()}
            else:
                gm, gi = self.bundle.g[pair], self.bundle.g_inv[pair]
                products = {
                    (r, c, a, b): ring.mul(gm[a, r], gi[c, b], self.order)
                    for r, c, a, b in iproduct(range(self.bundle.rank), repeat=4)
                    if gm[a, r].terms and gi[c, b].terms
                }
            e = self.value_side(vtype)
            table = [[[] for _ in range(e)] for _ in range(e)]
            for (r, c, a, b), k in products.items():
                if k.terms:
                    rows = [(sum(x[ring.p:]), x, y) for x, y in k.sorted_terms()]
                    table[r][c].append(((a, b), rows))
            self._patterns[(pair, vtype)] = table
        return table

    def cofaces(self, simplex: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], int]]:
        """(coface, position of the vertex it adds) for each coface, sorted."""
        size = len(simplex) + 1
        if size not in self._cofaces:
            table: Dict[Tuple[int, ...], List[Tuple]] = {}
            for tau in self.nerve.simplices(size):
                for pos in range(size):
                    table.setdefault(tau[:pos] + tau[pos + 1:], []).append((tau, pos))
            self._cofaces[size] = table
        return self._cofaces[size].get(simplex, [])

    def row_id(self, key: Tuple) -> int:
        """The int that stands for the coordinate key (simplex, entry, exps) in this context."""
        return self._row_ids.setdefault(key, len(self._row_ids))

    # -- value helpers ---------------------------------------------------------------

    def value_side(self, vtype: str) -> int:
        """The side of a value's matrix: 1 for a function, the rank for End E."""
        if vtype == FUNCTION:
            return 1
        if vtype == SYM_END:
            return self.bundle.rank
        raise ValueError(f"unknown value type {vtype!r}")

    def zero_value(self, vtype: str, ring: ChartRing) -> PolyMatrix:
        n = self.value_side(vtype)
        return PolyMatrix.zero(n, n, ring.names)

    def ring_of(self, simplex: Tuple[int, ...]) -> ChartRing:
        if len(simplex) == 1:
            return self.nerve.chart_rings[simplex[0]]
        if len(simplex) == 2:
            return self.nerve.pairs[simplex].ring_low
        if len(simplex) == 3:
            return self.nerve.triple_rings[simplex]
        return self.nerve.chart_rings[simplex[0]]


@dataclass
class CechCochain:
    """Degree 0, 1 or 2 assignment of ``FUNCTION`` or ``SYM_END`` values to nerve simplices."""

    degree: int
    vtype: str
    sdeg: int
    values: Dict[Tuple[int, ...], PolyMatrix]

    def value(self, ctx: CechContext, simplex: Tuple[int, ...]) -> PolyMatrix:
        if simplex in self.values:
            return self.values[simplex]
        return ctx.zero_value(self.vtype, ctx.ring_of(simplex))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def add(self, other: "CechCochain") -> "CechCochain":
        keys = set(self.values) | set(other.values)
        out = {}
        for kk in keys:
            a = self.values.get(kk)
            b = other.values.get(kk)
            if a is None:
                out[kk] = b
            elif b is None:
                out[kk] = a
            else:
                out[kk] = a + b
        return CechCochain(self.degree, self.vtype, self.sdeg, out)

    def neg(self) -> "CechCochain":
        return CechCochain(
            self.degree, self.vtype, self.sdeg,
            {kk: -v for kk, v in self.values.items()},
        )


def cech_differential(ctx: CechContext, c: CechCochain) -> CechCochain:
    """Alternating sum of restrictions, all transported to the lowest frame.

    On each simplex one degree up, the face that drops the first vertex
    moves low through the simplex's leading pair; the face that drops
    vertex ``pos`` > 0 enters with the sign (-1)^pos.
    """
    out = {}
    for tau in ctx.nerve.simplices(c.degree + 2):
        acc = ctx.transport(tau[:2], c.vtype, c.value(ctx, tau[1:]))
        for pos in range(1, len(tau)):
            face = c.value(ctx, tau[:pos] + tau[pos + 1:])
            acc = acc - face if pos % 2 else acc + face
        out[tau] = acc
    return CechCochain(c.degree + 1, c.vtype, c.sdeg, out)


# -- obstruction cochains ---------------------------------------------------------


def transition_defect(ctx: CechContext, G: Dict[Pair, PolyMatrix]) -> Dict[Triple, PolyMatrix]:
    """y_ijh = (G_ij . F_ij^* G_jh - G_ih) . g_ih^-1 on each triple, modulo t^(order+1).

    ``G`` lifts the transitions g of X, one matrix per double in the low
    chart's coordinates, and F_ij^* is the full truncated substitution.
    When G is a cocycle modulo t^k, y has no part of t-degree below k and
    its t^k-part is that of G_ij . F_ij^* G_jh . G_ih^-1 - 1, since G_ih
    g_ih^-1 is 1 plus terms of positive t-degree; so the lifts are never
    inverted.
    """
    k = ctx.order
    out = {}
    for tri in ctx.nerve.triples():
        i, j, h = tri
        ring = ctx.nerve.triple_rings[tri]
        pulled = G[(j, h)].map(lambda p: ctx.pullback((i, j), p, full=True))
        defect = ring.matmul(G[(i, j)], pulled, k) - G[(i, h)]
        out[tri] = ring.matmul(defect, ctx.bundle.g_inv[(i, h)], k)
    return out


def lift_obstruction(ctx: CechContext, G: Dict[Pair, PolyMatrix], k: int) -> CechCochain:
    """o_k, the t^k-part of the transition defect of lifts ``G`` that are cocycles mod t^k.

    The defect is first rechecked to have no part of t-degree below k;
    then -delta(m) = o_k is solvable exactly when (1 + m) . G is a cocycle
    modulo t^(k+1).
    """
    values = {}
    for tri, y in transition_defect(ctx, G).items():
        ring = ctx.nerve.triple_rings[tri]
        low = min((ring.t_degree_min(p) for row in y.entries for p in row if p.terms), default=k)
        if low < k:
            raise NotClosed(
                f"the lifted transitions are not a cocycle modulo t^{k} on {tri}: "
                f"their defect has a part of t-degree {low}"
            )
        values[tri] = y.map(lambda p: ring.t_part(p, k))
    return CechCochain(2, SYM_END, k, values)


def lift_transitions(
    ctx: CechContext, G: Dict[Pair, PolyMatrix], m: CechCochain
) -> Dict[Pair, PolyMatrix]:
    """(1 + m_ij) . G_ij on each double: the lifts one order up, for -delta(m) = o_k of ``G``."""
    lifted = {}
    for pair, g in G.items():
        ring = ctx.pairs[pair].ring_low
        one_plus = PolyMatrix.identity(ctx.bundle.rank, ring.names) + m.value(ctx, pair)
        lifted[pair] = ring.matmul(one_plus, g, ctx.order)
    return lifted


# bench/tracer.py wraps these two by name, so they stay as the first two lift obstructions
def first_order_obstruction(ctx: CechContext) -> CechCochain:
    """o_1 of the transitions g themselves."""
    return lift_obstruction(ctx, ctx.bundle.g, 1)


def second_order_obstruction(ctx: CechContext, m1: CechCochain) -> CechCochain:
    """o_2 of the order-one lifts G_ij = (1 + m1_ij) . g_ij, for -delta(m1) = o_1."""
    return lift_obstruction(ctx, lift_transitions(ctx, ctx.bundle.g, m1), 2)


def transition_log_defect(ctx: CechContext) -> CechCochain:
    """rho_ijh = -log(1 + y_ijh) = log(g_ih / (g_ij . F_ij^* g_jh)), for a rank-one bundle.

    G_ij = g_ij . exp(lambda_ij) is a cocycle modulo t^(order+1) exactly
    when delta(lambda) = rho for the FUNCTION transport.  When the
    transitions form a cocycle on X, y has t-degree >= 1 and the log series
    stops at the working order, which the cochain carries as its ``sdeg``;
    a y with a part of t-degree below 1 has no such log and raises
    ``NotUnipotent`` before the series runs.
    """
    k = ctx.order
    coeff = lambda n: Fraction((-1) ** n, n)
    values = {}
    for tri, y in transition_defect(ctx, ctx.bundle.g).items():
        ring = ctx.nerve.triple_rings[tri]
        low = ring.t_degree_min(y[0, 0])
        if low is not None and low < 1:
            raise NotUnipotent(
                f"the transitions are not a cocycle on X at {tri}: "
                f"their defect has a part of t-degree {low}"
            )
        one = PolyMatrix.identity(1, ring.names)
        values[tri] = _series(ctx.zero_value(FUNCTION, ring), one,
                              lambda m: ring.matmul(m, y, k), coeff, k)
    return CechCochain(2, FUNCTION, k, values)


# -- solving ------------------------------------------------------------------------


# the verdicts of one order; ``h1_oracle`` and ``ProvenNonzero`` come from
# the scenario layer's reading of the cover, never from ``solve_coboundary``
@dataclass
class Solved:
    cochain: CechCochain
    torsor_dim: int
    h1_oracle: Optional[int] = None


@dataclass
class ProvenNonzero:
    class_coordinates: List[Tuple[str, str]]


@dataclass
class UnresolvedWithinWindow:
    window: Tuple[int, int]


def _window_exponents(ctx: CechContext, ring: ChartRing, window: Tuple[int, int]) -> List[Exponent]:
    """Tangential exponents in the window box and the chart ring's cone, grlex, memoized.

    With nonnegative inverted vectors, w is in the cone exactly when each
    negative coordinate of w is positive in some inverted vector, so the
    cone's window is a box: [lo, hi] on such covered coordinates,
    [max(lo, 0), hi] on the others, and empty when one of those has hi < 0.
    """
    key = (ring.p, ring.inverted, tuple(window))
    exps = ctx._window_exponents.get(key)
    if exps is None:
        if any(x < 0 for inv in ring.inverted for x in inv):
            raise ValueError(f"inverted exponents must be nonnegative, got {ring.inverted}")
        lo, hi = window
        covered = [any(inv[t] > 0 for inv in ring.inverted) for t in range(ring.p)]
        bounds = [(lo if cov else max(lo, 0), hi) for cov in covered]
        exps = monomial_window(bounds) if hi >= 0 or all(covered) else []
        ctx._window_exponents[key] = exps
    return exps


def _window_basis(
    ctx: CechContext,
    simplices: Sequence[Tuple[int, ...]],
    vtype: str,
    sdeg: int,
    window: Tuple[int, int],
) -> List[Tuple]:
    """Coordinate keys (simplex, entry, exps) of the window-supported monomials.

    One key per simplex, matrix entry ((0, 0) only for functions), conormal
    monomial of degree ``sdeg`` and allowed tangential exponent, in
    canonical order.
    """
    n = ctx.value_side(vtype)
    entries = list(iproduct(range(n), range(n)))
    basis = []
    for simplex in simplices:
        ring = ctx.ring_of(simplex)
        t_monos = ring.t_monomials(sdeg)
        u_exps = _window_exponents(ctx, ring, window)
        for entry in entries:
            for tm in t_monos:
                for ue in u_exps:
                    basis.append((simplex, entry, tuple(ue) + tuple(tm)))
    return basis


def _assemble_cochain(
    ctx: CechContext, degree: int, vtype: str, sdeg: int, basis, coefficients
) -> CechCochain:
    values: Dict[Tuple[int, ...], PolyMatrix] = {}
    for (simplex, (r, c), exps), coeff in zip(basis, coefficients):
        if coeff == 0:
            continue
        ring = ctx.ring_of(simplex)
        cur = values.get(simplex)
        if cur is None:
            cur = values[simplex] = ctx.zero_value(vtype, ring)
        cur.entries[r][c] = cur.entries[r][c] + ring.monomial(exps, coeff)
    return CechCochain(degree, vtype, sdeg, values)


def _coordinates(value: PolyMatrix) -> Dict[Tuple, Rational]:
    """Flatten a cochain value into (entry, exponent) -> coefficient."""
    out: Dict[Tuple, Rational] = {}
    for r, row in enumerate(value.entries):
        for c, poly in enumerate(row):
            for exps, coeff in poly.sorted_terms():
                out[((r, c), exps)] = coeff
    return out


def cochain_coordinates(c: CechCochain) -> Dict[Tuple, Rational]:
    """Flatten a cochain into (simplex, entry, exponent) -> coefficient."""
    out: Dict[Tuple, Rational] = {}
    for simplex in sorted(c.values):
        for kk, coeff in _coordinates(c.values[simplex]).items():
            out[(simplex,) + kk] = coeff
    return out


_SIGNS = (1, -1)


def _delta_columns(ctx: CechContext, vtype: str, basis) -> List[Dict[int, Rational]]:
    """Coordinates of delta of each elementary cochain: the columns of delta.

    delta of the elementary cochain at (simplex, entry, exps) lives on the
    cofaces of its simplex.  Where the simplex is the face that drops the
    coface's first vertex, the key E_rc . x^exps moves low through the
    coface's leading pair to g . (E_rc . P) . g^-1, with P the moved
    monomial (``CechContext.moved_monomial``).  Its entry (a, b) is P times
    the rows of g[a][r] . g^-1[c][b] in the pair's transport pattern
    (``CechContext._pattern``); t-degrees are >= 0 and only the t-degree is
    truncated, so truncation is a ring map and the product is exact.  A
    one-term P only shifts the rows: grlex order survives a shift, so each
    row goes straight into the column.  A longer P accumulates its products
    and sorts them.  On any other face the key enters itself with the
    alternating sign of the dropped vertex.  Each key is interned by
    ``CechContext.row_id``, so a column maps int row keys to entries.
    Cofaces come in sorted order, and the moved entries row-major with
    their terms sorted, so a column lists its keys as
    ``cochain_coordinates`` of the full differential would.
    """
    ids = ctx._row_ids  # ``CechContext.row_id``, inlined in this loop
    t_max = ctx.order
    columns = []
    last = faces = None
    for simplex, entry, exps in basis:
        if simplex != last:  # the basis lists each simplex's keys together
            last = simplex
            faces = [(coface, _SIGNS[pos % 2], None) if pos else
                     (coface, 0, ctx._pattern(coface[:2], vtype))
                     for coface, pos in ctx.cofaces(simplex)]
        col: Dict[int, Rational] = {}
        for coface, sign, table in faces:
            if sign:
                col[ids.setdefault((coface, entry, exps), len(ids))] = sign
                continue
            moved = ctx.moved_monomial(coface[:2], vtype, exps)
            pattern = table[entry[0]][entry[1]]
            if len(moved) == 1:
                [(t1, e1, c1)] = moved
                room = t_max - t1
                for ab, rows in pattern:
                    for t2, e2, c2 in rows:
                        if t2 <= room:
                            x = c1 * c2
                            if type(x) is not int and x.denominator == 1:
                                x = x.numerator
                            col[ids.setdefault((coface, ab, tuple(map(add, e1, e2))), len(ids))] = x
                continue
            for ab, rows in pattern:
                acc: Dict[Exponent, Rational] = {}
                for t1, e1, c1 in moved:
                    room = t_max - t1
                    for t2, e2, c2 in rows:
                        if t2 <= room:
                            e = tuple(map(add, e1, e2))
                            acc[e] = acc.get(e, 0) + c1 * c2
                for e in sorted(acc, key=grlex_key):
                    x = acc[e]
                    if x:
                        col[ids.setdefault((coface, ab, e), len(ids))] = exact(x)
        columns.append(col)
    return columns


def _delta_map(
    ctx: CechContext,
    vtype: str,
    sdeg: int,
    simplices: Sequence[Tuple[int, ...]],
    window: Tuple[int, int],
) -> Tuple[List[Tuple], List[Dict[int, Rational]]]:
    """The window basis on ``simplices`` and its delta columns, built once per context."""
    key = (vtype, sdeg, tuple(simplices), tuple(window))
    if key not in ctx._delta_maps:
        basis = _window_basis(ctx, simplices, vtype, sdeg, window)
        ctx._delta_maps[key] = (basis, _delta_columns(ctx, vtype, basis))
    return ctx._delta_maps[key]


def _exact_system(columns: List[Dict[int, Rational]], rhs: Dict[int, Rational]) -> ExactLinearSystem:
    """sum_k x_k columns[k] = rhs over every row key.

    The rows are all keys the columns or the right-hand side touch, in
    order of first appearance; the solver's answers do not depend on the
    order of the rows.  Each row is filled straight from the columns'
    entries, so its zeros are never written.
    """
    index: Dict[int, int] = {}
    rows: List[Dict[int, Rational]] = []
    for k, col in enumerate(columns):
        for kk, x in col.items():
            i = index.get(kk)
            if i is None:
                i = index[kk] = len(rows)
                rows.append({})
            rows[i][k] = x
    for kk in rhs:
        if kk not in index:
            index[kk] = len(rows)
            rows.append({})
    return ExactLinearSystem(
        basis=list(range(len(columns))),
        rows=rows,
        rhs=[rhs.get(kk, 0) for kk in index],
    )


def _rank_inside(columns: List[Dict[int, Rational]], inside, kept) -> int:
    """rank([P_out; P_kept] A) - rank(P_out A) for the matrix A of ``columns``.

    P_out keeps the rows whose keys are not in ``inside`` and P_kept the
    rows at ``kept``, a subset of ``inside``.  One walk of the columns
    splits the rows, and one elimination folds the outside rows first, so
    its rank after them is rank(P_out A); the kept rows follow.  Each part
    is folded shortest row first, which leaves the reduced form unchanged.
    """
    inside, kept = set(inside), set(kept)
    outside_rows: Dict[int, Dict[int, Rational]] = {}
    kept_rows: Dict[int, Dict[int, Rational]] = {}
    for k, col in enumerate(columns):
        for kk, x in col.items():
            if kk not in inside:
                outside_rows.setdefault(kk, {})[k] = x
            elif kk in kept:
                kept_rows.setdefault(kk, {})[k] = x
    reduced = _rref(sorted(outside_rows.values(), key=len))
    rank_outside = len(reduced)
    return len(_rref(sorted(kept_rows.values(), key=len), reduced)) - rank_outside


def _im_delta0_inside(
    ctx: CechContext, vtype: str, sdeg: int, window: Tuple[int, int], free: Sequence[int]
) -> int:
    """Dimension of the window-supported part of the coboundary image.

    Chart 0-cochains from the same window are pushed through delta_0.  An
    image lies in the span W of the 1-cochain window basis exactly when its
    coordinates outside W vanish, so with P_out the projection that drops
    W's keys, dim(im delta_0 & W) = rank(delta_0) - rank(P_out delta_0).
    ``free`` indexes the free columns F of the solve of delta_1 on W.  As
    delta_1 delta_0 = 0, im delta_0 & W lies in ker(delta_1 | W), on which
    the projection P_F onto F's keys is injective; so the same dimension is
    rank([P_out; P_F] delta_0) - rank(P_out delta_0), and only the rows at
    F's keys are folded after the outside ones.
    """
    inside, _ = _delta_map(ctx, vtype, sdeg, ctx.nerve.simplices(2), window)
    _, cols = _delta_map(ctx, vtype, sdeg, ctx.nerve.simplices(1), window)
    kept = [inside[f] for f in free]
    return _rank_inside(cols, map(ctx.row_id, inside), map(ctx.row_id, kept))


def _touched_blocks(
    columns: List[Dict[int, Rational]], rhs: Dict[int, Rational]
) -> Tuple[List[int], int]:
    """The columns of the blocks ``rhs`` touches, ascending, and the system's row count.

    The system sum_k x_k columns[k] = rhs splits into blocks, the
    connected parts of the graph that joins each column to its row keys.
    A walk from ``rhs``'s keys through a row -> columns index collects the
    columns of the blocks it touches.  The row count is that of the whole
    system: every key of the columns and of ``rhs``, as ``_exact_system``
    of all the columns has.
    """
    by_row: Dict[int, List[int]] = {}
    for k, col in enumerate(columns):
        for kk in col:
            by_row.setdefault(kk, []).append(k)
    constraints = len(by_row) + sum(1 for kk in rhs if kk not in by_row)
    seen, stack, kept = set(rhs), list(rhs), set()
    while stack:
        for k in by_row.get(stack.pop(), ()):
            if k not in kept:
                kept.add(k)
                for kk in columns[k]:
                    if kk not in seen:
                        seen.add(kk)
                        stack.append(kk)
    return sorted(kept), constraints


@dataclass
class DeltaSolve:
    """What ``solve_delta`` found.

    ``unknowns`` and ``constraints`` count the whole window system.
    ``solution`` is that of the columns eliminated, all of them or the
    ascending touched ones, and ``cochain`` is x, None when the system is
    inconsistent.
    """

    unknowns: int
    constraints: int
    solution: Solution
    cochain: Optional[CechCochain]


def solve_delta(
    ctx: CechContext,
    rhs: CechCochain,
    sdegs: Sequence[int],
    window: Tuple[int, int],
    touched_only: bool = False,
) -> DeltaSolve:
    """Solve delta(x) = rhs for x on the window monomials of the conormal degrees ``sdegs``.

    The columns are the memoized delta columns of each degree in turn, on
    the simplices one degree below ``rhs``.  With ``touched_only`` only the
    blocks that ``rhs`` touches are eliminated (``_touched_blocks``): the
    reduced echelon form of a block-diagonal system is the union of its
    blocks' forms, and a block of zero right-hand side is consistent with
    particular part 0, so the verdict and x are those of the whole system,
    but its free columns are not all seen.  A solution is assembled into
    the cochain x, which carries ``rhs.sdeg``, and rechecked with the full
    differential; a nonzero residual raises ``NotClosed``.
    """
    simplices = ctx.nerve.simplices(rhs.degree)
    basis, columns = [], []
    for sdeg in sdegs:
        sdeg_basis, sdeg_columns = _delta_map(ctx, rhs.vtype, sdeg, simplices, window)
        basis += sdeg_basis
        columns += sdeg_columns
    unknowns = len(basis)
    b = {ctx.row_id(kk): x for kk, x in cochain_coordinates(rhs).items()}
    if touched_only:
        kept, constraints = _touched_blocks(columns, b)
        basis = [basis[k] for k in kept]
        columns = [columns[k] for k in kept]
    system = _exact_system(columns, b)
    if not touched_only:
        constraints = len(system.rows)
    sol = solve_exact(system)
    if not sol.consistent:
        return DeltaSolve(unknowns, constraints, sol, None)
    x = _assemble_cochain(ctx, rhs.degree - 1, rhs.vtype, rhs.sdeg, basis, sol.particular)
    if not cech_differential(ctx, x).add(rhs.neg()).is_zero():
        raise NotClosed("solver produced a nonzero residual; the right-hand side is not closed")
    return DeltaSolve(unknowns, constraints, sol, x)


def solve_coboundary(ctx: CechContext, target: CechCochain, window: Tuple[int, int]):
    """Solve -delta(m) = target for a window-supported 1-cochain m.

    On success the residual is rechecked to be exactly zero and the torsor
    dimension (window kernel of delta modulo window coboundaries) is
    reported: the solve's free columns less dim(im delta_0 & W), counted
    on those columns by ``_im_delta0_inside``.  That count requires
    delta_1 delta_0 = 0 on the context, which validation guarantees (the
    chart and bundle cocycles and ``bundle_on_base`` on every triple; a
    nerve without triples has delta_1 = 0).  Otherwise the window is
    reported as insufficient: this is a pure solve, and reading a failure
    as a proof is left to the caller.
    """
    solved = solve_delta(ctx, target.neg(), [target.sdeg], window)
    if solved.cochain is None:
        return UnresolvedWithinWindow(window)
    free = solved.solution.free
    exact_dim = _im_delta0_inside(ctx, target.vtype, target.sdeg, window, free)
    return Solved(solved.cochain, len(free) - exact_dim)
