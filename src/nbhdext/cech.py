"""Cech cochains on a cover nerve, the transition lift and its obstructions.

A cochain value is a ``PolyMatrix``, stored in the frame of its
simplex's smallest chart index: e x e for ``SYM_END`` and 1 x 1 for a
``FUNCTION``, so the value type only chooses the transport.  The
obstruction o_k is the t^k-part of the cocycle defect (G_ij . F_ij^* G_jh
- G_ih) . g_ih^-1 of transitions lifted order by order, G <- (1 + m) . G
with -delta(m) = o_n; for a rank-one bundle the log of the same defect
gives one linear system: G_ij = g_ij exp(lambda_ij) is a cocycle modulo
t^(k+1) exactly when delta(lambda) = rho.  No connection enters: the
paper's first-order formula c_1 = a^1 . At is kept in
``tests/cup_oracle.py``, where the tests check that it equals o_1.  The
nerve holds each overlap as its ``filtered.ChartTransition``, whose low
ring is the ring of the double and which reads its images keyed by name,
their linear part and the conormal matrix off itself on first use.
Values move to a lower frame through one ``Transport`` per overlap and
value type, made on first use by ``CechContext.transport_of``; the
defect, ``CechContext.transport`` and the delta columns all read it.  It
substitutes the high chart's coordinates through one memoized
``filtered.Substitution``: for Sym^v N^*-valued End E data the linear
(conormal) part of the chart transition, then conjugated by the bundle
transitions, and for functions the full truncated transition F_ij^*.
delta is one alternating walk over ``CoverNerve.simplices``: on each
simplex the face that drops the first vertex is transported, the others
enter with their signs.  The columns of delta are read off the cofaces of
one simplex at a time, from the same simplices, and each column is
linear in one substitution: a window monomial is moved once by its
coface's ``Transport`` and multiplied by its transport pattern, the rows
of g[a][r] . g^-1[c][b] for each target entry.  The part of a monomial
over the transport's one-term images is one term read off an integer
matrix, with no polynomial built; the part over its other images, its
``rest``, is moved through the ``Substitution`` once per distinct part.
When every image is one term, as every linear transport of the shipped
scenarios is, the moved monomial is one term and the pattern's rows are
shifted by it straight into the column.  A transport with a missing image
or a term of negative t-degree, or none of one term, moves each monomial
through its ``Substitution``.  Each coordinate key (simplex, entry, exps)
is interned to an int once per context, so the columns, the rows of the
system and the torsor split compare ints.
``_solved`` is the one solve and residual recheck behind both the
obstruction solves and the rank-one system; whole cochains and those
rechecks move through ``transport``.  Both solve only the blocks of the
system that the right-hand side touches: ``_walk`` goes from its rows to
the window columns that meet them, on to those columns' rows and on.
``solve_delta``, the rank-one system's solve, builds only the columns
the walk reaches.
``preimages`` names the columns that meet a row: a face that enters
itself gives one key, kept when it is in the window box, and the
transported face reads an index of the face's window keys by the rows
they reach (``_moved_rows``): the exponents of ``Transport.moved`` for a
function, the rows on the coface of their ``_delta_columns`` columns for
End E.  So ``Transport.moved`` is the one reader of a moved monomial and
``_delta_columns`` the one place it is multiplied by the pattern.  The
walked columns keep the window basis's order, so the verdict and x are
those of the whole system.  ``system_size`` counts the whole system's
unknowns and rows for the rank-one report in one pass that fills the
same index; it warms the memo of ``Transport.moved``, which the walked
columns then read.
``solve_coboundary`` only solves: it returns ``Solved`` or
``UnresolvedWithinWindow``, and the cohomology oracle and the nonzero
certificate are read by the caller.  It builds delta_1's map only on the
doubles that are a face of some triple: a window key on any other double
is a zero column, free with no column built, so a nerve without triples
builds no delta_1 map at all.  It walks that map's own rows from the
right-hand side; a zero right-hand side reaches none and has x = 0 with
no elimination.  Its torsor count folds the rows the walk did not reach
into the solve's reduced form to see every free column, then folds
delta_0's rows outside the window basis W and only those at the free
columns.  ``lift_transitions`` keeps G_ij where m has no value.
All assembly is canonical: simplices, matrix entries and monomials are
walked in sorted order, so reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product as iproduct
from math import comb, prod
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


class CechContext:
    """Cover nerve plus transports: the working state of one scenario."""

    def __init__(self, nerve: CoverNerve, bundle: BundleData, order: int):
        self.nerve = nerve
        self.pairs = nerve.pairs
        self.bundle = bundle
        self.order = order
        # memos of derived data; they live and die with this context
        self._transports: Dict[Tuple[Pair, str], Transport] = {}
        self._cofaces: Dict[int, Dict[Tuple[int, ...], List[Tuple]]] = {}
        self._window_monomials: Dict[Tuple, List[Exponent]] = {}
        self._delta_maps: Dict[Tuple, Tuple[List[Tuple], List[Dict]]] = {}
        self._moved_rows: Dict[Tuple, Dict[Pair, Dict[Exponent, List[Tuple]]]] = {}
        self._row_ids: Dict[Tuple, int] = {}
        self._row_keys: List[Tuple] = []
        self._unlifted_defect: Optional[Dict[Triple, PolyMatrix]] = None

    def transport_of(self, pair: Pair, vtype: str) -> "Transport":
        """The ``Transport`` of ``vtype`` values across the stored pair ``pair``, made once."""
        key = (pair, vtype)
        tr = self._transports.get(key)
        if tr is None:
            tr = self._transports[key] = Transport(self, pair, vtype)
        return tr

    def transport(self, pair: Pair, vtype: str, value: PolyMatrix) -> PolyMatrix:
        return self.transport_of(pair, vtype)(value)

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

    def row_key(self, i: int) -> Tuple:
        """The coordinate key that the int ``i`` stands for: ids are handed out in order.

        The keys interned since the last call are read off the end of the
        id dict, so each key is listed once per context.
        """
        keys, ids = self._row_keys, self._row_ids
        if i >= len(keys):
            keys.extend(reversed(list(islice(reversed(ids), len(ids) - len(keys)))))
        return keys[i]

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


class Transport:
    """Values of one type moved across one overlap (i, j), from the j frame to the i frame.

    ``substitution`` is the memoized ``Substitution`` of the high chart's
    coordinates by their linear images for ``SYM_END`` and by their full
    images F_ij^* for a ``FUNCTION``; an End E value is then conjugated by
    g_ij.  ``moved``, the one reader of a moved monomial, gives the
    truncated image of one monomial as (t-degree, exponent, coefficient)
    rows, the layout of the rows of ``pattern``: K[r][c] = [((a, b),
    rows), ...], row-major in (a, b), lists the terms of the truncated
    product g[a][r] . g^-1[c][b] in grlex order, a zero product left out;
    a ``FUNCTION`` has the 1 x 1 pattern of the constant 1.

    Where the image of variable i is one term c_i . x^(E_i) of t-degree
    d_i >= 0, the image of x^e is prod c_i^(e_i) . x^(sum e_i E_i), of
    t-degree sum e_i d_i: the exponents move by an integer matrix, as on
    toric charts.  ``rest`` indexes the variables whose image has several
    terms.  ``columns[j]`` holds coordinate j of every E_i and ``inverses``
    each 1/c_i under the exact-number rule, with d_i = 0, E_i = 0 and
    c_i = 1 standing in for the ``rest``; ``scaled`` indexes the images
    whose coefficient is not 1 and ``positive`` those of positive
    t-degree.  ``exponents`` is False, and every monomial moves through
    the substitution, when an image is missing or has a term of negative
    t-degree, or when no image is one term.
    """

    def __init__(self, ctx: CechContext, pair: Pair, vtype: str):
        side = ctx.value_side(vtype)  # refuses any other value type
        if pair not in ctx.pairs:
            raise FrameMismatch(f"no transport data for overlap {pair}")
        tr = ctx.pairs[pair]
        ring = tr.ring_low
        images = tr.forward if vtype == FUNCTION else tr.images_ji
        self.substitution = Substitution(ring, images, ctx.order)
        self.t_max, self.names, self.p = ctx.order, tr.ring_high.names, ring.p
        self._moved: Dict[Exponent, Tuple[Tuple, ...]] = {}
        if vtype == FUNCTION:
            self.frame = None
            products = {(0, 0, 0, 0): ring.one()}
        else:
            gm, gi = ctx.bundle.g[pair], ctx.bundle.g_inv[pair]
            self.frame = (ring, gm, gi)
            products = {
                (r, c, a, b): ring.mul(gm[a, r], gi[c, b], ctx.order)
                for r, c, a, b in iproduct(range(side), repeat=4)
                if gm[a, r].terms and gi[c, b].terms
            }
        self.pattern: List[List[List[Tuple]]] = [[[] for _ in range(side)] for _ in range(side)]
        for (r, c, a, b), k in products.items():
            if k.terms:
                rows = [(sum(x[ring.p:]), x, y) for x, y in k.sorted_terms()]
                self.pattern[r][c].append(((a, b), rows))
        self._read_exponents([images.get(name) for name in self.names])

    def _read_exponents(self, images: Sequence[Optional[LaurentPoly]]) -> None:
        terms, rest = [], []
        for i, image in enumerate(images):
            if image is None or any(sum(e[self.p:]) < 0 for e in image.terms):
                self.exponents = False
                return
            if len(image.terms) == 1:
                [(e, c)] = image.terms.items()
                [inverse] = image.inverse_monomial().terms.values()
                terms.append((sum(e[self.p:]), e, c, inverse))
            else:
                rest.append(i)
                terms.append((0, (0,) * len(image.vars), 1, 1))
        self.exponents = len(rest) < len(terms)
        if self.exponents:
            self.degrees, exps, self.coefficients, self.inverses = zip(*terms)
            self.columns = tuple(zip(*exps))
            self.scaled = tuple(i for i, c in enumerate(self.coefficients) if c != 1)
            self.positive = tuple(i for i, d in enumerate(self.degrees) if d)
            self.rest = tuple(rest)

    def __call__(self, value: PolyMatrix) -> PolyMatrix:
        """``value`` in the low frame: substituted, and for End E conjugated by g_ij."""
        moved = value.map(self.substitution)
        if self.frame is None:
            return moved
        ring, g, g_inv = self.frame
        return ring.matmul(ring.matmul(g, moved, self.t_max), g_inv, self.t_max)

    def moved(self, exps: Exponent) -> Tuple[Tuple, ...]:
        """P, the truncated image of the high-frame monomial x^exps, memoized.

        P is read by exponent arithmetic where it can be
        (``_by_exponents``); otherwise the whole monomial is read from the
        substitution's memo (``Substitution.monomial_image``), which raises
        ``ValueError`` and ``NonInvertibleSubstitution`` on the same
        monomial as a whole substitution would.
        """
        rows = self._moved.get(exps)
        if rows is None:
            rows = self._by_exponents(exps) if self.exponents else None
            if rows is None:
                rows = self._substituted(exps)
            self._moved[exps] = rows
        return rows

    def _substituted(self, exps: Exponent) -> Tuple[Tuple, ...]:
        image = self.substitution.monomial_image(self.names, exps)
        return tuple((sum(e[self.p:]), e, c) for e, c in image.terms.items())

    def _by_exponents(self, exps: Exponent) -> Optional[Tuple[Tuple, ...]]:
        """The rows of P read off the exponent arithmetic, or None.

        With no exponent on ``rest`` P is one row, or none when its t-degree
        exceeds ``t_max``: with every e_i d_i >= 0 the partial products of a
        substitution only grow in t-degree, so this is what the truncated
        substitution keeps.  Otherwise the monomial over ``rest`` is moved
        through the substitution and kept in the same memo as P, so each
        distinct one is moved once; its rows are shifted by the one-term
        part and truncated again.  Truncation is a ring map on polynomials
        of t-degree >= 0, so that is P.  None leaves the whole monomial to
        the substitution: for a negative power of an image of positive
        t-degree, which is not invertible, for a ``rest`` part that raises
        ``NonInvertibleSubstitution``, and for a one-term part already past
        ``t_max``, whose image is zero unless the whole substitution raises
        first; that is left to the substitution, with no ``rest`` part moved.
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
                if degree > self.t_max:
                    return None
                remaining = tuple(remaining)
                rows = self._moved.get(remaining)
                if rows is None:
                    try:
                        rows = self._moved[remaining] = self._substituted(remaining)
                    except NonInvertibleSubstitution:
                        return None
        if rows is None and degree > self.t_max:
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
        room = self.t_max - degree
        return tuple([(t + degree, tuple(map(add, shift, e)), exact(c * x))
                      for t, e, x in rows if t <= room])


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
        pulled = G[(j, h)].map(ctx.transport_of((i, j), FUNCTION).substitution)
        defect = ring.matmul(G[(i, j)], pulled, k) - G[(i, h)]
        out[tri] = ring.matmul(defect, ctx.bundle.g_inv[(i, h)], k)
    return out


def _defect(ctx: CechContext, G: Dict[Pair, PolyMatrix]) -> Dict[Triple, PolyMatrix]:
    """``transition_defect`` of ``G``, computed once per context for the unlifted ``ctx.bundle.g``.

    Order one's obstruction and the rank-one log defect both read the
    defect of g; neither changes it.
    """
    if G is not ctx.bundle.g:
        return transition_defect(ctx, G)
    if ctx._unlifted_defect is None:
        ctx._unlifted_defect = transition_defect(ctx, G)
    return ctx._unlifted_defect


def lift_obstruction(ctx: CechContext, G: Dict[Pair, PolyMatrix], k: int) -> CechCochain:
    """o_k, the t^k-part of the transition defect of lifts ``G`` that are cocycles mod t^k.

    The defect is first rechecked to have no part of t-degree below k;
    then -delta(m) = o_k is solvable exactly when (1 + m) . G is a cocycle
    modulo t^(k+1).
    """
    values = {}
    for tri, y in _defect(ctx, G).items():
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
    """(1 + m_ij) . G_ij on each double: the lifts one order up, for -delta(m) = o_k of ``G``.

    A double where m has no value keeps G_ij itself, with no product
    formed: the truncated product would only drop terms past t^order,
    which ``transition_defect`` truncates away.
    """
    lifted = {}
    for pair, g in G.items():
        value = m.values.get(pair)
        if value is not None:
            ring = ctx.pairs[pair].ring_low
            g = ring.matmul(PolyMatrix.identity(ctx.bundle.rank, ring.names) + value, g, ctx.order)
        lifted[pair] = g
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
    for tri, y in _defect(ctx, ctx.bundle.g).items():
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


@lru_cache(maxsize=1024)
def _box(p: int, inverted: Tuple[Exponent, ...], lo: int, hi: int) -> Optional[Tuple[Tuple[int, int], ...]]:
    """The window [lo, hi] in the cone of a chart ring: (min, max) per tangential exponent, or None.

    With nonnegative inverted vectors, w is in the cone exactly when each
    negative coordinate of w is positive in some inverted vector, so the
    cone's window is a box: [lo, hi] on such covered coordinates,
    [max(lo, 0), hi] on the others, and empty (None) when one of those has
    hi < 0.
    """
    if any(x < 0 for inv in inverted for x in inv):
        raise ValueError(f"inverted exponents must be nonnegative, got {inverted}")
    covered = [any(inv[t] > 0 for inv in inverted) for t in range(p)]
    if hi < 0 and not all(covered):
        return None
    return tuple((lo if cov else max(lo, 0), hi) for cov in covered)


def _window_monomials(
    ctx: CechContext, ring: ChartRing, sdeg: int, window: Tuple[int, int]
) -> List[Exponent]:
    """The window's exponents of conormal degree ``sdeg`` on one ring: t-monomials, then u, grlex.

    The tangential exponents are those of the window box in the chart
    ring's cone (``_box``).  Memoized; the list is shared, so no caller
    changes it.
    """
    key = (ring.p, ring.q, ring.inverted, sdeg, tuple(window))
    exps = ctx._window_monomials.get(key)
    if exps is None:
        box = _box(ring.p, ring.inverted, *window)
        u_exps = [] if box is None else monomial_window(box)
        exps = ctx._window_monomials[key] = [ue + tm for tm in ring.t_monomials(sdeg)
                                             for ue in u_exps]
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
        exps = _window_monomials(ctx, ctx.ring_of(simplex), sdeg, window)
        for entry in entries:
            basis += [(simplex, entry, e) for e in exps]
    return basis


def _in_basis(
    ctx: CechContext, simplex: Tuple[int, ...], exps: Exponent, sdegs, window: Tuple[int, int]
) -> bool:
    """Whether x^exps on ``simplex`` is a window monomial of one of the conormal degrees ``sdegs``."""
    ring = ctx.ring_of(simplex)
    t_exps = exps[ring.p:]
    if sum(t_exps) not in sdegs or min(t_exps, default=0) < 0:
        return False
    box = _box(ring.p, ring.inverted, *window)
    return box is not None and all(lo <= x <= hi for (lo, hi), x in zip(box, exps))


def _is_simplex(ctx: CechContext, face: Tuple[int, ...]) -> bool:
    return len(face) == 1 or face in ctx.pairs or face in ctx.nerve.triple_rings


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
    monomial (``Transport.moved``).  Its entry (a, b) is P times the rows
    of g[a][r] . g^-1[c][b] in the pair's ``Transport.pattern``; the
    ``Transport`` is fetched once per coface of the simplex.  t-degrees are
    >= 0 and only the t-degree is truncated, so truncation is a ring map
    and the product is exact.  A
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
                     (coface, 0, ctx.transport_of(coface[:2], vtype))
                     for coface, pos in ctx.cofaces(simplex)]
        col: Dict[int, Rational] = {}
        for coface, sign, transport in faces:
            if sign:
                col[ids.setdefault((coface, entry, exps), len(ids))] = sign
                continue
            moved = transport.moved(exps)
            pattern = transport.pattern[entry[0]][entry[1]]
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


def _rows(columns: Sequence[Dict[int, Rational]]) -> Dict[int, Dict[int, Rational]]:
    """Row key -> ``{column: entry}`` of the matrix of ``columns``, keyed in first-seen order.

    Each row is filled straight from the columns' entries, so its zeros are never written.
    """
    rows: Dict[int, Dict[int, Rational]] = {}
    for k, col in enumerate(columns):
        for kk, x in col.items():
            row = rows.get(kk)
            if row is None:
                rows[kk] = {k: x}
            else:
                row[k] = x
    return rows


def _rank_inside(columns: List[Dict[int, Rational]], inside, kept) -> int:
    """rank([P_out; P_kept] A) - rank(P_out A) for the matrix A of ``columns``.

    P_out keeps the rows whose keys are not in ``inside`` and P_kept the
    rows at ``kept``, a subset of ``inside``.  One elimination folds the
    outside rows first, so its rank after them is rank(P_out A); the kept
    rows follow.  Each part is folded shortest row first, which leaves the
    reduced form unchanged.
    """
    inside, kept = set(inside), set(kept)
    outside_rows, kept_rows = [], []
    for kk, row in _rows(columns).items():
        if kk not in inside:
            outside_rows.append(row)
        elif kk in kept:
            kept_rows.append(row)
    reduced = _rref(sorted(outside_rows, key=len))
    rank_outside = len(reduced)
    return len(_rref(sorted(kept_rows, key=len), reduced)) - rank_outside


def _im_delta0_inside(
    ctx: CechContext, vtype: str, sdeg: int, window: Tuple[int, int],
    inside: Sequence[Tuple], free: Sequence[Tuple],
) -> int:
    """Dimension of the window-supported part of the coboundary image.

    Chart 0-cochains from the same window are pushed through delta_0.  An
    image lies in the span W of the 1-cochain window basis, whose keys are
    ``inside``, exactly when its coordinates outside W vanish, so with
    P_out the projection that drops W's keys, dim(im delta_0 & W) =
    rank(delta_0) - rank(P_out delta_0).  ``free`` holds the keys of the
    free columns F of delta_1 on W.  As delta_1 delta_0 = 0, im delta_0 & W
    lies in ker(delta_1 | W), on which the projection P_F onto F's keys is
    injective; so the same dimension is rank([P_out; P_F] delta_0) -
    rank(P_out delta_0), and only the rows at F's keys are folded after
    the outside ones.
    """
    _, cols = _delta_map(ctx, vtype, sdeg, ctx.nerve.simplices(1), window)
    return _rank_inside(cols, map(ctx.row_id, inside), map(ctx.row_id, free))


def _moved_rows(
    ctx: CechContext, tau: Tuple[int, ...], vtype: str, sdeg: int, window: Tuple[int, int]
) -> Dict[Pair, Dict[Exponent, List[Tuple]]]:
    """entry -> exps -> the window keys on tau[1:] whose delta column meets (tau, entry, exps), memoized.

    The keys of conormal degree ``sdeg`` on the face tau[1:] move through
    the transport of tau's leading pair.  A function's pattern is the
    constant 1, so its rows on tau are the exponents of ``Transport.moved``,
    whose memo the columns read later.  An End E key's rows on tau are
    those of its ``_delta_columns`` column, so the index drops exactly the
    terms the columns cancel.
    """
    memo = (tau, vtype, sdeg, tuple(window))
    index = ctx._moved_rows.get(memo)
    if index is None:
        index = ctx._moved_rows[memo] = {}
        basis = _window_basis(ctx, [tau[1:]], vtype, sdeg, window)
        transport = ctx.transport_of(tau[:2], vtype)
        if transport.frame is None:
            for column in basis:
                by_exps = index.setdefault(column[1], {})
                for _, e, _ in transport.moved(column[2]):
                    by_exps.setdefault(e, []).append(column)
        else:
            for column, col in zip(basis, _delta_columns(ctx, vtype, basis)):
                for i in col:
                    simplex, ab, e = ctx.row_key(i)
                    if simplex == tau:
                        index.setdefault(ab, {}).setdefault(e, []).append(column)
    return index


def preimages(
    ctx: CechContext, row: Tuple, vtype: str, sdegs, window: Tuple[int, int]
) -> List[Tuple]:
    """The window basis keys of conormal degrees ``sdegs`` whose delta column has an entry at ``row``.

    ``row`` is a key (tau, entry, exps), and the columns that meet it live
    on the faces of tau.  On a face that drops a vertex other than the
    first the column's key enters itself, so (face, entry, exps) is the one
    candidate, kept when it is a window key.  On tau[1:] the key moves
    through the transport of tau's leading pair, and ``_moved_rows``, an
    index keyed by the moved exponents of that face's window keys, answers:
    a row that only keys outside the window reach gets none.
    """
    tau, entry, exps = row
    out = []
    for pos in range(len(tau)):
        face = tau[:pos] + tau[pos + 1:]
        if not _is_simplex(ctx, face):
            continue
        if pos:
            if _in_basis(ctx, face, exps, sdegs, window):
                out.append((face, entry, exps))
            continue
        for sdeg in sdegs:
            out += _moved_rows(ctx, tau, vtype, sdeg, window).get(entry, {}).get(exps, ())
    return out


def _walk(rows, preimages, column) -> Tuple[Dict, Set]:
    """The columns and rows of the blocks that ``rows`` touch.

    delta(x) = b splits into blocks, the connected parts of the graph that
    joins each column to its rows.  From ``rows`` the walk goes to the
    columns that meet them (``preimages``), on to those columns' rows (the
    keys of ``column(k)``) and on, until nothing new is reached.  Returns
    {column key: column} and the set of rows reached.
    """
    seen, stack, walked = set(rows), list(rows), {}
    while stack:
        for k in preimages(stack.pop()):
            if k not in walked:
                col = walked[k] = column(k)
                for kk in col:
                    if kk not in seen:
                        seen.add(kk)
                        stack.append(kk)
    return walked, seen


def _system(basis: List, columns: Sequence[Dict[int, Rational]], rhs: Dict[int, Rational]):
    """sum_k x_k columns[k] = rhs: one row per key of the columns and of rhs, first seen first."""
    rows = _rows(columns)
    for kk in rhs:
        rows.setdefault(kk, {})
    return ExactLinearSystem(basis, list(rows.values()), [rhs.get(kk, 0) for kk in rows])


@dataclass
class DeltaSolve:
    """What a walked delta solve found.

    ``columns`` holds the keys of the columns the solve numbers, in the
    window basis's order: the walked ones for ``solve_delta``, every key of
    delta_1's map on the faces of triples for ``solve_coboundary``.
    ``rows`` holds the ids of the rows the walk reached, ``solution``
    solves those rows, column k standing for ``columns[k]``, and
    ``cochain`` is x (None when the system is inconsistent).
    """

    columns: List[Tuple]
    rows: Set[int]
    solution: Solution
    cochain: Optional[CechCochain]


def _solved(ctx: CechContext, rhs: CechCochain, columns: List[Tuple], rows: Set[int],
            system: ExactLinearSystem) -> DeltaSolve:
    """Solve ``system`` for delta(x) = rhs on ``columns``, assemble x and recheck its residual."""
    sol = solve_exact(system)
    x = None
    if sol.consistent:
        x = _assemble_cochain(ctx, rhs.degree - 1, rhs.vtype, rhs.sdeg, columns, sol.particular)
        if not cech_differential(ctx, x).add(rhs.neg()).is_zero():
            raise NotClosed("solver produced a nonzero residual; the right-hand side is not closed")
    return DeltaSolve(columns, rows, sol, x)


def solve_delta(
    ctx: CechContext, rhs: CechCochain, sdegs: Sequence[int], window: Tuple[int, int]
) -> DeltaSolve:
    """Solve delta(x) = rhs for x on the window monomials of the conormal degrees ``sdegs``.

    The unknowns are the window basis on the simplices one degree below
    ``rhs``, of each degree in turn, but only the blocks that rhs touches
    are built: ``_walk`` goes from rhs's rows to their ``preimages`` and on,
    building each column it reaches alone.  The reduced echelon form of a
    block-diagonal system is the union of its blocks' forms, and a block
    of zero right-hand side is consistent with particular part 0; the
    columns keep the window basis's order, so the pivots, the verdict and
    x are those of the whole system.  x carries ``rhs.sdeg`` and is
    rechecked with the full differential; a nonzero residual raises
    ``NotClosed``.
    """
    vtype, window = rhs.vtype, tuple(window)
    b = {ctx.row_id(kk): x for kk, x in cochain_coordinates(rhs).items()}
    walked, rows = _walk(b, lambda i: preimages(ctx, ctx.row_key(i), vtype, sdegs, window),
                         lambda k: _delta_columns(ctx, vtype, [k])[0])
    p = ctx.nerve.chart_rings[0].p
    rank = {sdeg: n for n, sdeg in enumerate(sdegs)}
    columns = sorted(walked, key=lambda k: (rank[sum(k[2][p:])], k[0], k[1], k[2][p:],
                                            grlex_key(k[2][:p])))
    return _solved(ctx, rhs, columns, rows, _system(columns, [walked[k] for k in columns], b))


def system_size(
    ctx: CechContext, rhs: CechCochain, sdegs: Sequence[int], window: Tuple[int, int]
) -> Tuple[int, int]:
    """(unknowns, constraints) of the whole window system that ``solve_delta`` walks.

    The unknowns are counted off the window boxes.  The constraints are
    every key of the columns and of rhs, found in one key pass per simplex
    tau one degree above the columns: the faces that enter themselves add
    their window keys, and the face tau[1:] adds the keys of
    ``_moved_rows``, which it fills for ``preimages``.  For a function no
    column is built: the pass moves each window monomial once through
    ``Transport.moved``, whose memo the columns ``solve_delta`` walks read.
    """
    vtype = rhs.vtype
    n = ctx.value_side(vtype)
    entries = list(iproduct(range(n), range(n)))
    unknowns = 0
    for ring in map(ctx.ring_of, ctx.nerve.simplices(rhs.degree)):
        box = _box(ring.p, ring.inverted, *window)
        if box is not None:
            size = prod(hi - lo + 1 for lo, hi in box)
            unknowns += n * n * size * sum(comb(sdeg + ring.q - 1, ring.q - 1) for sdeg in sdegs)
    on: Dict[Tuple[int, ...], Dict[Pair, Set[Exponent]]] = {}
    for tau, entry, exps in cochain_coordinates(rhs):
        on.setdefault(tau, {}).setdefault(entry, set()).add(exps)
    constraints = 0
    for tau in ctx.nerve.simplices(rhs.degree + 1):
        keys = on.get(tau, {})  # entry -> exps of the rows on tau
        for pos in range(len(tau)):
            face = tau[:pos] + tau[pos + 1:]
            if not _is_simplex(ctx, face):
                continue
            for sdeg in sdegs:
                if pos:
                    exps = _window_monomials(ctx, ctx.ring_of(face), sdeg, window)
                    for entry in entries:
                        keys.setdefault(entry, set()).update(exps)
                else:
                    for ab, by_exps in _moved_rows(ctx, tau, vtype, sdeg, window).items():
                        keys.setdefault(ab, set()).update(by_exps)
        constraints += sum(map(len, keys.values()))
    return unknowns, constraints


def solve_coboundary(ctx: CechContext, target: CechCochain, window: Tuple[int, int]):
    """Solve -delta(m) = target for a window-supported 1-cochain m.

    On success the residual is rechecked to be exactly zero and the torsor
    dimension (window kernel of delta modulo window coboundaries) is
    reported: the free columns F less dim(im delta_0 & W), counted on those
    columns by ``_im_delta0_inside`` with W read off the window basis.
    delta_1's map is built only on the doubles that are a face of some
    triple; a window key on any other double is a zero column, free and
    never built, so on a nerve without triples F is all of W.  ``_walk``
    follows the map's rows from the right-hand side; when it reaches none,
    the right-hand side is zero and so is m, with nothing eliminated.  The
    free columns are read once the rows the walk did not reach are folded
    into the solve's reduced form, the whole system's, as no two blocks
    share a column.  The count requires delta_1 delta_0 = 0 on the
    context, which validation guarantees (the chart and bundle cocycles
    and ``bundle_on_base`` on every triple; a nerve without triples has
    delta_1 = 0).  Otherwise the window is reported as insufficient: this
    is a pure solve, and reading a failure as a proof is left to the
    caller.
    """
    vtype, sdeg = target.vtype, target.sdeg
    doubles = ctx.nerve.simplices(target.degree)
    faces = [pair for pair in doubles if ctx.cofaces(pair)]
    basis, columns = _delta_map(ctx, vtype, sdeg, faces, window)
    zero = _window_basis(ctx, [pair for pair in doubles if pair not in faces], vtype, sdeg, window)
    by_row = _rows(columns)
    rhs = target.neg()
    b = {ctx.row_id(kk): x for kk, x in cochain_coordinates(rhs).items()}
    _, rows = _walk(b, lambda i: by_row.get(i, ()), columns.__getitem__)
    m, reduced = CechCochain(rhs.degree - 1, vtype, sdeg, {}), {}
    if rows:
        system = ExactLinearSystem(basis, [by_row.get(i, {}) for i in rows], [b.get(i, 0) for i in rows])
        solved = _solved(ctx, rhs, basis, rows, system)
        if solved.cochain is None:
            return UnresolvedWithinWindow(window)
        m, reduced = solved.cochain, dict(solved.solution.reduced)
    rest = [row for i, row in by_row.items() if i not in rows]
    reduced = _rref(sorted(rest, key=len), reduced)
    free = [key for f, key in enumerate(basis) if f not in reduced] + zero
    exact_dim = _im_delta0_inside(ctx, vtype, sdeg, window, basis + zero, free)
    return Solved(m, len(free) - exact_dim)
