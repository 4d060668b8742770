"""The paper's first-order formula c_1 = a^1 . At, kept as a reference for o_1.

a^1 is the t-degree-one tangential part of the logarithm of each overlap's
unipotent discrepancy, a Hom(Omega^1, N^*)-valued 1-cochain.  At is the
Omega^1 (x) End E-valued 1-cochain of differences of local connections:
nabla_i - nabla_j in chart i's frame, zero connection forms by default.
Their cup product a^1_ij . At_jh is a Sym^1 N^* (x) End E 2-cochain, which
the tests compare with ``cech.lift_obstruction`` at order one.

Form values are tuples over the du_b, so they get their own transports
and their own delta here.  The Jacobians come from
``test_delta_assembly.linear_part_oracle``, so no engine Jacobian is
checked against itself.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from nbhdext.cech import SYM_END, CechCochain
from nbhdext.filtered import contract, induced_transition, log_unipotent
from nbhdext.linsolve import PolyMatrix

FORM_END = "form_end"        # Omega^1 (x) End E    : tuple over du_b of PolyMatrix
HOMFORM_SYM = "homform_sym"  # Hom(Omega^1, Sym^s): tuple over du_b of polys


@dataclass
class FormCochain:
    """A cochain of one of the two form types: a tuple over the du_b on every simplex."""

    degree: int
    vtype: str
    values: Dict[Tuple[int, ...], tuple]

    def is_zero(self) -> bool:
        return all(x.is_zero() for v in self.values.values() for x in v)


def jacobians(ctx, pair):
    """(du^j = J du^i over ring_i, du^i = K du^j over ring_j) of one overlap."""
    # imported here: test_delta_assembly imports test_lift, which imports this module
    from test_delta_assembly import linear_part_oracle

    data = linear_part_oracle(ctx.pairs[pair])
    return data["jac_ji"], data["jac_ij"]


def form_end_to_low(ctx, pair, value: Sequence[PolyMatrix]) -> Tuple[PolyMatrix, ...]:
    """Pull each du^j_b-coefficient back, re-index it over the du^i_c and conjugate by g."""
    ring = ctx.pairs[pair].ring_low
    moved = [m.map(lambda p: ctx.pullback(pair, p)) for m in value]
    jac, _ = jacobians(ctx, pair)
    reindexed = [
        contract(ring, [jac[b, c] for b in range(ring.p)], moved, ctx.order)
        for c in range(ring.p)
    ]
    gm, gi = ctx.bundle.g[pair], ctx.bundle.g_inv[pair]
    return tuple(ring.matmul(ring.matmul(gm, m, ctx.order), gi, ctx.order) for m in reindexed)


def homform_to_low(ctx, pair, value):
    """Contract with du^i_c = K[c][b] du^j_b in the high frame, then pull back."""
    geom = ctx.pairs[pair]
    _, back = jacobians(ctx, pair)
    out = []
    for c in range(geom.ring_low.p):
        acc = geom.ring_high.zero()
        for b in range(geom.ring_high.p):
            acc = acc + geom.ring_high.mul(back[c, b], value[b], ctx.order)
        out.append(ctx.pullback(pair, acc))
    return tuple(out)


TRANSPORTS = {FORM_END: form_end_to_low, HOMFORM_SYM: homform_to_low}


def form_differential(ctx, c: FormCochain) -> FormCochain:
    """The alternating coface sum of ``cech_differential``, componentwise over the du_b."""
    out = {}
    for tau in ctx.nerve.simplices(c.degree + 2):
        acc = TRANSPORTS[c.vtype](ctx, tau[:2], c.values[tau[1:]])
        for pos in range(1, len(tau)):
            face = c.values[tau[:pos] + tau[pos + 1:]]
            acc = tuple(a - f if pos % 2 else a + f for a, f in zip(acc, face))
        out[tau] = acc
    return FormCochain(c.degree + 1, c.vtype, out)


def transition_log(ctx, pair):
    """log of the overlap's unipotent discrepancy, a pair derivation in chart i's frame."""
    return log_unipotent(induced_transition(ctx.pairs[pair], ctx.order))


def kodaira_spencer(ctx, degree: int) -> FormCochain:
    """a^s: the t-degree-s parts of the tangential images of each transition log."""
    values = {}
    for pair in ctx.nerve.doubles():
        ring = ctx.pairs[pair].ring_low
        values[pair] = tuple(ring.t_part(img, degree) for img in transition_log(ctx, pair).u_images)
    return FormCochain(1, HOMFORM_SYM, values)


def atiyah(ctx, gammas: Optional[Sequence[Sequence[PolyMatrix]]] = None) -> FormCochain:
    """nabla_i - nabla_j on each overlap, in chart i's frame, for per-chart forms ``gammas``.

    The high chart's forms move tensorially and then pick up the
    inhomogeneous term -dg . g^-1.  Without ``gammas`` every form is zero.
    """
    if not gammas:
        e = ctx.bundle.rank
        gammas = [[PolyMatrix.zero(e, e, ring.names) for _ in range(ring.p)]
                  for ring in ctx.nerve.chart_rings]
    values = {}
    for pair in ctx.nerve.doubles():
        ring = ctx.pairs[pair].ring_low
        gm, gi = ctx.bundle.g[pair], ctx.bundle.g_inv[pair]
        moved = form_end_to_low(ctx, pair, gammas[pair[1]])
        values[pair] = tuple(
            low - (form - ring.matmul(gm.map(lambda p: p.diff(name)), gi, ctx.order))
            for low, form, name in zip(gammas[pair[0]], moved, ring.u_names)
        )
    return FormCochain(1, FORM_END, values)


def cup(ctx, a1: FormCochain, at: FormCochain) -> CechCochain:
    """a^1_ij . At_jh on each triple, in the lowest frame."""
    values = {}
    for i, j, h in ctx.nerve.triples():
        ring = ctx.pairs[(i, j)].ring_low
        at_moved = form_end_to_low(ctx, (i, j), at.values[(j, h)])
        values[(i, j, h)] = contract(ring, a1.values[(i, j)], at_moved, ctx.order)
    return CechCochain(2, SYM_END, 1, values)


def first_order_cup(ctx, gammas=None) -> CechCochain:
    """The first-order cup product a^1 . At for connection forms ``gammas`` (zero by default)."""
    return cup(ctx, kodaira_spencer(ctx, 1), atiyah(ctx, gammas))
