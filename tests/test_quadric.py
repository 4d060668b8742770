"""The smooth quadric Q = {X0 X3 = X1 X2} in P^3 with the line bundles O(a, b).

Q is P^1 x P^1 through X0 = s0 t0, X1 = s0 t1, X2 = s1 t0, X3 = s1 t1.  Its
first-order neighborhood is not split, unlike every builtin.  O(a, a) is
O_P3(a) restricted, so it extends to every order; O(a, b) with a != b
does not even extend to first order, because the conormal sequence maps
c1(L) to a nonzero class in H^2(N^*) unless L is a multiple of the
hyperplane class.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from nbhdext import scenarios
from nbhdext.cech import (
    SYM_END,
    CechCochain,
    Solved,
    UnresolvedWithinWindow,
    cech_differential,
    transition_log_defect,
)
from nbhdext.errors import NotUnipotent
from nbhdext.filtered import ChartRing
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix
from nbhdext.scenarios import (
    OverlapSpec,
    Scenario,
    TripleSpec,
    build_context,
    run_pipeline,
    solve_abelianized,
    validate_scenario,
)

U_NAMES, T_NAMES = ("u1", "u2"), ("t1",)
NAMES = U_NAMES + T_NAMES
MAX_ORDER = 3
# chart k is X_k != 0 with u = (X_a, X_b) and t = X_c - X_a X_b
AXES = {0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 3, 1), 3: (1, 2, 0)}


def on_x(k, m):
    """Exponent over u of X_m restricted to Q, in chart k."""
    a, b, c = AXES[k]
    return {k: (0, 0), a: (1, 0), b: (0, 1), c: (1, 1)}[m]


def coordinates(k):
    """X_0..X_3 over chart k."""
    a, b, c = AXES[k]
    u1, u2, t = (LaurentPoly.variable(NAMES, n) for n in NAMES)
    return {k: LaurentPoly.const(NAMES, 1), a: u1, b: u2, c: t + u1 * u2}


def chart_images(low, high):
    """Chart ``high``'s coordinates over chart ``low``, truncated at MAX_ORDER."""
    ring = ChartRing(U_NAMES, T_NAMES, (on_x(low, high),))
    X = coordinates(low)
    inv = ring.invert_trunc(X[high], MAX_ORDER)
    a, b, c = AXES[high]
    u1, u2 = (ring.mul(X[m], inv, MAX_ORDER) for m in (a, b))
    t = ring.mul(X[c], inv, MAX_ORDER) - ring.mul(u1, u2, MAX_ORDER)
    return (u1, u2), (t,)


def transition(i, j, a, b):
    """g_ij of O(a, b): (s1/s0)^a and (t1/t0)^b between the frames, over chart i on Q."""
    ds, dt = a * (j // 2 - i // 2), b * (j % 2 - i % 2)
    exps = tuple(
        ds * (x2 - x0) + dt * (x1 - x0)
        for x0, x1, x2 in zip(on_x(i, 0), on_x(i, 1), on_x(i, 2))
    )
    return PolyMatrix([[LaurentPoly.monomial(NAMES, exps + (0,))]])


def quadric_scenario(a, b):
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    overlaps = []
    for i, j in pairs:
        fwd_u, fwd_t = chart_images(i, j)
        bwd_u, bwd_t = chart_images(j, i)
        overlaps.append(
            OverlapSpec((i, j), {i: (on_x(i, j),), j: (on_x(j, i),)}, fwd_u, fwd_t, bwd_u, bwd_t)
        )
    triples = [
        TripleSpec((i, j, h), (on_x(i, j), on_x(i, h)))
        for i in range(4) for j in range(i + 1, 4) for h in range(j + 1, 4)
    ]
    zero_conn = [PolyMatrix.zero(1, 1, NAMES) for _ in U_NAMES]
    return Scenario(
        name=f"quadric_{a}_{b}",
        p=2,
        q=1,
        e=1,
        max_order=MAX_ORDER,
        charts_inverted=[()] * 4,
        overlaps=overlaps,
        triples=triples,
        g={(i, j): transition(i, j, a, b) for i, j in pairs},
        gammas=[list(zero_conn) for _ in range(4)],
        flat=[True] * 4,
        window=(-4, 4),
    )


def test_quadric_presentation_is_valid():
    s = quadric_scenario(1, 1)
    assert validate_scenario(s).ok
    # the A -> B transition of chart X0 = 1 to chart X1 = 1
    (u1, u2), (t,) = s.overlaps[0].forward_u, s.overlaps[0].forward_t
    assert u1 == LaurentPoly(NAMES, {(-1, 0, 0): 1})
    assert u2 == LaurentPoly(NAMES, {(0, 1, 0): 1, (-1, 0, 1): 1})
    assert t == LaurentPoly(NAMES, {(-2, 0, 1): -1})


def test_log_defect_exponentiates_to_the_transition_ratio():
    # exp(rho_ijh) . g_ij . F_ij^* g_jh = g_ih modulo t^3, with F_ij^* the full substitution
    s = quadric_scenario(1, 1)
    ctx = build_context(s, 2)
    rho = transition_log_defect(ctx)
    by_pair = {o.pair: o for o in s.overlaps}
    for (i, j, h), matrix in rho.values.items():
        value = matrix[0, 0]
        ring = ctx.nerve.triple_rings[(i, j, h)]
        o = by_pair[(i, j)]
        forward = dict(zip(NAMES, o.forward_u + o.forward_t))
        pulled = ring.subst_trunc(s.g[(j, h)][0, 0], forward, 2)
        exp_rho = ring.one() + value + ring.mul(value, value, 2) * Fraction(1, 2)
        lhs = ring.mul(ring.mul(exp_rho, s.g[(i, j)][0, 0], 2), pulled, 2)
        assert lhs == s.g[(i, h)][0, 0]
    assert not rho.is_zero()


def test_log_defect_refuses_transitions_that_are_no_cocycle_on_x():
    # doubling g_01 makes y_01h = 2 . g_01 . F^* g_1h . g_0h^-1 - 1 = 1 on X, which has no log
    s = quadric_scenario(1, 1)
    s.g[(0, 1)] = s.g[(0, 1)].scale(Fraction(2))
    for order in (1, 2):
        with pytest.raises(NotUnipotent):
            transition_log_defect(build_context(s, order))


@pytest.mark.parametrize(
    "a, b, exact",
    [(1, 1, True), (2, 2, True), (-1, -1, True), (1, 0, False), (2, -1, False)],
)
def test_rank_one_system_decides_extension_on_the_quadric(a, b, exact):
    bundle = run_pipeline(quadric_scenario(a, b), k=2)
    assert bundle.abelianized["exact"] is exact


def test_builtin_sweep_flags_an_inexact_rank_one_system():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_builtins.py"
    spec = importlib.util.spec_from_file_location("run_builtins", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.problems_of(run_pipeline(quadric_scenario(1, 0), k=2)) == [
        "abelianized rank-one system not exact"
    ]


@pytest.mark.parametrize("a, b, exact", [(1, 1, True), (2, 2, True), (1, 0, False)])
def test_rank_one_system_decides_order_three_on_the_quadric(a, b, exact):
    result = solve_abelianized(build_context(quadric_scenario(a, b), 3), (-4, 4))
    assert result["exact"] is exact


def test_order_two_closedness_verified_on_the_quadric():
    # o_2 is the defect of lifted transitions, so it is closed on a non-split neighborhood too
    for a, b in [(1, 1), (2, 2)]:
        first, second = run_pipeline(quadric_scenario(a, b), k=2).reports
        assert first.closedness == second.closedness == "verified", (a, b)
        assert isinstance(second.status, Solved), (a, b)


def test_unclosed_order_two_gets_no_certificate(monkeypatch):
    # a certificate that certifies every target it is given, and an order-two
    # target made unclosed by one elementary cochain: only the closedness guard
    # keeps it from being reported proven nonzero
    lifted = scenarios.lift_obstruction

    def unclosed(ctx, G, k):
        if k != 2:
            return lifted(ctx, G, k)
        ring = ctx.nerve.triple_rings[(0, 1, 2)]
        bump = CechCochain(2, SYM_END, 2, {(0, 1, 2): PolyMatrix([[ring.monomial((0, 0, 2))]])})
        assert ctx.nerve.quadruples() and not cech_differential(ctx, bump).is_zero()
        return lifted(ctx, G, k).add(bump)

    monkeypatch.setattr(scenarios, "lift_obstruction", unclosed)
    monkeypatch.setattr(
        scenarios, "h2_weight_test", lambda cover, c2: [("any", "1")]
    )
    first, second = run_pipeline(quadric_scenario(1, 1), k=2).reports
    assert isinstance(first.status, Solved)
    assert second.closedness == "FAILED"
    assert isinstance(second.status, UnresolvedWithinWindow)
    assert any("no nonzero certificate was tried" in note for note in second.notes)
