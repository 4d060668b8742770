"""Four-chart integration test: every convention exercised at once.

The cover is a redundant atlas of the projective line sitting inside the
total space of one of its line bundles: charts 2 and 3 are unipotent
recoordinatizations of chart 0, so every transition log is nonzero, the
nerve has a genuine 3-simplex, and the bundle is rank two with
non-diagonal transitions.  The zero section retracts the total space onto
the line, so an extension exists to every order: both obstruction
equations must therefore be solvable, and the obstruction cochains must
be honestly delta-closed on the quadruple.
"""

import hashlib
from fractions import Fraction

import pytest

from nbhdext.cech import (
    Solved,
    UnresolvedWithinWindow,
    cech_differential,
    cochain_coordinates,
    first_order_obstruction,
    lift_obstruction,
    second_order_obstruction,
    solve_coboundary,
)
from nbhdext.filtered import ChartRing, FilteredAutomorphism, exp_nilpotent, log_unipotent
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix
from nbhdext.scenarios import (
    OverlapSpec,
    Scenario,
    TripleSpec,
    build_context,
    run_pipeline,
    validate_scenario,
)

from cup_oracle import first_order_cup, form_differential, kodaira_spencer, transition_log

F = Fraction
NAMES = ("u1", "t1")
K_DATA = 3
M_NORMAL = 2  # the line sits inside the total space of O(2)


def P(terms):
    return LaurentPoly(NAMES, terms)


def plain_ring():
    return ChartRing(("u1",), ("t1",))


def chart_maps():
    """Generator images of each chart's coordinates over chart-0, and inverses."""
    ring = plain_ring()
    u, t = ring.u_var(0), ring.t_var(0)

    ident = {"u1": u, "t1": t}
    flip = {"u1": P({(-1, 0): 1}), "t1": P({(-M_NORMAL, 1): 1})}

    def twist(a, b):
        # unipotent recoordinatization u -> u + a u^2 t, t -> t + b u t^2
        auto = FilteredAutomorphism(
            ring, K_DATA, (u + u * u * t * a,), (t + u * t * t * b,)
        )
        inv = exp_nilpotent(log_unipotent(auto).scaled(-1))
        fwd = {"u1": auto.u_images[0], "t1": auto.t_images[0]}
        bwd = {"u1": inv.u_images[0], "t1": inv.t_images[0]}
        return fwd, bwd

    t2_fwd, t2_bwd = twist(F(1), F(1))
    t3_fwd, t3_bwd = twist(F(-1), F(2))
    M = [ident, flip, t2_fwd, t3_fwd]
    N = [ident, flip, t2_bwd, t3_bwd]
    return M, N


def compose(outer, inner, ring):
    """outer's images with chart-0 variables replaced by inner's images."""
    return {
        name: ring.subst_trunc(img, inner, K_DATA, target=ring)
        for name, img in outer.items()
    }


def four_chart_scenario(d1=1, d2=-1) -> Scenario:
    M, N = chart_maps()
    ring = plain_ring()
    laurent_pairs = {(0, 1), (1, 2), (1, 3)}
    overlaps = []
    for i in range(4):
        for j in range(i + 1, 4):
            fwd = compose(M[j], N[i], ring)
            bwd = compose(M[i], N[j], ring)
            inv = ((1,),) if (i, j) in laurent_pairs else ()
            overlaps.append(
                OverlapSpec(
                    (i, j),
                    {i: inv, j: inv},
                    (fwd["u1"],),
                    (fwd["t1"],),
                    (bwd["u1"],),
                    (bwd["t1"],),
                )
            )

    triples = []
    for tri in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        inv = () if tri == (0, 2, 3) else ((1,),)
        triples.append(TripleSpec(tri, inv))

    # frames: A_0 = 1, A_1 diagonal twists, A_2 and A_3 unipotent shears;
    # every g is a coboundary of the A's, so the cocycle rule is automatic
    one = P({(0, 0): 1})
    zero = P({})
    u = P({(1, 0): 1})

    def mono(k):
        return P({(k, 0): 1})

    g = {
        (0, 1): PolyMatrix([[mono(-d1), zero], [zero, mono(-d2)]]),
        (0, 2): PolyMatrix([[one, u], [zero, one]]),
        (0, 3): PolyMatrix([[one, zero], [u * u, one]]),
        (1, 2): PolyMatrix([[mono(-d1), mono(-d1 - 1)], [zero, mono(-d2)]]),
        (1, 3): PolyMatrix([[mono(-d1), zero], [mono(-d2 - 2), mono(-d2)]]),
        (2, 3): PolyMatrix([[one - u * u * u, -u], [u * u, one]]),
    }
    zero_conn = [PolyMatrix.zero(2, 2, NAMES)]
    return Scenario(
        name="four_chart_rank_two",
        p=1,
        q=1,
        e=2,
        max_order=K_DATA,
        charts_inverted=[(), ((1,),), (), ()],
        overlaps=overlaps,
        triples=triples,
        g=g,
        gammas=[list(zero_conn) for _ in range(4)],
        flat=[True] * 4,
        window=(-4, 4),
    )


@pytest.fixture(scope="module")
def scenario():
    return four_chart_scenario()


@pytest.fixture(scope="module")
def ctx(scenario):
    return build_context(scenario, 2)


def test_scenario_validates(scenario):
    log = validate_scenario(scenario)
    assert log.ok, [e for e in log.entries if not e.ok]


def test_quadruple_present(ctx):
    assert ctx.nerve.quadruples() == [(0, 1, 2, 3)]


def test_transition_logs_are_nonzero(ctx):
    nonzero = [pair for pair in sorted(ctx.pairs) if not transition_log(ctx, pair).is_zero()]
    assert len(nonzero) >= 5


def test_tangential_cochain_closed_on_all_triples(ctx):
    a1 = kodaira_spencer(ctx, 1)
    assert not a1.is_zero()
    assert form_differential(ctx, a1).is_zero()


def test_first_order_obstruction_closed_and_solvable(ctx):
    c1 = first_order_cup(ctx)
    assert not c1.is_zero()
    assert cochain_coordinates(first_order_obstruction(ctx)) == cochain_coordinates(c1)
    # the nerve has a 3-simplex: closedness is a real equation here
    assert cech_differential(ctx, c1).is_zero()
    status = solve_coboundary(ctx, c1, (-4, 4))
    assert isinstance(status, Solved)
    assert not status.cochain.is_zero()


def test_second_order_obstruction_closed_and_solvable(ctx):
    o1 = lift_obstruction(ctx, ctx.bundle.g, 1)
    m1 = solve_coboundary(ctx, o1, (-4, 4)).cochain
    c2 = second_order_obstruction(ctx, m1)
    assert not c2.is_zero()
    assert cech_differential(ctx, c2).is_zero()
    # transports spread the support, so order two needs the wider window
    status = solve_coboundary(ctx, c2, (-6, 6))
    assert isinstance(status, Solved)


# window half-width -> (order-two verdict, SHA-256 of the report bytes)
FOUR_CHART_GOLDEN = {
    5: (UnresolvedWithinWindow, "c3908f2f6f95fdf08ba904cdf15383bb0719884676933259b92b227749bc008d"),
    6: (Solved, "7a474447d879d6db5794b75728ddde99e50236daa915824a2c10c6a21db49398"),
}


def test_full_pipeline_on_four_charts(scenario):
    assert scenario.e == 2
    for w, (order_two, digest) in FOUR_CHART_GOLDEN.items():
        bundle = run_pipeline(scenario, k=2, window=(-w, w))
        first, second = bundle.reports
        assert isinstance(first.status, Solved), w
        assert isinstance(second.status, order_two), w
        assert all(r.closedness == "verified" for r in bundle.reports), w
        assert hashlib.sha256(bundle.dumps().encode()).hexdigest() == digest, w


# SHA-256 of the order-three report, which is solved only from window 7 on
FOUR_CHART_ORDER_THREE = (7, "c12cee90f40622373b6548e70efe8eaa80b57e4b34a3e1c43f95e1bc64dca5b0")


def test_order_three_on_four_charts(scenario):
    w, digest = FOUR_CHART_ORDER_THREE
    bundle = run_pipeline(scenario, k=3, window=(-w, w))
    assert [type(r.status) for r in bundle.reports] == [Solved] * 3
    assert all(r.closedness == "verified" for r in bundle.reports)
    assert hashlib.sha256(bundle.dumps().encode()).hexdigest() == digest
    narrower = run_pipeline(scenario, k=3, window=(-6, 6)).reports[2].status
    assert isinstance(narrower, UnresolvedWithinWindow)
