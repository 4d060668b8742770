"""The transition lift: o_k is the t^k-part of the cocycle defect of lifted transitions.

At order one it must equal the paper's cup product a^1 . At exactly when
the local connection forms are zero, as on every shipped scenario.  A
nonzero or curved connection changes the cup product but not the lift,
so every report stays.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from nbhdext.cech import (
    Solved,
    UnresolvedWithinWindow,
    cochain_coordinates,
    lift_obstruction,
    transition_defect,
)
from nbhdext.errors import NotClosed
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix
from nbhdext.scenarios import build_context, generate_builtin, run_pipeline, validate_scenario

from cup_oracle import first_order_cup
from test_integration import four_chart_scenario
from test_quadric import quadric_scenario


def bench_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return workloads


def builtin_schedule():
    """The builtin_sweep workload's (generator, d) cases, each with both twists."""
    workloads = bench_workloads()
    return [
        (f"{name}({d}, {twist})", generate_builtin(name, d=d, twist=twist))
        for name, d, _ in workloads.BUILTIN_SCHEDULE
        for twist in workloads.TWISTS
    ]


def test_lift_obstruction_equals_the_cup_product_at_order_one():
    cases = builtin_schedule()
    cases += [(f"quadric O{ab}", quadric_scenario(*ab)) for ab in [(1, 1), (2, 2), (1, 0), (0, 0)]]
    cases.append(("four-chart fixture", four_chart_scenario()))
    nonzero = 0
    for label, s in cases:
        ctx = build_context(s, 2)
        c1 = first_order_cup(ctx)
        o1 = lift_obstruction(ctx, ctx.bundle.g, 1)
        assert cochain_coordinates(o1) == cochain_coordinates(c1), label
        nonzero += not o1.is_zero()
    # hyperplane(2, +-1), three quadrics and the fixture: not a check of zeros only
    assert nonzero >= 6


def test_lift_obstruction_rechecks_the_lower_orders():
    # g is no cocycle modulo t^2 where o_1 is nonzero, so it has no o_2
    ctx = build_context(generate_builtin("hyperplane_p2_in_p3", d=2, twist=1), 2)
    assert not lift_obstruction(ctx, ctx.bundle.g, 1).is_zero()
    with pytest.raises(NotClosed, match="t-degree 1"):
        lift_obstruction(ctx, ctx.bundle.g, 2)


def cup_product_differs_from_the_lift(s):
    ctx = build_context(s, 1)
    c1 = first_order_cup(ctx, s.gammas)
    o1 = lift_obstruction(ctx, ctx.bundle.g, 1)
    return cochain_coordinates(c1) != cochain_coordinates(o1)


def hyperplane_with_chart_one_forms(forms, flat):
    s = generate_builtin("hyperplane_p2_in_p3", d=2, twist=1)
    s.gammas[1] = [PolyMatrix([[f]]) for f in forms]
    s.flat[1] = flat
    assert validate_scenario(s).ok
    return s


def with_constant_forms(s):
    """``s`` with the flat connection d + (i + 1) Id du_b on each chart i."""
    forms = [
        [PolyMatrix.identity(s.e, s.names).map(lambda p: p * (i + 1)) for _ in range(s.p)]
        for i in range(len(s.charts_inverted))
    ]
    gauged = dataclasses.replace(s, gammas=forms, flat=[True] * len(forms))
    assert validate_scenario(gauged).ok
    return gauged


GAUGE_CASES = builtin_schedule() + [
    ("four-chart fixture", four_chart_scenario()),
    ("quadric O(1,1)", quadric_scenario(1, 1)),
    ("quadric O(1,0)", quadric_scenario(1, 0)),
]


@pytest.mark.parametrize("label, s", GAUGE_CASES, ids=[label for label, _ in GAUGE_CASES])
def test_constant_connections_reach_no_report(label, s):
    gauged = with_constant_forms(s)
    # the forms reach the paper's formula: c_1 moves wherever the cover has a triple
    ctx = build_context(s, 2)
    c1_moved = cochain_coordinates(first_order_cup(ctx, gauged.gammas)) != cochain_coordinates(
        first_order_cup(ctx))
    assert c1_moved == bool(ctx.nerve.triples())
    plain, moved = run_pipeline(s, k=2).to_json(), run_pipeline(gauged, k=2).to_json()
    assert moved.pop("scenario_digest") != plain.pop("scenario_digest")
    assert moved == plain


def test_curved_connection_reaches_order_two():
    # nabla = d + u1 du2 on chart 1 is curved; the lift needs no connection
    names = ("u1", "u2", "t1")
    s = hyperplane_with_chart_one_forms(
        [LaurentPoly.zero(names), LaurentPoly.variable(names, "u1")], False
    )
    assert cup_product_differs_from_the_lift(s)
    bundle = run_pipeline(s, k=2)
    assert [r.order for r in bundle.reports] == [1, 2]
    assert all(isinstance(r.status, Solved) for r in bundle.reports)


def test_order_two_says_when_it_depends_on_the_order_one_choice():
    for d in (2, 3, 4):
        first, second = run_pipeline(generate_builtin("p1_in_line_bundle", d=d), k=2).reports
        assert first.status.torsor_dim == d - 1
        assert any("lift chosen here" in note for note in second.notes), d
    first, second = run_pipeline(generate_builtin("line_in_p2", d=3), k=2).reports
    assert first.status.torsor_dim == 0
    assert not any("lift chosen here" in note for note in second.notes)


# -- order three: the same lift, one order further ---------------------------------------


def test_four_chart_order_three_needs_window_seven():
    for w, order_three in [(6, UnresolvedWithinWindow), (7, Solved)]:
        bundle = run_pipeline(four_chart_scenario(), k=3, window=(-w, w))
        assert [type(r.status) for r in bundle.reports] == [Solved, Solved, order_three], w
        assert all(r.closedness == "verified" for r in bundle.reports), w


@pytest.mark.parametrize("ab", [(1, 1), (2, 2), (0, 0)])
def test_quadric_hyperplane_multiples_solve_through_order_three(ab):
    bundle = run_pipeline(quadric_scenario(*ab), k=3)
    assert [r.order for r in bundle.reports] == [1, 2, 3]
    assert all(isinstance(r.status, Solved) for r in bundle.reports)
    assert all(r.closedness == "verified" for r in bundle.reports)


def test_quadric_o10_skips_every_order_after_one():
    first, second, third = run_pipeline(quadric_scenario(1, 0), k=3).reports
    assert isinstance(first.status, UnresolvedWithinWindow)
    assert second.closedness == third.closedness == "skipped"
    # the note names the first order that failed, not the one just below
    assert third.notes == ["order one did not resolve, so order 3 is untested"]


def lifted_by_hand(ctx, reports):
    """(1 + m_n) ... (1 + m_1) . g from the reports' solutions m, as G + m . G each time."""
    G = dict(ctx.bundle.g)
    for r in reports:
        for pair, g in G.items():
            ring = ctx.nerve.pair_rings[pair][pair[0]]
            m = r.status.cochain.value(ctx, pair)
            G[pair] = g + m.matmul(g, lambda a, b: ring.mul(a, b, ctx.order))
    return G


@pytest.mark.parametrize(
    "label, s, window",
    [("four-chart fixture", four_chart_scenario(), (-7, 7)),
     ("quadric O(1,1)", quadric_scenario(1, 1), None)],
)
def test_reported_order_three_lift_is_a_cocycle_mod_t4(label, s, window):
    bundle = run_pipeline(s, k=3, window=window)
    assert all(isinstance(r.status, Solved) for r in bundle.reports), label
    ctx = build_context(s, 3)
    is_cocycle = lambda G: all(y.is_zero() for y in transition_defect(ctx, G).values())
    assert is_cocycle(lifted_by_hand(ctx, bundle.reports)), label
    # not already true of the unlifted transitions
    assert not is_cocycle(ctx.bundle.g), label


# p1_in_line_bundle(d) at d = 3, 4 needs a wider window than its default for order three
FULL_ORDER_THREE_WINDOW = {"p1_in_line_bundle(3, 1)": 8, "p1_in_line_bundle(3, -1)": 8,
                           "p1_in_line_bundle(4, 1)": 12, "p1_in_line_bundle(4, -1)": 12}


def test_every_builtin_solves_through_order_three_as_the_oracles_say():
    cases, undercounts = builtin_schedule(), {}
    for label, s in cases:
        bundle = run_pipeline(s, k=3)
        assert [r.order for r in bundle.reports] == [1, 2, 3], label
        assert all(isinstance(r.status, Solved) for r in bundle.reports), label
        # rank one: a lift through order three exists, so the choice-free system agrees
        assert s.e == 1 and bundle.abelianized["exact"], label
        third = bundle.reports[2].status
        assert (third.h1_oracle is None) == label.startswith("affine_split"), label
        if third.h1_oracle not in (None, third.torsor_dim):
            undercounts[label] = (third.torsor_dim, third.h1_oracle)
            note = f"window undercounts the torsor: {third.torsor_dim} of {third.h1_oracle}"
            assert any(n.startswith(note) for n in bundle.reports[2].notes), label
    assert set(undercounts) == set(FULL_ORDER_THREE_WINDOW)
    for label, s in cases:
        if label in FULL_ORDER_THREE_WINDOW:
            w = FULL_ORDER_THREE_WINDOW[label]
            third = run_pipeline(s, k=3, window=(-w, w)).reports[2].status
            assert third.torsor_dim == third.h1_oracle == undercounts[label][1], label


def test_order_three_notes_every_lower_choice():
    third = run_pipeline(generate_builtin("diagonal_p1xp1", d=1), k=3).reports[2]
    chosen = [note for note in third.notes if "lift chosen here" in note]
    assert [note.split(" has")[0] for note in chosen] == ["order one", "order two"]
    third = run_pipeline(generate_builtin("line_in_p2", d=1), k=3).reports[2]
    chosen = [note for note in third.notes if "lift chosen here" in note]
    assert [note.split(" has")[0] for note in chosen] == ["order two"]
