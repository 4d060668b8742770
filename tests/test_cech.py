import random
from fractions import Fraction
from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbhdext import cech, scenarios
from nbhdext.cech import (
    FUNCTION,
    SYM_END,
    CechCochain,
    ProvenNonzero,
    Solved,
    UnresolvedWithinWindow,
    cech_differential,
    cochain_coordinates,
    lift_obstruction,
    solve_coboundary,
)
from nbhdext.errors import NotClosed
from nbhdext.filtered import ChartRing, PairDerivation
from nbhdext.laurent import LaurentPoly, monomial_window
from nbhdext.linsolve import PolyMatrix
from nbhdext.scenarios import (
    OverlapSpec,
    Scenario,
    Cover,
    _order_report,
    build_context,
    detect_cover,
    generate_builtin,
    h2_weight_test,
    run_pipeline,
    solve_abelianized,
    validate_scenario,
)

from cup_oracle import (
    atiyah,
    cup,
    first_order_cup,
    form_differential,
    kodaira_spencer,
    transition_log,
)
from test_delta_assembly import linear_part_oracle
from test_integration import four_chart_scenario
from test_quadric import quadric_scenario

F = Fraction


def ctx_for(name, d=0, twist=0, order=2):
    s = generate_builtin(name, d=d, twist=twist)
    return s, build_context(s, order)


# -- differential -----------------------------------------------------------------


def test_delta_of_constant_scalar_zero_cochain():
    s, ctx = ctx_for("line_in_p2", d=1)
    ring0 = ctx.nerve.chart_rings[0]
    one = lambda ring: PolyMatrix([[ring.one()]])
    c = CechCochain(0, FUNCTION, 0, {(0,): one(ring0), (1,): one(ctx.nerve.chart_rings[1])})
    d = cech_differential(ctx, c)
    assert d.is_zero()


def test_delta_squared_is_zero_on_random_zero_cochains():
    s, ctx = ctx_for("hyperplane_p2_in_p3", d=2, twist=1)
    ring0 = ctx.nerve.chart_rings[0]
    val = ring0.t_var(0) * ring0.u_var(0) + ring0.t_var(0) * 2
    c = CechCochain(0, FUNCTION, 1, {(0,): PolyMatrix([[val]])})
    dd = cech_differential(ctx, cech_differential(ctx, c))
    assert dd.is_zero()


def test_delta_squared_end_valued():
    s, ctx = ctx_for("hyperplane_p2_in_p3", d=1, twist=1)
    ring0 = ctx.nerve.chart_rings[0]
    mat = PolyMatrix([[ring0.t_var(0) * ring0.u_var(1)]])
    c = CechCochain(0, SYM_END, 1, {(0,): mat})
    dd = cech_differential(ctx, cech_differential(ctx, c))
    assert dd.is_zero()


def branch_differential(ctx, c):
    """delta written out once per degree: the transported first face, then +- the others."""
    if c.degree == 0:
        out = {}
        for pair in ctx.nerve.doubles():
            i, j = pair
            high = ctx.transport(pair, c.vtype, c.value(ctx, (j,)))
            out[pair] = high - c.value(ctx, (i,))
        return CechCochain(1, c.vtype, c.sdeg, out)
    if c.degree == 1:
        out = {}
        for tri in ctx.nerve.triples():
            i, j, h = tri
            moved = ctx.transport((i, j), c.vtype, c.value(ctx, (j, h)))
            out[tri] = moved + (-c.value(ctx, (i, h)) + c.value(ctx, (i, j)))
        return CechCochain(2, c.vtype, c.sdeg, out)
    assert c.degree == 2
    out = {}
    for quad in ctx.nerve.quadruples():
        i, j, h, l = quad
        moved = ctx.transport((i, j), c.vtype, c.value(ctx, (j, h, l)))
        acc = moved - c.value(ctx, (i, h, l))
        acc = acc + c.value(ctx, (i, j, l))
        acc = acc - c.value(ctx, (i, j, h))
        out[quad] = acc
    return CechCochain(3, c.vtype, c.sdeg, out)


def random_cochain(rng, ctx, degree, vtype, sdeg):
    """Random values on a random half of the simplices of one degree."""
    values = {}
    for simplex in ctx.nerve.simplices(degree + 1):
        if rng.random() < 0.5:
            continue
        ring = ctx.ring_of(simplex)

        def poly():
            terms = {(rng.randint(-3, 3), sdeg): F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3))}
            return LaurentPoly(ring.names, terms)

        e = 1 if vtype == FUNCTION else ctx.bundle.rank
        values[simplex] = PolyMatrix([[poly() for _ in range(e)] for _ in range(e)])
    return CechCochain(degree, vtype, sdeg, values)


def test_one_coface_walk_equals_the_per_degree_branches():
    ctx = build_context(four_chart_scenario(), 2)
    rng = random.Random(15)
    nonzero = 0
    for degree in (0, 1, 2):
        for vtype in (FUNCTION, SYM_END):
            for _ in range(8):
                c = random_cochain(rng, ctx, degree, vtype, rng.randint(0, 2))
                walked, branched = cech_differential(ctx, c), branch_differential(ctx, c)
                assert (walked.degree, walked.vtype, walked.sdeg) == (
                    branched.degree, branched.vtype, branched.sdeg)
                assert sorted(walked.values) == sorted(branched.values)
                assert cochain_coordinates(walked) == cochain_coordinates(branched)
                nonzero += not walked.is_zero()
    assert nonzero >= 30


def test_quadruples_are_the_simplices_whose_faces_are_triples():
    from itertools import combinations

    ring = ChartRing(("u1",), ("t1",))
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(4, 6)
        triples = [tri for tri in combinations(range(n), 3) if rng.random() < 0.7]
        nerve = cech.CoverNerve([ring] * n, {}, {tri: ring for tri in triples})
        expected = [quad for quad in combinations(range(n), 4)
                    if all(quad[:pos] + quad[pos + 1:] in triples for pos in range(4))]
        assert nerve.quadruples() == nerve.simplices(4) == expected


def test_differential_refuses_degree_three():
    ctx = build_context(four_chart_scenario(), 2)
    with pytest.raises(ValueError):
        cech_differential(ctx, CechCochain(3, SYM_END, 1, {}))


def test_one_recheck_covers_both_solves(monkeypatch):
    """A wrong particular solution is caught by the shared residual recheck."""
    real = cech.solve_exact
    corrupted = []

    def wrong(system):
        sol = real(system)
        if sol.consistent:
            # adding a nonzero column to delta(x) leaves a nonzero residual
            c = min(col for row in system.rows for col in row)
            sol.particular[c] += 1
            corrupted.append(c)
        return sol

    s, ctx = ctx_for("hyperplane_p2_in_p3", d=1, twist=1)
    target = lift_obstruction(ctx, ctx.bundle.g, 1)
    assert isinstance(solve_coboundary(ctx, target, (-2, 2)), Solved)
    assert solve_abelianized(ctx, (-2, 2))["exact"]
    monkeypatch.setattr(cech, "solve_exact", wrong)
    with pytest.raises(NotClosed):
        solve_coboundary(ctx, target, (-2, 2))
    with pytest.raises(NotClosed):
        solve_abelianized(ctx, (-2, 2))
    assert len(corrupted) == 2


def test_extracted_tangential_components_are_delta_closed():
    # the degree-1 additive cocycle condition for the transition logs
    for tw in (0, 1):
        s, ctx = ctx_for("hyperplane_p2_in_p3", d=1, twist=tw)
        a1 = kodaira_spencer(ctx, 1)
        assert form_differential(ctx, a1).is_zero()


def derivation_to_low(ctx, pair, d):
    """Conjugate the algebra part of a j-frame pair derivation into the i-frame."""
    g = ctx.pairs[pair]
    ring_i = g.ring_low
    k = min(d.order, ctx.order)
    images_ij = linear_part_oracle(g)["images_ij"]

    def moved(name):
        # the chart-i generator in the j-frame, hit by d and moved low
        linear = ctx.transport_of(pair, SYM_END).substitution
        return ring_i.truncate(linear(d.apply(images_ij[name])), ctx.order)

    return PairDerivation(
        ring_i,
        k,
        tuple(moved(name) for name in ring_i.u_names),
        tuple(moved(name) for name in ring_i.t_names),
        algebra_trunc=k,
    )


def test_degree_two_bch_cocycle_condition():
    # log phi_ih = log phi_ij + T log phi_jh + [.,.]/2 in degree 2
    from nbhdext.filtered import bracket

    s, ctx = ctx_for("hyperplane_p2_in_p3", d=1, twist=1)
    i, j, h = 0, 1, 2
    d_ij = transition_log(ctx, (i, j))
    d_ih = transition_log(ctx, (i, h))
    d_jh = derivation_to_low(ctx, (i, j), transition_log(ctx, (j, h)))
    lhs = d_ih.component(2)
    x1, y1 = d_ij.component(1), d_jh.component(1)
    rhs = d_ij.component(2) + d_jh.component(2) + bracket(x1, y1).scaled(F(1, 2))
    assert (lhs - rhs).is_zero()


# -- Atiyah cocycle ----------------------------------------------------------------


def test_atiyah_vanishes_for_globally_flat_trivial_bundle():
    s, ctx = ctx_for("line_in_p2", d=0)
    at = atiyah(ctx)
    assert at.is_zero()


def test_atiyah_on_twisted_line_bundle_is_logarithmic():
    # O(d) with exterior-derivative connections: value d * du/u in the overlap
    for d in (1, -2, 3):
        s, ctx = ctx_for("line_in_p2", d=d)
        at = atiyah(ctx)
        val = at.values[(0, 1)]
        ring = ctx.pairs[(0, 1)].ring_low
        expected = LaurentPoly.monomial(ring.names, (-1, 0), d)
        assert val[0][0, 0] == expected


def test_atiyah_trace_detects_nonzero_first_chern():
    s, ctx = ctx_for("line_in_p2", d=2)
    at = atiyah(ctx)
    assert not at.values[(0, 1)][0].trace().is_zero()
    assert form_differential(ctx, at).is_zero()


# -- component extraction -----------------------------------------------------------


def test_extract_components_identity_transition():
    s, ctx = ctx_for("line_in_p2", d=1)
    a1 = kodaira_spencer(ctx, 1)
    assert all(x.is_zero() for x in a1.values[(0, 1)])
    assert all(x.is_zero() for x in transition_log(ctx, (0, 1)).component(1).t_images)


# -- first order obstruction ----------------------------------------------------------


def test_first_order_split_embedding_gives_zero():
    s, ctx = ctx_for("hyperplane_p2_in_p3", d=3)
    c1 = cup(ctx, kodaira_spencer(ctx, 1), atiyah(ctx))
    assert c1.is_zero()


def test_first_order_twisted_hyperplane_nonzero_but_exact():
    s, ctx = ctx_for("hyperplane_p2_in_p3", d=2, twist=1)
    c1 = cup(ctx, kodaira_spencer(ctx, 1), atiyah(ctx))
    assert not c1.is_zero()
    status = solve_coboundary(ctx, c1, (-3, 3))
    assert isinstance(status, Solved)
    # exactness is certified by a zero residual inside solve_coboundary


def test_first_order_class_independent_of_connection_choice():
    # perturb the chart-0 connection by a flat constant form: the obstruction
    # cochain moves, but only by a coboundary
    s = generate_builtin("hyperplane_p2_in_p3", d=2, twist=1)
    ctx = build_context(s, 2)
    c_base = first_order_cup(ctx)

    s2 = generate_builtin("hyperplane_p2_in_p3", d=2, twist=1)
    names = s2.names
    const_form = PolyMatrix([[LaurentPoly.const(names, 3)]])
    s2.gammas[1] = [const_form, const_form]
    assert validate_scenario(s2).ok
    ctx2 = build_context(s2, 2)
    c_new = first_order_cup(ctx2, s2.gammas)
    diff = c_base.add(c_new.neg())
    assert not diff.is_zero()
    status = solve_coboundary(ctx, diff, (-3, 3))
    assert isinstance(status, Solved)


# -- solving and torsor dimensions -----------------------------------------------------


def test_solve_zero_cochain_reports_h1_dimension():
    for m, expected in [(2, 1), (3, 2), (4, 3)]:
        s, ctx = ctx_for("p1_in_line_bundle", d=m)
        zero = CechCochain(2, SYM_END, 1, {})
        status = solve_coboundary(ctx, zero, (-6, 6))
        assert isinstance(status, Solved)
        assert status.torsor_dim == expected
        assert detect_cover(ctx) == Cover("p1", (-m,), (0,))


def test_two_chart_cover_always_solvable():
    s, ctx = ctx_for("diagonal_p1xp1", d=2)
    ring = ctx.pairs[(0, 1)].ring_low
    val = PolyMatrix([[ring.t_var(0) * LaurentPoly.monomial(ring.names, (-1, 0), 7)]])
    # no triples: any would-be degree-2 data is the empty cochain
    c = CechCochain(2, SYM_END, 1, {})
    status = solve_coboundary(ctx, c, (-4, 4))
    assert isinstance(status, Solved)


def test_proven_nonzero_on_negative_plane_twist():
    # conormal O(-3) on the plane: the all-negative weight is untouchable
    s = _p2_in_cubic_bundle()
    assert validate_scenario(s).ok
    ctx = build_context(s, 2)
    ring = ctx.nerve.triple_rings[(0, 1, 2)]
    value = PolyMatrix([[LaurentPoly.monomial(ring.names, (-1, -1, 1))]])
    c = CechCochain(2, SYM_END, 1, {(0, 1, 2): value})
    status = _order_report(detect_cover(ctx), ctx, 1, c, (-3, 3)).status
    assert isinstance(status, ProvenNonzero)
    assert status.class_coordinates == h2_weight_test(detect_cover(ctx), c)
    assert status.class_coordinates


def test_unresolved_when_no_certificate():
    s = _p2_in_cubic_bundle()
    ctx = build_context(s, 2)
    ring = ctx.nerve.triple_rings[(0, 1, 2)]
    value = PolyMatrix([[LaurentPoly.monomial(ring.names, (-1, -1, 1))]])
    c = CechCochain(2, SYM_END, 1, {(0, 1, 2): value})
    status = solve_coboundary(ctx, c, (-3, 3))
    assert isinstance(status, UnresolvedWithinWindow)


def _p2_in_cubic_bundle() -> Scenario:
    """The plane inside the total space of its degree-3 line bundle."""
    base = generate_builtin("hyperplane_p2_in_p3", d=0)
    names = base.names

    def P(terms):
        return LaurentPoly(names, terms)

    # forward and backward exponent patterns of the normal-variable cocycle
    reps = {
        (0, 1): ((-3, 0), (-3, 0)),
        (0, 2): ((0, -3), (-3, 0)),
        (1, 2): ((0, -3), (0, -3)),
    }
    overlaps = []
    for o in base.overlaps:
        fexp, bexp = reps[o.pair]
        fwd_t = (P({(fexp[0], fexp[1], 1): 1}),)
        bwd_t = (P({(bexp[0], bexp[1], 1): 1}),)
        overlaps.append(
            OverlapSpec(o.pair, o.inverted, o.forward_u, fwd_t, o.backward_u, bwd_t)
        )
    return Scenario(
        name="p2_in_cubic_bundle",
        p=2,
        q=1,
        e=1,
        max_order=3,
        charts_inverted=base.charts_inverted,
        overlaps=overlaps,
        triples=base.triples,
        g=base.g,
        gammas=base.gammas,
        flat=base.flat,
        window=(-3, 3),
    )


# -- the cover record and the certificate -----------------------------------------------


def test_cover_record_of_each_geometry():
    expected = {
        ("line_in_p2", 2, 0): Cover("p1", (-1,), (2,)),
        ("line_in_p2", -1, 1): Cover("p1", (-1,), (-1,)),
        ("diagonal_p1xp1", 3, 0): Cover("p1", (-2,), (3,)),
        ("p1_in_line_bundle", 4, 0): Cover("p1", (-4,), (0,)),
        ("hyperplane_p2_in_p3", 2, 1): Cover("p2", (-1,), (2,)),
        ("hyperplane_p2_in_p3", -1, 0): Cover("p2", (-1,), (-1,)),
        ("affine_split", 0, 0): None,
    }
    for (name, d, twist), cover in expected.items():
        assert detect_cover(ctx_for(name, d=d, twist=twist)[1]) == cover, (name, d, twist)
    assert detect_cover(build_context(_p2_in_cubic_bundle(), 2)) == Cover("p2", (-3,), (0,))
    assert detect_cover(build_context(quadric_scenario(1, 1), 2)) is None
    assert detect_cover(build_context(four_chart_scenario(), 2)) is None


def test_pipeline_reads_the_cover_once(monkeypatch):
    calls = []

    def counted(ctx):
        calls.append(ctx)
        return detect_cover(ctx)

    monkeypatch.setattr(scenarios, "detect_cover", counted)
    bundle = scenarios.run_pipeline(generate_builtin("hyperplane_p2_in_p3", d=1), k=3)
    assert len(bundle.reports) == 3
    assert len(calls) == 1


@pytest.mark.parametrize(
    "case",
    [(d, twist) for d in range(-2, 3) for twist in (0, 1)] + ["p2_in_cubic_bundle"],
    ids=str,
)
def test_certificate_never_fires_on_a_coboundary(case):
    # delta of any window 1-cochain is exact, so the h^2 weight pairing must
    # see nothing on it: one hit would certify a zero class nonzero
    if case == "p2_in_cubic_bundle":
        s = _p2_in_cubic_bundle()
    else:
        s = generate_builtin("hyperplane_p2_in_p3", d=case[0], twist=case[1])
    window = (-4, 4)
    for k in (1, 2, 3):
        ctx = build_context(s, k)
        cover = detect_cover(ctx)
        assert cover is not None and cover.space == "p2"
        for sdeg in range(1, k + 1):
            basis = cech._window_basis(ctx, ctx.nerve.doubles(), SYM_END, sdeg, window)
            assert len(basis) == 135
            # images that reach u-exponents negative in both slots, where only
            # the weight condition keeps the pairing silent
            reaching = 0
            for key in basis:
                elementary = cech._assemble_cochain(ctx, 1, SYM_END, sdeg, [key], [1])
                image = cech_differential(ctx, elementary)
                assert h2_weight_test(cover, image) == [], (k, sdeg, key)
                value = image.values[(0, 1, 2)].entries[0][0]
                reaching += any(u1 < 0 and u2 < 0 for (u1, u2, _), _ in value.sorted_terms())
            assert reaching, (k, sdeg)


# -- window cone --------------------------------------------------------------------


def allowed_exponent(ring, w):
    """Brute-force membership of w in the chart ring's cone: some shift by
    nonnegative multiples of the inverted vectors makes w nonnegative."""
    if all(x >= 0 for x in w):
        return True
    if not ring.inverted:
        return False
    bound = max(-min(w), 1) + 1
    ranges = [range(0, bound + 1)] * len(ring.inverted)
    for combo in iproduct(*ranges):
        shifted = list(w)
        for n_i, inv in zip(combo, ring.inverted):
            for t, ex in enumerate(inv):
                shifted[t] += n_i * ex
        if all(x >= 0 for x in shifted):
            return True
    return False


@st.composite
def window_cone_cases(draw):
    """p in {1, 2, 3}, zero to two nonnegative inverted vectors and a window in -3..3."""
    p = draw(st.integers(1, 3))
    inverted = draw(st.lists(st.tuples(*[st.integers(0, 2)] * p), max_size=2))
    lo = draw(st.integers(-3, 3))
    hi = draw(st.integers(lo, 3))
    return p, tuple(inverted), (lo, hi)


@given(window_cone_cases())
@example((2, ((1, 0),), (1, 3)))     # lo > 0
@example((2, ((1, 0),), (-3, -1)))   # hi < 0 with an uncovered coordinate
@example((2, ((1, 2),), (-3, -1)))   # hi < 0, every coordinate covered
@example((3, ((0, 1, 0), (2, 0, 0)), (-2, -2)))  # lo = hi
@example((1, (), (-2, -2)))
@settings(max_examples=300, deadline=None)
def test_window_cone_closed_form_equals_the_search(case):
    p, inverted, window = case
    ring = ChartRing(tuple(f"u{i + 1}" for i in range(p)), ("t1",), inverted)
    expected = [w for w in monomial_window([window] * p) if allowed_exponent(ring, w)]
    ctx = SimpleNamespace(_window_monomials={})
    assert cech._window_monomials(ctx, ring, 0, window) == [w + (0,) for w in expected]


def test_window_cone_refuses_negative_inverted_exponents():
    ring = ChartRing(("u1",), ("t1",), ((-1,),))
    with pytest.raises(ValueError, match="nonnegative"):
        cech._window_monomials(SimpleNamespace(_window_monomials={}), ring, 0, (-1, 1))


@pytest.mark.parametrize(
    "window, torsors, unknowns", [((-3, -1), [3, 3], 6), ((2, 3), [0, 0], 4)], ids=str
)
def test_line_in_p2_off_centre_windows(window, torsors, unknowns):
    # a window below zero keeps only the chart cones' covered coordinates,
    # one above zero keeps no constant
    bundle = run_pipeline(generate_builtin("line_in_p2", d=1), k=2, window=window)
    assert [r.status.torsor_dim for r in bundle.reports] == torsors
    assert bundle.abelianized["unknowns"] == unknowns
