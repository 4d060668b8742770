"""delta columns read off cofaces, their sparse system, the rank split and the transport memo.

``cech_differential`` of a whole elementary cochain is the oracle for the
columns, and ``end_to_low`` of a whole elementary matrix for each moved
monomial.  A dense matrix written out here is the oracle for the sparse
system built from the columns and for the torsor count's rank split, and
one truncated substitution of a whole polynomial is the oracle for the
memoized pullback, linear and full.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhdext import cech, scenarios
from nbhdext.cech import _assemble_cochain, cech_differential, cochain_coordinates
from nbhdext.errors import EngineError
from nbhdext.filtered import ChartTransition, induced_transition
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix, matrix_rank, solve_exact
from nbhdext.scenarios import build_context, generate_builtin, run_pipeline

from test_acceptance import GOLDEN_DIGESTS
from test_filtered import subst_oracle
from test_integration import four_chart_scenario
from test_lift import bench_workloads, builtin_schedule
from test_quadric import quadric_scenario


def pipeline_contexts(monkeypatch, scenario, window=None):
    """Run the pipeline and return every context it built."""
    built = []
    real = scenarios.build_context

    def capture(s, order):
        built.append(real(s, order))
        return built[-1]

    monkeypatch.setattr(scenarios, "build_context", capture)
    run_pipeline(scenario, k=2, window=window)
    return built


def _elementary_cochain(ctx, vtype, sdeg, key):
    """The cochain with coefficient 1 at one coordinate key and 0 elsewhere."""
    return _assemble_cochain(ctx, len(key[0]) - 1, vtype, sdeg, [key], [1])


def assert_columns_match_full_differential(ctx):
    assert ctx._delta_maps, "the pipeline assembled no delta columns"
    for (vtype, sdeg, _, _), (basis, columns) in ctx._delta_maps.items():
        assert len(basis) == len(columns)
        for key, col in zip(basis, columns):
            oracle = cochain_coordinates(
                cech_differential(ctx, _elementary_cochain(ctx, vtype, sdeg, key))
            )
            assert col == oracle, (vtype, sdeg, key)
            assert list(col) == list(oracle), (vtype, sdeg, key)


@pytest.mark.parametrize(
    "w, assembled",
    [
        # order two is unresolved in window 5, so its torsor count never runs
        (5, {(1, 1), (1, 2), (2, 2)}),
        (6, {(1, 1), (1, 2), (2, 1), (2, 2)}),
    ],
    ids=["window5", "window6"],
)
def test_four_chart_columns_equal_full_differential(monkeypatch, w, assembled):
    (ctx,) = pipeline_contexts(monkeypatch, four_chart_scenario(), window=(-w, w))
    # (conormal degree, simplex size): delta_0 on charts, delta_1 on overlaps
    keys = {(sdeg, len(simplices[0])) for _, sdeg, simplices, _ in ctx._delta_maps}
    assert keys == assembled
    assert_columns_match_full_differential(ctx)


def test_builtin_columns_equal_full_differential(monkeypatch):
    for name, d, tw in GOLDEN_DIGESTS:
        (ctx,) = pipeline_contexts(monkeypatch, generate_builtin(name, d=d, twist=tw))
        assert_columns_match_full_differential(ctx)


def test_pipeline_builds_each_delta_map_once(monkeypatch):
    built = []
    real = cech._delta_columns

    def counting(ctx, vtype, basis):
        built.append((vtype, tuple(basis)))
        return real(ctx, vtype, basis)

    monkeypatch.setattr(cech, "_delta_columns", counting)
    s = generate_builtin("hyperplane_p2_in_p3", d=1)
    bundle = run_pipeline(s, k=2)
    assert bundle.abelianized["exact"]
    assert len(built) == len(set(built))
    # the order-one solve builds the (END, 1) overlap columns; the rank-one
    # system builds FUNCTION columns of its own
    ctx = build_context(s, 2)
    end_1 = tuple(cech._window_basis(ctx, ctx.nerve.doubles(), cech.SYM_END, 1, s.window))
    assert len(end_1) == 84
    assert built.count((cech.SYM_END, end_1)) == 1


# -- the sparse system built from the columns ---------------------------------------

F = Fraction
coordinate_keys = st.tuples(st.integers(0, 3), st.integers(0, 2))
nonzero_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


def dense_gauss_jordan(matrix, rhs, n):
    """(consistent, particular, nullspace, rank) of a dense system by Gauss-Jordan.

    Same conventions as ``solve_exact``: free unknowns are 0 in the
    particular solution, and each kernel vector is 1 at its free column.
    """
    rows = [list(line) + [b] for line, b in zip(matrix, rhs)]
    pivots = []
    for c in range(n + 1):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    consistent = n not in pivots
    particular = None
    if consistent:
        particular = [F(0)] * n
        for r, p in enumerate(pivots):
            particular[p] = rows[r][n]
    nullspace = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [F(0)] * n
        vec[f] = F(1)
        for r, p in enumerate(pivots):
            if p < n:
                vec[p] = -rows[r][f]
        nullspace.append(vec)
    return consistent, particular, nullspace, sum(1 for p in pivots if p < n)


@st.composite
def column_systems(draw):
    """Sparse columns, a right-hand side that is sometimes in their span, and keys to drop."""
    columns = draw(st.lists(
        st.dictionaries(coordinate_keys, nonzero_rationals, max_size=3), min_size=1, max_size=6
    ))
    if draw(st.booleans()):
        x0 = draw(st.lists(nonzero_rationals, min_size=len(columns), max_size=len(columns)))
        rhs = {}
        for x, col in zip(x0, columns):
            for kk, v in col.items():
                rhs[kk] = rhs.get(kk, F(0)) + x * v
    else:
        rhs = draw(st.dictionaries(coordinate_keys, nonzero_rationals, max_size=4))
    exclude = draw(st.one_of(st.just(()), st.lists(coordinate_keys, max_size=4)))
    return columns, rhs, exclude


def dense_row_keys(columns, rhs=()):
    """The dense system's rows: every key the columns or rhs touch, in first-seen order."""
    row_keys = []
    for source in [*columns, rhs]:
        for kk in source:
            if kk not in row_keys:
                row_keys.append(kk)
    return row_keys


@given(column_systems())
@settings(max_examples=150, deadline=None)
def test_sparse_system_matches_the_dense_system(system):
    columns, rhs, _ = system
    row_keys = dense_row_keys(columns, rhs)
    dense = [[col.get(kk, F(0)) for col in columns] for kk in row_keys]
    dense_rhs = [rhs.get(kk, F(0)) for kk in row_keys]
    n = len(columns)

    built = cech._exact_system(columns, rhs)
    assert built.basis == list(range(n))
    assert built.matrix == dense
    assert built.rhs == dense_rhs
    # the figures the tracer reads off the dense view
    assert (len(built.matrix), len(built.basis)) == (len(row_keys), n)
    assert sum(1 for line in built.matrix for x in line if x != 0) == sum(map(len, columns))

    consistent, particular, nullspace, rank = dense_gauss_jordan(dense, dense_rhs, n)
    sol = solve_exact(built)
    assert (sol.consistent, sol.particular, sol.nullspace) == (consistent, particular, nullspace)
    assert matrix_rank(built.rows) == rank


@given(column_systems())
@settings(max_examples=150, deadline=None)
def test_one_elimination_splits_the_rank_at_the_excluded_rows(system):
    columns, _, exclude = system
    rows = {kk: {k: col[kk] for k, col in enumerate(columns) if kk in col}
            for kk in dense_row_keys(columns)}
    outside = [row for kk, row in rows.items() if kk not in exclude]
    expected = matrix_rank(rows.values()) - matrix_rank(outside)
    assert cech._rank_inside(columns, exclude) == expected
    # and against the dense Gauss-Jordan ranks
    dense = lambda keep: [[col.get(kk, F(0)) for col in columns] for kk in rows if keep(kk)]
    rank = lambda m: dense_gauss_jordan(m, [F(0)] * len(m), len(columns))[3]
    assert expected == rank(dense(lambda kk: True)) - rank(dense(lambda kk: kk not in exclude))


# -- elementary transports ------------------------------------------------------------


def test_elementary_transport_equals_the_whole_transport():
    """Each column piece equals ``end_to_low`` of E_rc . x^exps, key order included.

    The four-chart fixture is rank two, and on overlap (2, 3) its
    transition [[1 - u^3, -u], [u^2, 1]] mixes every entry.
    """
    ctx = build_context(four_chart_scenario(), 2)
    assert all(p.terms for row in ctx.bundle.g[(2, 3)].entries for p in row)
    rng = random.Random(14)
    for pair in sorted(ctx.pairs):
        ring = ctx.pairs[pair].ring_j
        for sdeg in (1, 2):
            for _ in range(6):
                exps = (rng.randint(-4, 4), sdeg)
                entry = (rng.randrange(2), rng.randrange(2))
                elementary = ctx.zero_value(cech.SYM_END, ring)
                elementary.entries[entry[0]][entry[1]] = ring.monomial(exps)
                whole = cech._coordinates(cech.SYM_END, ctx.end_to_low(pair, elementary))
                moved = ctx.elementary_to_low(pair, cech.SYM_END, entry, exps)
                assert moved == whole, (pair, entry, exps)
                assert list(moved) == list(whole), (pair, entry, exps)
                # the full pullback moves functions
                full = ctx.pullback(pair, ring.monomial(exps), full=True)
                moved = ctx.elementary_to_low(pair, cech.FUNCTION, (0, 0), exps)
                assert list(moved.items()) == [(((0, 0), e), x) for e, x in full.sorted_terms()]


def test_elementary_transport_refuses_other_value_types():
    ctx = build_context(four_chart_scenario(), 2)
    with pytest.raises(ValueError):
        ctx.elementary_to_low((0, 1), "form_end", (0, 0), (0, 1))


# -- the pullback memo -------------------------------------------------------------


def linear_part_oracle(tr):
    """The linear data of a chart transition, written out term by term.

    A base image is a tangential image restricted to X; conormal entry
    (a, b) is the t_b-derivative of normal image a, restricted to X; a
    linear image of a normal variable is the conormal row times the t's;
    the Jacobian differentiates the base images.  Each direction is read
    off its own images, and nothing goes through ``linear_images``.
    """

    def side(ring, source, u_images, t_images):
        base = {name: ring.restrict_to_x(img) for name, img in zip(source.u_names, u_images)}
        conormal = PolyMatrix([
            [ring.restrict_to_x(t_images[a].diff(ring.t_names[b])) for b in range(ring.q)]
            for a in range(source.q)
        ])
        images = dict(base)
        for a, tname in enumerate(source.t_names):
            images[tname] = sum(
                (conormal[a, b] * ring.t_var(b) for b in range(ring.q)), ring.zero()
            )
        jac = PolyMatrix([[base[name].diff(c) for c in ring.u_names] for name in source.u_names])
        return images, conormal, jac

    images_ji, conormal_ji, jac_ji = side(tr.ring_low, tr.ring_high, tr.forward_u, tr.forward_t)
    images_ij, _, jac_ij = side(tr.ring_high, tr.ring_low, tr.backward_u, tr.backward_t)
    return {"images_ji": images_ji, "images_ij": images_ij, "conormal_ji": conormal_ji,
            "jac_ji": jac_ji, "jac_ij": jac_ij}


def direct_pullback(ctx, pair, value, full=False):
    """One truncated substitution of the whole polynomial, by ``subst_oracle``.

    The oracle is the per-call substitution written out in test_filtered,
    so the memoized pullback is not compared with itself.  The full
    pullback substitutes the overlap's ``forward`` images; the linear one
    substitutes the images of ``linear_part_oracle``.
    """
    g = ctx.pairs[pair]
    images = g.forward if full else linear_part_oracle(g.transition)["images_ji"]
    return subst_oracle(value, images, ctx.order, g.ring_i)


def four_chart_scenarios():
    """The four_chart workload's scenario for seeds 1 and 2, drawn as the workload draws it."""
    workloads = bench_workloads()
    pairs = [(a, b) for a in workloads.SIGNS for b in workloads.SIGNS]
    for seed in (1, 2):
        shears = tuple(random.Random(seed).sample(pairs, 2))
        yield f"four_chart {shears}", workloads.four_chart_scenario(*workloads.FOUR_TWIST, shears)


def test_overlap_linear_data_equals_the_written_out_oracle():
    cases = builtin_schedule() + list(four_chart_scenarios())
    cases += [("four-chart fixture", four_chart_scenario()),
              ("quadric O(1,1)", quadric_scenario(1, 1))]
    checked = 0
    for label, s in cases:
        ctx = build_context(s, 2)
        for o in s.overlaps:
            i, j = o.pair
            geom = ctx.pairs[o.pair]
            tr = ChartTransition(s.overlap_ring(o, i), s.overlap_ring(o, j),
                                 o.forward_u, o.forward_t, o.backward_u, o.backward_t)
            oracle = linear_part_oracle(tr)
            # the engine keeps the forward linear data; the Jacobians serve the cup oracle
            for name in ("images_ji", "conormal_ji"):
                assert getattr(geom, name) == oracle[name], (label, o.pair, name)
            assert induced_transition(geom.transition, ctx.order).is_unipotent(), (label, o.pair)
            checked += 1
    assert checked >= 60


MEMO_CONTEXTS = {
    "four_chart": lambda: build_context(four_chart_scenario(), 2),
    "line_in_p2": lambda: build_context(generate_builtin("line_in_p2", d=2, twist=1), 2),
    "diagonal_p1xp1": lambda: build_context(generate_builtin("diagonal_p1xp1", d=1), 2),
    "hyperplane_p2_in_p3": lambda: build_context(
        generate_builtin("hyperplane_p2_in_p3", d=2, twist=1), 2
    ),
    "p1_in_line_bundle": lambda: build_context(generate_builtin("p1_in_line_bundle", d=3), 2),
}
_memo_contexts = {}


def memo_context(name):
    # one context per scenario across examples, so the memo fills up and is reused
    if name not in _memo_contexts:
        _memo_contexts[name] = MEMO_CONTEXTS[name]()
    return _memo_contexts[name]


@st.composite
def overlap_polynomials(draw):
    ctx = memo_context(draw(st.sampled_from(sorted(MEMO_CONTEXTS))))
    pair = draw(st.sampled_from(sorted(ctx.pairs)))
    ring = ctx.pairs[pair].ring_j
    exps = st.tuples(
        *[st.integers(-3, 3)] * ring.p, *[st.integers(0, ctx.order + 1)] * ring.q
    )
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    terms = draw(st.dictionaries(exps, coeffs, max_size=5))
    return ctx, pair, LaurentPoly(ring.names, terms)


@given(overlap_polynomials())
@settings(max_examples=120, deadline=None)
def test_memoized_scalar_transport_equals_one_substitution(case):
    ctx, pair, value = case
    for full in (False, True):
        try:
            expected = direct_pullback(ctx, pair, value, full)
        except EngineError as err:
            with pytest.raises(type(err)):
                ctx.pullback(pair, value, full)
            continue
        assert ctx.pullback(pair, value, full) == expected
        # a second call is served from the memo and still agrees
        assert ctx.pullback(pair, value, full) == expected


def test_contexts_with_different_transitions_share_no_memo():
    # t1 moves to u1^-d t1: the same pair and variables, different transitions
    first = build_context(generate_builtin("p1_in_line_bundle", d=2), 2)
    second = build_context(generate_builtin("p1_in_line_bundle", d=4), 2)
    pair = (0, 1)
    value = first.pairs[pair].ring_j.monomial((2, 1), Fraction(3, 2))
    for full in (False, True):
        moved_first = first.pullback(pair, value, full)
        moved_second = second.pullback(pair, value, full)
        assert moved_first == direct_pullback(first, pair, value, full)
        assert moved_second == direct_pullback(second, pair, value, full)
        assert moved_first != moved_second
        # the variable powers behind them were built by each context for itself
        mine, theirs = first._substitutions[(pair, full)], second._substitutions[(pair, full)]
        assert mine._powers[("t1", 1)] != theirs._powers[("t1", 1)]
        assert mine._monomials is not theirs._monomials
        assert mine._powers is not theirs._powers
    assert first._elementary_images is not second._elementary_images
    # elementary transports read the same key but each context moves it its own way
    key = (pair, cech.SYM_END, (0, 0), value.sorted_terms()[0][0])
    assert first.elementary_to_low(*key) != second.elementary_to_low(*key)
