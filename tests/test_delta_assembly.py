"""delta columns read off cofaces, their sparse system, the rank split and the transports.

``cech_differential`` of a whole elementary cochain is the oracle for the
columns, and ``CechContext.transport`` of a whole elementary matrix for
each moved monomial, read off the column writer both where the transport
moves exponents and where it goes through ``Substitution``.  A
dense matrix written out here is the oracle for the sparse system built
from the columns and for the torsor count's rank split; one
elimination of the whole [A | b] is the oracle for the walked blocks'
elimination with the other rows folded in after it; the columns of the
whole window map are the oracle for ``preimages``; the
full fold of every row inside the window is the oracle for the torsor
read on the solve's free columns; and one truncated substitution of a
whole polynomial is the oracle for each transport's memoized
substitution, linear and full.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbhdext import cech, scenarios
from nbhdext.cech import _assemble_cochain, cech_differential, cochain_coordinates
from nbhdext.errors import EngineError
from nbhdext.filtered import ChartRing, ChartTransition, induced_transition
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import (
    ExactLinearSystem, PolyMatrix, Solution, _rref, matrix_rank, solve_exact,
)
from nbhdext.scenarios import (
    OverlapSpec, Scenario, build_context, generate_builtin, run_pipeline, validate_scenario,
)

from test_acceptance import GOLDEN_DIGESTS
from test_filtered import subst_oracle
from test_integration import four_chart_scenario, trivial_line_scenario
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


def coordinate_keys_of(ctx):
    """The context's int row keys translated back to (simplex, entry, exps)."""
    return {i: kk for kk, i in ctx._row_ids.items()}


def moved_coordinates(ctx, pair, vtype, entry, exps):
    """(entry, exps) -> coefficient of the key E_entry . x^exps moved low through ``pair``.

    They are read off the column the writer builds for the chart key
    ((j,), entry, exps): its part on the coface ``pair`` = (i, j), whose
    first vertex the chart's key is moved across.
    """
    [column] = cech._delta_columns(ctx, vtype, [((pair[1],), entry, exps)])
    keys = coordinate_keys_of(ctx)
    return {keys[i][1:]: x for i, x in column.items() if keys[i][0] == pair}


def assert_columns_match_full_differential(ctx):
    assert ctx._delta_maps, "the pipeline assembled no delta columns"
    keys = coordinate_keys_of(ctx)
    assert sorted(keys) == list(range(len(keys))), "row keys are not numbered 0, 1, ..."
    for (vtype, sdeg, _, _), (basis, columns) in ctx._delta_maps.items():
        assert len(basis) == len(columns)
        for key, col in zip(basis, columns):
            oracle = cochain_coordinates(
                cech_differential(ctx, _elementary_cochain(ctx, vtype, sdeg, key))
            )
            col = {keys[i]: x for i, x in col.items()}
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
    # system builds only the FUNCTION columns its walk reaches, one at a time
    ctx = build_context(s, 2)
    end_1 = tuple(cech._window_basis(ctx, ctx.nerve.doubles(), cech.SYM_END, 1, s.window))
    assert len(end_1) == 84
    assert built.count((cech.SYM_END, end_1)) == 1
    assert all(len(basis) == 1 for vtype, basis in built if vtype == cech.FUNCTION)


@pytest.mark.parametrize("name, d, twist", [("p1_in_line_bundle", 3, 0), ("line_in_p2", 0, 1)])
def test_a_nerve_without_triples_builds_solves_and_lifts_nothing(monkeypatch, name, d, twist):
    """delta_1 = 0 on two charts: no End E column on a double, no obstruction solve, no lift product.

    The same wrappers see the work that remains: delta_0's columns on the
    charts for the torsor count, the rank-one solve and its own products.
    """
    inside, double_columns, chart_columns, order_solves, other_solves, products = \
        [], [], [], [], [], []
    real_columns, real_solved, real_matmul = cech._delta_columns, cech._solved, ChartRing.matmul

    def within(label, real):
        def call(*args):
            inside.append(label)
            try:
                return real(*args)
            finally:
                inside.pop()
        return call

    def columns(ctx, vtype, basis):
        if vtype == cech.SYM_END:
            for key in basis:
                (double_columns if len(key[0]) == 2 else chart_columns).append(key)
        return real_columns(ctx, vtype, basis)

    def solved(*args):
        (order_solves if "solve_coboundary" in inside else other_solves).append(args)
        return real_solved(*args)

    def matmul(ring, *args):
        if "lift_transitions" in inside:
            products.append(args)
        return real_matmul(ring, *args)

    monkeypatch.setattr(scenarios, "solve_coboundary",
                        within("solve_coboundary", scenarios.solve_coboundary))
    monkeypatch.setattr(scenarios, "lift_transitions",
                        within("lift_transitions", scenarios.lift_transitions))
    monkeypatch.setattr(cech, "_delta_columns", columns)
    monkeypatch.setattr(cech, "_solved", solved)
    monkeypatch.setattr(ChartRing, "matmul", matmul)
    bundle = run_pipeline(generate_builtin(name, d=d, twist=twist), k=3)
    assert all(isinstance(r.status, cech.Solved) for r in bundle.reports)
    assert any(r.status.torsor_dim for r in bundle.reports)
    assert bundle.abelianized["exact"]
    assert not double_columns and not order_solves and not products
    assert chart_columns and other_solves


def test_rank_one_stage_builds_only_the_walked_columns(monkeypatch):
    """The rank-one system builds no whole-window FUNCTION map, only the columns its walk reaches.

    On the twisted hyperplane the full image of v2~ on overlap (0, 1) has
    two terms, so the walk reads the moved-key index of ``_moved_rows``;
    the key pass for ``constraints`` moves every window monomial but builds
    no column.  Coefficients are built for the walked columns alone.
    """
    built, solves, contexts = [], [], []
    real_columns, real_solve, real_build = cech._delta_columns, scenarios.solve_delta, \
        scenarios.build_context

    def counting(ctx, vtype, basis):
        built.append((vtype, list(basis)))
        return real_columns(ctx, vtype, basis)

    def solve(ctx, rhs, sdegs, window):
        solves.append(real_solve(ctx, rhs, sdegs, window))
        return solves[-1]

    monkeypatch.setattr(cech, "_delta_columns", counting)
    monkeypatch.setattr(scenarios, "solve_delta", solve)
    monkeypatch.setattr(scenarios, "build_context",
                        lambda s, k: contexts.append(real_build(s, k)) or contexts[-1])
    bundle = run_pipeline(generate_builtin("hyperplane_p2_in_p3", d=1, twist=1), k=2)
    [ctx], [walked] = contexts, solves  # only the rank-one system calls scenarios.solve_delta
    assert bundle.abelianized == {"exact": True, "unknowns": 168, "constraints": 122}
    assert not [key for key in ctx._delta_maps if key[0] == cech.FUNCTION]
    function_columns = [basis for vtype, basis in built if vtype == cech.FUNCTION]
    assert all(len(basis) == 1 for basis in function_columns)
    assert sorted(key for [key] in function_columns) == sorted(walked.columns)
    assert 0 < len(walked.columns) <= 4


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
    kept = [kk for kk in exclude if draw(st.booleans())]
    return columns, rhs, exclude, kept


def dense_row_keys(columns, rhs=()):
    """The dense system's rows: every key the columns or rhs touch, in first-seen order."""
    row_keys = []
    for source in [*columns, rhs]:
        for kk in source:
            if kk not in row_keys:
                row_keys.append(kk)
    return row_keys


def touched_keys(columns, rhs):
    """The row keys joined to ``rhs``'s keys through shared columns: a closure to a fixed point."""
    keys = set(rhs)
    while True:
        grown = keys.union(*(col for col in columns if keys & set(col)))
        if grown == keys:
            return keys
        keys = grown


def block_solve(columns, rhs):
    """The walked solve on abstract columns: (walked columns, rows reached, system, solution, rest).

    ``cech._walk`` goes from ``rhs``'s keys to the columns that hold them,
    found here by brute force, and on; the walked columns, in order, make
    the system; ``rest`` holds the rows the walk did not reach.
    """
    walked, reached = cech._walk(rhs, lambda kk: [k for k, col in enumerate(columns) if kk in col],
                                 columns.__getitem__)
    keep = sorted(walked)
    built = cech._system(keep, [columns[k] for k in keep], rhs)
    rest = [row for kk, row in cech._rows(columns).items() if kk not in reached]
    return keep, reached, built, solve_exact(built), rest


def whole_particular(keep, sol, n):
    """The walked solution's particular part over all n columns, 0 off the walked ones."""
    if not sol.consistent:
        return None
    particular = [0] * n
    for k, x in zip(keep, sol.particular):
        particular[k] = x
    return particular


def fold_rest(keep, sol, rest, n):
    """The walked solve's reduced form in the whole numbering, with ``rest`` folded in after it."""
    at = lambda c: keep[c] if c < len(keep) else n
    reduced = {at(p): {at(c): x for c, x in row.items()} for p, row in sol.reduced.items()}
    return _rref(sorted(rest, key=len), reduced)


@given(column_systems())
@settings(max_examples=150, deadline=None)
def test_sparse_system_matches_the_dense_system(system):
    columns, rhs, _, _ = system
    row_keys = dense_row_keys(columns, rhs)
    dense = [[col.get(kk, F(0)) for col in columns] for kk in row_keys]
    dense_rhs = [rhs.get(kk, F(0)) for kk in row_keys]
    n = len(columns)

    # the rows of the columns alone, in first-seen order, zeros left out
    rows = cech._rows(columns)
    assert list(rows) == dense_row_keys(columns)
    assert [[row.get(k, F(0)) for k in range(n)] for row in rows.values()] == [
        line for kk, line in zip(row_keys, dense) if kk in rows]
    assert all(all(x != 0 for x in row.values()) for row in rows.values())

    # the system solve_delta solves: the walked columns, in order, and the
    # rows of the blocks rhs touches, in dense order; the rest are the
    # other rows in the same order
    keep, reached, built, sol, rest = block_solve(columns, rhs)
    assert reached == touched_keys(columns, rhs)
    touched = [i for i, kk in enumerate(row_keys) if kk in reached]
    assert keep == [k for k, col in enumerate(columns) if reached & set(col)]
    assert built.basis == keep
    assert built.matrix == [[dense[i][k] for k in keep] for i in touched]
    assert built.rhs == [dense_rhs[i] for i in touched]
    assert [[row.get(k, F(0)) for k in range(n)] for row in rest] == [
        dense[i] for i in range(len(row_keys)) if i not in touched]
    assert not any(dense_rhs[i] for i in range(len(row_keys)) if i not in touched)
    # the figures the tracer reads off the dense view, and the whole count
    assert len(built.rows) + len(rest) == len(row_keys)
    assert (sum(1 for line in built.matrix for x in line if x != 0) + sum(map(len, rest))
            == sum(map(len, columns)))

    consistent, particular, nullspace, rank = dense_gauss_jordan(dense, dense_rhs, n)
    assert (sol.consistent, whole_particular(keep, sol, n)) == (consistent, particular)
    assert sol.free == sorted(sol.free)
    # with the rest folded in, the free columns and kernel are the whole system's
    reduced = fold_rest(keep, sol, rest, n)
    whole = Solution(sol.consistent, particular, [f for f in range(n) if f not in reduced], reduced)
    free = whole.free
    assert whole.nullspace == nullspace
    # the free columns, ascending: each kernel vector is 1 at its own and 0 at the others
    assert len(free) == n - rank
    assert [[vec[f] for f in free] for vec in nullspace] == [
        [int(a == b) for b in free] for a in free]
    assert matrix_rank(rows.values()) == rank


@given(column_systems(), st.sampled_from(["drawn", "empty", "every block"]))
@settings(max_examples=200, deadline=None)
def test_touched_solve_then_rest_fold_equals_one_elimination(system, which):
    """Eliminating the walked blocks, then folding the rest in, is one elimination of [A | b].

    The whole system is written out here by hand, so the oracle shares no
    code with ``_rows`` or the block walk.  ``solve_coboundary`` reads the
    free columns as those that are neither a walked pivot nor a pivot of
    the rest reduced on its own; that is checked too.
    """
    columns, rhs, _, _ = system
    every = {kk for col in columns for kk in col}
    if which == "empty":
        rhs = {}
    elif which == "every block":
        rhs = {**{kk: F(1) for kk in every}, **rhs}
    n = len(columns)
    row_keys = dense_row_keys(columns, rhs)
    whole_rows = [{k: col[kk] for k, col in enumerate(columns) if kk in col} for kk in row_keys]
    whole = solve_exact(ExactLinearSystem(list(range(n)), whole_rows,
                                          [rhs.get(kk, F(0)) for kk in row_keys]))

    keep, _, built, sol, rest = block_solve(columns, rhs)
    reduced = fold_rest(keep, sol, rest, n)
    assert len(built.rows) + len(rest) == len(row_keys)
    assert (sol.consistent, whole_particular(keep, sol, n)) == (whole.consistent, whole.particular)
    assert [f for f in range(n) if f not in reduced] == whole.free
    assert reduced == whole.reduced
    assert {keep[k] for k in sol.reduced} | set(_rref(sorted(rest, key=len))) == set(whole.reduced)
    if which == "empty":
        assert not built.rows and len(rest) == len(row_keys) and sol.consistent
    elif which == "every block":
        assert not rest and len(built.rows) == len(row_keys)


@given(column_systems())
@settings(max_examples=150, deadline=None)
def test_one_elimination_splits_the_rank_at_the_excluded_rows(system):
    columns, _, exclude, kept = system
    rows = {kk: {k: col[kk] for k, col in enumerate(columns) if kk in col}
            for kk in dense_row_keys(columns)}
    outside = [row for kk, row in rows.items() if kk not in exclude]
    expected = matrix_rank(rows.values()) - matrix_rank(outside)
    assert cech._rank_inside(columns, exclude, exclude) == expected
    # and against the dense Gauss-Jordan ranks
    dense = lambda keep: [[col.get(kk, F(0)) for col in columns] for kk in rows if keep(kk)]
    rank = lambda m: dense_gauss_jordan(m, [F(0)] * len(m), len(columns))[3]
    assert expected == rank(dense(lambda kk: True)) - rank(dense(lambda kk: kk not in exclude))
    # keeping only some of the excluded rows folds just those after the outside ones
    kept_rows = [row for kk, row in rows.items() if kk in kept]
    assert cech._rank_inside(columns, exclude, kept) == (
        matrix_rank(outside + kept_rows) - matrix_rank(outside))


# -- the torsor count ------------------------------------------------------------------


def full_inside_fold(ctx, vtype, sdeg, window):
    """dim(im delta_0 & W) = rank(delta_0) - rank(P_out delta_0), over every row inside W.

    The torsor count folded every row inside the window W before it read
    the solve's free columns; this is that count, written with
    ``matrix_rank``.
    """
    inside, _ = cech._delta_map(ctx, vtype, sdeg, ctx.nerve.simplices(2), window)
    _, cols = cech._delta_map(ctx, vtype, sdeg, ctx.nerve.simplices(1), window)
    inside = {ctx.row_id(kk) for kk in inside}
    rows = {}
    for k, col in enumerate(cols):
        for kk, x in col.items():
            rows.setdefault(kk, {})[k] = x
    outside = [row for kk, row in rows.items() if kk not in inside]
    return matrix_rank(rows.values()) - matrix_rank(outside)


def torsor_cases():
    """(label, scenario, order, window) for every builtin and the hand-built fixtures."""
    for name in scenarios.BUILTIN_NAMES:
        twists = (0, 1, F(-1, 2)) if name in scenarios.TWISTED_BUILTINS else (0,)
        for d in range(-3, 4):
            for tw in twists:
                s = generate_builtin(name, d=d, twist=tw)
                for k in range(1, s.max_order + 1):
                    for window in (None, (-3, 3), (-8, 8)):
                        yield f"{name}(d={d}, twist={tw})", s, k, window
    s = four_chart_scenario()
    for k in range(1, 4):
        for w in (5, 6, 7):
            yield "four-chart fixture", s, k, (-w, w)
    for a, b in ((1, 1), (2, 2), (2, -1)):
        s = quadric_scenario(a, b)
        for k in range(1, s.max_order + 1):
            yield f"quadric O({a},{b})", s, k, None
    s = mixing_line_scenario()
    for k in range(1, 4):
        yield "mixing line", s, k, None


def test_torsor_from_the_free_columns_equals_the_full_inside_fold(monkeypatch):
    """Each solved order's torsor is nullity(delta_1 | W) - dim(im delta_0 & W), both counted here.

    The nullity is the window size minus the rank of delta_1's columns on W,
    and the image is ``full_inside_fold``, so neither count reads the
    solve's free columns.
    """
    checked = []
    real = scenarios.solve_coboundary

    def solve_and_check(ctx, target, window):
        status = real(ctx, target, window)
        if isinstance(status, cech.Solved):
            vtype, sdeg = target.vtype, target.sdeg
            _, cols = cech._delta_map(ctx, vtype, sdeg, ctx.nerve.simplices(2), window)
            rows = {}
            for k, col in enumerate(cols):
                for kk, x in col.items():
                    rows.setdefault(kk, {})[k] = x
            nullity = len(cols) - matrix_rank(rows.values())
            expected = nullity - full_inside_fold(ctx, vtype, sdeg, window)
            assert status.torsor_dim == expected, (label, sdeg, window)
            checked.append(expected)
        return status

    monkeypatch.setattr(scenarios, "solve_coboundary", solve_and_check)
    # the count rests on delta_1 delta_0 = 0, which validation guarantees
    assert validate_scenario(mixing_line_scenario()).ok
    for label, s, k, window in torsor_cases():
        run_pipeline(s, k=k, window=window)
    assert len(checked) > 1000 and max(checked) > 0


# -- elementary transports ------------------------------------------------------------


def mixing_line_scenario() -> Scenario:
    """A rank-two bundle on two charts of P^1 in codimension two, with mixing frames.

    The normal coordinates move by t1 -> (t1 + t2)/u and t2 -> t2/u, so the
    conormal matrix is not diagonal and the linear image of t1 has two
    terms; the bundle transition [[1/u, 1 + 1/u^2], [0, 1/u]] has an entry
    with two terms too.  The nerve has no triple.
    """
    names = ("u1", "t1", "t2")
    P = lambda terms: LaurentPoly(names, terms)
    u_inv = P({(-1, 0, 0): 1})
    inv = ((1,),)
    overlap = OverlapSpec(
        (0, 1), {0: inv, 1: inv},
        (u_inv,), (P({(-1, 1, 0): 1, (-1, 0, 1): 1}), P({(-1, 0, 1): 1})),
        (u_inv,), (P({(-1, 1, 0): 1, (-1, 0, 1): -1}), P({(-1, 0, 1): 1})),
    )
    g = PolyMatrix([[u_inv, P({(0, 0, 0): 1, (-2, 0, 0): 1})], [P({}), u_inv]])
    return Scenario(
        name="mixing_line", p=1, q=2, e=2, max_order=3,
        charts_inverted=[(), ()], overlaps=[overlap], triples=[], g={(0, 1): g},
        gammas=[[PolyMatrix.zero(2, 2, names)] for _ in range(2)], flat=[True, True],
        window=(-4, 4),
    )


def test_elementary_transport_equals_the_whole_transport():
    """Each column piece equals the transport of E_rc . x^exps, key order included.

    The four-chart fixture is rank two, and on overlap (2, 3) its
    transition [[1 - u^3, -u], [u^2, 1]] mixes every entry; there every
    linear image of a monomial has one term, so the pattern only shifts.
    On ``mixing_line_scenario`` the linear image of t1 has two terms, so
    the pattern's products accumulate.
    """
    four = build_context(four_chart_scenario(), 2)
    assert all(p.terms for row in four.bundle.g[(2, 3)].entries for p in row)
    mixing = build_context(mixing_line_scenario(), 2)
    rng = random.Random(14)
    longest = {}
    for label, ctx in (("four_chart", four), ("mixing_line", mixing)):
        for pair in sorted(ctx.pairs):
            ring = ctx.pairs[pair].ring_high
            for sdeg in (1, 2):
                for t_exps in ring.t_monomials(sdeg):
                    for _ in range(6):
                        exps = (rng.randint(-4, 4),) + t_exps
                        entry = (rng.randrange(2), rng.randrange(2))
                        elementary = ctx.zero_value(cech.SYM_END, ring)
                        elementary.entries[entry[0]][entry[1]] = ring.monomial(exps)
                        whole = cech._coordinates(ctx.transport(pair, cech.SYM_END, elementary))
                        moved = moved_coordinates(ctx, pair, cech.SYM_END, entry, exps)
                        assert moved == whole, (label, pair, entry, exps)
                        assert list(moved) == list(whole), (label, pair, entry, exps)
                        linear = pullback(ctx, pair, ring.monomial(exps), False)
                        longest[label] = max(longest.get(label, 0), len(linear.terms))
                        # the full substitution moves functions
                        full = pullback(ctx, pair, ring.monomial(exps), True)
                        moved = moved_coordinates(ctx, pair, cech.FUNCTION, (0, 0), exps)
                        assert list(moved.items()) == [
                            (((0, 0), e), x) for e, x in full.sorted_terms()]
    # the shift and the accumulating product both ran
    assert longest == {"four_chart": 1, "mixing_line": 3}
    # every four-chart overlap moves End E by exponent arithmetic alone; the mixing
    # line moves u1 and t2 by exponents and t1, the variable ``rest`` indexes, by substitution
    assert all(four.transport_of(pair, cech.SYM_END).rest == () for pair in four.pairs)
    assert mixing.transport_of((0, 1), cech.SYM_END).rest == (1,)


def test_elementary_transport_refuses_other_value_types():
    ctx = build_context(four_chart_scenario(), 2)
    for refused in (
        lambda: ctx.transport_of((0, 1), "form_end"),
        lambda: ctx.transport((0, 1), "form_end", PolyMatrix.identity(2, ("u1", "t1"))),
        lambda: cech._delta_columns(ctx, "form_end", [((1,), (0, 0), (0, 1))]),
    ):
        with pytest.raises(ValueError, match="unknown value type 'form_end'"):
            refused()
    assert not ctx._transports


def test_both_transports_in_one_run(monkeypatch):
    """Transports that move exponents wholly and partly build columns of one pipeline run.

    Each (pair, value type) whose transport moved a monomial for the
    columns maps to its ``rest``: the variables whose image has several
    terms and moves through ``Substitution``.
    ``mixing_line_scenario``'s linear image of t1 has two terms, so its
    End E columns move t1 by substitution and u1, t2 by exponents.  On
    hyperplane_p2_in_p3 with a twist the linear images are monomials but
    the full image of v2~ on overlap (0, 1) is v2/v1 + s/v1, so in the same
    context the End E columns use whole exponent maps and the rank-one
    system's function columns move only v2~ by substitution.
    """
    cases = [
        (mixing_line_scenario(), {((0, 1), cech.SYM_END): (1,)}),
        (generate_builtin("hyperplane_p2_in_p3", d=1, twist=1), {
            ((0, 1), cech.SYM_END): (), ((0, 2), cech.SYM_END): (),
            ((1, 2), cech.SYM_END): (), ((0, 1), cech.FUNCTION): (1,),
        }),
    ]
    for s, paths in cases:
        (ctx,) = pipeline_contexts(monkeypatch, s)
        moving = {key: tr for key, tr in ctx._transports.items() if tr._moved}
        assert all(tr.exponents for tr in moving.values())
        assert {key: tr.rest for key, tr in moving.items()} == paths
        assert_columns_match_full_differential(ctx)


def test_one_transport_per_pair_and_value_type(monkeypatch):
    """A pipeline run makes each (pair, value type) transport once, and every reader shares it.

    ``transition_defect`` reads the full substitution, ``cech_differential``
    moves whole values through ``CechContext.transport`` and the delta
    columns move monomials; each asks ``CechContext.transport_of``, and
    every answer for one key is the one object made for it.  The twisted
    hyperplane has a triple and rank one, so both value types are read.
    """
    made, read = [], {}
    real_init, real_of = cech.Transport.__init__, cech.CechContext.transport_of

    def init(self, ctx, pair, vtype):
        made.append((pair, vtype))
        real_init(self, ctx, pair, vtype)

    def transport_of(ctx, pair, vtype):
        transport = real_of(ctx, pair, vtype)
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
            caller = caller.f_back
        read.setdefault(caller.f_code.co_name, set()).add(((pair, vtype), id(transport)))
        return transport

    monkeypatch.setattr(cech.Transport, "__init__", init)
    monkeypatch.setattr(cech.CechContext, "transport_of", transport_of)
    (ctx,) = pipeline_contexts(monkeypatch, generate_builtin("hyperplane_p2_in_p3", d=1, twist=1))
    assert len(made) == len(set(made)) == len(ctx._transports)
    objects = {(key, id(transport)) for key, transport in ctx._transports.items()}
    assert {"transition_defect", "transport", "_delta_columns"} <= set(read)
    for reader, seen in read.items():
        assert seen <= objects, reader
    assert {key[1] for key, _ in read["transition_defect"]} == {cech.FUNCTION}
    assert {key[1] for key, _ in read["_delta_columns"]} == {cech.FUNCTION, cech.SYM_END}


# -- the exponent map -----------------------------------------------------------------

UNIT_COEFFICIENTS = (1, -1, 2, -2, F(1, 2), F(-1, 2))


def two_chart_context(ring, forward_u, forward_t, g, order):
    """A maker of fresh contexts on two copies of ``ring`` joined by one transition."""

    def context():
        tr = ChartTransition(ring, ring, forward_u, forward_t, forward_u, forward_t)
        nerve = cech.CoverNerve([ring, ring], {(0, 1): tr}, {})
        return cech.CechContext(nerve, cech.BundleData(g.rows, {(0, 1): g}), order)

    return context


@st.composite
def partly_one_term_transports(draw):
    """A two-chart context whose transition sends most variables to one term, and a key.

    p, q in {1, 2}; each image has a coefficient in +-1, +-2, +-1/2 and
    t-degree 0 or 1.  Now and then an image gets a second term of t-degree
    0 or 1, which the exponent map leaves to the substitution, and now and
    then the last normal image is missing.  The bundle has rank one or
    two, with a unit-monomial determinant and, in rank two, an off-diagonal
    entry that may carry t.
    """
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ring = ChartRing(tuple(f"u{b + 1}" for b in range(p)), tuple(f"t{a + 1}" for a in range(q)))
    u_exps = lambda: draw(st.tuples(*[st.integers(-3, 3)] * p))

    def term():
        t = [0] * q
        if draw(st.booleans()):
            t[draw(st.integers(0, q - 1))] = 1
        return ring.monomial(u_exps() + tuple(t), draw(st.sampled_from(UNIT_COEFFICIENTS)))

    image = lambda: term() + term() if draw(st.integers(0, 3)) == 0 else term()
    forward_u = tuple(image() for _ in range(p))
    forward_t = tuple(image() for _ in range(q))
    if draw(st.integers(0, 4)) == 0:
        forward_t = forward_t[:-1]
    rank = draw(st.integers(1, 2))
    entry = lambda: ring.monomial(u_exps() + (0,) * q, draw(st.sampled_from(UNIT_COEFFICIENTS)))
    if rank == 1:
        g = PolyMatrix([[entry()]])
    else:
        corner = ring.monomial(u_exps() + (draw(st.integers(0, 1)),) + (0,) * (q - 1),
                               draw(st.sampled_from(UNIT_COEFFICIENTS)))
        g = PolyMatrix([[entry(), corner], [ring.zero(), entry()]])
    order = draw(st.integers(0, 3))
    exps = u_exps() + draw(st.tuples(*[st.integers(0, 3)] * q))
    key = ((draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))), exps)
    return two_chart_context(ring, forward_u, forward_t, g, order), key


def fallback_case(order, exps, u_image, *t_images):
    """On u1, t1, ...: a two-chart context with these full images and the key (0, 0) . x^exps."""
    ring = ChartRing(("u1",), tuple(f"t{a + 1}" for a in range(len(t_images))))
    P = lambda terms: LaurentPoly(ring.names, terms)
    context = two_chart_context(ring, (P(u_image),), tuple(map(P, t_images)),
                                PolyMatrix([[ring.one()]]), order)
    return context, ((0, 0), exps)


def transported(ctx, vtype, entry, exps):
    """``_coordinates`` of the whole transport of E_entry . x^exps, or the error it raises."""
    ring = ctx.pairs[(0, 1)].ring_high
    elementary = ctx.zero_value(vtype, ring)
    elementary.entries[entry[0]][entry[1]] = ring.monomial(exps)
    try:
        return cech._coordinates(ctx.transport((0, 1), vtype, elementary))
    except (ValueError, EngineError) as err:
        return err


# the full image of u1 has two terms and that of t1 one, of t-degree 1
@example(fallback_case(2, (1, 1), {(-1, 0): 1, (-1, 1): 1}, {(-1, 1): 1}))
# a negative power of t1's image, which has positive t-degree: NonInvertibleSubstitution
@example(fallback_case(2, (1, -1), {(-1, 0): 1, (-1, 1): 1}, {(-1, 1): 1}))
# t1^2 is already past order 1, so u1's part is never read
@example(fallback_case(1, (2, 2), {(-1, 0): 1, (-1, 1): 1}, {(-1, 1): 1}))
# 1/(u1 + 1) has no Laurent inverse: the remainder raises, and so does the whole monomial
@example(fallback_case(2, (-1, 1), {(1, 0): 1, (0, 0): 1}, {(0, 1): 2}))
# u1 -> t1 and t1, t2 have two terms: 1/t2's image does not exist, but u1 t1 is past
# order 1 before the whole monomial asks for it, so it moves to zero without raising
@example(fallback_case(1, (1, 1, -1), {(0, 1, 0): 1},
                       {(0, 1, 0): 1, (1, 1, 0): 1}, {(0, 0, 1): 1, (1, 0, 1): 1}))
@given(partly_one_term_transports())
@settings(max_examples=300, deadline=None)
def test_exponent_map_equals_the_truncated_substitution(case):
    """A moved monomial read off the exponent arithmetic equals the whole transport, errors too.

    The oracle moves the whole elementary matrix in a context of its own
    through ``Substitution.monomial_image`` and the bundle transitions.
    The arithmetic covers the images of one term and leaves the others,
    its ``rest``, to the substitution; it is off when an image is missing
    or none has one term.  A missing image raises its ``ValueError`` and a
    negative power of an image of t-degree 1 or of one without a unit
    monomial at t-degree 0 its ``NonInvertibleSubstitution``, on the same
    key.
    """
    context, (entry, exps) = case
    ctx, oracle = context(), context()
    tr = ctx.pairs[(0, 1)]
    p = tr.ring_low.p
    for vtype in (cech.FUNCTION, cech.SYM_END):
        images = [(tr.forward if vtype == cech.FUNCTION else tr.images_ji).get(name)
                  for name in tr.ring_high.names]
        rest = tuple(i for i, image in enumerate(images) if len(image.terms) != 1) \
            if None not in images else None
        transport = ctx.transport_of((0, 1), vtype)
        if rest is None or len(rest) == len(images):
            assert not transport.exponents
        else:
            assert transport.exponents and transport.rest == rest
        at = entry if vtype == cech.SYM_END else (0, 0)
        whole = transported(oracle, vtype, at, exps)
        if isinstance(whole, Exception):
            with pytest.raises(type(whole)) as caught:
                moved_coordinates(ctx, (0, 1), vtype, at, exps)
            assert str(caught.value) == str(whole)
            continue
        moved = moved_coordinates(ctx, (0, 1), vtype, at, exps)
        assert moved == whole, (vtype, at, exps)
        assert list(moved) == list(whole), (vtype, at, exps)
        # the exact-number rule: an integral coefficient is an int
        assert all(type(x) is int or x.denominator != 1 for x in moved.values())
        assert all(sum(e[p:]) <= ctx.order for _, e in moved)
        # the moved monomial itself is truncated, not only the column written from it
        assert all(t <= ctx.order for t, _, _ in transport.moved(exps))


# -- the substitution memo ---------------------------------------------------------


def pullback(ctx, pair, value, full):
    """``value`` through the memoized substitution of the pair's full or linear transport."""
    return ctx.transport_of(pair, cech.FUNCTION if full else cech.SYM_END).substitution(value)


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
    so the memoized substitution is not compared with itself.  The full
    one substitutes the overlap's ``forward`` images; the linear one
    substitutes the images of ``linear_part_oracle``.
    """
    g = ctx.pairs[pair]
    images = g.forward if full else linear_part_oracle(g)["images_ji"]
    return subst_oracle(value, images, ctx.order, g.ring_low)


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
            tr = ChartTransition(s.ring(o.inverted[i]), s.ring(o.inverted[j]),
                                 o.forward_u, o.forward_t, o.backward_u, o.backward_t)
            oracle = linear_part_oracle(tr)
            # the engine keeps the forward linear data; the Jacobians serve the cup oracle
            for name in ("images_ji", "conormal_ji"):
                assert getattr(geom, name) == oracle[name], (label, o.pair, name)
            assert induced_transition(geom, ctx.order).is_unipotent(), (label, o.pair)
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
    ring = ctx.pairs[pair].ring_high
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
                pullback(ctx, pair, value, full)
            continue
        assert pullback(ctx, pair, value, full) == expected
        # a second call is served from the memo and still agrees
        assert pullback(ctx, pair, value, full) == expected


def test_contexts_with_different_transitions_share_no_memo():
    # t1 moves to u1^-d t1: the same pair and variables, different transitions
    first = build_context(generate_builtin("p1_in_line_bundle", d=2), 2)
    second = build_context(generate_builtin("p1_in_line_bundle", d=4), 2)
    pair = (0, 1)
    value = first.pairs[pair].ring_high.monomial((2, 1), Fraction(3, 2))
    for full in (False, True):
        moved_first = pullback(first, pair, value, full)
        moved_second = pullback(second, pair, value, full)
        assert moved_first == direct_pullback(first, pair, value, full)
        assert moved_second == direct_pullback(second, pair, value, full)
        assert moved_first != moved_second
        # the variable powers behind them were built by each context for itself
        vtype = cech.FUNCTION if full else cech.SYM_END
        mine, theirs = first.transport_of(pair, vtype), second.transport_of(pair, vtype)
        assert mine is not theirs
        assert mine.substitution._powers[("t1", 1)] != theirs.substitution._powers[("t1", 1)]
        assert mine.substitution._monomials is not theirs.substitution._monomials
        assert mine.substitution._powers is not theirs.substitution._powers
        # moved monomials read the same key but each transport moves it its own way
        exps = value.sorted_terms()[0][0]
        assert mine.moved(exps) != theirs.moved(exps)
        assert mine._moved is not theirs._moved
    assert first._transports is not second._transports


# -- the rank-one system on the blocks its right-hand side touches -------------------


def whole_window_solve(ctx, rhs, sdegs, window):
    """delta(x) = rhs with every window column eliminated, rechecked: the oracle of the block solve.

    The rows are written out here, as ``full_inside_fold`` writes them, so
    the oracle shares no code with ``cech._rows``.  Returns (consistent,
    unknowns, constraints, coordinates of x or None).
    """
    simplices = ctx.nerve.simplices(rhs.degree)
    basis, columns = [], []
    for sdeg in sdegs:
        sdeg_basis, sdeg_columns = cech._delta_map(ctx, rhs.vtype, sdeg, simplices, window)
        basis += sdeg_basis
        columns += sdeg_columns
    b = {ctx.row_id(kk): x for kk, x in cochain_coordinates(rhs).items()}
    rows = {}
    for k, col in enumerate(columns):
        for kk, x in col.items():
            rows.setdefault(kk, {})[k] = x
    for kk in b:
        rows.setdefault(kk, {})
    system = ExactLinearSystem(list(range(len(columns))), list(rows.values()),
                               [b.get(kk, 0) for kk in rows])
    sol = solve_exact(system)
    if not sol.consistent:
        return False, len(system.basis), len(system.rows), None
    x = _assemble_cochain(ctx, rhs.degree - 1, rhs.vtype, rhs.sdeg, basis, sol.particular)
    assert cech_differential(ctx, x).add(rhs.neg()).is_zero()
    return True, len(system.basis), len(system.rows), cochain_coordinates(x)


def rank_one_cases():
    """Every rank-one builtin at d -3..3, the quadric and the trivial line bundle on the
    four-chart fixture's charts, whose nerve has a 3-simplex and whose full transports
    (shears) have images of several terms."""
    for name in scenarios.BUILTIN_NAMES:
        twists = (0, 1, -1, F(-1, 2)) if name in scenarios.TWISTED_BUILTINS else (0,)
        for d in range(-3, 4):
            for tw in twists:
                yield f"{name}(d={d}, twist={tw})", generate_builtin(name, d=d, twist=tw)
    for a, b in [(1, 1), (2, 2), (2, -1)]:
        yield f"quadric O({a},{b})", quadric_scenario(a, b)
    yield "trivial line on the four-chart charts", trivial_line_scenario()


def test_block_solve_equals_the_whole_window_solve():
    """The rank-one system solved on its walked blocks is the whole-window solve.

    Consistency, the whole system's unknowns and constraints
    (``system_size``), and lambda agree with ``whole_window_solve`` on
    every case; some cases are inconsistent, most leave columns out, and
    some leave rows out.  The walk finds its columns through ``preimages``.
    """
    seen = {"inconsistent": 0, "smaller": 0, "rest": 0, "cases": 0}
    for label, s in rank_one_cases():
        assert s.e == 1, label
        for k in range(1, s.max_order + 1):
            ctx = build_context(s, k)
            rho = cech.transition_log_defect(ctx)
            for window in (s.window, (-3, 3), (-8, 8)):
                sdegs = range(1, k + 1)
                solved = cech.solve_delta(ctx, rho, sdegs, window)
                unknowns, constraints = cech.system_size(ctx, rho, sdegs, window)
                lam = None if solved.cochain is None else cochain_coordinates(solved.cochain)
                got = (solved.solution.consistent, unknowns, constraints, lam)
                assert got == whole_window_solve(ctx, rho, sdegs, window), (label, k, window)
                seen["inconsistent"] += not solved.solution.consistent
                seen["smaller"] += len(solved.columns) < unknowns
                seen["rest"] += len(solved.rows) < constraints
                seen["cases"] += 1
    assert seen["inconsistent"] > 0 and seen["rest"] > 0
    assert seen["smaller"] > seen["cases"] // 2, seen


# -- preimages: the columns that meet a row ---------------------------------------------


def preimage_cases():
    """Every builtin at d -2..3 (twists 0, 1 and -1 where it has one), quadric O(1,1) and
    O(1,0), the mixing line and the four-chart fixture."""
    for name in scenarios.BUILTIN_NAMES:
        twists = (0, 1, -1) if name in scenarios.TWISTED_BUILTINS else (0,)
        for d in range(-2, 4):
            for tw in twists:
                yield f"{name}(d={d}, twist={tw})", generate_builtin(name, d=d, twist=tw)
    for a, b in [(1, 1), (1, 0)]:
        yield f"quadric O({a},{b})", quadric_scenario(a, b)
    yield "mixing line", mixing_line_scenario()
    yield "four-chart fixture", four_chart_scenario()


def meeting_columns(ctx, vtype, sdeg, simplices, window):
    """Row key -> the basis keys whose column in the whole window map has it."""
    basis, columns = cech._delta_map(ctx, vtype, sdeg, simplices, window)
    keys = coordinate_keys_of(ctx)
    meets = {}
    for key, column in zip(basis, columns):
        for i in column:
            meets.setdefault(keys[i], set()).add(key)
    return meets


def test_preimages_are_the_columns_that_meet_a_row(monkeypatch):
    """``preimages(row)`` lists, once each, the window keys whose delta column has that row.

    Every map the pipeline builds is checked, and the FUNCTION maps of the
    rank-one system, which it no longer builds; rows on a transported face
    are answered by the moved-key index.
    """
    checked = 0
    for label, s in preimage_cases():
        (ctx,) = pipeline_contexts(monkeypatch, s)
        maps = list(ctx._delta_maps)
        if s.e == 1:
            maps += [(cech.FUNCTION, sdeg, tuple(ctx.nerve.doubles()), tuple(s.window))
                     for sdeg in (1, 2)]
        for vtype, sdeg, simplices, window in maps:
            for row, expected in meeting_columns(ctx, vtype, sdeg, simplices, window).items():
                got = cech.preimages(ctx, row, vtype, [sdeg], window)
                assert len(got) == len(set(got)) and set(got) == expected, (label, vtype, row)
                checked += 1
    assert checked > 1000, checked


def test_preimages_at_the_window_edge_agree_with_a_wider_window():
    """Rows that columns just outside the window reach get exactly their window preimages.

    For every row of the End E maps two wider than the window on each
    side, ``preimages`` in the window are the wider map's meeting columns
    that lie in the window: none at all for rows that only columns outside
    it reach, as a window-free closure test asks.
    """
    edge = 0
    for label, s in preimage_cases():
        ctx = build_context(s, 2)
        (lo, hi), sides = s.window, (ctx.nerve.simplices(1), ctx.nerve.doubles())
        for sdeg in (1, 2):
            for simplices in sides:
                window_keys = set(cech._window_basis(ctx, simplices, cech.SYM_END, sdeg, s.window))
                wide = meeting_columns(ctx, cech.SYM_END, sdeg, simplices, (lo - 2, hi + 2))
                for row, expected in wide.items():
                    got = set(cech.preimages(ctx, row, cech.SYM_END, [sdeg], s.window))
                    assert got == expected & window_keys, (label, row)
                    edge += not got
    assert edge > 1000, edge
