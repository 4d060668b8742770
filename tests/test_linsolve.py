import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhdext.errors import NonInvertibleSubstitution
from nbhdext.filtered import ChartRing
from nbhdext.laurent import LaurentPoly, exact
from nbhdext.linsolve import (
    ExactLinearSystem,
    PolyMatrix,
    _rref,
    matrix_rank,
    solve_exact,
    sparse_rows,
)

F = Fraction


def sys_of(rows, rhs):
    width = len(rows[0]) if rows else 0
    return ExactLinearSystem(
        basis=list(range(width)),
        rows=sparse_rows([[F(x) for x in row] for row in rows]),
        rhs=[F(b) for b in rhs],
    )


def test_identity_system():
    sol = solve_exact(sys_of([[1, 0], [0, 1]], [3, 7]))
    assert sol.consistent
    assert sol.particular == [F(3), F(7)]
    assert sol.nullspace == []


def test_underdetermined_two_unknowns():
    # [[1,1]] x = [2]: hand elimination gives particular (2,0), kernel (−1,1)-line
    sol = solve_exact(sys_of([[1, 1]], [2]))
    assert sol.consistent
    assert sol.particular == [F(2), F(0)]
    assert len(sol.nullspace) == 1
    v = sol.nullspace[0]
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_inconsistent_rows():
    sol = solve_exact(sys_of([[1], [1]], [1, 2]))
    assert not sol.consistent
    assert sol.particular is None


def test_zero_rows_are_harmless():
    sol = solve_exact(sys_of([[0, 0], [1, 2]], [0, 4]))
    assert sol.consistent
    x = sol.particular
    assert x[0] + 2 * x[1] == 4


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_random_consistent_systems_solve_exactly(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = rng.randint(1, 6)
    A = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    x0 = [F(rng.randint(-4, 4)) for _ in range(n)]
    b = [sum((A[i][j] * x0[j] for j in range(n)), F(0)) for i in range(m)]
    sol = solve_exact(ExactLinearSystem(list(range(n)), sparse_rows(A), b))
    assert sol.consistent
    x = sol.particular
    for i in range(m):
        assert sum((A[i][j] * x[j] for j in range(n)), F(0)) == b[i]
    # every nullspace vector must actually lie in the kernel
    for v in sol.nullspace:
        for i in range(m):
            assert sum((A[i][j] * v[j] for j in range(n)), F(0)) == 0
    # rank-nullity within the window
    assert len(sol.nullspace) == n - matrix_rank(sparse_rows(A))


def test_determinism():
    rows = [[2, 1, 0], [0, 1, 1]]
    rhs = [1, 1]
    a = solve_exact(sys_of(rows, rhs))
    b = solve_exact(sys_of(rows, rhs))
    assert a.particular == b.particular
    assert a.nullspace == b.nullspace


def test_no_rows_leaves_every_unknown_free():
    sol = solve_exact(ExactLinearSystem(basis=["a", "b", "c"], rows=[], rhs=[]))
    assert sol.consistent
    assert sol.particular == [F(0)] * 3
    assert sol.nullspace == [[F(int(i == j)) for j in range(3)] for i in range(3)]


nonzero_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def sparse_systems(draw):
    """About two nonzeros per row; the rhs is sometimes in the column span."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7))
    rows = []
    for _ in range(m):
        entries = draw(st.dictionaries(st.integers(0, n - 1), nonzero_rationals, max_size=2))
        rows.append([entries.get(j, F(0)) for j in range(n)])
    if draw(st.booleans()):
        x0 = draw(st.lists(nonzero_rationals, min_size=n, max_size=n))
        rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=m, max_size=m))
    return rows, rhs


@given(sparse_systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_solution_ignores_row_order_and_row_scaling(system, data):
    rows, rhs = system
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(st.lists(nonzero_rationals, min_size=len(rows), max_size=len(rows)))
    n = len(rows[0])
    a = solve_exact(ExactLinearSystem(list(range(n)), sparse_rows(rows), rhs))
    b = solve_exact(ExactLinearSystem(
        list(range(n)),
        sparse_rows([[x * scales[i] for x in rows[i]] for i in order]),
        [rhs[i] * scales[i] for i in order],
    ))
    assert (a.consistent, a.particular, a.nullspace) == (b.consistent, b.particular, b.nullspace)


@given(sparse_systems())
@settings(max_examples=40, deadline=None)
def test_agrees_with_sympy_rref(system):
    sympy = pytest.importorskip("sympy")
    rows, rhs = system
    n = len(rows[0])
    augmented = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row + [b]]
                              for row, b in zip(rows, rhs)])
    reduced, pivots = augmented.rref()
    sol = solve_exact(ExactLinearSystem(list(range(n)), sparse_rows(rows), rhs))
    assert matrix_rank(sparse_rows(rows)) == augmented[:, :n].rank()
    assert sol.consistent == (n not in pivots)
    if sol.consistent:
        expected = [F(0)] * n
        for r, c in enumerate(pivots):
            expected[c] = F(int(reduced[r, n].p), int(reduced[r, n].q))
        assert sol.particular == expected


# -- the elimination against the row-scanning reference --------------------------


def rref_oracle(rows, reduced=None):
    """The reduced echelon form as it was first written: each new pivot is
    looked up in every earlier row, with no column index."""
    if reduced is None:
        reduced = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        for p in [c for c in row if c in reduced]:
            add_multiple(row, -row[p], reduced[p])
        if not row:
            continue
        pivot = min(row)
        inv = exact(1 / Fraction(row[pivot]))
        if inv != 1:
            row = {c: x * inv for c, x in row.items()}
        for other in reduced.values():
            if pivot in other:
                add_multiple(other, -other[pivot], row)
        reduced[pivot] = row
    return reduced


def add_multiple(row, factor, other):
    for c, x in other.items():
        v = row.get(c, 0) + factor * x
        if v:
            row[c] = v
        else:
            del row[c]


def typed(reduced):
    """The echelon form with each entry's type, so ``1`` and ``Fraction(1)`` differ."""
    return {p: {c: (type(x), x) for c, x in row.items()} for p, row in reduced.items()}


# ints, proper fractions, integral Fractions and zeros, on six columns
entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(-3, 3).map(F),
)
mixed_rows = st.lists(st.dictionaries(st.integers(0, 5), entries, max_size=4), max_size=6)


@given(mixed_rows, mixed_rows)
@settings(max_examples=150, deadline=None)
def test_rref_matches_the_row_scanning_reference_and_folds(a, b):
    assert typed(_rref(a + b)) == typed(rref_oracle(a + b))
    # folding b into a's echelon form, as the torsor count does, is one elimination of a + b
    assert typed(_rref(b, _rref(a))) == typed(_rref(a + b))
    assert typed(_rref(b, _rref([]))) == typed(_rref(b)) == typed(rref_oracle(b))


# -- PolyMatrix ------------------------------------------------------------

V = ("u",)


def c(x):
    return LaurentPoly.const(V, x)


def u_pow(k, coeff=1):
    return LaurentPoly.monomial(V, (k,), coeff)


def test_polymatrix_mul_and_trace():
    a = PolyMatrix([[c(1), u_pow(1)], [c(0), c(2)]])
    b = PolyMatrix([[u_pow(-1), c(0)], [c(1), c(1)]])
    prod = a.matmul(b)
    assert prod[0, 0] == u_pow(-1) + u_pow(1)
    assert prod[0, 1] == u_pow(1)
    assert prod.trace() == u_pow(-1) + u_pow(1) + c(2)


def test_polymatrix_inverse_unit_det():
    g = PolyMatrix([[u_pow(2), c(0)], [c(1), u_pow(-1)]])
    ginv = g.inverse_unit_det()
    assert g.matmul(ginv) == PolyMatrix.identity(2, V)
    assert ginv.matmul(g) == PolyMatrix.identity(2, V)


def test_polymatrix_inverse_rejects_nonunit_det():
    g = PolyMatrix([[c(1) + u_pow(1), c(0)], [c(0), c(1)]])
    with pytest.raises(NonInvertibleSubstitution):
        g.inverse_unit_det()


TRUNC_RING = ChartRing(("u",), ("t",))
# (matrix product, entry product) of each case
MULS = {
    "plain": (PolyMatrix.matmul, lambda a, b: a * b),
    "truncating": (lambda a, b: TRUNC_RING.matmul(a, b, 1), lambda a, b: TRUNC_RING.mul(a, b, 1)),
}


def naive_matmul(a, b, mul):
    """The plain triple loop: every product formed, summed over k in order."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = None
            for k in range(a.cols):
                term = mul(a[i, k], b[k, j])
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


@st.composite
def half_zero_matrix_pairs(draw):
    """An r x k and a k x c matrix over (u, t), about half of the entries zero."""
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    terms = st.dictionaries(
        st.tuples(st.integers(-1, 1), st.integers(0, 2)),
        st.sampled_from([F(-1), F(1), F(2)]),
        min_size=1,
        max_size=2,
    )

    def entry():
        return LaurentPoly(TRUNC_RING.names, draw(terms) if draw(st.booleans()) else {})

    return (PolyMatrix([[entry() for _ in range(k)] for _ in range(r)]),
            PolyMatrix([[entry() for _ in range(c)] for _ in range(k)]))


@pytest.mark.parametrize("mul_name", sorted(MULS))
@given(pair=half_zero_matrix_pairs())
@settings(max_examples=80, deadline=None)
def test_zero_skipping_matmul_matches_the_triple_loop(mul_name, pair):
    a, b = pair
    matmul, mul = MULS[mul_name]
    got = matmul(a, b)
    expected = naive_matmul(a, b, mul)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            # report bytes follow term order, and a zero entry keeps the ring's variables
            assert list(got[i, j].terms.items()) == list(expected[i][j].terms.items())
            assert got[i, j].vars == expected[i][j].vars
