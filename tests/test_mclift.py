import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhdext.errors import NotMaurerCartan, SectionNotValued
from nbhdext.mclift import (
    AbelianExtension,
    GradedDgLie,
    _half,
    add,
    defects,
    is_mc,
    is_zero,
    lift_residual,
    scale,
    sub,
    vec,
)

F = Fraction


def abelian(degrees, d_pairs=()):
    """Abelian algebra; d_pairs maps source index -> (target index, coeff)."""
    n = len(degrees)
    d = [[F(0)] * n for _ in range(n)]
    for j, (i, c) in dict(d_pairs).items():
        d[i][j] = F(c)
    return GradedDgLie(tuple(degrees), tuple(tuple(row) for row in d), {})


def two_step_nilpotent():
    """x, y degree 1; z degree 2; [x,x] = 2z, [y,y] = -2z, [x,y] = 0, d = 0.

    Graded-antisymmetric (odd-odd brackets are symmetric) and z is central,
    so Jacobi is automatic.
    """
    return GradedDgLie(
        (1, 1, 2),
        tuple(tuple(F(0) for _ in range(3)) for _ in range(3)),
        {
            (0, 0): {2: F(2)},
            (1, 1): {2: F(-2)},
        },
    )


def heisenberg_extension():
    """Ambient: x, y degree 1, z degree 2 central with [x,y] = [y,x] = z.

    The kernel is spanned by z; the quotient is abelian on (x, y).
    """
    amb = GradedDgLie(
        (1, 1, 2),
        tuple(tuple(F(0) for _ in range(3)) for _ in range(3)),
        {
            (0, 1): {2: F(1)},
            (1, 0): {2: F(1)},
        },
    )
    return AbelianExtension(amb, kernel=(2,))


def test_validation_rejects_bad_grading():
    with pytest.raises(ValueError):
        GradedDgLie((0, 0), ((F(0), F(1)), (F(0), F(0))), {})


def test_validation_rejects_non_jacobi():
    # [a,b]=c, [a,c]=a: the Jacobiator on (a,b,c) equals c
    with pytest.raises(ValueError):
        GradedDgLie(
            (0, 0, 0),
            tuple(tuple(F(0) for _ in range(3)) for _ in range(3)),
            {
                (0, 1): {2: F(1)},
                (1, 0): {2: F(-1)},
                (0, 2): {0: F(1)},
                (2, 0): {0: F(-1)},
            },
        )


def test_is_mc_zero_and_closed():
    alg = abelian((1, 2), {0: (1, 1)})  # d(b0) = b1
    ok, _ = is_mc(alg, vec(2, {0: 1}))
    assert not ok
    alg2 = abelian((1, 2))
    ok, witness = is_mc(alg2, vec(2, {0: 5}))
    assert ok and is_zero(witness)
    ok, _ = is_mc(alg2, vec(2))
    assert ok


def test_is_mc_nontrivial_bracket():
    alg = two_step_nilpotent()
    # phi = x + y: [phi,phi] = 2z - 2z = 0
    ok, _ = is_mc(alg, vec(3, {0: 1, 1: 1}))
    assert ok
    # phi = x alone: [x,x]/2 = z != 0
    ok, witness = is_mc(alg, vec(3, {0: 1}))
    assert not ok and witness == vec(3, {2: 1})


def test_defects_vanish_for_lie_section():
    ext = heisenberg_extension()
    d1, d2 = defects(ext)
    # canonical section of an extension with central kernel: delta1 = 0
    assert is_zero(d1(vec(2, {0: 1})))
    # delta2 measures the central commutator defect, by hand [sx, sy] = z
    assert d2(vec(2, {0: 1}), vec(2, {1: 1})) == vec(3, {2: 1})


def test_defects_graded_symmetry():
    ext = heisenberg_extension()
    _, d2 = defects(ext)
    x, y = vec(2, {0: 1}), vec(2, {1: 1})
    # both arguments odd: the defect is symmetric under exchange
    assert d2(x, y) == d2(y, x)


def test_section_not_valued_detection():
    amb = abelian((1, 1, 2))
    with pytest.raises(SectionNotValued):
        AbelianExtension(
            amb,
            kernel=(2,),
            section={0: vec(3, {0: 1, 1: 1}), 1: vec(3, {1: 1})},
        )


def test_defects_vanish_for_direct_sum_section():
    # a direct-sum extension with the coordinate section is a dg-Lie morphism
    amb = GradedDgLie(
        (1, 2, 1, 2),
        (
            (F(0), F(0), F(0), F(0)),
            (F(2), F(0), F(0), F(0)),
            (F(0), F(0), F(0), F(0)),
            (F(0), F(0), F(3), F(0)),
        ),
        {(0, 0): {1: F(2)}},
    )
    ext = AbelianExtension(amb, kernel=(2, 3))
    d1, d2 = defects(ext)
    for x in [vec(2, {0: 1}), vec(2, {1: 1}), vec(2, {0: 2, 1: -1})]:
        assert is_zero(d1(x))
    assert is_zero(d2(vec(2, {0: 1}), vec(2, {0: 1})))


def test_lift_residual_is_affine_in_alpha():
    # residual(alpha) - residual(0) = (d + phi.)alpha for every alpha
    rng = random.Random(17)
    for _ in range(10):
        ext = random_two_level_extension(rng)
        amb = ext.ambient
        kernel_deg1 = [i for i in ext.kernel if amb.degrees[i] == 1]
        for phi in quotient_mc_candidates(ext.quotient, [F(0), F(1), F(-1)]):
            for coeffs in itertools.product([F(1), F(-2)], repeat=len(kernel_deg1)):
                alpha = vec(amb.n, dict(zip(kernel_deg1, coeffs)))
                lhs = sub(
                    lift_residual(ext, phi, alpha),
                    lift_residual(ext, phi, vec(amb.n)),
                )
                rhs = add(
                    amb.apply_d(alpha),
                    amb.bracket(ext.include_quotient(phi), alpha),
                )
                assert lhs == rhs


def test_lift_residual_half_self_defect():
    ext = heisenberg_extension()
    phi = vec(2, {0: 1})
    alpha = vec(3)
    base = lift_residual(ext, phi, alpha)
    # no degree-1 kernel directions here, so alpha = 0 is the only choice;
    # the residual reduces to half the self-defect
    _, d2 = defects(ext)
    assert base == scale(d2(phi, phi), F(1, 2))


def test_lift_residual_requires_mc_base():
    # quotient element failing MC downstairs must be rejected
    amb = GradedDgLie(
        (1, 2, 2),
        ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(0))),
        {},
    )
    ext = AbelianExtension(amb, kernel=(2,))
    with pytest.raises(NotMaurerCartan):
        lift_residual(ext, vec(2, {0: 1}), vec(3))


# -- the equivalence of the lift equation with the direct MC check -----------


def random_two_level_extension(rng, n1=2, n2=2, k1=1, k2=1):
    """Random dg Lie on degree-1 and degree-2 spaces with a designated kernel.

    All brackets land in degree 2, so Jacobi and the derivation rule are
    automatic; the constraints are B(V1, K1) in span(K2), B(K1, K1) = 0 and
    D(K1) in span(K2).  The kernel spans the last k1 degree-1 and last k2
    degree-2 basis vectors.
    """
    n = n1 + n2
    degrees = tuple([1] * n1 + [2] * n2)
    kernel1 = set(range(n1 - k1, n1))
    kernel2 = set(range(n1 + n2 - k2, n))
    d = [[F(0)] * n for _ in range(n)]
    for j in range(n1):
        targets = kernel2 if j in kernel1 else range(n1, n)
        for i in targets:
            if rng.random() < 0.5:
                d[i][j] = F(rng.randint(-2, 2))
    brackets = {}
    for i in range(n1):
        for j in range(i, n1):
            if i in kernel1 and j in kernel1:
                continue  # abelian kernel
            targets = kernel2 if (i in kernel1 or j in kernel1) else range(n1, n)
            entry = {}
            for t in targets:
                if rng.random() < 0.5:
                    c = F(rng.randint(-2, 2))
                    if c:
                        entry[t] = c
            if entry:
                brackets[(i, j)] = dict(entry)
                # odd-odd brackets are symmetric
                brackets[(j, i)] = dict(entry)
    amb = GradedDgLie(degrees, tuple(tuple(row) for row in d), brackets)
    kernel = tuple(sorted(kernel1 | kernel2))
    section = None
    if rng.random() < 0.6:
        # twist the section by a random kernel-valued shift
        section = {}
        quotient_basis = [i for i in range(n) if i not in set(kernel)]
        for i in quotient_basis:
            shift = {i: F(1)}
            for t in kernel:
                if degrees[t] == degrees[i] and rng.random() < 0.5:
                    shift[t] = F(rng.randint(-2, 2))
            section[i] = vec(n, shift)
    return AbelianExtension(amb, kernel=kernel, section=section)


def quotient_mc_candidates(quo, grid):
    deg1 = [i for i, d in enumerate(quo.degrees) if d == 1]
    for coeffs in itertools.product(grid, repeat=len(deg1)):
        phi = vec(quo.n, dict(zip(deg1, coeffs)))
        ok, _ = is_mc(quo, phi)
        if ok:
            yield phi


def test_rhs_is_twisted_closed_when_a_lift_exists():
    # whenever some alpha solves the lift equation, the right-hand side
    # Delta1(phi) + Delta2(phi,phi)/2 is closed for d + [s phi, .]
    rng = random.Random(99)
    grid = [F(0), F(1), F(-1), F(1, 2)]
    found = 0
    for _ in range(40):
        ext = random_two_level_extension(rng)
        amb = ext.ambient
        kernel_deg1 = [i for i in ext.kernel if amb.degrees[i] == 1]
        for phi in quotient_mc_candidates(ext.quotient, [F(0), F(1), F(-1)]):
            solvable = False
            for coeffs in itertools.product(grid, repeat=len(kernel_deg1)):
                alpha = vec(amb.n, dict(zip(kernel_deg1, coeffs)))
                if is_zero(lift_residual(ext, phi, alpha)):
                    solvable = True
                    break
            if not solvable:
                continue
            d1, d2 = defects(ext)
            rhs = add(d1(phi), scale(d2(phi, phi), F(1, 2)))
            twisted = add(
                amb.apply_d(rhs),
                amb.bracket(ext.include_quotient(phi), rhs),
            )
            assert is_zero(twisted)
            found += 1
    assert found >= 30


def test_lift_equivalence_on_random_extensions():
    rng = random.Random(2024)
    grid = [F(0), F(1), F(-1)]
    alpha_grid = [F(0), F(1), F(-1), F(1, 2)]
    checked = 0
    for _ in range(60):
        ext = random_two_level_extension(rng)
        amb = ext.ambient
        kernel_deg1 = [i for i in ext.kernel if amb.degrees[i] == 1]
        for phi in quotient_mc_candidates(ext.quotient, grid):
            for coeffs in itertools.product(alpha_grid, repeat=len(kernel_deg1)):
                alpha = vec(amb.n, dict(zip(kernel_deg1, coeffs)))
                resid = lift_residual(ext, phi, alpha)
                lifted = add(ext.include_quotient(phi), alpha)
                direct_ok, _ = is_mc(amb, lifted)
                assert is_zero(resid) == direct_ok
                checked += 1
    assert checked >= 400


# -- the sparse kernels against the dense formulas ---------------------------

COEFFS = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2)])


def half_zero(draw, coeffs=COEFFS):
    """A coefficient that is zero about half the time."""
    return draw(st.one_of(st.just(F(0)), coeffs))


@st.composite
def degree_one_two_constants(draw, max_n1=4, max_n2=3):
    """Structure constants (degrees, d, brackets) of random dg Lie algebras
    on degree-1 and degree-2 spaces.

    d goes from degree 1 into degree 2 and every bracket lands in degree 2,
    so the axioms hold for any values.  Some bracket expansions carry an
    explicit zero coefficient, which construction must drop.
    """
    n1, n2 = draw(st.integers(1, max_n1)), draw(st.integers(1, max_n2))
    n = n1 + n2
    d = [[F(0)] * n for _ in range(n)]
    for j in range(n1):
        for i in range(n1, n):
            d[i][j] = half_zero(draw)
    brackets = {}
    for i in range(n1):
        for j in range(i, n1):
            entry = {t: half_zero(draw) for t in range(n1, n)}
            if any(entry.values()):
                # odd-odd brackets are symmetric
                brackets[(i, j)] = dict(entry)
                brackets[(j, i)] = dict(entry)
    return tuple([1] * n1 + [2] * n2), d, brackets


def degree_one_two_algebras():
    return degree_one_two_constants().map(
        lambda c: GradedDgLie(c[0], tuple(tuple(r) for r in c[1]), c[2])
    )


@st.composite
def algebra_and_vectors(draw):
    alg = draw(degree_one_two_algebras())
    v, w = (tuple(half_zero(draw) for _ in range(alg.n)) for _ in range(2))
    return alg, v, w, draw(COEFFS)


def dense_apply_d(alg, v):
    return tuple(
        sum((alg.d[i][j] * v[j] for j in range(alg.n)), F(0)) for i in range(alg.n)
    )


def dense_bracket(alg, v, w):
    out = [F(0)] * alg.n
    for (i, j), expansion in alg.brackets.items():
        for k, coeff in expansion.items():
            out[k] += v[i] * w[j] * coeff
    return tuple(out)


@given(algebra_and_vectors())
@settings(max_examples=100, deadline=None)
def test_sparse_kernels_equal_the_dense_formulas(case):
    alg, v, w, c = case
    assert alg.apply_d(v) == dense_apply_d(alg, v)
    assert alg.bracket(v, w) == dense_bracket(alg, v, w)
    assert alg.bracket(w, v) == dense_bracket(alg, w, v)
    assert add(v, w) == tuple(x + y for x, y in zip(v, w))
    assert sub(v, w) == tuple(x - y for x, y in zip(v, w))
    assert scale(v, c) == tuple(x * c for x in v)
    assert scale(v, 1) == v


@st.composite
def extension_and_vectors(draw):
    """An abelian extension of a degree-(1,2) algebra, with a degree-1
    ambient vector and a degree-1 quotient vector.

    Built like the mc_lift benchmark's extensions: the kernel spans the
    last k1 degree-1 and last k2 degree-2 basis elements, brackets fill the
    diagonal too, and each section vector shifts its basis element by
    kernel vectors of its degree.  Unlike the benchmark, d and the bracket
    of quotient elements may also land outside the kernel, so some
    quotient vectors fail Maurer-Cartan.
    """
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    k1, k2 = draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2))
    n = n1 + n2
    kernel1, kernel2 = range(n1 - k1, n1), range(n - k2, n)
    everywhere = range(n1, n) if draw(st.booleans()) else kernel2
    d = [[F(0)] * n for _ in range(n)]
    for j in range(n1):
        for i in kernel2 if j in kernel1 else everywhere:
            d[i][j] = half_zero(draw)
    brackets = {}
    for i in range(n1):
        for j in range(i, n1):
            if i in kernel1 and j in kernel1:
                continue
            targets = kernel2 if i in kernel1 or j in kernel1 else everywhere
            entry = {t: half_zero(draw) for t in targets}
            if any(entry.values()):
                brackets[(i, j)] = dict(entry)
                brackets[(j, i)] = dict(entry)
    degrees = tuple([1] * n1 + [2] * n2)
    kernel = tuple(kernel1) + tuple(kernel2)
    section = {
        i: tuple(F(1) if t == i else half_zero(draw) if t in kernel and degrees[t] == degrees[i]
                 else F(0) for t in range(n))
        for i in range(n) if i not in kernel
    }
    amb = GradedDgLie(degrees, tuple(tuple(r) for r in d), brackets)
    ext = AbelianExtension(amb, kernel, section=section)
    v = tuple(half_zero(draw) if e == 1 else F(0) for e in amb.degrees)
    phi = tuple(half_zero(draw) if e == 1 else F(0) for e in ext.quotient.degrees)
    return ext, v, phi


@given(extension_and_vectors())
@settings(max_examples=150, deadline=None)
def test_mc_residual_and_the_obstruction_equal_their_definitions(case):
    ext, v, phi = case
    amb, quo = ext.ambient, ext.quotient
    # the quadratic form against d(v) + [v,v]/2, value and type
    for alg, w in ((amb, v), (quo, phi), (amb, ext.include_quotient(phi))):
        expected = outcome(lambda: add(alg.apply_d(w), _half(alg.bracket(w, w))))
        assert outcome(lambda: alg.mc_residual(w)) == expected
    # the memoised obstruction against d1(phi) + d2(phi, phi)/2
    if is_mc(quo, phi)[0]:
        d1, d2 = defects(ext)
        expected = outcome(lambda: add(d1(phi), _half(d2(phi, phi))))
        assert outcome(lambda: lift_residual(ext, phi, vec(amb.n))) == expected
        assert outcome(lambda: ext._lift_memo.obstruction) == expected
    else:
        with pytest.raises(NotMaurerCartan):
            lift_residual(ext, phi, vec(amb.n))


# -- the sparse validator against the dense oracle ---------------------------


def validate_oracle(degrees, d, brackets):
    """The axiom checks as they were first written, on dense basis vectors:
    every index pair and triple is visited.  Returns the message of the
    first failure, or None when every axiom holds.  Signs are taken as
    (-1)^|e|, since ``(-1) ** e`` is a float for negative e."""
    n = len(degrees)
    alg = SimpleNamespace(
        n=n,
        d=[[F(x) for x in row] for row in d],
        brackets={
            key: {k: F(c) for k, c in expansion.items() if c}
            for key, expansion in brackets.items()
            if any(expansion.values())
        },
    )
    basis = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]

    def apply_d(v):
        return dense_apply_d(alg, v)

    def bracket(v, w):
        return dense_bracket(alg, v, w)

    # d raises degree by one
    for j in range(n):
        for i in range(n):
            if alg.d[i][j] != 0 and degrees[i] != degrees[j] + 1:
                return f"d sends degree {degrees[j]} basis {j} to degree {degrees[i]} basis {i}"
    # d squared
    for j in range(n):
        if not is_zero(apply_d(apply_d(basis[j]))):
            return f"d^2 != 0 on basis element {j}"
    # bracket grading and graded antisymmetry
    for (i, j), expansion in alg.brackets.items():
        for k in expansion:
            if degrees[k] != degrees[i] + degrees[j]:
                return f"bracket [{i},{j}] is not degree-additive"
    for i in range(n):
        for j in range(n):
            lhs = bracket(basis[i], basis[j])
            sign = (-1) ** abs(degrees[i] * degrees[j])
            rhs = scale(bracket(basis[j], basis[i]), -sign)
            if lhs != rhs:
                return f"bracket not graded-antisymmetric on ({i},{j})"
    # graded Jacobi: (-1)^{|x||z|}[x,[y,z]] + cyclic = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                di, dj, dk = degrees[i], degrees[j], degrees[k]
                t1 = scale(bracket(basis[i], bracket(basis[j], basis[k])), (-1) ** abs(di * dk))
                t2 = scale(bracket(basis[j], bracket(basis[k], basis[i])), (-1) ** abs(dj * di))
                t3 = scale(bracket(basis[k], bracket(basis[i], basis[j])), (-1) ** abs(dk * dj))
                if not is_zero(add(add(t1, t2), t3)):
                    return f"Jacobi fails on ({i},{j},{k})"
    # d is a derivation of the bracket
    for i in range(n):
        for j in range(n):
            lhs = apply_d(bracket(basis[i], basis[j]))
            rhs = add(
                bracket(apply_d(basis[i]), basis[j]),
                scale(bracket(basis[i], apply_d(basis[j])), (-1) ** abs(degrees[i])),
            )
            if lhs != rhs:
                return f"d is not a bracket derivation on ({i},{j})"
    return None


@st.composite
def matrix_constants(draw):
    """Structure constants of graded commutator algebras of matrices.

    V has basis v_0..v_{m-1} of random degrees g_a; E_ab sends v_b to v_a,
    has degree g_a - g_b, and [X, Y] = XY - (-1)^{|X||Y|} YX.  The algebra is all of
    gl(V) for m = 2, the upper-triangular part for m = 3, or the strictly
    upper-triangular part, whose brackets are sparse, for m = 3 or 4; and
    d = [Q, -] for Q = q E_ab of degree one with a != b, so Q^2 = 0 (or
    d = 0).  The basis is rescaled and permuted at random, so constants and
    the order of the candidates vary.  Every axiom holds, and the brackets
    reach each other, so a perturbed constant can break Jacobi or the
    derivation rule.
    """
    m, shape = draw(st.sampled_from([(2, "full"), (3, "upper"), (3, "strict"), (4, "strict")]))
    g = draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m))
    keep = {"full": lambda a, b: True, "upper": lambda a, b: a <= b, "strict": lambda a, b: a < b}
    cells = [(a, b) for a in range(m) for b in range(m) if keep[shape](a, b)]
    n = len(cells)
    order = draw(st.permutations(range(n)))
    where = {cell: order[p] for p, cell in enumerate(cells)}
    degrees = [0] * n
    for (a, b), i in where.items():
        degrees[i] = g[a] - g[b]
    scales = [draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2)])) for _ in range(n)]

    def commutator(x, y):
        (a, b), (c, e) = x, y
        out = {}
        if b == c:
            out[(a, e)] = F(1)
        if e == a:
            sign = (-1) ** abs((g[a] - g[b]) * (g[c] - g[e]))
            out[(c, b)] = out.get((c, b), F(0)) - sign
        return {cell: v for cell, v in out.items() if v}

    # [s_i e_i, s_j e_j] = sum s_i s_j c / s_k (s_k e_k)
    brackets = {}
    for x in cells:
        for y in cells:
            i, j = where[x], where[y]
            entry = {where[z]: scales[i] * scales[j] * v / scales[where[z]]
                     for z, v in commutator(x, y).items()}
            if entry:
                brackets[(i, j)] = entry
    d = [[F(0)] * n for _ in range(n)]
    odd = [x for x in cells if x[0] != x[1] and g[x[0]] - g[x[1]] == 1]
    if odd and draw(st.booleans()):
        q_cell = draw(st.sampled_from(odd))
        q = draw(st.sampled_from([F(1), F(-1), F(2)]))
        for y in cells:
            j = where[y]
            for z, v in commutator(q_cell, y).items():
                k = where[z]
                d[k][j] += q * scales[j] * v / scales[k]
    return tuple(degrees), d, brackets


@st.composite
def perturbed_constants(draw, kind):
    """A valid algebra's constants with one in-range constant changed.

    ``kind`` is "d" (a d entry), "one_side" (one side of a bracket pair),
    "both_sides" (one target coefficient on both sides of a pair, which
    keeps graded antisymmetry) or "one_term": a two-sided change
    [b_i,b_j] += c b_k aimed at an x outside {i, j} that commutes with b_i
    and b_j but not with b_k.  The Jacobiator on (x, i, j) is then
    c [b_x, b_k], read from one bracket pair alone, so a check that skipped
    one family of Jacobi candidates would report a later triple.  The
    changed entry mostly respects the grading, where one can, so that the
    later checks are reached.
    """
    # only the matrix algebras can fail Jacobi or the derivation rule
    algebras = [matrix_constants()]
    if kind != "one_term":
        algebras.append(degree_one_two_constants(max_n1=3, max_n2=2))
    degrees, d, brackets = draw(st.one_of(algebras))
    n = len(degrees)
    d = [list(row) for row in d]
    brackets = {key: dict(expansion) for key, expansion in brackets.items()}
    c = draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2)]))
    cells = list(itertools.product(range(n), repeat=3))
    if kind == "d":
        # (k, j, _): the coefficient of b_k in d(b_j)
        graded = [(k, j, t) for k, j, t in cells if degrees[k] == degrees[j] + 1]
    else:
        # (i, j, k): the coefficient of b_k in [b_i, b_j]
        graded = [(i, j, k) for i, j, k in cells if degrees[k] == degrees[i] + degrees[j]]
    if kind == "one_term":

        def commute(x, y):
            return (x, y) not in brackets and (y, x) not in brackets

        graded = [
            (i, j, k) for i, j, k in graded
            if i != j and any(x not in (i, j) and commute(x, i) and commute(x, j)
                              and (x, k) in brackets for x in range(n))
        ] or graded
    keep_grading = kind == "one_term" or draw(st.sampled_from([True, True, True, False]))
    i, j, k = draw(st.sampled_from(graded if keep_grading and graded else cells))
    if kind == "d":
        d[i][j] += c
    else:
        entry = brackets.setdefault((i, j), {})
        entry[k] = entry.get(k, F(0)) + c
        if kind != "one_side" and i != j:
            entry = brackets.setdefault((j, i), {})
            entry[k] = entry.get(k, F(0)) - (-1) ** abs(degrees[i] * degrees[j]) * c
    return degrees, d, brackets


def construction_failure(degrees, d, brackets):
    try:
        GradedDgLie(degrees, tuple(tuple(r) for r in d), brackets)
    except ValueError as exc:
        return str(exc)
    return None


@given(st.one_of(degree_one_two_constants(max_n1=3, max_n2=2), matrix_constants()))
@settings(max_examples=25, deadline=None)
def test_generated_algebras_are_valid(constants):
    assert validate_oracle(*constants) is None
    assert construction_failure(*constants) is None


@pytest.mark.parametrize("kind", ["d", "one_side", "both_sides", "one_term"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_validation_agrees_with_the_dense_oracle(kind, data):
    constants = data.draw(perturbed_constants(kind))
    # accepted exactly when the oracle accepts, with the oracle's message otherwise
    assert construction_failure(*constants) == validate_oracle(*constants)


def test_validation_messages_name_the_first_failure():
    # d b0 = b1 and [b1,b2] = b3, but [b0,b2] = 0: the rule first fails on (0,2)
    d = tuple(tuple(F(int((i, j) == (1, 0))) for j in range(4)) for i in range(4))
    brackets = {(1, 2): {3: F(1)}, (2, 1): {3: F(1)}}
    assert construction_failure((0, 1, 1, 2), d, brackets) == "d is not a bracket derivation on (0,2)"
    assert validate_oracle((0, 1, 1, 2), d, brackets) == "d is not a bracket derivation on (0,2)"
    # the brackets of test_validation_rejects_non_jacobi
    zero = tuple(tuple(F(0) for _ in range(3)) for _ in range(3))
    brackets = {(0, 1): {2: 1}, (1, 0): {2: -1}, (0, 2): {0: 1}, (2, 0): {0: -1}}
    assert construction_failure((0, 0, 0), zero, brackets) == "Jacobi fails on (0,1,2)"
    assert validate_oracle((0, 0, 0), zero, brackets) == "Jacobi fails on (0,1,2)"
    # d b0 = b1 and d b1 = b2
    d = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert construction_failure((0, 1, 2), d, {}) == "d^2 != 0 on basis element 0"
    assert validate_oracle((0, 1, 2), d, {}) == "d^2 != 0 on basis element 0"


def test_negative_degrees_take_integer_signs():
    # [x,y] = [y,x] = z for |x| = -1, |y| = 1: (-1) ** -1 is the float -1.0
    brackets = {(0, 1): {2: 1}, (1, 0): {2: 1}}
    zero = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    alg = GradedDgLie((-1, 1, 0), zero, brackets)
    assert alg.bracket(vec(3, {0: 1}), vec(3, {1: 1})) == (0, 0, 1)
    bad = {(0, 1): {2: 1}, (1, 0): {2: -1}}
    assert construction_failure((-1, 1, 0), zero, bad) == "bracket not graded-antisymmetric on (0,1)"


@pytest.mark.parametrize("brackets", [
    {(0, 0): {-1: 2}},
    {(0, 5): {2: 1}},
    {(0, 0): {7: 1}},
    {(-1, 0): {2: 1}},
    {(0, 1): {2: 0, 3: 0}},
    {(0, 1.0): {2: 1}},
])
def test_bracket_indices_outside_the_basis_are_refused(brackets):
    zero = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError, match="outside a basis of size 3"):
        GradedDgLie((1, 1, 2), zero, brackets)


def test_vectors_of_the_wrong_length_are_refused():
    ext = heisenberg_extension()
    amb = ext.ambient
    for call in (
        lambda: is_mc(amb, (1, 1)),
        lambda: is_mc(amb, (1, 1, 0, 0)),
        lambda: amb.apply_d((1, 0)),
        lambda: amb.bracket((1, 0, 0), (1, 0)),
        lambda: ext.include_quotient((1, 0, 0)),
        lambda: ext.kernel_component((0, 0)),
        lambda: lift_residual(ext, (1, 0), (0, 0)),
        lambda: vec(3, {-1: 1}),
        lambda: vec(3, {3: 1}),
    ):
        with pytest.raises(ValueError):
            call()
    for section in ({0: (1, 0), 1: (0, 1, 0)}, {0: (1, 0, 0, 0), 1: (0, 1, 0)}):
        with pytest.raises(ValueError, match="section vector of basis element"):
            AbelianExtension(amb, (2,), section=section)


@pytest.mark.parametrize("degrees", [(0.5, 0.5, 1.0), (True, 1, 2), (1, 1, F(2)), (1, 1, 2.0)])
def test_degrees_that_are_not_ints_are_refused(degrees):
    zero = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError, match="is not an int"):
        GradedDgLie(degrees, zero, {(0, 1): {2: 1}, (1, 0): {2: 1}})


@pytest.mark.parametrize("section", [
    # the kernel key 2, beside a valid section
    {0: (1, 0, 0), 1: (0, 1, 0), 2: (5, 5, 5)},
    {0: (1, 0, 0), 1: (0, 1, 0), 3: (0, 0, 0)},
    {0: (1, 0, 0), 1: (0, 1, 0), -1: (0, 0, 0)},
    {0: (1, 0, 0), 1: (0, 1, 0), "0": (1, 0, 0)},
    # keys equal to 0 and 1 that are not ints
    {0.0: (1, 0, 0), 1: (0, 1, 0)},
    {0: (1, 0, 0), True: (0, 1, 0)},
])
def test_section_keys_outside_the_quotient_basis_are_refused(section):
    amb = heisenberg_extension().ambient
    with pytest.raises(ValueError, match="is not a quotient basis element"):
        AbelianExtension(amb, (2,), section=section)


@pytest.mark.parametrize("kernel, section", [
    # s(b0) has a degree-2 component, so s(phi) is not degree 1 and the
    # lift residual would call phi = b0 liftable while is_mc refuses s(phi)
    ((1, 2), {0: (1, 0, 1)}),
    ((2,), {0: (1, 0, F(1, 2)), 1: (0, 1, 0)}),
    ((2,), {0: (1, 0, 0), 1: (0, 1, -1)}),
])
def test_section_vectors_that_leave_their_degree_are_refused(kernel, section):
    zero = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    amb = GradedDgLie((1, 1, 2), zero, {})
    bad = min(i for i, v in section.items() if v[2])
    with pytest.raises(ValueError, match=f"section vector of basis element {bad} leaves degree 1"):
        AbelianExtension(amb, kernel, section=section)


@pytest.mark.parametrize("kernel", [(3,), (-1,), (2.0,), (True, 2)])
def test_kernel_indices_outside_the_basis_are_refused(kernel):
    amb = heisenberg_extension().ambient
    with pytest.raises(ValueError, match="kernel index out of range"):
        AbelianExtension(amb, kernel)


# -- the memo of lift_residual against the body it replaced ------------------


def residual_oracle(ext, phi, alpha):
    """The lift residual with every part rebuilt for each call:
    (d + [s phi, -]) alpha + delta1(phi) + delta2(phi, phi)/2, after the
    checks of phi and alpha in the order lift_residual makes them."""
    amb = ext.ambient
    ok, witness = is_mc(ext.quotient, phi)
    if not ok:
        raise NotMaurerCartan(f"base element fails Maurer-Cartan with residual {witness}")
    ext.kernel_component(alpha)
    if not amb.is_homogeneous(alpha, 1):
        raise NotMaurerCartan("kernel correction is not concentrated in degree 1")
    d1, d2 = defects(ext)
    s_phi = ext.include_quotient(phi)
    return add(
        add(add(amb.apply_d(alpha), amb.bracket(s_phi, alpha)), d1(phi)),
        scale(d2(phi, phi), F(1, 2)),
    )


def outcome(call):
    """The typed entries of call(), or the type and message of what it raised."""
    try:
        return [(type(x), x) for x in call()]
    except (ValueError, NotMaurerCartan, SectionNotValued) as exc:
        return type(exc), str(exc)


PHI_KINDS = st.sampled_from(["mc"] * 4 + ["not_mc", "not_homogeneous", "wrong_length"])
ALPHA_KINDS = st.sampled_from(["grid"] * 4 + ["off_kernel", "degree_two", "wrong_length"])
FORMS = st.sampled_from([tuple, list, lambda v: tuple(F(x) for x in v)])
PICKS = st.integers(0, 10**6)


@given(
    shape=st.sampled_from([(2, 2, 1, 1), (3, 2, 1, 1), (3, 2, 2, 1), (3, 1, 2, 1), (4, 2, 2, 2)]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.tuples(PHI_KINDS, PICKS, FORMS, ALPHA_KINDS, PICKS), min_size=2, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_lift_residual_memo_equals_the_oracle(shape, seed, steps):
    # one extension sees repeated, switched and equal-valued base elements,
    # with failing calls between them; every call must answer as the oracle
    # does and as a fresh extension does
    ext = random_two_level_extension(random.Random(seed), *shape)
    amb, quo = ext.ambient, ext.quotient
    deg1_q = [i for i, d in enumerate(quo.degrees) if d == 1]
    grid_phis = [vec(quo.n, dict(zip(deg1_q, c)))
                 for c in itertools.product([F(0), F(1), F(-1)], repeat=len(deg1_q))]
    phis = {"mc": [p for p in grid_phis if is_mc(quo, p)[0]],
            "not_mc": [p for p in grid_phis if not is_mc(quo, p)[0]],
            "not_homogeneous": [add(p, quo.basis(i)) for p in grid_phis[:3]
                                for i, d in enumerate(quo.degrees) if d == 2],
            "wrong_length": [p + (0,) for p in grid_phis[:3]]}
    kernel_deg1 = [i for i in ext.kernel if amb.degrees[i] == 1]
    grid_alphas = [vec(amb.n, dict(zip(kernel_deg1, c)))
                   for c in itertools.product([F(0), F(1), F(-1), F(1, 2)], repeat=len(kernel_deg1))]
    alphas = {"grid": grid_alphas,
              "off_kernel": [add(a, amb.basis(i)) for a in grid_alphas[:3] for i in ext.quotient_basis],
              "degree_two": [add(a, amb.basis(i)) for a in grid_alphas[:3]
                             for i in ext.kernel if amb.degrees[i] == 2],
              "wrong_length": [a[:-1] for a in grid_alphas[:3]]}
    for phi_kind, phi_pick, form, alpha_kind, alpha_pick in steps:
        pool = phis[phi_kind] or phis["wrong_length"]
        phi = form(pool[phi_pick % len(pool)])
        pool = alphas[alpha_kind] or alphas["wrong_length"]
        alpha = pool[alpha_pick % len(pool)]
        fresh = AbelianExtension(amb, ext.kernel, ext.section)
        expected = outcome(lambda: residual_oracle(fresh, phi, alpha))
        assert outcome(lambda: lift_residual(fresh, phi, alpha)) == expected
        assert outcome(lambda: lift_residual(ext, phi, alpha)) == expected
