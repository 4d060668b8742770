import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhdext.errors import NotMaurerCartan, SectionNotValued
from nbhdext.mclift import (
    AbelianExtension,
    GradedDgLie,
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
def degree_one_two_algebras(draw):
    """Random dg Lie algebras on degree-1 and degree-2 spaces.

    d goes from degree 1 into degree 2 and every bracket lands in degree 2,
    so the axioms hold for any values.  Some bracket expansions carry an
    explicit zero coefficient, which construction must drop.
    """
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 3))
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
    return GradedDgLie(tuple([1] * n1 + [2] * n2), tuple(tuple(r) for r in d), brackets)


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
