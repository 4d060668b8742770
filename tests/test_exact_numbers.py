"""The exact-number rule: an integral coefficient is an ``int``, any other a ``Fraction``.

Polynomial arithmetic, truncated products and substitutions must follow
the rule and agree with the schoolbook oracle of ``test_laurent``; the
elimination and the Maurer-Cartan kernels must never produce a float;
and every true division in the package must keep a ``Fraction`` operand,
since ``int / int`` is a float.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbhdext.errors import ParseError
from nbhdext.filtered import ChartRing, PairDerivation, Substitution
from nbhdext.laurent import LaurentPoly, exact
from nbhdext.linsolve import PolyMatrix, _rref
from nbhdext.mclift import (
    AbelianExtension,
    GradedDgLie,
    _half,
    add,
    defects,
    is_mc,
    lift_residual,
    scale,
    sub,
    vec,
)

from test_laurent import V, brute_mul
from test_mclift import quotient_mc_candidates, random_two_level_extension

ROOT = Path(__file__).resolve().parents[1]

# ints, proper fractions and integral Fractions such as Fraction(4, 2)
coeffs = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(-4, 4).map(lambda n: Fraction(2 * n, 2)),
)
nonzero_coeffs = coeffs.filter(bool)
exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exps, coeffs, max_size=5).map(lambda t: LaurentPoly(V, t))

# x is tangential and y conormal, so truncation drops terms by their y-degree
T_RING = ChartRing(("x",), ("y",))
PLAIN_RING = ChartRing(V, ())


def follows_rule(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_rule(p: LaurentPoly) -> None:
    assert all(follows_rule(c) for c in p.terms.values()), p.terms


def typed_terms(p: LaurentPoly):
    """The terms of ``p`` in order, each coefficient with its type."""
    return [(e, type(c), c) for e, c in p.terms.items()]


def brute_add(a, b, sign):
    out = {e: Fraction(c) for e, c in a.terms.items()}
    for e, c in b.terms.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def brute_inverse(p):
    ((e, c),) = p.terms.items()
    return LaurentPoly(V, {tuple(-x for x in e): Fraction(1) / c})


def brute_subst(p, images):
    """Sum of c * prod(image^k), every power and product expanded by the oracle."""
    out = LaurentPoly.zero(V)
    for e, c in p.terms.items():
        term = LaurentPoly(V, {(0, 0): c})
        for name, k in zip(V, e):
            base = images[name] if k > 0 else brute_inverse(images[name])
            for _ in range(abs(k)):
                term = brute_mul(term, base)
        out = LaurentPoly(V, brute_add(out, term, 1))
    return out


def test_exact_normalises_and_refuses_floats():
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert exact("-6/3") == -2 and type(exact("-6/3")) is int
    assert exact(Fraction(2, 3)) == Fraction(2, 3)
    assert exact(3) == 3
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(ParseError):
        exact("abc")


@given(polys, polys, nonzero_coeffs)
@settings(max_examples=80, deadline=None)
def test_polynomial_arithmetic_follows_the_rule(a, b, c):
    assert_rule(a)
    for result, oracle in (
        (a + b, brute_add(a, b, 1)),
        (a - b, brute_add(a, b, -1)),
        (a * b, brute_mul(a, b).terms),
        (a * c, {e: x * c for e, x in a.terms.items()}),
        (a + c, brute_add(a, LaurentPoly(V, {(0, 0): c}), 1)),
    ):
        assert_rule(result)
        assert result.terms == oracle
        assert typed_terms(result) == typed_terms(LaurentPoly(result.vars, result.terms))
    derivative = a.diff("x")
    assert_rule(derivative)
    assert derivative.terms == {(e[0] - 1, e[1]): x * e[0] for e, x in a.terms.items() if e[0]}


@given(polys, polys, coeffs, st.lists(polys, min_size=8, max_size=8))
@settings(max_examples=80, deadline=None)
def test_one_pass_sums_equal_their_two_step_forms(a, b, c, entries):
    # the same terms in the same order and with the same types, not just equal values
    assert typed_terms(a - b) == typed_terms(a + (-b))
    assert typed_terms(a - c) == typed_terms(a + (-LaurentPoly.const(V, c)))
    assert typed_terms(a.add_scaled(b, c)) == typed_terms(a + b * c)
    left = PolyMatrix([entries[0:2], entries[2:4]])
    right = PolyMatrix([entries[4:6], entries[6:8]])
    for one_pass, two_step in zip((left - right).entries, (left + -right).entries):
        assert list(map(typed_terms, one_pass)) == list(map(typed_terms, two_step))


def test_an_inexact_operand_raises_type_error():
    p = LaurentPoly(V, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    for value in (0.5, 1.0, "1"):
        for op in (
            lambda: p + value,
            lambda: value + p,
            lambda: p - value,
            lambda: value - p,
            lambda: p * value,
            lambda: value * p,
            lambda: p.add_scaled(p, value),
        ):
            with pytest.raises(TypeError):
                op()
    assert typed_terms(Fraction(1, 2) + p) == typed_terms(p + LaurentPoly.const(V, Fraction(1, 2)))
    assert typed_terms(2 * p) == typed_terms(p * 2)


def test_scaled_derivation_cleans_its_scalar_once():
    ring = ChartRing(("x",), ("y",))
    y = ring.t_var(0)
    d = PairDerivation(ring, 2, (y,), (y * y,), PolyMatrix([[y, ring.zero()], [ring.zero(), y]]))
    doubled = d.scaled(Fraction(4, 2))
    assert typed_terms(doubled.u_images[0]) == typed_terms(y * 2)
    for entry in (doubled.module[0, 0], doubled.module[1, 1]):
        assert typed_terms(entry) == typed_terms(y * 2)
    assert typed_terms(d.scaled(Fraction(1, 2)).module[0, 0]) == [((0, 1), Fraction, Fraction(1, 2))]
    with pytest.raises(TypeError):
        d.scaled(0.5)


@given(polys, polys, nonzero_coeffs, nonzero_coeffs, st.integers(-1, 4))
@settings(max_examples=60, deadline=None)
def test_every_arithmetic_result_is_what_the_checked_constructor_builds(a, b, cx, cy, t_max):
    images = {"x": LaurentPoly(V, {(0, 1): cx}), "y": LaurentPoly(V, {(1, -1): cy})}
    # x -> cx x + y and y -> cy y + x y^2 invert in T_RING only where y's power is >= 0
    t_images = {
        "x": LaurentPoly(V, {(1, 0): cx, (0, 1): 1}),
        "y": LaurentPoly(V, {(0, 1): cy, (1, 2): 1}),
    }
    t_poly = LaurentPoly(V, {e: c for e, c in a.terms.items() if e[1] >= 0})
    for result in (
        -a,
        a.diff("y"),
        a.truncate_group(1, t_max),
        a.part_group(0, t_max),
        T_RING.mul(a, b, t_max),
        Substitution(PLAIN_RING, images, 0)(a),
        Substitution(T_RING, t_images, t_max)(t_poly),
    ):
        assert typed_terms(result) == typed_terms(LaurentPoly(result.vars, result.terms))


@given(exps, nonzero_coeffs)
@settings(max_examples=40, deadline=None)
def test_inverse_monomial_follows_the_rule(e, c):
    m = LaurentPoly(V, {e: c})
    inv = m.inverse_monomial()
    assert_rule(inv)
    assert inv == brute_inverse(m)
    assert m * inv == LaurentPoly.const(V, 1)


@given(
    st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 3)), coeffs, max_size=5),
    st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(0, 3)), coeffs, max_size=5),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_truncated_product_follows_the_rule(ta, tb, t_max):
    a, b = LaurentPoly(V, ta), LaurentPoly(V, tb)
    product = T_RING.mul(a, b, t_max)
    assert_rule(product)
    assert product == T_RING.truncate(brute_mul(a, b), t_max)


@given(polys, nonzero_coeffs, nonzero_coeffs)
@settings(max_examples=40, deadline=None)
def test_substitution_follows_the_rule(p, cx, cy):
    images = {"x": LaurentPoly(V, {(0, 1): cx}), "y": LaurentPoly(V, {(1, -1): cy})}
    moved = Substitution(PLAIN_RING, images, 0)(p)
    assert_rule(moved)
    assert moved == brute_subst(p, images)


# -- elimination and the Maurer-Cartan kernels --------------------------------

int_rows = st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=5)


def no_float(values) -> bool:
    return all(type(x) is int or type(x) is Fraction for x in values)


@given(int_rows)
@settings(max_examples=60, deadline=None)
def test_rref_of_int_rows_equals_rref_of_fraction_rows(rows):
    as_int = _rref([{c: x for c, x in enumerate(r) if x} for r in rows])
    as_frac = _rref([{c: Fraction(x) for c, x in enumerate(r) if x} for r in rows])
    assert as_int == as_frac
    for reduced in (as_int, as_frac):
        assert all(no_float(row.values()) for row in reduced.values())


def test_rref_keeps_integer_rows_integer_under_unit_pivots():
    reduced = _rref([{0: 1, 1: 2}, {1: -1, 2: 3}])
    assert reduced == {0: {0: 1, 2: 6}, 1: {1: 1, 2: -3}}
    assert all(type(x) is int for row in reduced.values() for x in row.values())


def test_mclift_kernels_return_no_float():
    rng = random.Random(5)
    checked = 0
    for _ in range(10):
        ext = random_two_level_extension(rng)
        amb = ext.ambient
        # integral structure constants are cleaned to ints, so integer inputs stay integer
        for i in range(amb.n):
            assert all(type(x) is int for x in amb.apply_d(amb.basis(i)))
            for j in range(amb.n):
                assert all(type(x) is int for x in amb.bracket(amb.basis(i), amb.basis(j)))
        d1, d2 = defects(ext)
        kernel_deg1 = [i for i in ext.kernel if amb.degrees[i] == 1]
        for phi in quotient_mc_candidates(ext.quotient, [0, 1, Fraction(-1, 2)]):
            for a in (Fraction(2, 3), Fraction(1, 2), Fraction(4, 2), -1):
                alpha = vec(amb.n, {i: a for i in kernel_deg1})
                s_phi = ext.include_quotient(phi)
                lifted = add(s_phi, alpha)
                # a product or sum of Fractions can be integral: it must come back as an int
                for result in (
                    alpha,
                    s_phi,
                    lifted,
                    sub(lifted, alpha),
                    scale(lifted, 2),
                    scale(lifted, Fraction(1, 2)),
                    amb.apply_d(alpha),
                    amb.bracket(s_phi, alpha),
                    amb.bracket(lifted, lifted),
                    is_mc(amb, lifted)[1],
                    d1(phi),
                    d2(phi, phi),
                    lift_residual(ext, phi, alpha),
                ):
                    assert all(follows_rule(x) for x in result), result
                checked += 1
    assert checked >= 40


def test_mclift_integral_results_are_ints():
    assert typed(scale((2, 4, 0), Fraction(1, 2))) == typed((1, 2, 0))
    assert typed(add((Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1, 3)))) == typed((1, Fraction(4, 3)))
    assert typed(sub((Fraction(3, 2), 0), (Fraction(1, 2), 0))) == typed((1, 0))
    heisenberg = GradedDgLie((1, 1, 2), ((0,) * 3,) * 3, {(0, 1): {2: 1}, (1, 0): {2: 1}})
    assert typed(is_mc(heisenberg, (1, 1, 0))[1]) == typed((0, 0, 1))
    assert typed(heisenberg.bracket((Fraction(1, 2), 0, 0), (0, 2, 0))) == typed((0, 0, 1))
    # a section that keeps degrees: the degree-1 kernel vector b2 shifts s(b0)
    wide = GradedDgLie((1, 1, 1, 2), ((0,) * 4,) * 4, {(0, 1): {3: 1}, (1, 0): {3: 1}})
    ext = AbelianExtension(wide, (2, 3), section={0: (1, 0, Fraction(1, 2), 0), 1: (0, 1, 0, 0)})
    assert typed(ext.include_quotient((2, 0))) == typed((2, 0, 1, 0))


def typed(v):
    return [(type(x), x) for x in v]


def test_lift_residual_refuses_a_float_base_element():
    # the memo compares base elements by value and 1.0 == 1, so a float must
    # be refused before it reaches the memo, on a hit as on a miss
    heisenberg = GradedDgLie((1, 1, 2), ((0,) * 3,) * 3, {(0, 1): {2: 1}, (1, 0): {2: 1}})
    ext = AbelianExtension(heisenberg, (2,))
    with pytest.raises(TypeError):
        lift_residual(ext, (1.0, 1.0), (0, 0, 0))
    assert typed(lift_residual(ext, (1, 1), (0, 0, 0))) == typed((0, 0, 1))
    with pytest.raises(TypeError):
        lift_residual(ext, (1.0, 1), (0, 0, 0))
    assert typed(lift_residual(ext, (1, Fraction(1)), (0, 0, 0))) == typed((0, 0, 1))


def test_lift_residual_refuses_a_float_kernel_correction():
    # alpha = 1/2 on the degree-1 kernel vector gives a residual of 1 at index 3
    ext = random_two_level_extension(random.Random(3))
    phi = (0, 0)
    with pytest.raises(TypeError):
        lift_residual(ext, phi, (0, 0.5, 0, 0))
    assert typed(lift_residual(ext, phi, (0, Fraction(1, 2), 0, 0))) == typed((0, 0, 0, 1))
    with pytest.raises(TypeError):
        lift_residual(ext, phi, (0, 1.0, 0, 0))
    assert typed(lift_residual(ext, phi, (0, Fraction(2), 0, 0))) == typed((0, 0, 0, 4))


def test_is_mc_refuses_a_float_coordinate():
    # [b0, b1] = [b1, b0] = b2, so v = (1/2, 1, 0) has residual b2/2
    heisenberg = GradedDgLie((1, 1, 2), ((0,) * 3,) * 3, {(0, 1): {2: 1}, (1, 0): {2: 1}})
    for v in [(0.5, 1.0, 0), (Fraction(1, 2), 1.0, 0)]:
        with pytest.raises(TypeError):
            is_mc(heisenberg, v)
    ok, residual = is_mc(heisenberg, (Fraction(1, 2), 1, 0))
    assert not ok and typed(residual) == typed((0, 0, Fraction(1, 2)))


# negative, odd and even ints, large ones too, proper and integral Fractions
half_entries = st.one_of(coeffs, st.integers(-10**30, 10**30))


@given(st.lists(half_entries, max_size=8))
@example([-4, -3, -1, 0, 1, 6, 7, Fraction(-5, 3), Fraction(1, 2), Fraction(4, 2)])
@settings(max_examples=200, deadline=None)
def test_half_equals_scaling_by_one_half(v):
    halved = _half(tuple(v))
    assert typed(halved) == typed(scale(tuple(v), Fraction(1, 2)))
    assert all(follows_rule(x) for x in halved)


# -- every true division keeps a Fraction operand -------------------------------


def divisions(tree):
    """(line, operands) of each ``/`` and ``/=`` in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield node.lineno, (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield node.lineno, (node.target, node.value)


def is_fraction_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
    )


def unguarded_divisions(source: str):
    return sorted(line for line, operands in divisions(ast.parse(source))
                  if not any(is_fraction_call(x) for x in operands))


def test_every_division_has_a_fraction_operand():
    found, unguarded = 0, []
    for path in sorted((ROOT / "src" / "nbhdext").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        found += sum(1 for _ in divisions(ast.parse(source)))
        unguarded += [f"{path.name}:{line}" for line in unguarded_divisions(source)]
    assert unguarded == []
    assert found == 2


def test_the_scan_sees_an_int_division():
    source = "a = 1 / x\nb = Fraction(1) / x\nc = x / Fraction(y)\nd /= 2\n"
    assert unguarded_divisions(source) == [1, 4]
