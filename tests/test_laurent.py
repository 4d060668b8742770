from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhdext.errors import NonInvertibleSubstitution, ParseError
from nbhdext.filtered import ChartRing
from nbhdext.laurent import LaurentPoly, monomial_window

V = ("x", "y")


def P(terms):
    return LaurentPoly(V, terms)


def var(name):
    return LaurentPoly.variable(V, name)


# -- oracle: schoolbook expansion used to freeze expected values ---------


def brute_mul(a, b):
    """Term-by-term product, written independently of LaurentPoly.__mul__."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return LaurentPoly(V, out)


# plain Laurent arithmetic: no conormal variables, so truncation keeps everything
RING = ChartRing(V, ())


def subst(p, images):
    return RING.subst_trunc(p, images, 0)


def test_substitute_identity():
    p = var("x")
    assert subst(p, {"x": var("x")}) == p


def test_substitute_involution_on_overlap():
    # x^(-1) with x -> 1/x lands back on x
    p = LaurentPoly.monomial(V, (-1, 0))
    inv = LaurentPoly.monomial(V, (-1, 0))
    assert subst(p, {"x": inv}) == var("x")


def test_substitute_shift_matches_hand_expansion():
    # x^2 + 2x under x -> y + 1; expected frozen from the brute-force oracle
    p = P({(2, 0): 1, (1, 0): 2})
    img = var("y") + 1
    expected = brute_mul(img, img) + 2 * img  # (y+1)^2 + 2(y+1) = y^2 + 4y + 3
    assert expected == P({(0, 2): 1, (0, 1): 4, (0, 0): 3})
    assert subst(p, {"x": img}) == expected


def test_substitute_negative_power_needs_unit():
    p = LaurentPoly.monomial(V, (-1, 0))
    with pytest.raises(NonInvertibleSubstitution):
        subst(p, {"x": var("y") + 1})


def test_monomial_window_one_var():
    assert monomial_window([(-1, 1)]) == [(-1,), (0,), (1,)]
    assert monomial_window([(-3, -1)]) == [(-3,), (-2,), (-1,)]


def test_monomial_window_two_vars():
    win = monomial_window([(0, 1), (0, 1)])
    assert len(win) == 4
    assert win == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_window_rejects_empty():
    with pytest.raises(ValueError):
        monomial_window([(1, 0)])


def test_diff_laurent():
    p = P({(-2, 0): 3, (1, 1): 1})
    assert p.diff("x") == P({(-3, 0): -6, (0, 1): 1})


def test_serialization_round_trip_and_order():
    p = P({(1, 0): Fraction(1, 2), (0, 0): -2, (-1, 3): 5})
    data = p.to_json_terms()
    # graded-lex: totals -2? no: (-1,3)->2, (0,0)->0, (1,0)->1
    assert data == [[[0, 0], "-2"], [[1, 0], "1/2"], [[-1, 3], "5"]]
    assert LaurentPoly.from_json_terms(V, data) == p


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        LaurentPoly.from_json_terms(V, [[[1], "1"]])
    with pytest.raises(ParseError):
        LaurentPoly.from_json_terms(V, [[[1, 0], "1/0"]])


def test_non_integral_exponents_are_refused():
    # int(1.5) would store x^1
    with pytest.raises(TypeError):
        LaurentPoly(V, {(1.5, 0): 1})
    with pytest.raises(TypeError):
        LaurentPoly(V, {(1, Fraction(1, 2)): 1})
    assert LaurentPoly(V, {(True, 0): 1}) == LaurentPoly(V, {(1, 0): 1})


@pytest.mark.parametrize("exps, error", [((1.5, 0), TypeError), ((1, 0, 0), ValueError)])
def test_a_zero_coefficient_does_not_excuse_its_exponent(exps, error):
    with pytest.raises(error):
        LaurentPoly(V, {exps: 0})


def test_parse_refuses_non_integral_exponents():
    for exps in ([1.5, 0], [0, "1"], [Fraction(2), 0]):
        with pytest.raises(ParseError):
            LaurentPoly.from_json_terms(V, [[exps, "1"]])


small_coeff = st.integers(-4, 4).map(Fraction)
small_exp = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(small_exp, small_coeff, max_size=5).map(P)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_mul_matches_brute_oracle(a, b):
    assert a * b == brute_mul(a, b)


@given(polys)
@settings(max_examples=30, deadline=None)
def test_substitution_composition(p):
    # subst(subst(p, f), g) == subst(p, g o f) for maps with monomial images
    f = {"x": LaurentPoly.monomial(V, (0, 1)), "y": LaurentPoly.monomial(V, (1, 0), 2)}
    g = {"x": LaurentPoly.monomial(V, (2, 0)), "y": LaurentPoly.monomial(V, (0, -1), 3)}
    composed = {name: subst(img, g) for name, img in f.items()}
    assert subst(subst(p, f), g) == subst(p, composed)


@given(polys, st.one_of(st.integers(-4, 4), st.fractions(max_denominator=6)))
@settings(max_examples=40, deadline=None)
def test_a_number_minus_a_polynomial_is_the_constant_minus_it(p, c):
    diff = c - p
    assert diff == LaurentPoly.const(V, c) - p
    # the exact-number rule: integral coefficients are ints, the others Fractions;
    # a float on the left is refused in test_exact_numbers
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in diff.terms.values()), diff.terms
