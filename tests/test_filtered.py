import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhdext.errors import EngineError, NonInvertibleSubstitution, NotAdapted, NotUnipotent
from nbhdext.filtered import (
    ChartRing,
    ChartTransition,
    FilteredAutomorphism,
    PairDerivation,
    Substitution,
    bch2,
    bracket,
    exp_nilpotent,
    induced_transition,
    linear_images,
    log_unipotent,
)
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix

F = Fraction


def ring_pq(p, q, inverted=()):
    return ChartRing(
        tuple(f"u{i+1}" for i in range(p)),
        tuple(f"t{i+1}" for i in range(q)),
        tuple(inverted),
    )


def random_poly(rng, ring, t_min, t_max, u_range=(0, 2), n_terms=2):
    if t_min > t_max:
        return ring.zero()
    terms = {}
    for _ in range(n_terms):
        u_part = tuple(rng.randint(*u_range) for _ in range(ring.p))
        # pick a t-part with total degree in [t_min, t_max]
        deg = rng.randint(t_min, t_max)
        t_part = [0] * ring.q
        for _ in range(deg):
            t_part[rng.randrange(ring.q)] += 1
        terms[u_part + tuple(t_part)] = F(rng.randint(-3, 3))
    return LaurentPoly(ring.names, terms)


def random_unipotent_derivation(rng, ring, k, rank=None):
    u_imgs = tuple(random_poly(rng, ring, 1, k) for _ in range(ring.p))
    t_imgs = tuple(random_poly(rng, ring, 2, k) for _ in range(ring.q))
    module = None
    if rank:
        module = PolyMatrix(
            [
                [random_poly(rng, ring, 1, k, n_terms=1) for _ in range(rank)]
                for _ in range(rank)
            ]
        )
    d = PairDerivation(ring, k, u_imgs, t_imgs, module)
    return PairDerivation(
        ring,
        k,
        tuple(ring.truncate(p, k) for p in d.u_images),
        tuple(ring.truncate(p, k) for p in d.t_images),
        module.map(lambda p: ring.truncate(p, k)) if module else None,
    )


def automorphisms_agree_to_grading(a, b, g):
    ring = a.ring
    for x, y in zip(a.u_images, b.u_images):
        if not ring.truncate(x - y, g).is_zero():
            return False
    for x, y in zip(a.t_images, b.t_images):
        if not ring.truncate(x - y, g + 1).is_zero():
            return False
    if (a.module is None) != (b.module is None):
        return False
    if a.module is not None:
        diff = a.module - b.module
        if not diff.map(lambda p: ring.truncate(p, g)).is_zero():
            return False
    return True


# -- truncated products ------------------------------------------------------


@st.composite
def truncated_product_cases(draw):
    """A ring with p, q in {1, 2}, two polynomials over it and a t-bound.

    Tangential exponents run negative as well as positive, and the t-degrees
    run past the bound, so some products are dropped.
    About half of the factors on each side have one term, the case the
    product takes as a shift.
    """
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ring = ring_pq(p, q)
    exponent = st.tuples(
        *[st.integers(-2, 3)] * p, *[st.integers(0, 3)] * q
    )
    coeff = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 4)])
    terms = st.one_of(
        st.dictionaries(exponent, coeff, min_size=1, max_size=1),
        st.dictionaries(exponent, coeff, max_size=6),
    )
    a, b = (LaurentPoly(ring.names, draw(terms)) for _ in range(2))
    return ring, a, b, draw(st.integers(0, 3))


@given(truncated_product_cases())
@settings(max_examples=300, deadline=None)
def test_truncated_product_equals_truncated_full_product(case):
    ring, a, b, t_max = case
    product = ring.mul(a, b, t_max)
    expected = ring.truncate(a * b, t_max)
    assert product == expected
    # same terms in the same order, so anything that walks them is unchanged
    assert list(product.terms.items()) == list(expected.terms.items())


def test_truncated_product_table_is_keyed_by_the_ring():
    # one right factor under two splits of the same names: its rows' t-degrees
    # differ, so a table cached for one ring is wrong in the other
    names = ("a", "b", "c")
    splits = (ChartRing(("a",), ("b", "c")), ChartRing(("a", "b"), ("c",)))
    a = LaurentPoly(names, {(0, 1, 0): 1, (1, 0, 1): 2, (0, 0, 0): -1})
    b_terms = {(0, 2, 0): 1, (0, 0, 1): -1, (1, 1, 1): 3, (2, 0, 0): F(1, 2)}
    for order in (splits, splits[::-1]):
        b = LaurentPoly(names, b_terms)
        for ring in order + order:
            for t_max in (0, 1, 2):
                assert ring.mul(a, b, t_max) == ring.truncate(a * b, t_max)


def test_truncated_product_rejects_mismatched_variables():
    ring = ring_pq(1, 1)
    a = LaurentPoly(ring.names, {(1, 0): 1})
    b = LaurentPoly(("u1", "s1"), {(0, 1): 1})
    with pytest.raises(ValueError):
        ring.mul(a, b, 2)
    with pytest.raises(ValueError):
        ring.mul(b, a, 2)


# -- memoized truncated substitution ----------------------------------------------


def subst_oracle(p, images, t_max, target):
    """One truncated substitution of ``p`` term by term, with a fresh power cache.

    The per-call substitution the engine used before ``Substitution``: each
    variable power is rebuilt from 1 by repeated truncated multiplication.
    """
    out = target.zero()
    cache = {}
    for e, c in p.sorted_terms():
        term = target.const(c)
        for name, k in zip(p.vars, e):
            if k == 0:
                continue
            key = (name, k)
            if key not in cache:
                img = images.get(name)
                if img is None:
                    raise ValueError(f"no image supplied for variable {name!r}")
                if k < 0:
                    img = target.invert_trunc(img, t_max)
                power = target.one()
                for _ in range(abs(k)):
                    power = target.mul(power, img, t_max)
                cache[key] = power
            term = target.mul(term, cache[key], t_max)
            if term.is_zero():
                break
        out = out + term
    return out


def outcome(substitute, p):
    """The image of ``p``, or the type of the error substituting it raises."""
    try:
        return substitute(p)
    except (EngineError, ValueError) as err:
        return type(err)


@st.composite
def substitution_cases(draw, n_polys=1):
    """A ring with p, q in {1, 2}, images of its variables, polynomials and a t-bound.

    Every exponent of the moved polynomials runs over -3..3.  The images
    have tangential exponents in -2..2 and t-exponents in 0..2, about half
    of them with a unit monomial in t-degree 0, so negative powers are
    sometimes invertible and sometimes not.
    """
    p, q = draw(st.sampled_from((1, 2))), draw(st.sampled_from((1, 2)))
    ring = ring_pq(p, q)
    coeff = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 4)])
    moved = st.tuples(*[st.integers(-3, 3)] * (p + q))
    image_exps = st.tuples(*[st.integers(-2, 2)] * p, *[st.integers(0, 2)] * q)
    images = {}
    for name in ring.names:
        image = LaurentPoly(ring.names, draw(st.dictionaries(image_exps, coeff, max_size=3)))
        if draw(st.booleans()):
            head = draw(st.tuples(*[st.integers(-3, 3)] * p)) + (0,) * q
            image = ring.monomial(head, draw(coeff)) + image - ring.restrict_to_x(image)
        images[name] = image
    polys = [
        LaurentPoly(ring.names, draw(st.dictionaries(moved, coeff, min_size=1, max_size=4)))
        for _ in range(n_polys)
    ]
    return ring, images, draw(st.integers(0, 3)), polys


@given(substitution_cases())
@settings(max_examples=300, deadline=None)
def test_substitution_equals_the_per_call_substitution(case):
    ring, images, t_max, (p,) = case
    expected = outcome(lambda f: subst_oracle(f, images, t_max, ring), p)
    assert outcome(Substitution(ring, images, t_max), p) == expected
    assert outcome(lambda f: ring.subst_trunc(f, images, t_max), p) == expected


@given(substitution_cases(n_polys=5), st.integers(3, 5))
@settings(max_examples=150, deadline=None)
def test_one_shared_substitution_equals_fresh_ones(case, n):
    ring, images, t_max, polys = case
    shared = Substitution(ring, images, t_max)
    for p in polys[:n]:
        assert outcome(shared, p) == outcome(Substitution(ring, images, t_max), p)


@given(substitution_cases(n_polys=3), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_substitution_errors_survive_the_memo(case, which, k):
    ring, images, t_max, polys = case
    name = ring.names[which % len(ring.names)]
    exps = [0] * len(ring.names)
    exps[ring.names.index(name)] = k
    positive, negative = ring.monomial(exps), ring.monomial([-x for x in exps])
    # a missing image: the shared instance has served other polynomials first
    missing = {n: img for n, img in images.items() if n != name}
    shared = Substitution(ring, missing, t_max)
    for p in polys:
        outcome(shared, p)
    for substitute in (shared, Substitution(ring, missing, t_max)):
        for f in (positive, negative):
            with pytest.raises(ValueError):
                substitute(f)
    with pytest.raises(ValueError):
        subst_oracle(positive, missing, t_max, ring)
    # a t-degree-0 part with two terms has no truncated inverse
    non_unit = dict(images, **{name: ring.one() + ring.u_var(0)})
    shared = Substitution(ring, non_unit, t_max)
    for p in polys:
        outcome(shared, p)
    for substitute in (shared, Substitution(ring, non_unit, t_max)):
        with pytest.raises(NonInvertibleSubstitution):
            substitute(negative)
    with pytest.raises(NonInvertibleSubstitution):
        subst_oracle(negative, non_unit, t_max, ring)


def test_zero_prefix_never_asks_for_a_later_image():
    # u1 -> t1 squares to zero at t_max 1, and t1 has no image: the fold
    # stops at the zero prefix whatever was asked for first
    ring = ring_pq(1, 1)
    images = {"u1": ring.t_var(0)}
    zero_product = ring.monomial((2, 1))
    needs_t1 = [ring.monomial((0, 1)), ring.monomial((1, 1))]
    assert subst_oracle(zero_product, images, 1, ring) == ring.zero()
    for first in ([], [ring.monomial((2, 0))], needs_t1):
        substitute = Substitution(ring, images, 1)
        for p in first:
            outcome(substitute, p)
        assert substitute(zero_product) == ring.zero()
        for p in needs_t1:
            with pytest.raises(ValueError):
                substitute(p)


def test_first_powers_and_one_variable_monomials_multiply_nothing(monkeypatch):
    # x^1 is the truncated image and x^k's monomial image is x^k itself:
    # neither is a product by one
    ring = ring_pq(2, 1)
    u1, u2, t1 = ring.u_var(0), ring.u_var(1), ring.t_var(0)
    images = {
        "u1": u1 + u1 * u1 * u2 + ring.const(F(1, 2)) * t1 + u1 * t1 * t1,
        "u2": u2 + u1 * u2 * u2 * t1 - t1 * t1,
        "t1": t1 + u1 * t1 * t1,
    }
    one_variable = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 3, 0)]
    expected = {e: subst_oracle(ring.monomial(e), images, 1, ring) for e in one_variable}
    calls = []
    mul = ChartRing.mul

    def counting_mul(self, a, b, t_max):
        calls.append((a, b))
        return mul(self, a, b, t_max)

    monkeypatch.setattr(ChartRing, "mul", counting_mul)
    substitute = Substitution(ring, images, 1)
    for name, e in zip(ring.names, one_variable):
        assert substitute.power(name, 1) == expected[e]
    assert calls == []
    cube = substitute.power("u2", 3)
    assert len(calls) == 2
    for e in one_variable:
        assert substitute.monomial_image(ring.names, e) == expected[e]
    assert substitute.monomial_image(ring.names, (0, 3, 0)) is cube
    assert len(calls) == 2


# -- module actions ----------------------------------------------------------


@st.composite
def module_action_cases(draw):
    """A derivation and an automorphism of rank 1..3 at order 1..3, with sections.

    Every matrix (the module parts, the sections and the endomorphism) has
    about half of its entries zero, and the generator images include
    t-degree-0 terms, so nothing relies on unipotency.
    """
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    k, e, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ring = ring_pq(p, q)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def matrix(rows, cols):
        return PolyMatrix(
            [[random_poly(rng, ring, 0, k + 1) if rng.random() < 0.5 else ring.zero()
              for _ in range(cols)] for _ in range(rows)]
        )

    def images(gens):
        return tuple(g + random_poly(rng, ring, 0, k) for g in gens)

    d = PairDerivation(
        ring, k,
        tuple(random_poly(rng, ring, 0, k) for _ in range(p)),
        tuple(random_poly(rng, ring, 0, k) for _ in range(q)),
        matrix(e, e),
        algebra_trunc=k + draw(st.integers(0, 1)),
    )
    phi = FilteredAutomorphism(
        ring, k,
        images([ring.u_var(b) for b in range(p)]),
        images([ring.t_var(a) for a in range(q)]),
        matrix(e, e),
    )
    return d, phi, matrix(e, n), matrix(e, e)


@given(module_action_cases())
@settings(max_examples=60, deadline=None)
def test_module_actions_match_the_column_formulas(case):
    d, phi, sections, endo = case
    ring, k, e = d.ring, d.order, d.module.rows
    # one section per column, as the actions were first written
    for j in range(sections.cols):
        col = [sections[c, j] for c in range(e)]
        for r in range(e):
            psi = ring.truncate(d.apply(col[r]), k)
            moved = ring.zero()
            for c in range(e):
                psi = psi + ring.mul(col[c], d.module[r, c], k)
                moved = moved + ring.mul(phi.apply(col[c]), phi.module[r, c], k)
            assert d.act(sections)[r, j] == psi
            assert phi.act(sections)[r, j] == moved
    # [psi, endo] was read off the bracket with the zero derivation carrying endo
    zero = PairDerivation(
        ring, k,
        tuple(ring.zero() for _ in range(ring.p)),
        tuple(ring.zero() for _ in range(ring.q)),
        endo,
        algebra_trunc=d.algebra_trunc,
    )
    assert d.bracket_endo(endo) == bracket(d, zero).module


def test_module_actions_need_module_data():
    ring = ring_pq(1, 1)
    sections = PolyMatrix([[ring.one()]])
    with pytest.raises(ValueError):
        PairDerivation.zero(ring, 2).act(sections)
    with pytest.raises(ValueError):
        FilteredAutomorphism.identity(ring, 2).act(sections)


def test_module_actions_refuse_sections_of_another_rank():
    # a rank-one module acting on two rows once kept the first row and dropped the second
    ring = ring_pq(1, 1)
    sections = PolyMatrix([[ring.one()], [ring.u_var(0)]])
    with pytest.raises(ValueError, match="shape mismatch"):
        FilteredAutomorphism.identity(ring, 2, rank=1).act(sections)
    with pytest.raises(ValueError, match="shape mismatch"):
        PairDerivation.zero(ring, 2, rank=1).act(sections)
    with pytest.raises(ValueError, match="shape mismatch"):
        ring.matmul(PolyMatrix.identity(2, ring.names), PolyMatrix([[ring.one(), ring.one()]]), 2)


# -- the Leibniz rule --------------------------------------------------------------


def leibniz_oracle(d, f):
    """D(f) as the sum over the variables of truncated products df/dv . D(v).

    The per-variable body ``PairDerivation.apply`` had before it became one
    pass over f's terms: a derivative, a product and a partial sum for each
    variable whose derivative and image are both nonzero.
    """
    ring, k = d.ring, d.algebra_trunc
    out = ring.zero()
    for b, name in enumerate(ring.u_names):
        df = f.diff(name)
        if not df.is_zero() and not d.u_images[b].is_zero():
            out = out + ring.mul(df, d.u_images[b], k)
    for a, name in enumerate(ring.t_names):
        df = f.diff(name)
        if not df.is_zero() and not d.t_images[a].is_zero():
            out = out + ring.mul(df, d.t_images[a], k)
    return out


@st.composite
def leibniz_cases(draw):
    """A derivation with p, q in {1, 2} at order 1..3 and polynomials to apply it to.

    ``algebra_trunc`` is the order or one more.  About a third of the images
    are zero; the others, like the polynomials, have tangential exponents
    in -2..3 and t-exponents in 0..3, so t-degrees run past the bound.
    """
    p, q, k = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    ring = ring_pq(p, q)
    exponent = st.tuples(*[st.integers(-2, 3)] * p, *[st.integers(0, 3)] * q)
    coeff = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 4)])
    poly = st.builds(lambda terms: LaurentPoly(ring.names, terms),
                     st.dictionaries(exponent, coeff, max_size=4))
    image = st.one_of(st.just(ring.zero()), poly, poly)
    d = PairDerivation(
        ring, k,
        tuple(draw(image) for _ in range(p)),
        tuple(draw(image) for _ in range(q)),
        algebra_trunc=k + draw(st.integers(0, 1)),
    )
    return d, draw(st.lists(poly, min_size=1, max_size=3))


@given(leibniz_cases())
@settings(max_examples=300, deadline=None)
def test_leibniz_rule_equals_the_per_variable_sum(case):
    d, polys = case
    for f in polys:
        applied = d.apply(f)
        assert applied == leibniz_oracle(d, f)
        assert applied.vars == d.ring.names


def leibniz_outcome(apply, f):
    """D(f), or ValueError when applying D to ``f`` raises it."""
    try:
        return apply(f)
    except ValueError:
        return ValueError


@st.composite
def mismatched_leibniz_cases(draw):
    """A derivation and a polynomial whose variables may not be the chart's.

    The polynomial lives on the chart's variables, on them in another
    order, on them and one more, or on all but one of them; each image on
    the chart's variables or on a renamed copy.  Each image and each
    exponent is zero about half of the time, so a mismatch is sometimes
    never multiplied.
    """
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ring = ring_pq(p, q)
    names = ring.names
    renamed = tuple(name.replace("u", "w") for name in names)
    f_vars = draw(st.sampled_from([
        names, names[::-1], names + ("s",), names[1:], names[:-1], renamed,
    ]))
    coeff = st.sampled_from([F(1), F(-2), F(1, 2)])

    def poly(vars):
        exponent = st.tuples(*[st.sampled_from((0, 0, 1, -1, 2))] * len(vars))
        return LaurentPoly(vars, draw(st.dictionaries(exponent, coeff, max_size=3)))

    images = tuple(poly(draw(st.sampled_from([names, names, renamed]))) for _ in names)
    d = PairDerivation(ring, 2, images[:p], images[p:])
    return d, poly(f_vars)


@given(mismatched_leibniz_cases())
@settings(max_examples=300, deadline=None)
def test_leibniz_rule_refuses_mismatched_variables_as_the_per_variable_sum(case):
    d, f = case
    assert leibniz_outcome(d.apply, f) == leibniz_outcome(lambda g: leibniz_oracle(d, g), f)


def test_leibniz_rule_mismatches_by_hand():
    ring = ring_pq(1, 1)
    t = ring.t_var(0)
    d = PairDerivation(ring, 2, (t,), (ring.zero(),))
    # a chart variable missing from f: refused even when f is zero
    with pytest.raises(ValueError):
        d.apply(LaurentPoly.zero(("u1",)))
    # f over more variables: refused once a product would mix the rings ...
    with pytest.raises(ValueError):
        d.apply(LaurentPoly(("u1", "t1", "s"), {(1, 0, 0): 1}))
    # ... and the chart's zero when none would
    assert d.apply(LaurentPoly(("u1", "t1", "s"), {(0, 1, 1): 1})) == ring.zero()
    # an image over other variables is refused only where f uses its variable
    d = PairDerivation(ring, 2, (LaurentPoly(("u1", "s1"), {(0, 1): 1}),), (t * t,))
    with pytest.raises(ValueError):
        d.apply(ring.u_var(0))
    assert d.apply(t) == t * t


# -- log / exp --------------------------------------------------------------


def test_log_of_identity_is_zero():
    ring = ring_pq(1, 1)
    phi = FilteredAutomorphism.identity(ring, 2, rank=1)
    d = log_unipotent(phi)
    assert d.is_zero()


def test_log_of_t_plus_t_squared():
    # hand expansion of log(1+x) at order 2: the t^2 correction survives, nothing else
    ring = ring_pq(1, 1)
    t = ring.t_var(0)
    phi = FilteredAutomorphism(ring, 2, (ring.u_var(0),), (t + t * t,))
    d = log_unipotent(phi)
    assert d.t_images[0] == t * t
    assert d.u_images[0].is_zero()


def test_exp_of_single_conormal_component():
    # D: t -> c t^2 at k=3 iterates to t + c t^2 + c^2 t^3 (hand computation)
    ring = ring_pq(1, 1)
    t = ring.t_var(0)
    c = F(3, 2)
    d = PairDerivation(ring, 3, (ring.zero(),), (t * t * c,))
    phi = exp_nilpotent(d)
    assert phi.t_images[0] == t + t * t * c + t * t * t * c * c


def test_exp_log_round_trip_random():
    rng = random.Random(7)
    for _ in range(25):
        p, q, k = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3)
        ring = ring_pq(p, q)
        d = random_unipotent_derivation(rng, ring, k, rank=rng.choice([None, 1, 2]))
        phi = exp_nilpotent(d)
        assert phi.is_unipotent()
        assert log_unipotent(phi) == d
        # and the other way around
        assert automorphisms_agree_to_grading(exp_nilpotent(log_unipotent(phi)), phi, k)


def test_log_rejects_non_unipotent():
    ring = ring_pq(1, 1)
    phi = FilteredAutomorphism(ring, 2, (ring.u_var(0) * 2,), (ring.t_var(0),))
    with pytest.raises(NotUnipotent):
        log_unipotent(phi)


def test_inverse_refuses_a_tail_below_t_degree_one():
    # (1 + t^-1)^-1 has no finite truncated expansion: t^-1 has no vanishing power
    ring = ring_pq(1, 1)
    t_inv = ring.monomial((0, -1))
    for t_max in (0, 1, 2, 3):
        with pytest.raises(NotUnipotent):
            ring.invert_trunc(ring.one() + t_inv, t_max)
    # a tail of t-degree 1 with a negative t-exponent is still inverted
    two = ring_pq(1, 2)
    unit = two.u_var(0) + two.monomial((0, 2, -1))
    assert two.mul(two.invert_trunc(unit, 2), unit, 2) == two.one()
    # and a tail that mixes both is refused
    with pytest.raises(NotUnipotent):
        ring.invert_trunc(ring.u_var(0) + ring.t_var(0) + t_inv * 3, 2)
    # substitution asks for the same inverse
    with pytest.raises(NotUnipotent):
        Substitution(ring, {"u1": ring.u_var(0), "t1": ring.one() + t_inv}, 2)(
            ring.monomial((0, -1)))


def test_log_refuses_a_negative_t_exponent():
    # u1 -> u1 + t1^2 t2^-1 at order 1: the truncated substitution sends t1^2 t2^-1 to 0,
    # so Phi - id maps it to -t1^2 t2^-1 and the series never reaches zero
    ring = ring_pq(1, 2)
    u, t1, t2 = ring.u_var(0), ring.t_var(0), ring.t_var(1)
    odd = ring.monomial((0, 2, -1))
    with pytest.raises(NotUnipotent):
        log_unipotent(FilteredAutomorphism(ring, 1, (u + odd,), (t1, t2)))
    # the same term in the module part
    module = PolyMatrix([[ring.one() + odd]])
    with pytest.raises(NotUnipotent):
        log_unipotent(FilteredAutomorphism(ring, 1, (u,), (t1, t2), module))
    # a term the truncation drops is never moved, so it is no reason to refuse
    high = ring.monomial((0, 3, -1))
    assert log_unipotent(FilteredAutomorphism(ring, 1, (u + high,), (t1, t2))).is_zero()


# -- bch2 --------------------------------------------------------------------


def test_bch2_with_zero():
    rng = random.Random(3)
    ring = ring_pq(2, 1)
    x = random_unipotent_derivation(rng, ring, 2)
    z = PairDerivation.zero(ring, 2)
    assert bch2(x, z) == x + x.component(2) - x.component(2)  # equality mod nothing
    assert bch2(x, z).component(1) == x.component(1)
    assert bch2(x, z).component(2) == x.component(2)


def test_bch2_commuting_degree_one():
    # both pure degree 1 along the same direction: bracket vanishes
    ring = ring_pq(1, 1)
    t = ring.t_var(0)
    x = PairDerivation(ring, 2, (t,), (ring.zero(),))
    y = PairDerivation(ring, 2, (t * 2,), (ring.zero(),))
    z = bch2(x, y)
    assert z.component(2).is_zero()


def test_bch2_matches_composition_oracle():
    rng = random.Random(11)
    for _ in range(15):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        k = 3
        ring = ring_pq(p, q)
        x = random_unipotent_derivation(rng, ring, k)
        y = random_unipotent_derivation(rng, ring, k)
        composed = exp_nilpotent(x).compose(exp_nilpotent(y))
        via_bch = exp_nilpotent(bch2(x, y))
        assert automorphisms_agree_to_grading(via_bch, composed, 2)
        # log of the composition agrees with bch2 of the logs in degrees 1, 2
        logc = log_unipotent(composed)
        z = bch2(x, y)
        assert logc.component(1) == z.component(1)
        assert logc.component(2) == z.component(2)


# -- induced transitions ------------------------------------------------------


def overlap_ring():
    return ring_pq(1, 1, inverted=((1,),))


def p1_in_p2_transition():
    ring = overlap_ring()
    u, t = ring.u_var(0), ring.t_var(0)
    uinv = LaurentPoly.monomial(ring.names, (-1, 0))
    return ChartTransition(
        ring_low=ring,
        ring_high=ring,
        forward_u=(uinv,),
        forward_t=(uinv * t,),
        backward_u=(uinv,),
        backward_t=(uinv * t,),
    )


def test_induced_transition_linear_scaling():
    ring = ring_pq(1, 1)
    c = F(5)
    tr = ChartTransition(
        ring, ring,
        (ring.u_var(0),), (ring.t_var(0) * c,),
        (ring.u_var(0),), (ring.t_var(0) * F(1, 5),),
    )
    out = induced_transition(tr, 2)
    _, (normal,) = linear_images(ring, tr.forward_u, tr.forward_t)
    assert normal == ring.restrict_to_x(ring.const(c)) * ring.t_var(0)
    assert out.is_unipotent()
    assert out.u_images[0] == ring.u_var(0)
    assert out.t_images[0] == ring.t_var(0)


def test_induced_transition_p1_in_p2():
    # standard line scenario: conormal cocycle u^-1, unipotent part the identity
    tr = p1_in_p2_transition()
    out = induced_transition(tr, 3)
    ring = tr.ring_low
    _, (normal,) = linear_images(ring, tr.forward_u, tr.forward_t)
    assert normal == LaurentPoly.monomial(ring.names, (-1, 0)) * ring.t_var(0)
    assert out.u_images[0] == ring.u_var(0)
    assert out.t_images[0] == ring.t_var(0)


def test_induced_transition_already_normal_form():
    ring = ring_pq(1, 1)
    u, t = ring.u_var(0), ring.t_var(0)
    # backward of t -> t + t^2 at k=2 is t - t^2
    tr = ChartTransition(ring, ring, (u,), (t + t * t,), (u,), (t - t * t,))
    out = induced_transition(tr, 2)
    _, (normal,) = linear_images(ring, tr.forward_u, tr.forward_t)
    assert normal == ring.one() * t
    assert out.t_images[0] == t + t * t


def test_induced_transition_rejects_non_adapted():
    ring = ring_pq(1, 1)
    u, t = ring.u_var(0), ring.t_var(0)
    tr = ChartTransition(ring, ring, (u,), (t + ring.one(),), (u,), (t,))
    with pytest.raises(NotAdapted):
        induced_transition(tr, 2)


def test_induced_transition_rejects_directions_that_are_not_inverse():
    ring = ring_pq(1, 1)
    u, t = ring.u_var(0), ring.t_var(0)
    # backward o forward sends t to 2t: the discrepancy is not unipotent
    tr = ChartTransition(ring, ring, (u,), (t * 2,), (u,), (t,))
    with pytest.raises(NotUnipotent):
        induced_transition(tr, 2)


def test_transition_cocycle_on_triple_overlap():
    # three charts with unipotent twists; check Phi_ih = Phi_ij o (transported Phi_jh)
    ring = ring_pq(1, 1, inverted=((1,),))
    u, t = ring.u_var(0), ring.t_var(0)
    k = 2

    def twist(c):
        # adapted re-coordinatization t -> t + c u t^2 of the same chart
        fwd_t = t + t * t * u * c
        bwd_t = t - t * t * u * c
        return ChartTransition(ring, ring, (u,), (fwd_t,), (u,), (bwd_t,))

    t01 = induced_transition(twist(F(1)), k)
    t12 = induced_transition(twist(F(2)), k)
    # composite transition 0 -> 2: t -> (t + u t^2) then + 2u t^2 more
    fwd = t + t * t * u * 3  # to order 2 the twists add
    t02 = induced_transition(
        ChartTransition(ring, ring, (u,), (fwd,), (u,), (t - t * t * u * 3,)), k
    )
    composed = t01.compose(t12)
    assert ring.truncate(composed.t_images[0] - t02.t_images[0], k).is_zero()
    assert composed.u_images[0] == t02.u_images[0]
