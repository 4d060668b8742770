import random
from fractions import Fraction

import pytest

from nbhdext.errors import NotFlat
from nbhdext.filtered import PairDerivation, bracket
from nbhdext.formal import (
    AbelianizedKernel,
    FormalDisk,
    curvature,
    e_component,
    extension_cochain,
    extension_cocycle,
    is_flat,
    lie_differential,
    project_to_order,
    projection_cochain,
    RelativeCochain,
    relative_check,
    split_component_operator,
    splitting,
    splitting_defect,
)
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix

F = Fraction


def random_disk_poly(rng, disk, t_min, t_max, u_max=2, n_terms=2):
    ring = disk.ring
    if t_min > t_max:
        return ring.zero()
    terms = {}
    for _ in range(n_terms):
        u_part = [0] * disk.p
        for _ in range(rng.randint(0, u_max)):
            u_part[rng.randrange(disk.p)] += 1
        deg = rng.randint(t_min, t_max)
        t_part = [0] * disk.q
        for _ in range(deg):
            t_part[rng.randrange(disk.q)] += 1
        terms[tuple(u_part) + tuple(t_part)] = F(rng.randint(-2, 2))
    return LaurentPoly(ring.names, terms)


def random_der(rng, disk, l, k, with_module=True):
    """Random order-l element carrying algebra slices up to order k."""
    ring = disk.ring
    x_imgs = [random_disk_poly(rng, disk, 0, k) for _ in range(disk.p)]
    t_imgs = [random_disk_poly(rng, disk, 1, k + 1) for _ in range(disk.q)]
    module = None
    if with_module:
        module = PolyMatrix(
            [
                [random_disk_poly(rng, disk, 0, l, n_terms=1) for _ in range(disk.e)]
                for _ in range(disk.e)
            ]
        )
    return disk.der_l_element(x_imgs, t_imgs, module, l, k)


def random_phi_only(rng, disk, k):
    ring = disk.ring
    x_imgs = [random_disk_poly(rng, disk, 0, k) for _ in range(disk.p)]
    t_imgs = [random_disk_poly(rng, disk, 1, k + 1) for _ in range(disk.q)]
    return disk.der_l_element(x_imgs, t_imgs, None, -1, k)


# -- bracket -------------------------------------------------------------------


def test_bracket_self_is_zero():
    rng = random.Random(1)
    disk = FormalDisk(2, 1, 1, 4)
    d = random_der(rng, disk, 2, 2)
    assert bracket(d, d).is_zero()


def test_bracket_of_vector_fields_is_classical():
    disk = FormalDisk(2, 1, 1, 4)
    ring = disk.ring
    # [d/dx1, x1 d/dx2] = d/dx2
    d1 = disk.coordinate_field(0, 2)
    d2 = disk.der_l_element(
        [ring.zero(), ring.u_var(0)], [ring.zero()], None, 2, 2
    )
    br = bracket(d1, d2)
    assert br.u_images[0].is_zero()
    assert br.u_images[1] == ring.one()
    assert br.t_images[0].is_zero()


def test_jacobi_identity_random():
    rng = random.Random(3)
    disk = FormalDisk(2, 1, 1, 4)
    for _ in range(6):
        x = random_der(rng, disk, 2, 2)
        y = random_der(rng, disk, 2, 2)
        z = random_der(rng, disk, 2, 2)
        j = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert j.is_zero()


# -- splitting and flatness ------------------------------------------------------


def test_splitting_is_fixed_point_on_split_elements():
    rng = random.Random(5)
    disk = FormalDisk(2, 1, 1, 4)
    gamma = [
        PolyMatrix([[random_disk_poly(rng, disk, 0, 0)]]),
        PolyMatrix([[random_disk_poly(rng, disk, 0, 0)]]),
    ]
    d = random_phi_only(rng, disk, 3)
    s = splitting(disk, d, gamma, -1, 3)
    assert splitting(disk, s, gamma, -1, 3) == s


def test_flat_splitting_commutes_with_bracket():
    rng = random.Random(7)
    disk = FormalDisk(2, 2, 2, 4)
    gamma = disk.trivial_connection()
    assert is_flat(disk, gamma)
    for _ in range(10):
        x = random_phi_only(rng, disk, 2)
        y = random_phi_only(rng, disk, 2)
        assert splitting_defect(disk, x, y, gamma, -1, 2).is_zero()


def test_curved_splitting_defect_equals_curvature_contraction():
    # nabla = d + x1 dx2 on a rank-1 bundle: R_12 = 1
    disk = FormalDisk(2, 1, 1, 3)
    ring = disk.ring
    gamma = [
        PolyMatrix([[ring.zero()]]),
        PolyMatrix([[ring.u_var(0)]]),
    ]
    R = curvature(disk, gamma)
    assert R[(0, 1)] == PolyMatrix([[ring.one()]])
    assert not is_flat(disk, gamma)
    d1 = disk.coordinate_field(0, 0)
    d2 = disk.coordinate_field(1, 0)
    defect = splitting_defect(disk, d1, d2, gamma, -1, 0)
    # [s d1, s d2] - s[d1, d2] is the curvature contracted with the two fields
    assert defect.module == PolyMatrix([[ring.one()]])
    assert all(p.is_zero() for p in defect.u_images)


def test_curved_defect_detected_on_random_pairs():
    rng = random.Random(9)
    disk = FormalDisk(2, 1, 1, 3)
    ring = disk.ring
    gamma = [PolyMatrix([[ring.zero()]]), PolyMatrix([[ring.u_var(0)]])]
    found = False
    for _ in range(10):
        x = random_phi_only(rng, disk, 2)
        y = random_phi_only(rng, disk, 2)
        if not splitting_defect(disk, x, y, gamma, -1, 2).is_zero():
            found = True
            break
    assert found


# -- extension cocycle -----------------------------------------------------------


def test_extension_cocycle_vanishes_without_residues():
    rng = random.Random(11)
    disk = FormalDisk(2, 1, 1, 4)
    gamma = disk.trivial_connection()
    x = random_phi_only(rng, disk, 2)
    y = random_phi_only(rng, disk, 2)
    sx = splitting(disk, x, gamma, -1, 1)
    sy = splitting(disk, y, gamma, -1, 1)
    c = extension_cocycle(disk, 0, 1, project_to_order(disk, sx, 0), project_to_order(disk, sy, 0), gamma)
    assert c.is_zero()


def test_extension_cocycle_requires_flat():
    disk = FormalDisk(2, 1, 1, 3)
    ring = disk.ring
    gamma = [PolyMatrix([[ring.zero()]]), PolyMatrix([[ring.u_var(0)]])]
    d = disk.derivation([ring.zero()] * disk.p, [ring.zero()] * disk.q, None, 0)
    with pytest.raises(NotFlat):
        extension_cocycle(disk, 0, 1, d, d, gamma)


def test_extension_cocycle_order_zero_to_one_cup_shape():
    # l=0, k=1: only [s phi_1, e_0-tilde] + [s phi_1-tilde, e_0] survives
    disk = FormalDisk(1, 1, 2, 3)
    ring = disk.ring
    gamma = disk.trivial_connection()
    t = ring.t_var(0)
    # d1: tangential form a_1 = dx -> t, no residue
    d1 = disk.der_l_element([t], [ring.zero()], None, 0, 1)
    # d2: constant-free residue e_0 = x * E_01
    e0 = PolyMatrix(
        [[ring.zero(), ring.u_var(0)], [ring.zero(), ring.zero()]]
    )
    d2 = disk.der_l_element([ring.zero()], [ring.zero()], e0, 0, 1)
    c = extension_cocycle(disk, 0, 1, d1, d2, gamma)
    # [s phi_1(d1), e_0(d2)]: the split operator differentiates the residue entry
    s1 = split_component_operator(disk, d1, gamma, 1, 1)
    expected = bracket(s1, PairDerivation(
        ring, 1, (ring.zero(),), (ring.zero(),), e0, algebra_trunc=2
    )).module
    assert c.end_parts[1] == expected.map(lambda p: ring.t_part(p, 1))
    # and by hand: s phi_1 applied to x E_01 differentiates x to t
    assert c.end_parts[1][0, 1] == t


def test_extension_cocycle_matches_defect_oracle():
    # the formula agrees with [s d1, s d2] - s[d1, d2] read through the projection
    rng = random.Random(13)
    disk = FormalDisk(2, 1, 2, 4)
    gamma = disk.trivial_connection()
    for l, k in [(0, 1), (1, 2), (1, 3), (0, 2)]:
        for _ in range(4):
            x = random_der(rng, disk, l, k)
            y = random_der(rng, disk, l, k)
            c = extension_cocycle(disk, l, k, x, y, gamma)
            defect = splitting_defect(disk, x, y, gamma, l, k)
            ring = disk.ring
            for v in range(l + 1, min(k, 2 * l + 1) + 1):
                assert c.end_parts[v] == e_component(disk, defect, gamma, v), (l, k, v)
            for v in range(2 * l + 2, k + 1):
                assert c.scalar_parts[v] == e_component(disk, defect, gamma, v).trace()


def test_rank_one_high_degree_uses_scalar_trace():
    rng = random.Random(17)
    disk = FormalDisk(1, 1, 1, 4)
    gamma = disk.trivial_connection()
    x = random_der(rng, disk, 0, 2)
    y = random_der(rng, disk, 0, 2)
    c = extension_cocycle(disk, 0, 2, x, y, gamma)
    assert set(c.end_parts) == {1}
    assert set(c.scalar_parts) == {2}


# -- Lie cochain complex ----------------------------------------------------------


def test_lie_differential_squares_to_zero():
    rng = random.Random(19)
    disk = FormalDisk(2, 1, 1, 4)
    gamma = disk.trivial_connection()
    l, k = 0, 2

    # a random 0-cochain: a fixed kernel element
    value = AbelianizedKernel.zero(disk, l, k)
    value.end_parts[1] = PolyMatrix([[random_disk_poly(rng, disk, 1, 1)]])
    value.scalar_parts[2] = random_disk_poly(rng, disk, 2, 2)
    c0 = RelativeCochain(disk, l, k, gamma, 0, lambda: value)
    dd0 = lie_differential(lie_differential(c0))
    for _ in range(4):
        x = random_der(rng, disk, l, k)
        y = random_der(rng, disk, l, k)
        assert dd0.evaluate(x, y).is_zero()

    c1 = projection_cochain(disk, l, k, gamma)
    dd1 = lie_differential(lie_differential(c1))
    for _ in range(3):
        x = random_der(rng, disk, l, k)
        y = random_der(rng, disk, l, k)
        z = random_der(rng, disk, l, k)
        assert dd1.evaluate(x, y, z).is_zero()


def test_extension_cocycle_is_minus_delta_of_projection():
    rng = random.Random(23)
    disk = FormalDisk(2, 1, 2, 4)
    gamma = disk.trivial_connection()
    for l, k in [(0, 1), (0, 2), (1, 3)]:
        beta = projection_cochain(disk, l, k, gamma)
        dbeta = lie_differential(beta)
        for _ in range(4):
            x = random_der(rng, disk, k, k)
            y = random_der(rng, disk, k, k)
            c = extension_cocycle(disk, l, k, x, y, gamma)
            assert c == dbeta.evaluate(x, y).scaled(-1), (l, k)


def test_extension_cochain_is_closed():
    rng = random.Random(29)
    disk = FormalDisk(2, 1, 1, 4)
    gamma = disk.trivial_connection()
    l, k = 0, 2
    dc = lie_differential(extension_cochain(disk, l, k, gamma))
    for _ in range(3):
        x = random_der(rng, disk, l, k)
        y = random_der(rng, disk, l, k)
        z = random_der(rng, disk, l, k)
        assert dc.evaluate(x, y, z).is_zero()


def test_extension_cocycle_is_relative():
    rng = random.Random(31)
    disk = FormalDisk(2, 1, 2, 4)
    gamma = disk.trivial_connection()
    l, k = 0, 2
    c = extension_cochain(disk, l, k, gamma)
    samples = [random_der(rng, disk, l, k) for _ in range(3)]
    ok, witness = relative_check(c, samples)
    assert ok, witness


def test_zero_cochain_is_relative():
    disk = FormalDisk(1, 1, 1, 3)
    gamma = disk.trivial_connection()
    c = RelativeCochain(
        disk, 0, 1, gamma, 1, lambda x: AbelianizedKernel.zero(disk, 0, 1)
    )
    rng = random.Random(2)
    ok, _ = relative_check(c, [random_der(rng, disk, 0, 1)])
    assert ok


def test_curved_instance_fails_relativity():
    # with a curved connection the raw formula is no longer base-relative
    disk = FormalDisk(2, 1, 1, 4)
    ring = disk.ring
    gamma = [PolyMatrix([[ring.zero()]]), PolyMatrix([[ring.u_var(0)]])]
    l, k = 0, 1
    raw = RelativeCochain(
        disk, l, k, gamma, 2,
        lambda x, y: extension_cocycle(disk, l, k, x, y, gamma, check_flat=False),
    )
    rng = random.Random(37)
    samples = [random_der(rng, disk, l, k) for _ in range(4)]
    ok, witness = relative_check(raw, samples)
    assert not ok
    assert witness is not None
