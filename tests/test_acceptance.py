"""Acceptance gate: every criterion at its stated (exact) tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here is exact rational arithmetic; "tolerance"
always means literal equality.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

from nbhdext.cech import Solved, solve_coboundary, CechCochain, SYM_END
from nbhdext.cohomology import cohomology_dim
from nbhdext.filtered import (
    ChartRing,
    PairDerivation,
    bch2,
    exp_nilpotent,
    log_unipotent,
)
from nbhdext.formal import (
    FormalDisk,
    curvature,
    extension_cochain,
    lie_differential,
    projection_cochain,
    relative_check,
    splitting_defect,
)
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix
from nbhdext.mclift import (
    AbelianExtension,
    GradedDgLie,
    add,
    is_mc,
    is_zero,
    lift_residual,
    vec,
)
from nbhdext.scenarios import build_context, generate_builtin, run_pipeline

from test_cohomology import brute_force_dims

F = Fraction


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


# -- criterion 1: exp/log/bch round trips -------------------------------------------


def random_poly(rng, ring, t_min, t_max, n_terms=2):
    if t_min > t_max:
        return ring.zero()
    terms = {}
    for _ in range(n_terms):
        u = [0] * ring.p
        for _ in range(rng.randint(0, 2)):
            u[rng.randrange(ring.p)] += 1
        deg = rng.randint(t_min, t_max)
        t = [0] * ring.q
        for _ in range(deg):
            t[rng.randrange(ring.q)] += 1
        terms[tuple(u) + tuple(t)] = F(rng.randint(-3, 3))
    return LaurentPoly(ring.names, terms)


def random_unipotent(rng, ring, k, rank=None):
    module = None
    if rank:
        module = PolyMatrix(
            [[random_poly(rng, ring, 1, k, 1) for _ in range(rank)] for _ in range(rank)]
        )
    return PairDerivation(
        ring,
        k,
        tuple(ring.truncate(random_poly(rng, ring, 1, k), k) for _ in range(ring.p)),
        tuple(ring.truncate(random_poly(rng, ring, 2, k), k) for _ in range(ring.q)),
        module,
    )


def test_criterion_1_round_trip_exactness():
    start = time.monotonic()
    rng = random.Random(101)
    count = 0
    while count < 200:
        p, q, k = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3)
        ring = ChartRing(
            tuple(f"u{i+1}" for i in range(p)), tuple(f"t{i+1}" for i in range(q))
        )
        rank = rng.choice([None, 1, 2])
        d = random_unipotent(rng, ring, k, rank)
        d2 = random_unipotent(rng, ring, k, rank)
        phi, phi2 = exp_nilpotent(d), exp_nilpotent(d2)
        assert log_unipotent(phi) == d
        logc = log_unipotent(phi.compose(phi2))
        z = bch2(d, d2)
        assert logc.component(1) == z.component(1)
        assert logc.component(2) == z.component(2)
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(1, f"200 exp/log and composition/bch2 round trips exact in {elapsed:.1f}s")


# -- criterion 2: lifting equivalence -------------------------------------------------


def random_extension(rng):
    n1 = rng.randint(2, 6)
    n2 = rng.randint(2, 6)
    k1 = rng.randint(1, min(2, n1 - 1))
    k2 = rng.randint(1, n2)
    n = n1 + n2
    degrees = tuple([1] * n1 + [2] * n2)
    kernel1 = set(range(n1 - k1, n1))
    kernel2 = set(range(n1 + n2 - k2, n))
    d = [[F(0)] * n for _ in range(n)]
    for j in range(n1):
        targets = kernel2 if j in kernel1 else range(n1, n)
        for i in targets:
            if rng.random() < 0.4:
                d[i][j] = F(rng.randint(-2, 2))
    brackets = {}
    for i in range(n1):
        for j in range(i, n1):
            if i in kernel1 and j in kernel1:
                continue
            targets = kernel2 if (i in kernel1 or j in kernel1) else range(n1, n)
            entry = {}
            for t in targets:
                if rng.random() < 0.4:
                    c = F(rng.randint(-2, 2))
                    if c:
                        entry[t] = c
            if entry:
                brackets[(i, j)] = dict(entry)
                brackets[(j, i)] = dict(entry)
    amb = GradedDgLie(degrees, tuple(tuple(r) for r in d), brackets)
    kernel = tuple(sorted(kernel1 | kernel2))
    section = None
    if rng.random() < 0.6:
        section = {}
        for i in [x for x in range(n) if x not in set(kernel)]:
            shift = {i: F(1)}
            for t in kernel:
                if degrees[t] == degrees[i] and rng.random() < 0.5:
                    shift[t] = F(rng.randint(-2, 2))
            section[i] = vec(n, shift)
    return AbelianExtension(amb, kernel=kernel, section=section)


def test_criterion_2_lift_equivalence():
    start = time.monotonic()
    rng = random.Random(202)
    instances = 0
    samples = 0
    while instances < 50:
        ext = random_extension(rng)
        if ext.ambient.n > 12:
            continue
        amb = ext.ambient
        deg1_q = [i for i, dd in enumerate(ext.quotient.degrees) if dd == 1]
        kernel_deg1 = [i for i in ext.kernel if amb.degrees[i] == 1]
        grid = [F(0), F(1), F(-1)]
        alpha_grid = [F(0), F(1), F(-1), F(1, 2)]
        for coeffs in itertools.product(grid, repeat=len(deg1_q)):
            phi = vec(ext.quotient.n, dict(zip(deg1_q, coeffs)))
            ok, _ = is_mc(ext.quotient, phi)
            if not ok:
                continue
            for acoef in itertools.product(alpha_grid, repeat=len(kernel_deg1)):
                alpha = vec(amb.n, dict(zip(kernel_deg1, acoef)))
                resid = lift_residual(ext, phi, alpha)
                direct, _ = is_mc(amb, add(ext.include_quotient(phi), alpha))
                assert is_zero(resid) == direct
                samples += 1
        instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(2, f"lift equivalence on {instances} extensions / {samples} grid points in {elapsed:.1f}s")


# -- criterion 3: flat splitting --------------------------------------------------------


def test_criterion_3_flat_splitting():
    rng = random.Random(303)
    disk = FormalDisk(2, 2, 2, 6)
    gamma = disk.trivial_connection()

    def phi_only(k):
        ring = disk.ring
        return disk.der_l_element(
            [random_poly(rng, ring, 0, k) for _ in range(disk.p)],
            [random_poly(rng, ring, 1, k + 1) for _ in range(disk.q)],
            None,
            -1,
            k,
        )

    for _ in range(100):
        x, y = phi_only(2), phi_only(2)
        assert splitting_defect(disk, x, y, gamma, -1, 2).is_zero()

    # curated curved instance: nabla = d + x1 dx2 on a rank-one bundle
    curved = FormalDisk(2, 1, 1, 4)
    ring = curved.ring
    gam = [PolyMatrix([[ring.zero()]]), PolyMatrix([[ring.u_var(0)]])]
    R = curvature(curved, gam)
    assert R[(0, 1)] == PolyMatrix([[ring.one()]])
    d1 = curved.coordinate_field(0, 0)
    d2 = curved.coordinate_field(1, 0)
    defect = splitting_defect(curved, d1, d2, gam, -1, 0)
    # the defect is exactly the curvature contracted with the two fields
    assert defect.module == R[(0, 1)]
    report(3, "zero defect on 100 flat pairs; curved defect equals the curvature contraction")


# -- criterion 4: the cocycle identities on the disk --------------------------------------


def test_criterion_4_extension_cocycle_identities():
    rng = random.Random(404)
    l, k = 0, 2
    disk = FormalDisk(2, 1, 2, k + 2)
    gamma = disk.trivial_connection()

    def rand_der(order):
        ring = disk.ring
        return disk.der_l_element(
            [random_poly(rng, ring, 0, k) for _ in range(disk.p)],
            [random_poly(rng, ring, 1, k + 1) for _ in range(disk.q)],
            PolyMatrix(
                [
                    [random_poly(rng, ring, 0, order, 1) for _ in range(disk.e)]
                    for _ in range(disk.e)
                ]
            ),
            order,
            k,
        )

    c = extension_cochain(disk, l, k, gamma)
    dc = lie_differential(c)
    for _ in range(3):
        x, y, z = rand_der(l), rand_der(l), rand_der(l)
        assert dc.evaluate(x, y, z).is_zero()

    dbeta = lie_differential(projection_cochain(disk, l, k, gamma))
    for _ in range(4):
        x, y = rand_der(k), rand_der(k)
        assert c.evaluate(x, y) == dbeta.evaluate(x, y).scaled(-1)

    ok, witness = relative_check(c, [rand_der(l) for _ in range(3)])
    assert ok, witness
    report(4, "extension cocycle closed, base-relative, equal to minus the projection coboundary")


# -- criterion 5: order one on the line -----------------------------------------------------


def test_criterion_5_order_one_line_and_synthetic_twists():
    start = time.monotonic()
    for d in range(-3, 4):
        s = generate_builtin("line_in_p2", d=d)
        bundle = run_pipeline(s, k=1)
        (r1,) = bundle.reports
        assert isinstance(r1.status, Solved)
        assert r1.status.torsor_dim == 0
        assert r1.status.h1_oracle == 0
        assert cohomology_dim("p1", [-1])[1] == 0
    for kk in (2, 3, 4):
        case_start = time.monotonic()
        s = generate_builtin("p1_in_line_bundle", d=kk)
        ctx = build_context(s, 2)
        status = solve_coboundary(ctx, CechCochain(2, SYM_END, 1, {}), (-6, 6))
        assert isinstance(status, Solved)
        assert status.torsor_dim == kk - 1
        oracle = cohomology_dim("p1", [-kk])[1]
        assert oracle == kk - 1
        assert time.monotonic() - case_start < 30
    report(5, f"order-one equations solved with oracle-matching torsor dimensions in {time.monotonic()-start:.1f}s")


# -- criterion 6: the diagonal ---------------------------------------------------------------


def test_criterion_6_diagonal_both_orders():
    start = time.monotonic()
    for d in range(-2, 3):
        s = generate_builtin("diagonal_p1xp1", d=d)
        assert all(s.flat)
        bundle = run_pipeline(s, k=2)
        assert len(bundle.reports) == 2
        for r in bundle.reports:
            assert isinstance(r.status, Solved), (d, r.order)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(6, f"diagonal scenarios solved at both orders for |d| <= 2 in {elapsed:.1f}s")


# -- criterion 7: the cohomology oracle -------------------------------------------------------


def test_criterion_7_cohomology_oracle():
    for kk in range(1, 6):
        dims1 = cohomology_dim("p1", [-kk])
        assert dims1[1] == kk - 1
        assert dims1 == brute_force_dims(1, -kk)
        dims2 = cohomology_dim("p2", [-kk])
        assert dims2[2] == (kk - 1) * (kk - 2) // 2
        assert dims2 == brute_force_dims(2, -kk)
    report(7, "oracle matches brute-force window ranks for all twists up to 5")


# -- criterion 8: the rank-one abelianized pair ------------------------------------------------


def test_criterion_8_abelianized_pair_exactness():
    cases = [
        ("affine_split", 0, 0),
        ("line_in_p2", 2, 0),
        ("line_in_p2", -1, 1),
        ("diagonal_p1xp1", 1, 0),
        ("hyperplane_p2_in_p3", 2, 0),
        ("hyperplane_p2_in_p3", 2, 1),
        ("p1_in_line_bundle", 3, 0),
    ]
    for name, d, tw in cases:
        s = generate_builtin(name, d=d, twist=tw)
        assert s.e == 1
        bundle = run_pipeline(s, k=2)
        assert bundle.abelianized is not None
        assert bundle.abelianized["exact"], (name, d, tw)
    report(8, f"abelianized obstruction pair exact on {len(cases)} rank-one scenarios with known extensions")


# -- criterion 9: determinism ------------------------------------------------------------------


# SHA-256 of run_pipeline(s, k=2).dumps() for the builtin sweep cases; a
# refactor that changes any report byte must say so and update these
GOLDEN_DIGESTS = {
    ("affine_split", 0, 0): "5b6b6756077bcc7ec13998fdb24b4db7cbae2807b481b19f2e3f78c25216cb9e",
    ("line_in_p2", -3, 0): "15b674b1e7353197217464ca674810c967461623ba647116156c72fbf0ac5d78",
    ("line_in_p2", 0, 0): "85853806f248d39b98616a431cce368cd4d4569246f852b21fcec57acb20e5fa",
    ("line_in_p2", 3, 0): "6e93877ce5a6c21c57502130cedd7ebb578cabacf4876a4828583a515ccc5bc5",
    ("line_in_p2", 2, 1): "ccf8e177836b2b0eb3763607b6be4babbecf128369d3f9194d46ae59e5807f4d",
    ("diagonal_p1xp1", -2, 0): "c8da82d1a68b099c7c4f97f1f08130903cd2caf4c0bc39a46f0f9c6e5e29dd99",
    ("diagonal_p1xp1", 1, 0): "0d082d91d65e69fd134aa6ee33280635f78720f41f3d2ec499b036d249026307",
    ("hyperplane_p2_in_p3", 1, 0): "4e2d43e0cb979206e4251f6c0f38485fd8a89aa87e93a7640de723a30cd34175",
    ("hyperplane_p2_in_p3", 2, 1): "e8624a2c12e962bce429d34b8b951e897ca3eb32ab5f292a4ca605733853f978",
    ("p1_in_line_bundle", 2, 0): "37b03d81baded5e97690454a7afb0943cdf9de2ccbc2ddd6e684627e7855a03a",
    ("p1_in_line_bundle", 4, 0): "85f6729e05a89af598d9c2940b2fe54669ccffe17221e846c46f356dbb4b7181",
}


def test_criterion_9_determinism():
    for (name, d, tw), digest in GOLDEN_DIGESTS.items():
        s = generate_builtin(name, d=d, twist=tw)
        first, second = (run_pipeline(s, k=2).dumps() for _ in range(2))
        assert first == second, name
        assert hashlib.sha256(first.encode()).hexdigest() == digest, (name, d, tw)
    report(
        9,
        f"two runs byte-identical and matching the checked-in digest "
        f"on {len(GOLDEN_DIGESTS)} builtin cases",
    )
