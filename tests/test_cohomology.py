"""The counting oracle against a direct rank computation over windows."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from nbhdext.cohomology import cohomology_dim, twist_dims, weight_cohomology, weight_supports
from nbhdext.linsolve import matrix_rank, sparse_rows

F = Fraction


def brute_force_dims(n, d, box=8):
    """Cech dimensions of O(d) on P^n from explicit global matrices.

    Cochains are indexed by (simplex, weight) pairs over a wide weight
    window; the differential is the alternating inclusion with no
    per-weight shortcuts.  Independent of the per-weight oracle.
    """
    indices = list(range(n + 1))
    weights = [
        w
        for w in product(range(-box, box + 1), repeat=n + 1)
        if sum(w) == d
    ]

    def allowed(w, simplex):
        return all(w[i] >= 0 or i in simplex for i in range(n + 1))

    basis = []
    for j in range(n + 1):
        basis.append(
            [
                (I, w)
                for I in combinations(indices, j + 1)
                for w in weights
                if allowed(w, I)
            ]
        )

    def delta_matrix(j):
        source = basis[j]
        target = basis[j + 1]
        pos = {key: t for t, key in enumerate(source)}
        rows = []
        for big, w in target:
            row = [F(0)] * len(source)
            for drop in range(len(big)):
                small = big[:drop] + big[drop + 1:]
                key = (small, w)
                if key in pos:
                    row[pos[key]] += F((-1) ** drop)
            rows.append(row)
        return rows

    dims = [len(b) for b in basis]
    ranks = [matrix_rank(sparse_rows(delta_matrix(j))) if dims[j] else 0 for j in range(n)]
    out = []
    for j in range(n + 1):
        ker = dims[j] - (ranks[j] if j < n else 0)
        im = ranks[j - 1] if j > 0 else 0
        out.append(ker - im)
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_p1_negative_twists_match_brute_force(k):
    dims = cohomology_dim("p1", [-k])
    assert dims[1] == k - 1
    assert dims == brute_force_dims(1, -k)


@pytest.mark.parametrize("d", [-1, 0, 1, 3])
def test_p1_nonnegative_and_borderline(d):
    dims = cohomology_dim("p1", [d])
    assert dims[1] == 0
    assert dims[0] == max(d + 1, 0)
    assert dims == brute_force_dims(1, d)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_p2_negative_twists_match_brute_force(k):
    dims = cohomology_dim("p2", [-k])
    assert dims[2] == (k - 1) * (k - 2) // 2
    assert dims[1] == 0
    assert dims == brute_force_dims(2, -k)


def test_p2_positive_twist():
    dims = cohomology_dim("p2", [2])
    assert dims == [6, 0, 0]
    assert dims == brute_force_dims(2, 2)


def test_direct_sums_add():
    a = cohomology_dim("p1", [-2])
    b = cohomology_dim("p1", [-3])
    s = cohomology_dim("p1", [-2, -3])
    assert s == [x + y for x, y in zip(a, b)]


def test_unsupported_space():
    from nbhdext.errors import UnsupportedSheaf

    with pytest.raises(UnsupportedSheaf):
        cohomology_dim("p3", [1])


@pytest.mark.parametrize("n", [1, 2])
def test_weight_supports_equal_the_whole_box_scan(n):
    """Deriving the last coordinate keeps exactly the box's weights of sum d."""
    for d in range(-12, 13):
        lo, hi = min(d, -1) - n - 1, max(d, 0) + 1
        scanned = Counter(
            frozenset(i for i, x in enumerate(w) if x < 0)
            for w in product(range(lo, hi + 1), repeat=n + 1)
            if sum(w) == d
        )
        assert weight_supports(n, d) == scanned, (n, d)


@pytest.mark.parametrize("n", [1, 2])
def test_memoized_weight_cohomology_equals_a_fresh_computation(n):
    """The memo serves what an uncached computation gives, and as a tuple no caller can change."""
    fresh = weight_cohomology.__wrapped__
    for size in range(n + 2):
        for support in map(frozenset, combinations(range(n + 1), size)):
            memoized = weight_cohomology(n, support)
            assert type(memoized) is tuple
            assert memoized == tuple(fresh(n, support)), (n, support)
            assert weight_cohomology(n, support) is memoized
    for d in range(-8, 9):
        dims = [0] * (n + 1)
        for support, count in weight_supports(n, d).items():
            for j, r in enumerate(fresh(n, support)):
                dims[j] += count * r
        assert twist_dims(n, d) == dims, (n, d)
