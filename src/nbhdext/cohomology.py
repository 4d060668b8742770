"""Line-bundle cohomology on standard projective covers by monomial counting.

Sections of a twist on an intersection of standard charts are spanned by
homogeneous Laurent monomials whose exponents may only be negative at the
inverted indices.  The Cech complex therefore splits into one tiny
subcomplex per monomial weight, and each subcomplex is the simplicial
cochain complex of the subsets containing the weight's negative support.
Ranks of those small complexes are computed outright, so the dimensions
returned here are honest counts, not closed-form shortcuts.  Weights with
the same negative support have the same subcomplex, so each support's
subcomplex is ranked once per process and counted once per weight that
has it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from typing import List, Sequence, Tuple

from .errors import UnsupportedSheaf
from .linsolve import matrix_rank, sparse_rows

SPACES = {"p1": 1, "p2": 2}


@lru_cache(maxsize=None)
def weight_cohomology(n: int, negative_support: frozenset) -> Tuple[int, ...]:
    """Cohomology ranks of one weight subcomplex on the standard P^n cover.

    Degree-j cochains are spanned by the (j+1)-subsets of {0..n} that
    contain the weight's negative support; ranks come from explicit
    boundary matrices, nothing is special-cased.  The ranks depend on
    (n, support) alone, of which there are at most 2^(n+1) per n, so each
    is computed once per process and returned as a tuple, which no caller
    can change.
    """
    indices = list(range(n + 1))
    chains: List[List[Tuple[int, ...]]] = [
        [I for I in combinations(indices, j + 1) if negative_support.issubset(I)]
        for j in range(n + 1)
    ]
    dims = [len(c) for c in chains]

    def delta_matrix(j: int) -> List[List[int]]:
        rows = []
        for big in chains[j + 1]:
            row = []
            for small in chains[j]:
                coeff = 0
                if set(small).issubset(big):
                    missing = [x for x in big if x not in small]
                    if len(missing) == 1:
                        coeff = (-1) ** big.index(missing[0])
                row.append(coeff)
            rows.append(row)
        return rows

    ranks = [matrix_rank(sparse_rows(delta_matrix(j))) if dims[j] else 0 for j in range(n)]
    out = []
    for j in range(n + 1):
        dim_ker = dims[j] - (ranks[j] if j < n else 0)
        dim_im = ranks[j - 1] if j > 0 else 0
        out.append(dim_ker - dim_im)
    return tuple(out)


def weight_supports(n: int, d: int) -> Counter:
    """Negative support -> number of weights of the degree-d twist on P^n that have it.

    The weights are the w in the box [lo, hi]^(n+1) with sum d, where the
    box holds every weight with nonzero cohomology.  The first n
    coordinates are enumerated and the last is d minus their sum, kept
    when it lies in the box.
    """
    lo = min(d, -1) - n - 1
    hi = max(d, 0) + 1
    supports: Counter = Counter()
    for head in product(range(lo, hi + 1), repeat=n):
        last = d - sum(head)
        if lo <= last <= hi:
            supports[frozenset(i for i, x in enumerate(head + (last,)) if x < 0)] += 1
    return supports


def twist_dims(n: int, d: int) -> List[int]:
    """Cohomology dimensions of the degree-d twist on P^n by weight counting."""
    dims = [0] * (n + 1)
    for support, count in weight_supports(n, d).items():
        for j, r in enumerate(weight_cohomology(n, support)):
            dims[j] += count * r
    return dims


def cohomology_dim(space: str, twists: Sequence[int]) -> List[int]:
    """Per-degree cohomology dimensions of a direct sum of twists."""
    if space not in SPACES:
        raise UnsupportedSheaf(f"unsupported space {space!r}; known: {sorted(SPACES)}")
    n = SPACES[space]
    dims = [0] * (n + 1)
    for d in twists:
        for j, v in enumerate(twist_dims(n, d)):
            dims[j] += v
    return dims
