"""Matrices of Laurent polynomials and exact linear solving over Q.

Exact solving and rank share one routine: a sparse reduced row echelon
form with exact rational entries, ``int`` when integral (the rule of
``laurent``).  The coboundary systems are about 1% dense, so a system's
rows are column -> entry maps from assembly to the kernel count, and no
dense rows x columns list is built on the way.
Inconsistency is a value, not an error: callers distinguish "no solution
in this window" from genuine failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import NonInvertibleSubstitution
from .laurent import LaurentPoly, Rational, exact

class PolyMatrix:
    """Dense matrix with LaurentPoly entries sharing one variable list."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def zero(cls, rows: int, cols: int, vars: Sequence[str]) -> "PolyMatrix":
        z = LaurentPoly.zero(vars)
        return cls([[z for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, vars: Sequence[str]) -> "PolyMatrix":
        one = LaurentPoly.const(vars, 1)
        z = LaurentPoly.zero(vars)
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalar_rows(cls, vars: Sequence[str], rows: Sequence[Sequence[object]]) -> "PolyMatrix":
        return cls([[LaurentPoly.const(vars, x) for x in row] for row in rows])

    def vars(self) -> Tuple[str, ...]:
        if self.rows == 0 or self.cols == 0:
            raise ValueError("empty matrix has no variable list")
        return self.entries[0][0].vars

    def __getitem__(self, rc: Tuple[int, int]) -> LaurentPoly:
        r, c = rc
        return self.entries[r][c]

    def _entrywise(self, other: "PolyMatrix", op) -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [[op(a, b) for a, b in zip(left, right)]
             for left, right in zip(self.entries, other.entries)]
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "PolyMatrix":
        return self.map(lambda p: -p)

    def map(self, fn: Callable[[LaurentPoly], LaurentPoly]) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries])

    def scale(self, s: Rational) -> "PolyMatrix":
        return self.map(lambda p: p * s)

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product; a product with a zero factor is never formed.

        Sums run over k in ascending order, as the plain triple loop does,
        so every entry has the same terms in the same order; an entry with
        no nonzero product is the zero polynomial.  ``ChartRing.matmul`` is
        the same loop with truncated entry products.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = []
        for left in self.entries:
            nonzero = [(k, a) for k, a in enumerate(left) if a.terms]
            row = []
            for j in range(other.cols):
                acc = None
                for k, a in nonzero:
                    b = other.entries[k][j]
                    if b.terms:
                        term = a * b
                        acc = term if acc is None else acc + term
                row.append(LaurentPoly.zero(left[0].vars) if acc is None else acc)
            out.append(row)
        return PolyMatrix(out)

    def trace(self) -> LaurentPoly:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = LaurentPoly.zero(self.vars())
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def commutator(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.matmul(other) - other.matmul(self)

    def det(self) -> LaurentPoly:
        """Determinant by cofactor expansion; fine for the small ranks used here."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            raise ValueError("empty matrix")
        if n == 1:
            return self.entries[0][0]
        acc = LaurentPoly.zero(self.vars())
        for j in range(n):
            minor = PolyMatrix(
                [
                    [self.entries[i][jj] for jj in range(n) if jj != j]
                    for i in range(1, n)
                ]
            )
            term = self.entries[0][j] * minor.det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def inverse_unit_det(self) -> "PolyMatrix":
        """Inverse via adjugate; requires the determinant to be a unit monomial."""
        d = self.det()
        if not d.is_monomial():
            raise NonInvertibleSubstitution(
                f"matrix determinant {d} is not a unit monomial"
            )
        dinv = d.inverse_monomial()
        n = self.rows
        if n == 1:
            return PolyMatrix([[dinv]])
        adj = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = PolyMatrix(
                    [
                        [self.entries[ii][jj] for jj in range(n) if jj != i]
                        for ii in range(n)
                        if ii != j
                    ]
                )
                cof = minor.det()
                if (i + j) % 2 == 1:
                    cof = -cof
                row.append(cof * dinv)
            adj.append(row)
        return PolyMatrix(adj)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


# -- exact linear systems over Q ------------------------------------------


Row = Dict[int, Rational]


@dataclass
class ExactLinearSystem:
    """A Q-linear system with an explicit, ordered unknown basis.

    ``basis`` carries opaque labels (one per column) so callers can map a
    solution vector back to cochain coefficients deterministically.  Each
    constraint is a ``{column: entry}`` map of its nonzero coefficients,
    with the matching entry of ``rhs``.
    """

    basis: List[object]
    rows: List[Row]
    rhs: List[Rational]

    def __post_init__(self):
        width = len(self.basis)
        for row in self.rows:
            if any(not 0 <= c < width for c in row):
                raise ValueError("matrix row has a column outside the unknown basis")
        if len(self.rhs) != len(self.rows):
            raise ValueError("rhs length does not match the number of constraints")

    @property
    def matrix(self) -> List[List[Rational]]:
        """Dense rows x columns copy of the coefficients, built on each access.

        Only tracing and tests read it; the solver works on ``rows``.
        """
        dense = []
        for row in self.rows:
            line = [0] * len(self.basis)
            for c, x in row.items():
                line[c] = x
            dense.append(line)
        return dense


@dataclass
class Solution:
    """What ``solve_exact`` reads off the reduced echelon form of [A | b].

    ``free`` lists the free columns of A in ascending order; their count is
    the nullity.  The kernel basis, ``nullspace``, is built from the kept
    echelon form on its first read, since most callers need only its size.
    """

    consistent: bool
    particular: Optional[List[Rational]]
    free: List[int]
    reduced: Dict[int, Row] = field(repr=False, compare=False)

    @cached_property
    def nullspace(self) -> List[List[Rational]]:
        """One vector per free column, in ascending order, with that unknown 1,
        the other free unknowns 0 and minus the column's entries at their pivots."""
        n = len(self.free) + len(self.reduced)
        kernel = {f: [0] * n for f in self.free}
        for f, vec in kernel.items():
            vec[f] = 1
        for p, row in self.reduced.items():
            for c, x in row.items():
                if c in kernel:
                    kernel[c][p] = -x
        return list(kernel.values())


def _rref(
    rows: Iterable[Mapping[int, Rational]], reduced: Optional[Dict[int, Row]] = None
) -> Dict[int, Row]:
    """Sparse reduced row echelon form over Q.

    Returns ``{pivot column: row}``, each row a ``{column: nonzero entry}``
    map that is 1 at its pivot and 0 at every other pivot.  Rows are folded
    in one at a time: a new row is reduced by the pivots found so far, its
    leftmost surviving entry becomes a pivot, and that column is cleared
    from the earlier rows.  The reduced echelon form of a matrix is unique,
    so the result does not depend on the order of the rows.  Passing an
    earlier result as ``reduced`` folds more rows into it, in place: the
    elimination goes on where it stopped.

    A column index ``holders`` maps each non-pivot column to the pivots
    whose rows may be nonzero there, so a new pivot is cleared only from
    those rows and not looked up in every earlier one.  The index is built
    from ``reduced`` on entry, and a stale pivot, whose entry has since
    cancelled, is not pruned: it costs one lookup.
    """
    if reduced is None:
        reduced = {}
    holders: Dict[int, Set[int]] = {}
    for p, prow in reduced.items():
        for c in prow:
            if c != p:
                holders.setdefault(c, set()).add(p)
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        # a reduced row is 0 at the other pivots, so each pivot is cleared once
        for p in [c for c in row if c in reduced]:
            _add_multiple(row, -row[p], reduced[p])
        if not row:
            continue
        pivot = min(row)
        head = row[pivot]
        if head != 1:
            # -1 is its own inverse, so an integer row stays integer
            inv = -1 if head == -1 else exact(1 / Fraction(head))
            row = {c: x * inv for c, x in row.items()}
        cols = [c for c in row if c != pivot]
        for p in holders.pop(pivot, ()):
            other = reduced[p]
            if pivot in other:
                _add_multiple(other, -other[pivot], row)
                for c in cols:
                    holders.setdefault(c, set()).add(p)
        for c in cols:
            holders.setdefault(c, set()).add(pivot)
        reduced[pivot] = row
    return reduced


def _add_multiple(row: Row, factor: Rational, other: Row) -> None:
    """row += factor * other, dropping entries that cancel."""
    for c, x in other.items():
        v = row.get(c, 0) + factor * x
        if v:
            row[c] = v
        else:
            del row[c]


def solve_exact(sys: ExactLinearSystem) -> Solution:
    """Solve A x = b exactly over Q.

    Everything is read off the reduced echelon form of [A | b], whose
    right-hand side is column n; rows are folded shortest first, which
    leaves the (unique) form unchanged.  The system is inconsistent
    exactly when that column is a pivot.  The particular solution sets
    every free unknown to 0, and the free columns are those of A that are
    not pivots; the kernel basis is built from them on demand (see
    ``Solution``).  All of it is fixed by the reduced echelon form, so it
    depends only on A, b and the order of the basis.
    """
    n = len(sys.basis)
    augmented = ({**row, n: b} if b else row for row, b in zip(sys.rows, sys.rhs))
    reduced = _rref(sorted(augmented, key=len))
    consistent = reduced.pop(n, None) is None
    particular: Optional[List[Rational]] = None
    if consistent:
        particular = [0] * n
        for p, row in reduced.items():
            particular[p] = row.get(n, 0)
    free = [f for f in range(n) if f not in reduced]
    return Solution(consistent, particular, free, reduced)


def matrix_rank(rows: Iterable[Mapping[int, Rational]]) -> int:
    """Exact rank of a rational matrix given by its ``{column: entry}`` rows."""
    return len(_rref(rows))
