"""Dense exact linear algebra over finite fields.

Matrices store raw element codes (see galois) in row-major nested lists.
Everything here is deterministic: pivots are chosen leftmost column
first (in the order given to _eliminate), topmost row first, and
particular solutions zero all free variables.  All operations are pure;
matrices are never mutated after construction.  Elimination rewrites
whole rows at a time through the field's flat lookup tables (q <= 256).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch
from .galois import MAX_TABLE_ORDER, FieldSpec, require_table_order


class MatrixF:
    """r x c matrix over a FieldSpec, cells stored as element codes (each read by FieldSpec.code_of)."""

    __slots__ = ("spec", "rows", "cols", "data")

    def __init__(self, spec: FieldSpec, data: Sequence[Sequence]):
        rows = [list(map(spec.code_of, raw)) for raw in data]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise DimensionMismatch("ragged rows")
        self.spec, self.rows, self.cols, self.data = spec, len(rows), width, rows

    @classmethod
    def _of_codes(cls, spec: FieldSpec, data: list[list[int]], cols: int) -> "MatrixF":
        """The matrix of `cols`-wide rows of element codes that field
        arithmetic or a checked matrix produced, not checked again."""
        out = cls.__new__(cls)
        out.spec, out.rows, out.cols, out.data = spec, len(data), cols, data
        return out

    def matvec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        f = self.spec
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, v):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def to_bytes(self) -> bytes:
        """Row-major cell codes; valid only for field orders <= 256."""
        require_table_order(self.spec.q)
        out = bytearray()
        for row in self.data:
            out.extend(row)
        return bytes(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixF)
            and other.spec == self.spec
            and other.data == self.data
        )

    def __repr__(self) -> str:
        return f"MatrixF({self.rows}x{self.cols} over GF({self.spec.p}^{self.spec.k}))"


class RrefResult(NamedTuple):
    matrix: MatrixF
    pivots: tuple[int, ...]
    rank: int


def _row_ops(spec: FieldSpec):
    """``scale(c, row) = c*row`` and ``axpy(c, dst, src) = dst - c*src`` on
    element-code rows, each returning a new list."""
    q = spec.q
    if q > MAX_TABLE_ORDER:
        mul, sub = spec.mul, spec.sub
        return (
            lambda c, row: [mul(c, v) for v in row],
            lambda c, dst, src: [sub(d, mul(c, s)) for d, s in zip(dst, src)],
        )
    tables = spec.tables()
    mul, sub = tables.mul, tables.sub
    char2 = spec.p == 2

    def scale(c, row):
        mrow = mul[c * q : c * q + q]
        return [mrow[v] for v in row]

    def axpy(c, dst, src):
        if c == 1 and char2:  # dst - src is dst XOR src
            return [d ^ s for d, s in zip(dst, src)]
        mrow = mul[c * q : c * q + q]
        return [sub[d * q + mrow[s]] for d, s in zip(dst, src)]

    return scale, axpy


def _eliminate(spec: FieldSpec, rows: list[list[int]], cols: Iterable[int]) -> list[int]:
    """In-place reduced row echelon form of `rows` over the columns `cols`,
    taken in the order given until every row holds a pivot.

    Other columns (augmented right-hand sides, columns left out) take the
    same row operations but never hold a pivot.  Rows are replaced, never
    edited, so `rows` may share its row lists with other matrices.
    Returns the pivot column list.
    """
    scale, axpy = _row_ops(spec)
    nrows = len(rows)
    pivots: list[int] = []
    for col in cols:
        piv_row = len(pivots)
        if piv_row == nrows:
            break
        for hit in range(piv_row, nrows):
            if rows[hit][col]:
                break
        else:
            continue
        rows[piv_row], rows[hit] = rows[hit], rows[piv_row]
        lead = rows[piv_row][col]
        if lead != 1:
            rows[piv_row] = scale(spec.inv(lead), rows[piv_row])
        src = rows[piv_row]
        for i in range(nrows):
            factor = rows[i][col]
            if factor and i != piv_row:
                rows[i] = axpy(factor, rows[i], src)
        pivots.append(col)
    return pivots


def rref(A: MatrixF) -> RrefResult:
    """Reduced row echelon form with pivot columns and rank."""
    work = [row[:] for row in A.data]
    pivots = _eliminate(A.spec, work, range(A.cols))
    return RrefResult(MatrixF._of_codes(A.spec, work, A.cols), tuple(pivots), len(pivots))


def rank(A: MatrixF) -> int:
    return rref(A).rank


def solve_many(A: MatrixF, targets: Sequence[Sequence[int]]) -> list[list[int] | None]:
    """Particular solutions of A x = b for several right-hand sides b.

    One elimination serves all targets, augmented as columns (the targets
    transposed once).  Free variables are set to zero; inconsistent
    targets, those nonzero in a row below the rank, yield None.
    """
    for b in targets:
        if len(b) != A.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    cols = A.cols
    work = [row + list(b) for row, b in zip(A.data, zip(*targets) if targets else [()] * A.rows)]
    pivots = _eliminate(A.spec, work, range(cols))
    nrank = len(pivots)
    inconsistent = {idx for row in work[nrank:] for idx, v in enumerate(row[cols:]) if v}
    solved = zip(*(row[cols:] for row in work[:nrank])) if nrank else [()] * len(targets)
    if nrank < cols:  # the free variables are zero
        solved = ([dict(zip(pivots, column)).get(c, 0) for c in range(cols)] for column in solved)
    return [None if idx in inconsistent else list(x) for idx, x in enumerate(solved)]


def solve_particular(A: MatrixF, b: Sequence[int]) -> list[int] | None:
    """One particular solution of A x = b, or None if inconsistent."""
    return solve_many(A, [list(b)])[0]


def kernel_basis(A: MatrixF) -> list[list[int]]:
    """Basis of the right kernel, one vector per free column in increasing order."""
    reduced, pivots, nrank = rref(A)
    f = A.spec
    pivot_set = set(pivots)
    basis = []
    for free in range(A.cols):
        if free in pivot_set:
            continue
        v = [0] * A.cols
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = f.neg(reduced.data[i][free])
        basis.append(v)
    return basis
