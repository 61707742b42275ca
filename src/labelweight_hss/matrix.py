"""Dense exact linear algebra over finite fields.

Matrices store raw element codes (see galois) in row-major nested lists.
Everything here is deterministic: pivots are chosen leftmost column
first (in the order given to _eliminate), topmost row first, and
particular solutions zero all free variables.  All operations are pure;
matrices are never mutated after construction.  Elimination rewrites
whole rows in the form of FieldSpec.codes at a time (see _row_ops).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch
from .galois import FieldSpec, digit_layout


class MatrixF:
    """r x c matrix over a FieldSpec; each cell is an element code, read by FieldSpec.code_of."""

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
        """Row-major cell codes, in the form of FieldSpec.codes."""
        return self.spec.concat(map(self.spec.codes, self.data))

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixF) and other.spec == self.spec and other.data == self.data

    def __repr__(self) -> str:
        return f"MatrixF({self.rows}x{self.cols} over GF({self.spec.p}^{self.spec.k}))"


class RrefResult(NamedTuple):
    matrix: MatrixF
    pivots: tuple[int, ...]
    rank: int


@functools.cache
def _row_ops(spec: FieldSpec) -> tuple[Callable, ...]:
    """(scale, axpy, derive) on rows in the form of FieldSpec.codes: c*row,
    dst - c*src, and derive(row, coeffs, items), the row less coeffs[c]*src
    for each (c, src) of `items`.  A product is one translate through a
    multiplication row and derive adds on one int: the bytes when p = 2
    (by XOR), for odd p the digits of galois.digit_layout, p leaving each
    field whose guard bit shows it reached p; layouts wider than a byte go
    element by element."""
    q, p = spec.q, spec.p
    tables, (width, spread) = spec.tables(), digit_layout(q)
    times = [tables.mul[c * q : c * q + q].ljust(256, b"\0") for c in range(q)]  # translate tables v -> c*v
    scale = lambda c, row: row.translate(times[c])  # noqa: E731
    if width * spec.k > 8:  # the digit fields of an element take more than a byte
        sub = tables.sub
        axpy = lambda c, dst, src: bytes([sub[d * q + s] for d, s in zip(dst, src.translate(times[c]))])  # noqa: E731
        return scale, axpy, functools.partial(_by_element, axpy)
    if p == 2:
        def derive(row, coeffs, items):
            z = int.from_bytes(row, "big")
            for c, src in items:
                if a := coeffs[c]:
                    z ^= int.from_bytes(src.translate(times[a]), "big")
            return z.to_bytes(len(row), "big")

    else:
        into, back = bytes(spread).ljust(256, b"\0"), bytes(spread.index(b) if b in spread else 0 for b in range(256))
        minus = [times[m].translate(into) for m in tables.neg]  # translate tables v -> -c*v, packed
        shift, lows = width - 1, bytes([sum(1 << i * width for i in range(spec.k))])  # the low bit of each field

        @functools.cache
        def masks(n: int) -> tuple[int, int]:  # the bias 2^shift - p and the guard bit of every field, n bytes
            ones = int.from_bytes(lows * n, "big")
            return ones * ((1 << shift) - p), ones << shift

        def derive(row, coeffs, items):
            z, (bias, guards) = int.from_bytes(row.translate(into), "big"), masks(len(row))
            for c, src in items:
                if a := coeffs[c]:
                    u = z + int.from_bytes(src.translate(minus[a]), "big")
                    z = u - ((u + bias & guards) >> shift) * p
            return z.to_bytes(len(row), "big").translate(back)

    return scale, lambda c, dst, src: derive(dst, (c,), ((0, src),)), derive


def _by_element(axpy: Callable, row: Sequence[int], coeffs: Sequence[int], items) -> Sequence[int]:
    """_row_ops' derive for rows that add element by element."""
    for c, src in items:
        row = axpy(coeffs[c], row, src)
    return row


def _eliminate(spec: FieldSpec, rows: list[Sequence[int]], cols: Iterable[int]) -> list[int]:
    """In-place reduced row echelon form of `rows` (each in the form of
    FieldSpec.codes) over the columns `cols`, taken in the order given
    until every row holds a pivot.

    Other columns (augmented right-hand sides, columns left out) take the
    same row operations but never hold a pivot.  Returns the pivot column list.
    """
    scale, axpy = _row_ops(spec)[:2]
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
    work = list(map(A.spec.codes, A.data))
    pivots = _eliminate(A.spec, work, range(A.cols))
    return RrefResult(MatrixF._of_codes(A.spec, list(map(list, work)), A.cols), tuple(pivots), len(pivots))


def rank(A: MatrixF) -> int:
    return len(_eliminate(A.spec, list(map(A.spec.codes, A.data)), range(A.cols)))


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
    work = [A.spec.codes(row + list(b)) for row, b in zip(A.data, zip(*targets) if targets else [()] * A.rows)]
    pivots = _eliminate(A.spec, work, range(cols))
    nrank = len(pivots)
    inconsistent = {idx for row in work[nrank:] for idx, v in enumerate(row[cols:]) if v}
    solutions: list[list[int] | None] = []
    for idx, column in enumerate(zip(*(row[cols:] for row in work[:nrank])) if nrank else [()] * len(targets)):
        x = [0] * cols  # the free variables are zero
        for c, v in zip(pivots, column):
            x[c] = v
        solutions.append(None if idx in inconsistent else x)
    return solutions


def solve_particular(A: MatrixF, b: Sequence[int]) -> list[int] | None:
    """One particular solution of A x = b, or None if inconsistent."""
    return solve_many(A, [list(b)])[0]


def kernel_basis(A: MatrixF) -> list[list[int]]:
    """Basis of the right kernel, one vector per free column in increasing order."""
    reduced, pivots, _ = rref(A)
    row, neg, cols = dict(zip(pivots, reduced.data)), A.spec.neg, range(A.cols)  # row[c]: the row of pivot c
    return [[neg(row[c][free]) if c in row else int(c == free) for c in cols] for free in cols if free not in row]
