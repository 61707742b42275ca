import random

import pytest

from labelweight_hss.errors import DimensionMismatch
from labelweight_hss.galois import FieldSpec
from labelweight_hss.matrix import (
    MatrixF,
    kernel_basis,
    rank,
    rref,
    solve_many,
    solve_particular,
)
from oracles import column_indices

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2)


def _identity(spec, n):
    return MatrixF(spec, [[int(i == j) for j in range(n)] for i in range(n)])


def test_rref_identity():
    I3 = _identity(GF2, 3)
    r = rref(I3)
    assert r.matrix == I3
    assert r.pivots == (0, 1, 2)
    assert r.rank == 3


def test_rref_zero():
    Z = MatrixF(GF2, [[0, 0, 0], [0, 0, 0]])
    r = rref(Z)
    assert r.matrix == Z
    assert r.pivots == ()
    assert r.rank == 0


def test_rref_dependent_rows():
    A = MatrixF(GF2, [[1, 1], [1, 1]])
    r = rref(A)
    assert r.matrix.data == [[1, 1], [0, 0]]
    assert r.rank == 1


def test_solve_identity():
    A = _identity(GF3, 4)
    b = [2, 0, 1, 2]
    assert solve_particular(A, b) == b


def test_solve_free_variable_zeroed():
    A = MatrixF(GF2, [[1, 1]])
    assert solve_particular(A, [1]) == [1, 0]


def test_solve_inconsistent():
    A = MatrixF(GF2, [[0]])
    assert solve_particular(A, [1]) is None


def test_solve_shape_check():
    A = MatrixF(GF2, [[1, 0]])
    with pytest.raises(DimensionMismatch):
        solve_particular(A, [1, 0])


def test_kernel_identity_empty():
    assert kernel_basis(_identity(GF4, 3)) == []


def test_kernel_parity():
    assert kernel_basis(MatrixF(GF2, [[1, 1]])) == [[1, 1]]


def test_column_indices():
    labels = [1, 2, 3, 4, 2]
    assert column_indices(labels, {2, 4}) == [1, 3, 4]
    assert column_indices(labels, range(1, 5)) == [0, 1, 2, 3, 4]
    assert column_indices(labels, set()) == []


def test_matvec_linearity():
    rng = random.Random(1)
    A = MatrixF(GF3, [[rng.randrange(3) for _ in range(4)] for _ in range(3)])
    u = [rng.randrange(3) for _ in range(4)]
    v = [rng.randrange(3) for _ in range(4)]
    uv = [GF3.add(a, b) for a, b in zip(u, v)]
    assert A.matvec(uv) == [GF3.add(a, b) for a, b in zip(A.matvec(u), A.matvec(v))]


@pytest.mark.parametrize("spec", [GF2, GF3, GF4])
def test_seeded_random_properties(spec):
    """rref idempotence, solve correctness, kernel annihilation, rank-nullity."""
    rng = random.Random(1234 + spec.q)
    for _ in range(350):
        nr = rng.randrange(1, 9)
        nc = rng.randrange(1, 13)
        A = MatrixF(spec, [[rng.randrange(spec.q) for _ in range(nc)] for _ in range(nr)])
        red, pivots, nrank = rref(A)
        again = rref(red)
        assert again.matrix == red and again.pivots == pivots
        assert list(pivots) == sorted(pivots)
        assert nrank == len(pivots)

        b = [rng.randrange(spec.q) for _ in range(nr)]
        x = solve_particular(A, b)
        if x is not None:
            assert A.matvec(x) == b

        basis = kernel_basis(A)
        assert len(basis) == nc - nrank
        for v in basis:
            assert A.matvec(v) == [0] * nr
        # independence: stacking the basis keeps full row rank
        if basis:
            assert rank(MatrixF(spec, basis)) == len(basis)


def test_solve_many_matches_single():
    rng = random.Random(99)
    A = MatrixF(GF4, [[rng.randrange(4) for _ in range(6)] for _ in range(4)])
    targets = [[rng.randrange(4) for _ in range(4)] for _ in range(5)]
    multi = solve_many(A, targets)
    for b, x in zip(targets, multi):
        assert x == solve_particular(A, b)
