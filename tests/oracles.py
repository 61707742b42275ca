"""Reference implementations kept as test oracles for the table-driven code.

These are the per-element versions that the lookup-table hot loops in
``galois``, ``matrix`` and ``hss`` replaced: base-p digit-loop addition and
negation, Gaussian elimination through one field call per cell, Eval
synthesis scattered monomial by monomial, and server evaluation through
``FieldSpec`` method calls.  The optimised code must agree with them
exactly, on values and on the errors raised.
"""

from __future__ import annotations

import itertools

from labelweight_hss.budget import LABELWEIGHT_BUDGET, MONOMIAL_BUDGET, effective_budget
from labelweight_hss.codes import LabeledCode, labelweight
from labelweight_hss.errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    InsufficientLabelweight,
    MissingShare,
    ParameterOutOfRange,
)
from labelweight_hss.galois import FieldSpec
from labelweight_hss.hss import HssParams, HssScheme, MonomialId, default_monomial, subsets_of_size
from labelweight_hss.matrix import MatrixF, RrefResult, column_indices

# -- field: base-p digit loops ------------------------------------------------


def add(spec: FieldSpec, a: int, b: int) -> int:
    if spec.p == 2:
        return a ^ b
    if spec.k == 1:
        return (a + b) % spec.p
    p = spec.p
    out, mult = 0, 1
    for _ in range(spec.k):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def neg(spec: FieldSpec, a: int) -> int:
    if spec.p == 2:
        return a
    if spec.k == 1:
        return (-a) % spec.p
    p = spec.p
    out, mult = 0, 1
    for _ in range(spec.k):
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def sub(spec: FieldSpec, a: int, b: int) -> int:
    return add(spec, a, neg(spec, b))


# -- matrix: one field call per cell ---------------------------------------------


def eliminate(spec: FieldSpec, a: list[list[int]], aug: list[list[int]] | None) -> list[int]:
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    piv_row = 0
    for col in range(ncols):
        if piv_row == nrows:
            break
        hit = None
        for i in range(piv_row, nrows):
            if a[i][col]:
                hit = i
                break
        if hit is None:
            continue
        if hit != piv_row:
            a[piv_row], a[hit] = a[hit], a[piv_row]
            if aug is not None:
                aug[piv_row], aug[hit] = aug[hit], aug[piv_row]
        lead = a[piv_row][col]
        if lead != 1:
            scale = spec.inv(lead)
            a[piv_row] = [spec.mul(scale, v) for v in a[piv_row]]
            if aug is not None:
                aug[piv_row] = [spec.mul(scale, v) for v in aug[piv_row]]
        for i in range(nrows):
            if i != piv_row and a[i][col]:
                factor = a[i][col]
                src = a[piv_row]
                dst = a[i]
                for j in range(col, ncols):
                    if src[j]:
                        dst[j] = sub(spec, dst[j], spec.mul(factor, src[j]))
                if aug is not None:
                    srcb, dstb = aug[piv_row], aug[i]
                    for j in range(len(srcb)):
                        if srcb[j]:
                            dstb[j] = sub(spec, dstb[j], spec.mul(factor, srcb[j]))
        pivots.append(col)
        piv_row += 1
    return pivots


def rref(A: MatrixF) -> RrefResult:
    work = A.copy_data()
    pivots = eliminate(A.spec, work, None)
    return RrefResult(MatrixF(A.spec, work), tuple(pivots), len(pivots))


def solve_many(A: MatrixF, targets) -> list[list[int] | None]:
    for b in targets:
        if len(b) != A.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    work = A.copy_data()
    aug = [[int(b[i]) for b in targets] for i in range(A.rows)]
    pivots = eliminate(A.spec, work, aug)
    nrank = len(pivots)
    out: list[list[int] | None] = []
    for idx in range(len(targets)):
        if any(aug[i][idx] for i in range(nrank, A.rows)):
            out.append(None)
            continue
        x = [0] * A.cols
        for i, col in enumerate(pivots):
            x[col] = aug[i][idx]
        out.append(x)
    return out


def kernel_basis(A: MatrixF) -> list[list[int]]:
    reduced, pivots, _ = rref(A)
    pivot_set = set(pivots)
    basis = []
    for free in range(A.cols):
        if free in pivot_set:
            continue
        v = [0] * A.cols
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = neg(A.spec, reduced.data[i][free])
        basis.append(v)
    return basis


# -- hss: per-monomial synthesis and per-call field methods -------------------------


def enumerate_monomials(params: HssParams):
    subsets = subsets_of_size(params.s, params.t)
    total = params.ell * len(subsets) ** params.d
    if total > effective_budget(MONOMIAL_BUDGET):
        raise EnumerationBudgetExceeded(f"{total} monomials exceed budget")
    monomials = [
        MonomialId(i, combo)
        for i in range(1, params.ell + 1)
        for combo in itertools.product(subsets, repeat=params.d)
    ]
    per_server = {j: [] for j in range(1, params.s + 1)}
    for mono in monomials:
        union = mono.union()
        for j in range(1, params.s + 1):
            if j not in union:
                per_server[j].append(mono)
    return monomials, per_server


def synthesize_eval(code: LabeledCode, params: HssParams) -> HssScheme:
    need = params.d * params.t + 1
    limit = effective_budget(LABELWEIGHT_BUDGET)
    verified = False
    if code.spec.q**code.dim <= limit:
        lw = labelweight(code, budget=limit)
        if lw < need:
            raise InsufficientLabelweight(f"labelweight {lw} < {need}")
        verified = True

    monomials, _ = enumerate_monomials(params)
    by_union: dict[frozenset, list[MonomialId]] = {}
    for mono in monomials:
        by_union.setdefault(mono.union(), []).append(mono)

    spec = code.spec
    G = code.generator
    labels = code.labeling.map
    all_servers = set(range(1, params.s + 1))
    units = [[1 if i == target else 0 for i in range(params.ell)] for target in range(params.ell)]
    table: dict[int, dict[MonomialId, int]] = {r: {} for r in range(code.n)}

    for union, members in sorted(by_union.items(), key=lambda kv: sorted(kv[0])):
        lam = all_servers - union
        cols = column_indices(labels, lam)
        sub_matrix = MatrixF(spec, [[G.data[i][j] for j in cols] for i in range(params.ell)])
        solutions = solve_many(sub_matrix, units)
        if any(sol is None for sol in solutions):
            raise InsufficientLabelweight(
                f"columns labeled {sorted(lam)} have rank below {params.ell}; labelweight < {need}"
            )
        for mono in members:
            sol = solutions[mono.instance - 1]
            for pos, r in enumerate(cols):
                if sol[pos]:
                    table[r][mono] = sol[pos]

    return HssScheme(params, code, table, labelweight_verified=verified)


def scheme_for_code(code: LabeledCode, t: int, d: int, m: int | None = None) -> HssScheme:
    params = HssParams(code.s, t, d, code.dim, m if m is not None else d, code.spec)
    return synthesize_eval(code, params)


def eval_server(scheme: HssScheme, j: int, views: dict, var_indices: tuple[int, ...] | None = None) -> list[int]:
    params = scheme.params
    spec = params.spec
    chosen = default_monomial(params) if var_indices is None else tuple(var_indices)
    if len(chosen) != params.d or any(not 1 <= v <= params.m for v in chosen):
        raise ParameterOutOfRange(f"need d={params.d} variable indices in 1..{params.m}")
    out = []
    for r in scheme.code.labeling.coords(j):
        acc = 0
        for mono, coeff in scheme.eval_table[r].items():
            prod = coeff
            for slot, T in enumerate(mono.subsets):
                try:
                    y = views[(mono.instance, chosen[slot])][T]
                except KeyError as exc:
                    raise MissingShare(f"server {j} lacks share {T} of secret {(mono.instance, chosen[slot])}") from exc
                if y == 0:
                    prod = 0
                    break
                prod = spec.mul(prod, y)
            acc = add(spec, acc, prod)
        out.append(acc)
    return out
