"""Reference implementations kept as test oracles for the table-driven code.

These are the per-element versions that the lookup-table hot loops in
``galois``, ``matrix`` and ``hss`` replaced: base-p digit-loop addition and
negation (above 256 replaced by arithmetic on ``FieldSpec.coeffs`` and
``FieldSpec.encode``), polynomial sums and differences by a loop each
(``poly_add``, ``poly_sub``, which one termwise helper replaced), Gaussian
elimination through one field call per cell, Eval
synthesis scattered monomial by monomial, and server evaluation through
``FieldSpec`` method calls.  Irreducibility keeps its root check (degree
<= 3) and trial division by every monic polynomial up to half the degree,
which Ben-Or's test replaced, and the Hermitian basis its one-monomial-
at-a-time reduction against normalised rows, which one ``rref``
replaced.  The wire path keeps CNF sharing with one fragment scan per
server and secret, the frame codec packing one element per
``int.to_bytes`` call, and the simulation that orders each server's
payload by an explicit (instance, variable, subset) list; the sharing
keeps its own check of each secret (``secret_code``), which reading
secrets by ``FieldSpec.code_of`` replaced.  The optimised code must
agree with them exactly, on values and on the errors raised (with
``secret_code``, on their types: the wording is now ``code_of``'s).
The enumeration kernel keeps its depth-first walk over unpacked
coordinate lists, one table addition per coordinate, which the bit-packed
kernel replaced, and that packed meet-in-the-middle walk, one
comprehension over the low half-span per high word
(``packed_min_labelweight``), which the label-equality planes of
``kernels.min_labelweight`` replaced; server evaluation keeps the dense
byte tensors contracted through digit-lifted product tables, which the
bit-plane popcount contraction of ``hss.eval_server`` replaced, and that
contraction's first form: one popcount per plane pair, with share planes
from ``share_products`` and a second translate per packed table
(``contract_planes``), which the fold classes and composed tables of
``hss._PlaneTables`` replaced.  The field tables keep their
entry-by-entry build, which the row-by-row build replaced, from the
digit loops and one schoolbook product per entry
(``mul``, the product ``FieldSpec._mul_raw`` computed by ``Polynomial``
arithmetic replaced above 256), and the
solution blocks their one ``solve_many`` elimination per subset union
(``synthesize_blocks``), which the systematic-form synthesis replaced.
That synthesis stored one block per union (``SolutionBlocks``, laid out
by ``block_layout`` and solved by ``solve_blocks``), which the key-major
``hss.KeySolutions`` replaced; ``project_blocks`` reads the blocks back
from the keys.  The key store first held one full row per key at each
kept pivot as well as at Q (``solve_keys``), which keeping Z_Q alone and
deriving the kept-pivot rows in ``KeySolutions.column`` replaced;
``row_scheme`` expands the keys back to that form through the reader.
The pivot search keeps its greedy scan for Q once per union, the unions
walked sorted by their member lists (``key_search``), which one scan per
lost-row set and the string key ``hss.union_order`` replaced, and that
per-L scan (``lost_set_key_search``) followed by one ``solve_many`` of
R[L, Q] per key (``synthesize_keys``), which row-reducing [R[L] | E[L]]
in each scan, with Z_Q read off its E part, replaced.
The v1 scheme reader keeps its fold of every eval row into its key
(``fold_scheme_text``), which reading by synthesis replaced.
The literal block-system check (``verify_block_system``) materialises
the whole coefficient system from per-server monomial lists, which the
package does not keep: ``hss.enumerate_monomials`` returns each subset
combo's union instead.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Iterable, NamedTuple, Sequence

from labelweight_hss import hss, matrix, protocol
from labelweight_hss.budget import LABELWEIGHT_BUDGET, MONOMIAL_BUDGET, effective_budget
from labelweight_hss.codes import LabeledCode, Labeling, code_from_text, code_to_text, hermitian_points, labelweight
from labelweight_hss.errors import (
    DecodeError,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    FieldMismatch,
    InsufficientLabelweight,
    MissingShare,
    ParameterOutOfRange,
)
from labelweight_hss.galois import (
    MAX_TABLE_ORDER,
    NEG_INFINITY,
    FieldElement,
    FieldSpec,
    FieldTables,
    Polynomial,
    require_table_order,
)
from labelweight_hss.hss import (
    HssParams,
    HssScheme,
    MonomialId,
    collect_output_shares,
    default_monomial,
    held_mask,
    reconstruct,
    subsets_of_size,
)
from labelweight_hss.matrix import MatrixF, RrefResult, _eliminate, _row_ops

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


def mul(spec: FieldSpec, a: int, b: int) -> int:
    """Schoolbook product of the base-p digit vectors, reduced modulo the
    modulus polynomial one top coefficient at a time."""
    p, k = spec.p, spec.k
    if k == 1:
        return (a * b) % p
    da, db = [a // p**i % p for i in range(k)], [b // p**i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, ca in enumerate(da):
        if ca:
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    mod = spec.modulus
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - c * mod[j]) % p
    return sum(c * p**i for i, c in enumerate(prod[:k]))


def field_tables(spec: FieldSpec) -> FieldTables:
    """The five tables entry by entry from the digit loops above: add and
    neg, and mul by one schoolbook product and reduction per pair."""
    require_table_order(spec.q)
    q = spec.q
    add_table = bytes(add(spec, a, b) for a in range(q) for b in range(q))
    neg_table = bytes(neg(spec, a) for a in range(q))
    sub_table = bytes(add_table[a * q + neg_table[b]] for a in range(q) for b in range(q))
    table = bytearray(q * q)
    for a in range(q):
        for b in range(a, q):
            table[a * q + b] = table[b * q + a] = mul(spec, a, b)
    mul_table = bytes(table)
    inv = bytes([0] + [mul_table.index(1, a * q, a * q + q) - a * q for a in range(1, q)])
    return FieldTables(add_table, sub_table, neg_table, mul_table, inv)


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """The longer coefficient list with the shorter one added in."""
    spec, x, y = a.spec, a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] = add(spec, out[i], c)
    return Polynomial(spec, out)


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    """Coefficient i of a less coefficient i of b, a missing one being 0."""
    spec, n = a.spec, max(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i in range(n):
        ca = a.coeffs[i] if i < len(a.coeffs) else 0
        cb = b.coeffs[i] if i < len(b.coeffs) else 0
        out[i] = sub(spec, ca, cb)
    return Polynomial(spec, out)


# -- field: irreducibility by roots and trial division ----------------------------


def _monic(spec: FieldSpec, code: int, degree: int) -> Polynomial:
    """The monic polynomial of the given degree whose lower coefficients
    are the base-q digits of `code`, constant term first."""
    coeffs = []
    for _ in range(degree):
        coeffs.append(code % spec.q)
        code //= spec.q
    return Polynomial(spec, coeffs + [1])


def is_irreducible(poly: Polynomial) -> bool:
    """Degree 2 and 3 reduce to a root check; degree >= 4 trial-divides by
    every monic polynomial of degree up to deg/2."""
    deg = poly.degree
    if deg is NEG_INFINITY or deg == 0:
        return False
    if deg == 1:
        return True
    f = poly.spec
    if deg <= 3:
        return all(poly(v).value != 0 for v in range(f.q))
    for d in range(1, int(deg) // 2 + 1):
        for code in range(f.q**d):
            if (poly % _monic(f, code, d)).is_zero():
                return False
    return True


def find_irreducible(spec: FieldSpec, degree: int, exclude=()) -> Polynomial:
    """The first monic irreducible of `degree` in coefficient-code order
    with no root in `exclude` (element codes)."""
    for code in range(spec.q**degree):
        candidate = _monic(spec, code, degree)
        if all(candidate(v).value for v in exclude) and is_irreducible(candidate):
            return candidate
    raise ValueError(f"no monic irreducible of degree {degree} over {spec.describe()} avoids the exclusion set")


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """The smallest monic irreducible of degree k over GF(p), by coefficient code."""
    return (0, 1) if k == 1 else find_irreducible(FieldSpec(p), k).coeffs


# -- codes: Hermitian rows by incremental elimination -------------------------------


def hermitian_build(q: int, k: int) -> LabeledCode:
    """Monomials x^a y^b in pole order, each kept when its evaluation row
    is independent of the rows kept so far (reduced against them one
    normalised pivot row at a time)."""
    ext, pts = hermitian_points(q)
    n = len(pts)
    if not 1 <= k <= n:
        raise ParameterOutOfRange(f"need 1 <= k <= {n}, got {k}")
    monomials = sorted((a * q + b * (q + 1), a, b) for b in range(q) for a in range(q * q + q + 2))
    rows: list[list[int]] = []
    reduced: dict[int, list[int]] = {}  # pivot column -> normalized reduced row
    for _, a, b in monomials:
        if len(rows) == k:
            break
        row = [ext.mul(ext.pow(x, a), ext.pow(y, b)) for x, y in pts]
        work = row[:]
        for col, base in sorted(reduced.items()):
            if work[col]:
                factor = work[col]
                work = [ext.sub(wv, ext.mul(factor, bv)) for wv, bv in zip(work, base)]
        pivot = next((j for j, v in enumerate(work) if v), None)
        if pivot is None:
            continue
        scale = ext.inv(work[pivot])
        reduced[pivot] = [ext.mul(scale, v) for v in work]
        rows.append(row)
    if len(rows) < k:
        raise ParameterOutOfRange(f"could not collect {k} independent evaluations")
    return LabeledCode(ext, MatrixF(ext, rows), Labeling.identity(n), {"family": "hermitian", "q": q, "k": k})


# -- kernels: depth-first walk over coordinate lists, then the packed walk ---------


def min_labelweight(
    rows: bytes,
    nrows: int,
    ncols: int,
    labels0: bytes,
    add: bytes,
    mul: bytes,
    q: int,
    s: int,
) -> int:
    """Minimum labelweight over the nonzero words of the row span.

    Walks all q^nrows messages in base-q counter order, adding one
    precomputed scaled generator row per level; zero words are skipped
    and a trivial span gives the sentinel s + 1.
    """
    if nrows < 1:
        raise ValueError("generator needs at least one row")
    scaled = [
        [
            [mul[c * q + rows[i * ncols + j]] for j in range(ncols)]
            for c in range(q)
        ]
        for i in range(nrows)
    ]
    best = s + 1
    use_mask = s <= 64
    label_bit = [1 << b for b in labels0] if use_mask else None

    def descend(level: int, acc: list[int]) -> None:
        nonlocal best
        last = level == nrows - 1
        for c in range(q):
            srow = scaled[level][c]
            nxt = acc if c == 0 else [add[a * q + b] for a, b in zip(acc, srow)]
            if last:
                if use_mask:
                    mask = 0
                    for j, v in enumerate(nxt):
                        if v:
                            mask |= label_bit[j]
                    if mask:
                        weight = bin(mask).count("1")
                        if weight < best:
                            best = weight
                else:
                    touched = {labels0[j] for j, v in enumerate(nxt) if v}
                    if touched and len(touched) < best:
                        best = len(touched)
            else:
                descend(level + 1, nxt)

    descend(0, [0] * ncols)
    return best


def packed_min_labelweight(
    rows: bytes,
    nrows: int,
    ncols: int,
    labels0: bytes,
    add: bytes,
    mul: bytes,
    q: int,
    s: int,
) -> int:
    """Minimum labelweight over the nonzero words of the row span.

    `rows` is the row-major generator (nrows x ncols element codes, an
    element's base-p digits being its polynomial coefficients), `labels0`
    maps each column to a zero-based label < s, and `mul` is the flat
    q*q multiplication table.  `add` is not read: addition runs on the
    packed digits.
    """
    if nrows < 1:
        raise ValueError("generator needs at least one row")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    digits = 1
    while p**digits < q:
        digits += 1
    dw = 1 if p == 2 else p.bit_length() + 1  # digit field width

    # column j goes to bit pos[j]: its label's slot, after the label's
    # earlier columns
    filled = [0] * s
    pos = []
    for label in labels0:
        pos.append(filled[label])
        filled[label] += digits * dw
    width = max(filled, default=0) + 1
    pos = [label * width + at for label, at in zip(labels0, pos)]
    guards = sum(1 << (label * width + width - 1) for label in range(s))
    below = guards - sum(1 << (label * width) for label in range(s))

    spread = []  # element code -> its digits, one per field
    for v in range(q):
        x = 0
        for i in range(digits):
            x |= (v % p) << (i * dw)
            v //= p
        spread.append(x)
    scaled = [
        [
            sum(spread[mul[c * q + rows[i * ncols + j]]] << pos[j] for j in range(ncols))
            for c in range(q)
        ]
        for i in range(nrows)
    ]

    if p == 2:

        def span(multiples: list[list[int]]) -> list[int]:
            words = [0]
            for row in multiples:
                words = [w ^ r for r in row for w in words]
            return words

    else:
        shift = dw - 1
        fields = [1 << (pos[j] + i * dw) for j in range(ncols) for i in range(digits)]
        field_guards = sum(fields) << shift
        bias = sum(fields) * ((1 << shift) - p)

        def span(multiples: list[list[int]]) -> list[int]:
            words = [0]
            for row in multiples:
                words = [
                    u - ((u + bias & field_guards) >> shift) * p
                    for r in row
                    for w in words
                    for u in (w + r,)
                ]
            return words

    half = (nrows + 1) // 2
    low = span(scaled[:half])
    best = s + 1
    for h in span(scaled[half:]):
        weight = min(filter(None, [((h ^ w) + below & guards).bit_count() for w in low]), default=best)
        if weight < best:
            best = weight
            if best == 1:
                break
    return best


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
    work = [row[:] for row in A.data]
    pivots = eliminate(A.spec, work, None)
    return RrefResult(MatrixF(A.spec, work), tuple(pivots), len(pivots))


def solve_many(A: MatrixF, targets) -> list[list[int] | None]:
    for b in targets:
        if len(b) != A.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    work = [row[:] for row in A.data]
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


class TableScheme(NamedTuple):
    """What the per-monomial synthesizer returns: the scheme's parameters,
    code and flag, and its Eval table, monomial by monomial."""

    params: HssParams
    code: LabeledCode
    eval_table: dict[int, dict[MonomialId, int]]
    labelweight_verified: bool


def synthesize_eval(code: LabeledCode, params: HssParams) -> TableScheme:
    need = params.d * params.t + 1
    limit = effective_budget(LABELWEIGHT_BUDGET)
    verified = False
    if code.spec.q**code.dim <= limit:
        lw = labelweight(code)
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

    return TableScheme(params, code, table, verified)


def scheme_for_code(code: LabeledCode, t: int, d: int, m: int | None = None) -> TableScheme:
    params = HssParams(code.s, t, d, code.dim, m if m is not None else d, code.spec)
    return synthesize_eval(code, params)


def verify_block_system(scheme: HssScheme) -> bool:
    """Materialize the full coefficient system and check it is satisfied.

    Rows are (instance, monomial) pairs, columns are (coordinate,
    monomial) pairs with the monomial locally computable at that
    coordinate's server; the row/column entry carries G[instance,
    coordinate] when the monomials agree.  The synthesized table, read as
    the flat coefficient vector, must map to the indicator of rows whose
    two instance indices coincide.
    """
    params = scheme.params
    spec = params.spec
    G = scheme.code.generator
    labels = scheme.code.labeling.map
    monomials, per_server = enumerate_monomials(params)
    columns = []  # (coordinate r, monomial, coefficient from the table)
    for r in range(scheme.n):
        owner = labels[r]
        for mono in per_server[owner]:
            columns.append((r, mono, scheme.eval_table[r].get(mono, 0)))
    for i in range(1, params.ell + 1):
        for mono in monomials:
            acc = 0
            for r, chi, coeff in columns:
                if chi == mono and coeff:
                    acc = spec.add(acc, spec.mul(G.data[i - 1][r], coeff))
            target = 1 if mono.instance == i else 0
            if acc != target:
                return False
    return True


def column_indices(labels: Sequence[int], keep: Iterable[int]) -> list[int]:
    """Coordinate indices whose label is in `keep`, in increasing order."""
    wanted = set(keep)
    return [j for j in range(len(labels)) if labels[j] in wanted]


class SolutionBlocks(NamedTuple):
    """The Eval coefficients of a scheme, one block per distinct subset
    union U, in solve order (unions sorted as sorted lists).

    Block u belongs to unions[u]: coords[u] are the coordinates of the
    servers outside it, and solutions[u] holds the ell solutions of
    G(Lambda) e = u_i over those coordinates that solve_many would give,
    coordinate-major (bytes when q <= 256, a tuple above): entry
    pos*ell + i - 1 is the coefficient of instance i at coordinate
    coords[u][pos].  combo_union[c] is the block of subset combo c, in
    itertools.product(subsets_of_size(s, t), repeat=d) order.
    """

    unions: list[frozenset[int]]
    coords: list[list[int]]
    solutions: list[Sequence[int]]
    combo_union: list[int]


def block_layout(code: LabeledCode, params: HssParams) -> SolutionBlocks:
    """Blocks without solutions yet: the distinct unions of the subset
    combos in solve order, the coordinates outside each, and combo_union."""
    subsets = subsets_of_size(params.s, params.t)
    combo_unions = [frozenset().union(*combo) for combo in itertools.product(subsets, repeat=params.d)]
    unions = sorted(set(combo_unions), key=sorted)
    all_servers = set(range(1, params.s + 1))
    coords = [column_indices(code.labeling.map, all_servers - union) for union in unions]
    block_of = {union: u for u, union in enumerate(unions)}
    return SolutionBlocks(unions, coords, [], list(map(block_of.__getitem__, combo_unions)))


def synthesize_blocks(code: LabeledCode, params: HssParams) -> SolutionBlocks:
    """The scheme's solution blocks by one solve_many elimination of G
    restricted to each union's coordinates, union by union in solve order;
    raises on the first union whose columns lack rank."""
    blocks = block_layout(code, params)
    need = params.d * params.t + 1
    units = [[1 if i == target else 0 for i in range(params.ell)] for target in range(params.ell)]
    pack = bytes if code.spec.q <= MAX_TABLE_ORDER else tuple
    for union, cols in zip(blocks.unions, blocks.coords):
        restricted = MatrixF(code.spec, [[row[j] for j in cols] for row in code.generator.data])
        solutions = matrix.solve_many(restricted, units)
        if any(sol is None for sol in solutions):
            lam = sorted(set(range(1, params.s + 1)) - union)
            raise InsufficientLabelweight(f"columns labeled {lam} have rank below {params.ell}; labelweight < {need}")
        blocks.solutions.append(pack(itertools.chain.from_iterable(zip(*solutions))))
    return blocks


def solve_blocks(code: LabeledCode, params: HssParams) -> SolutionBlocks:
    """The solution blocks by the systematic form, union by union: one
    elimination of [G | I] to [R | E], then for each union the rows L of
    R whose pivot lies outside its coordinates, the coordinates Q that
    replace those pivots, and one solve of R[L, Q] per distinct (L, Q)
    key, copied into the block of every union with that key."""
    blocks = block_layout(code, params)
    spec, ell, n = code.spec, params.ell, code.n
    need = params.d * params.t + 1
    work = [row + [int(i == j) for j in range(ell)] for i, row in enumerate(code.generator.data)]
    basis = _eliminate(spec, work, range(n))
    scale, axpy = _row_ops(spec)
    free = [c for c in range(n) if c not in basis]
    pack = bytes if spec.q <= MAX_TABLE_ORDER else tuple
    join = b"".join if pack is bytes else lambda rows: tuple(itertools.chain.from_iterable(rows))
    zero = pack([0] * ell)
    keyed: dict[tuple, dict[int, Sequence[int]]] = {}
    for union, cols in zip(blocks.unions, blocks.coords):
        inside = set(cols)
        lost = [j for j, b in enumerate(basis) if b not in inside]
        chosen: list[int] = []
        echelon: list[tuple[int, list[int]]] = []  # (lead, projection scaled to 1 there)
        for c in filter(inside.__contains__, free):
            if len(chosen) == len(lost):
                break
            v = [work[j][c] for j in lost]
            for lead, w in echelon:
                if v[lead]:
                    v = axpy(v[lead], v, w)
            lead = next((i for i, x in enumerate(v) if x), None)
            if lead is not None:
                echelon.append((lead, scale(spec.inv(v[lead]), v)))
                chosen.append(c)
        if len(chosen) < len(lost):
            lam = sorted(set(range(1, params.s + 1)) - union)
            raise InsufficientLabelweight(f"columns labeled {lam} have rank below {ell}; labelweight < {need}")
        key = (tuple(lost), tuple(chosen))
        rows = keyed.get(key)
        if rows is None:
            Y = MatrixF._of_codes(spec, [[work[j][c] for c in chosen] for j in lost], len(lost))
            solved = [list(z) for z in zip(*matrix.solve_many(Y, [[work[j][n + i] for j in lost] for i in range(ell)]))]
            rows = keyed[key] = dict(zip(chosen, map(pack, solved)))
            for j in set(range(ell)).difference(lost):
                z = work[j][n:]
                for c, zc in zip(chosen, solved):
                    if work[j][c]:
                        z = axpy(work[j][c], z, zc)
                rows[basis[j]] = pack(z)
        blocks.solutions.append(join([rows.get(c, zero) for c in cols]))
    return blocks


def key_search(code: LabeledCode, params: HssParams, unions: list[int]):
    """hss._key_search with one greedy scan for Q per union, the unions
    walked sorted by their member lists, which one scan per lost-row set
    L and the string key hss.union_order replaced: one elimination of
    [G | I] to [R | E], then for each union its rows L of R with a pivot
    at a server in it, and the first coordinates Q outside B and outside
    the union whose columns R[L, c] are independent of the earlier ones'.
    Returns [R | E], B, the distinct keys (L, Q) in first-seen order and
    the key index of each entry of `unions`; the first union whose
    coordinates lack rank raises InsufficientLabelweight."""
    spec, ell, n, labels = code.spec, params.ell, code.n, code.labeling.map
    work = [row + [int(i == j) for j in range(ell)] for i, row in enumerate(code.generator.data)]
    basis = _eliminate(spec, work, range(n))
    scale, axpy = _row_ops(spec)
    free = [c for c in range(n) if c not in basis]
    keys: dict[tuple, int] = {}
    key_of: dict[int, int] = {}
    # the sort key is the union's servers in increasing order, its binary digits read right to left
    for union in sorted(set(unions), key=lambda u: [v for v, bit in enumerate(bin(u)[:1:-1]) if bit == "1"]):
        lost = [j for j, b in enumerate(basis) if union >> labels[b] & 1]
        chosen: list[int] = []
        echelon: list[tuple[int, list[int]]] = []  # (lead, projection scaled to 1 there)
        for c in (c for c in free if not union >> labels[c] & 1):
            if len(chosen) == len(lost):
                break
            v = [work[j][c] for j in lost]
            for lead, w in echelon:
                if v[lead]:
                    v = axpy(v[lead], v, w)
            lead = next((i for i, x in enumerate(v) if x), None)
            if lead is not None:
                echelon.append((lead, scale(spec.inv(v[lead]), v)))
                chosen.append(c)
        if len(chosen) < len(lost):
            lam = [v for v in range(1, params.s + 1) if not union >> v & 1]
            need = params.d * params.t + 1
            raise InsufficientLabelweight(f"columns labeled {lam} have rank below {ell}; labelweight < {need}")
        key_of[union] = keys.setdefault((tuple(lost), tuple(chosen)), len(keys))
    return work, basis, list(keys), list(map(key_of.__getitem__, unions))


def lost_set_key_search(code: LabeledCode, params: HssParams, unions: list[int]):
    """hss._key_search before its scans solved: one elimination of
    [G | I] to [R | E], then one greedy scan for Q per lost-row set L
    (looked up by `union & pivot servers`) with nothing excluded, noting
    the servers whose columns it read before it stopped; a union holding
    none of them takes that Q, any other scans again with its own servers
    excluded (L = () takes ((), ()) without a scan).  The unions are
    walked in hss.union_order.  Returns [R | E], B, the distinct keys
    (L, Q) in first-seen order and the key index of each entry of
    `unions`; the first union whose coordinates lack rank raises
    InsufficientLabelweight."""
    spec, ell, n, labels = code.spec, params.ell, code.n, code.labeling.map
    work = [row + [int(i == j) for j in range(ell)] for i, row in enumerate(code.generator.data)]
    basis = _eliminate(spec, work, range(n))
    scale, axpy = _row_ops(spec)
    free = [c for c in range(n) if c not in basis]

    def scan(at: int, union: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        lost = tuple(j for j, b in enumerate(basis) if at >> labels[b] & 1)
        chosen, read = [], 0
        echelon: list[tuple[int, list[int]]] = []  # (lead, projection scaled to 1 there)
        for c in (c for c in free if not union >> labels[c] & 1):
            if len(chosen) == len(lost):
                break
            read |= 1 << labels[c]
            v = [work[j][c] for j in lost]
            for lead, w in echelon:
                if v[lead]:
                    v = axpy(v[lead], v, w)
            lead = next((i for i, x in enumerate(v) if x), None)
            if lead is not None:
                echelon.append((lead, scale(spec.inv(v[lead]), v)))
                chosen.append(c)
        return lost, tuple(chosen), read

    pivot_servers = functools.reduce(operator.or_, (1 << labels[b] for b in basis), 0)
    scans = {0: ((), (), 0)}  # a union's pivot servers -> L, Q with nothing excluded, the servers read
    keys: dict[tuple, int] = {}
    key_of: dict[int, int] = {}
    for union in sorted(set(unions), key=hss.union_order):
        at = union & pivot_servers
        lost, chosen, read = scans.get(at) or scans.setdefault(at, scan(at, 0))
        if union & read:
            chosen = scan(at, union)[1]
        if len(chosen) < len(lost):
            lam = [v for v in range(1, params.s + 1) if not union >> v & 1]
            need = params.d * params.t + 1
            raise InsufficientLabelweight(f"columns labeled {lam} have rank below {ell}; labelweight < {need}")
        key_of[union] = keys.setdefault((lost, chosen), len(keys))
    return work, basis, list(keys), list(map(key_of.__getitem__, unions))


def synthesize_keys(code: LabeledCode, params: HssParams, unions: list[int] | None = None) -> hss.KeySolutions:
    """hss._key_search as the per-L search (lost_set_key_search) and then
    one solve_many of Y = R[L, Q] per key for Z_Q = Y^-1 E[L], which
    taking Z_Q from the E part of each scan's elimination replaced.
    `unions` defaults to those of hss.enumerate_monomials(params), so the
    default gives hss._synthesize(code, params)."""
    if unions is None:
        unions = hss.enumerate_monomials(params)[1]
    work, basis, keys, combo_key = lost_set_key_search(code, params, unions)
    spec, n, ell = code.spec, code.n, code.dim
    solved = []
    for lost, chosen in keys:
        Y = MatrixF._of_codes(spec, [[work[j][c] for c in chosen] for j in lost], len(lost))
        z = matrix.solve_many(Y, [[work[j][n + i] for j in lost] for i in range(ell)])
        solved.append(dict(zip(chosen, map(spec.codes, zip(*z)))))
    return hss.KeySolutions(spec, work, basis, [lost for lost, _ in keys], solved, combo_key)


def solve_keys(code: LabeledCode, work: list[list[int]], basis: list[int], keys: list[tuple]) -> list[dict]:
    """Each key's rows on its support, Q and then each kept pivot B[j]
    (j not in L), from [R | E] = `work`: Z_Q = Y^-1 E[L] with Y = R[L, Q],
    and E[j] - R[j, Q] Z_Q at B[j]; one r x r solve (r = |L|) per key."""
    spec, n, ell = code.spec, code.n, code.dim
    _, axpy = _row_ops(spec)
    pack = bytes if spec.q <= MAX_TABLE_ORDER else tuple
    solutions = []
    for lost, chosen in keys:
        Y = MatrixF._of_codes(spec, [[work[j][c] for c in chosen] for j in lost], len(lost))
        solved = [list(z) for z in zip(*matrix.solve_many(Y, [[work[j][n + i] for j in lost] for i in range(ell)]))]
        support, kept = list(chosen), []
        for j in range(ell):
            if j not in lost:
                z = work[j][n:]
                for c, zc in zip(chosen, solved):
                    if work[j][c]:
                        z = axpy(work[j][c], z, zc)
                support.append(basis[j])
                kept.append(z)
        solutions.append(dict(zip(support, map(pack, solved + kept))))
    return solutions


class RowScheme(NamedTuple):
    """A scheme with its keys in full-row form, as solve_keys gives them:
    rows[k] maps each coordinate of key k's support (Q, then each kept
    pivot) to the ell coefficients there; zero off the support."""

    params: HssParams
    code: LabeledCode
    rows: list[dict[int, Sequence[int]]]
    combo_key: list[int]
    labelweight_verified: bool


def row_scheme(scheme: HssScheme) -> RowScheme:
    """The scheme's keys expanded to full-row form, each support row read
    through KeySolutions.column."""
    solutions = scheme.solutions
    columns = [solutions.column(r) for r in range(scheme.n)]
    rows = [
        {r: columns[r][k] for r in [*z_rows, *(b for j, b in enumerate(solutions.basis) if j not in lost)]}
        for k, (lost, z_rows) in enumerate(zip(solutions.lost, solutions.solved))
    ]
    return RowScheme(scheme.params, scheme.code, rows, solutions.combo_key, scheme.labelweight_verified)


def row_lines(scheme: RowScheme) -> Iterable[str]:
    """The canonical scheme document's lines of full key rows: the header,
    the code document, then one row per nonzero coefficient in
    (coordinate, instance, subset combo) order."""
    p = scheme.params
    code_lines = code_to_text(scheme.code).splitlines()
    yield from (
        hss.SCHEME_FORMAT_TAG,
        f"s {p.s}",
        f"t {p.t}",
        f"d {p.d}",
        f"l {p.ell}",
        f"m {p.m}",
        f"labelweight-verified {1 if scheme.labelweight_verified else 0}",
        f"code-lines {len(code_lines)}",
        *code_lines,
    )
    names = [hss._format_subsets(combo) for combo in itertools.product(subsets_of_size(p.s, p.t), repeat=p.d)]
    zero = bytes(p.ell)
    for r in range(scheme.code.n):
        column = [rows.get(r, zero) for rows in scheme.rows]
        for i in range(p.ell):
            coeffs = [row[i] for row in column]
            for name, coeff in zip(names, map(coeffs.__getitem__, scheme.combo_key)):
                if coeff:
                    yield f"eval {r} {i + 1} {name} {coeff}"


def project_blocks(scheme: HssScheme) -> SolutionBlocks:
    """The scheme's key rows projected onto each union's coordinates:
    block u holds, at every coordinate outside unions[u], the row of the
    key of u's combos there, zero off the key's support."""
    blocks = block_layout(scheme.code, scheme.params)
    key_rows, ell = row_scheme(scheme).rows, scheme.params.ell
    pack = bytes if scheme.params.spec.q <= MAX_TABLE_ORDER else tuple
    zero = pack([0] * ell)
    join = b"".join if pack is bytes else lambda rows: tuple(itertools.chain.from_iterable(rows))
    key_of = dict(zip(blocks.combo_union, scheme.solutions.combo_key))
    for u, cols in enumerate(blocks.coords):
        rows = key_rows[key_of[u]]
        blocks.solutions.append(join([rows.get(r, zero) for r in cols]))
    return blocks


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



# -- hss: server evaluation by lifted products, the contraction the bit planes replaced --


def build_byte_tensors(scheme: HssScheme, blocks: SolutionBlocks, j: int):
    """The subsets server j holds, and for each coordinate r it owns and
    each instance i the dense tensor of z_r's coefficients on instance i
    (bytes when q <= 256, a tuple above), row-major over the held subsets,
    read from the scheme's per-union `blocks`."""
    params, ell = scheme.params, scheme.params.ell
    held = hss.held_subsets(params.s, params.t, j)
    local = [j not in union for union in blocks.unions]
    held_blocks = list(itertools.compress(blocks.combo_union, map(local.__getitem__, blocks.combo_union)))
    join = b"".join if params.spec.q <= MAX_TABLE_ORDER else lambda parts: tuple(itertools.chain.from_iterable(parts))
    tensors = []
    for r in scheme.code.labeling.coords(j):
        at = [cols.index(r) * ell if ok else 0 for cols, ok in zip(blocks.coords, local)]
        column = [block[start : start + ell] for block, start in zip(blocks.solutions, at)]
        joined = join(map(column.__getitem__, held_blocks))
        tensors.append([joined[i::ell] for i in range(ell)])
    return held, tensors


def contract(spec: FieldSpec, tensors, slots, h: int) -> list[int]:
    """Sum over instances i of tensor(r, i) contracted with the slot vectors.

    Slots 1..d-1 expand into the rows of the last slot that have no zero
    share, each with w, the product of its shares.  The last slot is a
    C-level dot product per row: entry c at a position whose share is y
    adds (w*y)*c, read from a product table that keeps each base-p digit
    in its own bit field, so integer sums add digit by digit without
    carries (in every characteristic, XOR included).  Each output is
    reduced digit by digit mod p once, at the end.
    """
    p, q, mul = spec.p, spec.q, spec.tables().mul
    bits = ((p - 1) * len(slots) * h ** len(slots[0])).bit_length()
    products = lifted_products(spec, bits)
    acc = [0] * len(tensors)
    for i, vectors in enumerate(slots):
        rows = [(0, 1)]  # (row of the last slot, product of its shares in slots 1..d-1)
        for vector in vectors[:-1]:
            nonzero = [(a, y) for a, y in enumerate(vector) if y]
            rows = [(row * h + a, mul[w * q + y]) for row, w in rows for a, y in nonzero]
        last = vectors[-1]
        scaled = {w: list(map(products[w * q : (w + 1) * q].__getitem__, last)) for w in {w for _, w in rows}}
        rows = [(row * h, scaled[w]) for row, w in rows]
        for n, per_instance in enumerate(tensors):
            tensor = per_instance[i]
            acc[n] += sum(
                itertools.chain.from_iterable(
                    map(operator.getitem, terms, tensor[start : start + h]) for start, terms in rows
                )
            )
    mask = (1 << bits) - 1
    return [sum((total >> (bits * e) & mask) % p * p**e for e in range(spec.k)) for total in acc]


@functools.cache
def lifted_products(spec: FieldSpec, bits: int) -> tuple[tuple[int, ...], ...]:
    """Entry a*q + b lists the products (a*b)*c, c = 0..q-1, with each
    base-p digit moved into its own `bits`-bit field."""
    p, q, mul = spec.p, spec.q, spec.tables().mul
    lift = [sum(c // p**e % p << (bits * e) for e in range(spec.k)) for c in range(q)]
    rows = [tuple(lift[c] for c in mul[a * q : (a + 1) * q]) for a in range(q)]
    return tuple(rows[ab] for ab in mul)


def eval_server_lifted(scheme: HssScheme, j: int, views: dict, var_indices: tuple[int, ...] | None = None) -> list[int]:
    """hss.eval_server on byte tensors contracted by lifted products
    (q <= 256), built afresh on every call."""
    params = scheme.params
    chosen = default_monomial(params) if var_indices is None else tuple(var_indices)
    held, tensors = build_byte_tensors(scheme, project_blocks(scheme), j)
    slots = hss._slot_vectors(views, held, params.ell, chosen, j, params.spec.q)
    return contract(params.spec, tensors, slots, len(held))


@functools.cache
def plane_bits(spec: FieldSpec) -> list[list[bytes]]:
    """bits[s][n]: the translate table that moves plane n's bit of lane l
    of a byte (a lane string of hss._PlaneTables) to bit s * lanes + l,
    one table per plane and per string of a group of 8 // lanes."""
    p, q = spec.p, spec.q
    planes = [(e, b) for e in range(spec.k) for b in range((p - 1).bit_length())]
    width = (q - 1).bit_length()
    lanes = 1 << ((8 // width).bit_length() - 1)
    mask = (1 << width) - 1
    lane = [bytes(u >> l * width & mask for u in range(256)) for l in range(lanes)]

    def by_lane(l: int, column: bytes, shift: int) -> int:
        return int.from_bytes(lane[l].translate(column.ljust(256, b"\0")), "little") << shift

    digit_bits = [bytes(y // p**e % p >> b & 1 for y in range(q)) for e, b in planes]
    return [
        [sum(by_lane(l, column, s * lanes + l) for l in range(lanes)).to_bytes(256, "little") for column in digit_bits]
        for s in range(8 // lanes)
    ]


def bit_planes(spec: FieldSpec, strings: Sequence[bytes], size: int) -> list[int]:
    """hss._bit_planes by one translate and one int.from_bytes per lane
    string and plane, through plane_bits."""
    bits = plane_bits(spec)
    per_group = len(bits)
    planes = [0] * len(bits[0])
    for s, string in enumerate(strings):
        offset = 8 * size * (s // per_group)
        for n, table in enumerate(bits[s % per_group]):
            planes[n] |= int.from_bytes(string.translate(table), "little") << offset
    return planes


def share_products(scale: list[bytes], columns: Sequence[bytes]) -> bytes:
    """The lane string of the row-major tensors y_1 (x) ... (x) y_d, from
    the lane strings of the d slot vectors: from the last slot back, the
    tensor of slots k..d is the tensor of slots k+1..d scaled by each byte
    of slot k in turn, laid end to end (lane products commute)."""
    product = columns[-1]
    for column in reversed(columns[:-1]):
        product = b"".join(map(product.translate, map(scale.__getitem__, column)))
    return product


def contract_planes(spec: FieldSpec, tensors, slots, h: int) -> list[int]:
    """hss._contract_planes by one popcount per (coefficient plane, share
    plane) pair, every count an exact integer:

        z_r = sum_{e,f} alpha^(e+f) * ((sum_{b,g} 2^(b+g) *
              popcount(T_{e,b} & W_{f,g})) mod p),

    with the share planes built from share_products and then a translate
    of each product per packed table."""
    tables = hss._plane_tables(spec)
    p, q, add, mul = spec.p, spec.q, spec.tables().add, spec.tables().mul
    d = len(slots[0])
    columns = [hss._lane_strings(tables, [vectors[k] for vectors in slots], h) for k in range(d)]
    products = [share_products(tables.scale, lane) for lane in zip(*columns)]
    shares = hss._bit_planes(tables, [[product.translate(table) for table in tables.packed] for product in products], h**d)
    out = []
    for coefficients in tensors:
        sums = [0] * len(tables.powers)  # sums[m]: the integer coefficient of alpha^m
        for (e, b), t in zip(tables.planes, coefficients):
            if t:
                for (f, g), w in zip(tables.planes, shares):
                    sums[e + f] += (t & w).bit_count() << (b + g)
        z = 0
        for total, power in zip(sums, tables.powers):
            z = add[z * q + mul[total % p * q + power]]
        out.append(z)
    return out


def scheme_to_text(scheme) -> str:
    """The v1 scheme document rendered from the per-monomial eval_table,
    every row collected and sorted (a scheme or a TableScheme)."""
    p = scheme.params
    code_lines = code_to_text(scheme.code).splitlines()
    lines = [
        hss.SCHEME_FORMAT_TAG,
        f"s {p.s}",
        f"t {p.t}",
        f"d {p.d}",
        f"l {p.ell}",
        f"m {p.m}",
        f"labelweight-verified {1 if scheme.labelweight_verified else 0}",
        f"code-lines {len(code_lines)}",
        *code_lines,
    ]
    entries = []
    for r in sorted(scheme.eval_table):
        for mono, coeff in scheme.eval_table[r].items():
            entries.append((r, mono.instance, mono.subsets, coeff))
    entries.sort()
    for r, inst, subsets, coeff in entries:
        lines.append(f"eval {r} {inst} {hss._format_subsets(subsets)} {coeff}")
    return "\n".join(lines) + "\n"


def _parse_subsets(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in part.split(",")) for part in text.split("/"))


def fold_scheme_text(text: str) -> RowScheme:
    """The v1 reader that folds the eval rows into the keys, which reading
    by synthesis replaced.

    The keys come from the pivot search alone, with no solves.  Each
    (key, instance, coordinate) group takes the coefficient of its first
    row that is in range and lies in the key's support (Q, then the pivot
    of each row outside L).  The document must then be the canonical text
    of those full key rows (row_lines), or DecodeError names its first
    line that differs.  Self-consistent rows that are not a valid Eval
    pass this reader.
    """
    lines = text.splitlines()
    if not lines or lines[0] != hss.SCHEME_FORMAT_TAG:
        raise DecodeError(f"missing {hss.SCHEME_FORMAT_TAG} header")
    header = dict(line.partition(" ")[::2] for line in lines[1:8])
    try:
        t, d, m, count = (int(header[key]) for key in ("t", "d", "m", "code-lines"))
    except (KeyError, ValueError) as exc:
        raise DecodeError(f"bad scheme header: {exc}") from exc
    code = code_from_text("\n".join(lines[8 : 8 + count]) + "\n")
    try:
        params = HssParams(code.s, t, d, code.dim, m, code.spec)
        _, unions = hss.enumerate_monomials(params)
        _, basis, keys, combo_key = lost_set_key_search(code, params, unions)
    except (ParameterOutOfRange, EnumerationBudgetExceeded, InsufficientLabelweight) as exc:
        raise DecodeError(f"bad scheme parameters: {exc}") from exc

    combos = itertools.product(hss.subsets_of_size(params.s, params.t), repeat=params.d)
    combo_index = {combo: c for c, combo in enumerate(combos)}
    ell, q = params.ell, code.spec.q
    values = []
    for lost, chosen in keys:
        support = [*chosen, *(b for j, b in enumerate(basis) if j not in lost)]
        values.append({r: [0] * ell for r in support})
    for line in lines[8 + count :]:
        try:
            tag, r, i, subsets, coeff = line.split(" ")
            r, i, c, coeff = int(r), int(i), combo_index.get(_parse_subsets(subsets)), int(coeff)
        except ValueError:
            continue  # not a row of any scheme: the comparison below names it
        if tag == "eval" and c is not None and 1 <= i <= ell and 0 < coeff < q:
            row = values[combo_key[c]].get(r)
            if row is not None:
                row[i - 1] = row[i - 1] or coeff
    pack = bytes if q <= MAX_TABLE_ORDER else tuple
    rows = [{r: pack(row) for r, row in key_rows.items()} for key_rows in values]
    verified = header.get("labelweight-verified") == "1"
    scheme = RowScheme(params, code, rows, combo_key, verified)
    for n, (got, want) in enumerate(itertools.zip_longest(lines, row_lines(scheme)), 1):
        if got != want:
            raise DecodeError(f"line {n}: {got!r} is not {want!r}, the canonical line of the scheme the rows describe")
    return scheme


# -- sharing: one fragment scan per server and secret -------------------------------


def _shares_from_stream(x: int, subsets, stream, spec: FieldSpec):
    shares = {}
    acc = 0
    for T, y in zip(subsets[:-1], stream):
        shares[T] = y
        acc = spec.add(acc, y)
    shares[subsets[-1]] = spec.sub(x, acc)
    return shares


def server_fragment(shares, j: int) -> dict:
    """Server j's fragment of a full share map: every entry with j not in T."""
    return dict(itertools.compress(shares.items(), held_mask(shares, j)))


def secret_code(x, spec: FieldSpec, key: tuple[int, int] | None = None) -> int:
    """The integer code of a secret (the one at `key` of a secret matrix,
    if given): an int in 0..q-1 or an element of `spec`.  Anything else
    would be shared as some other secret."""
    if type(x) is int and 0 <= x < spec.q:
        return x
    name = "secret" if key is None else f"secret {key}"
    if isinstance(x, FieldElement):
        if x.spec != spec:
            raise FieldMismatch(f"{name} is an element of {x.spec.describe()}, not {spec.describe()}")
        x = x.value
    try:
        code = operator.index(x)
    except TypeError:
        raise ParameterOutOfRange(f"{name} value {x!r} is not an integer in 0..{spec.q - 1} (q={spec.q})") from None
    if not 0 <= code < spec.q:
        raise ParameterOutOfRange(f"{name} value {code} is outside 0..{spec.q - 1} (q={spec.q})")
    return code


def cnf_share(x, t: int, s: int, spec: FieldSpec, rng) -> dict[tuple[int, ...], int]:
    if not 1 <= t < s:
        raise ParameterOutOfRange(f"need 1 <= t < s, got t={t}, s={s}")
    code = x.value if isinstance(x, FieldElement) else int(x)
    subsets = subsets_of_size(s, t)
    stream = [rng.randrange(spec.q) for _ in range(len(subsets) - 1)]  # was spec.rand(rng)
    return _shares_from_stream(code, subsets, stream, spec)


def share_all_secrets(params: HssParams, secrets: Sequence[Sequence], rng):
    if len(secrets) != params.ell or any(len(row) != params.m for row in secrets):
        raise DimensionMismatch(f"secret matrix must be {params.ell} x {params.m}")
    bundles = {}
    views = {j: {} for j in range(1, params.s + 1)}
    for i in range(1, params.ell + 1):
        for k in range(1, params.m + 1):
            shares = cnf_share(secrets[i - 1][k - 1], params.t, params.s, params.spec, rng)
            bundles[(i, k)] = shares
            for j in range(1, params.s + 1):
                views[j][(i, k)] = server_fragment(shares, j)
    return bundles, views


# -- protocol: one int.to_bytes / int.from_bytes per element --------------------------


def encode(message, width: int) -> bytes:
    if message.kind not in protocol._KINDS:
        raise ValueError(f"unknown message kind {message.kind}")
    body = b"".join(v.to_bytes(width, "little") for v in message.payload)
    return (
        bytes((protocol.WIRE_VERSION, message.kind))
        + message.sender.to_bytes(2, "little")
        + message.receiver.to_bytes(2, "little")
        + len(body).to_bytes(4, "little")
        + body
    )


def decode(frame: bytes, width: int, q: int | None = None):
    if len(frame) < protocol._HEADER_LEN:
        raise DecodeError(f"frame too short: {len(frame)} bytes")
    if frame[0] != protocol.WIRE_VERSION:
        raise DecodeError(f"bad version byte {frame[0]:#x}")
    kind = frame[1]
    if kind not in protocol._KINDS:
        raise DecodeError(f"bad message kind {kind}")
    sender = int.from_bytes(frame[2:4], "little")
    receiver = int.from_bytes(frame[4:6], "little")
    length = int.from_bytes(frame[6:10], "little")
    body = frame[protocol._HEADER_LEN :]
    if len(body) != length:
        raise DecodeError(f"length field {length} != payload bytes {len(body)}")
    if length % width:
        raise DecodeError(f"payload of {length} bytes not a multiple of element width {width}")
    payload = tuple(int.from_bytes(body[i : i + width], "little") for i in range(0, length, width))
    if q is not None and any(v >= q for v in payload):
        raise DecodeError("payload element outside the field")
    return protocol.WireMessage(kind, sender, receiver, payload)


def _fragment_order(params, j: int) -> list[tuple[int, int, tuple[int, ...]]]:
    subsets = [T for T in subsets_of_size(params.s, params.t) if j not in T]
    return [(i, k, T) for i in range(1, params.ell + 1) for k in range(1, params.m + 1) for T in subsets]


def simulate(scheme: HssScheme, secrets: Sequence[Sequence], seed: int, var_indices=None):
    """The protocol run of ``protocol.simulate``, with server evaluation taken from ``hss``."""
    params = scheme.params
    spec = params.spec
    width = protocol.element_width(spec)
    chosen = default_monomial(params) if var_indices is None else tuple(var_indices)
    output_client = params.s + 1
    transcript = protocol.Transcript(field_order=spec.q)

    def send(message):
        frame = encode(message, width)
        transcript.record(message, frame, output_client)
        return decode(frame, width, spec.q)

    rng = random.Random(seed)
    grid = [[int(v) if not hasattr(v, "value") else v.value for v in row] for row in secrets]
    _, views = share_all_secrets(params, grid, rng)
    inboxes = {}
    for j in range(1, params.s + 1):
        order = _fragment_order(params, j)
        payload = tuple(views[j][(i, k)][T] for i, k, T in order)
        inboxes[j] = send(protocol.WireMessage(protocol.INPUT_SHARES, 0, j, payload))

    received: dict[int, list[int]] = {}
    for j in range(1, params.s + 1):
        message = inboxes[j]
        order = _fragment_order(params, j)
        if len(message.payload) != len(order):
            raise DecodeError(f"server {j}: expected {len(order)} elements, got {len(message.payload)}")
        view: dict[tuple[int, int], dict] = {}
        for (i, k, T), value in zip(order, message.payload):
            view.setdefault((i, k), {})[T] = value
        z_j = hss.eval_server(scheme, j, view, chosen)
        delivered = send(protocol.WireMessage(protocol.OUTPUT_SHARES, j, output_client, tuple(z_j)))
        received[delivered.sender] = list(delivered.payload)

    outputs = reconstruct(scheme, collect_output_shares(scheme, received))
    send(protocol.WireMessage(protocol.RESULT, output_client, 0, tuple(outputs)))
    return transcript, outputs
