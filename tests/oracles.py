"""Reference implementations kept as test oracles, one entry per layer.

The package must agree with them exactly, on values and on the errors
raised.  Per layer this module keeps the plainest reference and the one
the package replaced last, and drops a link between them once the
package is pinned straight to a kept one on the same cases.  Each entry
gives the package code, the plainest reference and, after a semicolon,
the last replaced (one list where the two coincide).

- Field arithmetic (``FieldSpec.tables`` built row by row; above 256,
  ``coeffs`` / ``encode`` digits, ``Polynomial`` products, one termwise
  helper): the digit loops ``add``, ``neg``, ``sub`` and the schoolbook
  ``mul``; the entry-by-entry ``field_tables``, ``poly_add``, ``poly_sub``.
- Irreducibility and moduli (Ben-Or's test, one scan in coefficient-code
  order): root check up to degree 3, else trial division by every monic
  polynomial up to half the degree (``is_irreducible``,
  ``find_irreducible``, ``default_modulus``).
- Hermitian basis (the first k pivots of one ``rref``): one monomial at a
  time reduced against normalised rows (``hermitian_build``).
- Labelweight kernel (``kernels.min_labelweight``): the depth-first walk
  over coordinate lists (``min_labelweight``); the packed
  meet-in-the-middle walk (``packed_min_labelweight``).
- Elimination (``matrix.rref``, ``solve_many``, ``kernel_basis`` over
  ``matrix._eliminate`` on packed rows): the same three names here, over
  ``eliminate``, one field call per cell; list rows, one table lookup per
  element (``row_ops``, ``eliminate_rows``).
- Monomials (``hss.enumerate_monomials``, the count ell * C(s, t)^d as
  a range of indices): the list of every MonomialId and each server's
  local ones (``enumerate_monomials``).
- Union walk (``hss.enumerate_monomials``' combo unions, deduplicated in
  first-seen order by ``hss._key_search``): the union of every subset
  combo (``product_unions``), deduplicated and sorted by the string key
  ``union_order`` (``distinct_unions``).
- Synthesis (``hss.synthesize_eval``): the per-monomial table after the
  exhaustive labelweight check (``synthesize_eval``, ``scheme_for_code``,
  ``TableScheme``) and, per union, one ``solve_many`` of G restricted to
  the coordinates outside it (``synthesize_blocks`` into
  ``SolutionBlocks`` laid out by ``block_layout``); the literal check of
  the whole coefficient system (``verify_block_system``).
- Key search (``hss._key_search``, Z_Q from each scan's elimination): one
  scan per lost-row set L on list rows (``lost_set_key_search``, through
  ``eliminate_rows`` and ``row_ops``), then one ``solve_many`` per key
  (``synthesize_keys``).
- Key store (``hss.KeySolutions``, kept-pivot rows derived by ``column``
  in the packed domain): full rows at Q and at each kept pivot, one
  ``row_ops`` axpy per step (``solve_keys``); ``row_scheme``
  reads the keys back into that form through ``column``, and
  ``project_blocks`` onto each union's coordinates.
- Server planes (``hss.server_state``, built a position block at a time
  from key rows packed per lane string, then a delta-swap transpose of
  the block words; ``hss._lane_strings`` and ``hss._bit_planes`` for
  share planes): dense tensors read from the per-union blocks
  (``build_byte_tensors``), split one block and plane at a time
  (``bit_planes`` through ``plane_bits``); the whole column of held keys
  joined, sliced per instance and packed at once (``build_tensors``), lane
  strings packed one group at a time (``group_lane_strings``), split in
  the layout of groups of 8 instances concatenated (``group_bit_planes``,
  read in the block layout through ``blocks_from_groups``).
- Evaluation (``hss.eval_server``, one popcount per fold class, on the
  lane strings ``hss._view_lanes`` reads from a view's share sequence):
  the per-monomial sum over the table (``eval_server``, on the dict form
  ``view_dicts`` of the view); one popcount per plane pair, share planes
  from ``share_products`` (``contract_planes``), on lane strings packed
  from per-instance slot slices (``slot_vectors``).
- Sharing (``hss.cnf_share``, ``share_all_secrets``, views as bytes
  cut by held runs from one subset-major buffer, draws joined once):
  one fragment scan per server and secret (``cnf_share``,
  ``share_all_secrets``, ``server_fragment``; its views are dicts, the
  form ``view_dicts`` gives a package view), and the secret check
  ``secret_code`` (errors agree in type, the wording is
  ``FieldSpec.code_of``'s); one strided slice per subset and a compress
  per server (``sliced_share_all_secrets`` through ``sliced_views``),
  on draws appended round by round (``randrange_run``).
- Wire (``protocol.encode``, ``decode``, ``simulate``): one
  ``int.to_bytes`` / ``int.from_bytes`` per element (``encode``,
  ``decode``); the run that orders each payload by an explicit
  (instance, variable, subset) list (``simulate``).
- Transcript (``protocol.Transcript``, its frames, every other view
  read from them): each message kept beside its frame, link bytes and
  downloads accumulated frame by frame for an output client the caller
  names (``Transcript``), s + 1 in ``simulate`` and the sender of the
  last RESULT frame in ``replay``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from labelweight_hss import budget, galois, hss, matrix, protocol
from labelweight_hss.budget import LABELWEIGHT_BUDGET, MONOMIAL_BUDGET, SHARE_BUDGET, effective_budget
from labelweight_hss.codes import LabeledCode, Labeling, hermitian_points, labelweight
from labelweight_hss.errors import (
    DecodeError,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    InsufficientLabelweight,
    MissingShare,
    ParameterOutOfRange,
)
from labelweight_hss.galois import (
    NEG_INFINITY,
    FieldSpec,
    FieldTables,
    Polynomial,
    first_outside,
    require_table_order,
)
from labelweight_hss.hss import (
    HssParams,
    HssScheme,
    MonomialId,
    collect_output_shares,
    reconstruct,
    subsets_of_size,
)
from labelweight_hss.matrix import MatrixF, RrefResult

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
        return all(poly(v) != 0 for v in range(f.q))
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
        if all(candidate(v) for v in exclude) and is_irreducible(candidate):
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


# -- matrix: list rows, and one field call per cell -------------------------------


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


def row_ops(spec: FieldSpec):
    """matrix._row_ops before packed rows: ``scale(c, row) = c*row`` and
    ``axpy(c, dst, src) = dst - c*src`` on element-code rows, each
    returning a new list, one table lookup per element."""
    q = spec.q
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


def eliminate_rows(spec: FieldSpec, rows: list[list[int]], cols: Iterable[int]) -> list[int]:
    """matrix._eliminate before packed rows, on lists through row_ops:
    in-place reduced row echelon form of `rows` over the columns `cols`,
    taken in the order given until every row holds a pivot; returns the
    pivot columns."""
    scale, axpy = row_ops(spec)
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
    code and its Eval table, monomial by monomial."""

    params: HssParams
    code: LabeledCode
    eval_table: dict[int, dict[MonomialId, int]]


def synthesize_eval(code: LabeledCode, params: HssParams) -> TableScheme:
    """The per-monomial synthesis, with the exhaustive labelweight check
    that the rank check of hss._key_search replaced run first whenever
    the q^ell messages fit the labelweight budget."""
    need = params.d * params.t + 1
    if code.spec.q**code.dim <= effective_budget(LABELWEIGHT_BUDGET):
        lw = labelweight(code)
        if lw < need:
            raise InsufficientLabelweight(f"labelweight {lw} < {need}")

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

    return TableScheme(params, code, table)


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
    coordinate-major (bytes): entry
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
    for union, cols in zip(blocks.unions, blocks.coords):
        restricted = MatrixF(code.spec, [[row[j] for j in cols] for row in code.generator.data])
        solutions = matrix.solve_many(restricted, units)
        if any(sol is None for sol in solutions):
            lam = sorted(set(range(1, params.s + 1)) - union)
            raise InsufficientLabelweight(f"columns labeled {lam} have rank below {params.ell}; labelweight < {need}")
        blocks.solutions.append(bytes(itertools.chain.from_iterable(zip(*solutions))))
    return blocks


_MEMBERS_FIRST = str.maketrans("01", "10")


def union_order(union: int) -> str:
    """Sort key of a union bitmask in the order of its sorted member list:
    character v is "0" for a member v and "1" otherwise, up to the highest
    member, so the first member decides and a prefix sorts first."""
    return bin(union)[:1:-1].translate(_MEMBERS_FIRST)


def distinct_unions(unions: Iterable[int]) -> list[int]:
    """The distinct unions sorted by union_order, the order in which
    lost_set_key_search walks them and numbers its keys."""
    return sorted(set(unions), key=union_order)


def product_unions(s: int, t: int, d: int) -> set[int]:
    """The union of every d-tuple of size-t subsets of servers 1..s, as
    bitmasks: the unions of hss.enumerate_monomials, deduplicated after
    each of the d products so that any s <= 12 stays small."""
    masks = [sum(1 << v for v in T) for T in itertools.combinations(range(1, s + 1), t)]
    unions = {0}
    for _ in range(d):
        unions = {union | mask for union in unions for mask in masks}
    return unions


def lost_set_key_search(code: LabeledCode, params: HssParams, unions: list[int]):
    """hss._key_search before its scans solved: one elimination of
    [G | I] to [R | E], then one greedy scan for Q per lost-row set L
    (looked up by `union & pivot servers`) with nothing excluded, noting
    the servers whose columns it read before it stopped; a union holding
    none of them takes that Q, any other scans again with its own servers
    excluded (L = () takes ((), ()) without a scan).  The unions are
    walked in union_order (distinct_unions).  Returns [R | E], B, the
    distinct keys (L, Q) in first-seen order and the key index of each
    entry of `unions`; the first union whose coordinates lack rank raises
    InsufficientLabelweight."""
    spec, ell, n, labels = code.spec, params.ell, code.n, code.labeling.map
    work = [row + [int(i == j) for j in range(ell)] for i, row in enumerate(code.generator.data)]
    basis = eliminate_rows(spec, work, range(n))
    scale, axpy = row_ops(spec)
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
    for union in distinct_unions(unions):
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
    return hss.KeySolutions(spec, list(map(spec.codes, work)), basis, [lost for lost, _ in keys], solved, combo_key)


def solve_keys(code: LabeledCode, work: list[list[int]], basis: list[int], keys: list[tuple]) -> list[dict]:
    """Each key's rows on its support, Q and then each kept pivot B[j]
    (j not in L), from [R | E] = `work`: Z_Q = Y^-1 E[L] with Y = R[L, Q],
    and E[j] - R[j, Q] Z_Q at B[j]; one r x r solve (r = |L|) per key."""
    spec, n, ell = code.spec, code.n, code.dim
    _, axpy = row_ops(spec)
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
        solutions.append(dict(zip(support, map(bytes, solved + kept))))
    return solutions


class RowScheme(NamedTuple):
    """A scheme with its keys in full-row form, as solve_keys gives them:
    rows[k] maps each coordinate of key k's support (Q, then each kept
    pivot) to the ell coefficients there; zero off the support."""

    params: HssParams
    code: LabeledCode
    rows: list[dict[int, Sequence[int]]]
    combo_key: list[int]


def key_column(solutions: hss.KeySolutions, r: int) -> list[Sequence[int]]:
    """KeySolutions.column before keys with the same Q were derived
    together: at a kept pivot r = B[j], one matrix._row_ops derive of
    E[j] per key that keeps row j, zero for a key that lost it."""
    ell = len(solutions.work)
    zero = bytes(ell)
    if r not in solutions.basis:
        return [rows.get(r, zero) for rows in solutions.solved]
    row, derive = solutions.work[j := solutions.basis.index(r)], matrix._row_ops(solutions.spec)[2]
    e = row[len(row) - ell :]  # E[j]
    return [zero if j in lost else derive(e, row, rows.items()) for lost, rows in zip(solutions.lost, solutions.solved)]


def row_scheme(scheme: HssScheme) -> RowScheme:
    """The scheme's keys expanded to full-row form, each support row read
    through KeySolutions.column."""
    solutions = scheme.solutions
    columns = [solutions.column(r) for r in range(scheme.n)]
    rows = [
        {r: columns[r][k] for r in [*z_rows, *(b for j, b in enumerate(solutions.basis) if j not in lost)]}
        for k, (lost, z_rows) in enumerate(zip(solutions.lost, solutions.solved))
    ]
    return RowScheme(scheme.params, scheme.code, rows, solutions.combo_key)


def project_blocks(scheme: HssScheme) -> SolutionBlocks:
    """The scheme's key rows projected onto each union's coordinates:
    block u holds, at every coordinate outside unions[u], the row of the
    key of u's combos there, zero off the key's support."""
    blocks = block_layout(scheme.code, scheme.params)
    key_rows, zero = row_scheme(scheme).rows, bytes(scheme.params.ell)
    key_of = dict(zip(blocks.combo_union, scheme.solutions.combo_key))
    for u, cols in enumerate(blocks.coords):
        rows = key_rows[key_of[u]]
        blocks.solutions.append(b"".join([rows.get(r, zero) for r in cols]))
    return blocks


def eval_server(scheme: HssScheme, j: int, views: dict, var_indices: tuple[int, ...] | None = None) -> list[int]:
    params = scheme.params
    spec = params.spec
    chosen = tuple(range(1, params.d + 1)) if var_indices is None else tuple(var_indices)
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


# -- hss: dense tensors split one plane at a time, one popcount per plane pair --------


def build_byte_tensors(scheme: HssScheme, blocks: SolutionBlocks, j: int):
    """The subsets server j holds, and for each coordinate r it owns and
    each instance i the dense tensor of z_r's coefficients on instance i
    (bytes), row-major over the held subsets, read from the scheme's per-union `blocks`."""
    params, ell = scheme.params, scheme.params.ell
    held = hss.held_subsets(params.s, params.t, j)
    local = [j not in union for union in blocks.unions]
    held_blocks = list(itertools.compress(blocks.combo_union, map(local.__getitem__, blocks.combo_union)))
    tensors = []
    for r in scheme.code.labeling.coords(j):
        at = [cols.index(r) * ell if ok else 0 for cols, ok in zip(blocks.coords, local)]
        column = [block[start : start + ell] for block, start in zip(blocks.solutions, at)]
        joined = b"".join(map(column.__getitem__, held_blocks))
        tensors.append([joined[i::ell] for i in range(ell)])
    return held, tensors


def build_tensors(scheme: HssScheme, j: int) -> list[list[int]]:
    """hss.server_state's planes built whole: per coordinate server j
    owns, the key rows of every held combo joined into one column (ell
    bytes per combo), its ell strided slices packed into lane strings in
    one pass, and those split by hss._bit_planes; zero planes for a
    coordinate no key is nonzero at."""
    params, solutions, ell = scheme.params, scheme.solutions, scheme.params.ell
    mask, row = hss.held_mask(params.s, params.t, j), len(subsets_of_size(params.s, params.t))
    offsets = list(itertools.compress(range(0, row * row, row), mask))  # a * row for each held subset a
    starts = [0]
    for _ in range(params.d - 1):
        starts = [start * row + offset for start in starts for offset in offsets]
    held_rows = (itertools.compress(solutions.combo_key[start : start + row], mask) for start in starts)
    held_keys = list(itertools.chain.from_iterable(held_rows))
    tables, size = hss._plane_tables(params.spec), len(held_keys)
    zeros, planes = [0] * len(tables.planes), []
    for r in scheme.code.labeling.coords(j):
        column = solutions.column(r)
        if not any(map(any, column)):
            planes.append(zeros)
            continue
        joined = params.spec.concat(map(column.__getitem__, held_keys))
        strings = hss._lane_strings(tables, [joined[i::ell] for i in range(ell)], size)
        planes.append(hss._bit_planes(tables, [hss._plane_bytes(tables, (s,)) for s in strings], size))
    return planes


@functools.cache
def plane_bits(spec: FieldSpec) -> list[list[bytes]]:
    """bits[r][n]: the translate table that moves plane n's bit of lane l
    of a byte (a lane string of hss._PlaneTables) to bit r * lanes + l,
    one table per plane and per cell r of a byte, 8 // lanes of them."""
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
        [sum(by_lane(l, column, r * lanes + l) for l in range(lanes)).to_bytes(256, "little") for column in digit_bits]
        for r in range(8 // lanes)
    ]


def bit_planes(spec: FieldSpec, strings: Sequence[bytes], size: int) -> list[int]:
    """hss._bit_planes by one translate and one int.from_bytes per lane
    string, position block and plane, through plane_bits: block r of
    string s, its positions r * Q onward with Q = ceil(size / (8 // lanes)),
    lands in cell r of the plane's bytes s * Q onward."""
    bits = plane_bits(spec)
    per_string = len(bits)
    block = -(-size // per_string)
    planes = [0] * len(bits[0])
    for s, string in enumerate(strings):
        for r, tables in enumerate(bits):
            piece = string[r * block : (r + 1) * block]
            for n, table in enumerate(tables):
                planes[n] |= int.from_bytes(piece.translate(table), "little") << 8 * block * s
    return planes


def group_lane_strings(tables: hss._PlaneTables, tensors: Sequence[bytes], size: int) -> Sequence[bytes]:
    """hss._lane_strings by one shifted sum and one to_bytes per group of
    tables.lanes tensors."""
    width, lanes = tables.width, tables.lanes
    if lanes == 1:
        return tensors
    strings = []
    for s in range(0, len(tensors), lanes):
        ints = map(int.from_bytes, tensors[s : s + lanes], itertools.repeat("little"))
        strings.append(sum(map(operator.lshift, ints, range(0, lanes * width, width))).to_bytes(size, "little"))
    return strings


def group_bit_planes(tables: hss._PlaneTables, strings: Sequence[Sequence[bytes]], size: int) -> list[int]:
    """hss._bit_planes in the layout it replaced, groups of 8 instances
    concatenated: bit 8 * (size * (i // 8) + a) + i % 8 is the plane's bit
    of entry a of instance i, so every plane is size * ceil(count /
    (8 // lanes)) bytes long for `count` lane strings.  Per packed table,
    word r joins the strings at position r of every group once, and the
    same delta-swap stages transpose its cells."""
    per_byte = 8 // tables.lanes
    stages = hss._swap_masks(tables.lanes, size * -(-len(strings) // per_byte))
    planes = []
    for c in range(len(tables.packed)):
        words = [int.from_bytes(b"".join(s[c] for s in strings[r::per_byte]), "little") for r in range(per_byte)]
        for cell, low, pairs in stages:
            for r, o in pairs:
                t = ((words[r] >> cell) ^ words[o]) & low
                words[r], words[o] = words[r] ^ t << cell, words[o] ^ t
        planes += words[: len(tables.planes) - c * per_byte]
    return planes


def blocks_from_groups(planes: Sequence[int], lanes: int, count: int, size: int) -> list[int]:
    """group_bit_planes' planes of `count` lane strings of `size` entries,
    laid out as hss._bit_planes lays them: lane string s is cell s % (8 //
    lanes) of the bytes of group s // (8 // lanes); its block r, padded,
    moves to cell r of bytes s * Q onward."""
    per_byte = 8 // lanes
    block, groups = -(-size // per_byte), -(-count // per_byte)
    cells = [bytes(u >> c * lanes & ((1 << lanes) - 1) for u in range(256)) for c in range(per_byte)]
    out = []
    for plane in planes:
        data, blocks = plane.to_bytes(size * groups, "little"), []
        for s in range(count):
            g, c = divmod(s, per_byte)
            string = data[g * size : (g + 1) * size].translate(cells[c])
            pieces = [int.from_bytes(string[r * block : (r + 1) * block], "little") for r in range(per_byte)]
            blocks.append(sum(piece << r * lanes for r, piece in enumerate(pieces)).to_bytes(block, "little"))
        out.append(int.from_bytes(b"".join(blocks), "little"))
    return out


def share_products(scale: list[bytes], columns: Sequence[bytes]) -> bytes:
    """The lane string of the row-major tensors y_1 (x) ... (x) y_d, from
    the lane strings of the d slot vectors: from the last slot back, the
    tensor of slots k..d is the tensor of slots k+1..d scaled by each byte
    of slot k in turn, laid end to end (lane products commute)."""
    product = columns[-1]
    for column in reversed(columns[:-1]):
        product = b"".join(map(product.translate, map(scale.__getitem__, column)))
    return product


def slot_vectors(
    view: Sequence[int], held: tuple, params: HssParams, chosen: tuple[int, ...], j: int
) -> list[list[bytes]]:
    """hss._checked_view, then hss._view_lanes before the lane packing: per
    instance, the share vectors of its d product slots, slices of the view
    aligned with `held`, once the whole view is checked (the same errors)."""
    spec, q, m, h = params.spec, params.spec.q, params.m, len(held)
    if len(view) != params.ell * m * h:
        layout = f"{params.ell * m} secrets x {h} held subsets"
        raise DimensionMismatch(f"server {j}: view holds {len(view)} shares, not {params.ell * m * h} ({layout})")
    try:
        whole = spec.codes(view)
    except (TypeError, ValueError):
        whole = list(view)
    if first_outside(whole, q) is not None:
        n = next(n for n, y in enumerate(whole) if first_outside((y,), q) is not None)
        i, k = divmod(n // h, m)
        raise ParameterOutOfRange(
            f"server {j}: share {whole[n]!r} of secret {(i + 1, k + 1)} is outside 0..{q - 1} (q={q})"
        )
    return [[whole[(i * m + v - 1) * h : (i * m + v) * h] for v in chosen] for i in range(params.ell)]


def contract_planes(tables: hss._PlaneTables, tensors, groups, h: int) -> list[int]:
    """hss._contract_planes by one popcount per (coefficient plane, share
    plane) pair, every count an exact integer:

        z_r = sum_{e,f} alpha^(e+f) * ((sum_{b,g} 2^(b+g) *
              popcount(T_{e,b} & W_{f,g})) mod p),

    with the share planes built from share_products of each lane group's
    d slot strings (`groups`, as hss._view_lanes gives them) and then a
    translate of each product per packed table."""
    p, q, add, mul = tables.p, tables.q, tables.add, tables.mul
    products = [share_products(tables.scale, lane) for lane in groups]
    size = h ** len(groups[0])
    shares = hss._bit_planes(tables, [[product.translate(table) for table in tables.packed] for product in products], size)
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


# -- sharing: one fragment scan per server and secret -------------------------------


def _shares_from_stream(x: int, subsets, stream, spec: FieldSpec):
    shares = {}
    acc = 0
    for T, y in zip(subsets[:-1], stream):
        shares[T] = y
        acc = spec.add(acc, y)
    shares[subsets[-1]] = spec.sub(x, acc)
    return shares


def view_dicts(params: HssParams, j: int, view) -> dict:
    """Server j's view, the share sequence of hss.share_all_secrets, in
    the dict form eval_server reads: (instance, variable) -> {T: y_T}."""
    fragments: dict[tuple[int, int], dict] = {}
    for (i, k, T), y in zip(_fragment_order(params, j), view, strict=True):
        fragments.setdefault((i, k), {})[T] = y
    return fragments


def server_fragment(shares, j: int) -> dict:
    """Server j's fragment of a full share map: every entry with j not in T."""
    return {T: y for T, y in shares.items() if j not in T}


def secret_code(x, spec: FieldSpec, key: tuple[int, int] | None = None) -> int:
    """The integer code of a secret (the one at `key` of a secret matrix,
    if given): an int in 0..q-1.  Anything else would be shared as some
    other secret."""
    if type(x) is int and 0 <= x < spec.q:
        return x
    name = "secret" if key is None else f"secret {key}"
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
    code = int(x)
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


# -- sharing: one strided slice per subset, one compress per server -----------------


def randrange_run(rng: random.Random, q: int, count: int) -> Sequence[int]:
    """galois.randrange_run with each rejection round's kept bytes appended
    to one growing bytes object, which copies the prefix again per round."""
    if type(rng) is not random.Random or q >= 256:
        return list(map(rng.randrange, itertools.repeat(q, count)))
    keep, rejected = galois._top_bits(q)
    out = b""
    while (missing := count - len(out)) > 0:
        out += rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")[3::4].translate(keep, rejected)
    return out


def sliced_views(params: HssParams, vectors: Sequence[bytes]) -> dict[int, bytes]:
    """hss._lay_out_views by one strided slice per subset of the joined
    share vectors, and per server a compress of those slices by held_mask
    and one strided slice per secret."""
    spec, count, size = params.spec, len(vectors), len(vectors[0])
    every_share = spec.concat(vectors)
    # by_subset[c]: subset c's share of every secret, in (instance, variable) order
    by_subset = [every_share[c::size] for c in range(size)]
    views = {}
    for j in range(1, params.s + 1):
        subset_major = spec.concat(itertools.compress(by_subset, hss.held_mask(params.s, params.t, j)))
        views[j] = spec.concat(subset_major[n::count] for n in range(count))
    return views


def sliced_share_all_secrets(params: HssParams, secrets: Sequence[Sequence], rng: random.Random):
    """hss.share_all_secrets with the draws of randrange_run above and the
    views of sliced_views; the bundles are hss._share_vector's, as there."""
    grid = hss._secret_codes(params, secrets)
    spec, subsets = params.spec, subsets_of_size(params.s, params.t)
    keys = list(itertools.product(range(1, params.ell + 1), range(1, params.m + 1)))
    count, free = len(keys), len(subsets) - 1
    budget.check(count * free, SHARE_BUDGET, "share draws")
    draws = randrange_run(rng, spec.q, count * free)
    bundles = {
        (i, k): hss._share_vector(grid[i - 1][k - 1], draws[n * free : (n + 1) * free], spec)
        for n, (i, k) in enumerate(keys)
    }
    return bundles, sliced_views(params, list(bundles.values()))


# -- protocol: one int.to_bytes / int.from_bytes per element --------------------------


def encode(message) -> bytes:
    if message.kind not in protocol._KINDS:
        raise ValueError(f"unknown message kind {message.kind}")
    body = b"".join(v.to_bytes(1, "little") for v in message.payload)
    return (
        bytes((protocol.WIRE_VERSION, message.kind))
        + message.sender.to_bytes(2, "little")
        + message.receiver.to_bytes(2, "little")
        + len(body).to_bytes(4, "little")
        + body
    )


def decode(frame: bytes, q: int | None = None):
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
    payload = bytes(int.from_bytes(body[i : i + 1], "little") for i in range(length))
    if q is not None and any(v >= q for v in payload):
        raise DecodeError("payload element outside the field")
    return protocol.WireMessage(kind, sender, receiver, payload)


def _fragment_order(params, j: int) -> list[tuple[int, int, tuple[int, ...]]]:
    subsets = [T for T in subsets_of_size(params.s, params.t) if j not in T]
    return [(i, k, T) for i in range(1, params.ell + 1) for k in range(1, params.m + 1) for T in subsets]


@dataclass
class Transcript:
    """Ordered frame log with per-link byte counts and download accounting."""

    field_order: int
    messages: list[protocol.WireMessage] = field(default_factory=list)
    frames: list[bytes] = field(default_factory=list)
    link_bytes: dict[tuple[int, int], int] = field(default_factory=dict)
    downloaded_symbols: int = 0

    def record(self, message: protocol.WireMessage, frame: bytes, output_client: int) -> None:
        self.messages.append(message)
        self.frames.append(frame)
        key = (message.sender, message.receiver)
        self.link_bytes[key] = self.link_bytes.get(key, 0) + len(frame)
        if message.kind == protocol.OUTPUT_SHARES and message.receiver == output_client:
            self.downloaded_symbols += len(message.payload)


def replay(field_order: int, frames: Sequence[bytes]) -> Transcript:
    """The frames decoded over GF(field_order) and recorded again, the
    output client being the sender of the (last) RESULT frame."""
    messages = [decode(frame, field_order) for frame in frames]
    output_client = -1
    for message in messages:
        if message.kind == protocol.RESULT:
            output_client = message.sender
    transcript = Transcript(field_order=field_order)
    for message, frame in zip(messages, frames):
        transcript.record(message, frame, output_client)
    return transcript


def simulate(scheme: HssScheme, secrets: Sequence[Sequence], seed: int, var_indices=None):
    """The protocol run of ``protocol.simulate``, with server evaluation taken from ``hss``."""
    params = scheme.params
    spec = params.spec
    chosen = tuple(range(1, params.d + 1)) if var_indices is None else tuple(var_indices)
    output_client = params.s + 1
    transcript = Transcript(field_order=spec.q)

    def send(message):
        frame = encode(message)
        transcript.record(message, frame, output_client)
        return decode(frame, spec.q)

    rng = random.Random(seed)
    grid = [[int(v) for v in row] for row in secrets]
    _, views = share_all_secrets(params, grid, rng)
    inboxes = {}
    for j in range(1, params.s + 1):
        order = _fragment_order(params, j)
        payload = bytes(views[j][(i, k)][T] for i, k, T in order)
        inboxes[j] = send(protocol.WireMessage(protocol.INPUT_SHARES, 0, j, payload))

    received: dict[int, list[int]] = {}
    for j in range(1, params.s + 1):
        message = inboxes[j]
        order = _fragment_order(params, j)
        if len(message.payload) != len(order):
            raise DecodeError(f"server {j}: expected {len(order)} elements, got {len(message.payload)}")
        z_j = hss.eval_server(scheme, j, message.payload, chosen)
        delivered = send(protocol.WireMessage(protocol.OUTPUT_SHARES, j, output_client, bytes(z_j)))
        received[delivered.sender] = list(delivered.payload)

    outputs = reconstruct(scheme, collect_output_shares(scheme, received))
    send(protocol.WireMessage(protocol.RESULT, output_client, 0, bytes(outputs)))
    return transcript, outputs
