"""Scheme synthesis and execution: replicated sharing, local evaluation,
linear reconstruction.

The pipeline: a LabeledCode whose labelweight exceeds d*t gives a working
scheme for products of d shared secrets, amortized over ell = dim(code)
instances.  Each secret is CNF-shared (one additive share y_T per size-t
server subset T, server j holding every y_T with j not in T).  Every
product of d secrets expands into monomials y_{1,T_1}*...*y_{d,T_d}; a
monomial is locally computable by all servers outside union(T_k), and for
each one a particular solution of G(Lambda) e = u_i scatters coefficients
onto the output coordinates owned by those servers (all solutions come
from one elimination per code and one small elimination per scan for
the pivots Q of a set L of lost rows, which solves for them as it finds
them; see _key_search).  Reconstruction is the single matrix product G z.

Everything is exact field arithmetic; there are no tolerances anywhere in
this module.  All randomness flows through an explicit seeded generator,
so every run is replayable from (seed, inputs).
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, NoReturn

from . import budget
from .budget import LABELWEIGHT_BUDGET, MONOMIAL_BUDGET, PRIVACY_BUDGET
from .codes import LabeledCode, code_from_text, code_to_text, labelweight
from .errors import (
    DecodeError,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    FieldMismatch,
    InsufficientLabelweight,
    MissingShare,
    ParameterOutOfRange,
)
from .galois import MAX_TABLE_ORDER, FieldSpec, first_outside, randrange_run
from .matrix import _eliminate, _row_ops
from .matrix import solve_many  # noqa: F401  unused, but perfbench/tracing.py patches hss.solve_many

SCHEME_FORMAT_TAG = "labelweight-hss-scheme/v1"


@dataclass(frozen=True)
class HssParams:
    """Scheme parameters: s servers, t privacy, degree d, amortization ell,
    m variables per instance, over the given field."""

    s: int
    t: int
    d: int
    ell: int
    m: int
    spec: FieldSpec

    def __post_init__(self):
        if self.t < 1 or self.d < 1:
            raise ParameterOutOfRange(f"t and d must both be >= 1, got t={self.t}, d={self.d}")
        if self.s - self.d * self.t <= 0:
            raise ParameterOutOfRange(f"need s > d*t, got s={self.s}, d*t={self.d * self.t}")
        if self.ell < 1:
            raise ParameterOutOfRange(f"ell must be >= 1, got ell={self.ell}")
        if self.m < self.d:
            raise ParameterOutOfRange(f"need m >= d, got m={self.m}, d={self.d}")


class MonomialId(NamedTuple):
    """One product monomial: instance index and a tuple of d share subsets."""

    instance: int
    subsets: tuple[tuple[int, ...], ...]

    def union(self) -> frozenset[int]:
        return frozenset().union(*self.subsets)


@functools.cache
def subsets_of_size(s: int, t: int) -> tuple[tuple[int, ...], ...]:
    """All size-t subsets of servers 1..s as sorted tuples, ordered lexicographically.

    Computed once per (s, t): sharing, protocol.simulate and eval_server
    then hold the very same subset objects, so comparing fragment keys
    against a server's held subsets is a pointer comparison.
    """
    return tuple(itertools.combinations(range(1, s + 1), t))


@functools.cache
def held_subsets(s: int, t: int, j: int) -> tuple[tuple[int, ...], ...]:
    """The subsets_of_size(s, t) that server j holds the share of (j not in
    T), in that order.  Computed once per (s, t, j), so a ShareVector laid
    out for server j is recognised by one `is` test."""
    return tuple(itertools.compress(subsets_of_size(s, t), _held_mask(s, t, j)))


@functools.cache
def _held_mask(s: int, t: int, j: int) -> tuple[bool, ...]:
    """held_mask of subsets_of_size(s, t) for server j, computed once per
    (s, t, j): held_subsets and share_all_secrets compress by it."""
    return tuple(held_mask(subsets_of_size(s, t), j))


class ShareVector(Mapping):
    """Shares of one secret held positionally: shares[n] is y_T for T =
    subsets[n].

    A read-only mapping T -> y_T that iterates its subsets in order and
    equals the dict of the same items.  Looking a share up by key builds
    an index on first use; sharing, the wire and eval_server pass the
    share list through without one.
    """

    __slots__ = ("subsets", "shares", "_index")

    def __init__(self, subsets: Sequence[tuple[int, ...]], shares: Sequence[int]):
        if len(subsets) != len(shares):
            raise DimensionMismatch(f"{len(shares)} shares for {len(subsets)} subsets")
        self.subsets, self.shares, self._index = subsets, shares, None

    def __getitem__(self, T: tuple[int, ...]) -> int:
        if self._index is None:
            self._index = {U: n for n, U in enumerate(self.subsets)}
        return self.shares[self._index[T]]

    def __iter__(self):
        return iter(self.subsets)

    def __len__(self) -> int:
        return len(self.subsets)


@functools.cache
def secret_positions(ell: int, m: int) -> Mapping[tuple[int, int], int]:
    """Position n of secret (i, k) in a ServerView: (instance, variable)
    order.  Computed once per (ell, m), read-only."""
    return MappingProxyType({key: n for n, key in enumerate(itertools.product(range(1, ell + 1), range(1, m + 1)))})


class ServerView(Mapping):
    """One server's fragments of several secrets in one share sequence:
    the secret at position n of `positions` has its shares over the h
    subsets of `held` at shares[n*h : (n+1)*h].  A read-only mapping
    secret -> ShareVector in position order, equal to the dict of the
    same items.  When q <= 256 the sequence is one bytes object: the
    dealer's view is sent as the server's INPUT_SHARES payload, and the
    server wraps the decoded payload bytes as they are, so neither side
    converts or copies them.  eval_server slices it without building a
    ShareVector.
    """

    __slots__ = ("held", "positions", "shares")

    def __init__(self, held: tuple, positions: Mapping[tuple[int, int], int], shares: Sequence[int]):
        if len(shares) != len(held) * len(positions):
            raise DimensionMismatch(f"{len(shares)} shares for {len(positions)} secrets of {len(held)} subsets")
        self.held, self.positions, self.shares = held, positions, shares

    def __getitem__(self, key: tuple[int, int]) -> ShareVector:
        n, h = self.positions[key], len(self.held)
        return ShareVector(self.held, self.shares[n * h : (n + 1) * h])

    def __iter__(self):
        return iter(self.positions)

    def __len__(self) -> int:
        return len(self.positions)


def _share_vector(x: int, stream: Iterable[int], spec: FieldSpec) -> Sequence[int]:
    """CNF shares aligned with subsets_of_size, in the form of spec.codes:
    the stream values, then the one share that makes the total x.  When
    p = 2 and the shares are bytes the field sum is XOR of codes, and the
    last share is the XOR of the drawn bytes read as one int and folded in
    halves."""
    drawn = spec.codes(stream)
    if spec.p == 2 and isinstance(drawn, bytes):
        return drawn + bytes((_xor_fold(drawn) ^ x,))
    return drawn + spec.codes((spec.sub(x, functools.reduce(spec.add, drawn, 0)),))


def _xor_fold(codes: bytes) -> int:
    """The XOR of all the bytes: the int they spell, halved and XORed until
    one byte is left."""
    value, n = int.from_bytes(codes, "little"), len(codes)
    while n > 1:
        n = (n + 1) // 2
        value = (value >> 8 * n) ^ (value & ((1 << 8 * n) - 1))
    return value


def _code_of_secret(spec: FieldSpec, x, key: tuple[int, int] | None = None) -> int:
    """spec.code_of(x), its error prefixed with "secret" and the secret's
    (instance, variable) `key`, if given: a value that is no code of the
    field raises ParameterOutOfRange, an element of another field
    FieldMismatch."""
    try:
        return spec.code_of(x)
    except (ValueError, FieldMismatch) as exc:
        kind = FieldMismatch if isinstance(exc, FieldMismatch) else ParameterOutOfRange
        raise kind(f"secret {exc}" if key is None else f"secret {key} {exc}") from None


def _secret_codes(params: HssParams, secrets: Sequence[Sequence]) -> list[list[int]]:
    """The ell x m secret matrix as element codes, each named by its
    (instance, variable) if it is rejected."""
    if len(secrets) != params.ell or any(len(row) != params.m for row in secrets):
        raise DimensionMismatch(f"secret matrix must be {params.ell} x {params.m}")
    spec = params.spec
    return [[_code_of_secret(spec, x, (i, k)) for k, x in enumerate(row, 1)] for i, row in enumerate(secrets, 1)]


def cnf_share(x, t: int, s: int, spec: FieldSpec, rng: random.Random) -> dict[tuple[int, ...], int]:
    """Replicated t-private sharing of one secret (an int in 0..q-1 or an
    element of spec).

    Returns the full share map {T: y_T}; server j's fragment is every
    entry with j not in T (see held_mask).
    """
    if not 1 <= t < s:
        raise ParameterOutOfRange(f"need 1 <= t < s, got t={t}, s={s}")
    code = _code_of_secret(spec, x)
    subsets = subsets_of_size(s, t)
    return dict(zip(subsets, _share_vector(code, randrange_run(rng, spec.q, len(subsets) - 1), spec)))


def held_mask(subsets: Iterable[tuple[int, ...]], j: int) -> list[bool]:
    """Which of `subsets` server j holds the share of: those with j not in T.

    Compressing subsets_of_size by this mask gives held_subsets, the order
    of server j's fragments and of its INPUT_SHARES payload (see
    protocol.simulate).
    """
    return [j not in T for T in subsets]


def enumerate_monomials(params: HssParams):
    """All product monomials, plus the subset union of each subset combo.

    Ordering is instance-major, then lexicographic on the subset tuple.
    The first value is a Monomials sequence, which builds each MonomialId
    when it is read; the second the list whose entry c is the union of
    combo c (itertools.product order) as a bitmask, bit v set for server
    v in it: a monomial is locally computable by exactly the servers
    outside its combo's union.  _synthesize reads only the unions.  Past
    the monomial budget, raises EnumerationBudgetExceeded.
    """
    subsets = subsets_of_size(params.s, params.t)
    monomials = Monomials(params.ell, subsets, params.d)
    budget.check(len(monomials), MONOMIAL_BUDGET, "monomials")
    masks = [sum(1 << v for v in T) for T in subsets]
    unions = [0]
    for _ in range(params.d):
        unions = [union | mask for union in unions for mask in masks]
    return monomials, unions


class Monomials(Sequence):
    """MonomialId(i, combo) for every instance i in 1..ell and d-tuple
    combo of `subsets` (itertools.product order), instance-major, each
    built when it is read; no combo is held."""

    def __init__(self, ell: int, subsets: Sequence[tuple[int, ...]], d: int):
        self.ell, self.subsets, self.d = ell, subsets, d

    def __len__(self) -> int:
        return self.ell * len(self.subsets) ** self.d

    def __getitem__(self, n: int) -> MonomialId:
        if not 0 <= n < len(self):
            raise IndexError(n)
        c = len(self.subsets)  # n = (i - 1) * c^d + the combo's subset positions as d base-c digits
        return MonomialId(n // c**self.d + 1, tuple(self.subsets[n // c**e % c] for e in reversed(range(self.d))))

    def __iter__(self):
        ell, subsets, d = self.ell, self.subsets, self.d
        return (MonomialId(i, combo) for i in range(1, ell + 1) for combo in itertools.product(subsets, repeat=d))


class KeySolutions(NamedTuple):
    """The Eval coefficients of a scheme from _synthesize: [R | E] = `work`
    and its pivot columns B = `basis` (see _key_search) once, and per
    distinct (L, Q) key, in first-seen order, its rows L (`lost`)
    and Z_Q = R[L, Q]^-1 E[L] (`solved`: each coordinate of Q, in order,
    maps to its ell coefficients, instance i at entry i - 1, in the form
    of FieldSpec.codes).  combo_key[c] is the key of subset combo c,
    in itertools.product(subsets_of_size(s, t), repeat=d) order, so
    monomial (i, combo c) has coefficient column(r)[combo_key[c]][i - 1]
    at coordinate r.
    """

    spec: FieldSpec
    work: list[list[int]]
    basis: list[int]
    lost: list[tuple[int, ...]]
    solved: list[dict[int, Sequence[int]]]
    combo_key: list[int]

    def column(self, r: int) -> list[Sequence[int]]:
        """Every key's ell coefficients at coordinate r: its Z_Q row at r
        in Q, E[j] - R[j, Q] Z_Q at a kept pivot r = B[j] (j not in L),
        zero elsewhere; that support lies inside every union of the key."""
        ell = len(self.work)
        zero = self.spec.codes(bytes(ell))
        if r not in self.basis:
            return [rows.get(r, zero) for rows in self.solved]
        j = self.basis.index(r)
        row, axpy = self.work[j], _row_ops(self.spec)[1]

        def kept(rows: dict[int, Sequence[int]]) -> Sequence[int]:
            z = row[len(row) - ell :]
            for c, zc in rows.items():
                if row[c]:
                    z = axpy(row[c], z, zc)
            return self.spec.codes(z)

        return [zero if j in lost else kept(rows) for lost, rows in zip(self.lost, self.solved)]


@dataclass
class HssScheme:
    """A synthesized scheme: code, parameters, and the Eval coefficients
    as KeySolutions (`solutions`), the one stored form.

    eval_table[r] maps each monomial to its coefficient in the output
    polynomial z_r computed by server labeling(r), nonzero coefficients
    only.  It is expanded from the keys on first read and cached; it
    serves inspection and the benchmark's counters, while the v1
    document and evaluation read the keys.  eval_server builds, on a
    server's first call, the coefficients of each coordinate it owns from
    the keys and caches them here: when q <= 256, one int per digit-bit
    plane (bit b of base-p digit e of every coefficient, one byte per
    tensor position, instance i - 1 in bit (i - 1) % 8, groups of 8
    instances concatenated; see eval_server), above, one dense tensor per
    instance.  A scheme is therefore treated as immutable once it has
    been read or evaluated: editing its keys afterwards reaches neither
    the table nor the tensors.
    """

    params: HssParams
    code: LabeledCode
    solutions: KeySolutions = field(repr=False)
    labelweight_verified: bool = True
    _eval_table: dict | None = field(default=None, init=False, repr=False, compare=False)
    # server id -> (held subsets, per owned coordinate: its plane ints, or its tensors by instance,
    # whether any coefficient is nonzero)
    _tensors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def eval_table(self) -> dict[int, dict[MonomialId, int]]:
        if self._eval_table is None:
            self._eval_table = _expand_keys(self.params, self.n, self.solutions)
        return self._eval_table


def _expand_keys(params: HssParams, n: int, solutions: KeySolutions) -> dict[int, dict[MonomialId, int]]:
    """The per-monomial table of the keys, column by column: each nonzero
    coefficient stored for every monomial of its (key, instance) group."""
    members: list[list[tuple]] = [[] for _ in solutions.solved]
    combos = itertools.product(subsets_of_size(params.s, params.t), repeat=params.d)
    for combo, k in zip(combos, solutions.combo_key):
        members[k].append(combo)
    groups = [[[MonomialId(i, combo) for combo in group] for i in range(1, params.ell + 1)] for group in members]
    table: dict[int, dict[MonomialId, int]] = {r: {} for r in range(n)}
    for r in range(n):
        for row, by_instance in zip(solutions.column(r), groups):
            for coeff, group in zip(row, by_instance):
                if coeff:
                    table[r].update(dict.fromkeys(group, coeff))
    return table


def synthesize_eval(code: LabeledCode, params: HssParams) -> HssScheme:
    """Solve the Eval coefficients for the product-of-d-secrets family.

    Monomials whose subset unions share an (L, Q) key get the same
    coefficients, kept once per key as KeySolutions (see _key_search).
    Raises InsufficientLabelweight if the code's labelweight is below
    d*t + 1: by the exhaustive check when q <= 256 and q^ell fits the
    budget, otherwise on the first union in solve order whose columns
    lack rank (every d*t servers are the union of d t-subsets, so a code
    of labelweight at most d*t always leaves one).  labelweight_verified
    records whether the exhaustive check ran.
    """
    if params.spec != code.spec:
        raise ParameterOutOfRange("params and code disagree on the field")
    if params.ell != code.dim:
        raise ParameterOutOfRange(f"ell={params.ell} must equal code dimension {code.dim}")
    if params.s != code.s:
        raise ParameterOutOfRange(f"s={params.s} must equal labeling server count {code.s}")

    need = params.d * params.t + 1
    verified = code.spec.q <= MAX_TABLE_ORDER and budget.fits(code.spec.q**code.dim, LABELWEIGHT_BUDGET)
    if verified:
        lw = labelweight(code)
        if lw < need:
            raise InsufficientLabelweight(f"labelweight {lw} < {need}")
    return HssScheme(params, code, _synthesize(code, params), labelweight_verified=verified)


def _synthesize(code: LabeledCode, params: HssParams) -> KeySolutions:
    """The KeySolutions of `params` over `code`: synthesize_eval without its checks."""
    return _key_search(code, params, enumerate_monomials(params)[1])


def _key_search(code: LabeledCode, params: HssParams, unions: list[int]) -> KeySolutions:
    """The KeySolutions of `unions`: one elimination of [G | I], then one
    small elimination per scan, which finds a union's key (L, Q) and
    solves for its Z_Q.

    The elimination takes [G | I] to [R | E]: R = rref(G) with pivot
    columns B (one per row: LabeledCode checks that G has full row rank),
    E = G[:, B]^-1, so G = G[:, B] R and any columns of G and of R have
    the same leftmost pivots.  For a union, L are the rows of R whose
    pivot lies at a server in it (looked up by `union & pivot servers`);
    every other pivot stays one.  A scan row-reduces [R[L, free] | E[L]]
    over the free coordinates (those outside B) outside the union, in
    increasing order, until every row holds a pivot.  Its pivot columns
    are Q, the first coordinates whose projections R[L, c] are
    independent of the earlier ones', and its E part is then
    Z_Q = R[L, Q]^-1 E[L].  A scan notes the servers `seen` of every free
    coordinate up to its last pivot, read or skipped: a later union with
    the same L that holds the same of them (union & seen) would take the
    same path, so it takes that key without a scan.  The unions are
    walked in union_order, the keys numbered in first-seen order, and the
    first union whose coordinates lack rank raises InsufficientLabelweight.
    """
    spec, ell, n, labels = code.spec, params.ell, code.n, code.labeling.map
    work = [row + [int(i == j) for j in range(ell)] for i, row in enumerate(code.generator.data)]
    basis = _eliminate(spec, work, range(n))
    free = [c for c in range(n) if c not in basis]
    owners = [labels[c] for c in free]
    projected = [[row[c] for c in free] + row[n:] for row in work]  # [R[j, free] | E[j]]
    reach = list(itertools.accumulate((1 << v for v in owners), operator.or_))  # the servers of free[: i + 1]

    def scan(at: int, union: int) -> tuple[int, tuple, dict[int, Sequence[int]]]:
        lost = tuple(j for j, b in enumerate(basis) if at >> labels[b] & 1)
        rows = [projected[j] for j in lost]
        pivots = _eliminate(spec, rows, (i for i, v in enumerate(owners) if not union >> v & 1))
        if len(pivots) < len(lost):
            lam = [v for v in range(1, params.s + 1) if not union >> v & 1]
            need = params.d * params.t + 1
            raise InsufficientLabelweight(f"columns labeled {lam} have rank below {ell}; labelweight < {need}")
        chosen = tuple(free[i] for i in pivots)
        z_rows = dict(zip(chosen, (spec.codes(row[len(free) :]) for row in rows)))
        return reach[pivots[-1]] if pivots else 0, (lost, chosen), z_rows

    pivot_servers = functools.reduce(operator.or_, (1 << labels[b] for b in basis), 0)
    scans: dict[int, list[tuple[int, int, int]]] = {}  # a union's pivot servers -> per scan: seen, union & seen, key
    keys: dict[tuple, tuple[int, dict[int, Sequence[int]]]] = {}  # (L, Q) -> its index and Z_Q
    key_of: dict[int, int] = {}
    for union in sorted(set(unions), key=union_order):
        at = union & pivot_servers
        paths = scans.setdefault(at, [])
        for seen, excluded, k in paths:
            if union & seen == excluded:
                break
        else:
            seen, key, z_rows = scan(at, union)
            k = keys.setdefault(key, (len(keys), z_rows))[0]
            paths.append((seen, union & seen, k))
        key_of[union] = k
    solved = [z_rows for _, z_rows in keys.values()]
    return KeySolutions(spec, work, basis, [lost for lost, _ in keys], solved, list(map(key_of.__getitem__, unions)))


_MEMBERS_FIRST = str.maketrans("01", "10")


def union_order(union: int) -> str:
    """Sort key of a union bitmask in the order of its sorted member list:
    character v is "0" for a member v and "1" otherwise, up to the highest
    member, so the first member decides and a prefix sorts first."""
    return bin(union)[:1:-1].translate(_MEMBERS_FIRST)


def scheme_for_code(code: LabeledCode, t: int, d: int, m: int | None = None) -> HssScheme:
    """Convenience: parameters induced by a code (ell = dim, s from labeling)."""
    params = HssParams(code.s, t, d, code.dim, m if m is not None else d, code.spec)
    return synthesize_eval(code, params)


def default_monomial(params: HssParams) -> tuple[int, ...]:
    """Variable indices of the canonical product: the first d of m variables."""
    return tuple(range(1, params.d + 1))


def eval_server(scheme: HssScheme, j: int, views: dict, var_indices: tuple[int, ...] | None = None) -> list[int]:
    """Server j's output shares, one per coordinate it owns.

    `views` maps (instance, variable) to that secret's fragment, a
    mapping {T: y_T with j not in T}; var_indices picks which of the m
    variables feed the d product slots (repetition allowed).

    Each output share z_r is a fixed d-linear form in the shares:
    z_r = sum over instances i and held-subset tuples (a_1, ..., a_d) of
    T_{r,i}[a] * W_i[a], where W_i[a] = y_{i,1}[a_1] * ... * y_{i,d}[a_d]
    is the share-product tensor and T_{r,i} the coefficient tensor of
    _build_tensors, both row-major over held_subsets(s, t, j).  When
    q <= 256 both sides are split into digit-bit planes (T_{e,b}: bit b of
    base-p digit e; W_{f,g} likewise) packed one position per byte,
    instance i - 1 in bit (i - 1) % 8 and groups of 8 instances
    concatenated, so that with alpha = x, the generator of the
    polynomial basis, and the fold classes (m, w, P) of _PlaneTables,

        z_r = sum_m alpha^m * ((sum over classes (m, w, P) of
              w * popcount(XOR of T_{e,b} & W_{f,g} over P)) mod p),

    P holding plane pairs with e + f = m and 2^(b+g) = w mod p: the
    popcount of their XOR is the sum of their counts mod p (for p = 2 only
    its parity).  The share planes come from one translate per lane
    string and packed table (_plane_bytes).
    Fields above 256 contract the tensors through FieldSpec calls.  The
    tensors are built on server j's first call and cached on the scheme
    (see HssScheme).  If no key carries a nonzero coefficient at any
    coordinate server j owns, every z_r is always 0: the views are still
    checked as below, then zeros are returned without share products.

    A ServerView over held_subsets(s, t, j), as share_all_secrets and
    protocol.simulate produce, is checked once and sliced, a ShareVector
    over that tuple has its share list read as it is, and any other
    fragment is read by key in that order.  The first share missing, in
    (instance, slot, subset) order, raises MissingShare, whatever the
    other shares of its products are; a share that is not an element code
    in 0..q-1 raises ParameterOutOfRange.
    """
    params = scheme.params
    if not 1 <= j <= params.s:
        raise ParameterOutOfRange(f"server id j={j} outside 1..s={params.s}")
    chosen = default_monomial(params) if var_indices is None else tuple(var_indices)
    if len(chosen) != params.d or any(not 1 <= v <= params.m for v in chosen):
        raise ParameterOutOfRange(f"need d={params.d} variable indices in 1..{params.m}")
    small = params.spec.q <= MAX_TABLE_ORDER
    if j not in scheme._tensors:
        held, tensors = _build_tensors(scheme, j)
        entries = itertools.chain.from_iterable(tensors)  # plane ints, or per-instance tensors above 256
        scheme._tensors[j] = held, tensors, any(entries) if small else any(map(any, entries))
    held, tensors, live = scheme._tensors[j]
    slots = _slot_vectors(views, held, params.ell, chosen, j, params.spec.q)
    if not live:
        return [0] * len(tensors)
    contract = _contract_planes if small else _contract_by_field
    return contract(params.spec, tensors, slots, len(held))


def _build_tensors(scheme: HssScheme, j: int):
    """The subsets server j holds, and for each coordinate r it owns the
    coefficients of z_r.

    T_{r,i}, z_r's coefficient tensor on instance i, has C(s-1, t)^d
    entries, indexed row-major by the d held subsets of a monomial
    (positions in `held`): entry a is the coefficient at r of the key of
    that combo (KeySolutions.column).  When q <= 256, r's entry is one
    int per digit-bit plane (_bit_planes of T_{r,1}, ..., T_{r,ell}),
    k * bit_length(p - 1) of them; above, the list of the ell tensors as
    tuples.  A coordinate that no key carries a nonzero coefficient at is
    always zero: it gets zero planes (zero tensors above 256) without a
    join or a plane build.
    """
    params, solutions, ell = scheme.params, scheme.solutions, scheme.params.ell
    held = held_subsets(params.s, params.t, j)
    # the key of every combo of held subsets, in product order: the held
    # entries of each row of combos whose first d - 1 subsets are held
    mask, row = _held_mask(params.s, params.t, j), len(subsets_of_size(params.s, params.t))
    offsets = list(itertools.compress(range(0, row * row, row), mask))  # a * row for each held subset a
    starts = [0]
    for _ in range(params.d - 1):
        starts = [start * row + offset for start in starts for offset in offsets]
    held_rows = (itertools.compress(solutions.combo_key[start : start + row], mask) for start in starts)
    held_keys = list(itertools.chain.from_iterable(held_rows))
    small = params.spec.q <= MAX_TABLE_ORDER
    tables, size = _plane_tables(params.spec) if small else None, len(held_keys)
    zeros = [0] * len(tables.planes) if small else [(0,) * size] * ell
    tensors = []
    for r in scheme.code.labeling.coords(j):
        column = solutions.column(r)
        if not any(map(any, column)):
            tensors.append(zeros)
            continue
        # combo-major, instance-minor: instance i's tensor is every ell-th entry
        joined = params.spec.concat(map(column.__getitem__, held_keys))
        per_instance = [joined[i::ell] for i in range(ell)]
        if small:
            strings = _lane_strings(tables, per_instance, size)
            per_instance = _bit_planes(tables, [_plane_bytes(tables, (s,)) for s in strings], size)
        tensors.append(per_instance)
    return held, tensors


def _slot_vectors(
    views: Mapping, held: tuple, ell: int, chosen: tuple[int, ...], j: int, q: int
) -> list[list[Sequence[int]]]:
    """Per instance, the share vectors of its d product slots, aligned
    with `held`: bytes when q <= 256, lists of ints above, every share
    checked to be an element code in 0..q-1.  A ServerView over `held` is
    converted and checked as a whole and sliced; if that fails, it is
    read key by key like any other view, every fragment before any
    check, which names the fault in eval_server's order."""
    convert = bytes if q <= MAX_TABLE_ORDER else lambda shares: list(map(operator.index, shares))
    if isinstance(views, ServerView) and views.held is held:
        try:
            whole, at, h = convert(views.shares), views.positions, len(held)
            if first_outside(whole, q) is None:
                return [[whole[at[(i, v)] * h : (at[(i, v)] + 1) * h] for v in chosen] for i in range(1, ell + 1)]
        except (KeyError, TypeError, ValueError):
            pass
    vectors: dict[tuple[int, int], Sequence] = {}
    for key in dict.fromkeys((i, v) for i in range(1, ell + 1) for v in chosen):
        try:
            fragment = views[key]
            if isinstance(fragment, ShareVector) and fragment.subsets is held:
                vectors[key] = fragment.shares
            else:
                vectors[key] = [fragment[T] for T in held]
        except KeyError as exc:
            T = next(T for T in held if T not in views.get(key, {}))
            raise MissingShare(f"server {j} lacks share {T} of secret {key}") from exc
    for key, shares in vectors.items():
        try:
            vectors[key] = convert(shares)
        except (TypeError, ValueError):
            _share_outside(shares, q, j, key)
        if first_outside(vectors[key], q) is not None:
            _share_outside(vectors[key], q, j, key)
    return [[vectors[(i, v)] for v in chosen] for i in range(1, ell + 1)]


def _share_outside(shares: Sequence, q: int, j: int, key: tuple[int, int]) -> NoReturn:
    bad = first_outside(shares, q)
    raise ParameterOutOfRange(f"server {j}: share {bad!r} of secret {key} is outside 0..{q - 1} (q={q})")


class _PlaneTables(NamedTuple):
    """Translate tables of the digit-bit planes of a field with q <= 256.

    Tensors are packed `lanes` instances to a byte before they are split
    into planes: entry a of instance s * lanes + l sits in bits
    l * width .. (l + 1) * width - 1 of byte a of lane string s, with
    width = bit_length(q - 1) and lanes the largest power of two with
    lanes * width <= 8 (8 for GF(2), 2 for GF(9), 1 above 16).  A byte of
    a lane string translates, by packed[c], into the bits of up to
    8 // lanes planes at once: plane c * (8 // lanes) + m's bit of lane l
    in bit m * lanes + l.  One table covers every field but GF(125) and
    GF(243), whose planes times lanes exceed 8.  composed[c][u] is scale[u]
    then packed[c], so a share product's last step writes plane bytes.
    A fold class (m, weight, pairs) XORs the ANDs of its plane pairs (n, o)
    before one popcount, as counts matter mod p: one class per alpha^m for
    p = 2 (XOR keeps parity), per digit pair and weight for p = 3 (one-hot
    digit bit planes make the XORed planes disjoint), per pair for p >= 5.
    """

    planes: list[tuple[int, int]]  # (digit e, bit b) of each plane
    width: int
    lanes: int
    scale: list[bytes]  # scale[u] multiplies lane l of a byte by lane l of u
    packed: list[bytes]  # packed[c][u]: the bits of planes c * (8 // lanes) onward of byte u
    composed: list[list[bytes]]  # composed[c][u]: scale[u], then packed[c]
    classes: list[tuple[int, int, list[tuple[int, int]]]]  # (m, weight, plane pairs (n, o)) of each fold class
    powers: list[int]  # alpha^m for m = 0..2k-2


@functools.cache
def _plane_tables(spec: FieldSpec) -> _PlaneTables:
    p, q, k, mul = spec.p, spec.q, spec.k, spec.tables().mul
    planes = [(e, b) for e in range(k) for b in range((p - 1).bit_length())]
    width = (q - 1).bit_length()
    lanes = 1 << ((8 // width).bit_length() - 1)
    mask = (1 << width) - 1
    lane = [bytes(u >> l * width & mask for u in range(256)) for l in range(lanes)]

    def by_lane(l: int, column: bytes, shift: int) -> int:
        """The 256 bytes u -> column[lane l of u] << shift (0 past the
        column's end), as one int."""
        return int.from_bytes(lane[l].translate(column.ljust(256, b"\0")), "little") << shift

    # scaled[l][c]: c times lane l of each byte, kept in lane l (lanes holding q..mask never occur)
    scaled = [
        [by_lane(l, mul[c * q : (c + 1) * q], l * width) for c in range(q)] + [0] * (mask + 1 - q)
        for l in range(lanes)
    ]
    scale = [sum(scaled[l][u >> l * width & mask] for l in range(lanes)).to_bytes(256, "little") for u in range(256)]
    digit_bits = [bytes(y // p**e % p >> b & 1 for y in range(q)) for e, b in planes]
    per_byte = 8 // lanes
    packed = [
        sum(
            by_lane(l, column, m * lanes + l)
            for m, column in enumerate(digit_bits[first : first + per_byte])
            for l in range(lanes)
        ).to_bytes(256, "little")
        for first in range(0, len(planes), per_byte)
    ]
    classes: dict[tuple, tuple[int, int, list]] = {}
    for (n, (e, b)), (o, (f, g)) in itertools.product(enumerate(planes), repeat=2):
        fold = (e + f,) if p == 2 else (e, f, (b + g) % 2) if p == 3 else (n, o)
        classes.setdefault(fold, (e + f, pow(2, b + g, p), []))[2].append((n, o))
    powers = [1]
    for _ in range(2 * k - 2):
        powers.append(mul[powers[-1] * q + p])  # times alpha, whose code is p
    composed = [[row.translate(table) for row in scale] for table in packed]
    return _PlaneTables(planes, width, lanes, scale, packed, composed, list(classes.values()), powers)


def _lane_strings(tables: _PlaneTables, tensors: Sequence[Sequence[int]], size: int) -> list[bytes]:
    """The tensors of `size` entries each (one per instance, in order),
    packed tables.lanes to a byte (see _PlaneTables)."""
    width, lanes = tables.width, tables.lanes
    strings = []
    for s in range(0, len(tensors), lanes):
        ints = map(int.from_bytes, tensors[s : s + lanes], itertools.repeat("little"))
        strings.append(sum(map(operator.lshift, ints, range(0, lanes * width, width))).to_bytes(size, "little"))
    return strings


def _bit_planes(tables: _PlaneTables, strings: Sequence[Sequence[bytes]], size: int) -> list[int]:
    """One int per digit-bit plane n of lane strings of `size` bytes, each
    given as its plane bytes, one translate per packed table
    (_plane_bytes): bit 8 * (size * (i // 8) + a) + i % 8 is plane n's bit
    of entry a of instance i (counted from 0).  A plane's bits come out of
    the plane bytes with a mask (none for GF(2), where lanes == 8) and a
    shift into the string's lanes of its group's bytes."""
    lanes, count = tables.lanes, len(tables.planes)
    per_byte = 8 // lanes  # planes per packed byte, and lane strings per group of 8 instances
    masks = _lane_masks(lanes, size) if lanes < 8 else None
    planes = [0] * count
    for s, translated in enumerate(strings):
        offset = 8 * size * (s // per_byte) + s % per_byte * lanes  # where the string's lanes go
        for c, plane_bytes in enumerate(translated):
            word = int.from_bytes(plane_bytes, "little")
            if masks is None:  # GF(2): one plane, its lanes in place
                planes[0] |= word << offset
                continue
            first = c * per_byte
            for m, mask in enumerate(masks[: count - first]):
                bits, shift = word & mask, offset - m * lanes
                planes[first + m] |= bits << shift if shift >= 0 else bits >> -shift
    return planes


@functools.lru_cache(maxsize=4)
def _lane_masks(lanes: int, size: int) -> tuple[int, ...]:
    """masks[m]: bits m * lanes .. (m + 1) * lanes - 1 of each of `size`
    bytes, as one int."""
    low = (1 << lanes) - 1
    return tuple(int.from_bytes(bytes([low << m * lanes]) * size, "little") for m in range(8 // lanes))


def _plane_bytes(tables: _PlaneTables, columns: Sequence[bytes]) -> list[bytes]:
    """The lane string of the row-major tensor y_1 (x) ... (x) y_d of the
    d slot vectors' lane strings, translated by each packed table: from the
    last slot back, the tensor of slots k..d is that of slots k+1..d scaled
    by each byte of slot k in turn, laid end to end (lane products commute),
    slot 1 by the composed tables.  A lone column is translated as it is."""
    product = columns[-1]
    if len(columns) == 1:
        return [product.translate(table) for table in tables.packed]
    for column in reversed(columns[1:-1]):
        product = b"".join(map(product.translate, map(tables.scale.__getitem__, column)))
    return [b"".join(map(product.translate, map(rows.__getitem__, columns[0]))) for rows in tables.composed]


def _contract_planes(spec: FieldSpec, tensors, slots, h: int) -> list[int]:
    """z_r for each owned coordinate, by the popcount identity of
    eval_server: one popcount per fold class of plane pairs."""
    tables = _plane_tables(spec)
    p, q, add, mul = spec.p, spec.q, spec.tables().add, spec.tables().mul
    d = len(slots[0])
    columns = [_lane_strings(tables, [vectors[k] for vectors in slots], h) for k in range(d)]
    shares = _bit_planes(tables, [_plane_bytes(tables, lane) for lane in zip(*columns)], h**d)
    out = []
    for coefficients in tensors:
        sums = [0] * len(tables.powers)  # sums[m]: the coefficient of alpha^m, mod p
        for m, weight, pairs in tables.classes:
            folded = 0
            for n, o in pairs:
                if coefficients[n]:
                    folded ^= coefficients[n] & shares[o]
            if folded:
                sums[m] += folded.bit_count() * weight
        z = 0
        for total, power in zip(sums, tables.powers):
            z = add[z * q + mul[total % p * q + power]]
        out.append(z)
    return out


def _contract_by_field(spec: FieldSpec, tensors, slots, h: int) -> list[int]:
    """z_r through FieldSpec calls, for fields too large to tabulate:
    entry c of tensor(r, i) at row-major position (a_1, ..., a_d) adds
    c * y_1[a_1] * ... * y_d[a_d]."""
    acc = [0] * len(tensors)
    for i, vectors in enumerate(slots):
        for index, shares in enumerate(itertools.product(*vectors)):
            w = functools.reduce(spec.mul, shares)
            if w:
                for n, per_instance in enumerate(tensors):
                    acc[n] = spec.add(acc[n], spec.mul(w, per_instance[i][index]))
    return acc


def reconstruct(scheme: HssScheme, z: Sequence[int]) -> list[int]:
    """G z: the ell recovered outputs from the concatenated output shares."""
    if len(z) != scheme.n:
        raise DimensionMismatch(f"expected {scheme.n} output shares, got {len(z)}")
    return scheme.code.generator.matvec(list(z))


def share_all_secrets(params: HssParams, secrets: Sequence[Sequence], rng: random.Random):
    """CNF-share an ell x m secret matrix; returns (bundles, per-server views).

    Each secret is an int in 0..q-1 or an element of the scheme's field;
    any other value raises before a share is drawn.  Secrets are shared
    independently in (instance, variable) order, so a fixed seed
    reproduces the exact same share values.  bundles[(i, k)] is the full
    share map of secret (i, k), a ShareVector over subsets_of_size(s, t);
    views[j] is server j's ServerView of every secret over
    held_subsets(s, t, j), its shares one bytes object when q <= 256:
    protocol.simulate sends that object as server j's INPUT_SHARES
    payload as it is.  Both iterate in (instance, variable) order.  The
    subsets server j holds are picked by one mask cached per (s, t, j).
    """
    grid = _secret_codes(params, secrets)
    spec, subsets = params.spec, subsets_of_size(params.s, params.t)
    positions = secret_positions(params.ell, params.m)
    count, free = len(positions), len(subsets) - 1
    draws = randrange_run(rng, spec.q, count * free)
    bundles, vectors = {}, []
    for n, (i, k) in enumerate(positions):
        shares = _share_vector(grid[i - 1][k - 1], draws[n * free : (n + 1) * free], spec)
        bundles[(i, k)] = ShareVector(subsets, shares)
        vectors.append(shares)
    every_share = spec.concat(vectors)
    # by_subset[c]: subset c's share of every secret, in position order
    by_subset = [every_share[c :: len(subsets)] for c in range(len(subsets))]
    views = {}
    for j in range(1, params.s + 1):
        held = held_subsets(params.s, params.t, j)
        # the columns of the subsets j holds, then every count-th entry: one run per secret
        subset_major = spec.concat(itertools.compress(by_subset, _held_mask(params.s, params.t, j)))
        views[j] = ServerView(held, positions, spec.concat(subset_major[n::count] for n in range(count)))
    return bundles, views


def collect_output_shares(scheme: HssScheme, per_server: dict[int, list[int]]) -> list[int]:
    """Merge per-server output vectors into code coordinate order (keyed by
    server id, so any arrival order gives the same result)."""
    z: list[int | None] = [None] * scheme.n
    for j in range(1, scheme.params.s + 1):
        coords = scheme.code.labeling.coords(j)
        got = per_server.get(j)
        if got is None or len(got) != len(coords):
            raise MissingShare(f"missing or short output vector from server {j}")
        for pos, r in enumerate(coords):
            z[r] = got[pos]
    return z  # type: ignore[return-value]


class RunResult(NamedTuple):
    outputs: list[int]
    expected: list[int]
    ok: bool


def run_end_to_end(
    scheme: HssScheme,
    secrets: Sequence[Sequence],
    seed: int,
    var_indices: tuple[int, ...] | None = None,
) -> RunResult:
    """Share, evaluate and reconstruct once; compares against the directly
    computed products.  Correctness is exact: ok is plain equality."""
    params = scheme.params
    spec = params.spec
    chosen = default_monomial(params) if var_indices is None else tuple(var_indices)
    rng = random.Random(seed)
    grid = _secret_codes(params, secrets)
    _, views = share_all_secrets(params, grid, rng)
    per_server = {j: eval_server(scheme, j, views[j], chosen) for j in range(1, params.s + 1)}
    outputs = reconstruct(scheme, collect_output_shares(scheme, per_server))
    expected = []
    for i in range(params.ell):
        prod = 1 % spec.q
        for k in chosen:
            prod = spec.mul(prod, grid[i][k - 1])
        expected.append(prod)
    return RunResult(outputs, expected, outputs == expected)


def scheme_rate(scheme: HssScheme) -> Fraction:
    """Exact download rate ell/n; checked against the (s - dt)/s ceiling."""
    params = scheme.params
    value = Fraction(params.ell, scheme.n)
    ceiling = Fraction(params.s - params.d * params.t, params.s)
    if value > ceiling:
        raise ParameterOutOfRange(
            f"rate {value} exceeds linear-scheme ceiling {ceiling} (s={params.s}, d*t={params.d * params.t})"
        )
    return value


# -- privacy ------------------------------------------------------------------


@dataclass
class PrivacyCheck:
    subset: tuple[int, ...]
    x: int
    x_prime: int
    equal: bool


@dataclass
class PrivacyReport:
    s: int
    t: int
    field: str
    randomness_space: int
    checks: list[PrivacyCheck]

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.checks)


def privacy_audit(t: int, s: int, spec: FieldSpec) -> PrivacyReport:
    """Exhaustive distribution-equality audit of the sharing stage.

    For every size-t server subset T and every secret pair (x, x'), walk
    the entire randomness space and compare the exact multisets of T's
    joint views.  Sharing is per-secret independent, so a single-secret
    audit covers every batch size and product degree.  Past the privacy
    budget, raises EnumerationBudgetExceeded.
    """
    if not 1 <= t < s:
        raise ParameterOutOfRange(f"need 1 <= t < s, got t={t}, s={s}")
    subsets = subsets_of_size(s, t)
    free = len(subsets) - 1
    budget.check(spec.q**free * spec.q, PRIVACY_BUDGET, "share assignments")

    # distributions[x][T] counts the view tuples T observes across all randomness
    distributions: list[dict[tuple[int, ...], Counter]] = []
    for x in range(spec.q):
        per_subset: dict[tuple[int, ...], Counter] = {T: Counter() for T in subsets}
        for stream in itertools.product(range(spec.q), repeat=free):
            shares = dict(zip(subsets, _share_vector(x, stream, spec)))
            for T in subsets:
                # T's joint view is every share except its own missing y_T
                view = tuple(shares[U] for U in subsets if U != T)
                per_subset[T][view] += 1
        distributions.append(per_subset)

    checks = []
    for T in subsets:
        for x in range(spec.q):
            for x_prime in range(x + 1, spec.q):
                checks.append(
                    PrivacyCheck(T, x, x_prime, distributions[x][T] == distributions[x_prime][T])
                )
    return PrivacyReport(s, t, spec.describe(), spec.q**free, checks)


# -- serialization --------------------------------------------------------------


def _format_subsets(subsets: tuple[tuple[int, ...], ...]) -> str:
    return "/".join(",".join(str(v) for v in T) for T in subsets)


def scheme_to_text(scheme: HssScheme) -> str:
    """Canonical textual form; round-trips byte-identically."""
    return "\n".join(_canonical_lines(scheme)) + "\n"


def _canonical_lines(scheme: HssScheme) -> Iterator[str]:
    """The lines of scheme_to_text: the header, the code document, then
    one row per nonzero Eval coefficient in (coordinate, instance, subset
    combo) order, streamed from the keys' columns without the eval_table."""
    p, solutions = scheme.params, scheme.solutions
    code_lines = code_to_text(scheme.code).splitlines()
    yield from (
        SCHEME_FORMAT_TAG,
        f"s {p.s}",
        f"t {p.t}",
        f"d {p.d}",
        f"l {p.ell}",
        f"m {p.m}",
        f"labelweight-verified {1 if scheme.labelweight_verified else 0}",
        f"code-lines {len(code_lines)}",
        *code_lines,
    )
    names = [_format_subsets(combo) for combo in itertools.product(subsets_of_size(p.s, p.t), repeat=p.d)]
    for r in range(scheme.n):
        column = solutions.column(r)
        for i in range(p.ell):
            coeffs = [row[i] for row in column]
            for name, coeff in zip(names, map(coeffs.__getitem__, solutions.combo_key)):
                if coeff:
                    yield f"eval {r} {i + 1} {name} {coeff}"


def scheme_from_text(text: str) -> HssScheme:
    """Read a scheme document by synthesizing the scheme it names.

    The Eval and the labelweight-verified flag are fixed by the embedded
    code and (t, d, m): the reader builds the scheme by synthesize_eval,
    as the writer did, and parses no eval row and no flag, so a document
    reads back under the enumeration budget it was written with.  The
    document must be that scheme's canonical text, or DecodeError names
    its first line that differs: a header value, the flag, a code line or
    an eval row, even one of another valid Eval; lines are compared as
    the text is scanned.  Parameters that admit no scheme raise
    DecodeError("bad scheme parameters: ...").
    """
    lines = (line.group().removesuffix("\n").removesuffix("\r") for line in re.finditer(r".*\n|.+", text))
    # the tag and seven header lines, then code-lines lines of code document, then the rows
    head = list(itertools.islice(lines, 8))
    if not head or head[0] != SCHEME_FORMAT_TAG:
        raise DecodeError(f"missing {SCHEME_FORMAT_TAG} header")
    header = dict(line.partition(" ")[::2] for line in head[1:])
    try:
        t, d, m, count = (int(header[key]) for key in ("t", "d", "m", "code-lines"))
        code_lines = list(itertools.islice(lines, count))
    except (KeyError, ValueError) as exc:
        raise DecodeError(f"bad scheme header: {exc}") from exc
    code = code_from_text("\n".join(code_lines) + "\n")
    try:
        scheme = synthesize_eval(code, HssParams(code.s, t, d, code.dim, m, code.spec))
    except (ParameterOutOfRange, EnumerationBudgetExceeded, InsufficientLabelweight) as exc:
        raise DecodeError(f"bad scheme parameters: {exc}") from exc
    document = itertools.chain(head, code_lines, lines)
    for n, (got, want) in enumerate(itertools.zip_longest(document, _canonical_lines(scheme)), 1):
        if got != want:
            raise DecodeError(f"line {n}: {got!r} is not {want!r}, the canonical line of the synthesized scheme")
    return scheme
