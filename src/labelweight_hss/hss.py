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
import math
import operator
import random
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import budget
from .budget import MONOMIAL_BUDGET, PRIVACY_BUDGET, SHARE_BUDGET
from .codes import LabeledCode, code_from_text, code_to_text
from .codes import labelweight  # noqa: F401  unused, but perfbench/tracing.py patches hss.labelweight
from .errors import (
    DecodeError,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    InsufficientLabelweight,
    MissingShare,
    ParameterOutOfRange,
)
from .galois import FieldSpec, first_outside, integer_parameter, randrange_run
from .matrix import _eliminate, _row_ops
from .matrix import solve_many  # noqa: F401  unused, but perfbench/tracing.py patches hss.solve_many

SCHEME_FORMAT_TAG = "labelweight-hss-scheme/v3"
# The plane bytes a scheme keeps of its servers' evaluation states (see server_state)
STATE_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class HssParams:
    """Scheme parameters: s servers, t privacy, degree d, amortization ell,
    m variables per instance, over the given field.  Each count is read by
    integer_parameter and stored as that int."""

    s: int
    t: int
    d: int
    ell: int
    m: int
    spec: FieldSpec

    def __post_init__(self):
        for name in ("s", "t", "d", "ell", "m"):
            object.__setattr__(self, name, integer_parameter(name, getattr(self, name)))
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

    Computed once per (s, t): the order of every secret's shares, as
    share_all_secrets lays them out.
    """
    return tuple(itertools.combinations(range(1, s + 1), t))


@functools.cache
def held_subsets(s: int, t: int, j: int) -> tuple[tuple[int, ...], ...]:
    """The subsets_of_size(s, t) that server j holds the share of, in that
    order: the order of each secret's shares in server j's view.  Computed
    once per (s, t, j)."""
    return tuple(itertools.compress(subsets_of_size(s, t), held_mask(s, t, j)))


@functools.cache
def held_mask(s: int, t: int, j: int) -> tuple[bool, ...]:
    """Which of subsets_of_size(s, t) server j holds the share of (j not in
    T), computed once per (s, t, j): the order of server j's fragments and
    of its INPUT_SHARES payload (see protocol.simulate)."""
    return tuple(j not in T for T in subsets_of_size(s, t))


@functools.cache
def held_runs(s: int, t: int, j: int) -> tuple[tuple[int, int], ...]:
    """The maximal runs [start, stop) of subsets_of_size(s, t) positions
    that held_mask(s, t, j) marks, in order, computed once per (s, t, j):
    share_all_secrets cuts server j's view from them."""
    runs, start = [], 0
    for held, group in itertools.groupby(held_mask(s, t, j)):
        stop = start + sum(1 for _ in group)
        if held:
            runs.append((start, stop))
        start = stop
    return tuple(runs)


def _share_vector(x: int, stream: Iterable[int], spec: FieldSpec) -> Sequence[int]:
    """CNF shares aligned with subsets_of_size, in the form of spec.codes:
    the stream values, then the one share that makes the total x.  When
    p = 2 the field sum is XOR of codes, and the last share is the XOR of
    the drawn bytes read as one int and folded in halves."""
    drawn = spec.codes(stream)
    if spec.p == 2:
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
    """spec.code_of(x), its ValueError raised as ParameterOutOfRange
    prefixed with "secret" and the secret's (instance, variable) `key`, if
    given."""
    try:
        return spec.code_of(x)
    except ValueError as exc:
        raise ParameterOutOfRange(f"secret {exc}" if key is None else f"secret {key} {exc}") from None


def _secret_codes(params: HssParams, secrets: Sequence[Sequence]) -> list[bytes]:
    """The ell x m secret matrix as rows of element codes (bytes), each
    secret named by its (instance, variable) if it is rejected.  Rows that
    are such codes already, as this returns them, are taken as they are
    after one range check of them all, so a matrix is read once however
    many readers it passes."""
    if len(secrets) != params.ell or any(len(row) != params.m for row in secrets):
        raise DimensionMismatch(f"secret matrix must be {params.ell} x {params.m}")
    spec = params.spec
    if all(type(row) is bytes for row in secrets) and first_outside(b"".join(secrets), spec.q) is None:
        return list(secrets)
    grid = [[_code_of_secret(spec, x, (i, k)) for k, x in enumerate(row, 1)] for i, row in enumerate(secrets, 1)]
    return [spec.codes(row) for row in grid]


def cnf_share(x, t: int, s: int, spec: FieldSpec, rng: random.Random) -> dict[tuple[int, ...], int]:
    """Replicated t-private sharing of one secret, an element code of spec.

    Returns the full share map {T: y_T}; server j's fragment is every
    entry with j not in T (see held_mask).
    """
    t, s = integer_parameter("t", t), integer_parameter("s", s)
    if not 1 <= t < s:
        raise ParameterOutOfRange(f"need 1 <= t < s, got t={t}, s={s}")
    code = _code_of_secret(spec, x)
    subsets = subsets_of_size(s, t)
    return dict(zip(subsets, _share_vector(code, randrange_run(rng, spec.q, len(subsets) - 1), spec)))


def enumerate_monomials(params: HssParams) -> tuple[range, list[int]]:
    """All product monomials, as their indices, plus the subset union of
    each subset combo.

    The ell * C(s, t)^d monomials are checked against the monomial budget
    before any subset is built (past it, EnumerationBudgetExceeded).
    Monomial n is MonomialId(n // C(s, t)^d + 1, combo n % C(s, t)^d):
    instance-major, the d-tuples of subsets_of_size(s, t) in
    itertools.product order.  The second value is the list whose entry c
    is the union of combo c as a bitmask, bit v set for server v in it: a
    monomial is locally computable by exactly the servers outside its
    combo's union.  _synthesize hands the unions to _key_search.
    """
    count = params.ell * math.comb(params.s, params.t) ** params.d
    budget.check(count, MONOMIAL_BUDGET, "monomials")
    masks = [sum(1 << v for v in T) for T in subsets_of_size(params.s, params.t)]
    unions = [0]
    for _ in range(params.d):
        unions = [union | mask for union in unions for mask in masks]
    return range(count), unions


class KeySolutions(NamedTuple):
    """The Eval coefficients of a scheme from _synthesize: [R | E] = `work`
    and its pivot columns B = `basis` (see _key_search) once, and per
    distinct (L, Q) key its rows L (`lost`) and Z_Q = R[L, Q]^-1 E[L]
    (`solved`: each coordinate of Q, in order, maps to its ell
    coefficients, instance i at entry i - 1; these rows and those of
    `work` are bytes, as matrix takes them).  combo_key[c] is the key of
    subset combo c, in itertools.product(subsets_of_size(s, t), repeat=d)
    order, and the keys are numbered by the first combo that takes them,
    so monomial (i, combo c) has coefficient
    column(r)[combo_key[c]][i - 1] at coordinate r.
    """

    spec: FieldSpec
    work: list[Sequence[int]]
    basis: list[int]
    lost: list[tuple[int, ...]]
    solved: list[dict[int, Sequence[int]]]
    combo_key: list[int]

    def column(self, r: int) -> list[Sequence[int]]:
        """Every key's ell coefficients at coordinate r: its Z_Q row at r
        in Q, E[j] - R[j, Q] Z_Q at a kept pivot r = B[j] (j not in L),
        zero elsewhere; that support lies outside every union of the key.
        The kept rows of keys with the same Q are matrix._row_ops derives
        of up to 256 rows laid end to end, one term per coordinate of Q."""
        ell = len(self.work)
        zero = bytes(ell)
        if r not in self.basis:
            return [rows.get(r, zero) for rows in self.solved]
        row, derive = self.work[j := self.basis.index(r)], _row_ops(self.spec)[2]
        by_chosen: dict[tuple, list[int]] = {}
        for k, (lost, rows) in enumerate(zip(self.lost, self.solved)):
            if j not in lost:
                by_chosen.setdefault(tuple(rows), []).append(k)
        out, e = [zero] * len(self.solved), row[len(row) - ell :]  # E[j]
        for chosen, keys in by_chosen.items():
            for start in range(0, len(keys), 256):
                part = keys[start : start + 256]
                terms = [(c, b"".join([self.solved[k][c] for k in part])) for c in chosen]
                joined = derive(e * len(part), row, terms)
                for k, at in zip(part, range(0, len(joined), ell)):
                    out[k] = joined[at : at + ell]
        return out


@dataclass
class HssScheme:
    """A synthesized scheme: code, parameters, and the Eval coefficients
    as KeySolutions (`solutions`), the one stored form.

    eval_table[r] maps each monomial to its coefficient in the output
    polynomial z_r computed by server labeling(r), nonzero coefficients
    only.  It is expanded from the keys on first read and cached; it
    serves inspection and the benchmark's counters, while the scheme
    document and evaluation read the keys.  Each server's evaluation
    state (server_state: the coefficient planes of the coordinates it
    owns, and what its evaluation reads besides) is built from the keys on
    its first use and kept in `_states` while the planes of every kept
    state fit in STATE_CACHE_BYTES; a state that does not fit is built,
    used and dropped.  A scheme is therefore treated as immutable once it
    has been read or evaluated: editing its keys afterwards reaches
    neither the table nor a kept state.
    """

    params: HssParams
    code: LabeledCode
    solutions: KeySolutions = field(repr=False)
    # server id -> its ServerState, planes of STATE_CACHE_BYTES at most in all
    _states: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.code.n

    @functools.cached_property
    def eval_table(self) -> dict[int, dict[MonomialId, int]]:
        return _expand_keys(self.params, self.n, self.solutions)


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
    The key search is the labelweight proof (the paper's
    characterization): G has rank ell outside every set of t..d*t
    servers, as it checks, exactly when the labelweight exceeds d*t, so
    a weaker code raises its InsufficientLabelweight.
    """
    if params.spec != code.spec:
        raise ParameterOutOfRange("params and code disagree on the field")
    if params.ell != code.dim:
        raise ParameterOutOfRange(f"ell={params.ell} must equal code dimension {code.dim}")
    if params.s != code.s:
        raise ParameterOutOfRange(f"s={params.s} must equal labeling server count {code.s}")
    return HssScheme(params, code, _synthesize(code, params))


def _synthesize(code: LabeledCode, params: HssParams) -> KeySolutions:
    """synthesize_eval without its parameter checks: the key search of
    every subset combo's union."""
    return _key_search(code, params, enumerate_monomials(params)[1])


def _key_search(code: LabeledCode, params: HssParams, unions: list[int]) -> KeySolutions:
    """The KeySolutions of `unions` (repeats allowed), combo_key[c] being
    the key of unions[c]: one elimination of [G | I], then one small
    elimination per scan, which finds a union's key (L, Q) and its Z_Q.

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
    same path, so it takes that key without a scan.  The distinct unions
    are walked in first-seen order, which numbers the keys, and the first
    union whose coordinates lack rank raises InsufficientLabelweight.
    """
    spec, ell, n, labels = code.spec, params.ell, code.n, code.labeling.map
    work = [spec.codes(row + [int(i == j) for j in range(ell)]) for i, row in enumerate(code.generator.data)]
    basis = _eliminate(spec, work, range(n))
    free = [c for c in range(n) if c not in basis]
    owners = [labels[c] for c in free]
    projected = [spec.codes([*map(row.__getitem__, free), *row[n:]]) for row in work]  # [R[j, free] | E[j]]
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
        z_rows = dict(zip(chosen, (row[len(free) :] for row in rows)))
        return reach[pivots[-1]] if pivots else 0, (lost, chosen), z_rows

    pivot_servers = functools.reduce(operator.or_, (1 << labels[b] for b in basis), 0)
    scans: dict[int, list[tuple[int, int, int]]] = {}  # a union's pivot servers -> per scan: seen, union & seen, key
    keys: dict[tuple, tuple[int, dict[int, Sequence[int]]]] = {}  # (L, Q) -> its index and Z_Q
    union_key = dict.fromkeys(unions)
    for union in union_key:
        at = union & pivot_servers
        paths = scans.setdefault(at, [])
        for seen, excluded, k in paths:
            if union & seen == excluded:
                break
        else:
            seen, key, z_rows = scan(at, union)
            k = keys.setdefault(key, (len(keys), z_rows))[0]
            paths.append((seen, union & seen, k))
        union_key[union] = k
    solved = [z_rows for _, z_rows in keys.values()]
    return KeySolutions(spec, work, basis, [lost for lost, _ in keys], solved, list(map(union_key.get, unions)))


def scheme_for_code(code: LabeledCode, t: int, d: int, m: int | None = None) -> HssScheme:
    """Convenience: parameters induced by a code (ell = dim, s from labeling)."""
    params = HssParams(code.s, t, d, code.dim, m if m is not None else d, code.spec)
    return synthesize_eval(code, params)


def product_variables(params: HssParams, var_indices: Iterable[int] | None = None) -> tuple[int, ...]:
    """The variables that feed the d product slots: var_indices
    (repetition allowed), by default the first d of the m variables.
    Anything but d indices in 1..m, each read by operator.index as secrets
    are (a bool is an int), raises ParameterOutOfRange."""
    chosen = tuple(range(1, params.d + 1)) if var_indices is None else tuple(var_indices)
    try:
        chosen = tuple(map(operator.index, chosen))
    except TypeError:  # an index operator.index refuses, as 1.5 or "1"
        chosen = ()
    if len(chosen) != params.d or min(chosen) < 1 or max(chosen) > params.m:
        raise ParameterOutOfRange(f"need d={params.d} variable indices in 1..{params.m}")
    return chosen


def eval_server(
    scheme: HssScheme, j: int, view: Sequence[int], var_indices: tuple[int, ...] | None = None
) -> bytes:
    """Server j's output shares as bytes, one code per coordinate it owns.

    `view` is server j's share sequence, as share_all_secrets gives it
    and protocol.simulate decodes it from the INPUT_SHARES payload: for
    each secret (i, k) in (instance, variable) order, its shares y_T over
    held_subsets(s, t, j), ell * m * C(s - 1, t) codes in all.
    var_indices picks the variables that feed the d product slots (see
    product_variables).

    Each output share z_r is a fixed d-linear form in the shares:
    z_r = sum over instances i and held-subset tuples (a_1, ..., a_d) of
    T_{r,i}[a] * W_i[a], where W_i[a] = y_{i,1}[a_1] * ... * y_{i,d}[a_d]
    is the share-product tensor and T_{r,i} the coefficient tensor of
    server_state, both row-major over held_subsets(s, t, j).  Both
    sides are split into digit-bit planes (T_{e,b}: bit b of base-p
    digit e; W_{f,g} likewise) in the one layout of _bit_planes, lane
    strings of instances cut into position blocks, so that with
    alpha = x, the generator of the polynomial basis, and the fold
    classes (m, w, P) of _PlaneTables,

        z_r = sum_m alpha^m * ((sum over classes (m, w, P) of
              w * popcount(XOR of T_{e,b} & W_{f,g} over P)) mod p),

    P holding plane pairs with e + f = m and 2^(b+g) = w mod p: the
    popcount of their XOR is the sum of their counts mod p (for p = 2 only
    its parity).  The checked view is read once (_view_lanes): each lane
    group's d slot strings, from which the share planes come by one
    translate per lane string and packed table (_plane_bytes).  Everything
    else the evaluation reads is server j's state (server_state), built
    on its first call.  If its planes are all zero (no key is nonzero at a
    coordinate server j owns), every z_r is always 0: the view is still
    checked as below, then zeros are returned without reading it.

    The whole view is checked before any share is read or any state is
    built: a view of another length raises DimensionMismatch, and a share
    that is not an element code in 0..q-1, in a secret the product reads
    or not, raises ParameterOutOfRange naming it and its secret.  A view
    holds what FieldSpec.codes keeps: byte values.
    """
    params = scheme.params
    j = _server_id(params, j)
    chosen = product_variables(params, var_indices)
    whole = _checked_view(view, held_subsets(params.s, params.t, j), params, j)
    state = server_state(scheme, j)
    if not state.live:
        return bytes(len(state.planes))
    groups = _view_lanes(state.tables, whole, state.h, params.m, chosen)
    return bytes(_contract_planes(state.tables, state.planes, groups, state.h))


def _server_id(params: HssParams, j) -> int:
    """j as a server id in 1..s (else ParameterOutOfRange), read by
    integer_parameter."""
    j = integer_parameter("j", j)
    if not 1 <= j <= params.s:
        raise ParameterOutOfRange(f"server id j={j} outside 1..s={params.s}")
    return j


class ServerState(NamedTuple):
    """What evaluating server j reads that (scheme, j) fixes (server_state)."""

    h: int  # held subsets, C(s - 1, t)
    planes: list[list[int]]  # per coordinate j owns, in order, its coefficient planes
    live: bool  # some plane is nonzero; else every output share is 0
    tables: _PlaneTables  # the plane and field tables the evaluation reads
    plane_bytes: int  # the planes' bytes, as STATE_CACHE_BYTES counts them


def server_state(scheme: HssScheme, j: int) -> ServerState:
    """Server j's evaluation state, built once from (scheme, j).

    T_{r,i}, z_r's coefficient tensor on instance i, has C(s-1, t)^d
    entries, indexed row-major by the d held subsets of a monomial
    (positions in held_subsets(s, t, j)): entry a is the coefficient at r
    of the key of that combo (KeySolutions.column).  Each coordinate r
    that j owns gets one int per digit-bit plane of T_{r,1}, ...,
    T_{r,ell} in the layout of _bit_planes, k * bit_length(p - 1) of
    them (_coordinate_planes); a coordinate no key is nonzero at gets
    zero planes, which count no bytes.

    A state is kept in the scheme's `_states` if its plane bytes fit in
    STATE_CACHE_BYTES beside those of the states kept before it, and is
    otherwise dropped after use.  The first to come are kept because every
    run evaluates the servers in the same order: evicting the oldest state
    would drop each one just before its next use.
    """
    j = _server_id(scheme.params, j)
    state = scheme._states.get(j)
    if state is None:
        state = _build_state(scheme, j)
        if state.plane_bytes + sum(kept.plane_bytes for kept in scheme._states.values()) <= STATE_CACHE_BYTES:
            scheme._states[j] = state
    return state


def _build_state(scheme: HssScheme, j: int) -> ServerState:
    """server_state without the cache: server j's state built from the keys."""
    params, solutions = scheme.params, scheme.solutions
    tables, h = _plane_tables(params.spec), len(held_subsets(params.s, params.t, j))
    size, zeros, planes = h**params.d, [0] * len(tables.planes), []
    for r in scheme.code.labeling.coords(j):
        rows = _packed_rows(tables, solutions.column(r))
        if any(map(any, rows)):
            # j lies outside every union of a key nonzero at r, so held combos take that key and a plane is nonzero
            planes.append(_coordinate_planes(tables, rows, _held_keys(params, solutions.combo_key, j), size))
        else:
            planes.append(zeros)
    live = sum(coordinate is not zeros for coordinate in planes)
    per_plane = -(-size // (8 // tables.lanes)) * -(-params.ell // tables.lanes)  # Q bytes per lane string
    return ServerState(h, planes, live > 0, tables, live * len(tables.planes) * per_plane)


def _held_keys(params: HssParams, combo_key: Sequence[int], j: int) -> Iterator[int]:
    """The key of every combo of d subsets server j holds, in product
    order, a row at a time: the held entries of each row of combos whose
    first d - 1 subsets are held."""
    mask, row = held_mask(params.s, params.t, j), len(subsets_of_size(params.s, params.t))
    held = list(itertools.compress(range(row), mask))
    starts = map(sum, itertools.product(*([a * row**e for a in held] for e in range(params.d - 1, 0, -1))))
    return itertools.chain.from_iterable(itertools.compress(combo_key[a : a + row], mask) for a in starts)


def _packed_rows(tables: _PlaneTables, column: Sequence[bytes]) -> list[bytes]:
    """Each key's row of a KeySolutions column (ell coefficients, instance
    i at entry i - 1) packed tables.lanes to a byte as _lane_strings packs
    instances: byte s of a packed row is the key's entry of lane string s.
    With one lane to a byte (q > 16) a row is its own packing, so the
    column is returned as it is.  Otherwise equal rows are one object, and
    only the distinct rows, far fewer than the keys (340 of 2,300 at
    goppa u = 5 (1, 3)'s first coordinate), are packed: 256 at a time,
    each padded to a whole number of lane strings, by one shifted sum of
    one int per lane."""
    lanes, width, ell = tables.lanes, tables.width, len(column[0])
    if lanes == 1:
        return column
    strings, pad, distinct = -(-ell // lanes), bytes(-ell % lanes), list(dict.fromkeys(column))
    packed = {}
    for start in range(0, len(distinct), 256):
        chunk = distinct[start : start + 256]
        joined = pad.join(chunk) + pad
        value = sum(int.from_bytes(joined[l::lanes], "little") << l * width for l in range(lanes))
        data = value.to_bytes(len(chunk) * strings, "little")
        packed.update(zip(chunk, (data[at : at + strings] for at in range(0, len(data), strings))))
    return list(map(packed.__getitem__, column))


def _coordinate_planes(tables: _PlaneTables, rows: Sequence[bytes], keys: Iterator[int], size: int) -> list[int]:
    """The planes of one coordinate: _bit_planes of its lane strings of
    `size` entries, entry a of lane string s being byte s of rows[k] for
    the a-th of `keys` (_packed_rows), built a position block at a time
    so that no lane string is held whole.  Block r of every lane string is
    filled a run of positions at a time (one join of packed rows, one
    translate per packed table, one strided slice per lane string) into a
    buffer per table, which is then word r of its table; _transposed makes
    the words planes.  So the build holds the planes, one block's buffers
    and one run: bytes.join takes about 100 bytes per row it joins, and a
    run of word / 400 positions (256 at least) holds about a quarter of a
    word."""
    strings, per_byte = len(rows[0]), 8 // tables.lanes
    block = -(-size // per_byte)
    run = max(256, block * strings // 400)
    words: list[list[int]] = [[] for _ in tables.packed]
    for start in range(0, per_byte * block, block):
        buffers = [bytearray(block * strings) for _ in tables.packed]
        stop = min(start + block, size)
        for a in range(start, stop, run):
            n = min(run, stop - a)
            joined = b"".join(map(rows.__getitem__, itertools.islice(keys, n)))  # position-major
            for buffer, table in zip(buffers, tables.packed):
                moved = joined.translate(table)
                for g in range(strings):  # lane string g's block starts at byte g * block of the buffer
                    at = g * block + a - start
                    buffer[at : at + n] = moved[g::strings]
        for row, buffer in zip(words, buffers):
            row.append(int.from_bytes(buffer, "little"))
    return _transposed(tables, words, block * strings)


def _checked_view(view: Sequence[int], held: tuple, params: HssParams, j: int) -> bytes:
    """Server j's view as bytes, once the whole of it is checked: its
    length is ell * m * len(held) (else DimensionMismatch), and every share
    is an element code in 0..q-1 as FieldSpec.codes keeps it (else
    ParameterOutOfRange, naming the first bad share and its secret)."""
    spec, q, m, h = params.spec, params.spec.q, params.m, len(held)
    if len(view) != params.ell * m * h:
        layout = f"{params.ell * m} secrets x {h} held subsets"
        raise DimensionMismatch(f"server {j}: view holds {len(view)} shares, not {params.ell * m * h} ({layout})")
    try:
        whole = spec.codes(view)
    except (TypeError, ValueError):  # a share that no byte holds
        whole = list(view)
    if first_outside(whole, q) is not None:
        n = next(n for n, y in enumerate(whole) if first_outside((y,), q) is not None)
        i, k = divmod(n // h, m)
        raise ParameterOutOfRange(
            f"server {j}: share {whole[n]!r} of secret {(i + 1, k + 1)} is outside 0..{q - 1} (q={q})"
        )
    return whole


def _view_lanes(tables: _PlaneTables, whole: bytes, h: int, m: int, chosen: tuple[int, ...]) -> list[tuple[bytes, ...]]:
    """Per lane group of instances (see _PlaneTables), the lane strings of
    its d product slots, each of the h held subsets, from a checked view
    (_checked_view) of m variables per instance: each instance's row is
    one slice of the view, _lane_strings packs the rows in one pass, and
    each group's string is cut at the chosen variables (_view_plan)."""
    rows, span, cuts = _view_plan(len(whole), h, m, chosen)
    strings = _lane_strings(tables, list(map(whole.__getitem__, rows)), span)
    return [tuple(map(row.__getitem__, cuts)) for row in strings]


@functools.lru_cache(maxsize=64)
def _view_plan(length: int, h: int, m: int, chosen: tuple[int, ...]) -> tuple[list[slice], int, list[slice]]:
    """How _view_lanes reads a view of `length` shares, computed once per
    shape and choice of variables: the slice of each instance's row, its
    variables from the lowest chosen one to the highest, the row's length,
    and the slice of each chosen variable in a row."""
    low, span = min(chosen), (max(chosen) - min(chosen) + 1) * h
    rows = [slice(start, start + span) for start in range((low - 1) * h, length, m * h)]
    return rows, span, [slice((v - low) * h, (v - low + 1) * h) for v in chosen]


class _PlaneTables(NamedTuple):
    """Translate tables of the digit-bit planes of a field.

    Tensors are packed `lanes` instances to a byte before they are split
    into planes: entry a of instance s * lanes + l sits in bits
    l * width .. (l + 1) * width - 1 of byte a of lane string s (lane
    group s), with width = bit_length(q - 1) and lanes the largest power
    of two with lanes * width <= 8 (8 for GF(2), 2 for GF(9), 1 above
    16).  A byte of a lane string translates, by packed[c], into the bits
    of up to 8 // lanes planes at once: plane c * (8 // lanes) + m's bit
    of lane l in bit m * lanes + l (cell m; _bit_planes moves cell m of
    position block r to cell r of plane m).  One table covers every field
    but GF(125) and GF(243), whose planes times lanes exceed 8.
    composed[c][u] is scale[u] then packed[c], so a share product's last
    step writes plane bytes.
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
    p: int
    q: int
    add: bytes  # the field's add and mul tables (FieldSpec.tables)
    mul: bytes


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
    add = spec.tables().add
    return _PlaneTables(planes, width, lanes, scale, packed, composed, list(classes.values()), powers, p, q, add, mul)


def _lane_strings(tables: _PlaneTables, tensors: Sequence[bytes], size: int) -> Sequence[bytes]:
    """The tensors of `size` entries each (one per instance, in order),
    packed tables.lanes to a byte (see _PlaneTables): with one lane to a
    byte (q > 16) the tensors as they are.  One shifted sum and one
    to_bytes pack every group: of one int per tensor of a lone group, else
    of one int per lane, its tensors of every group end to end, then cut."""
    width, lanes = tables.width, tables.lanes
    if lanes == 1:
        return tensors
    columns = [b"".join(tensors[l::lanes]) for l in range(lanes)] if len(tensors) > lanes else tensors
    ints = map(int.from_bytes, columns, itertools.repeat("little"))
    packed = sum(map(operator.lshift, ints, range(0, lanes * width, width))).to_bytes(len(columns[0]), "little")
    return [packed[start : start + size] for start in range(0, len(packed), size)]


def _bit_planes(tables: _PlaneTables, strings: Sequence[Sequence[bytes]], size: int) -> list[int]:
    """One int per digit-bit plane n of lane strings of `size` bytes, each
    given as its plane bytes, one translate per packed table
    (_plane_bytes).  Each string is cut into 8 // lanes position blocks of
    Q = ceil(size / (8 // lanes)) bytes, the last zero-padded: bit
    8 * (s * Q + o) + r * lanes + l is plane n's bit of entry r * Q + o of
    instance s * lanes + l (counted from 0), so a plane holds
    8 * Q * len(strings) bits, however few instances the last string
    holds.  Per packed table, word r joins block r of every string, and
    _transposed makes the words planes."""
    per_byte = 8 // tables.lanes  # planes per packed byte, and position blocks per lane string
    block = -(-size // per_byte)
    cuts = range(0, per_byte * block, block)
    words = []
    for c in range(len(tables.packed)):
        padded = [memoryview(s[c].ljust(per_byte * block, b"\0")) for s in strings]
        words.append([int.from_bytes(b"".join([m[cut : cut + block] for m in padded]), "little") for cut in cuts])
    return _transposed(tables, words, block * len(strings))


def _transposed(tables: _PlaneTables, words: list[list[int]], length: int) -> list[int]:
    """The planes of each packed table's words of `length` bytes, word r
    holding block r of every lane string (see _bit_planes).  A word's
    bytes hold 8 // lanes cells of lanes bits, and plane m wants cell m of
    word r in its cell r: log2(8 // lanes) delta-swap stages transpose the
    cells in place (none for GF(2), whose one block is the whole string),
    and the words are the planes."""
    per_byte = 8 // tables.lanes
    stages = _swap_masks(tables.lanes, length)
    planes = []
    for c, row in enumerate(words):
        for cell, low, pairs in stages:  # swap cell m + step of word r and cell m of word o, m & step == 0
            for r, o in pairs:
                t = ((row[r] >> cell) ^ row[o]) & low
                row[r], row[o] = row[r] ^ t << cell, row[o] ^ t
        planes += row[: len(tables.planes) - c * per_byte]
    return planes


@functools.lru_cache(maxsize=4)
def _swap_masks(lanes: int, size: int) -> tuple[tuple[int, int, list[tuple[int, int]]], ...]:
    """(cell, low, pairs) of _bit_planes' stage for step 4, 2, 1 below
    8 // lanes: cell is step * lanes bits, low the cells m & step == 0 of
    each of `size` bytes as one int, pairs the words (r, r + step) of r & step == 0."""
    stages = []
    for step in (step for step in (4, 2, 1) if step < 8 // lanes):
        pairs = [(r, r + step) for r in range(8 // lanes) if not r & step]
        low = bytes([sum(((1 << lanes) - 1) << r * lanes for r, _ in pairs)]) * size
        stages.append((step * lanes, int.from_bytes(low, "little"), pairs))
    return tuple(stages)


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


def _contract_planes(tables: _PlaneTables, tensors, groups, h: int) -> list[int]:
    """z_r for each owned coordinate, by the popcount identity of
    eval_server: one popcount per fold class of plane pairs.  `groups`
    are the lane strings of each lane group's d slots (_view_lanes)."""
    p, q, add, mul = tables.p, tables.q, tables.add, tables.mul
    shares = _bit_planes(tables, [_plane_bytes(tables, lane) for lane in groups], h ** len(groups[0]))
    out = []
    for coefficients in tensors:
        sums = [0] * len(tables.powers)  # sums[m]: the coefficient of alpha^m, mod p
        for m, weight, pairs in tables.classes:
            folded = 0
            for n, o in pairs:
                if coefficients[n]:
                    term = coefficients[n] & shares[o]
                    folded = folded ^ term if folded else term  # the first AND as it is: 0 ^ term copies it
            if folded:
                sums[m] += folded.bit_count() * weight
        z = 0
        for total, power in zip(sums, tables.powers):
            z = add[z * q + mul[total % p * q + power]]
        out.append(z)
    return out


def reconstruct(scheme: HssScheme, z: Sequence[int]) -> list[int]:
    """G z: the ell recovered outputs from the concatenated output shares."""
    if len(z) != scheme.n:
        raise DimensionMismatch(f"expected {scheme.n} output shares, got {len(z)}")
    return scheme.code.generator.matvec(list(z))


def share_all_secrets(params: HssParams, secrets: Sequence[Sequence], rng: random.Random):
    """CNF-share an ell x m secret matrix; returns (bundles, per-server views).

    Each secret is an element code of the scheme's field; any other value
    raises before a share is drawn.  Secrets are shared
    independently in (instance, variable) order, so a fixed seed
    reproduces the exact same share values.  bundles[(i, k)] is the
    bytes of secret (i, k)'s C(s, t) shares, in subsets_of_size(s, t)
    order; views[j] is server j's view, the bytes of every secret's shares
    over held_subsets(s, t, j) laid end to end in (instance, variable)
    order (see eval_server): protocol.simulate sends that object as server
    j's INPUT_SHARES payload as it is, its subsets picked by held_mask.
    Past the share budget (ell * m * (C(s, t) - 1) draws) none is drawn."""
    grid = _secret_codes(params, secrets)
    spec = params.spec
    keys = list(itertools.product(range(1, params.ell + 1), range(1, params.m + 1)))
    free = math.comb(params.s, params.t) - 1
    budget.check(len(keys) * free, SHARE_BUDGET, "share draws")
    draws = randrange_run(rng, spec.q, len(keys) * free)
    vectors = [
        _share_vector(grid[i - 1][k - 1], draws[n * free : (n + 1) * free], spec) for n, (i, k) in enumerate(keys)
    ]
    return dict(zip(keys, vectors)), _lay_out_views(params, vectors)


def _lay_out_views(params: HssParams, vectors: Sequence[bytes]) -> dict[int, bytes]:
    """Every server's view from the secrets' share vectors (C(s, t) shares
    each, in (instance, variable) order).  The vectors are dealt into one
    subset-major buffer, entry c * count + n being subset c's share of
    secret n; server j's subsets are then one slice of it per held run,
    and each secret's shares one strided slice of those."""
    count = len(vectors)
    buffer = bytearray(count * len(vectors[0]))
    for n, vector in enumerate(vectors):
        buffer[n::count] = vector
    dealt = memoryview(buffer)
    views = {}
    for j in range(1, params.s + 1):
        held = params.spec.concat([dealt[a * count : b * count] for a, b in held_runs(params.s, params.t, j)])
        views[j] = params.spec.concat([held[n::count] for n in range(count)])
    return views


def collect_output_shares(scheme: HssScheme, per_server: dict[int, bytes]) -> list[int]:
    """Merge the servers' output shares (eval_server's bytes) into code
    coordinate order, keyed by server id: any arrival order gives the same.
    An absent vector, or one of another length, raises MissingShare."""
    z: list[int | None] = [None] * scheme.n
    for j in range(1, scheme.params.s + 1):
        coords = scheme.code.labeling.coords(j)
        got = per_server.get(j)
        if got is None:
            raise MissingShare(f"missing output vector from server {j}")
        if len(got) != len(coords):
            raise MissingShare(f"server {j} sent {len(got)} output shares for {len(coords)} owned coordinates")
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
    chosen = product_variables(params, var_indices)
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
    t, s = integer_parameter("t", t), integer_parameter("s", s)
    if not 1 <= t < s:
        raise ParameterOutOfRange(f"need 1 <= t < s, got t={t}, s={s}")
    free = math.comb(s, t) - 1
    budget.check((spec.q, free + 1), PRIVACY_BUDGET, "share assignments")
    subsets = subsets_of_size(s, t)

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


def scheme_to_text(scheme: HssScheme) -> str:
    """Canonical textual form: the tag, the header and the code document.
    The scheme is fixed by its code and (t, d, m), so no Eval row is
    written (see scheme_from_text); round-trips byte-identically."""
    return "\n".join(_canonical_lines(scheme)) + "\n"


def _canonical_lines(scheme: HssScheme) -> list[str]:
    """The lines of scheme_to_text: the tag, six header lines, then the
    code-lines lines of the code document."""
    p = scheme.params
    code_lines = code_to_text(scheme.code).splitlines()
    return [
        SCHEME_FORMAT_TAG,
        f"s {p.s}",
        f"t {p.t}",
        f"d {p.d}",
        f"l {p.ell}",
        f"m {p.m}",
        f"code-lines {len(code_lines)}",
        *code_lines,
    ]


def scheme_from_text(text: str) -> HssScheme:
    """Read a scheme document by synthesizing the scheme it names.

    The Eval is fixed by the embedded code and (t, d, m): the reader
    builds the scheme by synthesize_eval, as the writer did, so a document
    reads back under any enumeration budget that fits its monomials.  The
    document must be that scheme's canonical text, or DecodeError names
    its first line that differs: a header value, a code line, or any line
    after the code document.  A document without the v3 tag (a v1 or v2
    document among them) raises DecodeError, and so do parameters that
    admit no scheme ("bad scheme parameters: ...").
    """
    lines = (line.group().removesuffix("\n").removesuffix("\r") for line in re.finditer(r".*\n|.+", text))
    # the tag and six header lines, then code-lines lines of code document
    head = list(itertools.islice(lines, 7))
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
    document, canonical = itertools.chain(head, code_lines, lines), _canonical_lines(scheme)
    for n, (got, want) in enumerate(itertools.zip_longest(document, canonical), 1):
        if want is None:
            end = f"is past the end of the scheme document, which ends at line {len(canonical)}"
            raise DecodeError(f"line {n}: {got!r} {end}")
        if got != want:
            raise DecodeError(f"line {n}: {got!r} is not {want!r}, the canonical line of the synthesized scheme")
    return scheme
