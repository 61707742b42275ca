"""Linear codes with server labelings, and the concrete constructions.

A LabeledCode pairs a full-row-rank generator matrix with a surjective
labeling of its coordinates onto servers.  The labelweight of a word is
the number of distinct labels its support touches; the labelweight of a
code is the minimum over nonzero codewords, computed here by exhaustive
enumeration (scheme synthesis proves its bound by rank checks instead).
``span_labelweight`` is the one entry to the enumeration kernel: every
such count, a code's or a random generator's, goes through it.

Constructions:

* ``goppa_build``     -- binary Goppa codes from a degree-r polynomial over
                         GF(2^u), via the 1/g-weighted Vandermonde parity
                         check expanded to bits.
* ``hermitian_build`` -- evaluation codes on the q^3 affine points of
                         y^q + y = x^(q+1) over GF(q^2), basis monomials
                         x^a y^b (b < q) ordered by pole order aq + b(q+1).
* ``rs_build``        -- Reed-Solomon baseline.

All three use the identity labeling; synthetic labelings (balanced or
arbitrary) are supported by the machinery for testing.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import budget, kernels
from .budget import LABELWEIGHT_BUDGET
from .errors import BadGoppaPolynomial, DecodeError, DimensionMismatch, FieldTooLarge, ParameterOutOfRange
from .galois import FieldSpec, Polynomial, find_irreducible, integer_parameter, is_irreducible, parse_field
from .galois import prime_power, require_table_order
from .matrix import MatrixF, kernel_basis, rank, rref

CODE_FORMAT_TAG = "labelweight-code/v1"
_CODE_FIELDS = ("field", "n", "dim", "servers", "labeling")


class Labeling:
    """Surjective map from n code coordinates onto servers 1..s."""

    __slots__ = ("n", "s", "map", "_coords")

    def __init__(self, s: int, labels: Sequence[int]):
        s = integer_parameter("s", s)
        labels = tuple(integer_parameter("label", v) for v in labels)
        if s < 1 or len(labels) < s:
            raise ParameterOutOfRange(f"need s <= n, got s={s}, n={len(labels)}")
        outside = next((v for v in labels if not 1 <= v <= s), None)
        if outside is not None:
            raise ParameterOutOfRange(f"label {outside} outside 1..{s}")
        if len(set(labels)) != s:
            raise ParameterOutOfRange("labeling is not surjective")
        self.n = len(labels)
        self.s = s
        self.map = labels
        self._coords: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def identity(cls, n: int) -> "Labeling":
        return cls(n, range(1, n + 1))

    @classmethod
    def balanced(cls, s: int, w: int) -> "Labeling":
        """n = s*w coordinates, first w labeled 1, next w labeled 2, ..."""
        return cls(s, [1 + x // w for x in range(s * w)])

    def coords(self, label: int) -> tuple[int, ...]:
        """The coordinates labeled `label`, in increasing order (none for a
        label outside 1..s), computed for every label on the first call."""
        if self._coords is None:
            by_label: list[list[int]] = [[] for _ in range(self.s)]
            for c, v in enumerate(self.map):
                by_label[v - 1].append(c)
            self._coords = tuple(map(tuple, by_label))
        return self._coords[label - 1] if 1 <= label <= self.s else ()

    def __eq__(self, other) -> bool:
        return isinstance(other, Labeling) and other.s == self.s and other.map == self.map

    def __repr__(self) -> str:
        return f"Labeling(n={self.n}, s={self.s})"


class LabeledCode:
    """A linear code (generator matrix) plus a coordinate labeling."""

    __slots__ = ("spec", "generator", "labeling", "meta")

    def __init__(self, spec: FieldSpec, generator: MatrixF, labeling: Labeling, meta: dict | None = None):
        if generator.spec != spec:
            raise DimensionMismatch("generator field does not match code field")
        if labeling.n != generator.cols:
            raise DimensionMismatch(f"labeling over {labeling.n} coords, generator has {generator.cols}")
        if generator.rows < 1:
            raise ParameterOutOfRange("code dimension must be >= 1")
        if rank(generator) != generator.rows:
            raise ParameterOutOfRange("generator matrix must have full row rank")
        self.spec = spec
        self.generator = generator
        self.labeling = labeling
        self.meta = dict(meta or {})

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def dim(self) -> int:
        return self.generator.rows

    @property
    def s(self) -> int:
        return self.labeling.s

    def rate(self):
        from fractions import Fraction

        return Fraction(self.dim, self.n)

    def __repr__(self) -> str:
        return f"LabeledCode([{self.n},{self.dim}] over GF({self.spec.p}^{self.spec.k}), s={self.s})"


def word_labelweight(labeling: Labeling, word: Sequence[int]) -> int:
    """Number of distinct labels touched by the support of `word`, a
    sequence of element codes."""
    if len(word) != labeling.n:
        raise DimensionMismatch(f"word length {len(word)} != n {labeling.n}")
    return len({label for label, v in zip(labeling.map, word) if int(v)})


def labelweight(code: LabeledCode, word: Sequence | None = None) -> int:
    """Labelweight of one word, or of the whole code when `word` is None.

    The word's entries are element codes of the code's field, each read
    by FieldSpec.code_of.  The whole-code form enumerates every nonzero
    message exhaustively (span_labelweight).
    """
    if word is not None:
        return word_labelweight(code.labeling, [code.spec.code_of(v) for v in word])
    return span_labelweight(code.spec, code.generator.to_bytes(), code.dim, code.labeling)


def min_distance(code: LabeledCode) -> int:
    """Brute-force minimum Hamming distance (labelweight under identity labels)."""
    return span_labelweight(code.spec, code.generator.to_bytes(), code.dim, Labeling.identity(code.n))


def span_labelweight(spec: FieldSpec, rows: Sequence[int], k: int, labeling: Labeling) -> int:
    """Minimum labelweight over the nonzero words of the span of `rows`,
    k x labeling.n element codes of `spec` in row-major order (as
    FieldSpec.codes gives them), by enumeration in
    kernels.min_labelweight.  The q^k messages must fit the labelweight
    budget (check_span).  Rows need not be independent: the zero words
    of kernel messages are skipped, and a span with no nonzero word gives
    labeling.s + 1.  Fields above 256 raise FieldTooLarge.
    """
    check_span(spec.q, k)
    labels0 = bytes(v - 1 for v in labeling.map)
    return kernels.min_labelweight(rows, k, labeling.n, labels0, spec.add_table, spec.tables().mul, spec.q, labeling.s)


def check_span(q: int, k: int) -> None:
    """Refuse a span of k rows over GF(q) whose q^k messages exceed the
    labelweight budget, which only HSS_ENUM_BUDGET overrides."""
    budget.check((q, k), LABELWEIGHT_BUDGET, "messages")


def ball_volume(s: int, w: int, q: int, r: int) -> int:
    """Number of length s*w words whose support touches at most r of the s blocks."""
    if not 0 <= r <= s:
        raise ParameterOutOfRange(f"radius {r} outside 0..{s}")
    block = q**w - 1
    return sum(math.comb(s, i) * block**i for i in range(r + 1))


# -- Goppa ---------------------------------------------------------------


def goppa_condition(u: int, r: int) -> bool:
    """Exact test of 2r - 2 < (2^u - 1) / 2^(u/2).

    Decided in integer arithmetic: both sides are nonnegative, so square
    to (2r-2)^2 * 2^u < (2^u - 1)^2.
    """
    if u < 1 or r < 1:
        raise ParameterOutOfRange("u and r must be >= 1")
    lhs = 2 * r - 2
    if lhs == 0:
        return True
    return lhs * lhs * 2**u < (2**u - 1) ** 2


def goppa_build(
    u: int,
    r: int,
    g: Polynomial | None = None,
    points: Sequence | None = None,
) -> LabeledCode:
    """Binary Goppa code from a degree-r polynomial over GF(2^u).

    `g` defaults to the smallest monic irreducible of degree r with no
    roots on the support (find_irreducible); `points` (element codes of
    GF(2^u)) default to all of GF(2^u).  For r = 1 every monic
    linear polynomial has its root in the full field, so the support
    shrinks by that single root (n = 2^u - 1) instead of failing.  A
    caller-supplied g must be monic, irreducible, of degree r over
    GF(2^u) and nonzero on the support.  The codeword space is the GF(2)
    kernel of the bit-expanded parity check H[j][i] = a_i^j / g(a_i), and
    the labeling is the identity.
    """
    u, r = integer_parameter("u", u), integer_parameter("r", r)
    if u < 1 or r < 1:
        raise ParameterOutOfRange("u and r must be >= 1")
    ext = FieldSpec(2, u)
    if points is None:
        support = list(range(ext.q))
    else:
        support = [ext.code_of(v) for v in points]
        if len(set(support)) != len(support):
            raise ParameterOutOfRange("support points must be distinct")
    if g is None:
        try:
            g = find_irreducible(ext, r, exclude=support)
        except ValueError:
            # Only reachable for r = 1 with the full field as support.
            g = find_irreducible(ext, r)
            support = [v for v in support if g(v)]
    else:
        if g.spec != ext:
            raise BadGoppaPolynomial("polynomial not over GF(2^u)")
        if g.degree != r:
            raise BadGoppaPolynomial(f"degree {g.degree} != {r}")
        if not g.is_monic():
            raise BadGoppaPolynomial("polynomial must be monic")
        if not is_irreducible(g):
            raise BadGoppaPolynomial("polynomial is reducible")
        vanishing = [a for a in support if not g(a)]
        if vanishing:
            raise BadGoppaPolynomial(f"polynomial vanishes on support points {vanishing}")
    n = len(support)
    if n == 0:
        raise ParameterOutOfRange("empty support")

    ginv = [ext.inv(g(a)) for a in support]
    parity = [[ext.mul(ext.pow(a, j), gi) for a, gi in zip(support, ginv)] for j in range(r)]

    binary = FieldSpec(2, 1)
    bits = []
    for row in parity:
        for b in range(u):
            bits.append([ext.coeffs(v)[b] for v in row])
    basis = kernel_basis(MatrixF(binary, bits))
    if not basis:
        raise ParameterOutOfRange(f"Goppa code for u={u}, r={r} has dimension 0")
    generator = MatrixF(binary, basis)
    meta = {
        "family": "goppa",
        "u": u,
        "r": r,
        "g": list(g.coeffs),
        "support": support,
    }
    return LabeledCode(binary, generator, Labeling.identity(n), meta)


# -- Hermitian -----------------------------------------------------------


def hermitian_points(q: int) -> tuple[FieldSpec, list[tuple[int, int]]]:
    """The q^3 affine points of y^q + y = x^(q+1) over GF(q^2).

    Points are ordered by their (x, y) element codes.  Returns the field
    together with the point list.  A q that is no prime power raises
    ParameterOutOfRange, and a field GF(q^2) above 256 FieldTooLarge,
    before any point is built.
    """
    p, e = prime_power(q)
    require_table_order(q * q)
    ext = FieldSpec(p, 2 * e)
    trace = [ext.add(ext.pow(y, q), y) for y in range(ext.q)]
    pts = []
    for x in range(ext.q):
        xq1 = ext.pow(x, q + 1)
        pts.extend((x, y) for y in range(ext.q) if trace[y] == xq1)
    return ext, pts


def hermitian_build(q: int, k: int) -> LabeledCode:
    """Dimension-k evaluation code on the Hermitian curve point set.

    Rows evaluate monomials x^a y^b (0 <= b <= q-1, a <= q^2 + q + 1) in
    increasing pole order a*q + b*(q+1), keeping the first k whose
    evaluations are linearly independent: the first k pivot columns of
    the reduced row echelon form of the points x monomials evaluation
    matrix.  The labeling is the identity.  For k <= q^3 - q(q-1)/2
    nothing is ever skipped (evaluation is injective below pole order n),
    so this is the plain first-k basis there; past that point functions
    like x^(q^2) - x vanish on the whole point set and the skipping keeps
    the generator full rank up to k = q^3.
    """
    q, k = integer_parameter("q", q), integer_parameter("k", k)
    ext, pts = hermitian_points(q)
    n = len(pts)
    if not 1 <= k <= n:
        raise ParameterOutOfRange(f"need 1 <= k <= {n}, got {k}")
    top = q * q + q + 1
    monomials = sorted((a * q + b * (q + 1), a, b) for b in range(q) for a in range(top + 1))
    # powers[v][e] = v^e, for every element v and e <= top
    powers = [[1] * (top + 1) for _ in range(ext.q)]
    for v, row in enumerate(powers):
        for e in range(1, top + 1):
            row[e] = ext.mul(row[e - 1], v)
    evals = [[ext.mul(powers[x][a], powers[y][b]) for x, y in pts] for _, a, b in monomials]
    pivots = rref(MatrixF(ext, list(zip(*evals)))).pivots
    if len(pivots) < k:
        raise ParameterOutOfRange(f"could not collect {k} independent evaluations")
    generator = MatrixF(ext, [evals[c] for c in pivots[:k]])
    meta = {"family": "hermitian", "q": q, "k": k}
    return LabeledCode(ext, generator, Labeling.identity(n), meta)


def hermitian_designed_distance(q: int, k: int) -> int:
    """The distance value q^3 - k - q(q-1)/2 + 1 of the dimension-k code."""
    return q**3 - k - q * (q - 1) // 2 + 1


# -- Reed-Solomon baseline -------------------------------------------------


def rs_build(q: int, n: int, k: int) -> LabeledCode:
    """[n, k] Reed-Solomon code over GF(q), evaluated at element codes 0..n-1."""
    q, n, k = integer_parameter("q", q), integer_parameter("n", n), integer_parameter("k", k)
    if not 1 <= k <= n:
        raise ParameterOutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    p, e = prime_power(q)
    spec = FieldSpec(p, e)
    if n > spec.q:
        raise ParameterOutOfRange(f"length {n} exceeds field order {spec.q}")
    rows = [[spec.pow(x, j) for x in range(n)] for j in range(k)]
    generator = MatrixF(spec, rows)
    meta = {"family": "rs", "q": q, "n": n, "k": k}
    return LabeledCode(spec, generator, Labeling.identity(n), meta)


# -- serialization ---------------------------------------------------------


def code_to_text(code: LabeledCode) -> str:
    """Canonical textual export; round-trips byte-identically."""
    lines = [
        CODE_FORMAT_TAG,
        f"field {code.spec.describe()}",
        f"n {code.n}",
        f"dim {code.dim}",
        f"servers {code.s}",
        "labeling " + ",".join(str(v) for v in code.labeling.map),
    ]
    for row in code.generator.data:
        lines.append("row " + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> LabeledCode:
    """Parse a code document.  Raises DecodeError for a missing, repeated
    or unknown header line, inconsistent dimensions, a cell outside the
    field, a field above 256, and a labeling or generator that LabeledCode
    rejects."""
    lines = text.splitlines()
    if not lines or lines[0] != CODE_FORMAT_TAG:
        raise DecodeError(f"missing {CODE_FORMAT_TAG} header")
    fields: dict[str, str] = {}
    rows = []
    try:
        for line in lines[1:]:
            if not line.strip():
                continue
            key, _, rest = line.partition(" ")
            if key == "row":
                rows.append([int(v) for v in rest.split(",")])
            elif key in fields or key not in _CODE_FIELDS:
                raise DecodeError(f"repeated or unknown line {line!r}")
            else:
                fields[key] = rest
        spec = parse_field(fields["field"])
        n = int(fields["n"])
        dim = int(fields["dim"])
        s = int(fields["servers"])
        labels = [int(v) for v in fields["labeling"].split(",")]
        if len(labels) != n or len(rows) != dim or any(len(r) != n for r in rows):
            raise DecodeError("code document dimensions are inconsistent")
        return LabeledCode(spec, MatrixF(spec, rows), Labeling(s, labels))
    except (KeyError, ValueError, ParameterOutOfRange, FieldTooLarge) as exc:
        raise DecodeError(f"bad code document: {exc}") from exc
