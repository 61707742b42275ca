"""Finite field and polynomial arithmetic over GF(p^k).

Field elements are integer codes in ``[0, p**k)``: the base-p digits of a
code are the coefficients of the residue polynomial, constant term first,
so code ``c0 + c1*p + ... + c_{k-1}*p^{k-1}`` stands for the coefficient
vector ``(c0, ..., c_{k-1})``.  The code is the one form of an element:
every reader of element values takes it through :meth:`FieldSpec.code_of`,
and polynomial evaluation returns one.  All element orderings in this
package (point enumeration, modulus search, evaluation supports) are the
natural order of these codes.

A :class:`FieldSpec` fixes the characteristic ``p``, extension degree
``k`` and an explicit monic irreducible modulus polynomial; specs compare
equal iff all three match.  For field orders up to 256, addition,
subtraction, negation, multiplication and inversion go through one set
of flat lookup tables built once per field (:meth:`FieldSpec.tables`:
``add``, ``sub``, ``neg``, ``mul`` and ``inv``), which the hot loops of
``matrix`` and ``hss`` also index directly.  Above 256 addition and
negation work on the digits of :meth:`FieldSpec.coeffs` and
:meth:`FieldSpec.encode`, and multiplication by direct polynomial
reduction.  A sequence of element codes takes one form, bytes:
:meth:`FieldSpec.codes` and :meth:`FieldSpec.concat` give it, and refuse
a field above 256 (FieldTooLarge), which is the one limit of the package
(:func:`require_table_order`).  Random element codes come from
:func:`randrange_run`, the values of successive ``randrange(q)`` calls
read in one bulk draw; CNF sharing and the GV Monte Carlo both draw
through it.  :func:`prime_power` splits a field order into p and k;
:func:`digit_layout` packs digits for ``kernels`` and ``matrix``.

Irreducibility has one test, Ben-Or's (:func:`is_irreducible`), exact at
every degree.  The default modulus of a spec is the first monic
irreducible that :func:`find_irreducible` meets in coefficient-code
order.  Specs and polynomials are immutable after construction.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Iterable, NamedTuple, Sequence

from .errors import FieldMismatch, FieldTooLarge, ParameterOutOfRange

MAX_TABLE_ORDER = 256

#: Degree of the zero polynomial.  A distinguished sentinel, never -1.
NEG_INFINITY = float("-inf")


def integer_parameter(name: str, value) -> int:
    """The integer parameter `name`, read by operator.index (a bool is an
    int); anything else (1.5, 1.0, '3') raises ParameterOutOfRange naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterOutOfRange(f"{name} must be an integer, got {value!r}") from None


def _least_factor(n: int) -> int:
    """The smallest factor of n >= 2 above 1, by trial division: n itself
    exactly when n is prime."""
    return next((f for f in range(2, int(n**0.5) + 1) if n % f == 0), n)


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p prime and p**e == q; ParameterOutOfRange if q is no
    prime power (or no integer)."""
    q = integer_parameter("q", q)
    if q < 2:
        raise ParameterOutOfRange(f"{q} is not a prime power")
    p, e, m = _least_factor(q), 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ParameterOutOfRange(f"{q} is not a prime power")
    return p, e


@functools.cache
def digit_layout(q: int) -> tuple[int, list[int]]:
    """(w, spread): digit i of a GF(q) code packed in bits [i*w, (i+1)*w),
    w being 1 when p = 2, else p.bit_length() value bits under one guard
    bit (two digits sum without a carry out); spread[v] packs code v."""
    p, e = prime_power(q)
    width = 1 if p == 2 else p.bit_length() + 1
    return width, [sum(v // p**i % p << i * width for i in range(e)) for v in range(q)]


def require_table_order(q: int) -> None:
    """Raise FieldTooLarge unless GF(q) elements fit in one byte each."""
    if q > MAX_TABLE_ORDER:
        raise FieldTooLarge(
            f"field order {q} exceeds {MAX_TABLE_ORDER}, the largest that byte packing and lookup tables support"
        )


def randrange_run(rng: random.Random, q: int, count: int) -> Sequence[int]:
    """The values of `count` successive rng.randrange(q) calls, leaving rng
    in their state; read in bulk for a plain random.Random and q < 256.
    randrange(q) repeats getrandbits(k), k = q.bit_length() <= 8, until
    it is below q, and getrandbits(k) keeps the top k bits of the next
    32-bit output; getrandbits(32 * n) returns the next n outputs, output
    i in bits 32i..32i+31.  Asking for as many outputs as values are
    missing never reads past the last output the calls would read; the
    values kept in each such round are joined once, at the end.
    """
    if type(rng) is not random.Random or q >= 256:
        return list(map(rng.randrange, itertools.repeat(q, count)))
    keep, rejected = _top_bits(q)
    rounds, missing = [], count
    while missing > 0:
        rounds.append(rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")[3::4].translate(keep, rejected))
        missing -= len(rounds[-1])
    return b"".join(rounds)


@functools.cache
def _top_bits(q: int) -> tuple[bytes, bytes]:
    """Translate table taking a top byte to its top q.bit_length() bits,
    and the top bytes whose value there is q or more."""
    shift = 8 - q.bit_length()
    return bytes(b >> shift for b in range(256)), bytes(b for b in range(256) if b >> shift >= q)


class FieldTables(NamedTuple):
    """Flat lookup tables of one field, indexed by element codes:
    ``add[a*q + b]``, ``sub[a*q + b]``, ``neg[a]``, ``mul[a*q + b]`` and
    ``inv[a]`` (``inv[0]`` is 0 and never read)."""

    add: bytes
    sub: bytes
    neg: bytes
    mul: bytes
    inv: bytes


# (p, k, modulus) -> the tables of that field, shared by all its specs
_TABLES: dict[tuple, FieldTables] = {}


class FieldSpec:
    """The field GF(p^k) with an explicit modulus polynomial.

    Parameters
    ----------
    p : int
        Characteristic; must be prime.
    k : int
        Extension degree, >= 1.
    modulus : sequence of int, optional
        Monic irreducible polynomial of degree k over GF(p), constant
        term first (length k+1).  Defaults to the smallest monic
        irreducible, ordering candidates by their coefficient code
        ``sum(c_i * p**i)``.
    """

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        p, k = integer_parameter("p", p), integer_parameter("k", k)
        if p < 2 or _least_factor(p) != p:
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.q = p**k
        self._tables: FieldTables | None = None
        if modulus is None:
            # irreducible as found, so not tested again
            self.modulus = (0, 1) if k == 1 else find_irreducible(FieldSpec(p), k).coeffs
            return
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[k] != 1:
            raise ValueError(f"modulus must be monic of degree {k}: {modulus}")
        if k > 1 and not is_irreducible(Polynomial(FieldSpec(p), modulus)):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={list(self.modulus)})"

    def describe(self) -> str:
        """Canonical textual form, e.g. ``GF(2^4)/modulus=[1,1,0,0,1]``."""
        mods = ",".join(str(c) for c in self.modulus)
        return f"GF({self.p}^{self.k})/modulus=[{mods}]"

    # -- element codes -------------------------------------------------

    def encode(self, coeffs: Iterable[int]) -> int:
        """Pack a coefficient vector (constant first) into an element code."""
        code = 0
        for i, c in enumerate(coeffs):
            code += (c % self.p) * self.p**i
        if not 0 <= code < self.q:
            raise ValueError("coefficient vector longer than extension degree")
        return code

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Unpack an element code into its k base-p digits."""
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def codes(self, values: Iterable[int]) -> bytes:
        """`values`, element codes of this field, as one bytes object (the
        same object when `values` is bytes).  Every stored or sent run of
        codes takes this form, so a field above 256 raises FieldTooLarge."""
        require_table_order(self.q)
        return bytes(values)

    def concat(self, parts: Iterable[bytes]) -> bytes:
        """The code sequences `parts`, each in the form of codes(), laid
        end to end; FieldTooLarge above 256, as codes()."""
        require_table_order(self.q)
        return b"".join(parts)

    def code_of(self, value) -> int:
        """`value` as an element code of this field: an int in 0..q-1, read
        by operator.index (see _integer).  Raises ValueError for any other
        value or a code outside [0, q)."""
        if type(value) is int and 0 <= value < self.q:
            return value
        code = _integer(value, self.q)
        if not 0 <= code < self.q:
            raise ValueError(f"value {code} is outside 0..{self.q - 1} (q={self.q})")
        return code

    # -- raw arithmetic on codes ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        if self.q <= MAX_TABLE_ORDER:
            return (self._tables or self.tables()).add[a * self.q + b]
        return self.encode(map(operator.add, self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return (-a) % self.p
        if self.q <= MAX_TABLE_ORDER:
            return (self._tables or self.tables()).neg[a]
        return self.encode(map(operator.neg, self.coeffs(a)))

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k > 1 and self.q <= MAX_TABLE_ORDER:
            return (self._tables or self.tables()).sub[a * self.q + b]
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.q <= MAX_TABLE_ORDER:
            return (self._tables or self.tables()).mul[a * self.q + b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.q <= MAX_TABLE_ORDER:
            return (self._tables or self.tables()).inv[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        result = 1 % self.q
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def _mul_raw(self, a: int, b: int) -> int:
        """Product of the residue polynomials over GF(p), reduced modulo the
        modulus polynomial."""
        if self.k == 1:
            return a * b % self.p
        modulus = self._modulus_poly
        base = modulus.spec
        product = Polynomial._of_codes(base, list(self.coeffs(a))) * Polynomial._of_codes(base, list(self.coeffs(b)))
        return self.encode((product % modulus).coeffs)

    @functools.cached_property
    def _modulus_poly(self) -> "Polynomial":
        """The modulus as a polynomial over GF(p) (k > 1 only)."""
        return Polynomial._of_codes(FieldSpec(self.p), list(self.modulus))

    # -- lookup tables ---------------------------------------------------

    @property
    def add_table(self) -> bytes:
        """Flat q*q addition table (only for q <= 256), built once."""
        return self.tables().add

    def tables(self) -> FieldTables:
        """The add, sub, neg, mul and inv tables (only for q <= 256), built
        on first use and shared by every spec of the same field."""
        if self._tables is None:
            require_table_order(self.q)
            key = (self.p, self.k, self.modulus)
            if key not in _TABLES:
                _TABLES[key] = self._build_tables()
            self._tables = _TABLES[key]
        return self._tables

    def _build_tables(self) -> FieldTables:
        """Rows of add and mul from the rows of smaller codes: with b the
        largest power of p not above a, a + y = (a - b) + (b + y), and
        a*y = (a - b)*y + b*y, or x*((b/p)*y) when a = b."""
        p, q = self.p, self.q
        powers = [p**j for j in range(self.k)]
        # y + p^j: digit j of y steps up by one, wrapping from p - 1 to 0
        step = {b: bytes(y + b if y // b % p < p - 1 else y - (p - 1) * b for y in range(q)) for b in powers}
        # x*y: the digits of y move up one place, and the top one is reduced by the modulus
        shifted = [((0,) + d[:-1], d[-1]) for d in map(self.coeffs, range(q))]
        times_x = [self.encode([c - top * m for c, m in zip(low, self.modulus)]) for low, top in shifted]
        base = [0] + [max(b for b in powers if b <= a) for a in range(1, q)]
        add_rows = [bytes(range(q))]
        for a in range(1, q):
            add_rows.append(bytes(map(add_rows[a - base[a]].__getitem__, step[base[a]])))
        add = b"".join(add_rows)
        mul_rows = [bytes(q), bytes(range(q))]
        for a in range(2, q):
            if a == base[a]:
                mul_rows.append(bytes(map(times_x.__getitem__, mul_rows[a // p])))
            else:
                mul_rows.append(bytes(add[u * q + v] for u, v in zip(mul_rows[a - base[a]], mul_rows[base[a]])))
        mul = b"".join(mul_rows)
        # the one b with a + b = 0, and with a*b = 1, in row a
        neg = bytes(add.index(0, a * q, a * q + q) - a * q for a in range(q))
        inv = bytes([0] + [mul.index(1, a * q, a * q + q) - a * q for a in range(1, q)])
        sub = bytes(add[a * q + neg[b]] for a in range(q) for b in range(q))
        return FieldTables(add, sub, neg, mul, inv)


def parse_field(text: str) -> FieldSpec:
    """Parse the canonical ``GF(p^k)/modulus=[...]`` form."""
    text = text.strip()
    if not text.startswith("GF(") or "/modulus=[" not in text or not text.endswith("]"):
        raise ValueError(f"bad field description: {text!r}")
    head, mods = text.split("/modulus=[", 1)
    body = head[3:].rstrip(")")
    if "^" in body:
        p_s, k_s = body.split("^", 1)
        p, k = int(p_s), int(k_s)
    else:
        p, k = int(body), 1
    modulus = [int(c) for c in mods[:-1].split(",")]
    return FieldSpec(p, k, modulus)


def first_outside(values: Sequence, q: int):
    """The first of `values` that is not an element code of GF(q), an int
    in 0..q-1, or None if every one is.  Bytes take one translate, which
    deletes the codes and leaves the values outside in order.  This is the
    range check of every element code that enters the package as a
    sequence: server views and wire payloads."""
    if isinstance(values, bytes):
        outside = values.translate(None, _codes_below(min(q, 256)))
        return outside[0] if outside else None
    return next((v for v in values if not (isinstance(v, int) and 0 <= v < q)), None)


@functools.cache
def _codes_below(q: int) -> bytes:
    """The bytes 0..q-1, the codes first_outside deletes."""
    return bytes(range(q))


def _integer(value, q: int) -> int:
    """`value` as an int, if operator.index takes it (an int, a bool or
    another integer type); anything else, such as 1.5 or '3', raises
    ValueError rather than being truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"value {value!r} is not an integer in 0..{q - 1} (q={q})") from None


class Polynomial:
    """Polynomial over one FieldSpec; coefficients constant-term first.

    Trailing zero coefficients are trimmed on construction, so the zero
    polynomial has an empty coefficient tuple and degree NEG_INFINITY.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable):
        if spec.k == 1:  # integers reduce mod p over a prime field
            codes = [_integer(c, spec.q) % spec.q for c in coeffs]
        else:
            codes = list(map(spec.code_of, coeffs))
        while codes and codes[-1] == 0:
            codes.pop()
        self.spec = spec
        self.coeffs = tuple(codes)

    @classmethod
    def _of_codes(cls, spec: FieldSpec, codes: list[int]) -> "Polynomial":
        """The polynomial of element codes that field arithmetic produced,
        trimmed but not checked again."""
        while codes and codes[-1] == 0:
            codes.pop()
        out = cls.__new__(cls)
        out.spec, out.coeffs = spec, tuple(codes)
        return out

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Polynomial":
        return cls(spec, ())

    @classmethod
    def x(cls, spec: FieldSpec) -> "Polynomial":
        return cls(spec, (0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial) or other.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")
        return other

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.spec == self.spec
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def _termwise(self, other: "Polynomial", op) -> "Polynomial":
        """The polynomial whose coefficient i is op of the two coefficients
        i, a missing one being 0."""
        pairs = itertools.zip_longest(self.coeffs, self._check(other).coeffs, fillvalue=0)
        return Polynomial._of_codes(self.spec, list(itertools.starmap(op, pairs)))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._termwise(other, self.spec.add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._termwise(other, self.spec.sub)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        other = self._check(other)
        f = self.spec
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(other.coeffs):
                    if cb:
                        out[i + j] = f.add(out[i + j], f.mul(ca, cb))
        return Polynomial._of_codes(f, out)

    def scale(self, c) -> "Polynomial":
        f = self.spec
        code = f.code_of(c)
        return Polynomial._of_codes(f, [f.mul(code, a) for a in self.coeffs])

    def _divide(self, other: "Polynomial") -> tuple[list[int], list[int]]:
        """Quotient and remainder codes of long division by `other`."""
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.spec
        rem = list(self.coeffs)
        dlead_inv = f.inv(other.coeffs[-1])
        dd = len(other.coeffs) - 1
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            factor = f.mul(c, dlead_inv)
            quot[i - dd] = factor
            for j, dc in enumerate(other.coeffs):
                rem[i - dd + j] = f.sub(rem[i - dd + j], f.mul(factor, dc))
        return quot, rem

    def __divmod__(self, other: "Polynomial"):
        quot, rem = self._divide(other)
        return Polynomial._of_codes(self.spec, quot), Polynomial._of_codes(self.spec, rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of_codes(self.spec, self._divide(other)[1])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of_codes(self.spec, self._divide(other)[0])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        other = self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.spec.inv(self.coeffs[-1]))

    def __call__(self, x) -> int:
        """The code of the value at the element code x, by Horner's rule."""
        f = self.spec
        code = f.code_of(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, code), c)
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + f" over GF({self.spec.p}^{self.spec.k}))"


def is_irreducible(poly: Polynomial) -> bool:
    """Irreducibility over the coefficient field GF(q), by Ben-Or's test.

    f of degree r >= 1 is reducible iff it has a monic irreducible factor
    of some degree i <= r/2, and the monic irreducibles of degree dividing
    i are the factors of x^(q^i) - x; so f is irreducible iff
    gcd(f, x^(q^i) - x) = 1 for i = 1, ..., floor(r/2).  Exact at every
    degree; zero and constants are not irreducible.  An f whose terms all
    have exponents divisible by p (f' = 0) is a p-th power over the
    perfect field GF(q), so reducible, and is refused before any power.
    """
    deg = poly.degree
    if deg is NEG_INFINITY or deg == 0:
        return False
    if not any(c for e, c in enumerate(poly.coeffs) if e % poly.spec.p):
        return False
    x = Polynomial.x(poly.spec)
    frobenius = x  # x^(q^i) mod poly
    for _ in range(int(deg) // 2):
        frobenius = poly_pow_mod(frobenius, poly.spec.q, poly)
        if poly.gcd(frobenius - x).degree != 0:
            return False
    return True


def poly_pow_mod(base: Polynomial, exp: int, mod: Polynomial) -> Polynomial:
    """``base**exp % mod`` by square-and-multiply."""
    if exp < 0:
        raise ValueError("negative exponent")
    result = Polynomial(base.spec, (1,)) % mod
    acc = base % mod
    while exp:
        if exp & 1:
            result = (result * acc) % mod
        acc = (acc * acc) % mod
        exp >>= 1
    return result


def find_irreducible(spec: FieldSpec, degree: int, exclude: Iterable = ()) -> Polynomial:
    """The first monic irreducible polynomial of the given degree over
    `spec` with no root in `exclude`.

    Candidates are scanned in increasing coefficient-code order
    ``c_0 + c_1*q + ... + c_{degree-1}*q^(degree-1)`` of their
    coefficients below the leading 1, so the result is deterministic.
    `exclude` holds element codes of `spec`; only degree 1
    can be ruled out by it, since higher-degree irreducibles have no roots
    in the field, so each candidate is tested for irreducibility first and
    its roots are scanned at degree 1 only.  Raises ValueError if the
    exclusion set rules out every candidate.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    excl = {spec.code_of(e) for e in exclude}
    for high in itertools.product(range(spec.q), repeat=degree):
        candidate = Polynomial(spec, (*reversed(high), 1))
        if is_irreducible(candidate) and (degree > 1 or all(candidate(v) for v in excl)):
            return candidate
    raise ValueError(f"no monic irreducible of degree {degree} over {spec.describe()} avoids the exclusion set")
