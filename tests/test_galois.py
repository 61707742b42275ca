import functools
import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracles
from labelweight_hss.codes import Labeling, goppa_build, labelweight, rs_build
from labelweight_hss.errors import FieldMismatch, FieldTooLarge, ParameterOutOfRange
from labelweight_hss.galois import (
    NEG_INFINITY,
    FieldSpec,
    Polynomial,
    find_irreducible,
    first_outside,
    is_irreducible,
    parse_field,
    poly_pow_mod,
    prime_power,
)
from labelweight_hss.hss import cnf_share, run_end_to_end, scheme_for_code
from labelweight_hss.matrix import MatrixF
from labelweight_hss.protocol import simulate

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF4 = FieldSpec(2, 2)
GF5 = FieldSpec(5)
GF8 = FieldSpec(2, 3)
GF9 = FieldSpec(3, 2)
GF16 = FieldSpec(2, 4)
GF64 = FieldSpec(2, 6)

SMALL_FIELDS = [GF2, GF3, GF4, GF5, GF8, GF9, GF16]


def test_default_moduli_are_the_classical_ones():
    assert GF4.modulus == (1, 1, 1)  # x^2+x+1
    assert GF8.modulus == (1, 1, 0, 1)  # x^3+x+1
    assert GF16.modulus == (1, 1, 0, 0, 1)  # x^4+x+1
    assert GF64.modulus == (1, 1, 0, 0, 0, 0, 1)  # x^6+x+1


def test_mod5_addition():
    assert GF5.add(2, 4) == 1


def test_inverse_axiom_gf8():
    for x in range(1, GF8.q):
        assert GF8.mul(x, GF8.inv(x)) == 1


def test_gf4_generator_square():
    # alpha * alpha = alpha + 1 under modulus x^2 + x + 1
    alpha = GF4.encode([0, 1])
    assert GF4.mul(alpha, alpha) == GF4.encode([1, 1])


@pytest.mark.parametrize("spec", SMALL_FIELDS)
def test_field_axioms_exhaustive(spec):
    q = spec.q
    for a in range(q):
        for b in range(q):
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            for c in range(q):
                assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
                assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))


def test_field_axioms_gf64():
    # Exhaustive pairs plus unit-group order; triples sampled.
    q = GF64.q
    for a in range(q):
        for b in range(q):
            assert GF64.add(a, b) == GF64.add(b, a)
            assert GF64.mul(a, b) == GF64.mul(b, a)
    rng = random.Random(7)
    for _ in range(20000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert GF64.mul(GF64.mul(a, b), c) == GF64.mul(a, GF64.mul(b, c))
        assert GF64.mul(a, GF64.add(b, c)) == GF64.add(GF64.mul(a, b), GF64.mul(a, c))


@pytest.mark.parametrize("spec", SMALL_FIELDS + [GF64])
def test_unit_group_order(spec):
    for a in range(1, spec.q):
        assert spec.pow(a, spec.q - 1) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF4.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF5.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        FieldSpec(2, 9).inv(0)


def test_field_mismatch():
    """Only polynomials carry a field, so only they can mix two."""
    with pytest.raises(FieldMismatch, match="polynomials over different fields"):
        Polynomial(GF4, [1]) + Polynomial(GF8, [1])


def test_code_of_takes_own_elements_and_codes_only():
    """An element of GF(8) is its code, an int in 0..7: the codes of
    GF(16) above 7 are refused as any int outside the range is."""
    assert GF8.code_of(5) == 5 and type(GF8.code_of(True)) is int
    for bad in (-1, 8, 15):
        with pytest.raises(ValueError, match=r"value -?\d+ is outside 0\.\.7 \(q=8\)"):
            GF8.code_of(bad)


@pytest.mark.parametrize(
    "values, q, first",
    [
        (bytes([0, 4, 7, 5, 9]), 5, 7),
        (bytes([0, 4, 1]), 5, None),
        (bytes([255, 0]), 256, None),
        (b"", 2, None),
        ([0, 256, 257, -1], 257, 257),
        ((3, -1), 257, -1),
        ([1, 1.5, 9], 5, 1.5),
        ([True, 0], 2, None),
        ([2, Fraction(1, 2)], 5, Fraction(1, 2)),
    ],
)
def test_first_outside_is_the_first_value_that_is_no_code(values, q, first):
    assert first_outside(values, q) == first


def test_element_codes_are_integers_only():
    """Every reader of element codes takes ints and bools, and raises
    ValueError for a float or a string instead of truncating or parsing
    it."""
    code = rs_build(5, 5, 2)
    readers = [
        GF5.code_of,
        lambda v: MatrixF(GF5, [[1, v]]).data[0][1],
        lambda v: Polynomial(GF5, [1, v]).coeffs[1],
        lambda v: labelweight(code, word=[0, 0, v, 0, 0]),
    ]
    for read in readers:
        assert read(True) == read(1)
        for bad in (1.5, "3"):
            with pytest.raises(ValueError, match="is not an integer"):
                read(bad)


@functools.cache
def _rs5_scheme():
    return scheme_for_code(rs_build(5, 5, 2), t=1, d=2, m=3)


# reader -> (its field, the prefix of its message, a call that reads one value)
CODE_READERS = {
    "code_of": (GF5, "", GF5.code_of),
    "Polynomial": (GF5, "", lambda v: Polynomial(GF5, [1, v])),
    "Polynomial.scale": (GF5, "", lambda v: Polynomial(GF5, [1, 1]).scale(v)),
    "Polynomial.__call__": (GF5, "", lambda v: Polynomial(GF5, [1, 1])(v)),
    "MatrixF": (GF5, "", lambda v: MatrixF(GF5, [[1, v]])),
    "labelweight": (GF5, "", lambda v: labelweight(rs_build(5, 5, 2), word=[0, 0, v, 0, 0])),
    "goppa_build": (GF16, "", lambda v: goppa_build(4, 2, points=[0, v])),
    "find_irreducible": (GF5, "", lambda v: find_irreducible(GF5, 1, exclude=[v])),
    "cnf_share": (GF5, "secret ", lambda v: cnf_share(v, 1, 3, GF5, random.Random(0))),
    "run_end_to_end": (GF5, "secret (1, 2) ", lambda v: run_end_to_end(_rs5_scheme(), [[1, v, 1], [1, 1, 1]], 3)),
    "simulate": (GF5, "secret (1, 2) ", lambda v: simulate(_rs5_scheme(), [[1, v, 1], [1, 1, 1]], seed=3)),
}


@pytest.mark.parametrize("value", [Fraction(1, 2), "3", SimpleNamespace(value=3)], ids=["Fraction", "str", "value"])
@pytest.mark.parametrize("reader", list(CODE_READERS))
def test_every_reader_refuses_a_non_integer_in_the_words_of_code_of(reader, value):
    """Every reader of element values takes codes only, and refuses
    anything else with code_of's ValueError; a secret's is prefixed with
    "secret" and its (i, k), as ParameterOutOfRange."""
    spec, prefix, read = CODE_READERS[reader]
    with pytest.raises(ValueError) as wording:
        spec.code_of(value)
    kind = ParameterOutOfRange if prefix else ValueError
    with pytest.raises(kind) as refused:
        read(value)
    assert type(refused.value) is kind and str(refused.value) == prefix + str(wording.value)


def test_element_coeff_roundtrip():
    for spec in SMALL_FIELDS:
        for v in range(spec.q):
            assert spec.encode(spec.coeffs(v)) == v


def test_describe_parse_roundtrip():
    for spec in SMALL_FIELDS + [GF64]:
        assert parse_field(spec.describe()) == spec


# -- polynomials -----------------------------------------------------------


def test_zero_polynomial_degree_sentinel():
    z = Polynomial.zero(GF4)
    assert z.degree is NEG_INFINITY
    assert z.degree < 0
    assert not isinstance(z.degree, int)


def test_poly_mod_self_is_zero():
    f = Polynomial(GF2, [1, 1])  # x + 1
    assert (f % f).is_zero()


def test_char2_square():
    f = Polynomial(GF2, [1, 1])
    assert (f * f).coeffs == (1, 0, 1)  # x^2 + 1


def test_goppa_style_vanishing():
    # x^2+x+1 vanishes exactly on the two elements of GF(4) outside GF(2).
    g = Polynomial(GF4, [1, 1, 1])
    roots = [v for v in range(4) if g(v) == 0]
    assert roots == [2, 3]


def test_divmod_reconstruction_seeded():
    rng = random.Random(11)
    for spec in (GF2, GF3, GF4, GF8):
        for _ in range(200):
            f = Polynomial(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(1, 8))])
            g = Polynomial(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(1, 5))])
            if g.is_zero():
                continue
            quot, rem = divmod(f, g)
            assert quot * g + rem == f
            assert rem.is_zero() or rem.degree < g.degree


def test_gcd_divides_both():
    rng = random.Random(5)
    for _ in range(100):
        f = Polynomial(GF4, [rng.randrange(4) for _ in range(rng.randrange(1, 6))])
        g = Polynomial(GF4, [rng.randrange(4) for _ in range(rng.randrange(1, 6))])
        if f.is_zero() or g.is_zero():
            continue
        d = f.gcd(g)
        assert (f % d).is_zero() and (g % d).is_zero()
        assert d.is_monic()


def test_polynomial_reduces_plain_ints_mod_p_over_a_prime_field_only():
    assert Polynomial(GF5, [7, -1, 5]).coeffs == (2, 4)
    with pytest.raises(ValueError):
        Polynomial(GF4, [4, 1])


def test_polynomial_evaluation_rejects_an_element_of_another_field():
    """Evaluation returns the code, an int; the GF(8) element 5 is no
    code of GF(4) and is refused as the code it is."""
    f = Polynomial(GF4, [1, 1])
    assert f(2) == 3 and type(f(True)) is int
    with pytest.raises(ValueError, match=r"value 5 is outside 0\.\.3 \(q=4\)"):
        f(5)


def test_polynomial_scale_rejects_an_element_of_another_field():
    f = Polynomial(GF4, [1, 1])
    assert f.scale(2) == Polynomial(GF4, [2, 2])
    with pytest.raises(ValueError, match=r"value 5 is outside 0\.\.3 \(q=4\)"):
        f.scale(5)


def test_eval_horner_matches_naive():
    rng = random.Random(3)
    for spec in (GF5, GF9):
        for _ in range(50):
            coeffs = [rng.randrange(spec.q) for _ in range(6)]
            f = Polynomial(spec, coeffs)
            x = rng.randrange(spec.q)
            naive = 0
            for i, c in enumerate(coeffs):
                naive = spec.add(naive, spec.mul(c, spec.pow(x, i)))
            assert f(x) == naive


# -- irreducibles -----------------------------------------------------------


def test_find_irreducible_gf8_degree1_is_x():
    g = find_irreducible(GF8, 1)
    assert g.coeffs == (0, 1)


def test_find_irreducible_gf2_degree2():
    g = find_irreducible(GF2, 2)
    assert g.coeffs == (1, 1, 1)


def test_find_irreducible_excludes_support_roots():
    # With 0 excluded, the smallest linear polynomial moves to x + 1.
    g = find_irreducible(GF8, 1, exclude=[0])
    assert g.coeffs == (1, 1)
    assert g(0) != 0


def test_find_irreducible_exhausted_exclusion():
    with pytest.raises(ValueError):
        find_irreducible(GF8, 1, exclude=range(8))


def test_find_irreducible_rejects_an_excluded_element_of_another_field():
    assert find_irreducible(GF4, 1, exclude=[0]).coeffs == (1, 1)
    with pytest.raises(ValueError, match=r"value 5 is outside 0\.\.3 \(q=4\)"):
        find_irreducible(GF4, 1, exclude=[5])


@pytest.mark.parametrize("spec", [GF4, GF8, GF9, GF16], ids=["GF4", "GF8", "GF9", "GF16"])
def test_find_irreducible_matches_the_oracle_scan(spec):
    """Degrees 1-4, with and without half the field excluded, against the
    root-check / trial-division scan in code order."""
    excluded = range(spec.q // 2)
    for degree in range(1, 5):
        assert find_irreducible(spec, degree) == oracles.find_irreducible(spec, degree)
        assert find_irreducible(spec, degree, exclude=excluded) == oracles.find_irreducible(spec, degree, excluded)


def test_find_irreducible_scans_roots_only_at_degree_1():
    """Irreducibility first, roots at degree 1 only: the same polynomial
    (or the same ValueError) as the scan that checked every excluded
    root first, over GF(2^u) for u <= 6 at degrees 1-3, with and without
    the whole field excluded."""

    def roots_first(spec, degree, exclude):
        for high in itertools.product(range(spec.q), repeat=degree):
            candidate = Polynomial(spec, (*reversed(high), 1))
            if all(candidate(v) for v in exclude) and is_irreducible(candidate):
                return candidate
        return None

    for u in range(1, 7):
        spec = FieldSpec(2, u)
        for degree, exclude in itertools.product((1, 2, 3), ((), range(spec.q))):
            want = roots_first(spec, degree, exclude)
            if want is None:
                with pytest.raises(ValueError, match="avoids the exclusion set"):
                    find_irreducible(spec, degree, exclude)
            else:
                assert find_irreducible(spec, degree, exclude) == want


def test_default_moduli_match_the_oracle_up_to_order_2187():
    """Every FieldSpec(p, k) with p^k <= 3^7 takes the smallest monic
    irreducible modulus, as the trial-division scan finds it."""
    primes = [p for p in range(2, 3**7 + 1) if all(p % f for f in range(2, int(p**0.5) + 1))]
    checked = 0
    for p in primes:
        k = 1
        while p**k <= 3**7:
            assert FieldSpec(p, k).modulus == oracles.default_modulus(p, k), (p, k)
            checked += k > 1
            k += 1
    assert checked == 32  # the extension fields: 10 of characteristic 2, 6 of 3, 3 of 5, ...


@pytest.mark.parametrize("spec", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
def test_is_irreducible_matches_the_oracle_up_to_cubics(spec):
    """Every monic polynomial of degree 1-3 (quartics: the test below)."""
    for degree in range(1, 4):
        for low in itertools.product(range(spec.q), repeat=degree):
            f = Polynomial(spec, (*low, 1))
            assert is_irreducible(f) == oracles.is_irreducible(f), f


def test_is_irreducible_ignores_the_leading_coefficient_and_rejects_constants():
    assert not is_irreducible(Polynomial.zero(GF3))
    assert not is_irreducible(Polynomial(GF3, [2]))
    for low in itertools.product(range(3), repeat=3):
        f = Polynomial(GF3, (*low, 1))
        assert is_irreducible(f.scale(2)) == is_irreducible(f)


@pytest.mark.parametrize("spec,degree", [(GF2, 4), (GF4, 3), (GF8, 2), (GF16, 2), (GF64, 4)])
def test_irreducible_by_frobenius_oracle(spec, degree):
    """Independent check: f of degree r is irreducible iff x^(q^r) = x mod f
    and x^(q^m) != x mod f for every proper divisor m of r."""
    f = find_irreducible(spec, degree)
    x = Polynomial.x(spec)
    assert poly_pow_mod(x, spec.q**degree, f) == x % f
    for m in range(1, degree):
        if degree % m == 0:
            assert poly_pow_mod(x, spec.q**m, f) != x % f


@pytest.mark.parametrize("spec", [GF2, GF3], ids=["GF2", "GF3"])
def test_frobenius_test_matches_trial_division_on_every_monic_quartic(spec):
    """is_irreducible (Ben-Or's test on the Frobenius powers x^(q^i))
    against trial division (oracles.is_irreducible)."""
    found = 0
    for low in itertools.product(range(spec.q), repeat=4):
        f = Polynomial(spec, (*low, 1))
        assert is_irreducible(f) == oracles.is_irreducible(f), f
        found += is_irreducible(f)
    # monic irreducible quartics: (q^4 - q^2) / 4
    assert found == (spec.q**4 - spec.q**2) // 4


def test_modulus_rejects_reducible():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2


def test_prime_check():
    with pytest.raises(ValueError):
        FieldSpec(4)


@pytest.mark.parametrize("spec", [GF2, GF4, FieldSpec(2, 8)], ids=lambda spec: str(spec.q))
def test_characteristic_two_sub_is_xor(spec):
    q = spec.q
    assert [spec.sub(a, b) for a in range(q) for b in range(q)] == [oracles.sub(spec, a, b) for a in range(q) for b in range(q)]


@pytest.mark.parametrize("spec", [GF2, GF9, FieldSpec(2, 8)], ids=repr)
def test_code_sequences_are_bytes(spec):
    values = [0, 1, spec.q - 1, 1]
    codes = spec.codes(values)
    assert type(codes) is bytes and list(codes) == values
    assert spec.codes(codes) is codes
    joined = spec.concat([codes, spec.codes([]), spec.codes(values[:2])])
    assert type(joined) is bytes and list(joined) == values + values[:2]
    assert spec.concat([]) == b""


@pytest.mark.parametrize("spec", [FieldSpec(257), FieldSpec(2, 9)], ids=repr)
def test_code_sequences_above_256_are_refused(spec):
    """No run of element codes is kept over a field past a byte, though
    its element arithmetic works."""
    assert spec.mul(2, spec.inv(2)) == 1
    for build in (lambda: spec.codes([0, 1]), lambda: spec.concat([b"\x00"])):
        with pytest.raises(FieldTooLarge, match=f"^field order {spec.q} exceeds 256"):
            build()


@pytest.mark.parametrize("q,split", [(2, (2, 1)), (9, (3, 2)), (256, (2, 8)), (257, (257, 1)), (289, (17, 2))])
def test_prime_power_splits_a_field_order(q, split):
    assert prime_power(q) == split


@pytest.mark.parametrize("q", [0, 1, 6, 12, 1000])
def test_prime_power_rejects_other_orders(q):
    with pytest.raises(ParameterOutOfRange, match=f"{q} is not a prime power"):
        prime_power(q)


@pytest.mark.parametrize(
    "build,name,bad",
    [
        (lambda: FieldSpec(5.0), "p", "5.0"),
        (lambda: FieldSpec("5"), "p", "'5'"),
        (lambda: FieldSpec(2, 2.0), "k", "2.0"),
        (lambda: prime_power(9.0), "q", "9.0"),
        (lambda: Labeling(2.0, [1, 2]), "s", "2.0"),
        (lambda: Labeling(2, [1.5, 2]), "label", "1.5"),
        (lambda: Labeling(2, ["1", "2"]), "label", "'1'"),
    ],
    ids=["FieldSpec-p", "FieldSpec-p-str", "FieldSpec-k", "prime_power", "Labeling-s", "label-float", "label-str"],
)
def test_field_and_label_integers_are_read_by_index(build, name, bad):
    """The integer parameters of the field and label layers are read as
    the scheme's are: anything operator.index refuses raises
    ParameterOutOfRange naming the parameter, not truncated or parsed."""
    with pytest.raises(ParameterOutOfRange, match=f"^{name} must be an integer, got {re.escape(bad)}$"):
        build()


def test_field_and_label_integers_take_bools_as_ints():
    assert FieldSpec(5, True) == FieldSpec(5)
    assert Labeling(2, [True, 2]) == Labeling(2, [1, 2])


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9, 25, 221])
def test_characteristic_must_be_prime(p):
    with pytest.raises(ValueError, match=f"characteristic {p} is not prime"):
        FieldSpec(p)
