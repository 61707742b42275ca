import itertools
import random

import pytest

from labelweight_hss import codes
from labelweight_hss.codes import (
    LabeledCode,
    Labeling,
    ball_volume,
    code_from_text,
    code_to_text,
    goppa_build,
    goppa_condition,
    hermitian_build,
    hermitian_designed_distance,
    hermitian_points,
    labelweight,
    min_distance,
    rs_build,
    span_labelweight,
    word_labelweight,
)
from labelweight_hss.errors import (
    BadGoppaPolynomial,
    DecodeError,
    EnumerationBudgetExceeded,
    FieldTooLarge,
    ParameterOutOfRange,
)
from labelweight_hss.galois import FieldSpec, Polynomial
from labelweight_hss.matrix import MatrixF, rank

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def brute_labelweight(code):
    """Independent oracle: enumerate messages with itertools, count labels via sets."""
    spec, G, lab = code.spec, code.generator, code.labeling
    best = lab.s + 1
    for msg in itertools.product(range(spec.q), repeat=code.dim):
        if not any(msg):
            continue
        word = [0] * code.n
        for i, m in enumerate(msg):
            if m:
                for j in range(code.n):
                    word[j] = spec.add(word[j], spec.mul(m, G.data[i][j]))
        touched = {lab.map[j] for j, v in enumerate(word) if v}
        best = min(best, len(touched))
    return best


# -- labeling ----------------------------------------------------------------


def test_labeling_surjective_required():
    with pytest.raises(ParameterOutOfRange):
        Labeling(3, [1, 1, 2])


def test_balanced_labeling_block_sizes():
    for s, w in [(3, 2), (4, 4), (6, 1)]:
        lab = Labeling.balanced(s, w)
        assert lab.n == s * w
        for label in range(1, s + 1):
            assert len(lab.coords(label)) == w
    assert Labeling.balanced(2, 3).map == (1, 1, 1, 2, 2, 2)


def test_labeling_coords_are_computed_once():
    """coords(label) is the increasing list of coordinates with that label,
    as one tuple computed once per labeling: the same object on every
    call, and empty outside 1..s."""
    lab = Labeling(3, [2, 1, 3, 1, 2, 2])
    for label in range(-1, 5):
        assert lab.coords(label) == tuple(c for c, v in enumerate(lab.map) if v == label)
        assert lab.coords(label) is lab.coords(label)
    assert [lab.coords(label) for label in (1, 2, 3)] == [(1, 3), (0, 4, 5), (2,)]


# -- labelweight --------------------------------------------------------------


def test_word_labelweight_counts_distinct_labels():
    lab = Labeling(2, [1, 1, 2, 2])
    assert word_labelweight(lab, [1, 1, 0, 0]) == 1
    assert word_labelweight(lab, [1, 0, 1, 0]) == 2
    assert word_labelweight(lab, [0, 0, 0, 0]) == 0


def test_word_labelweight_reads_words_in_the_code_field():
    gf4 = FieldSpec(2, 2)
    code = LabeledCode(gf4, MatrixF(gf4, [[1, 2, 0, 3]]), Labeling(2, [1, 1, 2, 2]))
    assert labelweight(code, [0, 2, 0, 0]) == 1
    assert labelweight(code, [0, 0, 0, 3]) == 1
    # 4 and 5, elements of GF(8), are no codes of GF(4)
    for bad in (4, 5):
        with pytest.raises(ValueError, match=rf"value {bad} is outside 0\.\.3 \(q=4\)"):
            labelweight(code, [0, 0, 0, bad])


def test_single_codeword_code():
    code = LabeledCode(GF2, MatrixF(GF2, [[1, 1, 0, 0]]), Labeling(2, [1, 1, 2, 2]))
    assert labelweight(code) == 1


def test_identity_labeling_equals_hamming_distance():
    rng = random.Random(21)
    spec = FieldSpec(3)
    for _ in range(20):
        while True:
            G = MatrixF(spec, [[rng.randrange(3) for _ in range(6)] for _ in range(3)])
            if rank(G) == 3:
                break
        code = LabeledCode(spec, G, Labeling.identity(6))
        assert labelweight(code) == min_distance(code) == brute_labelweight(code)


def test_budget_env_override(monkeypatch):
    code = rs_build(5, 5, 2)
    monkeypatch.setenv("HSS_ENUM_BUDGET", "10")
    with pytest.raises(EnumerationBudgetExceeded, match="25 messages exceed budget 10; raise HSS_ENUM_BUDGET to force"):
        labelweight(code)
    monkeypatch.setenv("HSS_ENUM_BUDGET", "100")
    assert labelweight(code) == 4


# -- ball volume --------------------------------------------------------------


def test_ball_volume_examples():
    assert ball_volume(4, 2, 2, 0) == 1
    assert ball_volume(2, 1, 2, 1) == 3
    assert ball_volume(3, 2, 2, 3) == 64


@pytest.mark.parametrize("s,w,q", [(3, 1, 2), (4, 2, 2), (8, 2, 2), (3, 2, 3), (2, 2, 5)])
def test_ball_volume_vs_enumeration(s, w, q):
    lab = Labeling.balanced(s, w)
    n = s * w
    counts = [0] * (s + 1)
    for word in itertools.product(range(q), repeat=n):
        counts[word_labelweight(lab, word)] += 1
    for r in range(s + 1):
        assert ball_volume(s, w, q, r) == sum(counts[: r + 1])


# -- Goppa --------------------------------------------------------------------


def test_goppa_condition_values():
    assert goppa_condition(4, 2)  # 2 < 3.75
    assert goppa_condition(6, 4)  # 6 < 7.875
    assert not goppa_condition(2, 4)  # 6 < 1.5 fails
    # boundary sanity: squaring must keep strictness
    assert goppa_condition(2, 1)
    assert not goppa_condition(2, 3)  # 4 < 1.5 fails


def test_goppa_u4_r2_dimensions():
    code = goppa_build(4, 2)
    assert code.n == 16
    assert code.dim == 8
    assert code.s == 16
    assert labelweight(code) >= 3
    assert labelweight(code) == brute_labelweight(code)


def test_goppa_u5_r2_labelweight_clears_dt_3():
    # the s = 32 rung: 2^22 messages, labelweight 5 > d*t = 3
    code = goppa_build(5, 2)
    assert (code.n, code.dim, code.s) == (32, 22, 32)
    assert labelweight(code) == 5


def test_goppa_u3_r1_support_shrinks():
    code = goppa_build(3, 1)
    assert code.n == 7
    assert code.dim >= 4
    assert 0 not in code.meta["support"]
    assert min_distance(code) >= 2


def test_goppa_u3_r2():
    # condition 2 < 7/(2*sqrt(2)) = 2.47 holds, so k = 8 - 6 = 2
    code = goppa_build(3, 2)
    assert goppa_condition(3, 2)
    assert code.n == 8 and code.dim == 2
    assert min_distance(code) >= 3


def test_goppa_u6_r4_dimension_exact():
    code = goppa_build(6, 4)
    assert code.n == 64
    assert code.dim == 40
    # out-of-budget for brute force; parity-check bound only
    assert goppa_condition(6, 4)


def test_goppa_kernel_row_count_matches_v90():
    code = goppa_build(4, 2)
    assert code.dim == 16 - 4 * 2


def test_goppa_codewords_satisfy_defining_congruence():
    """Each generator row c must satisfy sum_i c_i/(x - a_i) = 0 mod g."""
    code = goppa_build(4, 2)
    ext = FieldSpec(2, 4)
    g = Polynomial(ext, code.meta["g"])
    support = code.meta["support"]
    for row in code.generator.data:
        total = Polynomial.zero(ext)
        for c, a in zip(row, support):
            if not c:
                continue
            # c/(x - a) mod g == c * inverse of (x - a) mod g
            lin = Polynomial(ext, [ext.neg(a), 1])
            # invert lin mod g by solving lin * h = 1 via extended Euclid walk
            h = _inverse_mod(lin, g)
            total = (total + h.scale(c)) % g
        assert total.is_zero()


def _inverse_mod(a, m):
    spec = a.spec
    r0, r1 = m, a % m
    s0, s1 = Polynomial.zero(spec), Polynomial(spec, (1,))
    while not r1.is_zero():
        quot, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quot * s1
    assert r0.degree == 0
    return s0.scale(spec.inv(r0.coeffs[0])) % m


def test_goppa_rejects_vanishing_polynomial():
    ext = FieldSpec(2, 4)
    bad = Polynomial(ext, [0, 1])  # x vanishes at 0
    with pytest.raises(BadGoppaPolynomial):
        goppa_build(4, 1, g=bad)


def test_goppa_rejects_wrong_degree():
    ext = FieldSpec(2, 4)
    with pytest.raises(BadGoppaPolynomial):
        goppa_build(4, 2, g=Polynomial(ext, [1, 1]))


def test_goppa_rejects_reducible():
    ext = FieldSpec(2, 4)
    lin1 = Polynomial(ext, [2, 1])
    lin2 = Polynomial(ext, [3, 1])
    with pytest.raises(BadGoppaPolynomial):
        goppa_build(4, 2, g=lin1 * lin2, points=[0, 1, 4, 5, 6, 7])


def test_goppa_support_points_must_belong_to_the_field():
    ext = FieldSpec(2, 4)
    same = goppa_build(4, 2, points=list(range(ext.q)))
    assert code_to_text(same) == code_to_text(goppa_build(4, 2))
    with pytest.raises(ValueError, match=r"value 16 is outside 0\.\.15 \(q=16\)"):
        goppa_build(4, 2, points=range(FieldSpec(2, 5).q))


def test_goppa_tests_irreducibility_only_of_a_supplied_polynomial(monkeypatch):
    calls = []
    monkeypatch.setattr(codes, "is_irreducible", lambda g: calls.append(g) or True)
    goppa_build(4, 2)
    assert calls == []
    g = Polynomial(FieldSpec(2, 4), [8, 1, 1])  # the default g of u = 4, r = 2
    goppa_build(4, 2, g=g)
    assert calls == [g]


# -- Hermitian ----------------------------------------------------------------


def test_hermitian_field_above_256_is_refused_before_its_points():
    """GF(q^2) above 256 raises FieldTooLarge at once; a q that is no
    prime power is refused as such first."""
    for q in (17, 19, 25):
        with pytest.raises(FieldTooLarge, match=f"field order {q * q} exceeds 256"):
            hermitian_build(q, 2)
    with pytest.raises(ParameterOutOfRange, match="-17 is not a prime power"):
        hermitian_build(-17, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_point_count(q):
    _, pts = hermitian_points(q)
    assert len(pts) == q**3
    assert pts == sorted(pts)


def test_hermitian_points_q2_x0_row():
    ext, pts = hermitian_points(2)
    ys = [y for x, y in pts if x == 0]
    assert ys == [0, 1]


def test_hermitian_q2_k5_distance():
    code = hermitian_build(2, 5)
    assert code.n == 8 and code.dim == 5
    assert min_distance(code) == hermitian_designed_distance(2, 5) == 3


def test_hermitian_q2_k6_distance():
    code = hermitian_build(2, 6)
    assert min_distance(code) == hermitian_designed_distance(2, 6) == 2


def test_hermitian_q2_k8_full_space():
    code = hermitian_build(2, 8)
    assert code.dim == 8 == code.n
    assert min_distance(code) == 1


def test_hermitian_rank_equals_k():
    for q, k in [(2, 3), (2, 7), (3, 10)]:
        code = hermitian_build(q, k)
        assert code.dim == k
        assert rank(code.generator) == k


def test_hermitian_k_out_of_range():
    with pytest.raises(ParameterOutOfRange):
        hermitian_build(2, 9)
    with pytest.raises(ParameterOutOfRange):
        hermitian_build(2, 0)


# -- Reed-Solomon -------------------------------------------------------------


def test_rs_distance_is_mds():
    code = rs_build(5, 4, 2)
    assert min_distance(code) == 3
    assert min_distance(rs_build(5, 4, 4)) == 1
    assert min_distance(rs_build(5, 4, 1)) == 4


def test_rs_bad_params():
    with pytest.raises(ParameterOutOfRange):
        rs_build(5, 6, 2)
    with pytest.raises(ParameterOutOfRange):
        rs_build(6, 4, 2)  # 6 is not a prime power


@pytest.mark.parametrize(
    "build,args,name",
    [
        (goppa_build, (4.0, 2), "u"),
        (goppa_build, (4, 2.0), "r"),
        (hermitian_build, (3.0, 10), "q"),
        (hermitian_build, (3, 10.0), "k"),
        (rs_build, (5.0, 5, 2), "q"),
        (rs_build, (5, 5.0, 2), "n"),
        (rs_build, (5, 5, 2.0), "k"),
    ],
    ids=["goppa-u", "goppa-r", "hermitian-q", "hermitian-k", "rs-q", "rs-n", "rs-k"],
)
def test_builders_read_their_integer_parameters(build, args, name):
    """Each builder reads its integers through galois.integer_parameter,
    so a float is refused as ParameterOutOfRange naming that parameter."""
    bad = next(v for v in args if type(v) is float)
    with pytest.raises(ParameterOutOfRange, match=f"^{name} must be an integer, got {bad!r}$"):
        build(*args)


# -- all built codes have full-rank generators --------------------------------


def test_every_construction_full_rank():
    for code in [goppa_build(3, 1), goppa_build(4, 2), hermitian_build(2, 5), rs_build(5, 5, 2)]:
        assert rank(code.generator) == code.dim


# -- the kernel entry -----------------------------------------------------------

SPAN_CASES = {
    "goppa-3-1": lambda: goppa_build(3, 1),
    "goppa-4-2": lambda: goppa_build(4, 2),
    "hermitian-2-5": lambda: hermitian_build(2, 5),
    "rs-5-5-2": lambda: rs_build(5, 5, 2),
    "gf3-balanced": lambda: LabeledCode(GF3, MatrixF(GF3, [[1, 0, 2, 1, 0, 1], [0, 1, 1, 0, 2, 2]]), Labeling.balanced(3, 2)),
}


@pytest.mark.parametrize("build", SPAN_CASES.values(), ids=SPAN_CASES.keys())
def test_span_labelweight_is_the_labelweight_and_min_distance_of_a_code(build):
    code = build()
    rows = code.generator.to_bytes()
    assert span_labelweight(code.spec, rows, code.dim, code.labeling) == labelweight(code) == brute_labelweight(code)
    assert span_labelweight(code.spec, rows, code.dim, Labeling.identity(code.n)) == min_distance(code)


def test_min_distance_checks_no_rank_again(monkeypatch):
    code = rs_build(5, 4, 2)
    monkeypatch.setattr(codes, "rank", lambda *args: pytest.fail("rank recomputed"))
    assert min_distance(code) == 3


def test_span_labelweight_of_an_all_zero_span_is_the_sentinel():
    labeling = Labeling.balanced(3, 2)
    assert span_labelweight(FieldSpec(3), bytes(2 * 6), 2, labeling) == labeling.s + 1 == 4


def test_span_labelweight_refuses_fields_above_256():
    with pytest.raises(FieldTooLarge, match="field order 257 exceeds 256"):
        span_labelweight(FieldSpec(257), (1, 2, 3, 256), 1, Labeling.identity(4))


def test_span_labelweight_gates_the_budget_before_the_kernel(monkeypatch):
    monkeypatch.setenv("HSS_ENUM_BUDGET", "8")
    with pytest.raises(EnumerationBudgetExceeded, match="9 messages exceed budget 8; raise HSS_ENUM_BUDGET to force"):
        span_labelweight(FieldSpec(3), bytes(2 * 4), 2, Labeling.identity(4))


# -- serialization ------------------------------------------------------------


def test_code_text_roundtrip_byte_identical():
    for code in [goppa_build(3, 1), hermitian_build(2, 5), rs_build(5, 5, 2)]:
        doc = code_to_text(code)
        parsed = code_from_text(doc)
        assert code_to_text(parsed) == doc
        assert parsed.generator == code.generator
        assert parsed.labeling == code.labeling
        assert parsed.spec == code.spec


def test_code_text_rejects_garbage():
    with pytest.raises(DecodeError):
        code_from_text("not-a-code\n")
    doc = code_to_text(rs_build(5, 5, 2))
    with pytest.raises(DecodeError):
        code_from_text(doc.replace("n 5", "n 4"))
