"""Parity of the bit-packed enumeration kernel with an independent
itertools enumeration and with the depth-first walk it replaced
(``tests/oracles.py``), across field orders, label layouts, label counts
and generator shapes.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelweight_hss
from labelweight_hss import kernels
from labelweight_hss.codes import goppa_build
from labelweight_hss.galois import FieldSpec

import oracles

FIELDS = [
    FieldSpec(2),
    FieldSpec(3),
    FieldSpec(2, 2),
    FieldSpec(5),
    FieldSpec(2, 3),
    FieldSpec(7),
    FieldSpec(3, 2),
]


def reference(rows, nrows, ncols, labels0, spec):
    best = None
    for msg in itertools.product(range(spec.q), repeat=nrows):
        word = [0] * ncols
        for i, m in enumerate(msg):
            if m:
                for j in range(ncols):
                    word[j] = spec.add(word[j], spec.mul(m, rows[i * ncols + j]))
        touched = {labels0[j] for j, v in enumerate(word) if v}
        if touched:
            best = len(touched) if best is None else min(best, len(touched))
    return best


def args_for(spec, rows, nrows, ncols, labels0, s):
    return (bytes(rows), nrows, ncols, bytes(labels0), spec.add_table, spec.tables().mul, spec.q, s)


def random_labels(rng, ncols, s):
    """A surjective labeling onto s labels, groups uneven and interleaved."""
    labels0 = list(range(s)) + [rng.randrange(s) for _ in range(ncols - s)]
    rng.shuffle(labels0)
    return labels0


def assert_parity(spec, rows, nrows, ncols, labels0, s, with_reference=True):
    args = args_for(spec, rows, nrows, ncols, labels0, s)
    got = kernels.min_labelweight(*args)
    assert got == oracles.min_labelweight(*args)
    if with_reference:
        want = reference(args[0], nrows, ncols, args[3], spec)
        assert got == (s + 1 if want is None else want)
    return got


def test_backend_reports_which_is_active():
    assert kernels.BACKEND == "pure"
    assert labelweight_hss.KERNEL_BACKEND == "pure"


@pytest.mark.parametrize("spec", FIELDS)
def test_backends_match_reference(spec):
    rng = random.Random(100 + spec.q)
    for _ in range(40):
        nrows = rng.randrange(1, 5 if spec.q <= 4 else 4)
        ncols = rng.randrange(1, 9)
        s = rng.randrange(1, ncols + 1)
        labels0 = random_labels(rng, ncols, s)
        density = rng.random()  # sparse rows make rank-deficient spans
        rows = [rng.randrange(spec.q) if rng.random() < density else 0 for _ in range(nrows * ncols)]
        assert_parity(spec, rows, nrows, ncols, labels0, s)


@pytest.mark.parametrize(
    "spec, nrows",
    [(FieldSpec(2), k) for k in range(1, 10)]
    + [(FieldSpec(3), k) for k in range(1, 7)]
    + [(FieldSpec(2, 2), k) for k in range(1, 6)],
)
def test_split_of_odd_and_even_dimension(spec, nrows):
    # the split follows LOW_SPAN_CAP: the low span takes rows while it stays
    # within LOW_SPAN_CAP positions and its tables cost less than the high
    # words they save; the cases cover both parities of k
    rng = random.Random(nrows * 31 + spec.q)
    ncols, s = 12, 5
    for _ in range(4):
        labels0 = random_labels(rng, ncols, s)
        rows = [rng.randrange(spec.q) for _ in range(nrows * ncols)]
        assert_parity(spec, rows, nrows, ncols, labels0, s, with_reference=False)


@pytest.mark.parametrize("spec", FIELDS)
def test_uneven_label_groups(spec):
    # one wide group, singletons and an empty label
    labels0 = [0, 2, 0, 3, 0, 0, 2, 0, 3, 5]
    rng = random.Random(spec.q)
    for _ in range(5):
        rows = [rng.randrange(spec.q) for _ in range(2 * len(labels0))]
        assert_parity(spec, rows, 2, len(labels0), labels0, 6)


@pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2)])
def test_more_than_64_labels(spec):
    rng = random.Random(70 + spec.q)
    s = 70
    labels0 = random_labels(rng, 90, s)
    for _ in range(3):
        rows = [rng.randrange(spec.q) if rng.random() < 0.1 else 0 for _ in range(3 * 90)]
        assert_parity(spec, rows, 3, 90, labels0, s, with_reference=False)


@pytest.mark.parametrize("spec", FIELDS)
def test_rank_deficient_generators(spec):
    rng = random.Random(7 * spec.q)
    ncols, s = 6, 4
    labels0 = random_labels(rng, ncols, s)
    base = [rng.randrange(spec.q) for _ in range(ncols)]
    c = rng.randrange(1, spec.q) if spec.q > 2 else 1
    # row 2 is c * row 1, row 3 is zero
    rows = base + [spec.mul(c, v) for v in base] + [0] * ncols
    assert_parity(spec, rows, 3, ncols, labels0, s)


@pytest.mark.parametrize("spec", FIELDS)
def test_zero_generators(spec):
    for nrows in (1, 2, 3):
        assert assert_parity(spec, [0] * (nrows * 4), nrows, 4, [0, 1, 1, 2], 3) == 4


@pytest.mark.parametrize("p", [11, 131, 251])
def test_wide_prime_digit_fields(p):
    # digit fields grow with p; two digits near p must still add mod p
    spec = FieldSpec(p)
    rng = random.Random(p)
    for _ in range(4):
        labels0 = random_labels(rng, 5, 3)
        rows = [rng.choice([0, 1, p - 1, p - 2, rng.randrange(p)]) for _ in range(2 * 5)]
        assert_parity(spec, rows, 2, 5, labels0, 3, with_reference=False)


def test_packed_matches_oracle_on_goppa_code():
    code = goppa_build(4, 2)
    spec = code.spec
    args = (
        code.generator.to_bytes(),
        code.dim,
        code.n,
        bytes(v - 1 for v in code.labeling.map),
        spec.add_table,
        spec.tables().mul,
        spec.q,
        code.s,
    )
    assert kernels.min_labelweight(*args) == oracles.min_labelweight(*args)


def test_no_rows_raise():
    spec = FieldSpec(2)
    with pytest.raises(ValueError):
        kernels.min_labelweight(b"", 0, 2, bytes([0, 1]), spec.add_table, spec.tables().mul, 2, 2)


def test_walk_holds_half_spans_not_the_whole_span():
    # 2^16 messages: one list of the whole span would hold 2^16 pointers
    spec = FieldSpec(2)
    nrows, ncols = 16, 32
    rng = random.Random(16)
    rows = bytes(rng.randrange(2) for _ in range(nrows * ncols))
    args = (rows, nrows, ncols, bytes(range(ncols)), spec.add_table, spec.tables().mul, 2, ncols)
    tracemalloc.start()
    try:
        got = kernels.min_labelweight(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got > 1  # no early stop: every pair was walked
    assert peak < 2**16 * 8 // 8, f"traced peak {peak} B"


def test_rank_deficient_rows_are_skipped_not_zero():
    # two equal rows over GF(2): the span is {00, 11}; labelweight 2
    spec = FieldSpec(2)
    rows = bytes([1, 1, 1, 1])
    got = kernels.min_labelweight(rows, 2, 2, bytes([0, 1]), spec.add_table, spec.tables().mul, 2, 2)
    assert got == 2


def test_zero_generator_returns_sentinel():
    spec = FieldSpec(2)
    rows = bytes([0, 0])
    got = kernels.min_labelweight(rows, 1, 2, bytes([0, 1]), spec.add_table, spec.tables().mul, 2, 2)
    assert got == 3  # s + 1


def test_wide_labels_use_pure_path():
    # s > 64 exercises the set-based fallback
    spec = FieldSpec(2)
    ncols = 70
    labels0 = bytes(range(70))
    rows = bytes([1] * 70)
    got = kernels.min_labelweight(rows, 1, ncols, labels0, spec.add_table, spec.tables().mul, 2, 70)
    assert got == 70


# -- the bit-sliced walk against both oracles ----------------------------------------

KERNEL_FIELDS = FIELDS + [FieldSpec(11), FieldSpec(131), FieldSpec(251)]


@st.composite
def kernel_cases(draw):
    """A generator, labels and s.  Labels are uneven and interleaved, s
    reaches past 64 and past the labels that own columns, and the rows may
    repeat a scaled row, be all zero, or hold a one-column word (labelweight
    1, where the walk stops early).  q^nrows stays small enough for the
    depth-first oracle."""
    spec = draw(st.sampled_from(KERNEL_FIELDS))
    q = spec.q
    nrows = draw(st.integers(1, max(k for k in range(1, 13) if q**k <= 4096)))
    ncols = draw(st.integers(1, 12))
    s = draw(st.integers(1, 72))
    labels0 = draw(st.lists(st.integers(0, s - 1), min_size=ncols, max_size=ncols))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    shape = draw(st.sampled_from(["random", "scaled copy", "zero", "weight one"]))
    c = draw(st.integers(1, q - 1))
    if shape == "scaled copy" and nrows > 1:
        rows[-1] = [spec.mul(c, v) for v in rows[0]]
    elif shape == "zero":
        rows = [[0] * ncols for _ in rows]
    elif shape == "weight one":
        j = draw(st.integers(0, ncols - 1))
        rows[draw(st.integers(0, nrows - 1))] = [c if i == j else 0 for i in range(ncols)]
    return shape, args_for(spec, [v for row in rows for v in row], nrows, ncols, labels0, s)


@settings(max_examples=300, deadline=None, database=None)
@given(kernel_cases())
def test_sliced_walk_matches_both_oracles(case):
    shape, args = case
    got = kernels.min_labelweight(*args)
    assert got == oracles.packed_min_labelweight(*args) == oracles.min_labelweight(*args)
    if shape == "zero":
        assert got == args[-1] + 1
    elif shape == "weight one":
        assert got == 1


@pytest.mark.parametrize("nrows", range(1, 17))
def test_every_gf2_dimension_across_the_low_span_cap(nrows):
    # the low span holds at most 2^11 positions, so k = 12..16 walk
    # high words and k <= 11 may not
    spec = FieldSpec(2)
    rng = random.Random(1600 + nrows)
    ncols, s = 26, 11
    labels0 = random_labels(rng, ncols, s)
    rows = [rng.randrange(2) for _ in range(nrows * ncols)]
    args = args_for(spec, rows, nrows, ncols, labels0, s)
    got = kernels.min_labelweight(*args)
    assert got == oracles.packed_min_labelweight(*args)
    if nrows <= 12:
        assert got == oracles.min_labelweight(*args)
    # a one-column word in the last row: the walk stops early at 1
    rows[-ncols:] = [0] * (ncols - 1) + [1]
    args = args_for(spec, rows, nrows, ncols, labels0, s)
    assert kernels.min_labelweight(*args) == oracles.packed_min_labelweight(*args) == 1
