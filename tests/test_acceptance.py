"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every tolerance and runtime bound is asserted, not just reported.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from labelweight_hss.analysis import (
    GvConfig,
    ball_bound_holds,
    emit_table,
    entropy_gen,
    gv_monte_carlo,
    hermitian_params,
)
from labelweight_hss.codes import (
    LabeledCode,
    Labeling,
    ball_volume,
    goppa_build,
    goppa_condition,
    hermitian_build,
    hermitian_designed_distance,
    hermitian_points,
    labelweight,
    min_distance,
    rs_build,
    word_labelweight,
)
from labelweight_hss.galois import FieldSpec
from labelweight_hss.hss import (
    privacy_audit,
    run_end_to_end,
    scheme_for_code,
    scheme_rate,
)
from labelweight_hss.matrix import MatrixF, rank
from labelweight_hss.protocol import WireMessage, decode, encode, simulate
from oracles import column_indices, verify_block_system


@contextmanager
def criterion(number, label, limit=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeded the {limit}s budget")
    except BaseException:
        print(f"criterion {number:>2}: FAIL - {label}")
        raise
    print(f"criterion {number:>2}: PASS ({elapsed:.2f}s) - {label}")


@pytest.fixture(scope="module")
def schemes():
    built = {
        "goppa-u3-r1": scheme_for_code(goppa_build(3, 1), t=1, d=1),
        "goppa-u4-r2": scheme_for_code(goppa_build(4, 2), t=1, d=2),
        "hermitian-q2-k5": scheme_for_code(hermitian_build(2, 5), t=1, d=2),
        "rs-5-2": scheme_for_code(rs_build(5, 5, 2), t=1, d=2),
    }
    return built


def _seeded_secrets(scheme, rng):
    q = scheme.params.spec.q
    return [[rng.randrange(q) for _ in range(scheme.params.m)] for _ in range(scheme.params.ell)]


def test_criterion_1_end_to_end_correctness(schemes):
    with criterion(1, "end-to-end correctness, 200 trials per scheme, zero failures", limit=60):
        for name, scheme in schemes.items():
            rng = random.Random(hash(name) & 0xFFFF)
            failures = 0
            for trial in range(200):
                result = run_end_to_end(scheme, _seeded_secrets(scheme, rng), seed=trial)
                failures += not result.ok
            assert failures == 0, f"{name}: {failures} failures"


GOPPA_PRINTED = {
    64: ("0.93", 360, "0.65", 42),
    128: ("0.96", 868, "0.82", 106),
    256: ("0.98", 2016, "0.91", 234),
    512: ("0.99", 4572, "0.96", 490),
    1024: ("0.99", 10200, "0.98", 1002),
    2048: ("0.99", 22484, "0.99", 2026),
}


def test_criterion_2_goppa_table():
    with criterion(2, "subfield-family table: 6 rows x 4 printed columns exact", limit=1):
        table = emit_table("goppa", 4, sorted(GOPPA_PRINTED))
        for row in table.rows:
            s = row["s"]
            want = GOPPA_PRINTED[s]
            got = (row["baseline_rate"], row["baseline_amort"], row["ours_rate"], row["ours_amort"])
            assert got == want, f"s={s}: {got} != {want}"
            assert row["baseline_amort"] == (s - 4) * int(math.log2(s))


HERMITIAN_PRINTED = {
    50: ("0.92", 69, "0.75", 42, "-18", "-39"),
    100: ("0.96", 145, "0.83", 88, "-13", "-39"),
    200: ("0.98", 294, "0.88", 182, "-10", "-38"),
    300: ("0.98", 444, "0.90", 277, "-8", "-38"),
    400: ("0.99", 594, "0.91", 373, "-7", "-37"),
    500: ("0.99", 744, "0.92", 469, "-7", "-37"),
    1000: ("0.99", 1494, "0.94", 951, "-5", "-36"),
}


def test_criterion_3_hermitian_table():
    with criterion(3, "curve-family table: 7 rows exact (s=100 baseline within 1)", limit=1):
        table = emit_table("hermitian", 4, sorted(HERMITIAN_PRINTED))
        for row in table.rows:
            s = row["s"]
            want = HERMITIAN_PRINTED[s]
            if s == 100:
                assert abs(row["baseline_amort"] - want[1]) <= 1
            else:
                assert row["baseline_amort"] == want[1]
            assert row["baseline_rate"] == want[0]
            assert (row["ours_rate"], row["ours_amort"]) == (want[2], want[3])
            assert (row["pct_rate"], row["pct_amort"]) == (want[4], want[5])


def test_criterion_4_goppa_dimension_exactness():
    with criterion(4, "subfield-code dimensions exact: (4,2)->8 and (6,4)->40", limit=30):
        assert goppa_condition(4, 2)
        assert goppa_condition(6, 4)
        assert goppa_build(4, 2).dim == 8
        assert goppa_build(6, 4).dim == 40


def test_criterion_5_hermitian_structure():
    with criterion(5, "curve point counts q^3 and exact distance 3 at (q=2, k=5)", limit=30):
        for q in (2, 3, 4):
            _, pts = hermitian_points(q)
            assert len(pts) == q**3
        code = hermitian_build(2, 5)
        assert min_distance(code) == 3 == hermitian_designed_distance(2, 5)


def test_criterion_6_restriction_rank(schemes):
    with criterion(6, "every large column restriction keeps full row rank (s <= 16)"):
        targets = [(s.code, s.params.d * s.params.t) for s in schemes.values()]
        # synthetic non-identity labelings exercised as well
        gf2 = FieldSpec(2)
        balanced = LabeledCode(gf2, MatrixF(gf2, [[1, 1, 1, 1]]), Labeling.balanced(2, 2))
        skewed = LabeledCode(gf2, MatrixF(gf2, [[1, 0, 1]]), Labeling(2, [1, 1, 2]))
        targets += [(balanced, 1), (skewed, 1)]
        for code, dt in targets:
            assert code.s <= 16
            assert labelweight(code) >= dt + 1
            for lam in itertools.combinations(range(1, code.s + 1), code.s - dt):
                cols = column_indices(code.labeling.map, lam)
                sub = MatrixF(code.spec, [[row[j] for j in cols] for row in code.generator.data])
                assert rank(sub) == code.dim, f"{code}: rank deficit at {lam}"


def test_criterion_7_block_system_literal(schemes):
    with criterion(7, "materialized coefficient system satisfied exactly (s <= 5)"):
        gf2 = FieldSpec(2)
        repetition = scheme_for_code(
            LabeledCode(gf2, MatrixF(gf2, [[1, 1]]), Labeling.identity(2)), t=1, d=1
        )
        small = [repetition, schemes["rs-5-2"]]
        for scheme in small:
            assert scheme.params.s <= 5 and scheme.params.d <= 2 and scheme.params.t == 1
            assert verify_block_system(scheme)


def test_criterion_8_privacy_audits():
    with criterion(8, "exhaustive privacy audits: exact view-multiset equality", limit=60):
        for t, s, spec in [(1, 2, FieldSpec(2)), (1, 3, FieldSpec(2)), (2, 4, FieldSpec(3))]:
            report = privacy_audit(t, s, spec)
            assert report.all_equal, f"s={s}, t={t}: distribution mismatch"


def test_criterion_9_entropy_and_ball_properties():
    with criterion(9, "entropy sandwich, exponent identity, exact ball bounds"):
        for q in (2, 3):
            for w in (1, 2, 4):
                hi = 1 - q**-w
                for i in range(51):
                    x = hi * i / 50
                    ratio = entropy_gen(q, w, x) / w
                    assert x - 1e-12 <= ratio <= x + math.log(2, q) / w + 1e-12
                s = 10
                for i in range(1, 50):
                    p = hi * i / 50
                    lhs = q ** (-s * entropy_gen(q, w, p))
                    rhs = (1 - p) ** ((1 - p) * s) * (p / (q**w - 1)) ** (p * s)
                    assert lhs == pytest.approx(rhs, rel=1e-10)
                    assert p / ((1 - p) * (q**w - 1)) <= 1 + 1e-12
        # exact integer ball-volume bound on the grid
        for q, w in [(2, 1), (2, 2), (3, 1)]:
            s = 10
            top = int((1 - q**-w) * s)
            for ps in range(top + 1):
                vol = ball_volume(s, w, q, ps)
                assert vol <= math.ceil(q ** (s * entropy_gen(q, w, ps / s)))
        # volumes agree with exhaustive enumeration for s*w <= 16
        for s, w, q in [(8, 2, 2), (5, 3, 2), (4, 2, 3)]:
            lab = Labeling.balanced(s, w)
            counts = [0] * (s + 1)
            for word in itertools.product(range(q), repeat=s * w):
                counts[word_labelweight(lab, word)] += 1
            for radius in range(s + 1):
                assert ball_volume(s, w, q, radius) == sum(counts[: radius + 1])


def test_criterion_10_gv_monte_carlo():
    with criterion(10, "random-code miss rate within q^(-eps n) + 3 sigma, 500+ trials", limit=300):
        configs = [
            GvConfig(2, 2, 6, Fraction(1, 3), Fraction(1, 10)),
            GvConfig(2, 3, 5, Fraction(2, 5), Fraction(1, 20)),
        ]
        for cfg in configs:
            report = gv_monte_carlo(cfg, trials=500, seed=2024)
            assert report.within_bound, f"{cfg}: {report.failure_fraction} > {report.bound} + {report.slack}"
            assert report.ball_bound_ok
            assert ball_bound_holds(cfg)


def test_criterion_11_protocol_equivalence(schemes):
    with criterion(11, "protocol outputs byte-identical to monolith; wire fuzz lossless"):
        for name, scheme in schemes.items():
            rng = random.Random(len(name))
            for trial in range(25):
                secrets = _seeded_secrets(scheme, rng)
                transcript, sim_out = simulate(scheme, secrets, seed=trial)
                mono = run_end_to_end(scheme, secrets, seed=trial)
                assert mono.ok
                assert bytes(sim_out) == bytes(mono.outputs)
                assert transcript.download_rate(scheme.params.ell) == scheme_rate(scheme)
        fuzz = random.Random(4096)
        for _ in range(10_000):
            message = WireMessage(
                fuzz.choice([1, 2, 3]),
                fuzz.randrange(2**16),
                fuzz.randrange(2**16),
                bytes(fuzz.randrange(256) for _ in range(fuzz.randrange(12))),
            )
            assert decode(encode(message)) == message


def test_asymptotic_scaling_property():
    with criterion(12, "curve-family rate deficit times s^(1/3) stays within [1/2, 1]"):
        for s in (8, 27, 64, 125, 1000):
            row = hermitian_params(s, 2, 2)
            deficit = 1 - 4 / s - float(row.rate_exact)
            scaled = deficit * s ** (1 / 3)
            assert 0.5 - 1e-9 <= scaled <= 1.0 + 1e-9
