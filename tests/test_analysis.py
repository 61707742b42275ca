import itertools
import math
import random
from fractions import Fraction

import pytest

from labelweight_hss.analysis import (
    GvConfig,
    ball_bound_holds,
    baseline_amort_lower,
    emit_table,
    entropy_gen,
    baseline_params,
    goppa_params,
    goppa_u_threshold,
    gv_dimension,
    gv_monte_carlo,
    hermitian_params,
    round_half_away,
    truncate_decimals,
)
from labelweight_hss.codes import Labeling, ball_volume, goppa_build, hermitian_build, span_labelweight
from labelweight_hss.errors import (
    ConditionViolated,
    DegenerateDimension,
    NotACube,
    ParameterOutOfRange,
)
from labelweight_hss.galois import FieldSpec, randrange_run
from labelweight_hss.hss import run_end_to_end, scheme_for_code, scheme_rate
from labelweight_hss.matrix import MatrixF, rank

import oracles

# The printed reference tables (d*t = 4 throughout).
GOPPA_TABLE = {
    64: ("0.93", 360, "0.65", 42, "-31", "-88"),
    128: ("0.96", 868, "0.82", 106, "-15", "-88"),
    256: ("0.98", 2016, "0.91", 234, "-7", "-88"),
    512: ("0.99", 4572, "0.96", 490, "-3", "-89"),
    1024: ("0.99", 10200, "0.98", 1002, "-1.8", "-90"),
    2048: ("0.99", 22484, "0.99", 2026, "-0.9", "-91"),
}

HERMITIAN_TABLE = {
    50: ("0.92", 69, "0.75", 42, "-18", "-39"),
    100: ("0.96", 145, "0.83", 88, "-13", "-39"),  # baseline amort printed 145; formula gives 144
    200: ("0.98", 294, "0.88", 182, "-10", "-38"),
    300: ("0.98", 444, "0.90", 277, "-8", "-38"),
    400: ("0.99", 594, "0.91", 373, "-7", "-37"),
    500: ("0.99", 744, "0.92", 469, "-7", "-37"),
    1000: ("0.99", 1494, "0.94", 951, "-5", "-36"),
}


# -- baseline -------------------------------------------------------------------


def test_fikw_goppa_table_row_64():
    row = baseline_params(64, 4, 1, 2)
    assert row.rate_exact == Fraction(60, 64)
    assert row.rate_printed == "0.93"
    assert row.amort_printed == 360


def test_fikw_hermitian_row_1000():
    row = baseline_params(1000, 4, 1, 1000 ** (2 / 3))
    assert row.amort_printed == 1494


def test_fikw_boundary():
    row = baseline_params(5, 4, 1, 2)  # s = dt + 1
    assert row.rate_exact == Fraction(1, 5)
    assert row.amort_printed == 1 * 3  # ceil(log2 5) = 3
    with pytest.raises(ParameterOutOfRange):
        baseline_params(4, 4, 1, 2)


def test_bw23_lower_bound():
    assert baseline_amort_lower(64, 4, 1, 2) == 360
    # symmetric case s = 2dt: both logs agree
    assert baseline_amort_lower(8, 2, 2, 2) == 4 * math.ceil(math.log2(5))
    # huge alphabet: multiplier collapses to 1
    assert baseline_amort_lower(10, 2, 2, 101) == 6


@pytest.mark.parametrize("q", [1, 0])
def test_bw23_lower_bound_refuses_a_field_below_two(q):
    """No power of q < 2 reaches s - dt + 1, so the logarithm is refused
    rather than searched for forever."""
    with pytest.raises(ParameterOutOfRange, match=f"^need q >= 2, got q={q}$"):
        baseline_amort_lower(10, 2, 2, q)


# -- hermitian family -------------------------------------------------------------


def test_hermitian_params_row_1000():
    row = hermitian_params(1000, 4, 1)
    assert row.amort_exact == 951
    assert row.amort_printed == 951
    assert row.rate_printed == "0.94"


def test_hermitian_params_row_50():
    row = hermitian_params(50, 4, 1)
    assert row.amort_printed == 42
    assert row.rate_printed == "0.75"


def test_hermitian_matches_built_code_dimension():
    from labelweight_hss.codes import hermitian_build

    row = hermitian_params(8, 2, 1, exact=True)
    assert row.amort_exact == 8 - 2 - (4 - 2) // 2  # = 5
    code = hermitian_build(2, 5)
    assert code.dim == row.amort_exact


def test_hermitian_exact_mode_rejects_non_cube():
    with pytest.raises(NotACube):
        hermitian_params(50, 4, 1, exact=True)


# -- goppa family ------------------------------------------------------------------


def test_goppa_threshold_value():
    # 2*16 - 16 + 10*sqrt(10) + 3 = 50.6227766...
    assert goppa_u_threshold(4) == pytest.approx(math.log2(50.6227766017), abs=1e-9)


def test_goppa_threshold_mode_row_64():
    row = goppa_params(64, 4, 1, mode="threshold")
    assert row.amort_printed == 42
    assert row.rate_printed == "0.65"


def test_goppa_threshold_mode_row_2048():
    row = goppa_params(2048, 4, 1, mode="threshold")
    assert row.amort_printed == 2026
    assert row.rate_printed == "0.99"


def test_goppa_exact_mode_row_64():
    row = goppa_params(64, 4, 1, mode="exact")
    assert row.rate_exact == Fraction(40, 64)
    assert row.amort_exact == 40
    assert 6 > goppa_u_threshold(4)


def test_goppa_exact_mode_condition_violated():
    with pytest.raises(ConditionViolated):
        goppa_params(32, 4, 1, mode="exact")  # u=5 < 5.66 threshold


def test_goppa_exact_mode_needs_power_of_two():
    with pytest.raises(ParameterOutOfRange):
        goppa_params(100, 4, 1, mode="exact")


# -- full tables -------------------------------------------------------------------


def test_goppa_table_reproduction():
    table = emit_table("goppa", 4, sorted(GOPPA_TABLE))
    for row in table.rows:
        want = GOPPA_TABLE[row["s"]]
        got = (
            row["baseline_rate"],
            row["baseline_amort"],
            row["ours_rate"],
            row["ours_amort"],
            row["pct_rate"],
            row["pct_amort"],
        )
        assert got == want, f"s={row['s']}: {got} != {want}"


def test_hermitian_table_reproduction():
    table = emit_table("hermitian", 4, sorted(HERMITIAN_TABLE))
    for row in table.rows:
        want = HERMITIAN_TABLE[row["s"]]
        if row["s"] == 100:
            assert abs(row["baseline_amort"] - want[1]) <= 1
        else:
            assert row["baseline_amort"] == want[1]
        assert row["baseline_rate"] == want[0]
        assert row["ours_rate"] == want[2]
        assert row["ours_amort"] == want[3]
        assert row["pct_rate"] == want[4]
        assert row["pct_amort"] == want[5]


def test_table_csv_schema():
    table = emit_table("goppa", 4, [64, 128])
    lines = table.render("csv").splitlines()
    assert lines[0] == "s,baseline_rate,baseline_amort,ours_rate,ours_amort,pct_rate,pct_amort"
    assert lines[1].startswith("64,0.93,360,0.65,42,")


def test_gv_example_table():
    table = emit_table("gv-example", 4, [64], eps=Fraction(1, 100))
    row = table.rows[0]
    assert row["w"] == 6
    assert row["n"] == 384
    # dimension guarantee dominates the closed-form lower bound
    assert row["k_gv"] >= float(row["amort_lower_bound"])


# -- rounding helpers -------------------------------------------------------------


def test_rounding_conventions():
    assert truncate_decimals(Fraction(15, 16), 2) == "0.93"
    assert round_half_away(0.64614292, 2) == "0.65"
    assert round_half_away(0.005, 2) == "0.01"
    assert truncate_decimals(-3.67, 0) == "-3"
    assert round_half_away(-87.862, 0) == "-88"


# -- entropy ------------------------------------------------------------------------


def test_entropy_binary_maximum():
    assert entropy_gen(2, 1, 0.5) == pytest.approx(1.0)


def test_entropy_endpoints():
    assert entropy_gen(3, 2, 0.0) == 0.0
    assert entropy_gen(3, 2, 1.0) == pytest.approx(math.log(3**2 - 1) / math.log(3))


def test_entropy_w1_is_standard_q_ary():
    for q in (2, 3, 5):
        for i in range(1, 20):
            x = i / 20 * (1 - 1 / q)
            std = x * math.log(q - 1, q) - x * math.log(x, q) - (1 - x) * math.log(1 - x, q)
            assert entropy_gen(q, 1, x) == pytest.approx(std, abs=1e-12)


def test_entropy_linear_sandwich():
    # x <= H/w <= x + log_q(2)/w on [0, 1 - q^-w]
    for q in (2, 3):
        for w in (1, 2, 4):
            hi = 1 - q**-w
            for i in range(51):
                x = hi * i / 50
                ratio = entropy_gen(q, w, x) / w
                assert x - 1e-12 <= ratio <= x + math.log(2, q) / w + 1e-12


def test_entropy_exponent_identity():
    # q^(-s H) = (1-p)^((1-p)s) * (p/(q^w-1))^(ps), relative 1e-10
    s = 10
    for q in (2, 3):
        for w in (1, 2, 4):
            hi = 1 - q**-w
            for i in range(1, 50):
                p = hi * i / 50
                lhs = q ** (-s * entropy_gen(q, w, p))
                rhs = (1 - p) ** ((1 - p) * s) * (p / (q**w - 1)) ** (p * s)
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bounding_ratio():
    for q in (2, 3):
        for w in (1, 2, 4):
            hi = 1 - q**-w
            for i in range(51):
                p = hi * i / 50
                assert p / ((1 - p) * (q**w - 1)) <= 1 + 1e-12


def test_ball_volume_entropy_bound_exact():
    # Vol(ps) <= ceil(q^(s H(p))) for every integral radius on the grid
    s = 10
    for q in (2, 3):
        for w in (1, 2):
            top = int((1 - q**-w) * s)
            for ps in range(0, top + 1):
                p = ps / s
                vol = ball_volume(s, w, q, ps)
                bound = math.ceil(q ** (s * entropy_gen(q, w, p)))
                assert vol <= bound


# -- dimension and Monte Carlo --------------------------------------------------------


def test_gv_dimension_no_constraint():
    cfg = GvConfig(2, 2, 4, Fraction(0), Fraction(0))
    assert gv_dimension(cfg) == 8  # k = n


def test_gv_dimension_frozen_example():
    cfg = GvConfig(2, 2, 8, Fraction(3, 8), Fraction(1, 20))
    h = entropy_gen(2, 2, 0.375)
    expected = math.floor(16 - 8 * h - 16 * 0.05)
    assert gv_dimension(cfg) == expected == 2


def test_gv_dimension_degenerate():
    with pytest.raises(DegenerateDimension):
        gv_dimension(GvConfig(2, 1, 4, Fraction(2, 4), Fraction(0)))


def test_gv_example_scaling_bound():
    # with w = log_q(s): k >= (1-eps) s log_q(s) - s log_q(2) - (dt+1) log_q(s)
    q, s, dt = 2, 64, 4
    w = 6
    for eps in (Fraction(1, 100), Fraction(1, 20)):
        delta = Fraction(dt + 1, s)
        h = entropy_gen(q, w, float(delta))
        k_real = s * w - s * h - s * w * float(eps)
        lower = (1 - float(eps)) * s * w - s * 1.0 - (dt + 1) * w
        assert k_real >= lower - 1e-9


def test_ball_bound_holds_for_configs():
    for cfg in [
        GvConfig(2, 2, 6, Fraction(1, 3), Fraction(1, 10)),
        GvConfig(2, 2, 8, Fraction(3, 8), Fraction(1, 20)),
        GvConfig(3, 1, 8, Fraction(1, 4), Fraction(1, 20)),
    ]:
        assert ball_bound_holds(cfg)


def test_gv_monte_carlo_labelweight_one_never_fails():
    # delta*s = 1: every nonzero word touches at least one block
    cfg = GvConfig(2, 2, 4, Fraction(1, 4), Fraction(0))
    report = gv_monte_carlo(cfg, trials=50, seed=1)
    assert report.failures == 0
    assert report.within_bound


def test_gv_monte_carlo_rank_deficient_sample_meeting_the_target_is_not_a_failure():
    # trials 39 and 47 of seed 1 draw rank-2 generators for k = 3; the
    # codes they span still touch a block with every nonzero word
    cfg = GvConfig(2, 2, 4, Fraction(1, 4), Fraction(0))
    k, spec, labeling = gv_dimension(cfg), FieldSpec(2), Labeling.balanced(cfg.s, cfg.w)
    deficient = []
    for index in range(50):
        rows = bytes(randrange_run(random.Random(f"1:{index}"), cfg.q, k * cfg.n))
        if rank(MatrixF(spec, [list(rows[i * cfg.n : (i + 1) * cfg.n]) for i in range(k)])) < k:
            deficient.append(index)
            assert span_labelweight(spec, rows, k, labeling) >= cfg.target
    assert deficient == [39, 47]
    assert gv_monte_carlo(cfg, trials=50, seed=1).failures == 0


def test_gv_monte_carlo_bound():
    cfg = GvConfig(2, 2, 6, Fraction(1, 3), Fraction(1, 10))
    report = gv_monte_carlo(cfg, trials=500, seed=20)
    assert report.within_bound
    assert report.ball_bound_ok
    assert report.dimension == gv_dimension(cfg)


def test_gv_monte_carlo_reproducible():
    cfg = GvConfig(2, 2, 6, Fraction(1, 3), Fraction(1, 10))
    a = gv_monte_carlo(cfg, trials=100, seed=3)
    b = gv_monte_carlo(cfg, trials=100, seed=3)
    assert a.failures == b.failures


# -- asymptotics at finite scale -------------------------------------------------------


def test_hermitian_rate_deficit_scaling():
    # deficit * s^(1/3) = (1 + s^(-1/3))/2 stays within a factor 2 of 1/2
    for s in (8, 27, 64, 125, 1000):
        row = hermitian_params(s, 2, 2)
        deficit = 1 - 4 / s - float(row.rate_exact)
        scaled = deficit * s ** (1 / 3)
        assert 0.5 <= scaled <= 1.0 + 1e-9


def test_rate_ceiling_on_exact_rows():
    for s in (64, 128, 256):
        row = goppa_params(s, 4, 1, mode="exact")
        assert 0 < row.rate_exact <= Fraction(s - 4, s)
    row = hermitian_params(1000, 4, 1)
    assert 0 < row.rate_exact <= Fraction(996, 1000)


# -- built rungs against their table rows --------------------------------------------
#
# A built rung's ell and rate come from the code it runs on (hss.scheme_rate,
# ell/n); the table side comes from the closed forms, which stay as printed.
# * hermitian_params charges q(q+1)/2 symbols in the rate but the genus
#   q(q-1)/2 in the amortization (q = s^(1/3)): the built code meets the
#   amortization and beats the rate.
# * goppa_params charges u*dt redundant symbols, but a binary Goppa code of
#   degree r = ceil(dt/2) already has distance 2r + 1 > dt, so the built code
#   has u*r.


def _runs(scheme):
    params = scheme.params
    secrets = [[(i + k) % params.spec.q for k in range(params.m)] for i in range(params.ell)]
    return run_end_to_end(scheme, secrets, seed=1).ok


def test_hermitian_64_56_rung_against_its_row():
    # checked at code level: synthesizing the (1, 2) scheme takes about 2 s
    code = hermitian_build(4, 56)
    row = hermitian_params(64, 2, 1)
    assert (code.n, code.dim, code.s, code.spec.q) == (64, 56, 64, 16)
    assert Fraction(code.dim, code.n) == Fraction(7, 8) <= Fraction(64 - 2, 64)
    assert (row.rate_exact, row.rate_printed) == (Fraction(13, 16), "0.81")
    assert row.amort_exact == row.amort_printed == code.dim == 56


def test_hermitian_125_113_rung_against_its_row():
    # checked at code level: synthesizing the (1, 2) scheme takes about 30 s
    code = hermitian_build(5, 113)
    row = hermitian_params(125, 2, 1)
    assert (code.n, code.dim, code.s, code.spec.q) == (125, 113, 125, 25)
    assert Fraction(code.dim, code.n) == Fraction(113, 125) <= Fraction(125 - 2, 125)
    assert (row.rate_exact, row.rate_printed) == (Fraction(108, 125), "0.86")
    assert row.amort_exact == row.amort_printed == code.dim == 113


def test_hermitian_343_320_rung_against_its_row():
    # checked at code level: the largest rung the table lists, over GF(49),
    # is held in bytes like every other; its (1, 2) scheme needs a budget override
    code = hermitian_build(7, 320)
    row = hermitian_params(343, 2, 1)
    assert (code.n, code.dim, code.s, code.spec.q) == (343, 320, 343, 49)
    assert type(code.generator.to_bytes()) is bytes
    assert Fraction(code.dim, code.n) == Fraction(320, 343) <= Fraction(343 - 2, 343)
    assert (row.rate_exact, row.rate_printed) == (Fraction(313, 343), "0.91")
    assert row.amort_exact == row.amort_printed == code.dim == 320


def test_hermitian_64_55_rung_against_its_row():
    # checked at code level: the (1, 3) scheme has 14,417,920 monomials, past the default budget
    code = hermitian_build(4, 55)
    row = hermitian_params(64, 3, 1)
    assert (code.n, code.dim, code.s, code.spec.q) == (64, 55, 64, 16)
    assert Fraction(code.dim, code.n) == Fraction(55, 64) <= Fraction(64 - 3, 64)
    assert (row.rate_exact, row.rate_printed) == (Fraction(51, 64), "0.80")
    assert row.amort_exact == row.amort_printed == code.dim == 55


def test_hermitian_27_22_rung_against_its_row():
    scheme = scheme_for_code(hermitian_build(3, 22), t=1, d=2)
    row = hermitian_params(27, 2, 1)
    assert scheme.params.ell == 22 and scheme_rate(scheme) == Fraction(22, 27)
    assert (row.rate_exact, row.rate_printed) == (Fraction(19, 27), "0.70")
    assert row.amort_exact == row.amort_printed == 22
    assert _runs(scheme)


def test_goppa_32_22_rung_against_its_rows():
    scheme = scheme_for_code(goppa_build(5, 2), t=1, d=3)
    threshold, exact = goppa_params(32, 3, 1, "threshold"), goppa_params(32, 3, 1, "exact")
    assert scheme.params.ell == 22 and scheme_rate(scheme) == Fraction(11, 16)
    assert scheme.n - scheme.params.ell == 5 * 2  # u * ceil(dt/2), against u * dt = 15
    assert (threshold.rate_printed, threshold.amort_printed) == ("0.55", 18)
    assert (exact.rate_exact, exact.rate_printed, exact.amort_exact) == (Fraction(17, 32), "0.53", 17)
    assert _runs(scheme)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_gv_bulk_draw_is_one_randrange_call_per_entry(q):
    for seed in range(3):
        for index in range(4):
            bulk, one_by_one = random.Random(f"{seed}:{index}"), random.Random(f"{seed}:{index}")
            assert bytes(randrange_run(bulk, q, 15 * 28)) == bytes(one_by_one.randrange(q) for _ in range(15 * 28))
            assert bulk.getstate() == one_by_one.getstate()


def test_gv_monte_carlo_decides_each_per_call_sample():
    # trial 0 of seed s is the generator drawn entry by entry from
    # Random(f"{s}:0"), decided by the packed walk the kernel replaced
    cfg = GvConfig(2, 2, 14, Fraction(5, 14), Fraction(1, 50))  # k = 6, target 5
    k, spec = gv_dimension(cfg), FieldSpec(2)
    labels0 = bytes(v - 1 for v in Labeling.balanced(cfg.s, cfg.w).map)
    outcomes = set()
    for seed in range(60):
        rng = random.Random(f"{seed}:0")
        rows = bytes(rng.randrange(cfg.q) for _ in range(k * cfg.n))
        lw = oracles.packed_min_labelweight(rows, k, cfg.n, labels0, spec.add_table, spec.tables().mul, cfg.q, cfg.s)
        failed = int(lw < cfg.target)
        assert gv_monte_carlo(cfg, 1, seed).failures == failed
        outcomes.add(failed)
    assert outcomes == {0, 1}
