import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelweight_hss.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_goppa_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "goppa", "--dt", "4",
        "--servers", "64,128,256,512,1024,2048", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,baseline_rate,baseline_amort,ours_rate,ours_amort,pct_rate,pct_amort"
    assert lines[1] == "64,0.93,360,0.65,42,-31,-88"
    assert lines[6] == "2048,0.99,22484,0.99,2026,-0.9,-91"


def test_hermitian_table_markdown(capsys):
    code, out, _ = run(
        capsys, "table", "hermitian", "--dt", "4", "--servers", "50,1000", "--format", "markdown",
    )
    assert code == 0
    assert "| 50 | 0.92 | 69 | 0.75 | 42 | -18% | -39% |" in out
    assert "| 1000 | 0.99 | 1494 | 0.94 | 951 | -5% | -36% |" in out


# the output of `table <kind> --dt 4 --servers 64,128,1024 --format <format>`, line by line
TABLE_OUTPUT = {
    ("goppa", "csv"): [
        "s,baseline_rate,baseline_amort,ours_rate,ours_amort,pct_rate,pct_amort",
        "64,0.93,360,0.65,42,-31,-88",
        "128,0.96,868,0.82,106,-15,-88",
        "1024,0.99,10200,0.98,1002,-1.8,-90",
    ],
    ("goppa", "markdown"): [
        "| # Servers | DL Rate | Amortize | DL Rate | Amortize | % DL Rate | % Amortize |",
        "|---|---|---|---|---|---|---|",
        "| 64 | 0.93 | 360 | 0.65 | 42 | -31% | -88% |",
        "| 128 | 0.96 | 868 | 0.82 | 106 | -15% | -88% |",
        "| 1024 | 0.99 | 10200 | 0.98 | 1002 | -1.8% | -90% |",
    ],
    ("goppa", "text"): [
        "s     baseline_rate  baseline_amort  ours_rate  ours_amort  pct_rate  pct_amort",
        "64    0.93           360             0.65       42          -31       -88      ",
        "128   0.96           868             0.82       106         -15       -88      ",
        "1024  0.99           10200           0.98       1002        -1.8      -90      ",
    ],
    ("hermitian", "csv"): [
        "s,baseline_rate,baseline_amort,ours_rate,ours_amort,pct_rate,pct_amort",
        "64,0.93,90,0.78,54,-16,-40",
        "128,0.96,186,0.85,114,-12,-39",
        "1024,0.99,1530,0.94,975,-5,-36",
    ],
    ("hermitian", "markdown"): [
        "| # Servers | DL Rate | Amortize | DL Rate | Amortize | % DL Rate | % Amortize |",
        "|---|---|---|---|---|---|---|",
        "| 64 | 0.93 | 90 | 0.78 | 54 | -16% | -40% |",
        "| 128 | 0.96 | 186 | 0.85 | 114 | -12% | -39% |",
        "| 1024 | 0.99 | 1530 | 0.94 | 975 | -5% | -36% |",
    ],
    ("hermitian", "text"): [
        "s     baseline_rate  baseline_amort  ours_rate  ours_amort  pct_rate  pct_amort",
        "64    0.93           90              0.78       54          -16       -40      ",
        "128   0.96           186             0.85       114         -12       -39      ",
        "1024  0.99           1530            0.94       975         -5        -36      ",
    ],
    ("gv-example", "csv"): [
        "s,w,n,k_gv,rate_gv,amort_lower_bound",
        "64,6,384,309,0.8047,270.80",
        "128,7,896,785,0.8761,688.20",
        "1024,10,10240,9632,0.9406,8654.00",
    ],
    ("gv-example", "markdown"): [
        "| s | w | n | k | rate | amortization lower bound |",
        "|---|---|---|---|---|---|",
        "| 64 | 6 | 384 | 309 | 0.8047 | 270.80 |",
        "| 128 | 7 | 896 | 785 | 0.8761 | 688.20 |",
        "| 1024 | 10 | 10240 | 9632 | 0.9406 | 8654.00 |",
    ],
    ("gv-example", "text"): [
        "s     w   n      k_gv  rate_gv  amort_lower_bound",
        "64    6   384    309   0.8047   270.80           ",
        "128   7   896    785   0.8761   688.20           ",
        "1024  10  10240  9632  0.9406   8654.00          ",
    ],
}


@pytest.mark.parametrize("kind, fmt", sorted(TABLE_OUTPUT))
def test_table_output_is_pinned(capsys, kind, fmt):
    code, out, err = run(capsys, "table", kind, "--dt", "4", "--servers", "64,128,1024", "--format", fmt)
    assert (code, err) == (0, "")
    assert out == "\n".join(TABLE_OUTPUT[(kind, fmt)]) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "markdown", "text"])
def test_table_of_no_servers_is_its_heading(capsys, fmt):
    code, out, err = run(capsys, "table", "goppa", "--dt", "4", "--servers", ",", "--format", fmt)
    assert (code, err) == (0, "")
    columns = TABLE_OUTPUT[("goppa", "csv")][0].split(",")
    heading = {
        "csv": [",".join(columns)],
        "markdown": TABLE_OUTPUT[("goppa", "markdown")][:2],
        "text": ["  ".join(columns)],
    }
    assert out.splitlines() == heading[fmt]


def test_demo_exact_spec_invocation(capsys):
    code, out, _ = run(
        capsys, "demo", "--code", "goppa", "--u", "3", "--r", "1",
        "--t", "1", "--d", "1", "--trials", "200", "--seed", "7",
    )
    assert code == 0
    assert "200/200 correct" in out


def test_demo_parameter_out_of_range(capsys):
    code, _, err = run(capsys, "demo", "--code", "hermitian", "--q", "2", "--k", "99", "--t", "1", "--d", "1")
    assert code == 2
    assert "error" in err


def test_demo_of_a_code_below_the_labelweight_names_the_servers_lacking_rank(capsys):
    # RS [5,4] has labelweight 2; t=1, d=2 needs 3, and the servers 3, 4, 5 outside {1, 2} lack rank 4
    code, out, err = run(capsys, "demo", "--code", "rs", "--q", "5", "--n", "5", "--k", "4", "--t", "1", "--d", "2")
    assert (code, out) == (1, "")
    assert err == "error: columns labeled [3, 4, 5] have rank below 4; labelweight < 3\n"


def test_demo_past_the_share_budget_exits_1_before_drawing(capsys):
    # 8 instances x 20,000 variables x (C(16, 4) - 1) share draws, past the 2^24 default
    code, out, err = run(capsys, "demo", "--code", "goppa", "--u", "4", "--r", "2", "--t", "4", "--d", "1", "--m", "20000")
    assert (code, out) == (1, "")
    assert err == "error: 291040000 share draws exceed budget 16777216; raise HSS_ENUM_BUDGET to force\n"


def test_demo_bad_flag_usage(capsys):
    code, _, _ = run(capsys, "demo", "--code", "goppa", "--u", "3")
    assert code == 2


def test_byte_identical_reruns(capsys):
    argv = ["demo", "--code", "rs", "--q", "5", "--n", "5", "--k", "2",
            "--t", "1", "--d", "2", "--trials", "5", "--seed", "3"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_code_build_info_labelweight_roundtrip(capsys, tmp_path):
    path = tmp_path / "code.txt"
    code, out, _ = run(
        capsys, "code", "build", "--family", "goppa", "--u", "3", "--r", "1", "--out", str(path)
    )
    assert code == 0
    assert path.read_text().startswith("labelweight-code/v1\n")

    code, out, _ = run(capsys, "code", "info", "--in", str(path))
    assert code == 0
    assert "field GF(2^1)/modulus=[0,1]" in out  # binary codeword alphabet
    assert "n 7" in out

    code, out, _ = run(capsys, "code", "labelweight", "--in", str(path))
    assert code == 0
    assert int(out.strip()) >= 2


def test_simulate_with_transcript_dump_and_replay(capsys, tmp_path):
    path = tmp_path / "transcript.txt"
    code, out, _ = run(
        capsys, "simulate", "--code", "rs", "--q", "5", "--n", "5", "--k", "2",
        "--t", "1", "--d", "2", "--trials", "3", "--seed", "1",
        "--dump-transcript", str(path),
    )
    assert code == 0
    assert "3/3 correct" in out
    assert "rate=2/5" in out
    assert path.read_text().startswith("labelweight-hss-transcript/v1\n")

    code, out, _ = run(capsys, "simulate", "--replay", str(path))
    assert code == 0
    assert "downloaded-symbols 5" in out


@pytest.mark.parametrize("q_line", ["q x", "q 0", "q 1", "q -5", "q 2.5", "q 6", "q 100"])
def test_replay_rejects_a_bad_field_order_line(capsys, tmp_path, q_line):
    path = tmp_path / "transcript.txt"
    path.write_text(f"labelweight-hss-transcript/v1\n{q_line}\n")
    code, out, err = run(capsys, "simulate", "--replay", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("decode error: ")


@pytest.mark.parametrize("command", ["demo", "simulate"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_trials_below_one_is_a_usage_error(capsys, command, trials):
    code, out, err = run(
        capsys, command, "--code", "goppa", "--u", "3", "--r", "1",
        "--t", "1", "--d", "1", "--trials", trials,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be >= 1, got {trials}\n"


def test_labelweight_over_large_field_is_a_typed_limit(capsys):
    code, out, err = run(capsys, "code", "labelweight", "--family", "rs", "--q", "257", "--k", "1", "--n", "4")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "field order 257 exceeds 256" in err


def test_audit_privacy(capsys):
    code, out, _ = run(capsys, "audit-privacy", "--s", "3", "--t", "1", "--p", "2")
    assert code == 0
    assert "all-equal" in out


def test_gv_sim(capsys):
    code, out, _ = run(
        capsys, "gv-sim", "--q", "2", "--w", "2", "--s", "6",
        "--delta", "1/3", "--eps", "1/10", "--trials", "200", "--seed", "5",
    )
    assert code == 0
    assert "within-bound" in out
    assert "ball-bound ok" in out


def test_gv_sim_over_enumeration_budget(capsys, monkeypatch):
    # k = 48 here: span_labelweight refuses trial 0's 2^48 messages before
    # the kernel runs, so no trial is decided
    monkeypatch.delenv("HSS_ENUM_BUDGET", raising=False)
    code, out, err = run(
        capsys, "gv-sim", "--q", "2", "--w", "2", "--s", "40",
        "--delta", "1/8", "--eps", "1/50", "--trials", "1",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "budget 16777216" in err


def test_csv_output_parses_with_generic_reader(capsys):
    import csv
    import io

    code, out, _ = run(capsys, "table", "goppa", "--dt", "4", "--servers", "64,128", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["s"] for r in rows] == ["64", "128"]
    assert rows[0]["ours_amort"] == "42"


def test_unknown_subcommand(capsys):
    assert main(["bogus"]) == 2


def test_demo_over_a_field_above_256(capsys):
    code, out, err = run(capsys, "demo", "--code", "rs", "--q", "257", "--n", "5", "--k", "2", "--t", "1", "--d", "1")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: field order 257 exceeds 256")


def test_hermitian_code_over_a_field_above_256_is_refused_before_its_points(capsys):
    """q = 17 names GF(289): refused at once, not after building 4,913 points."""
    code, out, err = run(capsys, "code", "build", "--family", "hermitian", "--q", "17", "--k", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: field order 289 exceeds 256, ")


def test_shares_and_transcripts_over_a_field_above_256_are_refused(capsys, tmp_path):
    """An audit shares over its field, and a transcript names its field
    in its q line: past 256 both exit 1 with one line."""
    code, out, err = run(capsys, "audit-privacy", "--s", "2", "--t", "1", "--p", "257")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: field order 257 exceeds 256")
    dump = tmp_path / "transcript.txt"
    assert run(capsys, "simulate", "--code", "rs", "--q", "5", "--n", "5", "--k", "2", "--t", "1", "--d", "1",
               "--dump-transcript", str(dump))[0] == 0
    assert run(capsys, "simulate", "--replay", str(dump))[0] == 0
    dump.write_text(dump.read_text().replace("\nq 5\n", "\nq 257\n", 1))
    code, out, err = run(capsys, "simulate", "--replay", str(dump))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("decode error: field order 257 exceeds 256")


@pytest.mark.parametrize(
    "argv",
    [
        ["code", "info", "--family", "goppa", "--u", "3", "--r", "1", "--format", "csv"],
        ["audit-privacy", "--s", "3", "--t", "1", "--p", "2", "--seed", "1"],
        ["audit-privacy", "--s", "3", "--t", "1", "--p", "2", "--d", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


def test_code_info_on_a_rank_deficient_document(capsys, tmp_path):
    path = tmp_path / "code.txt"
    path.write_text(
        "labelweight-code/v1\nfield GF(2^1)/modulus=[0,1]\nn 3\ndim 2\nservers 3\nlabeling 1,2,3\n"
        "row 1,1,0\nrow 1,1,0\n"
    )
    code, out, err = run(capsys, "code", "info", "--in", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("decode error: ") and "full row rank" in err


_FAMILY_FLAGS = {
    "goppa": {"--u": st.integers(0, 3), "--r": st.integers(0, 3)},
    "hermitian": {"--q": st.integers(0, 2), "--k": st.integers(0, 6)},
    "rs": {"--q": st.sampled_from([0, 1, 2, 4, 5, 6, 9, 257]), "--n": st.integers(0, 7), "--k": st.integers(0, 5)},
}


@st.composite
def _run_argv(draw, family):
    """A demo or simulate argument vector over a small code of `family`,
    valid or not (0 is out of range for every count but the seed)."""
    argv = [draw(st.sampled_from(["demo", "simulate"])), "--code", family]
    for flag, values in _FAMILY_FLAGS[family].items():
        argv += [flag, draw(values)]
    argv += ["--t", draw(st.integers(0, 2)), "--d", draw(st.integers(0, 3))]
    if draw(st.booleans()):
        argv += ["--m", draw(st.integers(0, 4))]
    argv += ["--trials", draw(st.integers(0, 2)), "--seed", draw(st.integers(-2, 5))]
    return [str(v) for v in argv]


@pytest.mark.parametrize("family", sorted(_FAMILY_FLAGS))
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_generated_run_commands_end_in_an_exit_code_and_one_line(family, data):
    """Every small demo or simulate invocation returns 0, 1 or 2 (no
    exception escapes main): a run reports its trials on stdout, a failure
    is one message line on stderr."""
    argv = data.draw(_run_argv(family))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if err.getvalue():
        assert code != 0 and err.getvalue().count("\n") == 1 and out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "decode error: "))
    else:
        assert out.getvalue().splitlines()[-1].endswith(" correct")


_FRACTIONS = st.sampled_from(["1/20", "1/3", "1/8", "1/2", "0", "1", "2", "-1/10"])


def _flags(draw, choices) -> list[str]:
    """--flag=value for each (flag, strategy), so that negative values
    parse as values."""
    return [f"{flag}={draw(values)}" for flag, values in choices]


@st.composite
def _table_argv(draw):
    servers = st.lists(st.sampled_from([-1, 0, 1, 2, 5, 8, 16, 27, 50, 64]), max_size=3)
    return ["table", draw(st.sampled_from(["hermitian", "goppa", "gv-example"]))] + _flags(draw, [
        ("--dt", st.integers(-5, 6)),
        ("--servers", servers.map(lambda v: ",".join(map(str, v)))),
        ("--eps", _FRACTIONS),
        ("--format", st.sampled_from(["csv", "markdown", "text"])),
    ])


@st.composite
def _code_argv(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_FLAGS)))
    argv = ["code", draw(st.sampled_from(["build", "info", "labelweight"])), f"--family={family}"]
    return argv + _flags(draw, [(flag, st.one_of(st.just(-1), values)) for flag, values in _FAMILY_FLAGS[family].items()])


@st.composite
def _audit_argv(draw):
    return ["audit-privacy"] + _flags(draw, [
        ("--s", st.integers(-1, 5)),
        ("--t", st.integers(-1, 4)),
        ("--p", st.sampled_from([-1, 0, 1, 2, 3, 4, 5])),
        ("--k", st.integers(-1, 2)),
    ])


@st.composite
def _gv_argv(draw):
    return ["gv-sim"] + _flags(draw, [
        ("--q", st.integers(-1, 3)),
        ("--w", st.integers(-1, 2)),
        ("--s", st.integers(-1, 6)),
        ("--delta", _FRACTIONS),
        ("--eps", _FRACTIONS),
        ("--trials", st.integers(-1, 3)),
        ("--seed", st.integers(-2, 5)),
    ])


_OTHER_COMMANDS = {"table": _table_argv, "code": _code_argv, "audit-privacy": _audit_argv, "gv-sim": _gv_argv}

# HSS_ENUM_BUDGET for the generated audits: small enough that none runs
# long, large enough that some finish (exit 0) and others exceed it (exit 1)
_AUDIT_BUDGET = {"HSS_ENUM_BUDGET": "1024"}


@pytest.mark.parametrize("command", sorted(_OTHER_COMMANDS))
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_generated_commands_end_in_an_exit_code_and_one_line(command, data):
    """Every small table, code, audit-privacy or gv-sim invocation (0 and
    negatives in range for every count) returns 0, 1 or 2 with no
    exception out of main: output on stdout, or one message line on
    stderr and nothing on stdout."""
    argv = data.draw(_OTHER_COMMANDS[command]())
    out, err = io.StringIO(), io.StringIO()
    budget = _AUDIT_BUDGET if command == "audit-privacy" else {}
    with mock.patch.dict(os.environ, budget), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if err.getvalue():
        assert code != 0 and err.getvalue().count("\n") == 1 and out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "decode error: "))
    else:
        assert out.getvalue()


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["--s=5", "--t=2", "--p=2"], 0), (["--s=4", "--t=1", "--p=3", "--k=2"], 1)],
)
def test_audit_budget_of_the_generated_commands_leaves_both_exits(capsys, argv, exit_code):
    """Under the budget the generated audits run with, the largest audit
    that fits it (2^10 share assignments) finishes and a larger one exits 1."""
    with mock.patch.dict(os.environ, _AUDIT_BUDGET):
        code, out, err = run(capsys, "audit-privacy", *argv)
    assert code == exit_code
    if exit_code == 0:
        assert out.splitlines()[-1] == "all-equal" and err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gv-sim", "--q=2", "--w=4", "--s=3000", "--delta=1/3000", "--eps=1/100", "--trials=1"],
        ["audit-privacy", "--s=60", "--t=3", "--p=2"],
    ],
    ids=["gv-sim", "audit-privacy"],
)
def test_oversized_enumerations_exit_1_by_their_count(capsys, argv):
    """A span of 2^11,863 messages (k = 11,863, n = 12,000) is refused
    before a generator is drawn, and 2^34,220 share assignments are named
    without printing the count in full."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("raise HSS_ENUM_BUDGET to force\n")


@pytest.mark.parametrize("dt", ["0", "-5"])
@pytest.mark.parametrize("kind", ["hermitian", "goppa"])
def test_table_rejects_dt_below_one(capsys, kind, dt):
    code, out, err = run(capsys, "table", kind, f"--dt={dt}", "--servers=-1,64")
    assert code == 2 and out == ""
    assert err == f"error: need dt >= 1, got dt={dt}\n"
