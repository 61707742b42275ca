"""Command-line front end.

Subcommands map one-to-one onto the package's artifact classes:

* ``table``          parameter-comparison tables (csv / markdown / text)
* ``code``           build, inspect, or measure a labelweight code
* ``demo``           monolithic end-to-end correctness runs
* ``simulate``       the message-passing protocol, with transcript dump/replay
* ``audit-privacy``  exhaustive share-distribution equality audit
* ``gv-sim``         random-code labelweight Monte Carlo

Exit codes: 0 success, 1 verification failure, a malformed input
document or a limit of the implementation, 2 bad usage or parameters.
The one limit is the field: elements are stored and sent one byte each,
so a field order above 256 exits 1 (Goppa codes compute over GF(2^u) at
any u, to build a binary code).
The randomized commands (demo, simulate, gv-sim) take --seed and are
byte-reproducible from it; the HSS_ENUM_BUDGET environment variable
overrides enumeration budgets.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import __version__
from .analysis import GvConfig, emit_table, gv_monte_carlo
from .codes import (
    code_from_text,
    code_to_text,
    goppa_build,
    hermitian_build,
    labelweight,
    rs_build,
)
from .errors import DecodeError, HssError, ParameterOutOfRange
from .galois import FieldSpec
from .hss import run_end_to_end, scheme_for_code, scheme_rate
from .protocol import simulate, transcript_from_text, transcript_to_text

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hss", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to this path instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    table = sub.add_parser("table", parents=[out], help="emit a parameter comparison table")
    table.add_argument("kind", choices=("hermitian", "goppa", "gv-example"))
    table.add_argument("--dt", type=int, required=True, help="degree*privacy product")
    table.add_argument("--servers", required=True, help="comma-separated server counts")
    table.add_argument("--eps", default="1/20", help="slack for gv-example (fraction)")
    table.add_argument("--format", choices=("csv", "markdown", "text"), default="text")

    code = sub.add_parser("code", parents=[out], help="build or inspect labelweight codes")
    code.add_argument("action", choices=("build", "info", "labelweight"))
    code.add_argument("--family", choices=("goppa", "hermitian", "rs"))
    code.add_argument("--in", dest="infile", help="read a serialized code document")
    _add_family_flags(code)

    demo = sub.add_parser("demo", parents=[seeded], help="end-to-end correctness runs")
    demo.add_argument("--code", dest="family", required=True, choices=("goppa", "hermitian", "rs"))
    _add_family_flags(demo)
    _add_scheme_flags(demo)
    demo.add_argument("--trials", type=int, default=1)

    sim = sub.add_parser("simulate", parents=[seeded], help="message-passing protocol runs")
    sim.add_argument("--code", dest="family", choices=("goppa", "hermitian", "rs"))
    _add_family_flags(sim)
    _add_scheme_flags(sim, required=False)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--dump-transcript", help="write the last run's transcript here")
    sim.add_argument("--replay", help="decode and summarize a dumped transcript")

    audit = sub.add_parser("audit-privacy", parents=[out], help="exhaustive sharing privacy audit")
    audit.add_argument("--s", type=int, required=True)
    audit.add_argument("--t", type=int, required=True)
    audit.add_argument("--p", type=int, required=True, help="field characteristic")
    audit.add_argument("--k", type=int, default=1, help="field extension degree")

    gv = sub.add_parser("gv-sim", parents=[seeded], help="random-code labelweight Monte Carlo")
    gv.add_argument("--q", type=int, required=True)
    gv.add_argument("--w", type=int, required=True)
    gv.add_argument("--s", type=int, required=True)
    gv.add_argument("--delta", required=True, help="relative labelweight (fraction, e.g. 1/3)")
    gv.add_argument("--eps", required=True, help="slack (fraction, e.g. 1/10)")
    gv.add_argument("--trials", type=int, default=500)

    return parser


def _add_family_flags(p):
    p.add_argument("--u", type=int, help="goppa: extension degree")
    p.add_argument("--r", type=int, help="goppa: polynomial degree")
    p.add_argument("--q", type=int, help="hermitian/rs: alphabet parameter")
    p.add_argument("--k", type=int, help="hermitian/rs: dimension")
    p.add_argument("--n", type=int, help="rs: length")


def _add_scheme_flags(p, required: bool = True):
    p.add_argument("--t", type=int, required=required, help="privacy threshold")
    p.add_argument("--d", type=int, required=required, help="monomial degree")
    p.add_argument("--m", type=int, help="variables per instance (default d)")


def _build_code(args):
    family = args.family
    if family == "goppa":
        if args.u is None or args.r is None:
            raise ParameterOutOfRange("goppa needs --u and --r")
        return goppa_build(args.u, args.r)
    if family == "hermitian":
        if args.q is None or args.k is None:
            raise ParameterOutOfRange("hermitian needs --q and --k")
        return hermitian_build(args.q, args.k)
    if family == "rs":
        if args.q is None or args.n is None or args.k is None:
            raise ParameterOutOfRange("rs needs --q, --n and --k")
        return rs_build(args.q, args.n, args.k)
    raise ParameterOutOfRange("pick a code family with --family/--code")


def _load_or_build_code(args):
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return code_from_text(fh.read())
    return _build_code(args)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_table(args) -> int:
    servers = [int(v) for v in args.servers.split(",") if v]
    _emit(args, emit_table(args.kind, args.dt, servers, eps=Fraction(args.eps)).render(args.format))
    return 0


def _cmd_code(args) -> int:
    code = _load_or_build_code(args)
    if args.action == "build":
        _emit(args, code_to_text(code))
        return 0
    if args.action == "info":
        lines = [
            f"field {code.spec.describe()}",
            f"n {code.n}",
            f"dim {code.dim}",
            f"servers {code.s}",
            f"rate {code.rate()}",
        ]
        if code.meta:
            lines.append("meta " + " ".join(f"{k}={v}" for k, v in sorted(code.meta.items())))
        _emit(args, "\n".join(lines) + "\n")
        return 0
    # the one action left: labelweight
    _emit(args, f"{labelweight(code)}\n")
    return 0


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ParameterOutOfRange(f"--trials must be >= 1, got {trials}")


def _run_trials(scheme, trials: int, seed: int, runner) -> tuple[int, list[str]]:
    """Shared demo/simulate loop: seeded secrets per trial, exact comparison."""
    params = scheme.params
    q = params.spec.q
    rng = random.Random(seed)
    passed = 0
    lines = []
    for trial in range(trials):
        secrets = [[rng.randrange(q) for _ in range(params.m)] for _ in range(params.ell)]
        ok = runner(secrets, trial)
        passed += ok
        if not ok:
            lines.append(f"trial {trial}: MISMATCH")
    return passed, lines


def _cmd_demo(args) -> int:
    _check_trials(args.trials)
    code = _build_code(args)
    scheme = scheme_for_code(code, t=args.t, d=args.d, m=args.m)
    rate = scheme_rate(scheme)

    def runner(secrets, trial):
        return run_end_to_end(scheme, secrets, seed=args.seed * 1_000_003 + trial).ok

    passed, problems = _run_trials(scheme, args.trials, args.seed, runner)
    lines = [
        f"scheme {args.family} [{code.n},{code.dim}] {code.spec.describe()} "
        f"s={scheme.params.s} t={args.t} d={args.d} m={scheme.params.m} rate={rate}",
        *problems,
        f"{passed}/{args.trials} correct",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0 if passed == args.trials else VERIFY_ERROR


def _cmd_simulate(args) -> int:
    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as fh:
            transcript = transcript_from_text(fh.read())
        _emit(
            args,
            f"frames {len(transcript.frames)}\n"
            f"downloaded-symbols {transcript.downloaded_symbols}\n"
            f"download-bits {transcript.download_cost_bits}\n",
        )
        return 0
    if args.family is None or args.t is None or args.d is None:
        raise ParameterOutOfRange("simulate needs --code, --t and --d (or --replay)")
    _check_trials(args.trials)
    code = _build_code(args)
    scheme = scheme_for_code(code, t=args.t, d=args.d, m=args.m)
    last_transcript = None

    def runner(secrets, trial):
        nonlocal last_transcript
        seed = args.seed * 1_000_003 + trial
        transcript, outputs = simulate(scheme, secrets, seed=seed)
        reference = run_end_to_end(scheme, secrets, seed=seed)
        last_transcript = transcript
        return outputs == reference.outputs and reference.ok

    passed, problems = _run_trials(scheme, args.trials, args.seed, runner)
    rate = last_transcript.download_rate(scheme.params.ell)
    lines = [
        f"scheme {args.family} s={scheme.params.s} t={args.t} d={args.d} "
        f"downloaded {last_transcript.downloaded_symbols} symbols rate={rate}",
        *problems,
        f"{passed}/{args.trials} correct",
    ]
    _emit(args, "\n".join(lines) + "\n")
    if args.dump_transcript:
        with open(args.dump_transcript, "w", encoding="utf-8") as fh:
            fh.write(transcript_to_text(last_transcript))
    return 0 if passed == args.trials else VERIFY_ERROR


def _cmd_audit(args) -> int:
    from .hss import privacy_audit

    spec = FieldSpec(args.p, args.k)
    report = privacy_audit(args.t, args.s, spec)
    lines = [
        f"audit s={args.s} t={args.t} field={report.field} "
        f"randomness-space={report.randomness_space} checks={len(report.checks)}"
    ]
    for check in report.checks:
        if not check.equal:
            lines.append(f"UNEQUAL subset={check.subset} x={check.x} x'={check.x_prime}")
    lines.append("all-equal" if report.all_equal else "PRIVACY VIOLATION")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if report.all_equal else VERIFY_ERROR


def _cmd_gv(args) -> int:
    cfg = GvConfig(args.q, args.w, args.s, Fraction(args.delta), Fraction(args.eps))
    report = gv_monte_carlo(cfg, trials=args.trials, seed=args.seed)
    _emit(
        args,
        f"config q={cfg.q} w={cfg.w} s={cfg.s} delta={cfg.delta} eps={cfg.eps} n={cfg.n}\n"
        f"dimension {report.dimension}\n"
        f"trials {report.trials} failures {report.failures} fraction {report.failure_fraction}\n"
        f"bound {report.bound} three-sigma-slack {report.slack}\n"
        f"ball-bound {'ok' if report.ball_bound_ok else 'VIOLATED'}\n"
        f"{'within-bound' if report.within_bound else 'BOUND EXCEEDED'}\n",
    )
    return 0 if report.within_bound and report.ball_bound_ok else VERIFY_ERROR


_COMMANDS = {
    "table": _cmd_table,
    "code": _cmd_code,
    "demo": _cmd_demo,
    "simulate": _cmd_simulate,
    "audit-privacy": _cmd_audit,
    "gv-sim": _cmd_gv,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ParameterOutOfRange, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DecodeError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except HssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
