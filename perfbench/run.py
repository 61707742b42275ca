#!/usr/bin/env python3
"""Pipeline benchmark for labelweight-hss.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in workloads.py.  One
process runs one workload on one thread.

--trace 0 sets up the scheme several times (setup_s is the median), then
runs seeded trials for --seconds and reports the end-to-end metrics.  Each
timed step is scaled by the host speed sampled while it ran (SpeedProbe),
so that a shared host's slow spells do not show as program changes.

--trace 1 runs setup once plus a fixed number of trials twice on the same
seed, interleaved step by step: once untraced and once with every layer
boundary wrapped (tracing.py).  The outputs of the two copies must be
equal, every patched name must be restored, and the exact work counts
must hold; it reports the per-layer metrics and the tracing overhead, and
writes the spans to perfbench/out/.

Before the result, one line {"perfbench": {...}} records the environment
(kernel backend, Python, numpy, nproc) and details such as the failed
fraction and the percentile that trial_tail_ms stands for.  The last line
is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Every trial-phase sample count has at least this many trials, even when
# --seconds runs out first (hermitian-setup trials take seconds each).
MIN_TRIALS = 5
# trial_tail_ms is the highest percentile with this many trials beyond it.
TAIL_BEYOND = 10
# End-to-end times are scaled to a host on which one SpeedProbe sample
# takes REF_MS.  3.0 ms is close to a quiet 2-vCPU Xeon (family 6, model
# 143) KVM guest, on which scaled and raw times then nearly agree.
REF_MS = 3.0
# SpeedProbe samples this often; a sample costs about REF_MS, so ~1.2 %.
PROBE_PERIOD_S = 0.25
# Samples this close to a step still count for it: the two taken just
# before and just after it, not the neighbours' samples.
PROBE_MARGIN_S = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "galois.add_ns": "ns",
    "galois.sub_ns": "ns",
    "galois.mul_ns": "ns",
    "galois.inv_ns": "ns",
    "galois.add_table_builds": "count",
    "galois.table_build_s": "s",
    "matrix.solve_many_calls": "count",
    "matrix.solve_many_s": "s",
    "matrix.solve_cells": "count",
    "matrix.ns_per_cell": "ns",
    "matrix.rank_calls": "count",
    "matrix.rank_s": "s",
    "codes.build_s": "s",
    "codes.labelweight_calls": "count",
    "codes.labelweight_s": "s",
    "kernels.calls": "count",
    "kernels.messages": "count",
    "kernels.min_labelweight_s": "s",
    "kernels.messages_per_s": "1/s",
    "hss.enumerate_monomials_s": "s",
    "hss.monomials": "count",
    "hss.distinct_unions": "count",
    "hss.monomials_per_union": "ratio",
    "hss.synthesize_eval_self_s": "s",
    "hss.eval_entries": "count",
    "hss.eval_dup_ratio": "ratio",
    "hss.eval_server_calls": "count",
    "hss.eval_server_s": "s",
    "hss.eval_entries_per_s": "1/s",
    "hss.reconstruct_s": "s",
    "hss.collect_output_shares_s": "s",
    "hss.share_all_secrets_s": "s",
    "hss.shares": "count",
    "protocol.simulate_self_s": "s",
    "protocol.encode_s": "s",
    "protocol.decode_s": "s",
    "protocol.frames": "count",
    "protocol.bytes_input_shares": "B",
    "protocol.bytes_output_shares": "B",
    "protocol.bytes_result": "B",
    "protocol.codec_ns_per_byte": "ns/B",
    "protocol.wire_bytes_per_trial": "B",
    "analysis.gv_monte_carlo_self_s": "s",
    "analysis.codes_sampled": "count",
    "analysis.lw_failures": "count",
    "trace.trials": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def environment() -> dict:
    from labelweight_hss import KERNEL_BACKEND

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "kernel_backend": KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def _reference_loop() -> int:
    table = list(range(256))
    seen = {}
    acc = 0
    for i in range(20_000):
        acc = table[(acc + i) & 255] ^ i
        seen[i & 1023] = acc
    return acc


class SpeedProbe:
    """Samples the host's speed while timed steps run.

    On a shared host the CPU runs the same work up to about 2x slower for
    seconds to minutes at a time, depending on what the neighbours do.  A
    sample times a fixed pure-Python loop; one is taken just before and just
    after each step, and a SIGALRM handler takes one every PROBE_PERIOD_S
    inside long steps.  The workloads are interpreter-bound like the loop,
    so they slow down together: a step's time is scaled by REF_MS over the
    mean sample taken while it ran (within PROBE_MARGIN_S).  Raw times stay
    on the detail line.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (start, ms)
        self._busy = False

    def sample(self, *signal_args) -> None:
        if self._busy:  # the timer fired during a sample taken between steps
            return
        self._busy = True
        t0 = time.perf_counter()
        _reference_loop()
        self.readings.append((t0, (time.perf_counter() - t0) * 1e3))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.readings.sort()
        self.stamps = [t for t, _ in self.readings]
        self.samples = [ms for _, ms in self.readings]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds t1 - t0 scaled to a host where a sample takes REF_MS."""
        lo = bisect.bisect_left(self.stamps, t0 - PROBE_MARGIN_S)
        hi = bisect.bisect_right(self.stamps, t1 + PROBE_MARGIN_S)
        return (t1 - t0) * REF_MS / statistics.fmean(self.samples[lo:hi])

    def step(self, fn, *args):
        """Run fn between two samples; returns (ran, result, (start, end))."""
        self.sample()
        t0 = time.perf_counter()
        ran, result = attempt(fn, *args)
        t1 = time.perf_counter()
        self.sample()
        return ran, result, (t0, t1)


def attempt(fn, *args):
    """Run one benchmark step; an exception is reported and counts as a failure."""
    try:
        return True, fn(*args)
    except Exception:  # noqa: BLE001 - a failing trial must not end the run
        traceback.print_exc(file=sys.stderr)
        return False, None


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced run: median setup time, then seeded trials for `seconds`."""
    steps = {"setup": [], "trial": []}  # (start, end) per timed step
    failed = 0
    wire = []
    with SpeedProbe() as probe:
        state = None
        for _ in range(workload.setup_reps):
            state = None  # free the previous scheme so peak memory holds one
            gc.collect()
            ran, state, span = probe.step(workload.setup)
            if not ran:
                raise RuntimeError(f"{workload.name}: setup failed")
            steps["setup"].append(span)

        start = time.perf_counter()
        while len(steps["trial"]) < MIN_TRIALS or time.perf_counter() - start < seconds:
            inputs = workload.inputs(state, seed, len(steps["trial"]))
            gc.collect()
            ran, result, span = probe.step(workload.run, state, inputs)
            steps["trial"].append(span)
            checked, ok = attempt(workload.check, state, inputs, result) if ran else (False, False)
            if not (checked and ok):
                failed += 1
                continue
            wire.append(workload.wire_bytes(result))
        trial_wall = time.perf_counter() - start

    n = len(steps["trial"])
    # The tail is the highest rank with TAIL_BEYOND trials above it.  With
    # too few trials that rank is below the median, so take the maximum.
    tail_rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n

    def summary(scale) -> dict:
        setups = [scale(t0, t1) for t0, t1 in steps["setup"]]
        ordered = sorted(scale(t0, t1) for t0, t1 in steps["trial"])
        return {
            "setup_s": statistics.median(setups),
            "trial_p50_ms": statistics.median(ordered) * 1e3,
            "trial_tail_ms": ordered[tail_rank - 1] * 1e3,
            "trials_per_s": n / sum(ordered),
        }

    metrics = {**summary(probe.scaled), "peak_rss_mb": peak_rss_mb()}
    details = {
        "setup_reps": workload.setup_reps,
        "trials": n,
        "trial_phase_wall_s": trial_wall,
        "trial_tail_percentile": 100 * tail_rank / n,
        "failed_frac": failed / n,
        "wire_bytes_per_trial": statistics.median(wire) if wire else 0,
        "raw": summary(lambda t0, t1: t1 - t0),
        "probe_samples": len(probe.samples),
        # median sample over REF_MS: how much slower than the reference host this one ran
        "slowdown": statistics.median(probe.samples) / REF_MS,
    }
    return metrics, details, n, failed


def traced_run(workload, seed: int) -> tuple[dict, dict, int, int]:
    """Untraced and traced copies of one fixed run, interleaved step by step.

    Each step (the setup, then trial i) runs once untraced and once with
    every patch point installed, alternating which goes first, so both
    copies see the same machine state; the difference of their timed
    seconds is the tracing overhead.  Checks and gc run untraced and untimed.
    """
    import tracing
    from workloads import eval_table_stats

    trials = workload.trace_trials
    tracer = tracing.Tracer()
    not_restored: list[str] = []

    @contextmanager
    def tracing_on(mode):
        if mode == "plain":
            yield
            return
        tracing.install(tracer)
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False
            not_restored.extend(tracer.restore())

    timed = {"plain": 0.0, "traced": 0.0}
    states = {}
    for mode in ("plain", "traced"):
        gc.collect()
        with tracing_on(mode):
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                states[mode] = workload.setup()
            timed[mode] += time.perf_counter() - t0

    failed = mismatched = 0
    for index in range(trials):
        prints = {}
        for mode in ("plain", "traced") if index % 2 else ("traced", "plain"):
            inputs = workload.inputs(states[mode], seed, index)
            gc.collect()
            with tracing_on(mode):
                t0 = time.perf_counter()
                with tracer.span("bench.trial"):
                    ran, result = attempt(workload.run, states[mode], inputs)
                timed[mode] += time.perf_counter() - t0
            checked, ok = attempt(workload.check, states[mode], inputs, result) if ran else (False, False)
            failed += not (checked and ok)
            prints[mode] = workload.fingerprint(result) if ran else None
        mismatched += prints["plain"] != prints["traced"]
    state = states["traced"]
    plain_s, traced_s = timed["plain"], timed["traced"]

    spans = tracer.by_name()
    c = tracer.counters

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def rate(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    table = eval_table_stats(state) if hasattr(state, "eval_table") else {
        "hss.eval_entries": 0, "hss.distinct_unions": 0, "hss.eval_dup_ratio": 0.0,
    }
    wire_bytes = sum(c[f"protocol.bytes_{k}"] for k in ("input_shares", "output_shares", "result"))
    metrics = {
        **tracing.field_op_ns(workload.field(state), seed),
        "galois.add_table_builds": c["galois.add_table_builds"],
        "galois.table_build_s": total("galois.add_table"),
        "matrix.solve_many_calls": calls("matrix.solve_many"),
        "matrix.solve_many_s": total("matrix.solve_many"),
        "matrix.solve_cells": c["matrix.solve_cells"],
        "matrix.ns_per_cell": rate(total("matrix.solve_many"), c["matrix.solve_cells"], 1e9),
        "matrix.rank_calls": calls("matrix.rank"),
        "matrix.rank_s": total("matrix.rank"),
        "codes.build_s": total("codes.build"),
        "codes.labelweight_calls": calls("codes.labelweight"),
        "codes.labelweight_s": total("codes.labelweight"),
        "kernels.calls": calls("kernels.min_labelweight"),
        "kernels.messages": c["kernels.messages"],
        "kernels.min_labelweight_s": total("kernels.min_labelweight"),
        "kernels.messages_per_s": rate(c["kernels.messages"], total("kernels.min_labelweight")),
        "hss.enumerate_monomials_s": total("hss.enumerate_monomials"),
        "hss.monomials": c["hss.monomials"],
        **table,
        "hss.monomials_per_union": rate(c["hss.monomials"], table["hss.distinct_unions"]),
        "hss.synthesize_eval_self_s": self_s("hss.synthesize_eval"),
        "hss.eval_server_calls": calls("hss.eval_server"),
        "hss.eval_server_s": total("hss.eval_server"),
        "hss.eval_entries_per_s": rate(c["hss.eval_server_entries"], total("hss.eval_server")),
        "hss.reconstruct_s": total("hss.reconstruct"),
        "hss.collect_output_shares_s": total("hss.collect_output_shares"),
        "hss.share_all_secrets_s": total("hss.share_all_secrets"),
        "hss.shares": c["hss.shares"],
        "protocol.simulate_self_s": self_s("protocol.simulate"),
        "protocol.encode_s": total("protocol.encode"),
        "protocol.decode_s": total("protocol.decode"),
        "protocol.frames": c["protocol.frames"],
        "protocol.bytes_input_shares": c["protocol.bytes_input_shares"],
        "protocol.bytes_output_shares": c["protocol.bytes_output_shares"],
        "protocol.bytes_result": c["protocol.bytes_result"],
        "protocol.codec_ns_per_byte": rate(total("protocol.encode") + total("protocol.decode"), wire_bytes, 1e9),
        "protocol.wire_bytes_per_trial": wire_bytes / trials,
        "analysis.gv_monte_carlo_self_s": self_s("analysis.gv_monte_carlo"),
        "analysis.codes_sampled": c["analysis.codes_sampled"],
        "analysis.lw_failures": c["analysis.lw_failures"],
        "trace.trials": trials,
        "trace.untraced_s": plain_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
    }

    count_checks = []
    for name, relation, stated, per_trial in workload.exact:
        actual = metrics[name] / trials if per_trial else metrics[name]
        ok = actual == stated if relation == "==" else actual <= stated
        count_checks.append({"metric": name, "per_trial": per_trial, "relation": relation,
                             "stated": stated, "actual": actual, "ok": ok})
    for check in count_checks:
        if not check["ok"]:
            print(f"perfbench: count check failed: {check}", file=sys.stderr)
    for name in not_restored:
        print(f"perfbench: patched name not restored: {name}", file=sys.stderr)
    if mismatched:
        print(f"perfbench: {mismatched} traced trial(s) differ from the untraced run", file=sys.stderr)

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"trace-{workload.name}-seed{seed}.json"
    span_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in tracer.spans],
        "by_name": spans,
        "counters": dict(c),
    }))
    details = {
        "trace_trials": trials,
        "outputs_equal_untraced": mismatched == 0,
        "not_restored": not_restored,
        "count_checks": count_checks,
        "span_file": str(span_file.relative_to(ROOT)),
        "by_name": spans,
    }
    failed += mismatched
    # A broken restore or count check fails the run as a whole.
    if not_restored or not all(check["ok"] for check in count_checks):
        failed = max(failed, 1)
    return metrics, details, 2 * trials, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import labelweight_hss
    except ImportError as exc:
        print(f"perfbench: cannot import labelweight_hss from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(labelweight_hss.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: labelweight_hss came from {labelweight_hss.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        values, details, attempted, failed = traced_run(workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        values, details, attempted, failed = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    print(json.dumps({"perfbench": {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        **details,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
