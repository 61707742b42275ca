#!/usr/bin/env python3
"""Summarise and compare saved outputs of perfbench/run.py.

Usage (from the repository root):

    python3 perfbench/compare.py RUN.out ...                    # spread per metric
    python3 perfbench/compare.py --base A/*.out --head B/*.out  # head against base

Each file holds the standard output of one run.  Runs are grouped by
workload and trace mode.  The first form prints, per metric, the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json.  The second form prints each
metric's change of median from base to head, signed so that positive is
worse, next to its bound.

Results whose kernel backends differ are never compared: the pure and the
compiled enumeration kernels differ by an order of magnitude.  Exits 2 in
that case, 1 if a run is incorrect, a spread exceeds its bound or a change
is worse than its bound, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    result = json.loads(lines[-1])
    detail = next((json.loads(line)["perfbench"] for line in lines if line.startswith('{"perfbench"')), None)
    if detail is None:
        raise ValueError(f"{path}: no perfbench detail line")
    return {"path": path, "detail": detail, "result": result}


def group(runs: list[dict]) -> dict[tuple, list[dict]]:
    out = defaultdict(list)
    for run in runs:
        out[(run["detail"]["workload"], run["detail"]["trace"])].append(run)
    return dict(sorted(out.items()))


def metric_specs() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def values(runs: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs if name in r["result"]["metrics"]]


def spread(vals: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def check_backends(runs: list[dict]) -> str | None:
    found = sorted({r["detail"]["env"]["kernel_backend"] for r in runs})
    if len(found) > 1:
        paths = {b: next(r["path"] for r in runs if r["detail"]["env"]["kernel_backend"] == b) for b in found}
        return f"refusing to compare kernel backends {found} (e.g. {paths})"
    return None


def summarise(runs: list[dict], specs: dict) -> bool:
    ok = True
    for (workload, trace), members in group(runs).items():
        bad = [r["path"] for r in members if not r["result"]["correct"]]
        ok &= not bad
        print(f"{workload} trace={trace} runs={len(members)}" + (f" INCORRECT: {bad}" if bad else ""))
        for name in members[0]["result"]["metrics"]:
            med, q1, q3, sp = spread(values(members, name))
            bound = specs.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if sp < bound / 3 else "within" if sp <= bound else "WIDE"
                if name != "setup_s":
                    ok &= sp <= bound
            print(f"  {name:34s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {sp:7.4f}"
                  + (f"  bound {bound} {verdict}" if bound is not None else ""))
    return ok


def contrast(base: list[dict], head: list[dict], specs: dict) -> bool:
    ok = True
    heads = group(head)
    for key, base_runs in group(base).items():
        head_runs = heads.get(key)
        if not head_runs:
            print(f"{key[0]} trace={key[1]}: no head runs")
            continue
        print(f"{key[0]} trace={key[1]} base={len(base_runs)} head={len(head_runs)}")
        for name in base_runs[0]["result"]["metrics"]:
            b, h = statistics.median(values(base_runs, name)), statistics.median(values(head_runs, name))
            spec = specs.get(name, {})
            sign = 1 if spec.get("better", "lower") == "lower" else -1
            worse = sign * (h - b) / b if b else 0.0
            bound = spec.get("bound")
            verdict = "" if bound is None else "ok" if worse <= bound else "REGRESSED"
            ok &= verdict != "REGRESSED"
            print(f"  {name:34s} base {b:<14.6g} head {h:<14.6g} worse-by {worse:+8.4f}"
                  + (f"  bound {bound} {verdict}" if bound is not None else ""))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--head", nargs="+", default=[])
    args = parser.parse_args(argv)
    if bool(args.base) != bool(args.head) or (args.runs and args.base):
        parser.error("give either RUN files, or both --base and --head")
    specs = metric_specs()
    base, head = [load(p) for p in args.base], [load(p) for p in args.head]
    runs = [load(p) for p in args.runs]
    refusal = check_backends(runs + base + head)
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    ok = contrast(base, head, specs) if base else summarise(runs, specs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
