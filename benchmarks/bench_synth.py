#!/usr/bin/env python3
"""Time Eval synthesis on the scheme ladder, for the package's key-major
systematic-form synthesis and for the per-union elimination it replaced
(kept in tests/oracles.py as synthesize_blocks).

Usage:  python3 benchmarks/bench_synth.py [--repeats N] [--big] [--read | --keys]

Each row gives the scheme's distinct subset combo unions (the server
sets of size t..dt, oracles.product_unions), its distinct (L, Q) keys, the bytes of the keys'
stored Z_Q rows, and the best-of-N wall time of the code build (the
goppa_build or hermitian_build call, whose Hermitian basis is one
matrix.rref), of hss._synthesize, of the first hss.run_end_to_end on
the scheme it gives, and of oracles.synthesize_blocks.  The synthesis
times cover monomial enumeration, the key or block layout and the
solves; the package's key search is also its labelweight proof
(hss._synthesize is hss.synthesize_eval without its parameter checks).
The first run builds every server's planes, and with them the kept-pivot
rows the keys do not store, so read the two package columns together.
The package's key rows, projected onto each union's coordinates
(oracles.project_blocks), must equal the oracle's blocks and every run
must reconstruct its products, or the script exits with status 1.
--big adds two rows timed for the package alone, both run under
HSS_ENUM_BUDGET=8388608: Hermitian [64,56] over GF(16) with t=1, d=2,
and Goppa u=5 r=2 with t=2, d=2 (5.4 M monomials, past the default
budget).

--read times reading scheme documents instead, on the goppa-eval,
hermitian-setup and goppa-wire shapes (and the --big rows with --big):
the lines and bytes of each scheme's document (the tag, the header and
the code document) and the best-of-N wall time of hss.scheme_from_text,
which synthesizes the scheme the document names.  It must read the
synthesized scheme (the same keys and parameters), or the script exits
with status 1.

--keys times the key search and its solves on the ladder: the best-of-N
wall time of hss._key_search, whose scans each row-reduce [R[L] | E[L]]
and so give each key's Z_Q as they find Q, and of
oracles.synthesize_keys, the search it replaced (one scan per lost-row
set L, rescans for unions holding a server it read) followed by one
hss.solve_many call per key, with the distinct unions, lost-row sets,
keys and the package's scans (eliminations after the one of [G | I]).
Both take the same unions, the distinct combo unions in union_order
(oracles.distinct_unions), so that their keys are numbered alike, and
include the elimination of [G | I].
Their KeySolutions must be equal, key order and the order of each Q
included, or the script exits with status 1.

The host's speed can move by more than half between runs made minutes
apart, so absolute seconds from two runs do not compare.  Before each
row the script times a fixed pure-Python reference loop (best of 5),
prints that time in milliseconds as the row's `ref` column, and prints
each time of the row twice: in seconds, and in units of that reference
time (the `/ref` value after it), which runs made apart do compare in.
"""

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from labelweight_hss import hss  # noqa: E402
from labelweight_hss.budget import ENV_VAR  # noqa: E402
from labelweight_hss.codes import goppa_build, hermitian_build  # noqa: E402

# (row name, code builder, t, d)
LADDER = [
    ("goppa u=4 r=2 [16,8] (1, 3)", lambda: goppa_build(4, 2), 1, 3),
    ("goppa u=4 r=2 [16,8] (4, 1)", lambda: goppa_build(4, 2), 4, 1),
    ("hermitian q=3 k=10 [27,10] (1, 3)", lambda: hermitian_build(3, 10), 1, 3),
    ("hermitian q=3 k=10 [27,10] (2, 2)", lambda: hermitian_build(3, 10), 2, 2),
    ("goppa u=5 r=2 [32,22] (1, 3)", lambda: goppa_build(5, 2), 1, 3),
]
BIG = [
    ("hermitian q=4 k=56 [64,56] (1, 2)", lambda: hermitian_build(4, 56), 1, 2),
    ("goppa u=5 r=2 [32,22] (2, 2)", lambda: goppa_build(5, 2), 2, 2),
]
# the scheme documents of the benchmark's scheme workloads, for --read
READ = [
    ("goppa-eval [16,8] (1, 3)", lambda: goppa_build(4, 2), 1, 3),
    ("hermitian-setup [27,10] (1, 3)", lambda: hermitian_build(3, 10), 1, 3),
    ("goppa-wire [16,8] (4, 1)", lambda: goppa_build(4, 2), 4, 1),
]
BIG_BUDGET = "8388608"


def reference_loop() -> int:
    """A fixed pure-Python workload: list reads, XORs and dict stores."""
    table, seen, acc = list(range(256)), {}, 0
    for i in range(20_000):
        acc = table[(acc + i) & 255] ^ i
        seen[i & 1023] = acc
    return acc


def reference_time() -> float:
    """The best of 5 timings of reference_loop, in seconds: the unit of
    host speed that each row of the tables is also given in."""
    return best_of(5, reference_loop)[0]


def in_units(times, ref: float, digits: int = 3) -> str:
    """Each time in seconds and then in units of the reference time `ref`."""
    return " ".join(f"{t:>{digits + 5}.{digits}f}s {t / ref:>7.1f}" for t in times)


def best_of(repeats, fn):
    """Best wall time of `repeats` calls, and the last result."""
    best, value = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def counting_eliminations(fn):
    """fn's result and the number of matrix._eliminate calls hss made in it."""
    eliminate, calls = hss._eliminate, []

    def counted(*args):
        calls.append(None)
        return eliminate(*args)

    hss._eliminate = counted
    try:
        return fn(), len(calls)
    finally:
        hss._eliminate = eliminate


def synthesize_and_run(repeats, code, params):
    """Best-of-`repeats` times of synthesis and of the first run of the
    scheme it gives, the last scheme, and whether every run reconstructed
    its products."""
    times, ok = [], True
    for _ in range(repeats):
        t0 = time.perf_counter()
        scheme = hss.HssScheme(params, code, hss._synthesize(code, params))
        t1 = time.perf_counter()
        secrets = [[(i + k) % params.spec.q for k in range(params.m)] for i in range(params.ell)]
        ok &= hss.run_end_to_end(scheme, secrets, 1).ok
        times.append((t1 - t0, time.perf_counter() - t1))
    return min(t for t, _ in times), min(t for _, t in times), scheme, ok


def key_bytes(scheme) -> int:
    """Bytes of the stored Z_Q rows of every key ([R | E] is held once besides)."""
    return sum(len(row) for rows in scheme.solutions.solved for row in rows.values())


def read_documents(repeats: int, rows) -> int:
    """The --read table over `rows`; 1 if a document reads as another scheme."""
    print(f"{'document (t, d)':<36} {'lines':>6} {'bytes':>7} {'ref ms':>7} {'read':>9} {'/ref':>7}")
    failures = []
    for name, build, t, d in rows:
        scheme = hss.scheme_for_code(build(), t=t, d=d)
        doc = hss.scheme_to_text(scheme)
        ref = reference_time()
        elapsed, parsed = best_of(repeats, lambda: hss.scheme_from_text(doc))
        if (parsed.solutions, parsed.params) != (scheme.solutions, scheme.params):
            failures.append(f"{name}: hss.scheme_from_text differs from the synthesized scheme")
        print(f"{name:<36} {len(doc.splitlines()):>6,} {len(doc):>7,} {ref * 1e3:>7.2f} {in_units([elapsed], ref)}",
              flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


def in_order(solutions):
    """KeySolutions with each Z_Q listed in the order of Q, so that
    equality covers that order too."""
    return solutions._replace(solved=[list(rows.items()) for rows in solutions.solved])


def search_keys(repeats: int) -> int:
    """The --keys table; 1 if the two key searches differ on a rung."""
    print(f"{'scheme (t, d)':<36} {'unions':>7} {'L sets':>7} {'keys':>7} {'scans':>7} {'ref ms':>7}"
          f" {'package':>10} {'/ref':>7} {'oracle':>10} {'/ref':>7} {'speedup':>8}")
    failures = []
    for name, build, t, d in LADDER:
        code = build()
        params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
        unions = oracles.distinct_unions(oracles.product_unions(params.s, params.t, params.d))
        got, eliminations = counting_eliminations(lambda: hss._key_search(code, params, unions))
        ref = reference_time()
        fast, _ = best_of(repeats, lambda: hss._key_search(code, params, unions))
        slow, want = best_of(repeats, lambda: oracles.synthesize_keys(code, params, unions))
        if in_order(got) != in_order(want):
            failures.append(f"{name}: hss._key_search differs from oracles.synthesize_keys")
        print(f"{name:<36} {len(unions):>7,} {len(set(got.lost)):>7,} {len(got.lost):>7,} {eliminations - 1:>7,}"
              f" {ref * 1e3:>7.2f} {in_units([fast, slow], ref, 4)} {slow / fast:>7.1f}x", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--big", action="store_true", help="add hermitian [64,56] (1, 2) and Goppa u=5 (2, 2)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--read", action="store_true", help="time reading scheme documents instead")
    group.add_argument("--keys", action="store_true", help="time the two key searches and their solves instead")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.keys:
        if args.big:
            parser.error("--big adds rows to the ladder or to --read, not to --keys")
        return search_keys(args.repeats)
    if args.read:
        if args.big:
            os.environ[ENV_VAR] = BIG_BUDGET  # a document reads the same under any budget that fits it
        return read_documents(args.repeats, READ + (BIG if args.big else []))

    runs = [(row, True) for row in LADDER] + ([(row, False) for row in BIG] if args.big else [])
    print(f"{'scheme (t, d)':<36} {'unions':>7} {'keys':>7} {'key bytes':>10} {'ref ms':>7} {'build':>9} {'/ref':>7}"
          f" {'package':>9} {'/ref':>7} {'run 1':>9} {'/ref':>7} {'oracle':>9} {'/ref':>7} {'speedup':>8}")
    failures = []
    for (name, build, t, d), with_oracle in runs:
        ref = reference_time()
        built, code = best_of(args.repeats, build)
        params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
        if not with_oracle:
            os.environ[ENV_VAR] = BIG_BUDGET  # the --big rows come last, so the override ends with the process
        fast, run, scheme, ok = synthesize_and_run(args.repeats, code, params)
        if not ok:
            failures.append(f"{name}: run_end_to_end did not reconstruct the products")
        unions = len(oracles.product_unions(params.s, params.t, params.d))
        line = (f"{name:<36} {unions:>7,} {len(scheme.solutions.solved):>7,} {key_bytes(scheme):>10,}"
                f" {ref * 1e3:>7.2f} {in_units([built, fast, run], ref)}")
        if not with_oracle:
            print(f"{line} {'-':>9} {'-':>7} {'-':>8}", flush=True)
            continue
        slow, expected = best_of(args.repeats, lambda: oracles.synthesize_blocks(code, params))
        if oracles.project_blocks(scheme) != expected:
            failures.append(f"{name}: key rows projected onto the unions differ from oracles.synthesize_blocks")
        print(f"{line} {in_units([slow], ref)} {slow / fast:>7.1f}x", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
