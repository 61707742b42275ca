#!/usr/bin/env python3
"""Time Eval synthesis on the scheme ladder, for the package's key-major
systematic-form synthesis and for the per-union elimination it replaced
(kept in tests/oracles.py as synthesize_blocks).

Usage:  python3 benchmarks/bench_synth.py [--repeats N] [--big | --read | --keys]

Each row gives the scheme's distinct subset unions, its distinct (L, Q)
keys, the bytes of the keys' stored Z_Q rows, and the best-of-N wall
time of hss._synthesize, of the first hss.run_end_to_end on the scheme
it gives, and of oracles.synthesize_blocks.  The synthesis times cover monomial
enumeration, the key or block layout and the solves, not the exhaustive
labelweight check (hss._synthesize is hss.synthesize_eval without it).
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
hermitian-setup and goppa-wire shapes: the best-of-N wall time of
hss.scheme_from_text, which synthesizes the scheme a document names
(exhaustive labelweight check included), and of
oracles.fold_scheme_text, which folds the document's eval rows into the
full key rows (the reader it replaced).  Both must read the synthesized
scheme (the same keys, parameters and labelweight flag), or the script
exits with status 1.

--keys times the key search and its solves on the ladder: the best-of-N
wall time of hss._key_search, whose scans each row-reduce [R[L] | E[L]]
and so give each key's Z_Q as they find Q, and of
oracles.synthesize_keys, the search it replaced (one scan per lost-row
set L, rescans for unions holding a server it read) followed by one
hss.solve_many call per key, with the distinct unions, lost-row sets,
keys and the package's scans (eliminations after the one of [G | I]).
Both take the same unions and include the elimination of [G | I].
Their KeySolutions must be equal, key order and the order of each Q
included, or the script exits with status 1.
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


def what_was_read(scheme):
    """The keys (full key rows of an oracles.RowScheme), parameters and
    labelweight flag of a scheme read back from its document."""
    keys = (scheme.rows, scheme.combo_key) if isinstance(scheme, oracles.RowScheme) else scheme.solutions
    return keys, scheme.params, scheme.labelweight_verified


def read_documents(repeats: int) -> int:
    """The --read table; 1 if either reader misreads a document."""
    print(f"{'document (t, d)':<32} {'lines':>10} {'synthesis':>10} {'folding':>9}")
    failures = []
    for name, build, t, d in READ:
        scheme = hss.scheme_for_code(build(), t=t, d=d)
        doc = hss.scheme_to_text(scheme)
        lines = doc.count("\n")
        times = []
        for read, want in ((hss.scheme_from_text, scheme), (oracles.fold_scheme_text, oracles.row_scheme(scheme))):
            elapsed, parsed = best_of(repeats, lambda: read(doc))
            times.append(elapsed)
            if what_was_read(parsed) != what_was_read(want):
                failures.append(f"{name}: {read.__module__}.{read.__name__} differs from the synthesized scheme")
        print(f"{name:<32} {lines:>10,} {times[0]:>9.3f}s {times[1]:>8.3f}s", flush=True)
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
    print(f"{'scheme (t, d)':<36} {'unions':>7} {'L sets':>7} {'keys':>7} {'scans':>7} {'package':>9} {'oracle':>9}"
          f" {'speedup':>8}")
    failures = []
    for name, build, t, d in LADDER:
        code = build()
        params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
        unions = hss.enumerate_monomials(params)[1]
        got, eliminations = counting_eliminations(lambda: hss._key_search(code, params, unions))
        fast, _ = best_of(repeats, lambda: hss._key_search(code, params, unions))
        slow, want = best_of(repeats, lambda: oracles.synthesize_keys(code, params, unions))
        if in_order(got) != in_order(want):
            failures.append(f"{name}: hss._key_search differs from oracles.synthesize_keys")
        print(f"{name:<36} {len(set(unions)):>7,} {len(set(got.lost)):>7,} {len(got.lost):>7,} {eliminations - 1:>7,}"
              f" {fast:>8.4f}s {slow:>8.4f}s {slow / fast:>7.1f}x", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--big", action="store_true", help="add Goppa u=5 (2, 2), package only")
    group.add_argument("--read", action="store_true", help="time the two scheme document readers instead")
    group.add_argument("--keys", action="store_true", help="time the two key searches and their solves instead")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.read:
        return read_documents(args.repeats)
    if args.keys:
        return search_keys(args.repeats)

    runs = [(row, True) for row in LADDER] + ([(row, False) for row in BIG] if args.big else [])
    print(f"{'scheme (t, d)':<36} {'unions':>7} {'keys':>7} {'key bytes':>10} {'package':>9} {'run 1':>8}"
          f" {'oracle':>9} {'speedup':>8}")
    failures = []
    for (name, build, t, d), with_oracle in runs:
        code = build()
        params = hss.HssParams(code.s, t, d, code.dim, d, code.spec)
        if not with_oracle:
            os.environ[ENV_VAR] = BIG_BUDGET  # the --big rows come last, so the override ends with the process
        fast, run, scheme, ok = synthesize_and_run(args.repeats, code, params)
        if not ok:
            failures.append(f"{name}: run_end_to_end did not reconstruct the products")
        unions = len(set(hss.enumerate_monomials(params)[1]))
        line = f"{name:<36} {unions:>7,} {len(scheme.solutions.solved):>7,} {key_bytes(scheme):>10,} {fast:>8.3f}s {run:>7.3f}s"
        if not with_oracle:
            print(f"{line} {'-':>9} {'-':>8}", flush=True)
            continue
        slow, expected = best_of(args.repeats, lambda: oracles.synthesize_blocks(code, params))
        if oracles.project_blocks(scheme) != expected:
            failures.append(f"{name}: key rows projected onto the unions differ from oracles.synthesize_blocks")
        print(f"{line} {slow:>8.3f}s {slow / fast:>7.1f}x", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
