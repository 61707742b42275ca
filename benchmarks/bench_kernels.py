#!/usr/bin/env python3
"""Benchmark the bit-sliced codeword-enumeration kernel against the
packed meet-in-the-middle walk it replaced (kept in tests/oracles.py as
``packed_min_labelweight``).

Usage:  python3 benchmarks/bench_kernels.py [--repeats N] [--big]

Each case reports the best-of-N wall time of both implementations, the
q^k messages of the case divided by that time, and the speedup.  The two must
agree on every case.  --big adds a 2^20-message instance (the oracle
takes minutes there, so that case times the kernel alone).
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from labelweight_hss import kernels  # noqa: E402
from labelweight_hss.codes import Labeling, goppa_build, hermitian_build  # noqa: E402
from labelweight_hss.galois import FieldSpec, prime_power  # noqa: E402


def code_case(name, code):
    spec = code.spec
    return (
        name,
        spec,
        code.generator.to_bytes(),
        code.dim,
        code.n,
        bytes(v - 1 for v in code.labeling.map),
        code.s,
    )


def random_case(name, q, k, n, seed, labeling=None, unit_row=None):
    """A uniform random generator, identity labels unless `labeling` is
    given; `unit_row` replaces that row by the first unit vector, a word
    of labelweight 1."""
    spec = FieldSpec(*prime_power(q))
    rng = random.Random(seed)
    rows = bytearray(rng.randrange(q) for _ in range(k * n))
    if unit_row is not None:
        rows[unit_row * n : (unit_row + 1) * n] = bytes([1] + [0] * (n - 1))
    labeling = labeling or Labeling.identity(n)
    return (name, spec, bytes(rows), k, n, bytes(v - 1 for v in labeling.map), labeling.s)


def best_time(walk, args, repeats):
    best, value = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = walk(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--big", action="store_true", help="include a 2^20-message case")
    args = parser.parse_args()

    cases = [
        code_case("goppa u=4 r=2  [16,8] GF(2)", goppa_build(4, 2)),
        code_case("goppa u=5 r=2  [32,22] GF(2)", goppa_build(5, 2)),
        code_case("hermitian q=2 k=5  [8,5] GF(4)", hermitian_build(2, 5)),
        random_case("gv [28,15] GF(2) s=14 w=2", 2, 15, 28, seed=1, labeling=Labeling.balanced(14, 2)),
        random_case("random [28,15] GF(2)", 2, 15, 28, seed=1),
        random_case("random [32,16] GF(2)", 2, 16, 32, seed=1),
        random_case("random [18,9] GF(4)", 4, 9, 18, seed=2),
        random_case("random [20,10] GF(3)", 3, 10, 20, seed=3),
        random_case("random [14,5] GF(7)", 7, 5, 14, seed=4),
        random_case("random [10,5] GF(9)", 9, 5, 10, seed=6),
        random_case("random [12,6] GF(5) weight 1", 5, 6, 12, seed=5, unit_row=0),
    ]
    runs = [(case, True) for case in cases]
    if args.big:
        runs.append((random_case("random [40,20] GF(2)", 2, 20, 40, seed=3), False))

    print(f"{'case':<34} {'messages':>10} {'kernel ms':>10} {'msg/s':>10} {'oracle ms':>10} {'msg/s':>10} {'speedup':>8}")
    for (name, spec, rows, k, n, labels0, s), with_oracle in runs:
        call = (rows, k, n, labels0, spec.add_table, spec.tables().mul, spec.q, s)
        messages = spec.q**k
        fast, value = best_time(kernels.min_labelweight, call, args.repeats)
        line = f"{name:<34} {messages:>10} {fast * 1e3:>10.3f} {messages / fast:>10.3g}"
        if not with_oracle:
            print(f"{line} {'-':>10} {'-':>10} {'-':>8}")
            continue
        slow, expected = best_time(oracles.packed_min_labelweight, call, args.repeats)
        if value != expected:
            print(f"{name}: kernel {value} != oracle {expected}", file=sys.stderr)
            return 1
        print(f"{line} {slow * 1e3:>10.3f} {messages / slow:>10.3g} {slow / fast:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
