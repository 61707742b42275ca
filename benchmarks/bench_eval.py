#!/usr/bin/env python3
"""Time hss.eval_server per server on the goppa-eval, hermitian-setup and
goppa-wire shapes, with the package's contraction (hss._contract_planes:
one popcount per fold class of plane pairs, share planes translated once)
and with the one it replaced (oracles.contract_planes: one popcount per
plane pair, a second translate of each share product, kept in
tests/oracles.py).

Usage:  python3 benchmarks/bench_eval.py [--repeats N] [--seed S] [--planes]

For each shape the row gives the number of servers, how many of them are
always zero (no key carries a nonzero coefficient at any coordinate they
own, so eval_server checks their views and returns zeros), the popcounts
per owned coordinate of both contractions, and the mean time per server
of eval_server over every server, each the best of N rounds.  Each
server's state is built before timing.  The two contractions must give
equal outputs on every server, or the script exits with status 1.

A second table gives, per server of each shape, its first eval_server
call on a fresh scheme (which builds the server's state, see
hss.server_state) and its later calls (best of N, the state read from
the scheme's cache), and per shape the first trial (the sum of every
server's first call) against a later one (the sum of their later calls),
with their ratio.

--planes times the plane split instead, one row per field at a ladder
shape (positions of a tensor x ell instances): the package's split
(hss._bit_planes, each lane string cut into position blocks, then a
delta-swap transpose of the block words) against the one it replaced
(oracles.group_bit_planes, groups of 8 instances concatenated), best of
N calls each on the same seeded lane strings, with the bytes per plane
of both layouts.  The two splits must hold the same bits
(oracles.blocks_from_groups lays the old planes out in blocks), and
hss._lane_strings must give the strings of oracles.group_lane_strings,
or the script exits with status 1.
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
from labelweight_hss import hss  # noqa: E402
from labelweight_hss.codes import goppa_build, hermitian_build  # noqa: E402
from labelweight_hss.galois import FieldSpec  # noqa: E402

# (code, t, d, m) of each benchmark workload's scheme
SHAPES = {
    "goppa-eval": (lambda: goppa_build(4, 2), 1, 3, 3),
    "hermitian-setup": (lambda: hermitian_build(3, 10), 1, 3, 3),
    "goppa-wire": (lambda: goppa_build(4, 2), 4, 1, 4),
}

# (row, field, positions, ell) of each --planes row: a server's tensor has
# C(s - 1, t)^d positions
PLANES = [
    ("hermitian-setup [27,10] (1, 3)", FieldSpec(3, 2), 26**3, 10),
    ("hermitian [64,56] (1, 2)", FieldSpec(2, 4), 63**2, 56),
    ("hermitian [125,113] (1, 2)", FieldSpec(5, 2), 124**2, 113),
    ("hermitian s = 343 (1, 2), ell 20", FieldSpec(7, 2), 342**2, 20),
]


def best_of(repeats, fn):
    """Best wall time of `repeats` calls, and the last result."""
    best, value = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def split_planes(repeats: int, seed: int) -> int:
    """The --planes table; 1 if the two splits or the lane packings differ."""
    failures = []
    print(f"plane split per call, best of {repeats}")
    print(
        f"{'shape':<33} {'field':>7} {'positions':>9} {'ell':>4} {'package':>10} {'oracle':>10} {'ratio':>7}"
        f" {'bytes/plane':>11} {'oracle':>9}"
    )
    for name, spec, size, ell in PLANES:
        tables = hss._plane_tables(spec)
        codes = bytes(b % spec.q for b in range(256))
        raw = random.Random(seed).randbytes(size * ell).translate(codes)
        tensors = [raw[i * size : (i + 1) * size] for i in range(ell)]
        strings = hss._lane_strings(tables, tensors, size)
        if list(strings) != oracles.group_lane_strings(tables, tensors, size):
            failures.append(f"{name}: hss._lane_strings differs from oracles.group_lane_strings")
        translated = [hss._plane_bytes(tables, (string,)) for string in strings]
        new, planes = best_of(repeats, lambda: hss._bit_planes(tables, translated, size))
        old, old_planes = best_of(repeats, lambda: oracles.group_bit_planes(tables, translated, size))
        if planes != oracles.blocks_from_groups(old_planes, tables.lanes, len(strings), size):
            failures.append(f"{name}: hss._bit_planes differs from oracles.group_bit_planes")
        per_byte = 8 // tables.lanes
        block_bytes, group_bytes = len(strings) * -(-size // per_byte), size * -(-len(strings) // per_byte)
        field = f"GF({spec.q})"
        print(
            f"{name:<33} {field:>7} {size:>9} {ell:>4} {new * 1e3:>8.3f}ms {old * 1e3:>8.3f}ms {old / new:>6.2f}x"
            f" {block_bytes:>11} {group_bytes:>9}"
        )
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--planes", action="store_true", help="time the two plane splits instead")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.planes:
        return split_planes(args.repeats, args.seed)

    package_contract = hss._contract_planes
    failures, rows, calls = [], [], []
    for name, (build, t, d, m) in SHAPES.items():
        scheme = hss.scheme_for_code(build(), t=t, d=d, m=m)
        params = scheme.params
        rng = random.Random(args.seed)
        secrets = [[rng.randrange(params.spec.q) for _ in range(params.m)] for _ in range(params.ell)]
        views = hss.share_all_secrets(params, secrets, random.Random(args.seed))[1]
        servers = range(1, params.s + 1)

        def every_server():
            return [hss.eval_server(scheme, j, views[j]) for j in servers]

        first = []
        for j in servers:  # builds every server's state
            t0 = time.perf_counter()
            hss.eval_server(scheme, j, views[j])
            first.append(time.perf_counter() - t0)
        later = [best_of(args.repeats, lambda: hss.eval_server(scheme, j, views[j]))[0] for j in servers]
        calls.append((name, first, later))
        zero = sum(not state.live for state in scheme._states.values())
        tables = hss._plane_tables(params.spec)
        new, outputs = best_of(args.repeats, every_server)
        hss._contract_planes = oracles.contract_planes
        try:
            old, old_outputs = best_of(args.repeats, every_server)
        finally:
            hss._contract_planes = package_contract
        if outputs != old_outputs:
            failures.append(f"{name}: eval_server outputs differ between the package and the oracle contraction")
        counts = f"{len(tables.classes)}/{len(tables.planes) ** 2}"
        rows.append((name, params.s, zero, counts, new / params.s, old / params.s))

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"eval_server per server, mean over every server, best of {args.repeats}")
    print(f"{'shape':<16} {'servers':>7} {'zero':>5} {'popcounts':>9} {'package':>11} {'oracle':>11} {'ratio':>7}")
    for name, s, zero, counts, new, old in rows:
        print(f"{name:<16} {s:>7} {zero:>5} {counts:>9} {new * 1e3:>9.3f}ms {old * 1e3:>9.3f}ms {old / new:>6.2f}x")
    print(f"\neval_server per server: first call (builds its state) and later calls, best of {args.repeats}")
    print(f"{'shape':<16} {'server':>7} {'first':>11} {'later':>11} {'ratio':>8}")
    for name, first, later in calls:
        for j, (one, rest) in enumerate(zip(first, later), 1):
            print(f"{name:<16} {j:>7} {one * 1e3:>9.3f}ms {rest * 1e3:>9.3f}ms {one / rest:>7.1f}x")
        one, rest = sum(first), sum(later)
        print(f"{name:<16} {'trial':>7} {one * 1e3:>9.3f}ms {rest * 1e3:>9.3f}ms {one / rest:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
