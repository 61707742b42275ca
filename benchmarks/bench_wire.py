#!/usr/bin/env python3
"""Time sharing, evaluation and the whole protocol run on the goppa-wire
shape (Goppa [16,8] over GF(2), s=16, t=4, d=1, m=4: 1,820 share subsets
per secret), for the package and for the per-share dict path it replaced
(kept in tests/oracles.py).

Usage:  python3 benchmarks/bench_wire.py [--repeats N] [--seed S]

Rows, each the best of N calls:
  share     hss.share_all_secrets    vs oracles.share_all_secrets
  eval      hss.eval_server          vs oracles.eval_server, every server
  simulate  protocol.simulate        vs oracles.simulate
  codec     protocol.encode/decode   vs oracles.encode/decode, on the
            33 messages of each path's own simulate run
Each stage calls the functions themselves, and each path's eval_server
reads that path's own views (the package's bytes, the oracle's dicts);
the finer breakdown of protocol.simulate (encode, decode, the server's
own work) is in the counters of
`perfbench/run.py --workload goppa-wire --trace 1`.  The two paths must
give equal views (the package's read through oracles.view_dicts), equal
server outputs, byte-identical transcripts, and from the codec equal
frames and equal payload elements, or the script exits with status 1.
"""

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from labelweight_hss import hss, protocol  # noqa: E402
from labelweight_hss.codes import goppa_build  # noqa: E402


# the package's entry points under the names tests/oracles.py gives them
package = SimpleNamespace(
    share_all_secrets=hss.share_all_secrets,
    eval_server=hss.eval_server,
    simulate=protocol.simulate,
    encode=protocol.encode,
    decode=protocol.decode,
)


def best_of(repeats, fn):
    """Best wall time of `repeats` calls, and the last result."""
    best, value = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    scheme = hss.scheme_for_code(goppa_build(4, 2), t=4, d=1, m=4)
    params = scheme.params
    rng = random.Random(args.seed)
    secrets = [[rng.randrange(params.spec.q) for _ in range(params.m)] for _ in range(params.ell)]
    servers = range(1, params.s + 1)
    q = params.spec.q
    protocol.simulate(scheme, secrets, args.seed)  # builds every server's tensors
    scheme.eval_table  # expanded once, for oracles.eval_server

    def timed(path):
        share = best_of(args.repeats, lambda: path.share_all_secrets(params, secrets, random.Random(args.seed)))
        views = share[1][1]
        evaluate = best_of(args.repeats, lambda: [path.eval_server(scheme, j, views[j]) for j in servers])
        run = best_of(args.repeats, lambda: path.simulate(scheme, secrets, args.seed))
        messages = run[1][0].messages

        def codec():
            frames = list(map(path.encode, messages))
            return frames, [path.decode(frame, q) for frame in frames]

        coded = best_of(args.repeats, codec)
        times = {"share": share[0], "eval": evaluate[0], "simulate": run[0], "codec": coded[0]}
        return times, (views, evaluate[1], *run[1], coded[1])

    new, (views, outputs, transcript, result, (frames, decoded)) = timed(package)
    old, (old_views, old_outputs, old_transcript, old_result, (old_frames, old_decoded)) = timed(oracles)
    failures = []
    if {j: oracles.view_dicts(params, j, view) for j, view in views.items()} != old_views:
        failures.append("share_all_secrets views differ")
    if outputs != [bytes(z) for z in old_outputs]:
        failures.append("eval_server outputs differ")
    fields = ("frames", "messages", "link_bytes", "downloaded_symbols")
    if result != old_result or any(getattr(transcript, f) != getattr(old_transcript, f) for f in fields):
        failures.append("protocol.simulate and oracles.simulate give different transcripts")
    if frames != old_frames or frames != transcript.frames:
        failures.append("protocol.encode and oracles.encode give different frames")
    if [tuple(m.payload) for m in decoded] != [tuple(m.payload) for m in old_decoded]:
        failures.append("protocol.decode and oracles.decode give different payload elements")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    digest = hashlib.sha256(b"".join(transcript.frames)).hexdigest()[:16]
    print(f"goppa-wire shape: {len(transcript.frames)} frames, {sum(map(len, transcript.frames))} bytes, "
          f"sha256 {digest}, best of {args.repeats}")
    print(f"{'stage':<10} {'package':>11} {'oracle':>11} {'ratio':>7}")
    for name in new:
        print(f"{name:<10} {new[name] * 1e3:>9.2f}ms {old[name] * 1e3:>9.2f}ms {old[name] / new[name]:>6.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
