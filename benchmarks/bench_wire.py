#!/usr/bin/env python3
"""Time sharing, evaluation and the whole protocol run on the goppa-wire
shape (Goppa [16,8] over GF(2), s=16, t=4, d=1, m=4: 1,820 share subsets
per secret), for the package and for the code it replaced (kept in
tests/oracles.py).

Usage:  python3 benchmarks/bench_wire.py [--repeats N] [--seed S]

Rows, each the best of N calls:
  draw      galois.randrange_run     vs oracles.randrange_run, the
            58,208 draws of one deal (rounds joined once vs appended)
  views     hss._lay_out_views       vs oracles.sliced_views, every
            server's view from the drawn share vectors
  eval      hss.eval_server          vs oracles.eval_server, every server
  simulate  protocol.simulate        vs oracles.simulate
  codec     protocol.encode/decode   vs oracles.encode/decode, on the
            33 messages of each path's own simulate run
The draw and views rows are the two stages of hss.share_all_secrets,
timed against the per-subset-slice dealer it replaced
(oracles.sliced_share_all_secrets); the other rows against the
per-share dict path.  Each stage calls the functions themselves, and
each path's eval_server reads that path's own views (the package's
bytes, the dict oracle's dicts); the finer breakdown of
protocol.simulate (encode, decode, the server's own work) is in the
counters of `perfbench/run.py --workload goppa-wire --trace 1`.  The
two paths must give equal draws and generator states, byte-identical
views, views equal to the dict oracle's (the package's read through
oracles.view_dicts), equal server outputs, byte-identical transcripts,
and from the codec equal frames and equal payload elements, or the
script exits with status 1.
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
from labelweight_hss import galois, hss, protocol  # noqa: E402
from labelweight_hss.codes import goppa_build  # noqa: E402


# each path's function for every stage, the package's and the replaced code's
package = SimpleNamespace(
    randrange_run=galois.randrange_run,
    lay_out_views=hss._lay_out_views,
    share_all_secrets=hss.share_all_secrets,
    eval_server=hss.eval_server,
    simulate=protocol.simulate,
    encode=protocol.encode,
    decode=protocol.decode,
)
replaced = SimpleNamespace(
    randrange_run=oracles.randrange_run,
    lay_out_views=oracles.sliced_views,
    share_all_secrets=oracles.share_all_secrets,
    eval_server=oracles.eval_server,
    simulate=oracles.simulate,
    encode=oracles.encode,
    decode=oracles.decode,
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

    vectors = list(hss.share_all_secrets(params, secrets, random.Random(args.seed))[0].values())
    draws = len(vectors) * (len(vectors[0]) - 1)

    def deal_draws(path):
        rng = random.Random(args.seed)
        return bytes(path.randrange_run(rng, q, draws)), rng.getstate()

    def timed(path):
        draw = best_of(args.repeats, lambda: deal_draws(path))
        layout = best_of(args.repeats, lambda: path.lay_out_views(params, vectors))
        views = path.share_all_secrets(params, secrets, random.Random(args.seed))[1]
        evaluate = best_of(args.repeats, lambda: [path.eval_server(scheme, j, views[j]) for j in servers])
        run = best_of(args.repeats, lambda: path.simulate(scheme, secrets, args.seed))
        messages = run[1][0].messages

        def codec():
            frames = list(map(path.encode, messages))
            return frames, [path.decode(frame, q) for frame in frames]

        coded = best_of(args.repeats, codec)
        times = {"draw": draw[0], "views": layout[0], "eval": evaluate[0], "simulate": run[0], "codec": coded[0]}
        return times, (draw[1], layout[1], views, evaluate[1], *run[1], coded[1])

    new, (drawn, laid, views, outputs, transcript, result, (frames, decoded)) = timed(package)
    old, results = timed(replaced)
    old_drawn, old_laid, old_views, old_outputs, old_transcript, old_result, (old_frames, old_decoded) = results
    failures = []
    if drawn != old_drawn:
        failures.append("galois.randrange_run and oracles.randrange_run give different draws or generator states")
    if laid != old_laid:
        failures.append("hss._lay_out_views and oracles.sliced_views give different views")
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
