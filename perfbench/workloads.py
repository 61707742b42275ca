"""The four benchmark workloads, each driven through the library's public API.

A workload knows how to set up (parameters to a ready scheme), how to make
the seeded inputs of trial ``index``, how to run one trial, and how to
check its output.  Every input is derived from the workload seed, so the
same seed gives the same secrets, share seeds and sampled codes.  The
library calls go through module attributes (``hss.run_end_to_end``, not a
bound import) so that the traced run sees them.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

from labelweight_hss import analysis, codes, hss, protocol
from labelweight_hss.galois import FieldSpec


class SchemeEval:
    """Scheme workload whose trial is one monolithic ``hss.run_end_to_end``."""

    def __init__(self, name, build, build_args, t, d, m, setup_reps, trace_trials, exact):
        self.name = name
        self.build = build
        self.build_args = build_args
        self.t, self.d, self.m = t, d, m
        self.setup_reps = setup_reps
        self.trace_trials = trace_trials
        # (per-layer metric, relation, stated value, counted per trial?)
        self.exact = exact

    def setup(self):
        code = getattr(codes, self.build)(*self.build_args)
        return hss.scheme_for_code(code, t=self.t, d=self.d, m=self.m)

    def inputs(self, scheme, seed: int, index: int):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        q = scheme.params.spec.q
        secrets = [[rng.randrange(q) for _ in range(scheme.params.m)] for _ in range(scheme.params.ell)]
        return secrets, rng.getrandbits(62)

    def run(self, scheme, inputs):
        secrets, share_seed = inputs
        return hss.run_end_to_end(scheme, secrets, share_seed)

    def check(self, scheme, inputs, result) -> bool:
        return result.ok

    def fingerprint(self, result):
        return tuple(result.outputs)

    def field(self, scheme) -> FieldSpec:
        return scheme.params.spec

    def wire_bytes(self, result) -> int:
        return 0


class SchemeWire(SchemeEval):
    """Scheme workload whose trial is a full ``protocol.simulate`` run."""

    def run(self, scheme, inputs):
        secrets, share_seed = inputs
        return protocol.simulate(scheme, secrets, share_seed)

    def check(self, scheme, inputs, result) -> bool:
        # the same comparison `hss simulate` makes
        secrets, share_seed = inputs
        _, outputs = result
        reference = hss.run_end_to_end(scheme, secrets, share_seed)
        return reference.ok and outputs == reference.outputs

    def fingerprint(self, result):
        transcript, outputs = result
        return tuple(outputs), hashlib.sha256(b"".join(transcript.frames)).hexdigest()

    def wire_bytes(self, result) -> int:
        return sum(len(frame) for frame in result[0].frames)


class GvKernel:
    """Random-code Monte Carlo; one trial is one sampled code."""

    name = "gv-kernel"
    # setup takes well under a millisecond, so many repetitions give a steady median
    setup_reps = 101
    trace_trials = 30
    exact = [("kernels.messages", "==", 2**15, True)]

    def setup(self):
        cfg = analysis.GvConfig(2, 2, 14, Fraction(1, 7), Fraction(1, 50))
        if not analysis.ball_bound_holds(cfg):
            raise ValueError(f"ball bound fails for {cfg}")
        return cfg, analysis.gv_dimension(cfg)

    def inputs(self, state, seed: int, index: int) -> int:
        return random.Random(f"{self.name}:{seed}:{index}").getrandbits(62)

    def run(self, state, gv_seed: int):
        cfg, _ = state
        return analysis.gv_monte_carlo(cfg, 1, gv_seed)

    def check(self, state, gv_seed: int, report) -> bool:
        # Redraw the sampled generator the way gv_monte_carlo draws its
        # trial 0, and decide the trial by brute force.
        cfg, k = state
        rng = random.Random(f"{gv_seed}:0")
        flat = [rng.randrange(cfg.q) for _ in range(k * cfg.n)]
        rows = [flat[i * cfg.n : (i + 1) * cfg.n] for i in range(k)]
        labels = [j // cfg.w for j in range(cfg.n)]
        lw = brute_labelweight(rows, cfg.q, labels, cfg.s)
        return report.dimension == k and report.failures == (1 if lw < cfg.target else 0)

    def fingerprint(self, report):
        return report.dimension, report.failures

    def field(self, state) -> FieldSpec:
        return FieldSpec(state[0].q, 1)

    def wire_bytes(self, report) -> int:
        return 0


def brute_labelweight(rows: list[list[int]], q: int, labels: list[int], s: int) -> int:
    """Fewest labels touched by a nonzero word of the row span over prime GF(q).

    Every message is listed with itertools; zero words are skipped and an
    all-zero span gives s + 1, as the enumeration kernel does.
    """
    import numpy as np

    if any(q % p == 0 for p in range(2, q)):
        raise ValueError(f"brute_labelweight needs a prime field order, got {q}")
    messages = np.array(list(itertools.product(range(q), repeat=len(rows))), dtype=np.int64)
    words = messages @ np.array(rows, dtype=np.int64) % q
    touched = np.zeros((len(words), s), dtype=bool)
    for col, label in enumerate(labels):
        touched[:, label] |= words[:, col] != 0
    weights = touched.sum(axis=1)
    weights = weights[weights > 0]
    return int(weights.min()) if weights.size else s + 1


WORKLOADS = {
    w.name: w
    for w in (
        SchemeEval(
            "goppa-eval", "goppa_build", (4, 2), t=1, d=3, m=3, setup_reps=5, trace_trials=40,
            exact=[
                ("hss.monomials", "==", 32_768, False),
                ("hss.distinct_unions", "==", 696, False),
                ("hss.eval_entries", "==", 131_890, False),
            ],
        ),
        SchemeEval(
            "hermitian-setup", "hermitian_build", (3, 10), t=1, d=3, m=3, setup_reps=2, trace_trials=1,
            exact=[
                ("hss.monomials", "==", 196_830, False),
                ("hss.distinct_unions", "==", 3_303, False),
                ("hss.eval_entries", "==", 1_330_683, False),
            ],
        ),
        SchemeWire(
            "goppa-wire", "goppa_build", (4, 2), t=4, d=1, m=4, setup_reps=5, trace_trials=5,
            exact=[
                ("hss.distinct_unions", "==", 1_820, False),
                ("protocol.frames", "==", 33, True),
                # traffic may shrink but not grow past the seed commit's count
                ("protocol.wire_bytes_per_trial", "<=", 699_234, False),
            ],
        ),
        GvKernel(),
    )
}


def eval_table_stats(scheme) -> dict[str, float]:
    """Stored Eval entries, distinct unions, and entries per distinct solution entry.

    A solution entry is one (union, instance, coordinate) triple: every
    monomial of that union and instance stores the same coefficient there.
    """
    union_of: dict[tuple, frozenset] = {}
    solution_entries = set()
    stored = 0
    for r, row in scheme.eval_table.items():
        stored += len(row)
        for mono in row:
            union = union_of.get(mono.subsets)
            if union is None:
                union = union_of[mono.subsets] = mono.union()
            solution_entries.add((union, mono.instance, r))
    return {
        "hss.eval_entries": stored,
        "hss.distinct_unions": len(set(union_of.values())),
        "hss.eval_dup_ratio": stored / len(solution_entries) if solution_entries else 0.0,
    }
