"""Spans and counters for the traced benchmark run, taken from outside the package.

Nothing in ``labelweight_hss`` is edited.  Instead each layer boundary is
wrapped where the *calling* module looks the name up: ``hss`` imported
``solve_many`` from ``matrix`` into its own namespace, so the wrapper goes
on ``hss.solve_many``; patching ``matrix.solve_many`` would never be seen.
Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` and written
out when the run ends.  Every patch is undone by ``restore``, which reports
any name that does not hold its original object again.
"""

from __future__ import annotations

import functools
import random
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from labelweight_hss import analysis, codes, hss, kernels, protocol
from labelweight_hss.galois import FieldSpec

_KIND_NAMES = {protocol.INPUT_SHARES: "input_shares", protocol.OUTPUT_SHARES: "output_shares", protocol.RESULT: "result"}


class Tracer:
    """In-memory span log plus integer counters; records only while ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (setup, one trial)."""
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a function, or a property on a class) by a traced wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, property):
            replacement = property(self._wrap(name, original.fget, count))
        else:
            replacement = self._wrap(name, original, count)
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Undo every patch; returns the names that are not back to their original."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        broken = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved if o.__dict__[a] is not orig]
        self._saved.clear()
        return broken

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds (total minus direct children) per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - children) / 1e9
        return out


# -- counters, fed the positional arguments and the result of each wrapped call --


def _count_solve(c, args, result):
    c["matrix.solve_cells"] += args[0].rows * args[0].cols


def _count_kernel(c, args, result):
    c["kernels.messages"] += args[6] ** args[1]  # q ** nrows


def _count_monomials(c, args, result):
    c["hss.monomials"] += len(result[0])


def _count_eval_server(c, args, result):
    scheme, j = args[0], args[1]
    c["hss.eval_server_entries"] += sum(len(scheme.eval_table[r]) for r in scheme.code.labeling.coords(j))


def _count_shares(c, args, result):
    bundles, _ = result
    c["hss.shares"] += sum(len(shares) for shares in bundles.values())


def _count_encode(c, args, result):
    c["protocol.frames"] += 1
    c["protocol.bytes_" + _KIND_NAMES[args[0].kind]] += len(result)


def _count_gv(c, args, result):
    c["analysis.codes_sampled"] += args[1]
    c["analysis.lw_failures"] += result.failures


def _count_add_table(c, args, result):
    c["galois.add_table_builds"] += 1


# (owner, attribute, span name, counter).  Owners are the modules that make
# the call; the benchmark itself calls codes.*_build, hss.run_end_to_end,
# protocol.simulate and analysis.gv_monte_carlo through their modules, so
# those names are patched on their home modules.
PATCH_POINTS = [
    (codes, "goppa_build", "codes.build", None),
    (codes, "hermitian_build", "codes.build", None),
    (codes, "rank", "matrix.rank", None),
    (hss, "labelweight", "codes.labelweight", None),
    (kernels, "min_labelweight", "kernels.min_labelweight", _count_kernel),
    (hss, "synthesize_eval", "hss.synthesize_eval", None),
    (hss, "enumerate_monomials", "hss.enumerate_monomials", _count_monomials),
    (hss, "solve_many", "matrix.solve_many", _count_solve),
    (hss, "run_end_to_end", "hss.run_end_to_end", None),
    (hss, "share_all_secrets", "hss.share_all_secrets", _count_shares),
    (hss, "eval_server", "hss.eval_server", _count_eval_server),
    (hss, "collect_output_shares", "hss.collect_output_shares", None),
    (hss, "reconstruct", "hss.reconstruct", None),
    (protocol, "simulate", "protocol.simulate", None),
    (protocol, "share_all_secrets", "hss.share_all_secrets", _count_shares),
    (protocol, "eval_server", "hss.eval_server", _count_eval_server),
    (protocol, "collect_output_shares", "hss.collect_output_shares", None),
    (protocol, "reconstruct", "hss.reconstruct", None),
    (protocol, "encode", "protocol.encode", _count_encode),
    (protocol, "decode", "protocol.decode", None),
    (analysis, "gv_monte_carlo", "analysis.gv_monte_carlo", _count_gv),
    # mul_table is read on every FieldSpec.mul call and cached after its one
    # build, so only add_table (rebuilt on every access) is wrapped.
    (FieldSpec, "add_table", "galois.add_table", _count_add_table),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name, count in PATCH_POINTS:
        tracer.patch(owner, attr, name, count)


def field_op_ns(spec: FieldSpec, seed: int, pairs: int = 4096, batches: int = 5) -> dict[str, float]:
    """Median ns per call of FieldSpec add/sub/mul/inv over seeded element pairs.

    These methods run ~10^8 times in a setup, so they are timed in a batch
    here instead of being wrapped.
    """
    rng = random.Random(seed)
    args = [(rng.randrange(spec.q), rng.randrange(1, spec.q)) for _ in range(pairs)]
    out = {}
    for op in ("add", "sub", "mul", "inv"):
        fn = getattr(spec, op)
        samples = []
        for _ in range(batches):
            t0 = time.perf_counter_ns()
            if op == "inv":
                for _, b in args:
                    fn(b)
            else:
                for a, b in args:
                    fn(a, b)
            samples.append((time.perf_counter_ns() - t0) / pairs)
        out[f"galois.{op}_ns"] = statistics.median(samples)
    return out
