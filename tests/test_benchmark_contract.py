"""The traced benchmark reads the package from outside, through the names
in perfbench/tracing.py and perfbench/workloads.py.  This loads those two
files as they are and traces one small scheme through them, so that a
package change that silently breaks the traced benchmark fails here."""

import importlib.util
import itertools
import math
from pathlib import Path

from labelweight_hss import codes, hss, protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_scheme_run_keeps_the_benchmark_read_contract():
    tracing, workloads = _load("tracing"), _load("workloads")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.active = True
        scheme = hss.scheme_for_code(codes.goppa_build(3, 1), t=1, d=2)
        secrets = [[(i + k) % scheme.params.spec.q for k in range(scheme.params.m)] for i in range(scheme.params.ell)]
        result = hss.run_end_to_end(scheme, secrets, 7)
        _, outputs = protocol.simulate(scheme, secrets, 7)
        tracer.active = False
    finally:
        broken = tracer.restore()
    assert broken == []
    params = scheme.params
    assert result.ok and outputs == result.outputs
    assert tracer.counters["hss.monomials"] == params.ell * math.comb(params.s, params.t) ** params.d
    combos = itertools.product(hss.subsets_of_size(params.s, params.t), repeat=params.d)
    unions = {frozenset().union(*combo) for combo in combos}
    assert workloads.eval_table_stats(scheme)["hss.distinct_unions"] == len(unions)
    assert tracer.counters["protocol.frames"] == 2 * params.s + 1
    # one share_all_secrets call each in run_end_to_end and simulate, C(s, t) shares per secret
    assert tracer.counters["hss.shares"] == 2 * params.ell * params.m * math.comb(params.s, params.t)
    assert tracer.by_name()["hss.synthesize_eval"]["calls"] == 1
