"""The benchmark scripts under benchmarks/ still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_eval_benchmark_runs_and_its_contractions_agree():
    """bench_eval.py exits 0 only if the package's contraction and the one
    it replaced give equal outputs on every server of every shape."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_eval.py"), "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "hermitian-setup" in run.stdout


def test_synth_benchmark_key_searches_agree():
    """bench_synth.py --keys exits 0 only if the package's key search and
    the per-L search with one solve per key that it replaced give the
    same KeySolutions, key order and each Q's order included, on every
    rung of the ladder."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_synth.py"), "--keys", "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "hermitian q=3 k=10 [27,10] (1, 3)" in run.stdout
