"""The benchmark scripts under benchmarks/ still run."""

import re
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


def test_eval_benchmark_plane_splits_agree():
    """bench_eval.py --planes exits 0 only if the package's plane split and
    lane packing give the planes and strings of the ones they replaced on
    every row."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_eval.py"), "--planes", "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert re.search(r"^hermitian \[125,113\] \(1, 2\) +GF\(25\) +15376 +113 ", run.stdout, re.M)


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


def test_synth_benchmark_reads_each_document_as_synthesized():
    """bench_synth.py --read exits 0 only if every document reads back as
    the scheme it was written from; the hermitian-setup document is its
    tag, six header lines and 16 lines of code document."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_synth.py"), "--read", "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert re.search(r"^hermitian-setup \[27,10\] \(1, 3\) +23 ", run.stdout, re.M)


def test_kernel_benchmark_runs_and_agrees_with_the_oracle():
    """bench_kernels.py exits non-zero if the kernel and the packed walk it
    replaced give different labelweights on any case."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "random [10,5] GF(9)" in run.stdout


def test_wire_benchmark_runs_and_agrees_with_the_oracle():
    """bench_wire.py exits 1 unless the package and the oracle give equal
    views, server outputs, frames and payloads, and transcripts equal in
    frames, messages, link bytes and downloaded symbols."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_wire.py"), "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "goppa-wire shape: 33 frames, 699234 bytes" in run.stdout
