"""Checks of the ledger benchmark itself; outside tier-1's testpaths.

Run explicitly from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core.errors import VerificationError  # noqa: E402

TINY = {"compile": 3, "replan": 2, "sweep": 4, "serve": 30}


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    """A private cache dir; the plan server finds the sources too."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def run(name, seed=1, seconds=4, traced=False):
    ledger = spans.Ledger() if traced else None
    workload = workloads.WORKLOADS[name](seed, seconds, ledger,
                                         max_ops=TINY[name])
    try:
        workload.setup()
        workload.run()
        return workload, workload.result()
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_completes_at_a_tiny_op_count(name):
    _, result = run(name)
    assert result["attempted"] >= TINY[name]
    assert result["failed"] == 0, result["failures"]
    assert result["e2e"]["p50_ms"] > 0
    # At a tiny op count serve never leaves its cold start, so its
    # slo_frac may be 0.
    assert all(value >= 0 for value in result["e2e"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_seed_alone_fixes_the_op_list(name):
    def ops(seed):
        workload = workloads.WORKLOADS[name](seed, 20)
        workload.plan_ops()
        return workload.ops()

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


def test_a_wrong_oracle_answer_is_a_failed_op(monkeypatch):
    def wrong(self, *args, **kwargs):
        raise VerificationError("injected wrong answer")

    monkeypatch.setattr(workloads.IrExecutor, "check", wrong)
    _, result = run("compile")
    assert result["failed"] == TINY["compile"]
    assert result["e2e"]["slo_frac"] == 0.0


def test_an_engine_parity_diff_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(workloads, "sim_parity_diffs",
                        lambda a, b: ["time_us: injected"])
    workload = workloads.SweepWorkload(1, 20, max_ops=40)
    try:
        workload.setup()
        workload.run()
    finally:
        workload.close()
    # A checked point fails in every round.
    assert workload.failed == workload.PARITY_POINTS * len(workload.op_list)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_self_times_sum_to_the_traced_op_time(name, monkeypatch):
    # Serve's in-process tune() runs outside the ops and takes long.
    monkeypatch.setattr(workloads.ServeWorkload, "tune_in_process",
                        lambda self: None)
    workload, result = run(name, traced=True)
    ops = workload.ledger.ops()
    assert ops
    for op in ops:
        total = sum(spans.self_us(span) for span in op.walk())
        assert total == pytest.approx(op.duration_us, rel=1e-9)
    assert result["layers"]["trace.coverage_pct"] >= 90.0


def test_without_the_sources_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "compile", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
