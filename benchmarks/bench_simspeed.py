"""Simulator throughput benchmark: batched engine vs the reference loop.

Measures simulated instruction-occurrences per second on a canned
64-rank hierarchical allreduce (8 nodes x 8 GPUs on NDv4, 4 MiB
chunks) for both event-loop engines, plus the batched engine traced
(``batched_traced``: spans and execution graph recorded), and checks
bitwise result parity between the engines and that tracing leaves the
batched answer unchanged.

Two timings are reported per row:

* ``cold`` — a fresh :class:`IrSimulator` per run, paying program
  compilation and state construction (what a single one-off run costs),
* ``warm`` — repeated ``run()`` on one simulator instance, the
  steady-state that sweeps, tuning loops, and the conformance harness
  actually sit in.

The headline ``speedup`` is batched-warm over reference-warm
occurrences/sec. The process fails if the engines disagree or the
traced run's time differs from the untraced one's.
``--assert-speedup X`` fails the process below X;
``--check-against FILE`` fails if that warm speedup fell more than 20%
below the speedup in a previously committed baseline (the CI smoke
job's knob). Both engines run on the same machine, so the ratio is
machine-relative where absolute occ/s is not. ``--out FILE`` writes
the JSON report (default ``benchmarks/results/BENCH_simspeed.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.algorithms import hierarchical_allreduce
from repro.core import compile_program
from repro.runtime.simulator import IrSimulator, SimConfig, sim_parity_diffs
from repro.topology import presets

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DEFAULT_OUT = RESULTS_DIR / "BENCH_simspeed.json"

NODES = 8
GPUS = 8
INSTANCES = 2
CHUNK_BYTES = float(4 * 1024 * 1024)
REGRESSION_TOLERANCE = 0.20


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(repeats: int = 3, warm_repeats: int = 5) -> dict:
    ir = compile_program(
        hierarchical_allreduce(NODES, GPUS, instances=INSTANCES)).ir
    topo = presets.ndv4(NODES)

    def fresh(engine: str, traced: bool = False):
        return IrSimulator(ir, topo, None, SimConfig(
            engine=engine, collect_trace=traced))

    report: dict = {
        "config": {
            "algorithm": f"hierarchical_allreduce({NODES}, {GPUS}, "
                         f"instances={INSTANCES})",
            "topology": f"ndv4({NODES})",
            "ranks": topo.num_ranks,
            "chunk_bytes": CHUNK_BYTES,
        },
        "engines": {},
    }
    results = {}
    for row, engine, traced in (("reference", "reference", False),
                                ("batched", "batched", False),
                                ("batched_traced", "batched", True)):
        cold = _best(lambda: fresh(engine, traced).run(CHUNK_BYTES),
                     repeats)
        sim = fresh(engine, traced)
        result = sim.run(CHUNK_BYTES)
        warm = _best(lambda: sim.run(CHUNK_BYTES), warm_repeats)
        results[row] = result
        occurrences = result.instruction_count * result.tiles
        report["engines"][row] = {
            "cold_s": cold,
            "warm_s": warm,
            "occurrences": occurrences,
            "ips_cold": occurrences / cold,
            "ips_warm": occurrences / warm,
            "time_us": result.time_us,
        }
    diffs = sim_parity_diffs(results["batched"], results["reference"])
    ref = report["engines"]["reference"]
    bat = report["engines"]["batched"]
    report["speedup_warm"] = bat["ips_warm"] / ref["ips_warm"]
    report["speedup_cold"] = bat["ips_cold"] / ref["ips_cold"]
    report["parity"] = "ok" if not diffs else diffs
    traced = results["batched_traced"]
    report["tracing"] = (
        "ok" if (traced.time_us, traced.resource_busy_us)
        == (results["batched"].time_us, results["batched"].resource_busy_us)
        else f"traced {traced.time_us!r} us vs untraced "
             f"{results['batched'].time_us!r} us")
    return report


def print_report(report: dict) -> None:
    cfg = report["config"]
    print(f"simspeed: {cfg['algorithm']} on {cfg['topology']} "
          f"({cfg['ranks']} ranks, {int(cfg['chunk_bytes'])} B chunks)")
    for engine, row in report["engines"].items():
        print(f"  {engine:>14}: cold {row['cold_s'] * 1e3:8.1f} ms "
              f"({row['ips_cold']:10.0f} occ/s)   "
              f"warm {row['warm_s'] * 1e3:8.1f} ms "
              f"({row['ips_warm']:10.0f} occ/s)")
    print(f"  speedup (warm ips): {report['speedup_warm']:.2f}x   "
          f"(cold ips): {report['speedup_cold']:.2f}x")
    print(f"  parity: {report['parity']}   tracing: {report['tracing']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="JSON report path")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless warm-ips speedup >= X")
    parser.add_argument("--check-against", type=Path, default=None,
                        metavar="BASELINE",
                        help="fail if the warm speedup fell >20%% "
                             "below this committed report's")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--warm-repeats", type=int, default=5)
    args = parser.parse_args(argv)

    report = run_bench(args.repeats, args.warm_repeats)
    print_report(report)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {args.out}")

    failures = []
    if report["parity"] != "ok":
        failures.append("engines disagree on SimResult")
    if report["tracing"] != "ok":
        failures.append(f"tracing changed the answer: {report['tracing']}")
    if (args.assert_speedup is not None
            and report["speedup_warm"] < args.assert_speedup):
        failures.append(
            f"speedup {report['speedup_warm']:.2f}x "
            f"< required {args.assert_speedup:.2f}x")
    if args.check_against is not None:
        baseline = json.loads(args.check_against.read_text())
        base = baseline["speedup_warm"]
        now = report["speedup_warm"]
        floor = base * (1.0 - REGRESSION_TOLERANCE)
        print(f"  baseline warm speedup {base:.2f}x "
              f"(floor {floor:.2f}x), current {now:.2f}x")
        if now < floor:
            failures.append(
                f"warm speedup {now:.2f}x regressed >"
                f"{REGRESSION_TOLERANCE:.0%} vs baseline {base:.2f}x")
    for failure in failures:
        print(f"  FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
