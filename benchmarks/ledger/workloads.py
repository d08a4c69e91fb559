"""The ledger's four workloads, one per process.

Each workload is built from its seed alone, runs its timed phase, and
checks every output. ``run.py`` starts this file as a worker::

    python benchmarks/ledger/workloads.py --workload compile --seed 1 \
        --seconds 20 --trace 0

The worker prints ``READY`` once set-up is done (``run.py`` times set-up
to that line) and its result as one JSON line at the end.

How much work a run does is fixed by ``--seconds`` and the seed, never
by how fast the code under test runs: each workload repeats a round of
fixed composition ``round(seconds / ROUND_S)`` times, where ``ROUND_S``
is the round's cost measured when the benchmark was defined. Two
commits therefore time the same operations. Every distinct op runs
once per round, and its latency is its best timing over the rounds:
other tenants of the machine only ever add time to an op, so the best
of several rounds spread over the run is its least disturbed timing.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import random
import resource
import selectors
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Hashable, List, Optional

from repro import algorithms as A
from repro.analysis.autotune import tune
from repro.analysis.sweep import chunk_bytes_for, size_grid
from repro.core.cache import CompileCache, DiskCacheTier, default_cache_dir
from repro.core.compiler import CompilerOptions, compile_program
from repro.core.ir import MscclIr
from repro.core.pipeline import CompileState, default_pipeline
from repro.observe import Tracer, diagnose
from repro.runtime.executor import IrExecutor
from repro.runtime.simulator import IrSimulator, SimConfig, sim_parity_diffs
from repro.serve.service import (COLLECTIVES, DEFAULT_TUNE_SIZES,
                                 DEFAULT_TUNE_SPACE, TOPOLOGIES)
from repro.topology import ndv4

from grid import GRID_PATH, build_program, compile_options
from spans import Ledger, layer_table, no_span

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: An op counts towards ``slo_frac`` when it is answered correctly
#: within this many milliseconds.
SLO_MS = 50.0
OUT_DIR = Path(__file__).resolve().parent / "out"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ranked = sorted(values)
    if not ranked:
        return float("nan")
    pos = q * (len(ranked) - 1)
    low = int(pos)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (pos - low)


def rounds_for(seconds: float, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Timings:
    """Op timings by op key; each op instance counts at its key's best
    time over the run."""

    def __init__(self) -> None:
        self.by_key: Dict[Hashable, List[float]] = {}
        self.instances: List[Hashable] = []
        self.failed: set = set()

    def add(self, key: Hashable, seconds: float, ok: bool = True) -> None:
        self.by_key.setdefault(key, []).append(seconds)
        self.instances.append(key)
        if not ok:
            self.failed.add(key)

    def best(self) -> Dict[Hashable, float]:
        return {key: min(times) for key, times in self.by_key.items()}

    def steady(self, keys=None) -> List[float]:
        best = self.best()
        return [best[key] for key in self.instances
                if keys is None or key in keys]

    def slo_frac(self) -> float:
        """Share of op instances answered correctly within SLO_MS."""
        best = self.best()
        within = sum(key not in self.failed and best[key] * 1e3 <= SLO_MS
                     for key in self.instances)
        return within / len(self.instances) if self.instances else 0.0


class Workload:
    """Set-up, timed phase and checks of one workload.

    ``ledger`` is None for a timed run. A traced run passes a
    :class:`~spans.Ledger` and times each round twice, untraced and then
    traced, so the tracing overhead is measured on the same ops.
    ``max_ops`` caps the op list (the tests use it).
    """

    name = ""

    def __init__(self, seed: int, seconds: float,
                 ledger: Optional[Ledger] = None,
                 max_ops: Optional[int] = None):
        self.seed = seed
        self.seconds = seconds
        self.ledger = ledger
        self.max_ops = max_ops
        self.rng = random.Random(f"{self.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.timings = Timings()   # untraced ops: the end-to-end metrics
        self.traced = Timings()
        self.detail: Dict[str, tuple] = {}
        self.layer_values: Dict[str, float] = {}

    # -- bookkeeping ---------------------------------------------------
    def note(self, what: str, error: BaseException = None) -> None:
        if len(self.failures) < 5:
            self.failures.append(
                what if error is None
                else f"{what}: {type(error).__name__}: {error}")

    def record(self, key, seconds: float, ok: bool, traced: bool) -> None:
        """One finished op."""
        self.attempted += 1
        self.failed += not ok
        (self.traced if traced else self.timings).add(key, seconds, ok)

    def span(self, traced: bool):
        return self.ledger.layer if traced else no_span

    def aside(self, name: str, **args):
        """A span for checks and probes outside the ops (traced runs)."""
        if self.ledger is None:
            return nullcontext()
        return self.ledger.aside(name, **args)

    def passes(self):
        """Traced or not, for each timing of one round."""
        return (False, True) if self.ledger is not None else (False,)

    # -- the interface run.py drives -----------------------------------
    def plan_ops(self) -> None:
        """Generate the op list from the seed; does no measured work."""
        raise NotImplementedError

    def ops(self) -> list:
        """The generated op list, as plain values."""
        raise NotImplementedError

    def setup(self) -> None:
        self.plan_ops()

    def run(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def slo_frac(self) -> float:
        return self.timings.slo_frac()

    def result(self) -> Dict:
        steady = self.timings.steady()
        answered = len(steady) - sum(key in self.timings.failed
                                     for key in self.timings.instances)
        e2e = {
            "p50_ms": percentile(steady, 0.50) * 1e3,
            "p90_ms": percentile(steady, 0.90) * 1e3,
            "ops_per_s": answered / sum(steady) if steady else 0.0,
            "slo_frac": self.slo_frac(),
            "peak_rss_mb": self.peak_rss_mb(),
        }
        out = {"workload": self.name, "attempted": self.attempted,
               "failed": self.failed, "failures": self.failures,
               "samples": len(steady), "e2e": e2e,
               "detail": self.detail}
        if self.ledger is not None:
            out["layers"] = self.layer_metrics()
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """Per span name ``<span>_s`` (total self time) and ``<span>_ms``
        (self time per call), the counts, and the tracing overhead."""
        table = layer_table(self.ledger)
        values = {}
        for name, row in table["layers"].items():
            values[f"{name}_s"] = row["self_us"] / 1e6
            values[f"{name}_ms"] = row["self_us"] / 1e3 / row["calls"]
        untraced = percentile(self.timings.steady(), 0.5)
        traced = percentile(self.traced.steady(), 0.5)
        values["trace.op_p50_ms"] = traced * 1e3
        values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        values["trace.coverage_pct"] = 100.0 * table["coverage"]
        for name, samples in self.ledger.counts.items():
            values[name] = sum(samples) / len(samples)
        values.update(self.layer_values)
        return values


# -- compile -----------------------------------------------------------

class CompileWorkload(Workload):
    """Build + ``compile_program(cache=None)`` + ``to_xml()`` per op.

    The ops are every ``STRIDE``-th (algorithm, nodes, channels,
    instances) group of the committed grid, in order of instruction
    count, so they span the grid's whole cost range. The seed picks each
    group's protocol and the order of every round.
    """

    name = "compile"
    ROUND_S = 1.9
    STRIDE = 12

    def plan_ops(self) -> None:
        groups: Dict[tuple, List[dict]] = {}
        for entry in json.loads(GRID_PATH.read_text())["entries"]:
            key = (entry["algorithm"], entry["nodes"], entry["channels"],
                   entry["instances"])
            groups.setdefault(key, []).append(entry)
        ordered = sorted(groups, key=lambda k: (groups[k][0]["instructions"],
                                                k))
        plans = [self.rng.choice(groups[key])
                 for key in ordered[::self.STRIDE]]
        if self.max_ops is not None:
            plans = plans[:self.max_ops]
        self.op_list = [self.rng.sample(plans, len(plans))
                        for _ in range(rounds_for(self.seconds,
                                                  self.ROUND_S))]

    def ops(self) -> list:
        return [_entry_key(e) for batch in self.op_list for e in batch]

    def run(self) -> None:
        self.checked = set()
        self.xml_digest: Dict[tuple, str] = {}
        xml_bytes = 0
        for batch in self.op_list:
            for traced in self.passes():
                for entry in batch:
                    size = self.one(entry, traced)
                    if not traced:
                        xml_bytes += size
        # XML produced by one round of ops.
        self.detail["output_mb"] = (xml_bytes / len(self.op_list) / 1e6,
                                    "MB")

    def one(self, entry: dict, traced: bool) -> int:
        key = _entry_key(entry)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if traced:
                with self.ledger.op("compile", plan=str(key)):
                    ir, collective, xml = self.traced_compile(entry)
            else:
                algo = compile_program(build_program(entry),
                                       compile_options(entry))
                xml = algo.ir.to_xml()
                ir, collective = algo.ir, algo.collective
        except Exception as error:  # noqa: BLE001 - a failed op
            self.record(key, time.perf_counter() - t0, False, traced)
            self.note(f"compile {key}", error)
            return 0
        elapsed = time.perf_counter() - t0
        digest = sha16(xml.encode())
        ok = self.xml_digest.setdefault(key, digest) == digest
        if not ok:
            self.note(f"compile {key}: traced and untraced XML differ")
        if key not in self.checked:
            self.checked.add(key)
            ok = self.check(ir, collective, key) and ok
        self.record(key, elapsed, ok, traced)
        return len(xml)

    def traced_compile(self, entry: dict):
        """``compile_program`` step by step, one span per pass."""
        span = self.ledger.layer
        with span("algorithms.build"):
            program = build_program(entry)
        options = compile_options(entry)
        state = traced_passes(span, program, options)
        with span("ir.to_xml"):
            xml = state.ir.to_xml()
        # The passes' own counters, read after the op.
        fields = {"lower": "instructions_out", "fuse": "nodes_out",
                  "schedule": "threadblocks"}
        for pass_span in state.tracer.roots:
            field = fields.get(pass_span.name)
            if field is not None:
                self.ledger.count(f"pipeline.{pass_span.name}.{field}",
                                  pass_span.args[field])
        self.ledger.count("ir.xml_bytes", len(xml))
        return state.ir, program.collective, xml

    def check(self, ir, collective, key) -> bool:
        """The executor's numeric oracle, once per distinct plan."""
        try:
            with self.aside("executor.check"):
                IrExecutor(ir, collective).run_and_check()
        except Exception as error:  # noqa: BLE001 - a failed op
            self.note(f"oracle {key}", error)
            return False
        return True


def traced_passes(span, program, options) -> CompileState:
    """The passes of ``default_pipeline()`` over a fresh
    ``CompileState``, as ``compile_program`` runs them, one span each."""
    state = CompileState(program=program, collective=program.collective,
                         options=options, tracer=Tracer())
    for compiler_pass in default_pipeline().passes:
        if compiler_pass.enabled(options):
            with span(f"pipeline.{compiler_pass.name}"):
                compiler_pass.run(state)
    return state


def _entry_key(entry: dict) -> tuple:
    return (entry["algorithm"], entry["nodes"], entry["channels"],
            entry["instances"], entry["protocol"])


# -- replan ------------------------------------------------------------

def _plan(algorithm, nodes, channels=1, instances=1, protocol="Simple"):
    return {"algorithm": algorithm, "nodes": nodes, "channels": channels,
            "instances": instances, "protocol": protocol}


#: 8 small (8 ranks), 8 medium (16) and 8 large (32) grid plans.
REPLAN_PLANS = (
    _plan("ring_allreduce", 1), _plan("allpairs_allreduce", 1,
                                      protocol="LL"),
    _plan("rhd_allreduce", 1), _plan("double_tree_allreduce", 1),
    _plan("ring_allgather", 1), _plan("ring_reducescatter", 1),
    _plan("naive_alltoall", 1), _plan("tree_broadcast", 1),
    _plan("hierarchical_allreduce", 2), _plan("ring_allreduce", 2,
                                              channels=2, protocol="LL"),
    _plan("twostep_alltoall", 2), _plan("alltonext", 2),
    _plan("hierarchical_alltoall", 2), _plan("ring_allgather", 2,
                                             protocol="LL128"),
    _plan("double_tree_allreduce", 2, protocol="LL"),
    _plan("sccl_allgather", 2),
    _plan("hierarchical_allreduce", 4, instances=2),
    _plan("ring_allreduce", 4), _plan("rhd_allreduce", 4),
    _plan("twostep_alltoall", 4), _plan("naive_alltoall", 4),
    _plan("double_tree_allreduce", 4), _plan("ring_allgather", 4),
    _plan("alltonext", 4),
)


class ReplanWorkload(Workload):
    """Build + ``compile_program(cache=...)`` through both cache tiers.

    One cycle starts from an empty cache directory: *fill* asks for
    every plan once (misses, stored to memory and disk), *reuse* asks
    for every plan ``REUSE`` more times (memory hits), and *restart*
    opens a new cache on the same directory and asks for every plan
    once (disk hits). The seed orders each phase.
    """

    name = "replan"
    ROUND_S = 3.2
    REUSE = 4
    PHASES = ("fill", "reuse", "restart")

    def plan_ops(self) -> None:
        plans = list(REPLAN_PLANS)
        self.cycles = []
        for _ in range(rounds_for(self.seconds, self.ROUND_S)):
            reuse = plans * self.REUSE
            self.cycles.append({
                "fill": self.rng.sample(plans, len(plans)),
                "reuse": self.rng.sample(reuse, len(reuse)),
                "restart": self.rng.sample(plans, len(plans)),
            })
        if self.max_ops is not None:
            self.cycles = [{phase: ops[:self.max_ops]
                            for phase, ops in cycle.items()}
                           for cycle in self.cycles[:1]]

    def ops(self) -> list:
        return [(phase, _entry_key(e)) for cycle in self.cycles
                for phase in self.PHASES for e in cycle[phase]]

    def setup(self) -> None:
        self.plan_ops()
        self.root = Path(tempfile.mkdtemp(prefix="replan-",
                                          dir=_cache_base()))

    def run(self) -> None:
        self.expected: Dict[tuple, str] = {}
        self.lookups = {"memory": 0, "disk": 0, "miss": 0}
        disk_bytes = []
        for index, cycle in enumerate(self.cycles):
            for traced in self.passes():
                directory = self.root / f"{index}-{int(traced)}"
                cache = CompileCache(disk=DiskCacheTier(directory))
                for phase in ("fill", "reuse"):
                    for entry in cycle[phase]:
                        self.one(entry, cache, phase, traced)
                disk_bytes.append(cache.disk.total_bytes())
                cache = CompileCache(disk=DiskCacheTier(directory))
                for entry in cycle["restart"]:
                    self.one(entry, cache, "restart", traced)
                shutil.rmtree(directory, ignore_errors=True)
        for phase, name in zip(self.PHASES, ("miss_p50_ms", "mem_hit_p50_ms",
                                             "disk_hit_p50_ms")):
            keys = {key for key in self.timings.by_key if key[0] == phase}
            self.detail[name] = (
                percentile(self.timings.steady(keys), 0.5) * 1e3, "ms")
        if self.ledger is not None:
            looked = sum(self.lookups.values())
            self.layer_values["cache.hit_ratio"] = (
                (looked - self.lookups["miss"]) / looked)
            self.layer_values["cache.disk_bytes"] = (
                sum(disk_bytes) / len(disk_bytes))

    def one(self, entry: dict, cache: CompileCache, phase: str,
            traced: bool) -> None:
        key = (phase, _entry_key(entry))
        gc.collect()
        t0 = time.perf_counter()
        try:
            if traced:
                with self.ledger.op("replan", phase=phase, plan=str(key)):
                    ir = self.traced_compile(entry, cache)
            else:
                ir = compile_program(build_program(entry),
                                     compile_options(entry, cache)).ir
        except Exception as error:  # noqa: BLE001 - a failed op
            self.record(key, time.perf_counter() - t0, False, traced)
            self.note(f"replan {key}", error)
            return
        elapsed = time.perf_counter() - t0
        with self.aside("ir.to_xml"):
            digest = sha16(ir.to_xml().encode())
        ok = self.expected.setdefault(key[1], digest) == digest
        if not ok:
            self.note(f"replan {key}: XML differs from the miss")
        self.record(key, elapsed, ok, traced)

    def traced_compile(self, entry: dict, cache: CompileCache):
        """``compile_program``'s cache path step by step."""
        span = self.ledger.layer
        with span("algorithms.build"):
            program = build_program(entry)
        options = compile_options(entry, cache)
        with span("cache.key"):
            key = cache.key_for(program, options)
        with span("cache.lookup") as lookup:
            hit = cache.lookup(key)
        tier = cache.last_hit_tier if hit is not None else "miss"
        lookup.name = f"cache.lookup_{tier}"
        self.lookups[tier] += 1
        if hit is not None:
            with span("cache.materialize"):
                return cache.materialize(hit)
        state = traced_passes(span, program, options)
        with span("cache.store"):
            cache.store(key, state.ir, program.collective)
        return state.ir

    def close(self) -> None:
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)


# -- sweep -------------------------------------------------------------

#: The sweep's configurations: label, NDv4 nodes, builder.
SWEEP_CONFIGS = (
    ("fig8a ring ch=4 r=8 LL", 1,
     lambda: A.ring_allreduce(8, channels=4, instances=8, protocol="LL")),
    ("fig8a allpairs r=4 LL", 1,
     lambda: A.allpairs_allreduce(8, instances=4, protocol="LL")),
    ("fig8c hierarchical LL r=1", 2,
     lambda: A.hierarchical_allreduce(2, 8, instances=1, protocol="LL",
                                      intra_parallel=2)),
    ("fig8c hierarchical LL128 r=2", 2,
     lambda: A.hierarchical_allreduce(2, 8, instances=2, protocol="LL128",
                                      intra_parallel=2)),
    ("fig8c hierarchical Simple r=4", 2,
     lambda: A.hierarchical_allreduce(2, 8, instances=4, protocol="Simple",
                                      intra_parallel=4)),
    ("hierarchical 4x8 r=2", 4,
     lambda: A.hierarchical_allreduce(4, 8, instances=2)),
    ("simspeed hierarchical 8x8 r=2", 8,
     lambda: A.hierarchical_allreduce(8, 8, instances=2)),
    ("twostep alltoall", 2,
     lambda: A.twostep_alltoall(2, 8, protocol="Simple")),
    ("alltonext", 2, lambda: A.alltonext(2, 8, protocol="Simple")),
)

#: Points where the seed commit's batched engine and the reference
#: engine disagree (see README.md); the parity check skips them so that
#: no op fails at the seed, and a fix can drop them from this list.
KNOWN_PARITY_DIFFS = frozenset({("fig8a allpairs r=4 LL", 4 * MiB)})


class SweepWorkload(Workload):
    """Simulator sweep points with ``run_sweep(jobs=1)`` semantics.

    Set-up compiles the configurations. A round simulates every
    configuration on a fresh :class:`IrSimulator` at every fourth size
    of ``size_grid(4 KiB, 4 GiB)`` (4 KiB, 64 KiB, ..., 4 GiB), and runs
    a traced simulate plus ``diagnose`` at two sizes. The seed orders
    each round and picks the points checked against the reference
    engine.
    """

    name = "sweep"
    ROUND_S = 2.4
    SIZES = tuple(size_grid(4 * KiB, 4 * GiB)[::4])
    TRACED_SIZES = (64 * KiB, 4 * MiB)
    PARITY_POINTS = 6
    PARITY_MAX_RANKS = 16

    def plan_ops(self) -> None:
        configs = range(len(SWEEP_CONFIGS))
        points = [(c, size, False) for c in configs for size in self.SIZES]
        points += [(c, size, True) for c in configs
                   for size in self.TRACED_SIZES]
        if self.max_ops is not None:
            points = self.rng.sample(points, self.max_ops)
        self.op_list = [self.rng.sample(points, len(points))
                        for _ in range(rounds_for(self.seconds,
                                                  self.ROUND_S))]

    def ops(self) -> list:
        return [(SWEEP_CONFIGS[c][0], size, traced_point)
                for batch in self.op_list
                for c, size, traced_point in batch]

    def setup(self) -> None:
        self.plan_ops()
        self.configs = []
        for label, nodes, build in SWEEP_CONFIGS:
            topology = ndv4(nodes)
            algo = compile_program(build(), CompilerOptions(
                max_threadblocks=topology.machine.sm_count))
            self.configs.append((label, topology, algo))
            # The simulator generates code per IR shape once per process;
            # doing it here keeps it, and the memory peak it causes, out
            # of whichever op happens to come first.
            chunk = chunk_bytes_for(self.SIZES[0], algo.sizing_chunks())
            for trace in (False, True):
                IrSimulator(algo.ir, topology,
                            config=SimConfig(collect_trace=trace)).run(chunk)
        self.max_tiles = SimConfig().max_tiles

    def run(self) -> None:
        # Untraced points' tile counts, and their results where the
        # parity check may need them.
        self.tiles: Dict[tuple, int] = {}
        self.results: Dict[tuple, object] = {}
        for batch in self.op_list:
            for traced in self.passes():
                for point in batch:
                    self.one(point, traced)
            if self.ledger is not None:
                self.warm_probe()
        self.check_parity()
        traced_points = {k for k in self.timings.by_key if k[2]}
        self.detail["traced_p50_ms"] = (
            percentile(self.timings.steady(traced_points), 0.5) * 1e3, "ms")
        if self.ledger is not None:
            capped = sum(t >= self.max_tiles for t in self.tiles.values())
            self.layer_values["sim.capped_tiles_frac"] = (
                capped / len(self.tiles))

    def one(self, point, traced: bool) -> None:
        c, size, traced_point = point
        label, topology, algo = self.configs[c]
        chunk = chunk_bytes_for(size, algo.sizing_chunks())
        span = self.span(traced)
        gc.collect()
        t0 = time.perf_counter()
        try:
            with (self.ledger.op("sweep", config=label, size=size)
                  if traced else nullcontext()):
                config = SimConfig(collect_trace=traced_point)
                with span("sim.init"):
                    simulator = IrSimulator(algo.ir, topology,
                                            config=config)
                with span("sim.run_traced" if traced_point
                          else "sim.run_cold"):
                    result = simulator.run(chunk)
                if traced_point:
                    with span("observe.diagnose"):
                        diagnosis = diagnose(result)
        except Exception as error:  # noqa: BLE001 - a failed op
            self.record(point, time.perf_counter() - t0, False, traced)
            self.note(f"sweep {label} {size}", error)
            return
        elapsed = time.perf_counter() - t0
        # The critical path tiles [0, elapsed] exactly.
        ok = not traced_point or abs(
            diagnosis.time_us - result.time_us) <= 1e-6 * result.time_us
        if not ok:
            self.note(f"sweep {label} {size}: critical path "
                      f"{diagnosis.time_us} != simulated {result.time_us}")
        self.record(point, elapsed, ok, traced)
        if not traced_point:
            self.tiles[(c, size)] = result.tiles
            # Only small results are kept: holding a large one alive
            # into the next op raised the peak RSS by a fifth.
            if topology.num_ranks <= self.PARITY_MAX_RANKS:
                self.results[(c, size)] = result

    def warm_probe(self) -> None:
        """Warm re-runs at 4 MiB: the steady state tuning loops sit in."""
        for label, topology, algo in self.configs:
            simulator = IrSimulator(algo.ir, topology)
            chunk = chunk_bytes_for(4 * MiB, algo.sizing_chunks())
            simulator.run(chunk)
            with self.aside("sim.run_warm"):
                t0 = time.perf_counter()
                result = simulator.run(chunk)
                elapsed = time.perf_counter() - t0
            self.ledger.count("sim.occ_per_s_warm",
                              result.instruction_count * result.tiles
                              / elapsed)

    def check_parity(self) -> None:
        """Sampled uncapped points against the reference engine; a
        difference fails the point's op."""
        eligible = sorted(
            key for key, result in self.results.items()
            if result.tiles < self.max_tiles
            and (self.configs[key[0]][0], key[1]) not in KNOWN_PARITY_DIFFS)
        sample = self.rng.sample(eligible,
                                 min(self.PARITY_POINTS, len(eligible)))
        for c, size in sample:
            label, topology, algo = self.configs[c]
            chunk = chunk_bytes_for(size, algo.sizing_chunks())
            with self.aside("sim.reference"):
                reference = IrSimulator(
                    algo.ir, topology,
                    config=SimConfig(engine="reference")).run(chunk)
            diffs = sim_parity_diffs(self.results[(c, size)], reference)
            if diffs:
                key = (c, size, False)
                self.failed += self.timings.instances.count(key)
                self.timings.failed.add(key)
                self.note(f"sweep {label} {size}: {diffs[0]}")


# -- serve -------------------------------------------------------------

#: bench_serve.py's mix: seven plan families, eleven sizes.
SERVE_FAMILIES = (
    ("allreduce", "ndv4", 1), ("allreduce", "ndv4", 2),
    ("allreduce", "ndv4", 4), ("allgather", "ndv4", 1),
    ("reducescatter", "ndv4", 1), ("alltoall", "ndv4", 1),
    ("broadcast", "dgx1", 1),
)
SERVE_SIZES = tuple(32 * KiB * (1 << i) for i in range(11))
SERVE_KEYS = tuple((family, size) for family in range(len(SERVE_FAMILIES))
                   for size in SERVE_SIZES)


def _plan_request(family: int, size: int, if_plan=None) -> bytes:
    collective, topology, nodes = SERVE_FAMILIES[family]
    doc = {"op": "plan", "collective": collective, "size": size,
           "topology": topology, "nodes": nodes, "include_xml": True}
    if if_plan is not None:
        doc["if_plan"] = if_plan
    return json.dumps(doc).encode() + b"\n"


class _Request:
    __slots__ = ("index", "due", "family", "size", "sent", "done",
                 "if_plan", "plan_id", "full", "ok", "tuned")

    def __init__(self, index, due, family, size):
        self.index, self.due, self.family, self.size = (index, due,
                                                        family, size)
        self.sent = self.done = None
        self.if_plan = self.plan_id = None
        self.full = self.ok = self.tuned = False


class _Lane:
    """One pipelined connection and the requests in flight on it."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending: deque = deque()
        self.buffer = bytearray()
        self.known: Dict[tuple, str] = {}   # (family, size) -> plan_id
        self.tuned: Dict[str, bool] = {}    # plan_id -> tuned


class ServeWorkload(Workload):
    """``repro-tools serve`` over TCP: open-loop load, then a warm probe.

    For ``--seconds``, requests arrive at ``RATE`` per second (Poisson)
    on two pipelined connections, ask for XML and revalidate by
    ``plan_id``. One thread sends each request at its due time; this
    thread reads the responses. Latency runs from the due time, so a
    stall also counts against the requests queued behind it.
    ``slo_frac`` covers these requests, cold start included.

    A closed-loop warm probe on a fresh connection follows, about
    ``PROBE_SHARE`` of ``--seconds`` long: rounds over every (family,
    size) in seeded order, each request a revalidation sent as soon as
    the previous one is answered. These are the ops behind ``p50_ms``,
    ``p90_ms`` and ``ops_per_s``. At 200 requests per second the
    open-loop warm latency is mostly the time an idle CPU takes to
    wake, which varies between runs far more than the service's own
    cost does.
    """

    name = "serve"
    RATE = 200.0
    CONNECTIONS = 2
    WARM_AFTER_S = 2.0
    PROBE_SHARE = 0.05
    ROUND_S = 0.0025   # one probe round of 77 revalidations
    FETCH_ROUNDS = 3   # full fetches per key before the probe

    def plan_ops(self) -> None:
        t, index, self.requests = 0.0, 0, []
        limit = self.max_ops if self.max_ops is not None else float("inf")
        while index < limit:
            t += self.rng.expovariate(self.RATE)
            if t >= self.seconds:
                break
            self.requests.append(_Request(
                index, t, self.rng.randrange(len(SERVE_FAMILIES)),
                self.rng.choice(SERVE_SIZES)))
            index += 1
        rounds = rounds_for(self.seconds * self.PROBE_SHARE, self.ROUND_S)
        if self.max_ops is not None:
            rounds = min(rounds, self.max_ops)
        self.probe = [self.rng.sample(SERVE_KEYS, len(SERVE_KEYS))
                      for _ in range(rounds)]

    def ops(self) -> list:
        return ([(round(r.due, 9), r.family, r.size) for r in self.requests]
                + [key for batch in self.probe for key in batch])

    def setup(self) -> None:
        self.plan_ops()
        cache_dir = tempfile.mkdtemp(prefix="serve-", dir=_cache_base())
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve", "--port", "0"],
            env=dict(os.environ, REPRO_CACHE_DIR=cache_dir),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        line = self.server.stderr.readline()
        if "listening on" not in line:
            raise RuntimeError(f"plan service did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[-1].strip().rsplit(":", 1)
        self.address = (host, int(port))

    def run(self) -> None:
        self.plans: Dict[str, bytes] = {}
        self.load()
        self.warm_probe()
        plans = self.check_plans()
        self.open_within_slo = 0
        tuned_at: Dict[int, float] = {}
        for request in self.requests:
            request.ok = request.ok and plans.get(request.plan_id, False)
            self.attempted += 1
            self.failed += not request.ok
            if not request.ok:
                self.note(f"serve request {request.index} "
                          f"(family {request.family}, {request.size} B)")
            elif request.done - request.due <= SLO_MS / 1e3:
                self.open_within_slo += 1
            if request.ok and request.tuned:
                tuned_at.setdefault(request.family, request.done)
        for key, plan_id in self.probe_plans:
            if not plans.get(plan_id, False):
                self.failed += 1
                self.timings.failed.add(key)
                self.note(f"serve probe {key}: plan {plan_id} fails "
                          f"its checks")
        all_tuned = len(tuned_at) == len(SERVE_FAMILIES)
        warm_from = (max(tuned_at.values()) + self.WARM_AFTER_S
                     if all_tuned else float("inf"))
        answered = [r for r in self.requests if r.ok]
        warm = [r.done - r.due for r in answered if r.due >= warm_from]
        warm = warm or [r.done - r.due for r in answered]
        cold = {}
        for r in answered:
            cold.setdefault(r.family, r.done - r.due)
        lag = [r.sent - r.due for r in self.requests if r.sent is not None]
        self.detail.update({
            "coldstart_s": ((max(tuned_at.values()) - self.requests[0].due)
                            if all_tuned else float("nan"), "s"),
            "warm_requests": (len(warm), "count"),
            "warm_p50_ms": (percentile(warm, 0.5) * 1e3, "ms"),
            "warm_p99_ms": (percentile(warm, 0.99) * 1e3, "ms"),
            "full_fetch_ms": (percentile(self.fetches, 0.5) * 1e3, "ms"),
        })
        self.layer_values.update({
            "serve.full_fetch_ms": self.detail["full_fetch_ms"][0],
            "serve.cold_family_ms": percentile(list(cold.values()),
                                               0.5) * 1e3,
            "serve.generator_lag_p99_ms": percentile(lag, 0.99) * 1e3,
        })
        stats = _call(self.address, {"op": "stats"})["stats"]["serve"]
        for name in ("plan_hits", "dedup_inflight", "not_modified",
                     "promotions", "hit_rate"):
            self.layer_values[f"serve.{name}"] = stats[name]
        self.rss_mb = _vm_hwm_mb(self.server.pid)
        if self.ledger is not None:
            self.record_open_loop()
            self.tune_in_process()

    def slo_frac(self) -> float:
        return (self.open_within_slo / len(self.requests)
                if self.requests else 0.0)

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    # -- the open-loop load generator ----------------------------------
    def load(self) -> None:
        """Send on schedule from one thread, receive on this one."""
        self.t0 = time.perf_counter()
        lanes = [_Lane(self.address) for _ in range(self.CONNECTIONS)]
        self.stop = threading.Event()
        sender = threading.Thread(target=self.send_all, args=(lanes,),
                                  name="ledger-sender", daemon=True)
        sender.start()
        selector = selectors.DefaultSelector()
        for lane in lanes:
            selector.register(lane.sock, selectors.EVENT_READ, lane)
        remaining = len(self.requests)
        deadline = self.t0 + self.seconds + 90
        try:
            while remaining and selector.get_map() \
                    and time.perf_counter() < deadline:
                for key, _ in selector.select(timeout=1.0):
                    lane = key.data
                    data = lane.sock.recv(1 << 20)
                    if not data:  # the service hung up
                        selector.unregister(lane.sock)
                        continue
                    lane.buffer += data
                    remaining -= self.receive(lane)
        finally:
            self.stop.set()
            sender.join(timeout=10)
            selector.close()
            for lane in lanes:
                lane.sock.close()
        # Unanswered requests stay not-ok and count as failed.

    def send_all(self, lanes) -> None:
        _tight_timer_slack()
        try:
            for request in self.requests:
                lane = lanes[request.index % self.CONNECTIONS]
                delay = self.t0 + request.due - time.perf_counter()
                if delay > 0 and self.stop.wait(delay):
                    return
                request.if_plan = lane.known.get(
                    (request.family, request.size))
                lane.pending.append(request)
                request.sent = time.perf_counter() - self.t0
                lane.sock.sendall(_plan_request(
                    request.family, request.size, request.if_plan))
        except OSError:
            pass  # the receiver sees the closed connection

    def receive(self, lane) -> int:
        """Consume every complete response in the lane's buffer."""
        answered = 0
        while True:
            newline = lane.buffer.find(b"\n")
            if newline < 0:
                return answered
            doc = json.loads(lane.buffer[:newline])
            plan = doc.get("plan") or {}
            end = newline + 1 + plan.get("xml_bytes", 0)
            if len(lane.buffer) < end:
                return answered
            body = bytes(lane.buffer[newline + 1:end])
            del lane.buffer[:end]
            request = lane.pending.popleft()
            request.done = time.perf_counter() - self.t0
            request.plan_id = plan.get("plan_id")
            if "xml_bytes" in plan:
                request.full = True
                self.keep_plan(request.plan_id, body)
                lane.tuned[request.plan_id] = bool(plan.get("tuned"))
                lane.known[(request.family, request.size)] = request.plan_id
            request.ok = bool(doc.get("ok")) and (
                request.full or (plan.get("match") is True
                                 and request.plan_id == request.if_plan))
            request.tuned = lane.tuned.get(request.plan_id, False)
            answered += 1

    # -- the closed-loop warm probe ------------------------------------
    def warm_probe(self) -> None:
        """Full fetches of every key, then the timed revalidations."""
        self.probe_plans: List[tuple] = []   # (key, plan_id) fetched
        known: Dict[tuple, str] = {}
        with socket.create_connection(self.address) as sock, \
                sock.makefile("rb") as stream:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            fetch_times: Dict[tuple, List[float]] = {}
            for _ in range(self.FETCH_ROUNDS):
                for key in SERVE_KEYS:
                    ok, plan_id, marks = self.ask(sock, stream, key, None)
                    fetch_times.setdefault(key, []).append(
                        marks[-1] - marks[0])
                    self.attempted += 1
                    if ok:
                        self.probe_plans.append((key, plan_id))
                    else:
                        self.failed += 1
                        self.note(f"serve fetch {key}")
                    known[key] = plan_id
            self.fetches = [min(times) for times in fetch_times.values()]
            for batch in self.probe:
                for traced in self.passes():
                    for key in batch:
                        self.revalidate(sock, stream, key, known, traced)

    def revalidate(self, sock, stream, key, known, traced: bool) -> None:
        t0 = time.perf_counter()
        try:
            ok, plan_id, marks = self.ask(sock, stream, key, known[key])
        except (OSError, ValueError) as error:
            self.record(key, time.perf_counter() - t0, False, traced)
            self.note(f"serve probe {key}", error)
            return
        elapsed = marks[-1] - marks[0]
        if traced:
            self.ledger.emit_op("serve", list(zip(
                ("loadgen.send", "serve.request", "loadgen.receive"),
                marks, marks[1:])), family=key[0], size=key[1])
        if not ok:
            self.note(f"serve probe {key}: not answered with its plan")
        elif plan_id != known[key]:
            # A promotion since the fetch: the new plan came in full,
            # and its XML is checked with the rest.
            known[key] = plan_id
            self.probe_plans.append((key, plan_id))
        self.record(key, elapsed, ok, traced)

    def ask(self, sock, stream, key, if_plan):
        """One request and its response: ``(ok, plan_id, marks)``. The
        marks are the ``perf_counter`` times at which sending began,
        sending ended, the response line arrived and the response was
        read; traced runs turn them into spans. A full response's XML is
        kept for the checks."""
        t0 = time.perf_counter()
        sock.sendall(_plan_request(*key, if_plan))
        t1 = time.perf_counter()
        line = stream.readline()
        t2 = time.perf_counter()
        doc = json.loads(line)
        plan = doc.get("plan") or {}
        plan_id = plan.get("plan_id")
        if "xml_bytes" in plan:
            self.keep_plan(plan_id, stream.read(plan["xml_bytes"]))
            ok = bool(doc.get("ok"))
        else:
            ok = (bool(doc.get("ok")) and plan.get("match") is True
                  and plan_id == if_plan)
        return ok, plan_id, (t0, t1, t2, time.perf_counter())

    # -- checks and the traced extras ----------------------------------
    def keep_plan(self, plan_id: str, body: bytes) -> None:
        """First copy per plan_id; a later copy must be byte-equal."""
        kept = self.plans.setdefault(plan_id, body)
        if kept != body:
            self.plans[plan_id] = b""  # fails the checks below

    def check_plans(self) -> Dict[str, bool]:
        """plan_id -> the XML hashes to its id and parses."""
        verdicts = {}
        for plan_id, body in self.plans.items():
            try:
                with self.aside("ir.from_xml"):
                    MscclIr.from_xml(body.decode())
                verdicts[plan_id] = sha16(body) == plan_id
            except Exception:  # noqa: BLE001 - a failed check
                verdicts[plan_id] = False
            if self.ledger is not None:
                self.ledger.count("ir.xml_bytes", len(body))
        return verdicts

    def record_open_loop(self) -> None:
        """The open-loop requests as spans on the trace's timeline, from
        the times the load generator recorded anyway."""
        base = self.t0 * 1e6
        for r in self.requests:
            if r.done is not None:
                self.ledger.tracer.emit(
                    "serve.open_request", base + r.due * 1e6,
                    base + r.done * 1e6, cat="load", family=r.family,
                    size=r.size, full=r.full, ok=bool(r.ok))

    def tune_in_process(self) -> None:
        """Each family's background ``tune()``, timed in this process."""
        compiles = sims = 0
        for collective, topology_name, nodes in SERVE_FAMILIES:
            topology = TOPOLOGIES[topology_name](nodes)
            gpus = topology.machine.gpus_per_node

            def builder(**kwargs):
                return COLLECTIVES[collective](nodes, gpus, **kwargs)

            chunks = builder().collective.sizing_chunks()
            with self.aside("tune.family", family=collective):
                result = tune(builder, topology, DEFAULT_TUNE_SIZES,
                              chunks, space=list(DEFAULT_TUNE_SPACE),
                              jobs=1)
            compiles += len(result.candidates)
            sims += len(result.times)
        self.layer_values["tune.compiles"] = compiles
        self.layer_values["tune.sims"] = sims

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            if server.poll() is None and hasattr(self, "address"):
                _call(self.address, {"op": "shutdown"})
            server.wait(timeout=15)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass  # reaped below
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stderr.close()


def _tight_timer_slack() -> None:
    """Wake the calling thread at its deadlines rather than up to the
    default 50 us after them (Linux ``PR_SET_TIMERSLACK``)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(29, 1, 0, 0, 0)  # PR_SET_TIMERSLACK, 1 ns


def _call(address, doc: Dict) -> Dict:
    """One request on a fresh connection; its JSON response."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(json.dumps(doc).encode() + b"\n")
        with sock.makefile("rb") as stream:
            return json.loads(stream.readline())


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- process plumbing --------------------------------------------------

WORKLOADS = {cls.name: cls for cls in (CompileWorkload, ReplanWorkload,
                                       SweepWorkload, ServeWorkload)}


def _cache_base() -> str:
    base = default_cache_dir()
    base.mkdir(parents=True, exist_ok=True)
    return str(base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ledger = Ledger() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.seconds, ledger)
    try:
        workload.setup()
        # Set-up's objects live for the whole run: keep them out of the
        # collections that the ops trigger.
        gc.freeze()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        workload.run()
        result = workload.result()
        if ledger is not None:
            OUT_DIR.mkdir(exist_ok=True)
            ledger.write_chrome_trace(OUT_DIR / f"{args.workload}_trace.json")
            (OUT_DIR / f"{args.workload}_layers.json").write_text(
                json.dumps(layer_table(ledger), indent=1) + "\n")
        print(json.dumps(result), flush=True)
    except Exception:  # noqa: BLE001 - report and exit non-zero
        traceback.print_exc()
        return 1
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
