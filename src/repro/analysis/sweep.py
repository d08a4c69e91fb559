"""Buffer-size sweeps: the workhorse behind every figure bench.

A sweep takes named *configurations* (compiled IRs or arbitrary
``time_us(buffer_bytes)`` callables), runs them over a geometric grid of
buffer sizes on one topology, and returns a :class:`SweepResult` with
per-size latencies, ready for speedup computation and table rendering.

Sweeps parallelize: ``run_sweep(..., jobs=N)`` (or ``REPRO_JOBS=N``)
shards the (configuration x size) points across the
:mod:`repro.analysis.parallel` worker pool, with results merged in task
order so the parallel table is bitwise-identical to the sequential one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.cache import default_compile_cache
from ..core.collectives import Collective
from ..core.compiler import (CompiledAlgorithm, CompilerOptions,
                             compile_program)
from ..core.ir import MscclIr
from ..runtime.simulator import IrSimulator, SimConfig
from ..topology.model import Topology
from .parallel import parallel_map, resolve_jobs

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


def size_grid(start_bytes: int, end_bytes: int) -> List[int]:
    """Powers of two from start to end inclusive (the figures' x axes)."""
    if start_bytes <= 0:
        raise ValueError(
            f"start_bytes must be positive, got {start_bytes}"
        )
    if start_bytes > end_bytes:
        raise ValueError(
            f"empty size grid: start_bytes={start_bytes} exceeds "
            f"end_bytes={end_bytes}"
        )
    sizes = []
    size = start_bytes
    while size <= end_bytes:
        sizes.append(size)
        size *= 2
    return sizes


def format_size(nbytes: float) -> str:
    """1KB-style labels matching the paper's axis ticks."""
    if nbytes >= GiB:
        return f"{nbytes / GiB:g}GB"
    if nbytes >= MiB:
        return f"{nbytes / MiB:g}MB"
    if nbytes >= KiB:
        return f"{nbytes / KiB:g}KB"
    return f"{nbytes:g}B"


def chunk_bytes_for(buffer_bytes: float, chunks: int) -> int:
    """Bytes per chunk when a call buffer divides into ``chunks``.

    Rounded *up*, matching how the runtime tiles real buffers: a
    970-byte buffer over 8 chunks moves 8 chunks of 122 bytes, not
    fractional 121.25-byte chunks. Every byte->chunk sizing in the
    evaluation path (sweeps, tuning, the CLI) goes through here so
    they can never disagree.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if buffer_bytes < 0:
        raise ValueError(f"buffer_bytes must be >= 0, got {buffer_bytes}")
    return int(math.ceil(buffer_bytes / chunks))


@dataclass
class Series:
    """One line of a figure: latency per buffer size."""

    label: str
    sizes: List[int]
    times_us: List[float]

    def speedup_over(self, baseline: "Series") -> List[float]:
        if self.sizes != baseline.sizes:
            raise ValueError(
                f"size grids differ between {self.label!r} and "
                f"{baseline.label!r}"
            )
        return [
            b / t for t, b in zip(self.times_us, baseline.times_us)
        ]


@dataclass
class SweepResult:
    """All series of one experiment over a common size grid."""

    title: str
    sizes: List[int]
    series: Dict[str, Series] = field(default_factory=dict)

    def add(self, series: Series) -> None:
        if series.sizes != self.sizes:
            raise ValueError("series grid does not match sweep grid")
        self.series[series.label] = series

    def speedups(self, baseline_label: str) -> Dict[str, List[float]]:
        baseline = self.series[baseline_label]
        return {
            label: s.speedup_over(baseline)
            for label, s in self.series.items()
            if label != baseline_label
        }

    def best_speedup(self, label: str, baseline_label: str) -> float:
        return max(self.series[label].speedup_over(
            self.series[baseline_label]
        ))


TimeFn = Callable[[float], float]
Config = Union[MscclIr, TimeFn]


def compile_for(topology: Topology, program,
                options: Optional[CompilerOptions] = None,
                ) -> CompiledAlgorithm:
    """Compile with the topology's SM limit applied.

    Sweeps re-trace and recompile the same configurations over and
    over (every figure bench, every tuning pass), so compiles here go
    through the process-wide content-addressed compile cache — memory
    tier plus the persistent disk tier, so repeat *invocations* hit
    too: the second identical (program trace, options) pair is a hit,
    not a recompile. Explicit ``options`` are used as given — set
    ``options.cache`` yourself to opt in.
    """
    options = options or CompilerOptions(
        max_threadblocks=topology.machine.sm_count,
        cache=default_compile_cache(),
    )
    return compile_program(program, options)


class IrTimer:
    """A picklable ``time_us(buffer_bytes)`` callable for a compiled IR.

    What :func:`ir_timer` returns. Instances survive pickling — the IR
    crosses process boundaries as its JSON serialization, and tracers
    (which cannot be pickled) are dropped from the sim config — so
    sweep points can be sharded across the
    :mod:`repro.analysis.parallel` worker pool.
    """

    def __init__(self, ir: Union[MscclIr, CompiledAlgorithm],
                 topology: Topology, chunks: int,
                 config: Optional[SimConfig] = None):
        self.ir = ir.ir if isinstance(ir, CompiledAlgorithm) else ir
        self.topology = topology
        self.chunks = chunks
        self.config = config or SimConfig()

    def __call__(self, buffer_bytes: float) -> float:
        sim = IrSimulator(self.ir, self.topology, config=self.config)
        return sim.run(
            chunk_bytes=chunk_bytes_for(buffer_bytes, self.chunks)
        ).time_us

    def __getstate__(self):
        config = self.config
        if config.tracer is not None:
            config = replace(config, tracer=None)
        return {"ir_json": self.ir.to_json(), "topology": self.topology,
                "chunks": self.chunks, "config": config}

    def __setstate__(self, state):
        self.ir = MscclIr.from_json(state["ir_json"])
        self.topology = state["topology"]
        self.chunks = state["chunks"]
        self.config = state["config"]


def ir_timer(ir: Union[MscclIr, CompiledAlgorithm], topology: Topology,
             collective: Collective,
             sim_config: Optional[SimConfig] = None) -> IrTimer:
    """A ``time_us(buffer_bytes)`` function for a compiled IR."""
    return IrTimer(ir, topology, collective.sizing_chunks(), sim_config)


def _eval_point(task) -> float:
    """One (timer, size) sweep point; module-level for the pool."""
    timer, size = task
    return timer(size)


def run_sweep(title: str, sizes: Sequence[int],
              configs: Dict[str, TimeFn], *,
              jobs: Optional[int] = None,
              tracer=None) -> SweepResult:
    """Evaluate every configuration's timer over the size grid.

    ``jobs`` > 1 (default: ``$REPRO_JOBS``, else 1) shards the
    (configuration x size) points across worker processes; results are
    merged in configuration-then-size order, so the parallel result is
    bitwise-identical to the sequential one. Timers that cannot be
    pickled (ad-hoc lambdas) are evaluated inline in the parent.
    """
    jobs = resolve_jobs(jobs)
    sizes = list(sizes)
    result = SweepResult(title=title, sizes=sizes)
    labels = list(configs)
    if jobs == 1:
        for label in labels:
            timer = configs[label]
            times = [timer(size) for size in sizes]
            result.add(Series(label=label, sizes=list(sizes),
                              times_us=times))
        return result
    tasks = [(configs[label], size) for label in labels for size in sizes]
    flat = parallel_map(_eval_point, tasks, jobs=jobs, tracer=tracer,
                        label="sweep")
    for offset, label in enumerate(labels):
        times = flat[offset * len(sizes):(offset + 1) * len(sizes)]
        result.add(Series(label=label, sizes=list(sizes),
                          times_us=list(times)))
    return result
