"""Profiling tools over the simulator's span stream.

Run the simulator with ``SimConfig(collect_trace=True)`` (or pass a
:class:`repro.observe.Tracer` via ``SimConfig(tracer=...)``) and feed
the result here to answer the questions a performance engineer asks of
a real collective: which thread blocks are busy vs. waiting, where the
critical path sits, what each rank's timeline looks like. This is the
analysis loop behind the paper's manual tuning ("we tune ... for the
system") made first-class.

These helpers consume the per-instruction :class:`repro.observe.Span`
objects on :attr:`SimResult.spans` (rank/tb/step coordinates live in
``span.args``); the flat :attr:`SimResult.trace` rows are a derived
view of the same stream kept for external consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.errors import RuntimeConfigError
from ..observe.tracer import Span
from .simulator import SimResult


@dataclass
class TbProfile:
    """Activity summary of one thread block."""

    rank: int
    tb_id: int
    instructions_executed: int
    first_start_us: float
    last_end_us: float
    active_us: float  # sum of instruction durations

    @property
    def span_us(self) -> float:
        return self.last_end_us - self.first_start_us

    @property
    def utilization(self) -> float:
        """Active share of the block's own first-to-last span."""
        if self.span_us <= 0:
            return 1.0
        return min(1.0, self.active_us / self.span_us)


def _instruction_spans(result: SimResult) -> List[Span]:
    if result.spans is None:
        raise RuntimeConfigError(
            "no trace collected; run with SimConfig(collect_trace=True) "
            "or SimConfig(tracer=...)"
        )
    return result.spans


def profile_threadblocks(result: SimResult) -> List[TbProfile]:
    """Per-thread-block activity from the collected span stream."""
    grouped: Dict[Tuple[int, int], List[Span]] = {}
    for span in _instruction_spans(result):
        key = (span.args["rank"], span.args["tb"])
        grouped.setdefault(key, []).append(span)
    profiles = []
    for (rank, tb_id), spans in sorted(grouped.items()):
        profiles.append(TbProfile(
            rank=rank,
            tb_id=tb_id,
            instructions_executed=len(spans),
            first_start_us=min(s.start_us for s in spans),
            last_end_us=max(s.end_us for s in spans),
            active_us=sum(s.duration_us for s in spans),
        ))
    return profiles


def slowest_threadblocks(result: SimResult,
                         top: int = 5) -> List[TbProfile]:
    """Thread blocks whose last instruction finishes latest."""
    profiles = profile_threadblocks(result)
    return sorted(profiles, key=lambda p: -p.last_end_us)[:top]


def utilization_report(result: SimResult) -> str:
    """Text table: per thread block, activity and idle share."""
    profiles = profile_threadblocks(result)
    lines = [
        f"{'tb':>10s} {'instrs':>7s} {'span us':>10s} "
        f"{'active us':>10s} {'util':>6s}"
    ]
    for profile in profiles:
        tb = f"r{profile.rank}/tb{profile.tb_id}"
        lines.append(
            f"{tb:>10s} {profile.instructions_executed:>7d} "
            f"{profile.span_us:>10.1f} {profile.active_us:>10.1f} "
            f"{profile.utilization:>5.0%}"
        )
    return "\n".join(lines)


def critical_path(result: SimResult, top: int = 10) -> List[str]:
    """The dominant intervals of the true dependency critical path.

    The simulator's execution graph is walked backwards from the
    last-finishing instruction, hopping to the blocking node across
    every wait (see :meth:`repro.observe.ExecutionGraph.critical_path`);
    the chain's intervals exactly partition the simulated time, each
    attributed to a category (compute / link / queue / fifo_stall /
    sem_wait / overhead / launch). The ``top`` largest intervals are
    returned in time order, one formatted line each.
    """
    graph = result.graph
    if graph is None:
        raise RuntimeConfigError(
            "no execution graph collected; run with "
            "SimConfig(collect_trace=True) or SimConfig(tracer=...)"
        )
    steps = sorted(graph.critical_path(),
                   key=lambda s: -s.duration_us)[:top]
    steps.sort(key=lambda s: (s.start_us, s.end_us))
    lines = []
    for step in steps:
        node = graph.nodes.get(step.node) if step.node else None
        if node is not None:
            where = (f"r{node.rank}/tb{node.tb} tile{node.tile} "
                     f"step{node.step} {node.op}")
        else:
            where = step.label or "execution"
        what = step.kind + (f" {step.label}" if step.label
                            and node is not None else "")
        lines.append(
            f"{where} ({what}): {step.duration_us:.1f}us "
            f"[{step.start_us:.1f}..{step.end_us:.1f}]"
        )
    return lines


def timeline(result: SimResult, rank: int, width: int = 64) -> str:
    """ASCII gantt of one rank's thread blocks ('#' active, '.' idle)."""
    spans = [
        s for s in _instruction_spans(result) if s.args["rank"] == rank
    ]
    if not spans:
        return f"(rank {rank} executed nothing)"
    horizon = max(s.end_us for s in spans)
    scale = width / horizon if horizon else 1.0
    rows = []
    tb_ids = sorted({s.args["tb"] for s in spans})
    for tb_id in tb_ids:
        cells = ["."] * width
        for s in spans:
            if s.args["tb"] != tb_id:
                continue
            lo = min(width - 1, int(s.start_us * scale))
            hi = min(width, max(lo + 1, int(s.end_us * scale)))
            for position in range(lo, hi):
                cells[position] = "#"
        rows.append(f"tb{tb_id:<3d} |{''.join(cells)}|")
    rows.append(f"      0us{'-' * (width - 12)}{horizon:.0f}us")
    return "\n".join(rows)
