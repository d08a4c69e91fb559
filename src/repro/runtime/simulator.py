"""Discrete-event interpreter for MSCCL-IR (the runtime substitute).

This plays the role of the paper's CUDA interpreter (section 6): every
thread block is a sequential process executing its instruction list once
per *tile* (the pipelining loop of Figure 5), connections are FIFOs with
protocol-defined slot counts, and cross-thread-block dependencies block
on semaphores. Timing comes from an alpha-beta cost model with FCFS
bandwidth resources (see :mod:`repro.topology.model`), which makes link
contention, per-thread-block injection limits, fusion benefits, and
pipelining overlap all first-class effects.

Two event-loop engines share this model:

* **batched** (the default) precompiles every thread block's schedule
  into a :class:`_TbProgram` — per-step payload bytes vectorized with
  numpy, dependence targets resolved via
  :func:`repro.core.verification.dependence_edges`, bandwidth
  denominators folded into constants — and drives one slim
  ``send(now)`` generator body, :func:`_tb_task_fast`, per thread block
  on :class:`~repro.runtime.events.BatchEventLoop`. Traced and untraced
  runs share that body: recording sits behind ``graph is not None``
  guards and only reads values the body computed anyway, so tracing
  can never change the simulated time.
* **reference** is the original one-event-per-occurrence interpreter
  (:meth:`IrSimulator._tb_process` on
  :class:`~repro.runtime.events.EventLoop`), retained as the parity
  oracle and selected with ``SimConfig(engine="reference")``.

Both engines produce **bitwise-identical** results — same
:class:`SimResult` fields, span streams, and
:class:`~repro.observe.ExecutionGraph` — because they issue the same
float arithmetic at the same virtual times: every wait check, resource
reservation, and state write fires at exactly the virtual time the
reference loop would schedule it, and in the same order within an
instant: both loops apply the facts due at an instant first and then
run thread blocks in (rank, thread block) order, so FCFS links reached
by several thread blocks at once are reserved identically (see
:mod:`repro.runtime.events`). The batched engine gets its throughput
from collapsing the reference loop's per-occurrence events — two
thread-block resumptions plus a helper process per FIFO delivery, slot
retirement and semaphore publication — into one resumption: FIFO
arrivals, slot retirements, and semaphore progress are published
eagerly as the virtual times they become true instead of being
scheduled as events. :func:`sim_parity_diffs` checks the equivalence
field by field, and the differential conformance harness enforces it
on every zoo algorithm.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import MscclError, SimulationError
from ..core.instructions import Op
from ..core.ir import MscclIr
from ..core.verification import dependence_edges
from ..observe.graph import (Edge, ExecNode, ExecutionGraph, Segment,
                             _edge_sort_key)
from ..observe.tracer import Span, Tracer
from ..topology.model import Resource, Topology
from .events import DIRECT_WAKE, BatchEventLoop, EventLoop, Signal
from .protocols import Protocol, get_protocol

FUSED_SEND_OPS = frozenset({
    Op.RECV_COPY_SEND, Op.RECV_REDUCE_COPY_SEND, Op.RECV_REDUCE_SEND,
})
RECV_OPS = frozenset({
    Op.RECV, Op.RECV_REDUCE_COPY, Op.RECV_COPY_SEND,
    Op.RECV_REDUCE_COPY_SEND, Op.RECV_REDUCE_SEND,
})
SEND_OPS = frozenset({
    Op.SEND, Op.RECV_COPY_SEND, Op.RECV_REDUCE_COPY_SEND,
    Op.RECV_REDUCE_SEND,
})
REDUCE_OPS = frozenset({
    Op.REDUCE, Op.RECV_REDUCE_COPY, Op.RECV_REDUCE_COPY_SEND,
    Op.RECV_REDUCE_SEND,
})
LOCAL_OPS = frozenset({Op.COPY, Op.REDUCE})

SIM_ENGINES = ("batched", "reference")


@dataclass
class SimConfig:
    """Simulation fidelity knobs.

    ``max_tiles`` bounds the pipelining loop's trip count to keep event
    counts manageable for multi-GB sweeps; pipelining benefits saturate
    after a handful of tiles, so this mainly trades accuracy of the
    per-tile alpha amortization (applied identically to all algorithms).

    ``tracer`` (a :class:`repro.observe.Tracer`) records one span per
    executed instruction occurrence on a ``("rank R", "tb T")`` track,
    FIFO-stall/semaphore-wait counters recorded at each wait, and
    per-link busy-time counters. ``collect_trace`` is the lightweight
    switch: it provisions a private tracer so the profiling helpers in
    :mod:`repro.runtime.profile` work without any exporter setup.
    """

    max_tiles: int = 16
    instruction_overhead: float = 0.12  # us, per instruction per tile
    semaphore_overhead: float = 0.25  # us, threadfence + semaphore set
    include_launch: bool = True
    collect_trace: bool = False  # record per-instruction spans
    tracer: Optional[Tracer] = field(default=None, repr=False)
    # SCCL-style direct copy: sends write straight into the destination
    # buffer (no FIFO staging, no consume pass on the receiver). Used by
    # the SCCL-runtime comparison of paper section 7.5.
    direct_copy: bool = False
    # Fault injection: resource-name prefix -> bandwidth multiplier.
    # E.g. {"nic_out[0,3]": 0.25} runs one NIC at quarter speed to study
    # straggler behaviour (algorithms that stripe over many paths, like
    # AllToNext, degrade gracefully; single-path ones stall). A prefix
    # that matches no resource the run consults raises SimulationError
    # afterwards rather than silently simulating fault-free.
    degradations: Dict[str, float] = field(default_factory=dict)
    # Event-loop engine: "batched", or "reference" for the parity oracle.
    engine: str = "batched"


@dataclass
class TraceEntry:
    """One executed instruction occurrence, as a flat row.

    Kept as a compatibility view over the span stream: the simulator
    records :class:`~repro.observe.Span` objects, and
    :attr:`SimResult.trace` derives these rows from them on demand.
    """

    start_us: float
    end_us: float
    rank: int
    tb_id: int
    tile: int
    step: int
    op: str


@dataclass
class SimResult:
    """Outcome of one simulated execution.

    When tracing was enabled, :attr:`tracer` holds the full span stream
    and counters for this run (plus whatever the caller already traced
    into it — e.g. compiler passes), :attr:`spans` the per-instruction
    spans of this execution only, and :attr:`trace` the same data as
    flat :class:`TraceEntry` rows.
    """

    time_us: float
    tiles: int
    instruction_count: int
    threadblocks: int
    chunk_bytes: float
    protocol: str
    resource_busy_us: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = field(default=None, repr=False)
    spans: Optional[List[Span]] = field(default=None, repr=False)
    # Happens-before structure of the execution (see
    # :class:`repro.observe.ExecutionGraph`); populated when tracing.
    graph: Optional[ExecutionGraph] = field(default=None, repr=False)

    @property
    def trace(self) -> Optional[List[TraceEntry]]:
        """Flat per-instruction rows derived from the span stream."""
        if self.spans is None:
            return None
        return [
            TraceEntry(
                start_us=span.start_us,
                end_us=span.end_us,
                rank=span.args["rank"],
                tb_id=span.args["tb"],
                tile=span.args["tile"],
                step=span.args["step"],
                op=span.name,
            )
            for span in self.spans
        ]

    @property
    def time_s(self) -> float:
        return self.time_us * 1e-6

    def algbw_gbps(self, total_bytes: float) -> float:
        """Algorithm bandwidth: moved bytes over elapsed time.

        A degenerate run (empty IR, zero elapsed time) reports ``0.0``
        rather than infinity: no time passed because no bytes moved.
        """
        if self.time_us <= 0:
            return 0.0
        return total_bytes / self.time_us / 1e3


class _Connection:
    """One (src, dst, channel) FIFO between a sender and a receiver TB.

    Messages stream cut-through style: each carries the time its first
    byte lands (when the receiver may start consuming) and the time its
    last byte lands (before which the receiver cannot finish). Messages
    are identified by sequence number: the sender's k-th message uses
    FIFO slot ``k mod slots`` and pairs with the receive tagged ``k``
    (per tile), so receives may drain out of program order within the
    slot window, exactly like the indexed slots of the real runtime.
    """

    __slots__ = ("key", "slots", "issued", "consumed_count",
                 "sends_per_tile", "arrivals", "arrival_first",
                 "arrival_last", "free_times", "consumed",
                 "prev_first", "prev_last",
                 "arrival_signal", "slot_signal",
                 "messages", "freed_by")

    def __init__(self, key: Tuple[int, int, int], slots: int,
                 sends_per_tile: int):
        self.key = key
        self.slots = slots
        self.issued = 0
        self.consumed_count = 0
        self.sends_per_tile = sends_per_tile
        self.arrivals: Dict[int, float] = {}  # seq -> last-byte time
        # Lazy-publication maps (batched fast path only), dense lists
        # indexed by message sequence number and sized per run: the
        # sender writes each message's first/last-byte times at its
        # check point, the receiver writes each slot's drain time —
        # consumers then *sleep until* the published time instead of
        # being woken by an event, which is what lets an unblocked
        # occurrence run with no action events at all.
        self.arrival_first: List[Optional[float]] = []
        self.arrival_last: List[Optional[float]] = []
        self.free_times: List[Optional[float]] = []
        self.consumed: set = set()
        self.prev_first = 0.0
        self.prev_last = 0.0
        self.arrival_signal = Signal("fifo_arrival")
        self.slot_signal = Signal("fifo_slot")
        # Execution-graph recording (only populated when tracing):
        # seq -> transfer detail, and seq -> consumer node that freed
        # the slot.
        self.messages: Dict[int, dict] = {}
        self.freed_by: Dict[int, tuple] = {}

    def clamp_fifo(self, first_byte: float,
                   last_byte: float) -> Tuple[float, float]:
        """Enforce in-order delivery on the connection."""
        first_byte = max(first_byte, self.prev_first)
        last_byte = max(last_byte, self.prev_last, first_byte)
        self.prev_first = first_byte
        self.prev_last = last_byte
        return first_byte, last_byte

    def reset(self) -> None:
        """Back to the pre-run state (supports cached re-runs)."""
        self.issued = 0
        self.consumed_count = 0
        self.arrivals.clear()
        self.arrival_first = []
        self.arrival_last = []
        self.free_times = []
        self.consumed.clear()
        self.prev_first = 0.0
        self.prev_last = 0.0
        self.arrival_signal._waiters.clear()
        self.slot_signal._waiters.clear()
        self.messages.clear()
        self.freed_by.clear()


class _Semaphore:
    """Per-thread-block monotone progress counter (paper Figure 5).

    ``times`` is the batched engine's lazy-publication view of the
    counter: entry ``k`` is the virtual time the value reaches ``k + 1``
    (the occurrence's fence boundary), appended by the owning thread
    block at its check point. Dependents compare ``len(times)`` against
    their wait target and sleep until the published boundary — the
    value becomes visible at exactly the time the reference loop's
    publication process writes it. A traced run finds a wait's releaser
    as the last entry published at or before the wake. The reference
    engine uses ``value`` written at the boundary instead.
    """

    __slots__ = ("value", "times", "signal")

    def __init__(self) -> None:
        self.value = 0
        self.times: List[float] = []
        self.signal = Signal("semaphore")

    def reset(self) -> None:
        self.value = 0
        self.times.clear()
        self.signal._waiters.clear()


class _TbProgram:
    """One thread block's precompiled schedule for the batched engine.

    Everything invariant across tiles is resolved once at compile time —
    per-step payload bytes (numpy-vectorized), dependence semaphores and
    wait targets, FIFO endpoints, per-resource bandwidth denominators,
    the per-message wire overhead — so the per-occurrence work left in
    the generator is pure float arithmetic plus queue operations.

    ``recs`` holds one tuple per instruction::

        (deps, receives, sends, local, fused, direct_recv, recv_seq,
         has_dep, consume_dur, produce_dur, path_durs, meta)

    where ``deps`` is ``((sem.times, signal, dep_len, dep_step + 1,
    dep_tb), ...)``. ``consume_dur``, ``produce_dur`` and ``path_durs``
    (``((resource, duration), ...)``) are the tile-invariant service
    durations with the divisions folded in at compile time — the whole
    per-occurrence arithmetic is adds and comparisons. ``path_durs`` is
    ``None`` for the zero-byte cross-node send the reference engine
    rejects with a ZeroDivisionError. ``meta`` is the
    ``(step, op_value, lineage, nbytes)`` only a traced run reads, and
    ``rank``/``tb_id``/``channel``/``label`` likewise serve the recorder.
    """

    __slots__ = ("rank", "tb_id", "channel", "sem", "sem_signal",
                 "watched", "out_conn", "in_conn", "alpha", "cross",
                 "label", "recs")


class IrSimulator:
    """Simulates one IR execution on a topology with a protocol."""

    def __init__(self, ir: MscclIr, topology: Topology,
                 protocol: Optional[Protocol] = None,
                 config: Optional[SimConfig] = None):
        if ir.num_ranks != topology.num_ranks:
            raise SimulationError(
                f"IR has {ir.num_ranks} ranks but topology has "
                f"{topology.num_ranks}"
            )
        self.ir = ir
        self.topology = topology
        self.protocol = get_protocol(protocol or ir.protocol)
        self.config = config or SimConfig()
        # The direct-copy transport may come from either the protocol
        # (Simple-Direct, the paper's section 7.5 future work) or the
        # SCCL-runtime comparison's explicit config flag.
        self._direct = self.config.direct_copy or self.protocol.direct_copy
        # Per-instance caches: the runtime objects (connections,
        # semaphores, copy engines) are IR-and-protocol determined, and
        # a compiled program additionally depends only on
        # (chunk_bytes, tiles) — sweeps and repeated runs reset instead
        # of rebuilding.
        self._runtime_state = None
        self._program_cache: Dict[Tuple[float, int], List[_TbProgram]] = {}
        self._tiles_cache: Dict[float, int] = {}

    # -- public API -----------------------------------------------------
    def run(self, chunk_bytes: float) -> SimResult:
        """Execute the IR with the given per-chunk payload size."""
        if chunk_bytes <= 0:
            raise SimulationError("chunk_bytes must be positive")
        engine_name = self._resolve_engine()
        if "" in self.config.degradations:
            raise SimulationError(
                "degradations: the empty-string prefix matches every "
                "resource; name a specific resource prefix instead"
            )
        self.topology.reset_resources()
        tracer = self.config.tracer
        if tracer is None and self.config.collect_trace:
            tracer = Tracer()
        tiles = self._tiles_cache.get(chunk_bytes)
        if tiles is None:
            tiles = self._tile_count(chunk_bytes)
            self._tiles_cache[chunk_bytes] = tiles
        connections, semaphores, engines, tb_lengths = self._state()
        machine = self.topology.machine

        spans = [] if tracer is not None else None
        graph = ExecutionGraph() if tracer is not None else None
        # Both engines give thread block i (rank-major) same-instant
        # order i, so shared links are reserved in the same order.
        if engine_name == "reference":
            loop = EventLoop(tracer=tracer)
            tbs = [(gpu.rank, tb) for gpu in self.ir.gpus
                   for tb in gpu.threadblocks]
            for order, (rank, tb) in enumerate(tbs):
                loop.spawn(self._tb_process(
                    loop, rank, tb, tiles, chunk_bytes,
                    connections, semaphores, engines, tb_lengths,
                    tracer, spans, graph,
                ), order=order)
        else:
            loop = BatchEventLoop()
            key = (chunk_bytes, tiles)
            programs = self._program_cache.get(key)
            if programs is None:
                programs = self._compile_programs(
                    chunk_bytes, tiles, connections, semaphores,
                    engines, tb_lengths,
                )
                self._program_cache[key] = programs
            oh = self.config.instruction_overhead
            sem_oh = self.config.semaphore_overhead
            # First check point is ``instruction_overhead`` after
            # launch — where the reference loop's first overhead delay
            # resumes. Empty thread blocks never touch shared state in
            # either engine, so they are not spawned at all.
            # Fresh dense publication maps, sized for this run's tile
            # count; spawning (which primes the generators, binding
            # these lists) must come after.
            for conn in connections.values():
                total = conn.sends_per_tile * tiles
                conn.arrival_first = [None] * total
                conn.arrival_last = [None] * total
                conn.free_times = [None] * total
            for order, prog in enumerate(programs):
                if prog.recs:
                    loop.spawn(_tb_task_fast(prog, tiles, oh, sem_oh,
                                             tracer, spans, graph),
                               at=oh, order=order)

        elapsed = loop.run()
        for conn in connections.values():
            if conn.issued != conn.consumed_count:
                raise SimulationError(
                    f"connection {conn.key} finished with {conn.issued} "
                    f"sends but {conn.consumed_count} receives"
                )
        self._check_degradations()
        if self.config.include_launch:
            elapsed += machine.kernel_launch_overhead
        busy = {
            name: res.busy_time
            for name, res in self.topology._resources.items()
        }
        if tracer is not None:
            # Root span covering the whole execution (launch included),
            # so the span tree accounts for exactly the reported time.
            tracer.emit(
                "simulate", 0.0, elapsed, cat="sim",
                track=("sim", self.ir.name),
                algorithm=self.ir.name, protocol=self.protocol.name,
                tiles=tiles, chunk_bytes=chunk_bytes,
            )
            for name, busy_us in sorted(busy.items()):
                if busy_us > 0:
                    tracer.add_counter(f"link.{name}.busy_us", busy_us,
                                       t_us=elapsed)
        if graph is not None:
            graph.finalize(
                elapsed,
                machine.kernel_launch_overhead
                if self.config.include_launch else 0.0,
            )
        return SimResult(
            time_us=elapsed,
            tiles=tiles,
            instruction_count=self.ir.instruction_count(),
            threadblocks=self.ir.threadblock_count(),
            chunk_bytes=chunk_bytes,
            protocol=self.protocol.name,
            resource_busy_us=busy,
            tracer=tracer,
            spans=spans,
            graph=graph,
        )

    def execution_graph(self, chunk_bytes: float = 65536.0
                        ) -> ExecutionGraph:
        """One traced run's happens-before graph (for cross-checking).

        Convenience for consumers that want the
        :class:`~repro.observe.ExecutionGraph` — e.g. the conformance
        harness validating executor FIFO pops against the simulator's
        recorded edges — without wiring up a tracer themselves.
        """
        from dataclasses import replace

        config = replace(self.config, collect_trace=True)
        result = IrSimulator(self.ir, self.topology, self.protocol,
                             config).run(chunk_bytes)
        return result.graph

    # -- internals --------------------------------------------------------
    def _resolve_engine(self) -> str:
        engine = self.config.engine
        if engine not in SIM_ENGINES:
            raise SimulationError(
                f"unknown simulator engine {engine!r}; pick one of "
                f"{', '.join(SIM_ENGINES)}"
            )
        return engine

    def _state(self):
        """Cached (connections, semaphores, engines, tb_lengths).

        Built once per simulator instance — they depend only on the IR,
        protocol, and machine — and reset to the pre-run state on every
        call, so repeated runs (sweeps, tuning, conformance reruns) skip
        the construction cost.
        """
        state = self._runtime_state
        if state is None:
            machine = self.topology.machine
            connections = self._build_connections()
            semaphores: Dict[Tuple[int, int], _Semaphore] = {}
            engines: Dict[Tuple[int, int], Resource] = {}
            tb_lengths: Dict[Tuple[int, int], int] = {}
            for gpu in self.ir.gpus:
                for tb in gpu.threadblocks:
                    key = (gpu.rank, tb.tb_id)
                    semaphores[key] = _Semaphore()
                    engines[key] = Resource(
                        f"engine[{gpu.rank},{tb.tb_id}]",
                        machine.threadblock_bandwidth,
                    )
                    tb_lengths[key] = len(tb.instructions)
            state = (connections, semaphores, engines, tb_lengths)
            self._runtime_state = state
            return state
        connections, semaphores, engines, _tb_lengths = state
        for conn in connections.values():
            conn.reset()
        for sem in semaphores.values():
            sem.reset()
        for engine in engines.values():
            engine.reset()
        return state

    def _degradation(self, resource_name: str) -> float:
        """Bandwidth multiplier for an (optionally degraded) resource."""
        for prefix, factor in self.config.degradations.items():
            if resource_name.startswith(prefix):
                return factor
        return 1.0

    def _check_degradations(self) -> None:
        """Reject fault injections that silently did nothing.

        A typo'd degradation prefix matches no resource, so the run
        completes fault-free — the worst failure mode for a fault
        study. After the run, any prefix that matched none of the
        resources the transfers actually consulted raises.
        """
        degradations = self.config.degradations
        if not degradations:
            return
        consulted = set()
        for gpu in self.ir.gpus:
            for tb in gpu.threadblocks:
                if tb.send_peer is None:
                    continue
                if not any(instr.op in SEND_OPS
                           for instr in tb.instructions):
                    continue
                path, _alpha, _cross = self.topology.path(
                    gpu.rank, tb.send_peer)
                consulted.update(res.name for res in path)
        unmatched = sorted(
            prefix for prefix in degradations
            if not any(name.startswith(prefix) for name in consulted)
        )
        if unmatched:
            names = sorted(consulted)
            shown = ", ".join(names[:8]) + (", ..." if len(names) > 8
                                            else "")
            raise SimulationError(
                "degradations matched no simulated resource: "
                + ", ".join(repr(p) for p in unmatched)
                + "; this run consulted " + (shown or "no shared links")
            )

    def _tile_count(self, chunk_bytes: float) -> int:
        """Pipelining trip count from the largest instruction payload.

        Sized from the same max-span-count basis as
        :meth:`_instr_bytes`, so variable-sized chunks (alltoallv
        ``count > 1`` spans) tile against the bytes they actually move
        rather than the bare chunk fraction.
        """
        largest = 0.0
        for gpu in self.ir.gpus:
            for tb in gpu.threadblocks:
                for instr in tb.instructions:
                    frac = float(instr.frac_hi - instr.frac_lo)
                    nbytes = chunk_bytes * frac * _span_count(instr)
                    if nbytes > largest:
                        largest = nbytes
        tiles = max(1, math.ceil(largest / self.protocol.slot_bytes))
        return min(tiles, self.config.max_tiles)

    def _build_connections(self) -> Dict[Tuple[int, int, int], _Connection]:
        sends_per_tile: Dict[Tuple[int, int, int], int] = {}
        keys = set()
        for gpu in self.ir.gpus:
            for tb in gpu.threadblocks:
                if tb.send_peer is not None:
                    key = (gpu.rank, tb.send_peer, tb.channel)
                    keys.add(key)
                    count = sum(
                        1 for instr in tb.instructions
                        if instr.op in SEND_OPS
                    )
                    sends_per_tile[key] = count
                if tb.recv_peer is not None:
                    keys.add((tb.recv_peer, gpu.rank, tb.channel))
        return {
            key: _Connection(key, self.protocol.num_slots,
                             sends_per_tile.get(key, 0))
            for key in keys
        }

    def _instr_bytes(self, instr, chunk_bytes: float, tiles: int) -> float:
        # Prefer the spans' own counts (they can differ from
        # ``instr.count`` once chunks are variable-sized, e.g.
        # alltoallv); a span-less nop moves zero bytes.
        frac = float(instr.frac_hi - instr.frac_lo)
        return chunk_bytes * frac * _span_count(instr) / tiles

    def _watched_tbs(self) -> set:
        """(rank, tb) keys whose progress semaphore anyone waits on.

        Extracted from the same dependence structure the deadlock audit
        walks (:func:`~repro.core.verification.dependence_edges`); for
        IRs too malformed for the edge builder (which raises on
        unbalanced connections the simulator reports in its own way),
        fall back to scanning the ``depends`` lists directly. The
        batched fast path skips semaphore bookkeeping for every thread
        block outside this set.
        """
        try:
            edges = dependence_edges(self.ir,
                                     num_slots=self.protocol.num_slots)
        except (MscclError, ValueError):
            return {
                (gpu.rank, dep_tb)
                for gpu in self.ir.gpus
                for tb in gpu.threadblocks
                for instr in tb.instructions
                for dep_tb, _dep_step in instr.depends
            }
        return {(src[0], src[1]) for src, _dst, kind in edges
                if kind == "dep"}

    def _compile_programs(self, chunk_bytes: float, tiles: int,
                          connections, semaphores, engines,
                          tb_lengths) -> List[_TbProgram]:
        """Precompile one :class:`_TbProgram` per thread block."""
        machine = self.topology.machine
        proto = self.protocol
        wire_eff = proto.bandwidth_efficiency
        per_message = machine.ib_message_overhead
        reduce_eff = (machine.reduce_bandwidth
                      / machine.threadblock_bandwidth)
        watched = self._watched_tbs()
        programs: List[_TbProgram] = []
        for gpu in self.ir.gpus:
            for tb in gpu.threadblocks:
                rank = gpu.rank
                key = (rank, tb.tb_id)
                engine = engines[key]
                sem = semaphores[key]
                prog = _TbProgram()
                prog.rank = rank
                prog.tb_id = tb.tb_id
                prog.channel = tb.channel
                prog.sem = sem
                prog.sem_signal = sem.signal
                prog.watched = key in watched
                prog.out_conn = (
                    connections[(rank, tb.send_peer, tb.channel)]
                    if tb.send_peer is not None else None
                )
                prog.in_conn = (
                    connections[(tb.recv_peer, rank, tb.channel)]
                    if tb.recv_peer is not None else None
                )
                path_pairs = ()
                prog.alpha = 0.0
                prog.cross = False
                prog.label = None
                if tb.send_peer is not None:
                    path, alpha_base, cross = self.topology.path(
                        rank, tb.send_peer)
                    prog.alpha = alpha_base + proto.alpha_overhead
                    prog.cross = cross
                    path_pairs = tuple(
                        (res,
                         res.bandwidth
                         * (wire_eff * self._degradation(res.name)))
                        for res in path
                    )
                    prog.label = f"r{rank}->r{tb.send_peer} ch{tb.channel}"
                instrs = tb.instructions
                if instrs:
                    fracs = np.array(
                        [float(i.frac_hi - i.frac_lo) for i in instrs])
                    counts = np.array([_span_count(i) for i in instrs],
                                      dtype=np.float64)
                    nbytes_list = (
                        chunk_bytes * fracs * counts / tiles).tolist()
                else:
                    nbytes_list = []
                direct = self._direct
                recs = []
                for step, instr in enumerate(instrs):
                    op = instr.op
                    nbytes = nbytes_list[step]
                    receives = op in RECV_OPS
                    sends = op in SEND_OPS
                    reduces = op in REDUCE_OPS
                    if receives and prog.in_conn is None:
                        raise SimulationError(
                            f"{op} with no recv peer")
                    if sends and prog.out_conn is None:
                        raise SimulationError(
                            f"{op} with no send peer")
                    wire_overhead = 0.0
                    if sends and prog.cross:
                        basis = nbytes * tiles
                        if not basis:
                            basis = nbytes
                        wire_overhead = (
                            per_message * (nbytes / basis)
                            if basis else None
                        )
                    deps = tuple(
                        (semaphores[(rank, dep_tb)].times,
                         semaphores[(rank, dep_tb)].signal,
                         tb_lengths[(rank, dep_tb)],
                         dep_step + 1,
                         dep_tb)
                        for dep_tb, dep_step in instr.depends
                    )
                    consume_denom = (engine.bandwidth * reduce_eff
                                     if reduces else engine.bandwidth)
                    # Per-occurrence durations are tile-invariant;
                    # folding the divisions into the program keeps them
                    # out of the generator (the floats are
                    # bitwise-identical — same dividend, same divisor).
                    path_durs = None
                    if sends and wire_overhead is not None:
                        path_durs = tuple(
                            (res, nbytes / denom + wire_overhead)
                            for res, denom in path_pairs
                        )
                    recs.append((
                        deps,
                        receives,
                        sends,
                        op in LOCAL_OPS,
                        op in FUSED_SEND_OPS,
                        direct and not reduces,
                        instr.recv_seq,
                        instr.has_dep,
                        nbytes / consume_denom,
                        nbytes / engine.bandwidth,
                        path_durs,
                        (step, op.value, frozenset(instr.lineage or ()),
                         nbytes),
                    ))
                prog.recs = recs
                programs.append(prog)
        return programs

    def _tb_process(self, loop: EventLoop, rank: int, tb, tiles: int,
                    chunk_bytes: float, connections, semaphores, engines,
                    tb_lengths, tracer=None, spans=None, graph=None):
        """Generator process: the interpreter loop of paper Figure 5.

        With ``graph`` present, every instruction occurrence additionally
        records an :class:`ExecNode` whose segments tile its interval
        (waits carry the releasing node as cause) plus the explicit
        semaphore / FIFO / slot happens-before edges.
        """
        cfg = self.config
        machine = self.topology.machine
        engine = engines[(rank, tb.tb_id)]
        my_sem = semaphores[(rank, tb.tb_id)]
        n = len(tb.instructions)
        out_conn = None
        in_conn = None
        if tb.send_peer is not None:
            out_conn = connections[(rank, tb.send_peer, tb.channel)]
        if tb.recv_peer is not None:
            in_conn = connections[(tb.recv_peer, rank, tb.channel)]
        reduce_eff = machine.reduce_bandwidth / machine.threadblock_bandwidth

        for tile in range(tiles):
            for step, instr in enumerate(tb.instructions):
                key = (rank, tb.tb_id, tile, step)
                segs = [] if graph is not None else None
                instr_start = loop.now
                yield ("delay", cfg.instruction_overhead)
                if segs is not None and loop.now > instr_start:
                    segs.append(Segment("overhead", instr_start, loop.now))

                # Cross thread block dependencies (dep modifier).
                for dep_tb, dep_step in instr.depends:
                    dep_sem = semaphores[(rank, dep_tb)]
                    dep_len = tb_lengths[(rank, dep_tb)]
                    target = tile * dep_len + dep_step + 1
                    wait_from = loop.now
                    while dep_sem.value < target:
                        yield ("wait", dep_sem.signal)
                    if graph is not None:
                        graph.edges.append(Edge(
                            "sem", (rank, dep_tb, tile, dep_step), key,
                            loop.now,
                        ))
                        if loop.now > wait_from:
                            # The releaser is the most recent signaler;
                            # its instruction ends exactly now.
                            flat = dep_sem.value - 1
                            cause = (rank, dep_tb, flat // dep_len,
                                     flat % dep_len)
                            segs.append(Segment(
                                "sem_wait", wait_from, loop.now,
                                cause=cause,
                            ))

                nbytes = self._instr_bytes(instr, chunk_bytes, tiles)
                receives = instr.op in RECV_OPS
                sends = instr.op in SEND_OPS
                reduces = instr.op in REDUCE_OPS

                # All waits happen up front; the timing arithmetic below
                # is then purely computational (cut-through streaming).
                msg_last = None
                recv_target = None
                msg = None
                if receives:
                    if in_conn is None:
                        raise SimulationError(f"{instr.op} with no recv peer")
                    recv_target = (
                        tile * in_conn.sends_per_tile + instr.recv_seq
                    )
                    wait_from = loop.now
                    while recv_target not in in_conn.arrivals:
                        yield ("wait", in_conn.arrival_signal)
                    msg_last = in_conn.arrivals[recv_target]
                    if graph is not None:
                        msg = in_conn.messages.get(recv_target)
                        producer = msg["producer"] if msg else None
                        graph.edges.append(Edge(
                            "fifo", producer, key, loop.now,
                        ))
                        if loop.now > wait_from:
                            segs.append(Segment(
                                "fifo_stall", wait_from, loop.now,
                                cause=producer, detail=msg,
                            ))
                if sends:
                    if out_conn is None:
                        raise SimulationError(f"{instr.op} with no send peer")
                    send_seq = out_conn.issued
                    # The message reuses slot (seq mod slots); it must
                    # have been drained by the matching receive.
                    wait_from = loop.now
                    while (send_seq >= out_conn.slots
                           and (send_seq - out_conn.slots)
                           not in out_conn.consumed):
                        yield ("wait", out_conn.slot_signal)
                    if graph is not None and loop.now > wait_from:
                        freed = out_conn.freed_by.get(
                            send_seq - out_conn.slots
                        )
                        segs.append(Segment(
                            "slot_wait", wait_from, loop.now, cause=freed,
                        ))
                        graph.edges.append(Edge(
                            "slot", freed, key, loop.now,
                        ))
                    out_conn.issued += 1

                start = loop.now
                data_ready = start
                if receives:
                    # Consume: copy (and reduce) out of the FIFO slots as
                    # they stream in. Direct-copy transports land data in
                    # place, so only reductions cost receiver time.
                    if self._direct and not reduces:
                        data_ready = max(start, msg_last)
                        if segs is not None and data_ready > start:
                            _transfer_segments(segs, start, data_ready,
                                               msg)
                    else:
                        eff = reduce_eff if reduces else 1.0
                        finish = engine.reserve(start, nbytes, eff)
                        data_ready = max(finish, msg_last)
                        if segs is not None:
                            if finish > start:
                                segs.append(Segment("compute", start,
                                                    finish))
                            if data_ready > finish:
                                # Tail of the incoming message still
                                # streaming in past the consume pass.
                                _transfer_segments(segs, finish,
                                                   data_ready, msg)
                    self._spawn_slot_free(
                        loop, in_conn, recv_target, data_ready,
                        consumer=key if graph is not None else None,
                    )
                elif instr.op in LOCAL_OPS:
                    eff = reduce_eff if reduces else 1.0
                    data_ready = engine.reserve(start, nbytes, eff)
                    if segs is not None and data_ready > start:
                        segs.append(Segment("compute", start, data_ready))

                if sends:
                    release, out_msg = self._launch_transfer(
                        loop, rank, tb.send_peer, nbytes, engine,
                        out_conn, stream_start=start,
                        data_ready=data_ready,
                        fused=instr.op in FUSED_SEND_OPS,
                        message_bytes=nbytes * tiles,
                        producer=key if graph is not None else None,
                    )
                    if segs is not None:
                        produce_finish = out_msg["produce_finish"]
                        if (instr.op not in FUSED_SEND_OPS
                                and produce_finish > start):
                            segs.append(Segment("compute", start,
                                                produce_finish))
                        base = max(produce_finish, data_ready)
                        if release > base:
                            # Wire occupancy until the peer holds the
                            # last byte (NVLink sends block on it).
                            _transfer_segments(segs, base, release,
                                               out_msg)
                else:
                    release = data_ready
                # The semaphore fence (if any) ends the occurrence; its
                # publication is scheduled now, like FIFO deliveries.
                boundary = release
                if instr.has_dep:
                    boundary = release + cfg.semaphore_overhead
                    if segs is not None and boundary > release:
                        segs.append(Segment("overhead", release, boundary))
                self._spawn_progress(loop, my_sem, tile * n + step + 1,
                                     boundary)
                yield ("at", boundary)
                if tracer is not None:
                    span = tracer.emit(
                        instr.op.value, instr_start, loop.now,
                        cat="instr",
                        track=(f"rank {rank}", f"tb {tb.tb_id}"),
                        track_ids=(rank, tb.tb_id),
                        rank=rank, tb=tb.tb_id, channel=tb.channel,
                        step=step, tile=tile, nbytes=nbytes,
                    )
                    spans.append(span)
                if graph is not None:
                    graph.add_node(ExecNode(
                        key, instr.op.value, tb.channel, nbytes,
                        instr_start, loop.now, segs,
                        frozenset(instr.lineage or ()),
                    ))

    def _spawn_slot_free(self, loop: EventLoop, conn: _Connection,
                         seq: int, when: float,
                         consumer: Optional[tuple] = None) -> None:
        """Free a FIFO slot once the receiver fully drained the message."""
        if consumer is not None:
            conn.freed_by[seq] = consumer

        def free():
            conn.consumed.add(seq)
            conn.consumed_count += 1
            loop.notify(conn.slot_signal)

        loop.call_at(when, free)

    def _spawn_progress(self, loop: EventLoop, sem: _Semaphore,
                        value: int, when: float) -> None:
        """Publish a thread block's progress at its occurrence boundary."""
        def publish():
            sem.value = value
            loop.notify(sem.signal)

        loop.call_at(when, publish)

    def _launch_transfer(self, loop: EventLoop, src: int, dst: int,
                         nbytes: float, engine: Resource, conn: _Connection,
                         stream_start: float, data_ready: float,
                         fused: bool, message_bytes: float = None,
                         producer: Optional[tuple] = None,
                         ) -> Tuple[float, Optional[dict]]:
        """Start one message streaming; returns when the sender unblocks.

        Transfers are cut-through: bytes flow through the path's shared
        resources as the producing pass generates them, so a chain of
        fused forwards adds only per-hop latency (alpha), not a full
        store-and-forward payload time per hop — matching how NCCL and
        the MSCCL interpreter stream FIFO slots.

        With ``producer`` set (execution-graph recording), also returns
        and files on the connection a transfer-detail dict: the sending
        node, departure time, and the bottleneck resource's queueing
        delay and service time, which the critical-path walk uses to
        split blocked intervals into queue / link / FIFO-stall time.
        """
        proto = self.protocol
        path, alpha_base, cross = self.topology.path(src, dst)
        alpha = alpha_base + proto.alpha_overhead
        # Fused sends feed the wire straight from the pass that produced
        # the data; unfused sends pay an extra memory pass through the
        # thread block's copy engine. A direct-copy send is exactly one
        # such pass (straight into the peer's destination buffer) — its
        # saving is on the receiver, which does nothing.
        if fused:
            produce_finish = data_ready
        else:
            produce_finish = engine.reserve(stream_start, nbytes)
        wire_eff = proto.bandwidth_efficiency
        wire_overhead = 0.0
        if cross:
            # Each InfiniBand message occupies its NICs for a fixed
            # extra cost. Tiles of one instruction stream back to back
            # on a single queue pair, so the per-message cost is spread
            # over them (nbytes is one tile; message_bytes the whole
            # instruction payload).
            per_message = self.topology.machine.ib_message_overhead
            basis = message_bytes if message_bytes else nbytes
            wire_overhead = per_message * (nbytes / basis)
        wire_finish = 0.0
        queue_us = 0.0
        service_us = 0.0
        bottleneck = None
        for resource in path:
            eff = wire_eff * self._degradation(resource.name)
            finish, q_us, s_us = resource.reserve_timed(
                stream_start, nbytes, eff, wire_overhead)
            if finish > wire_finish:
                wire_finish = finish
                queue_us = q_us
                service_us = s_us
                bottleneck = resource.name
        first_byte = stream_start + alpha
        last_byte = max(wire_finish, produce_finish) + alpha
        first_byte, last_byte = conn.clamp_fifo(first_byte, last_byte)
        seq = conn.issued - 1  # our seq: issued was bumped by the caller
        msg = None
        if producer is not None:
            msg = {
                "producer": producer,
                "seq": seq,
                "stream_start": stream_start,
                "first_byte": first_byte,
                "last_byte": last_byte,
                "produce_finish": produce_finish,
                "queue_us": queue_us,
                "wire_us": service_us,
                "alpha": alpha,
                "resource": bottleneck,
                "label": f"r{src}->r{dst} ch{conn.key[2]}",
            }
            conn.messages[seq] = msg

        def deliver():
            conn.arrivals[seq] = last_byte
            loop.notify(conn.arrival_signal)

        loop.call_at(max(first_byte, loop.now), deliver)
        # InfiniBand sends complete asynchronously through the proxy: the
        # thread block only produces into the staging buffer. NVLink
        # sends occupy the thread block until the last byte is stored on
        # the peer.
        if cross:
            return max(produce_finish, data_ready), msg
        return max(last_byte - alpha, data_ready), msg


def _span_count(instr) -> int:
    """Payload multiplier for one instruction: its widest span, in chunks.

    Spans carry their own counts (which can differ from ``instr.count``
    once chunks are variable-sized, e.g. alltoallv); a span-less nop
    moves zero bytes.
    """
    counts = [span[2] for span in (instr.src, instr.dst)
              if span is not None]
    if counts:
        return max(counts)
    return 0 if instr.op is Op.NOP else instr.count


def _tb_task_fast(prog: _TbProgram, tiles: int, oh: float,
                  sem_oh: float, tracer=None, spans=None, graph=None):
    """The batched engine's thread-block body, traced or not.

    Resumed with the current virtual time (``now = yield ...``) at each
    occurrence's *check point* (instruction overhead after the previous
    occurrence's boundary); every per-step constant comes precompiled
    from the :class:`_TbProgram`. An unblocked occurrence costs exactly
    one resumption: its waits, resource reservations, and timing
    arithmetic all run inline at the check point.

    Inter-block state uses *lazy publication*: at its check point a
    producer eagerly writes the virtual time each fact becomes true —
    the message's first-byte arrival (``conn.arrival_first``), the
    slot's drain time (``conn.free_times``), the fence boundary
    (``sem.times``) — and each occurrence's wait chain is evaluated at
    the *previous* occurrence's check point, lifting the next resume
    time through the published times (pure reads of final, monotone
    values). The generator then resumes once, at exactly the virtual
    time the reference loop's last wait would have resolved, and runs
    its resource reservations there in thread-block order. Only a fact
    nobody has published yet blocks; a
    :data:`~repro.runtime.events.DIRECT_WAKE` action re-queues such
    already-blocked consumers straight at the fact's fire time (every
    signal has a single publishing thread block). State exclusive to
    this thread block — its copy engine's FCFS horizon, the in-order
    delivery clamp, the issued/consumed counters — lives in locals,
    with the counters the post-run balance check reads flushed on the
    final occurrence.

    With ``graph`` set (a traced run), two guarded recorder blocks
    rebuild what :meth:`IrSimulator._tb_process` records: one span and
    one :class:`ExecNode` per occurrence with the same segments, edges,
    FIFO message-detail dicts, and ``wait.<label>_us`` counters (each
    sampled at the occurrence's start). They only read values the body
    computes anyway — the wait segments replay the wake lifts from the
    published times — so tracing never changes the simulated time.
    """
    recs = prog.recs
    sem_times = prog.sem.times
    sem_signal = prog.sem_signal
    watched = prog.watched
    out_conn = prog.out_conn
    in_conn = prog.in_conn
    alpha = prog.alpha
    cross = prog.cross
    engine_nf = 0.0  # exclusive copy engine: local FCFS horizon
    consumed = 0
    issued = 0
    prev_first = 0.0
    prev_last = 0.0
    if in_conn is not None:
        in_last = in_conn.arrival_last
        in_first = in_conn.arrival_first
        in_len = len(in_first)
        in_free = in_conn.free_times
        in_spt = in_conn.sends_per_tile
        arrival_signal = in_conn.arrival_signal
        in_slot_signal = in_conn.slot_signal
    if out_conn is not None:
        slots = out_conn.slots
        out_last = out_conn.arrival_last
        out_first = out_conn.arrival_first
        out_free = out_conn.free_times
        out_arrival_signal = out_conn.arrival_signal
        slot_signal = out_conn.slot_signal
    if graph is not None:
        rank = prog.rank
        tb_id = prog.tb_id
        channel = prog.channel
        label = prog.label
        edges = graph.edges
        add_counter = tracer.add_counter
        track = (f"rank {rank}", f"tb {tb_id}")
    WAKEK = DIRECT_WAKE
    remaining = tiles * len(recs)
    pending = None
    boundary = 0.0

    now = yield  # primed; first resumption arrives at the check point
    wake = now
    for tile in range(tiles):
        if in_conn is not None:
            recv_base = tile * in_spt
        for rec in recs:
            (deps, receives, sends, local, fused, direct_recv, recv_seq,
             has_dep, consume_dur, produce_dur, path_durs, meta) = rec

            # -- wait chain: evaluated here, at the previous
            # occurrence's check point. `wake` starts at this
            # occurrence's own check point and is lifted through each
            # published time (final, monotone values — safe to read
            # early). An unpublished fact first advances virtual time
            # to the best-known lower bound and re-checks there — the
            # reference loop's own check discipline — and blocks only
            # if the producer still has not reached its check point
            # (it will see this waiter there and re-queue it with a
            # DIRECT_WAKE at the fact's fire time).
            for dep_times, dep_signal, dep_len, base, _tb in deps:
                target = tile * dep_len + base
                while len(dep_times) < target:
                    if pending is not None:
                        now = yield (pending,
                                     wake if wake > now else dep_signal)
                        pending = None
                    elif wake > now:
                        now = yield wake
                    else:
                        now = yield dep_signal
                    if now > wake:
                        wake = now
                t = dep_times[target - 1]
                if t > wake:
                    wake = t
            if receives:
                rt = recv_base + recv_seq
                while True:
                    first = in_first[rt] if rt < in_len else None
                    if first is not None:
                        if first > wake:
                            wake = first
                        break
                    if pending is not None:
                        now = yield (pending,
                                     wake if wake > now
                                     else arrival_signal)
                        pending = None
                    elif wake > now:
                        now = yield wake
                    else:
                        now = yield arrival_signal
                    if now > wake:
                        wake = now
                msg_last = in_last[rt]
            if sends:
                send_seq = issued
                if send_seq >= slots:
                    freed = send_seq - slots
                    while True:
                        ft = out_free[freed]
                        if ft is not None:
                            if ft > wake:
                                wake = ft
                            break
                        if pending is not None:
                            now = yield (pending,
                                         wake if wake > now
                                         else slot_signal)
                            pending = None
                        elif wake > now:
                            now = yield wake
                        else:
                            now = yield slot_signal
                        if now > wake:
                            wake = now
                issued = send_seq + 1

            if pending is not None:
                now = yield (pending, wake)
                pending = None
            elif wake > now:
                now = yield wake
            # now == wake: the reference loop's last wait for this
            # occurrence resolved at exactly this virtual time; the
            # reservations below run here, in the same-instant order
            # both loops share (thread-block order).
            start = now
            if graph is not None:
                # Recorder, waits: every lift of `wake` above was the
                # check point or a published time, and a blocked wait
                # never lifts past the time it waits for, so replaying
                # the published times in chain order rebuilds the
                # reference loop's wait segments and edges.
                instr_start = boundary
                step, op_value, lineage, nbytes = meta
                key = (rank, tb_id, tile, step)
                segs = []
                t = boundary + oh
                if t > boundary:
                    segs.append(Segment("overhead", boundary, t))
                for dep_times, _signal, dep_len, base, dep_tb in deps:
                    woke = dep_times[tile * dep_len + base - 1]
                    if woke > t:
                        # Released by the last publication at the wake.
                        flat = bisect_right(dep_times, woke) - 1
                        segs.append(Segment(
                            "sem_wait", t, woke,
                            cause=(rank, dep_tb, flat // dep_len,
                                   flat % dep_len)))
                        add_counter("wait.semaphore_us", woke - t,
                                    t_us=start)
                        t = woke
                    edges.append(Edge("sem", (rank, dep_tb, tile, base - 1),
                                      key, t))
                if receives:
                    msg = in_conn.messages[rt]
                    producer = msg["producer"]
                    woke = in_first[rt]
                    if woke > t:
                        segs.append(Segment("fifo_stall", t, woke,
                                            cause=producer, detail=msg))
                        add_counter("wait.fifo_arrival_us", woke - t,
                                    t_us=start)
                        t = woke
                    edges.append(Edge("fifo", producer, key, t))
                if sends:
                    if send_seq >= slots:
                        woke = out_free[send_seq - slots]
                        if woke > t:
                            freed = out_conn.freed_by[send_seq - slots]
                            segs.append(Segment("slot_wait", t, woke,
                                                cause=freed))
                            edges.append(Edge("slot", freed, key, woke))
                            add_counter("wait.fifo_slot_us", woke - t,
                                        t_us=start)
            data_ready = start
            if receives:
                if direct_recv:
                    data_ready = start if start >= msg_last else msg_last
                else:
                    rstart = start if start >= engine_nf else engine_nf
                    finish = rstart + consume_dur
                    engine_nf = finish
                    data_ready = finish if finish >= msg_last else msg_last
            elif local:
                rstart = start if start >= engine_nf else engine_nf
                data_ready = rstart + consume_dur
                engine_nf = data_ready

            actions = None
            if sends:
                if path_durs is None:
                    raise ZeroDivisionError("float division by zero")
                if fused:
                    produce_finish = data_ready
                else:
                    rstart = start if start >= engine_nf else engine_nf
                    produce_finish = rstart + produce_dur
                    engine_nf = produce_finish
                # FCFS reservations; the bottleneck (first resource with
                # the latest finish) is what the recorder attributes the
                # wire time to.
                wire_finish = 0.0
                bottleneck = None
                for res, dur in path_durs:
                    nf = res.next_free
                    rstart = start if start >= nf else nf
                    nf = rstart + dur
                    res.next_free = nf
                    res.busy_time += dur
                    if nf > wire_finish:
                        wire_finish = nf
                        bottleneck = res
                        queue_at = rstart
                        wire_us = dur
                first_byte = start + alpha
                peak = (wire_finish if wire_finish >= produce_finish
                        else produce_finish)
                last_byte = peak + alpha
                # In-order delivery clamp (reference clamp_fifo).
                if first_byte < prev_first:
                    first_byte = prev_first
                if last_byte < prev_last:
                    last_byte = prev_last
                if last_byte < first_byte:
                    last_byte = first_byte
                prev_first = first_byte
                prev_last = last_byte
                if cross:
                    release = (produce_finish
                               if produce_finish >= data_ready
                               else data_ready)
                else:
                    drained = last_byte - alpha
                    release = (drained if drained >= data_ready
                               else data_ready)
                out_first[send_seq] = first_byte
                out_last[send_seq] = last_byte
                if out_arrival_signal._waiters:
                    actions = ((WAKEK, first_byte, out_arrival_signal),)
            else:
                release = data_ready
            if receives:
                in_free[rt] = data_ready
                consumed += 1
                if in_slot_signal._waiters:
                    wk = (WAKEK, data_ready, in_slot_signal)
                    actions = (actions + (wk,) if actions else (wk,))

            boundary = release + sem_oh if has_dep else release
            if graph is not None:
                # Recorder, execution: filed in the same resumption as
                # the publications above, so a consumer that sees a
                # published fact also finds its message / slot owner.
                if receives:
                    if direct_recv:
                        if data_ready > start:
                            _transfer_segments(segs, start, data_ready, msg)
                    else:
                        if finish > start:
                            segs.append(Segment("compute", start, finish))
                        if data_ready > finish:
                            # Tail of the incoming message still
                            # streaming in past the consume pass.
                            _transfer_segments(segs, finish, data_ready,
                                               msg)
                    in_conn.freed_by[rt] = key
                elif local and data_ready > start:
                    segs.append(Segment("compute", start, data_ready))
                if sends:
                    if bottleneck is None:  # nothing reserved past t=0
                        queue_at = start
                        wire_us = 0.0
                    out_msg = {
                        "producer": key,
                        "seq": send_seq,
                        "stream_start": start,
                        "first_byte": first_byte,
                        "last_byte": last_byte,
                        "produce_finish": produce_finish,
                        "queue_us": queue_at - start,
                        "wire_us": wire_us,
                        "alpha": alpha,
                        "resource": (bottleneck.name
                                     if bottleneck is not None else None),
                        "label": label,
                    }
                    out_conn.messages[send_seq] = out_msg
                    if not fused and produce_finish > start:
                        segs.append(Segment("compute", start,
                                            produce_finish))
                    base_t = (produce_finish if produce_finish >= data_ready
                              else data_ready)
                    if release > base_t:
                        # Wire occupancy until the peer holds the last
                        # byte (NVLink sends block on it).
                        _transfer_segments(segs, base_t, release, out_msg)
                if boundary > release:
                    segs.append(Segment("overhead", release, boundary))
                spans.append(tracer.emit(
                    op_value, instr_start, boundary, cat="instr",
                    track=track, track_ids=(rank, tb_id),
                    rank=rank, tb=tb_id, channel=channel,
                    step=step, tile=tile, nbytes=nbytes,
                ))
                graph.add_node(ExecNode(key, op_value, channel, nbytes,
                                        instr_start, boundary, segs,
                                        lineage))
            if watched:
                sem_times.append(boundary)
                if sem_signal._waiters:
                    wk = (WAKEK, boundary, sem_signal)
                    actions = (actions + (wk,) if actions else (wk,))
            remaining -= 1
            if remaining:
                pending = actions
                wake = boundary + oh
            else:
                # Final occurrence: flush the exclusive counters the
                # post-run balance check reads, then one last
                # resumption at the boundary (the reference loop's
                # last event for this block) and StopIteration.
                if in_conn is not None:
                    in_conn.consumed_count = consumed
                if out_conn is not None:
                    out_conn.issued = issued
                if actions is not None:
                    yield (actions, boundary)
                else:
                    yield boundary
                return


def happens_before_pairs(graph: ExecutionGraph
                         ) -> Dict[str, set]:
    """Collapse a traced run's edges to per-kind instruction pairs.

    Tiles are the simulator's pipelining artifact; the executor runs
    each instruction once. Folding ``(rank, tb, tile, step)`` node keys
    down to ``(rank, tb, step)`` yields the instruction-level
    happens-before relation both runtimes must agree on: the returned
    dict maps each edge kind (``"fifo"``, ``"sem"``, ``"slot"``, plus
    implicit ``"program"`` order) to a set of
    ``((rank, tb, step), (rank, tb, step))`` pairs.
    """
    pairs: Dict[str, set] = {
        "fifo": set(), "sem": set(), "slot": set(), "program": set(),
    }
    for edge in graph.edges:
        if edge.src is None:
            continue
        src = (edge.src[0], edge.src[1], edge.src[3])
        dst = (edge.dst[0], edge.dst[1], edge.dst[3])
        pairs.setdefault(edge.kind, set()).add((src, dst))
    for src, dst in graph.iter_program_edges():
        pairs["program"].add(
            ((src[0], src[1], src[3]), (dst[0], dst[1], dst[3]))
        )
    return pairs


def sim_parity_diffs(a: SimResult, b: SimResult,
                     labels: Tuple[str, str] = ("batched", "reference"),
                     max_diffs: int = 12) -> List[str]:
    """Bitwise field-by-field comparison of two :class:`SimResult`\\ s.

    Returns human-readable difference strings, at most ``max_diffs``
    of them; an empty list means the two runs are indistinguishable —
    same times, busy maps, span streams, execution-graph nodes, edges,
    and happens-before projection. This is the equality contract
    between the batched and reference engines.
    """
    diffs: List[str] = []
    la, lb = labels

    def note(text: str) -> bool:
        diffs.append(text)
        return len(diffs) >= max_diffs

    for name in ("time_us", "tiles", "instruction_count", "threadblocks",
                 "chunk_bytes", "protocol"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb and note(f"{name}: {la}={va!r} {lb}={vb!r}"):
            return diffs
    if a.resource_busy_us != b.resource_busy_us:
        for key in sorted(set(a.resource_busy_us)
                          | set(b.resource_busy_us)):
            va = a.resource_busy_us.get(key)
            vb = b.resource_busy_us.get(key)
            if va != vb and note(
                    f"resource_busy_us[{key}]: {la}={va!r} {lb}={vb!r}"):
                return diffs

    if (a.spans is None) != (b.spans is None):
        note(f"spans: recorded by "
             f"{la if a.spans is not None else lb} only")
    elif a.spans is not None:
        if len(a.spans) != len(b.spans):
            note(f"spans: {la} has {len(a.spans)}, "
                 f"{lb} has {len(b.spans)}")
        # Canonical order: the engines emit the same spans with the
        # same values but may interleave thread blocks differently
        # (the batched engine emits at the check point, the reference
        # at the occurrence boundary).
        fa = sorted(_span_fingerprint(s) for s in a.spans)
        fb = sorted(_span_fingerprint(s) for s in b.spans)
        for i, (sa, sb) in enumerate(zip(fa, fb)):
            if sa != sb:
                if note(f"span[{i}]: {la}={sa!r} {lb}={sb!r}"):
                    return diffs

    if (a.graph is None) != (b.graph is None):
        note(f"graph: recorded by "
             f"{la if a.graph is not None else lb} only")
    elif (a.graph is not None
          and a.graph.fingerprint() != b.graph.fingerprint()):
        graph_diffs_before = len(diffs)
        na = a.graph.node_fingerprints()
        nb = b.graph.node_fingerprints()
        for key in sorted(set(na) | set(nb)):
            if na.get(key) != nb.get(key):
                if note(f"graph node {key}: {la}={na.get(key)!r} "
                        f"{lb}={nb.get(key)!r}"):
                    return diffs
        ea = sorted(((e.kind, e.src, e.dst, e.t_us)
                     for e in a.graph.edges), key=_edge_sort_key)
        eb = sorted(((e.kind, e.src, e.dst, e.t_us)
                     for e in b.graph.edges), key=_edge_sort_key)
        if ea != eb:
            note(f"graph edges differ ({la}: {len(ea)}, {lb}: {len(eb)})")
        if happens_before_pairs(a.graph) != happens_before_pairs(b.graph):
            note("happens-before pairs differ")
        if len(diffs) == graph_diffs_before:
            note("graph fingerprints differ (finalize totals)")
    return diffs


def _span_fingerprint(span: Span) -> tuple:
    return (span.name, span.cat, span.start_us, span.end_us, span.track,
            span.track_ids, tuple(sorted(span.args.items())))


def _transfer_segments(segs: List[Segment], lo: float, hi: float,
                       msg: Optional[dict]) -> None:
    """Tile a wire-bound interval into queue / link / stall segments.

    ``[lo, hi)`` is time an instruction spent bound to a message on the
    wire (the streaming tail on the receive side, the occupancy until
    last byte on the send side). The message's bottleneck-resource
    detail splits it: FCFS queueing first, then serialization; whatever
    remains is in-order-delivery clamping or producer gating, i.e. a
    FIFO stall.
    """
    total = hi - lo
    detail = msg or {}
    link_t = min(detail.get("wire_us", 0.0), total)
    queue_t = min(detail.get("queue_us", 0.0), total - link_t)
    stall_t = total - link_t - queue_t
    t = lo
    for kind, dur in (("queue", queue_t), ("link", link_t),
                      ("fifo_stall", stall_t)):
        if dur > 0:
            segs.append(Segment(kind, t, t + dur, detail=detail))
            t += dur
