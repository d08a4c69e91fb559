"""The compiler as a pluggable pass pipeline.

The paper describes a fixed trace→lower→fuse→schedule sequence; GC3
frames the same stages as an optimizing compiler. This module makes
that pipeline a first-class object: each stage is a :class:`Pass` with
a name, an enable predicate over :class:`CompilerOptions`, declared
invariants, and a ``run(state)`` that advances one shared
:class:`CompileState`. ``compile_program`` just builds the default
pipeline and runs it, so alternative pipelines (extra passes, a
different :class:`SchedulerPolicy`, instrumentation between stages)
plug in without touching the driver.

Two debugging facilities ride on the pipeline structure:

* **Per-pass validation** (``validate_each=True``, or the
  ``REPRO_VALIDATE_PASSES`` environment variable): after every pass,
  the invariants that pass declares — program postcondition, chunk
  lineage well-formedness, deadlock-freedom of the IR — are re-checked,
  so a compiler bug surfaces as a
  :class:`~repro.core.errors.PassValidationError` naming the exact pass
  that introduced it rather than as a downstream mystery.
* **Per-pass dumps** (``dump_after=...``): a snapshot of the IR (or the
  instruction DAG, before scheduling) is stored after the named passes,
  feeding ``repro-tools passes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..observe.tracer import Tracer
from .collectives import Collective
from .dag import ChunkDAG
from .errors import MscclError, PassValidationError
from .fusion import fuse
from .instructions import InstructionDAG
from .ir import MscclIr
from .lowering import lower
from .passes import ir_stats, prune_redundant_deps, renumber_channels
from .program import MSCCLProgram
from .scheduling import schedule
from .verification import audit_ir, check_postcondition

_VALID_LINEAGE_BUFFERS = frozenset({"input", "output", "scratch"})


@dataclass
class CompileState:
    """Everything the passes share while one program compiles.

    Passes consume and produce the fields progressively: ``lower``
    fills :attr:`idag` from the program's chunk DAG, ``schedule`` fills
    :attr:`ir`, the post-scheduling passes mutate :attr:`ir` in place.
    ``options`` is the :class:`~repro.core.compiler.CompilerOptions`
    driving this compile (typed loosely to avoid a circular import).
    """

    program: MSCCLProgram
    collective: Collective
    options: object
    tracer: Tracer
    idag: Optional[InstructionDAG] = None
    ir: Optional[MscclIr] = None
    # Per-pass snapshots recorded when the pipeline runs with
    # ``dump_after``; keyed by pass name.
    dumps: Dict[str, str] = field(default_factory=dict)

    @property
    def dag(self) -> ChunkDAG:
        return self.program.dag

    def chunk_ops(self) -> int:
        return len(self.program.dag.operations())


# -- invariants ----------------------------------------------------------

def _check_postcondition(state: CompileState) -> None:
    # verify=False is an explicit opt-out (e.g. intentionally partial
    # programs in tests); validation must not re-impose the check.
    if state.options.verify:
        check_postcondition(state.program)


def _iter_lineages(state: CompileState):
    if state.ir is not None:
        for gpu in state.ir.gpus:
            for tb in gpu.threadblocks:
                for instr in tb.instructions:
                    if instr.lineage:
                        yield instr, instr.lineage
    elif state.idag is not None:
        for instr in state.idag.live():
            if instr.lineage:
                yield instr, instr.lineage


def _check_lineage(state: CompileState) -> None:
    """Every recorded origin must name a real (rank, buffer, index)."""
    num_ranks = state.program.num_ranks
    for instr, lineage in _iter_lineages(state):
        for origin in lineage:
            rank, buffer_name, index = origin
            if not 0 <= rank < num_ranks:
                raise MscclError(
                    f"{instr!r} carries lineage origin {origin} with "
                    f"rank outside [0, {num_ranks})"
                )
            if buffer_name not in _VALID_LINEAGE_BUFFERS:
                raise MscclError(
                    f"{instr!r} carries lineage origin {origin} with "
                    f"unknown buffer {buffer_name!r}"
                )
            if index < 0:
                raise MscclError(
                    f"{instr!r} carries lineage origin {origin} with "
                    "negative index"
                )


def _check_deadlock(state: CompileState) -> None:
    if state.ir is not None and state.options.audit:
        audit_ir(state.ir, num_slots=state.options.num_slots)


#: Named invariant checkers a :class:`Pass` may declare. Each receives
#: the state and raises :class:`~repro.core.errors.MscclError` (or a
#: subclass) on violation; checkers skip artifacts that do not exist
#: yet, so the same names work at every pipeline position.
INVARIANTS: Dict[str, Callable[[CompileState], None]] = {
    "postcondition": _check_postcondition,
    "lineage": _check_lineage,
    "deadlock_audit": _check_deadlock,
}

_IR_INVARIANTS = ("postcondition", "lineage", "deadlock_audit")


# -- the Pass protocol ---------------------------------------------------

class Pass:
    """One pipeline stage.

    Subclasses set :attr:`name` (unique within a pipeline; also the
    span name in the compile trace) and :attr:`invariants` (names into
    :data:`INVARIANTS`, re-checked after this pass when the pipeline
    validates), override :meth:`enabled` when the pass is gated by a
    :class:`~repro.core.compiler.CompilerOptions` knob, and implement
    :meth:`run`, which mutates the state in place.

    The compile cache identifies a pass by its name and class only, so
    a pass configured through constructor arguments must encode them in
    :attr:`name`. Compiles through passes defined outside
    ``repro.core`` stay in the cache's memory tier.
    """

    name: str = "pass"
    invariants: tuple = ()

    def enabled(self, options) -> bool:
        return True

    def run(self, state: CompileState) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class VerifyPass(Pass):
    """Postcondition check of the traced program (pre-hardware)."""

    name = "verify"
    invariants = ("postcondition",)

    def enabled(self, options) -> bool:
        return options.verify

    def run(self, state: CompileState) -> None:
        with state.tracer.span("verify", cat="compiler",
                               chunk_ops=state.chunk_ops()):
            check_postcondition(state.program)


class LowerPass(Pass):
    """Chunk DAG → Instruction DAG (instance expansion, exact deps)."""

    name = "lower"
    invariants = ("postcondition", "lineage")

    def run(self, state: CompileState) -> None:
        with state.tracer.span("lower", cat="compiler",
                               chunk_ops_in=state.chunk_ops()) as span:
            state.idag = lower(state.program.dag,
                               instances=state.program.instances)
            span.args["instructions_out"] = len(state.idag.live())


class FusePass(Pass):
    """Peephole fusion of receives with dependent sends."""

    name = "fuse"
    invariants = ("postcondition", "lineage")

    def enabled(self, options) -> bool:
        return options.instr_fusion

    def run(self, state: CompileState) -> None:
        with state.tracer.span("fuse", cat="compiler",
                               nodes_in=len(state.idag.live())) as span:
            fuse(state.idag)
            span.args["nodes_out"] = len(state.idag.live())


class SchedulerPolicy:
    """The scheduling seam: Instruction DAG → MSCCL-IR.

    The default policy wraps :func:`repro.core.scheduling.schedule`;
    alternative policies (different thread-block packing, different
    priority functions) subclass this and land in
    ``CompilerOptions.scheduler``. :attr:`policy_key` participates in
    the compile-cache key, so two compiles of the same program under
    different policies never alias; it must encode any parameters the
    policy is constructed with. Compiles under a policy defined outside
    ``repro.core`` stay in the cache's memory tier.
    """

    policy_key: str = "default"

    def schedule(self, state: CompileState) -> MscclIr:
        raise NotImplementedError


class DefaultSchedulerPolicy(SchedulerPolicy):
    """Channel assignment + topological thread-block packing (§5)."""

    policy_key = "default"

    def schedule(self, state: CompileState) -> MscclIr:
        program = state.program
        collective = state.collective

        def input_chunks(rank: int) -> int:
            if collective.in_place:
                return 0  # the input aliases the output buffer
            return collective.input_chunks(rank)

        return schedule(
            state.idag,
            name=program.name,
            collective_name=collective.name,
            protocol=program.protocol,
            num_ranks=program.num_ranks,
            in_place=collective.in_place,
            input_chunks=input_chunks,
            output_chunks=collective.output_chunks,
            scratch_chunks=program.scratch_chunks,
            max_threadblocks=state.options.max_threadblocks,
            tracer=state.tracer,
        )


class SchedulePass(Pass):
    """Instruction DAG → MSCCL-IR via the configured SchedulerPolicy."""

    name = "schedule"
    invariants = _IR_INVARIANTS

    def run(self, state: CompileState) -> None:
        with state.tracer.span("schedule", cat="compiler",
                               nodes_in=len(state.idag.live())) as span:
            policy = state.options.scheduler or DefaultSchedulerPolicy()
            state.ir = policy.schedule(state)
            span.args["instructions_out"] = state.ir.instruction_count()
            span.args["threadblocks"] = state.ir.threadblock_count()
            span.args["channels"] = state.ir.channels_used()


class PruneDepsPass(Pass):
    """Transitive reduction of cross-thread-block dep entries."""

    name = "prune_redundant_deps"
    invariants = _IR_INVARIANTS

    def enabled(self, options) -> bool:
        return options.optimize

    def run(self, state: CompileState) -> None:
        before = ir_stats(state.ir)["dep_entries"]
        with state.tracer.span("prune_redundant_deps", cat="compiler",
                               dep_entries_in=before) as span:
            prune_redundant_deps(state.ir)
            span.args["dep_entries_out"] = \
                ir_stats(state.ir)["dep_entries"]


class RenumberChannelsPass(Pass):
    """Compact channel ids to a dense 0..n-1 range."""

    name = "renumber_channels"
    invariants = _IR_INVARIANTS

    def enabled(self, options) -> bool:
        return options.optimize

    def run(self, state: CompileState) -> None:
        before = ir_stats(state.ir)["channels"]
        with state.tracer.span("renumber_channels", cat="compiler",
                               channels_in=before) as span:
            renumber_channels(state.ir)
            span.args["channels_out"] = ir_stats(state.ir)["channels"]


class AuditPass(Pass):
    """Static deadlock-freedom audit of the scheduled IR."""

    name = "audit"
    invariants = _IR_INVARIANTS

    def enabled(self, options) -> bool:
        return options.audit

    def run(self, state: CompileState) -> None:
        with state.tracer.span(
                "audit", cat="compiler",
                instructions=state.ir.instruction_count(),
                num_slots=state.options.num_slots):
            audit_ir(state.ir, num_slots=state.options.num_slots)


# -- the pipeline --------------------------------------------------------

DumpSpec = Union[bool, str, Iterable[str], None]


class PassPipeline:
    """An ordered list of passes executed over one CompileState.

    The list is mutable through :meth:`insert_before` /
    :meth:`insert_after` / :meth:`replace` / :meth:`remove`, so callers
    can build variant pipelines (an extra instrumentation pass, a
    deliberately broken pass in tests, a pass dropped for an ablation)
    without re-implementing the driver.
    """

    def __init__(self, passes: Iterable[Pass]):
        self.passes: List[Pass] = list(passes)
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in pipeline: {names}")

    # -- composition -----------------------------------------------------
    def names(self) -> List[str]:
        return [p.name for p in self.passes]

    def _index(self, name: str) -> int:
        for index, p in enumerate(self.passes):
            if p.name == name:
                return index
        raise KeyError(f"no pass named {name!r} in pipeline "
                       f"{self.names()}")

    def get(self, name: str) -> Pass:
        return self.passes[self._index(name)]

    def insert_before(self, name: str, new: Pass) -> "PassPipeline":
        self.passes.insert(self._index(name), new)
        return self

    def insert_after(self, name: str, new: Pass) -> "PassPipeline":
        self.passes.insert(self._index(name) + 1, new)
        return self

    def replace(self, name: str, new: Pass) -> "PassPipeline":
        self.passes[self._index(name)] = new
        return self

    def remove(self, name: str) -> "PassPipeline":
        del self.passes[self._index(name)]
        return self

    # -- execution -------------------------------------------------------
    def run(self, state: CompileState, *, validate_each: bool = False,
            dump_after: DumpSpec = None) -> CompileState:
        """Execute every enabled pass in order; returns the state.

        ``validate_each`` re-checks each pass's declared invariants
        right after it runs (see :data:`INVARIANTS`); ``dump_after``
        is ``True``/``"all"`` or an iterable of pass names after which
        an IR / instruction-DAG snapshot lands in ``state.dumps``.
        """
        dump_names = self._dump_names(dump_after)
        for p in self.passes:
            if not p.enabled(state.options):
                continue
            p.run(state)
            if dump_names is not None and (
                    dump_names == "all" or p.name in dump_names):
                state.dumps[p.name] = _snapshot(state)
            if validate_each:
                self._validate(p, state)
        return state

    @staticmethod
    def _dump_names(dump_after: DumpSpec):
        if dump_after is None or dump_after is False:
            return None
        if dump_after is True or dump_after == "all":
            return "all"
        return frozenset(dump_after)

    @staticmethod
    def _validate(p: Pass, state: CompileState) -> None:
        for invariant in p.invariants:
            checker = INVARIANTS.get(invariant)
            if checker is None:
                raise PassValidationError(
                    p.name, invariant,
                    KeyError(f"unknown invariant {invariant!r}"),
                )
            try:
                checker(state)
            except MscclError as error:
                raise PassValidationError(
                    p.name, invariant, error
                ) from error


def _snapshot(state: CompileState) -> str:
    """A human-diffable dump of the pipeline's current artifact."""
    if state.ir is not None:
        return state.ir.to_xml()
    if state.idag is not None:
        return "\n".join(repr(i) for i in state.idag.live())
    return "\n".join(repr(op) for op in state.program.dag.ops)


def default_pipeline() -> PassPipeline:
    """The paper's trace→lower→fuse→schedule(→optimize)→audit order."""
    return PassPipeline([
        VerifyPass(),
        LowerPass(),
        FusePass(),
        SchedulePass(),
        PruneDepsPass(),
        RenumberChannelsPass(),
        AuditPass(),
    ])
