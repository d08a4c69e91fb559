"""Differential parity: the batched event loop vs the reference loop.

The batched engine's contract is *bitwise identity*: any IR simulated
by both engines must produce the same ``SimResult`` fields, the same
span stream, and the same happens-before projection. These tests
drive the contract over generated IRs from three families — ring
allreduce, double binary tree allreduce, and builder-authored
alltoallv with variable counts — crossed with protocols and config
variants. ``SimConfig.engine`` is the only engine selector.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.build import IrBuilder
from repro.core import AllToAllV, compile_program
from repro.core.errors import SimulationError
from repro.algorithms import (allpairs_allreduce,
                              double_binary_tree_allreduce, ring_allreduce)
from repro.observe import diagnose
from repro.runtime.protocols import LL, LL128, SIMPLE
from repro.runtime.simulator import (IrSimulator, SimConfig,
                                     happens_before_pairs,
                                     sim_parity_diffs)
from repro.topology import generic, ndv4

KiB = 1024


def _alltoallv_ir(counts):
    coll = AllToAllV(counts)
    builder = IrBuilder("alltoallv_parity", coll)
    for rank in range(coll.num_ranks):
        gpu = builder.gpu(rank)
        local = gpu.threadblock()
        local.copy("input", coll.send_offset(rank, rank),
                   "output", coll.recv_offset(rank, rank),
                   counts[rank][rank])
        for peer in range(coll.num_ranks):
            if peer == rank:
                continue
            tb = gpu.threadblock(send=peer, recv=peer)
            if counts[rank][peer]:
                tb.send("input", coll.send_offset(rank, peer),
                        counts[rank][peer])
            if counts[peer][rank]:
                tb.recv("output", coll.recv_offset(peer, rank),
                        counts[peer][rank])
    return builder.check()


_IR_CACHE = {}


def _family_ir(family, size, seed):
    key = (family, size, seed)
    ir = _IR_CACHE.get(key)
    if ir is not None:
        return ir
    if family == "ring":
        ir = compile_program(
            ring_allreduce(size, channels=1 + seed % 2)).ir
    elif family == "tree":
        ir = compile_program(double_binary_tree_allreduce(size)).ir
    else:  # alltoallv with seed-skewed counts
        n = 4
        counts = [[1 + (seed + i * n + j) % 3 for j in range(n)]
                  for i in range(n)]
        ir = _alltoallv_ir(counts)
    _IR_CACHE[key] = ir
    return ir


def _assert_parity(ir, topo, proto, chunk_bytes, **cfg_kwargs):
    """Both engines, traced and untraced, must be indistinguishable."""
    def run(engine, traced):
        cfg = SimConfig(engine=engine, collect_trace=traced,
                        **cfg_kwargs)
        return IrSimulator(ir, topo, proto, cfg).run(chunk_bytes)

    fast_b, fast_r = run("batched", False), run("reference", False)
    diffs = sim_parity_diffs(fast_b, fast_r)
    assert not diffs, diffs
    traced_b, traced_r = run("batched", True), run("reference", True)
    diffs = sim_parity_diffs(traced_b, traced_r)
    assert not diffs, diffs
    assert traced_b.time_us == fast_b.time_us
    assert traced_b.resource_busy_us == fast_b.resource_busy_us
    assert (happens_before_pairs(traced_b.graph)
            == happens_before_pairs(traced_r.graph))


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(["ring", "tree", "alltoallv"]),
    size=st.sampled_from([4, 8]),
    seed=st.integers(min_value=0, max_value=5),
    proto=st.sampled_from([SIMPLE, LL, LL128]),
    chunk_kib=st.sampled_from([16, 256, 4096]),
)
def test_engines_bitwise_identical(family, size, seed, proto, chunk_kib):
    if family == "alltoallv":
        size = 4  # counts matrix is fixed at 4 ranks
    ir = _family_ir(family, size, seed)
    topo = generic(ir.num_ranks)
    _assert_parity(ir, topo, proto, float(chunk_kib * KiB))


class TestConfigVariants:
    """Parity must survive every SimConfig knob the fast path reads."""

    def _ir(self):
        return _family_ir("ring", 8, 0)

    def test_direct_copy(self):
        ir = self._ir()
        _assert_parity(ir, generic(8), SIMPLE, 256.0 * KiB,
                       direct_copy=True)

    def test_no_launch_overhead(self):
        ir = self._ir()
        _assert_parity(ir, generic(8), SIMPLE, 256.0 * KiB,
                       include_launch=False)

    def test_degradations(self):
        ir = _family_ir("ring", 16, 1)
        _assert_parity(ir, ndv4(2), SIMPLE, 256.0 * KiB,
                       degradations={"nic_out": 0.25})

    def test_multi_node(self):
        ir = _family_ir("tree", 16, 0)
        _assert_parity(ir, ndv4(2), LL, 64.0 * KiB)


class TestEngineSelection:
    def test_default_engine_is_batched(self):
        assert SimConfig().engine == "batched"

    def test_unknown_engine_raises(self):
        ir = _family_ir("ring", 4, 0)
        sim = IrSimulator(ir, generic(ir.num_ranks), None,
                          SimConfig(engine="warp"))
        with pytest.raises(SimulationError, match="warp"):
            sim.run(chunk_bytes=64.0 * KiB)


#: All-pairs LL points where many thread blocks reach one link at the
#: same instant (on ``ndv4(1)``, 24 reservations of ``nvlink_out[0]``
#: at t = 11.0027 us), so the simulated time depends on the tie order.
SAME_INSTANT_ALLPAIRS_LL = pytest.mark.parametrize(
    "topo, instances, chunks", [
        (generic(8), 2, 1),  # 4 MiB per chunk: 1541.80 us
        (ndv4(1), 4, None),  # 4 MiB buffer: 120.433 us
    ], ids=["generic8-r2", "ndv4-r4"])


def _allpairs_ll(instances, chunks):
    algo = compile_program(
        allpairs_allreduce(8, instances=instances, protocol="LL"))
    return algo.ir, 4.0 * 1024 * KiB / (chunks or algo.sizing_chunks())


@SAME_INSTANT_ALLPAIRS_LL
def test_tracing_never_changes_the_answer(topo, instances, chunks):
    """Traced and untraced batched runs share one thread-block body."""
    ir, chunk_bytes = _allpairs_ll(instances, chunks)

    def run(traced):
        return IrSimulator(ir, topo, LL, SimConfig(
            collect_trace=traced)).run(chunk_bytes)

    fast, traced = run(False), run(True)
    assert traced.time_us == fast.time_us
    assert traced.resource_busy_us == fast.resource_busy_us
    assert diagnose(traced).time_us == fast.time_us
    assert traced.graph.path_total_us() == pytest.approx(fast.time_us)


class TestSameInstantTies:
    """Both engines serve same-instant link reservations in TB order.

    Publications due at an instant apply first; thread blocks then run
    in (rank, thread block) order. These runs put many same-instant
    reservations on shared links, where any other order moves the
    simulated time, occurrence intervals, or per-message bottleneck
    attribution.
    """

    @SAME_INSTANT_ALLPAIRS_LL
    def test_allpairs_ll(self, topo, instances, chunks):
        ir, chunk_bytes = _allpairs_ll(instances, chunks)
        _assert_parity(ir, topo, LL, chunk_bytes)

    @pytest.mark.parametrize("ir, proto, chunk_kib", [
        # What the conformance engine-parity round simulates.
        (compile_program(allpairs_allreduce(4)).ir, SIMPLE, 64),
        # A property-suite draw with skewed counts.
        (_family_ir("alltoallv", 4, 0), LL, 16),
    ], ids=["allpairs4-simple", "alltoallv-ll"])
    def test_traced_graph(self, ir, proto, chunk_kib):
        _assert_parity(ir, generic(ir.num_ranks), proto,
                       float(chunk_kib * KiB))


class TestTileCountBasis:
    """Regression: tiles must be sized from span-count bytes.

    ``_tile_count`` used to size tiles from ``chunk_bytes * frac``
    alone while ``_instr_bytes`` scales payloads by span counts, so an
    alltoallv instruction with count > 1 under-tiled and mis-amortized
    alpha.
    """

    def test_variable_counts_tile_against_moved_bytes(self):
        skew = [[1, 2, 1, 3], [2, 1, 4, 1], [1, 1, 1, 1], [3, 2, 1, 2]]
        ones = [[1] * 4 for _ in range(4)]
        chunk = float(SIMPLE.slot_bytes)  # one slot per unit count
        skew_res = IrSimulator(_alltoallv_ir(skew), generic(4)).run(chunk)
        ones_res = IrSimulator(_alltoallv_ir(ones), generic(4)).run(chunk)
        # Uniform counts fill exactly one slot; the skewed matrix's
        # largest instruction moves 4 chunks and must pipeline 4 tiles.
        assert ones_res.tiles == 1
        assert skew_res.tiles == 4

    def test_tile_count_matches_instr_bytes_basis(self):
        skew = [[1, 2, 1, 3], [2, 1, 4, 1], [1, 1, 1, 1], [3, 2, 1, 2]]
        ir = _alltoallv_ir(skew)
        sim = IrSimulator(ir, generic(4))
        chunk = 96.0 * KiB
        largest = max(
            chunk * float(instr.frac_hi - instr.frac_lo)
            * max((span[2] for span in (instr.src, instr.dst)
                   if span is not None), default=0)
            for gpu in ir.gpus for tb in gpu.threadblocks
            for instr in tb.instructions
        )
        expected = min(sim.config.max_tiles,
                       max(1, math.ceil(largest / SIMPLE.slot_bytes)))
        assert sim.run(chunk).tiles == expected

    def test_parity_on_variable_counts(self):
        skew = [[1, 2, 1, 3], [2, 1, 4, 1], [1, 1, 1, 1], [3, 2, 1, 2]]
        _assert_parity(_alltoallv_ir(skew), generic(4), SIMPLE,
                       512.0 * KiB)
