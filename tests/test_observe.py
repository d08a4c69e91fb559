"""Tests for the observability layer: tracer, exporters, metrics, and
the CompiledAlgorithm API it rides behind."""

import json

import pytest

from repro.algorithms import allpairs_allreduce, double_binary_tree_allreduce
from repro.core import CompilerOptions, compile_program
from repro.core.compiler import CompiledAlgorithm
from repro.core.errors import RuntimeConfigError
from repro.observe import (
    Span,
    Tracer,
    chrome_trace,
    flame_text,
    maybe_span,
    metrics_dict,
    metrics_text,
    write_chrome_trace,
)
from repro.runtime import (
    AlgorithmRegistry,
    IrSimulator,
    SimConfig,
    critical_path,
    profile_threadblocks,
    slowest_threadblocks,
    timeline,
    utilization_report,
)
from repro.topology import generic, ndv4
from tests.conftest import build_ring_allreduce

KiB = 1024
MiB = 1024 * 1024


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        assert tracer.roots == [outer]
        assert [c.name for c in outer.children] == ["inner"]

    def test_span_args_attach_results(self):
        tracer = Tracer()
        with tracer.span("pass", nodes_in=10) as span:
            span.args["nodes_out"] = 7
        assert span.args == {"nodes_in": 10, "nodes_out": 7}

    def test_emit_records_explicit_times(self):
        tracer = Tracer()
        span = tracer.emit("send", 3.0, 8.0, track=("rank 0", "tb 1"),
                           track_ids=(0, 1), step=2)
        assert span.duration_us == pytest.approx(5.0)
        assert tracer.roots == [span]

    def test_counters_accumulate_and_sample(self):
        tracer = Tracer()
        tracer.add_counter("stall_us", 2.0, t_us=1.0)
        total = tracer.add_counter("stall_us", 3.0, t_us=4.0)
        assert total == pytest.approx(5.0)
        assert tracer.counters["stall_us"] == pytest.approx(5.0)
        assert [s.value for s in tracer.counter_samples] == [2.0, 5.0]

    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        tracer.emit("op", 0.0, 2.0)
        tracer.emit("op", 2.0, 5.0)
        row = tracer.summary()["op"]
        assert row["count"] == 2
        assert row["total_us"] == pytest.approx(5.0)

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        root = tracer.roots[0]
        assert root.find("b").name == "b"
        assert [s.name for s in tracer.walk()] == ["a", "b"]

    def test_maybe_span_tolerates_none(self):
        with maybe_span(None, "x") as span:
            assert span is None
        tracer = Tracer()
        with maybe_span(tracer, "x") as span:
            assert isinstance(span, Span)


class TestCompiledAlgorithm:
    def _compile(self, **options):
        program = build_ring_allreduce(4)
        return compile_program(program, CompilerOptions(**options))

    def test_compile_returns_compiled_algorithm(self):
        algo = self._compile()
        assert isinstance(algo, CompiledAlgorithm)
        assert algo.ir.name == "test_ring"
        assert algo.sizing_chunks() == algo.collective.sizing_chunks()

    def test_delegates_to_ir(self):
        algo = self._compile()
        assert algo.instruction_count() == algo.ir.instruction_count()
        assert algo.num_ranks == 4
        json.loads(algo.to_json())  # delegated method works end to end

    def test_no_dunder_delegation(self):
        # Pickle/copy probe __reduce__ etc.; delegating those to the IR
        # would corrupt the wrapper, so dunders must not resolve.
        algo = self._compile()
        with pytest.raises(AttributeError):
            algo.__reduce_ex__ = None  # __slots__ rejects unknown names
        with pytest.raises(AttributeError):
            getattr(algo, "__wrapped__")

    def test_compile_summary_has_every_pass(self):
        algo = self._compile()
        summary = algo.compile_summary
        assert list(summary) == ["verify", "lower", "fuse", "schedule",
                                 "audit"]
        for row in summary.values():
            assert row["duration_us"] >= 0.0
        assert summary["lower"]["chunk_ops_in"] > 0
        assert summary["fuse"]["nodes_out"] <= summary["fuse"]["nodes_in"]
        assert (summary["schedule"]["instructions_out"]
                == algo.ir.instruction_count())

    def test_disabled_passes_drop_out_of_summary(self):
        algo = self._compile(verify=False, instr_fusion=False,
                             audit=False)
        assert list(algo.compile_summary) == ["lower", "schedule"]

    def test_external_tracer_receives_compile_spans(self):
        program = build_ring_allreduce(4)
        tracer = Tracer()
        algo = compile_program(program, CompilerOptions(trace=tracer))
        assert algo.tracer is tracer
        assert tracer.roots[0].name == "compile"
        assert tracer.roots[0] is algo.compile_span


class TestRegisterApi:
    def test_registry_sizing_set_at_construction(self):
        program = build_ring_allreduce(4)
        algo = compile_program(program, CompilerOptions())
        registry = AlgorithmRegistry("allreduce")
        registry.register(algo, label="x")
        entry = registry.algorithms[0]
        assert entry.sizing_chunks == algo.sizing_chunks()

    def test_size_args_are_keyword_only(self):
        program = build_ring_allreduce(4)
        algo = compile_program(program, CompilerOptions())
        registry = AlgorithmRegistry("allreduce")
        with pytest.raises(TypeError):
            registry.register(algo, 0, MiB)

    def test_bare_ir_needs_explicit_sizing(self):
        program = build_ring_allreduce(4)
        algo = compile_program(program, CompilerOptions())
        registry = AlgorithmRegistry("allreduce")
        registry.register(algo.ir, sizing_chunks=7)
        assert registry.algorithms[0].sizing_chunks == 7

    def test_wrong_collective_still_rejected(self):
        program = build_ring_allreduce(4)
        algo = compile_program(program, CompilerOptions())
        with pytest.raises(RuntimeConfigError):
            AlgorithmRegistry("alltoall").register(algo)


class TestSimulatorTracing:
    def _run(self, ranks=8, tracer=None, **config):
        program = build_ring_allreduce(ranks)
        algo = compile_program(program, CompilerOptions())
        if tracer is not None:
            config["tracer"] = tracer
        result = IrSimulator(
            algo.ir, generic(ranks, 1), config=SimConfig(**config)
        ).run(chunk_bytes=MiB / algo.sizing_chunks())
        return algo, result

    def test_span_per_executed_instruction(self):
        algo, result = self._run(tracer=Tracer())
        executed = algo.ir.instruction_count() * result.tiles
        assert len(result.spans) == executed

    def test_instruction_spans_carry_coordinates(self):
        _, result = self._run(tracer=Tracer())
        for span in result.spans:
            assert span.cat == "instr"
            assert span.track_ids == (span.args["rank"], span.args["tb"])
            for key in ("rank", "tb", "channel", "step", "tile",
                        "nbytes"):
                assert key in span.args
            assert span.end_us >= span.start_us

    def test_root_sim_span_matches_elapsed(self):
        tracer = Tracer()
        _, result = self._run(tracer=tracer)
        root = next(s for s in tracer.roots if s.name == "simulate")
        assert root.duration_us == pytest.approx(result.time_us)

    def test_collect_trace_without_tracer_still_works(self):
        _, result = self._run(collect_trace=True)
        assert result.spans
        assert result.tracer is not None

    def test_trace_property_matches_spans(self):
        _, result = self._run(tracer=Tracer())
        rows = result.trace
        assert len(rows) == len(result.spans)
        for row, span in zip(rows, result.spans):
            assert row.op == span.name
            assert row.rank == span.args["rank"]
            assert row.start_us == span.start_us

    def test_no_tracer_no_spans(self):
        _, result = self._run()
        assert result.spans is None
        assert result.trace is None

    def test_wait_counters_sampled_from_event_loop(self):
        # The plain conftest ring never blocks; the multi-channel LL
        # ring stalls its receivers on FIFO arrivals.
        from repro.algorithms import ring_allreduce

        program = ring_allreduce(8, channels=4, instances=8,
                                 protocol="LL")
        tracer = Tracer()
        algo = compile_program(
            program, CompilerOptions(max_threadblocks=108)
        )
        IrSimulator(
            algo.ir, ndv4(1), config=SimConfig(tracer=tracer)
        ).run(chunk_bytes=MiB / algo.sizing_chunks())
        waits = [n for n in tracer.counters if n.startswith("wait.")]
        assert "wait.fifo_arrival_us" in waits
        assert all(tracer.counters[n] >= 0 for n in waits)

    @pytest.mark.parametrize("program, topo", [
        # Many thread blocks block on semaphores and FIFO arrivals at once.
        (allpairs_allreduce(8, instances=4, protocol="LL"), ndv4(1)),
        # Occurrences wait on a semaphore and then on a FIFO arrival.
        (double_binary_tree_allreduce(8, instances=2), generic(8)),
    ], ids=["allpairs", "double-tree"])
    def test_wait_counter_samples_are_monotone(self, program, topo):
        # Exporters plot each sample's running total at its t_us, so a
        # counter's samples must rise in both.
        algo = compile_program(program)
        totals = {}
        for engine in ("batched", "reference"):
            tracer = Tracer()
            IrSimulator(algo.ir, topo, config=SimConfig(
                tracer=tracer, engine=engine,
            )).run(chunk_bytes=4 * MiB / algo.sizing_chunks())
            samples = {}
            for sample in tracer.counter_samples:
                if sample.name.startswith("wait."):
                    samples.setdefault(sample.name, []).append(
                        (sample.t_us, sample.value))
            assert "wait.semaphore_us" in samples
            for name, series in samples.items():
                assert series == sorted(series), (engine, name)
                assert all(a[1] <= b[1]
                           for a, b in zip(series, series[1:]))
            totals[engine] = {n: tracer.counters[n] for n in samples}
        for name, total in totals["batched"].items():
            assert total == pytest.approx(totals["reference"][name])

    def test_link_busy_counters_recorded(self):
        tracer = Tracer()
        _, result = self._run(tracer=tracer)
        links = {n: v for n, v in tracer.counters.items()
                 if n.startswith("link.")}
        assert links
        for name, value in links.items():
            resource = name[len("link."):-len(".busy_us")]
            assert value == pytest.approx(
                result.resource_busy_us[resource]
            )


class TestChromeTrace:
    def _traced(self):
        program = build_ring_allreduce(4)
        tracer = Tracer()
        algo = compile_program(program, CompilerOptions(trace=tracer))
        result = IrSimulator(
            algo.ir, generic(4, 1), config=SimConfig(tracer=tracer)
        ).run(chunk_bytes=MiB / algo.sizing_chunks())
        return tracer, algo, result

    def test_valid_json_round_trip(self, tmp_path):
        tracer, _, _ = self._traced()
        path = write_chrome_trace(tmp_path / "t.json", tracer)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_complete_event_per_instruction(self):
        tracer, algo, result = self._traced()
        doc = chrome_trace(tracer)
        instr_events = [e for e in doc["traceEvents"]
                        if e["ph"] == "X" and e["cat"] == "instr"]
        assert (len(instr_events)
                == algo.ir.instruction_count() * result.tiles)

    def test_pid_tid_map_to_rank_and_tb(self):
        tracer, _, _ = self._traced()
        doc = chrome_trace(tracer)
        for event in doc["traceEvents"]:
            if event.get("cat") != "instr":
                continue
            assert event["pid"] == event["args"]["rank"]
            assert event["tid"] == event["args"]["tb"]

    def test_metadata_names_tracks(self):
        tracer, _, _ = self._traced()
        doc = chrome_trace(tracer)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "rank 0" in names

    def test_counter_events_present(self):
        tracer, _, _ = self._traced()
        doc = chrome_trace(tracer)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all("value" in e["args"] for e in counters)

    def test_flame_text_merges_siblings(self):
        tracer, _, result = self._traced()
        text = flame_text(tracer)
        assert "compile" in text
        assert "simulate" in text
        # thousands of instruction spans collapse to one row per opcode
        assert any("x" in line and "us" in line
                   for line in text.splitlines())
        assert len(text.splitlines()) < len(result.spans)


class TestMetrics:
    def test_metrics_dict_sections(self):
        program = build_ring_allreduce(4)
        tracer = Tracer()
        algo = compile_program(program, CompilerOptions(trace=tracer))
        result = IrSimulator(
            algo.ir, generic(4, 1), config=SimConfig(tracer=tracer)
        ).run(chunk_bytes=MiB / algo.sizing_chunks())
        metrics = metrics_dict(tracer, result)
        assert metrics["sim"]["time_us"] == pytest.approx(
            result.time_us, abs=1e-3
        )
        assert metrics["sim"]["instructions"] == result.instruction_count
        assert metrics["links"]
        for row in metrics["links"].values():
            assert 0 <= row["occupancy"] <= 1.0
            assert row["busy_us"] >= 0
        # Every simulated resource appears, including idle ones.
        assert set(metrics["links"]) == set(result.resource_busy_us)
        assert json.loads(json.dumps(metrics)) == metrics
        text = metrics_text(metrics)
        assert "simulated" in text and "busiest links" in text

    def test_metrics_occupancy_clamped(self):
        # A busy total above elapsed time (overlapping cut-through
        # reservations) must clamp to 1.0 and be flagged, not leak >1.
        class FakeResult:
            time_us = 100.0
            resource_busy_us = {"hot": 250.0, "idle": 0.0, "ok": 40.0}
            instruction_count = 1
            threadblocks = 1
            tiles = 1
            protocol = "Simple"

        metrics = metrics_dict(Tracer(), FakeResult())
        links = metrics["links"]
        assert links["hot"]["occupancy"] == 1.0
        assert links["hot"]["saturated"] is True
        assert links["idle"] == {"busy_us": 0.0, "occupancy": 0.0}
        assert links["ok"]["occupancy"] == pytest.approx(0.4)
        assert "saturated" not in links["ok"]

    def test_report_renders_metrics(self, tmp_path):
        from repro.analysis import collect_metrics, metrics_markdown
        from repro.analysis.report import build_report

        (tmp_path / "demo.metrics.json").write_text(json.dumps({
            "counters": {"wait.fifo_arrival_us": 12.5},
            "sim": {"time_us": 99.0, "instructions": 10,
                    "threadblocks": 4, "tiles": 1,
                    "protocol": "Simple"},
            "links": {"nvlink[0,1]": {"busy_us": 50.0,
                                      "occupancy": 0.505}},
        }))
        (tmp_path / "broken.metrics.json").write_text("{nope")
        found = collect_metrics(tmp_path)
        assert list(found) == ["demo"]
        report = build_report(tmp_path, include_audit=False)
        assert "demo — observability metrics" in report
        assert "wait.fifo_arrival_us" in report
        assert metrics_markdown(found["demo"]).startswith("10 instr")


class TestProfileOnSpans:
    def _result(self):
        program = build_ring_allreduce(8)
        algo = compile_program(program, CompilerOptions())
        return IrSimulator(
            algo.ir, generic(8, 1),
            config=SimConfig(collect_trace=True),
        ).run(chunk_bytes=MiB / algo.sizing_chunks())

    def test_profiles_cover_every_threadblock(self):
        result = self._result()
        profiles = profile_threadblocks(result)
        assert len(profiles) == result.threadblocks
        for profile in profiles:
            assert 0 < profile.utilization <= 1.0
            assert profile.last_end_us <= result.time_us + 1e-9

    def test_slowest_and_critical_path(self):
        result = self._result()
        slow = slowest_threadblocks(result, top=3)
        assert len(slow) == 3
        assert (slow[0].last_end_us
                >= slow[-1].last_end_us)
        lines = critical_path(result, top=4)
        assert len(lines) == 4

    def test_timeline_and_utilization_render(self):
        result = self._result()
        assert timeline(result, rank=0)
        assert utilization_report(result)


class TestTraceCli:
    def test_trace_subcommand_writes_loadable_json(self, tmp_path,
                                                   capsys):
        from repro.tools.cli import main

        out = tmp_path / "ring.json"
        metrics_path = tmp_path / "ring.metrics.json"
        code = main([
            "trace", "ring_allreduce", "--ranks", "8",
            "--size", "1MB", "--out", str(out),
            "--metrics", str(metrics_path),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        instr = [e for e in doc["traceEvents"]
                 if e.get("cat") == "instr"]
        assert instr
        ranks = {e["pid"] for e in instr}
        assert ranks == set(range(8))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["sim"]["instructions"] > 0
        text = capsys.readouterr().out
        assert "compiler passes" in text
        assert "chrome trace written" in text
