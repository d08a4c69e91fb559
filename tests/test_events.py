"""Tests for the discrete-event engine."""

import pytest

from repro.core.errors import SimulationError
from repro.runtime.events import (DIRECT_WAKE, BatchEventLoop, EventLoop,
                                  Signal)


class TestEventLoop:
    def test_delays_accumulate(self):
        loop = EventLoop()
        log = []

        def process():
            yield ("delay", 5)
            log.append(loop.now)
            yield ("delay", 10)
            log.append(loop.now)

        loop.spawn(process())
        assert loop.run() == 15
        assert log == [5, 15]

    def test_at_absolute_time(self):
        loop = EventLoop()
        seen = []

        def process():
            yield ("at", 42)
            seen.append(loop.now)

        loop.spawn(process())
        loop.run()
        assert seen == [42]

    def test_at_in_the_past_clamps_to_now(self):
        loop = EventLoop()
        seen = []

        def process():
            yield ("delay", 10)
            yield ("at", 3)  # already passed
            seen.append(loop.now)

        loop.spawn(process())
        loop.run()
        assert seen == [10]

    def test_processes_interleave_by_time(self):
        loop = EventLoop()
        order = []

        def proc(name, delay):
            yield ("delay", delay)
            order.append(name)

        loop.spawn(proc("slow", 10))
        loop.spawn(proc("fast", 1))
        loop.run()
        assert order == ["fast", "slow"]

    def test_signal_wakes_waiter(self):
        loop = EventLoop()
        signal = Signal()
        woken = []

        def waiter():
            yield ("wait", signal)
            woken.append(loop.now)

        def notifier():
            yield ("delay", 7)
            loop.notify(signal)

        loop.spawn(waiter())
        loop.spawn(notifier())
        loop.run()
        assert woken == [7]

    def test_signal_broadcasts(self):
        loop = EventLoop()
        signal = Signal()
        woken = []

        def waiter(name):
            yield ("wait", signal)
            woken.append(name)

        def notifier():
            yield ("delay", 1)
            loop.notify(signal)

        for name in "abc":
            loop.spawn(waiter(name))
        loop.spawn(notifier())
        loop.run()
        assert sorted(woken) == ["a", "b", "c"]

    def test_orphaned_waiter_is_a_deadlock(self):
        loop = EventLoop()
        signal = Signal()

        def waiter():
            yield ("wait", signal)

        loop.spawn(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            loop.run()

    def test_unknown_request_rejected(self):
        loop = EventLoop()

        def bad():
            yield ("sleep", 10)

        loop.spawn(bad())
        with pytest.raises(SimulationError, match="unknown wait request"):
            loop.run()

    def test_scheduling_in_the_past_rejected(self):
        loop = EventLoop()

        def mover():
            yield ("delay", 5)

        loop.spawn(mover())
        loop.run()
        with pytest.raises(SimulationError):
            loop.spawn(iter(()), at=1)

    def test_empty_run_finishes_at_zero(self):
        assert EventLoop().run() == 0.0


class TestSameInstantOrder:
    def test_ordered_processes_run_by_order(self):
        loop = EventLoop()
        ran = []

        def proc(name, delay):
            yield ("delay", delay)
            ran.append(name)

        loop.spawn(proc("b", 5), order=2)
        loop.spawn(proc("a", 5), order=1)
        loop.spawn(proc("early", 4), order=3)
        loop.run()
        assert ran == ["early", "a", "b"]

    def test_publications_run_first_and_wake_by_order(self):
        loop = EventLoop()
        signal = Signal()
        ran = []

        def checker(name):
            yield ("at", 5)
            ran.append(name)

        def waiter(name):
            yield ("wait", signal)
            ran.append(name)

        def publish():
            yield ("at", 5)
            ran.append("publish")
            loop.notify(signal)

        loop.spawn(waiter("w0"), order=0)
        loop.spawn(checker("c1"), order=1)
        loop.spawn(waiter("w2"), order=2)
        loop.spawn(publish())  # scheduled last, runs first at t=5
        loop.run()
        assert ran == ["publish", "w0", "c1", "w2"]

    def test_batched_loop_orders_wakes_the_same_way(self):
        loop = BatchEventLoop()
        signal = Signal()
        ran = []

        def waiter(name):
            now = yield
            now = yield signal
            ran.append((name, now))

        def producer():
            now = yield
            ran.append(("produce", now))
            yield ((DIRECT_WAKE, 5.0, signal),), 5.0
            ran.append(("producer", 5.0))

        loop.spawn(waiter("w2"), at=0.0, order=2)
        loop.spawn(waiter("w0"), at=0.0, order=0)
        loop.spawn(producer(), at=1.0, order=1)
        assert loop.run() == 5.0
        assert ran == [("produce", 1.0), ("w0", 5.0), ("producer", 5.0),
                       ("w2", 5.0)]
