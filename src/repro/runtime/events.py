"""A tiny generator-based discrete-event engine.

Processes are Python generators that yield wait requests:

* ``("delay", dt)`` — resume after ``dt`` microseconds of virtual time,
* ``("wait", signal)`` — resume when the signal is next notified,
* ``("at", t)`` — resume at absolute virtual time ``t``.

The engine keeps a single priority queue of pending resumptions. This is
all the machinery the MSCCL-IR interpreter needs: semaphores and FIFOs
are built from :class:`Signal` plus plain counters.

**Same-instant order.** Resumptions due at the same virtual time run by
the ``order`` their process was spawned with, lowest first. Processes
spawned without one and ``call_at`` actions are *publications*
(:data:`PUBLISH`): they run first, in the order they were scheduled.
The simulator spawns thread block ``i`` with order ``i``, so links
reached at once are reserved in (rank, thread block) order.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional, Tuple

from ..core.errors import SimulationError

#: ``order`` of a process spawned without one: see the module docstring.
PUBLISH = -1


class Signal:
    """A broadcast condition: processes wait, notify_all wakes them.

    ``label`` names the wait class ("fifo_arrival", "fifo_slot",
    "semaphore", ...) so a tracing event loop can attribute blocked
    time to it. Waiters are ``(order, process, since)`` entries.
    """

    __slots__ = ("_waiters", "label")

    def __init__(self, label: str = "") -> None:
        self._waiters: List = []
        self.label = label

    def add_waiter(self, process, since: float = 0.0,
                   order: int = PUBLISH) -> None:
        self._waiters.append((order, process, since))

    def take_waiters(self) -> List:
        waiters, self._waiters = self._waiters, []
        return waiters


class EventLoop:
    """Runs processes until no further progress is possible.

    With a :class:`repro.observe.Tracer`, every wakeup from a labelled
    signal adds the time the process spent blocked to a
    ``wait.<label>_us`` counter (sampled at the wake time) — the FIFO
    stall and semaphore accounting of the observability layer.
    """

    def __init__(self, tracer=None) -> None:
        self.now = 0.0
        self.tracer = tracer
        # (time, order, sequence, resume): ``resume`` is a process's
        # ``__next__``, or a call_at action (which returns None).
        self._queue: List[Tuple[float, int, int, Callable]] = []
        self._sequence = 0
        self._active = 0
        self._blocked = 0

    def spawn(self, process: Iterator, at: Optional[float] = None,
              order: int = PUBLISH) -> None:
        """Register a generator process; it starts at ``at`` (default now).

        ``order`` ranks its resumptions among those due at the same
        instant (see the module docstring).
        """
        self._active += 1
        self._push(self.now if at is None else at, order, process.__next__)

    def call_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` once at ``time``, as a publication."""
        self._active += 1
        self._push(time, PUBLISH, action)

    def _push(self, time: float, order: int, resume: Callable) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        heapq.heappush(self._queue, (time, order, self._sequence, resume))
        self._sequence += 1

    def notify(self, signal: Signal) -> None:
        """Wake every process waiting on the signal (at the current time)."""
        for order, resume, since in signal.take_waiters():
            self._blocked -= 1
            if self.tracer is not None and signal.label:
                self.tracer.add_counter(
                    f"wait.{signal.label}_us", self.now - since,
                    t_us=self.now,
                )
            self._push(self.now, order, resume)

    def run(self) -> float:
        """Run to completion; returns the final virtual time.

        Raises SimulationError if processes remain blocked on signals
        that will never be notified (a deadlock).
        """
        while self._queue:
            time, order, _seq, resume = heapq.heappop(self._queue)
            self.now = time
            self._step(resume, order)
        if self._blocked:
            raise SimulationError(
                f"simulation deadlocked: {self._blocked} processes are "
                "waiting on signals nobody will notify"
            )
        return self.now

    def _step(self, resume: Callable, order: int) -> None:
        try:
            request = resume()
        except StopIteration:
            request = None
        if request is None:  # a finished process or a call_at action
            self._active -= 1
            return
        kind = request[0]
        if kind == "delay":
            self._push(self.now + request[1], order, resume)
        elif kind == "at":
            self._push(max(self.now, request[1]), order, resume)
        elif kind == "wait":
            signal = request[1]
            signal.add_waiter(resume, since=self.now, order=order)
            self._blocked += 1
        else:
            raise SimulationError(f"unknown wait request {request!r}")


# -- batched engine ---------------------------------------------------------
#
# The action kind for BatchEventLoop: a ``(DIRECT_WAKE, fire_t, signal)``
# tuple that a process hands the loop along with its next wait request.
# It re-queues the signal's blocked waiters at ``fire_t`` and never
# becomes a heap event itself. Producers publish FIFO arrivals, slot
# retirements and semaphore progress as virtual times instead of
# scheduling events, so this is the only action the batched simulator
# needs.
DIRECT_WAKE = 1


class BatchEventLoop:
    """The slimmed event engine behind the batched simulator.

    Same-instant order matches :class:`EventLoop`: resumptions due at
    the same time run by their process's ``order``. Every process is an
    ordered thread block with its own ``order`` and at most one pending
    resumption, so a heap entry is just ``(time, order, send)``. What
    changes is the cost per simulated instruction occurrence:
    thread-block processes are primed generators driven by
    ``send(now)`` — the current virtual time rides the resumption
    instead of being re-read from the loop — and, because facts are
    published as virtual times rather than delivered by events, an
    unblocked occurrence costs a single generator resumption. Facts are
    published no later than they become true, which is what the
    reference loop's publications-first rule gives its consumers.

    Processes yield one of:

    * ``t`` (float) — resume at ``max(now, t)``,
    * ``signal`` — block until a DIRECT_WAKE action names the signal,
    * ``(actions, t | signal)`` — apply each ``(DIRECT_WAKE, fire_t,
      signal)`` action, then resume at float ``t`` or block on the
      signal.

    A DIRECT_WAKE re-queues the signal's blocked waiters straight at
    ``max(now, fire_t)``. This is valid because every signal has
    exactly one publishing thread block, so nothing else can wake those
    waiters between the publication and the fire time.
    """

    __slots__ = ("now", "_queue", "_blocked")

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[tuple] = []
        self._blocked = 0

    def spawn(self, process, at: float, order: int) -> None:
        """Prime a generator process; first resumption at ``at``.

        ``order`` must be distinct per process.
        """
        process.send(None)
        heapq.heappush(self._queue, (at, order, process.send))

    def run(self) -> float:
        """Run to completion; returns the final virtual time.

        Raises SimulationError if processes remain blocked on signals
        that will never be notified (a deadlock), exactly like
        :class:`EventLoop`.
        """
        queue = self._queue
        push = heapq.heappush
        pop = heapq.heappop
        blocked = self._blocked
        now = self.now
        while queue:
            now, order, send = pop(queue)
            try:
                req = send(now)
            except StopIteration:
                continue
            cls = type(req)
            if cls is float:
                push(queue, (req if req > now else now, order, send))
                continue
            if cls is tuple:
                for _akind, at, signal in req[0]:  # DIRECT_WAKE
                    waiters = signal._waiters
                    signal._waiters = []
                    blocked -= len(waiters)
                    t = at if at > now else now
                    for w_order, waiter, _since in waiters:
                        push(queue, (t, w_order, waiter))
                req = req[1]
                if type(req) is float:
                    push(queue, (req if req > now else now, order, send))
                    continue
            req._waiters.append((order, send, now))  # Signal: block
            blocked += 1
        self._blocked = blocked
        self.now = now
        if blocked:
            raise SimulationError(
                f"simulation deadlocked: {blocked} processes are "
                "waiting on signals nobody will notify"
            )
        return now
