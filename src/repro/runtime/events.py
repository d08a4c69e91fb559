"""A tiny generator-based discrete-event engine.

Processes are Python generators that yield wait requests:

* ``("delay", dt)`` — resume after ``dt`` microseconds of virtual time,
* ``("wait", signal)`` — resume when the signal is next notified,
* ``("at", t)`` — resume at absolute virtual time ``t``.

The engine keeps a single priority queue of pending resumptions. This is
all the machinery the MSCCL-IR interpreter needs: semaphores and FIFOs
are built from :class:`Signal` plus plain counters.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

from ..core.errors import SimulationError


class Signal:
    """A broadcast condition: processes wait, notify_all wakes them.

    ``label`` names the wait class ("fifo_arrival", "fifo_slot",
    "semaphore", ...) so a tracing event loop can attribute blocked
    time to it.
    """

    __slots__ = ("_waiters", "label")

    def __init__(self, label: str = "") -> None:
        self._waiters: List = []
        self.label = label

    def add_waiter(self, process, since: float = 0.0) -> None:
        self._waiters.append((process, since))

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
        self._queue: List[Tuple[float, int, Iterator]] = []
        self._sequence = 0
        self._active = 0
        self._blocked = 0

    def spawn(self, process: Iterator, at: Optional[float] = None) -> None:
        """Register a generator process; it starts at ``at`` (default now)."""
        self._active += 1
        self._push(self.now if at is None else at, process)

    def _push(self, time: float, process: Iterator) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        heapq.heappush(self._queue, (time, self._sequence, process))
        self._sequence += 1

    def notify(self, signal: Signal) -> None:
        """Wake every process waiting on the signal (at the current time)."""
        for process, since in signal.take_waiters():
            self._blocked -= 1
            if self.tracer is not None and signal.label:
                self.tracer.add_counter(
                    f"wait.{signal.label}_us", self.now - since,
                    t_us=self.now,
                )
            self._push(self.now, process)

    def run(self) -> float:
        """Run to completion; returns the final virtual time.

        Raises SimulationError if processes remain blocked on signals
        that will never be notified (a deadlock).
        """
        while self._queue:
            time, _seq, process = heapq.heappop(self._queue)
            self.now = time
            self._step(process)
        if self._blocked:
            raise SimulationError(
                f"simulation deadlocked: {self._blocked} processes are "
                "waiting on signals nobody will notify"
            )
        return self.now

    def _step(self, process: Iterator) -> None:
        try:
            request = next(process)
        except StopIteration:
            self._active -= 1
            return
        kind = request[0]
        if kind == "delay":
            self._push(self.now + request[1], process)
        elif kind == "at":
            self._push(max(self.now, request[1]), process)
        elif kind == "wait":
            signal = request[1]
            signal.add_waiter(process, since=self.now)
            self._blocked += 1
        else:
            raise SimulationError(f"unknown wait request {request!r}")


# -- batched engine ---------------------------------------------------------
#
# Heap-entry kinds for BatchEventLoop. RESUME carries a thread-block
# generator's bound ``send``; the next three are *action events*:
# plain tuples standing in for the one-shot deliver/free helper
# processes and semaphore-fence resumptions the reference engine
# schedules per message / per instruction. Each action fires at a
# precomputed virtual time, performs one state write, and wakes the
# relevant signal's waiters — the same times and the same effects as
# the reference loop, with one heap event instead of a generator
# round-trip.
RESUME = 0
DELIVER = 1
FREE = 2
SEM = 3
DIRECT_WAKE = 4


class BatchEventLoop:
    """The slimmed event engine behind the batched simulator.

    Scheduling discipline matches :class:`EventLoop`: one priority
    queue ordered by ``(time, sequence)``, notified waiters re-queued
    at the notify time in list order. What changes is the cost per
    simulated instruction occurrence:

    * thread-block processes are primed generators driven by
      ``send(now)`` — the current virtual time rides the resumption
      instead of being re-read from the loop,
    * FIFO deliver/free bookkeeping and semaphore publication become
      pooled *action events* pushed directly at their precomputed fire
      times, so an unblocked occurrence costs a single generator
      resumption instead of three (overhead, release, fence) plus
      helper-process churn.

    Processes yield one of:

    * ``t`` (float) — resume at ``max(now, t)``,
    * ``signal`` — block until the signal is notified,
    * ``(actions, t | signal | None)`` — push each ``(kind, fire_t,
      payload)`` action event at ``max(now, fire_t)``, then resume at
      float ``t``, block on the signal, or (``None``) stop scheduling
      this process beyond the pushed actions.

    Action payloads: ``DELIVER (conn, seq, last_byte)`` records a FIFO
    arrival and wakes ``conn.arrival_signal``; ``FREE (conn, seq)``
    retires a slot and wakes ``conn.slot_signal``; ``SEM (sem, value,
    signal)`` publishes thread-block progress and wakes dependents.
    ``DIRECT_WAKE (fire_t, signal)`` serves the lazy-publication fast
    path, where producers write visibility times eagerly and only
    already-blocked consumers need waking. It is processed inline while
    actions are pushed and never becomes a heap event: the signal's
    blocked waiters are re-queued directly at the fact's fire time.
    This is valid because every fast-path signal has exactly one
    publishing thread block, so nothing else can wake those waiters
    between the publication and the fire time.
    """

    __slots__ = ("now", "tracer", "_queue", "_sequence", "_blocked")

    def __init__(self, tracer=None) -> None:
        self.now = 0.0
        self.tracer = tracer
        self._queue: List[tuple] = []
        self._sequence = 0
        self._blocked = 0

    def spawn(self, process, at: Optional[float] = None) -> None:
        """Prime a generator process; first resumption at ``at``."""
        process.send(None)
        heapq.heappush(
            self._queue,
            (self.now if at is None else at, self._sequence, RESUME,
             process.send),
        )
        self._sequence += 1

    def run(self) -> float:
        """Run to completion; returns the final virtual time.

        Raises SimulationError if processes remain blocked on signals
        that will never be notified (a deadlock), exactly like
        :class:`EventLoop`.
        """
        queue = self._queue
        push = heapq.heappush
        pop = heapq.heappop
        tracer = self.tracer
        seq = self._sequence
        blocked = self._blocked
        now = self.now
        while queue:
            now, _s, kind, payload = pop(queue)
            if kind == 0:  # RESUME: payload is the generator's send
                try:
                    req = payload(now)
                except StopIteration:
                    continue
                cls = type(req)
                if cls is float:
                    push(queue, (req if req > now else now, seq, 0,
                                 payload))
                    seq += 1
                elif cls is tuple:
                    for akind, at, apayload in req[0]:
                        if akind == 4:  # DIRECT_WAKE: re-queue waiters
                            waiters = apayload._waiters
                            apayload._waiters = []
                            blocked -= len(waiters)
                            t = at if at > now else now
                            for waiter, _since in waiters:
                                push(queue, (t, seq, 0, waiter))
                                seq += 1
                        else:
                            push(queue, (at if at > now else now, seq,
                                         akind, apayload))
                            seq += 1
                    t = req[1]
                    if t is None:
                        continue
                    if type(t) is float:
                        push(queue, (t if t > now else now, seq, 0,
                                     payload))
                        seq += 1
                    else:  # Signal: push actions, then block
                        t._waiters.append((payload, now))
                        blocked += 1
                else:  # Signal: block until notified
                    req._waiters.append((payload, now))
                    blocked += 1
                continue
            if kind == 1:  # DELIVER: FIFO message arrival
                conn = payload[0]
                conn.arrivals[payload[1]] = payload[2]
                signal = conn.arrival_signal
            elif kind == 2:  # FREE: FIFO slot retired
                conn = payload[0]
                conn.consumed.add(payload[1])
                conn.consumed_count += 1
                signal = conn.slot_signal
            else:  # SEM: publish thread-block progress
                payload[0].value = payload[1]
                signal = payload[2]
            waiters = signal._waiters
            if waiters:
                signal._waiters = []
                blocked -= len(waiters)
                if tracer is not None:
                    label = signal.label
                    for waiter, since in waiters:
                        tracer.add_counter(f"wait.{label}_us",
                                           now - since, t_us=now)
                        push(queue, (now, seq, 0, waiter))
                        seq += 1
                else:
                    for waiter, _since in waiters:
                        push(queue, (now, seq, 0, waiter))
                        seq += 1
        self._sequence = seq
        self._blocked = blocked
        self.now = now
        if blocked:
            raise SimulationError(
                f"simulation deadlocked: {blocked} processes are "
                "waiting on signals nobody will notify"
            )
        return now
