"""A lean single-threaded load generator for the serve daemon.

Frames are encoded before the run (:mod:`workloads`).  The daemon handles
one connection serially, so answers come back in send order: each
connection keeps a FIFO of requests in flight and matches every answer to
its head, with no future or task per request.  Only the handful of control
calls (``hello``, ``status``, ``shutdown``) await a future.

Two loops share the answer path:

- :meth:`Engine.closed` keeps a fixed number of jobs running, each sending
  its next group as soon as the previous one is answered;
- :meth:`Engine.open` sends every op at its due time on a fixed schedule
  (``slot / rate``), or as soon as its group is released if that is later,
  and times each answer from the due time.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from workloads import Job, Op, Phase

perf_counter = time.perf_counter


class GeneratorError(Exception):
    """The run cannot continue (lost connection, stalled daemon)."""


class Conn(asyncio.Protocol):
    """One pipelined connection to the daemon."""

    def __init__(self, engine: "Engine", name: str) -> None:
        self.engine = engine
        self.name = name
        self.inflight: deque = deque()
        self.transport: asyncio.Transport | None = None
        self.events = 0
        self._buffer = b""

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        now = perf_counter()
        if not self.inflight:
            # Nothing awaits an answer here, so every complete line is an
            # event: count them without splitting.
            lines = data.count(b"\n")
            if lines:
                self.events += lines
                self._buffer = data[data.rindex(b"\n") + 1:]
            else:
                self._buffer += data
            return
        if self._buffer:
            data = self._buffer + data
        lines = data.split(b"\n")
        self._buffer = lines.pop()
        for line in lines:
            # Frames are key-sorted JSON, so an event starts with "data".
            if line.startswith(b'{"data"'):
                self.events += 1
            elif self.inflight:
                self.engine.answered(self.inflight.popleft(), line, now)
            else:
                self.engine.fail(f"unsolicited frame on {self.name}")

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.inflight:
            return
        problem = (f"connection {self.name} lost with "
                   f"{len(self.inflight)} requests in flight")
        for pending in self.inflight:
            if pending.future is not None and not pending.future.done():
                pending.future.set_exception(GeneratorError(problem))
        self.engine.fail(problem)

    def send(self, pending: "Pending", frame: bytes) -> None:
        self.inflight.append(pending)
        self.transport.write(frame)  # type: ignore[union-attr]


class Pending:
    """One request in flight: a workload op (timed from ``due``) or a
    control call (answered through ``future``)."""

    __slots__ = ("op", "job", "due", "future")

    def __init__(self, op: Op | None, job: "JobRun | None", due: float,
                 future: asyncio.Future | None = None) -> None:
        self.op = op
        self.job = job
        self.due = due
        self.future = future


class JobRun:
    __slots__ = ("job", "group", "remaining")

    def __init__(self, job: Job) -> None:
        self.job = job
        self.group = 0
        self.remaining = 0


@dataclass
class PhaseResult:
    """What one phase measured.  Latencies are seconds per op kind."""

    name: str
    ops: int = 0
    started: float = 0.0
    finished: float = 0.0
    latency: dict[str, list[float]] = field(default_factory=dict)
    late: list[float] = field(default_factory=list)
    #: answer time of every op, in answer order
    answered_at: list[float] = field(default_factory=list)
    #: answer time of each op of ``latency``, per op kind
    when: dict[str, list[float]] = field(default_factory=dict)
    #: (time, seconds stolen from the daemon's processor so far), sampled
    #: every ``Engine.period`` seconds from the phase's start to its end
    samples: list[tuple[float, float]] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


@dataclass
class Tally:
    """Correctness accounting over the whole run."""

    attempted: int = 0
    failed: int = 0
    wrong_verdicts: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    disagreements: int = 0


class Engine:
    """Drives phases of pre-encoded ops over one load and one admin
    connection."""

    def __init__(self, steal: Callable[[], float], period: float) -> None:
        self.loop = asyncio.get_running_loop()
        self.steal = steal
        self.period = period
        self._sampler: asyncio.TimerHandle | None = None
        self.conns: dict[str, Conn] = {}
        self.tally = Tally()
        #: answered reads, each of which a decision subscriber must see
        self.reads_ok = 0
        self._control = 0
        self._problem: str | None = None
        self._result: PhaseResult | None = None
        self._done: asyncio.Future | None = None
        self._jobs: Any = None
        self._outstanding = 0
        self._open = False
        self._rate = 1.0
        self._t0 = 0.0
        self._heap: list = []
        self._seq = 0
        self._timer: asyncio.TimerHandle | None = None
        self._timer_due = 0.0

    async def connect(self, host: str, port: int, name: str) -> Conn:
        _, conn = await self.loop.create_connection(
            lambda: Conn(self, name), host, port)
        self.conns[name] = conn
        await self.call(name, "hello", {"name": f"perfbench-{name}",
                                        "role": "bench"})
        return conn

    # -- control calls -------------------------------------------------------

    async def call(self, conn: str, method: str,
                   params: dict[str, Any] | None = None,
                   timeout: float = 60.0) -> Any:
        """One awaited control call; raises on an error answer."""
        self._control += 1
        request_id = f"ctl{self._control}"
        frame = (json.dumps({"id": request_id, "method": method,
                             "params": params or {}},
                            separators=(",", ":"), sort_keys=True)
                 + "\n").encode()
        future = self.loop.create_future()
        self.conns[conn].send(Pending(None, None, 0.0, future), frame)
        message = await asyncio.wait_for(future, timeout)
        if not message.get("ok"):
            raise GeneratorError(f"{method} failed: {message.get('error')}")
        return message["result"]

    def fail(self, problem: str) -> None:
        if self._problem is None:
            self._problem = problem
        if self._done is not None and not self._done.done():
            self._done.set_result(None)

    # -- phases ----------------------------------------------------------------

    async def closed(self, phase: Phase, window: int,
                     timeout: float) -> PhaseResult:
        """Keep ``window`` jobs running until the phase's jobs are done."""
        self._begin(phase, open_loop=False)
        for _ in range(min(window, len(phase.jobs))):
            self._start_job()
        return await self._finish(timeout)

    async def open(self, phase: Phase, rate: float,
                   timeout: float) -> PhaseResult:
        """Send each op at ``t0 + slot / rate`` (or on release, if later)."""
        self._begin(phase, open_loop=True)
        self._rate = rate
        self._t0 = perf_counter() + 0.02
        self._result.started = self._t0  # type: ignore[union-attr]
        for job in phase.jobs:
            run = JobRun(job)
            self._release(run)
        self._arm()
        return await self._finish(timeout)

    def _begin(self, phase: Phase, open_loop: bool) -> None:
        self._result = PhaseResult(phase.name, started=perf_counter())
        self._done = self.loop.create_future()
        self._jobs = iter(phase.jobs)
        self._outstanding = len(phase.jobs)
        self._open = open_loop
        self._heap = []
        self._sample()
        if not phase.jobs:
            self._done.set_result(None)

    async def _finish(self, timeout: float) -> PhaseResult:
        assert self._done is not None and self._result is not None
        try:
            await asyncio.wait_for(self._done, timeout)
        except asyncio.TimeoutError:
            self.fail(f"phase {self._result.name} stalled past {timeout:.0f}s")
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        if self._problem is not None:
            raise GeneratorError(self._problem)
        result = self._result
        result.finished = perf_counter()
        result.samples.append((result.finished, self.steal()))
        return result

    def _sample(self) -> None:
        self._result.samples.append(  # type: ignore[union-attr]
            (perf_counter(), self.steal()))
        self._sampler = self.loop.call_later(self.period, self._sample)

    def _start_job(self) -> None:
        job = next(self._jobs, None)
        if job is not None:
            self._release(JobRun(job))

    def _release(self, run: JobRun) -> None:
        """Release the job's current group."""
        group = run.job.groups[run.group]
        run.remaining = len(group)
        if not self._open:
            now = perf_counter()
            for op in group:
                self._send(op, run, now)
            return
        released = perf_counter()
        for op in group:
            self._seq += 1
            heapq.heappush(self._heap, (self._t0 + op.slot / self._rate,
                                        self._seq, op, run, released))

    def _send(self, op: Op, run: JobRun, due: float) -> None:
        self.tally.attempted += 1
        self.conns[op.conn].send(Pending(op, run, due), op.frame)

    # -- the open-loop clock ------------------------------------------------

    def _arm(self) -> None:
        if not self._heap:
            return
        due = self._heap[0][0]
        if self._timer is not None:
            if self._timer_due <= due:
                return
            self._timer.cancel()
        self._timer_due = due
        self._timer = self.loop.call_at(
            self.loop.time() + (due - perf_counter()), self._tick)

    def _tick(self) -> None:
        self._timer = None
        self._pump()
        self._arm()

    def _pump(self) -> None:
        """Send every released op that is due.  Lateness is counted from
        the later of due and release time, so it is the generator's own
        delay, not a wait for an earlier answer of the same job."""
        heap = self._heap
        late = self._result.late  # type: ignore[union-attr]
        now = perf_counter()
        while heap and heap[0][0] <= now:
            due, _, op, run, released = heapq.heappop(heap)
            self._send(op, run, due)
            late.append(now - max(due, released))

    # -- answers ---------------------------------------------------------------

    def answered(self, pending: Pending, line: bytes, now: float) -> None:
        message = json.loads(line)
        if pending.future is not None:
            if not pending.future.done():
                pending.future.set_result(message)
            return
        op = pending.op
        assert op is not None and self._result is not None
        self._check(op, message)
        result = self._result
        result.ops += 1
        result.answered_at.append(now)
        result.latency.setdefault(op.kind, []).append(now - pending.due)
        result.when.setdefault(op.kind, []).append(now)
        run = pending.job
        assert run is not None
        run.remaining -= 1
        if run.remaining:
            return
        run.group += 1
        if run.group < len(run.job.groups):
            self._release(run)
            if self._open:
                self._pump()
                self._arm()
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            if self._done is not None and not self._done.done():
                self._done.set_result(None)
        elif not self._open:
            self._start_job()

    def _check(self, op: Op, message: dict[str, Any]) -> None:
        tally = self.tally
        if message.get("id") != op.id:
            tally.failed += 1
            tally.errors["out_of_order"] = tally.errors.get(
                "out_of_order", 0) + 1
            return
        if not message.get("ok"):
            kind = str((message.get("error") or {}).get("type", "error"))
            tally.failed += 1
            tally.errors[kind] = tally.errors.get(kind, 0) + 1
            return
        result = message["result"]
        if op.kind == "read":
            self.reads_ok += 1
            verdict = result.get("allowed")
            if "agree" in result and not result["agree"]:
                tally.disagreements += 1
                tally.failed += 1
                return
        elif op.kind == "grant":
            verdict = result.get("added")
        else:
            verdict = result.get("revoked")
        if verdict is not op.expect:
            tally.wrong_verdicts += 1
            tally.failed += 1
