"""Benchmark of the ``repro serve`` daemon, driven over the wire.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot-observed --seed 1 --seconds 20 --trace 0

Each run boots the daemon seven times (``setup_s`` is the median of
spawn -> first answered request): four times at the start, keeping the
last, and three times spread over the timed window.  It warms the kept
daemon up (caches and the daemon's 5000-span trace buffer), and then runs
twelve rounds, the daemon and the generator swapping processors each
round, of

1. a capacity phase: a closed loop with a fixed window;
2. a latency phase: an open loop at the workload's fixed rate, timed from
   each request's due time;
3. on the mixes without churn, an admin phase: the mix at the same rate
   with delegation jobs in it, which times grant and revoke.

A sample of ``probe`` calls, checked against the conformance oracle, ends
the run.  Phase sizes are request counts derived from ``--seconds``.  Every
answer is checked against its expected verdict; a wrong verdict, error,
refusal or stall fails the run.  With ``--trace 1`` the run also boots a
daemon with the bench-side timing wrappers and reports per-layer metrics
instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run goes
to ``.perfbench/runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
STATE = CHECKOUT / ".perfbench"
HOST = "127.0.0.1"
#: daemon boots at the start of a run (the last one is driven); ASIDE_BOOTS
#: more are spread over the rounds of the timed window, so that ``setup_s``,
#: the median of all of them, samples the machine over the whole run
START_BOOTS = 4
ASIDE_BOOTS = 3
#: seconds between the generator's samples of hypervisor steal
PERIOD = 0.25
#: the largest stolen share of a sampling interval that counts as clean
#: (one 10 ms tick of steal in a 0.25 s interval)
STEAL_LIMIT = 0.041
#: fewest reads a sampling interval needs to give a read-latency median
MIN_READS = 20
#: parts of each capacity phase in a traced drive, armed and disarmed in turn
TRACE_CHUNKS = 2
#: a capacity phase whose daemon was busy less than this share of the
#: wall time did not measure the daemon
BUSY_FLOOR = 0.85


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least
    ``fraction`` of the samples at or below it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


# -- the daemon process ----------------------------------------------------------


class Daemon:
    """One spawned daemon; :attr:`setup_s` is spawn -> first answer."""

    def __init__(self, tag: str, trace_out: Path | None = None) -> None:
        self.root = STATE / "roots" / f"{os.getpid()}-{tag}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.parent.mkdir(parents=True, exist_ok=True)
        self.log = STATE / f"daemon-{os.getpid()}-{tag}.log"
        command = [sys.executable, str(HERE / "daemon.py"),
                   "--root", str(self.root)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        # A fixed hash seed removes one source of run-to-run variation
        # (dict and set layouts inside the daemon).
        env = dict(os.environ, PYTHONHASHSEED="0")
        started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                         stderr=log, env=env, cwd=CHECKOUT)
        PLACEMENT.pin_daemon(self.proc.pid)
        try:
            self.info = json.loads(self._ready_line(timeout=120.0))
            self.port = int(self.info["port"])
            answer = self.request({"id": "boot", "method": "hello",
                                   "params": {"name": "perfbench-boot"}})
            if not answer.get("ok"):
                raise RuntimeError(f"hello failed: {answer}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _ready_line(self, timeout: float) -> bytes:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(f"daemon not ready in {timeout:.0f}s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("daemon exited during start-up:\n"
                               + self.log_tail())
        return line

    def request(self, message: dict[str, Any],
                timeout: float = 60.0) -> dict[str, Any]:
        """One blocking request on a fresh connection."""
        with socket.create_connection((HOST, self.port),
                                      timeout=timeout) as sock:
            sock.sendall(json.dumps(message).encode() + b"\n")
            with sock.makefile("rb") as stream:
                line = stream.readline()
        if not line:
            raise RuntimeError(f"no answer to {message['method']}")
        return json.loads(line)

    def log_tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def cpu_s(self) -> float:
        """CPU time the daemon has used (ns precision from schedstat)."""
        with open(f"/proc/{self.proc.pid}/schedstat") as handle:
            return int(handle.read().split()[0]) / 1e9

    def rss_kib(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmRSS for the daemon")

    def stop(self) -> None:
        """Drain the daemon through ``shutdown`` and wait for it to exit."""
        try:
            if self.proc.poll() is None:
                self.request({"id": "stop", "method": "shutdown",
                              "params": {"reason": "perfbench"}},
                             timeout=30.0)
                self.proc.wait(timeout=30.0)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)
        self.log.unlink(missing_ok=True)


def boot(count: int, trace_out: Path | None = None) -> tuple[Daemon,
                                                              list[dict]]:
    """Boot ``count`` times, keep the last daemon; returns set-up records."""
    records = []
    for n in range(count):
        daemon = Daemon(f"boot{n}", trace_out)
        records.append({"setup_s": daemon.setup_s, **daemon.info})
        if n < count - 1:
            daemon.stop()
    return daemon, records


def boot_aside(records: list[dict]) -> None:
    """Boot a daemon only to time it, stop it, and add its set-up record."""
    daemon = Daemon(f"aside{len(records)}")
    daemon.stop()
    records.append({"setup_s": daemon.setup_s, **daemon.info})


# -- one drive of a daemon ---------------------------------------------------------


def new_loop() -> asyncio.AbstractEventLoop:
    # select() wakes within tens of microseconds of a timer; epoll rounds
    # its timeout up to a whole millisecond, which would show up as
    # generator lateness in the open loop.
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


async def drive(daemon: Daemon, inputs: Any, traced: bool,
                boots: list[dict] | None = None) -> dict[str, Any]:
    """Run the phases against ``daemon``; returns raw measurements.

    A traced drive records spans during every other part of each capacity
    phase (armed and disarmed with ``bench_trace``, with ``status`` read
    around each) and skips the probe phase.  Given ``boots``, the drive
    times one more boot after each round, while ``daemon`` is idle.
    """
    from loadgen import Engine

    shape = inputs.workload.shape
    engine = Engine(steal=PLACEMENT.steal_s, period=PERIOD)
    out: dict[str, Any] = {"engine": engine, "capacity": [], "latency": [],
                           "admin": [], "armed": [], "capacity_cpu_s": [],
                           "gen_cpu_s": 0.0}
    for name in ("load", "admin"):
        await engine.connect(HOST, daemon.port, name)
    if shape.subscriber:
        # The subscriber shares the admin connection: the generator keeps
        # to two connections, and events interleave with admin answers.
        await engine.call("admin", "subscribe", {"topics": ["decision"]})
    out["warmup"] = await engine.closed(
        inputs.warmup, shape.window, budget(inputs.warmup, 500.0))

    out["status0"] = await engine.call("admin", "status")
    out["rss0"] = daemon.rss_kib()
    out["steal0"] = PLACEMENT.steal_s()
    every = max(1, len(inputs.rounds) // ASIDE_BOOTS)
    for number, (capacity, latency, admin) in enumerate(inputs.rounds, 1):
        PLACEMENT.swap(daemon.proc.pid)
        # A traced drive cuts each capacity phase into TRACE_CHUNKS parts
        # and records every other one; the parts in between run with the
        # wrappers disarmed, which prices tracing against the same daemon
        # at nearly the same moment.
        parts = split(capacity, TRACE_CHUNKS) if traced else [capacity]
        for index, part in enumerate(parts):
            armed = traced and index % 2 == 0
            if armed:
                before = await engine.call("admin", "status")
                marks = [await engine.call("admin", "bench_trace",
                                           {"arm": True})]
            cpu0, gen0 = daemon.cpu_s(), time.process_time()
            result = await engine.closed(part, shape.window,
                                         budget(part, 500.0))
            cpu = daemon.cpu_s() - cpu0
            out["gen_cpu_s"] += time.process_time() - gen0
            if armed:
                marks.append(await engine.call("admin", "bench_trace",
                                               {"arm": False}))
                after = await engine.call("admin", "status")
                out["armed"].append({"result": result, "cpu_s": cpu,
                                     "marks": marks,
                                     "status": (before, after)})
            else:
                out["capacity"].append(result)
                out["capacity_cpu_s"].append(cpu)
        out["latency"].append(await engine.open(
            latency, inputs.rate, budget(latency, inputs.rate / 2)))
        if admin.jobs:
            out["admin"].append(await engine.open(
                admin, inputs.rate, budget(admin, inputs.rate / 2)))
        if boots is not None and number % every == 0:
            boot_aside(boots)
    out["rss1"] = daemon.rss_kib()
    out["steal1"] = PLACEMENT.steal_s()
    out["status1"] = await engine.call("admin", "status")
    if traced:
        return out

    out["probes"] = await engine.closed(inputs.probes, 4,
                                        budget(inputs.probes, 20.0))
    out["status2"] = await engine.call("admin", "status")
    if shape.subscriber:
        # The ping's answer follows every event already written to the
        # subscriber's socket.
        await engine.call("admin", "ping")
        out["events"] = engine.conns["admin"].events
    return out


def split(phase: Any, parts: int) -> list[Any]:
    """``phase`` cut into ``parts`` consecutive phases."""
    size = -(-len(phase.jobs) // parts)
    return [type(phase)(phase.name, phase.jobs[n * size:(n + 1) * size])
            for n in range(parts)]


class Placement:
    """Which processor the daemon and the generator run on.

    With two or more processors the daemon gets one to itself and the
    generator another, so neither waits for the other's processor.  The
    speed of each virtual processor wanders on its own (on a 2-core virtual
    machine, a fixed loop run on both at once moved between half and full
    speed on each, with little correlation between them), so the drive
    swaps the two every round: the daemon's figures then average both.
    """

    def __init__(self) -> None:
        allowed = sorted(os.sched_getaffinity(0))
        self.pinned = len(allowed) >= 2
        self.daemon_cpu = allowed[-1]
        self.generator_cpu = allowed[0]

    def pin_generator(self) -> None:
        if self.pinned:
            os.sched_setaffinity(0, {self.generator_cpu})

    def swap(self, daemon_pid: int) -> None:
        """Exchange the daemon's and the generator's processors."""
        self.daemon_cpu, self.generator_cpu = (self.generator_cpu,
                                               self.daemon_cpu)
        self.pin_generator()
        self.pin_daemon(daemon_pid)

    def pin_daemon(self, pid: int) -> None:
        if self.pinned:
            os.sched_setaffinity(pid, {self.daemon_cpu})

    @staticmethod
    def steal_s() -> float:
        """Seconds the hypervisor has kept this machine's processors from
        running (the ``steal`` column of /proc/stat, summed over them)."""
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")


PLACEMENT = Placement()


def budget(phase: Any, slowest_rate: float) -> float:
    """Seconds a phase may take before the run counts as stalled."""
    return 30.0 + len(phase.ops()) / slowest_rate


def run_drive(daemon: Daemon, inputs: Any, traced: bool,
              boots: list[dict] | None = None) -> dict[str, Any]:
    # The generator's own full collections (its heap holds every frame of
    # the run) would stall it mid-phase and show up as lateness and as
    # latency; the drive allocates no reference cycles worth collecting.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        with asyncio.Runner(loop_factory=new_loop) as runner:
            return runner.run(drive(daemon, inputs, traced, boots))
    finally:
        gc.enable()
        gc.unfreeze()


# -- metrics -------------------------------------------------------------------------


def status_delta(before: dict, after: dict, *path: str) -> float:
    def dig(status: dict) -> float:
        value: Any = status
        for key in path:
            value = (value or {}).get(key)
        return float(value or 0)
    return dig(after) - dig(before)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def check_status(out: dict[str, Any], problems: list[str]) -> None:
    """Gates read from the daemon's own counters after the run."""
    status = out["status2"]
    plane = status["plane"]
    if plane["oracle_disagreements"]:
        problems.append(f"{plane['oracle_disagreements']} oracle "
                        f"disagreements")
    if not plane["probes"]:
        problems.append("no probe reached the oracle")
    shed = status["admission"]["shed"]["total"]
    if shed:
        problems.append(f"{shed} admission refusals")
    expired = sum(status["deadlines"].values())
    if expired:
        problems.append(f"{expired} deadline refusals")
    # A brownout sheds decision broadcasts (tier 1) or serves stale
    # decisions (tier 2): the daemon then ran a cheaper path than the
    # workload names, so the run does not count.
    brownout = status.get("brownout") or {}
    if brownout.get("max_level"):
        problems.append(f"brownout reached tier {brownout['max_level']}")
    if status["events_shed"]:
        problems.append(f"{status['events_shed']} decision events shed")
    if "events" in out:
        expected = out["engine"].reads_ok
        if out["events"] != expected:
            problems.append(f"subscriber saw {out['events']} decision "
                            f"events for {expected} answered reads")


def pooled(results: list[Any], kind: str) -> list[float]:
    return [x for result in results for x in result.latency.get(kind, [])]


def intervals(result: Any) -> list[tuple[float, float, float]]:
    """(start, end, stolen share) of each sampling interval of a phase: the
    seconds the hypervisor kept the machine's processors from running in
    it, over its length."""
    return [(t0, t1, (g1 - g0) / (t1 - t0))
            for (t0, g0), (t1, g1) in zip(result.samples, result.samples[1:])
            if t1 > t0]


def by_interval(results: list[Any], kind: str | None
                ) -> list[tuple[tuple[float, float, float], list[float]]]:
    """Every sampling interval of ``results``, each with the latencies of
    the ``kind`` ops answered in it (``kind`` None: the answer times of all
    ops)."""
    out = []
    for result in results:
        spans_ = intervals(result)
        starts = [start for start, _, _ in spans_]
        if kind is None:
            pairs = zip(result.answered_at, result.answered_at)
        else:
            pairs = zip(result.when.get(kind, []),
                        result.latency.get(kind, []))
        buckets: list[list[float]] = [[] for _ in spans_]
        for at, value in pairs:
            index = bisect.bisect_right(starts, at) - 1
            if 0 <= index < len(buckets):
                buckets[index].append(value)
        out += zip(spans_, buckets)
    return out


def unstolen(pairs: list[tuple[tuple[float, float, float], list[float]]]
             ) -> list[tuple[tuple[float, float, float], list[float]]]:
    """The intervals in which the hypervisor took (nearly) nothing.

    Steal comes in episodes of the host, not from the program, and slows
    the daemon and the generator alike.  If fewer than a quarter of the
    intervals are clean, the least-stolen quarter stands in for them.
    """
    clean = [pair for pair in pairs if pair[0][2] <= STEAL_LIMIT]
    if len(clean) * 4 < len(pairs):
        clean = sorted(pairs, key=lambda pair: pair[0][2])[
            :max(1, len(pairs) // 4)]
    return clean


def end_to_end(out: dict[str, Any], boots: list[dict],
               churn: bool) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics and the diagnostics that go with them.

    Times come from the sampling intervals without hypervisor steal
    (:func:`unstolen`): capacity is the answers of those intervals over
    their length, read latency the median of their medians, and grant and
    revoke latency the median of the writes answered in them.
    """
    caps, lats = out["capacity"], out["latency"]
    timed = lats if churn else out["admin"]
    cap_all = by_interval(caps, None)
    cap_clean = unstolen(cap_all)
    read_pairs = [pair for pair in by_interval(lats, "read") if pair[1]]
    # A very short run may have no interval with MIN_READS reads.
    read_all = ([pair for pair in read_pairs if len(pair[1]) >= MIN_READS]
                or read_pairs)
    read_clean = unstolen(read_all)
    writes = {kind: [value for _, values in unstolen(
        [pair for pair in by_interval(timed, kind) if pair[1]])
        for value in values] for kind in ("grant", "revoke")}
    window_ops = sum(phase.ops for phase in caps + lats + out["admin"])
    metrics = {
        "setup_s": statistics.median(b["setup_s"] for b in boots),
        "capacity_rps": sum(len(values) for _, values in cap_clean)
        / sum(t1 - t0 for (t0, t1, _), _ in cap_clean),
        "mediate_p50_ms": statistics.median(
            percentile(values, 0.5) for _, values in read_clean) * 1e3,
        "grant_p50_ms": percentile(writes["grant"], 0.50) * 1e3,
        "revoke_p50_ms": percentile(writes["revoke"], 0.50) * 1e3,
        "daemon_rss_mib": out["rss1"] / 1024.0,
        "rss_growth_kib_per_kreq": (out["rss1"] - out["rss0"])
        / (window_ops / 1000.0),
    }
    rates = [cap.ops / cap.elapsed for cap in caps]
    reads = pooled(lats, "read")
    grants, revokes = pooled(timed, "grant"), pooled(timed, "revoke")
    cap_ops = sum(cap.ops for cap in caps)
    late = [x for lat in lats for x in lat.late]
    half = len(reads) // 2
    busy = [cpu / cap.elapsed for cap, cpu in zip(caps, out["capacity_cpu_s"])]
    diagnostics = {
        "samples": {"capacity_ops": cap_ops, "latency_reads": len(reads),
                    "grants": len(grants), "revokes": len(revokes),
                    "boots": len(boots),
                    "capacity_intervals": [len(cap_clean), len(cap_all)],
                    "latency_intervals": [len(read_clean), len(read_all)],
                    "timed_grants": len(writes["grant"]),
                    "timed_revokes": len(writes["revoke"])},
        "capacity_all_rps": cap_ops / sum(cap.elapsed for cap in caps),
        "capacity_phase_rps": rates,
        "mediate_p50_pooled_ms": percentile(reads, 0.50) * 1e3,
        "mediate_p90_ms": statistics.median(
            percentile(values, 0.9) for _, values in read_clean) * 1e3,
        "mediate_p90_pooled_ms": percentile(reads, 0.90) * 1e3,
        "mediate_p99_ms": percentile(reads, 0.99) * 1e3,
        "grant_p50_pooled_ms": percentile(grants, 0.50) * 1e3,
        "revoke_p50_pooled_ms": percentile(revokes, 0.50) * 1e3,
        "grant_p90_ms": percentile(grants, 0.90) * 1e3,
        "revoke_p90_ms": percentile(revokes, 0.90) * 1e3,
        "daemon_busy": busy,
        "daemon_cpu_us_per_req": sum(out["capacity_cpu_s"]) / cap_ops * 1e6,
        "gen_cpu_us_per_req": out["gen_cpu_s"] / cap_ops * 1e6,
        "gen_late_p50_ms": percentile(late, 0.50) * 1e3,
        "gen_late_p99_ms": percentile(late, 0.99) * 1e3,
        "window_steal_s": out["steal1"] - out["steal0"],
        "offered_rps": sum(lat.ops for lat in lats)
        / sum(lat.elapsed for lat in lats),
        "drift": {
            "capacity_rps": _drift(rates[0], rates[-1]),
            "mediate_p50_ms": _drift(percentile(reads[:half], 0.5),
                                     percentile(reads[half:], 0.5)),
        },
        "boots": boots,
    }
    for number, share in enumerate(busy, 1):
        if share < BUSY_FLOOR:
            print(f"perfbench: warning: daemon busy only {share:.0%} of "
                  f"capacity phase {number}; capacity_rps did not measure "
                  f"the daemon alone", file=sys.stderr)
    return metrics, diagnostics


def _drift(first: float, second: float) -> float:
    """The end of a window against its start, as a share."""
    return (second - first) / first if first else 0.0


def per_layer(plain: dict[str, Any], traced: dict[str, Any],
              boots: list[dict], spans_file: Path
              ) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of the armed capacity phases of the traced boot:
    self times from the spans, counts from ``status`` around each phase,
    with the daemon and generator CPU of the untraced drive beside them."""
    import spans

    with open(spans_file, encoding="utf-8") as handle:
        raw = json.load(handle)
    armed = traced["armed"]
    caps = [phase["result"] for phase in armed]
    agg = spans.self_times(raw, keep=lambda request: request.startswith(
        ("cl", "ca")))
    requests = agg["requests"]
    if requests != sum(cap.ops for cap in caps):
        raise RuntimeError(f"traced {requests} requests of "
                           f"{sum(cap.ops for cap in caps)}")
    table = agg["spans"]

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def delta(*path: str) -> float:
        return sum(status_delta(*phase["status"], *path) for phase in armed)

    def mark_delta(key: str) -> float:
        return sum(phase["marks"][1]["sigcache"][key]
                   - phase["marks"][0]["sigcache"][key] for phase in armed)

    metrics: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}_us"] = (table.get(name, {}).get("self_s", 0.0)
                                 / requests * 1e6)
    plain_ops = sum(cap.ops for cap in plain["capacity"])
    untraced_cpu = sum(plain["capacity_cpu_s"]) / plain_ops * 1e6
    traced_cpu = sum(phase["cpu_s"] for phase in armed) / requests * 1e6
    disarmed_cpu = sum(traced["capacity_cpu_s"]) / sum(
        cap.ops for cap in traced["capacity"]) * 1e6
    writes = len(pooled(caps, "grant")) + len(pooled(caps, "revoke"))
    hits, misses = delta("plane", "cache", "hits"), delta("plane", "cache",
                                                          "misses")
    tm_hits = delta("plane", "tm_cache", "hits")
    tm_misses = delta("plane", "tm_cache", "misses")
    sig_hits, sig_misses = mark_delta("hits"), mark_delta("misses")
    last = armed[-1]
    metrics.update({
        "protocol.response_bytes": agg["response_bytes"] / requests,
        "server.events_per_req": ratio(delta("events_broadcast"),
                                       delta("requests_served")),
        "admission.refusals": delta("admission", "shed", "total"),
        "obs.spans_per_req": calls("obs.tracer_start") / requests,
        "stack.cache_hit_ratio": ratio(hits, hits + misses),
        "stack.cache_entries": float(
            last["status"][1]["plane"]["cache"]["entries"]),
        "stack.invalidated": delta("plane", "cache", "invalidated"),
        "stack.survived_churn": delta("plane", "cache", "survived_churn"),
        "keynote.cache_hit_ratio": ratio(tm_hits, tm_hits + tm_misses),
        "keynote.selective_evictions": delta("plane", "tm_cache",
                                             "selective_evictions"),
        "keynote.full_flushes": delta("plane", "tm_cache", "full_flushes"),
        "crypto.sigverify_hit_ratio": ratio(sig_hits, sig_hits + sig_misses),
        "crypto.sigcache_entries": float(
            last["marks"][1]["sigcache"]["entries"]),
        "wal.appends_per_write": ratio(calls("wal.append"), writes),
        "audit.records_retained": float(last["marks"][1]["audit_records"]),
        "daemon.cpu_us_per_req": untraced_cpu,
        "gen.cpu_us_per_req": plain["gen_cpu_s"] / plain_ops * 1e6,
        "gen.late_p99_ms": percentile(
            [x for lat in plain["latency"] for x in lat.late], 0.99) * 1e3,
        "trace.daemon_cpu_us_per_req": traced_cpu,
        "trace.overhead_pct": (traced_cpu - disarmed_cpu) / disarmed_cpu
        * 100.0,
        "setup.import_s": statistics.median(b["import_s"] for b in boots),
        "setup.plane_s": statistics.median(b["plane_s"] for b in boots),
        "setup.policy_s": statistics.median(b["policy_s"] for b in boots),
    })
    accounted = sum(metrics[f"{name}_us"] for name in spans.SPAN_NAMES)
    metrics["trace.unaccounted_us"] = traced_cpu - accounted
    waterfall = {name: {"self_us_per_req": entry["self_s"] / requests * 1e6,
                        "calls_per_req": entry["calls"] / requests}
                 for name, entry in sorted(table.items())}
    waterfall["unaccounted"] = {
        "self_us_per_req": metrics["trace.unaccounted_us"]}
    return metrics, {"waterfall": waterfall, "traced_requests": requests,
                     "writes": writes, "plain_gen_late_p50_ms": percentile(
                         [x for lat in plain["latency"] for x in lat.late],
                         0.5) * 1e3}


# -- entry point -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro" / "serve" / "server.py").is_file():
        print(f"perfbench: no repro sources under {CHECKOUT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    import workloads
    from loadgen import GeneratorError

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    STATE.mkdir(exist_ok=True)
    PLACEMENT.pin_generator()
    inputs = workloads.build(args.workload, args.seed, args.seconds)
    churn = args.workload == "delegation-churn"
    record: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "rate": inputs.rate}
    problems: list[str] = []
    daemon = None
    # A caller may stop a run with SIGTERM: unwind, so the
    # ``finally`` below stops the daemon too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        daemon, boots = boot(START_BOOTS)
        plain = run_drive(daemon, inputs, traced=False, boots=boots)
        daemon.stop()
        check_status(plain, problems)
        tally = plain["engine"].tally
        if args.trace:
            spans_file = STATE / f"spans-{os.getpid()}.json"
            daemon, _ = boot(1, trace_out=spans_file)
            traced = run_drive(daemon, inputs, traced=True)
            daemon.stop()
            tally.attempted += traced["engine"].tally.attempted
            tally.failed += traced["engine"].tally.failed
            metrics, detail = per_layer(plain, traced, boots, spans_file)
            spans_file.unlink(missing_ok=True)
        else:
            metrics, detail = end_to_end(plain, boots, churn)
    except (GeneratorError, RuntimeError, OSError,
            asyncio.TimeoutError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        if daemon is not None:
            print(daemon.log_tail(), file=sys.stderr)
        return 1
    finally:
        if daemon is not None:
            daemon.kill()
    record.update({"tally": vars(tally), "problems": problems,
                   "detail": detail})
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise KeyError(f"metrics differ from BENCHMARK.json: "
                       f"{sorted(set(units) ^ set(metrics))}")
    # A failed run-level check (oracle, refusals, lost events) counts as
    # one failed operation each on top of the per-request failures.
    failed = tally.failed + len(problems)
    result = {"correct": failed == 0, "attempted": tally.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name],
                                 "unit": units[name]} for name in units}}
    record["result"] = result
    runs = STATE / "runs"
    runs.mkdir(exist_ok=True)
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              f".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
