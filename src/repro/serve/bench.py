"""The first wall-clock benchmark: ``repro serve-bench``.

Every earlier benchmark in this repo runs on the simulated clock; the serve
plane is the first component whose performance is *real*.  The bench boots
an in-process daemon on a durable root, connects ``clients`` concurrent
:class:`~repro.serve.client.ServeClient` connections (the acceptance floor
is 32), and drives two mediation passes over distinct per-client requests:

- **cold** — every request is new, so each mediation runs the full stack
  (compliance fixpoint included);
- **warm** — the identical requests again, now served by the PR-3
  mediation cache.

Every ``probe_every``-th request goes through the ``probe`` API instead,
which re-derives the expected verdict from the PR-5 conformance oracle and
reports agreement; the bench requires **zero** disagreements.  The run ends
with a deliberately contended drain: a final wave of calls is launched and
``shutdown`` is issued while they are in flight — every call must complete
(succeed or be refused with a drain error; none lost), and the drain report
must show the WAL flushed.

The emitted ``BENCH_7.json`` carries requests/sec, p50/p99 per-request
latency for both passes, oracle agreement and the drain proof.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import nearest_rank
from repro.serve.client import ServeCallError, ServeClient
from repro.serve.plane import ServePolicyPlane
from repro.serve.server import ReproServer
from repro.util.clock import WallClock

#: operations the bench's trust root authorises; ``admin`` is deliberately
#: left out so the run exercises agreed-upon denials too
ALLOWED_OPS = ("stage", "execute", "fetch")
DENIED_OP = "admin"


def _client_requests(index: int, requests: int) -> list[dict[str, Any]]:
    """The per-client request set (identical across cold/warm passes)."""
    ops = ALLOWED_OPS + (DENIED_OP,)
    return [{
        "user": f"user{index:02d}",
        "user_key": f"Kuser{index:02d}",
        "object_type": "graph",
        "operation": ops[n % len(ops)],
        "attributes": {"app_domain": "WebCom"},
    } for n in range(requests)]


async def _drive_client(client: ServeClient, requests: list[dict[str, Any]],
                        probe_every: int) -> dict[str, Any]:
    """One client's pass: timed mediations with periodic oracle probes."""
    latencies: list[float] = []
    disagreements = 0
    probes = 0
    denials = 0
    for n, params in enumerate(requests):
        method = "probe" if probe_every and n % probe_every == 0 \
            else "mediate"
        started = time.perf_counter()
        result = await client.call(method, params)
        latencies.append(time.perf_counter() - started)
        if not result["allowed"]:
            denials += 1
        if method == "probe":
            probes += 1
            if not result["agree"]:
                disagreements += 1
    return {"latencies": latencies, "probes": probes,
            "disagreements": disagreements, "denials": denials}


def _pass_stats(outcomes: list[dict[str, Any]],
                elapsed: float) -> dict[str, Any]:
    latencies = [lat for out in outcomes for lat in out["latencies"]]
    return {
        "requests": len(latencies),
        "seconds": elapsed,
        "requests_per_sec": (len(latencies) / elapsed if elapsed > 0
                             else 0.0),
        "p50_ms": nearest_rank(latencies, 0.50, empty=0.0) * 1000.0,
        "p99_ms": nearest_rank(latencies, 0.99, empty=0.0) * 1000.0,
        "probes": sum(out["probes"] for out in outcomes),
        "disagreements": sum(out["disagreements"] for out in outcomes),
        "denials": sum(out["denials"] for out in outcomes),
    }


async def _drain_wave(host: str, port: int, clients: int) -> dict[str, Any]:
    """Launch a wave of calls and shut the server down mid-flight.

    Every call must resolve — an ``ok`` response or an explicit drain
    refusal — and none may be lost to a torn-down connection or timeout.
    """
    wave = [await ServeClient(f"wave-{n}").connect(host, port)
            for n in range(clients)]
    control = await ServeClient("control").connect(host, port)
    await control.hello(role="control")
    try:
        calls = [asyncio.create_task(
            client.call("mediate", _client_requests(n, 1)[0], timeout=30.0))
            for n, client in enumerate(wave)]
        shutdown_ack = await control.call("shutdown",
                                          {"reason": "bench drain"})
        completed = 0
        refused = 0
        lost = 0
        for call in calls:
            try:
                await call
                completed += 1
            except ServeCallError as exc:
                if "draining" in str(exc):
                    refused += 1
                else:
                    lost += 1
            except Exception:
                lost += 1
        return {"draining_ack": bool(shutdown_ack.get("draining")),
                "wave": len(calls), "completed": completed,
                "refused": refused, "lost": lost}
    finally:
        for client in wave:
            await client.close()
        await control.close()


async def _run(clients: int, requests: int, probe_every: int,
               root: "Path | str") -> dict[str, Any]:
    plane = ServePolicyPlane(root=root, clock=WallClock(), cache_ttl=300.0)
    keys = []
    for index in range(clients):
        plane.keystore.create(f"Kuser{index:02d}")
        keys.append(f"Kuser{index:02d}")
    licensees = " || ".join(f'"{key}"' for key in keys)
    ops = " || ".join(f'op=="{op}"' for op in ALLOWED_OPS)
    plane.session.add_policy(
        f"Authorizer: POLICY\n"
        f"Licensees: {licensees}\n"
        f'Conditions: app_domain=="WebCom" && ({ops});')
    server = await ReproServer(plane).start()
    host, port = server.host, server.port
    pool = [await ServeClient(f"bench-{n}").connect(host, port)
            for n in range(clients)]
    observer = await ServeClient("observer").connect(host, port)
    try:
        for client in pool:
            await client.hello(role="bench")
        await observer.hello(role="observer")
        await observer.subscribe("decision", "server")
        workloads = [_client_requests(n, requests)
                     for n in range(clients)]
        passes = {}
        for label in ("cold", "warm"):
            started = time.perf_counter()
            outcomes = await asyncio.gather(*[
                _drive_client(client, workload, probe_every)
                for client, workload in zip(pool, workloads)])
            passes[label] = _pass_stats(list(outcomes),
                                        time.perf_counter() - started)
        status = await observer.call("status")
        events_seen = observer.events.qsize()
    finally:
        for client in pool:
            await client.close()
        await observer.close()
    drain = await _drain_wave(host, port, clients)
    report = await server.serve_until_shutdown()
    cache = status["plane"]["cache"]
    return {
        "bench": "BENCH_7",
        "timescale": "wall",
        "clients": clients,
        "requests_per_client": requests,
        "cold": passes["cold"],
        "warm": passes["warm"],
        "cache": cache,
        "oracle": {
            "probes": passes["cold"]["probes"] + passes["warm"]["probes"],
            "disagreements": (passes["cold"]["disagreements"]
                              + passes["warm"]["disagreements"]),
        },
        "events_observed": events_seen,
        "drain": {**drain,
                  "wal_flushed": report["wal_flushed"],
                  "inflight_after_drain": report["inflight_after_drain"],
                  "snapshot": report.get("snapshot")},
        "server": {
            "requests_served": report["requests_served"],
            "duplicates_served": report["duplicates_served"],
            "events_broadcast": report["events_broadcast"],
        },
    }


def run_serve_bench(clients: int = 32, requests: int = 12,
                    probe_every: int = 4,
                    root: "Path | str | None" = None) -> dict[str, Any]:
    """Run the wall-clock serve benchmark; returns the BENCH_7 report."""
    if root is None:
        with tempfile.TemporaryDirectory(prefix="serve-bench-") as tmp:
            return asyncio.run(_run(clients, requests, probe_every, tmp))
    return asyncio.run(_run(clients, requests, probe_every, root))


def check_bench(report: dict[str, Any],
                min_clients: int = 32) -> list[str]:
    """The acceptance gates of ``repro serve-bench --check``.

    Returns the list of failed gates (empty means the run passes).  The
    gates are correctness properties, not speed thresholds — wall-clock
    speed on shared CI hardware is reported, never asserted.
    """
    failures = []
    if report["clients"] < min_clients:
        failures.append(f"only {report['clients']} concurrent clients "
                        f"(need >= {min_clients})")
    if report["oracle"]["probes"] == 0:
        failures.append("no oracle probes ran")
    if report["oracle"]["disagreements"] != 0:
        failures.append(f"{report['oracle']['disagreements']} oracle "
                        f"disagreements (need 0)")
    drain = report["drain"]
    if drain["lost"] != 0:
        failures.append(f"{drain['lost']} in-flight calls lost at drain "
                        f"(need 0)")
    if not drain["wal_flushed"]:
        failures.append("WAL was not flushed at shutdown")
    if drain["inflight_after_drain"] != 0:
        failures.append("drain finished with requests still in flight")
    if not drain["draining_ack"]:
        failures.append("shutdown was not acknowledged")
    for label in ("cold", "warm"):
        if report[label]["requests"] == 0:
            failures.append(f"{label} pass ran no requests")
    if report["warm"]["denials"] != report["cold"]["denials"]:
        failures.append("cold and warm passes disagree on denials")
    if report["cache"]["hits"] == 0:
        failures.append("warm pass produced no mediation-cache hits")
    return failures
