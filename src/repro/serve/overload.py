"""The hostile-traffic chaos pack: ``repro overload-bench`` (OVERLOAD_9).

BENCH_7 proved the serve plane is *fast* when traffic is polite.  This
bench proves it is *survivable* when traffic is hostile.  Three seeded
scenarios drive a real daemon (tight admission limits, fast brownout
hysteresis) with 4x its intended client population:

- **flash_crowd** — every client floods cacheable mediations at once: the
  classic synchronized stampede.  Admission must shed, brownout must
  engage, and goodput for admitted work must hold.
- **cache_busting** — every request carries a unique attribute, so the
  PR-3 mediation cache is useless and each admitted request pays the full
  stack.  The expensive-traffic worst case.
- **revocation_storm** — an admin client add/revokes a credential in a
  tight loop while the flood runs: every revocation flushes decision
  caches, so the flood keeps re-paying mediation *and* the control-plane
  revocations must land while the plane sheds data-plane load.

Every scenario also runs a **control client** (pings + status on the
CONTROL priority class) concurrently with the flood — the bench requires
it is *never* shed — and flood clients retry through the budgeted
:meth:`~repro.serve.client.ServeClient.call_with_retry` discipline, so the
run exercises the whole loop: refusal → hint → jittered backoff → budget.

The accounting identity at the heart of the report: the sum of admission
refusals *observed by clients* must equal the sum of sheds *counted by the
server*.  Together with ``lost == 0`` it proves no shed request was
silently dropped — and since a refusal is an error response, no shed
request was answered with an allow.  Oracle probes ride along in the
flood; every *accepted* probe must agree with the PR-5 conformance oracle.

A final deadline scenario sends pre-expired and generous deadlines and
checks expired work is refused before dispatch (counted apart from sheds).
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.keynote.credential import Credential
from repro.obs.metrics import nearest_rank
from repro.serve.admission import (
    AdmissionController,
    BrownoutController,
    RetryBudget,
)
from repro.serve.bench import ALLOWED_OPS, DENIED_OP
from repro.serve.client import ServeCallError, ServeClient
from repro.serve.plane import ServePolicyPlane
from repro.serve.server import ReproServer
from repro.util.clock import WallClock

#: the hostile scenarios, in the order they run
SCENARIOS = ("flash_crowd", "cache_busting", "revocation_storm")

#: offered load relative to the baseline population
OVERLOAD_FACTOR = 4

#: client-side refusal types that correspond to server-side sheds
REFUSAL_TYPES = ("OverloadedError", "RateLimitedError")


def _build_plane(root: "Path | str | None",
                 users: int) -> ServePolicyPlane:
    """A durable plane whose trust root authorises ``users`` principals."""
    plane = ServePolicyPlane(root=root, clock=WallClock(), cache_ttl=300.0)
    plane.keystore.create("KWebCom")
    keys = []
    for index in range(users):
        plane.keystore.create(f"Kuser{index:02d}")
        keys.append(f"Kuser{index:02d}")
    licensees = " || ".join(f'"{key}"' for key in keys)
    ops = " || ".join(f'op=="{op}"' for op in ALLOWED_OPS)
    plane.session.add_policy(
        f"Authorizer: POLICY\n"
        f"Licensees: {licensees}\n"
        f'Conditions: app_domain=="WebCom" && ({ops});')
    return plane


def _requests_for(scenario: str, index: int,
                  requests: int) -> list[dict[str, Any]]:
    """One client's request set under a scenario's traffic shape."""
    ops = ALLOWED_OPS + (DENIED_OP,)
    out = []
    for n in range(requests):
        attributes: dict[str, str] = {"app_domain": "WebCom"}
        if scenario == "cache_busting":
            # A unique attribute per request: every cache key is new, so
            # each admitted request pays the full mediation stack.
            attributes["nonce"] = f"bust-{index}-{n}"
        out.append({
            "user": f"user{index:02d}",
            "user_key": f"Kuser{index:02d}",
            "object_type": "graph",
            "operation": ops[n % len(ops)],
            "attributes": attributes,
        })
    return out


def _storm_grant(plane: ServePolicyPlane) -> str:
    """The credential the revocation storm add/revokes (a storm-only
    principal, so flood verdicts stay oracle-stable throughout)."""
    plane.keystore.create("Kstorm")
    return Credential.build(
        "KWebCom", '"Kstorm"', 'app_domain=="WebCom" && op=="stage"',
    ).sign(plane.keystore.pair("KWebCom").private).to_text()


#: concurrent requests each flood client keeps in the air — a stampede,
#: not a polite sequential trickle (that is what makes the flood hostile)
FLOOD_WAVE = 8


async def _flood_client(client: ServeClient,
                        requests: list[dict[str, Any]],
                        probe_every: int) -> dict[str, Any]:
    """One hostile client's pass: concurrent waves of budgeted retries."""
    latencies: list[float] = []
    stats = {"ok": 0, "denied": 0, "refused": 0, "deadline": 0,
             "errors": 0, "lost": 0, "probes": 0, "disagreements": 0}

    async def _one(n: int, params: dict[str, Any]) -> None:
        method = "probe" if probe_every and n % probe_every == 0 \
            else "mediate"
        started = time.perf_counter()
        try:
            result = await client.call_with_retry(method, params,
                                                  max_attempts=3,
                                                  timeout=30.0)
        except ServeCallError as exc:
            if exc.error_type in REFUSAL_TYPES:
                stats["refused"] += 1
            elif exc.error_type == "DeadlineExceededError":
                stats["deadline"] += 1
            else:
                stats["errors"] += 1
            return
        except Exception:
            stats["lost"] += 1
            return
        latencies.append(time.perf_counter() - started)
        if result["allowed"]:
            stats["ok"] += 1
        else:
            stats["denied"] += 1
        if method == "probe":
            stats["probes"] += 1
            if not result["agree"]:
                stats["disagreements"] += 1

    for start in range(0, len(requests), FLOOD_WAVE):
        wave = requests[start:start + FLOOD_WAVE]
        await asyncio.gather(*[_one(start + k, params)
                               for k, params in enumerate(wave)])
    return {**stats, "latencies": latencies}


async def _control_loop(client: ServeClient,
                        stop: asyncio.Event) -> dict[str, Any]:
    """CONTROL-priority traffic riding through the flood, un-sheddable."""
    calls = 0
    refused = 0
    errors = 0
    while not stop.is_set():
        for method in ("ping", "status"):
            try:
                await client.call(method, {})
            except ServeCallError as exc:
                if exc.error_type in REFUSAL_TYPES:
                    refused += 1
                else:
                    errors += 1
            calls += 1
        await asyncio.sleep(0.02)
    return {"calls": calls, "refused": refused, "errors": errors}


async def _storm_loop(client: ServeClient, grant: str,
                      stop: asyncio.Event) -> dict[str, Any]:
    """The revocation storm: install/revoke cycles until the flood ends."""
    cycles = 0
    refused = 0
    while not stop.is_set():
        try:
            await client.call_with_retry("add_credential", {"text": grant},
                                         max_attempts=3)
            await client.call("revoke", {"text": grant})
            cycles += 1
        except ServeCallError as exc:
            if exc.error_type in REFUSAL_TYPES:
                refused += 1
            else:
                raise
        await asyncio.sleep(0)
    return {"cycles": cycles, "refused": refused}


def _aggregate(outcomes: list[dict[str, Any]],
               elapsed: float) -> dict[str, Any]:
    latencies = [lat for out in outcomes for lat in out["latencies"]]
    accepted = len(latencies)
    return {
        "issued": sum(len(o["latencies"]) + o["refused"] + o["deadline"]
                      + o["errors"] + o["lost"] for o in outcomes),
        "accepted": accepted,
        "allowed": sum(o["ok"] for o in outcomes),
        "denied": sum(o["denied"] for o in outcomes),
        "refused_exhausted": sum(o["refused"] for o in outcomes),
        "deadline_refused": sum(o["deadline"] for o in outcomes),
        "errors": sum(o["errors"] for o in outcomes),
        "lost": sum(o["lost"] for o in outcomes),
        "probes": sum(o["probes"] for o in outcomes),
        "disagreements": sum(o["disagreements"] for o in outcomes),
        "seconds": elapsed,
        "goodput_per_sec": accepted / elapsed if elapsed > 0 else 0.0,
        "p50_ms": nearest_rank(latencies, 0.50, empty=0.0) * 1000.0,
        "p99_ms": nearest_rank(latencies, 0.99, empty=0.0) * 1000.0,
    }


async def _run_pass(scenario: str, *, clients: int, requests: int,
                    probe_every: int, max_inflight: int, peer_rate: float,
                    peer_burst: float, seed: int,
                    root: "Path | str") -> dict[str, Any]:
    """Boot one fresh daemon under tight limits and run one scenario."""
    plane = _build_plane(root, users=clients)
    admission = AdmissionController(
        clock=plane.clock, max_inflight=max_inflight, peer_rate=peer_rate,
        peer_burst=peer_burst, obs=plane.obs,
        brownout=BrownoutController(clock=plane.clock, window=0.5,
                                    sustain=0.1, cool=0.5, stale_ttl=60.0,
                                    obs=plane.obs))
    server = await ReproServer(plane, admission=admission).start()
    host, port = server.host, server.port
    rng = random.Random(seed)
    pool = [await ServeClient(
        f"{scenario}-{n}", retry_budget=RetryBudget(),
        rng=random.Random(rng.random())).connect(host, port)
        for n in range(clients)]
    control = await ServeClient("control").connect(host, port)
    observer = await ServeClient("observer").connect(host, port)
    storm_task = None
    storm_client = None
    try:
        for client in pool:
            await client.hello(role="flood")
        await control.hello(role="control")
        await observer.hello(role="observer")
        await observer.subscribe("decision", "server")
        stop = asyncio.Event()
        control_task = asyncio.create_task(_control_loop(control, stop))
        if scenario == "revocation_storm":
            storm_client = await ServeClient(
                "storm-admin", retry_budget=RetryBudget(capacity=50.0),
                rng=random.Random(seed + 1)).connect(host, port)
            await storm_client.hello(role="admin")
            storm_task = asyncio.create_task(
                _storm_loop(storm_client, _storm_grant(plane), stop))
        started = time.perf_counter()
        outcomes = await asyncio.gather(*[
            _flood_client(client, _requests_for(scenario, n, requests),
                          probe_every)
            for n, client in enumerate(pool)])
        elapsed = time.perf_counter() - started
        stop.set()
        control_stats = await control_task
        storm_stats = await storm_task if storm_task is not None else None
        status = await control.call("status")
        brownout_events = 0
        while observer.events.qsize() > 0:
            event = observer.events.get_nowait()
            if event.get("event") == "server" \
                    and event.get("data", {}).get("state") == "brownout":
                brownout_events += 1
    finally:
        for client in pool:
            await client.close()
        await control.close()
        await observer.close()
        if storm_client is not None:
            await storm_client.close()
    await server.shutdown(reason=f"{scenario} done")
    refusals_observed = (sum(c.refusals_seen for c in pool)
                        + control.refusals_seen
                        + (storm_client.refusals_seen
                           if storm_client is not None else 0))
    admission_snap = status["admission"]
    return {
        "traffic": _aggregate(list(outcomes), elapsed),
        "retries": sum(c.retry_budget.retries for c in pool),
        "retry_budget_exhausted": sum(c.retry_budget.exhausted
                                      for c in pool),
        "control": control_stats,
        "storm": storm_stats,
        "refusals_observed": refusals_observed,
        "brownout_events_seen": brownout_events,
        "server": {
            "admission": admission_snap,
            "brownout": status["brownout"],
            "deadlines": status["deadlines"],
            "events_shed": status["events_shed"],
            "reply_cache": status["reply_cache"],
            "stale_mediations": status["plane"]["stale_mediations"],
            "cache": status["plane"]["cache"],
            "oracle_disagreements": status["plane"]["oracle_disagreements"],
        },
        "accounting": {
            "sheds_total": admission_snap["shed"]["total"],
            "refusals_observed": refusals_observed,
            "refusals_match_sheds":
                refusals_observed == admission_snap["shed"]["total"],
        },
    }


async def _run_deadline_pass(root: "Path | str",
                             count: int = 20) -> dict[str, Any]:
    """Pre-expired deadlines must be refused before dispatch; generous
    deadlines must not be."""
    plane = _build_plane(root, users=1)
    server = await ReproServer(plane).start()
    client = await ServeClient("deadline").connect(server.host, server.port)
    try:
        await client.hello(role="deadline")  # syncs server time
        params = _requests_for("flash_crowd", 0, 1)[0]
        expired_refused = 0
        for _ in range(count):
            try:
                await client.call("mediate", dict(params),
                                  deadline=client.deadline(-5.0))
            except ServeCallError as exc:
                if exc.error_type == "DeadlineExceededError":
                    expired_refused += 1
        generous_ok = 0
        for _ in range(count):
            result = await client.call("mediate", dict(params),
                                       deadline=client.deadline(60.0))
            if "allowed" in result:
                generous_ok += 1
        status = await client.call("status")
    finally:
        await client.close()
        await server.shutdown(reason="deadline pass done")
    return {
        "sent_expired": count,
        "expired_refused": expired_refused,
        "sent_generous": count,
        "generous_answered": generous_ok,
        "server_expired_pre_dispatch":
            status["deadlines"]["expired_pre_dispatch"],
        "server_expired_before_write":
            status["deadlines"]["expired_before_write"],
    }


async def _run(clients: int, requests: int, probe_every: int,
               max_inflight: int, peer_rate: float, peer_burst: float,
               seed: int, root: "Path | str") -> dict[str, Any]:
    root = Path(root)
    baseline_clients = max(1, clients // OVERLOAD_FACTOR)
    baseline = await _run_pass(
        "flash_crowd", clients=baseline_clients, requests=requests,
        probe_every=probe_every, max_inflight=max_inflight,
        peer_rate=peer_rate, peer_burst=peer_burst, seed=seed,
        root=root / "baseline")
    scenarios = {}
    for n, scenario in enumerate(SCENARIOS):
        scenarios[scenario] = await _run_pass(
            scenario, clients=clients, requests=requests,
            probe_every=probe_every, max_inflight=max_inflight,
            peer_rate=peer_rate, peer_burst=peer_burst,
            seed=seed + 100 * (n + 1), root=root / scenario)
    deadlines = await _run_deadline_pass(root / "deadline")
    baseline_goodput = baseline["traffic"]["goodput_per_sec"]
    worst = min(s["traffic"]["goodput_per_sec"]
                for s in scenarios.values())
    return {
        "bench": "OVERLOAD_9",
        "timescale": "wall",
        "seed": seed,
        "clients": clients,
        "baseline_clients": baseline_clients,
        "overload_factor": OVERLOAD_FACTOR,
        "requests_per_client": requests,
        "limits": {"max_inflight": max_inflight, "peer_rate": peer_rate,
                   "peer_burst": peer_burst},
        "baseline": baseline,
        "scenarios": scenarios,
        "deadlines": deadlines,
        "goodput": {
            "baseline_per_sec": baseline_goodput,
            "worst_scenario_per_sec": worst,
            "ratio": (worst / baseline_goodput if baseline_goodput > 0
                      else 0.0),
        },
    }


def run_overload_bench(clients: int = 16, requests: int = 40,
                       probe_every: int = 5, max_inflight: int = 4,
                       peer_rate: float = 10.0, peer_burst: float = 5.0,
                       seed: int = 9,
                       root: "Path | str | None" = None) -> dict[str, Any]:
    """Run the hostile-traffic bench; returns the OVERLOAD_9 report."""
    if root is None:
        with tempfile.TemporaryDirectory(prefix="overload-bench-") as tmp:
            return asyncio.run(_run(clients, requests, probe_every,
                                    max_inflight, peer_rate, peer_burst,
                                    seed, tmp))
    return asyncio.run(_run(clients, requests, probe_every, max_inflight,
                            peer_rate, peer_burst, seed, root))


def check_overload(report: dict[str, Any],
                   goodput_floor: float = 0.5,
                   p99_ceiling_ms: float = 2500.0) -> list[str]:
    """The acceptance gates of ``repro overload-bench --check``.

    Returns the failed gates (empty means pass).  As with BENCH_7 the
    gates are correctness/robustness properties, not raw speed: goodput is
    gated as a *ratio* to the same hardware's baseline, and the p99 bound
    for accepted requests is generous — the property is "bounded", not
    "fast".
    """
    failures = []
    baseline_p99 = report["baseline"]["traffic"]["p99_ms"]
    p99_bound = max(p99_ceiling_ms, 25.0 * baseline_p99)
    if report["goodput"]["ratio"] < goodput_floor:
        failures.append(
            f"worst-scenario goodput is {report['goodput']['ratio']:.2f} "
            f"of baseline (floor {goodput_floor})")
    for name, scenario in report["scenarios"].items():
        traffic = scenario["traffic"]
        if traffic["lost"] != 0:
            failures.append(f"{name}: {traffic['lost']} requests lost "
                            f"(need 0 — every request must resolve)")
        if traffic["errors"] != 0:
            failures.append(f"{name}: {traffic['errors']} unexpected "
                            f"errors")
        if not scenario["accounting"]["refusals_match_sheds"]:
            failures.append(
                f"{name}: clients observed "
                f"{scenario['accounting']['refusals_observed']} refusals "
                f"but the server counted "
                f"{scenario['accounting']['sheds_total']} sheds — "
                f"silent drops or shed allows")
        if scenario["control"]["refused"] != 0:
            failures.append(f"{name}: control-plane traffic was shed "
                            f"{scenario['control']['refused']} times "
                            f"(must never be)")
        shed_control = (scenario["server"]["admission"]["shed"]
                        ["by_priority"]["control"])
        if shed_control != 0:
            failures.append(f"{name}: server shed {shed_control} "
                            f"control-priority requests")
        if traffic["disagreements"] != 0:
            failures.append(f"{name}: {traffic['disagreements']} oracle "
                            f"disagreements on accepted probes (need 0)")
        if traffic["accepted"] == 0:
            failures.append(f"{name}: no requests were accepted at all")
        if traffic["p99_ms"] > p99_bound:
            failures.append(f"{name}: accepted-request p99 "
                            f"{traffic['p99_ms']:.0f} ms exceeds the "
                            f"bound {p99_bound:.0f} ms")
    flash = report["scenarios"]["flash_crowd"]
    if flash["server"]["admission"]["shed"]["total"] == 0:
        failures.append("flash_crowd: the 4x flood produced no sheds — "
                        "admission control did not engage")
    if flash["server"]["brownout"]["max_level"] < 1:
        failures.append("flash_crowd: brownout never engaged under "
                        "sustained 4x overload")
    storm = report["scenarios"]["revocation_storm"]["storm"]
    if storm is None or storm["cycles"] == 0:
        failures.append("revocation_storm: no revocation cycles landed")
    deadlines = report["deadlines"]
    if deadlines["expired_refused"] != deadlines["sent_expired"]:
        failures.append(
            f"deadlines: only {deadlines['expired_refused']} of "
            f"{deadlines['sent_expired']} pre-expired requests were "
            f"refused")
    if deadlines["server_expired_pre_dispatch"] \
            != deadlines["sent_expired"]:
        failures.append("deadlines: server pre-dispatch expiry count "
                        "disagrees with the client's")
    if deadlines["generous_answered"] != deadlines["sent_generous"]:
        failures.append("deadlines: generous-deadline requests were not "
                        "all answered")
    return failures
