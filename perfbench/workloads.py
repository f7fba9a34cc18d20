"""Seeded inputs for the daemon benchmark, with each request's expected verdict.

A run is a sequence of *jobs*.  A job is a list of groups; every op of a
group is released only once the whole previous group has been answered, so a
job encodes the one ordering the correctness model depends on:

- a delegation job is ``[grant] -> [4 reads] -> [revoke] -> [final read]``:
  its job key is allowed (for the granted ops) only between the grant ack and
  the revoke send, and denied once the revoke is acknowledged;
- a stream request is a job of one group holding one read.

Every request frame is encoded here, before the daemon starts, so the load
generator only writes bytes and matches answers.  The same ``(workload,
seed, seconds)`` always yields byte-identical frames.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: ops the trust root licenses; ``admin`` is left out so every mix carries
#: agreed denials too
ALLOWED_OPS = ("stage", "execute", "fetch")
DENIED_OP = "admin"
ALL_OPS = ALLOWED_OPS + (DENIED_OP,)
#: bench_7-style principals: ``userNN`` holding key ``KuserNN``
USERS = 32
#: the administration key every job delegation is signed by
ADMIN_KEY = "KWebCom"
APP_DOMAIN = "WebCom"
#: Zipf exponent of the repeated-request mixes
ZIPF_S = 1.1
#: ops per delegation job: grant, four reads, revoke, final read
JOB_OPS = 7
#: open-loop stride between consecutive ops of one job, in schedule slots
JOB_STRIDE = 4


def user_key(index: int) -> str:
    return f"Kuser{index:02d}"


def trust_root_policies() -> list[str]:
    """The POLICY assertions the launcher installs, in order.

    Both read exactly the attributes the job credentials read
    (``app_domain`` and ``op``), so adding or revoking a job credential
    never changes the checker's referenced-attribute projection and never
    forces a full decision-cache flush.  The users' assertion comes first:
    an allowed user decision reaches its maximum there and never reads the
    ``KWebCom`` delegation root, so job churn does not evict it.
    """
    users = " || ".join(f'"{user_key(i)}"' for i in range(USERS))
    return [f"Authorizer: POLICY\nLicensees: {licensees}\n"
            f"Conditions: {_ops_condition(ALLOWED_OPS)};"
            for licensees in (users, f'"{ADMIN_KEY}"')]


def _ops_condition(ops: Sequence[str]) -> str:
    alternatives = " || ".join(f'op=="{op}"' for op in ops)
    return f'app_domain=="{APP_DOMAIN}" && ({alternatives})'


def encode(message: dict[str, Any]) -> bytes:
    """One request line, encoded the way the wire protocol encodes frames."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


@dataclass
class Op:
    """One request: where it goes, its bytes and the answer it must get.

    ``expect`` is the verdict a ``mediate``/``probe`` must return, or True
    for a grant/revoke that must be acknowledged as applied.  ``slot`` is
    the op's position in the open-loop schedule (due at ``slot / rate``).
    """

    conn: str
    kind: str
    id: str
    frame: bytes
    expect: bool
    slot: int = 0


@dataclass
class Job:
    groups: list[list[Op]]

    def ops(self) -> list[Op]:
        return [op for group in self.groups for op in group]


@dataclass
class Phase:
    name: str
    jobs: list[Job]

    def ops(self) -> list[Op]:
        return [op for job in self.jobs for op in job.ops()]


@dataclass(frozen=True)
class Shape:
    """How a workload is driven.

    ``window`` is the closed-loop concurrency: requests in flight on the
    load connection for a stream mix, live delegation jobs for a job mix.
    ``capacity`` is the nominal closed-loop rate (ops/s) that sizes the
    capacity phases; ``rate`` is the fixed open-loop rate (ops/s), a third
    to two fifths of the measured capacity, so latency is measured well
    below saturation.  ``warmup`` is in ops.
    """

    window: int
    capacity: float
    rate: float
    warmup: int
    subscriber: bool


class Builder:
    """Allocates request ids and encodes frames for one run."""

    def __init__(self, seed: int, keys: "KeyFactory") -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.keys = keys
        self._counter = 0
        self._serial = 0
        # One popularity order of all USERS x ALL_OPS pairs for the run.
        self._ranked = [(u, op) for u in range(USERS) for op in ALL_OPS]
        self.rng.shuffle(self._ranked)
        self._cum_weights, total = [], 0.0
        for rank in range(len(self._ranked)):
            total += 1.0 / (rank + 1) ** ZIPF_S
            self._cum_weights.append(total)

    def _id(self, phase: str, conn: str) -> str:
        self._counter += 1
        return f"{phase}{conn[0]}{self._counter}"

    def serial(self) -> int:
        """A run-unique number for job keys and per-job attributes."""
        self._serial += 1
        return self._serial

    def read(self, phase: str, user: str, key: str, op: str, expect: bool,
             attributes: dict[str, str] | None = None,
             method: str = "mediate") -> Op:
        request_id = self._id(phase, "load")
        params = {"user": user, "user_key": key, "object_type": "graph",
                  "operation": op,
                  "attributes": {"app_domain": APP_DOMAIN,
                                 **(attributes or {})}}
        return Op("load", "read", request_id,
                  encode({"id": request_id, "method": method,
                          "params": params}), expect)

    def admin(self, phase: str, method: str, text: str) -> Op:
        request_id = self._id(phase, "admin")
        kind = "grant" if method == "add_credential" else "revoke"
        return Op("admin", kind, request_id,
                  encode({"id": request_id, "method": method,
                          "params": {"text": text}}), True)

    # -- request mixes -----------------------------------------------------

    def zipf_keys(self, count: int) -> list[tuple[int, str]]:
        """``count`` (user, op) pairs, Zipf-distributed over the run's
        popularity order."""
        return self.rng.choices(self._ranked, cum_weights=self._cum_weights,
                                k=count)

    def user_job(self, phase: str, user: int, op: str,
                 attributes: dict[str, str] | None = None,
                 method: str = "mediate") -> Job:
        return Job([[self.read(phase, f"user{user:02d}", user_key(user), op,
                               op in ALLOWED_OPS, attributes, method)]])

    def delegation_job(self, phase: str, method: str = "mediate") -> Job:
        """grant -> reads (allowed for granted ops) -> revoke -> denied read."""
        number = self.serial()
        granted = self.rng.sample(ALLOWED_OPS, 2)
        other = self.rng.choice([op for op in ALL_OPS if op not in granted])
        name = f"Kjob-{self.seed}-{phase}-{number}"
        key, text = self.keys.delegation(name, _ops_condition(granted))
        user = f"job{number}"
        # The third read repeats the first (a stack-cache hit while the
        # credential is live); the final read repeats it again after the
        # revoke, so its cache entry must be invalidated.
        reads = [self.read(phase, user, key, op, op in granted, method=method)
                 for op in (granted[0], granted[1], granted[0], other)]
        return Job([[self.admin(phase, "add_credential", text)],
                    reads,
                    [self.admin(phase, "revoke", text)],
                    [self.read(phase, user, key, granted[0], False,
                               method=method)]])


class KeyFactory:
    """Signs ``KWebCom -> job key`` delegations with name-derived keys.

    Keys are deterministic by name, so the generator signs with encoded keys
    and needs no state shared with the daemon beyond the trust root.
    """

    def __init__(self) -> None:
        from repro.crypto.keys import KeyPair
        from repro.keynote.credential import Credential
        self._pair = KeyPair.generate
        self._credential = Credential
        self._admin = KeyPair.generate(ADMIN_KEY)

    def delegation(self, name: str, conditions: str) -> tuple[str, str]:
        job_key = self._pair(name).public.encode()
        credential = self._credential.build(
            self._admin.public.encode(), f'"{job_key}"', conditions,
            comment=name)
        return job_key, credential.sign(self._admin.private).to_text()


# -- the three workloads ------------------------------------------------------

def _stream(builder: Builder, phase: str, count: int,
            unique: bool) -> list[Job]:
    jobs = []
    for user, op in builder.zipf_keys(count):
        attributes = ({"job": f"{builder.seed}-{builder.serial()}"}
                      if unique else None)
        jobs.append(builder.user_job(phase, user, op, attributes))
    return jobs


def _hot_warmup(builder: Builder, count: int) -> list[Job]:
    """Every distinct key once (fills the caches), then the Zipf mix."""
    jobs = [builder.user_job("w", u, op) for u in range(USERS)
            for op in ALL_OPS]
    return jobs + _stream(builder, "w", max(0, count - len(jobs)), False)


def _delegations(builder: Builder, phase: str, ops: int) -> list[Job]:
    return [builder.delegation_job(phase)
            for _ in range(max(1, ops // JOB_OPS))]


@dataclass
class Workload:
    name: str
    shape: Shape
    warmup: Callable[[Builder, int], list[Job]]
    mix: Callable[[Builder, str, int], list[Job]]
    churn: bool = False


WORKLOADS: dict[str, Workload] = {
    "hot-observed": Workload(
        "hot-observed",
        Shape(window=8, capacity=1700.0, rate=500.0, warmup=5200,
              subscriber=True),
        _hot_warmup,
        lambda b, phase, n: _stream(b, phase, n, unique=False)),
    "job-unique": Workload(
        "job-unique",
        # Its requests cost the daemon the least CPU, so 8 in flight let
        # the daemon run dry whenever the generator was held up; 32 keep
        # it busy.
        Shape(window=32, capacity=2800.0, rate=800.0, warmup=2000,
              subscriber=False),
        lambda b, n: _stream(b, "w", n, unique=True),
        lambda b, phase, n: _stream(b, phase, n, unique=True)),
    "delegation-churn": Workload(
        "delegation-churn",
        Shape(window=6, capacity=1700.0, rate=500.0, warmup=3500,
              subscriber=False),
        lambda b, n: _delegations(b, "w", n),
        _delegations, churn=True),
}

#: the timed window is this many rounds of (capacity phase, latency phase,
#: admin phase).  The machine's speed wanders over seconds, so short phases
#: that alternate many times let every metric sample the whole window.
ROUNDS = 12
#: share of ``--seconds`` given to the closed-loop capacity phases; the open
#: loop gets the rest
CAPACITY_SHARE = 0.5
#: delegation jobs per admin phase.  On the mixes without churn the admin
#: phase times grant and revoke: an open loop at the mix's rate in which
#: every delegation job is followed by ADMIN_SPACING requests of the mix.
ADMIN_JOBS = 8
ADMIN_SPACING = 15
#: ``probe`` calls cross-checked against the oracle after the window
PROBES = 32
#: delegation jobs whose reads are probes (a live, then revoked, job key)
PROBE_JOBS = 2


@dataclass
class RunInputs:
    workload: Workload
    warmup: Phase
    #: (capacity, latency, admin) phases of each round of the timed window
    rounds: list[tuple[Phase, Phase, Phase]]
    probes: Phase
    rate: float


def build(name: str, seed: int, seconds: float,
          keys: "KeyFactory | None" = None) -> RunInputs:
    """All frames of one run of workload ``name``, derived from ``seed``.

    Phase sizes are fixed request counts derived from ``seconds`` (not
    durations), so every run with the same arguments does the same work.
    """
    workload = WORKLOADS[name]
    shape = workload.shape
    builder = Builder(seed, keys or KeyFactory())
    warmup = Phase("w", workload.warmup(builder, shape.warmup))
    per_round = seconds / ROUNDS
    rounds = []
    for _ in range(ROUNDS):
        capacity = Phase("c", workload.mix(
            builder, "c", int(shape.capacity * per_round * CAPACITY_SHARE)))
        latency = Phase("l", workload.mix(
            builder, "l", int(shape.rate * per_round * (1 - CAPACITY_SHARE))))
        schedule(latency)
        admin = Phase("x", [])
        if not workload.churn:
            for _ in range(ADMIN_JOBS):
                admin.jobs.append(builder.delegation_job("x"))
                admin.jobs += workload.mix(builder, "x", ADMIN_SPACING)
            schedule(admin)
        rounds.append((capacity, latency, admin))
    probes = Phase("p", [builder.delegation_job("p", method="probe")
                         for _ in range(PROBE_JOBS)])
    for user, op in builder.zipf_keys(PROBES):
        attributes = ({"job": f"{seed}-{builder.serial()}"}
                      if name == "job-unique" else None)
        probes.jobs.append(builder.user_job("p", user, op, attributes,
                                            method="probe"))
    return RunInputs(workload, warmup, rounds, probes, shape.rate)


def schedule(phase: Phase) -> None:
    """Open-loop schedule: one op per slot, slots ``1/rate`` apart.

    Jobs are placed in order, each starting at the first free slot after
    the previous job's start; consecutive ops of one job are at least
    JOB_STRIDE slots apart (room for the previous answer).  Every slot
    holds at most one op, so the phase offers an even rate.
    """
    used: set[int] = set()
    cursor = 0
    for job in phase.jobs:
        slot = cursor
        for k, op in enumerate(job.ops()):
            if k:
                slot += JOB_STRIDE
            while slot in used:
                slot += 1
            op.slot = slot
            used.add(slot)
        cursor = job.groups[0][0].slot + 1
