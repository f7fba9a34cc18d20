"""Compiled-engine benchmark (the ``BENCH_8.json`` CI artifact).

Measures the bitset RBAC engine (:mod:`repro.rbac.engine`) that answers
every :class:`~repro.rbac.policy.RBACPolicy` query against the set-based
:class:`SetBasedReference` kept here as its baseline, on a
synthetic universe sized like the Grid-scale deployments the framework
targets: 100k users, 10k roles, a layered role hierarchy, and a Zipfian
request mix (a few hot roles/objects take most of the traffic, the long
tail keeps the closure honest).

Three timings are reported:

* **cold** — one ``check_access_many`` batch on a policy whose engine has
  never been built, so the compiled number *includes* interning and
  closure construction.  The set-based comparator answers the same
  requests one-by-one on a sampled subset (a full set-based sweep at this
  scale takes minutes) and is extrapolated per-check.
* **warm** — repeated batches once the engine (and nothing else: the
  set-based path has no cache to warm) is built.
* **oracle** — a smaller universe is swept three-way: compiled engine vs
  set-based reference vs the PR 5 :class:`~repro.oracle.rbac_oracle.RBACOracle`
  reference, over ``check_access``, ``roles_of`` and ``authorised_users``.
  Any disagreement fails the ``--check`` gate.

Everything is seeded; two runs of ``repro bench-engine`` answer the same
requests over the same universe.
"""

from __future__ import annotations

import random
import time
from typing import Any, Sequence

from repro.oracle.rbac_oracle import RBACOracle
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import Assignment, DomainRole, Grant
from repro.rbac.policy import RBACPolicy

#: object types in the synthetic universe (middleware-ish vocabulary)
_OBJECT_TYPES = ("invoice", "ledger", "queue", "topic", "component",
                 "interface", "method", "file")
_PERMISSIONS = ("read", "write", "invoke", "configure")


class SetBasedReference:
    """The readable set-based RBAC queries: direct comprehensions over the
    two relations and :class:`~repro.rbac.hierarchy.RoleHierarchy` walks.

    It is the cold baseline of the ``bench-engine`` speed-up gate and a
    differential reference for the engine test suites; production queries
    never come here.  The relations are captured when the reference is
    built (rebuild it after a grant or assignment changes); the hierarchy
    object is shared, so edge changes are seen at once.
    """

    def __init__(self, grants: frozenset[Grant],
                 assignments: frozenset[Assignment],
                 hierarchy: RoleHierarchy) -> None:
        self.grants = grants
        self.assignments = assignments
        self.hierarchy = hierarchy

    @classmethod
    def from_policy(cls, policy: RBACPolicy) -> "SetBasedReference":
        return cls(policy.grants, policy.assignments, policy.hierarchy)

    def permissions_of(self, domain: str, role: str) -> set[Grant]:
        pairs = {DomainRole(domain, role)}
        pairs |= self.hierarchy.juniors(DomainRole(domain, role))
        return {g for g in self.grants if g.domain_role in pairs}

    def roles_of(self, user: str) -> set[DomainRole]:
        direct = {a.domain_role for a in self.assignments if a.user == user}
        closed: set[DomainRole] = set()
        for dr in direct:
            closed.add(dr)
            closed |= self.hierarchy.juniors(dr)
        return closed

    def check_access(self, user: str, object_type: str,
                     permission: str) -> bool:
        roles = self.roles_of(user)
        return any(g.domain_role in roles and g.object_type == object_type
                   and g.permission == permission for g in self.grants)

    def check_access_many(self, requests: Sequence[tuple[str, str, str]],
                          ) -> list[bool]:
        return [self.check_access(user, object_type, permission)
                for user, object_type, permission in requests]

    def authorised_users(self, object_type: str, permission: str) -> set[str]:
        holders = {g.domain_role for g in self.grants
                   if g.object_type == object_type
                   and g.permission == permission}
        qualifying = set(holders)
        for dr in holders:
            qualifying |= self.hierarchy.seniors(dr)
        return {a.user for a in self.assignments
                if a.domain_role in qualifying}


def _zipf_choices(rng: random.Random, population: Sequence[Any],
                  k: int) -> list[Any]:
    """``k`` draws from ``population`` under a Zipfian (1/rank) skew."""
    weights = [1.0 / rank for rank in range(1, len(population) + 1)]
    return rng.choices(population, weights=weights, k=k)


def build_universe(users: int, roles: int, *, domains: int = 8,
                   grants_per_role: int = 2, seed: int = 8,
                   name: str = "bench") -> RBACPolicy:
    """A seeded policy universe: layered hierarchy, Zipfian assignments."""
    rng = random.Random(seed)
    hierarchy = RoleHierarchy()
    domain_names = [f"d{i}" for i in range(domains)]
    role_list = [DomainRole(domain_names[i % domains], f"r{i}")
                 for i in range(roles)]
    # Layered DAG: each role (past the first few) dominates 1-2 roles from
    # strictly earlier layers, giving deep-but-acyclic inheritance chains.
    for index in range(8, roles):
        for _ in range(rng.randint(1, 2)):
            junior = role_list[rng.randrange(0, index)]
            senior = role_list[index]
            if junior != senior:
                try:
                    hierarchy.add_inheritance(senior, junior)
                except Exception:  # pragma: no cover - layering prevents it
                    pass
    policy = RBACPolicy(name, hierarchy=hierarchy)
    for role in role_list:
        for _ in range(grants_per_role):
            policy.grant(role.domain, role.role,
                         rng.choice(_OBJECT_TYPES), rng.choice(_PERMISSIONS))
    hot_roles = _zipf_choices(rng, role_list, users)
    for index in range(users):
        role = hot_roles[index]
        policy.assign(f"u{index}", role.domain, role.role)
    return policy


def build_requests(policy: RBACPolicy, count: int,
                   seed: int = 8) -> list[tuple[str, str, str]]:
    """A Zipfian request mix over the policy's users and objects."""
    rng = random.Random(seed + 1)
    users = sorted(policy.users())
    subjects = _zipf_choices(rng, users, count)
    object_types = _zipf_choices(rng, _OBJECT_TYPES, count)
    permissions = rng.choices(_PERMISSIONS, k=count)
    return list(zip(subjects, object_types, permissions))


def _oracle_sweep(users: int = 300, roles: int = 60,
                  checks: int = 400, seed: int = 8) -> dict[str, Any]:
    """Three-way equivalence sweep on a universe small enough for the
    naive oracle (its closure is iterate-until-stable per query)."""
    policy = build_universe(users, roles, domains=4, seed=seed,
                            name="oracle-sweep")
    oracle = RBACOracle.from_policy(policy)
    requests = build_requests(policy, checks, seed=seed)
    engine_answers = policy.check_access_many(requests)
    set_answers = SetBasedReference.from_policy(policy).check_access_many(
        requests)
    oracle_answers = [oracle.check_access(u, ot, p) for u, ot, p in requests]
    disagreements = sum(
        1 for e, s, o in zip(engine_answers, set_answers, oracle_answers)
        if not (e == s == o))
    rng = random.Random(seed + 2)
    for user in rng.sample(sorted(policy.users()), 25):
        engine_roles = {(dr.domain, dr.role) for dr in policy.roles_of(user)}
        if engine_roles != oracle.roles_of(user):
            disagreements += 1
    for object_type in _OBJECT_TYPES[:4]:
        for permission in _PERMISSIONS[:2]:
            if (policy.authorised_users(object_type, permission)
                    != oracle.authorised_users(object_type, permission)):
                disagreements += 1
    return {
        "users": users,
        "roles": roles,
        "check_cases": checks,
        "roles_of_cases": 25,
        "authorised_users_cases": 8,
        "disagreements": disagreements,
    }


def run_engine_bench(users: int = 100_000, roles: int = 10_000,
                     batch: int = 20_000, set_based_sample: int = 150,
                     warm_rounds: int = 3, seed: int = 8) -> dict[str, Any]:
    """Build the universe, time compiled vs set-based, sweep the oracle."""
    requests = None

    # Cold compiled: engine build + first batch, timed together.
    policy = build_universe(users, roles, seed=seed)
    requests = build_requests(policy, batch, seed=seed)
    start = time.perf_counter()
    compiled_answers = policy.check_access_many(requests)
    cold_compiled_s = time.perf_counter() - start

    # Cold set-based: the same requests, sampled (full sweep is O(n·batch)).
    sample = requests[:set_based_sample]
    reference = SetBasedReference.from_policy(policy)
    start = time.perf_counter()
    sampled_set_answers = reference.check_access_many(sample)
    cold_set_s = time.perf_counter() - start
    agreement = sampled_set_answers == compiled_answers[:set_based_sample]

    per_check_compiled_us = cold_compiled_s / batch * 1e6
    per_check_set_us = cold_set_s / len(sample) * 1e6
    speedup = (per_check_set_us / per_check_compiled_us
               if per_check_compiled_us else float("inf"))

    # Warm compiled: engine already built, decision cache hot.
    warm_samples = []
    for _ in range(warm_rounds):
        start = time.perf_counter()
        policy.check_access_many(requests)
        warm_samples.append(time.perf_counter() - start)
    warm_s = min(warm_samples)

    engine_stats = policy.engine_stats() or {}
    grant_total = sum(compiled_answers)
    return {
        "bench": "BENCH_8",
        "description": "compiled bitset RBAC engine vs set-based policy "
                       "path (cold build + Zipfian batch)",
        "universe": {
            "users": users,
            "roles": roles,
            "grants": len(policy.grants),
            "assignments": len(policy.assignments),
            "hierarchy_edges": sum(1 for _ in policy.hierarchy.edges()),
        },
        "batch": {
            "requests": batch,
            "granted": grant_total,
            "denied": batch - grant_total,
        },
        "cold": {
            "compiled_total_s": round(cold_compiled_s, 6),
            "compiled_per_check_us": round(per_check_compiled_us, 3),
            "set_based_sampled_checks": len(sample),
            "set_based_per_check_us": round(per_check_set_us, 3),
            "speedup": round(speedup, 1),
            "sampled_answers_agree": agreement,
        },
        "warm": {
            "rounds": warm_rounds,
            "best_total_s": round(warm_s, 6),
            "per_check_us": round(warm_s / batch * 1e6, 3),
            "checks_per_s": round(batch / warm_s, 0) if warm_s else None,
        },
        "engine": engine_stats,
        "oracle": _oracle_sweep(seed=seed),
    }


def check_engine_bench(report: dict[str, Any],
                       min_speedup: float = 5.0) -> list[str]:
    """The ``--check`` gates; returns failure strings (empty = pass)."""
    failures: list[str] = []
    cold = report["cold"]
    if cold["speedup"] < min_speedup:
        failures.append(
            f"compiled cold path is {cold['speedup']:.1f}x over set-based, "
            f"below the required {min_speedup:.1f}x")
    if not cold["sampled_answers_agree"]:
        failures.append("compiled and set-based answers disagree on the "
                        "sampled cold batch")
    oracle = report["oracle"]
    if oracle["disagreements"]:
        failures.append(f"{oracle['disagreements']} oracle disagreement(s) "
                        f"in the three-way sweep")
    return failures
