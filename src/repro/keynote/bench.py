"""Churn benchmark for incremental invalidation (``BENCH_10.json``).

The Grid workload motivating this artifact (*Security for Grid Services*,
PAPERS.md) is short-lived proxy credentials arriving and expiring
constantly while a Zipfian request mix hammers the same hot decisions.
Under the PR 3 generation-flush scheme every add/revoke cleared the whole
decision cache, so churn-heavy traffic paid a cold fixpoint per decision
per update.  This bench drives the *identical* seeded op sequence through
two checkers — the production :class:`~repro.keynote.compliance.
ComplianceChecker` with dependency-indexed incremental invalidation vs the
:class:`GenerationFlushChecker` baseline defined here — and reports:

* **warm-hit ratio under churn** for both modes (the headline gate:
  incremental must beat the baseline by ``min_hit_improvement``);
* **per-update cost** — wall time of the interleaved churn+query phase
  divided by the number of mutations, both modes;
* **zero disagreements** — every query is answered by both checkers in
  lock-step and cross-checked, with seeded sub-samples replayed against
  the PR 5 naive oracle (:func:`~repro.oracle.keynote_oracle.
  oracle_compliance_value`) and a cold rebuilt checker;
* an **RBAC edge-churn section** proving hierarchy edge add/remove is
  absorbed as engine deltas (no full rebuilds) while agreeing with the
  set-based reference and the :class:`~repro.oracle.rbac_oracle.RBACOracle`;
* a **stack-survival section** counting how many warm mediation-cache
  entries survive unrelated revocations under the decision-scoped
  fingerprints (``survived_churn``), with every served decision verified
  against a forced re-mediation.

Everything is seeded; two runs of ``repro bench-churn`` replay the same
universe, queries and churn schedule.
"""

from __future__ import annotations

import random
import time
from typing import Any, Iterable

from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.oracle.keynote_oracle import oracle_compliance_value
from repro.oracle.rbac_oracle import RBACOracle
from repro.rbac.bench import SetBasedReference, build_requests, build_universe
from repro.rbac.model import DomainRole
from repro.util.clock import SimulatedClock
from repro.webcom.stack import AuthorisationStack, MediationRequest

#: the two operations the proxy workload requests (a stable referenced
#: attribute vocabulary — churn must not change the cache key shape)
_OPS = ("submit", "status")


class GenerationFlushChecker(ComplianceChecker):
    """The PR 3 invalidation scheme, kept as the churn bench's baseline:
    every add or revoke flushes the whole decision cache.

    It records no dependency sets and never evicts selectively, so
    ``selective_evictions``, ``survived_churn`` and ``full_flushes`` stay
    at 0 — the baseline does no more work than the scheme it stands for.
    """

    def _new_dependency_sets(self) -> None:
        return None

    def _evict_dependents(self, principals: Iterable[str] = (),
                          assertion_ids: Iterable[int] = ()) -> int:
        return 0

    def _full_flush_on_churn(self) -> None:
        pass

    def _bump_generation(self) -> None:
        with self._mutation_lock:
            super()._bump_generation()
            self._flush_decisions()


def build_delegation_universe(*, orgs: int = 4, teams: int = 20,
                              users: int = 400, seed: int = 10,
                              ) -> dict[str, Any]:
    """A seeded Grid-style delegation graph.

    POLICY licenses each org key for its own org attribute; each org
    licenses its teams (condition-pruned by team); each team licenses its
    member user keys; and each user key licenses a short-lived *proxy*
    key — the Grid single-sign-on credential, and the tier that churns.
    Requests are made by proxy keys, so the delegation cone a decision
    walks (and therefore its recorded dependency set) is confined to the
    requester's own org/team, and one proxy renewal touches only the
    issuing user key's neighbourhood — the property the incremental
    checker is supposed to exploit.
    """
    policy_creds = [
        Credential.build("POLICY", f'"Korg{o}"',
                         f'app=="grid" && org=="o{o}"')
        for o in range(orgs)]
    org_creds = [
        Credential.build(f"Korg{t % orgs}", f'"Kteam{t}"', f'team=="t{t}"')
        for t in range(teams)]
    team_creds = [
        Credential.build(f"Kteam{u % teams}", f'"Kuser{u}"',
                         'op=="submit" || op=="status"')
        for u in range(users)]
    proxy_creds = [
        Credential.build(f"Kuser{u}", f'"Kproxy{u}"', 'app=="grid"')
        for u in range(users)]
    rng = random.Random(seed)
    return {"orgs": orgs, "teams": teams, "users": users, "rng": rng,
            "policy_creds": policy_creds, "org_creds": org_creds,
            "team_creds": team_creds, "proxy_creds": proxy_creds,
            "proxy_keys": [f"Kproxy{u}" for u in range(users)]}


def _fresh_checker(universe: dict[str, Any],
                   incremental: bool) -> ComplianceChecker:
    assertions = (universe["policy_creds"] + universe["org_creds"]
                  + universe["team_creds"] + universe["proxy_creds"])
    checker_cls = ComplianceChecker if incremental else GenerationFlushChecker
    # Signatures are orthogonal to invalidation (and ride a process-wide
    # cache anyway); the bench measures the fixpoint + cache machinery.
    return checker_cls(assertions=list(assertions), verify_signatures=False)


def _churn_schedule(universe: dict[str, Any], steps: int,
                    seed: int) -> list[int]:
    """Which user's leaf credential is renewed at each step.

    Tail-heavy (reverse-Zipf): most proxy churn happens in the cold long
    tail while the Zipfian query mix keeps hammering the hot head — the
    Grid shape that makes generation-flush pathological.
    """
    rng = random.Random(seed + 17)
    users = universe["users"]
    weights = [1.0 / (users - u) for u in range(users)]
    return rng.choices(range(users), weights=weights, k=steps)


def _query_schedule(universe: dict[str, Any], count: int,
                    seed: int) -> list[tuple[int, str]]:
    """Zipfian (user, op) draws."""
    rng = random.Random(seed + 29)
    users = universe["users"]
    weights = [1.0 / (u + 1) for u in range(users)]
    subjects = rng.choices(range(users), weights=weights, k=count)
    ops = rng.choices(_OPS, k=count)
    return list(zip(subjects, ops))


def _attrs(universe: dict[str, Any], user: int, op: str) -> dict[str, str]:
    team = user % universe["teams"]
    return {"app": "grid", "op": op,
            "org": f"o{team % universe['orgs']}", "team": f"t{team}"}


def _run_churn_phase(universe: dict[str, Any], *, incremental: bool,
                     steps: int, queries_per_step: int,
                     seed: int) -> dict[str, Any]:
    """One mode's run over the shared schedule; returns timings, the
    warm-hit ratio over the churn phase, and every answer (for the
    lock-step cross-check)."""
    checker = _fresh_checker(universe, incremental)
    proxy_creds = list(universe["proxy_creds"])
    # Prime: one query per user, so both modes enter the churn phase with
    # a fully warm cache (the baseline then loses it at the first flush).
    for user in range(universe["users"]):
        checker.query(_attrs(universe, user, _OPS[user % len(_OPS)]),
                      [universe["proxy_keys"][user]])
    churn = _churn_schedule(universe, steps, seed)
    queries = _query_schedule(universe, steps * queries_per_step, seed)
    hits_before = checker.cache_hits
    misses_before = checker.cache_misses
    answers: list[str] = []
    mutation_s = 0.0
    start = time.perf_counter()
    for step, user in enumerate(churn):
        # Proxy renewal: the user key revokes its expiring single-sign-on
        # credential and issues a fresh one for the same proxy key.
        renewed = Credential.build(f"Kuser{user}", f'"Kproxy{user}"',
                                   'app=="grid"',
                                   local_constants={"renewal": str(step)})
        t0 = time.perf_counter()
        checker.revoke_assertion(proxy_creds[user])
        checker.add_assertion(renewed)
        mutation_s += time.perf_counter() - t0
        proxy_creds[user] = renewed
        for subject, op in queries[step * queries_per_step:
                                   (step + 1) * queries_per_step]:
            answers.append(checker.query(
                _attrs(universe, subject, op),
                [universe["proxy_keys"][subject]]))
    phase_s = time.perf_counter() - start
    hits = checker.cache_hits - hits_before
    misses = checker.cache_misses - misses_before
    total = hits + misses
    return {
        "incremental": incremental,
        "phase_s": round(phase_s, 6),
        "mutation_s": round(mutation_s, 6),
        "per_update_us": round(phase_s / steps * 1e6, 1),
        "hits": hits,
        "misses": misses,
        "hit_ratio": round(hits / total, 4) if total else 0.0,
        "cache": checker.cache_info(),
        "answers": answers,
        "checker": checker,
    }


def _oracle_cross_check(universe: dict[str, Any], phase: dict[str, Any],
                        samples: int, seed: int) -> dict[str, Any]:
    """Replay a seeded sample of post-churn decisions against the naive
    oracle and a cold rebuilt checker (cached == recomputed == oracle)."""
    checker: ComplianceChecker = phase["checker"]
    assertions = list(checker.assertions)
    cold = ComplianceChecker(assertions=assertions, verify_signatures=False)
    rng = random.Random(seed + 41)
    disagreements = 0
    for _ in range(samples):
        user = rng.randrange(universe["users"])
        op = rng.choice(_OPS)
        attributes = _attrs(universe, user, op)
        authorizers = [universe["proxy_keys"][user]]
        warm = checker.query(attributes, authorizers)
        recomputed = cold.query(attributes, authorizers)
        reference = oracle_compliance_value(assertions, attributes,
                                            authorizers)
        if not (warm == recomputed == reference):
            disagreements += 1
    return {"samples": samples, "disagreements": disagreements}


def _rbac_edge_churn(*, users: int = 300, roles: int = 60, steps: int = 40,
                     checks_per_step: int = 30, seed: int = 10,
                     ) -> dict[str, Any]:
    """Interleave hierarchy edge add/remove with grants and verify the
    delta-maintained engine against the set-based reference, with an oracle
    sweep at the end.  The engine must absorb every edge change as a
    delta: exactly one build, zero extra hierarchy rebuilds."""
    policy = build_universe(users, roles, domains=4, seed=seed,
                            name="churn-edges")
    requests = build_requests(policy, checks_per_step * steps, seed=seed)
    # Only hierarchy edges churn, and the reference shares the hierarchy.
    reference = SetBasedReference.from_policy(policy)
    policy.check_access_many(requests[:checks_per_step])  # build engine
    stats0 = policy.engine_stats() or {}
    rebuilds0 = stats0.get("hierarchy_rebuilds", 0)
    rng = random.Random(seed + 5)
    # build_universe's role naming is deterministic: role i lives in
    # domain d(i % domains) and is called r<i>.
    role_list = [DomainRole(f"d{i % 4}", f"r{i}") for i in range(roles)]
    removable: list[tuple[DomainRole, DomainRole]] = list(
        policy.hierarchy.edges())
    disagreements = 0
    start = time.perf_counter()
    for step in range(steps):
        action = rng.random()
        if action < 0.4 and removable:
            senior, junior = removable.pop(rng.randrange(len(removable)))
            policy.hierarchy.remove_inheritance(senior, junior)
        else:
            senior, junior = rng.sample(role_list, 2)
            try:
                policy.hierarchy.add_inheritance(senior, junior)
                removable.append((senior, junior))
            except Exception:
                pass  # would cycle: the schedule simply skips this step
        batch = requests[step * checks_per_step:
                         (step + 1) * checks_per_step]
        engine_answers = policy.check_access_many(batch)
        set_answers = reference.check_access_many(batch)
        disagreements += sum(1 for e, s in zip(engine_answers, set_answers)
                             if e != s)
    phase_s = time.perf_counter() - start
    oracle = RBACOracle.from_policy(policy)
    sample = build_requests(policy, 150, seed=seed + 7)
    oracle_disagreements = sum(
        1 for (u, ot, p), e in zip(sample, policy.check_access_many(sample))
        if e != oracle.check_access(u, ot, p))
    stats = policy.engine_stats() or {}
    return {
        "users": users, "roles": roles, "steps": steps,
        "checks": checks_per_step * steps,
        "phase_s": round(phase_s, 6),
        "per_update_us": round(phase_s / steps * 1e6, 1),
        "builds": stats.get("builds"),
        "hierarchy_rebuilds": stats.get("hierarchy_rebuilds", 0) - rebuilds0,
        "edge_deltas": stats.get("edge_deltas"),
        "mask_evictions": stats.get("mask_evictions"),
        "set_based_disagreements": disagreements,
        "oracle": {"samples": len(sample),
                   "disagreements": oracle_disagreements},
    }


def _stack_survival(universe: dict[str, Any], *, warm_entries: int = 60,
                    revocations: int = 30, seed: int = 10) -> dict[str, Any]:
    """Warm a mediation cache, revoke unrelated tail credentials, and count
    the warm decisions that survive under decision-scoped fingerprints
    (the generation-flush stack lost all of them).  Every post-churn hit
    is verified against a forced re-mediation."""
    clock = SimulatedClock()
    session = KeyNoteSession(keystore=None, clock=clock,
                             verify_signatures=False)
    for credential in universe["policy_creds"]:
        session.add_policy(credential)
    for credential in (universe["org_creds"] + universe["team_creds"]
                       + universe["proxy_creds"]):
        session.add_credential(credential)
    stack = AuthorisationStack(clock=clock, cache_ttl=3600.0)
    stack.plug_trust_management(session)
    requests = [
        MediationRequest(user=f"u{user}", user_key=f"Kproxy{user}",
                         object_type="job", operation=op,
                         attributes=dict(_attrs(universe, user, op)))
        for user in range(warm_entries) for op in _OPS]
    for request in requests:
        stack.mediate(request)
    # Tail churn: revoke proxy credentials of users far outside the warm
    # set — plus ONE inside it, whose cached ALLOWs must now be refused.
    rng = random.Random(seed + 53)
    tail = rng.sample(range(universe["users"] - revocations * 2,
                            universe["users"]), revocations)
    for user in tail:
        session.revoke_credential(universe["proxy_creds"][user])
    session.revoke_credential(universe["proxy_creds"][0])
    hits_before = stack.cache_hits
    survived_before = stack.cache_survived_churn
    stale_serves = 0
    for request in requests:
        warm = stack.mediate(request)
        fresh_stack = AuthorisationStack(clock=clock, cache_ttl=None)
        fresh_stack.plug_trust_management(session)
        if warm.allowed != fresh_stack.mediate(request).allowed:
            stale_serves += 1
    return {
        "warm_entries": len(requests),
        "unrelated_revocations": revocations,
        "dependent_revocations": 1,
        "post_churn_hits": stack.cache_hits - hits_before,
        "survived_churn": stack.cache_survived_churn - survived_before,
        "invalidated": stack.cache_invalidated,
        "stale_serves": stale_serves,
        "cache": stack.cache_info(),
    }


def run_churn_bench(*, users: int = 400, teams: int = 20, orgs: int = 4,
                    steps: int = 60, queries_per_step: int = 8,
                    oracle_samples: int = 60, seed: int = 10,
                    ) -> dict[str, Any]:
    """Build the universe, run both invalidation modes over the identical
    schedule, cross-check them in lock-step, and sweep the oracles."""
    universe = build_delegation_universe(orgs=orgs, teams=teams,
                                         users=users, seed=seed)
    incremental = _run_churn_phase(universe, incremental=True, steps=steps,
                                   queries_per_step=queries_per_step,
                                   seed=seed)
    baseline = _run_churn_phase(universe, incremental=False, steps=steps,
                                queries_per_step=queries_per_step,
                                seed=seed)
    lockstep_disagreements = sum(
        1 for a, b in zip(incremental["answers"], baseline["answers"])
        if a != b)
    oracle = _oracle_cross_check(universe, incremental, oracle_samples, seed)
    ratio = incremental["hit_ratio"]
    base_ratio = baseline["hit_ratio"]
    improvement = (ratio / base_ratio if base_ratio
                   else float("inf") if ratio else 0.0)

    def phase_report(phase: dict[str, Any]) -> dict[str, Any]:
        return {key: phase[key] for key in
                ("incremental", "phase_s", "mutation_s", "per_update_us",
                 "hits", "misses", "hit_ratio", "cache")}

    return {
        "bench": "BENCH_10",
        "description": "incremental O(delta) invalidation vs "
                       "generation-flush under churn-heavy Zipfian mix",
        "universe": {"orgs": orgs, "teams": teams, "users": users,
                     "assertions": orgs + teams + 2 * users,
                     "churn_steps": steps,
                     "queries_per_step": queries_per_step,
                     "seed": seed},
        "incremental": phase_report(incremental),
        "baseline": phase_report(baseline),
        "hit_ratio_improvement": (round(improvement, 2)
                                  if improvement != float("inf")
                                  else None),
        "lockstep": {"queries": len(incremental["answers"]),
                     "disagreements": lockstep_disagreements},
        "oracle": oracle,
        "rbac_edge_churn": _rbac_edge_churn(seed=seed),
        "stack_survival": _stack_survival(universe, seed=seed),
    }


def check_churn_bench(report: dict[str, Any],
                      min_hit_improvement: float = 5.0,
                      max_update_cost_ratio: float = 1.2) -> list[str]:
    """The ``--check`` gates; returns failure strings (empty = pass)."""
    failures: list[str] = []
    improvement = report["hit_ratio_improvement"]
    if improvement is not None and improvement < min_hit_improvement:
        failures.append(
            f"warm-hit ratio under churn improved only "
            f"{improvement:.2f}x over generation-flush, below the "
            f"required {min_hit_improvement:.1f}x")
    incremental = report["incremental"]
    baseline = report["baseline"]
    if incremental["phase_s"] > baseline["phase_s"] * max_update_cost_ratio:
        failures.append(
            f"incremental churn phase took {incremental['phase_s']:.3f}s "
            f"vs baseline {baseline['phase_s']:.3f}s, above the "
            f"{max_update_cost_ratio:.1f}x per-update cost bound")
    if report["lockstep"]["disagreements"]:
        failures.append(
            f"{report['lockstep']['disagreements']} lock-step "
            f"disagreement(s) between incremental and baseline checkers")
    if report["oracle"]["disagreements"]:
        failures.append(
            f"{report['oracle']['disagreements']} oracle disagreement(s) "
            f"in the post-churn sample")
    edges = report["rbac_edge_churn"]
    if edges["hierarchy_rebuilds"]:
        failures.append(
            f"{edges['hierarchy_rebuilds']} hierarchy rebuild(s) during "
            f"edge churn — edge changes must be absorbed as deltas")
    if not edges["edge_deltas"]:
        failures.append("no edge deltas were recorded during edge churn")
    if edges["set_based_disagreements"] or edges["oracle"]["disagreements"]:
        failures.append(
            f"RBAC edge churn disagreements: "
            f"{edges['set_based_disagreements']} vs set-based, "
            f"{edges['oracle']['disagreements']} vs oracle")
    survival = report["stack_survival"]
    if not survival["survived_churn"]:
        failures.append("no mediation-cache entries survived unrelated "
                        "revocations — selective invalidation is inert")
    if not survival["invalidated"]:
        failures.append("the dependent revocation invalidated no "
                        "mediation-cache entries — stale decisions would "
                        "have been served")
    if survival["stale_serves"]:
        failures.append(
            f"{survival['stale_serves']} mediation hit(s) disagreed with a "
            f"forced re-mediation after churn")
    return failures
