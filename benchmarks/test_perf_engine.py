"""Perf-8: the compiled bitset RBAC engine.

Times the BENCH_8 surfaces at a pytest-benchmark-friendly scale (the CI
gate runs the full 100k-user universe through ``repro bench-engine
--check``):

- cold build + first batch (interning, closure construction, answering);
- warm ``check_access_many`` batch throughput;
- the bench-side set-based reference on the same universe (sampled);
- incremental delta maintenance (grant + assign churn on a built engine);
- compiled KeyNote bytecode vs the tree-walking evaluator.
"""

import pytest

from repro.keynote.eval import ConditionEvaluator, compile_conditions
from repro.keynote.parser import parse_conditions
from repro.keynote.values import DEFAULT_VALUE_SET
from repro.rbac.bench import SetBasedReference, build_requests, build_universe

_USERS = 5_000
_ROLES = 500
_BATCH = 2_000


def _universe():
    policy = build_universe(_USERS, _ROLES, name="perf")
    return policy, build_requests(policy, _BATCH)


def test_perf_engine_cold_build_and_batch(benchmark):
    def cold():
        policy, requests = _universe()
        return policy.check_access_many(requests)

    answers = benchmark(cold)
    assert len(answers) == _BATCH


def test_perf_engine_warm_batch(benchmark):
    policy, requests = _universe()
    policy.check_access_many(requests)  # build + prime
    answers = benchmark(policy.check_access_many, requests)
    assert len(answers) == _BATCH


def test_perf_set_based_checks(benchmark):
    policy, requests = _universe()
    reference = SetBasedReference.from_policy(policy)
    sample = requests[:20]

    def set_based():
        return reference.check_access_many(sample)

    assert len(benchmark(set_based)) == len(sample)


def test_perf_engine_delta_maintenance(benchmark):
    policy, requests = _universe()
    policy.check_access_many(requests)  # build
    toggle = [0]

    def churn():
        toggle[0] += 1
        user = f"u{toggle[0] % _USERS}"
        policy.assign(user, "d0", "r0")
        policy.unassign(user, "d0", "r0")
        return policy.check_access(user, "invoice", "read")

    benchmark(churn)
    assert policy.engine_stats()["builds"] == 1


_CONDITIONS = ('app_domain == "webcom" && (op == "stage" || op == "combine")'
               ' && level < 4')
_ATTRS = {"app_domain": "webcom", "op": "stage", "level": "2"}


def test_perf_keynote_tree_walk(benchmark):
    program = parse_conditions(_CONDITIONS)

    def walk():
        return ConditionEvaluator(_ATTRS,
                                  DEFAULT_VALUE_SET).program_value(program)

    assert benchmark(walk) == "true"


def test_perf_keynote_bytecode(benchmark):
    compiled = compile_conditions(parse_conditions(_CONDITIONS))
    assert benchmark(compiled.value, _ATTRS, DEFAULT_VALUE_SET) == "true"
