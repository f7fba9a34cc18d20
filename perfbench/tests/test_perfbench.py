"""Tests of the daemon benchmark itself (not of the program it measures).

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from repro.crypto.keystore import Keystore
from repro.keynote.credential import Credential
from repro.keynote.values import DEFAULT_VALUE_SET
from repro.oracle.keynote_oracle import oracle_compliance_value

BENCH = Path(__file__).resolve().parent.parent
CHECKOUT = BENCH.parent
NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def keys() -> workloads.KeyFactory:
    return workloads.KeyFactory()


def phases(inputs: workloads.RunInputs) -> list[workloads.Phase]:
    return [inputs.warmup, inputs.probes,
            *(phase for round_ in inputs.rounds for phase in round_)]


def frames(inputs: workloads.RunInputs) -> list[bytes]:
    return [op.frame for phase in phases(inputs) for op in phase.ops()]


@pytest.mark.parametrize("name", NAMES)
def test_a_seed_yields_identical_inputs(name, keys):
    first = workloads.build(name, 7, 1.0, keys)
    again = workloads.build(name, 7, 1.0, keys)
    other = workloads.build(name, 8, 1.0, keys)
    assert frames(first) == frames(again)
    assert [op.slot for phase in phases(first) for op in phase.ops()] == \
        [op.slot for phase in phases(again) for op in phase.ops()]
    assert frames(first) != frames(other)


@pytest.mark.parametrize("name", NAMES)
def test_request_ids_never_repeat(name, keys):
    inputs = workloads.build(name, 3, 1.0, keys)
    ids = [json.loads(frame)["id"] for frame in frames(inputs)]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("name", ["hot-observed", "delegation-churn"])
def test_open_loop_schedule_uses_each_slot_once(name, keys):
    inputs = workloads.build(name, 1, 2.0, keys)
    for _, latency, admin in inputs.rounds:
        for phase in (latency, admin):
            slots = [op.slot for op in phase.ops()]
            assert len(slots) == len(set(slots))
            for job in phase.jobs:
                ops = job.ops()
                gaps = [b.slot - a.slot for a, b in zip(ops, ops[1:])]
                assert all(gap >= workloads.JOB_STRIDE for gap in gaps)


def _oracle_allows(live: list[Credential], params: dict,
                   keystore: Keystore) -> bool:
    attributes = dict(params["attributes"])
    attributes["op"] = params["operation"]
    value = oracle_compliance_value(live, attributes, [params["user_key"]],
                                    DEFAULT_VALUE_SET, keystore)
    return value == DEFAULT_VALUE_SET.maximum


@pytest.mark.parametrize("name", NAMES)
def test_expected_verdicts_agree_with_the_oracle(name, keys):
    """Replay each job in order against the conformance oracle: every read
    sees the trust root plus the job credentials granted and not yet
    revoked, exactly as the daemon's assertion set does."""
    keystore = Keystore()
    for index in range(workloads.USERS):
        keystore.create(workloads.user_key(index))
    keystore.create(workloads.ADMIN_KEY)
    roots = [Credential.from_text(text)
             for text in workloads.trust_root_policies()]
    inputs = workloads.build(name, 11, 0.5, keys)
    checked = 0
    for phase in phases(inputs):
        for job in phase.jobs[:300]:
            live = list(roots)
            for op in job.ops():
                params = json.loads(op.frame)["params"]
                if op.kind == "grant":
                    live.append(Credential.from_text(params["text"]))
                elif op.kind == "revoke":
                    live.remove(Credential.from_text(params["text"]))
                else:
                    assert _oracle_allows(live, params, keystore) \
                        is op.expect, params
                    checked += 1
    assert checked > 100


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10] > mediate [1, 7] > query [2, 5]; encode [8, 9]
    raw = {"names": [spans.ROOT, "plane.mediate", "keynote.query",
                     "protocol.encode"],
           "name": [0, 1, 2, 3], "start": [0.0, 1.0, 2.0, 8.0],
           "end": [10.0, 7.0, 5.0, 9.0], "parent": [-1, 0, 1, 0],
           "root": [-1, 0, 0, 0], "size": [0, 0, 0, 42],
           "request_ids": {"0": "cl1"}}
    agg = spans.self_times(raw, keep=lambda request: True)
    self_s = {name: entry["self_s"] for name, entry in agg["spans"].items()}
    assert self_s == {spans.ROOT: 3.0, "plane.mediate": 3.0,
                      "keynote.query": 3.0, "protocol.encode": 1.0}
    assert sum(self_s.values()) == 10.0
    assert agg["requests"] == 1 and agg["response_bytes"] == 42
    assert spans.self_times(raw, keep=lambda r: False)["requests"] == 0


def _status(events_shed: int = 0, brownout_level: int = 0) -> dict:
    return {"plane": {"oracle_disagreements": 0, "probes": 34},
            "admission": {"shed": {"total": 0}},
            "deadlines": {"expired_pre_dispatch": 0,
                          "expired_before_write": 0},
            "events_shed": events_shed,
            "brownout": {"level": 0, "max_level": brownout_level}}


class _Engine:
    reads_ok = 100


@pytest.mark.parametrize("events_shed,level,events,failures", [
    (0, 0, 100, 0),
    # a shed broadcast is a lost event, not one that was never owed
    (3, 1, 97, 3),
    (0, 0, 99, 1),
])
def test_status_gate_counts_a_brownout_as_a_failure(events_shed, level,
                                                   events, failures):
    problems: list[str] = []
    run.check_status({"status2": _status(events_shed, level),
                      "engine": _Engine(), "events": events}, problems)
    assert len(problems) == failures, problems


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("name,trace", [(n, 0) for n in NAMES]
                         + [("delegation-churn", 1)])
def test_smoke_run_completes(name, trace):
    proc = _run(["--workload", name, "--seed", "2", "--seconds", "1",
                 "--trace", str(trace)], CHECKOUT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "hot-observed", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
