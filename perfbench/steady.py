"""Steadiness self-check: run each workload repeatedly and report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 [--workloads hot-observed,...]

Run ``n`` uses seed ``FIRST_SEED + n``.  For every end-to-end metric the
report gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (interquartile distance over the median) against the metric's
bound from ``BENCHMARK.json``.  Two drift columns compare, per run, the
second half of the timed window with the first (median over runs), and the
median of the later half of the runs with the earlier half.

The check fails (exit 1) when a spread exceeds its bound (``SPREAD``) or
the later half of the runs is worse than the earlier half by more than the
bound (``HALVES``); every metric, ``setup_s`` included, is held to both.
A spread above a third of its bound, the margin the benchmark aims for,
is marked ``>1/3`` without failing the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
STATE = CHECKOUT / ".perfbench"
#: seed of the first run; run ``n`` uses ``FIRST_SEED + n``
FIRST_SEED = 1000


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    record_file = (STATE / "runs"
                   / f"{workload}-seed{seed}-trace{trace}.json")
    record = json.loads(record_file.read_text())
    return result, record, elapsed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in
                                         spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        drifts: dict[str, list[float]] = {}
        times = []
        for n in range(args.runs):
            seed = FIRST_SEED + n
            result, record, elapsed = run_once(workload, seed, args.seconds,
                                               args.trace)
            times.append(elapsed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect run")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in record["detail"].get("drift", {}).items():
                drifts.setdefault(name, []).append(value)
            print(f"  {workload} seed {seed}: {elapsed:.1f}s", flush=True)
        print(f"\n{workload}: {args.runs} runs, "
              f"{statistics.median(times):.1f}s median wall per run")
        print(f"  {'metric':34} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6} {'halves':>7} {'window':>7}")
        for name, series in values.items():
            median, q1, q3, share = spread(series)
            half = len(series) // 2
            early = statistics.median(series[:half])
            late = statistics.median(series[half:])
            halves = (late - early) / early if early else 0.0
            window = (statistics.median(drifts[name]) if name in drifts
                      else None)
            bound = bounds.get(name)
            flag = ""
            worse = halves if better[name] == "lower" else -halves
            if bound is not None:
                if share > bound:
                    flag += "  SPREAD"
                    steady = False
                elif share > bound / 3:
                    flag += "  >1/3"
                if worse > bound:
                    flag += "  HALVES"
                    steady = False
            print(f"  {name:34} {median:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{share:7.3f} {bound if bound is not None else '':>6} "
                  f"{halves:7.3f} "
                  f"{'' if window is None else format(window, '7.3f'):>7}"
                  f"{flag}")
        report[workload] = {"values": values, "drift": drifts,
                            "wall_s": times}
    out = STATE / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\n{'steady' if steady else 'NOT steady'}; raw values in {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
