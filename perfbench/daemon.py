"""Launch the ``repro serve`` daemon for the benchmark.

The daemon is assembled exactly as ``repro serve`` assembles it: a
``ServePolicyPlane`` on a durable root with the default
``AdmissionController`` and ``BrownoutController``.  The launcher exists
so that it can install the trust root in-process and, for the traced run,
the bench-side timing wrappers of :mod:`spans` before the plane is built.

Usage::

    python3 perfbench/daemon.py --root DIR [--trace-out FILE]

Once listening it prints one JSON line with the port and the set-up
breakdown (imports, plane construction and recovery, trust-root install),
then serves until a client sends ``shutdown``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# The flags ``repro serve`` uses by default.
CACHE_TTL = 30.0
MAX_INFLIGHT = 256


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True,
                        help="durability root directory")
    parser.add_argument("--trace-out", default="",
                        help="write the armed spans here at shutdown")
    args = parser.parse_args()

    import workloads
    from repro.serve.admission import AdmissionController, BrownoutController
    from repro.serve.plane import ServePolicyPlane
    from repro.serve.server import ReproServer
    imported = time.perf_counter()

    recorder = None
    if args.trace_out:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    async def serve() -> None:
        started = time.perf_counter()
        plane = ServePolicyPlane(root=args.root, cache_ttl=CACHE_TTL)
        admission = AdmissionController(
            clock=plane.clock, max_inflight=MAX_INFLIGHT, peer_rate=None,
            peer_burst=None, obs=plane.obs,
            brownout=BrownoutController(clock=plane.clock, obs=plane.obs))
        built = time.perf_counter()
        for index in range(workloads.USERS):
            plane.keystore.create(workloads.user_key(index))
        plane.keystore.create(workloads.ADMIN_KEY)
        for policy in workloads.trust_root_policies():
            plane.session.add_policy(policy)
        installed = time.perf_counter()
        server = ReproServer(plane, host="127.0.0.1", port=0,
                             pidfile=None, admission=admission)
        if recorder is not None:
            server._methods["bench_trace"] = (
                lambda peer, params: _control(recorder, plane, params))
        await server.start()
        print(json.dumps({"port": server.port,
                          "import_s": imported - STARTED,
                          "plane_s": built - started,
                          "policy_s": installed - built}), flush=True)
        await server.serve_until_shutdown()
        if recorder is not None:
            recorder.armed = False
            recorder.dump(args.trace_out)

    asyncio.run(serve())
    return 0


def _control(recorder, plane, params) -> dict:
    """Arm or disarm span recording; report counters ``status`` lacks."""
    from repro.crypto.keystore import SIGNATURE_CACHE
    recorder.armed = bool(params.get("arm"))
    return {"armed": recorder.armed, "audit_records": len(plane.audit),
            "sigcache": SIGNATURE_CACHE.stats()}


if __name__ == "__main__":
    sys.exit(main())
