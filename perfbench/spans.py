"""Bench-side timing wrappers for the traced daemon run.

The launcher installs these around public functions of each layer before it
builds the plane; the program itself is not modified.  Every wrapped call
made while the recorder is armed becomes one span: name, start, end, parent
span, root span (which carries the wire request id) and frame bytes.

Parents come from a context variable, so spans of the daemon's concurrent
connection tasks never nest into each other.  The root span of a request,
``server.request``, opens when the server's connection loop reads a line
and closes when it asks for the next one: it covers decode, admission,
dispatch, encode and the socket write.  Self time (duration minus the time
covered by child spans) is computed from the raw spans afterwards by
:func:`self_times`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from array import array
from typing import Any, Callable

ROOT = "server.request"

_parent: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_parent", default=-1)
_root: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_root", default=-1)


class Recorder:
    """Raw span storage, armed only around the measured phases.

    Spans live in flat arrays (name, start, end, parent, root, bytes), so
    recording them adds no objects for the daemon's garbage collector to
    scan; request ids are kept per root span.
    """

    def __init__(self) -> None:
        self.armed = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.size = array("i")
        #: root span index -> wire request id
        self.request_ids: dict[int, str] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(_parent.get())
        self.root.append(_root.get())
        self.end.append(0.0)
        self.size.append(0)
        self.start.append(time.perf_counter())
        return index

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist(),
                       "parent": self.parent.tolist(),
                       "root": self.root.tolist(),
                       "size": self.size.tolist(),
                       "request_ids": self.request_ids}, handle,
                      separators=(",", ":"))


def wrap(recorder: Recorder, owner: Any, attribute: str, name: str,
         on_result: Callable[[int, Any], None] | None = None) -> None:
    """Replace ``owner.attribute`` with a span-recording wrapper."""
    original = getattr(owner, attribute)
    name_id = recorder.name_id(name)

    end = recorder.end
    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.armed:
                return await original(*args, **kwargs)
            index = recorder.open(name_id)
            token = _parent.set(index)
            try:
                return await original(*args, **kwargs)
            finally:
                _parent.reset(token)
                end[index] = time.perf_counter()
    else:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.armed:
                return original(*args, **kwargs)
            index = recorder.open(name_id)
            token = _parent.set(index)
            try:
                result = original(*args, **kwargs)
            finally:
                _parent.reset(token)
                end[index] = time.perf_counter()
            if on_result is not None:
                on_result(index, result)
            return result
    setattr(owner, attribute, wrapper)


#: (module, attribute, span name) of every wrapped function
TARGETS = (
    ("repro.serve.server", "decode_frame", "protocol.decode"),
    ("repro.serve.server", "encode_frame", "protocol.encode"),
    ("asyncio", "StreamWriter.write", "server.write"),
    ("repro.serve.server", "ReproServer._broadcast_decision",
     "server.broadcast"),
    ("repro.serve.admission", "AdmissionController.admit",
     "admission.admit"),
    ("repro.serve.plane", "ServePolicyPlane.mediate", "plane.mediate"),
    ("repro.serve.plane", "ServePolicyPlane.add_credential",
     "plane.add_credential"),
    ("repro.serve.plane", "ServePolicyPlane.revoke_credential",
     "plane.revoke_credential"),
    ("repro.serve.plane", "ServePolicyPlane.prune_spans",
     "plane.prune_spans"),
    ("repro.serve.plane", "ServePolicyPlane.span_tree", "plane.span_tree"),
    ("repro.obs.trace", "Tracer.find", "obs.tracer_find"),
    ("repro.obs.trace", "Tracer.start", "obs.tracer_start"),
    ("repro.util.events", "AuditLog.record", "audit.record"),
    ("repro.webcom.stack", "AuthorisationStack.mediate", "stack.mediate"),
    ("repro.keynote.api", "KeyNoteSession.query", "keynote.query"),
    ("repro.keynote.compliance", "ComplianceChecker.query",
     "keynote.checker_query"),
    ("repro.keynote.api", "KeyNoteSession.add_credential",
     "keynote.add_credential"),
    ("repro.keynote.api", "KeyNoteSession.revoke_credential",
     "keynote.revoke_credential"),
    ("repro.keynote.compliance", "ComplianceChecker.add_assertion",
     "keynote.add_assertion"),
    ("repro.keynote.compliance", "ComplianceChecker.revoke_assertion",
     "keynote.revoke_assertion"),
    ("repro.crypto.keystore", "SignatureVerificationCache.verify",
     "crypto.sigverify"),
    ("repro.store.wal", "WriteAheadLog.append", "wal.append"),
)
#: every span name, the request root first
SPAN_NAMES = (ROOT,) + tuple(name for _, _, name in TARGETS)


def install(recorder: Recorder) -> None:
    """Wrap the daemon's layers (call before the plane is built)."""
    import asyncio
    import importlib

    def request_id(_index: int, message: Any) -> None:
        root = _root.get()
        if root >= 0 and isinstance(message, dict):
            recorder.request_ids[root] = str(message.get("id"))

    def frame_bytes(index: int, data: Any) -> None:
        recorder.size[index] = len(data)

    callbacks = {"protocol.decode": request_id,
                 "protocol.encode": frame_bytes}
    for module, attribute, name in TARGETS:
        owner: Any = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        wrap(recorder, owner, leaf, name, callbacks.get(name))

    # The request root: from the line the connection loop read to its next
    # read (the loop writes the response in between).
    root_id = recorder.name_id(ROOT)
    readline = asyncio.StreamReader.readline

    @functools.wraps(readline)
    async def traced_readline(self: asyncio.StreamReader) -> bytes:
        root = _root.get()
        if root >= 0:
            recorder.end[root] = time.perf_counter()
            _root.set(-1)
            _parent.set(-1)
        line = await readline(self)
        if line and recorder.armed:
            index = recorder.open(root_id)
            _root.set(index)
            _parent.set(index)
        return line

    asyncio.StreamReader.readline = traced_readline


def self_times(raw: dict[str, Any],
               keep: Callable[[str], bool]) -> dict[str, Any]:
    """Aggregate the dumped spans of the requests whose id passes ``keep``.

    Returns per span name: calls, total self seconds and total duration,
    plus the bytes of response frames (encodes directly under a root) and
    the number of roots (requests) kept.
    """
    names, start, end = raw["names"], raw["start"], raw["end"]
    parent, root, size = raw["parent"], raw["root"], raw["size"]
    request_ids = {int(k): v for k, v in raw["request_ids"].items()}
    child_time = [0.0] * len(start)
    for index, up in enumerate(parent):
        if up >= 0 and end[index] > 0.0:
            child_time[up] += end[index] - start[index]
    root_id = names.index(ROOT) if ROOT in names else -1
    kept = {index for index, request in request_ids.items() if keep(request)}
    totals: dict[str, dict[str, float]] = {}
    response_bytes = 0
    for index, name_id in enumerate(raw["name"]):
        owner = index if name_id == root_id else root[index]
        if owner not in kept or end[index] <= 0.0:
            continue
        entry = totals.setdefault(names[name_id],
                                  {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        duration = end[index] - start[index]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        entry["total_s"] += duration
        if names[name_id] == "protocol.encode" and parent[index] == owner:
            response_bytes += size[index]
    return {"spans": totals, "response_bytes": response_bytes,
            "requests": int(totals.get(ROOT, {}).get("calls", 0))}
