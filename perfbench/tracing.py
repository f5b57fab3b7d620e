"""Span tracing from outside the program, for the traced run.

:class:`Tracer` wraps public functions of the system's layers in
place (class attributes and module globals), records one span per call
— name, start, end, parent span, request id — and restores the
originals on exit.  Spans stay in parallel in-memory lists while the
trial runs; :meth:`Tracer.write` saves them when the run ends.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of one request's spans add up to its root
span, and the root span plus the client-side remainder to the
request's wall time.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter_ns


def _targets():
    """(owner, attribute, span name) for every wrapped function."""
    from repro.core import webserver
    from repro.core.controller import PesosController
    from repro.core.freshness import FreshnessAuthority
    from repro.core.session import SessionManager
    from repro.core.store import ObjectStore
    from repro.crypto.aead import StreamAead
    from repro.kinetic.client import KineticClient
    from repro.kinetic.drive import KineticDrive
    from repro.kinetic.protocol import Message
    from repro.policy.compiled import PolicyEngine
    from repro.policy.context import VersionInfo
    from repro.policy.interpreter import PolicyInterpreter
    from repro.sgx.enclave import Enclave
    from repro.telemetry.audit import PolicyAuditor

    return [
        (webserver, "parse_http_request", "request.parse"),
        (webserver, "render_http_response", "request.render"),
        (webserver.WebServer, "handle_bytes", "webserver.handle_bytes"),
        (SessionManager, "connect", "session.connect"),
        (PesosController, "handle", "controller.handle"),
        (PolicyEngine, "evaluate", "policy.engine"),
        (PolicyInterpreter, "evaluate", "policy.interpreter"),
        (VersionInfo, "from_content", "content.from_content"),
        (ObjectStore, "read_meta", "store.read_meta"),
        (ObjectStore, "write_meta", "store.write_meta"),
        (ObjectStore, "read_value", "store.read_value"),
        (ObjectStore, "write_value", "store.write_value"),
        (ObjectStore, "scan_keys", "store.scan_keys"),
        (StreamAead, "seal", "aead.seal"),
        (StreamAead, "open", "aead.open"),
        (FreshnessAuthority, "prepare", "freshness.prepare"),
        (FreshnessAuthority, "settle", "freshness.settle"),
        (FreshnessAuthority, "expected", "freshness.expected"),
        (FreshnessAuthority, "acceptable", "freshness.acceptable"),
        (Enclave, "seal", "sgx.seal"),
        (PolicyAuditor, "record_decision", "audit.record_decision"),
        (KineticClient, "get", "kinetic.get"),
        (KineticClient, "put", "kinetic.put"),
        (KineticClient, "get_key_range", "kinetic.get_key_range"),
        (Message, "command_bytes", "protocol.command_bytes"),
        (KineticDrive, "handle", "drive.handle"),
    ]


class Tracer:
    """In-memory span recorder over wrapped layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.request_id = -1
        #: Plaintext bytes through the store AEAD, split by record kind.
        self.aead_bytes = {"seal": 0, "open": 0, "meta_seal": 0}
        self._stack: list[int] = []
        self._saved: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, function, name: str):
        names, parents, requests = self.names, self.parents, self.requests
        starts, ends, stack = self.starts, self.ends, self._stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            started = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                starts[index] = started
                stack.pop()

        return traced

    def _wrap_aead(self, function, direction: str, name: str):
        counts = self.aead_bytes
        inner = self._wrap(function, name)

        def counted(aead, nonce, data, aad=b""):
            counts[direction] += len(data)
            if direction == "seal" and aad.startswith(b"meta:"):
                counts["meta_seal"] += len(data)
            return inner(aead, nonce, data, aad)

        return counted

    def __enter__(self) -> "Tracer":
        for owner, attribute, name in _targets():
            raw = vars(owner)[attribute]
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            elif name in ("aead.seal", "aead.open"):
                wrapped = self._wrap_aead(raw, name.split(".")[1], name)
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attribute, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time in ns (duration minus direct children)."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [end - start for start, end in zip(starts, ends)]
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        return own

    def check_nesting(self, latencies: list[int]) -> list[str]:
        """Problems with span containment or attribution, if any.

        Every child lies within its parent, no self time is negative,
        and each request's root span lies within the wall time the
        client measured for it.
        """
        problems = []
        starts, ends, parents = self.starts, self.ends, self.parents
        own = self.self_times()
        for index, parent in enumerate(parents):
            if parent >= 0:
                if starts[index] < starts[parent] or ends[index] > ends[parent]:
                    problems.append(f"span {index} escapes its parent")
            else:
                request = self.requests[index]
                if ends[index] - starts[index] > latencies[request]:
                    problems.append(f"request {request} root exceeds wall")
            if own[index] < 0:
                problems.append(f"span {index} has negative self time")
        return problems[:10]

    def summary(self, scales: list) -> dict:
        """name -> (calls, self ns, calls not nested in the same layer).

        Self times are multiplied by ``scales[request id]``, the
        request's wall-to-reference speed factor.
        """
        own = self.self_times()
        names, parents = self.names, self.parents
        table: dict[str, list] = {}
        for index, name in enumerate(names):
            row = table.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += own[index] * scales[self.requests[index]]
            parent = parents[index]
            layer = name.split(".", 1)[0]
            if parent < 0 or names[parent].split(".", 1)[0] != layer:
                row[2] += 1
        return {name: tuple(row) for name, row in table.items()}

    def write(self, path) -> None:
        """Save every span as one JSON line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps([
                    index, name, self.parents[index], self.requests[index],
                    self.starts[index], self.ends[index],
                ]) + "\n")
