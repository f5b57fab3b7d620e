"""Closed-loop HTTP client, correctness shadow and metric reduction.

One *trial* builds a fresh system in the shipped configuration, loads
the workload's records, and sends the measured operations one at a
time through ``WebServer.handle_bytes`` (one client, one thread).  A
run repeats trials on the same generated requests until its time is
up and reports medians and pooled percentiles.  Every response is
checked against a client-side shadow of what the store must hold.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from workloads import FINGERPRINT, GET, POLICY_SOURCE, PUT, VALUE_SIZE
from workloads import META_WEIGHT, Workload, generate

STORAGE_KEY = b"perfbench-storage-key".ljust(32, b"\0")


# -- system under test -----------------------------------------------------

@dataclass
class System:
    server: object
    controller: object
    cluster: object
    policy_id: str


def build(workload: Workload) -> System:
    """The shipped configuration plus the workload's own knobs."""
    from repro.core.cache import CacheConfig
    from repro.core.controller import ControllerConfig, PesosController
    from repro.core.webserver import WebServer
    from repro.kinetic.cluster import DriveCluster
    from repro.kinetic.drive import KineticDrive

    knobs = {}
    if workload.cache_share is not None:
        share = workload.cache_share
        knobs["cache"] = CacheConfig(
            object_bytes=int(workload.records * VALUE_SIZE * share),
            key_bytes=int(workload.records * META_WEIGHT * share),
        )
    if workload.freshness:
        knobs["freshness_enabled"] = True
    if workload.audit_log_size:
        knobs["audit_log_size"] = workload.audit_log_size
    cluster = DriveCluster(num_drives=3)
    clients = cluster.connect_all(
        KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
    )
    controller = PesosController(
        clients,
        storage_key=STORAGE_KEY,
        config=ControllerConfig(replication_factor=2, **knobs),
    )
    server = WebServer(controller)
    body = POLICY_SOURCE.encode()
    raw = server.handle_bytes(
        f"POST /put_policy HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        .encode() + body,
        FINGERPRINT,
    )
    status, headers, _ = parse_response(raw)
    if status != 200:
        raise RuntimeError(f"policy install failed with HTTP {status}")
    return System(server, controller, cluster, headers["X-Pesos-Policy"])


def parse_response(raw: bytes):
    """(status, headers, body) of one HTTP/1.1 response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, headers, body


# -- correctness shadow ------------------------------------------------------

class Shadow:
    """What the store must answer, from acknowledged puts only."""

    def __init__(self):
        self.objects: dict[str, tuple[int, str]] = {}  # key -> (version, sha)
        self.live: list[str] = []                      # sorted live keys
        self.user_bytes = 0                            # live value bytes
        self.mismatches: list[str] = []

    def _fail(self, op, message: str) -> None:
        if len(self.mismatches) < 10:
            self.mismatches.append(f"{op.kind} {op.key}: {message}")

    def observe(self, op, status: int, headers: dict, body: bytes) -> bool:
        """Check one response; False when the request failed."""
        if status != 200:
            return False
        if op.kind == PUT:
            version = int(headers.get("X-Pesos-Version", "-1"))
            previous = self.objects.get(op.key)
            expected = 0 if previous is None else previous[0] + 1
            if version != expected:
                self._fail(op, f"acked version {version}, expected {expected}")
            if previous is None:
                bisect.insort(self.live, op.key)
            else:
                self.user_bytes -= VALUE_SIZE
            self.user_bytes += len(op.value)
            self.objects[op.key] = (version, hashlib.sha256(op.value).hexdigest())
        elif op.kind == GET:
            version, digest = self.objects[op.key]
            if hashlib.sha256(body).hexdigest() != digest:
                self._fail(op, "body differs from the last acked put")
            if int(headers.get("X-Pesos-Version", "-1")) != version:
                self._fail(op, "stale version")
        else:
            start = bisect.bisect_left(self.live, op.key)
            keys = self.live[start:start + op.count]
            expected = "\n".join(f"{k}@{self.objects[k][0]}" for k in keys)
            if body.decode() != expected:
                self._fail(op, "scan result is not the sorted live range")
        return True


# -- one trial ---------------------------------------------------------------

@dataclass
class Trial:
    setup_s: float             # wall seconds to build and load
    setup_scaled: float        # the same at the probe's reference speed
    latencies: list            # wall ns per measured op, in op order
    scales: list               # per op: wall-to-reference factor
    failed: int
    system: System
    shadow: Shadow
    counters_after_load: dict

    def scaled(self) -> list:
        return [ns * k for ns, k in zip(self.latencies, self.scales)]


def counters(system: System) -> dict:
    """Deterministic layer counters (read before and after measuring)."""
    controller = system.controller
    caches = controller.caches
    clients = controller.store.clients
    values = {
        "roundtrips": sum(c.requests_sent for c in clients),
        "wire_bytes": sum(c.bytes_on_wire for c in clients),
        "drive_bytes_written": sum(
            d.stats.bytes_written for d in system.cluster.drives
        ),
        "events": len(controller.effects.events),
    }
    for region, cache in (
        ("object", caches.objects), ("meta", caches.keys),
        ("policy", caches.policies),
    ):
        values[f"{region}_hits"] = cache.stats.hits
        values[f"{region}_misses"] = cache.stats.misses
    engine = controller.policy_engine
    values["decision_hits"] = engine.decisions.stats.hits if engine else 0
    values["decision_misses"] = engine.decisions.stats.misses if engine else 0
    freshness = controller.freshness
    values["pins"] = freshness.pins if freshness else 0
    values["proof_hits"] = freshness.cache.hits if freshness else 0
    values["proof_misses"] = freshness.cache.misses if freshness else 0
    return values


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _add(a, b):
    return a + b


class SpeedProbe:
    """How fast this machine runs Python right now.

    A fixed pure-Python kernel, timed before the trial and then
    whenever 20 ms have passed since the last sample.  On a shared
    machine the interpreter's speed drifts by tens of percent over
    seconds as neighbours come and go; dividing each request's wall
    time by the kernel's local time cancels most of that drift.  The
    kernel mixes a bare loop with calls and small allocations, which
    together track both the get and the scan paths better than either
    alone.  It runs no Pesos code, so a change to the program cannot
    move it.
    """

    #: The kernel's time at the reference speed: scaled times equal
    #: wall times on a machine where the kernel takes exactly this long
    #: (about an idle 2.1 GHz x86 core under Python 3.11).
    REFERENCE_NS = 750_000
    INTERVAL_NS = 20_000_000

    def __init__(self):
        self.times: list[int] = []
        self.last = 0
        self.sample()

    def sample(self) -> None:
        begun = perf_counter_ns()
        total = 0
        for i in range(10_000):
            total += i
        for i in range(2_000):
            total = _add(total, _Cell(i).value)
        self.last = perf_counter_ns()
        self.times.append(self.last - begun)

    def tick(self) -> int:
        """Sample when due; the index of the latest sample."""
        if perf_counter_ns() - self.last > self.INTERVAL_NS:
            self.sample()
        return len(self.times) - 1

    def scale(self, index: int) -> float:
        """Wall-to-reference factor around sample ``index``.

        The median of the samples just before and after, so one
        sample caught by an interrupt does not skew its neighbours.
        """
        window = self.times[max(0, index - 1):index + 3]
        return self.REFERENCE_NS / statistics.median(window)


def run_trial(workload: Workload, seed: int, plan=None, tracer=None):
    """Build, load, then send every measured op; returns (Trial, plan)."""
    probe = SpeedProbe()
    started = perf_counter()
    system = build(workload)
    build_s = perf_counter() - started
    if plan is None:
        plan = generate(workload, seed, system.policy_id)
    handle = system.server.handle_bytes
    shadow = Shadow()
    started = perf_counter()
    for op in plan.load:
        probe.tick()
        status, headers, body = parse_response(handle(op.raw, FINGERPRINT))
        if not shadow.observe(op, status, headers, body):
            raise RuntimeError(f"load put of {op.key} failed: HTTP {status}")
    setup_s = build_s + perf_counter() - started
    probe.sample()
    setup_scale = probe.REFERENCE_NS / statistics.median(probe.times)
    before = counters(system)
    latencies = [0] * len(plan.ops)
    probe_at = [0] * len(plan.ops)
    failed = 0
    if tracer is not None:
        tracer.__enter__()
        handle = system.server.handle_bytes  # now the traced method
    try:
        for index, op in enumerate(plan.ops):
            probe_at[index] = probe.tick()
            if tracer is not None:
                tracer.request_id = index
            begun = perf_counter_ns()
            raw = handle(op.raw, FINGERPRINT)
            latencies[index] = perf_counter_ns() - begun
            status, headers, body = parse_response(raw)
            if not shadow.observe(op, status, headers, body):
                failed += 1
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
    probe.sample()
    trial = Trial(
        setup_s=setup_s,
        setup_scaled=setup_s * setup_scale,
        latencies=latencies,
        scales=[probe.scale(i) for i in probe_at],
        failed=failed,
        system=system,
        shadow=shadow,
        counters_after_load=before,
    )
    return trial, plan


def final_checks(trial: Trial) -> list[str]:
    """End-of-trial checks on the admin surface (secure workloads)."""
    import json

    problems = []
    controller = trial.system.controller
    handle = trial.system.server.handle_bytes
    if controller.auditor is not None:
        status, _, body = parse_response(
            handle(b"GET /_audit?verify=1 HTTP/1.1\r\n\r\n", FINGERPRINT)
        )
        if status != 200 or not json.loads(body)["verification"]["ok"]:
            problems.append("audit chain does not verify")
    if controller.freshness is not None:
        _, _, body = parse_response(
            handle(b"GET /_health HTTP/1.1\r\n\r\n", FINGERPRINT)
        )
        freshness = json.loads(body).get("freshness", {})
        if freshness.get("forked") is not False:
            problems.append("health reports a freshness fork")
    return problems


def bytes_stored_per_user_byte(trial: Trial) -> float:
    stored = sum(d.used_bytes for d in trial.system.cluster.drives)
    return stored / trial.shadow.user_bytes


# -- reductions ---------------------------------------------------------------

def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100 * len(sorted_values) + 0.5)) - 1))
    return sorted_values[rank]


#: A p99 needs at least ten samples beyond it.
P99_MIN_SAMPLES = 1000


def latency_table(plan, trials: list, scaled: bool) -> dict:
    """Per-op-type latency samples pooled over trials, in µs."""
    by_kind: dict[str, list[float]] = {}
    for trial in trials:
        values = trial.scaled() if scaled else trial.latencies
        for op, ns in zip(plan.ops, values):
            by_kind.setdefault(op.kind, []).append(ns / 1000.0)
    return {kind: sorted(values) for kind, values in by_kind.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: Workload, seed: int, seconds: float):
    """Trials until ``seconds`` is spent, reduced to end-to-end metrics.

    Returns ``(metrics, details, attempted, failed, problems)``.
    """
    begun = perf_counter()
    trials: list[Trial] = []
    plan = None
    problems: list[str] = []
    longest = 0.0
    while True:
        trial_start = perf_counter()
        trial, plan = run_trial(workload, seed, plan)
        problems += trial.shadow.mismatches + final_checks(trial)
        stored_ratio = bytes_stored_per_user_byte(trial)
        trial.system = None  # drop the store before the next trial
        trials.append(trial)
        gc.collect()
        longest = max(longest, perf_counter() - trial_start)
        if perf_counter() - begun + longest > seconds:
            break
    attempted = sum(len(t.latencies) for t in trials)
    failed = sum(t.failed for t in trials)
    read, write = workload.read_op, PUT
    tables = {True: latency_table(plan, trials, True),
              False: latency_table(plan, trials, False)}
    reductions = {}
    for scaled, prefix in ((True, ""), (False, "wall_")):
        samples = tables[scaled]
        op_ns = sum(sum(t.scaled() if scaled else t.latencies)
                    for t in trials)
        reductions[prefix] = {
            "throughput_ops": (attempted / (op_ns / 1e9), "ops/s"),
            "read_p50_us": (percentile(samples[read], 50), "us"),
            "write_p50_us": (percentile(samples[write], 50), "us"),
            "setup_s": (statistics.median(
                t.setup_scaled if scaled else t.setup_s for t in trials), "s"),
        }
    metrics = dict(reductions[""])
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["bytes_stored_per_user_byte"] = (stored_ratio, "ratio")
    details = {
        "trials": (len(trials), "count"),
        "error_rate": (failed / attempted, "ratio"),
        "speed_scale": (statistics.median(
            k for t in trials for k in t.scales), "ratio"),
    }
    details.update(
        (f"wall_{name}", value) for name, value in reductions["wall_"].items()
    )
    for scaled, prefix in ((True, ""), (False, "wall_")):
        for kind, values in sorted(tables[scaled].items()):
            if not scaled:
                details[f"{kind}_samples"] = (len(values), "count")
            details[f"{prefix}{kind}_p50_us"] = (percentile(values, 50), "us")
            if len(values) >= P99_MIN_SAMPLES:
                details[f"{prefix}{kind}_p99_us"] = (
                    percentile(values, 99), "us")
    return metrics, details, attempted, failed, problems


# -- traced run ----------------------------------------------------------------

def virtual_us_per_op(workload: Workload, seed: int, plan) -> float:
    """Replay the measured ops through the DES under ``sgx-sim``.

    One client in a closed loop on a fresh, loaded system; the model
    charges each request's recorded effects in virtual time, which
    does not depend on how fast this machine runs Python.
    """
    from repro.bench.configs import make_config
    from repro.bench.model import SystemModel
    from repro.sim import Environment

    system = build(workload)
    handle = system.server.handle_bytes
    shadow = Shadow()
    for op in plan.load:
        shadow.observe(op, *parse_response(handle(op.raw, FINGERPRINT)))
    env = Environment()
    model = SystemModel(env, system.controller, make_config("sgx", "sim"),
                        seed=seed)

    class Reply:
        def __init__(self, op):
            status, headers, self.value = parse_response(
                handle(op.raw, FINGERPRINT)
            )
            if not shadow.observe(op, status, headers, self.value):
                raise RuntimeError(f"replayed {op.kind} failed: HTTP {status}")

    def client():
        for op in plan.ops:
            yield from model.request(lambda op=op: Reply(op), len(op.raw))

    env.process(client())
    env.run()
    if shadow.mismatches:
        raise RuntimeError(f"replay mismatch: {shadow.mismatches[0]}")
    return env.now / len(plan.ops) * 1e6


def _per(amount: float, base: float) -> float:
    return amount / base if base else 0.0


def run_traced(workload: Workload, seed: int, out_dir):
    """One untraced and one traced trial plus the DES replay."""
    from tracing import Tracer

    reference, plan = run_trial(workload, seed)
    reference_tput = len(plan.ops) / (sum(reference.scaled()) / 1e9)
    problems = reference.shadow.mismatches + final_checks(reference)
    reference = None
    gc.collect()

    tracer = Tracer()
    trial, _ = run_trial(workload, seed, plan, tracer=tracer)
    problems += trial.shadow.mismatches + final_checks(trial)
    problems += tracer.check_nesting(trial.latencies)
    ops = len(plan.ops)
    puts = sum(1 for op in plan.ops if op.kind == PUT)
    put_bytes = sum(len(op.value) for op in plan.ops if op.kind == PUT)
    before, after = trial.counters_after_load, counters(trial.system)
    delta = {name: after[name] - before[name] for name in after}
    table = tracer.summary(trial.scales)

    def column(index: int, *names: str) -> float:
        return sum(table.get(name, (0, 0, 0))[index] for name in names)

    def calls(*names: str) -> int:
        return column(0, *names)

    def self_us(*names: str, per: str | None = None) -> float:
        """Self time of ``names`` in µs per call (of ``per`` if given)."""
        return _per(column(1, *names),
                    calls(per) if per else calls(*names)) / 1000.0

    def hit_ratio(region: str) -> float:
        hits, misses = delta[f"{region}_hits"], delta[f"{region}_misses"]
        return _per(hits, hits + misses)

    policy = ("policy.engine", "policy.interpreter")
    policy_entries = column(2, *policy)
    latency_ns = sum(trial.scaled())
    root_ns = sum(
        (tracer.ends[i] - tracer.starts[i]) * trial.scales[tracer.requests[i]]
        for i, parent in enumerate(tracer.parents) if parent < 0
    )
    traced_tput = ops / (latency_ns / 1e9)
    metrics = {
        "request.parse_us": (self_us("request.parse"), "us"),
        "request.render_us": (self_us("request.render"), "us"),
        "webserver.self_us": (self_us("webserver.handle_bytes"), "us"),
        "session.connect_us": (self_us("session.connect"), "us"),
        "controller.self_us": (self_us("controller.handle"), "us"),
        "cache.object_hit_ratio": (hit_ratio("object"), "ratio"),
        "cache.meta_hit_ratio": (hit_ratio("meta"), "ratio"),
        "cache.policy_hit_ratio": (hit_ratio("policy"), "ratio"),
        "policy.evaluate_us": (
            _per(column(1, *policy), policy_entries) / 1000.0, "us"),
        "policy.evals_per_op": (policy_entries / ops, "count"),
        "policy.decision_cache_hit_ratio": (hit_ratio("decision"), "ratio"),
        "content.parse_us": (self_us("content.from_content"), "us"),
        "store.read_meta_us": (self_us("store.read_meta"), "us"),
        "store.write_meta_us": (self_us("store.write_meta"), "us"),
        "store.read_value_us": (self_us("store.read_value"), "us"),
        "store.write_value_us": (self_us("store.write_value"), "us"),
        "store.scan_keys_us": (self_us("store.scan_keys"), "us"),
        "store.meta_bytes_per_put": (
            _per(tracer.aead_bytes["meta_seal"], puts), "B"),
        "aead.seal_us": (self_us("aead.seal"), "us"),
        "aead.open_us": (self_us("aead.open"), "us"),
        "aead.bytes_per_op": (
            (tracer.aead_bytes["seal"] + tracer.aead_bytes["open"]) / ops,
            "B"),
        "freshness.pin_us": (
            self_us("freshness.prepare", "freshness.settle"), "us"),
        "freshness.pins_per_put": (_per(delta["pins"], puts), "count"),
        "freshness.verify_us": (
            self_us("freshness.acceptable", "freshness.expected",
                    per="freshness.acceptable"), "us"),
        "freshness.proof_cache_hit_ratio": (hit_ratio("proof"), "ratio"),
        "sgx.seal_us": (self_us("sgx.seal"), "us"),
        "sgx.seals_per_put": (_per(calls("sgx.seal"), puts), "count"),
        "audit.append_us": (self_us("audit.record_decision"), "us"),
        "kinetic.client_self_us": (
            self_us("kinetic.get", "kinetic.put", "kinetic.get_key_range"),
            "us"),
        "kinetic.roundtrips_per_op": (delta["roundtrips"] / ops, "count"),
        "kinetic.wire_bytes_per_op": (delta["wire_bytes"] / ops, "B"),
        "protocol.command_encodes_per_roundtrip": (
            _per(calls("protocol.command_bytes"), delta["roundtrips"]),
            "count"),
        "drive.handle_us": (self_us("drive.handle"), "us"),
        "drive.bytes_written_per_user_byte": (
            _per(delta["drive_bytes_written"], put_bytes), "ratio"),
        "effects.events_retained_per_op": (delta["events"] / ops, "count"),
        "virtual_us_per_op": (virtual_us_per_op(workload, seed, plan), "us"),
        "trace.throughput_overhead_pct": (
            (reference_tput - traced_tput) / reference_tput * 100.0, "%"),
        "trace.unattributed_us": ((latency_ns - root_ns) / ops / 1000.0,
                                  "us"),
    }
    layers: dict[str, int] = {}
    for name, (_calls, own, _entries) in table.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + own
    layers["unattributed"] = latency_ns - root_ns
    report = {
        f"share.{layer}": (own / latency_ns * 100.0, "%")
        for layer, own in sorted(layers.items(), key=lambda kv: -kv[1])
    }
    report["bytes_stored_per_user_byte"] = (
        bytes_stored_per_user_byte(trial), "ratio")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"{workload.name}-seed{seed}.spans.jsonl.gz")
    return metrics, report, ops, trial.failed, problems
