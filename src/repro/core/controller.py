"""The Pesos controller (§3).

One object owns the full request path: session management, the policy
compiler/interpreter, cache regions, the asynchronous API, the VLL
transaction manager, and the encrypted object store over Kinetic
drives.  :meth:`PesosController.handle` is the single entry point the
web-server layer (and every benchmark) calls per request.

Bootstrap (§3.1): :meth:`PesosController.launch` runs the paper's
deployment flow — launch the enclave, remotely attest against the
attestation service to receive runtime secrets, connect to every
configured Kinetic drive with the factory credentials, and take
exclusive control by replacing all drive accounts with a single
controller-only admin identity.
"""

from __future__ import annotations

import secrets as _secrets
import time as _time
from dataclasses import dataclass, field

from repro.analysis.policy_verify import verify_policy, warnings_payload
from repro.core.antientropy import AntiEntropyRepairer
from repro.core.asyncapi import AsyncTracker
from repro.core.cache import CacheConfig, CacheManager
from repro.core.effects import (
    COPY,
    DISK_DELETE,
    DISK_READ,
    DISK_WRITE,
    EffectsRecorder,
    POLICY_CHECK,
    POLICY_COMPILE,
    POLICY_LOAD,
)
from repro.core.request import Request, Response
from repro.core.session import Session, SessionManager
from repro.core.ssdcache import SSD_READ, SSD_WRITE
from repro.core.locks import KeyLockTable
from repro.core.store import ObjectStore, StoreBackedView, StoredMeta
from repro.core.txn import Transaction, VllManager
from repro.crypto.aead import StreamAead
from repro.errors import (
    ForkDetected,
    ObjectNotFound,
    PesosError,
    PolicyDenied,
    RequestError,
    TransactionError,
)
from repro.kinetic.drive import KineticDrive, Role
from repro.policy.binary import CompiledPolicy
from repro.policy.compiler import compile_source
from repro.policy.context import EvalContext, VersionInfo
from repro.policy.interpreter import PolicyInterpreter
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.audit import PolicyAuditor
from repro.telemetry.metrics import MetricFamily, Sample


@dataclass
class ControllerConfig:
    """Tunables for one controller instance."""

    replication_factor: int = 1
    keep_history: bool = True
    cache: CacheConfig = field(default_factory=CacheConfig)
    session_expiry: float = 3600.0
    #: Suffix used to resolve the ``log`` reference when the request
    #: does not name a log object explicitly (MAL convention).
    log_suffix: str = ".log"
    #: AEAD construction for payload encryption.
    aead_factory: type = StreamAead
    #: Disable policy checking entirely (the paper's "without policy
    #: enforcement" baseline used in §6.2).
    enforce_policies: bool = True
    #: Run the static verifier (:mod:`repro.analysis.policy_verify`)
    #: on every stored policy; findings come back as structured
    #: warnings on the PUT response, never as rejections.
    verify_policies: bool = True
    #: Bound on per-version metadata kept per object (see
    #: :class:`repro.core.store.ObjectStore`); None keeps everything.
    version_metadata_window: int | None = None
    #: Entries in the untrusted-SSD cache tier's freshness table
    #: (see :mod:`repro.core.ssdcache`); None disables the tier.
    ssd_cache_entries: int | None = None
    #: Replicas that must persist a write before it is acknowledged;
    #: None means every replica of the placement (§3.2 write-through).
    write_quorum: int | None = None
    #: Consecutive per-drive failures before its circuit breaker opens,
    #: and store operations to wait before a half-open probe.
    breaker_threshold: int = 3
    breaker_cooldown_ops: int = 64
    #: Pump one anti-entropy repair pass every N handled requests;
    #: None disables the background loop (tests pump it directly).
    anti_entropy_interval: int | None = None
    #: Journal keys repaired per anti-entropy pass.
    anti_entropy_batch: int = 4
    #: Retained records in the tamper-evident policy-decision audit
    #: chain (:mod:`repro.sgx.auditlog`); None disables auditing and
    #: keeps the policy hot path free of hashing.
    audit_log_size: int | None = None
    #: Upper bound on records one ``scan`` request may cover; larger
    #: requests are clamped, never refused (YCSB-E scan lengths are
    #: client-chosen, the enclave bounds its own work).
    max_scan_count: int = 1000
    #: Root object/policy metadata in an authenticated dictionary
    #: pinned by a sealed monotonic counter
    #: (:mod:`repro.core.freshness`): reads verify Merkle proofs
    #: instead of trusting replica version numbers, and startup
    #: refuses to serve after fork detection.  Implied by passing a
    #: ``freshness_env`` to the controller.
    freshness_enabled: bool = False
    #: Entries in the freshness proof cache (keyed by pin epoch).
    freshness_cache_entries: int = 4096


def attestation_statement(
    key: str,
    version: int,
    content_hash: str,
    policy_hash: str,
    policy_id: str,
    timestamp: float,
) -> bytes:
    """Canonical byte encoding of one storage attestation."""
    import json

    return json.dumps(
        {
            "key": key,
            "version": version,
            "content_hash": content_hash,
            "policy_hash": policy_hash,
            "policy_id": policy_id,
            "timestamp": timestamp,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()


def verify_attestation(statement: bytes, signature: bytes, public_key) -> dict:
    """Client-side check of a storage attestation.

    Returns the parsed statement; raises on a bad signature.
    """
    import json

    from repro.errors import IntegrityError

    if not public_key.verify(statement, signature):
        raise IntegrityError("attestation signature invalid")
    return json.loads(statement)


class _ViewMap:
    """Lazy object-id → view mapping handed to the policy context."""

    def __init__(self, controller: "PesosController"):
        self._controller = controller
        self._views: dict = {}

    def get(self, object_id: str):
        if object_id in self._views:
            return self._views[object_id]
        meta = self._controller._get_meta(object_id)
        view = None
        if meta is not None and meta.exists:
            view = StoreBackedView(
                meta, self._controller.store, self._controller.caches
            )
        self._views[object_id] = view
        return view


class PesosController:
    """The trusted controller running inside the enclave."""

    def __init__(
        self,
        clients: list,
        storage_key: bytes | None = None,
        config: ControllerConfig | None = None,
        authority_keys: dict | None = None,
        effects: EffectsRecorder | None = None,
        signing_keys=None,
        telemetry=None,
        freshness_env=None,
    ):
        self.config = config or ControllerConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        registry = self.telemetry.registry if self.telemetry.enabled else None
        self.effects = effects or EffectsRecorder(registry=registry)
        self.caches = CacheManager(
            self.config.cache, self.effects, telemetry=self.telemetry
        )
        self.sessions = SessionManager(self.config.session_expiry)
        self.async_tracker = AsyncTracker()
        self.interpreter = PolicyInterpreter()
        #: Always None; kept because ``perfbench/`` reads it per trial.
        self.policy_engine = None
        #: Tamper-evident policy-decision trail (``GET /_audit``).
        #: Enabled by config, not by telemetry: the chain is a security
        #: artifact and must exist (and stay deterministic) even when
        #: metrics are off.
        self.auditor: PolicyAuditor | None = None
        if self.config.audit_log_size:
            self.auditor = PolicyAuditor(
                capacity=self.config.audit_log_size,
                telemetry=self.telemetry,
            )
        self.store = ObjectStore(
            clients,
            storage_key or _secrets.token_bytes(32),
            replication_factor=self.config.replication_factor,
            keep_history=self.config.keep_history,
            effects=self.effects,
            aead_factory=self.config.aead_factory,
            version_metadata_window=self.config.version_metadata_window,
            telemetry=self.telemetry,
            write_quorum=self.config.write_quorum,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown_ops=self.config.breaker_cooldown_ops,
        )
        self.anti_entropy = AntiEntropyRepairer(
            self.store, telemetry=self.telemetry
        )
        #: Rollback/fork protection (:mod:`repro.core.freshness`):
        #: created before the store is wired to it, so the bootstrap
        #: rebuild reads raw quorum state.  A forked authority stays
        #: attached to the controller (health must report it) but is
        #: never attached to the store — the request gate refuses
        #: service before any read happens.
        self.freshness = None
        if self.config.freshness_enabled or freshness_env is not None:
            from repro.core.freshness import (
                FreshnessAuthority,
                FreshnessEnvironment,
            )

            env = freshness_env or FreshnessEnvironment.ephemeral()
            self.freshness = FreshnessAuthority(
                env,
                telemetry=self.telemetry,
                auditor=self.auditor,
                cache_entries=self.config.freshness_cache_entries,
            )
            self.freshness.bootstrap(self.store)
            if not self.freshness.forked:
                self.store.freshness = self.freshness
        #: Public keys of external authorities (time servers, group
        #: CAs) by fingerprint, available to certificateSays.
        self.authority_keys = dict(authority_keys or {})
        #: Per-key locks for non-transactional requests.  Idle (and
        #: free) under the sequential request path; the concurrent
        #: engine acquires them so overlapping requests on the same
        #: object stay serializable.  Wired to the VLL manager both
        #: ways: transactional locks conflict with request locks, and
        #: releasing a request lock drains the transaction queue.
        self.request_locks = KeyLockTable()
        self.txns = VllManager(
            self._execute_transaction,
            telemetry=self.telemetry,
            request_locks=self.request_locks,
        )
        self.request_locks.bind(
            conflicts=self.txns.holds, on_release=self.txns.notify_release
        )
        self.requests_handled = 0
        #: Controller identity used to sign storage attestations (§1:
        #: "cryptographic attestation for the stored objects and their
        #: associated policies").  A :class:`repro.crypto.certs.KeyPair`.
        self.signing_keys = signing_keys
        #: Optional untrusted-SSD cache tier between the enclave
        #: caches and the drives (paper future work; §8).
        self.ssd_cache = None
        if self.config.ssd_cache_entries:
            from repro.core.ssdcache import SsdCacheTier

            self.ssd_cache = SsdCacheTier(
                max_entries=self.config.ssd_cache_entries,
                effects=self.effects,
                telemetry=self.telemetry,
            )
        self._m_ops = self.telemetry.counter(
            "pesos_controller_requests_total",
            "Requests handled by the controller, by method and outcome.",
            ("method", "outcome"),
        )
        self._m_denied = self.telemetry.counter(
            "pesos_policy_denials_total",
            "Requests refused by policy evaluation, by operation.",
            ("operation",),
        )
        self._h_policy_check = self.telemetry.histogram(
            "pesos_policy_check_seconds",
            "Wall time evaluating one compiled policy.",
        )
        self._h_policy_compile = self.telemetry.histogram(
            "pesos_policy_compile_seconds",
            "Wall time compiling policy source to the binary format.",
        )
        self._m_transitions = self.telemetry.counter(
            "pesos_sgx_transitions_total",
            "Estimated enclave transitions (async syscall submissions) "
            "per the cost model: 2 per client socket pair, 2 per drive "
            "operation, 1 per SSD-tier access.",
            ("reason",),
        )
        if self.telemetry.enabled:
            self.telemetry.register_callback(self._derived_metrics)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    @classmethod
    def launch(
        cls,
        binary,
        platform,
        attestation_service,
        cluster,
        config: ControllerConfig | None = None,
        authority_keys: dict | None = None,
        telemetry=None,
    ) -> "PesosController":
        """Full §3.1 bootstrap: attest, connect, lock out everyone else."""
        from repro.sgx.attestation import attest_and_provision

        enclave = platform.launch(binary)
        provided = attest_and_provision(attestation_service, platform, enclave)
        storage_key = bytes.fromhex(provided["storage_key"])
        admin_identity = provided["disk_identity"]
        admin_key = bytes.fromhex(provided["disk_hmac_key"])

        # Connect with factory credentials, then atomically replace the
        # account table with our single admin account on every drive —
        # locking out all other users, including the cloud provider.
        factory_clients = cluster.connect_all(
            KineticDrive.DEMO_IDENTITY, KineticDrive.DEMO_KEY
        )
        for client in factory_clients:
            # Provisioning the drive's account table necessarily sends
            # the admin HMAC credential over the wire: this is the
            # Kinetic security-setup protocol itself (done once, under
            # the factory identity, before any client traffic).
            # pesos: allow[taint/wire-frame]
            client.set_security([(admin_identity, admin_key, Role.all())])
        clients = cluster.connect_all(admin_identity, admin_key)
        return cls(
            clients,
            storage_key=storage_key,
            config=config,
            authority_keys=authority_keys,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle(
        self, request: Request, fingerprint: str, now: float = 0.0  # pesos: allow[det-default-clock]
    ) -> Response:
        """Execute one authenticated client request."""
        self.requests_handled += 1
        if self.config.anti_entropy_interval:
            self._pump_anti_entropy()
        telemetry = self.telemetry
        if not telemetry.enabled:
            # Uninstrumented fast path: identical to the historical
            # request loop, so benchmark numbers are unaffected.
            try:
                self._freshness_gate(now)
                request.validate()
                session = self.sessions.connect(fingerprint, now=now)
                session.touch(now)
                if request.asynchronous:
                    return self._handle_async(request, session, now)
                return self._dispatch(request, session, now)
            except PesosError as exc:
                return self._error_response(exc)
        events_before = len(self.effects.events)
        with telemetry.span(
            "controller.handle", method=request.method, now=now
        ) as span:
            if request.key:
                span.set("key", request.key)
            try:
                self._freshness_gate(now)
                request.validate()
                session = self.sessions.connect(fingerprint, now=now)
                session.touch(now)
                if request.asynchronous:
                    response = self._handle_async(request, session, now)
                else:
                    response = self._dispatch(request, session, now)
            except PesosError as exc:
                response = self._error_response(exc)
            span.set("status", response.status)
            if response.ok:
                outcome = "ok"
            elif response.status == 403:
                outcome = "denied"
            else:
                outcome = "error"
            self._m_ops.labels(request.method, outcome).inc()
            self._count_transitions(events_before)
        return response

    def _freshness_gate(self, now: float) -> None:
        """Refuse every request while fork detection holds the line.

        Also stamps the authority's virtual clock so pin records and
        health figures carry the request's deterministic timestamp.
        """
        if self.freshness is None:
            return
        self.freshness.vnow = now
        if self.freshness.forked:
            raise ForkDetected(
                f"controller refuses to serve: {self.freshness.fork_reason}"
            )

    @staticmethod
    def _error_response(exc: PesosError) -> Response:
        """Render an error, carrying any Retry-After degradation hint."""
        return Response(
            status=exc.status,
            error=str(exc),
            retry_after=getattr(exc, "retry_after", None),
        )

    def _pump_anti_entropy(self) -> None:
        """Run one repair pass every ``anti_entropy_interval`` requests.

        The synchronous stand-in for a background maintenance thread;
        repair failures never surface into the client request being
        served.
        """
        if self.requests_handled % self.config.anti_entropy_interval:
            return
        if not len(self.store.journal):
            return
        try:
            self.anti_entropy.run_once(
                max_keys=self.config.anti_entropy_batch
            )
        except PesosError:
            pass

    def health(self) -> dict:
        """Operator health report served at ``GET /_health``."""
        report = self.store.health_snapshot()
        report["requests_handled"] = self.requests_handled
        report["anti_entropy_runs"] = self.anti_entropy.runs
        if self.freshness is not None:
            report["freshness"] = self.freshness.snapshot()
            if self.freshness.forked:
                # A detected fork outranks drive health: the fleet may
                # be perfectly reachable and still be lying.
                report["status"] = "critical"
        return report

    def _count_transitions(self, events_before: int) -> None:
        """Estimate enclave transitions from this request's effects.

        Mirrors the benchmark cost model's syscall accounting
        (:meth:`repro.bench.model.SystemModel._derive_costs`): one
        send/recv pair on the client socket, one pair per backend drive
        operation, one syscall per SSD-tier access.
        """
        disk_ops = 0
        ssd_ops = 0
        for event in self.effects.events[events_before:]:
            kind = event[0]
            if kind in (DISK_READ, DISK_WRITE, DISK_DELETE):
                disk_ops += 1
            elif kind in (SSD_READ, SSD_WRITE):
                ssd_ops += 1
        self._m_transitions.labels("client_io").inc(2)
        if disk_ops:
            self._m_transitions.labels("drive_io").inc(2 * disk_ops)
        if ssd_ops:
            self._m_transitions.labels("ssd_io").inc(ssd_ops)

    def _derived_metrics(self):
        """Lazy gauges collected at scrape time."""
        yield MetricFamily(
            name="pesos_sessions_active",
            kind="gauge",
            help="Client sessions currently tracked.",
            samples=[Sample("pesos_sessions_active", {}, len(self.sessions))],
        )
        yield MetricFamily(
            name="pesos_enclave_cache_bytes",
            kind="gauge",
            help="Total bytes held across enclave cache regions.",
            samples=[
                Sample(
                    "pesos_enclave_cache_bytes",
                    {},
                    self.caches.memory_in_use(),
                )
            ],
        )
        tracker = self.async_tracker
        yield MetricFamily(
            name="pesos_async_results_discarded_total",
            kind="counter",
            help="Async result-buffer evictions, by entry state at "
            "eviction time.",
            samples=[
                Sample(
                    "pesos_async_results_discarded_total",
                    {"state": "pending"},
                    tracker.discarded_pending,
                ),
                Sample(
                    "pesos_async_results_discarded_total",
                    {"state": "done"},
                    tracker.discarded - tracker.discarded_pending,
                ),
            ],
        )
        yield MetricFamily(
            name="pesos_async_completed_after_evict_total",
            kind="counter",
            help="Async operations whose finished result arrived after "
            "its buffer entry was evicted (ran, result expired).",
            samples=[
                Sample(
                    "pesos_async_completed_after_evict_total",
                    {},
                    tracker.completed_after_evict,
                )
            ],
        )

    def _dispatch(
        self, request: Request, session: Session, now: float
    ) -> Response:
        handler = getattr(self, f"_handle_{request.method}", None)
        if handler is None:
            raise RequestError(f"unhandled method {request.method!r}")
        return handler(request, session, now)

    def _handle_async(
        self, request: Request, session: Session, now: float
    ) -> Response:
        entry = self.async_tracker.begin(session.fingerprint)
        session.operations.append(entry.operation_id)
        # Execute now in the functional model; the benchmarks account
        # the deferred completion in virtual time.
        try:
            result = self._dispatch(request, session, now)
        except PesosError as exc:
            result = self._error_response(exc)
        if not self.async_tracker.complete(entry.operation_id, result):
            # The result buffer already evicted this entry: the write
            # ran (and may have been applied), but the client can never
            # learn its outcome — only re-submit.  Leave a span event so
            # acked-write audits can tell "ran, result expired" apart
            # from "never ran".
            with self.telemetry.span(
                "async.completed_after_evict",
                operation_id=entry.operation_id,
                status=result.status,
            ):
                pass
        return Response(status=202, operation_id=entry.operation_id)

    def _handle_status(
        self, request: Request, session: Session, now: float
    ) -> Response:
        entry = self.async_tracker.query(
            request.operation_id, session.fingerprint
        )
        if not entry.done:
            return Response(status=202, operation_id=entry.operation_id)
        inner: Response = entry.result
        inner.operation_id = entry.operation_id
        return inner

    # ------------------------------------------------------------------
    # Metadata and policy plumbing
    # ------------------------------------------------------------------

    def _get_meta(self, key: str) -> StoredMeta | None:
        meta = self.caches.get_meta(key)
        if meta is not None:
            return meta
        if self.ssd_cache is not None:
            blob = self.ssd_cache.get(f"m:{key}")
            if blob is not None:
                meta = StoredMeta.decode(blob)
                self.caches.put_meta(key, meta)
                return meta
        meta = self.store.read_meta(key)
        if meta is not None:
            self.caches.put_meta(key, meta)
            if self.ssd_cache is not None:
                self.ssd_cache.put(f"m:{key}", meta.encode())
        return meta

    def _load_policy(self, policy_id: str) -> CompiledPolicy | None:
        policy = self.caches.get_policy(policy_id)
        if policy is not None:
            return policy
        blob = self.store.read_policy(policy_id)
        if blob is None:
            return None
        policy = CompiledPolicy.from_bytes(blob)
        self.effects.record(POLICY_LOAD, len(blob))
        self.caches.put_policy(policy_id, policy)
        return policy

    def _build_context(
        self,
        operation: str,
        request: Request,
        session: Session,
        meta: StoredMeta | None,
        now: float,
        pending: VersionInfo | None = None,
    ) -> EvalContext:
        exists = meta is not None and meta.exists
        log_id = request.log_key or (request.key + self.config.log_suffix)
        return EvalContext(
            operation=operation,
            session_key=session.fingerprint,
            this_id=request.key if exists else None,
            log_id=log_id,
            request_version=request.version,
            objects=_ViewMap(self),
            pending=pending,
            certificates=list(request.certificates),
            key_registry=dict(self.authority_keys),
            now=now,
            nonce=session.nonce,
        )

    def _check_policy(
        self,
        operation: str,
        policy: CompiledPolicy | None,
        ctx: EvalContext,
    ) -> None:
        if policy is None or not self.config.enforce_policies:
            return
        if self.telemetry.enabled:
            started = _time.perf_counter()
            with self.telemetry.span("policy.check", operation=operation):
                decision = self.interpreter.evaluate(policy, operation, ctx)
            self._h_policy_check.observe(_time.perf_counter() - started)
        else:
            decision = self.interpreter.evaluate(policy, operation, ctx)
        self.effects.record(POLICY_CHECK, decision.predicates_evaluated)
        if self.auditor is not None:
            self.auditor.record_decision(
                decision,
                policy_hash=policy.policy_hash(),
                session=ctx.session_key,
                key=ctx.this_id or ctx.log_id,
                vnow=ctx.now,
            )
        if not decision.granted:
            self._m_denied.labels(operation).inc()
            raise PolicyDenied(
                f"policy denies {operation} on {ctx.this_id or ctx.log_id}"
            )

    # ------------------------------------------------------------------
    # Object operations
    # ------------------------------------------------------------------

    def _handle_put(
        self,
        request: Request,
        session: Session,
        now: float,
        enforce: bool | None = None,
    ) -> Response:
        # ``enforce`` overrides config for this call only: transaction
        # apply-phase writes were policy-checked in phase 1 and must
        # not be re-checked — but toggling the *shared* config flag
        # would leak the bypass into requests that overlap the commit.
        if enforce is None:
            enforce = self.config.enforce_policies
        self.effects.record(COPY, len(request.value))
        meta = self._get_meta(request.key) or StoredMeta(key=request.key)

        # Resolve the policy that will be bound to the new version.
        bound_policy_id = request.policy_id or meta.policy_id
        bound_policy = None
        if bound_policy_id:
            bound_policy = self._load_policy(bound_policy_id)
            if bound_policy is None:
                raise RequestError(f"unknown policy {bound_policy_id!r}")
        bound_hash = bound_policy.policy_hash() if bound_policy else ""

        # The governing policy for this update is the object's current
        # policy when it exists; a brand-new object is governed by the
        # policy being attached (its creation clause, if any).
        governing = None
        if meta.exists and meta.policy_id:
            governing = self._load_policy(meta.policy_id)
        elif not meta.exists:
            governing = bound_policy

        if enforce and governing is not None:
            pending = VersionInfo.from_content(request.value, bound_hash)
            ctx = self._build_context(
                "update", request, session, meta, now, pending
            )
            self._check_policy("update", governing, ctx)

        meta.policy_id = bound_policy_id
        self.store.store_version(meta, request.value, bound_hash)
        self.caches.put_meta(request.key, meta)
        self.caches.put_object(
            f"{request.key}@{meta.current_version}", request.value
        )
        if self.ssd_cache is not None:
            self.ssd_cache.put(
                f"{request.key}@{meta.current_version}", request.value
            )
            self.ssd_cache.put(f"m:{request.key}", meta.encode())
        return Response(
            status=200,
            version=meta.current_version,
            policy_id=bound_policy_id,
        )

    def _handle_get(
        self, request: Request, session: Session, now: float
    ) -> Response:
        meta = self._get_meta(request.key)
        if meta is None or not meta.exists:
            raise ObjectNotFound(f"no object {request.key!r}")
        if self.config.enforce_policies and meta.policy_id:
            policy = self._load_policy(meta.policy_id)
            ctx = self._build_context("read", request, session, meta, now)
            self._check_policy("read", policy, ctx)
        version = (
            request.version if request.version is not None
            else meta.current_version
        )
        if version not in meta.versions:
            raise ObjectNotFound(
                f"object {request.key!r} has no version {version}"
            )
        cache_key = f"{request.key}@{version}"
        value = self.caches.get_object(cache_key)
        if value is None and self.ssd_cache is not None:
            value = self.ssd_cache.get(cache_key)
        if value is None:
            expect = None
            if self.store._verifying():
                # The metadata record was proof-verified against the
                # pinned root, so its content hash anchors the value:
                # a replayed old copy of an overwritten slot decrypts
                # fine but cannot match.
                expect = meta.versions[version].content_hash
            value = self.store.read_value(
                request.key, version, expect_sha256=expect
            )
            if self.ssd_cache is not None:
                self.ssd_cache.put(cache_key, value)
        self.caches.put_object(cache_key, value)
        self.effects.record(COPY, len(value))
        return Response(
            status=200,
            value=value,
            version=version,
            policy_id=meta.policy_id,
        )

    def _handle_scan(
        self, request: Request, session: Session, now: float
    ) -> Response:
        """Range scan (YCSB-E): keys >= start key via ``GETKEYRANGE``.

        The store merges the ``m/`` ranges of every reachable drive;
        each returned object is then resolved through the normal
        metadata path — proof-verified when freshness is on — and
        policy-checked for ``read``.  Records whose policy denies the
        caller are *skipped*, not fatal: one locked-down object must
        not veto the rest of the range.  The response body is one
        ``key@version`` line per visible record.
        """
        count = min(request.scan_count, self.config.max_scan_count)
        keys = self.store.scan_keys(request.key, count)
        lines: list[str] = []
        denied = 0
        for key in keys:
            meta = self._get_meta(key)
            if meta is None or not meta.exists:
                # Deleted between the range listing and the meta read.
                continue
            if self.config.enforce_policies and meta.policy_id:
                policy = self._load_policy(meta.policy_id)
                sub = Request(method="get", key=key)
                ctx = self._build_context("read", sub, session, meta, now)
                try:
                    self._check_policy("read", policy, ctx)
                except PolicyDenied:
                    denied += 1
                    continue
            lines.append(f"{key}@{meta.current_version}")
        payload = "\n".join(lines).encode()
        self.effects.record(COPY, len(payload))
        return Response(
            status=200,
            value=payload,
            extra={"scanned": len(lines), "denied": denied},
        )

    def _handle_rmw(
        self, request: Request, session: Session, now: float
    ) -> Response:
        """Read-modify-write (YCSB-F): one atomic read+update cycle.

        Both halves run inside a single request, so the concurrent
        engine's exclusive per-key lock makes the cycle atomic against
        overlapping writers (LOCK_MODES maps ``rmw`` to ``"w"``).  The
        read half enforces the ``read`` policy and reports the version
        it observed; the write half is a normal policy-checked update
        of ``request.value``.
        """
        sub = Request(
            method="get",
            key=request.key,
            certificates=list(request.certificates),
            log_key=request.log_key,
        )
        current = self._handle_get(sub, session, now)
        updated = self._handle_put(request, session, now)
        updated.extra["read_version"] = current.version
        return updated

    def _handle_delete(
        self, request: Request, session: Session, now: float
    ) -> Response:
        meta = self._get_meta(request.key)
        if meta is None or not meta.exists:
            raise ObjectNotFound(f"no object {request.key!r}")
        if self.config.enforce_policies and meta.policy_id:
            policy = self._load_policy(meta.policy_id)
            ctx = self._build_context("delete", request, session, meta, now)
            self._check_policy("delete", policy, ctx)
        self.store.delete_object(meta)
        self.caches.invalidate_meta(request.key)
        for version in meta.versions:
            self.caches.invalidate_object(f"{request.key}@{version}")
            if self.ssd_cache is not None:
                self.ssd_cache.invalidate(f"{request.key}@{version}")
        if self.ssd_cache is not None:
            self.ssd_cache.invalidate(f"m:{request.key}")
        return Response(status=200)

    def _handle_attest(
        self, request: Request, session: Session, now: float
    ) -> Response:
        """Signed statement binding key, version, content, and policy.

        Requires read permission on the object; the client verifies
        the statement offline against the controller's certificate,
        proving what the store held at attestation time.
        """
        if self.signing_keys is None:
            raise RequestError("controller has no attestation signing key")
        meta = self._get_meta(request.key)
        if meta is None or not meta.exists:
            raise ObjectNotFound(f"no object {request.key!r}")
        if self.config.enforce_policies and meta.policy_id:
            policy = self._load_policy(meta.policy_id)
            ctx = self._build_context("read", request, session, meta, now)
            self._check_policy("read", policy, ctx)
        version = (
            request.version if request.version is not None
            else meta.current_version
        )
        version_meta = meta.versions.get(version)
        if version_meta is None:
            raise ObjectNotFound(
                f"object {request.key!r} has no version {version}"
            )
        statement = attestation_statement(
            key=request.key,
            version=version,
            content_hash=version_meta.content_hash,
            policy_hash=version_meta.policy_hash,
            policy_id=meta.policy_id,
            timestamp=now,
        )
        signature = self.signing_keys.private_key.sign(statement)
        return Response(
            status=200,
            value=statement,
            version=version,
            extra={"signature": signature.hex()},
        )

    # -- admin / maintenance (operator API, not client-reachable) -------

    def scrub_object(self, key: str) -> list:
        """Audit all replicas of an object; see ObjectStore.scrub."""
        meta = self._get_meta(key)
        if meta is None or not meta.exists:
            raise ObjectNotFound(f"no object {key!r}")
        return self.store.scrub(meta)

    def repair_object(self, key: str) -> int:
        """Re-write damaged replicas; see ObjectStore.repair."""
        meta = self._get_meta(key)
        if meta is None or not meta.exists:
            raise ObjectNotFound(f"no object {key!r}")
        return self.store.repair(meta)

    # ------------------------------------------------------------------
    # Policy management
    # ------------------------------------------------------------------

    def _handle_put_policy(
        self, request: Request, session: Session, now: float
    ) -> Response:
        source = request.value.decode()
        if self.telemetry.enabled:
            started = _time.perf_counter()
            with self.telemetry.span("policy.compile", bytes=len(source)):
                policy = compile_source(source)
            self._h_policy_compile.observe(_time.perf_counter() - started)
        else:
            policy = compile_source(source)
        self.effects.record(POLICY_COMPILE, policy.size_bytes())
        policy_id = policy.policy_hash()
        self.store.write_policy(policy_id, policy.to_bytes())
        self.caches.put_policy(policy_id, policy)
        response = Response(status=200, policy_id=policy_id)
        if self.config.verify_policies:
            # Static verification is advisory at PUT time: an
            # unsatisfiable or shadowed clause is legal, just almost
            # certainly not what the operator meant.  Surface it now,
            # on the response, instead of as a silent denial later.
            findings = verify_policy(policy)
            if findings:
                response.extra["warnings"] = warnings_payload(findings)
        return response

    def _handle_get_policy(
        self, request: Request, session: Session, now: float
    ) -> Response:
        policy_id = request.policy_id or request.key
        policy = self._load_policy(policy_id)
        if policy is None:
            raise ObjectNotFound(f"no policy {policy_id!r}")
        return Response(
            status=200, value=policy.to_bytes(), policy_id=policy_id
        )

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def _handle_create_tx(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.create(session.fingerprint)
        session.transactions.add(tx.txid)
        return Response(status=200, txid=tx.txid)

    def _handle_add_read(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        tx.add_read(request.key)
        return Response(status=200, txid=tx.txid)

    def _handle_add_write(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        tx.add_write(request.key, request.value, request.policy_id)
        return Response(status=200, txid=tx.txid)

    def _handle_commit_tx(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        tx.session, tx.now = session, now
        tx = self.txns.commit(tx)
        if tx.state == "aborted":
            return Response(status=409, txid=tx.txid, error=tx.error)
        return Response(status=200, txid=tx.txid)

    def _handle_abort_tx(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        self.txns.abort(tx)
        return Response(status=200, txid=tx.txid)

    def _handle_tx_results(
        self, request: Request, session: Session, now: float
    ) -> Response:
        tx = self.txns.get(request.txid, session.fingerprint)
        if tx.state == "aborted":
            return Response(status=409, txid=tx.txid, error=tx.error)
        if tx.state != "committed":
            return Response(status=202, txid=tx.txid)
        payload = b"\n".join(
            key.encode() + b"=" + value
            for key, value in sorted(tx.results.items())
        )
        return Response(status=200, txid=tx.txid, value=payload)

    def _execute_transaction(self, tx: Transaction) -> dict:
        """Atomic execution: check every policy, then apply every write."""
        session, now = tx.session, tx.now
        results: dict[str, bytes] = {}

        # Phase 1: policy checks (and reads) with no side effects.
        staged = []
        for key in tx.reads:
            sub = Request(method="get", key=key)
            try:
                response = self._handle_get(sub, session, now)
            except PesosError as exc:
                raise TransactionError(f"read {key!r}: {exc}") from exc
            results[f"read:{key}"] = response.value
        for key, (value, policy_id) in tx.writes.items():
            sub = Request(
                method="put", key=key, value=value, policy_id=policy_id
            )
            meta = self._get_meta(key) or StoredMeta(key=key)
            bound_policy_id = policy_id or meta.policy_id
            bound = (
                self._load_policy(bound_policy_id) if bound_policy_id else None
            )
            bound_hash = bound.policy_hash() if bound else ""
            if meta.exists and meta.policy_id:
                governing = self._load_policy(meta.policy_id)
            else:
                governing = bound
            if self.config.enforce_policies and governing is not None:
                pending = VersionInfo.from_content(value, bound_hash)
                ctx = self._build_context(
                    "update", sub, session, meta, now, pending
                )
                try:
                    self._check_policy("update", governing, ctx)
                except PolicyDenied as exc:
                    raise TransactionError(str(exc)) from exc
            staged.append(sub)

        # Phase 2: apply all writes (policies already granted).
        for sub in staged:
            response = self._handle_put(sub, session, now, enforce=False)
            results[f"write:{sub.key}"] = f"v{response.version}".encode()
        return results

    # ------------------------------------------------------------------
    # Convenience API (used by examples and tests)
    # ------------------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        key: str,
        value: bytes,
        now: float = 0.0,  # pesos: allow[det-default-clock]
        **kwargs,
    ) -> Response:
        return self.handle(
            Request(method="put", key=key, value=value, **kwargs),
            fingerprint,
            now=now,
        )

    def get(
        self, fingerprint: str, key: str, now: float = 0.0, **kwargs  # pesos: allow[det-default-clock]
    ) -> Response:
        return self.handle(
            Request(method="get", key=key, **kwargs), fingerprint, now=now
        )

    def delete(
        self, fingerprint: str, key: str, now: float = 0.0, **kwargs  # pesos: allow[det-default-clock]
    ) -> Response:
        return self.handle(
            Request(method="delete", key=key, **kwargs), fingerprint, now=now
        )

    def put_policy(self, fingerprint: str, source: str) -> Response:
        return self.handle(
            Request(method="put_policy", value=source.encode()), fingerprint
        )
