"""A Kinetic drive: ordered keyspace, ACL security, device management.

The drive is the second trusted component of Pesos (after the enclave).
It authenticates every request with the per-identity HMAC key, enforces
role-based ACLs, supports compare-and-swap style *versioned* puts and
deletes, ordered range scans, peer-to-peer push to other drives, and a
SECURITY operation that atomically replaces the account table — the
primitive Pesos uses at bootstrap to lock out every other user,
including the cloud provider.
"""

from __future__ import annotations

import bisect
import enum
import secrets
from dataclasses import dataclass

from repro.crypto.certs import Certificate, CertificateAuthority, KeyPair
from repro.errors import DriveOffline, KineticError
from repro.kinetic.protocol import Message, MessageType, StatusCode


class Role(enum.Flag):
    """Permission roles attachable to a drive identity."""

    READ = enum.auto()
    WRITE = enum.auto()
    DELETE = enum.auto()
    RANGE = enum.auto()
    P2P = enum.auto()
    GETLOG = enum.auto()
    SECURITY = enum.auto()
    SETUP = enum.auto()

    @classmethod
    def all(cls) -> "Role":
        result = cls.READ
        for role in cls:
            result |= role
        return result


@dataclass
class Acl:
    """One identity's credentials and permissions on a drive."""

    identity: str
    hmac_key: bytes
    roles: Role

    @classmethod
    def admin(cls, identity: str, hmac_key: bytes | None = None) -> "Acl":
        return cls(
            identity=identity,
            hmac_key=hmac_key or secrets.token_bytes(32),
            roles=Role.all(),
        )


_REQUIRED_ROLE = {
    MessageType.GET: Role.READ,
    MessageType.GETVERSION: Role.READ,
    MessageType.GETNEXT: Role.RANGE,
    MessageType.GETPREVIOUS: Role.RANGE,
    MessageType.GETKEYRANGE: Role.RANGE,
    MessageType.PUT: Role.WRITE,
    MessageType.DELETE: Role.DELETE,
    MessageType.PEER2PEERPUSH: Role.P2P,
    MessageType.GETLOG: Role.GETLOG,
    MessageType.SECURITY: Role.SECURITY,
    MessageType.SETUP: Role.SETUP,
    MessageType.FLUSHALLDATA: Role.WRITE,
    MessageType.NOOP: Role.READ,
    MessageType.START_BATCH: Role.WRITE,
    MessageType.END_BATCH: Role.WRITE,
    MessageType.ABORT_BATCH: Role.WRITE,
}


@dataclass
class _Entry:
    value: bytes
    version: bytes


@dataclass
class DriveStats:
    """Operation counters surfaced through GETLOG."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    range_scans: int = 0
    auth_failures: int = 0
    version_failures: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class KineticDrive:
    """One Ethernet-attached Kinetic drive.

    The factory-default drive ships with a well-known ``demo`` identity
    (as real Kinetic drives do); deployments are expected to replace it
    via a SECURITY command.
    """

    DEMO_IDENTITY = "demo"
    DEMO_KEY = b"asdfasdf"  # the actual Kinetic factory default secret

    def __init__(
        self,
        drive_id: str,
        capacity_bytes: int = 4 * 1024**4,
        identity_ca: CertificateAuthority | None = None,
    ):
        self.drive_id = drive_id
        self.capacity_bytes = capacity_bytes
        self.cluster_version = 0
        self._entries: dict[bytes, _Entry] = {}
        self._sorted_keys: list[bytes] = []
        self._accounts: dict[str, Acl] = {
            self.DEMO_IDENTITY: Acl(
                identity=self.DEMO_IDENTITY,
                hmac_key=self.DEMO_KEY,
                roles=Role.all(),
            )
        }
        self._online = True
        self._used_bytes = 0
        self.stats = DriveStats()
        self._peers: dict[str, "KineticDrive"] = {}
        #: Open batches: batch id -> list of buffered op messages.
        self._batches: dict[int, list] = {}
        self._next_batch_id = 1
        # Each drive carries a unique identity certificate so replacing
        # the physical drive (a rollback attack) is detectable (§2.4).
        self._identity: KeyPair | None = (
            identity_ca.issue_keypair(f"kinetic-{drive_id}", key_bits=512)
            if identity_ca
            else None
        )

    # -- admin / simulation controls --------------------------------------

    @property
    def online(self) -> bool:
        return self._online

    def fail(self) -> None:
        """Simulate a drive crash (power loss, controller fault)."""
        self._online = False

    def recover(self) -> None:
        self._online = True

    def register_peer(self, drive: "KineticDrive") -> None:
        """Make another drive reachable for PEER2PEERPUSH."""
        self._peers[drive.drive_id] = drive

    @property
    def certificate(self) -> Certificate | None:
        return self._identity.certificate if self._identity else None

    @property
    def key_count(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def account_key(self, identity: str) -> bytes:
        """HMAC key for ``identity`` (drive-side secret lookup)."""
        acl = self._accounts.get(identity)
        if acl is None:
            raise KineticError(f"no account {identity!r}")
        return acl.hmac_key

    def identities(self) -> list[str]:
        return sorted(self._accounts)

    # -- request handling ---------------------------------------------------

    def handle(self, request: Message) -> Message:
        """Authenticate, authorize, and execute one command."""
        if not self._online:
            raise DriveOffline(f"drive {self.drive_id} is offline")

        acl = self._accounts.get(request.identity)
        if acl is None or not request.verify(acl.hmac_key):
            self.stats.auth_failures += 1
            # Sent unsigned: the sender proved no key the drive could
            # sign with.  The client raises on HMAC_FAILURE before it
            # checks the response HMAC.
            return request.make_response(
                StatusCode.HMAC_FAILURE, status_message="authentication failed"
            )

        required = _REQUIRED_ROLE.get(request.message_type)
        if required is None:
            return self._signed(
                request.make_response(
                    StatusCode.INVALID_REQUEST,
                    status_message=f"unsupported type {request.message_type}",
                ),
                acl,
            )
        if not acl.roles & required:
            return self._signed(
                request.make_response(
                    StatusCode.NOT_AUTHORIZED,
                    status_message=f"missing role {required}",
                ),
                acl,
            )

        # PUT/DELETE carrying a batch id are buffered, not applied.
        if request.message_type in (
            MessageType.PUT, MessageType.DELETE
        ) and request.body.get("batch"):
            return self._signed(self._buffer_batch_op(request), acl)

        handler = getattr(self, f"_op_{request.message_type.name.lower()}")
        return self._signed(handler(request), acl)

    def _signed(self, response: Message, acl: Acl) -> Message:
        return response.sign(acl.hmac_key)

    # -- data operations -----------------------------------------------------

    def _op_put(self, request: Message) -> Message:
        key = request.body["key"]
        value = request.body["value"]
        expected = request.body.get("db_version") or b""
        new_version = request.body.get("new_version") or secrets.token_bytes(8)
        force = bool(request.body.get("force"))

        entry = self._entries.get(key)
        current = entry.version if entry else b""
        if not force and current != expected:
            self.stats.version_failures += 1
            return request.make_response(
                StatusCode.VERSION_MISMATCH,
                status_message="stale dbVersion",
                body={"current_version": current},
            )
        delta = len(value) - (len(entry.value) if entry else 0)
        if self._used_bytes + delta > self.capacity_bytes:
            return request.make_response(
                StatusCode.NO_SPACE, status_message="drive full"
            )
        if entry is None:
            bisect.insort(self._sorted_keys, key)
        self._entries[key] = _Entry(value=value, version=new_version)
        self._used_bytes += delta
        self.stats.puts += 1
        self.stats.bytes_written += len(value)
        return request.make_response(
            StatusCode.SUCCESS, body={"new_version": new_version}
        )

    def _op_get(self, request: Message) -> Message:
        key = request.body["key"]
        entry = self._entries.get(key)
        self.stats.gets += 1
        if entry is None:
            return request.make_response(
                StatusCode.NOT_FOUND, status_message="no such key"
            )
        self.stats.bytes_read += len(entry.value)
        return request.make_response(
            StatusCode.SUCCESS,
            body={"key": key, "value": entry.value, "db_version": entry.version},
        )

    def _op_getversion(self, request: Message) -> Message:
        key = request.body["key"]
        entry = self._entries.get(key)
        if entry is None:
            return request.make_response(StatusCode.NOT_FOUND)
        return request.make_response(
            StatusCode.SUCCESS, body={"db_version": entry.version}
        )

    def _op_delete(self, request: Message) -> Message:
        key = request.body["key"]
        expected = request.body.get("db_version") or b""
        force = bool(request.body.get("force"))
        entry = self._entries.get(key)
        if entry is None:
            return request.make_response(StatusCode.NOT_FOUND)
        if not force and entry.version != expected:
            self.stats.version_failures += 1
            return request.make_response(
                StatusCode.VERSION_MISMATCH, status_message="stale dbVersion"
            )
        del self._entries[key]
        index = bisect.bisect_left(self._sorted_keys, key)
        del self._sorted_keys[index]
        self._used_bytes -= len(entry.value)
        self.stats.deletes += 1
        return request.make_response(StatusCode.SUCCESS)

    def _op_getnext(self, request: Message) -> Message:
        key = request.body["key"]
        index = bisect.bisect_right(self._sorted_keys, key)
        if index >= len(self._sorted_keys):
            return request.make_response(StatusCode.NOT_FOUND)
        next_key = self._sorted_keys[index]
        entry = self._entries[next_key]
        return request.make_response(
            StatusCode.SUCCESS,
            body={
                "key": next_key,
                "value": entry.value,
                "db_version": entry.version,
            },
        )

    def _op_getprevious(self, request: Message) -> Message:
        key = request.body["key"]
        index = bisect.bisect_left(self._sorted_keys, key)
        if index == 0:
            return request.make_response(StatusCode.NOT_FOUND)
        prev_key = self._sorted_keys[index - 1]
        entry = self._entries[prev_key]
        return request.make_response(
            StatusCode.SUCCESS,
            body={
                "key": prev_key,
                "value": entry.value,
                "db_version": entry.version,
            },
        )

    def _op_getkeyrange(self, request: Message) -> Message:
        start = request.body.get("start_key", b"")
        end = request.body.get("end_key", b"\xff" * 32)
        start_inclusive = bool(request.body.get("start_inclusive", True))
        end_inclusive = bool(request.body.get("end_inclusive", True))
        max_returned = int(request.body.get("max_returned", 200))
        reverse = bool(request.body.get("reverse", False))

        if start_inclusive:
            lo = bisect.bisect_left(self._sorted_keys, start)
        else:
            lo = bisect.bisect_right(self._sorted_keys, start)
        if end_inclusive:
            hi = bisect.bisect_right(self._sorted_keys, end)
        else:
            hi = bisect.bisect_left(self._sorted_keys, end)
        keys = self._sorted_keys[lo:hi]
        if reverse:
            keys = keys[::-1]
        keys = keys[:max_returned]
        self.stats.range_scans += 1
        return request.make_response(StatusCode.SUCCESS, body={"keys": keys})

    def _op_noop(self, request: Message) -> Message:
        return request.make_response(StatusCode.SUCCESS)

    def _op_flushalldata(self, request: Message) -> Message:
        # Our keyspace is always durable in-model; flush is a no-op ack.
        return request.make_response(StatusCode.SUCCESS)

    # -- batch operations (atomic multi-op commits) ---------------------------

    def _op_start_batch(self, request: Message) -> Message:
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self._batches[batch_id] = []
        return request.make_response(
            StatusCode.SUCCESS, body={"batch": batch_id}
        )

    def _buffer_batch_op(self, request: Message) -> Message:
        batch_id = int(request.body["batch"])
        if batch_id not in self._batches:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message=f"no open batch {batch_id}",
            )
        self._batches[batch_id].append(request)
        return request.make_response(StatusCode.SUCCESS)

    def _op_end_batch(self, request: Message) -> Message:
        """Validate every buffered op, then apply all or none."""
        batch_id = int(request.body["batch"])
        ops = self._batches.pop(batch_id, None)
        if ops is None:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message=f"no open batch {batch_id}",
            )
        # Phase 1: validation against current state (versions, space).
        space_delta = 0
        staged_versions: dict[bytes, bytes] = {}
        for op in ops:
            key = op.body["key"]
            entry = self._entries.get(key)
            current = staged_versions.get(
                key, entry.version if entry else b""
            )
            expected = op.body.get("db_version") or b""
            if not op.body.get("force") and current != expected:
                self.stats.version_failures += 1
                return request.make_response(
                    StatusCode.VERSION_MISMATCH,
                    status_message=f"batch aborted: stale version for "
                                   f"{key!r}",
                )
            if op.message_type == MessageType.PUT:
                old_size = (
                    len(entry.value) if entry and key not in staged_versions
                    else 0
                )
                space_delta += len(op.body["value"]) - old_size
                staged_versions[key] = (
                    op.body.get("new_version") or secrets.token_bytes(8)
                )
            else:  # DELETE
                if entry is None and key not in staged_versions:
                    return request.make_response(
                        StatusCode.NOT_FOUND,
                        status_message=f"batch aborted: no key {key!r}",
                    )
                staged_versions[key] = b""
        if self._used_bytes + space_delta > self.capacity_bytes:
            return request.make_response(
                StatusCode.NO_SPACE, status_message="batch aborted: full"
            )
        # Phase 2: apply in order.
        for op in ops:
            op.body["force"] = True  # versions were validated above
            if op.message_type == MessageType.PUT:
                if "new_version" not in op.body or not op.body["new_version"]:
                    op.body["new_version"] = staged_versions[op.body["key"]]
                self._op_put(op)
            else:
                self._op_delete(op)
        return request.make_response(
            StatusCode.SUCCESS, body={"applied": len(ops)}
        )

    def _op_abort_batch(self, request: Message) -> Message:
        batch_id = int(request.body["batch"])
        if self._batches.pop(batch_id, None) is None:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message=f"no open batch {batch_id}",
            )
        return request.make_response(StatusCode.SUCCESS)

    # -- management operations -----------------------------------------------

    def _op_security(self, request: Message) -> Message:
        """Atomically replace the account table (the bootstrap lock-out)."""
        accounts = request.body["accounts"]  # list of [identity, key, roles]
        if not accounts:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message="refusing to remove every account",
            )
        new_table = {}
        for item in accounts:
            identity, hmac_key, roles_value = item
            new_table[identity] = Acl(
                identity=identity,
                hmac_key=hmac_key,
                roles=Role(roles_value),
            )
        self._accounts = new_table
        return request.make_response(StatusCode.SUCCESS)

    def _op_setup(self, request: Message) -> Message:
        if "cluster_version" in request.body:
            self.cluster_version = int(request.body["cluster_version"])
        if request.body.get("erase"):
            self._entries.clear()
            self._sorted_keys.clear()
            self._used_bytes = 0
        return request.make_response(StatusCode.SUCCESS)

    def _op_peer2peerpush(self, request: Message) -> Message:
        """Copy keys directly to a peer drive (no third-party relay)."""
        peer_id = request.body["peer"]
        keys = request.body["keys"]
        peer = self._peers.get(peer_id)
        if peer is None:
            return request.make_response(
                StatusCode.INVALID_REQUEST,
                status_message=f"unknown peer {peer_id!r}",
            )
        if not peer.online:
            return request.make_response(
                StatusCode.INTERNAL_ERROR,
                status_message=f"peer {peer_id!r} offline",
            )
        pushed = 0
        for key in keys:
            entry = self._entries.get(key)
            if entry is None:
                continue
            peer._entries_put_raw(key, entry.value, entry.version)
            pushed += 1
        return request.make_response(StatusCode.SUCCESS, body={"pushed": pushed})

    def _entries_put_raw(self, key: bytes, value: bytes, version: bytes) -> None:
        entry = self._entries.get(key)
        delta = len(value) - (len(entry.value) if entry else 0)
        if entry is None:
            bisect.insort(self._sorted_keys, key)
        self._entries[key] = _Entry(value=value, version=version)
        self._used_bytes += delta

    def _op_getlog(self, request: Message) -> Message:
        return request.make_response(
            StatusCode.SUCCESS,
            body={
                "drive_id": self.drive_id,
                "capacity_bytes": self.capacity_bytes,
                "used_bytes": self._used_bytes,
                "key_count": len(self._entries),
                "puts": self.stats.puts,
                "gets": self.stats.gets,
                "deletes": self.stats.deletes,
                "auth_failures": self.stats.auth_failures,
            },
        )
