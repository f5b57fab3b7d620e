"""The Kinetic wire protocol (protobuf stand-in).

Real Kinetic drives speak Google Protocol Buffers over TCP with a
9-byte frame header.  We reproduce the same structure with our own
tag/length/value binary encoding (:func:`encode_fields` /
:func:`decode_fields`): a :class:`Message` carries a command header
(identity, sequence, type), a body of operation parameters, and an
HMAC-SHA256 over the encoded command keyed by the identity's secret.
The receiver checks that HMAC over the command bytes it received —
which is exactly how Kinetic authenticates requests.

Frame layout::

    magic 'K' | varint(len(command)) | command | varint(len(hmac)) | hmac
"""

from __future__ import annotations

import enum
import hmac as hmac_mod
import hashlib
from dataclasses import dataclass, field

from repro.errors import KineticError
from repro.util.varint import append_varint, decode_varint

_MAGIC = ord("K")


class MessageType(enum.IntEnum):
    """Command types, mirroring the Kinetic protocol's MessageType."""

    GET = 1
    GET_RESPONSE = 2
    PUT = 3
    PUT_RESPONSE = 4
    DELETE = 5
    DELETE_RESPONSE = 6
    GETNEXT = 7
    GETNEXT_RESPONSE = 8
    GETPREVIOUS = 9
    GETPREVIOUS_RESPONSE = 10
    GETKEYRANGE = 11
    GETKEYRANGE_RESPONSE = 12
    GETVERSION = 13
    GETVERSION_RESPONSE = 14
    SECURITY = 15
    SECURITY_RESPONSE = 16
    SETUP = 17
    SETUP_RESPONSE = 18
    PEER2PEERPUSH = 19
    PEER2PEERPUSH_RESPONSE = 20
    NOOP = 21
    NOOP_RESPONSE = 22
    GETLOG = 23
    GETLOG_RESPONSE = 24
    FLUSHALLDATA = 25
    FLUSHALLDATA_RESPONSE = 26
    START_BATCH = 27
    START_BATCH_RESPONSE = 28
    END_BATCH = 29
    END_BATCH_RESPONSE = 30
    ABORT_BATCH = 31
    ABORT_BATCH_RESPONSE = 32


class StatusCode(enum.IntEnum):
    """Response status codes."""

    SUCCESS = 0
    NOT_FOUND = 1
    VERSION_MISMATCH = 2
    NOT_AUTHORIZED = 3
    HMAC_FAILURE = 4
    INTERNAL_ERROR = 5
    NOT_ATTEMPTED = 6
    INVALID_REQUEST = 7
    NO_SPACE = 8


_RESPONSE_OF = {
    MessageType.GET: MessageType.GET_RESPONSE,
    MessageType.PUT: MessageType.PUT_RESPONSE,
    MessageType.DELETE: MessageType.DELETE_RESPONSE,
    MessageType.GETNEXT: MessageType.GETNEXT_RESPONSE,
    MessageType.GETPREVIOUS: MessageType.GETPREVIOUS_RESPONSE,
    MessageType.GETKEYRANGE: MessageType.GETKEYRANGE_RESPONSE,
    MessageType.GETVERSION: MessageType.GETVERSION_RESPONSE,
    MessageType.SECURITY: MessageType.SECURITY_RESPONSE,
    MessageType.SETUP: MessageType.SETUP_RESPONSE,
    MessageType.PEER2PEERPUSH: MessageType.PEER2PEERPUSH_RESPONSE,
    MessageType.NOOP: MessageType.NOOP_RESPONSE,
    MessageType.GETLOG: MessageType.GETLOG_RESPONSE,
    MessageType.FLUSHALLDATA: MessageType.FLUSHALLDATA_RESPONSE,
    MessageType.START_BATCH: MessageType.START_BATCH_RESPONSE,
    MessageType.END_BATCH: MessageType.END_BATCH_RESPONSE,
    MessageType.ABORT_BATCH: MessageType.ABORT_BATCH_RESPONSE,
}


def response_type(request_type: MessageType) -> MessageType:
    """The response MessageType paired with a request type."""
    try:
        return _RESPONSE_OF[request_type]
    except KeyError:
        raise KineticError(f"{request_type!r} is not a request type") from None


# ---------------------------------------------------------------------------
# TLV field encoding
# ---------------------------------------------------------------------------

_TYPE_INT = 0
_TYPE_BYTES = 1
_TYPE_STR = 2
_TYPE_LIST = 3
_TYPE_NONE = 4

#: Deepest list nesting either direction accepts.  The deepest record
#: the store writes (a compiled policy) nests 9; the cap keeps a hostile
#: frame from exhausting the interpreter stack before its HMAC is
#: checked, and holding the encoder to it means nothing written can
#: fail to load.
MAX_LIST_DEPTH = 64


def _read_exact(data: bytes, pos: int, what: str) -> tuple[bytes, int]:
    """Read a varint length at ``pos`` and that many bytes after it.

    Length fields are attacker-controlled varints up to 2^64; checking
    them against the remaining payload prevents huge-allocation and
    index-overflow attacks (found by fuzzing).  Returns
    ``(payload, next_pos)``.
    """
    length, pos = decode_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise KineticError(
            f"{what} length {length} exceeds remaining payload "
            f"{len(data) - pos}"
        )
    return data[pos:end], end


def _write_value(out: bytearray, value, depth: int) -> None:
    if value is None:
        out.append(_TYPE_NONE)
    elif isinstance(value, bool):
        # bools encode as ints (before the int check: bool is an int).
        out.append(_TYPE_INT)
        out.append(int(value))
    elif isinstance(value, int):
        if value < 0:
            raise KineticError(f"cannot encode negative int {value}")
        out.append(_TYPE_INT)
        append_varint(out, value)
    elif isinstance(value, bytes):
        out.append(_TYPE_BYTES)
        append_varint(out, len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode()
        out.append(_TYPE_STR)
        append_varint(out, len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        if depth >= MAX_LIST_DEPTH:
            raise KineticError(f"lists nest deeper than {MAX_LIST_DEPTH}")
        out.append(_TYPE_LIST)
        append_varint(out, len(value))
        for item in value:
            _write_value(out, item, depth + 1)
    else:
        raise KineticError(f"cannot encode field of type {type(value).__name__}")


def _read_value(data: bytes, pos: int, depth: int) -> tuple[object, int]:
    """Decode the value at ``pos``; returns ``(value, next_pos)``."""
    if pos >= len(data):
        raise KineticError("truncated field value")
    kind = data[pos]
    pos += 1
    if kind == _TYPE_NONE:
        return None, pos
    if kind == _TYPE_INT:
        return decode_varint(data, pos)
    if kind == _TYPE_BYTES:
        return _read_exact(data, pos, "field payload")
    if kind == _TYPE_STR:
        raw, pos = _read_exact(data, pos, "field payload")
        try:
            return raw.decode(), pos
        except UnicodeDecodeError as exc:
            raise KineticError(f"invalid string field: {exc}") from exc
    if kind == _TYPE_LIST:
        if depth >= MAX_LIST_DEPTH:
            raise KineticError(f"lists nest deeper than {MAX_LIST_DEPTH}")
        count, pos = decode_varint(data, pos)
        if count > len(data) - pos:  # each element needs >= 1 byte
            raise KineticError("list count exceeds remaining payload")
        items = []
        for _ in range(count):
            item, pos = _read_value(data, pos, depth + 1)
            items.append(item)
        return items, pos
    raise KineticError(f"unknown field type {kind}")


def encode_fields(fields: dict) -> bytes:
    """Encode a flat dict of fields deterministically (sorted keys)."""
    out = bytearray()
    append_varint(out, len(fields))
    for key in sorted(fields):
        raw_key = key.encode()
        append_varint(out, len(raw_key))
        out += raw_key
        _write_value(out, fields[key], 0)
    return bytes(out)


def decode_fields(data: bytes) -> dict:
    """Inverse of :func:`encode_fields`."""
    count, pos = decode_varint(data, 0)
    if count > len(data):
        raise KineticError("field count exceeds payload")
    fields = {}
    for _ in range(count):
        raw_key, pos = _read_exact(data, pos, "field key")
        try:
            key = raw_key.decode()
        except UnicodeDecodeError as exc:
            raise KineticError(f"invalid field key: {exc}") from exc
        fields[key], pos = _read_value(data, pos, 0)
    return fields


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass
class Message:
    """One Kinetic command: header + body, HMAC-authenticated."""

    message_type: MessageType
    identity: str
    sequence: int
    body: dict = field(default_factory=dict)
    status: StatusCode = StatusCode.SUCCESS
    status_message: str = ""
    hmac: bytes = b""
    _command_cache: bytes | None = field(
        default=None, repr=False, compare=False
    )
    #: The command bytes this message was parsed from (set by
    #: :meth:`decode`); :meth:`verify` authenticates exactly these.
    _received: bytes | None = field(default=None, repr=False, compare=False)

    def command_bytes(self) -> bytes:
        """The canonical encoding of the command (always fresh)."""
        return encode_fields(
            {
                "_type": int(self.message_type),
                "_identity": self.identity,
                "_sequence": self.sequence,
                "_status": int(self.status),
                "_status_message": self.status_message,
                "_body": encode_fields(self.body),
            }
        )

    def sign(self, key: bytes) -> "Message":
        """Attach an HMAC-SHA256 over the canonical encoding.

        The encoding is cached for the follow-up :meth:`encode`, so a
        signed command is encoded once on its way to the wire.
        """
        self._command_cache = self.command_bytes()
        self.hmac = hmac_mod.new(
            key, self._command_cache, hashlib.sha256
        ).digest()
        return self

    def verify(self, key: bytes) -> bool:
        """Check the attached HMAC against ``key``.

        A decoded message is checked over the command bytes that
        arrived in its frame, as a Kinetic drive does.  A message built
        in memory is checked over a fresh canonical encoding, never the
        :meth:`sign` cache, so a field edited after signing fails.
        """
        command = self._received
        if command is None:
            command = self.command_bytes()
        expected = hmac_mod.new(key, command, hashlib.sha256).digest()
        return hmac_mod.compare_digest(expected, self.hmac)

    def encode(self) -> bytes:
        """Serialize to a framed wire blob."""
        command = (
            self._command_cache
            if self._command_cache is not None
            else self.command_bytes()
        )
        out = bytearray([_MAGIC])
        append_varint(out, len(command))
        out += command
        append_varint(out, len(self.hmac))
        out += self.hmac
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse a framed wire blob, keeping its command bytes."""
        if not data or data[0] != _MAGIC:
            raise KineticError("bad frame magic")
        command, pos = _read_exact(data, 1, "command")
        mac, _ = _read_exact(data, pos, "hmac")
        outer = decode_fields(command)
        try:
            return cls(
                message_type=MessageType(outer["_type"]),
                identity=outer["_identity"],
                sequence=outer["_sequence"],
                status=StatusCode(outer["_status"]),
                status_message=outer["_status_message"],
                body=decode_fields(outer["_body"]),
                hmac=mac,
                _received=command,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise KineticError(f"malformed command: {exc}") from exc

    def make_response(
        self,
        status: StatusCode,
        body: dict | None = None,
        status_message: str = "",
    ) -> "Message":
        """Build the (unsigned) response paired with this request."""
        return Message(
            message_type=response_type(self.message_type),
            identity=self.identity,
            sequence=self.sequence,
            body=body or {},
            status=status,
            status_message=status_message,
        )

    @property
    def ok(self) -> bool:
        return self.status == StatusCode.SUCCESS
