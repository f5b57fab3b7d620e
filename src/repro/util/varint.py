"""LEB128-style unsigned varints.

Both the Kinetic wire protocol (a protobuf stand-in) and the compiled
policy binary format use varints for compact length/field encoding.
"""

from __future__ import annotations

import io

from repro.errors import PesosError


class VarintError(PesosError):
    """Varint is malformed (truncated or longer than 64 bits)."""


_MAX_VARINT_BYTES = 10  # 64 bits / 7 bits-per-byte, rounded up


def append_varint(out: bytearray, value: int) -> None:
    """Append a non-negative integer to ``out`` as a LEB128 varint."""
    if value < 0:
        raise VarintError(f"varints are unsigned, got {value}")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    out = bytearray()
    append_varint(out, value)
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(data):
            raise VarintError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    raise VarintError("varint exceeds 64 bits")


def write_varint(stream: io.BytesIO, value: int) -> None:
    """Append a varint to a binary stream."""
    stream.write(encode_varint(value))


def read_varint(stream: io.BytesIO) -> int:
    """Read one varint from a binary stream."""
    result = 0
    shift = 0
    for _ in range(_MAX_VARINT_BYTES):
        chunk = stream.read(1)
        if not chunk:
            raise VarintError("truncated varint")
        byte = chunk[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
    raise VarintError("varint exceeds 64 bits")
