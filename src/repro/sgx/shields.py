"""Scone file-system shields (§4.6).

"In addition to the passing of system calls, Scone incorporates
shields that transparently encrypt system call arguments such as data
written to the local file system.  Furthermore, these shields perform
basic verification of arguments to prevent information leakage and
Iago attacks."

:class:`ShieldedFileSystem` is that shield around an untrusted host
file system (here a :class:`HostFileSystem` the adversary controls):

- every written block leaves the enclave AEAD-sealed under a per-file
  nonce schedule, with the path and block index bound as AAD, so the
  host sees neither names' contents nor can it splice blocks between
  files or offsets;
- an in-enclave manifest records each file's block count and per-block
  MACs implicitly via AEAD, defeating truncation and rollback;
- results returned by the host are validated Iago-style: a read may
  not return more bytes than requested, and sizes must match the
  manifest.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.crypto.aead import StreamAead
from repro.errors import IntegrityError, PesosError

BLOCK_SIZE = 4096


class IagoViolation(PesosError):
    """The untrusted host returned results inconsistent with the manifest."""


@dataclass
class HostFileSystem:
    """The untrusted side: a block store the adversary may rewrite."""

    blocks: dict = field(default_factory=dict)  # (path, index) -> bytes

    def write_block(self, path: str, index: int, blob: bytes) -> None:
        self.blocks[(path, index)] = blob

    def read_block(self, path: str, index: int) -> bytes | None:
        return self.blocks.get((path, index))

    def delete_file(self, path: str) -> None:
        for key in [k for k in self.blocks if k[0] == path]:
            del self.blocks[key]

    # -- attack helpers ----------------------------------------------------

    def tamper(self, path: str, index: int = 0) -> None:
        blob = bytearray(self.blocks[(path, index)])
        blob[0] ^= 0xFF
        self.blocks[(path, index)] = bytes(blob)

    def splice(self, src: tuple, dst: tuple) -> None:
        """Copy a (valid) block from one location over another."""
        self.blocks[dst] = self.blocks[src]

    def snapshot(self) -> dict:
        return dict(self.blocks)

    def restore(self, snap: dict) -> None:
        self.blocks = dict(snap)


@dataclass
class _FileRecord:
    size: int
    generation: int  # bumped per write; part of every block's nonce


class ShieldedFileSystem:
    """Enclave-side shielded file API over an untrusted host FS."""

    def __init__(self, host: HostFileSystem | None = None,
                 key: bytes | None = None):
        self.host = host or HostFileSystem()
        self._aead = StreamAead(key or secrets.token_bytes(32))
        self._manifest: dict[str, _FileRecord] = {}

    # -- helpers -------------------------------------------------------------

    def _nonce(self, generation: int, index: int) -> bytes:
        return generation.to_bytes(6, "big") + index.to_bytes(6, "big")

    def _aad(self, path: str, index: int) -> bytes:
        return f"{path}#{index}".encode()

    # -- file API ---------------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Write the whole file (block-aligned sealing)."""
        record = self._manifest.get(path)
        generation = (record.generation + 1) if record else 1
        block_count = max(1, (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE)
        for index in range(block_count):
            chunk = data[index * BLOCK_SIZE : (index + 1) * BLOCK_SIZE]
            blob = self._aead.seal(
                self._nonce(generation, index), chunk, self._aad(path, index)
            )
            self.host.write_block(path, index, blob)
        # Drop stale tail blocks from a previous longer generation.
        if record:
            old_blocks = max(1, (record.size + BLOCK_SIZE - 1) // BLOCK_SIZE)
            for index in range(block_count, old_blocks):
                self.host.blocks.pop((path, index), None)
        self._manifest[path] = _FileRecord(
            size=len(data), generation=generation
        )

    def read_file(self, path: str) -> bytes:
        """Read and verify the whole file."""
        record = self._manifest.get(path)
        if record is None:
            raise FileNotFoundError(path)
        block_count = max(1, (record.size + BLOCK_SIZE - 1) // BLOCK_SIZE)
        chunks = []
        for index in range(block_count):
            blob = self.host.read_block(path, index)
            if blob is None:
                raise IagoViolation(
                    f"host withheld block {index} of {path!r}"
                )
            if len(blob) > BLOCK_SIZE + self._aead.TAG_SIZE:
                raise IagoViolation(
                    f"host returned oversized block for {path!r}"
                )
            try:
                chunk = self._aead.open(
                    self._nonce(record.generation, index),
                    blob,
                    self._aad(path, index),
                )
            except IntegrityError as exc:
                raise IntegrityError(
                    f"block {index} of {path!r} failed verification "
                    "(tampered, spliced, or rolled back)"
                ) from exc
            chunks.append(chunk)
        data = b"".join(chunks)
        if len(data) < record.size:
            raise IagoViolation(f"host truncated {path!r}")
        return data[: record.size]

    def delete_file(self, path: str) -> None:
        if path not in self._manifest:
            raise FileNotFoundError(path)
        del self._manifest[path]
        self.host.delete_file(path)

    def file_size(self, path: str) -> int:
        record = self._manifest.get(path)
        if record is None:
            raise FileNotFoundError(path)
        return record.size

    def list_files(self) -> list:
        return sorted(self._manifest)
