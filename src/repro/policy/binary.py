"""The compact binary policy format.

The policy compiler turns an AST into this representation once, at
submission time; every subsequent permission check interprets the
binary form directly (the paper's "binary-format interpreter", §1).

Layout (serialized with the same TLV field encoding as the Kinetic
protocol)::

    version        u8
    constants      list of tagged values (the constant pool)
    variables      list of slot names (index = slot number)
    permissions    op -> list of clauses; a clause is a list of
                   (opcode, arg-expressions) instructions

Argument expressions are prefix-encoded trees::

    ['c', pool_index]                  constant
    ['v', slot]                        variable slot
    ['r', 'this' | 'log']              object reference
    ['a', '+'|'-', left, right]        integer arithmetic
    ['t', pool_index(name), [args]]    tuple pattern

A policy's identity is the SHA-256 of its serialized bytes, so equal
policies share cache entries and the hash doubles as the integrity
check ``objPolicy`` inspects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import PesosError, PolicyFormatError
from repro.kinetic.protocol import decode_fields, encode_fields
from repro.policy.ast import (
    HashValue,
    IntValue,
    NullValue,
    PubKeyValue,
    StrValue,
    TupleValue,
    Value,
)

FORMAT_VERSION = 1

_VALUE_TAGS = {
    IntValue: "i",
    StrValue: "s",
    HashValue: "h",
    PubKeyValue: "k",
    NullValue: "n",
    TupleValue: "t",
}


def _encode_value(value: Value) -> list:
    tag = _VALUE_TAGS[type(value)]
    if isinstance(value, IntValue):
        return [tag, value.value]
    if isinstance(value, NullValue):
        return [tag]
    if isinstance(value, TupleValue):
        return [tag, value.name, [_encode_value(arg) for arg in value.args]]
    return [tag, value.value]


_SCALAR_TAGS = {
    "i": (IntValue, int),
    "s": (StrValue, str),
    "h": (HashValue, str),
    "k": (PubKeyValue, str),
}


def _decode_value(item) -> Value:
    if not (isinstance(item, list) and item and isinstance(item[0], str)):
        raise PolicyFormatError("malformed constant")
    tag, rest = item[0], item[1:]
    if tag in _SCALAR_TAGS:
        cls, payload = _SCALAR_TAGS[tag]
        if len(rest) == 1 and isinstance(rest[0], payload):
            return cls(rest[0])
    elif tag == "n":
        if not rest:
            return NullValue()
    elif tag == "t":
        if (
            len(rest) == 2
            and isinstance(rest[0], str)
            and isinstance(rest[1], list)
        ):
            return TupleValue(
                name=rest[0], args=tuple(_decode_value(arg) for arg in rest[1])
            )
    else:
        raise PolicyFormatError(f"unknown value tag {tag!r}")
    raise PolicyFormatError(f"malformed {tag!r} constant")


def _check_index(index, bound: int, what: str) -> None:
    if not isinstance(index, int) or not 0 <= index < bound:
        raise PolicyFormatError(f"{what} index {index!r} out of range")


def _check_expr(expr, constants: list, num_slots: int) -> None:
    """Reject an argument tree the interpreter could not walk."""
    if not isinstance(expr, list) or not expr:
        raise PolicyFormatError("malformed argument expression")
    kind, rest = expr[0], expr[1:]
    if kind == "c" and len(rest) == 1:
        _check_index(rest[0], len(constants), "constant")
    elif kind == "v" and len(rest) == 1:
        _check_index(rest[0], num_slots, "variable slot")
    elif kind == "r" and rest in (["this"], ["log"]):
        pass
    elif kind == "a" and len(rest) == 3 and rest[0] in ("+", "-"):
        _check_expr(rest[1], constants, num_slots)
        _check_expr(rest[2], constants, num_slots)
    elif kind == "t" and len(rest) == 2 and isinstance(rest[1], list):
        _check_index(rest[0], len(constants), "constant")
        if not isinstance(constants[rest[0]], StrValue):
            raise PolicyFormatError("tuple name is not a string constant")
        for arg in rest[1]:
            _check_expr(arg, constants, num_slots)
    else:
        raise PolicyFormatError("malformed argument expression")


def _decode_instruction(inst, constants: list, num_slots: int) -> Instruction:
    if not (
        isinstance(inst, list)
        and len(inst) == 2
        and isinstance(inst[0], int)
        and isinstance(inst[1], list)
    ):
        raise PolicyFormatError("instruction is not [opcode, args]")
    for expr in inst[1]:
        _check_expr(expr, constants, num_slots)
    return Instruction(opcode=inst[0], args=inst[1])


def _list_field(fields: dict, name: str) -> list:
    value = fields.get(name)
    if not isinstance(value, list):
        raise PolicyFormatError(f"policy blob lacks a {name} list")
    return value


@dataclass
class Instruction:
    """One predicate invocation in compiled form."""

    opcode: int
    args: list  # prefix-encoded argument expression trees


@dataclass
class CompiledPolicy:
    """A policy in binary form, ready for interpretation."""

    constants: list = field(default_factory=list)
    variables: list = field(default_factory=list)
    #: operation -> list of clauses -> list of Instruction
    permissions: dict = field(default_factory=dict)
    source: str = ""

    _blob_cache: bytes | None = field(default=None, repr=False, compare=False)
    _hash_cache: str | None = field(default=None, repr=False, compare=False)

    def to_bytes(self) -> bytes:
        """Serialize; cached because the policy id hashes this blob."""
        if self._blob_cache is None:
            self._blob_cache = encode_fields(
                {
                    "version": FORMAT_VERSION,
                    "constants": [
                        _encode_value(value) for value in self.constants
                    ],
                    "variables": list(self.variables),
                    "permissions": [
                        [
                            op,
                            [
                                [[inst.opcode, inst.args] for inst in clause]
                                for clause in clauses
                            ],
                        ]
                        for op, clauses in sorted(self.permissions.items())
                    ],
                }
            )
        return self._blob_cache

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompiledPolicy":
        """Decode an untrusted blob, validating every field.

        Shape, constant-pool indices and variable slots are checked
        here, so a malformed blob raises :class:`PolicyFormatError` at
        load instead of a foreign exception at the first evaluation.
        """
        try:
            fields = decode_fields(blob)
        except PesosError as exc:
            # The wire decoder's whole error surface (KineticError /
            # VarintError) shares this root; see the decoder fuzz test.
            raise PolicyFormatError(f"corrupt policy blob: {exc}") from exc
        if fields.get("version") != FORMAT_VERSION:
            raise PolicyFormatError(
                f"unsupported policy format version {fields.get('version')!r}"
            )
        constants = [
            _decode_value(item) for item in _list_field(fields, "constants")
        ]
        variables = _list_field(fields, "variables")
        if not all(isinstance(name, str) for name in variables):
            raise PolicyFormatError("variable names must be strings")
        permissions = {}
        for entry in _list_field(fields, "permissions"):
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and isinstance(entry[0], str)
                and isinstance(entry[1], list)
                and all(isinstance(clause, list) for clause in entry[1])
            ):
                raise PolicyFormatError("malformed permission entry")
            op, clauses = entry
            permissions[op] = [
                [
                    _decode_instruction(inst, constants, len(variables))
                    for inst in clause
                ]
                for clause in clauses
            ]
        policy = cls(
            constants=constants, variables=variables, permissions=permissions
        )
        policy._blob_cache = blob
        return policy

    def policy_hash(self) -> str:
        """Content-addressed identity of this policy.

        Memoized: the hash is consulted on every audited decision, so
        recomputing SHA-256 over the blob per check would put hashing
        back on the hot path.
        """
        if self._hash_cache is None:
            self._hash_cache = hashlib.sha256(self.to_bytes()).hexdigest()
        return self._hash_cache

    def size_bytes(self) -> int:
        return len(self.to_bytes())

    def operations(self) -> list:
        return sorted(self.permissions)
