"""Binary format: compile, serialize, round-trip, hashing."""

import pytest

from repro.errors import PolicyCompileError, PolicyFormatError
from repro.policy.binary import CompiledPolicy
from repro.policy.compiler import compile_policy

ACCESS_POLICY = """
    read   :- sessionKeyIs(k'alice') \\/ sessionKeyIs(k'bob')
    update :- sessionKeyIs(k'alice')
    delete :- sessionKeyIs(k'admin')
"""

VERSION_POLICY = r"""
    update :- objId(this, O) /\ currVersion(O, cV) /\ nextVersion(cV + 1)
           \/ objId(this, NULL) /\ nextVersion(0)
"""


def test_compile_produces_all_permissions():
    policy = compile_policy(ACCESS_POLICY)
    assert policy.operations() == ["delete", "read", "update"]


def test_constant_pool_deduplicates():
    policy = compile_policy(ACCESS_POLICY)
    # alice appears twice but is pooled once; bob + admin = 3 constants.
    assert len(policy.constants) == 3


def test_variable_slots_in_first_use_order():
    policy = compile_policy(VERSION_POLICY)
    assert policy.variables == ["O", "cV"]


def test_serialization_roundtrip():
    policy = compile_policy(VERSION_POLICY)
    blob = policy.to_bytes()
    restored = CompiledPolicy.from_bytes(blob)
    assert restored.constants == policy.constants
    assert restored.variables == policy.variables
    assert restored.policy_hash() == policy.policy_hash()
    assert len(restored.permissions["update"]) == 2


def test_policy_hash_stable_and_content_addressed():
    a = compile_policy(ACCESS_POLICY)
    b = compile_policy(ACCESS_POLICY)
    c = compile_policy(VERSION_POLICY)
    assert a.policy_hash() == b.policy_hash()
    assert a.policy_hash() != c.policy_hash()


def test_hash_ignores_source_text_formatting():
    spaced = compile_policy("read :- sessionKeyIs(k'x')")
    compact = compile_policy("read:-sessionKeyIs(k'x')")
    assert spaced.policy_hash() == compact.policy_hash()


def test_size_bytes_is_compact():
    policy = compile_policy(ACCESS_POLICY)
    # Binary form should be within a few hundred bytes for a small policy.
    assert 0 < policy.size_bytes() < 600


def test_corrupt_blob_rejected():
    blob = compile_policy(ACCESS_POLICY).to_bytes()
    with pytest.raises(PolicyFormatError):
        CompiledPolicy.from_bytes(blob[: len(blob) // 2])


def _reencoded(mutate) -> bytes:
    from repro.kinetic.protocol import decode_fields, encode_fields

    fields = decode_fields(compile_policy(VERSION_POLICY).to_bytes())
    mutate(fields)
    return encode_fields(fields)


def _drop(name):
    return lambda fields: fields.pop(name)


def _bad_instruction(fields):
    # update clause 0, instruction 0: a bare opcode, not [opcode, args]
    fields["permissions"][0][1][0][0] = 20


def _constant_out_of_range(fields):
    # update clause 1, objId(this, NULL): point NULL past the pool
    fields["permissions"][0][1][1][0][1][1] = ["c", 99]


@pytest.mark.parametrize(
    "mutate",
    [
        _drop("permissions"),
        _drop("constants"),
        _bad_instruction,
        _constant_out_of_range,
    ],
    ids=[
        "missing-permissions",
        "missing-constants",
        "instruction-not-a-pair",
        "constant-index-out-of-range",
    ],
)
def test_malformed_blob_rejected_at_load(mutate):
    with pytest.raises(PolicyFormatError):
        CompiledPolicy.from_bytes(_reencoded(mutate))


def test_wrong_version_rejected():
    from repro.kinetic.protocol import decode_fields, encode_fields

    blob = compile_policy(ACCESS_POLICY).to_bytes()
    fields = decode_fields(blob)
    fields["version"] = 99
    with pytest.raises(PolicyFormatError, match="version"):
        CompiledPolicy.from_bytes(encode_fields(fields))


def test_unknown_predicate_rejected():
    with pytest.raises(PolicyCompileError, match="unknown predicate"):
        compile_policy("read :- fliesLikeABird(X)")


def test_arity_mismatch_rejected():
    with pytest.raises(PolicyCompileError, match="argument"):
        compile_policy("read :- sessionKeyIs(A, B)")


def test_arity_range_accepted():
    # certificateSays accepts 2 or 3 arguments.
    compile_policy("read :- certificateSays(k'ca', 'time'(T))")
    compile_policy("read :- certificateSays(k'ca', 60, 'time'(T))")
    with pytest.raises(PolicyCompileError):
        compile_policy("read :- certificateSays(k'ca', 60, 'time'(T), X)")


def test_all_table1_predicates_compile():
    source = r"""
    read :- eq(A, 1) /\ le(A, 2) /\ lt(A, 3) /\ ge(A, 1) /\ gt(A, 0)
        /\ certificateSays(k'ca', 'fact'(F))
        /\ sessionKeyIs(K)
        /\ objId(this, O)
        /\ currVersion(O, V)
        /\ nextVersion(NV)
        /\ objSize(O, V, S)
        /\ objPolicy(O, V, PH)
        /\ objHash(O, V, H)
        /\ objSays(O, V, 'entry'(E))
    """
    policy = compile_policy(source)
    assert len(policy.permissions["read"][0]) == 14
