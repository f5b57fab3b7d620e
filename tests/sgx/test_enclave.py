"""Enclave measurement and sealing semantics."""

import secrets

import pytest

from repro.errors import AttestationError, CryptoError
from repro.sgx.enclave import Enclave, EnclaveBinary

BINARY = EnclaveBinary(name="pesos-controller", content=b"\x7fELF controller v1")


def _enclave(binary=BINARY, root=None):
    return Enclave(binary=binary, platform_root_key=root or bytes(32))


def test_measurement_is_deterministic():
    assert BINARY.measurement() == BINARY.measurement()


def test_measurement_changes_on_tamper():
    assert BINARY.measurement() != BINARY.tampered().measurement()


def test_measurement_depends_on_name():
    other = EnclaveBinary(name="other", content=BINARY.content)
    assert BINARY.measurement() != other.measurement()


def test_seal_unseal_roundtrip():
    enclave = _enclave()
    blob = enclave.seal(b"disk credentials")
    assert blob != b"disk credentials"
    assert enclave.unseal(blob) == b"disk credentials"


def test_sealed_data_bound_to_measurement():
    original = _enclave()
    tampered = _enclave(binary=BINARY.tampered())
    blob = original.seal(b"secret")
    with pytest.raises(AttestationError):
        tampered.unseal(blob)


def test_sealed_data_bound_to_platform():
    enclave_a = _enclave(root=secrets.token_bytes(32))
    enclave_b = _enclave(root=secrets.token_bytes(32))
    blob = enclave_a.seal(b"secret")
    with pytest.raises(AttestationError):
        enclave_b.unseal(blob)


def test_unseal_truncated_blob():
    with pytest.raises(AttestationError):
        _enclave().unseal(b"short")


def _flip(blob, index):
    tampered = bytearray(blob)
    tampered[index] ^= 0x01
    return bytes(tampered)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda blob: _flip(blob, 12),
        lambda blob: _flip(blob, -1),
        lambda blob: blob[: 12 + 15],
    ],
    ids=["ciphertext-byte", "tag-byte", "nonce-plus-short-tag"],
)
def test_unseal_tampered_blob(tamper):
    enclave = _enclave()
    blob = enclave.seal(b"merkle root and counter")
    with pytest.raises(AttestationError):
        enclave.unseal(tamper(blob))


def test_bad_root_key_rejected():
    with pytest.raises(CryptoError):
        Enclave(binary=BINARY, platform_root_key=b"short")


def test_provision_merges_secrets():
    enclave = _enclave()
    enclave.provision({"tls_key": "abc"})
    enclave.provision({"disk_password": "xyz"})
    assert enclave.secrets == {"tls_key": "abc", "disk_password": "xyz"}


def test_memory_footprint_includes_binary():
    enclave = _enclave()
    base = enclave.memory_footprint()
    assert base == BINARY.enclave_bytes
    assert enclave.memory_footprint(caches_bytes=1024) == base + 1024


def test_monotonic_counter_never_goes_backward():
    from repro.sgx.enclave import MonotonicCounter

    counter = MonotonicCounter()
    assert counter.read() == 0
    values = [counter.increment() for _ in range(5)]
    assert values == [1, 2, 3, 4, 5]
    assert counter.read() == 5
    assert counter.bumps == 5
