"""Workload definitions and seeded request generation.

A workload fixes the system's per-workload knobs (cache budgets,
freshness, audit chain), the record set loaded before measuring, and
the operation mix.  :func:`generate` turns a workload and a seed into
the exact raw HTTP/1.1 requests one trial sends; the same seed always
gives the same bytes.  Everything here is client-side: the system
under test only ever sees the generated requests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

#: Client certificate fingerprint; the installed policy keys on it.
FINGERPRINT = "a1" * 32

#: One ``sessionKeyIs`` ACL governing read, update and delete.
POLICY_SOURCE = (
    f"read :- sessionKeyIs(k'{FINGERPRINT}')\n"
    f"update :- sessionKeyIs(k'{FINGERPRINT}')\n"
    f"delete :- sessionKeyIs(k'{FINGERPRINT}')\n"
)

VALUE_SIZE = 1024

#: Approximate key-cache weight of one freshly loaded record, as the
#: controller's key region accounts it (fixed part + key + one version
#: record); used to size scaled-down cache budgets.
META_WEIGHT = 96 + 20 + 80

GET, PUT, SCAN = "get", "put", "scan"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Records loaded (one put each) during set-up.
    records: int
    #: Operations per trial.  Fixed, never a time budget: hot keys'
    #: metadata grows with every update, so a trial's cost depends on
    #: how many operations it has run.
    ops: int
    #: Share of reads (gets, or scans on the scan workload); the rest
    #: are puts (updates, or inserts on the scan workload).
    read_share: float
    keys: str = "uniform"          # "uniform" or "zipfian"
    scan_max: int = 0              # > 0: reads are scans of 1..scan_max
    #: Object and key cache budgets as a share of the dataset; None
    #: keeps the shipped CacheConfig defaults.
    cache_share: float | None = None
    freshness: bool = False
    audit_log_size: int | None = None

    @property
    def read_op(self) -> str:
        return SCAN if self.scan_max else GET


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ycsb-a-hot",
            why="50/50 get/put, scrambled zipfian over a set that fits "
            "every default cache: front-end and write path",
            records=2000,
            ops=4000,
            read_share=0.5,
            keys="zipfian",
        ),
        Workload(
            name="ycsb-b-cold",
            why="95/5 get/put, uniform over 10x the object and key "
            "caches: gets miss and pay drive reads and AEAD opens",
            records=2000,
            ops=6000,
            read_share=0.95,
            cache_share=0.1,
        ),
        Workload(
            name="secure-a",
            why="50/50 get/put with freshness and the audit chain on: "
            "pins, sealing, proofs and audit appends",
            records=400,
            ops=1000,
            read_share=0.5,
            cache_share=0.1,
            freshness=True,
            audit_log_size=4096,
        ),
        Workload(
            name="ycsb-e-scan",
            why="95% scans of 1-100 records, 5% inserts, cache-resident: "
            "range listing and one policy check per record",
            records=1000,
            ops=1500,
            read_share=0.95,
            scan_max=100,
        ),
    )
}


# -- key choice ----------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value``."""
    result = _FNV_OFFSET
    for _ in range(8):
        result ^= value & 0xFF
        value >>= 8
        result = (result * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return result


def key_name(index: int) -> str:
    """YCSB-style hashed record key: insertion order is not key order."""
    return f"user{fnv64(index):020d}"


class Zipfian:
    """Gray et al.'s zipfian generator (theta 0.99), item 0 hottest."""

    def __init__(self, items: int, rng: random.Random, theta: float = 0.99):
        self.items = items
        self.rng = rng
        zetan = sum(1.0 / i ** theta for i in range(1, items + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self.theta = theta
        self.zetan = zetan
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1 - (2.0 / items) ** (1 - theta)) / (1 - zeta2 / zetan)

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.items * (self.eta * u - self.eta + 1) ** self.alpha)


# -- request bytes -------------------------------------------------------

_PRINTABLE = [chr(c) for c in range(32, 127)]


def value_pool(rng: random.Random, size: int = 64) -> list[str]:
    """Distinct 1 KB printable-ASCII strings, like YCSB field values."""
    return ["".join(rng.choices(_PRINTABLE, k=VALUE_SIZE)) for _ in range(size)]


def unique_value(pool: list[str], rng: random.Random, serial: int) -> bytes:
    """A pool value stamped with ``serial`` so no two puts share bytes."""
    stamp = f"{serial:012d}"
    body = rng.choice(pool)
    return (stamp + body[len(stamp):]).encode()


def get_request(key: str) -> bytes:
    return f"POST /get/{key} HTTP/1.1\r\nContent-Length: 0\r\n\r\n".encode()


def scan_request(key: str, count: int) -> bytes:
    return (
        f"POST /scan/{key}?count={count} HTTP/1.1\r\n"
        "Content-Length: 0\r\n\r\n"
    ).encode()


def put_request(key: str, value: bytes, policy_id: str = "") -> bytes:
    query = f"?policy={policy_id}" if policy_id else ""
    head = (
        f"POST /put/{key}{query} HTTP/1.1\r\n"
        f"Content-Length: {len(value)}\r\n\r\n"
    )
    return head.encode() + value


@dataclass
class Op:
    """One generated request plus what the checker needs to know."""

    kind: str
    key: str
    raw: bytes
    count: int = 0          # scan length
    value: bytes = b""      # put payload


@dataclass
class Plan:
    """Everything one trial sends: the load phase, then the measured ops."""

    load: list
    ops: list


def generate(workload: Workload, seed: int, policy_id: str) -> Plan:
    """The seeded load and operation sequence for one workload."""
    rng = random.Random(f"{workload.name}:{seed}")
    pool = value_pool(rng)
    serial = itertools.count()
    load = []
    for index in range(workload.records):
        value = unique_value(pool, rng, next(serial))
        key = key_name(index)
        load.append(Op(PUT, key, put_request(key, value, policy_id),
                       value=value))
    zipf = Zipfian(workload.records, rng) if workload.keys == "zipfian" else None
    # Exact shares, shuffled: the mix (and the scan lengths) do not
    # drift with the seed, only the order and the keys do.
    reads = round(workload.ops * workload.read_share)
    kinds = [True] * reads + [False] * (workload.ops - reads)
    rng.shuffle(kinds)
    lengths = [i % max(1, workload.scan_max) + 1 for i in range(reads)]
    rng.shuffle(lengths)
    live = workload.records
    ops = []
    for read in kinds:
        if workload.scan_max:
            if read:
                key = key_name(rng.randrange(live))
                count = lengths.pop()
                ops.append(Op(SCAN, key, scan_request(key, count),
                              count=count))
                continue
            # Inserts extend the keyspace; scans then reach them too.
            key = key_name(live)
            live += 1
            value = unique_value(pool, rng, next(serial))
            ops.append(Op(PUT, key, put_request(key, value, policy_id),
                          value=value))
            continue
        if zipf is not None:
            index = fnv64(zipf.next()) % workload.records
        else:
            index = rng.randrange(workload.records)
        key = key_name(index)
        if read:
            ops.append(Op(GET, key, get_request(key)))
        else:
            value = unique_value(pool, rng, next(serial))
            # Updates name no policy: the object keeps the one it has.
            ops.append(Op(PUT, key, put_request(key, value), value=value))
    return Plan(load=load, ops=ops)
