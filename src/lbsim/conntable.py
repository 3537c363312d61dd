"""Concurrent connection table: 2-choice cuckoo hashing, 4 slots per bucket.

Reads are lock-free.  A reader samples the slot's version counter, reads the
(key, value, ttl) triple, performs the blind TTL refresh, then re-checks the
version: an odd or changed version means a writer touched the slot and the
read retries.  Writers (insert, relocation moves, remove, sweep eviction)
serialize on striped bucket locks; the storage's `write` and `clear` hold the
version odd while they store a slot's fields.  Relocation chains are found
without locks and executed in reverse, one version-guarded move at a time; a
move that fails verification is abandoned and the chain is re-discovered.
Completed moves are never rolled back — a key sitting in either of its two
candidate buckets keeps the cuckoo invariant.

A lookup's probe, the key packed and the bases of its two candidate
buckets, depends on the key alone, so each table memoises it per FlowKey
(`_probes`): a flow's packets repeat its key, and its later lookups skip the
packing and the hashing.  The memo holds at most _HASH_CACHE_SIZE keys, and
is emptied and refilled when it reaches that bound.  Its entries depend on
the key alone, so threads that race on it at worst compute a probe twice or
hold a few keys past the bound until the next emptying.

Two storages back the same algorithm:

  ListStorage        plain Python lists + threading locks; values are
                     arbitrary objects.  Used by the simulator and by
                     thread-based tests.
  SharedMemStorage   an anonymous shared mmap + multiprocessing locks;
                     values are u64 ints (callers keep a side registry).
                     Fork-inherited, so genuinely parallel worker processes
                     can hammer one table.  Only tests use it today (the
                     reference-map and multi-process tests in
                     tests/test_conntable.py); the simulator and the
                     benchmark run on ListStorage.  It imports mmap and
                     multiprocessing when one is built, so importing this
                     module, or the simulator, loads neither.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import compress
from typing import Any, Iterator, Optional

from .packet import FlowKey

_M64 = (1 << 64) - 1
_OCCUPIED = 1 << 63
_SLOT_WORDS = 5  # version, key_hi, key_lo, value, ttl
# Keys whose probes (`CuckooTable._probes`) each table memoises.  A flow's
# packets repeat its key, so the memo needs to hold the live flows of one
# table, not all keys.
_HASH_CACHE_SIZE = 1 << 12
# Writer lock stripes; a power of two, so a bucket's stripe is a mask of it.
LOCK_STRIPES = 64
MAX_RELOCATION_PATH = 5  # moves an insert may make to free a slot


class TableFullError(RuntimeError):
    """No relocation path exists within MAX_RELOCATION_PATH moves."""


@dataclass(frozen=True)
class TableConfig:
    bucket_count: int = 4096
    slots_per_bucket: int = 4
    ttl_delta: float = 60.0

    def __post_init__(self):
        if self.bucket_count < 2 or self.bucket_count & (self.bucket_count - 1):
            raise ValueError("bucket_count must be a power of two >= 2")
        if self.slots_per_bucket < 1:
            raise ValueError("slots_per_bucket must be >= 1")


def mix64(x: int) -> int:
    """splitmix64 finalizer; stable across runs (unlike builtin hash)."""
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def _hash_pair(kp: int) -> tuple[int, int]:
    hi = kp >> 40
    lo = kp & ((1 << 40) - 1)
    h1 = mix64(hi ^ mix64(lo ^ 0x9E3779B97F4A7C15))
    h2 = mix64(hi ^ mix64(lo ^ 0xC2B2AE3D27D4EB4F))
    return h1, h2


class ListStorage:
    """In-process slot arrays.  Element reads and writes are atomic under the
    GIL; `write` and `clear` keep a slot's fields consistent by its version."""

    def __init__(self, n_slots: int):
        self.versions = [0] * n_slots
        self.keys = [0] * n_slots
        self.values: list[Any] = [None] * n_slots
        self.ttls = [0.0] * n_slots
        self._locks = [threading.Lock() for _ in range(LOCK_STRIPES)]

    def version(self, i: int) -> int:
        return self.versions[i]

    def key_at(self, i: int) -> int:
        return self.keys[i]

    def read_bucket(self, base: int, n: int) -> tuple[list[int], list[int]]:
        """Versions, then keys, of slots [base, base + n)."""
        return self.versions[base:base + n], self.keys[base:base + n]

    def value_at(self, i: int) -> Any:
        return self.values[i]

    def ttl_at(self, i: int) -> float:
        return self.ttls[i]

    def set_ttl(self, i: int, ttl: float) -> None:
        self.ttls[i] = ttl

    def write(self, i: int, key: int, value: Any, ttl: float) -> None:
        self.versions[i] += 1
        self.keys[i] = key
        self.values[i] = value
        self.ttls[i] = ttl
        self.versions[i] += 1

    def clear(self, i: int) -> None:
        self.write(i, 0, None, 0.0)

    def lock(self, stripe: int):
        return self._locks[stripe]


class SharedMemStorage:
    """Slots in an anonymous shared mmap (fork-inherited, no name tracking).

    Slot layout: 5 aligned u64 words — version, key_hi, key_lo | occupied
    bit, value, ttl (float64 bits).  Aligned 8-byte loads are atomic on the
    platforms we care about; writers serialize on striped multiprocessing
    locks and change a slot with `write` or `clear`.  Values are u64 ints.
    """

    def __init__(self, n_slots: int):
        # imported here: only this storage needs them, and only tests build it
        import mmap
        import multiprocessing as mp

        self._mm = mmap.mmap(-1, n_slots * _SLOT_WORDS * 8)
        self._q = memoryview(self._mm).cast("Q")
        self._d = memoryview(self._mm).cast("d")
        ctx = mp.get_context("fork")
        self._locks = [ctx.Lock() for _ in range(LOCK_STRIPES)]

    def version(self, i: int) -> int:
        return self._q[i * _SLOT_WORDS]

    def key_at(self, i: int) -> int:
        base = i * _SLOT_WORDS
        lo = self._q[base + 2]
        if not lo & _OCCUPIED:
            return 0
        return (self._q[base + 1] << 40) | (lo & ~_OCCUPIED)

    def read_bucket(self, base: int, n: int) -> tuple[list[int], list[int]]:
        """Versions and keys of slots [base, base + n), read in one pass in
        address order, so each slot's version is loaded before its key."""
        w = self._q[base * _SLOT_WORDS:(base + n) * _SLOT_WORDS].tolist()
        keys = [(hi << 40) | (lo & ~_OCCUPIED) if lo & _OCCUPIED else 0
                for hi, lo in zip(w[1::_SLOT_WORDS], w[2::_SLOT_WORDS])]
        return w[0::_SLOT_WORDS], keys

    def value_at(self, i: int) -> int:
        return self._q[i * _SLOT_WORDS + 3]

    def ttl_at(self, i: int) -> float:
        return self._d[i * _SLOT_WORDS + 4]

    def set_ttl(self, i: int, ttl: float) -> None:
        self._d[i * _SLOT_WORDS + 4] = ttl

    def write(self, i: int, key: int, value: int, ttl: float) -> None:
        """Key 0 empties the slot.  A non-int value is refused before the
        first bump, so it never leaves the slot odd."""
        if not isinstance(value, int):
            raise TypeError("shared-memory table stores int handles only")
        q = self._q
        base = i * _SLOT_WORDS
        q[base] += 1
        q[base + 1] = key >> 40
        q[base + 2] = ((key & ((1 << 40) - 1)) | _OCCUPIED) if key else 0
        q[base + 3] = value
        self._d[base + 4] = ttl
        q[base] += 1

    def clear(self, i: int) -> None:
        self.write(i, 0, 0, 0.0)

    def lock(self, stripe: int):
        return self._locks[stripe]


@dataclass
class TableStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    relocations: int = 0
    removes: int = 0
    sweep_evictions: int = 0
    read_retries: int = 0
    insert_failures: int = 0


class CuckooTable:
    """The connection table.  Thread-safe per the protocol above; with
    SharedMemStorage it is additionally safe across forked processes."""

    # Optimistic read retries before falling back to an authoritative
    # locked scan (prevents reader livelock under heavy relocation churn).
    _READ_RETRIES = 64
    _INSERT_RETRIES = 128

    def __init__(self, config: TableConfig = TableConfig(), shared: bool = False):
        self.config = config
        n_slots = config.bucket_count * config.slots_per_bucket
        cls = SharedMemStorage if shared else ListStorage
        self.storage = cls(n_slots)
        self._mask = config.bucket_count - 1
        self._spb = config.slots_per_bucket
        # FlowKey -> (packed key, bucket 1, bucket 2, bases of the distinct buckets)
        self._probes: dict[FlowKey, tuple[int, int, int, tuple[int, ...]]] = {}
        self.stats = TableStats()

    # -- bucket helpers ----------------------------------------------------

    def _buckets(self, kp: int) -> tuple[int, int]:
        h1, h2 = _hash_pair(kp)
        return h1 & self._mask, h2 & self._mask

    def _probe(self, key: FlowKey) -> tuple[int, int, int, tuple[int, ...]]:
        """The key packed, its two buckets, and the slot bases to read: one
        base when both hashes pick the same bucket.  Memoised per key."""
        probe = self._probes.get(key)
        if probe is None:
            if len(self._probes) >= _HASH_CACHE_SIZE:
                self._probes.clear()
            kp = key.pack()
            b1, b2 = self._buckets(kp)
            spb = self._spb
            bases = (b1 * spb, b2 * spb) if b2 != b1 else (b1 * spb,)
            probe = self._probes[key] = (kp, b1, b2, bases)
        return probe

    def _alt_bucket(self, kp: int, b: int) -> int:
        b1, b2 = self._buckets(kp)
        return b2 if b == b1 else b1

    def _stripe(self, bucket: int) -> int:
        return bucket & (LOCK_STRIPES - 1)

    def _acquire(self, *buckets: int) -> list:
        stripes = sorted({self._stripe(b) for b in buckets})
        locks = [self.storage.lock(s) for s in stripes]
        for lk in locks:
            lk.acquire()
        return locks

    @staticmethod
    def _release(locks: list) -> None:
        for lk in reversed(locks):
            lk.release()

    # -- read path ----------------------------------------------------------

    def lookup(self, key: FlowKey, now: float) -> Optional[Any]:
        """Find key and blind-refresh its TTL to now + delta.

        The TTL store happens before the final version check; if the check
        fails the (possibly spurious) refresh stands and the lookup retries.
        """
        kp, b1, b2, bases = self._probes.get(key) or self._probe(key)
        st = self.storage
        spb = self._spb
        self.stats.lookups += 1

        for _ in range(self._READ_RETRIES):
            snapshot = []
            for base in bases:
                versions, keys = st.read_bucket(base, spb)
                if kp in keys:
                    s = keys.index(kp)
                    v1 = versions[s]
                    if not v1 & 1:
                        i = base + s
                        value = st.value_at(i)
                        st.set_ttl(i, now + self.config.ttl_delta)
                        if st.version(i) == v1:
                            self.stats.hits += 1
                            return value
                        break  # a writer touched the slot: retry
                snapshot.append(versions)
            else:
                # A miss needs every slot quiet (no odd version) and the
                # versions unchanged on a re-read: a concurrent move could
                # have hopped the key between the two buckets mid-scan.
                if (not any(v & 1 for versions in snapshot for v in versions)
                        and [st.read_bucket(base, spb)[0] for base in bases] == snapshot):
                    return None
            self.stats.read_retries += 1
        return self._locked_lookup(kp, b1, b2, now)

    def _locked_lookup(self, kp: int, b1: int, b2: int, now: float) -> Optional[Any]:
        locks = self._acquire(b1, b2)
        try:
            i = self._find_slot(kp, b1, b2)
            if i is None:
                return None
            value = self.storage.value_at(i)
            self.storage.set_ttl(i, now + self.config.ttl_delta)
            self.stats.hits += 1
            return value
        finally:
            self._release(locks)

    def _find_slot(self, kp: int, b1: int, b2: int) -> Optional[int]:
        for b in (b1, b2) if b1 != b2 else (b1,):
            base = b * self._spb
            for s in range(self._spb):
                if self.storage.key_at(base + s) == kp:
                    return base + s
        return None

    # -- write path ----------------------------------------------------------

    def insert(self, key: FlowKey, value: Any, now: float = 0.0) -> None:
        """Insert or replace.  Raises TableFullError when no relocation path
        of length <= MAX_RELOCATION_PATH frees a candidate slot."""
        kp, b1, b2, _ = self._probe(key)
        if kp == 0:
            raise ValueError("all-zero key is reserved for empty slots")
        ttl = now + self.config.ttl_delta
        st = self.storage

        for _ in range(self._INSERT_RETRIES):
            locks = self._acquire(b1, b2)
            try:
                i = self._find_slot(kp, b1, b2)
                if i is None:
                    i = self._empty_slot(b1)
                if i is None:
                    i = self._empty_slot(b2)
                if i is not None:
                    st.write(i, kp, value, ttl)
                    self.stats.inserts += 1
                    return
            finally:
                self._release(locks)

            path = self._find_path(b1, b2)
            if path is None:
                self.stats.insert_failures += 1
                raise TableFullError(
                    f"no relocation path within {MAX_RELOCATION_PATH} moves")
            if self._execute_path(path):
                continue  # a candidate slot should now be free; retry placement
        raise TableFullError("insert livelock: relocation kept failing verification")

    def _empty_slot(self, b: int) -> Optional[int]:
        base = b * self._spb
        for s in range(self._spb):
            if self.storage.key_at(base + s) == 0:
                return base + s
        return None

    def _find_path(self, b1: int, b2: int) -> Optional[list[tuple[int, int]]]:
        """BFS for a displacement chain ending at a bucket with a free slot.

        Returns [(slot_index, expected_key), ...] ordered from the first
        displaced slot to the last; executed in reverse.  Lock-free: every
        expectation is re-verified under locks at execution time.
        """
        st = self.storage
        frontier: list[tuple[int, list[tuple[int, int]]]] = [(b1, [])]
        if b2 != b1:
            frontier.append((b2, []))
        seen = {b1, b2}
        for _ in range(MAX_RELOCATION_PATH):
            nxt: list[tuple[int, list[tuple[int, int]]]] = []
            for b, chain in frontier:
                base = b * self._spb
                for s in range(self._spb):
                    i = base + s
                    kp = st.key_at(i)
                    if kp == 0:
                        continue
                    alt = self._alt_bucket(kp, b)
                    if alt == b:
                        continue  # both hashes map here; immovable
                    step = chain + [(i, kp)]
                    if self._empty_slot(alt) is not None:
                        return step
                    if alt not in seen:
                        seen.add(alt)
                        nxt.append((alt, step))
            frontier = nxt
            if not frontier:
                break
        return None

    def _execute_path(self, path: list[tuple[int, int]]) -> bool:
        """Run moves deepest-first.  Each move re-verifies its source slot and
        needs an actually-empty destination; any mismatch aborts the chain
        (already-completed moves are legal and stand)."""
        st = self.storage
        for i, expected_kp in reversed(path):
            b_from = i // self._spb
            b_to = self._alt_bucket(expected_kp, b_from)
            locks = self._acquire(b_from, b_to)
            try:
                if st.key_at(i) != expected_kp:
                    return False
                j = self._empty_slot(b_to)
                if j is None:
                    return False
                st.write(j, expected_kp, st.value_at(i), st.ttl_at(i))
                st.clear(i)
                self.stats.relocations += 1
            finally:
                self._release(locks)
        return True

    def remove(self, key: FlowKey) -> bool:
        kp, b1, b2, _ = self._probe(key)
        locks = self._acquire(b1, b2)
        try:
            i = self._find_slot(kp, b1, b2)
            if i is None:
                return False
            self.storage.clear(i)
            self.stats.removes += 1
            return True
        finally:
            self._release(locks)

    def sweep_expired(self, now: float) -> list[tuple[FlowKey, Any]]:
        """Remove and return entries whose ttl_expiry < now at scan time.
        Entries refreshed concurrently (including spurious blind-write
        refreshes) are retained; the expiry is re-checked under the lock.
        Versions and keys are read for the whole table at once, and only
        the occupied slots are visited."""
        st = self.storage
        spb = self._spb
        versions, keys = st.read_bucket(0, self.config.bucket_count * spb)
        candidates: dict[int, list[tuple[int, int]]] = {}  # by bucket
        for i in compress(range(len(keys)), keys):  # the occupied slots
            v = versions[i]
            if not v & 1 and st.ttl_at(i) < now and st.version(i) == v:
                candidates.setdefault(i // spb, []).append((i, keys[i]))
        evicted: list[tuple[FlowKey, Any]] = []
        for b, slots in candidates.items():
            locks = self._acquire(b)
            try:
                for i, kp in slots:
                    if st.key_at(i) != kp or st.ttl_at(i) >= now:
                        continue
                    value = st.value_at(i)
                    st.clear(i)
                    evicted.append((FlowKey.unpack(kp), value))
                    self.stats.sweep_evictions += 1
            finally:
                self._release(locks)
        return evicted

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        keys = self.storage.read_bucket(0, self.config.bucket_count * self._spb)[1]
        return len(keys) - keys.count(0)

    def items(self) -> Iterator[tuple[FlowKey, Any]]:
        """Keys read for the whole table at once; values only for the
        occupied slots."""
        st = self.storage
        keys = st.read_bucket(0, self.config.bucket_count * self._spb)[1]
        for i in compress(range(len(keys)), keys):
            yield FlowKey.unpack(keys[i]), st.value_at(i)

    def load_factor(self) -> float:
        return len(self) / (self.config.bucket_count * self._spb)

    def ttl_of(self, key: FlowKey) -> Optional[float]:
        """Test hook: current ttl_expiry of key's slot (no refresh)."""
        kp = key.pack()
        i = self._find_slot(kp, *self._buckets(kp))
        return None if i is None else self.storage.ttl_at(i)
