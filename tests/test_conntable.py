import multiprocessing as mp
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.conntable import (
    _HASH_CACHE_SIZE,
    CuckooTable,
    TableConfig,
    TableFullError,
    _hash_pair,
    mix64,
)
import lbsim
from lbsim.packet import FlowKey

DELTA = 60.0


def rand_key(rng: random.Random) -> FlowKey:
    return FlowKey(rng.getrandbits(32), rng.getrandbits(32),
                   rng.getrandbits(16), rng.getrandbits(16))


def handle_for(key: FlowKey) -> int:
    # value derived from key: any torn (key from A, value from B) read trips this
    return mix64(key.pack() ^ 0xABCDEF)


def test_lookup_on_empty_misses():
    t = CuckooTable(TableConfig(bucket_count=16))
    assert t.lookup(FlowKey(1, 2, 3, 4), now=0.0) is None


def test_insert_lookup_refreshes_ttl():
    t = CuckooTable(TableConfig(bucket_count=16, ttl_delta=DELTA))
    k = FlowKey(1, 2, 3, 4)
    t.insert(k, "entry", now=0.0)
    assert t.lookup(k, now=5.0) == "entry"
    assert t.ttl_of(k) == 5.0 + DELTA


def test_duplicate_insert_replaces():
    t = CuckooTable(TableConfig(bucket_count=16))
    k = FlowKey(1, 2, 3, 4)
    t.insert(k, "a", now=0.0)
    t.insert(k, "b", now=0.0)
    assert t.lookup(k, now=0.0) == "b"
    assert len(t) == 1


def test_insert_remove_roundtrip():
    t = CuckooTable(TableConfig(bucket_count=16))
    k = FlowKey(9, 9, 9, 9)
    assert t.remove(k) is False
    t.insert(k, 1, now=0.0)
    assert t.remove(k) is True
    assert t.lookup(k, now=0.0) is None
    assert t.remove(k) is False


def test_10k_inserts_at_load_061_all_found():
    # 4096 buckets x 4 slots = 16384 slots; 10k keys -> load 0.61
    t = CuckooTable(TableConfig(bucket_count=4096, slots_per_bucket=4))
    rng = random.Random(42)
    keys = {rand_key(rng) for _ in range(10_000)}
    for k in keys:
        t.insert(k, handle_for(k), now=0.0)
    for k in keys:
        assert t.lookup(k, now=1.0) == handle_for(k)
    assert len(t) == len(keys)


def test_constructed_collision_depth1_move():
    # single-slot buckets: fill both candidate buckets of a victim key such
    # that one resident can hop to its empty alternate bucket
    cfg = TableConfig(bucket_count=8, slots_per_bucket=1)
    t = CuckooTable(cfg)
    rng = random.Random(1)

    def buckets(k):
        return t._buckets(k.pack())

    victim = None
    while victim is None:
        k = rand_key(rng)
        b1, b2 = buckets(k)
        if b1 != b2:
            victim = k
    vb1, vb2 = buckets(victim)

    def find_occupant(target_bucket):
        # primary bucket == target so a fresh insert lands exactly there;
        # alternate bucket outside the victim's pair so a depth-1 move exists
        while True:
            k = rand_key(rng)
            b1, b2 = buckets(k)
            if b1 == target_bucket and b2 not in (vb1, vb2, b1):
                return k
    occ1 = find_occupant(vb1)
    occ2 = find_occupant(vb2)
    t.insert(occ1, handle_for(occ1), now=0.0)
    t.insert(occ2, handle_for(occ2), now=0.0)
    assert t._empty_slot(vb1) is None and t._empty_slot(vb2) is None

    t.insert(victim, handle_for(victim), now=0.0)
    assert t.stats.relocations >= 1
    for k in (victim, occ1, occ2):
        assert t.lookup(k, now=0.0) == handle_for(k)


def test_fill_until_full_preserves_prior_keys():
    t = CuckooTable(TableConfig(bucket_count=16, slots_per_bucket=2))
    rng = random.Random(3)
    inserted = []
    with pytest.raises(TableFullError):
        while True:
            k = rand_key(rng)
            t.insert(k, handle_for(k), now=0.0)
            inserted.append(k)
    for k in inserted:
        assert t.lookup(k, now=0.0) == handle_for(k)
    assert t.load_factor() > 0.5


def _check_against_reference_map(shared):
    t = CuckooTable(TableConfig(bucket_count=256, ttl_delta=DELTA), shared=shared)
    ref: dict[FlowKey, int] = {}
    ref_expiry: dict[FlowKey, float] = {}
    rng = random.Random(77)
    keyspace = [rand_key(rng) for _ in range(500)]
    now = 0.0
    for _ in range(20_000):
        now += rng.random()
        k = rng.choice(keyspace)
        op = rng.random()
        if op < 0.5:
            got = t.lookup(k, now)
            assert got == ref.get(k)
            if k in ref:
                ref_expiry[k] = now + DELTA
        elif op < 0.75:
            v = rng.getrandbits(32)
            t.insert(k, v, now)
            ref[k] = v
            ref_expiry[k] = now + DELTA
        elif op < 0.9:
            assert t.remove(k) == (k in ref)
            ref.pop(k, None)
            ref_expiry.pop(k, None)
        else:
            swept = dict(t.sweep_expired(now))
            expected = {kk for kk, e in ref_expiry.items() if e < now}
            assert set(swept) == expected
            for kk in expected:
                del ref[kk]
                del ref_expiry[kk]
            assert len(t) == len(ref)
    assert dict(t.items()) == ref


def test_single_threaded_matches_reference_map():
    _check_against_reference_map(shared=False)


def test_single_threaded_shared_storage_matches_reference_map():
    _check_against_reference_map(shared=True)


def test_shared_table_refuses_a_non_int_value_and_leaves_its_slot_even():
    """The shared table stores u64 handles: a non-int value is refused before
    the slot's version moves, so the refused insert leaves no slot odd and
    the next reader of that slot needs no retry."""
    cfg = TableConfig(bucket_count=16)
    t = CuckooTable(cfg, shared=True)
    k = FlowKey(1, 2, 3, 4)
    with pytest.raises(TypeError):
        t.insert(k, "x", now=0.0)
    assert len(t) == 0
    n_slots = cfg.bucket_count * cfg.slots_per_bucket
    assert all(v % 2 == 0 for v in t.storage.read_bucket(0, n_slots)[0])
    t.insert(k, 7, now=0.0)
    assert t.lookup(k, now=1.0) == 7
    assert t.stats.read_retries == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 104) - 1))
def test_hash_pair_matches_mix64_formula(kp):
    hi, lo = kp >> 40, kp & ((1 << 40) - 1)
    expected = (mix64(hi ^ mix64(lo ^ 0x9E3779B97F4A7C15)),
                mix64(hi ^ mix64(lo ^ 0xC2B2AE3D27D4EB4F)))
    assert _hash_pair(kp) == expected


@pytest.mark.parametrize("shared", [False, True])
def test_probe_memo_past_its_size_keeps_every_answer(shared):
    """More distinct keys than the probe memo holds, among them keys that
    differ only in their addresses and keys that differ only in their
    ports: every answer is the table's, the memo stays within its bound
    and keeps refilling, and the counters count each lookup once."""
    t = CuckooTable(TableConfig(bucket_count=4096, ttl_delta=DELTA), shared=shared)
    grid = [FlowKey(0x0A020000 + a, 0x0A0000FE + a % 3, 10000 + p, 80 + p % 5)
            for a in range(90) for p in range(90)]
    keys, absent = grid[:80 * 90], grid[80 * 90:]
    assert len(keys) > _HASH_CACHE_SIZE
    for k in keys:
        t.insert(k, handle_for(k), now=0.0)

    def probe_memoised(k):
        kp = k.pack()
        return t._probes[k][:3] == (kp, *t._buckets(kp))

    for k in keys:
        assert t.lookup(k, now=1.0) == handle_for(k)
        assert probe_memoised(k)
    for k in absent:
        assert t.lookup(k, now=1.0) is None
        assert probe_memoised(k)
    assert 0 < len(t._probes) <= _HASH_CACHE_SIZE
    removed = set(keys[::2])
    for k in keys[::2]:
        assert t.remove(k)
    for k in keys:
        assert t.lookup(k, now=2.0) == (None if k in removed else handle_for(k))
    assert 0 < len(t._probes) <= _HASH_CACHE_SIZE
    n = len(keys)
    assert (t.stats.lookups, t.stats.hits) == (2 * n + len(absent), n + n - len(removed))
    assert len(t) == n - len(removed)


@pytest.mark.parametrize("present", [True, False])
def test_a_stalled_writer_sends_lookups_to_the_locked_scan(present):
    """A slot whose version a writer left odd, as one stalled between its
    two bumps would, fails every optimistic read of its bucket: the lookup
    retries `_READ_RETRIES` times, then answers from the locked scan, a hit
    with its TTL refreshed or a miss."""
    t = CuckooTable(TableConfig(bucket_count=16, ttl_delta=DELTA))
    k, absent = FlowKey(1, 2, 3, 4), FlowKey(5, 6, 7, 8)
    t.insert(k, "entry", now=0.0)
    probe = k if present else absent
    kp, b1, b2, bases = t._probe(probe)
    i = t._find_slot(kp, b1, b2) if present else bases[0]
    t.storage.versions[i] += 1  # odd, and no lock held
    assert t.lookup(probe, now=5.0) == ("entry" if present else None)
    assert t.stats.read_retries == CuckooTable._READ_RETRIES == 64
    if present:
        assert t.ttl_of(k) == 5.0 + DELTA


def test_sweep_evicts_expired_entry():
    t = CuckooTable(TableConfig(bucket_count=16, ttl_delta=10.0))
    k = FlowKey(1, 1, 1, 1)
    t.insert(k, "v", now=0.0)  # expiry 10.0
    assert t.sweep_expired(now=9.0) == []
    assert t.sweep_expired(now=11.0) == [(k, "v")]
    assert t.lookup(k, now=11.0) is None


def test_refreshed_flow_survives_100_deltas():
    delta = 10.0
    t = CuckooTable(TableConfig(bucket_count=64, ttl_delta=delta))
    k = FlowKey(5, 6, 7, 8)
    t.insert(k, "keep", now=0.0)
    rng = random.Random(4)
    churn = [rand_key(rng) for _ in range(100)]
    now = 0.0
    while now <= 100 * delta:
        assert t.lookup(k, now) == "keep"
        for c in rng.sample(churn, 5):
            t.insert(c, 0, now)
        swept = t.sweep_expired(now)
        assert k not in [kk for kk, _ in swept]
        now += delta / 2
    assert t.lookup(k, now) == "keep"


def test_spurious_blind_refresh_delays_eviction_at_most_delta():
    # constructed race: replay the lookup's steps with a slot rewrite wedged
    # between the key match and the blind TTL write
    delta = 10.0
    t = CuckooTable(TableConfig(bucket_count=16, ttl_delta=delta))
    k1 = FlowKey(1, 2, 3, 4)
    k2 = FlowKey(4, 3, 2, 1)
    t.insert(k1, "one", now=0.0)
    i = t._find_slot(k1.pack(), *t._buckets(k1.pack()))
    assert i is not None

    # reader matched k1 at slot i ... then a writer reuses the slot for k2
    t.remove(k1)
    st = t.storage
    st.write(i, k2.pack(), "two", 0.0 + delta)

    refresh_time = 42.0
    st.set_ttl(i, refresh_time + delta)  # the blind write lands on the victim

    # victim's eviction is delayed, but by no more than delta past the write
    assert t.sweep_expired(now=refresh_time + delta - 0.1) == []
    assert t.sweep_expired(now=refresh_time + delta + 0.1) == [(k2, "two")]


def test_concurrent_readers_with_relocating_writer_threads():
    cfg = TableConfig(bucket_count=256, slots_per_bucket=4)
    t = CuckooTable(cfg)
    rng = random.Random(11)
    stable = [rand_key(rng) for _ in range(200)]
    for k in stable:
        t.insert(k, handle_for(k), now=0.0)

    stop = threading.Event()
    errors: list[str] = []

    def reader(seed):
        r = random.Random(seed)
        for _ in range(25_000):
            k = r.choice(stable)
            got = t.lookup(k, now=0.0)
            if got != handle_for(k):
                errors.append(f"lookup({k}) -> {got!r}")
                return

    def writer():
        r = random.Random(99)
        churn = [rand_key(r) for _ in range(600)]
        while not stop.is_set():
            k = r.choice(churn)
            try:
                t.insert(k, handle_for(k), now=0.0)
            except TableFullError:
                for c in r.sample(churn, 50):
                    t.remove(c)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    wt = threading.Thread(target=writer)
    wt.start()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    stop.set()
    wt.join()
    assert not errors, errors[:3]
    for k in stable:
        assert t.lookup(k, now=0.0) == handle_for(k)


def _mp_worker(table, keys, seed, n_ops, out):
    r = random.Random(seed)
    bad = 0
    for _ in range(n_ops):
        k = keys[r.randrange(len(keys))]
        op = r.random()
        if op < 0.70:
            got = table.lookup(k, now=0.0)
            if got is not None and got != handle_for(k):
                bad += 1
        elif op < 0.90:
            try:
                table.insert(k, handle_for(k), now=0.0)
            except TableFullError:
                pass
        else:
            table.remove(k)
    out.put(bad)


def test_the_simulator_loads_no_multiprocessing():
    """Only SharedMemStorage needs mmap and multiprocessing, and it imports
    them when built: a fresh interpreter that imports the simulator and runs
    a small simulation has loaded neither."""
    code = ("import sys\n"
            "from lbsim.netsim.sim import Simulation, SimParams\n"
            "Simulation(SimParams(), seed=1).run()\n"
            "print(sorted({'mmap', 'multiprocessing'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(lbsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_shared_memory_table_multiprocess_stress():
    cfg = TableConfig(bucket_count=512, slots_per_bucket=4)
    t = CuckooTable(cfg, shared=True)
    rng = random.Random(21)
    keys = [rand_key(rng) for _ in range(800)]
    for k in keys[:400]:
        t.insert(k, handle_for(k), now=0.0)

    ctx = mp.get_context("fork")
    out = ctx.Queue()
    procs = [ctx.Process(target=_mp_worker, args=(t, keys, i, 30_000, out))
             for i in range(8)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    assert all(p.exitcode == 0 for p in procs)
    torn = sum(out.get() for _ in procs)
    assert torn == 0
    # every write made both of its version bumps: no slot is left odd
    assert all(t.storage.version(i) % 2 == 0
               for i in range(cfg.bucket_count * cfg.slots_per_bucket))
    # table still structurally sound afterwards
    for k, v in t.items():
        assert v == handle_for(k)
