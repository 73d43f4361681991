"""Derived metadata is computed on demand and never changes what is charged.

Sequences build their Bloom filter on first probe, and MSTables keep their
byte/record totals as running sums with a memoized checkpoint snapshot.
These tests pin that the lazy and incremental forms agree with the eager
definitions, that write-only work builds no filters, and that recovery
from a memoized snapshot restores exactly what was checkpointed.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.records import KEY, make_put
from repro.faults.crash import CrashPoints, SimulatedCrash
from repro.filters.bloom import BloomFilter
from repro.table.block import INDEX_ENTRY_BYTES, Sequence
from repro.table.mstable import MSTable
from tests.conftest import make_tiny_db
from tests.test_mstable import KS, make_runtime, make_table, run


def _sequences(db):
    return [seq for lvl in db.engine.levels for node in lvl
            if node.table is not None for seq in node.table.sequences]


@pytest.fixture
def build_counter(monkeypatch):
    """Count BloomFilter.build calls (and the keys they hash)."""
    calls = []
    real = BloomFilter.build

    def counting(keys, bits_per_key):
        calls.append(len(keys))
        return real(keys, bits_per_key)

    monkeypatch.setattr(BloomFilter, "build", staticmethod(counting))
    return calls


# ------------------------------------------------------------ filter sizing
@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 100_000), bits=st.integers(0, 32))
def test_nbytes_for_matches_built_filter(n, bits):
    assert BloomFilter.nbytes_for(n, bits) == BloomFilter(n, bits).nbytes


# ------------------------------------------------------ lazy sequence filter
@pytest.mark.parametrize("bits", [0, 10, 14])
def test_lazy_filter_equals_eager_build(bits):
    rng = random.Random(bits)
    keys = sorted(rng.sample(range(1 << 40), 300))
    seq = Sequence([make_put(k, 1, 64) for k in keys], key_size=KS,
                   block_size=256, bloom_bits_per_key=bits, first_block=0)
    eager = BloomFilter.build(keys, bits)
    expected_meta = eager.nbytes + INDEX_ENTRY_BYTES * seq.n_blocks
    assert seq._bloom is None  # nothing hashed at construction
    assert seq.metadata_bytes == expected_meta
    lazy = seq.bloom
    assert seq.bloom is lazy  # cached
    assert np.array_equal(lazy._bits, eager._bits)
    assert (lazy.n_bits, lazy.n_hashes) == (eager.n_bits, eager.n_hashes)
    assert seq.metadata_bytes == expected_meta


def test_lazy_filter_reuses_cached_key_column():
    keys = list(range(0, 3000, 7))
    seq = Sequence([make_put(k, 1, 64) for k in keys], key_size=KS,
                   block_size=256, bloom_bits_per_key=14, first_block=0)
    assert seq.keys_array() is not None
    assert np.array_equal(seq.bloom._bits, BloomFilter.build(keys, 14)._bits)


def test_write_only_load_builds_no_filters(build_counter):
    db = make_tiny_db("iam")
    rng = random.Random(7)
    keys = [rng.randrange(1 << 32) for _ in range(3000)]
    for k in keys:
        db.put(k, 48)
    db.flush()
    db.quiesce()
    seqs = _sequences(db)
    assert len(seqs) > 10
    assert build_counter == []
    assert all(s._bloom is None for s in seqs)

    probes = db.metrics.bloom_probes
    assert db.get(keys[0]) == 48
    built = [s for s in _sequences(db) if s._bloom is not None]
    assert len(build_counter) == len(built) >= 1
    # One build per probed sequence, none for the sequences the get skipped.
    assert len(built) == db.metrics.bloom_probes - probes
    assert len(built) < len(seqs)
    assert any(k == keys[0] for s in built for k in (r[KEY] for r in s.records))


# ------------------------------------------------------- MSTable aggregates
def test_running_totals_match_sequences():
    t = make_table(make_runtime())
    for i in range(4):
        t.append_sequence(run(range(i * 50, i * 50 + 20 + i), i + 1), level=1)
        assert t.data_bytes == sum(s.nbytes for s in t.sequences)
        assert t.metadata_bytes == sum(s.metadata_bytes for s in t.sequences)
        assert t.n_records == sum(len(s) for s in t.sequences)


def test_snapshot_is_memoized_until_append():
    t = make_table(make_runtime())
    t.append_sequence(run(range(10), 1), level=1)
    before = t.snapshot()
    assert t.snapshot() is before
    t.append_sequence(run(range(10), 2), level=1)
    after = t.snapshot()
    assert after is not before
    assert len(before[3]) == 1 and len(after[3]) == 2
    assert before[2] == after[3][1].first_block  # layout cursor pinned too


def test_from_snapshot_sets_totals():
    rt = make_runtime()
    t = make_table(rt)
    t.append_sequence(run(range(30), 1), level=1)
    snap = t.snapshot()
    t.append_sequence(run(range(30, 60), 2), level=1)
    r = MSTable.from_snapshot(rt, snap)
    first = snap[3][0]
    assert r.sequences == [first]
    assert (r.data_bytes, r.metadata_bytes, r.n_records) == (
        first.nbytes, first.metadata_bytes, len(first))
    assert r.file.nbytes == first.nbytes + first.metadata_bytes
    assert r.snapshot() == snap


def _table_shape(levels):
    return [[(lo, hi, None if snap is None else
              (snap[2], sum(s.nbytes for s in snap[3]),
               sum(s.metadata_bytes for s in snap[3]),
               sum(len(s) for s in snap[3]), len(snap[3])))
             for lo, hi, snap in lvl] for lvl in levels]


def _live_shape(db):
    return [[(node.range_lo, node.range_hi, None if node.table is None else
              (node.table.next_block, node.table.data_bytes,
               node.table.metadata_bytes, node.table.n_records,
               node.table.n_sequences))
             for node in lvl] for lvl in db.engine.levels]


def test_crash_restores_checkpointed_tables():
    db = make_tiny_db("iam")
    for i in range(1500):
        db.put((i * 37) % 700, 48)
    db.flush()
    db.quiesce()
    checkpoint = _table_shape(db.manifest.restore()["engine"]["levels"])
    assert _live_shape(db) == checkpoint

    # Further appends land in the live tables, but the crash comes before
    # their checkpoint: recovery must bring back the memoized snapshots.
    db.runtime.arm_crash_points(CrashPoints("pre-checkpoint", occurrence=1))
    with pytest.raises(SimulatedCrash):
        for i in range(5000):
            db.put((i * 53) % 700, 48)
    assert _live_shape(db) != checkpoint
    db.crash_and_recover()
    assert _live_shape(db) == checkpoint
    for lvl in db.engine.levels:
        for node in lvl:
            if node.table is not None:
                t = node.table
                assert t.data_bytes == sum(s.nbytes for s in t.sequences)
