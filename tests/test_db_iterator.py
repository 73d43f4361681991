"""DbIterator.seek: repositioning the plan-backed iterator.

After ``seek(t)`` the iterator's remaining output must equal a fresh
``db.iterate(max(t, lo), hi)`` -- forwards, backwards, clamped below
``lo_key``, at or past ``hi_key``, after exhaustion and under a snapshot.
Every engine that serves scans runs each case; FLSM's chains seek across
multi-fragment guard nodes.
"""

import random

import pytest

from repro.workloads.distributions import permute64
from tests.conftest import ALL_ENGINES, make_tiny_db

N_KEYS = 400


def _loaded(engine):
    """A store with data on disk, overwrites, tombstones and a live memtable."""
    db = make_tiny_db(engine)
    keys = [permute64(i) for i in range(N_KEYS)]
    for k in keys:
        db.put(k, 64)
    rng = random.Random(5)
    for k in rng.sample(keys, 60):
        db.delete(k)
    db.quiesce()
    for k in rng.sample(keys, 40):
        db.put(k, 72)
    return db, sorted(keys)


def _bounds(keys):
    return keys[len(keys) // 8], keys[7 * len(keys) // 8]


def _expect(db, target, lo, hi, snapshot=None):
    start = target if lo is None or target > lo else lo
    return list(db.iterate(start, hi, snapshot=snapshot))


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_seek_forward_and_backward(engine):
    db, keys = _loaded(engine)
    lo, hi = _bounds(keys)
    it = db.iterator(lo, hi)
    for _ in range(10):
        next(it)
    ahead = keys[len(keys) // 2]
    it.seek(ahead)
    assert list(it) == _expect(db, ahead, lo, hi)

    it = db.iterator(lo, hi)
    consumed = [next(it) for _ in range(40)]
    back = consumed[5][0]
    it.seek(back)
    assert list(it) == _expect(db, back, lo, hi)

    # Seeking to the pair just returned yields it again.
    it = db.iterator(lo, hi)
    last = [next(it) for _ in range(12)][-1]
    it.seek(last[0])
    assert next(it) == last
    db.close()


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_seek_below_lo_is_clamped(engine):
    db, keys = _loaded(engine)
    lo, hi = _bounds(keys)
    it = db.iterator(lo, hi)
    for _ in range(20):
        next(it)
    it.seek(keys[0])
    assert list(it) == list(db.iterate(lo, hi))
    db.close()


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_seek_at_or_past_hi_is_empty(engine):
    db, keys = _loaded(engine)
    lo, hi = _bounds(keys)
    it = db.iterator(lo, hi)
    it.seek(hi)
    assert list(it) == []
    it.seek(keys[-1])
    assert list(it) == []
    # Seeking back into range revives the iterator.
    it.seek(lo)
    assert list(it) == list(db.iterate(lo, hi))
    db.close()


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_seek_after_exhaustion(engine):
    db, keys = _loaded(engine)
    lo, hi = _bounds(keys)
    it = db.iterator(lo, hi)
    assert list(it) == list(db.iterate(lo, hi))
    with pytest.raises(StopIteration):
        next(it)
    target = keys[len(keys) // 3]
    it.seek(target)
    assert list(it) == _expect(db, target, lo, hi)
    # Unbounded iterators exhaust at the end of the data, not at hi_key.
    it = db.iterator()
    list(it)
    it.seek(target)
    assert list(it) == _expect(db, target, None, None)
    db.close()


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_seek_under_snapshot(engine):
    db, keys = _loaded(engine)
    lo, hi = _bounds(keys)
    snap = db.snapshot()
    rng = random.Random(9)
    for k in rng.sample(keys, 80):
        db.put(k, 96)
    for k in rng.sample(keys, 40):
        db.delete(k)
    target = keys[len(keys) // 2]
    it = db.iterator(lo, hi, snapshot=snap)
    for _ in range(15):
        next(it)
    it.seek(target)
    got = list(it)
    assert got == _expect(db, target, lo, hi, snapshot=snap)
    assert got != _expect(db, target, lo, hi)
    db.close()


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_view_is_fixed_at_creation(engine):
    # Scan plans draw chain nodes lazily, but an iterator outlives the
    # call: engine mutations made after it was created (flushes, appends,
    # merges, compactions) must not show through, before or after a seek.
    db, keys = _loaded(engine)
    want = list(db.iterate())
    it = db.iterate()
    first = next(it)
    for k in keys:
        db.put(k, 80)
    db.quiesce()
    assert [first] + list(it) == want
    it.seek(keys[0])
    assert list(it) == want
    db.close()
