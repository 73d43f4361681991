"""FLSM baseline: guard-based appends and §6.8 behaviour."""

import random

import pytest

from repro.db.iamdb import IamDB
from repro.lsm.flsm import FlsmEngine
from tests.conftest import make_tiny_db
from tests.test_scan_plan_cost import CountingLevel

VAL = 64


def test_reads_and_scans_correct():
    db = make_tiny_db("flsm")
    rng = random.Random(1)
    ref = {}
    for _ in range(2500):
        k = rng.randrange(400)
        v = rng.randrange(50, 100)
        db.put(k, v)
        ref[k] = v
    db.quiesce()
    for k in range(400):
        assert db.get(k) == ref.get(k)
    assert db.scan(50, 150) == sorted((k, v) for k, v in ref.items()
                                      if 50 <= k < 150)
    db.check_invariants()


def test_sequential_load_rewrites_records():
    """§6.8: FLSM always rewrites on compaction -- no trivial moves."""
    flsm = make_tiny_db("flsm")
    for k in range(3000):
        flsm.put(k, VAL)
    flsm.quiesce()
    lsm = make_tiny_db("leveldb")
    for k in range(3000):
        lsm.put(k, VAL)
    lsm.quiesce()
    assert flsm.write_amplification() > lsm.write_amplification() + 1.0


def test_guards_form_sorted_partitions():
    db = make_tiny_db("flsm")
    rng = random.Random(2)
    for _ in range(2500):
        db.put(rng.randrange(1 << 25), VAL)
    db.quiesce()
    eng = db.engine
    for level, cuts in enumerate(eng._cuts):
        assert cuts == sorted(cuts)
    eng.check_invariants()


def test_guard_fanin_is_unbounded_by_design():
    """Table 2: FLSM does not avoid the worst write case; fan-in grows."""
    db = make_tiny_db("flsm")
    rng = random.Random(3)
    for _ in range(4000):
        db.put(rng.randrange(1 << 25), VAL)
    assert db.engine.max_guard_fanin() >= 2


def test_bottom_guard_merge_reclaims_updates():
    db = make_tiny_db("flsm")
    rng = random.Random(4)
    for _ in range(3000):
        db.put(rng.randrange(100), VAL)  # heavy updates on few keys
    db.quiesce()
    assert db.metrics.events.get("flsm-guard-merge", 0) >= 0
    for k in range(100):
        assert db.get(k) == VAL


def test_checkpoint_restore():
    db = make_tiny_db("flsm")
    for k in range(800):
        db.put(k, VAL)
    db.quiesce()
    state = db.engine.checkpoint_state()
    db.engine.restore_state(state)
    db.engine.check_invariants()
    assert db.get(17) == VAL


def test_guard_sampling_keeps_an_occupied_level():
    """A level whose first compaction held too few records to sample
    guards keeps its single guard; a later, larger compaction into that
    level must not resample it and drop the fragment already there."""
    db = make_tiny_db("flsm")
    for i in range(200):
        db.put(i % 3, 400)
    db.quiesce()
    for k in range(1000, 3000):
        db.put(k, VAL)
    db.quiesce()
    for k in range(3):
        assert db.get(k) == 400
    assert db.scan(0, 3) == [(0, 400), (1, 400), (2, 400)]
    db.engine.check_invariants()


def test_quiet_pump_walks_no_guards():
    """The bottom-merge pick changes only with the structure, so pumps
    after it (nothing over threshold, nothing flushed or compacted) walk
    none of the bottom level's guards."""
    db = make_tiny_db("flsm")
    for k in range(3000):
        db.put((k * 7919) % 3000, VAL)
    db.quiesce()
    eng = db.engine
    bottom = eng._deepest_level()
    assert len(eng.guards[bottom]) >= 32, "too few guards to tell"
    eng.guards[bottom] = CountingLevel(eng.guards[bottom])
    CountingLevel.touched = 0
    for _ in range(5):
        db.runtime.pump()
    assert CountingLevel.touched == 0
    # A read pumps too: only the one guard the scan reads is touched.
    assert db.scan(0, None, limit=1) == [(0, VAL)]
    assert CountingLevel.touched == 1
    db.engine.check_invariants()


def _guard_merge_run(cached):
    db = make_tiny_db("flsm")
    eng = db.engine
    if not cached:
        def walk_every_time():
            eng._bottom_pick = None
            return FlsmEngine._pick_bottom_merge(eng)
        eng._pick_bottom_merge = walk_every_time
    rng = random.Random(6)
    for i in range(6000):
        k = rng.randrange(50)  # few keys: small guards that fill up
        if rng.random() < 0.1:
            db.delete(k)
        else:
            db.put(k, rng.randrange(40, 90))
        if i % 200 == 199:
            db.quiesce()  # each quiesce ends on a pick, no flush after it
        if i == 3000:
            eng.restore_state(eng.checkpoint_state())
    db.quiesce()
    eng.check_invariants()
    return (db.scan(), db.runtime.clock.now, db.write_amplification(),
            sorted(db.metrics.events.items()), eng.describe())


def test_cached_bottom_pick_matches_a_fresh_walk():
    """Picking from the cached bottom-merge candidate schedules exactly
    what walking the bottom guards on every pick does."""
    cached = _guard_merge_run(cached=True)
    assert dict(cached[3]).get("flsm-guard-merge", 0) > 0
    assert cached == _guard_merge_run(cached=False)
