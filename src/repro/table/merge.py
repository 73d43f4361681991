"""K-way merging of sorted runs with MVCC garbage collection.

Merges (during compactions, leaf flushes, and IAM's merging levels) remove
outdated records while keeping every version some live snapshot still needs
(§5.2: "the actual deletes and updates are deferred and fulfilled during later
compactions").  Tombstones are only eliminated at the bottom level, where no
older data can exist beneath them.

The kernel is tiered by how much work the inputs actually need:

* **No live snapshots** (the overwhelmingly common case during loads): only
  the newest version of each key can survive, so a single dictionary pass
  dedups keys without ever materializing the merged stream.
* **≤ 2 runs**: a pairwise index-pointer list merge -- no heap, no per-record
  key-function calls.
* **k > 2 runs**: ``heapq.merge`` as before.

Snapshot bookkeeping walks the per-key view list with an advancing index;
the seed's ``views_left.pop(0)`` shifted the whole list per served view.
All paths are record-identical to
:func:`repro.bench.reference.reference_merge_runs` (enforced by
``tests/test_merge_equivalence.py``).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional, Sequence as PySequence

from repro.common.records import (
    DELETE, KEY, KIND, RecordTuple, SEQ, encoded_size, sort_key,
)


def _merge2(a: List[RecordTuple], b: List[RecordTuple]) -> List[RecordTuple]:
    """Pairwise merge of two (key asc, seq desc) sorted runs."""
    out: List[RecordTuple] = []
    append = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ra = a[i]
        rb = b[j]
        # (key asc, seq desc): ra first if key smaller, or same key newer.
        ka, kb = ra[0], rb[0]
        if ka < kb or (ka == kb and ra[1] > rb[1]):
            append(ra)
            i += 1
        else:
            append(rb)
            j += 1
    if i < na:
        out.extend(a[i:])
    elif j < nb:
        out.extend(b[j:])
    return out


def _dedup_newest(runs: PySequence[List[RecordTuple]],
                  drop_tombstones: bool) -> List[RecordTuple]:
    """No-snapshot fast path: keep only the newest version of each key.

    With no live snapshots every older version is unreachable, and a
    surviving tombstone is elided iff ``drop_tombstones`` (it is then by
    construction the oldest -- and only -- kept version of its key).
    """
    if len(runs) == 1:
        # The run is (key asc, seq desc): the first record per key is newest.
        out: List[RecordTuple] = []
        append = out.append
        prev = _SENTINEL
        if drop_tombstones:
            for rec in runs[0]:
                key = rec[0]
                if key != prev:
                    prev = key
                    if rec[2] != DELETE:
                        append(rec)
        else:
            for rec in runs[0]:
                key = rec[0]
                if key != prev:
                    prev = key
                    append(rec)
        return out
    best: dict = {}
    get = best.get
    for run in runs:
        for rec in run:
            key = rec[0]
            cur = get(key)
            if cur is None or rec[1] > cur[1]:
                best[key] = rec
    if drop_tombstones:
        return [best[k] for k in sorted(best) if best[k][2] != DELETE]
    return [best[k] for k in sorted(best)]


_SENTINEL = object()


def merge_runs(runs: PySequence[List[RecordTuple]], *,
               drop_tombstones: bool = False,
               snapshots: Optional[PySequence[int]] = None) -> List[RecordTuple]:
    """Merge sorted runs into one, discarding obsolete versions.

    ``runs`` are (key asc, seq desc) sorted; the output is too.  A version is
    kept iff it is the newest version visible to the "latest" view or to one
    of the live ``snapshots`` *within this merge*.  With ``drop_tombstones``
    (bottom level only) surviving tombstones are elided entirely.
    """
    if not runs:
        return []

    # Views that must stay observable, newest first; None stands for "latest".
    snap_desc: List[int] = sorted(set(snapshots), reverse=True) if snapshots else []
    if not snap_desc:
        return _dedup_newest(runs, drop_tombstones)

    if len(runs) == 1:
        stream: Iterable[RecordTuple] = runs[0]
    elif len(runs) == 2:
        stream = _merge2(runs[0], runs[1])
    else:
        stream = heapq.merge(*runs, key=sort_key)

    n_views = len(snap_desc)
    out: List[RecordTuple] = []
    kept: List[RecordTuple] = []  # versions of the current key, newest first
    cur_key = _SENTINEL
    vi = n_views  # index into snap_desc: views [vi:] are still unserved
    served_latest = False

    def emit() -> None:
        # A tombstone is only removable at the bottom when nothing older of
        # its key survives beneath it -- otherwise dropping it would
        # resurrect the older version for newer views.
        if drop_tombstones:
            while kept and kept[-1][KIND] == DELETE:
                kept.pop()
        out.extend(kept)
        kept.clear()

    for rec in stream:
        key = rec[KEY]
        if key != cur_key:
            emit()
            cur_key = key
            vi = 0
            served_latest = False
        seq = rec[SEQ]
        keep = False
        if not served_latest:
            served_latest = True
            keep = True
        # Serve every snapshot view this version is the newest visible for.
        while vi < n_views and snap_desc[vi] >= seq:
            vi += 1
            keep = True
        if keep:
            kept.append(rec)
    emit()
    return out


def split_run(records: List[RecordTuple], max_bytes: int,
              key_size: int) -> Iterator[List[RecordTuple]]:
    """Chop a merged run into output chunks of roughly ``max_bytes``.

    A chunk closes before the record that would take it past ``max_bytes``,
    but never between two versions of one key.
    """
    chunk: List[RecordTuple] = []
    acc = 0
    for rec in records:
        sz = encoded_size(rec, key_size)
        if acc + sz > max_bytes and chunk and chunk[-1][KEY] != rec[KEY]:
            yield chunk
            chunk = []
            acc = 0
        chunk.append(rec)
        acc += sz
    if chunk:
        yield chunk


def merged_size_records(runs: PySequence[List[RecordTuple]]) -> int:
    """Total input records across runs (diagnostics)."""
    return sum(len(r) for r in runs)
