"""The seekable DB iterator: snapshot-consistent visibility over a scan plan.

Reads merge the memtable, the immutable memtable and one stream per
independently-seeking on-disk component (§5.2: "a scan checks memtable,
immutable memtable and all sequences in a node in every on-disk level and
merges them").  Every stream yields records in (key asc, seq desc) order;
the iterator collapses them to the newest visible version per key, elides
tombstones, and stops at ``hi_key``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.common.records import DELETE, KEY, KIND, Key, SEQ, VALUE
from repro.table.scan import _RawMerge

_SENTINEL = object()


class DbIterator:
    """Seekable ordered iterator over ``(key, value)`` pairs.

    ``streams`` are the read's pull states (memtable lists, then the
    engine's scan plan), built by :meth:`repro.db.iamdb.IamDB.iterate`, so
    the view is fixed at creation time (plus the given snapshot).  Records
    are pulled one at a time, charging I/O with read-ahead as they are
    consumed.  :meth:`seek` repositions the pull states (one bisect per
    stream) instead of rebuilding the plan; consumed blocks are re-touched
    on the way back through, which the page cache absorbs.
    """

    def __init__(self, streams: List[Any], lo_key: Optional[Key],
                 hi_key: Optional[Key], snapshot: Optional[int]) -> None:
        self._lo_key = lo_key
        self._hi_key = hi_key
        self._snapshot = snapshot
        self._served: object = _SENTINEL
        for stream in streams:
            stream.pin()
        self._streams = streams
        #: The merge over ``streams``; built on the first pull after
        #: creation or a seek, so its first charges land on that pull.
        self._merge: Optional[_RawMerge] = None

    def __iter__(self) -> "DbIterator":
        return self

    def __next__(self) -> Tuple[Key, object]:
        merge = self._merge
        if merge is None:
            merge = self._merge = _RawMerge(self._streams)
        hi_key = self._hi_key
        snapshot = self._snapshot
        while True:
            rec = merge.pull()
            if rec is None:
                raise StopIteration
            key = rec[KEY]
            if hi_key is not None and key >= hi_key:
                raise StopIteration
            served = self._served
            if key is served or key == served:
                continue
            if snapshot is not None and rec[SEQ] > snapshot:
                continue
            self._served = key
            if rec[KIND] == DELETE:
                continue
            return (key, rec[VALUE])

    def seek(self, key: Key) -> None:
        """Reposition at the first visible pair with key >= ``key``.

        The target is clamped into the iterator's ``[lo_key, hi_key)``
        bounds; seeking backwards is allowed.
        """
        target = key
        if self._lo_key is not None and target < self._lo_key:
            target = self._lo_key
        self._served = _SENTINEL
        for stream in self._streams:
            stream.reseek(target)
        self._merge = None
