"""Manifest: durable metadata of the tree structure.

LevelDB persists version edits to a MANIFEST file; LSA additionally relies on
cheap metadata-only "move down" operations (§4.2.1), which are manifest edits
rather than data rewrites.  The simulated manifest stores an opaque
checkpoint object (the engine's serialized structure) plus an edit counter.

Checkpoints are not charged: :meth:`Manifest.checkpoint` stores the state
without touching the disk, and the callers that bump :attr:`Manifest.edits`
(flush completion, rebalance, failover, follower bootstrap) only count.
:meth:`Manifest.log_edit` would charge a flat :data:`EDIT_BYTES` sequential
write per edit, but nothing in the write path calls it, so manifest traffic
adds nothing to the simulated clock, write amplification or space.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.storage.runtime import Runtime

#: Charged bytes per manifest edit (a version-edit record is tiny).
EDIT_BYTES = 64


class Manifest:
    """Durable structure metadata for one DB instance."""

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self._file = runtime.create_file()
        self._checkpoint: Optional[Any] = None
        self.edits = 0
        #: Optional durable mirror (an ``ObjStoreTier``): when set, every
        #: checkpoint is also appended to the shared manifest log.  Duck
        #: typed -- anything with ``on_checkpoint(state)`` -- so the
        #: storage layer stays import-free of :mod:`repro.objstore`.
        self.mirror: Optional[Any] = None

    def log_edit(self) -> float:
        """Charge one metadata edit; returns the foreground latency."""
        self.edits += 1
        self._file.grow(EDIT_BYTES)
        return self.runtime.disk.fg_stream(nbytes_write=EDIT_BYTES)

    def checkpoint(self, state: Any) -> None:
        """Store the engine's durable structure snapshot.

        ``state`` must be an *owned* snapshot -- pure data, no references to
        live engine structure.  The manifest stores it verbatim; if a caller
        hands over live objects, post-checkpoint mutations would leak into
        what :meth:`restore` returns and recovery would see a future it
        should not know about.  Engines honour this by returning pure-data
        snapshots from ``checkpoint_state()`` (tuples of block metadata, not
        node/table objects); ``tests/test_wal_manifest.py`` pins it down.

        With a :attr:`mirror` attached the same owned state is appended to
        the shared manifest log (sharing the reference is safe for the
        same reason storing it verbatim is).
        """
        self._checkpoint = state
        if self.mirror is not None:
            self.mirror.on_checkpoint(state)

    def restore(self) -> Optional[Any]:
        """The last checkpointed structure (None before the first one)."""
        return self._checkpoint

    @property
    def nbytes(self) -> int:
        return self._file.nbytes

    @property
    def file_id(self) -> int:
        return self._file.file_id
