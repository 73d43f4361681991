"""IamDB: the public key-value store API.

The paper implements LSA and IAM "in a persistent, crash-recovery and
MVCC-supported key-value storage library, called IamDB" (§6) that "is based
on LevelDB and works as either LSA or IAM with proper configuration".  This
package is that library: one DB wrapper (WAL + memtable + snapshots +
recovery) over any of the engines -- ``iam``, ``lsa``, ``leveldb``,
``rocksdb``, ``flsm``.

    >>> from repro.db import IamDB
    >>> db = IamDB.create("iam")
    >>> db.put(1, b"hello")
    >>> db.get(1)
    b'hello'
"""

from repro.db.batch import WriteBatch
from repro.db.iamdb import IamDB
from repro.db.snapshot import Snapshot

__all__ = ["IamDB", "Snapshot", "WriteBatch"]
