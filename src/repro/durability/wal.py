"""The write-ahead log: a statement-granular logical redo log.

Durability through the language itself (the same initial-algebra idea the
dump module exploits): the WAL records the *source text* of every mutating
statement, so recovery is just re-execution.  Each executed statement
appends three records —

``begin(seq)``
    the statement was admitted for execution;
``stmt(seq, text)``
    its source text (the logical redo payload);
``commit(seq)``
    execution succeeded and the statement's effects are to survive a crash.

A statement whose ``commit`` record never reached the log (a crash
mid-execution, a rolled-back statement, an aborted atomic program) is
discarded by recovery — the begin/stmt records are simply dead weight in
the log until the next checkpoint truncates them.

On-disk format: each record is length-prefixed and CRC-checksummed::

    +----------------+----------------+------------------+
    | length (u32le) | crc32 (u32le)  | payload bytes    |
    +----------------+----------------+------------------+

The payload is a compact JSON object (``{"t": "b"|"s"|"c", "n": seq}``,
plus ``"x"`` — the statement text — on ``stmt`` records).  A torn tail
(half-written frame after a crash) fails the length or CRC check;
:func:`scan` reports the last good offset so the opener can truncate the
file back to a clean record boundary.

All file writes are accounted through :mod:`repro.storage.io`
(``PageManager.log_write`` / ``PageManager.fsync``) and through the
:mod:`repro.observe` spine: the ``wal.appends`` / ``wal.bytes`` /
``wal.fsyncs`` counters reach an armed statement sink and the process
registry (a running server), which also takes the ``wal.fsync_seconds``
latency histogram.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import observe
from repro.errors import SOSError
from repro.storage.io import GLOBAL_PAGES, PageManager
from repro.testing.faults import fault_point

_HEADER = struct.Struct("<II")
"""Frame header: payload length, CRC32 of the payload."""

MAX_RECORD_BYTES = 16 * 1024 * 1024
"""Upper bound on a single record; a larger claimed length is corruption."""

BEGIN = "b"
STMT = "s"
COMMIT = "c"


class WalError(SOSError):
    """The write-ahead log is unusable (corrupt beyond the torn tail)."""


@dataclass(slots=True)
class WalRecord:
    """One decoded WAL record.

    ``token`` rides on ``commit`` records only: the client-supplied
    idempotency token of the transaction the commit completed.  Recovery
    collects these into the commit-outcome journal so a client retrying a
    commit whose acknowledgement was lost — even across a server restart —
    observes the original outcome instead of re-applying.
    """

    type: str
    seq: int
    text: Optional[str] = None
    token: Optional[str] = None

    def encode(self) -> bytes:
        payload: dict = {"t": self.type, "n": self.seq}
        if self.text is not None:
            payload["x"] = self.text
        if self.token is not None:
            payload["k"] = self.token
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "WalRecord":
        doc = json.loads(payload.decode("utf-8"))
        return cls(doc["t"], doc["n"], doc.get("x"), doc.get("k"))


def scan(path: str) -> tuple[list[WalRecord], int]:
    """Read every complete record of the log at ``path``.

    Returns the decoded records and the offset of the first byte past the
    last *valid* record.  A short header, an over-long claimed length, a
    short payload or a CRC mismatch all end the scan — that is the torn
    tail a crash mid-append leaves behind, and the caller truncates the
    file back to the reported offset before appending again.
    """
    records: list[WalRecord] = []
    good = 0
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return records, 0
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if length > MAX_RECORD_BYTES or end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(WalRecord.decode(payload))
        except (ValueError, KeyError):
            break
        offset = end
        good = end
    return records, good


def committed_statements(records: list[WalRecord]) -> list[WalRecord]:
    """The ``stmt`` records whose sequence number has a ``commit`` record,
    in log order — exactly what recovery replays."""
    committed = {r.seq for r in records if r.type == COMMIT}
    return [r for r in records if r.type == STMT and r.seq in committed]


def committed_tokens(records: list[WalRecord]) -> list[str]:
    """The idempotency tokens carried by ``commit`` records, in log
    order — what recovery feeds back into the commit-outcome journal."""
    return [
        r.token for r in records if r.type == COMMIT and r.token is not None
    ]


class WriteAheadLog:
    """An append handle over one WAL file.

    Appends are flushed to the OS immediately (a process crash never loses
    an acknowledged flush); :meth:`sync` forces them to stable storage.
    The ``wal.append`` fault site fires *mid-frame* — after the first half
    of the record bytes has been flushed — so crash tests exercise genuine
    torn-tail repair, and ``wal.fsync`` fires before the ``fsync`` call.
    """

    def __init__(self, path: str, pages: Optional[PageManager] = None):
        self.path = path
        self.pages = pages if pages is not None else GLOBAL_PAGES
        _, good = scan(path)
        if os.path.exists(path) and os.path.getsize(path) > good:
            with open(path, "r+b") as f:
                f.truncate(good)
        self._f = open(path, "ab")

    # ------------------------------------------------------------------ write

    def append(self, record: WalRecord) -> None:
        payload = record.encode()
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        half = max(1, len(frame) // 2)
        self._f.write(frame[:half])
        self._f.flush()
        # Torn-write site: the first half of the frame is on the OS buffer,
        # the rest is not — recovery must truncate it away.
        fault_point("wal.append")
        self._f.write(frame[half:])
        self._f.flush()
        self.pages.log_write(len(frame))
        if observe.COUNTING:
            observe.count("wal.appends")
            observe.count("wal.bytes", len(frame))

    def sync(self) -> None:
        """Force appended records to stable storage (the commit fsync)."""
        fault_point("wal.fsync")
        start = time.perf_counter()
        os.fsync(self._f.fileno())
        elapsed = time.perf_counter() - start
        self.pages.fsync()
        if observe.COUNTING:
            observe.count("wal.fsyncs")
            observe.sample("wal.fsync_seconds", elapsed)

    # ------------------------------------------------------------------- read

    def records(self) -> Iterator[WalRecord]:
        self._f.flush()
        records, _ = scan(self.path)
        return iter(records)

    # -------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._f.closed

    def close(self, sync: bool = True) -> None:
        if self._f.closed:
            return
        self._f.flush()
        if sync:
            os.fsync(self._f.fileno())
            self.pages.fsync()
        self._f.close()

    def __repr__(self) -> str:
        return f"<WriteAheadLog {self.path!r}>"
