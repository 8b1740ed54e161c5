"""The append-only write-ahead journal: one JSON record per line.

Records carry a monotonically increasing ``seq`` so replay can detect
gaps, and the reader tolerates a *torn tail*: a crash mid-append leaves at
most one partial final line, which is discarded (the request it described
was never acknowledged, so dropping it is exactly the right recovery).

Appends are flushed to the OS on every record; ``sync=True`` additionally
fsyncs each append (real-crash durability at a real latency price — the
simulated crash tests don't kill the process, so the default is the cheap
flush).

Appends and truncation are serialised by :attr:`Journal.lock`, so
concurrent writers get unique, contiguous sequence numbers.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional


class Journal:
    """An append-only log of JSON records with sequence numbers."""

    def __init__(self, path: str, *, sync: bool = False) -> None:
        self.path = path
        self.sync = sync
        self._handle = None
        # Reentrant: StackDurability holds it across an append and the
        # checkpoint that append triggers, which clears the journal.
        self.lock = threading.RLock()
        # Resume the sequence from whatever already survives on disk.
        self._next_seq = len(self.records())

    # --------------------------------------------------------------- writing

    def _ensure_open(self):
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path)) or "."
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, record: Dict[str, object]) -> int:
        """Append one record; returns its sequence number."""
        with self.lock:
            seq = self._next_seq
            payload = dict(record)
            payload["seq"] = seq
            handle = self._ensure_open()
            handle.write(json.dumps(payload) + "\n")
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
            self._next_seq = seq + 1
            return seq

    def clear(self) -> None:
        """Truncate the journal (after a checkpoint has absorbed it)."""
        with self.lock:
            self.close()
            if os.path.exists(self.path):
                os.unlink(self.path)
            self._next_seq = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # --------------------------------------------------------------- reading

    def __len__(self) -> int:
        return self._next_seq

    def records(self) -> List[Dict[str, object]]:
        """All intact records, in append order; a torn tail is dropped.

        A torn line can only be the *last* one (appends are sequential), so
        the first undecodable line ends the replay; anything after it would
        be unreachable garbage and raising would make recovery impossible,
        which is the one thing a journal must never do.
        """
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, object]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except json.JSONDecodeError:
                    break  # torn tail from a crash mid-append
                if not isinstance(record, dict):
                    break
                out.append(record)
        return out

    def last_seq(self) -> Optional[int]:
        """Sequence number of the newest intact record (None when empty)."""
        return self._next_seq - 1 if self._next_seq > 0 else None
