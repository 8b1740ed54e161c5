"""Snapshot + journal under one directory, bound to a serving stack.

:class:`StackDurability` owns two files —

* ``snapshot.json`` — the last checkpoint, written atomically
  (:func:`~repro.durability.atomic.atomic_write_json`), so a crash during
  a checkpoint leaves the previous checkpoint intact;
* ``journal.log`` — the append-only request journal since that
  checkpoint —

and binds them to a live :class:`~repro.serving.stack.ServingStack`:

* every completed request is journaled (the request, not its effects);
* :meth:`~StackDurability.checkpoint` snapshots the stack's full logical
  state and truncates the journal — the snapshot *absorbs* it;
* :meth:`~StackDurability.recover` restores the snapshot and then
  **re-executes** the journaled requests through the (deterministic)
  stack, reproducing the pre-crash state bit for bit. Completions
  produced during replay are discarded — only their state effects matter.

The recovery invariant, proved by ``benchmarks/bench_perf_recovery.py``:
for any crash point, (recover → resume) yields the same completions,
ledgers, cache contents and stats as a run that never crashed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.durability.atomic import atomic_write_json
from repro.durability.journal import Journal
from repro.durability.snapshot import restore_stack_state, snapshot_stack_state

SNAPSHOT_NAME = "snapshot.json"
JOURNAL_NAME = "journal.log"


class StackDurability:
    """Journals a live serving stack's requests and checkpoints its state
    into one durable directory.

    Constructed by ``build_stack(durable_dir=...)``; drive it through the
    stack's own surface (``stack.checkpoint()``, ``stack.recover()``).

    ``checkpoint_every=N`` auto-checkpoints after every N journaled
    requests, bounding both the journal's size and recovery's replay work.
    """

    def __init__(
        self,
        stack: object,
        directory: str,
        *,
        checkpoint_every: Optional[int] = None,
        sync: bool = False,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None)")
        self.stack = stack
        self.sync = sync
        os.makedirs(directory, exist_ok=True)
        self.snapshot_path = os.path.join(directory, SNAPSHOT_NAME)
        self.journal = Journal(os.path.join(directory, JOURNAL_NAME), sync=sync)
        self.checkpoint_every = checkpoint_every
        self.replaying = False
        self._since_checkpoint = len(self.journal)

    # ------------------------------------------------------------ journaling

    def record_complete(self, prompt: str, model: Optional[str]) -> None:
        """Journal one acknowledged single completion."""
        if self.replaying:
            return
        self._append({"op": "complete", "prompt": prompt, "model": model})

    def record_complete_batch(
        self, shared_prefix: str, items: List[str], model: Optional[str]
    ) -> None:
        """Journal one acknowledged shared-prefix batch (a single record:
        the batch is one combined request and replays as one)."""
        if self.replaying:
            return
        self._append(
            {
                "op": "complete_batch",
                "prefix": shared_prefix,
                "items": list(items),
                "model": model,
            }
        )

    def _append(self, record: Dict[str, object]) -> None:
        # The journal's lock orders every append against every checkpoint:
        # a record lands either before a snapshot (and is absorbed by it)
        # or after (and stays in the new journal). It is never taken while
        # holding the cache lock; the snapshot takes that lock inside it.
        with self.journal.lock:
            self.journal.append(record)
            self._since_checkpoint += 1
            if (
                self.checkpoint_every is not None
                and self._since_checkpoint >= self.checkpoint_every
            ):
                self.checkpoint()

    # ------------------------------------------------------- checkpoint/recover

    def checkpoint(self) -> str:
        """Snapshot the stack's state; the journal is absorbed and cleared.
        Returns the snapshot path."""
        with self.journal.lock:
            # Order matters for crash safety: the rename publishes a
            # snapshot that already *includes* every journaled request's
            # effects, so truncating afterwards can never lose state — a
            # crash between the two steps merely replays requests the
            # snapshot already absorbed, which is idempotent because replay
            # rebuilds state from the snapshot, not on top of the live run.
            atomic_write_json(self.snapshot_path, snapshot_stack_state(self.stack), sync=self.sync)
            self.journal.clear()
            self._since_checkpoint = 0
        return self.snapshot_path

    def recover(self) -> int:
        """Restore the last checkpoint, then replay the journal.

        Replay re-executes each journaled request through the stack; the
        provider, cache and ledgers are deterministic, so the resulting
        state is bit-identical to the pre-crash state at the last
        acknowledged request. Returns the number of replayed records.
        Completions produced during replay are discarded, and replayed
        requests are not re-journaled.
        """
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                restore_stack_state(self.stack, json.load(handle))
        records = self.journal.records()
        self.replaying = True
        try:
            for record in records:
                if record.get("op") == "complete":
                    self.stack.complete(record["prompt"], model=record.get("model"))  # type: ignore[attr-defined]
                elif record.get("op") == "complete_batch":
                    self.stack.complete_batch(  # type: ignore[attr-defined]
                        record["prefix"], list(record["items"]), model=record.get("model")
                    )
                # Unknown ops are skipped: a newer writer's record must not
                # brick an older reader's recovery.
        finally:
            self.replaying = False
        self._since_checkpoint = len(records)
        return len(records)

    def close(self) -> None:
        self.journal.close()
