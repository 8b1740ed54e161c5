"""repro.durability — snapshot + write-ahead-journal persistence.

Everything stateful in the serving tier — the
:class:`~repro.core.cache.SemanticCache`, the
:class:`~repro.llm.client.UsageMeter` and budget ledgers, the
:class:`~repro.serving.stats.ServiceStats` counters — lives in memory; a
process restart loses all of it. This package makes that state *durable
data* (the paper's data-management framing applied to the serving layer
itself): a versioned JSON snapshot plus an append-only request journal,
with a recovery procedure that is **bit-identical replay**.

The design leans on the library's determinism contract instead of logging
physical state deltas:

* A **snapshot** (``snapshot.json``, written atomically) captures the full
  logical state of the stack's stateful components at a checkpoint. Each
  component serializes itself (``state_dict()`` / ``load_state()``), and
  the snapshot walks the components ``build_stack`` registered on the
  stack. Embeddings are *not* stored — they are pure functions of the
  cached text and are re-derived on restore.
* The **journal** (``journal.log``) appends one record per completed
  request — just the request itself (prompt, model), not its effects.
  Because every component downstream of a request is deterministic,
  *re-executing* the journaled requests against the restored snapshot
  reproduces the exact pre-crash state: same cache entries and clock, same
  ledgers, same stats, bit for bit.
* A request that crashed mid-flight was never journaled, so its partial
  effects (a cache-probe clock tick, say) are simply discarded by
  recovery; the caller re-issues it and gets the exact completion the
  uncrashed run would have produced.

:class:`StackDurability` wires the two into a
:class:`~repro.serving.stack.ServingStack` (see
``build_stack(durable_dir=...)``), and
:class:`~repro.apps.runner.CheckpointedRunner` builds a resumable batch
pipeline on the same journal machinery.
"""

from repro.durability.atomic import atomic_write_json, atomic_write_text
from repro.durability.journal import Journal
from repro.durability.snapshot import (
    SNAPSHOT_SCHEMA,
    comparable_state,
    restore_stack_state,
    snapshot_stack_state,
)
from repro.durability.store import StackDurability

__all__ = [
    "Journal",
    "SNAPSHOT_SCHEMA",
    "StackDurability",
    "atomic_write_json",
    "atomic_write_text",
    "comparable_state",
    "restore_stack_state",
    "snapshot_stack_state",
]
