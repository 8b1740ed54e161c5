"""ANN knob auto-tuning (Section III-B2, refs [72, 73]).

"Recent works, which propose to tune the knobs used in approximate nearest
neighbor algorithms through learning-based methods, are a good starting
point." This module provides that starting point: given a validation query
sample and a recall target, it finds the smallest IVF ``nprobe`` /
HNSW ``ef_search`` that achieves the target — smallest, because the knob is
a pure recall/work trade-off and work scales with the knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.vectordb.index_flat import FlatIndex
from repro.vectordb.index_hnsw import HNSWIndex
from repro.vectordb.index_ivf import IVFIndex


@dataclass(frozen=True)
class TuningResult:
    """Chosen knob value and the recall measured at it."""

    knob: str
    value: int
    recall: float
    target: float
    evaluations: int  # knob settings tried

    @property
    def met_target(self) -> bool:
        return self.recall >= self.target


def measure_recall(
    index, reference: FlatIndex, queries: Sequence[np.ndarray], k: int = 10
) -> float:
    """Mean recall@k of ``index`` against the exact flat reference."""
    if not queries:
        raise ValueError("need at least one validation query")
    total = 0.0
    for query in queries:
        truth = {hit_id for hit_id, _s in reference.search(query, k)}
        got = {hit_id for hit_id, _s in index.search(query, k)}
        total += len(truth & got) / max(len(truth), 1)
    return total / len(queries)


def _binary_search_knob(
    set_knob, measure, lo: int, hi: int, target: float
) -> tuple:
    """Smallest knob in [lo, hi] whose recall >= target (monotone search).

    Returns (value, recall at value, evaluations). Falls back to ``hi``
    when even the maximum cannot reach the target."""
    evaluations = 0
    best_value: Optional[int] = None
    best_recall = 0.0
    while lo <= hi:
        mid = (lo + hi) // 2
        set_knob(mid)
        recall = measure()
        evaluations += 1
        if recall >= target:
            best_value, best_recall = mid, recall
            hi = mid - 1
        else:
            lo = mid + 1
    if best_value is None:
        # Target unreachable: report the strongest setting measured.
        return hi + 1 if hi >= 0 else 1, best_recall, evaluations
    return best_value, best_recall, evaluations


def tune_nprobe(
    index: IVFIndex,
    reference: FlatIndex,
    queries: Sequence[np.ndarray],
    target_recall: float = 0.95,
    k: int = 10,
) -> TuningResult:
    """Find the smallest ``nprobe`` meeting the recall target."""
    if not index.is_trained:
        index.train()
    original = index.nprobe

    def set_knob(value: int) -> None:
        index.nprobe = value

    value, recall, evaluations = _binary_search_knob(
        set_knob,
        lambda: measure_recall(index, reference, queries, k=k),
        lo=1,
        hi=index.nlist,
        target=target_recall,
    )
    index.nprobe = min(max(value, 1), index.nlist)
    # Re-measure at the final setting (the binary search may have fallen
    # back to the maximum without measuring it).
    final_recall = measure_recall(index, reference, queries, k=k)
    if final_recall < recall:
        final_recall = recall
    del original
    return TuningResult(
        knob="nprobe",
        value=index.nprobe,
        recall=final_recall,
        target=target_recall,
        evaluations=evaluations,
    )


def tune_ef_search(
    index: HNSWIndex,
    reference: FlatIndex,
    queries: Sequence[np.ndarray],
    target_recall: float = 0.95,
    k: int = 10,
    max_ef: int = 256,
) -> TuningResult:
    """Find the smallest ``ef_search`` meeting the recall target."""

    def set_knob(value: int) -> None:
        index.ef_search = value

    value, recall, evaluations = _binary_search_knob(
        set_knob,
        lambda: measure_recall(index, reference, queries, k=k),
        lo=max(k, 1),
        hi=max_ef,
        target=target_recall,
    )
    index.ef_search = min(max(value, k), max_ef)
    final_recall = measure_recall(index, reference, queries, k=k)
    if final_recall < recall:
        final_recall = recall
    return TuningResult(
        knob="ef_search",
        value=index.ef_search,
        recall=final_recall,
        target=target_recall,
        evaluations=evaluations,
    )
