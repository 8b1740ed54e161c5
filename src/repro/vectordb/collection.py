"""The collection layer: vectors + metadata + payloads + hybrid search.

Implements the attribute-filtering strategies the paper discusses in
Section III-B2:

* ``PRE`` — evaluate the attribute filter first, then do (exact) vector
  search restricted to the survivors. Best when the filter is selective.
* ``POST`` — vector-search a widened ``k' = k * overfetch`` candidate set
  first, then apply the filter. Best when the filter passes most items, but
  can return fewer than ``k`` hits (the "null result" pathology the paper
  describes when ``k`` is too small).
* ``ADAPTIVE`` — estimate filter selectivity on a metadata sample and pick
  the order, widening ``k'`` by the estimated pass rate.

Every search returns a :class:`SearchReport` carrying the hits plus
diagnostics (strategy used, candidates scanned, whether k was satisfied) so
the learned router in :mod:`repro.core.hybrid` has training signal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.durability.atomic import atomic_write_json
from repro.errors import CollectionError
from repro.vectordb.distance import Metric
from repro.vectordb.filters import MetadataFilter
from repro.vectordb.index_flat import FlatIndex
from repro.vectordb.index_hnsw import HNSWIndex
from repro.vectordb.index_ivf import IVFIndex

IndexType = Union[FlatIndex, IVFIndex, HNSWIndex]


class FilterStrategy(enum.Enum):
    PRE = "pre"
    POST = "post"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class SearchHit:
    """One result: id, similarity score, metadata and payload."""

    id: str
    score: float
    metadata: Mapping[str, object]
    payload: object = None


@dataclass
class SearchReport:
    """Hits plus execution diagnostics for one hybrid search."""

    hits: List[SearchHit]
    strategy: FilterStrategy
    candidates_scanned: int
    requested_k: int
    satisfied: bool
    estimated_selectivity: float = 1.0

    def __iter__(self):
        return iter(self.hits)

    def __len__(self) -> int:
        return len(self.hits)


def _build_index(index: str, dim: int, metric: Metric, **kwargs: object) -> IndexType:
    if index == "flat":
        return FlatIndex(dim=dim, metric=metric)
    if index == "ivf":
        return IVFIndex(dim=dim, metric=metric, **kwargs)  # type: ignore[arg-type]
    if index == "hnsw":
        return HNSWIndex(dim=dim, metric=metric, **kwargs)  # type: ignore[arg-type]
    raise ValueError(f"unknown index type {index!r} (expected flat/ivf/hnsw)")


class Collection:
    """A named set of vectors with attached metadata and payloads."""

    def __init__(
        self,
        dim: int,
        metric: Metric = Metric.COSINE,
        index: str = "flat",
        overfetch: float = 4.0,
        **index_kwargs: object,
    ) -> None:
        self.dim = dim
        self.metric = metric
        self.index_type = index
        self.overfetch = overfetch
        self._index = _build_index(index, dim, metric, **index_kwargs)
        self._metadata: Dict[str, Dict[str, object]] = {}
        self._payloads: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    # -- mutation ---------------------------------------------------------

    def add(
        self,
        item_id: str,
        vector: np.ndarray,
        metadata: Optional[Mapping[str, object]] = None,
        payload: object = None,
    ) -> None:
        """Index one item with optional metadata and payload."""
        self._index.add(item_id, vector)
        self._metadata[item_id] = dict(metadata or {})
        self._payloads[item_id] = payload

    def remove(self, item_id: str) -> None:
        """Delete an item (vector, metadata and payload)."""
        self._index.remove(item_id)
        self._metadata.pop(item_id, None)
        self._payloads.pop(item_id, None)

    def get_vector(self, item_id: str) -> np.ndarray:
        return self._index.get(item_id)

    def get_metadata(self, item_id: str) -> Dict[str, object]:
        """Copy of an item's metadata; raises on unknown ids."""
        if item_id not in self._metadata:
            raise CollectionError(f"unknown item id: {item_id!r}")
        return dict(self._metadata[item_id])

    def get_payload(self, item_id: str) -> object:
        """The item's payload; raises on unknown ids."""
        if item_id not in self._payloads:
            raise CollectionError(f"unknown item id: {item_id!r}")
        return self._payloads[item_id]

    def ids(self) -> List[str]:
        return [vid for vid, _vec in self._index.items()]

    # -- search -------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        where: Optional[Mapping[str, object]] = None,
        strategy: FilterStrategy = FilterStrategy.ADAPTIVE,
    ) -> SearchReport:
        """Hybrid top-k search; see module docstring for strategy semantics."""
        metadata_filter = MetadataFilter(where)
        if not metadata_filter:
            raw = self._index.search(query, k)
            hits = self._to_hits(raw)
            return SearchReport(
                hits=hits,
                strategy=strategy,
                candidates_scanned=len(self._index),
                requested_k=k,
                satisfied=len(hits) >= min(k, len(self._index)),
            )

        selectivity = metadata_filter.selectivity(list(self._metadata.values()))
        if strategy is FilterStrategy.ADAPTIVE:
            chosen = FilterStrategy.PRE if selectivity <= 0.25 else FilterStrategy.POST
        else:
            chosen = strategy

        if chosen is FilterStrategy.PRE:
            allowed = [vid for vid, meta in self._metadata.items() if metadata_filter.matches(meta)]
            raw = self._index.search(query, k, allowed_ids=allowed)
            hits = self._to_hits(raw)
            return SearchReport(
                hits=hits,
                strategy=FilterStrategy.PRE,
                candidates_scanned=len(allowed),
                requested_k=k,
                satisfied=len(hits) >= min(k, len(allowed)),
                estimated_selectivity=selectivity,
            )

        # POST: over-fetch, widened by estimated pass rate when adaptive.
        widen = self.overfetch
        if strategy is FilterStrategy.ADAPTIVE and selectivity > 0:
            widen = max(widen, 1.5 / selectivity)
        k_prime = min(len(self._index), max(k, int(np.ceil(k * widen))))
        raw = self._index.search(query, k_prime)
        filtered = [
            (vid, score) for vid, score in raw if metadata_filter.matches(self._metadata.get(vid))
        ]
        hits = self._to_hits(filtered[:k])
        total_matching = sum(
            1 for meta in self._metadata.values() if metadata_filter.matches(meta)
        )
        return SearchReport(
            hits=hits,
            strategy=FilterStrategy.POST,
            candidates_scanned=k_prime,
            requested_k=k,
            satisfied=len(hits) >= min(k, total_matching),
            estimated_selectivity=selectivity,
        )

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Serializable snapshot: config + items. Payloads must be
        JSON-serializable (or None) to round-trip through :meth:`save`."""
        items = []
        for item_id, vector in self._index.items():
            items.append(
                {
                    "id": item_id,
                    "vector": [float(v) for v in vector],
                    "metadata": self._metadata.get(item_id, {}),
                    "payload": self._payloads.get(item_id),
                }
            )
        return {
            "dim": self.dim,
            "metric": self.metric.value,
            "index": self.index_type,
            "overfetch": self.overfetch,
            "items": items,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Collection":
        """Rebuild a collection from a :meth:`to_dict` snapshot."""
        collection = cls(
            dim=int(data["dim"]),
            metric=Metric(data["metric"]),
            index=str(data["index"]),
            overfetch=float(data.get("overfetch", 4.0)),
        )
        for item in data["items"]:  # type: ignore[union-attr]
            collection.add(
                item["id"],
                np.asarray(item["vector"], dtype=np.float64),
                metadata=item.get("metadata") or {},
                payload=item.get("payload"),
            )
        return collection

    def save(self, path: str) -> None:
        """Write the collection to a JSON file, atomically.

        The payload lands in a temp file that is renamed over ``path``
        (see :mod:`repro.durability.atomic`), so a crash mid-write can
        never leave a torn half-JSON file — readers see the previous
        complete save or the new one, nothing in between.
        """
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "Collection":
        """Read a collection previously written by :meth:`save`."""
        import json

        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def _to_hits(self, raw: Sequence) -> List[SearchHit]:
        return [
            SearchHit(
                id=vid,
                score=score,
                metadata=dict(self._metadata.get(vid, {})),
                payload=self._payloads.get(vid),
            )
            for vid, score in raw
        ]
