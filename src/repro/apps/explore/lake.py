"""Multi-modal data lake management (Section II-D1, III-B2).

Items of every modality are embedded into one joint space (the LLM's
embedding of their text surrogate), stored in the vector database with
attribute metadata, and queried through the hybrid planner — vector
similarity plus attribute filters, with granularity control for table
items (whole table vs per-row embeddings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.hybrid import HybridPlanner, PlanDecision
from repro.datasets.lake import LakeItem
from repro.serving import CompletionProvider
from repro.vectordb import Collection, Metric, SearchReport


@dataclass(frozen=True)
class LakeQueryResult:
    """Hits plus the plan the hybrid planner chose."""

    items: Tuple[LakeItem, ...]
    report: SearchReport
    decision: PlanDecision


class MultiModalLake:
    """A queryable multi-modal data lake over the vector database."""

    def __init__(
        self,
        client: CompletionProvider,
        embedding_dim: int = 64,
        index: str = "flat",
    ) -> None:
        self.client = client
        self.collection = Collection(dim=embedding_dim, metric=Metric.COSINE, index=index)
        self.planner = HybridPlanner(self.collection)
        self._items: Dict[str, LakeItem] = {}

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------ loading

    def add_item(self, item: LakeItem) -> None:
        """Embed and index one item (metadata carries modality + entity)."""
        vector = self.client.embed(item.embedding_text)
        metadata = {"modality": item.modality, **item.metadata}
        self.collection.add(item.item_id, vector, metadata=metadata, payload=item)
        self._items[item.item_id] = item

    def add_items(self, items: Sequence[LakeItem]) -> None:
        for item in items:
            self.add_item(item)

    def add_table_rows(
        self,
        table_name: str,
        header: Sequence[str],
        rows: Sequence[Sequence[object]],
        granularity: str = "row",
    ) -> List[str]:
        """Index a relational table at the chosen embedding granularity.

        ``granularity='row'`` stores one vector per row (precise but many
        vectors); ``'table'`` one vector for the whole table (cheap but
        coarse) — the Section III-B2 granularity trade-off the ablation
        bench measures."""
        ids: List[str] = []
        if granularity == "table":
            content = "; ".join(
                f"{h}: {v}" for row in rows for h, v in zip(header, row)
            )
            item = LakeItem(
                item_id=f"table-{table_name}",
                modality="table",
                content=f"table {table_name}: {content}",
                metadata={"table": table_name, "granularity": "table"},
            )
            self.add_item(item)
            ids.append(item.item_id)
            return ids
        for i, row in enumerate(rows):
            content = "; ".join(f"{h}: {v}" for h, v in zip(header, row))
            item = LakeItem(
                item_id=f"table-{table_name}-r{i}",
                modality="table",
                content=content,
                metadata={"table": table_name, "granularity": "row"},
            )
            self.add_item(item)
            ids.append(item.item_id)
        return ids

    # ------------------------------------------------------------ querying

    def query(
        self,
        text: str,
        k: int = 5,
        where: Optional[Mapping[str, object]] = None,
    ) -> LakeQueryResult:
        """Natural-language query across all modalities.

        ``where`` carries attribute constraints (e.g. ``{"entity_type":
        "professor"}`` — the paper's Michael Jordan disambiguation)."""
        vector = self.client.embed(text)
        report, decision = self.planner.search(vector, k=k, where=where)
        items = tuple(hit.payload for hit in report.hits if hit.payload is not None)
        return LakeQueryResult(items=items, report=report, decision=decision)

    def query_by_modality(self, text: str, modality: str, k: int = 5) -> LakeQueryResult:
        return self.query(text, k=k, where={"modality": modality})
