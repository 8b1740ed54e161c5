"""Table understanding (Section II-C2).

The paper's three enhancement paths, implemented:

1. **semantic serialization** — rows become natural-language sentences via
   the LLM (not bare ``col1 | col2`` linearization);
2. **SQL→NL statistical facts** — statistics-bearing SQL (AVG/COUNT/...)
   is executed and its result verbalized by the LLM, producing training
   sentences for downstream PLMs;
3. **large-table chunking** — token-budgeted row chunks plus representative
   tuple selection (greedy k-center over numeric columns) so big tables fit
   a PLM's input window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.prompts.templates import row_serialize_prompt, sql2nl_prompt
from repro.serving import CompletionProvider
from repro.llm.tokenizer import count_tokens
from repro.sqldb import Database
from repro.sqldb.catalog import Table


@dataclass(frozen=True)
class ChunkPlan:
    """Token-budgeted split of a table into row ranges."""

    ranges: Tuple[Tuple[int, int], ...]  # [start, end) row indexes
    tokens_per_chunk: Tuple[int, ...]

    @property
    def n_chunks(self) -> int:
        return len(self.ranges)


class TableUnderstanding:
    """LLM-assisted serialization, statistics facts and chunking."""

    def __init__(self, client: CompletionProvider, db: Database, model: Optional[str] = None) -> None:
        self.client = client
        self.db = db
        self.model = model

    # -------------------------------------------------- 1. serialization

    def serialize_rows(self, table_name: str, limit: int = 10) -> List[str]:
        """Rows → NL sentences (the PLM training inputs)."""
        table = self.db.table(table_name)
        sentences = []
        for row in table.rows[:limit]:
            record = dict(zip(table.schema.column_names, row))
            prompt = row_serialize_prompt(table_name, record)
            sentences.append(self.client.complete(prompt, model=self.model).text)
        return sentences

    # ------------------------------------------- 2. SQL→NL statistics

    def statistics_sentences(self, table_name: str) -> List[str]:
        """Execute statistics SQL and verbalize each result (the paper's
        AVG(SALARY) example). One sentence per numeric column aggregate
        plus a row count."""
        table = self.db.table(table_name)
        sql_list: List[str] = [f"SELECT COUNT(*) FROM {table_name}"]
        for column in table.schema.columns:
            if column.sql_type.value in ("INTEGER", "REAL") and not column.primary_key:
                sql_list.append(f"SELECT AVG({column.name}) FROM {table_name}")
                sql_list.append(f"SELECT MAX({column.name}) FROM {table_name}")
        sentences = []
        for sql in sql_list:
            result = self.db.query_scalar(sql)
            if isinstance(result, float):
                result = round(result, 2)
            prompt = sql2nl_prompt(sql, result)
            sentences.append(self.client.complete(prompt, model=self.model).text)
        return sentences

    # ----------------------------------------------------- 3. chunking

    def chunk_plan(self, table_name: str, max_tokens_per_chunk: int = 256) -> ChunkPlan:
        """Split a table into row ranges whose serialized size fits the
        PLM input budget."""
        table = self.db.table(table_name)
        header_tokens = count_tokens(" | ".join(table.schema.column_names))
        ranges: List[Tuple[int, int]] = []
        token_counts: List[int] = []
        start = 0
        current = header_tokens
        for i, row in enumerate(table.rows):
            row_tokens = count_tokens(" | ".join(str(v) for v in row))
            if current + row_tokens > max_tokens_per_chunk and i > start:
                ranges.append((start, i))
                token_counts.append(current)
                start = i
                current = header_tokens
            current += row_tokens
        if start < len(table.rows) or not ranges:
            ranges.append((start, len(table.rows)))
            token_counts.append(current)
        return ChunkPlan(ranges=tuple(ranges), tokens_per_chunk=tuple(token_counts))

    def representative_tuples(self, table_name: str, k: int = 5) -> List[Tuple[object, ...]]:
        """Greedy k-center selection of representative rows.

        Numeric columns are normalized; categorical columns contribute a
        0/1 disagreement distance. The first center is the row closest to
        the column-wise median (the 'most typical' tuple)."""
        table = self.db.table(table_name)
        rows = table.rows
        if not rows:
            return []
        k = min(k, len(rows))
        matrix, weights = self._row_matrix(table)

        def distance(i: int, j: int) -> float:
            return float(np.sum(weights * np.abs(matrix[i] - matrix[j])))

        median = np.median(matrix, axis=0)
        first = int(np.argmin(np.sum(weights * np.abs(matrix - median), axis=1)))
        centers = [first]
        while len(centers) < k:
            best_row, best_dist = None, -1.0
            for i in range(len(rows)):
                if i in centers:
                    continue
                nearest = min(distance(i, c) for c in centers)
                if nearest > best_dist:
                    best_row, best_dist = i, nearest
            assert best_row is not None
            centers.append(best_row)
        return [rows[i] for i in centers]

    def _row_matrix(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        """Encode rows numerically: scaled numerics, hashed categoricals."""
        columns = table.schema.columns
        encoded = np.zeros((len(table.rows), len(columns)))
        weights = np.ones(len(columns))
        for j, column in enumerate(columns):
            values = [row[j] for row in table.rows]
            numeric = [
                float(v) for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            if numeric and len(numeric) == len(values):
                lo, hi = min(numeric), max(numeric)
                span = (hi - lo) or 1.0
                encoded[:, j] = [(float(v) - lo) / span for v in values]
            else:
                # Categorical: enumerate distinct values; distance is 0/1
                # via index inequality, approximated by scaled index gap.
                mapping: Dict[object, int] = {}
                for v in values:
                    mapping.setdefault(v, len(mapping))
                encoded[:, j] = [mapping[v] for v in values]
                weights[j] = 1.0 / max(len(mapping) - 1, 1)
        return encoded, weights
