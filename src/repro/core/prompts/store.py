"""Historical prompt store over the vector database (Section III-A).

Prompts are embedded and stored in a :class:`repro.vectordb.Collection`
along with outcome metadata (did the downstream task succeed, at what
cost). Retrieval supports the two modes the paper contrasts:

* plain similarity search ("the common practice"), and
* **performance-aware** search — the paper's envisioned "index that caters
  to the optimal prompt": candidates are re-ranked by a blend of similarity
  and historical success rate, so a slightly-less-similar prompt that has
  worked reliably beats a near-duplicate that has not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.llm.embeddings import EmbeddingModel
from repro.vectordb import Collection, Metric


@dataclass
class PromptRecord:
    """One stored historical prompt with outcome statistics."""

    prompt_id: str
    text: str
    task: str
    successes: int = 0
    failures: int = 0

    @property
    def trials(self) -> int:
        return self.successes + self.failures

    @property
    def success_rate(self) -> float:
        """Laplace-smoothed success rate (prior 0.5 with 2 pseudo-trials)."""
        return (self.successes + 1) / (self.trials + 2)


class PromptStore:
    """Vector-indexed store of historical prompts with outcome feedback."""

    def __init__(self, embedding_dim: int = 64, index: str = "flat") -> None:
        self.embedder = EmbeddingModel(dim=embedding_dim)
        self.collection = Collection(dim=embedding_dim, metric=Metric.COSINE, index=index)
        self.records: dict = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self.records)

    def add(self, text: str, task: str = "generic") -> PromptRecord:
        """Store a prompt; returns its record (idempotent on same text+task)."""
        for record in self.records.values():
            if record.text == text and record.task == task:
                return record
        prompt_id = f"p{self._counter}"
        self._counter += 1
        record = PromptRecord(prompt_id=prompt_id, text=text, task=task)
        self.records[prompt_id] = record
        self.collection.add(
            prompt_id,
            self.embedder.embed(text),
            metadata={"task": task},
            payload=record,
        )
        return record

    def record_outcome(self, prompt_id: str, success: bool) -> None:
        """Feed back whether the prompt led to a correct downstream result."""
        record = self.records[prompt_id]
        if success:
            record.successes += 1
        else:
            record.failures += 1

    def remove(self, prompt_id: str) -> None:
        self.collection.remove(prompt_id)
        del self.records[prompt_id]

    # ------------------------------------------------------------ retrieval

    def search_similar(
        self, query: str, k: int = 5, task: Optional[str] = None
    ) -> List[PromptRecord]:
        """Plain vector-similarity retrieval (the baseline)."""
        where = {"task": task} if task else None
        report = self.collection.search(self.embedder.embed(query), k=k, where=where)
        return [hit.payload for hit in report.hits]

    def compose_examples(
        self,
        query: str,
        k: int = 4,
        task: Optional[str] = None,
        performance_weight: float = 0.5,
    ) -> List[tuple]:
        """Build a few-shot example list for a new query from history.

        This is the paper's "select appropriate historical prompts and use
        them to generate new prompts automatically": stored records whose
        text is a ``Question: ... Answer: ...`` pair are retrieved
        performance-aware and parsed back into (question, answer) tuples
        ready for :func:`repro.core.prompts.templates.qa_prompt`.
        """
        import re as _re

        pair_re = _re.compile(r"(?is)^question:\s*(.+?)\s*answer:\s*(.+?)\s*$")
        records = self.search_performance_aware(
            query, k=k, task=task, performance_weight=performance_weight
        )
        examples = []
        for record in records:
            m = pair_re.match(record.text.strip())
            if m:
                examples.append((m.group(1).strip(), m.group(2).strip()))
        return examples

    @staticmethod
    def example_text(question: str, answer: str) -> str:
        """Canonical stored-record text for a QA example pair."""
        return f"Question: {question} Answer: {answer}"

    def search_performance_aware(
        self,
        query: str,
        k: int = 5,
        task: Optional[str] = None,
        performance_weight: float = 0.5,
        candidate_multiplier: int = 4,
    ) -> List[PromptRecord]:
        """Similarity-retrieve a wide candidate set, then re-rank by
        ``(1-w) * similarity + w * success_rate`` — the learned-index-for-
        optimal-prompt idea, reduced to an explicit re-ranker."""
        where = {"task": task} if task else None
        report = self.collection.search(
            self.embedder.embed(query), k=k * candidate_multiplier, where=where
        )
        scored = []
        for hit in report.hits:
            record: PromptRecord = hit.payload
            score = (1 - performance_weight) * hit.score + performance_weight * record.success_rate
            scored.append((score, record))
        scored.sort(key=lambda t: -t[0])
        return [record for _score, record in scored[:k]]
