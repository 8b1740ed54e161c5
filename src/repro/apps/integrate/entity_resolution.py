"""Entity resolution with LLMs (Section II-C1).

The paper's canonical prompt — "Are the following entity descriptions the
same real-world entity?" — with optional few-shot examples, plus the
classical string-similarity baseline the LLM approach is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.prompts.templates import entity_match_prompt
from repro.datasets.entities import ERPair
from repro.serving import CompletionProvider
from repro.llm.engines.match import record_similarity


@dataclass(frozen=True)
class ERMetrics:
    """Accuracy / precision / recall / F1 for a pair workload."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    n: int


def _metrics(predictions: Sequence[bool], labels: Sequence[bool]) -> ERMetrics:
    tp = sum(1 for p, l in zip(predictions, labels) if p and l)
    fp = sum(1 for p, l in zip(predictions, labels) if p and not l)
    fn = sum(1 for p, l in zip(predictions, labels) if not p and l)
    tn = sum(1 for p, l in zip(predictions, labels) if not p and not l)
    n = len(labels)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return ERMetrics(
        accuracy=(tp + tn) / n if n else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
        n=n,
    )


class EntityResolver:
    """Prompt-based entity matching with optional few-shot examples."""

    def __init__(
        self,
        client: CompletionProvider,
        examples: Sequence[Tuple[str, str, bool]] = (),
        model: Optional[str] = None,
    ) -> None:
        self.client = client
        self.examples = list(examples)
        self.model = model

    def resolve(self, a: str, b: str) -> bool:
        """Is (a, b) the same real-world entity, per the LLM?"""
        prompt = entity_match_prompt(a, b, self.examples)
        completion = self.client.complete(prompt, model=self.model)
        return completion.text.strip().lower().startswith("yes")

    def evaluate(self, pairs: Sequence[ERPair]) -> ERMetrics:
        predictions = [self.resolve(p.a, p.b) for p in pairs]
        return _metrics(predictions, [p.label for p in pairs])

    def evaluate_by_hardness(self, pairs: Sequence[ERPair]) -> Dict[str, ERMetrics]:
        """Stratify metrics by the generator's hardness tag."""
        out: Dict[str, ERMetrics] = {}
        for hardness in sorted({p.hardness for p in pairs}):
            subset = [p for p in pairs if p.hardness == hardness]
            predictions = [self.resolve(p.a, p.b) for p in subset]
            out[hardness] = _metrics(predictions, [p.label for p in subset])
        return out


def similarity_baseline(pairs: Sequence[ERPair], threshold: float = 0.52) -> ERMetrics:
    """Classical baseline: threshold on normalized string similarity."""
    predictions = [record_similarity(p.a, p.b) >= threshold for p in pairs]
    return _metrics(predictions, [p.label for p in pairs])
