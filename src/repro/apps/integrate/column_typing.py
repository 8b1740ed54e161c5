"""Column type annotation with LLMs (Section II-C1).

Implements the paper's exact prompt protocol: candidate types, numbered
example columns, then the query column ending in "this column type is __".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.prompts.templates import column_type_prompt
from repro.datasets.columns import ColumnExample
from repro.serving import CompletionProvider


@dataclass(frozen=True)
class AnnotationOutcome:
    """Predicted type for one column."""

    values: Tuple[str, ...]
    predicted: str
    gold: Optional[str] = None

    @property
    def correct(self) -> Optional[bool]:
        if self.gold is None:
            return None
        return self.predicted == self.gold


class ColumnTypeAnnotator:
    """Few-shot column type annotation through the LLM."""

    def __init__(
        self,
        client: CompletionProvider,
        candidate_types: Sequence[str],
        examples: Sequence[Tuple[Sequence[str], str]] = (),
        model: Optional[str] = None,
    ) -> None:
        if not candidate_types:
            raise ValueError("need at least one candidate type")
        self.client = client
        self.candidate_types = list(candidate_types)
        self.examples = list(examples)
        self.model = model

    def annotate(self, values: Sequence[str]) -> str:
        """Predict the semantic type of one value column."""
        prompt = column_type_prompt(self.candidate_types, self.examples, values)
        completion = self.client.complete(prompt, model=self.model)
        return completion.text.strip().lower()

    def evaluate(self, corpus: Sequence[ColumnExample]) -> Dict[str, float]:
        """Accuracy over a labeled corpus, plus per-type accuracy."""
        if not corpus:
            raise ValueError("corpus must not be empty")
        outcomes = [
            AnnotationOutcome(
                values=tuple(ex.values), predicted=self.annotate(ex.values), gold=ex.column_type
            )
            for ex in corpus
        ]
        accuracy = sum(1 for o in outcomes if o.correct) / len(outcomes)
        per_type: Dict[str, float] = {}
        for column_type in sorted({ex.column_type for ex in corpus}):
            subset = [o for o in outcomes if o.gold == column_type]
            per_type[column_type] = sum(1 for o in subset if o.correct) / len(subset)
        return {"accuracy": accuracy, **{f"accuracy[{t}]": a for t, a in per_type.items()}}
