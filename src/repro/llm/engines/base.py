"""Engine protocol and shared prompt-parsing helpers."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro._util import stable_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.llm.knowledge import KnowledgeBase


@dataclass
class TaskContext:
    """Everything an engine may consult besides the prompt text."""

    knowledge: "KnowledgeBase"
    model_name: str


@dataclass
class EngineResult:
    """What an engine derived from one prompt.

    ``answer`` is the engine's genuinely-derived correct output. The client
    may replace it with one of ``wrong_answers`` (or numeric noise when
    ``numeric`` is set) according to the capability model.
    """

    answer: str
    difficulty: float
    wrong_answers: List[str] = field(default_factory=list)
    engine: str = "generic"
    numeric: bool = False
    n_examples: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)


class Engine:
    """Base class: subclasses implement :meth:`try_solve`."""

    name = "generic"

    def try_solve(self, prompt: str, context: TaskContext) -> Optional[EngineResult]:
        """Return a result if this engine recognizes the prompt, else None."""
        raise NotImplementedError


def difficulty_jitter(prompt: str, spread: float = 0.08) -> float:
    """Deterministic per-prompt difficulty jitter in [-spread, +spread]."""
    h = stable_hash("difficulty:" + prompt)
    return (h % 10_000) / 10_000.0 * 2 * spread - spread


_EXAMPLE_RE = re.compile(r"(?im)^\s*(?:example\b|Q\s*\d*\s*:|###\s*example)")

_QA_EXAMPLE_PAIR_RE = re.compile(
    r"(?im)^\s*example\s*\d*\s*:\s*question:\s*(.+?)\s*answer:\s*(.+?)\s*$"
)


def count_examples(prompt: str) -> int:
    """Count few-shot example markers in a prompt (for the ICL bonus)."""
    return len(_EXAMPLE_RE.findall(prompt))


def parse_qa_example_pairs(prompt: str) -> List[tuple]:
    """Extract (question, answer) pairs from qa_prompt-style example lines."""
    return [(m.group(1).strip(), m.group(2).strip()) for m in _QA_EXAMPLE_PAIR_RE.finditer(prompt)]


def last_line_question(prompt: str) -> str:
    """The final non-empty line of a prompt — where the actual query lives
    in the few-shot templates used throughout the library."""
    lines = [ln.strip() for ln in prompt.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


class GenericEngine(Engine):
    """Fallback when no specialized engine matches: a bland completion.

    Kept honest: it never pretends to know task-specific answers; its output
    is a deterministic acknowledgment, and its difficulty is high so weak
    models frequently return the alternative (a refusal)."""

    name = "generic"

    def try_solve(self, prompt: str, context: TaskContext) -> Optional[EngineResult]:
        head = " ".join(prompt.split()[:12])
        answer = f"Acknowledged: {head}"
        return EngineResult(
            answer=answer,
            difficulty=0.5 + difficulty_jitter(prompt, 0.05),
            wrong_answers=["I am not able to help with that request."],
            engine=self.name,
        )


def default_engines() -> List[Engine]:
    """The standard engine chain, most-specific first."""
    # Imported here to avoid circular imports at module load.
    from repro.llm.engines.classify import ColumnTypeEngine, LabelInferEngine
    from repro.llm.engines.codegen import CodegenEngine
    from repro.llm.engines.generate import SQLGenEngine
    from repro.llm.engines.match import EntityMatchEngine, SchemaMatchEngine
    from repro.llm.engines.nl2sql import NL2SQLEngine
    from repro.llm.engines.patterns import PatternMineEngine
    from repro.llm.engines.qa import QAEngine
    from repro.llm.engines.regress import ValuePredictEngine
    from repro.llm.engines.semantic_ops import FieldExtractEngine, SemanticPredicateEngine
    from repro.llm.engines.summarize import SummarizeEngine
    from repro.llm.engines.transform import TableExtractEngine

    return [
        NL2SQLEngine(),
        SQLGenEngine(),
        EntityMatchEngine(),
        SchemaMatchEngine(),
        ColumnTypeEngine(),
        LabelInferEngine(),
        SemanticPredicateEngine(),
        FieldExtractEngine(),
        ValuePredictEngine(),
        TableExtractEngine(),
        PatternMineEngine(),
        CodegenEngine(),
        SummarizeEngine(),
        QAEngine(),
        GenericEngine(),
    ]
