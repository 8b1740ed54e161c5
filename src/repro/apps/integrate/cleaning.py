"""Data cleaning with LLMs (Section II-C1).

Error *detection* is pattern-driven: the cleaner mines per-column patterns
from the (assumed mostly-clean) data and flags nonconforming cells — the
Section II-B3 connection the paper draws between mined patterns and data
quality. Missing-value *repair* routes through the few-shot label-inference
LLM path; format errors are repaired by the verified column-transform
synthesizer when one maps the bad value onto the column's pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.prompts.templates import label_infer_prompt
from repro.serving import CompletionProvider
from repro.llm.engines.patterns import mine_pattern, pattern_matches, tokenize_value


def _shape_signature(value: str) -> tuple:
    """Token-class shape of a value: ('letter', 'literal:-', 'digit', ...)."""
    out = []
    for token in tokenize_value(value):
        if token.isalpha():
            out.append("letter")
        elif token.isdigit():
            out.append("digit")
        else:
            out.append(f"lit:{token}")
    return tuple(out)


@dataclass(frozen=True)
class CellError:
    """One flagged cell."""

    row: int
    column: str
    value: Optional[str]
    kind: str  # 'missing' | 'pattern_violation'


@dataclass
class CleaningReport:
    """Errors found and repairs applied."""

    errors: List[CellError]
    repairs: Dict[Tuple[int, str], str]

    @property
    def repair_rate(self) -> float:
        if not self.errors:
            return 1.0
        return len(self.repairs) / len(self.errors)


class DataCleaner:
    """Pattern-based detection + LLM-assisted repair over row dicts."""

    def __init__(self, client: CompletionProvider, model: Optional[str] = None, min_support: int = 3) -> None:
        self.client = client
        self.model = model
        self.min_support = min_support

    # ------------------------------------------------------------ detection

    def detect(self, rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> List[CellError]:
        """Flag missing cells and pattern-violating values per column."""
        errors: List[CellError] = []
        patterns = self._column_patterns(rows, columns)
        for index, row in enumerate(rows):
            for column in columns:
                value = row.get(column)
                if value in (None, "", "?"):
                    errors.append(CellError(row=index, column=column, value=None, kind="missing"))
                    continue
                pattern = patterns.get(column)
                if pattern is not None and not pattern_matches(pattern, str(value)):
                    errors.append(
                        CellError(row=index, column=column, value=str(value), kind="pattern_violation")
                    )
        return errors

    def _column_patterns(
        self, rows: Sequence[Dict[str, object]], columns: Sequence[str]
    ) -> Dict[str, Optional[str]]:
        """Mine the majority pattern per column (None = too diverse)."""
        patterns: Dict[str, Optional[str]] = {}
        for column in columns:
            values = [str(r[column]) for r in rows if r.get(column) not in (None, "", "?")]
            if len(values) < self.min_support:
                patterns[column] = None
                continue
            # Majority-shape mining: group values by token-class shape, mine
            # the tight pattern of the dominant group, accept with >= 70%
            # support. Minority shapes are the pattern violations.
            groups: Dict[tuple, List[str]] = {}
            for value in values:
                groups.setdefault(_shape_signature(value), []).append(value)
            dominant = max(groups.values(), key=len)
            if len(dominant) >= 0.7 * len(values):
                patterns[column] = mine_pattern(dominant)
            else:
                patterns[column] = None
        return patterns

    # -------------------------------------------------------------- repairs

    def repair(
        self, rows: Sequence[Dict[str, object]], columns: Sequence[str]
    ) -> CleaningReport:
        """Detect and repair; returns the report (rows are not mutated)."""
        errors = self.detect(rows, columns)
        patterns = self._column_patterns(rows, columns)
        repairs: Dict[Tuple[int, str], str] = {}
        for error in errors:
            if error.kind == "missing":
                repaired = self._repair_missing(rows, columns, error)
            else:
                repaired = self._repair_format(rows, error, patterns.get(error.column))
            if repaired is not None:
                repairs[(error.row, error.column)] = repaired
        return CleaningReport(errors=errors, repairs=repairs)

    def apply(self, rows: List[Dict[str, object]], report: CleaningReport) -> List[Dict[str, object]]:
        """Return repaired copies of the rows."""
        out = [dict(r) for r in rows]
        for (row, column), value in report.repairs.items():
            out[row][column] = value
        return out

    def _repair_missing(
        self,
        rows: Sequence[Dict[str, object]],
        columns: Sequence[str],
        error: CellError,
    ) -> Optional[str]:
        """Few-shot infer the missing value from complete rows."""
        def serialize(row: Dict[str, object]) -> str:
            return "; ".join(
                f"{c}: {'?' if row.get(c) in (None, '', '?') else row.get(c)}" for c in columns
            )

        complete = [
            r for r in rows if all(r.get(c) not in (None, "", "?") for c in columns)
        ][:8]
        if not complete:
            return None
        prompt = label_infer_prompt(
            error.column, [serialize(r) for r in complete], serialize(rows[error.row])
        )
        completion = self.client.complete(prompt, model=self.model)
        return completion.text

    def _repair_format(
        self,
        rows: Sequence[Dict[str, object]],
        error: CellError,
        pattern: Optional[str],
    ) -> Optional[str]:
        """Reformat a deviant value onto the column's pattern when a
        verified transform exists."""
        if error.value is None or pattern is None:
            return None
        conforming = [
            str(r[error.column])
            for r in rows
            if r.get(error.column) not in (None, "", "?")
            and pattern_matches(pattern, str(r[error.column]))
        ]
        if not conforming:
            return None
        # Find a transform whose output shape matches the column pattern by
        # testing it on the bad value directly.
        from repro.apps.transform.columns import _candidates  # shared library

        for transform in _candidates():
            try:
                candidate = transform.apply_fn(error.value)
            except (TypeError, ValueError):
                continue
            if candidate is not None and pattern_matches(pattern, candidate):
                return candidate
        return None
