"""Prompt templates for every task family in the library.

These are the canonical prompt shapes the simulated LLM's engines route on;
applications build prompts exclusively through these helpers so that prompt
structure is consistent and centrally optimizable (the Section III-A point:
prompts in data management are domain-heavy and should be curated, not
ad-hoc).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PromptTemplate:
    """A named template with ``{field}`` placeholders.

    >>> t = PromptTemplate("qa", "Question: {question}")
    >>> t.render(question="Who?")
    'Question: Who?'
    """

    name: str
    text: str

    def render(self, **fields: object) -> str:
        return self.text.format(**fields)


def qa_prompt(
    question: str,
    examples: Optional[Sequence[Tuple[str, str]]] = None,
    context: Optional[Sequence[str]] = None,
) -> str:
    """Few-shot QA prompt; examples are (question, answer) pairs and
    ``context`` carries supporting passages (the HotpotQA prompt shape)."""
    lines = ["Answer the question with a single name or value."]
    for passage in context or []:
        lines.append(f"Context: {passage}")
    for i, (q, a) in enumerate(examples or [], start=1):
        lines.append(f"Example {i}: Question: {q} Answer: {a}")
    lines.append(f"Question: {question}")
    return "\n".join(lines)


def nl2sql_prompt(
    question: str,
    schema: str,
    examples: Optional[Sequence[Tuple[str, str]]] = None,
) -> str:
    """DAIL-SQL-style NL2SQL prompt: schema, examples, then the question."""
    lines = ["Translate the question into SQL over the following schema.", schema.strip()]
    for i, (q, sql) in enumerate(examples or [], start=1):
        lines.append(f"Example {i}: Question: {q}\nSQL: {sql}")
    lines.append(f"Question: {question}")
    return "\n".join(lines)


def transaction_prompt(scenario: str, schema: str = "CREATE TABLE accounts (owner TEXT PRIMARY KEY, balance REAL);") -> str:
    """NL2Transaction prompt (Section II-B1's Alice/Bob example)."""
    return (
        "Translate the scenario into an atomic SQL transaction over the schema.\n"
        f"{schema.strip()}\n"
        f"Scenario: {scenario}"
    )


def entity_match_prompt(a: str, b: str, examples: Optional[Sequence[Tuple[str, str, bool]]] = None) -> str:
    """The paper's entity-resolution prompt (Section II-C1)."""
    lines = ["Are the following entity descriptions the same real-world entity? Answer yes or no."]
    for i, (ex_a, ex_b, label) in enumerate(examples or [], start=1):
        lines.append(
            f"Example {i}: Entity A: {ex_a}\nEntity B: {ex_b}\nAnswer: {'yes' if label else 'no'}"
        )
    lines.append(f"Entity A: {a}\nEntity B: {b}\nAnswer:")
    return "\n".join(lines)


def schema_match_prompt(
    name_a: str, values_a: Sequence[str], name_b: str, values_b: Sequence[str]
) -> str:
    """Schema matching: do two columns denote the same attribute?"""
    return (
        "Do the following two columns refer to the same attribute? Answer yes or no.\n"
        f"Column A ({name_a}): {'||'.join(values_a)}\n"
        f"Column B ({name_b}): {'||'.join(values_b)}\n"
        "Answer:"
    )


def column_type_prompt(
    candidate_types: Sequence[str],
    examples: Sequence[Tuple[Sequence[str], str]],
    values: Sequence[str],
) -> str:
    """The paper's column-type annotation prompt, verbatim structure."""
    lines = [
        f"Given the following column types: {', '.join(candidate_types)}.",
        "You need to predict the column type according to the column values.",
    ]
    for i, (example_values, label) in enumerate(examples, start=1):
        lines.append(f"({i}) {'||'.join(example_values)}, this column type is {label}.")
    lines.append(f"{'||'.join(values)}, this column type is __.")
    return "\n".join(lines)


def label_infer_prompt(target: str, rows: Sequence[str], query_row: str) -> str:
    """Missing-field annotation over serialized rows (Section II-A2)."""
    lines = [f"Predict the value of '{target}' for the last row."]
    for row in rows:
        lines.append(f"Row: {row}")
    lines.append(f"Row: {query_row}")
    return "\n".join(lines)


def exec_time_prompt(examples: Sequence[Tuple[str, float]], query_features: str) -> str:
    """Execution-time prediction prompt (Fig 3): feature lines + query."""
    lines = ["Predict the execution time in milliseconds."]
    for features, time_ms in examples:
        lines.append(f"features: {features} -> execution_time: {time_ms:.4f}")
    lines.append(f"features: {query_features} -> execution_time: ?")
    return "\n".join(lines)


def sqlgen_prompt(schema: str, count: int, kinds: Sequence[str]) -> str:
    """SQL generation prompt (Fig 2): schema + constraints."""
    return (
        f"Generate {count} SQL queries over the following schema.\n"
        f"{schema.strip()}\n"
        f"Constraints: kinds={','.join(kinds)}"
    )


def table_extract_prompt(document: str) -> str:
    """Semi-structured → relational extraction prompt (Fig 4)."""
    return (
        "Extract a relational table from the following document. "
        "Output the header row then one row per record, pipe-separated.\n"
        f"{document.strip()}"
    )


def pattern_mine_prompt(values: Sequence[str]) -> str:
    """Column pattern mining prompt (Section II-B3)."""
    return (
        "Mine the pattern of the following column values.\n"
        f"Values: {'||'.join(values)}"
    )


def operator_synthesis_prompt(rendered_grid: str, has_header: bool) -> str:
    """Operator-sequence synthesis for table relationalization."""
    return (
        "Synthesize the operator sequence to relationalize the following table.\n"
        f"Has header: {'yes' if has_header else 'no'}\n"
        f"Table:\n{rendered_grid.strip()}\n"
    )


def prep_code_prompt(operation: str) -> str:
    """Per-operation code synthesis for data-prep pipelines (II-B4)."""
    return f"Write Python code for the data preparation operation: {operation}"


def sql2nl_prompt(sql: str, result: Optional[object] = None) -> str:
    """SQL→NL description prompt (table understanding, Section II-C2)."""
    suffix = f"\nResult: {result}" if result is not None else ""
    return f"Describe the following SQL query and its result in one sentence.\nSQL: {sql}{suffix}"


def row_serialize_prompt(table: str, row: Dict[str, object]) -> str:
    """Row → NL serialization prompt."""
    row_text = "; ".join(f"{k}: {v}" for k, v in row.items())
    return (
        "Serialize the following row into a natural language sentence.\n"
        f"Table: {table}\n"
        f"Row: {row_text}"
    )
