"""Transformation for tables (Section II-B2, Fig 4).

Both modes the paper describes:

* **direct transform** — the LLM reads the XML/JSON document and emits the
  relational table (:func:`json_to_grid`, :func:`xml_to_grid`);
* **code synthesis** — the LLM emits an *operator program* which is then
  applied locally (:func:`relationalize`), so one LLM call can relationalize
  many similarly-shaped tables — the paper's cost argument.

:func:`relationalize_direct` is the non-LLM baseline: the same beam-search
synthesis run locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.prompts.templates import operator_synthesis_prompt, table_extract_prompt
from repro.errors import TransformError
from repro.serving import CompletionProvider
from repro.llm.engines.transform import parse_rendered_table
from repro.tablekit import Grid, apply_program, parse_program, synthesize_program
from repro.tablekit.synthesis import program_to_text, relational_score


@dataclass(frozen=True)
class TableTransformResult:
    """Output of one relationalization, with provenance."""

    grid: Grid
    program_text: str  # empty for direct extraction
    mode: str  # 'direct' | 'program' | 'local'
    score: float  # relational score of the output


def _grid_from_completion(text: str) -> Grid:
    columns, rows = parse_rendered_table(text)
    if not columns:
        raise TransformError("LLM output contained no table")
    return Grid(rows, header=columns)


def json_to_grid(client: CompletionProvider, json_text: str, model: Optional[str] = None) -> TableTransformResult:
    """Direct JSON → relational table through the LLM (Fig 4, left)."""
    completion = client.complete(table_extract_prompt(json_text), model=model)
    grid = _grid_from_completion(completion.text)
    return TableTransformResult(
        grid=grid, program_text="", mode="direct", score=relational_score(grid)
    )


def xml_to_grid(client: CompletionProvider, xml_text: str, model: Optional[str] = None) -> TableTransformResult:
    """Direct XML → relational table through the LLM (Fig 4, left)."""
    completion = client.complete(table_extract_prompt(xml_text), model=model)
    grid = _grid_from_completion(completion.text)
    return TableTransformResult(
        grid=grid, program_text="", mode="direct", score=relational_score(grid)
    )


def relationalize(
    client: CompletionProvider, grid: Grid, model: Optional[str] = None
) -> TableTransformResult:
    """Code-synthesis mode: LLM emits an operator program, applied locally.

    Falls back to local synthesis when the LLM's program fails to parse or
    apply (the validate-and-recover loop of Section III-E)."""
    prompt = operator_synthesis_prompt(grid.render(), has_header=grid.header is not None)
    completion = client.complete(prompt, model=model)
    try:
        program = parse_program(completion.text)
        result = apply_program(grid, program)
        return TableTransformResult(
            grid=result,
            program_text=completion.text,
            mode="program",
            score=relational_score(result),
        )
    except TransformError:
        return relationalize_direct(grid)


def relationalize_direct(grid: Grid) -> TableTransformResult:
    """Non-LLM baseline: local beam-search synthesis."""
    program, result, score = synthesize_program(grid)
    return TableTransformResult(
        grid=result, program_text=program_to_text(program), mode="local", score=score
    )


# ---------------------------------------------------------------- documents


def render_json_records(records: List[dict], indent: int = 1) -> str:
    """Helper used by examples/benches to build JSON documents."""
    import json

    return json.dumps(records, indent=indent)


def render_xml_records(root: str, record_tag: str, records: List[dict]) -> str:
    """Helper used by examples/benches to build simple XML documents."""
    lines = [f"<{root}>"]
    for record in records:
        lines.append(f"  <{record_tag}>")
        for key, value in record.items():
            lines.append(f"    <{key}>{value}</{key}>")
        lines.append(f"  </{record_tag}>")
    lines.append(f"</{root}>")
    return "\n".join(lines)
