"""LLM output validation (Section III-E).

Data management demands reliability that probabilistic LLM output does not
natively provide. This module implements the paper's two envisioned
directions:

**Validators** — deterministic checks over LLM outputs:

* :class:`SQLValidator` — syntax, schema conformance, and executability of
  generated SQL against a database;
* :class:`TransactionValidator` — atomicity framing (BEGIN/COMMIT) and
  balance conservation for NL2Transaction scripts;
* :func:`self_consistency` — sample the same prompt across differently
  seeded clients and majority-vote (disagreement = low reliability);
* :func:`explain_by_occlusion` — interpretability: token-level importance
  by occluding prompt words and measuring the completion change.

**Human-in-the-loop** — :class:`CrowdValidator` simulates crowd workers of
configurable individual accuracy voting on output correctness, aggregated
by majority (the crowdsourced score function the paper describes).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro._util import rng_from, words
from repro.errors import SQLError
from repro.llm.provider import CompletionProvider, make_client
from repro.sqldb import Database
from repro.sqldb import ast_nodes as ast
from repro.sqldb.parser import parse_sql


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one validation: verdict plus per-check detail."""

    valid: bool
    checks: Tuple[Tuple[str, bool, str], ...]  # (check name, passed, detail)

    def failed_checks(self) -> List[str]:
        return [name for name, passed, _detail in self.checks if not passed]


class SQLValidator:
    """Validates generated SQL: parses, resolves names, executes."""

    def __init__(self, db: Database) -> None:
        self.db = db

    def validate(self, sql: str) -> ValidationReport:
        """Run all checks on the SQL text; see class docstring."""
        checks: List[Tuple[str, bool, str]] = []
        # 1. Syntax.
        try:
            statements = parse_sql(sql)
            checks.append(("syntax", True, f"{len(statements)} statement(s)"))
        except SQLError as exc:
            checks.append(("syntax", False, str(exc)))
            return ValidationReport(valid=False, checks=tuple(checks))
        # 2. Schema conformance: every referenced table exists.
        unknown = sorted(
            {t for t in self._referenced_tables(statements) if not self.db.has_table(t)}
        )
        checks.append(
            ("schema", not unknown, "ok" if not unknown else f"unknown tables: {unknown}")
        )
        # 3. Executability on a throwaway clone.
        try:
            clone = self.db.clone()
            for statement_sql in self._split(sql):
                clone.execute(statement_sql)
            checks.append(("execution", True, "executed cleanly"))
        except SQLError as exc:
            checks.append(("execution", False, str(exc)))
        valid = all(passed for _name, passed, _detail in checks)
        return ValidationReport(valid=valid, checks=tuple(checks))

    @staticmethod
    def _split(sql: str) -> List[str]:
        return [s.strip() for s in sql.split(";") if s.strip()]

    @staticmethod
    def _referenced_tables(statements: Sequence[ast.Statement]) -> List[str]:
        tables: List[str] = []

        def visit_source(source) -> None:
            if isinstance(source, ast.TableName):
                tables.append(source.name)
            elif isinstance(source, ast.Join):
                visit_source(source.left)
                visit_source(source.right)
            elif isinstance(source, ast.SubquerySource):
                visit_select(source.select)

        def visit_select(select: ast.Select) -> None:
            visit_source(select.source)
            for set_op in select.set_ops:
                visit_select(set_op.select)
            exprs = [i.expr for i in select.items]
            if select.where is not None:
                exprs.append(select.where)
            for expr in exprs:
                for node in ast.walk_expr(expr):
                    if isinstance(node, (ast.InSelect, ast.Exists, ast.ScalarSubquery)):
                        visit_select(node.select)

        for statement in statements:
            if isinstance(statement, ast.Select):
                visit_select(statement)
            elif isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
                tables.append(statement.table)
        return tables


class TransactionValidator:
    """Validates NL2Transaction scripts (the Alice/Bob scenario).

    Checks: wrapped in BEGIN/COMMIT, parses, executes, and — the domain
    constraint — total balance is conserved (every debit has a matching
    credit)."""

    def __init__(self, db: Database) -> None:
        self.db = db

    def validate(self, sql: str) -> ValidationReport:
        checks: List[Tuple[str, bool, str]] = []
        upper = sql.upper()
        framed = "BEGIN" in upper and "COMMIT" in upper
        checks.append(("atomicity", framed, "BEGIN/COMMIT present" if framed else "missing BEGIN/COMMIT"))
        clone = self.db.clone()
        try:
            before = clone.query_scalar("SELECT SUM(balance) FROM accounts") or 0.0
            clone.execute(sql)
            after = clone.query_scalar("SELECT SUM(balance) FROM accounts") or 0.0
            checks.append(("execution", True, "executed cleanly"))
            conserved = abs(float(before) - float(after)) < 1e-9
            checks.append(
                (
                    "balance_conservation",
                    conserved,
                    "conserved" if conserved else f"balance drifted {float(after) - float(before):+.2f}",
                )
            )
        except SQLError as exc:
            checks.append(("execution", False, str(exc)))
        valid = all(passed for _name, passed, _detail in checks)
        return ValidationReport(valid=valid, checks=tuple(checks))


# --------------------------------------------------------------------------
# Self-consistency
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Majority answer and agreement level across sampled completions."""

    answer: str
    agreement: float  # fraction of samples agreeing with the majority
    samples: Tuple[str, ...]

    @property
    def unanimous(self) -> bool:
        return self.agreement == 1.0


def self_consistency(
    prompt: str,
    model: str = "gpt-3.5-turbo",
    n_samples: int = 5,
    base_seed: int = 0,
    client_factory: Optional[Callable[[int], CompletionProvider]] = None,
) -> ConsistencyReport:
    """Sample the prompt across differently seeded clients; majority-vote.

    Deterministic completions make temperature-style resampling impossible,
    so we vary the client seed — the simulator's analogue of sampling."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    factory = client_factory or (lambda seed: make_client(model=model, seed=seed))
    samples = [factory(base_seed + i).complete(prompt).text for i in range(n_samples)]
    majority, count = Counter(samples).most_common(1)[0]
    return ConsistencyReport(answer=majority, agreement=count / n_samples, samples=tuple(samples))


# --------------------------------------------------------------------------
# Interpretability: occlusion saliency
# --------------------------------------------------------------------------


def explain_by_occlusion(
    client: CompletionProvider,
    prompt: str,
    model: Optional[str] = None,
    max_tokens: int = 40,
) -> List[Tuple[str, float]]:
    """Token importance = answer-change when the token is occluded.

    For each distinctive word in the prompt (capped at ``max_tokens``),
    replace it with a mask and re-run the completion; importance is 1.0
    when the answer changes plus the confidence shift otherwise. This is
    genuine post-hoc attribution over the simulated model — it requires no
    access to engine internals.
    """
    baseline = client.complete(prompt, model=model)
    tokens = []
    seen = set()
    for token in words(prompt):
        lowered = token.lower()
        if len(token) < 3 or lowered in seen:
            continue
        seen.add(lowered)
        tokens.append(token)
        if len(tokens) >= max_tokens:
            break
    importances: List[Tuple[str, float]] = []
    for token in tokens:
        occluded = re.sub(rf"\b{re.escape(token)}\b", "___", prompt)
        if occluded == prompt:
            continue
        perturbed = client.complete(occluded, model=model)
        if perturbed.text != baseline.text:
            importance = 1.0
        else:
            importance = abs(perturbed.confidence - baseline.confidence)
        importances.append((token, round(importance, 4)))
    importances.sort(key=lambda t: (-t[1], t[0]))
    return importances


# --------------------------------------------------------------------------
# Human-in-the-loop
# --------------------------------------------------------------------------


@dataclass
class CrowdWorker:
    """A simulated worker who judges output validity with given accuracy."""

    worker_id: str
    accuracy: float
    seed: int = 0

    def judge(self, output_is_valid: bool, item_key: str) -> bool:
        """Vote on whether the output is valid; correct w.p. ``accuracy``."""
        rng = rng_from(f"{self.worker_id}|{self.seed}|{item_key}")
        if rng.random() < self.accuracy:
            return output_is_valid
        return not output_is_valid


@dataclass(frozen=True)
class CrowdVerdict:
    """Aggregated crowd decision for one output."""

    accepted: bool
    score: float  # fraction of accept votes
    votes: Tuple[bool, ...]


class CrowdValidator:
    """Majority-vote aggregation over simulated crowd workers.

    ``oracle`` is the deterministic check the workers approximate — in a
    deployment that is a human's judgment; in the experiments it is one of
    the validators above (so crowd accuracy is measurable)."""

    def __init__(self, n_workers: int = 5, worker_accuracy: float = 0.8, seed: int = 0) -> None:
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        self.workers = [
            CrowdWorker(worker_id=f"w{i}", accuracy=worker_accuracy, seed=seed)
            for i in range(n_workers)
        ]

    def validate(self, item_key: str, oracle: bool) -> CrowdVerdict:
        votes = tuple(worker.judge(oracle, item_key) for worker in self.workers)
        score = sum(votes) / len(votes)
        return CrowdVerdict(accepted=score >= 0.5, score=score, votes=votes)
