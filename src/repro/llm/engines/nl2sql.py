"""NL2SQL engine: translates natural-language questions into SQL.

Covers the paper's running example domain (Section III-B1, Fig 7): stadiums,
concerts and sports meetings — including the exact compound query forms Q1-Q5
("... had concerts in 2014 or had sports meetings in 2015", "... but did not
have ...", superlatives). Domains are pluggable (:data:`DOMAINS`): a retail
customers/orders/returns domain ships alongside the stadium one, and new
domains register an :class:`NLDomain` spec rather than new parsing code.

Also handles the NL2Transaction scenario (Section II-B1): a sequence of
payment clauses becomes an atomic BEGIN/UPDATE.../COMMIT script.

Compound questions carry high difficulty (weak models garble them); the
decomposed atomic sub-questions are easy — the asymmetry behind Table II.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.llm.engines.base import (
    Engine,
    EngineResult,
    TaskContext,
    count_examples,
    difficulty_jitter,
)

# Difficulty anchors (calibrated against Table II; see DESIGN.md §2).
_ATOMIC = 0.60
_AGGREGATE = 0.62
_SUPERLATIVE = 0.70
_COMPOUND_BASE = 0.95
_TXN_BASE = 0.38

_QUESTION_LINE_RE = re.compile(r"(?im)^\s*(?:question|nl|translate)\s*:\s*(.+)$")
_TXN_LINE_RE = re.compile(r"(?im)^\s*scenario\s*:\s*(.+)$")
_PAY_RE = re.compile(r"(?i)([A-Z][\w ]*?) pays ([A-Z][\w ]*?) \$([0-9]+(?:\.[0-9]+)?)")

_LEADS = ("what are", "show", "list", "give me")


# --------------------------------------------------------------------------
# Domain registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EventSpec:
    """One event family an entity can participate in."""

    phrase: str  # "concerts" — how questions name the event
    verb: str  # past-tense verb: "had" / "placed"
    verb_neg: str  # infinitive after "did not": "have" / "place"
    table: str  # relational table holding the events
    time_column: str = "year"


@dataclass(frozen=True)
class NLDomain:
    """Everything the parser needs to cover one question domain."""

    name: str
    entity_phrase: str  # "stadiums" — how questions name the entity
    entity_table: str  # "stadium"
    entity_key: str  # join key: "stadium_id"
    name_column: str  # projected column: "name"
    events: Tuple[EventSpec, ...]

    @property
    def entity_alias(self) -> str:
        return self.entity_table[0]

    def event_alias(self, event: EventSpec) -> str:
        alias = event.table[0]
        return alias if alias != self.entity_alias else "e"

    def event_by_phrase(self, phrase: str) -> Optional[EventSpec]:
        lowered = phrase.lower()
        for event in self.events:
            if event.phrase == lowered:
                return event
        return None

    def event_sql(self, event: EventSpec, year: str, superlative: bool) -> str:
        ea, alias = self.entity_alias, self.event_alias(event)
        base = (
            f"SELECT DISTINCT {ea}.{self.name_column} FROM {self.entity_table} {ea} "
            f"JOIN {event.table} {alias} ON {ea}.{self.entity_key} = {alias}.{self.entity_key} "
            f"WHERE {alias}.{event.time_column} = {year}"
        )
        if superlative:
            return (
                f"SELECT {ea}.{self.name_column} FROM {self.entity_table} {ea} "
                f"JOIN {event.table} {alias} ON {ea}.{self.entity_key} = {alias}.{self.entity_key} "
                f"WHERE {alias}.{event.time_column} = {year} "
                f"GROUP BY {ea}.{self.name_column} ORDER BY COUNT(*) DESC LIMIT 1"
            )
        return base

    def clause_pattern(self) -> "re.Pattern[str]":
        verbs = sorted({e.verb for e in self.events} | {e.verb_neg for e in self.events})
        phrases = sorted(e.phrase for e in self.events)
        return re.compile(
            r"(?i)(?:that\s+)?(?:" + "|".join(verbs) + r")\s+"
            r"(the most number of\s+)?(" + "|".join(re.escape(p) for p in phrases) + r")\s+"
            r"in\s+([0-9]{4})"
        )

    def prefix_pattern(self) -> "re.Pattern[str]":
        leads = "|".join(re.escape(lead) for lead in _LEADS)
        return re.compile(
            rf"(?i)^(?:{leads})\s+the names of {re.escape(self.entity_phrase)}\s+"
        )

    def connectors(self) -> List[Tuple[str, str, "EventSpec"]]:
        """(split token, set op, event-of-second-clause) candidates."""
        out = []
        for event in self.events:
            out.append((f" but did not {event.verb_neg} ", "EXCEPT", event))
            out.append((f" and {event.verb} ", "INTERSECT", event))
            out.append((f" or {event.verb} ", "UNION", event))
        return out


STADIUM_DOMAIN = NLDomain(
    name="stadium",
    entity_phrase="stadiums",
    entity_table="stadium",
    entity_key="stadium_id",
    name_column="name",
    events=(
        EventSpec(phrase="concerts", verb="had", verb_neg="have", table="concert"),
        EventSpec(phrase="sports meetings", verb="had", verb_neg="have", table="sports_meeting"),
    ),
)

RETAIL_DOMAIN = NLDomain(
    name="retail",
    entity_phrase="customers",
    entity_table="customer",
    entity_key="customer_id",
    name_column="name",
    events=(
        EventSpec(phrase="orders", verb="placed", verb_neg="place", table="orders"),
        EventSpec(phrase="returns", verb="filed", verb_neg="file", table="returns"),
    ),
)

DOMAINS: Tuple[NLDomain, ...] = (STADIUM_DOMAIN, RETAIL_DOMAIN)


class NL2SQLEngine(Engine):
    """Parses registered-domain NL questions into executable SQL."""

    name = "nl2sql"

    def try_solve(self, prompt: str, context: TaskContext) -> Optional[EngineResult]:
        txn = self._try_transaction(prompt)
        if txn is not None:
            return txn
        question = self._extract_question(prompt)
        if question is None:
            return None
        parsed = self._parse_question(question)
        if parsed is None:
            return None
        sql, difficulty, wrongs = parsed
        difficulty = min(0.95, max(0.05, difficulty + difficulty_jitter(question)))
        return EngineResult(
            answer=sql,
            difficulty=difficulty,
            wrong_answers=wrongs,
            engine=self.name,
            n_examples=count_examples(prompt),
            metadata={"question": question},
        )

    def _extract_question(self, prompt: str) -> Optional[str]:
        match = None
        for match in _QUESTION_LINE_RE.finditer(prompt):
            pass  # keep the last occurrence — earlier ones are examples
        if match is not None:
            return match.group(1).strip()
        # Bare question prompts (no framing) still count if they look like
        # a registered domain.
        last = prompt.strip().splitlines()[-1].strip() if prompt.strip() else ""
        lowered = last.lower()
        if any(d.entity_table in lowered or d.entity_phrase in lowered for d in DOMAINS):
            return last
        return None

    # ---------------------------------------------------------------- parse

    def _parse_question(self, question: str) -> Optional[Tuple[str, float, List[str]]]:
        text = question.strip().rstrip("?").strip()
        for domain in DOMAINS:
            prefix = domain.prefix_pattern()
            stripped = prefix.sub("", text + " ").strip()
            if stripped != (text + " ").strip():
                result = self._parse_domain_question(domain, stripped)
                if result is not None:
                    return result
        return self._parse_non_name_question(text)

    def _parse_domain_question(
        self, domain: NLDomain, stripped: str
    ) -> Optional[Tuple[str, float, List[str]]]:
        # Compound splitting: EXCEPT first, then INTERSECT, then UNION.
        for splitter, set_op, _event in sorted(
            domain.connectors(), key=lambda c: ("EXCEPT", "INTERSECT", "UNION").index(c[1])
        ):
            idx = stripped.lower().find(splitter)
            if idx < 0:
                continue
            left_text = stripped[:idx]
            # Keep the (positive) verb on the right clause for re-parsing.
            verb = splitter.strip().split()[-1]
            right_event = _event
            right_text = f"{right_event.verb} " + stripped[idx + len(splitter):]
            left = self._parse_event_phrase(domain, left_text)
            right = self._parse_event_phrase(domain, right_text)
            if left is None or right is None:
                return None
            sql = f"{left} {set_op} {right}"
            difficulty = _COMPOUND_BASE
            wrongs = self._compound_corruptions(left, right, set_op)
            return sql, difficulty, wrongs

        event_sql = self._parse_event_phrase(domain, stripped)
        if event_sql is not None:
            superlative = "most number" in stripped
            difficulty = _SUPERLATIVE if superlative else _ATOMIC
            return event_sql, difficulty, self._atomic_corruptions(domain, event_sql)

        # Entity-attribute filters (stadium capacity / location).
        if domain is STADIUM_DOMAIN:
            return self._parse_stadium_filters(stripped)
        return None

    def _parse_event_phrase(self, domain: NLDomain, phrase: str) -> Optional[str]:
        m = domain.clause_pattern().search(phrase)
        if m is None:
            return None
        superlative = bool(m.group(1))
        event = domain.event_by_phrase(m.group(2))
        if event is None:
            return None
        return domain.event_sql(event, m.group(3), superlative)

    def _parse_stadium_filters(self, stripped: str) -> Optional[Tuple[str, float, List[str]]]:
        m = re.search(r"(?i)with a capacity (greater|less) than ([0-9]+)", stripped)
        if m:
            op = ">" if m.group(1).lower() == "greater" else "<"
            sql = f"SELECT name FROM stadium WHERE capacity {op} {m.group(2)}"
            flipped = "<" if op == ">" else ">"
            return sql, _ATOMIC, [
                f"SELECT name FROM stadium WHERE capacity {flipped} {m.group(2)}",
                f"SELECT name FROM stadium WHERE capacity {op}= {m.group(2)}",
            ]
        m = re.search(r"(?i)located in ([A-Za-z ]+)$", stripped)
        if m:
            loc = m.group(1).strip()
            sql = f"SELECT name FROM stadium WHERE location = '{loc}'"
            return sql, _ATOMIC, [
                f"SELECT name FROM stadium WHERE location <> '{loc}'",
                "SELECT name FROM stadium",
            ]
        return None

    def _parse_non_name_question(self, text: str) -> Optional[Tuple[str, float, List[str]]]:
        for domain in DOMAINS:
            phrases = "|".join(re.escape(e.phrase) for e in domain.events)
            m = re.search(rf"(?i)how many ({phrases}) were (?:held|placed|filed) in ([0-9]{{4}})", text)
            if m:
                event = domain.event_by_phrase(m.group(1))
                assert event is not None
                year = m.group(2)
                sql = f"SELECT COUNT(*) FROM {event.table} WHERE {event.time_column} = {year}"
                return sql, _AGGREGATE, [
                    f"SELECT COUNT(*) FROM {event.table} WHERE {event.time_column} = {int(year) - 1}",
                    f"SELECT COUNT(*) FROM {event.table}",
                ]
        m = re.search(r"(?i)what is the average capacity of stadiums in ([A-Za-z ]+)\b", text)
        if m:
            loc = m.group(1).strip().rstrip("?").strip()
            sql = f"SELECT AVG(capacity) FROM stadium WHERE location = '{loc}'"
            return sql, _AGGREGATE, [
                f"SELECT MAX(capacity) FROM stadium WHERE location = '{loc}'",
                "SELECT AVG(capacity) FROM stadium",
            ]
        if re.search(r"(?i)what is the total capacity of all stadiums", text):
            return (
                "SELECT SUM(capacity) FROM stadium",
                _AGGREGATE,
                ["SELECT AVG(capacity) FROM stadium", "SELECT COUNT(capacity) FROM stadium"],
            )
        return None

    # ----------------------------------------------------------- corruptions

    def _atomic_corruptions(self, domain: NLDomain, sql: str) -> List[str]:
        wrongs = []
        m = re.search(r"(year|month) = ([0-9]{4})", sql)
        if m:
            year = int(m.group(2))
            wrongs.append(sql.replace(f"{m.group(1)} = {year}", f"{m.group(1)} = {year - 1}"))
        tables = [e.table for e in domain.events]
        for i, table in enumerate(tables):
            other = tables[(i + 1) % len(tables)]
            if f"JOIN {table} " in sql and other != table:
                wrongs.append(sql.replace(f"JOIN {table} ", f"JOIN {other} "))
                break
        if "ORDER BY COUNT(*) DESC LIMIT 1" in sql:
            wrongs.append(sql.replace(" ORDER BY COUNT(*) DESC LIMIT 1", ""))
        return wrongs or [sql.replace("SELECT", "SELECT DISTINCT", 1)]

    def _compound_corruptions(self, left: str, right: str, set_op: str) -> List[str]:
        other_ops = [op for op in ("UNION", "INTERSECT", "EXCEPT") if op != set_op]
        wrongs = [f"{left} {op} {right}" for op in other_ops]
        wrongs.append(left)  # dropped second clause — a classic weak-model error
        return wrongs

    # ---------------------------------------------------------- transactions

    def _try_transaction(self, prompt: str) -> Optional[EngineResult]:
        m = _TXN_LINE_RE.search(prompt)
        if m is None:
            return None
        scenario = m.group(1).strip()
        payments = _PAY_RE.findall(scenario)
        if not payments:
            return None
        statements = ["BEGIN"]
        for payer, payee, amount in payments:
            payer, payee = payer.strip(), payee.strip()
            statements.append(
                f"UPDATE accounts SET balance = balance - {amount} WHERE owner = '{payer}'"
            )
            statements.append(
                f"UPDATE accounts SET balance = balance + {amount} WHERE owner = '{payee}'"
            )
        statements.append("COMMIT")
        sql = ";\n".join(statements) + ";"
        difficulty = min(0.9, _TXN_BASE + 0.12 * (len(payments) - 1) + difficulty_jitter(scenario))
        # Corruptions: unbalanced amounts / missing debit — integrity bugs
        # that the output validator (Section III-E) is designed to catch.
        bad_amount = sql.replace(f"- {payments[0][2]}", f"- {float(payments[0][2]) * 2:g}", 1)
        missing_debit = ";\n".join(s for s in statements if f"- {payments[0][2]}" not in s) + ";"
        no_txn = ";\n".join(statements[1:-1]) + ";"
        return EngineResult(
            answer=sql,
            difficulty=max(0.05, difficulty),
            wrong_answers=[bad_amount, missing_debit, no_txn],
            engine=self.name,
            n_examples=count_examples(prompt),
            metadata={"payments": len(payments)},
        )
