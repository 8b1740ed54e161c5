"""Retail NL2SQL benchmark: the second registered question domain.

Customers place orders and file returns; questions mirror the stadium
grammar ("customers that placed orders in 2021 or filed returns in 2022"),
demonstrating that the NL2SQL stack — engine, decomposer, optimizer — is
domain-pluggable rather than hard-wired to the paper's example.
"""

from __future__ import annotations

from typing import List, Tuple

from repro._util import rng_from
from repro.datasets.spider import NLExample
from repro.llm.engines.nl2sql import RETAIL_DOMAIN
from repro.sqldb import Database
from repro.sqldb.types import SQLType

YEARS = (2020, 2021, 2022, 2023)
EVENTS = ("orders", "returns")


def build_retail_db(seed: int = 0, n_customers: int = 20, n_events: int = 56) -> Database:
    """A populated customer/orders/returns database."""
    rng = rng_from(seed)
    db = Database()
    db.create_table(
        "customer",
        [
            ("customer_id", SQLType.INTEGER),
            ("name", SQLType.TEXT),
            ("segment", SQLType.TEXT),
        ],
        primary_key="customer_id",
    )
    db.create_table(
        "orders",
        [
            ("order_id", SQLType.INTEGER),
            ("customer_id", SQLType.INTEGER),
            ("amount", SQLType.REAL),
            ("year", SQLType.INTEGER),
        ],
        primary_key="order_id",
    )
    db.create_table(
        "returns",
        [
            ("return_id", SQLType.INTEGER),
            ("customer_id", SQLType.INTEGER),
            ("reason", SQLType.TEXT),
            ("year", SQLType.INTEGER),
        ],
        primary_key="return_id",
    )
    first = ["Ada", "Bruno", "Clara", "Diego", "Elena", "Felix", "Grace", "Henry", "Iris", "Jonas"]
    last = ["Marsh", "Okafor", "Petrov", "Quinn", "Reyes", "Sato", "Turner", "Ueda", "Voss", "Webb"]
    segments = ["consumer", "corporate", "home office"]
    for i in range(n_customers):
        name = f"{first[i % len(first)]} {last[(i // len(first) + i) % len(last)]}"
        if i >= len(first) * len(last):
            name += f" {i}"
        db.insert_rows(
            "customer", [[i + 1, name, segments[int(rng.integers(0, len(segments)))]]]
        )
    reasons = ["damaged", "wrong item", "late", "changed mind"]
    for i in range(n_events):
        customer = int(rng.integers(1, n_customers + 1))
        year = int(YEARS[int(rng.integers(0, len(YEARS)))])
        if rng.random() < 0.6:
            db.insert_rows(
                "orders", [[i + 1, customer, round(float(rng.uniform(10, 900)), 2), year]]
            )
        else:
            db.insert_rows(
                "returns",
                [[i + 1, customer, reasons[int(rng.integers(0, len(reasons)))], year]],
            )
    return db


def _atomic_sql(event_phrase: str, year: int, superlative: bool = False) -> str:
    event = RETAIL_DOMAIN.event_by_phrase(event_phrase)
    assert event is not None
    return RETAIL_DOMAIN.event_sql(event, str(year), superlative)


def _atomic_question(event_phrase: str, year: int, superlative: bool = False) -> str:
    event = RETAIL_DOMAIN.event_by_phrase(event_phrase)
    assert event is not None
    if superlative:
        return (
            f"What are the names of customers that {event.verb} the most number of "
            f"{event.phrase} in {year}?"
        )
    return f"What are the names of customers that {event.verb} {event.phrase} in {year}?"


def _compound(left: Tuple[str, int], right: Tuple[str, int], op: str) -> NLExample:
    (ev_l, y_l), (ev_r, y_r) = left, right
    event_l = RETAIL_DOMAIN.event_by_phrase(ev_l)
    event_r = RETAIL_DOMAIN.event_by_phrase(ev_r)
    assert event_l is not None and event_r is not None
    connectors = {
        "UNION": f"or {event_r.verb}",
        "INTERSECT": f"and {event_r.verb}",
        "EXCEPT": f"but did not {event_r.verb_neg}",
    }
    question = (
        f"What are the names of customers that {event_l.verb} {ev_l} in {y_l} "
        f"{connectors[op]} {ev_r} in {y_r}?"
    )
    gold = f"{_atomic_sql(ev_l, y_l)} {op} {_atomic_sql(ev_r, y_r)}"
    return NLExample(
        question=question,
        gold_sql=gold,
        category="compound",
        sub_questions=(_atomic_question(ev_l, y_l), _atomic_question(ev_r, y_r)),
        recompose_op=op,
    )


def generate_retail_nl2sql(
    n: int = 24, seed: int = 0, compound_fraction: float = 0.6
) -> List[NLExample]:
    """Generate a retail-domain NL2SQL workload (same shape as spider's)."""
    rng = rng_from(seed)
    atoms = [(event, year) for event in EVENTS for year in YEARS]
    examples: List[NLExample] = []
    ops = ("UNION", "INTERSECT", "EXCEPT")
    remaining_split = (1.0 - compound_fraction) / 2.0
    while len(examples) < n:
        roll = rng.random()
        if roll < compound_fraction:
            left = atoms[int(rng.integers(0, len(atoms)))]
            right = atoms[int(rng.integers(0, len(atoms)))]
            if left == right:
                continue
            examples.append(_compound(left, right, ops[int(rng.integers(0, len(ops)))]))
        elif roll < compound_fraction + remaining_split:
            event, year = atoms[int(rng.integers(0, len(atoms)))]
            examples.append(
                NLExample(
                    question=_atomic_question(event, year, superlative=True),
                    gold_sql=_atomic_sql(event, year, superlative=True),
                    category="superlative",
                )
            )
        else:
            event, year = atoms[int(rng.integers(0, len(atoms)))]
            examples.append(
                NLExample(
                    question=_atomic_question(event, year),
                    gold_sql=_atomic_sql(event, year),
                    category="atomic",
                )
            )
    return examples[:n]
