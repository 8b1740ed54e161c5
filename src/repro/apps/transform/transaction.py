"""NL2Transaction (Section II-B1): natural language → atomic SQL scripts.

The paper's running example: "Alice buys a laptop from Bob for $1,000 and
Bob pays $5 freight to the express company" — one scenario, several SQL
statements, atomic. The translator renders the scenario, asks the LLM for
the transaction script, validates it (atomic framing + balance
conservation), and only then applies it to the database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.prompts.templates import transaction_prompt
from repro.core.validation import TransactionValidator, ValidationReport
from repro.errors import ValidationError
from repro.serving import CompletionProvider
from repro.sqldb import Database
from repro.sqldb.types import SQLType


@dataclass(frozen=True)
class Payment:
    """One payment clause of a scenario."""

    payer: str
    payee: str
    amount: float

    def render(self) -> str:
        amount = int(self.amount) if float(self.amount).is_integer() else self.amount
        return f"{self.payer} pays {self.payee} ${amount}"


@dataclass(frozen=True)
class TransactionResult:
    """Generated script plus validation; applied only when valid."""

    scenario: str
    sql: str
    report: ValidationReport
    applied: bool


def make_accounts_db(balances: dict) -> Database:
    """Build an accounts database from an {owner: balance} mapping."""
    db = Database()
    db.create_table(
        "accounts", [("owner", SQLType.TEXT), ("balance", SQLType.REAL)], primary_key="owner"
    )
    db.insert_rows("accounts", [[owner, float(balance)] for owner, balance in balances.items()])
    return db


class NL2TransactionTranslator:
    """Scenario → validated, atomically-applied SQL transaction."""

    def __init__(self, client: CompletionProvider, db: Database, model: Optional[str] = None) -> None:
        self.client = client
        self.db = db
        self.model = model
        self.validator = TransactionValidator(db)

    def translate(self, payments: Sequence[Payment]) -> TransactionResult:
        """Translate and (when valid) apply a payment scenario."""
        if not payments:
            raise ValueError("scenario needs at least one payment")
        scenario = ". ".join(p.render() for p in payments) + "."
        prompt = transaction_prompt(scenario)
        completion = self.client.complete(prompt, model=self.model)
        report = self.validator.validate(completion.text)
        applied = False
        if report.valid:
            self.db.execute(completion.text)
            applied = True
        return TransactionResult(
            scenario=scenario, sql=completion.text, report=report, applied=applied
        )

    def translate_or_raise(self, payments: Sequence[Payment]) -> TransactionResult:
        """Like :meth:`translate` but raises on validation failure —
        the behavior a production pipeline wants."""
        result = self.translate(payments)
        if not result.applied:
            raise ValidationError(
                f"generated transaction failed checks: {result.report.failed_checks()}"
            )
        return result
