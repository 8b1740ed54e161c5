"""Failure-injection tests: subsystem behavior on the unhappy paths.

Production adopters hit these paths first: budgets run out mid-workload,
prompts overflow context windows, inputs are degenerate. Each test asserts
the failure is *contained* — typed errors, no partial corruption.
"""

import numpy as np
import pytest

from repro.core.cache import SemanticCache
from repro.core.cascade import CascadeClient
from repro.core.decompose import QueryOptimizer
from repro.core.prompts.templates import qa_prompt
from repro.core.validation import SQLValidator
from repro.datasets import generate_nl2sql
from repro.errors import (
    BudgetExceededError,
    ContextLengthExceededError,
    ReproError,
    SQLError,
    TransformError,
)
from repro.llm import LLMClient
from repro.vectordb import Collection


class TestBudgetExhaustion:
    def test_workload_stops_at_budget_without_partial_charge(self):
        client = LLMClient(model="gpt-4", budget_usd=0.004)
        completed = 0
        with pytest.raises(BudgetExceededError):
            for i in range(100):
                client.complete(qa_prompt(f"Who directed film number {i}?"))
                completed += 1
        assert 0 < completed < 100
        assert client.meter.cost <= 0.004

    def test_optimizer_surfaces_budget_error(self, concert_db):
        client = LLMClient(model="gpt-4", budget_usd=0.002)
        optimizer = QueryOptimizer(client, concert_db.schema_text())
        questions = [e.question for e in generate_nl2sql(n=10, seed=1)]
        with pytest.raises(BudgetExceededError):
            optimizer.translate_origin(questions)

    def test_cascade_budget_error_propagates(self):
        client = LLMClient(budget_usd=1e-9)
        cascade = CascadeClient(client)
        with pytest.raises(BudgetExceededError):
            cascade.complete(qa_prompt("Who directed The Silent Mirror?"))


class TestContextOverflow:
    def test_huge_prompt_rejected_before_spend(self):
        client = LLMClient(model="babbage-002")
        with pytest.raises(ContextLengthExceededError):
            client.complete("word " * 20_000)
        assert client.meter.calls == 0

    def test_bigger_model_accepts_what_small_rejects(self):
        prompt = "word " * 5_000  # ~5k tokens: over babbage, under gpt-4
        with pytest.raises(ContextLengthExceededError):
            LLMClient(model="babbage-002").complete(prompt)
        completion = LLMClient(model="gpt-4").complete(prompt)
        assert completion.text


class TestDegenerateInputs:
    def test_empty_prompt_still_completes(self):
        completion = LLMClient().complete("")
        assert isinstance(completion.text, str)
        assert completion.usage.prompt_tokens == 0

    def test_cache_with_empty_query(self):
        cache = SemanticCache()
        cache.put("", "empty answer")
        # Zero-vector embeddings have zero cosine to everything: a second
        # empty-string lookup may or may not reuse, but must not crash.
        lookup = cache.lookup("")
        assert lookup.tier in ("reuse", "augment", "miss")

    def test_collection_zero_vector_query(self):
        c = Collection(dim=4)
        c.add("a", np.ones(4))
        report = c.search(np.zeros(4), k=1)
        assert len(report.hits) == 1  # zero similarity, but defined

    def test_validator_on_empty_sql(self, concert_db):
        report = SQLValidator(concert_db).validate("")
        assert report.valid  # zero statements: nothing failed
        report = SQLValidator(concert_db).validate(";;;")
        assert report.valid

    def test_sql_engine_deep_nesting(self, concert_db):
        sql = "SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM stadium WHERE stadium_id > 0))"
        rows = concert_db.query(sql)
        assert rows

    def test_grid_transform_error_is_typed(self):
        from repro.tablekit import Grid, PromoteHeader

        with pytest.raises(TransformError):
            PromoteHeader().apply(Grid([], header=None))

    def test_all_library_errors_share_base(self):
        for exc_type in (BudgetExceededError, ContextLengthExceededError, SQLError, TransformError):
            assert issubclass(exc_type, ReproError)


class TestIsolationAfterFailure:
    def test_failed_transaction_leaves_db_clean(self):
        from repro.apps.transform.transaction import make_accounts_db
        from repro.errors import SQLTransactionError

        db = make_accounts_db({"a": 10.0})
        db.execute("BEGIN")
        db.execute("UPDATE accounts SET balance = 0")
        db.execute("ROLLBACK")
        assert db.query_scalar("SELECT balance FROM accounts") == 10.0
        with pytest.raises(SQLTransactionError):
            db.execute("COMMIT")  # no open transaction — typed error

    def test_validator_failure_does_not_poison_later_calls(self, concert_db):
        validator = SQLValidator(concert_db)
        assert not validator.validate("garbage !!").valid
        assert validator.validate("SELECT name FROM stadium").valid

    def test_meter_consistent_after_mixed_failures(self):
        client = LLMClient(model="gpt-4")
        client.complete(qa_prompt("Who directed The Silent Mirror?"))
        cost_after_success = client.meter.cost
        with pytest.raises(ContextLengthExceededError):
            client.complete("word " * 50_000)
        assert client.meter.cost == cost_after_success
        client.complete(qa_prompt("Who directed The Hidden Meridian?"))
        assert client.meter.calls == 2
