"""Transformation app tests (Section II-B)."""

import pytest

from repro.apps.transform import (
    NL2SQLTranslator,
    NL2TransactionTranslator,
    PatternValidator,
    Payment,
    PipelineSearcher,
    json_to_grid,
    mine_column_pattern,
    relationalize,
    relationalize_direct,
    synthesize_column_transform,
    xml_to_grid,
)
from repro.apps.transform.columns import columns_joinable
from repro.apps.transform.tables import render_json_records, render_xml_records
from repro.apps.transform.transaction import make_accounts_db
from repro.datasets import generate_joinable_pairs, generate_nl2sql
from repro.errors import TransformError
from repro.llm import LLMClient
from repro.tablekit import Grid


class TestNL2SQLApp:
    def test_translate_valid_sql(self, concert_db, gpt4):
        translator = NL2SQLTranslator(gpt4, concert_db)
        result = translator.translate("What are the names of stadiums that had concerts in 2014?")
        assert result.valid
        assert "SELECT" in result.sql

    def test_evaluate_reports_accuracy_and_cost(self, concert_db, gpt4):
        translator = NL2SQLTranslator(gpt4, concert_db)
        metrics = translator.evaluate(generate_nl2sql(n=8, seed=2))
        assert 0.0 <= metrics["execution_accuracy"] <= 1.0
        assert metrics["api_cost"] > 0

    def test_examples_selected_by_similarity(self, concert_db, gpt4):
        pool = [
            ("What are the names of stadiums that had concerts in 2013?", "SQL1"),
            ("completely unrelated question about privacy", "SQL2"),
        ]
        translator = NL2SQLTranslator(gpt4, concert_db, example_pool=pool, n_examples=1)
        picked = translator._select_examples("stadiums that had concerts in 2016")
        assert picked[0][1] == "SQL1"


class TestNL2Transaction:
    def test_paper_scenario(self, gpt4):
        db = make_accounts_db({"Alice": 5000.0, "Bob": 100.0, "Express": 0.0})
        translator = NL2TransactionTranslator(gpt4, db)
        result = translator.translate(
            [Payment("Alice", "Bob", 1000), Payment("Bob", "Express", 5)]
        )
        assert result.applied
        assert db.query_scalar("SELECT balance FROM accounts WHERE owner = 'Alice'") == 4000.0
        assert db.query_scalar("SELECT balance FROM accounts WHERE owner = 'Bob'") == 1095.0
        assert db.query_scalar("SELECT balance FROM accounts WHERE owner = 'Express'") == 5.0

    def test_total_balance_conserved(self, gpt4):
        db = make_accounts_db({"a": 10.0, "b": 20.0})
        before = db.query_scalar("SELECT SUM(balance) FROM accounts")
        NL2TransactionTranslator(gpt4, db).translate([Payment("a", "b", 3)])
        assert db.query_scalar("SELECT SUM(balance) FROM accounts") == before

    def test_invalid_output_not_applied(self, world):
        # A weak model with a seed chosen to corrupt this scenario.
        db = make_accounts_db({"Ann": 50.0, "Ben": 0.0})
        for seed in range(30):
            client = LLMClient(model="babbage-002", seed=seed)
            translator = NL2TransactionTranslator(client, db)
            result = translator.translate([Payment("Ann", "Ben", 10), Payment("Ben", "Ann", 2)])
            if not result.report.valid:
                assert not result.applied
                break
        else:
            pytest.fail("expected at least one corrupted transaction in 30 seeds")

    def test_translate_or_raise(self, gpt4):
        db = make_accounts_db({"x": 1.0, "y": 0.0})
        result = NL2TransactionTranslator(gpt4, db).translate_or_raise([Payment("x", "y", 1)])
        assert result.applied

    def test_empty_scenario_rejected(self, gpt4):
        db = make_accounts_db({"x": 1.0})
        with pytest.raises(ValueError):
            NL2TransactionTranslator(gpt4, db).translate([])


class TestTableTransforms:
    RECORDS = [
        {"item": "laptop", "qty": 2, "price": 900},
        {"item": "mouse", "qty": 5, "price": 25},
    ]

    def test_json_direct(self, gpt4):
        result = json_to_grid(gpt4, render_json_records(self.RECORDS))
        assert result.mode == "direct"
        assert result.grid.header == ["item", "qty", "price"]
        assert result.grid.n_rows == 2

    def test_xml_direct(self, gpt4):
        document = render_xml_records("orders", "order", self.RECORDS)
        result = xml_to_grid(gpt4, document)
        assert result.grid.header == ["item", "qty", "price"]

    def test_program_synthesis_mode(self, gpt4):
        grid = Grid([["item", "qty"], ["a", 1], ["b", 2]])
        result = relationalize(gpt4, grid)
        assert result.mode in ("program", "local")
        assert result.grid.header == ["item", "qty"]

    def test_local_baseline(self):
        grid = Grid([["item", "qty"], ["a", 1], [None, None], ["b", 2]])
        result = relationalize_direct(grid)
        assert result.grid.header == ["item", "qty"]
        assert result.grid.n_rows == 2
        assert result.score > 0.9


class TestColumnTransforms:
    def test_all_generated_pairs_synthesize(self):
        for pair in generate_joinable_pairs(n=18, seed=3):
            transform = synthesize_column_transform(list(pair.source), list(pair.target))
            assert transform is not None
            assert transform.apply_all(list(pair.source)) == list(pair.target)

    def test_unjoinable_columns(self):
        assert synthesize_column_transform(["abc", "def"], ["123", "456"]) is None
        assert not columns_joinable(["abc"], ["123"])

    def test_joinable_detection(self):
        assert columns_joinable(["Aug 14 2023"], ["8/14/2023"])

    def test_transform_rejects_unparseable(self):
        transform = synthesize_column_transform(["Aug 14 2023"], ["8/14/2023"])
        with pytest.raises(TransformError):
            transform.apply("not a date")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            synthesize_column_transform(["a"], ["b", "c"])

    def test_pattern_validator_drift(self):
        validator = PatternValidator.from_baseline(["Aug 14 2023", "Sep 01 2021", "Jan 30 2019"])
        assert validator.conforming("Oct 11 2020")
        assert not validator.conforming("2020-10-11")
        assert validator.drift_rate(["Oct 11 2020", "2020-10-11"]) == 0.5
        assert validator.validate_batch(["Nov 05 2018"] * 20)
        assert not validator.validate_batch(["Nov 05 2018"] * 10 + ["bad"] * 2)

    def test_pattern_validator_from_llm(self, gpt4):
        validator = PatternValidator.from_llm(gpt4, ["Aug 14 2023", "Aug 02 2021"])
        assert validator.conforming("Aug 31 1999")

    def test_mine_pattern_via_llm(self, gpt4):
        pattern = mine_column_pattern(gpt4, ["Aug 14 2023", "Aug 02 2021"])
        assert pattern == "Aug <digit>{2} <digit>{4}"

    def test_inconsistent_baseline_rejected(self):
        with pytest.raises(TransformError):
            PatternValidator.from_baseline(["a-b", "abc", "12"])


class TestPipelineSearch:
    def _dataset(self):
        import numpy as np

        rng = np.random.default_rng(4)
        n = 36
        col_a = [float(v) if i % 4 else None for i, v in enumerate(rng.normal(100, 15, n))]
        col_b = list(rng.normal(0, 1, n) * 500)
        labels = [int(v > 0) for v in col_b]
        return [col_a, col_b], labels

    def test_search_improves_or_matches_baseline(self, gpt4):
        columns, labels = self._dataset()
        pipeline = PipelineSearcher(gpt4).search(columns, labels)
        assert pipeline.score >= pipeline.baseline_score

    def test_missing_values_force_imputation(self, gpt4):
        columns, labels = self._dataset()
        pipeline = PipelineSearcher(gpt4).search(columns, labels)
        assert "impute_mean" in pipeline.operations

    def test_apply_runs_all_steps(self, gpt4):
        columns, labels = self._dataset()
        pipeline = PipelineSearcher(gpt4).search(columns, labels)
        out = pipeline.apply(columns)
        assert len(out) == len(columns)
        assert all(v is not None for column in out for v in column)

    def test_snippet_cache_limits_llm_calls(self, gpt4):
        columns, labels = self._dataset()
        searcher = PipelineSearcher(gpt4)
        searcher.search(columns, labels)
        calls_first = gpt4.meter.calls
        searcher.search(columns, labels)  # all snippets cached now
        assert gpt4.meter.calls == calls_first

    def test_empty_input_rejected(self, gpt4):
        with pytest.raises(ValueError):
            PipelineSearcher(gpt4).search([], [])
