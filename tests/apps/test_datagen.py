"""Data generation app tests (Section II-A)."""

import pytest

from repro.apps.datagen import (
    ExecutionTimePredictor,
    MissingLabelAnnotator,
    SQLGenerator,
    equivalence_check,
    logic_bug_test,
)
from repro.datasets import generate_patients, generate_timing_workload
from repro.datasets.workloads import build_analytics_db


@pytest.fixture()
def analytics_db():
    return build_analytics_db(seed=0, n_customers=60, n_orders=150)


class TestSQLGenerator:
    def test_generate_produces_validated_queries(self, analytics_db, gpt4):
        generator = SQLGenerator(gpt4, analytics_db)
        results = generator.generate(count=6)
        assert len(results) == 6
        assert all(r.report is not None for r in results)

    def test_generate_validated_reaches_count(self, analytics_db, gpt4):
        generator = SQLGenerator(gpt4, analytics_db)
        valid, total = generator.generate_validated(count=5)
        assert len(valid) == 5
        assert total >= 5
        for generated in valid:
            analytics_db.execute(generated.sql)  # actually runs

    def test_weak_model_emits_more_invalid(self, analytics_db, babbage, gpt4):
        strong_valid = sum(g.valid for g in SQLGenerator(gpt4, analytics_db).generate(8))
        weak_valid = sum(g.valid for g in SQLGenerator(babbage, analytics_db).generate(8))
        assert weak_valid <= strong_valid

    def test_equivalence_check(self, analytics_db):
        assert equivalence_check(
            analytics_db,
            "SELECT name FROM customer WHERE age > 30",
            "SELECT name FROM customer WHERE NOT (age <= 30) AND age IS NOT NULL",
        )
        assert equivalence_check(
            analytics_db,
            "SELECT name FROM customer WHERE age > 30",
            "SELECT name FROM customer WHERE age > 60",
        ) is False
        assert equivalence_check(analytics_db, "garbage", "SELECT 1") is None

    def test_logic_bug_test_clean_engine(self, analytics_db, gpt4):
        report = logic_bug_test(gpt4, analytics_db, n_pairs=4)
        assert report.pairs_tested == 4
        assert not report.bug_found  # our engine has no planted logic bugs


class TestExecutionTimePredictor:
    @pytest.fixture()
    def workload(self, analytics_db):
        return generate_timing_workload(analytics_db, n=40, seed=1)

    def test_prediction_close_to_truth(self, workload, gpt4):
        predictor = ExecutionTimePredictor(gpt4, workload[:30], n_examples=8)
        metrics = predictor.evaluate(workload[30:])
        assert metrics["mean_relative_error"] < 0.25

    def test_weak_model_predicts_worse(self, workload, gpt4, babbage):
        strong = ExecutionTimePredictor(gpt4, workload[:30]).evaluate(workload[30:])
        weak = ExecutionTimePredictor(babbage, workload[:30]).evaluate(workload[30:])
        assert weak["mean_relative_error"] > strong["mean_relative_error"]

    def test_empty_pool_rejected(self, gpt4):
        with pytest.raises(ValueError):
            ExecutionTimePredictor(gpt4, [])

    def test_predict_returns_float(self, workload, gpt4):
        predictor = ExecutionTimePredictor(gpt4, workload[:20])
        value = predictor.predict(workload[25].features)
        assert isinstance(value, float)
        assert value > 0


class TestMissingLabelAnnotator:
    def test_annotates_all_missing(self, gpt4):
        dataset = generate_patients(n=50, seed=3, missing_fraction=0.2)
        result = MissingLabelAnnotator(gpt4).annotate(dataset)
        assert len(result.predictions) == len(dataset.unlabeled_rows())

    def test_accuracy_beats_majority_baseline(self, gpt4):
        dataset = generate_patients(n=80, seed=4, missing_fraction=0.25)
        result = MissingLabelAnnotator(gpt4, n_examples=10).annotate(dataset)
        from collections import Counter

        labels = [r["risk"] for r in dataset.labeled_rows()]
        majority = Counter(labels).most_common(1)[0][0]
        gold = dataset.hidden_labels
        baseline = sum(1 for v in gold.values() if v == majority) / len(gold)
        assert result.accuracy is not None
        assert result.accuracy >= baseline

    def test_requires_labeled_rows(self, gpt4):
        dataset = generate_patients(n=10, seed=5, missing_fraction=1.0)
        with pytest.raises(ValueError):
            MissingLabelAnnotator(gpt4).annotate(dataset)
