"""Tests: min-cost covering-set decomposition and cache admission."""

import pytest

from repro.core.cache import AdmissionPredictor, SemanticCache
from repro.core.decompose import QueryOptimizer
from repro.datasets import generate_nl2sql, paper_queries
from repro.datasets.spider import execution_match
from repro.llm import LLMClient


class TestMinCostPlan:
    def _optimizer(self, db, client=None):
        pool = [(e.question, e.gold_sql) for e in generate_nl2sql(n=3, seed=99, include_paper=False)]
        return QueryOptimizer(client or LLMClient(model="gpt-4"), db.schema_text(), pool)

    def test_isolated_compound_goes_direct(self, concert_db):
        # One compound with no sharing anywhere: decomposing costs two
        # prefix-bearing calls vs one — direct must win.
        client = LLMClient(model="gpt-4")
        optimizer = self._optimizer(concert_db, client)
        questions = [paper_queries()[0].question]
        _sqls, stats = optimizer.translate_min_cost(questions)
        assert stats == {"decomposed": 0, "direct": 1}

    def test_shared_compounds_get_decomposed(self, concert_db):
        client = LLMClient(model="gpt-4")
        optimizer = self._optimizer(concert_db, client)
        # The paper's Q1/Q4/Q5 share both sub-queries pairwise.
        questions = [q.question for q in paper_queries() if q.recompose_op]
        _sqls, stats = optimizer.translate_min_cost(questions)
        assert stats["decomposed"] >= 2

    def test_min_cost_between_origin_and_decomposed(self, concert_db):
        workload = generate_nl2sql(n=20, seed=7, compound_fraction=0.7)
        questions = [e.question for e in workload]

        def cost_of(method):
            client = LLMClient(model="gpt-4")
            optimizer = self._optimizer(concert_db, client)
            result = getattr(optimizer, method)(questions)
            if method == "translate_min_cost":
                result = result[0]
            assert len(result) == len(questions)
            return client.meter.cost

        origin = cost_of("translate_origin")
        min_cost = cost_of("translate_min_cost")
        assert min_cost <= origin

    def test_min_cost_output_correctness(self, concert_db):
        workload = generate_nl2sql(n=12, seed=5, compound_fraction=0.8)
        client = LLMClient(model="gpt-4")
        optimizer = self._optimizer(concert_db, client)
        sqls, _stats = optimizer.translate_min_cost([e.question for e in workload])
        accuracy = sum(
            execution_match(concert_db, sql, e.gold_sql) for sql, e in zip(sqls, workload)
        ) / len(workload)
        assert accuracy >= 0.7


class TestAdmissionPredictor:
    def test_first_occurrence_rejected(self):
        predictor = AdmissionPredictor()
        assert not predictor.should_admit("a brand new query about stadiums")

    def test_second_occurrence_admitted(self):
        predictor = AdmissionPredictor()
        predictor.should_admit("repeated query about stadium concerts")
        assert predictor.should_admit("repeated query about stadium concerts")

    def test_paraphrase_counts_as_seen(self):
        predictor = AdmissionPredictor(similarity_threshold=0.8)
        predictor.should_admit("Who was born earlier, Ada Lovelace or Bob Noyce?")
        assert predictor.should_admit("Between Ada Lovelace and Bob Noyce, who was born earlier?")

    def test_subqueries_always_admitted(self):
        predictor = AdmissionPredictor()
        assert predictor.should_admit("a sub question never seen before", kind="sub")

    def test_history_bounded(self):
        predictor = AdmissionPredictor(history=5)
        for i in range(20):
            predictor.observe(f"filler query number {i}")
        assert len(predictor._seen) == 5

    def test_invalid_history(self):
        with pytest.raises(ValueError):
            AdmissionPredictor(history=0)

    def test_cache_respects_admission(self):
        cache = SemanticCache(capacity=8, admission=AdmissionPredictor())
        assert cache.put("one-off query alpha", "a") is None
        assert cache.admission_rejects == 1
        assert "one-off query alpha" not in cache
        # A repeated query gets through on its second put attempt.
        cache.put("hot query beta", "b")
        entry = cache.put("hot query beta gamma", "b")  # near-duplicate traffic
        assert cache.admission_rejects >= 1

    def test_admission_protects_hot_set_under_pressure(self):
        """With many one-off queries, admission keeps the hot set cached."""
        hot = [f"hot question {i} about films" for i in range(3)]

        def hit_value(with_admission):
            cache = SemanticCache(
                capacity=4,
                admission=AdmissionPredictor() if with_admission else None,
            )
            # Warm the doorkeeper + cache with two passes over the hot set.
            for _round in range(2):
                for query in hot:
                    if cache.lookup(query).tier != "reuse":
                        cache.put(query, "a")
            # Cold flood.
            for i in range(12):
                query = f"cold one-off query {i} about something else entirely"
                if cache.lookup(query).tier != "reuse":
                    cache.put(query, "a")
            # Value round: hot set again.
            return sum(1 for q in hot if cache.lookup(q).tier == "reuse")

        assert hit_value(True) >= hit_value(False)
        assert hit_value(True) == len(hot)
