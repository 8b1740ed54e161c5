"""Cascade and query decomposition tests."""

import pytest

from repro.core.cascade import (
    CascadeClient,
    ConfidenceDecisionModel,
    LearnedDecisionModel,
    completion_features,
)
from repro.core.decompose import (
    QueryOptimizer,
    answer_via_decomposition,
    decompose_nl_question,
    decompose_qa_question,
    recompose_sql,
    shared_subquery_plan,
)
from repro.datasets import generate_hotpot, generate_nl2sql, paper_queries
from repro.datasets.spider import execution_match
from repro.llm import LLMClient


class TestCascade:
    def test_last_stage_always_answers(self):
        client = LLMClient()
        cascade = CascadeClient(
            client, decision_models=[ConfidenceDecisionModel(1.0), ConfidenceDecisionModel(1.0)]
        )
        result = cascade.complete("Question: Who directed The Silent Mirror?")
        assert result.model == "gpt-4"
        assert result.escalations == 2
        assert len(result.attempts) == 3

    def test_zero_threshold_accepts_first(self):
        client = LLMClient()
        cascade = CascadeClient(
            client, decision_models=[ConfidenceDecisionModel(0.0), ConfidenceDecisionModel(0.0)]
        )
        result = cascade.complete("Question: Who directed The Silent Mirror?")
        assert result.model == "babbage-002"
        assert result.escalations == 0

    def test_cost_sums_attempts(self):
        client = LLMClient()
        cascade = CascadeClient(
            client, decision_models=[ConfidenceDecisionModel(1.0), ConfidenceDecisionModel(1.0)]
        )
        result = cascade.complete("Question: Who directed The Silent Mirror?")
        assert result.cost == pytest.approx(sum(a.cost for a in result.attempts))

    def test_decision_model_count_validated(self):
        with pytest.raises(ValueError):
            CascadeClient(LLMClient(), decision_models=[ConfidenceDecisionModel()])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            CascadeClient(LLMClient(), chain=[])

    def test_cascade_cheaper_than_gpt4(self, world):
        examples = generate_hotpot(world, n=15, seed=3)
        direct = LLMClient(model="gpt-4")
        for ex in examples:
            direct.complete("Question: " + ex.question)
        cascade_client = LLMClient()
        cascade = CascadeClient(cascade_client)
        for ex in examples:
            cascade.complete("Question: " + ex.question)
        assert cascade_client.meter.cost < direct.meter.cost

    def test_learned_decision_model(self, world):
        examples = generate_hotpot(world, n=30, seed=4)
        client = LLMClient(model="gpt-3.5-turbo")
        completions, labels = [], []
        for ex in examples:
            completion = client.complete("Question: " + ex.question)
            completions.append(completion)
            labels.append(completion.text == ex.answer)
        model = LearnedDecisionModel().fit(completions, labels)
        # The learned model should do better than chance at separating.
        correct_probs = [model.probability(c) for c, l in zip(completions, labels) if l]
        wrong_probs = [model.probability(c) for c, l in zip(completions, labels) if not l]
        assert sum(correct_probs) / len(correct_probs) > sum(wrong_probs) / len(wrong_probs)

    def test_learned_model_requires_fit(self):
        model = LearnedDecisionModel()
        with pytest.raises(RuntimeError):
            model.probability(None)  # type: ignore[arg-type]

    def test_completion_features_shape(self):
        completion = LLMClient().complete("Question: test")
        assert completion_features(completion).shape == (4,)


class TestNLDecomposition:
    def test_union(self):
        d = decompose_nl_question(
            "What are the names of stadiums that had concerts in 2014 or had sports meetings in 2015?"
        )
        assert d.recompose_op == "UNION"
        assert len(d.sub_questions) == 2
        assert "concerts in 2014" in d.sub_questions[0]
        assert "sports meetings in 2015" in d.sub_questions[1]

    def test_except(self):
        d = decompose_nl_question(
            "Show the names of stadiums that had concerts in 2014 but did not have sports meetings in 2015?"
        )
        assert d.recompose_op == "EXCEPT"

    def test_atomic_passthrough(self):
        d = decompose_nl_question("What are the names of stadiums that had concerts in 2014?")
        assert not d.is_compound
        assert d.sub_questions == (d.question,)

    def test_non_stadium_passthrough(self):
        d = decompose_nl_question("Who directed the film?")
        assert not d.is_compound

    def test_recompose_sql(self):
        assert recompose_sql(["A", "B"], "UNION") == "A UNION B"
        assert recompose_sql(["A"], "UNION") == "A"

    def test_shared_plan_dedups(self):
        plan = shared_subquery_plan([q.question for q in paper_queries()])
        assert plan.total_sub_references == 8
        assert len(plan.unique_sub_questions) == 4
        assert plan.llm_calls_saved == 4
        assert plan.sharing_ratio == 0.5

    def test_sub_questions_translate_correctly(self, concert_db):
        d = decompose_nl_question(
            "What are the names of stadiums that had concerts in 2014 or had sports meetings in 2015?"
        )
        client = LLMClient(model="gpt-4")
        optimizer = QueryOptimizer(client, concert_db.schema_text())
        predictions = optimizer.translate_decomposed([d.question])
        gold = paper_queries()[0].gold_sql
        assert execution_match(concert_db, predictions[0], gold)


class TestQueryOptimizerRegimes:
    @pytest.fixture()
    def setup(self, concert_db):
        workload = generate_nl2sql(n=12, seed=13, compound_fraction=0.9)
        pool = [(e.question, e.gold_sql) for e in generate_nl2sql(n=3, seed=99, include_paper=False)]
        return concert_db, workload, pool

    def test_decomposition_reduces_cost(self, setup):
        db, workload, pool = setup
        questions = [e.question for e in workload]
        origin_client = LLMClient(model="gpt-4")
        QueryOptimizer(origin_client, db.schema_text(), pool).translate_origin(questions)
        decomposed_client = LLMClient(model="gpt-4")
        QueryOptimizer(decomposed_client, db.schema_text(), pool).translate_decomposed(questions)
        assert decomposed_client.meter.cost < origin_client.meter.cost

    def test_combination_reduces_cost_further(self, setup):
        db, workload, pool = setup
        questions = [e.question for e in workload]
        decomposed_client = LLMClient(model="gpt-4")
        QueryOptimizer(decomposed_client, db.schema_text(), pool).translate_decomposed(questions)
        combined_client = LLMClient(model="gpt-4")
        QueryOptimizer(combined_client, db.schema_text(), pool).translate_decomposed_combined(questions)
        assert combined_client.meter.cost < decomposed_client.meter.cost

    def test_all_regimes_return_one_sql_per_question(self, setup):
        db, workload, pool = setup
        questions = [e.question for e in workload]
        for method in ("translate_origin", "translate_decomposed", "translate_decomposed_combined"):
            optimizer = QueryOptimizer(LLMClient(model="gpt-4"), db.schema_text(), pool)
            predictions = getattr(optimizer, method)(questions)
            assert len(predictions) == len(questions)

    def test_combined_same_answers_as_decomposed(self, setup):
        db, workload, pool = setup
        questions = [e.question for e in workload]
        a = QueryOptimizer(LLMClient(model="gpt-4"), db.schema_text(), pool).translate_decomposed(questions)
        b = QueryOptimizer(LLMClient(model="gpt-4"), db.schema_text(), pool).translate_decomposed_combined(
            questions
        )
        # Same prompts (modulo shared prefix) → same deterministic outputs.
        assert a == b


class TestQADecomposition:
    def test_bridge_plan(self):
        plan = decompose_qa_question("Who directed the film that starred Ada Lovelace?")
        assert plan.kind == "bridge"
        assert len(plan.steps) == 2
        assert "{answer}" in plan.steps[1].template

    def test_paraphrase_decomposes_to_same_steps(self):
        canonical = decompose_qa_question("Who directed the film that starred Ada Lovelace?")
        rephrased = decompose_qa_question("The film starring Ada Lovelace was directed by whom?")
        assert [s.template for s in canonical.steps] == [s.template for s in rephrased.steps]

    def test_comparison_plan(self):
        plan = decompose_qa_question("Who was born earlier, Ada or Bob?")
        assert plan.kind == "comparison"
        assert plan.operands == ("Ada", "Bob")

    def test_atomic_plan(self):
        plan = decompose_qa_question("Who directed The Silent Mirror?")
        assert plan.kind == "atomic"
        assert len(plan.steps) == 1

    def test_answer_via_decomposition_matches_gold(self, world):
        client = LLMClient(model="gpt-4")
        bridges = [e for e in generate_hotpot(world, n=20, seed=6) if e.kind == "bridge"]
        hits = sum(
            1 for ex in bridges if answer_via_decomposition(client, ex.question) == ex.answer
        )
        assert hits / len(bridges) >= 0.8

    def test_decomposition_beats_direct_for_weak_model(self, world):
        examples = generate_hotpot(world, n=30, seed=8)
        direct = LLMClient(model="gpt-3.5-turbo")
        direct_acc = sum(
            1 for ex in examples if direct.complete("Question: " + ex.question).text == ex.answer
        ) / len(examples)
        decomposed = LLMClient(model="gpt-3.5-turbo")
        decomposed_acc = sum(
            1
            for ex in examples
            if answer_via_decomposition(decomposed, ex.question) == ex.answer
        ) / len(examples)
        assert decomposed_acc > direct_acc

    def test_custom_sub_answer_fn(self):
        calls = []

        def fake_sub(question):
            calls.append(question)
            return "Stub Film" if "starred" in question else "Stub Director"

        answer = answer_via_decomposition(
            LLMClient(), "Who directed the film that starred Nobody?", sub_answer_fn=fake_sub
        )
        assert answer == "Stub Director"
        assert len(calls) == 2
        assert "Stub Film" in calls[1]
