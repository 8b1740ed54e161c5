"""Tests: LLM-routed pipeline recommendation (II-B4) and usage reporting."""

import numpy as np

from repro.apps.transform import PipelineSearcher
from repro.apps.transform.pipeline import profile_dataset, recommendation_prompt, recommend_operations
from repro.llm import LLMClient


def dataset():
    rng = np.random.default_rng(9)
    n = 32
    col_a = [float(v) if i % 4 else None for i, v in enumerate(rng.normal(100, 15, n))]
    col_b = list(rng.normal(0, 1, n) * 400)
    labels = [int(v > 0) for v in col_b]
    return [col_a, col_b], labels


class TestRecommendationEngine:
    def test_engine_answers_recommendation_prompt(self, gpt4):
        profile = {"has_missing": True, "skewed": False, "outliers": False, "scale_spread": True}
        completion = gpt4.complete(recommendation_prompt(profile))
        assert completion.engine == "codegen"
        ops = [op.strip() for op in completion.text.split(",")]
        assert "impute_mean" in ops
        assert "standardize" in ops or "normalize" in ops

    def test_engine_agrees_with_direct_mapping(self, gpt4):
        profile = {"has_missing": True, "skewed": True, "outliers": True, "scale_spread": False}
        completion = gpt4.complete(recommendation_prompt(profile))
        assert completion.text == ", ".join(recommend_operations(profile))

    def test_empty_profile_defaults(self, gpt4):
        completion = gpt4.complete(recommendation_prompt({"has_missing": False}))
        assert "standardize" in completion.text


class TestLLMRecommendedSearch:
    def test_llm_recommendation_path(self, gpt4):
        columns, labels = dataset()
        searcher = PipelineSearcher(gpt4, llm_recommendation=True)
        calls_before = gpt4.meter.calls
        pipeline = searcher.search(columns, labels)
        assert gpt4.meter.calls > calls_before  # the recommendation was an LLM call
        assert pipeline.score >= pipeline.baseline_score
        assert "impute_mean" in pipeline.operations

    def test_llm_and_direct_agree_for_strong_model(self, gpt4):
        columns, labels = dataset()
        direct = PipelineSearcher(LLMClient(model="gpt-4")).search(columns, labels)
        routed = PipelineSearcher(LLMClient(model="gpt-4"), llm_recommendation=True).search(
            columns, labels
        )
        assert routed.operations == direct.operations

    def test_profile_detects_missing(self):
        columns, _labels = dataset()
        profile = profile_dataset(columns)
        assert profile["has_missing"]


class TestUsageReport:
    def test_report_contains_models_and_total(self, gpt4):
        gpt4.complete("Question: Who directed The Silent Mirror?")
        gpt4.complete("Question: Who directed The Hidden Meridian?", model="babbage-002")
        report = gpt4.meter.report()
        assert "gpt-4" in report
        assert "babbage-002" in report
        assert "TOTAL" in report
        assert report.splitlines()[-1].split()[1] == "2"
