"""Shape tests for the experiment harness: the paper's qualitative claims.

These assert the *shape* of each result — orderings and rough ratios — not
absolute numbers (see DESIGN.md §6). They are the regression net keeping the
reproduction honest as the library evolves.
"""

import pytest

from repro.bench import (
    format_table,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig7,
    run_table1,
    run_table2,
    run_table3,
)


@pytest.fixture(scope="module")
def table1():
    return run_table1()


@pytest.fixture(scope="module")
def table2():
    return run_table2()


@pytest.fixture(scope="module")
def table3():
    return run_table3()


class TestTable1Shape:
    def test_accuracy_rises_with_model_cost(self, table1):
        assert (
            table1.accuracy("babbage-002")
            < table1.accuracy("gpt-3.5-turbo")
            < table1.accuracy("gpt-4")
        )

    def test_babbage_near_paper_value(self, table1):
        # Paper: 27.5%.
        assert abs(table1.accuracy("babbage-002") - 0.275) <= 0.15

    def test_gpt4_near_paper_value(self, table1):
        # Paper: 92.5%.
        assert abs(table1.accuracy("gpt-4") - 0.925) <= 0.08

    def test_cascade_close_to_gpt4_accuracy(self, table1):
        assert table1.accuracy("LLM cascade") >= table1.accuracy("gpt-4") - 0.05

    def test_cascade_significantly_cheaper(self, table1):
        assert table1.cost("LLM cascade") <= 0.7 * table1.cost("gpt-4")

    def test_cost_ordering(self, table1):
        assert table1.cost("babbage-002") < table1.cost("gpt-3.5-turbo") < table1.cost("gpt-4")

    def test_render(self, table1):
        text = table1.render()
        assert "LLM cascade" in text and "gpt-4" in text


class TestTable2Shape:
    def test_decomposition_improves_accuracy(self, table2):
        assert table2.accuracy("Decomposition") > table2.accuracy("Origin")

    def test_combination_preserves_accuracy(self, table2):
        assert table2.accuracy("Decomposition+Combination") == pytest.approx(
            table2.accuracy("Decomposition"), abs=0.05
        )

    def test_costs_strictly_decrease(self, table2):
        assert (
            table2.cost("Origin")
            > table2.cost("Decomposition")
            > table2.cost("Decomposition+Combination")
        )

    def test_origin_near_paper_value(self, table2):
        # Paper: 79%.
        assert abs(table2.accuracy("Origin") - 0.79) <= 0.12

    def test_decomposition_near_paper_value(self, table2):
        # Paper: 91%.
        assert abs(table2.accuracy("Decomposition") - 0.91) <= 0.10


class TestTable3Shape:
    def test_caching_reduces_cost(self, table3):
        assert table3.cost("Cache(O)") < table3.cost("w/o Cache")
        assert table3.cost("Cache(A)") < table3.cost("w/o Cache")

    def test_cache_o_preserves_accuracy(self, table3):
        assert table3.accuracy("Cache(O)") == pytest.approx(
            table3.accuracy("w/o Cache"), abs=0.1
        )

    def test_cache_a_improves_accuracy(self, table3):
        assert table3.accuracy("Cache(A)") > table3.accuracy("Cache(O)")

    def test_sub_query_cache_hits_more(self, table3):
        assert (
            table3.diagnostics["Cache(A)"]["reuse_hits"]
            > table3.diagnostics["Cache(O)"]["reuse_hits"]
        )


class TestFigures:
    def test_fig2_validity_high_for_gpt4(self):
        result = run_fig2(count_per_kind=6)
        for kind in ("simple", "join", "subquery", "aggregate"):
            assert result.validity(kind) >= 0.5

    def test_fig3_more_examples_help_weak_model(self):
        result = run_fig3(example_counts=(2, 16), models=("gpt-3.5-turbo",))
        assert result.error("gpt-3.5-turbo", 16) <= result.error("gpt-3.5-turbo", 2)

    def test_fig3_strong_model_lower_error(self):
        result = run_fig3(example_counts=(8,), models=("gpt-3.5-turbo", "gpt-4"))
        assert result.error("gpt-4", 8) <= result.error("gpt-3.5-turbo", 8) + 0.02

    def test_fig4_gpt4_beats_gpt35(self):
        result = run_fig4(n_docs=6)
        for source in ("json", "xml"):
            assert result.f1(source, "gpt-4") >= result.f1(source, "gpt-3.5-turbo")

    def test_fig4_gpt4_high_f1(self):
        result = run_fig4(n_docs=6)
        assert result.f1("json", "gpt-4") >= 0.9

    def test_fig1_pipeline_all_stages_ok(self):
        from repro.bench import run_fig1

        result = run_fig1()
        assert result.all_ok
        assert len(result.stages) == 4

    def test_fig5_covers_all_five_challenges(self):
        from repro.bench import run_fig5

        result = run_fig5()
        challenges = [row[0] for row in result.rows]
        for section in ("III-A", "III-B", "III-C", "III-D", "III-E"):
            assert any(section in c for c in challenges)
        assert all(count > 0 for _c, _m, count in result.rows)

    def test_fig5_counts_only_names_the_module_defines(self, monkeypatch):
        import importlib
        import typing

        from repro.bench import run_fig5

        before = run_fig5().rows
        counts = {module: count for _c, module, count in before}
        # repro.core.cache defines these nine at its top level; its imports
        # (EmbeddingModel, FlatIndex, Optional, ...) are not its symbols.
        assert counts["repro.core.cache"] == 9
        # An added import binds one more public name in every module
        # without __all__; no row may move.
        for _challenge, module_name, _count in before:
            module = importlib.import_module(module_name)
            if not hasattr(module, "__all__"):
                monkeypatch.setattr(module, "Union", typing.Union, raising=False)
                monkeypatch.setattr(module, "importlib", importlib, raising=False)
        assert run_fig5().rows == before

    def test_fig6_routing_distribution(self):
        from repro.bench import run_fig6

        result = run_fig6(n_queries=15)
        assert sum(result.answered_by.values()) == 15
        # The middle model handles the bulk; the cascade saves money.
        assert result.answered_by["gpt-3.5-turbo"] >= result.answered_by["babbage-002"]
        assert result.cascade_cost < result.gpt4_cost
        assert result.accuracy >= 0.8

    def test_fig7_sharing_structure(self):
        result = run_fig7()
        assert result.total_sub_references == 8
        assert result.unique_sub_queries == 4
        assert result.llm_calls_saved == 4
        assert "Q1" not in result.render() or True  # render never raises


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.23456], ["yyyy", 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text

    def test_format_table_small_floats(self):
        text = format_table(["v"], [[0.00042]])
        assert "0.00042" in text
