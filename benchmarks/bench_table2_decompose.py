"""Table II bench: NL2SQL query decomposition and combination.

Paper values: Origin 79% / $0.435 → Decomposition 91% / $0.289 →
+Combination 91% / $0.129. The reproduction matches the orderings and the
direction of every delta (accuracy up, cost sharply down).
"""

from repro.bench import run_table2


def test_table2_decomposition_and_combination(once):
    result = once(run_table2)
    print()
    print(result.render())
    assert result.accuracy("Decomposition") > result.accuracy("Origin")
    assert result.accuracy("Decomposition+Combination") == result.accuracy("Decomposition")
    assert (
        result.cost("Origin")
        > result.cost("Decomposition")
        > result.cost("Decomposition+Combination")
    )


def test_table2_min_cost_plan(once):
    """Extension of Table II: the paper's open 'minimum-cost covering set'
    algorithm — decompose only where sharing amortizes the extra calls."""
    from repro.core.decompose import QueryOptimizer
    from repro.datasets import build_concert_db, generate_nl2sql
    from repro.llm import LLMClient

    db = build_concert_db(seed=13)
    workload = generate_nl2sql(n=30, seed=13, compound_fraction=0.7)
    questions = [e.question for e in workload]
    pool = [(e.question, e.gold_sql) for e in generate_nl2sql(n=3, seed=1013, include_paper=False)]

    def run():
        costs = {}
        for method in ("translate_origin", "translate_decomposed", "translate_min_cost"):
            client = LLMClient(model="gpt-4")
            optimizer = QueryOptimizer(client, db.schema_text(), pool)
            result = getattr(optimizer, method)(questions)
            if method == "translate_min_cost":
                _sqls, stats = result
                costs["min_cost_stats"] = stats
            costs[method] = client.meter.cost
        return costs

    costs = once(run)
    print(
        f"\norigin ${costs['translate_origin']:.3f}  "
        f"always-decompose ${costs['translate_decomposed']:.3f}  "
        f"min-cost ${costs['translate_min_cost']:.3f}  "
        f"(plan: {costs['min_cost_stats']})"
    )
    assert costs["translate_min_cost"] <= costs["translate_origin"]
    # The plan actually mixes both strategies on this workload.
    assert costs["min_cost_stats"]["decomposed"] > 0
    assert costs["min_cost_stats"]["direct"] > 0


def test_table2_scales_with_overlap(once):
    """With fewer overlapping compounds the decomposition saving shrinks:
    sharing is the mechanism, so less sharing must mean less saving."""
    from repro.bench.experiments import run_table2 as run

    overlapping = run(n_queries=30, compound_fraction=0.9)
    sparse = once(run, n_queries=30, compound_fraction=0.2)
    saving_overlapping = overlapping.cost("Origin") - overlapping.cost("Decomposition")
    saving_sparse = sparse.cost("Origin") - sparse.cost("Decomposition")
    assert saving_overlapping > saving_sparse
