"""Experiment implementations for every table and figure in the paper.

Each ``run_*`` function is deterministic given its seed and returns a typed
result whose ``render()`` prints the same rows the paper reports. Absolute
dollar values depend on the simulated pricing but the *shape* — who wins,
by roughly what factor, where the crossovers fall — reproduces the paper
(see EXPERIMENTS.md for the side-by-side record).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bench.reporting import format_table
from repro.core.cache import EvictionPolicy, SemanticCache
from repro.core.cascade import CascadeClient, ConfidenceDecisionModel
from repro.core.decompose import QueryOptimizer, answer_via_decomposition, shared_subquery_plan
from repro.core.prompts.templates import qa_prompt, sqlgen_prompt, table_extract_prompt
from repro.core.validation import SQLValidator
from repro.datasets.hotpot import QAExample, context_passages, generate_hotpot, paraphrase
from repro.datasets.spider import (
    build_concert_db,
    execution_match,
    generate_nl2sql,
    paper_queries,
)
from repro.datasets.workloads import build_analytics_db, generate_timing_workload
from repro.llm.client import LLMClient, default_world
from repro.serving import BatchingScheduler, ServiceStats, build_stack, last_question_key

TABLE1_MODELS = ("babbage-002", "gpt-3.5-turbo", "gpt-4")


def _served_texts(provider: object, prompts: Sequence[str], parallel: bool) -> List[str]:
    """Answer ``prompts`` in order, serially or through the scheduler.

    The parallel path submits the workload to the batching scheduler in
    order and executes with a single dispatch worker, so completions — and
    every stateful layer the provider carries (cache, budget, meter) — are
    bit-identical to the serial loop. This is the determinism contract the
    Table I/III ``parallel=`` flags rely on; it trades execution overlap
    for exact reproducibility (the end-to-end benchmark in
    ``benchmarks/e2e`` measures the throughput side instead).
    """
    if not parallel:
        return [provider.complete(prompt).text for prompt in prompts]
    with BatchingScheduler(provider, workers=1) as served:
        completions = served.complete_many(prompts)
    return [completion.text for completion in completions]


# ===========================================================================
# Table I — LLM cascade on the HotpotQA-like workload
# ===========================================================================


@dataclass
class Table1Result:
    """Rows: (system, accuracy, api_cost)."""

    rows: List[Tuple[str, float, float]]
    n_queries: int

    def render(self) -> str:
        return format_table(
            ["System", "Accuracy", "API Cost ($)"],
            [(name, acc, cost) for name, acc, cost in self.rows],
            title=f"Table I — LLM cascade ({self.n_queries} HotpotQA-like queries)",
        )

    def accuracy(self, system: str) -> float:
        return next(acc for name, acc, _cost in self.rows if name == system)

    def cost(self, system: str) -> float:
        return next(cost for name, _acc, cost in self.rows if name == system)


def run_table1(
    n_queries: int = 40,
    seed: int = 1,
    with_context: bool = True,
    thresholds: Tuple[float, float] = (0.55, 0.52),
    parallel: bool = False,
) -> Table1Result:
    """Reproduce Table I: per-model accuracy/cost plus the cascade row.

    ``parallel=True`` serves each workload through the batching scheduler;
    results are bit-identical to the serial run (see :func:`_served_texts`)."""
    world = default_world()
    examples = generate_hotpot(world, n=n_queries, seed=seed)

    def prompt_of(example: QAExample) -> str:
        context = (
            context_passages(world, example.question, n_distractors=6, seed=seed)
            if with_context
            else None
        )
        return qa_prompt(example.question, context=context)

    prompts = [prompt_of(ex) for ex in examples]
    answers = [ex.answer for ex in examples]
    rows: List[Tuple[str, float, float]] = []
    for model in TABLE1_MODELS:
        client = LLMClient(model=model)
        texts = _served_texts(client, prompts, parallel)
        hits = sum(1 for text, answer in zip(texts, answers) if text == answer)
        rows.append((model, hits / len(examples), round(client.meter.cost, 4)))

    # The cascade row is served through the middleware stack — the same
    # decision models and chain as the ad-hoc CascadeClient, so the routed
    # calls (and therefore the meter) are identical.
    cascade_client = LLMClient()
    stack = build_stack(
        cascade_client,
        chain=TABLE1_MODELS,
        decision_models=[ConfidenceDecisionModel(t) for t in thresholds],
    )
    texts = _served_texts(stack, prompts, parallel)
    hits = sum(1 for text, answer in zip(texts, answers) if text == answer)
    rows.append(("LLM cascade", hits / len(examples), round(cascade_client.meter.cost, 4)))
    return Table1Result(rows=rows, n_queries=len(examples))


# ===========================================================================
# Table II — NL2SQL query decomposition and combination
# ===========================================================================


@dataclass
class Table2Result:
    """Rows: (regime, execution_accuracy, api_cost)."""

    rows: List[Tuple[str, float, float]]
    n_queries: int

    def render(self) -> str:
        return format_table(
            ["Regime", "Accuracy", "API Cost ($)"],
            self.rows,
            title=f"Table II — query decomposition/combination ({self.n_queries} NL2SQL queries)",
        )

    def accuracy(self, regime: str) -> float:
        return next(acc for name, acc, _cost in self.rows if name == regime)

    def cost(self, regime: str) -> float:
        return next(cost for name, _acc, cost in self.rows if name == regime)


def run_table2(
    n_queries: int = 40,
    seed: int = 13,
    n_examples: int = 3,
    compound_fraction: float = 0.8,
) -> Table2Result:
    """Reproduce Table II: Origin vs Decomposition vs +Combination."""
    db = build_concert_db(seed=seed)
    workload = generate_nl2sql(n=n_queries, seed=seed, compound_fraction=compound_fraction)
    questions = [example.question for example in workload]
    example_pool = [
        (e.question, e.gold_sql)
        for e in generate_nl2sql(n=n_examples + 4, seed=seed + 1000, include_paper=False)
    ][:n_examples]
    schema = db.schema_text()

    def evaluate(predictions: Sequence[str]) -> float:
        hits = sum(
            1
            for prediction, example in zip(predictions, workload)
            if execution_match(db, prediction, example.gold_sql)
        )
        return hits / len(workload)

    rows: List[Tuple[str, float, float]] = []

    client = LLMClient(model="gpt-4")
    optimizer = QueryOptimizer(client, schema, examples=example_pool)
    rows.append(("Origin", evaluate(optimizer.translate_origin(questions)), round(client.meter.cost, 4)))

    client = LLMClient(model="gpt-4")
    optimizer = QueryOptimizer(client, schema, examples=example_pool)
    rows.append(
        ("Decomposition", evaluate(optimizer.translate_decomposed(questions)), round(client.meter.cost, 4))
    )

    client = LLMClient(model="gpt-4")
    optimizer = QueryOptimizer(client, schema, examples=example_pool)
    rows.append(
        (
            "Decomposition+Combination",
            evaluate(optimizer.translate_decomposed_combined(questions)),
            round(client.meter.cost, 4),
        )
    )
    return Table2Result(rows=rows, n_queries=len(workload))


# ===========================================================================
# Table III — LLM cache optimization
# ===========================================================================


@dataclass
class Table3Result:
    """Rows: (regime, accuracy, api_cost); plus cache diagnostics."""

    rows: List[Tuple[str, float, float]]
    diagnostics: Dict[str, Dict[str, float]]
    n_instances: int

    def render(self) -> str:
        return format_table(
            ["Regime", "Accuracy", "API Cost ($)"],
            self.rows,
            title=f"Table III — LLM cache ({self.n_instances} query instances)",
        )

    def accuracy(self, regime: str) -> float:
        return next(acc for name, acc, _cost in self.rows if name == regime)

    def cost(self, regime: str) -> float:
        return next(cost for name, _acc, cost in self.rows if name == regime)


def run_table3(
    n_queries: int = 10,
    seed: int = 17,
    model: str = "gpt-4",
    reuse_threshold: float = 0.90,
    parallel: bool = False,
) -> Table3Result:
    """Reproduce Table III: w/o Cache vs Cache(O) vs Cache(A).

    Ten queries are asked twice — the second time *re-phrased* — so the
    semantic (non-exact) matching the paper calls out is what decides hits.
    Cache(O) stores only original queries; Cache(A) answers through
    decomposition and additionally caches canonical sub-queries, which both
    raises accuracy (simpler sub-queries) and survives re-phrasing (the
    paraphrase decomposes into the same canonical sub-questions).

    ``parallel=True`` routes the w/o-Cache and Cache(O) rows through the
    batching scheduler (bit-identical results; see :func:`_served_texts`).
    The Cache(A) row always runs serially: each instance's decomposition
    consults and updates the cache *mid-request*, so its requests are
    inherently sequentially dependent."""
    world = default_world()
    examples = generate_hotpot(world, n=n_queries, seed=seed)
    # (example, phrasing) instances: round 1 canonical, round 2 paraphrased.
    instances: List[Tuple[QAExample, str]] = [(ex, ex.question) for ex in examples]
    instances += [(ex, paraphrase(ex.question)) for ex in examples]

    def full_prompt(question: str) -> str:
        return qa_prompt(
            question, context=context_passages(world, question, n_distractors=6, seed=seed)
        )

    def sub_prompt(question: str) -> str:
        return qa_prompt(
            question, context=context_passages(world, question, n_distractors=5, seed=seed)
        )

    rows: List[Tuple[str, float, float]] = []
    diagnostics: Dict[str, Dict[str, float]] = {}

    prompts = [full_prompt(question) for _ex, question in instances]
    answers = [ex.answer for ex, _question in instances]

    # --- w/o cache --------------------------------------------------------
    client = LLMClient(model=model)
    texts = _served_texts(client, prompts, parallel)
    hits = sum(1 for text, answer in zip(texts, answers) if text == answer)
    rows.append(("w/o Cache", hits / len(instances), round(client.meter.cost, 4)))

    # --- Cache(O): original queries only ------------------------------------
    # Served through the middleware stack: the cache layer keys on the bare
    # question (the trailing "Question:" line of the templated prompt),
    # reproducing the ad-hoc loop's lookup/put sequence call for call.
    client = LLMClient(model=model)
    cache = SemanticCache(
        reuse_threshold=reuse_threshold,
        augment_threshold=reuse_threshold,
        policy=EvictionPolicy.WEIGHTED,
    )
    stack = build_stack(client, cache=cache, cache_key_fn=last_question_key, stats=ServiceStats())
    texts = _served_texts(stack, prompts, parallel)
    hits = sum(1 for text, answer in zip(texts, answers) if text == answer)
    rows.append(("Cache(O)", hits / len(instances), round(client.meter.cost, 4)))
    diagnostics["Cache(O)"] = {
        "reuse_hits": cache.stats.reuse_hits,
        "misses": cache.stats.misses,
        "cost_saved": round(cache.stats.cost_saved, 4),
    }

    # --- Cache(A): original + sub-queries -----------------------------------
    client = LLMClient(model=model)
    cache = SemanticCache(
        reuse_threshold=reuse_threshold,
        augment_threshold=reuse_threshold,
        policy=EvictionPolicy.WEIGHTED,
    )
    hits = 0
    for ex, question in instances:
        lookup = cache.lookup(question)
        if lookup.tier == "reuse" and lookup.entry is not None:
            answer = lookup.entry.response
        else:

            def answer_sub(sub_question: str) -> str:
                sub_lookup = cache.lookup(sub_question)
                if sub_lookup.tier == "reuse" and sub_lookup.entry is not None:
                    return sub_lookup.entry.response
                sub_completion = client.complete(sub_prompt(sub_question))
                cache.put(
                    sub_question, sub_completion.text, kind="sub", cost=sub_completion.cost
                )
                return sub_completion.text

            answer = answer_via_decomposition(
                client, question, model=model, sub_answer_fn=answer_sub
            )
            cache.put(question, answer, kind="original", cost=0.0)
        hits += answer == ex.answer
    rows.append(("Cache(A)", hits / len(instances), round(client.meter.cost, 4)))
    diagnostics["Cache(A)"] = {
        "reuse_hits": cache.stats.reuse_hits,
        "misses": cache.stats.misses,
        "cost_saved": round(cache.stats.cost_saved, 4),
    }
    return Table3Result(rows=rows, diagnostics=diagnostics, n_instances=len(instances))


# ===========================================================================
# Fig 2 — SQL generation scenario
# ===========================================================================


@dataclass
class Fig2Result:
    """Rows: (kind, n_generated, validity_rate)."""

    rows: List[Tuple[str, int, float]]
    model: str

    def render(self) -> str:
        return format_table(
            ["Query kind", "Generated", "Valid rate"],
            self.rows,
            title=f"Fig 2 — constraint-aware SQL generation ({self.model})",
        )

    def validity(self, kind: str) -> float:
        return next(rate for name, _n, rate in self.rows if name == kind)


def run_fig2(count_per_kind: int = 8, seed: int = 0, model: str = "gpt-4") -> Fig2Result:
    """Generate each query kind of Fig 2 and validate against the DBMS."""
    db = build_analytics_db(seed=seed)
    validator = SQLValidator(db)
    client = LLMClient(model=model)
    rows: List[Tuple[str, int, float]] = []
    for kind in ("simple", "join", "subquery", "aggregate"):
        prompt = sqlgen_prompt(db.schema_text(), count_per_kind, [kind])
        completion = client.complete(prompt)
        queries = [q.strip() for q in completion.text.split(";") if q.strip()]
        valid = sum(1 for q in queries if validator.validate(q).valid)
        rows.append((kind, len(queries), valid / len(queries) if queries else 0.0))
    return Fig2Result(rows=rows, model=model)


# ===========================================================================
# Fig 3 — training data generation (execution-time prediction)
# ===========================================================================


@dataclass
class Fig3Result:
    """Rows: (model, n_examples, mean_relative_error)."""

    rows: List[Tuple[str, int, float]]

    def render(self) -> str:
        return format_table(
            ["Model", "Few-shot examples", "Mean relative error"],
            self.rows,
            title="Fig 3 — execution-time prediction from few-shot examples",
        )

    def error(self, model: str, n_examples: int) -> float:
        return next(
            err for m, n, err in self.rows if m == model and n == n_examples
        )


def run_fig3(
    pool_size: int = 32,
    test_size: int = 10,
    example_counts: Sequence[int] = (2, 4, 8, 16),
    models: Sequence[str] = ("gpt-3.5-turbo", "gpt-4"),
    seed: int = 8,
) -> Fig3Result:
    """Prediction error vs few-shot example count, per model."""
    from repro.apps.datagen.traindata import ExecutionTimePredictor

    db = build_analytics_db(seed=seed)
    workload = generate_timing_workload(db, n=pool_size + test_size, seed=seed)
    pool, test = workload[:pool_size], workload[pool_size:]
    rows: List[Tuple[str, int, float]] = []
    for model in models:
        for n_examples in example_counts:
            client = LLMClient(model=model)
            predictor = ExecutionTimePredictor(client, pool, n_examples=n_examples)
            metrics = predictor.evaluate(test)
            rows.append((model, n_examples, round(metrics["mean_relative_error"], 4)))
    return Fig3Result(rows=rows)


# ===========================================================================
# Fig 4 — transformation for tables
# ===========================================================================


@dataclass
class Fig4Result:
    """Rows: (source_format, model, cell_f1)."""

    rows: List[Tuple[str, str, float]]

    def render(self) -> str:
        return format_table(
            ["Source", "Model", "Cell F1"],
            self.rows,
            title="Fig 4 — semi-structured to relational transformation",
        )

    def f1(self, source: str, model: str) -> float:
        return next(v for s, m, v in self.rows if s == source and m == model)


def _fig4_documents(n_docs: int, seed: int) -> List[Tuple[str, str, "object"]]:
    """(format, document, gold Grid) triples: JSON, XML and spreadsheets."""
    from repro._util import rng_from
    from repro.apps.transform.tables import render_json_records, render_xml_records
    from repro.tablekit import Grid

    rng = rng_from(seed)
    docs: List[Tuple[str, str, object]] = []
    products = ["laptop", "monitor", "keyboard", "mouse", "dock", "webcam"]
    for i in range(n_docs):
        records = [
            {
                "item": products[int(rng.integers(0, len(products)))] + f"-{j}",
                "qty": int(rng.integers(1, 20)),
                "price": int(rng.integers(10, 900)),
            }
            for j in range(3 + i % 3)
        ]
        gold = Grid(
            [[r["item"], str(r["qty"]), str(r["price"])] for r in records],
            header=["item", "qty", "price"],
        )
        if i % 2 == 0:
            docs.append(("json", render_json_records(records), gold))
        else:
            docs.append(("xml", render_xml_records("orders", "order", records), gold))
    return docs


def run_fig4(
    n_docs: int = 8, seed: int = 4, models: Sequence[str] = ("gpt-3.5-turbo", "gpt-4")
) -> Fig4Result:
    """Cell-level F1 of direct LLM extraction, per source format and model."""
    from repro.tablekit.grid import cell_f1
    from repro.llm.engines.transform import parse_rendered_table
    from repro.tablekit import Grid

    docs = _fig4_documents(n_docs, seed)
    rows: List[Tuple[str, str, float]] = []
    for model in models:
        client = LLMClient(model=model)
        scores: Dict[str, List[float]] = {}
        for source, document, gold in docs:
            completion = client.complete(table_extract_prompt(document))
            columns, cells = parse_rendered_table(completion.text)
            predicted = Grid(cells, header=columns) if columns else Grid([])
            scores.setdefault(source, []).append(cell_f1(predicted, gold))
        for source in sorted(scores):
            values = scores[source]
            rows.append((source, model, round(sum(values) / len(values), 4)))
    return Fig4Result(rows=rows)


# ===========================================================================
# Fig 1 — the application pipeline, end to end
# ===========================================================================


@dataclass
class Fig1Result:
    """One row per pipeline stage: (stage, detail, ok)."""

    stages: List[Tuple[str, str, bool]]

    def render(self) -> str:
        rows = [(stage, "ok" if ok else "FAILED", detail) for stage, detail, ok in self.stages]
        return format_table(
            ["Pipeline stage", "Status", "Detail"],
            rows,
            title="Fig 1 — data management pipeline with LLMs",
        )

    @property
    def all_ok(self) -> bool:
        return all(ok for _stage, _detail, ok in self.stages)


def run_fig1(seed: int = 0) -> Fig1Result:
    """Run generation → transformation → integration → exploration once."""
    from repro.apps.datagen.sqlgen import SQLGenerator
    from repro.apps.explore.lake import MultiModalLake
    from repro.apps.integrate.entity_resolution import EntityResolver
    from repro.apps.transform.tables import json_to_grid, render_json_records

    client = LLMClient(model="gpt-4")
    stages: List[Tuple[str, str, bool]] = []

    db = build_concert_db(seed=seed)
    generated, total = SQLGenerator(client, db).generate_validated(count=3)
    stages.append(
        ("data generation", f"{len(generated)} valid SQL queries of {total} generated", len(generated) == 3)
    )

    feed = render_json_records(
        [{"name": "Apollo Arena", "city": "North District"},
         {"name": "Beacon Field", "city": "Harbor"}]
    )
    table = json_to_grid(client, feed)
    transform_ok = table.grid.header == ["name", "city"] and table.grid.n_rows == 2
    stages.append(("data transformation", f"JSON feed -> {table.grid.n_rows}x{table.grid.n_cols} table", transform_ok))

    resolver = EntityResolver(client)
    match = resolver.resolve("name: Apollo Arena", "name: Apollo Arena Stadium")
    stages.append(("data integration", f"entity match resolved: {match}", True))

    lake = MultiModalLake(client)
    lake.add_table_rows(
        "stadium", ["name", "city"], [[str(c) for c in row] for row in table.grid.cells]
    )
    hit = lake.query("Apollo Arena stadium", k=1)
    explore_ok = bool(hit.items) and "Apollo Arena" in hit.items[0].content
    stages.append(("data exploration", "lake retrieves the integrated record", explore_ok))
    return Fig1Result(stages=stages)


# ===========================================================================
# Fig 5 — challenges overview (module inventory)
# ===========================================================================


@dataclass
class Fig5Result:
    """The challenge → implementation mapping the figure sketches."""

    rows: List[Tuple[str, str, int]]  # (challenge, module, public symbols)

    def render(self) -> str:
        return format_table(
            ["Challenge (Section III)", "Module", "Public symbols"],
            self.rows,
            title="Fig 5 — challenges and where each is implemented",
        )


def _public_symbols(module) -> int:
    """A module's ``__all__``, or else the public names its own top level
    defines (functions, classes, assigned names): imports never count."""
    public = getattr(module, "__all__", None)
    if public is not None:
        return len(public)
    import ast
    import inspect

    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
            )
    return sum(not name.startswith("_") for name in names)


def run_fig5() -> Fig5Result:
    """Build the challenges inventory by introspecting the core modules."""
    import importlib

    mapping = [
        ("LLM prompt optimization (III-A)", "repro.core.prompts"),
        ("LLM query optimization (III-B)", "repro.core.cascade"),
        ("  - decomposition/combination", "repro.core.decompose"),
        ("  - multi-modal hybrid query", "repro.core.hybrid"),
        ("LLM cache optimization (III-C)", "repro.core.cache"),
        ("LLM security & privacy (III-D)", "repro.core.privacy"),
        ("LLM output validation (III-E)", "repro.core.validation"),
    ]
    rows: List[Tuple[str, str, int]] = []
    for challenge, module_name in mapping:
        module = importlib.import_module(module_name)
        rows.append((challenge, module_name, _public_symbols(module)))
    return Fig5Result(rows=rows)


# ===========================================================================
# Fig 6 — cascade routing procedure
# ===========================================================================


@dataclass
class Fig6Result:
    """Routing distribution: how many queries each stage answered."""

    answered_by: Dict[str, int]
    accuracy: float
    cascade_cost: float
    gpt4_cost: float

    def render(self) -> str:
        rows = [(model, count) for model, count in self.answered_by.items()]
        table = format_table(
            ["Answered by", "Queries"],
            rows,
            title="Fig 6 — cascade routing distribution",
        )
        return (
            f"{table}\n"
            f"accuracy {self.accuracy:.3f}; cascade ${self.cascade_cost:.4f} "
            f"vs all-gpt-4 ${self.gpt4_cost:.4f}"
        )


def run_fig6(n_queries: int = 20, seed: int = 41) -> Fig6Result:
    """Trace the cascade's routing on a QA workload."""
    world = default_world()
    examples = generate_hotpot(world, n=n_queries, seed=seed)
    cascade_client = LLMClient()
    cascade = CascadeClient(
        cascade_client,
        decision_models=[ConfidenceDecisionModel(0.55), ConfidenceDecisionModel(0.52)],
    )
    baseline = LLMClient(model="gpt-4")
    answered_by: Dict[str, int] = {model: 0 for model in TABLE1_MODELS}
    hits = 0
    for example in examples:
        prompt = qa_prompt(example.question)
        result = cascade.complete(prompt)
        baseline.complete(prompt)
        answered_by[result.model] = answered_by.get(result.model, 0) + 1
        hits += result.text == example.answer
    return Fig6Result(
        answered_by=answered_by,
        accuracy=hits / len(examples),
        cascade_cost=round(cascade_client.meter.cost, 4),
        gpt4_cost=round(baseline.meter.cost, 4),
    )


# ===========================================================================
# Fig 7 — query decomposition sharing structure
# ===========================================================================


@dataclass
class Fig7Result:
    """The Q1-Q5 sharing structure the figure illustrates."""

    per_query: List[Tuple[str, int]]  # (question, n sub-queries)
    total_sub_references: int
    unique_sub_queries: int
    llm_calls_saved: int

    def render(self) -> str:
        lines = ["Fig 7 — sub-query sharing across the paper's Q1-Q5"]
        for question, n_subs in self.per_query:
            lines.append(f"  [{n_subs} sub-queries] {question}")
        lines.append(
            f"  total sub-query references: {self.total_sub_references}; "
            f"unique: {self.unique_sub_queries}; LLM calls saved: {self.llm_calls_saved}"
        )
        return "\n".join(lines)


def run_fig7() -> Fig7Result:
    """Compute the Fig 7 decomposition graph for the paper's Q1-Q5."""
    questions = [example.question for example in paper_queries()]
    plan = shared_subquery_plan(questions)
    per_query = [
        (decomposition.question, len(decomposition.sub_questions))
        for decomposition in plan.decompositions
    ]
    return Fig7Result(
        per_query=per_query,
        total_sub_references=plan.total_sub_references,
        unique_sub_queries=len(plan.unique_sub_questions),
        llm_calls_saved=plan.llm_calls_saved,
    )
