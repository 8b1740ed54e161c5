"""End-to-end integration tests: the Fig 1 pipeline and cross-module flows.

Each test exercises several subsystems together, asserting the *outcome*
(balances moved, labels filled, right record retrieved), not internals.
"""

from repro.apps.datagen import MissingLabelAnnotator, SQLGenerator
from repro.apps.explore import LLMDatabase, MultiModalLake
from repro.apps.explore.llmdb import film_virtual_table
from repro.apps.integrate import DataCleaner, EntityResolver
from repro.apps.transform import (
    NL2SQLTranslator,
    NL2TransactionTranslator,
    Payment,
    json_to_grid,
)
from repro.apps.transform.tables import render_json_records
from repro.apps.transform.transaction import make_accounts_db
from repro.core.cascade import CascadeClient
from repro.core.decompose import QueryOptimizer
from repro.core.prompts.templates import qa_prompt
from repro.datasets import (
    build_concert_db,
    generate_hotpot,
    generate_lake,
    generate_nl2sql,
    generate_patients,
)
from repro.datasets.spider import execution_match
from repro.llm import LLMClient
from repro.serving import build_stack


class TestFig1Pipeline:
    """Generation → transformation → integration → exploration."""

    def test_full_pipeline(self, world, gpt4):
        # 1. Generation: validated SQL against a live database.
        db = build_concert_db()
        generated, _total = SQLGenerator(gpt4, db).generate_validated(count=3)
        assert len(generated) == 3

        # 2. Transformation: JSON feed → relational grid.
        feed = render_json_records(
            [{"name": "Apollo Arena", "city": "North District"},
             {"name": "Beacon Field", "city": "Harbor"}]
        )
        table = json_to_grid(gpt4, feed)
        assert table.grid.header == ["name", "city"]

        # 3. Integration: resolve the extracted rows against the database.
        resolver = EntityResolver(gpt4)
        db_names = [row[0] for row in db.query("SELECT name FROM stadium")]
        extracted_name = table.grid.cells[0][0]
        matches = [n for n in db_names if resolver.resolve(f"name: {extracted_name}", f"name: {n}")]
        assert "Apollo Arena" in matches

        # 4. Exploration: the integrated record is findable in the lake.
        lake = MultiModalLake(gpt4)
        lake.add_table_rows("stadium", ["name", "city"],
                            [list(map(str, row)) for row in table.grid.cells])
        hit = lake.query("Apollo Arena stadium", k=1)
        assert "Apollo Arena" in hit.items[0].content


class TestCostStackComposition:
    """Cascade + cache + decomposition compose into one serving stack."""

    def test_cached_cascade_workload(self, world):
        examples = generate_hotpot(world, n=10, seed=81)
        client = LLMClient()
        cascade = CascadeClient(client)
        cache = {}
        hits = 0
        cost_first = 0.0
        # First pass: everything goes through the cascade.
        for ex in examples:
            result = cascade.complete(qa_prompt(ex.question))
            cache[ex.question] = result.text
            hits += result.text == ex.answer
        cost_first = client.meter.cost
        # Second pass: the (exact) cache absorbs every query.
        for ex in examples:
            assert ex.question in cache
        assert client.meter.cost == cost_first  # no new spend
        assert hits >= 8

    def test_decompose_then_execute(self, concert_db):
        workload = generate_nl2sql(n=10, seed=82, compound_fraction=1.0, include_paper=False)
        client = LLMClient(model="gpt-4")
        optimizer = QueryOptimizer(client, concert_db.schema_text())
        predictions = optimizer.translate_decomposed([e.question for e in workload])
        accuracy = sum(
            execution_match(concert_db, p, e.gold_sql) for p, e in zip(predictions, workload)
        ) / len(workload)
        assert accuracy >= 0.8

    def test_semantic_cache_in_front_of_llm(self, gpt4):
        cached = build_stack(gpt4, cache=True)
        prompt = qa_prompt("Who directed The Silent Mirror?")
        first = cached.complete(prompt)
        second = cached.complete(prompt)
        assert "serving.cache" not in first.metadata
        assert second.metadata["serving.cache"]["tier"] == "reuse"
        assert (first.cost > 0, second.cost) == (True, 0.0)
        assert first.text == second.text


class TestHealthcareFlow:
    def test_annotate_then_clean(self, gpt4):
        dataset = generate_patients(n=50, seed=83, missing_fraction=0.2)
        annotation = MissingLabelAnnotator(gpt4).annotate(dataset)
        assert annotation.accuracy is not None and annotation.accuracy >= 0.5
        # Apply the annotations, then the cleaner should find nothing missing.
        rows = [dict(r) for r in dataset.rows]
        for index, label in annotation.predictions:
            rows[index]["risk"] = label
        cleaner = DataCleaner(gpt4)
        errors = cleaner.detect(rows, ["age", "bmi", "smoker", "risk"])
        assert not any(e.kind == "missing" and e.column == "risk" for e in errors)


class TestFinanceFlow:
    def test_transaction_atomicity_under_failure(self, gpt4):
        db = make_accounts_db({"Ann": 100.0, "Ben": 0.0})
        translator = NL2TransactionTranslator(gpt4, db)
        result = translator.translate([Payment("Ann", "Ben", 40)])
        assert result.applied
        total = db.query_scalar("SELECT SUM(balance) FROM accounts")
        assert total == 100.0

    def test_nl2sql_to_report(self, concert_db, gpt4):
        translator = NL2SQLTranslator(gpt4, concert_db)
        result = translator.translate(
            "What are the names of stadiums that had concerts in 2014?"
        )
        rows = concert_db.query(result.sql)
        gold = concert_db.query(
            "SELECT DISTINCT s.name FROM stadium s JOIN concert e "
            "ON s.stadium_id = e.stadium_id WHERE e.year = 2014"
        )
        assert sorted(rows) == sorted(gold)


class TestExplorationFlow:
    def test_lake_and_llmdb_agree(self, world, gpt4):
        # The lake retrieves a film row; LLM-as-DB answers the same fact.
        lake = MultiModalLake(gpt4)
        lake.add_items(generate_lake(world, seed=2))
        film = world.films[0]
        director = str(world.kb.one(film, "directed_by"))

        llmdb = LLMDatabase(gpt4)
        llmdb.register(film_virtual_table([film]))
        row = llmdb.execute("SELECT director FROM films").rows[0]
        assert row[0] == director
