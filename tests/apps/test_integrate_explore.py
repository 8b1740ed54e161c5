"""Integration and exploration app tests (Sections II-C, II-D)."""

import pytest

from repro.apps.explore import LLMDatabase, MultiModalLake
from repro.apps.explore.llmdb import film_virtual_table
from repro.apps.integrate import (
    ColumnTypeAnnotator,
    DataCleaner,
    EntityResolver,
    SchemaMatcher,
    TableUnderstanding,
    similarity_baseline,
)
from repro.apps.integrate.schema_matching import ColumnSpec
from repro.datasets import generate_column_corpus, generate_er_pairs, generate_lake
from repro.sqldb.types import SQLType


class TestEntityResolution:
    def test_high_accuracy_with_strong_model(self, gpt4):
        pairs = generate_er_pairs(n=40, seed=1)
        metrics = EntityResolver(gpt4).evaluate(pairs)
        assert metrics.accuracy >= 0.8
        assert metrics.f1 >= 0.75

    def test_weak_model_worse(self, gpt4, babbage):
        pairs = generate_er_pairs(n=40, seed=1)
        strong = EntityResolver(gpt4).evaluate(pairs)
        weak = EntityResolver(babbage).evaluate(pairs)
        assert weak.accuracy < strong.accuracy

    def test_hardness_stratification(self, gpt4):
        pairs = generate_er_pairs(n=60, seed=2)
        by_hardness = EntityResolver(gpt4).evaluate_by_hardness(pairs)
        assert set(by_hardness) == {"easy", "hard"}
        assert by_hardness["easy"].accuracy >= by_hardness["hard"].accuracy

    def test_similarity_baseline_reasonable(self):
        pairs = generate_er_pairs(n=60, seed=3)
        metrics = similarity_baseline(pairs)
        assert metrics.accuracy > 0.6

    def test_resolve_single_pair(self, gpt4):
        assert EntityResolver(gpt4).resolve(
            "name: Summit Bakery, city: Riverford", "name: Summit Bakery, city: Riverford"
        )


class TestSchemaMatching:
    def _left(self):
        return [
            ColumnSpec("phone", ("555-1234", "555-9876")),
            ColumnSpec("city", ("Riverford", "Westdale")),
        ]

    def _right(self):
        return [
            ColumnSpec("city_name", ("Riverford", "Stoneport")),
            ColumnSpec("phone_number", ("555-1234", "555-0000")),
        ]

    def test_match_produces_correct_mapping(self, gpt4):
        mapping = SchemaMatcher(gpt4).match(self._left(), self._right())
        assert mapping.get("phone") == "phone_number"
        assert mapping.get("city") == "city_name"

    def test_mapping_is_one_to_one(self, gpt4):
        mapping = SchemaMatcher(gpt4).match(self._left(), self._right())
        assert len(set(mapping.values())) == len(mapping)

    def test_evaluate_f1(self, gpt4):
        gold = {"phone": "phone_number", "city": "city_name"}
        metrics = SchemaMatcher(gpt4).evaluate(self._left(), self._right(), gold)
        assert metrics["f1"] == 1.0


class TestColumnTyping:
    def test_corpus_accuracy(self, world, gpt4):
        types, corpus = generate_column_corpus(world, n=24, seed=1)
        examples = [(list(corpus[0].values), corpus[0].column_type)]
        annotator = ColumnTypeAnnotator(gpt4, types, examples=examples)
        metrics = annotator.evaluate(corpus[1:])
        assert metrics["accuracy"] >= 0.7

    def test_candidate_types_required(self, gpt4):
        with pytest.raises(ValueError):
            ColumnTypeAnnotator(gpt4, [])

    def test_paper_prompt_example(self, gpt4):
        annotator = ColumnTypeAnnotator(
            gpt4,
            ["country", "person", "date", "movie", "sports"],
            examples=[
                (["USA", "UK", "France"], "country"),
                (["Michael Jackson", "Beckham", "Michael Jordan"], "person"),
            ],
        )
        assert annotator.annotate(["Basketball", "Badminton", "Table Tennis"]) == "sports"


class TestCleaning:
    def _rows(self):
        rows = [
            {"id": i, "date": f"Aug {10 + i:02d} 2023", "phone": f"555-12{i:02d}"}
            for i in range(8)
        ]
        rows.append({"id": 8, "date": "2023-08-30", "phone": "555-1299"})  # format deviant
        rows.append({"id": 9, "date": None, "phone": "555-1300"})  # missing
        return rows

    def test_detection_finds_both_error_kinds(self, gpt4):
        errors = DataCleaner(gpt4).detect(self._rows(), ["id", "date", "phone"])
        kinds = {e.kind for e in errors}
        assert kinds == {"missing", "pattern_violation"}

    def test_format_repair_rewrites_to_pattern(self, gpt4):
        cleaner = DataCleaner(gpt4)
        rows = self._rows()
        report = cleaner.repair(rows, ["id", "date", "phone"])
        repaired_value = report.repairs.get((8, "date"))
        assert repaired_value == "Aug 30 2023"

    def test_apply_returns_copies(self, gpt4):
        cleaner = DataCleaner(gpt4)
        rows = self._rows()
        report = cleaner.repair(rows, ["id", "date", "phone"])
        fixed = cleaner.apply(rows, report)
        assert rows[8]["date"] == "2023-08-30"  # original untouched
        assert fixed[8]["date"] == "Aug 30 2023"


class TestTableUnderstanding:
    @pytest.fixture()
    def understanding(self, concert_db, gpt4):
        return TableUnderstanding(gpt4, concert_db)

    def test_serialize_rows(self, understanding):
        sentences = understanding.serialize_rows("stadium", limit=3)
        assert len(sentences) == 3
        assert all("stadium" in s for s in sentences)

    def test_statistics_sentences_contain_numbers(self, understanding, concert_db):
        sentences = understanding.statistics_sentences("stadium")
        count = concert_db.query_scalar("SELECT COUNT(*) FROM stadium")
        assert any(str(count) in s for s in sentences)

    def test_chunk_plan_covers_all_rows(self, understanding, concert_db):
        plan = understanding.chunk_plan("concert", max_tokens_per_chunk=64)
        total_rows = concert_db.query_scalar("SELECT COUNT(*) FROM concert")
        covered = sum(end - start for start, end in plan.ranges)
        assert covered == total_rows
        assert plan.n_chunks > 1

    def test_chunk_plan_respects_budget(self, understanding):
        plan = understanding.chunk_plan("concert", max_tokens_per_chunk=64)
        # Every chunk except possibly overflow-forced singletons fits.
        assert max(plan.tokens_per_chunk) <= 64 * 2

    def test_representative_tuples(self, understanding, concert_db):
        reps = understanding.representative_tuples("stadium", k=4)
        assert len(reps) == 4
        assert len(set(reps)) == 4
        all_rows = set(concert_db.table("stadium").rows)
        assert all(r in all_rows for r in reps)


class TestMultiModalLake:
    @pytest.fixture()
    def lake(self, world, gpt4):
        lake = MultiModalLake(gpt4)
        lake.add_items(generate_lake(world, seed=1))
        return lake

    def test_jordan_disambiguation(self, lake):
        query = "Could Prof. Michael Jordan play basketball"
        unfiltered = lake.query(query, k=2)
        filtered = lake.query(query, k=1, where={"entity_type": "professor"})
        assert len(filtered.items) == 1
        assert filtered.items[0].item_id == "row-jordan-professor"
        # Unfiltered vector search surfaces the athlete doc among top hits.
        assert any("basketball" in item.content for item in unfiltered.items)

    def test_modality_filter(self, lake):
        result = lake.query_by_modality("a city skyline photograph", "image", k=3)
        assert all(item.modality == "image" for item in result.items)

    def test_row_vs_table_granularity(self, gpt4):
        lake = MultiModalLake(gpt4)
        header = ["name", "dept"]
        rows = [["Ada", "CS"], ["Bob", "Math"]]
        row_ids = lake.add_table_rows("staff", header, rows, granularity="row")
        table_ids = lake.add_table_rows("staff2", header, rows, granularity="table")
        assert len(row_ids) == 2
        assert len(table_ids) == 1

    def test_semantic_query_finds_relevant_doc(self, lake, world):
        athletes = [p for p in world.people if world.kb.one(p, "profession") == "athlete"]
        target = athletes[0]
        team = world.kb.one(target, "plays_for")
        result = lake.query(f"{target} {team}", k=5)
        assert any(target in item.content for item in result.items)


class TestLLMDatabase:
    def test_materialize_and_query(self, world, gpt4):
        llmdb = LLMDatabase(gpt4)
        llmdb.register(film_virtual_table(world.films[:6]))
        result = llmdb.execute("SELECT title, director FROM films ORDER BY title")
        assert len(result.rows) == 6

    def test_extraction_is_cached(self, world, gpt4):
        llmdb = LLMDatabase(gpt4)
        llmdb.register(film_virtual_table(world.films[:4]))
        llmdb.execute("SELECT COUNT(*) FROM films")
        calls_first = gpt4.meter.calls
        llmdb.execute("SELECT director FROM films")
        assert gpt4.meter.calls == calls_first  # no re-extraction

    def test_strong_model_extracts_correctly(self, world, gpt4):
        llmdb = LLMDatabase(gpt4)
        films = world.films[:5]
        llmdb.register(film_virtual_table(films))
        rows = llmdb.execute("SELECT title, director FROM films").rows
        gold = {f: world.kb.one(f, "directed_by") for f in films}
        correct = sum(1 for title, director in rows if gold[title] == director)
        assert correct >= 4

    def test_weak_model_builds_wrong_database(self, world, babbage, gpt4):
        films = world.films[:6]
        gold = {f: world.kb.one(f, "directed_by") for f in films}

        def correct_count(client):
            llmdb = LLMDatabase(client)
            llmdb.register(film_virtual_table(films))
            rows = llmdb.execute("SELECT title, director FROM films").rows
            return sum(1 for title, director in rows if gold[title] == director)

        assert correct_count(babbage) < correct_count(gpt4)

    def test_duplicate_registration_rejected(self, world, gpt4):
        llmdb = LLMDatabase(gpt4)
        llmdb.register(film_virtual_table(world.films[:2]))
        with pytest.raises(ValueError):
            llmdb.register(film_virtual_table(world.films[:2]))

    def test_numeric_column_coercion(self, world, gpt4):
        llmdb = LLMDatabase(gpt4)
        llmdb.register(film_virtual_table(world.films[:3]))
        rows = llmdb.execute("SELECT released FROM films").rows
        assert all(isinstance(r[0], int) for r in rows)

    def test_unknown_table_passthrough_error(self, gpt4):
        from repro.errors import SQLCatalogError

        llmdb = LLMDatabase(gpt4)
        with pytest.raises(SQLCatalogError):
            llmdb.execute("SELECT * FROM never_registered")

    def test_join_virtual_with_real_table(self, world, gpt4):
        """External knowledge (LLM-extracted) joins relational data."""
        films = world.films[:4]
        llmdb = LLMDatabase(gpt4)
        llmdb.register(film_virtual_table(films))
        llmdb.import_table(
            "box_office",
            [("title", SQLType.TEXT), ("gross", SQLType.INTEGER)],
            [[films[0], 500], [films[1], 900], ["Unknown Film", 100]],
            primary_key="title",
        )
        rows = llmdb.execute(
            "SELECT b.title, f.director, b.gross FROM box_office b "
            "JOIN films f ON b.title = f.title ORDER BY b.gross DESC"
        ).rows
        assert len(rows) == 2
        assert rows[0][2] == 900
        # Directors come from the LLM side of the join.
        gold = {f: world.kb.one(f, "directed_by") for f in films}
        assert sum(1 for title, director, _g in rows if gold[title] == director) >= 1
