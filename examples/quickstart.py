"""Quickstart: a ten-minute tour of the library's public API.

Run with:  python examples/quickstart.py
"""

from repro.core.cascade import CascadeClient
from repro.core.prompts.templates import qa_prompt
from repro.datasets import build_concert_db
from repro.apps.transform import NL2SQLTranslator
from repro.llm import LLMClient
from repro.serving import build_stack
from repro.sqldb import Database


def main() -> None:
    # 1. The relational engine: a real (small) SQL database.
    print("== 1. SQL engine ==")
    db = Database()
    db.execute(
        """
        CREATE TABLE employee (id INTEGER PRIMARY KEY, name TEXT, salary REAL);
        INSERT INTO employee VALUES (1, 'ada', 520.0), (2, 'bob', 480.0);
        """
    )
    print("average salary:", db.query_scalar("SELECT AVG(salary) FROM employee"))

    # 2. The simulated LLM: deterministic, metered, capability-graded.
    print("\n== 2. Simulated LLM ==")
    client = LLMClient(model="gpt-4")
    completion = client.complete(qa_prompt("Who directed The Silent Mirror?"))
    print("answer:", completion.text)
    print(f"cost: ${completion.cost:.5f}  confidence: {completion.confidence:.2f}")

    # 3. NL2SQL over a populated database (Section II-B1).
    print("\n== 3. NL2SQL ==")
    concert_db = build_concert_db()
    translator = NL2SQLTranslator(LLMClient(model="gpt-4"), concert_db)
    result = translator.translate("What are the names of stadiums that had concerts in 2014?")
    print("SQL:", result.sql)
    print("rows:", concert_db.query(result.sql)[:3], "...")

    # 4. The LLM cascade (Section III-B1): cheap models first.
    print("\n== 4. LLM cascade ==")
    cascade_client = LLMClient()
    cascade = CascadeClient(cascade_client)
    outcome = cascade.complete(qa_prompt("Who directed The Silent Mirror?"))
    print(f"answered by {outcome.model} after {outcome.escalations} escalation(s), "
          f"cost ${outcome.cost:.5f}")

    # 5. The semantic cache (Section III-C): second ask is free.
    print("\n== 5. Semantic cache ==")
    base = LLMClient(model="gpt-4")
    cached = build_stack(base, cache=True)
    prompt = qa_prompt("Who directed The Silent Mirror?")
    cached.complete(prompt)
    spent_after_first = base.meter.cost
    again = cached.complete(prompt)
    tier = again.metadata["serving.cache"]["tier"]
    print(f"second answer served from: cache ({tier} hit); extra spend: "
          f"${base.meter.cost - spent_after_first:.5f}")


if __name__ == "__main__":
    main()
