import itertools

import numpy as np

from e2ebench.loadgen import poisson_arrivals
from e2ebench.textgen import VOCABULARY, one_word_edit, sentences
from e2ebench.workloads import (
    Steady,
    TenantChurn,
    WarmReads,
    sql_script,
    sql_statements,
    sql_tables,
)


def _rng(seed):
    return np.random.default_rng([seed, 0, 0])


def _steady(seed):
    return repr(Steady().requests(_rng(seed), 200, "q")).encode()


def _warm(seed):
    rng = _rng(seed)
    pool = sentences(rng, 64, "p")
    return repr(list(itertools.islice(WarmReads().stream(rng, pool, "q"), 200))).encode()


def _churn(seed):
    return repr(list(itertools.islice(TenantChurn().stream(_rng(seed), "q"), 300))).encode()


def _sql(seed):
    return repr(list(itertools.islice(sql_statements(_rng(seed)), 60))).encode()


def _arrivals(seed):
    return repr(poisson_arrivals(100.0, 3.0, _rng(seed))).encode()


def test_one_seed_gives_byte_identical_inputs_and_seeds_differ():
    for generate in (_steady, _warm, _churn, _sql, _arrivals):
        assert generate(5) == generate(5), generate.__name__
        assert generate(5) != generate(6), generate.__name__


def test_poisson_arrivals_are_ordered_inside_the_horizon_at_the_rate():
    arrivals = poisson_arrivals(200.0, 20.0, _rng(1))
    assert arrivals == sorted(arrivals)
    assert 0 < arrivals[0] and arrivals[-1] < 20.0
    assert len(arrivals) == 4000  # conditioned on the expected count


def test_prompts_are_distinct_and_edits_change_one_word():
    rng = _rng(2)
    prompts = sentences(rng, 500, "q")
    assert len(set(prompts)) == 500
    assert len(VOCABULARY) == len(set(VOCABULARY))
    edited = one_word_edit(prompts[0], rng)
    before, after = prompts[0].split(), edited.split()
    assert before[0] == after[0] and len(before) == len(after)
    assert sum(a != b for a, b in zip(before, after)) <= 1


def test_class_mix_is_exact_per_block():
    requests = Steady().requests(_rng(3), 100, "q")
    for start in range(0, 100, 20):
        classes = [r.cls for r in requests[start : start + 20]]
        assert sorted(set(classes)) == ["batch", "interactive", "standard"]
        assert (classes.count("interactive"), classes.count("standard")) == (5, 10)
    assert {r.deadline_ms for r in requests} == {160.0, 600.0, None}


def test_warm_mix_is_exact_per_block():
    rng = _rng(4)
    pool = sentences(rng, 64, "p")
    kinds = [r.kind for r in itertools.islice(WarmReads().stream(rng, pool, "q"), 100)]
    for start in range(0, 100, 10):
        block = kinds[start : start + 10]
        assert (block.count("repeat"), block.count("edit"), block.count("novel")) == (4, 4, 2)


def test_foreign_prompts_were_never_asked_by_that_tenant():
    asked = {}
    for request in itertools.islice(TenantChurn().stream(_rng(5), "q"), 2000):
        mine = asked.setdefault(request.tenant, set())
        if request.kind == "foreign":
            assert request.prompt not in mine
            assert any(request.prompt in theirs for t, theirs in asked.items() if t != request.tenant)
        if request.kind == "repeat":
            assert request.prompt in mine
        mine.add(request.prompt)


def test_the_data_set_does_not_follow_the_seed():
    assert sql_script(*sql_tables()) == sql_script(*sql_tables())
    products, reviews = sql_tables()
    assert (len(products), len(reviews)) == (64, 200)


def test_sql_statement_mix_per_block():
    kinds = [s.kind for s in itertools.islice(sql_statements(_rng(6)), 40)]
    for block in (kinds[:20], kinds[20:]):
        assert [block.count(k) for k in ("filter", "join", "classify", "extract", "group")] == [
            12, 2, 2, 2, 2,
        ]  # fmt: skip
