"""Determinism of the parallel table harness paths (scheduler-backed).

The contract: ``run_table1/3(parallel=True)`` feeds the batching scheduler
from N submitter threads but executes with one dispatch worker in strict
submission-index order, so every rendered table — accuracy, cost, and the
cache diagnostics — is byte-identical to the serial loop at any worker
count.
"""

import pytest

from repro.bench.experiments import run_table1, run_table3
from repro.bench.perf import SimulatedServiceProvider


class TestParallelTables:
    @pytest.fixture(scope="class")
    def serial_table1(self):
        return run_table1(n_queries=6)

    @pytest.fixture(scope="class")
    def serial_table3(self):
        return run_table3(n_queries=3)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_table1_parallel_is_byte_identical(self, serial_table1, workers):
        parallel = run_table1(n_queries=6, parallel=True, workers=workers)
        assert parallel.render() == serial_table1.render()
        assert parallel.rows == serial_table1.rows

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_table3_parallel_is_byte_identical(self, serial_table3, workers):
        parallel = run_table3(n_queries=3, parallel=True, workers=workers)
        assert parallel.render() == serial_table3.render()
        assert parallel.rows == serial_table3.rows
        assert parallel.diagnostics == serial_table3.diagnostics


class TestRunServingSmoke:
    def test_simulated_provider_delegates(self):
        from repro.llm.client import LLMClient

        provider = SimulatedServiceProvider(LLMClient(), overhead_ms=0.0, per_item_ms=0.0)
        completion = provider.complete("Question: delegate?")
        assert completion.text == LLMClient().complete("Question: delegate?").text
        batch = provider.complete_batch("Question: ", ["a?", "b?"])
        assert len(batch) == 2
        resown = provider.reseeded(5)
        assert isinstance(resown, SimulatedServiceProvider)
        assert provider.embed("x").shape == (64,)
