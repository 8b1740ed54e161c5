"""Determinism of the parallel table harness paths (scheduler-backed).

The contract: ``run_table1/3(parallel=True)`` submits each workload to the
batching scheduler in order and executes with one dispatch worker in
arrival order, so every rendered table — accuracy, cost, and the cache
diagnostics — is byte-identical to the serial loop.
"""

import pytest

from repro.bench.experiments import run_table1, run_table3
from repro.bench.perf import SimulatedServiceProvider


class TestParallelTables:
    """Each case checks one workload: the parametrised value is its seed."""

    @pytest.mark.parametrize("seed", [1, 2, 8])
    def test_table1_parallel_is_byte_identical(self, seed):
        serial = run_table1(n_queries=6, seed=seed)
        parallel = run_table1(n_queries=6, seed=seed, parallel=True)
        assert parallel.render() == serial.render()
        assert parallel.rows == serial.rows

    @pytest.mark.parametrize("seed", [1, 2, 8])
    def test_table3_parallel_is_byte_identical(self, seed):
        serial = run_table3(n_queries=3, seed=seed)
        parallel = run_table3(n_queries=3, seed=seed, parallel=True)
        assert parallel.render() == serial.render()
        assert parallel.rows == serial.rows
        assert parallel.diagnostics == serial.diagnostics


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
