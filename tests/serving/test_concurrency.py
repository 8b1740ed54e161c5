"""Thread-safety regression tests for the shared serving hot state.

Each test hammers one structure from many threads and then asserts the
invariants that unsynchronized numpy-buffer mutation used to break: stats
that add up, entry dicts and vector indexes that agree, ring buffers whose
cached norms match their rows. Failures here are probabilistic by nature —
the locks make them impossible, not merely rare.
"""

import threading

import numpy as np
import pytest

from repro.core.cache import AdmissionPredictor, SemanticCache
from repro.llm.client import LLMClient, Usage, UsageMeter
from repro.llm.embeddings import EmbeddingModel, embed_text
from repro.serving import BatchingScheduler, ServiceStats, build_stack

N_THREADS = 8


def _run_threads(worker, n_threads=N_THREADS):
    errors = []

    def wrapped(thread_id):
        try:
            worker(thread_id)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,), daemon=True) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


class TestSemanticCacheConcurrency:
    def test_hammer_lookup_put_invariants(self):
        cache = SemanticCache(capacity=32, reuse_threshold=0.9, augment_threshold=0.7)
        ops_per_thread = 60

        def worker(thread_id):
            for i in range(ops_per_thread):
                query = f"shared query about topic {(thread_id + i) % 48}"
                lookup = cache.lookup(query)
                assert lookup.tier in ("reuse", "augment", "miss")
                if lookup.tier != "reuse":
                    cache.put(query, f"answer {i}", cost=0.01)

        _run_threads(worker)

        stats = cache.stats
        assert stats.lookups == N_THREADS * ops_per_thread
        assert stats.reuse_hits + stats.augment_hits + stats.misses == stats.lookups
        assert len(cache.entries) <= cache.capacity
        # Entry dict and vector index must agree exactly (no torn inserts
        # or evictions that removed one side only).
        cache.flush()
        assert set(cache.entries) == set(cache.index._live)

    def test_hammer_with_admission_predictor(self):
        cache = SemanticCache(
            capacity=16,
            reuse_threshold=0.9,
            augment_threshold=0.7,
            admission=AdmissionPredictor(history=32, similarity_threshold=0.9),
        )

        def worker(thread_id):
            for i in range(40):
                query = f"admission probe {(thread_id * 7 + i) % 24}"
                if cache.lookup(query).tier != "reuse":
                    cache.put(query, "answer", cost=0.01)

        _run_threads(worker)
        assert len(cache.entries) <= cache.capacity
        cache.flush()
        assert set(cache.entries) == set(cache.index._live)
        assert cache.stats.reuse_hits + cache.stats.augment_hits + cache.stats.misses == (
            cache.stats.lookups
        )


class TestAdmissionPredictorConcurrency:
    def test_ring_buffer_stays_consistent(self):
        predictor = AdmissionPredictor(history=64, similarity_threshold=0.9)

        def worker(thread_id):
            for i in range(80):
                predictor.should_admit(f"query {thread_id}-{i % 20}")

        _run_threads(worker)

        assert 0 < predictor._count <= predictor.history
        assert 0 <= predictor._next < predictor.history
        # Every filled row's cached norm matches the row it was cached for
        # — a torn write (vector from one thread, norm from another) breaks
        # this.
        for row in range(predictor._count):
            assert predictor._ring_norms[row] == pytest.approx(
                float(np.linalg.norm(predictor._ring[row]))
            )


class TestEmbeddingModelConcurrency:
    def test_memo_bounded_and_values_exact(self):
        model = EmbeddingModel(dim=32, memo_size=40)
        texts = [f"text number {i}" for i in range(60)]

        def worker(thread_id):
            for i in range(120):
                text = texts[(thread_id * 13 + i) % len(texts)]
                vec = model.embed(text)
                assert vec.shape == (32,)

        _run_threads(worker)
        assert len(model._memo) <= model.memo_size
        for text, vec in model._memo.items():
            np.testing.assert_array_equal(vec, embed_text(text, dim=32))


class TestUsageMeterConcurrency:
    def test_no_lost_updates(self):
        meter = UsageMeter()
        per_thread = 200

        def worker(thread_id):
            for _ in range(per_thread):
                meter.record("gpt-4", Usage(prompt_tokens=3, completion_tokens=2), 0.5)
            for _ in range(per_thread // 2):
                meter.refund("gpt-4", prompt_tokens=1, cost=0.25)

        _run_threads(worker)
        assert meter.calls == N_THREADS * per_thread
        assert meter.prompt_tokens == N_THREADS * (3 * per_thread - per_thread // 2)
        assert meter.completion_tokens == N_THREADS * 2 * per_thread
        assert meter.cost == pytest.approx(N_THREADS * (0.5 * per_thread - 0.25 * (per_thread // 2)))
        assert meter.per_model["gpt-4"]["calls"] == meter.calls


class TestServiceStatsConcurrency:
    def test_counters_add_up(self):
        stats = ServiceStats()
        per_thread = 150

        def worker(thread_id):
            for i in range(per_thread):
                stats.record_submit()
                stats.record_llm_call(
                    "gpt-4", Usage(prompt_tokens=5, completion_tokens=1), 0.01, 2.5
                )
                stats.record_batch(size=1 + i % 4, queue_depth=i % 3)
                stats.record_completion()

        _run_threads(worker)
        total = N_THREADS * per_thread
        assert stats.scheduler_submitted == total
        assert stats.scheduler_completed == total
        assert stats.llm_calls == total
        assert stats.latency_hist.total == total
        assert sum(stats.scheduler_batch_sizes.values()) == total
        assert sum(stats.scheduler_queue_depths.values()) == total


class TestFullStackConcurrency:
    def test_concurrent_stack_under_parallel_dispatch(self):
        # workers=4 deliberately gives up determinism; what must survive is
        # consistency: every request answered, every counter adding up.
        stack = build_stack(
            LLMClient(),
            cache=SemanticCache(capacity=64, reuse_threshold=0.9, augment_threshold=0.7),
        )
        prompts = [f"Question: stress item {i % 24}?" for i in range(96)]
        futures = [None] * len(prompts)
        with BatchingScheduler(stack, max_batch_size=4, workers=4) as served:

            def client(thread_id):
                for i in range(thread_id, len(prompts), N_THREADS):
                    futures[i] = served.submit(prompts[i])

            _run_threads(client)
            completions = [future.result(timeout=30) for future in futures]
        assert len(completions) == len(prompts)
        assert all(c.text for c in completions)
        stats = stack.stats
        assert stats.scheduler_submitted == len(prompts)
        assert stats.scheduler_completed == len(prompts)
        assert stats.cache_lookups == len(prompts)
        assert (
            stats.cache_reuse_hits + stats.cache_augment_hits + stats.cache_misses
            == stats.cache_lookups
        )
        cache = stack.provider.cache
        cache.flush()
        assert set(cache.entries) == set(cache.index._live)
