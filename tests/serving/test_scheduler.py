"""Unit tests for the request scheduler and its workload methods."""

import sys
import threading
import time

import pytest

from repro.errors import SchedulerClosedError
from repro.llm.client import LLMClient
from repro.serving import (
    BatchingScheduler,
    LatencyHistogram,
    ServiceStats,
    build_stack,
    shared_prefix,
)


class RecordingProvider:
    """Provider double that records every call it receives."""

    def __init__(self, fail_on=None):
        self.inner = LLMClient()
        self.calls = []
        self.batch_calls = []
        self.fail_on = fail_on or set()
        self._lock = threading.Lock()

    def complete(self, prompt, model=None):
        with self._lock:
            self.calls.append(prompt)
        if prompt in self.fail_on:
            raise ValueError(f"injected failure for {prompt!r}")
        return self.inner.complete(prompt, model=model)

    def complete_batch(self, prefix, items, model=None):
        with self._lock:
            self.batch_calls.append((prefix, tuple(items)))
        return self.inner.complete_batch(prefix, items, model=model)

    def embed(self, text):
        return self.inner.embed(text)


class TestSharedPrefix:
    def test_common_prefix(self):
        assert shared_prefix(["Q: alpha", "Q: beta"]) == "Q: "

    def test_identical(self):
        assert shared_prefix(["same", "same"]) == "same"

    def test_disjoint_and_empty(self):
        assert shared_prefix(["abc", "xyz"]) == ""
        assert shared_prefix([]) == ""
        assert shared_prefix(["only"]) == "only"


class TestBatchingScheduler:
    def test_flush_on_size(self):
        provider = RecordingProvider()
        stats = ServiceStats()
        with BatchingScheduler(
            provider, max_batch_size=4, max_wait_ms=10_000.0, combine=True, stats=stats
        ) as scheduler:
            futures = [scheduler.submit(f"Question: q{i}?") for i in range(8)]
            for future in futures:
                future.result(timeout=10)
        assert stats.scheduler_batch_sizes == {4: 2}
        assert stats.scheduler_batches == 2

    def test_flush_on_timeout(self):
        provider = RecordingProvider()
        stats = ServiceStats()
        with BatchingScheduler(
            provider, max_batch_size=100, max_wait_ms=15.0, combine=True, stats=stats
        ) as scheduler:
            futures = [scheduler.submit(f"Question: q{i}?") for i in range(3)]
            # No close yet: only the wait deadline can flush this batch.
            for future in futures:
                future.result(timeout=10)
            assert stats.scheduler_batch_sizes == {3: 1}

    def test_wait_deadline_counts_from_submission_not_drain(self):
        # Regression: the flush deadline used to start when a request was
        # drained into a batch, so a request that queued while the only
        # worker was busy waited max_wait_ms *twice* — once in the queue,
        # once for the batch clock.
        release = threading.Event()
        holding = threading.Event()

        class GatedProvider(RecordingProvider):
            def complete_batch(self, prefix, items, model=None):
                holding.set()
                release.wait(timeout=10)
                return super().complete_batch(prefix, items, model=model)

        with BatchingScheduler(
            GatedProvider(), max_batch_size=2, max_wait_ms=600.0, combine=True
        ) as scheduler:
            try:
                busy = [scheduler.submit(f"Question: busy {i}?") for i in range(2)]
                assert holding.wait(timeout=5)  # a full batch holds the worker
                parked = scheduler.submit("Question: parked behind a busy worker?")
                time.sleep(0.7)  # the parked request's deadline expires here
            finally:
                release.set()
            start = time.perf_counter()
            parked.result(timeout=10)
            elapsed = time.perf_counter() - start
            assert all(future.result(timeout=10).text for future in busy)
        # With the bug the partial batch would sit out a fresh 600 ms wait.
        assert elapsed < 0.45

    def test_empty_queue_shutdown(self):
        scheduler = BatchingScheduler(RecordingProvider())
        scheduler.close()
        assert scheduler.queue_depth == 0
        with pytest.raises(RuntimeError):
            scheduler.submit("Question: late?")

    def test_close_is_idempotent(self):
        scheduler = BatchingScheduler(RecordingProvider())
        scheduler.close()
        scheduler.close()

    def test_close_wakes_submitters_blocked_on_full_queue(self):
        # Regression: a submitter parked in the backpressure wait while the
        # queue was full used to raise a bare RuntimeError at best — and
        # could hang forever if close() landed between its _closed check
        # and the condition wait. close() must wake every blocked
        # submitter, and each must raise the typed SchedulerClosedError.
        release = threading.Event()

        class GatedProvider:
            def __init__(self):
                self.inner = LLMClient()

            def complete(self, prompt, model=None):
                release.wait(timeout=10)
                return self.inner.complete(prompt, model=model)

            def embed(self, text):
                return self.inner.embed(text)

        scheduler = BatchingScheduler(
            GatedProvider(), max_batch_size=1, max_wait_ms=0.0, workers=1, max_queue=2
        )
        outcomes = []
        lock = threading.Lock()

        def submit_one(i):
            try:
                future = scheduler.submit(f"Question: q{i}?")
                with lock:
                    outcomes.append(("accepted", future))
            except SchedulerClosedError as exc:
                with lock:
                    outcomes.append(("closed", exc))

        # The worker blocks on `release`, so the pipeline (worker +
        # pending) absorbs only a handful of these; the rest park in
        # submit's backpressure wait.
        threads = [
            threading.Thread(target=submit_one, args=(i,), daemon=True)
            for i in range(12)
        ]
        for thread in threads:
            thread.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if scheduler.queue_depth >= 2 and any(t.is_alive() for t in threads):
                break
            time.sleep(0.005)
        assert scheduler.queue_depth >= 2  # queue full, submitters parked

        scheduler.close(wait=False)  # the worker is still gated: don't join
        for thread in threads:
            thread.join(timeout=5)
        # The regression: with the hang, parked submitters never wake.
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 12
        assert all(
            isinstance(exc, SchedulerClosedError)
            for kind, exc in outcomes
            if kind == "closed"
        )
        assert any(kind == "closed" for kind, _ in outcomes)

        release.set()  # let the gated worker drain the accepted requests
        scheduler.close(wait=True)
        for kind, value in outcomes:
            if kind == "accepted":
                assert value.result(timeout=10).text

    def test_max_wait_zero_flushes_immediately_without_spinning(self, monkeypatch):
        # Regression: max_wait_ms=0 computed a flush deadline of
        # enqueued_at + 0 — already in the past — and re-derived
        # `remaining <= 0` from the clock on every flush. Pin the
        # semantics: "flush immediately, never spin" — the collecting
        # dispatcher must not consult the clock at all. (_Request.enqueued_at
        # captured the real time.monotonic at class-definition time, so the
        # patch below counts only the dispatcher's deadline arithmetic.)
        scheduler = BatchingScheduler(
            RecordingProvider(), max_batch_size=4, max_wait_ms=0.0, workers=1, combine=True
        )
        time.sleep(0.05)  # let thread startup settle before counting
        calls = []
        real_monotonic = time.monotonic

        def counting_monotonic():
            calls.append(1)
            return real_monotonic()

        monkeypatch.setattr(time, "monotonic", counting_monotonic)
        futures = [scheduler.submit(f"Question: q{i}?") for i in range(16)]
        for future in futures:
            assert future.result(timeout=10).text
        scheduler.close()
        monkeypatch.undo()
        assert calls == []  # zero clock reads: flushed immediately, no spin

    def test_exception_propagates_and_isolates(self):
        bad = "Question: explode?"
        provider = RecordingProvider(fail_on={bad})
        with BatchingScheduler(provider, max_batch_size=3) as scheduler:
            good_before = scheduler.submit("Question: a?")
            failing = scheduler.submit(bad)
            good_after = scheduler.submit("Question: b?")
            with pytest.raises(ValueError, match="injected failure"):
                failing.result(timeout=10)
            assert good_before.result(timeout=10).text
            assert good_after.result(timeout=10).text

    def test_later_request_resolves_while_an_earlier_one_is_held(self):
        # Regression: futures used to resolve strictly in submission order,
        # so B — finished on the second worker — stayed unresolved until
        # the held A returned, and the gateway counted it as in flight.
        release = threading.Event()
        holding = threading.Event()

        class GatedProvider(RecordingProvider):
            def complete(self, prompt, model=None):
                if prompt == "Question: A?":
                    holding.set()
                    release.wait(timeout=10)
                return super().complete(prompt, model=model)

        with BatchingScheduler(GatedProvider(), workers=2) as scheduler:
            try:
                a = scheduler.submit("Question: A?")
                assert holding.wait(timeout=5)
                b = scheduler.submit("Question: B?")
                assert b.result(timeout=5).text
                assert not a.done()  # A is still running
            finally:
                release.set()
            assert a.result(timeout=10).text

    def test_workers_overlap_provider_calls(self):
        # Clock-free throughput check: the provider answers only once a
        # second call is in flight, so two single-request batches must run
        # on two workers at once — serialised dispatch breaks the barrier
        # and BrokenBarrierError surfaces through the futures.
        barrier = threading.Barrier(2, timeout=5)

        class BarrierProvider(RecordingProvider):
            def complete(self, prompt, model=None):
                barrier.wait()
                return super().complete(prompt, model=model)

        with BatchingScheduler(
            BarrierProvider(), workers=2, max_batch_size=1
        ) as scheduler:
            futures = [scheduler.submit(f"Question: overlap {i}?") for i in range(2)]
            assert all(future.result(timeout=10).text for future in futures)

    def test_free_worker_takes_the_next_request_while_others_are_held(self):
        # Without combine a batch is one request. With A holding one
        # worker, B, C and D arrive together: C must start on the free
        # worker — not queue behind B's provider call in a shared batch on
        # B's worker.
        held = {"A": threading.Event(), "B": threading.Event()}
        started = {name: threading.Event() for name in "ABCD"}

        class GatedProvider(RecordingProvider):
            def complete(self, prompt, model=None):
                name = prompt[len("Question: ")]
                started[name].set()
                if name in held:
                    held[name].wait(timeout=10)
                return super().complete(prompt, model=model)

        with BatchingScheduler(GatedProvider(), workers=3, max_batch_size=4) as scheduler:
            try:
                a = scheduler.submit("Question: A?")
                assert started["A"].wait(timeout=5)
                later = [scheduler.submit(f"Question: {name}?") for name in "BCD"]
                assert started["B"].wait(timeout=5)
                assert started["C"].wait(timeout=5)
                assert not a.done() and not later[0].done()  # A and B still held
            finally:
                for gate in held.values():
                    gate.set()
            assert all(future.result(timeout=10).text for future in [a, *later])

    def test_cancelled_future_is_skipped_and_the_worker_survives(self):
        # Regression: a future cancelled while queued made the worker raise
        # InvalidStateError, killing the only worker; every later future
        # hung. It must never reach the provider, and later futures must
        # still be served.
        release = threading.Event()
        holding = threading.Event()

        class GatedProvider(RecordingProvider):
            def complete(self, prompt, model=None):
                if prompt == "Question: gate?":
                    holding.set()
                    release.wait(timeout=10)
                return super().complete(prompt, model=model)

        provider = GatedProvider()
        with BatchingScheduler(provider, workers=1) as scheduler:
            try:
                gate = scheduler.submit("Question: gate?")
                assert holding.wait(timeout=5)
                cancelled = scheduler.submit("Question: cancelled?")
                after = scheduler.submit("Question: after?")
                assert cancelled.cancel()
            finally:
                release.set()
            assert gate.result(timeout=5).text
            assert after.result(timeout=5).text
            # The one worker is still alive: a later request is served.
            assert scheduler.submit("Question: later?").result(timeout=5).text
        assert "Question: cancelled?" not in provider.calls

    @pytest.mark.parametrize("combine", [False, True])
    def test_no_lost_wakeup_with_many_idle_workers(self, combine):
        # More dispatchers than cores, all idle between requests: the one
        # collecting must be woken by every submit, or a closed-loop client
        # waits forever. Short switch interval to shake out the race.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchingScheduler(
                RecordingProvider(), workers=8, max_wait_ms=0.0, combine=combine
            ) as scheduler:
                for i in range(300):
                    assert scheduler.submit(f"Question: q{i}?").result(timeout=5).text
        finally:
            sys.setswitchinterval(interval)

    def test_combine_uses_complete_batch_with_shared_prefix(self):
        provider = RecordingProvider()
        with BatchingScheduler(
            provider, max_batch_size=4, max_wait_ms=10_000.0, combine=True
        ) as scheduler:
            prompts = [f"Shared preamble. Question: q{i}?" for i in range(4)]
            futures = [scheduler.submit(p) for p in prompts]
            for future in futures:
                assert future.result(timeout=10).text
        assert len(provider.batch_calls) == 1
        prefix, items = provider.batch_calls[0]
        assert prefix == "Shared preamble. Question: q"
        assert [prefix + item for item in items] == prompts

    def test_combine_results_match_serial_complete_batch(self):
        client = LLMClient()
        prompts = [f"Shared preamble. Question: q{i}?" for i in range(4)]
        prefix = shared_prefix(prompts)
        expected = [
            c.text
            for c in LLMClient().complete_batch(prefix, [p[len(prefix):] for p in prompts])
        ]
        with BatchingScheduler(
            client, max_batch_size=4, max_wait_ms=10_000.0, combine=True
        ) as scheduler:
            futures = [scheduler.submit(p) for p in prompts]
            texts = [f.result(timeout=10).text for f in futures]
        assert texts == expected

    def test_invalid_parameters(self):
        provider = RecordingProvider()
        with pytest.raises(ValueError):
            BatchingScheduler(provider, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingScheduler(provider, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            BatchingScheduler(provider, workers=0)
        with pytest.raises(ValueError):
            BatchingScheduler(provider, max_queue=0)


class TestSchedulerFacade:
    """``complete`` / ``complete_many`` / ``describe`` and the shared stats:
    what applications use when they hold the scheduler directly."""

    def test_complete_many_matches_serial_loop(self):
        prompts = [f"Question: who is number {i}?" for i in range(10)]
        client = LLMClient()
        serial = [client.complete(p).text for p in prompts]
        with BatchingScheduler(LLMClient()) as served:
            texts = [c.text for c in served.complete_many(prompts)]
        assert texts == serial

    def test_complete_many_raises_submit_error_from_any_feeder(self):
        # close() lands mid-workload: the failed submission re-raises its
        # typed error instead of leaving an unset future behind.
        served = BatchingScheduler(LLMClient())
        submit = served.submit

        def submit_then_close(*args, **kwargs):
            future = submit(*args, **kwargs)
            served.close(wait=False)
            return future

        served.submit = submit_then_close
        with pytest.raises(SchedulerClosedError):
            served.complete_many([f"Question: q{i}?" for i in range(4)])
        served.close()

    def test_complete_many_empty(self):
        with BatchingScheduler(LLMClient()) as served:
            assert served.complete_many([]) == []

    def test_single_complete_and_submit(self):
        with BatchingScheduler(LLMClient()) as served:
            direct = served.complete("Question: direct?")
            queued = served.submit("Question: queued?").result(timeout=10)
        assert direct.text and queued.text

    def test_shares_stack_stats(self):
        stack = build_stack(LLMClient(), cache=True)
        with BatchingScheduler(stack, max_batch_size=2) as served:
            served.complete_many([f"Question: s{i}?" for i in range(4)])
        assert served.stats is stack.stats
        assert stack.stats.scheduler_submitted == 4
        assert stack.stats.scheduler_completed == 4
        assert stack.stats.cache_lookups == 4

    def test_describe_and_report(self):
        stack = build_stack(LLMClient(), cache=True)
        with BatchingScheduler(stack, max_batch_size=4, workers=2) as served:
            served.complete("Question: describe?")
            description = served.describe()
            report = served.stats.render()
        # Without combine every batch is one request, whatever max_batch_size.
        assert description.startswith("scheduler(batch=1, workers=2) -> cache")
        assert "scheduler" in report
        with BatchingScheduler(stack, max_batch_size=4, combine=True) as combining:
            assert combining.describe().startswith("scheduler(batch=4, workers=1)")

    def test_embed_passthrough(self):
        client = LLMClient()
        with BatchingScheduler(client) as served:
            vec = served.provider.embed("some text")
        assert vec.shape == client.embed("some text").shape

    def test_provider_without_stats_gets_private_stats(self):
        with BatchingScheduler(RecordingProvider()) as served:
            served.complete("Question: private?")
        assert served.stats.scheduler_completed == 1


class TestLatencyHistogram:
    def test_percentiles_are_order_independent(self):
        samples = [0.05, 1.2, 3.7, 0.9, 220.0, 14.5, 0.02, 7.7]
        forward = LatencyHistogram()
        backward = LatencyHistogram()
        for value in samples:
            forward.record(value)
        for value in reversed(samples):
            backward.record(value)
        assert forward.snapshot() == backward.snapshot()

    def test_percentile_semantics(self):
        hist = LatencyHistogram(start_ms=1.0, growth=2.0, n_buckets=10)
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.record(value)
        assert hist.total == 4
        assert hist.percentile(50) == 2.0  # 2nd of 4 samples -> bucket edge 2.0
        assert hist.percentile(100) == 100.0  # bucket edge 128, clamped to max
        assert hist.max_ms == 100.0
        assert hist.mean_ms == pytest.approx((0.5 + 1.5 + 3.0 + 100.0) / 4)

    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.snapshot()["count"] == 0

    def test_overflow_bucket_reports_max(self):
        hist = LatencyHistogram(start_ms=1.0, growth=2.0, n_buckets=3)
        hist.record(1e9)
        assert hist.percentile(50) == 1e9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LatencyHistogram(start_ms=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram(n_buckets=0)
