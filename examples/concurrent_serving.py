"""Concurrent serving: many client threads, one request scheduler.

Eight threads fire QA traffic at a cache-fronted serving stack through
`repro.serving.BatchingScheduler`. Its queue is a FIFO: each dispatcher
thread takes the next request in arrival order, sends it through the
middleware stack, and resolves its future as soon as the answer is back.
With eight dispatchers a simulated service latency shows the throughput
the overlap buys; with one, `complete_many` submits in order from the
calling thread, and the answers (and the cache/budget state behind them)
are bit-identical to a serial loop.

Run with:  python examples/concurrent_serving.py
"""

import threading
import time

from repro.bench.perf import SimulatedServiceProvider
from repro.core.cache import SemanticCache
from repro.core.prompts.templates import qa_prompt
from repro.datasets import generate_hotpot
from repro.datasets.hotpot import paraphrase
from repro.llm import LLMClient
from repro.llm.client import default_world
from repro.serving import BatchingScheduler, build_stack, last_question_key

N_THREADS = 8


def build_serving_stack():
    """A cache-fronted stack over a client that charges 8 ms per service
    call (time.sleep releases the GIL, so dispatch overlap is real)."""
    provider = SimulatedServiceProvider(LLMClient(), overhead_ms=8.0, per_item_ms=0.5)
    return build_stack(
        provider,
        cache=SemanticCache(reuse_threshold=0.9, augment_threshold=0.75),
        cache_key_fn=last_question_key,
    )


def main() -> None:
    world = default_world()
    examples = generate_hotpot(world, n=24, seed=77)
    # Two rounds, the second re-phrased: plenty of semantic-cache hits.
    questions = [ex.question for ex in examples]
    questions += [paraphrase(ex.question) for ex in examples]
    prompts = [qa_prompt(q) for q in questions]
    answers = [ex.answer for ex in examples] * 2

    # --- serial baseline ---------------------------------------------------
    stack = build_serving_stack()
    start = time.perf_counter()
    serial_texts = [stack.complete(p).text for p in prompts]
    serial_s = time.perf_counter() - start
    print(f"serial loop:       {len(prompts)} requests in {serial_s * 1000:7.1f} ms "
          f"({len(prompts) / serial_s:7.1f} QPS)")

    # --- the same workload from N_THREADS client threads -------------------
    stack = build_serving_stack()
    served = BatchingScheduler(stack, workers=N_THREADS)
    print(f"pipeline:          {served.describe()}")
    results = [None] * len(prompts)

    def client_thread(offset: int) -> None:
        # Each thread owns a strided slice; requests are served in the
        # order they arrive, however the threads interleave.
        for i in range(offset, len(prompts), N_THREADS):
            results[i] = served.submit(prompts[i])

    start = time.perf_counter()
    threads = [
        threading.Thread(target=client_thread, args=(offset,)) for offset in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    concurrent_texts = [future.result().text for future in results]
    served.close()
    concurrent_s = time.perf_counter() - start
    print(f"{N_THREADS} client threads:  {len(prompts)} requests in "
          f"{concurrent_s * 1000:7.1f} ms ({len(prompts) / concurrent_s:7.1f} QPS, "
          f"{serial_s / concurrent_s:.1f}x)")

    # Arrival order depends on thread interleaving, and workers=N overlaps
    # dispatch, so the cache may fill in a different order than serially;
    # answers can differ on which similar entry a probe hits first.
    accuracy = sum(t == a for t, a in zip(concurrent_texts, answers)) / len(answers)
    print(f"accuracy: {accuracy:.2f}")
    print(served.stats.render())

    # --- determinism: workers=1 reproduces the serial loop bit for bit -----
    stack = build_serving_stack()
    with BatchingScheduler(stack, workers=1) as deterministic:
        ordered_texts = [c.text for c in deterministic.complete_many(prompts)]
    print(f"workers=1 run matches the serial loop exactly: "
          f"{ordered_texts == serial_texts}")


if __name__ == "__main__":
    main()
