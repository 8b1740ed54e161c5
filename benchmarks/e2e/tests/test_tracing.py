import threading
from concurrent.futures import Future

import pytest

from e2ebench.tracing import Attribution, Tracer, covered, self_times, with_queue_spans


def test_union_of_overlapping_and_clipped_intervals():
    assert covered([(1, 3), (2, 5)], 0, 10) == pytest.approx(4)
    assert covered([(1, 2), (4, 6)], 0, 10) == pytest.approx(3)
    assert covered([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4)  # clipped to the parent
    assert covered([(2, 8), (3, 4)], 0, 10) == pytest.approx(6)  # nested sibling
    assert covered([], 0, 10) == 0


def test_self_time_with_overlapping_and_parallel_children():
    spans = [
        (1, "a:root", 0.0, 10.0, None, 0),
        (2, "b:child", 1.0, 4.0, 1, 0),
        (3, "b:child", 3.0, 6.0, 1, 0),  # overlaps span 2
        (4, "c:child", 7.0, 9.0, 1, 0),  # runs apart from them
        (5, "d:leaf", 7.5, 8.5, 4, 0),
        (6, "e:stray", 9.5, 12.0, 1, 0),  # outlives its parent: clipped
    ]
    selfs = self_times(spans)
    # children cover [1,6] + [7,9] + [9.5,10] = 7.5 of the root's 10
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)


def test_queue_span_is_the_wait_before_the_first_child():
    spans = [
        (1, "serving.scheduler:request", 0.0, 10.0, None, 0),
        (2, "serving.stack:complete", 4.0, 9.0, 1, 0),
        (3, "serving.gateway:request", 0.0, 5.0, None, 1),  # shed: no child at all
    ]
    att = Attribution([spans])
    assert att.durations("serving.scheduler:request.queue") == [pytest.approx(4000.0)]
    assert att.durations("serving.gateway:request.queue") == [pytest.approx(5000.0)]
    layers = att.layer_self_ms()
    assert layers["serving.scheduler.queue"] == pytest.approx(4000.0)
    assert layers["serving.scheduler"] == pytest.approx(1000.0)  # 10 - wait 4 - child 5
    assert layers["serving.gateway"] == pytest.approx(0.0)
    assert sum(layers.values()) == pytest.approx(15000.0)  # the two roots, fully attributed
    assert len(with_queue_spans(spans)) == 5


def test_a_method_calling_itself_is_one_operation():
    spans = [
        (1, "vectordb:search", 0.0, 3.0, None, 0),
        (2, "vectordb:search", 0.5, 1.5, 1, 0),
        (3, "vectordb:search", 1.5, 2.5, 1, 0),
    ]
    att = Attribution([spans])
    assert att.calls("vectordb:search") == 1
    assert att.layer_self_ms()["vectordb"] == pytest.approx(3000.0)


def test_windows_are_separate_forests():
    window = [(1, "a:x", 0.0, 2.0, None, 0), (2, "b:y", 0.5, 1.0, 1, 0)]
    att = Attribution([window, window])  # same ids twice must not collide
    assert att.layer_self_ms() == {"a": pytest.approx(3000.0), "b": pytest.approx(1000.0)}


class _Layered:
    def __init__(self):
        self.inner = None

    def outer(self, prompt):
        return self.inner.leaf(prompt)

    def leaf(self, prompt):
        return prompt.upper()


def test_wrap_nests_on_a_thread_and_finds_its_parent_across_threads():
    tracer = Tracer()
    top, bottom = _Layered(), _Layered()
    top.inner = bottom
    tracer.wrap(top, "outer", "x:outer")
    tracer.wrap(bottom, "leaf", "y:leaf")
    tracer.inflight["hello"] = (7, 99)  # what the load generator records
    result = []
    worker = threading.Thread(target=lambda: result.append(top.outer("hello")))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive() and result == ["HELLO"]
    by_name = {name: (sid, parent, rid) for sid, name, _s, _e, parent, rid in tracer.spans}
    outer_id, outer_parent, outer_rid = by_name["x:outer"]
    assert (outer_parent, outer_rid) == (99, 7)
    assert by_name["y:leaf"][1:] == (outer_id, 7)


def test_unresolved_root_keeps_the_threads_last_request():
    tracer = Tracer()
    obj = _Layered()
    tracer.wrap(obj, "leaf", "y:leaf")
    tracer.inflight["known"] = (3, 42)
    obj.leaf("known")
    obj.leaf("Example: something prepended\nknown")  # an augmented prompt
    assert [(parent, rid) for *_x, parent, rid in tracer.spans] == [(42, 3), (42, 3)]


def test_wrap_submit_spans_until_the_future_resolves():
    class Backend:
        def __init__(self):
            self.futures = []

        def submit(self, prompt, model=None):
            self.futures.append(Future())
            return self.futures[-1]

    tracer = Tracer()
    backend = Backend()
    tracer.wrap_submit(backend, "serving.scheduler:request")
    tracer.inflight["p"] = (5, 11)
    future = backend.submit("p", model=None)
    assert tracer.spans == []  # nothing until it resolves
    span_id = tracer.inflight["p"][1]  # worker threads now parent to the new span
    assert tracer.inflight["p"][0] == 5 and span_id != 11
    future.set_result("done")
    (sid, name, start, end, parent, rid), = tracer.spans
    assert (sid, name, parent, rid) == (span_id, "serving.scheduler:request", 11, 5)
    assert end >= start
