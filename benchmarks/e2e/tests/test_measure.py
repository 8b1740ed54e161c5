import pytest

from e2ebench.measure import (
    Outcome,
    Request,
    backlog_growth,
    goodput,
    percentile,
    samples_beyond,
)


def test_nearest_rank_on_known_vectors():
    values = [15, 20, 35, 40, 50]
    # The textbook nearest-rank example.
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    hundred = list(range(1, 101))
    assert percentile(hundred, 50) == 50
    assert percentile(hundred, 95) == 95
    assert percentile(hundred, 99) == 99
    assert percentile([7.0], 95) == 7.0


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_the_rank():
    assert samples_beyond(100, 95) == 5
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(0, 95) == 0


def _outcome(status="ok", latency=5.0, deadline=10.0, late=False, due=0.0):
    return Outcome(
        request=Request("p", cls="interactive", deadline_ms=deadline),
        status=status,
        latency_ms=latency,
        due_s=due,
        late=late,
    )


def test_goodput_counts_every_kind_of_miss():
    outcomes = [
        _outcome(),  # good
        _outcome(deadline=None, latency=1e6),  # no deadline: good however slow
        _outcome(status="shed"),
        _outcome(status="error"),
        _outcome(status="degraded"),
        _outcome(late=True),  # the gateway says it resolved after the deadline
        _outcome(latency=10.5),  # the caller saw it after the deadline
    ]
    assert [o.good for o in outcomes] == [True, True, False, False, False, False, False]
    assert goodput(outcomes) == pytest.approx(2 / 7)
    assert goodput([]) == 0.0


def test_backlog_growth():
    flat = [_outcome(latency=10.0, due=i) for i in range(40)]
    assert backlog_growth(flat) == pytest.approx(1.0)
    growing = [_outcome(latency=10.0 + i, due=i) for i in range(40)]
    assert backlog_growth(growing) > 1.5
