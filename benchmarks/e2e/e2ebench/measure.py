"""Scoring: outcomes, nearest-rank percentiles, goodput.

Everything here is scored *externally*: a request is good iff the caller
saw a full answer within the deadline its class prescribes, measured from
the time the request was due — never from what the system says about
itself.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

# A percentile is only as good as the tail behind it.
MIN_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Request:
    """One generated input. ``kind`` is the generator's own label (novel,
    repeat, edit, ...) and is read back only by the correctness checks."""

    prompt: str
    cls: Optional[str] = None
    deadline_ms: Optional[float] = None
    tenant: Optional[str] = None
    kind: str = "novel"


@dataclass
class Outcome:
    """What the caller saw for one request."""

    request: Request
    status: str  # ok | degraded | shed | error
    latency_ms: float  # from the due time (open loop) or the send (closed)
    due_s: float  # offset of the due time from the window start
    lag_ms: float = 0.0  # how late the generator actually sent it
    queue_ms: float = 0.0  # GatewayTicket.queue_ms
    late: bool = False
    completion: object = None

    @property
    def answered(self) -> bool:
        return self.status == "ok"

    @property
    def good(self) -> bool:
        """Answered in full and within the deadline; shed, failed,
        degraded and late all miss."""
        if self.status != "ok" or self.late:
            return False
        deadline = self.request.deadline_ms
        return deadline is None or self.latency_ms <= deadline


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence: the smallest value
    with at least ``p`` percent of the sample at or below it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    rank = math.ceil(p * len(sorted_values) / 100.0)
    return sorted_values[max(rank, 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest rank."""
    return n - max(math.ceil(p * n / 100.0), 1) if n else 0


def goodput(outcomes: Iterable[Outcome]) -> float:
    """Share of *attempted* requests that were good."""
    outcomes = list(outcomes)
    if not outcomes:
        return 0.0
    return sum(1 for o in outcomes if o.good) / len(outcomes)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def backlog_growth(outcomes: List[Outcome]) -> float:
    """Last-quarter p50 over first-quarter p50 of answered latency, by due
    time: > 1 means the queue was still growing when the window closed."""
    answered = sorted((o for o in outcomes if o.answered), key=lambda o: o.due_s)
    quarter = len(answered) // 4
    if quarter < 4:
        return 1.0
    first = sorted(o.latency_ms for o in answered[:quarter])
    last = sorted(o.latency_ms for o in answered[-quarter:])
    return percentile(last, 50) / max(percentile(first, 50), 1e-9)
