"""Data-quality monitoring over refreshed data (Section II-B3).

"Data is often refreshed. Consequently, data quality issues (e.g., data
drift and schema drift) may arise, which causes the model to be inaccurate
and need to be retrained. To validate whether the data is updated is thus
important."

:class:`DriftMonitor` watches a stream of column batches against a trusted
baseline along two axes:

* **schema/format drift** — the fraction of values violating the baseline's
  mined pattern (:class:`~repro.apps.transform.columns.PatternValidator`);
* **distribution drift** — for numeric columns, a standardized mean-shift
  statistic against the baseline's mean/std.

Each check yields a :class:`DriftReport`; the monitor keeps the recent
window so slow drifts surface even when every single batch stays under the
per-batch tolerance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

from repro.apps.transform.columns import PatternValidator
from repro.errors import TransformError


@dataclass(frozen=True)
class DriftReport:
    """Outcome of checking one refreshed batch."""

    batch_index: int
    pattern_drift: float  # fraction of pattern-violating values
    mean_shift: Optional[float]  # standardized |mean diff|; None for text
    drifted: bool
    reason: str = ""


class DriftMonitor:
    """Window-based drift monitoring for one column."""

    def __init__(
        self,
        baseline_values: Sequence[str],
        pattern_tolerance: float = 0.05,
        mean_shift_tolerance: float = 1.0,
        window: int = 5,
    ) -> None:
        if not baseline_values:
            raise ValueError("baseline must not be empty")
        self.pattern_tolerance = pattern_tolerance
        self.mean_shift_tolerance = mean_shift_tolerance
        self.window = window
        try:
            self.pattern_validator: Optional[PatternValidator] = PatternValidator.from_baseline(
                list(baseline_values)
            )
        except TransformError:
            self.pattern_validator = None  # too diverse for a shape pattern
        numeric = self._numeric(baseline_values)
        if numeric is not None:
            self.baseline_mean = sum(numeric) / len(numeric)
            variance = sum((v - self.baseline_mean) ** 2 for v in numeric) / len(numeric)
            self.baseline_std = math.sqrt(variance) or 1.0
        else:
            self.baseline_mean = None
            self.baseline_std = None
        self._batches_seen = 0
        self._recent: Deque[DriftReport] = deque(maxlen=window)

    @staticmethod
    def _numeric(values: Sequence[str]) -> Optional[List[float]]:
        out = []
        for value in values:
            try:
                out.append(float(str(value).replace(",", "")))
            except ValueError:
                return None
        return out if out else None

    # ------------------------------------------------------------- checks

    def check_batch(self, values: Sequence[str]) -> DriftReport:
        """Check one refreshed batch; returns (and remembers) the report."""
        if not values:
            raise ValueError("batch must not be empty")
        self._batches_seen += 1
        pattern_drift = (
            self.pattern_validator.drift_rate(list(values))
            if self.pattern_validator is not None
            else 0.0
        )
        mean_shift: Optional[float] = None
        if self.baseline_mean is not None:
            numeric = self._numeric(values)
            if numeric is None:
                # Numeric baseline but non-numeric batch: total format drift.
                pattern_drift = max(pattern_drift, 1.0)
            else:
                batch_mean = sum(numeric) / len(numeric)
                mean_shift = abs(batch_mean - self.baseline_mean) / self.baseline_std

        reasons = []
        if pattern_drift > self.pattern_tolerance:
            reasons.append(f"pattern drift {pattern_drift:.2f} > {self.pattern_tolerance}")
        if mean_shift is not None and mean_shift > self.mean_shift_tolerance:
            reasons.append(f"mean shift {mean_shift:.2f}σ > {self.mean_shift_tolerance}σ")
        report = DriftReport(
            batch_index=self._batches_seen,
            pattern_drift=pattern_drift,
            mean_shift=mean_shift,
            drifted=bool(reasons),
            reason="; ".join(reasons),
        )
        self._recent.append(report)
        return report

    # ------------------------------------------------------------- window

    @property
    def recent_reports(self) -> List[DriftReport]:
        return list(self._recent)

    def window_alarm(self, min_drifted: int = 2) -> bool:
        """True when ``min_drifted`` of the recent window batches drifted —
        the retrain trigger for downstream ML (the paper's motivation)."""
        return sum(1 for r in self._recent if r.drifted) >= min_drifted

    def creeping_mean_shift(self) -> Optional[float]:
        """Trend detector: mean shift of the window's latest batch minus its
        earliest — positive values mean the column is drifting away."""
        shifts = [r.mean_shift for r in self._recent if r.mean_shift is not None]
        if len(shifts) < 2:
            return None
        return shifts[-1] - shifts[0]
