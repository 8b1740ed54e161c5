"""Tabular data with missing labels + synthetic data generation (II-A2).

``generate_patients`` builds the paper's healthcare-flavored example: a
patient table whose ``risk`` label follows a deterministic clinical rule
plus bounded noise. A fraction of labels is masked — the missing-field
annotation task. ``TabularDataset.synthesize`` fits per-column samplers and
emits a privacy-friendlier synthetic table that mimics the marginals (the
"generate synthetic datasets that mimic the characteristics" application).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro._util import rng_from


@dataclass
class TabularDataset:
    """Rows of dicts with a designated label column (None = missing)."""

    columns: List[str]
    rows: List[Dict[str, object]]
    label_column: str

    def labeled_rows(self) -> List[Dict[str, object]]:
        return [r for r in self.rows if r.get(self.label_column) is not None]

    def unlabeled_rows(self) -> List[Dict[str, object]]:
        return [r for r in self.rows if r.get(self.label_column) is None]

    def serialize_row(self, row: Dict[str, object]) -> str:
        """"attribute: value; ..." — the paper's row serialization."""
        pieces = []
        for column in self.columns:
            value = row.get(column)
            pieces.append(f"{column}: {'?' if value is None else value}")
        return "; ".join(pieces)

    # ------------------------------------------------------------ synthesis

    def synthesize(self, n: int, seed: int = 0) -> "TabularDataset":
        """Generate ``n`` synthetic rows mimicking per-column marginals.

        Numeric columns are sampled from a fitted normal (clipped to the
        observed range); categorical columns from the empirical frequency
        table. Labels are re-derived from the sampled feature marginals by
        nearest labeled neighbor so the feature→label association survives.
        """
        rng = rng_from(seed)
        labeled = self.labeled_rows()
        if not labeled:
            raise ValueError("cannot synthesize from a dataset with no labels")
        features = [c for c in self.columns if c != self.label_column]

        samplers = {}
        for column in features:
            values = [r[column] for r in labeled if r.get(column) is not None]
            numeric = [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
            if numeric and len(numeric) == len(values):
                mean = float(np.mean(numeric))
                std = float(np.std(numeric)) or 1.0
                lo, hi = min(numeric), max(numeric)
                is_int = all(isinstance(v, int) for v in numeric)

                def numeric_sampler(mean=mean, std=std, lo=lo, hi=hi, is_int=is_int):
                    value = float(np.clip(rng.normal(mean, std), lo, hi))
                    return int(round(value)) if is_int else round(value, 3)

                samplers[column] = numeric_sampler
            else:
                counts = Counter(values)
                choices = list(counts)
                weights = np.array([counts[c] for c in choices], dtype=float)
                weights /= weights.sum()

                def categorical_sampler(choices=choices, weights=weights):
                    return choices[int(rng.choice(len(choices), p=weights))]

                samplers[column] = categorical_sampler

        def nearest_label(row: Dict[str, object]) -> object:
            def distance(other: Dict[str, object]) -> float:
                d = 0.0
                for column in features:
                    a, b = row.get(column), other.get(column)
                    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                        d += abs(float(a) - float(b))
                    elif a != b:
                        d += 1.0
                return d

            return min(labeled, key=distance)[self.label_column]

        synthetic_rows = []
        for _i in range(n):
            row = {column: samplers[column]() for column in features}
            row[self.label_column] = nearest_label(row)
            synthetic_rows.append(row)
        return TabularDataset(columns=list(self.columns), rows=synthetic_rows, label_column=self.label_column)


def _risk_rule(age: int, bmi: float, smoker: str, blood_pressure: int) -> str:
    """Deterministic clinical-style rule behind the gold labels."""
    score = 0
    if age >= 60:
        score += 2
    elif age >= 45:
        score += 1
    if bmi >= 30:
        score += 2
    elif bmi >= 25:
        score += 1
    if smoker == "yes":
        score += 2
    if blood_pressure >= 140:
        score += 2
    elif blood_pressure >= 125:
        score += 1
    return "high" if score >= 4 else ("medium" if score >= 2 else "low")


def generate_patients(
    n: int = 80,
    seed: int = 0,
    missing_fraction: float = 0.25,
    noise: float = 0.05,
) -> TabularDataset:
    """Patient rows with a rule-derived ``risk`` label, a fraction masked."""
    rng = rng_from(seed)
    rows: List[Dict[str, object]] = []
    for i in range(n):
        age = int(rng.integers(20, 85))
        bmi = round(float(rng.uniform(17.0, 38.0)), 1)
        smoker = "yes" if rng.random() < 0.3 else "no"
        blood_pressure = int(rng.integers(95, 170))
        label = _risk_rule(age, bmi, smoker, blood_pressure)
        if rng.random() < noise:
            label = {"low": "medium", "medium": "high", "high": "medium"}[label]
        rows.append(
            {
                "patient_id": i + 1,
                "age": age,
                "bmi": bmi,
                "smoker": smoker,
                "blood_pressure": blood_pressure,
                "risk": label,
            }
        )
    n_missing = int(round(n * missing_fraction))
    mask_idx = rng.choice(n, size=n_missing, replace=False)
    gold = {}
    for idx in mask_idx:
        gold[int(idx)] = rows[int(idx)]["risk"]
        rows[int(idx)]["risk"] = None
    dataset = TabularDataset(
        columns=["patient_id", "age", "bmi", "smoker", "blood_pressure", "risk"],
        rows=rows,
        label_column="risk",
    )
    # Stash the gold labels for evaluation (not visible via serialization).
    dataset.hidden_labels = gold  # type: ignore[attr-defined]
    return dataset
