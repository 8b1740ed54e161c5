"""Federated fine-tuning simulation (Section III-D, second challenge).

The scenario: several hospitals/users each hold a private slice of labeled
data (here: entity-match pairs, the data-transformation head the paper's
doctors would fine-tune) and collaboratively train a shared task head with
FedAvg, never pooling raw data. Clients are heterogeneous in data size and
label mix — the paper's point about the complicated FL design space — and
each client can optionally train its local epochs with DP-SGD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util import jaccard, levenshtein_ratio, normalize_text, words
from repro.core.privacy.dp import dp_logistic_regression, logistic_predict


def er_pair_features(a: str, b: str) -> np.ndarray:
    """Feature vector for an entity pair (the fine-tuned head's input)."""
    na, nb = normalize_text(a), normalize_text(b)
    ta, tb = words(na), words(nb)
    digits_a = {w for w in ta if w.isdigit()}
    digits_b = {w for w in tb if w.isdigit()}
    return np.array(
        [
            1.0,
            jaccard(ta, tb),
            levenshtein_ratio(na, nb),
            jaccard(digits_a, digits_b) if (digits_a or digits_b) else 0.5,
            abs(len(ta) - len(tb)) / max(len(ta) + len(tb), 1),
        ]
    )


@dataclass
class LogisticModel:
    """A weight vector with predict helpers."""

    weights: np.ndarray

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return logistic_predict(self.weights, features)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return self.predict_proba(features) >= threshold

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        predictions = self.predict(features)
        return float(np.mean(predictions == np.asarray(labels, dtype=bool)))


@dataclass
class FederatedClient:
    """One participant with a private data slice."""

    client_id: str
    features: np.ndarray
    labels: np.ndarray
    epsilon: Optional[float] = None  # per-round local DP budget
    local_epochs: int = 5

    @property
    def n_examples(self) -> int:
        return int(self.features.shape[0])

    def local_update(self, global_weights: np.ndarray, seed: int) -> np.ndarray:
        """Standard FedAvg local step: continue DP-SGD training from the
        broadcast global weights for ``local_epochs`` on the private slice."""
        return dp_logistic_regression(
            self.features,
            self.labels,
            epsilon=self.epsilon,
            epochs=self.local_epochs,
            seed=seed,
            initial_weights=global_weights,
        )


class FederatedTrainer:
    """FedAvg coordinator."""

    def __init__(self, clients: Sequence[FederatedClient], dim: int, seed: int = 0) -> None:
        if not clients:
            raise ValueError("need at least one client")
        self.clients = list(clients)
        self.global_weights = np.zeros(dim)
        self.seed = seed
        self.round = 0
        self.history: List[float] = []

    def run_round(self) -> np.ndarray:
        """One FedAvg round: broadcast, local update, weighted average."""
        self.round += 1
        updates = []
        sizes = []
        for i, client in enumerate(self.clients):
            update = client.local_update(self.global_weights, seed=self.seed * 1000 + self.round * 10 + i)
            updates.append(update)
            sizes.append(client.n_examples)
        total = sum(sizes)
        self.global_weights = sum(
            (s / total) * u for s, u in zip(sizes, updates)
        )
        return self.global_weights

    def train(self, rounds: int, eval_set: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> LogisticModel:
        """Run ``rounds`` FedAvg rounds; tracks eval accuracy per round."""
        for _r in range(rounds):
            self.run_round()
            if eval_set is not None:
                model = LogisticModel(self.global_weights)
                self.history.append(model.accuracy(*eval_set))
        return LogisticModel(self.global_weights)


def split_across_clients(
    features: np.ndarray,
    labels: np.ndarray,
    n_clients: int,
    seed: int = 0,
    heterogeneous: bool = True,
) -> List[FederatedClient]:
    """Partition a dataset into client slices.

    Heterogeneous mode gives clients unequal sizes (Zipf-ish) and skews the
    label mix per client — the paper's heterogeneity challenge.
    """
    rng = np.random.default_rng(seed)
    n = features.shape[0]
    # Heterogeneous: label-skewed slices (clients see different label mixes)
    # but never single-label — pure label sorting makes local training
    # degenerate, which is not the regime the paper discusses.
    label_weight = 0.6 if heterogeneous else 0.0
    order = np.argsort(labels * label_weight + rng.random(n))
    if heterogeneous:
        weights = np.array([1.0 / (i + 1) for i in range(n_clients)])
    else:
        weights = np.ones(n_clients)
    weights = weights / weights.sum()
    counts = np.maximum(1, (weights * n).astype(int))
    # Fix rounding drift.
    while counts.sum() > n:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < n:
        counts[np.argmin(counts)] += 1
    clients = []
    start = 0
    for i, count in enumerate(counts):
        idx = order[start : start + count]
        clients.append(
            FederatedClient(
                client_id=f"client-{i}",
                features=features[idx],
                labels=labels[idx],
            )
        )
        start += count
    return clients
