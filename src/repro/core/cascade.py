"""LLM cascade (Section III-B1, Fig 6, Table I).

A query is sent through a chain of models ordered cheap → expensive. After
each stage, a *decision model* inspects the completion and decides whether
the answer is acceptable or the query must escalate. The last stage always
accepts.

Two decision models are provided:

* :class:`ConfidenceDecisionModel` — threshold on the completion's
  self-reported confidence (the simplest baseline);
* :class:`LearnedDecisionModel` — a logistic regressor over completion
  features (confidence, answer length, prompt length) trained on labeled
  (completion, was-it-correct) pairs — the "decision model can be trained"
  the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.llm.client import Completion
from repro.llm.provider import CompletionProvider


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of one cascaded query."""

    text: str
    model: str  # the model whose answer was accepted
    cost: float  # summed over all attempted stages
    latency_ms: float
    escalations: int  # how many stages rejected before acceptance
    attempts: tuple  # the per-stage Completions, in order

    @property
    def final(self) -> Completion:
        return self.attempts[-1]


class ConfidenceDecisionModel:
    """Accept iff the completion's confidence clears a threshold."""

    def __init__(self, threshold: float = 0.62) -> None:
        self.threshold = threshold

    def accept(self, completion: Completion) -> bool:
        return completion.confidence >= self.threshold


def completion_features(completion: Completion) -> np.ndarray:
    """Feature vector for the learned decision model."""
    return np.array(
        [
            1.0,
            completion.confidence,
            min(completion.usage.completion_tokens, 200) / 200.0,
            min(completion.usage.prompt_tokens, 2000) / 2000.0,
        ]
    )


class LearnedDecisionModel:
    """Logistic regression: P(answer is correct | completion features).

    Trained with plain batch gradient descent — tiny feature space, no
    external dependencies required.
    """

    def __init__(self, threshold: float = 0.5, learning_rate: float = 0.5, epochs: int = 300) -> None:
        self.threshold = threshold
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.weights: Optional[np.ndarray] = None

    def fit(self, completions: Sequence[Completion], labels: Sequence[bool]) -> "LearnedDecisionModel":
        """Train on labeled (completion, was-correct) pairs."""
        if len(completions) != len(labels) or not completions:
            raise ValueError("need equal, non-zero numbers of completions and labels")
        x = np.stack([completion_features(c) for c in completions])
        y = np.array([1.0 if label else 0.0 for label in labels])
        weights = np.zeros(x.shape[1])
        for _epoch in range(self.epochs):
            logits = x @ weights
            probabilities = 1.0 / (1.0 + np.exp(-logits))
            gradient = x.T @ (probabilities - y) / len(y)
            weights -= self.learning_rate * gradient
        self.weights = weights
        return self

    def probability(self, completion: Completion) -> float:
        """P(answer is correct) under the fitted model."""
        if self.weights is None:
            raise RuntimeError("decision model is not fitted")
        logit = float(completion_features(completion) @ self.weights)
        return 1.0 / (1.0 + np.exp(-logit))

    def accept(self, completion: Completion) -> bool:
        return self.probability(completion) >= self.threshold


DEFAULT_CHAIN = ("babbage-002", "gpt-3.5-turbo", "gpt-4")


class CascadeClient:
    """Routes completions through a cheap→expensive model chain.

    >>> from repro.llm import LLMClient
    >>> cascade = CascadeClient(LLMClient())
    >>> result = cascade.complete("Question: Who directed The Silent Mirror?")
    >>> result.model in CascadeClient.DEFAULT_CHAIN
    True
    """

    DEFAULT_CHAIN = DEFAULT_CHAIN

    def __init__(
        self,
        client: CompletionProvider,
        chain: Sequence[str] = DEFAULT_CHAIN,
        decision_models: Optional[Sequence[object]] = None,
    ) -> None:
        if not chain:
            raise ValueError("cascade chain must not be empty")
        self.client = client
        self.chain = list(chain)
        if decision_models is None:
            # One decision model per non-final stage.
            decision_models = [ConfidenceDecisionModel() for _ in self.chain[:-1]]
        if len(decision_models) != len(self.chain) - 1:
            raise ValueError("need exactly one decision model per non-final stage")
        self.decision_models = list(decision_models)

    def complete(self, prompt: str) -> CascadeResult:
        """Run the cascade on one prompt."""
        attempts: List[Completion] = []
        total_cost = 0.0
        total_latency = 0.0
        for stage, model in enumerate(self.chain):
            completion = self.client.complete(prompt, model=model)
            attempts.append(completion)
            total_cost += completion.cost
            total_latency += completion.latency_ms
            is_last = stage == len(self.chain) - 1
            if is_last or self.decision_models[stage].accept(completion):
                return CascadeResult(
                    text=completion.text,
                    model=model,
                    cost=total_cost,
                    latency_ms=total_latency,
                    escalations=stage,
                    attempts=tuple(attempts),
                )
        raise AssertionError("unreachable: final stage always accepts")
