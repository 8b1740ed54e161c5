"""The simulated LLM client: routing, capability model, usage metering.

``LLMClient.complete`` is the single entry point every application in the
library uses. Its contract mirrors a hosted LLM API:

* deterministic: the same (model, prompt, seed) triple always produces the
  same completion — the property the semantic cache experiment relies on;
* metered: every call accrues token usage and dollar cost at the model's
  registered prices;
* fallible: answers are wrong at a rate driven by model capability, query
  difficulty and the in-context-learning bonus (see DESIGN.md §2).

The correctness probability is::

    p = clip(0.02, 0.995, capability + 0.33 - 0.62 * difficulty + icl)
    icl = min(0.06, 0.02 * n_examples)

calibrated so the Table I workload lands near the paper's numbers
(babbage-002 ≈ 27.5%, gpt-4 ≈ 92.5%).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro._util import stable_hash
from repro.errors import BudgetExceededError, ContextLengthExceededError
from repro.llm.embeddings import EmbeddingModel
from repro.llm.engines.base import Engine, TaskContext, default_engines
from repro.llm.knowledge import KnowledgeBase, World, build_world
from repro.llm.models import ModelSpec, get_model
from repro.llm.tokenizer import count_tokens

_P_FLOOR = 0.02
_P_CEIL = 0.995
_BASE_BONUS = 0.33
_DIFFICULTY_WEIGHT = 0.62
_ICL_PER_EXAMPLE = 0.02
_ICL_CAP = 0.06

_default_world: Optional[World] = None


def default_world() -> World:
    """The shared synthetic world (lazily built, deterministic)."""
    global _default_world
    if _default_world is None:
        _default_world = build_world(seed=0)
    return _default_world


@dataclass(frozen=True)
class Usage:
    """Token usage of one request."""

    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class Completion:
    """One LLM response plus metering and decision-model signals."""

    text: str
    model: str
    usage: Usage
    cost: float
    latency_ms: float
    confidence: float
    engine: str
    metadata: Dict[str, object] = field(default_factory=dict)

    def with_usage(self, usage: Usage, cost: float, **changes: object) -> "Completion":
        """A copy with rewritten metering (middleware that refunds tokens,
        sums cascade attempts, or zeroes cache hits uses this)."""
        return replace(self, usage=usage, cost=cost, **changes)


@dataclass
class UsageMeter:
    """Accumulates calls, tokens and dollars, per model and in total.

    Updates are taken under an internal lock so concurrent completions
    (see :mod:`repro.serving.scheduler`) never lose a read-modify-write;
    note that float totals still depend on summation *order*, which is
    why deterministic concurrent runs serialize execution order."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost: float = 0.0
    per_model: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, model: str, usage: Usage, cost: float) -> None:
        """Accumulate one request's usage and cost."""
        with self._lock:
            self.calls += 1
            self.prompt_tokens += usage.prompt_tokens
            self.completion_tokens += usage.completion_tokens
            self.cost += cost
            entry = self.per_model.setdefault(
                model, {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0, "cost": 0.0}
            )
            entry["calls"] += 1
            entry["prompt_tokens"] += usage.prompt_tokens
            entry["completion_tokens"] += usage.completion_tokens
            entry["cost"] += cost

    def refund(self, model: str, prompt_tokens: int, cost: float) -> None:
        """Give back prompt tokens and dollars previously recorded for
        ``model`` (shared-prefix accounting in batched completions).

        Contract: a refund must reverse part of an earlier :meth:`record`
        for the same model. Refunding a model that was never recorded is a
        caller bug — it used to silently create a phantom per-model entry
        with zero calls and *negative* totals — and raises ``ValueError``
        instead of corrupting the ledger."""
        with self._lock:
            entry = self.per_model.get(model)
            if entry is None:
                raise ValueError(
                    f"cannot refund model {model!r}: it has no recorded usage "
                    "(refunds must reverse an earlier record)"
                )
            self.prompt_tokens -= prompt_tokens
            self.cost -= cost
            entry["prompt_tokens"] -= prompt_tokens
            entry["cost"] -= cost

    # The totals a snapshot stores beside ``per_model``.
    _STATE_FIELDS = ("calls", "prompt_tokens", "completion_tokens", "cost")

    def state_dict(self) -> Dict[str, object]:
        """Totals and the per-model ledger as plain JSON data."""
        with self._lock:
            data: Dict[str, object] = {name: getattr(self, name) for name in self._STATE_FIELDS}
            data["per_model"] = {model: dict(entry) for model, entry in self.per_model.items()}
        return data

    def load_state(self, data: Dict[str, object]) -> None:
        """Replace the totals and the ledger with :meth:`state_dict` data."""
        with self._lock:
            for name in self._STATE_FIELDS:
                setattr(self, name, data[name])
            self.per_model.clear()
            for model, entry in data["per_model"].items():  # type: ignore[union-attr]
                self.per_model[model] = dict(entry)

    def reset(self) -> None:
        """Zero all counters (per-model and totals); the lock survives."""
        with self._lock:
            self.calls = 0
            self.prompt_tokens = 0
            self.completion_tokens = 0
            self.cost = 0.0
            self.per_model.clear()

    def report(self) -> str:
        """Human-readable usage summary (per model + totals)."""
        lines = [f"{'model':16s} {'calls':>6s} {'prompt':>9s} {'output':>9s} {'cost($)':>9s}"]
        for model in sorted(self.per_model):
            entry = self.per_model[model]
            lines.append(
                f"{model:16s} {int(entry['calls']):6d} {int(entry['prompt_tokens']):9d} "
                f"{int(entry['completion_tokens']):9d} {entry['cost']:9.4f}"
            )
        lines.append(
            f"{'TOTAL':16s} {self.calls:6d} {self.prompt_tokens:9d} "
            f"{self.completion_tokens:9d} {self.cost:9.4f}"
        )
        return "\n".join(lines)


class LLMClient:
    """Entry point to the simulated LLM service.

    Parameters
    ----------
    model:
        Default model name (overridable per call).
    knowledge:
        The world the model "knows". Defaults to the shared
        :func:`default_world` knowledge base.
    seed:
        Shifts the error-injection stream; two clients with different seeds
        disagree on borderline queries (like different API snapshots).
    budget_usd:
        Optional hard spending cap; exceeding it raises
        :class:`~repro.errors.BudgetExceededError` *before* the call runs.
    """

    def __init__(
        self,
        model: str = "gpt-3.5-turbo",
        knowledge: Optional[KnowledgeBase] = None,
        seed: int = 0,
        budget_usd: Optional[float] = None,
        embedding_dim: int = 64,
        engines: Optional[List[Engine]] = None,
    ) -> None:
        self.default_model = get_model(model)
        self.knowledge = knowledge if knowledge is not None else default_world().kb
        self.seed = seed
        self.budget_usd = budget_usd
        self.meter = UsageMeter()
        self.embedding_model = EmbeddingModel(dim=embedding_dim)
        self.engines = engines if engines is not None else default_engines()

    # ------------------------------------------------------------- requests

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        """Run one completion request through the capability model."""
        spec = get_model(model) if model is not None else self.default_model
        return self._complete(prompt, spec)

    def _complete(
        self,
        prompt: str,
        spec: ModelSpec,
        prompt_token_discount: int = 0,
        cost_discount: float = 0.0,
    ) -> Completion:
        """One request; the discounts refund a shared prefix already paid
        for by an earlier item of the same batch. The budget check runs on
        the *net* cost, so a batch whose net cost fits never raises."""
        prompt_tokens = count_tokens(prompt)
        if prompt_tokens > spec.context_window:
            raise ContextLengthExceededError(
                f"prompt has {prompt_tokens} tokens; {spec.name} window is "
                f"{spec.context_window}"
            )

        result = self._route(prompt, spec)
        p_correct = self._p_correct(spec, result.difficulty, result.n_examples)
        draw, wrong_pick, conf_eps, noise_eps = self._draws(spec.name, prompt)
        correct = draw < p_correct

        if correct:
            text = result.answer
        elif result.numeric:
            text = self._perturb_numeric(result.answer, spec, noise_eps)
        elif result.wrong_answers:
            text = result.wrong_answers[wrong_pick % len(result.wrong_answers)]
        else:
            text = result.answer  # no plausible alternative exists

        confidence = self._confidence(p_correct, correct, conf_eps)
        completion_tokens = count_tokens(text)
        usage = Usage(prompt_tokens=prompt_tokens, completion_tokens=completion_tokens)
        cost = spec.cost(prompt_tokens, completion_tokens)
        net_cost = cost - cost_discount
        if self.budget_usd is not None and self.meter.cost + net_cost > self.budget_usd:
            raise BudgetExceededError(
                f"call would cost ${net_cost:.4f}, exceeding budget "
                f"${self.budget_usd:.4f} (spent ${self.meter.cost:.4f})"
            )
        self.meter.record(spec.name, usage, cost)
        completion = Completion(
            text=text,
            model=spec.name,
            usage=usage,
            cost=cost,
            latency_ms=spec.latency_ms(prompt_tokens, completion_tokens),
            confidence=confidence,
            engine=result.engine,
            metadata=dict(result.metadata),
        )
        if prompt_token_discount or cost_discount:
            self.meter.refund(spec.name, prompt_token_discount, cost_discount)
            completion = completion.with_usage(
                Usage(
                    prompt_tokens=prompt_tokens - prompt_token_discount,
                    completion_tokens=completion_tokens,
                ),
                net_cost,
            )
        return completion

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        """Query *combination* (Section III-B1): several queries share one
        prompt, so the shared context (schema, few-shot examples) is paid
        for once instead of once per query.

        Each item is still answered independently (the engines see
        ``shared_prefix + item``), but the shared prefix's tokens are
        metered only on the first item. This models a combined prompt like
        "Translate each of the following questions into SQL: 1. ... 2. ..."
        without forcing the engines to split multi-answer completions.
        """
        completions: List[Completion] = []
        spec = get_model(model) if model is not None else self.default_model
        prefix_tokens = count_tokens(shared_prefix)
        refund_cost = spec.cost(prefix_tokens, 0)
        for i, item in enumerate(items):
            completions.append(
                self._complete(
                    shared_prefix + item,
                    spec,
                    prompt_token_discount=prefix_tokens if i > 0 else 0,
                    cost_discount=refund_cost if i > 0 else 0.0,
                )
            )
        return completions

    def reseeded(self, offset: int) -> "LLMClient":
        """A sibling client whose error-injection stream is shifted by
        ``offset`` — the simulator's analogue of resampling at temperature.

        The sibling shares this client's meter, knowledge, engines and
        budget, so retried calls are metered (and budget-capped) in one
        place; only the seed differs."""
        sibling = LLMClient.__new__(LLMClient)
        sibling.default_model = self.default_model
        sibling.knowledge = self.knowledge
        sibling.seed = self.seed + offset
        sibling.budget_usd = self.budget_usd
        sibling.meter = self.meter
        sibling.embedding_model = self.embedding_model
        sibling.engines = self.engines
        return sibling

    def embed(self, text: str) -> np.ndarray:
        """Embed text with the simulated embedding model (not metered —
        embedding costs are negligible next to completion costs and the
        paper's cost numbers are completion-only)."""
        return self.embedding_model.embed(text)

    # -------------------------------------------------------------- internals

    def _route(self, prompt: str, spec: ModelSpec):
        context = TaskContext(knowledge=self.knowledge, model_name=spec.name)
        for engine in self.engines:
            result = engine.try_solve(prompt, context)
            if result is not None:
                return result
        raise RuntimeError("engine chain must terminate with a fallback engine")

    @staticmethod
    def _p_correct(spec: ModelSpec, difficulty: float, n_examples: int) -> float:
        icl = min(_ICL_CAP, _ICL_PER_EXAMPLE * max(0, n_examples))
        p = spec.capability + _BASE_BONUS - _DIFFICULTY_WEIGHT * difficulty + icl
        return min(_P_CEIL, max(_P_FLOOR, p))

    def _draws(self, model_name: str, prompt: str):
        """Four deterministic uniforms keyed on (seed, model, prompt)."""
        h = stable_hash(f"{self.seed}|{model_name}|{prompt}")
        rng = np.random.default_rng(h)
        values = rng.random(3)
        wrong_pick = int(rng.integers(0, 1_000_000))
        return float(values[0]), wrong_pick, float(values[1]), float(values[2])

    @staticmethod
    def _perturb_numeric(answer: str, spec: ModelSpec, eps: float) -> str:
        try:
            value = float(answer)
        except ValueError:
            return answer
        rel = (0.25 + 0.9 * (1.0 - spec.capability)) * (0.5 + eps)
        sign = 1.0 if eps >= 0.5 else -1.0
        return f"{value * (1.0 + sign * rel):.4f}"

    @staticmethod
    def _confidence(p_correct: float, correct: bool, eps: float) -> float:
        """Self-assessed answer quality: correlated with realized
        correctness (a verifier inspecting the answer would be), but noisy
        enough that a thresholding decision model makes real mistakes."""
        conf = 0.12 + 0.55 * p_correct + (0.14 if correct else -0.10) + 0.26 * (eps - 0.5)
        return min(0.99, max(0.01, conf))
