"""Budget-constrained prompt retention (Section III-A).

"Determining which historical prompts should be stored within a limited
budget is also important. We envision that reinforcement learning
algorithms can be designed to determine the most promising prompts."

Two retention policies:

* :func:`greedy_budget_selection` — a value-density knapsack heuristic:
  keep prompts maximizing expected utility per token until the budget is
  exhausted (the classical baseline);
* :class:`BanditPromptSelector` — an epsilon-greedy multi-armed bandit that
  learns each prompt's utility online from downstream success feedback and
  periodically evicts the lowest-value arms to fit the budget (the RL
  direction the paper envisions, in its simplest defensible form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro._util import rng_from
from repro.core.prompts.store import PromptRecord
from repro.llm.tokenizer import count_tokens


def greedy_budget_selection(
    records: Sequence[PromptRecord], token_budget: int
) -> List[PromptRecord]:
    """Keep prompts in decreasing (success_rate / tokens) density order."""
    if token_budget <= 0:
        return []
    scored = sorted(
        records,
        key=lambda r: (-(r.success_rate / max(1, count_tokens(r.text))), r.prompt_id),
    )
    kept: List[PromptRecord] = []
    used = 0
    for record in scored:
        tokens = count_tokens(record.text)
        if used + tokens <= token_budget:
            kept.append(record)
            used += tokens
    return kept


@dataclass
class _Arm:
    record: PromptRecord
    pulls: int = 0
    reward: float = 0.0

    @property
    def mean_reward(self) -> float:
        """Optimistic prior (0.6) before any pulls, to encourage trying."""
        if self.pulls == 0:
            return 0.6
        return self.reward / self.pulls


class BanditPromptSelector:
    """Epsilon-greedy bandit over stored prompts with budgeted eviction."""

    def __init__(self, token_budget: int, epsilon: float = 0.15, seed: int = 0) -> None:
        if token_budget <= 0:
            raise ValueError("token_budget must be positive")
        self.token_budget = token_budget
        self.epsilon = epsilon
        self._rng = rng_from(seed)
        self._arms: Dict[str, _Arm] = {}

    # -- membership -------------------------------------------------------

    def offer(self, record: PromptRecord) -> bool:
        """Try to admit a prompt; evicts weaker arms if needed.

        Returns True when the prompt is (now) stored.
        """
        if record.prompt_id in self._arms:
            return True
        tokens = count_tokens(record.text)
        if tokens > self.token_budget:
            return False
        while self._used_tokens() + tokens > self.token_budget:
            victim = min(self._arms.values(), key=lambda a: (a.mean_reward, a.record.prompt_id))
            # Refuse admission if the newcomer is no better than the victim.
            newcomer_estimate = record.success_rate if record.trials else 0.6
            if victim.mean_reward >= newcomer_estimate:
                return False
            del self._arms[victim.record.prompt_id]
        self._arms[record.prompt_id] = _Arm(record=record)
        return True

    def _used_tokens(self) -> int:
        return sum(count_tokens(a.record.text) for a in self._arms.values())

    # -- selection / feedback ----------------------------------------------

    def select(self) -> Optional[PromptRecord]:
        """Pick a prompt: explore with prob. epsilon, else exploit."""
        if not self._arms:
            return None
        arms = sorted(self._arms.values(), key=lambda a: a.record.prompt_id)
        if self._rng.random() < self.epsilon:
            return arms[int(self._rng.integers(0, len(arms)))].record
        return max(arms, key=lambda a: (a.mean_reward, a.record.prompt_id)).record

    def feedback(self, prompt_id: str, reward: float) -> None:
        """Report downstream utility (1.0 success / 0.0 failure) for a pull."""
        arm = self._arms.get(prompt_id)
        if arm is None:
            return
        arm.pulls += 1
        arm.reward += reward

    def stored(self) -> List[PromptRecord]:
        return [a.record for a in self._arms.values()]

    def utilization(self) -> float:
        return self._used_tokens() / self.token_budget
