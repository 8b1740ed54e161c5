"""Controlled cross-tenant cache sharing (Section III-D meets III-C).

The Fig 7 result shows sub-query answers being shared across *queries*;
grown to production shape, the valuable (and dangerous) version is sharing
cached answers across *tenants*: one tenant's cached completion answering
another tenant's probe saves a full LLM call, but discloses that the owner
asked (and what the model answered). This module is the gate that makes
that disclosure an explicit, budgeted decision instead of an accident:

* **Fail closed** — tenants share nothing unless they are placed in the
  same sharing group. The serving cluster consults :meth:`allows` before
  every cross-tenant probe; with no gate configured it never probes at all.
* **Privacy accounting** — every served cross-tenant hit is a disclosure
  event that spends ``epsilon_per_share`` (treating a served cache line
  like one invocation of a releasing mechanism, basic sequential
  composition as in DP: the spends add up).
  When the accumulated epsilon reaches ``epsilon_budget`` the gate closes
  again — sharing degrades to isolation rather than unbounded disclosure.
* **Auditability** — the gate keeps a (consumer, owner) share ledger, so a
  report can say exactly who consumed whose cache lines and how often.

The gate decides *policy* only; mechanics (which shard, which partition,
read-only probing) live in :mod:`repro.serving.cluster`, which guarantees
that cross-tenant probes never mutate the owner's cache state.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple


class CacheSharingGate:
    """Policy gate for cross-tenant semantic-cache reads.

    ``groups`` is an iterable of tenant groups (any iterable of tenant
    names); tenants within one group may serve each other's cached
    answers, tenants never named share nothing. ``epsilon_per_share``
    is the privacy spend recorded per served cross-tenant hit and
    ``epsilon_budget`` the total epsilon the gate may spend before it
    closes (``None`` = unmetered sharing within groups).
    """

    def __init__(
        self,
        groups: Iterable[Iterable[str]] = (),
        *,
        epsilon_per_share: float = 0.1,
        epsilon_budget: Optional[float] = None,
    ) -> None:
        if epsilon_per_share < 0:
            raise ValueError("epsilon_per_share must be non-negative")
        if epsilon_budget is not None and epsilon_budget < 0:
            raise ValueError("epsilon_budget must be non-negative")
        self.epsilon_per_share = epsilon_per_share
        self.epsilon_budget = epsilon_budget
        self._group_of: Dict[str, int] = {}
        self._groups: List[Tuple[str, ...]] = []
        for group in groups:
            members = tuple(dict.fromkeys(group))
            if len(members) < 2:
                raise ValueError("a sharing group needs at least two tenants")
            for member in members:
                if member in self._group_of:
                    raise ValueError(f"tenant {member!r} appears in two sharing groups")
                self._group_of[member] = len(self._groups)
            self._groups.append(members)
        self.shares: Dict[Tuple[str, str], int] = {}  # (consumer, owner) -> count
        self.denied_budget = 0  # probes refused because epsilon ran out
        self._epsilon = 0.0  # epsilon spent: one epsilon_per_share per share
        self._lock = threading.Lock()

    # ------------------------------------------------------------ policy

    def peers(self, tenant: str) -> Tuple[str, ...]:
        """The other tenants whose caches ``tenant`` may read (group
        order, which is deterministic — the cluster probes peers in this
        order so merged results don't depend on dict iteration)."""
        index = self._group_of.get(tenant)
        if index is None:
            return ()
        return tuple(member for member in self._groups[index] if member != tenant)

    def epsilon_spent(self) -> float:
        """Total epsilon recorded so far (basic sequential composition)."""
        return self._epsilon

    def budget_left(self) -> bool:
        if self.epsilon_budget is None:
            return True
        return (
            self.epsilon_spent() + self.epsilon_per_share <= self.epsilon_budget + 1e-12
        )

    def allows(self, consumer: str, owner: str) -> bool:
        """May ``consumer`` be served a cache line owned by ``owner``?

        True only when both tenants sit in the same sharing group *and*
        serving one more share still fits the epsilon budget. Never true
        for a tenant probing itself — that's not sharing."""
        if consumer == owner:
            return False
        index = self._group_of.get(consumer)
        if index is None or self._group_of.get(owner) != index:
            return False
        with self._lock:
            if not self.budget_left():
                self.denied_budget += 1
                return False
        return True

    # ------------------------------------------------------------ ledger

    def record_share(self, consumer: str, owner: str) -> None:
        """Account one served cross-tenant hit: epsilon spend + ledger."""
        with self._lock:
            self._epsilon += self.epsilon_per_share
            key = (consumer, owner)
            self.shares[key] = self.shares.get(key, 0) + 1

    def total_shares(self) -> int:
        with self._lock:
            return sum(self.shares.values())

    def ledger(self) -> Dict[str, Dict[str, int]]:
        """``{consumer: {owner: count}}`` — who consumed whose cache."""
        out: Dict[str, Dict[str, int]] = {}
        with self._lock:
            for (consumer, owner), count in sorted(self.shares.items()):
                out.setdefault(consumer, {})[owner] = count
        return out

    def describe(self) -> str:
        groups = ", ".join("{" + ", ".join(g) + "}" for g in self._groups) or "none"
        budget = (
            "unmetered"
            if self.epsilon_budget is None
            else f"eps {self.epsilon_spent():.3f}/{self.epsilon_budget:.3f}"
        )
        return f"sharing groups: {groups} ({budget}, {self.total_shares()} shares)"


def isolation_gate() -> Optional["CacheSharingGate"]:
    """The default policy: no gate at all — nothing is ever shared."""
    return None


__all__ = ["CacheSharingGate", "isolation_gate"]
