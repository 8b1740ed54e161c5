"""Secure inference deployment simulation (Section III-D, first challenge).

"Users access the LLMs via API requests with specific input data ... the
doctors need to send the whole table of the patient's health data to LLMs,
which is often not acceptable." The paper weighs three deployments:

* **plaintext** — cloud API sees the data (no overhead, no protection);
* **TEE** (Intel SGX-style enclave) — moderate compute overhead, provider
  blinded, but vulnerable to side channels (refs [81, 82]);
* **crypto** (HE/MPC-style) — provider blinded and side-channel free, but
  "huge communication and computation overhead".

:class:`SecureLLMClient` wraps an :class:`~repro.llm.client.LLMClient` and
applies each deployment's published overhead profile to latency and
bytes-on-the-wire, plus a leakage model, so the trade-off the paper
describes is measurable. Overhead constants follow the rough magnitudes in
the cited literature (Occlumency reports ~1.2–2× for enclaves; Delphi-class
cryptographic inference is 100–1000× slower with large ciphertext blowup).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.llm.client import Completion
from repro.llm.provider import CompletionProvider, make_client


class Deployment(enum.Enum):
    PLAINTEXT = "plaintext"
    TEE = "tee"
    CRYPTO = "crypto"


@dataclass(frozen=True)
class DeploymentProfile:
    """Overhead and exposure profile of one deployment option."""

    latency_multiplier: float
    bytes_per_token: float  # wire size per token (ciphertext expansion)
    provider_sees_plaintext: bool
    side_channel_exposure: float  # [0, 1] relative leak surface


PROFILES: Dict[Deployment, DeploymentProfile] = {
    Deployment.PLAINTEXT: DeploymentProfile(
        latency_multiplier=1.0,
        bytes_per_token=4.0,
        provider_sees_plaintext=True,
        side_channel_exposure=0.0,  # nothing left to leak — it's plaintext
    ),
    Deployment.TEE: DeploymentProfile(
        latency_multiplier=1.6,
        bytes_per_token=4.5,  # sealed channel framing
        provider_sees_plaintext=False,
        side_channel_exposure=0.3,  # controlled-channel / timing leaks
    ),
    Deployment.CRYPTO: DeploymentProfile(
        latency_multiplier=250.0,
        bytes_per_token=2048.0,  # ciphertext blowup
        provider_sees_plaintext=False,
        side_channel_exposure=0.0,
    ),
}


@dataclass(frozen=True)
class SecureCompletion:
    """A completion plus the security/overhead accounting of its request."""

    completion: Completion
    deployment: Deployment
    latency_ms: float
    bytes_on_wire: float
    provider_saw_plaintext: bool
    side_channel_exposure: float


@dataclass
class ExposureLedger:
    """Aggregate exposure accounting across a session."""

    requests: int = 0
    plaintext_tokens_disclosed: int = 0
    side_channel_weighted_tokens: float = 0.0
    total_latency_ms: float = 0.0
    total_bytes: float = 0.0


class SecureLLMClient:
    """LLM access under a chosen secure-deployment profile."""

    def __init__(self, client: CompletionProvider, deployment: Deployment = Deployment.TEE) -> None:
        self.client = client
        self.deployment = deployment
        self.profile = PROFILES[deployment]
        self.ledger = ExposureLedger()

    def complete(self, prompt: str, model: Optional[str] = None) -> SecureCompletion:
        """Run one request under this deployment's overhead profile."""
        completion = self.client.complete(prompt, model=model)
        total_tokens = completion.usage.total_tokens
        latency = completion.latency_ms * self.profile.latency_multiplier
        wire = total_tokens * self.profile.bytes_per_token
        self.ledger.requests += 1
        self.ledger.total_latency_ms += latency
        self.ledger.total_bytes += wire
        if self.profile.provider_sees_plaintext:
            self.ledger.plaintext_tokens_disclosed += completion.usage.prompt_tokens
        self.ledger.side_channel_weighted_tokens += (
            self.profile.side_channel_exposure * completion.usage.prompt_tokens
        )
        return SecureCompletion(
            completion=completion,
            deployment=self.deployment,
            latency_ms=latency,
            bytes_on_wire=wire,
            provider_saw_plaintext=self.profile.provider_sees_plaintext,
            side_channel_exposure=self.profile.side_channel_exposure,
        )


def compare_deployments(prompt: str, model: str = "gpt-4") -> Dict[str, Dict[str, float]]:
    """One-call comparison used by the ablation bench: the same request
    under each deployment, with identical answers (security changes cost
    and exposure, never the result)."""
    out: Dict[str, Dict[str, float]] = {}
    for deployment in Deployment:
        secure = SecureLLMClient(make_client(model=model), deployment=deployment)
        result = secure.complete(prompt)
        out[deployment.value] = {
            "latency_ms": round(result.latency_ms, 2),
            "bytes_on_wire": result.bytes_on_wire,
            "plaintext_disclosed": float(result.provider_saw_plaintext),
            "side_channel_exposure": result.side_channel_exposure,
        }
    return out
