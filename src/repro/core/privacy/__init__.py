"""LLM security & privacy (Section III-D).

* :mod:`repro.core.privacy.dp` — differential privacy: Laplace/Gaussian
  mechanisms, a privacy accountant, and DP-SGD logistic regression (the
  "integrate DP into the training process" direction).
* :mod:`repro.core.privacy.federated` — FedAvg fine-tuning across
  heterogeneous clients (the data-collaboration direction).
* :mod:`repro.core.privacy.attacks` — membership-inference attack and its
  evaluation against DP-trained models.
* :mod:`repro.core.privacy.sharing` — the cross-tenant cache-sharing gate
  the serving cluster consults (group policy + epsilon-budgeted
  disclosure accounting, one running sum of per-share spends).
"""

from repro.core.privacy.attacks import membership_inference_advantage
from repro.core.privacy.dp import (
    PrivacyAccountant,
    dp_logistic_regression,
    gaussian_mechanism,
    laplace_mechanism,
)
from repro.core.privacy.federated import FederatedClient, FederatedTrainer, LogisticModel
from repro.core.privacy.sharing import CacheSharingGate, isolation_gate
from repro.core.privacy.secure import (
    Deployment,
    SecureLLMClient,
    compare_deployments,
)

__all__ = [
    "CacheSharingGate",
    "Deployment",
    "FederatedClient",
    "FederatedTrainer",
    "LogisticModel",
    "PrivacyAccountant",
    "SecureLLMClient",
    "compare_deployments",
    "dp_logistic_regression",
    "gaussian_mechanism",
    "isolation_gate",
    "laplace_mechanism",
    "membership_inference_advantage",
]
