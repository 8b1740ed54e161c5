"""Membership-inference attack and DP defense evaluation (Section III-D).

Implements the Yeom et al. loss-threshold attack: an example is predicted
to be a training-set *member* when the model's loss on it is below a
threshold chosen on a calibration split. Attack strength is reported as the
*membership advantage* ``TPR − FPR``; DP-SGD training should push it toward
zero at some utility cost — the trade-off the ablation bench sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.privacy.dp import logistic_loss


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one membership-inference evaluation."""

    advantage: float  # TPR - FPR in [-1, 1]
    true_positive_rate: float
    false_positive_rate: float
    threshold: float


def membership_inference_advantage(
    weights: np.ndarray,
    member_features: np.ndarray,
    member_labels: np.ndarray,
    non_member_features: np.ndarray,
    non_member_labels: np.ndarray,
) -> AttackReport:
    """Run the loss-threshold attack against a trained model.

    The threshold is set to the value maximizing advantage over the pooled
    loss distribution — the strongest threshold attack, i.e. a conservative
    (pessimistic for the defender) estimate.
    """
    member_losses = logistic_loss(weights, member_features, member_labels)
    non_member_losses = logistic_loss(weights, non_member_features, non_member_labels)
    candidates = np.unique(np.concatenate([member_losses, non_member_losses]))
    best = AttackReport(advantage=-1.0, true_positive_rate=0.0, false_positive_rate=0.0, threshold=0.0)
    for threshold in candidates:
        tpr = float(np.mean(member_losses <= threshold))
        fpr = float(np.mean(non_member_losses <= threshold))
        advantage = tpr - fpr
        if advantage > best.advantage:
            best = AttackReport(
                advantage=advantage,
                true_positive_rate=tpr,
                false_positive_rate=fpr,
                threshold=float(threshold),
            )
    return best
