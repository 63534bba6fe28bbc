"""Scalar forms of the losses, one score and label at a time, as closed-form
oracles for `semmatch.losses.loss_batch` and `loss_grad_batch`."""

import numpy as np

from semmatch.losses import _BCE_CLAMP, Label3, LossSpec, loss_grad_batch


def _binary_target(label: Label3) -> int:
    # Impressed-but-not-purchased counts as a negative for the binary losses.
    return 1 if label == Label3.PURCHASED else 0


def hinge2(score: float, y: int, spec: LossSpec) -> float:
    """Two-part hinge: positives pushed above eps_plus, negatives below eps_minus."""
    if y == 1:
        return (-min(0.0, score - spec.eps_plus)) ** spec.m
    return max(0.0, score - spec.eps_minus) ** spec.m


def hinge3(score: float, label: Label3, spec: LossSpec) -> float:
    """Three-part hinge with a middle threshold for impressed products."""
    if label == Label3.PURCHASED:
        return (-min(0.0, score - spec.eps_plus)) ** spec.m
    if label == Label3.IMPRESSED:
        return max(0.0, score - spec.eps_zero) ** spec.m
    return max(0.0, score - spec.eps_minus) ** spec.m


def pointwise(score: float, y: int, spec: LossSpec) -> float:
    if spec.kind == "mse":
        return (score - y) ** 2
    if spec.kind == "mae":
        return abs(score - y)
    if spec.kind == "bce":
        p = min(max((score + 1.0) / 2.0, _BCE_CLAMP), 1.0 - _BCE_CLAMP)
        return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
    raise ValueError(f"not a pointwise loss: {spec.kind!r}")


def loss_value(score: float, label: Label3, spec: LossSpec) -> float:
    if spec.kind == "hinge3":
        return hinge3(score, label, spec)
    if spec.kind == "hinge2":
        return hinge2(score, _binary_target(label), spec)
    return pointwise(score, _binary_target(label), spec)


def loss_grad(score: float, label: Label3, spec: LossSpec) -> float:
    """d(loss)/d(score); the flat-side subgradient (0) at hinge kinks."""
    return float(
        loss_grad_batch(np.asarray([score], dtype=np.float64),
                        np.asarray([int(label)]), spec)[0]
    )
