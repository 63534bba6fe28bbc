"""Scalar forms of the losses and their derivatives, one score and label at
a time, as closed-form oracles for `semmatch.losses.loss_batch` and
`loss_grad_batch`."""

import numpy as np

from semmatch.losses import _BCE_CLAMP, Label3, LossSpec


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


def hinge_grad(score: float, label: Label3, spec: LossSpec) -> float:
    """d/ds of excess**m where the hinge is violated (excess > 0): the slope
    sign times m * excess**(m - 1). Purchased pairs have excess eps_plus - s
    and sign -1; the others s minus their threshold (eps_zero for impressed
    pairs in hinge3, else eps_minus) and sign +1. 0 on the flat side and at
    the kink."""
    if label == Label3.PURCHASED:
        excess, sign = spec.eps_plus - score, -1.0
    elif label == Label3.IMPRESSED and spec.kind == "hinge3":
        excess, sign = score - spec.eps_zero, 1.0
    else:
        excess, sign = score - spec.eps_minus, 1.0
    if excess <= 0.0:
        return 0.0
    return sign * spec.m * excess ** (spec.m - 1)


def pointwise_grad(score: float, y: int, spec: LossSpec) -> float:
    if spec.kind == "mse":
        return 2.0 * (score - y)
    if spec.kind == "mae":
        return 1.0 if score > y else -1.0 if score < y else 0.0
    if spec.kind == "bce":
        p = (score + 1.0) / 2.0
        if p < _BCE_CLAMP or p > 1.0 - _BCE_CLAMP:
            return 0.0  # the loss is flat where p is clamped
        # d/dp of -(y ln p + (1 - y) ln(1 - p)) is (p - y) / (p (1 - p)); dp/ds = 1/2.
        return 0.5 * (p - y) / (p * (1.0 - p))
    raise ValueError(f"not a pointwise loss: {spec.kind!r}")


def loss_grad(score: float, label: Label3, spec: LossSpec) -> float:
    """d(loss)/d(score); the flat-side subgradient (0) at hinge kinks."""
    if spec.kind in ("hinge2", "hinge3"):
        return hinge_grad(score, label, spec)
    return pointwise_grad(score, _binary_target(label), spec)
