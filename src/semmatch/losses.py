"""Pointwise losses over cosine scores: MSE, MAE, BCE, 2-part and 3-part hinges."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_BCE_CLAMP = 1e-7


class Label3(IntEnum):
    """Three-way interaction label for a query-product pair."""

    PURCHASED = 0
    IMPRESSED = 1
    RANDOM = 2


@dataclass(frozen=True)
class LossSpec:
    kind: str = "hinge3"  # mse | mae | bce | hinge2 | hinge3
    m: int = 2
    eps_plus: float = 0.9
    eps_minus: float = 0.2
    eps_zero: float = 0.55

    def __post_init__(self) -> None:
        if self.kind not in ("mse", "mae", "bce", "hinge2", "hinge3"):
            raise ValueError(f"unknown loss kind: {self.kind!r}")
        if self.m not in (1, 2):
            raise ValueError("hinge exponent m must be 1 or 2")
        if self.kind == "hinge3":
            if not (-1 <= self.eps_minus < self.eps_zero < self.eps_plus <= 1):
                raise ValueError("need -1 <= eps_minus < eps_zero < eps_plus <= 1")
        elif self.kind == "hinge2":
            if not (-1 <= self.eps_minus < self.eps_plus <= 1):
                raise ValueError("need -1 <= eps_minus < eps_plus <= 1")


def _hinge(
    scores: np.ndarray, labels: np.ndarray, spec: LossSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Each example's hinge violation and the sign of its loss slope where
    violated: purchased pairs below eps_plus (-1), others above their
    threshold (+1), which is eps_zero for impressed pairs in hinge3 and
    eps_minus otherwise."""
    pos = labels == int(Label3.PURCHASED)
    eps_imp = spec.eps_zero if spec.kind == "hinge3" else spec.eps_minus
    neg_eps = np.where(labels == int(Label3.IMPRESSED), eps_imp, spec.eps_minus)
    viol = np.where(pos, np.maximum(0.0, spec.eps_plus - scores), np.maximum(0.0, scores - neg_eps))
    return viol, np.where(pos, -1.0, 1.0)


def loss_batch(scores: np.ndarray, labels: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Vectorized per-example loss. ``labels`` holds Label3 integer codes."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if spec.kind in ("hinge2", "hinge3"):
        viol, _ = _hinge(scores, labels, spec)
        return viol**spec.m
    y = (labels == int(Label3.PURCHASED)).astype(np.float64)
    if spec.kind == "mse":
        return (scores - y) ** 2
    if spec.kind == "mae":
        return np.abs(scores - y)
    p = np.clip((scores + 1.0) / 2.0, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def loss_grad_batch(
    scores: np.ndarray, labels: np.ndarray, spec: LossSpec
) -> np.ndarray:
    """d(loss)/d(score) per example; 0 on a hinge's flat side and at its kink."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if spec.kind in ("hinge2", "hinge3"):
        viol, side = _hinge(scores, labels, spec)
        if spec.m == 1:
            return np.where(viol > 0, side, 0.0)
        return side * 2.0 * viol
    y = (labels == int(Label3.PURCHASED)).astype(np.float64)
    if spec.kind == "mse":
        return 2.0 * (scores - y)
    if spec.kind == "mae":
        return np.sign(scores - y)
    p = (scores + 1.0) / 2.0
    clamped = (p < _BCE_CLAMP) | (p > 1.0 - _BCE_CLAMP)
    p = np.clip(p, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    grad = 0.5 * (p - y) / (p * (1.0 - p))
    return np.where(clamped, 0.0, grad)
