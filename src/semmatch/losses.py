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


def _hinge_pos_grad(scores: np.ndarray, eps: float, m: int) -> np.ndarray:
    viol = np.maximum(0.0, eps - scores)
    if m == 1:
        return np.where(viol > 0, -1.0, 0.0)
    return -2.0 * viol


def _hinge_neg_grad(scores: np.ndarray, eps: float, m: int) -> np.ndarray:
    viol = np.maximum(0.0, scores - eps)
    if m == 1:
        return np.where(viol > 0, 1.0, 0.0)
    return 2.0 * viol


def loss_batch(scores: np.ndarray, labels: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Vectorized per-example loss. ``labels`` holds Label3 integer codes."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == int(Label3.PURCHASED)
    if spec.kind == "hinge3":
        imp = labels == int(Label3.IMPRESSED)
        out = np.where(
            pos,
            np.maximum(0.0, spec.eps_plus - scores) ** spec.m,
            np.where(
                imp,
                np.maximum(0.0, scores - spec.eps_zero) ** spec.m,
                np.maximum(0.0, scores - spec.eps_minus) ** spec.m,
            ),
        )
        return out
    if spec.kind == "hinge2":
        return np.where(
            pos,
            np.maximum(0.0, spec.eps_plus - scores) ** spec.m,
            np.maximum(0.0, scores - spec.eps_minus) ** spec.m,
        )
    y = pos.astype(np.float64)
    if spec.kind == "mse":
        return (scores - y) ** 2
    if spec.kind == "mae":
        return np.abs(scores - y)
    p = np.clip((scores + 1.0) / 2.0, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def loss_grad_batch(
    scores: np.ndarray, labels: np.ndarray, spec: LossSpec
) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == int(Label3.PURCHASED)
    if spec.kind == "hinge3":
        imp = labels == int(Label3.IMPRESSED)
        return np.where(
            pos,
            _hinge_pos_grad(scores, spec.eps_plus, spec.m),
            np.where(
                imp,
                _hinge_neg_grad(scores, spec.eps_zero, spec.m),
                _hinge_neg_grad(scores, spec.eps_minus, spec.m),
            ),
        )
    if spec.kind == "hinge2":
        return np.where(
            pos,
            _hinge_pos_grad(scores, spec.eps_plus, spec.m),
            _hinge_neg_grad(scores, spec.eps_minus, spec.m),
        )
    y = pos.astype(np.float64)
    if spec.kind == "mse":
        return 2.0 * (scores - y)
    if spec.kind == "mae":
        return np.sign(scores - y)
    p = (scores + 1.0) / 2.0
    clamped = (p < _BCE_CLAMP) | (p > 1.0 - _BCE_CLAMP)
    p = np.clip(p, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    grad = 0.5 * (p - y) / (p * (1.0 - p))
    return np.where(clamped, 0.0, grad)
