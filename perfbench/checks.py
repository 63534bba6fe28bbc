"""Output checks. Each one compares the program's output against a
computation made here, apart from the program, or against a property the
method must have. None compares against a stored copy of earlier output."""

from __future__ import annotations

import math

import numpy as np


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.failures


def read_log_rows(path: str) -> list[list[str]]:
    """Tab-separated log rows, split here rather than by synth.parse_log."""
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def distinct_triples(log_path: str) -> int:
    """Distinct (query, product id, label) triples in a log file."""
    return len({(row[0], row[1], row[3]) for row in read_log_rows(log_path)})


def purchased_by_query(log_path: str) -> dict[str, set[str]]:
    """Purchased product ids for each query text with at least one purchase."""
    out: dict[str, set[str]] = {}
    for row in read_log_rows(log_path):
        if row[3] == "purchased":
            out.setdefault(row[0], set()).add(row[1])
    return out


def labelled_pairs(log_path: str) -> dict[str, dict[str, set[str]]]:
    """query text -> {"purchased": ids, "impressed": ids not purchased}."""
    out: dict[str, dict[str, set[str]]] = {}
    for row in read_log_rows(log_path):
        slot = out.setdefault(row[0], {"purchased": set(), "impressed": set()})
        slot[row[3]].add(row[1])
    for slot in out.values():
        slot["impressed"] -= slot["purchased"]
    return out


def unit_or_zero_rows(matrix: np.ndarray) -> bool:
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    return bool(np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0)))


def ranked_by_score_then_id(
    scores: np.ndarray, ids: list[str], candidates: np.ndarray
) -> list[tuple[str, float]]:
    """Sort candidate rows by (-score, id asc) with Python's sort."""
    rows = sorted(candidates.tolist(), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in rows]


def brute_force_top_k(
    scores: np.ndarray, ids: list[str], k: int, threshold: float
) -> list[tuple[str, float]]:
    """Up to k products with score >= threshold, by (-score, id asc)."""
    return ranked_by_score_then_id(scores, ids, np.flatnonzero(scores >= threshold))[:k]


def brute_force_head(scores: np.ndarray, ids: list[str], k: int) -> list[str]:
    """The first k ids of the full (-score, id asc) ranking, ties included."""
    kth = np.partition(scores, len(scores) - k)[len(scores) - k] if len(scores) > k else -np.inf
    head = ranked_by_score_then_id(scores, ids, np.flatnonzero(scores >= kth))
    return [pid for pid, _ in head[:k]]


def top_k_errors(
    items: list[tuple[str, float]],
    expected: list[tuple[str, float]],
    k: int,
    threshold: float,
) -> list[str]:
    """Why a top_k result differs from the brute-force one (empty when equal)."""
    errors = []
    if len(items) > k:
        errors.append(f"{len(items)} items returned for k={k}")
    if any(score < threshold for _, score in items):
        errors.append(f"an item scores below the threshold {threshold}")
    if [pid for pid, _ in items] != [pid for pid, _ in expected]:
        errors.append("item order differs from the brute-force (-score, id) ranking")
    elif any(abs(a - b) > 1e-12 for (_, a), (_, b) in zip(items, expected)):
        errors.append("item scores differ from the brute-force scores")
    return errors


def recall_and_map(heads: list[list[str]], relevant: list[set[str]], k: int) -> tuple[float, float]:
    """Mean Recall@k and AP@k over queries, from ranked heads of length k."""
    recalls, aps = [], []
    for head, rel in zip(heads, relevant):
        hits, precision_sum = 0, 0.0
        for rank, pid in enumerate(head[:k], start=1):
            if pid in rel:
                hits += 1
                precision_sum += hits / rank
        recalls.append(hits / len(rel))
        aps.append(precision_sum / len(rel))
    return math.fsum(recalls) / len(recalls), math.fsum(aps) / len(aps)


def loss_errors(epoch_loss: list[float]) -> list[str]:
    errors = []
    if not all(math.isfinite(x) for x in epoch_loss):
        errors.append(f"non-finite epoch loss in {epoch_loss}")
    elif len(epoch_loss) < 2 or not epoch_loss[-1] < epoch_loss[0]:
        errors.append(f"last epoch loss is not below the first: {epoch_loss}")
    return errors
