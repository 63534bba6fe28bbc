"""The generator's relevant and impressed sets by set comprehensions over
every product under the chosen concepts: the oracle that
`semmatch.synth._match_sets` must match exactly."""

from __future__ import annotations


def match_sets(
    signatures: list[tuple[int, ...]],
    by_concept: dict[int, list[int]],
    chosen: tuple[int, ...],
    target: int,
) -> tuple[list[int], list[int]]:
    """(relevant, impressed candidates), both ascending. A relevant product
    holds every chosen concept; a candidate holds some of them but not all,
    and is not the target."""
    relevant = [
        p
        for p in set().union(*(by_concept[c] for c in chosen))
        if set(chosen) <= set(signatures[p])
    ]
    candidates = sorted(
        p
        for p in set().union(*(by_concept[c] for c in chosen))
        if p != target and not (set(chosen) <= set(signatures[p]))
    )
    return sorted(relevant), candidates
