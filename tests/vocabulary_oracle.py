"""The vocabulary built by tokenizing and counting every (side, text) record
in turn: the oracle that `semmatch.tokenizer.build_vocabulary`, which counts
each distinct record once, must match exactly."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from encode_oracle import tokenize
from semmatch.tokenizer import TokenizerConfig, Vocabulary, _nearest_rank_percentile


def build_vocabulary(corpus: Iterable[tuple[str, str]], config: TokenizerConfig) -> Vocabulary:
    counts: dict[str, Counter] = {c: Counter() for c in config.enabled_classes()}
    lengths: dict[str, list[int]] = {"query": [], "product": []}
    seen = 0
    for side, text in corpus:
        seen += 1
        bag = tokenize(text, config)
        for token_class, token in bag:
            counts[token_class][token] += 1
        if side in lengths:
            lengths[side].append(len(bag))
    if seen == 0:
        raise ValueError("empty corpus: no records to build a vocabulary from")

    ids_by_class: dict[str, dict[str, int]] = {}
    next_id = 1
    for token_class in config.enabled_classes():
        budget = config.budget_for(token_class)
        ranked = sorted(counts[token_class].items(), key=lambda kv: (-kv[1], kv[0]))
        for token, _freq in ranked[:budget]:
            ids_by_class.setdefault(token_class, {})[token] = next_id
            next_id += 1

    derived_q = derived_p = None
    if config.query_max_tokens is None and lengths["query"]:
        derived_q = _nearest_rank_percentile(lengths["query"], 0.99)
    if config.product_max_tokens is None and lengths["product"]:
        derived_p = _nearest_rank_percentile(lengths["product"], 0.99)

    return Vocabulary(
        ids_by_class=ids_by_class,
        v=next_id - 1,
        oov_bins=config.oov_bins,
        derived_query_max=derived_q,
        derived_product_max=derived_p,
    )
