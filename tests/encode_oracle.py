"""The per-text encoder: each (class, token) of `tokenize` looked up in the
flat (class, token) -> id map in turn, and each miss hashed on its own. The
oracle that `semmatch.tokenizer.encode_batch`, which tokenizes each distinct
text once and hashes a batch's distinct misses together, must match."""

from __future__ import annotations

import numpy as np

from semmatch.tokenizer import TokenizerConfig, Vocabulary, _class_tag, _class_tokens, fnv1a64


def tokenize(text: str, config: TokenizerConfig) -> list[tuple[str, str]]:
    """The combined bag: (class, token) pairs in canonical class order."""
    return [(token_class, token) for token_class, tokens in _class_tokens(text, config) for token in tokens]


def hash_oov(token_class: str, token: str, bins: int, v: int) -> int:
    """Deterministic OOV bin id in [V+1, V+B] for an unseen token."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    data = bytes([_class_tag(token_class)]) + token.encode("utf-8")
    return v + 1 + fnv1a64(data) % bins


def id_for(token_to_id: dict[tuple[str, str], int], vocab: Vocabulary, token_class: str, token: str) -> int:
    tid = token_to_id.get((token_class, token))
    if tid is not None:
        return tid
    if vocab.oov_bins > 0:
        return hash_oov(token_class, token, vocab.oov_bins, vocab.v)
    return 0


def encode(text: str, side: str, vocab: Vocabulary, config: TokenizerConfig) -> np.ndarray:
    """The fixed-length id bag of one text, right-padded with 0."""
    max_len = vocab.max_tokens(side, config)
    token_to_id = vocab.token_to_id
    ids = [id_for(token_to_id, vocab, c, t) for c, t in tokenize(text, config)]
    ids = ids[:max_len]
    out = np.zeros(max_len, dtype=np.int64)
    out[: len(ids)] = ids
    return out


def encode_batch(texts: list[str], side: str, vocab: Vocabulary, config: TokenizerConfig) -> np.ndarray:
    """One encode per text, one row each."""
    out = np.zeros((len(texts), vocab.max_tokens(side, config)), dtype=np.int64)
    for row, text in zip(out, texts):
        row[:] = encode(text, side, vocab, config)
    return out
