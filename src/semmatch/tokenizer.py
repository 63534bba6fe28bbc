"""Hashed bag-of-ngrams tokenization with a frequency-ranked vocabulary.

Text is broken into word unigrams, '#'-joined word n-grams, and character
trigrams. All enabled token classes share one dense id space; tokens that
miss the vocabulary either map to the reserved id 0 or are hashed into a
fixed range of out-of-vocabulary bins.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

UNIGRAM = "unigram"
CHAR_TRIGRAM = "ctri"

_WS = re.compile(r"\s+")

# One tag byte per token class so identical strings from different classes
# can never hash to the same OOV bin input.
_CLASS_TAG_BASE_NGRAM = 0x10


def ngram_class(n: int) -> str:
    """Name of the word n-gram token class for order ``n``."""
    return f"ngram{n}"


def is_token_class(name: str) -> bool:
    """Whether ``name`` names a token class: unigram, ctri or ngram<n>, n >= 2."""
    order = name.removeprefix("ngram")
    return name in (UNIGRAM, CHAR_TRIGRAM) or (
        order.isdecimal() and int(order) >= 2 and name == ngram_class(int(order))
    )


def _class_tag(token_class: str) -> int:
    if token_class == UNIGRAM:
        return 0x01
    if token_class == CHAR_TRIGRAM:
        return 0x02
    if token_class.startswith("ngram"):
        return _CLASS_TAG_BASE_NGRAM + int(token_class[5:])
    raise ValueError(f"unknown token class: {token_class!r}")


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    use_unigrams: bool = True
    ngram_orders: tuple[int, ...] = ()
    use_char_trigrams: bool = False
    budget_per_class: dict[str, int] = field(default_factory=dict)
    oov_bins: int = 0
    query_max_tokens: int | None = None
    product_max_tokens: int | None = None

    def __post_init__(self) -> None:
        if not (self.use_unigrams or self.ngram_orders or self.use_char_trigrams):
            raise ValueError("at least one token class must be enabled")
        if any(n < 2 for n in self.ngram_orders):
            raise ValueError("ngram orders must be >= 2")
        if self.oov_bins < 0:
            raise ValueError("oov_bins must be non-negative")
        for side in ("query_max_tokens", "product_max_tokens"):
            v = getattr(self, side)
            if v is not None and v < 1:
                raise ValueError(f"{side} must be positive")

    def enabled_classes(self) -> list[str]:
        """Token classes in the canonical bag order."""
        classes = []
        if self.use_unigrams:
            classes.append(UNIGRAM)
        for n in sorted(self.ngram_orders):
            classes.append(ngram_class(n))
        if self.use_char_trigrams:
            classes.append(CHAR_TRIGRAM)
        return classes

    def budget_for(self, token_class: str) -> int:
        budget = self.budget_per_class.get(token_class, 0)
        if budget <= 0:
            raise ValueError(f"missing or non-positive budget for {token_class}")
        return budget


def word_ngrams(tokens: list[str], n: int) -> list[str]:
    """Consecutive n-word windows joined with '#'. Empty when len(tokens) < n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return ["#".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def char_trigrams(text: str) -> list[str]:
    """All 3-char windows of the text wrapped in '#' with whitespace runs as '#'."""
    stripped = text.strip()
    if not stripped:
        return []
    wrapped = "#" + _WS.sub("#", stripped) + "#"
    return [wrapped[i : i + 3] for i in range(len(wrapped) - 2)]


def _class_tokens(text: str, config: TokenizerConfig) -> list[tuple[str, list[str]]]:
    """Each enabled class with its tokens of the text, in canonical class order."""
    if config.lowercase:
        text = text.lower()
    words = text.split()
    out: list[tuple[str, list[str]]] = []
    if config.use_unigrams:
        out.append((UNIGRAM, words))
    for n in sorted(config.ngram_orders):
        out.append((ngram_class(n), word_ngrams(words, n)))
    if config.use_char_trigrams:
        out.append((CHAR_TRIGRAM, char_trigrams(text)))
    return out


def tokenize(text: str, config: TokenizerConfig) -> list[tuple[str, str]]:
    """The combined bag: (class, token) pairs in canonical class order."""
    return [(token_class, token) for token_class, tokens in _class_tokens(text, config) for token in tokens]


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_oov(token_class: str, token: str, bins: int, v: int) -> int:
    """Deterministic OOV bin id in [V+1, V+B] for an unseen token."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    data = bytes([_class_tag(token_class)]) + token.encode("utf-8")
    return v + 1 + fnv1a64(data) % bins


@dataclass
class Vocabulary:
    """Dense (class, token) -> id map plus the OOV bin range.

    Ids 1..V are in-vocabulary, 0 is the reserved masked id, and
    V+1..V+B are OOV hash bins.
    """

    token_to_id: dict[tuple[str, str], int]
    v: int
    oov_bins: int
    derived_query_max: int | None = None
    derived_product_max: int | None = None

    def id_for(self, token_class: str, token: str) -> int:
        tid = self.token_to_id.get((token_class, token))
        if tid is not None:
            return tid
        if self.oov_bins > 0:
            return hash_oov(token_class, token, self.oov_bins, self.v)
        return 0

    def max_tokens(self, side: str, config: TokenizerConfig) -> int:
        """The bag length of a side: the config's, else the one derived when
        the vocabulary was built."""
        if side == "query":
            max_len = config.query_max_tokens or self.derived_query_max
        elif side == "product":
            max_len = config.product_max_tokens or self.derived_product_max
        else:
            raise ValueError(f"side must be 'query' or 'product', got {side!r}")
        if max_len is None:
            raise ValueError(f"no max token length available for side {side!r}")
        return max_len


@dataclass
class TokenBag:
    """Fixed-length id sequence for one text, right-padded with 0."""

    ids: np.ndarray


def _nearest_rank_percentile(values: list[int], q: float) -> int:
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def build_vocabulary(
    corpus: Iterable[tuple[str, str]], config: TokenizerConfig
) -> Vocabulary:
    """Count tokens over (side, text) records and keep the top-budget per class.

    Ties break by lexicographic token order so rebuilds are reproducible.
    When max lengths are not set in the config, the 99th-percentile bag
    lengths per side are recorded on the returned vocabulary. Each distinct
    (side, text) record is tokenized once and counted as often as it occurs.
    """
    records = Counter(corpus)
    if not records:
        raise ValueError("empty corpus: no records to build a vocabulary from")
    counts: dict[str, Counter] = {c: Counter() for c in config.enabled_classes()}
    lengths: dict[str, list[int]] = {"query": [], "product": []}
    for (side, text), times in records.items():
        bag_len = 0
        for token_class, tokens in _class_tokens(text, config):
            counts[token_class].update(tokens * times)
            bag_len += len(tokens)
        if side in lengths:
            lengths[side].extend([bag_len] * times)

    token_to_id: dict[tuple[str, str], int] = {}
    next_id = 1
    for token_class in config.enabled_classes():
        budget = config.budget_for(token_class)
        ranked = sorted(counts[token_class].items(), key=lambda kv: (-kv[1], kv[0]))
        for token, _freq in ranked[:budget]:
            token_to_id[(token_class, token)] = next_id
            next_id += 1

    derived_q = derived_p = None
    if config.query_max_tokens is None and lengths["query"]:
        derived_q = _nearest_rank_percentile(lengths["query"], 0.99)
    if config.product_max_tokens is None and lengths["product"]:
        derived_p = _nearest_rank_percentile(lengths["product"], 0.99)

    return Vocabulary(
        token_to_id=token_to_id,
        v=next_id - 1,
        oov_bins=config.oov_bins,
        derived_query_max=derived_q,
        derived_product_max=derived_p,
    )


def encode(
    text: str, side: str, vocab: Vocabulary, config: TokenizerConfig
) -> TokenBag:
    """Map text to a fixed-length TokenBag for the given side."""
    max_len = vocab.max_tokens(side, config)
    ids = [vocab.id_for(c, t) for c, t in tokenize(text, config)]
    ids = ids[:max_len]
    out = np.zeros(max_len, dtype=np.int64)
    out[: len(ids)] = ids
    return TokenBag(ids=out)


def save_vocabulary(vocab: Vocabulary, f: TextIO) -> None:
    """The header carries the derived max token lengths only when there are some."""
    header = f"V={vocab.v} B={vocab.oov_bins}"
    if vocab.derived_query_max is not None:
        header += f" query_max={vocab.derived_query_max}"
    if vocab.derived_product_max is not None:
        header += f" product_max={vocab.derived_product_max}"
    f.write(header + "\n")
    for (token_class, token), tid in sorted(vocab.token_to_id.items(), key=lambda kv: kv[1]):
        f.write(f"{token_class}\t{token}\t{tid}\n")


def _vocabulary_fault(lines: list[str], v: int) -> str:
    """Name the first record line that load_vocabulary rejects, else the count."""
    seen: set[object] = set()  # ids and (class, token) keys so far
    for lineno, line in enumerate(lines, start=2):
        fields = line.split("\t")
        try:
            tid = int(fields[2]) if len(fields) == 3 else 0
        except ValueError:
            tid = 0
        key = tuple(fields[:2])
        if line and not (0 < tid <= v and is_token_class(fields[0]) and seen.isdisjoint((tid, key))):
            return (
                f"vocabulary line {lineno}: expected a known token class, a token and an id in 1..{v}, "
                f"tab-separated, with no token or id repeated: {line!r}"
            )
        seen.update((tid, key))
    return "vocabulary record count does not match header V"


def load_vocabulary(f: TextIO) -> Vocabulary:
    """Read a vocabulary written by save_vocabulary. Each record line is a
    token class, a token and an id, tab-separated; the tokens are distinct
    and the ids are exactly 1..V. A file that breaks this raises ValueError
    naming the first line at fault."""
    header = f.readline().strip()
    m = re.fullmatch(r"V=(\d+) B=(\d+)(?: query_max=([1-9]\d*))?(?: product_max=([1-9]\d*))?", header)
    if m is None:
        raise ValueError(f"bad vocabulary header: {header!r}")
    v, bins, derived_q, derived_p = (None if g is None else int(g) for g in m.groups())
    lines = f.read().split("\n")  # lines[i] is line i + 2 of the file
    # Parse all lines, then check them at once: per-line checks would cost
    # more than the parse on every `semmatch query`.
    try:
        rows = [line.split("\t") for line in lines if line]
        token_to_id = {(token_class, token): int(tid) for token_class, token, tid in rows}
        ok = (
            len(token_to_id) == len(rows) == v
            and sorted(token_to_id.values()) == list(range(1, v + 1))
            and all(map(is_token_class, {token_class for token_class, _ in token_to_id}))
        )
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(_vocabulary_fault(lines, v))
    return Vocabulary(
        token_to_id=token_to_id,
        v=v,
        oov_bins=bins,
        derived_query_max=derived_q,
        derived_product_max=derived_p,
    )
