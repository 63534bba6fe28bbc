"""Hashed bag-of-ngrams tokenization with a frequency-ranked vocabulary.

Text is broken into word unigrams, '#'-joined word n-grams, and character
trigrams. All enabled token classes share one dense id space; tokens that
miss the vocabulary either map to the reserved id 0 or are hashed into a
fixed range of out-of-vocabulary bins. Texts are encoded in batches, each
distinct text once. A call whose bags hold fewer than _COLUMN_SLOTS slots,
such as one query text, is encoded text by text, each miss hashed with
fnv1a64 where it is met; a larger one class by class across blocks of
_ENCODE_BLOCK texts, each block's tokens of a class listed, looked up and
scattered into the bags together and its misses hashed with one
fnv1a64_many.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, repeat
from typing import Iterable, Sequence, TextIO

import numpy as np

UNIGRAM = "unigram"
CHAR_TRIGRAM = "ctri"

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


@functools.cache
def _tag_byte(token_class: str) -> bytes:
    return bytes([_class_tag(token_class)])


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
        if len(set(self.ngram_orders)) < len(self.ngram_orders):
            raise ValueError(f"ngram orders must be distinct, got {','.join(map(str, self.ngram_orders))}")
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
    return list(map("#".join, zip(*[tokens[i:] for i in range(n)])))


def char_trigrams(text: str) -> list[str]:
    """All 3-char windows of the text wrapped in '#' with whitespace runs as '#'."""
    words = text.split()
    if not words:
        return []
    wrapped = "#" + "#".join(words) + "#"
    return list(map("".join, zip(wrapped, wrapped[1:], wrapped[2:])))


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


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# Calls whose distinct texts' bags hold fewer slots (texts x L) than this are
# encoded text by text. The column pass costs a fixed 30-130 us in numpy
# calls (one unigram class; four classes with OOV bins), and the per-text
# loop 0.25-1.1 us per slot; they break even at 190-380 slots on the
# benchmark's three workloads. So one query text stays on the loop, and 20
# eval queries take the column pass with 40-slot bags but not with 8-slot
# ones.
_COLUMN_SLOTS = 256
# Distinct texts per column pass; a block's tokens are the pass's working
# memory. On rich-oov's catalog (80-slot bags) blocks of 1024 texts took as
# long as blocks of 256 and peaked at 10.5 MiB instead of 4.2 under
# tracemalloc; blocks of 64 took 16% longer there and 50-90% longer on
# train-std's (12-slot bags), in per-block numpy calls.
_ENCODE_BLOCK = 256


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fnv1a64_many(data: Sequence[bytes]) -> np.ndarray:
    """fnv1a64 of each byte string, as uint64. FNV-1a carries nothing from one
    string to the next, so the strings are hashed side by side: one
    xor-multiply per byte column, over the strings still that long."""
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    order = np.argsort(-lengths, kind="stable")  # longest first
    lengths = lengths[order]
    width = int(lengths[0]) if len(data) else 0
    columns = np.zeros((width, len(data)), dtype=np.uint8)
    columns.T[np.arange(width) < lengths[:, None]] = np.frombuffer(
        b"".join([data[i] for i in order]), dtype=np.uint8
    )
    alive = (len(data) - np.cumsum(np.bincount(lengths, minlength=width))).tolist()  # longer than j
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j in range(width):
        head = h[: alive[j]]
        np.bitwise_xor(head, columns[j, : alive[j]], out=head)
        np.multiply(head, prime, out=head)  # wraps modulo 2**64
    out = np.empty_like(h)
    out[order] = h
    return out


@dataclass
class Vocabulary:
    """Dense (class, token) -> id map plus the OOV bin range, kept as one
    {token: id} table per token class so a lookup builds no key.

    Ids 1..V are in-vocabulary, 0 is the reserved masked id, and
    V+1..V+B are OOV hash bins.
    """

    ids_by_class: dict[str, dict[str, int]]
    v: int
    oov_bins: int
    derived_query_max: int | None = None
    derived_product_max: int | None = None

    @property
    def token_to_id(self) -> dict[tuple[str, str], int]:
        """The (class, token) -> id map, built from the tables on each access."""
        return {(c, t): tid for c, table in self.ids_by_class.items() for t, tid in table.items()}

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

    ids_by_class: dict[str, dict[str, int]] = {}
    next_id = 1
    for token_class in config.enabled_classes():
        budget = config.budget_for(token_class)
        ranked = sorted(counts[token_class].items(), key=lambda kv: (-kv[1], kv[0]))[:budget]
        if ranked:
            ids_by_class[token_class] = {token: next_id + j for j, (token, _freq) in enumerate(ranked)}
            next_id += len(ranked)

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


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]), concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _encode_texts(
    texts: Sequence[str], bags: np.ndarray, vocab: Vocabulary, config: TokenizerConfig
) -> None:
    """Write the bags of distinct texts into the rows of `bags`, text by
    text, each miss hashed with fnv1a64 where it is met."""
    max_len = bags.shape[1]
    tables, v, bins = vocab.ids_by_class, vocab.v, vocab.oov_bins
    missing = None if bins > 0 else 0  # what a miss looks up to
    flat: list[int] = []  # the bags, padded
    for text in texts:
        room = max_len
        for token_class, tokens in _class_tokens(text, config):
            tokens = tokens[:room]
            ids = list(map(tables.get(token_class, {}).get, tokens, repeat(missing)))
            room -= len(ids)
            if None in ids:
                tag = _tag_byte(token_class)
                ids = [v + 1 + fnv1a64(tag + t.encode()) % bins if i is None else i for i, t in zip(ids, tokens)]
            flat += ids
        flat += [0] * room
    bags.reshape(-1)[:] = flat


def _encode_columns(
    texts: Sequence[str], bags: np.ndarray, vocab: Vocabulary, config: TokenizerConfig
) -> None:
    """Write the bags of distinct texts into the zeroed rows of `bags`, class
    by class. The texts are lowercased and split once. Each class's windows
    over the whole block are cut to the tokens its bags keep by one selector,
    then joined into tokens and looked up in one pass; the misses of every
    class are hashed with one fnv1a64_many, and all ids are scattered into
    the bags at once."""
    n, max_len = bags.shape
    classes = config.enabled_classes()
    if config.lowercase:
        texts = map(str.lower, texts)
    words = list(map(str.split, texts))
    counts = np.fromiter(map(len, words), dtype=np.int64, count=n)
    flat_words = list(chain.from_iterable(words))
    first = np.cumsum(counts) - counts  # each text's first word in flat_words
    # Per class: its windows over the block, what joins a window into a
    # token, how many windows there are, and per text how many of them lie
    # inside it and where the first of them is.
    specs = []
    for token_class in classes:
        if token_class == UNIGRAM:
            specs.append((flat_words, None, len(flat_words), counts, first))
        elif token_class == CHAR_TRIGRAM:
            joined = list(map("#".join, words))
            lengths = np.fromiter(map(len, joined), dtype=np.int64, count=n)
            wrapped = np.where(counts > 0, lengths + 2, 0)  # "#" + joined + "#", or nothing
            chars = "".join(["#" + j + "#" for j in joined if j])
            windows = zip(chars, chars[1:], chars[2:])
            specs.append((windows, "".join, max(len(chars) - 2, 0), lengths, np.cumsum(wrapped) - wrapped))
        else:
            order = int(token_class.removeprefix("ngram"))
            windows = zip(*[flat_words[i:] for i in range(order)])
            inside = np.maximum(counts - (order - 1), 0)
            specs.append((windows, "#".join, max(len(flat_words) - order + 1, 0), inside, first))
    windows, joins, widths, available, starts = zip(*specs)
    available = np.array(available)  # (classes, n)
    cut = np.cumsum(available, axis=0)
    ends = np.minimum(cut, max_len)  # slots of each bag filled through each class
    kept = ends - np.minimum(cut - available, max_len)  # tokens of each class each bag keeps
    base = np.cumsum(widths) - widths  # each class's first window in the selector
    selector = np.zeros(sum(widths), dtype=np.bool_)
    selector[_runs((np.array(starts) + base[:, None]).ravel(), kept.ravel())] = True
    selector = selector.tobytes()
    missing = -1 if vocab.oov_bins > 0 else 0  # what a miss looks up to
    # Each miss is hashed where it occurs. On rich-oov's catalog 87% of a
    # block's misses are distinct, and finding the distinct ones first made
    # encoding it 15% slower.
    ids, holes, missed = [], [], []
    listed = 0  # ids of earlier classes
    for token_class, source, join, start, width in zip(classes, windows, joins, base.tolist(), widths):
        tokens = compress(source, selector[start : start + width])
        tokens = list(tokens if join is None else map(join, tokens))
        lookup = vocab.ids_by_class.get(token_class, {}).get
        ids.append(np.fromiter(map(lookup, tokens, repeat(missing)), dtype=np.int64, count=len(tokens)))
        if vocab.oov_bins > 0:
            at = np.flatnonzero(ids[-1] < 0)
            holes.append(at + listed)
            missed += map(_tag_byte(token_class).__add__, map(str.encode, map(tokens.__getitem__, at.tolist())))
        listed += len(tokens)
    ids = np.concatenate(ids)
    if missed:
        hashes = fnv1a64_many(missed)
        ids[np.concatenate(holes)] = vocab.v + 1 + (hashes % np.uint64(vocab.oov_bins)).astype(np.int64)
    row_start = np.arange(0, n * max_len, max_len)
    bags.reshape(-1)[_runs((row_start + ends - kept).ravel(), kept.ravel())] = ids


def encode_batch(
    texts: Sequence[str], side: str, vocab: Vocabulary, config: TokenizerConfig
) -> np.ndarray:
    """Map texts to an (n, L) int64 array of id bags for the given side, each
    right-padded with 0.

    Each distinct text is tokenized once and its bag cut at L before lookup.
    A token that misses the vocabulary maps to 0 without OOV bins; with
    them, to the bin of the fnv1a64 hash of its class tag byte and UTF-8
    bytes. Calls whose bags hold fewer than _COLUMN_SLOTS slots are encoded
    text by text, each miss hashed with fnv1a64 where it is met; larger
    ones class by class, _ENCODE_BLOCK texts at a time, each block's misses
    hashed with one fnv1a64_many."""
    max_len = vocab.max_tokens(side, config)
    row_of: dict[str, int] = {}
    rows = [row_of.setdefault(text, len(row_of)) for text in texts]
    distinct = list(row_of)
    bags = np.zeros((len(distinct), max_len), dtype=np.int64)
    if len(distinct) * max_len < _COLUMN_SLOTS:
        _encode_texts(distinct, bags, vocab, config)
    else:
        for start in range(0, len(distinct), _ENCODE_BLOCK):
            block = slice(start, start + _ENCODE_BLOCK)
            _encode_columns(distinct[block], bags[block], vocab, config)
    return bags if len(distinct) == len(rows) else bags[rows]


def encode(
    text: str, side: str, vocab: Vocabulary, config: TokenizerConfig
) -> TokenBag:
    """Map one text to a fixed-length TokenBag for the given side."""
    return TokenBag(ids=encode_batch([text], side, vocab, config)[0])


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
        classes, tokens, tids = tuple(zip(*rows)) or ((), (), ())
        ids = list(map(int, tids))
        ids_by_class: dict[str, dict[str, int]] = {}
        start = 0
        for token_class, run in groupby(classes):  # save_vocabulary writes one run per class
            stop = start + len(list(run))
            ids_by_class.setdefault(token_class, {}).update(zip(tokens[start:stop], ids[start:stop]))
            start = stop
        ok = (
            set(map(len, rows)) <= {3}
            and len(rows) == v == sum(map(len, ids_by_class.values()))
            and sorted(ids) == list(range(1, v + 1))
            and all(map(is_token_class, ids_by_class))
        )
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(_vocabulary_fault(lines, v))
    return Vocabulary(
        ids_by_class=ids_by_class,
        v=v,
        oov_bins=bins,
        derived_query_max=derived_q,
        derived_product_max=derived_p,
    )
