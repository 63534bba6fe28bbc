"""Interaction-log ingestion and a synthetic corpus generator.

The generator plants concept clusters with synonym surface forms, typos,
morphological variants, and optional word-order phrase pairs, so that
tokenization and loss ablations have measurable signal at desk scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .atomic import atomic_write
from .draws import Draws

VALID_LABELS = ("purchased", "impressed")

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_BRANDS, _COLORS = 12, 8
# Distinct tokens the generator can make: words of 2-3 consonant-vowel
# syllables, and model numbers of two consonants and a number in [100, 1000).
_WORD_SUPPLY = (len(_CONSONANTS) * len(_VOWELS)) ** 2 + (len(_CONSONANTS) * len(_VOWELS)) ** 3
_MODEL_NUMBER_SUPPLY = len(_CONSONANTS) ** 2 * 900


@dataclass(frozen=True)
class LogRecord:
    query: str
    product_id: str
    product_text: str
    label: str
    count: int


@dataclass
class ParseStats:
    total_lines: int = 0
    parsed: int = 0
    malformed: int = 0


def parse_log(stream: Iterable[str]) -> tuple[list[LogRecord], ParseStats]:
    """Parse tab-separated log lines; skip malformed ones with a counter.

    Aborts when more than 10% of non-empty lines are malformed.
    """
    records: list[LogRecord] = []
    stats = ParseStats()
    for line in stream:
        line = line.rstrip("\n")
        if not line:
            continue
        stats.total_lines += 1
        fields = line.split("\t")
        if len(fields) != 5:
            stats.malformed += 1
            continue
        query, pid, ptext, label, count_s = fields
        try:
            count = int(count_s)
        except ValueError:
            stats.malformed += 1
            continue
        if label not in VALID_LABELS or count < 1 or not query or not pid:
            stats.malformed += 1
            continue
        records.append(LogRecord(query, pid, ptext, label, count))
        stats.parsed += 1
    if stats.total_lines and stats.malformed > 0.1 * stats.total_lines:
        raise ValueError(
            f"{stats.malformed}/{stats.total_lines} malformed log lines (>10%)"
        )
    return records, stats


@dataclass(frozen=True)
class SynthConfig:
    concepts: int = 100
    synonyms_per_concept: int = 3
    products: int = 10_000
    queries: int = 2_000
    eval_queries: int = 400
    typo_rate: float = 0.0
    morph_rate: float = 0.0
    impressed_per_purchase: int = 4
    concepts_per_product: int = 3
    query_concepts: int = 2
    phrase_pairs: int = 0
    # When > 0, every product text carries a unique model-number token and
    # queries repeat their target's token with this probability. These tokens
    # are too rare for any frequency-ranked vocabulary, so only consistent
    # OOV hashing can exploit them.
    model_number_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "concepts",
            "synonyms_per_concept",
            "products",
            "queries",
            "impressed_per_purchase",
            "concepts_per_product",
            "query_concepts",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("eval_queries", "phrase_pairs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("typo_rate", "morph_rate", "model_number_rate"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        words = self.concepts * self.synonyms_per_concept + 2 * self.phrase_pairs + _BRANDS + _COLORS
        if words > _WORD_SUPPLY:
            raise ValueError(
                f"the config needs {words} distinct words; the generator makes at most {_WORD_SUPPLY}"
            )
        if self.model_number_rate > 0 and self.products > _MODEL_NUMBER_SUPPLY:
            raise ValueError(
                f"the config needs {self.products} distinct model numbers; "
                f"the generator makes at most {_MODEL_NUMBER_SUPPLY}"
            )


def _make_word(draws: Draws, used: set[str]) -> str:
    below = draws.below
    while True:
        syllables = 2 + below(2)
        word = "".join(
            _CONSONANTS[below(len(_CONSONANTS))] + _VOWELS[below(len(_VOWELS))] for _ in range(syllables)
        )
        if word not in used:
            used.add(word)
            return word


def _make_model_number(draws: Draws, used: set[str]) -> str:
    below = draws.below
    while True:
        token = (
            _CONSONANTS[below(len(_CONSONANTS))]
            + _CONSONANTS[below(len(_CONSONANTS))]
            + str(100 + below(900))
        )
        if token not in used:
            used.add(token)
            return token


def _typo(word: str, rng: np.random.Generator) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    kind = int(rng.integers(4))
    pos = int(rng.integers(len(word)))
    if kind == 0:  # substitute
        c = letters[int(rng.integers(26))]
        return word[:pos] + c + word[pos + 1 :]
    if kind == 1 and len(word) > 2:  # delete
        return word[:pos] + word[pos + 1 :]
    if kind == 2:  # insert
        c = letters[int(rng.integers(26))]
        return word[:pos] + c + word[pos:]
    if pos < len(word) - 1:  # transpose
        return word[:pos] + word[pos + 1] + word[pos] + word[pos + 2 :]
    return word


def _morph(word: str) -> str:
    return word[:-1] if word.endswith("s") else word + "s"


@dataclass
class SynthCorpus:
    catalog: list[tuple[str, str]]  # (product_id, product_text)
    train_logs: list[LogRecord]
    eval_logs: list[LogRecord]
    queries: list[tuple[str, str]]  # (query_id, query_text)
    ground_truth: list[tuple[str, str]]  # (query_id, product_id)


def _match_sets(members: list[np.ndarray], chosen: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The products holding every chosen concept, and those holding some but
    not all of them, both ascending. members[c] holds the id of each product
    with concept c once, so a product is in len(chosen) of the arrays exactly
    when it holds every chosen concept."""
    ids, hits = np.unique(np.concatenate([members[c] for c in chosen]), return_counts=True)
    full = hits == len(chosen)
    return ids[full], ids[~full]


def _generate(config: SynthConfig) -> SynthCorpus:
    rng = np.random.default_rng(config.seed)
    used: set[str] = set()
    # The words and the catalog take their integers from blocks of raw words;
    # the queries mix in 64-bit `random()` draws and call `rng` directly.
    draws = Draws(rng)
    below = draws.below

    # Concept surface forms. Phrase-pair concepts realize as two ordered
    # tokens; each mirrored pair shares its word set with reversed order,
    # so unigram bags cannot tell them apart.
    surfaces: list[list[str]] = []
    for _ in range(config.concepts):
        surfaces.append([_make_word(draws, used) for _ in range(config.synonyms_per_concept)])
    for _ in range(config.phrase_pairs):
        w1, w2 = _make_word(draws, used), _make_word(draws, used)
        surfaces.append([f"{w1} {w2}"])
        surfaces.append([f"{w2} {w1}"])
    n_concepts = len(surfaces)

    brands = [_make_word(draws, used) for _ in range(_BRANDS)]
    colors = [_make_word(draws, used) for _ in range(_COLORS)]

    signatures: list[tuple[int, ...]] = []
    catalog: list[tuple[str, str]] = []
    by_concept: dict[int, list[int]] = {c: [] for c in range(n_concepts)}
    k = min(config.concepts_per_product, n_concepts)
    for i in range(config.products):
        sig = tuple(sorted(draws.sample(n_concepts, k)))
        tokens = [surfaces[c][below(len(surfaces[c]))] for c in sig]
        tokens.append(brands[below(_BRANDS)])
        tokens.append(colors[below(_COLORS)])
        if config.model_number_rate > 0:
            tokens.append(_make_model_number(draws, used))
        signatures.append(sig)
        catalog.append((f"P{i:06d}", " ".join(tokens)))
        for c in sig:
            by_concept[c].append(i)
    draws.sync()
    members = [np.array(by_concept[c], dtype=np.int64) for c in range(n_concepts)]

    def make_query(qid: str, seen_texts: set[str]) -> tuple[str, str, int, np.ndarray, np.ndarray]:
        for _attempt in range(200):
            target = int(rng.integers(config.products))
            sig = signatures[target]
            k = min(config.query_concepts, len(sig))
            chosen = tuple(sorted(rng.choice(sig, size=k, replace=False).tolist()))
            tokens: list[str] = []
            for c in chosen:
                form = surfaces[c][int(rng.integers(len(surfaces[c])))]
                for tok in form.split():
                    if rng.random() < config.morph_rate:
                        tok = _morph(tok)
                    if rng.random() < config.typo_rate:
                        tok = _typo(tok, rng)
                    tokens.append(tok)
            if config.model_number_rate > 0 and rng.random() < config.model_number_rate:
                # The target's model number is the last token of its text.
                tokens.append(catalog[target][1].split()[-1])
            text = " ".join(tokens)
            if text and text not in seen_texts:
                seen_texts.add(text)
                return qid, text, target, *_match_sets(members, chosen)
        raise RuntimeError("could not generate a unique query text")

    queries: list[tuple[str, str]] = []
    ground_truth: list[tuple[str, str]] = []
    train_logs: list[LogRecord] = []
    eval_logs: list[LogRecord] = []
    seen_texts: set[str] = set()

    def emit(qid: str, sink: list[LogRecord]) -> None:
        qid, text, target, relevant, partial = make_query(qid, seen_texts)
        queries.append((qid, text))
        ground_truth.extend((qid, f"P{p:06d}") for p in relevant.tolist())
        count = int(rng.integers(1, 4))
        sink.append(
            LogRecord(text, f"P{target:06d}", catalog[target][1], "purchased", count)
        )
        # Impressed: partial-signature products (share a chosen concept but
        # are not full semantic matches). The target holds every chosen
        # concept, so it is never among them.
        candidates = partial.tolist()
        if candidates:
            n_imp = min(config.impressed_per_purchase, len(candidates))
            picks = rng.choice(len(candidates), size=n_imp, replace=False)
            for j in sorted(picks.tolist()):
                p = candidates[j]
                sink.append(
                    LogRecord(text, f"P{p:06d}", catalog[p][1], "impressed", 1)
                )

    for i in range(config.queries):
        emit(f"Q{i:05d}", train_logs)
    for i in range(config.eval_queries):
        emit(f"QE{i:05d}", eval_logs)

    return SynthCorpus(
        catalog=catalog,
        train_logs=train_logs,
        eval_logs=eval_logs,
        queries=queries,
        ground_truth=ground_truth,
    )


def _write_logs(f: TextIO, logs: list[LogRecord]) -> None:
    for r in logs:
        f.write(f"{r.query}\t{r.product_id}\t{r.product_text}\t{r.label}\t{r.count}\n")


def gen_synthetic(config: SynthConfig, out_dir: str) -> dict[str, str]:
    """Generate catalog, train/eval logs, queries, and ground truth files.

    Output is fully determined by the config (including seed). Each file is
    written beside its path and renamed into place, so a write that fails
    leaves the file that was there.
    """
    corpus = _generate(config)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "catalog": os.path.join(out_dir, "catalog.tsv"),
        "logs": os.path.join(out_dir, "logs.tsv"),
        "eval_logs": os.path.join(out_dir, "eval_logs.tsv"),
        "queries": os.path.join(out_dir, "queries.tsv"),
        "ground_truth": os.path.join(out_dir, "ground_truth.tsv"),
    }
    with atomic_write(paths["catalog"], "w") as f:
        for pid, text in corpus.catalog:
            f.write(f"{pid}\t{text}\n")
    with atomic_write(paths["logs"], "w") as f:
        _write_logs(f, corpus.train_logs)
    with atomic_write(paths["eval_logs"], "w") as f:
        _write_logs(f, corpus.eval_logs)
    with atomic_write(paths["queries"], "w") as f:
        for qid, text in corpus.queries:
            f.write(f"{qid}\t{text}\n")
    with atomic_write(paths["ground_truth"], "w") as f:
        for qid, pid in corpus.ground_truth:
            f.write(f"{qid}\t{pid}\n")
    return paths


def read_catalog(stream: Iterable[str]) -> list[tuple[str, str]]:
    """(product id, text) from `id<TAB>text` lines; blank lines are skipped.
    A line without a tab or with an empty id raises ValueError naming it, and
    a repeated id one naming the id and both lines."""
    out = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        pid, tab, text = line.partition("\t")
        if not tab or not pid:
            raise ValueError(f"catalog line {lineno}: expected a product id, a tab and its text: {line!r}")
        first = first_line.setdefault(pid, lineno)
        if first != lineno:
            raise ValueError(f"catalog line {lineno}: product id {pid!r} is already on line {first}")
        out.append((pid, text))
    return out
