"""Tokenizer, vocabulary, and OOV hashing tests."""

import io
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encode_oracle
import vocabulary_oracle
from encode_oracle import hash_oov, tokenize
from semmatch import tokenizer
from semmatch.tokenizer import (
    CHAR_TRIGRAM,
    MAX_ID,
    UNIGRAM,
    TokenizerConfig,
    Vocabulary,
    build_vocabulary,
    char_trigrams,
    encode,
    encode_batch,
    fnv1a64,
    fnv1a64_many,
    load_vocabulary,
    ngram_class,
    save_vocabulary,
    word_ngrams,
)

GOLDEN_TEXT = "artistic iphone 6s case"

# Independently derived by sliding a 3-char window over
# "#artistic#iphone#6s#case#" (25 chars -> 23 windows).
GOLDEN_CHAR_TRIGRAMS = [
    "#ar", "art", "rti", "tis", "ist", "sti", "tic", "ic#", "c#i",
    "#ip", "iph", "pho", "hon", "one", "ne#", "e#6", "#6s", "6s#",
    "s#c", "#ca", "cas", "ase", "se#",
]

GOLDEN_BIGRAMS = ["artistic#iphone", "iphone#6s", "6s#case"]
GOLDEN_WORD_TRIGRAMS = ["artistic#iphone#6s", "iphone#6s#case"]


def word_unigrams(text: str, config: TokenizerConfig) -> list[str]:
    """Split on whitespace runs, lowercasing first when configured."""
    if config.lowercase:
        text = text.lower()
    return text.split()


class TestGoldenExamples:
    def test_char_trigrams_golden(self):
        got = char_trigrams(GOLDEN_TEXT)
        assert got == GOLDEN_CHAR_TRIGRAMS
        assert len(got) == 23

    def test_bigrams_golden(self):
        words = GOLDEN_TEXT.split()
        got = word_ngrams(words, 2)
        assert got == GOLDEN_BIGRAMS
        assert len(got) == 3

    def test_word_trigrams_golden(self):
        words = GOLDEN_TEXT.split()
        got = word_ngrams(words, 3)
        assert got == GOLDEN_WORD_TRIGRAMS
        assert len(got) == 2

    def test_unigrams_golden(self):
        cfg = TokenizerConfig()
        assert word_unigrams(GOLDEN_TEXT, cfg) == ["artistic", "iphone", "6s", "case"]
        bag = tokenize(GOLDEN_TEXT, cfg)
        assert [t for c, t in bag if c == UNIGRAM] == word_unigrams(GOLDEN_TEXT, cfg)


class TestTokenize:
    def test_combined_bag_order(self):
        cfg = TokenizerConfig(
            use_unigrams=True, ngram_orders=(2,), use_char_trigrams=True
        )
        bag = tokenize("red shoe", cfg)
        classes = [c for c, _ in bag]
        # Canonical order: unigrams, then n-grams by order, then char trigrams.
        assert classes == [UNIGRAM] * 2 + [ngram_class(2)] + [CHAR_TRIGRAM] * 8

    def test_lowercasing(self):
        cfg = TokenizerConfig()
        assert tokenize("Red SHOE", cfg) == tokenize("red shoe", cfg)
        raw = TokenizerConfig(lowercase=False)
        assert ("unigram", "Red") in tokenize("Red SHOE", raw)

    def test_whitespace_runs_collapse(self):
        cfg = TokenizerConfig(use_char_trigrams=True, use_unigrams=False)
        assert tokenize("a  b", cfg) == tokenize("a b", cfg)
        assert tokenize(" a b ", cfg) == tokenize("a b", cfg)

    def test_empty_text(self):
        cfg = TokenizerConfig(
            use_unigrams=True, ngram_orders=(2,), use_char_trigrams=True
        )
        assert tokenize("", cfg) == []
        assert tokenize("   ", cfg) == []

    def test_short_text_has_no_ngrams(self):
        cfg = TokenizerConfig(use_unigrams=True, ngram_orders=(2, 3))
        bag = tokenize("solo", cfg)
        assert bag == [(UNIGRAM, "solo")]

    def test_config_requires_some_class(self):
        with pytest.raises(ValueError):
            TokenizerConfig(use_unigrams=False)

    @pytest.mark.parametrize("orders", [(2, 2), (3, 2, 3)])
    def test_config_rejects_repeated_ngram_orders(self, orders):
        """A repeated order would list each of its n-grams twice in a bag and
        give the vocabulary more ids than records."""
        with pytest.raises(ValueError, match="ngram orders must be distinct"):
            TokenizerConfig(ngram_orders=orders, budget_per_class={ngram_class(n): 5 for n in orders})

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_char_trigram_count_matches_wrapped_length(self, text):
        tris = char_trigrams(text)
        stripped = text.strip()
        if not stripped:
            assert tris == []
        else:
            import re

            wrapped = "#" + re.sub(r"\s+", "#", stripped) + "#"
            assert len(tris) == max(0, len(wrapped) - 2)
            assert all(len(t) == 3 for t in tris)

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=4), max_size=8),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_ngram_count(self, words, n):
        grams = word_ngrams(words, n)
        assert len(grams) == max(0, len(words) - n + 1)
        for g in grams:
            assert g.count("#") == n - 1


class TestHashing:
    def test_fnv1a64_reference_values(self):
        # Standard FNV-1a 64-bit reference vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_hash_oov_range(self):
        v, bins = 100, 37
        for token in ("alpha", "beta", "x123", ""):
            h = hash_oov(UNIGRAM, token, bins, v)
            assert v + 1 <= h <= v + bins

    def test_hash_oov_deterministic(self):
        assert hash_oov(UNIGRAM, "tok", 16, 10) == hash_oov(UNIGRAM, "tok", 16, 10)

    def test_class_tag_separates_collisions(self):
        # The same string in different classes feeds different tag bytes, so
        # they are not forced to collide.
        hashes = {
            cls: hash_oov(cls, "same", 1 << 20, 0)
            for cls in (UNIGRAM, CHAR_TRIGRAM, ngram_class(2), ngram_class(3))
        }
        assert len(set(hashes.values())) == len(hashes)

    def test_hash_distribution_roughly_uniform(self):
        bins = 64
        counts = np.zeros(bins, dtype=int)
        for i in range(64 * 200):
            counts[hash_oov(UNIGRAM, f"token{i}", bins, 0) - 1] += 1
        # Every bin hit; no bin more than twice the mean.
        assert counts.min() > 0
        assert counts.max() < 2 * counts.mean()


def _corpus(rows):
    return [("query", t) for t in rows]


class TestVocabulary:
    def test_frequency_ranking_and_tiebreak(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 2})
        vocab = build_vocabulary(
            _corpus(["b b b", "c c", "a a", "z"]), cfg
        )
        # b (3) first, then the a/c tie breaks lexicographically: a wins.
        assert vocab.token_to_id[(UNIGRAM, "b")] == 1
        assert vocab.token_to_id[(UNIGRAM, "a")] == 2
        assert (UNIGRAM, "c") not in vocab.token_to_id
        assert vocab.v == 2

    def test_ids_dense_from_one(self):
        cfg = TokenizerConfig(
            use_unigrams=True,
            use_char_trigrams=True,
            budget_per_class={UNIGRAM: 100, CHAR_TRIGRAM: 100},
        )
        vocab = build_vocabulary(_corpus(["red shoe", "blue shoe"]), cfg)
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(1, len(ids) + 1))
        assert vocab.v == len(ids)

    def test_budget_truncates(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 3})
        vocab = build_vocabulary(_corpus(["a b c d e f g"]), cfg)
        assert vocab.v == 3

    def test_empty_corpus_rejected(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 3})
        with pytest.raises(ValueError):
            build_vocabulary([], cfg)

    def test_missing_budget_rejected(self):
        cfg = TokenizerConfig(use_unigrams=True, use_char_trigrams=True,
                              budget_per_class={UNIGRAM: 3})
        with pytest.raises(ValueError):
            build_vocabulary(_corpus(["a b"]), cfg)

    def test_rebuild_stability(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 50})
        rows = ["red shoe", "blue shoe", "green hat red"]
        v1 = build_vocabulary(_corpus(rows), cfg)
        v2 = build_vocabulary(_corpus(rows), cfg)
        assert v1.token_to_id == v2.token_to_id

    def test_derived_percentile_lengths(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 100})
        rows = [("query", " ".join(["w"] * k)) for k in range(1, 101)]
        vocab = build_vocabulary(rows, cfg)
        # Nearest-rank 99th percentile of lengths 1..100 is 99.
        assert vocab.derived_query_max == 99
        assert vocab.derived_product_max is None
        # A record counts as often as it occurs: 199 one-word queries put
        # the 99th percentile below the single four-word one.
        repeated = [("query", "a b c d")] + [("query", "a")] * 199
        assert build_vocabulary(repeated, cfg).derived_query_max == 1

    def test_save_load_roundtrip(self):
        cfg = TokenizerConfig(
            use_unigrams=True,
            ngram_orders=(2,),
            use_char_trigrams=True,
            budget_per_class={UNIGRAM: 50, ngram_class(2): 50, CHAR_TRIGRAM: 50},
            oov_bins=17,
        )
        vocab = build_vocabulary(_corpus(["red shoe", "blue shoe sale"]), cfg)
        buf = io.StringIO()
        save_vocabulary(vocab, buf)
        buf.seek(0)
        loaded = load_vocabulary(buf)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.v == vocab.v
        assert loaded.oov_bins == vocab.oov_bins

    def test_ids_up_to_the_record_limit(self):
        """V + B may reach MAX_ID, the largest uint32 id a record file
        holds, at build and at load; one id more raises ValueError."""
        rows = _corpus(["red shoe", "blue shoe sale"])
        v = build_vocabulary(rows, TokenizerConfig(budget_per_class={UNIGRAM: 50})).v
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 50}, oov_bins=MAX_ID - v)
        buf = io.StringIO()
        save_vocabulary(build_vocabulary(rows, cfg), buf)
        assert load_vocabulary(io.StringIO(buf.getvalue())).oov_bins == MAX_ID - v
        past = TokenizerConfig(budget_per_class={UNIGRAM: 50}, oov_bins=MAX_ID - v + 1)
        with pytest.raises(ValueError, match=f"V \\+ B = {MAX_ID + 1} is more ids than records hold"):
            build_vocabulary(rows, past)
        text = buf.getvalue().replace(f"B={MAX_ID - v}", f"B={MAX_ID - v + 1}", 1)
        with pytest.raises(ValueError, match="more ids than records hold"):
            load_vocabulary(io.StringIO(text))

    def test_derived_lengths_persist(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 50})
        rows = [("query", "red shoe"), ("product", "red shoe sale now")]
        vocab = build_vocabulary(rows, cfg)
        buf = io.StringIO()
        save_vocabulary(vocab, buf)
        assert buf.getvalue().splitlines()[0] == f"V={vocab.v} B=0 query_max=2 product_max=4"
        buf.seek(0)
        loaded = load_vocabulary(buf)
        assert (loaded.derived_query_max, loaded.derived_product_max) == (2, 4)
        assert encode("red shoe sale", "query", loaded, cfg).ids.shape == (2,)
        assert encode("red shoe sale", "product", loaded, cfg).ids.shape == (4,)

    def test_header_without_derived_lengths(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 50}, query_max_tokens=3)
        vocab = build_vocabulary([("query", "red shoe")], cfg)
        buf = io.StringIO()
        save_vocabulary(vocab, buf)
        assert buf.getvalue().splitlines()[0] == f"V={vocab.v} B=0"

    def test_config_length_wins_over_derived(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 50})
        vocab = build_vocabulary([("query", "red shoe"), ("product", "red")], cfg)
        sized = TokenizerConfig(budget_per_class={UNIGRAM: 50}, query_max_tokens=6)
        assert vocab.max_tokens("query", sized) == 6
        assert vocab.max_tokens("product", sized) == 1
        with pytest.raises(ValueError, match="max token length"):
            Vocabulary({}, 0, 0).max_tokens("query", cfg)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_per_record_oracle(self, data):
        """Counting each distinct (side, text) once gives the vocabulary that
        counting every record does, also from a one-shot generator."""
        orders = data.draw(st.sets(st.sampled_from([2, 3])))
        unigrams = data.draw(st.booleans())
        trigrams = data.draw(st.booleans()) or not (unigrams or orders)
        classes = [UNIGRAM] * unigrams + [ngram_class(n) for n in orders] + [CHAR_TRIGRAM] * trigrams
        max_len = st.none() | st.integers(1, 12)
        cfg = TokenizerConfig(
            lowercase=data.draw(st.booleans()),
            use_unigrams=unigrams,
            ngram_orders=tuple(orders),
            use_char_trigrams=trigrams,
            budget_per_class={c: data.draw(st.integers(1, 30)) for c in classes},
            oov_bins=data.draw(st.integers(0, 5)),
            query_max_tokens=data.draw(max_len),
            product_max_tokens=data.draw(max_len),
        )
        texts = st.lists(st.sampled_from(["red", "Red", "shoe", "sale", "x", "", " "]), max_size=6).map(" ".join)
        # Rows repeated up to 60 times, so a side's 99th-percentile length
        # is not always its maximum.
        distinct = st.tuples(st.sampled_from(["query", "product", "title"]), texts, st.integers(1, 60))
        rows = [(side, text) for side, text, times in data.draw(st.lists(distinct, min_size=1)) for _ in range(times)]
        rows = data.draw(st.permutations(rows))
        corpus = (row for row in rows) if data.draw(st.booleans()) else rows
        got = build_vocabulary(corpus, cfg)
        want = vocabulary_oracle.build_vocabulary(rows, cfg)
        assert got.token_to_id == want.token_to_id
        assert got.v == want.v
        assert (got.derived_query_max, got.derived_product_max) == (want.derived_query_max, want.derived_product_max)
        got_text, want_text = io.StringIO(), io.StringIO()
        save_vocabulary(got, got_text)
        save_vocabulary(want, want_text)
        assert got_text.getvalue() == want_text.getvalue()

    def test_load_rejects_bad_header(self):
        with pytest.raises(ValueError):
            load_vocabulary(io.StringIO("garbage\n"))

    def test_load_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            load_vocabulary(io.StringIO("V=2 B=0\nunigram\ta\t1\n"))


class TestEncode:
    @pytest.fixture
    def setup(self):
        cfg = TokenizerConfig(
            budget_per_class={UNIGRAM: 10},
            oov_bins=8,
            query_max_tokens=5,
            product_max_tokens=7,
        )
        vocab = build_vocabulary(_corpus(["red shoe", "blue shoe"]), cfg)
        return cfg, vocab

    def test_fixed_length_and_padding(self, setup):
        cfg, vocab = setup
        bag = encode("red shoe", "query", vocab, cfg)
        assert bag.ids.shape == (5,)
        assert np.count_nonzero(bag.ids) == 2
        assert list(bag.ids[2:]) == [0, 0, 0]

    def test_truncation(self, setup):
        cfg, vocab = setup
        bag = encode("red shoe blue red shoe blue red", "query", vocab, cfg)
        assert bag.ids.shape == (5,)
        assert np.count_nonzero(bag.ids) == 5

    def test_oov_hashes_into_bins(self, setup):
        cfg, vocab = setup
        bag = encode("mystery", "query", vocab, cfg)
        assert vocab.v + 1 <= bag.ids[0] <= vocab.v + vocab.oov_bins
        assert np.count_nonzero(bag.ids) == 1

    def test_oov_drops_to_zero_without_bins(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 10}, query_max_tokens=4,
                              product_max_tokens=4)
        vocab = build_vocabulary(_corpus(["red shoe"]), cfg)
        bag = encode("mystery red", "query", vocab, cfg)
        assert list(bag.ids[:2]) == [0, vocab.token_to_id[(UNIGRAM, "red")]]
        assert np.count_nonzero(bag.ids) == 1

    def test_empty_text(self, setup):
        cfg, vocab = setup
        bag = encode("", "query", vocab, cfg)
        assert np.count_nonzero(bag.ids) == 0
        assert not bag.ids.any()

    def test_sides_use_own_lengths(self, setup):
        cfg, vocab = setup
        assert encode("red", "product", vocab, cfg).ids.shape == (7,)

    @given(st.text(alphabet="abcdefgh ", max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_ids_always_in_row_range(self, text):
        cfg = TokenizerConfig(
            use_unigrams=True,
            use_char_trigrams=True,
            budget_per_class={UNIGRAM: 5, CHAR_TRIGRAM: 5},
            oov_bins=11,
            query_max_tokens=30,
            product_max_tokens=30,
        )
        vocab = build_vocabulary(_corpus(["abc def", "gh abc"]), cfg)
        bag = encode(text, "query", vocab, cfg)
        assert bag.ids.min() >= 0
        assert bag.ids.max() <= vocab.v + vocab.oov_bins


# Words that hit and miss a small vocabulary: Unicode letters, '#' inside a
# word, digits and repeats, so bags hold n-grams and trigrams of all kinds.
# "İ" lowercases to two code points and "ΟΔΟΣ" to a final sigma that
# depends on the letters around it.
WORDS = ["red", "Red", "shoe", "sale", "x", "#", "a#b", "ü", "Straße", "ß", "日本", "model99", "shoe#", "İ", "ΟΔΟΣ"]
SPACES = [" ", "  ", "\t", "\n", " ", "　", " \t "]


@st.composite
def encode_cases(draw):
    """A tokenizer config over any class combination, a vocabulary built from
    some texts, and a batch of other texts with repeats and empty ones."""
    orders = draw(st.sets(st.sampled_from([2, 3])))
    unigrams = draw(st.booleans())
    trigrams = draw(st.booleans()) or not (unigrams or orders)
    classes = [UNIGRAM] * unigrams + [ngram_class(n) for n in orders] + [CHAR_TRIGRAM] * trigrams
    max_len = st.integers(1, 14)
    cfg = TokenizerConfig(
        lowercase=draw(st.booleans()),
        use_unigrams=unigrams,
        ngram_orders=tuple(orders),
        use_char_trigrams=trigrams,
        budget_per_class={c: draw(st.integers(1, 12)) for c in classes},
        oov_bins=draw(st.sampled_from([0, 1, 7, 1000])),
        query_max_tokens=draw(max_len),
        product_max_tokens=draw(max_len),
    )
    words = st.sampled_from(WORDS) | st.text(max_size=4)
    text = st.builds(
        lambda ws, gaps, lead, trail: lead + "".join(w + g for w, g in zip(ws, gaps)) + trail,
        st.lists(words, max_size=6),
        st.lists(st.sampled_from(SPACES), min_size=6, max_size=6),
        st.sampled_from(["", " ", "\t\n"]),
        st.sampled_from(["", " ", " "]),
    )
    corpus = [(side, t) for side in ("query", "product") for t in draw(st.lists(text, min_size=1, max_size=8))]
    vocab = build_vocabulary(corpus, cfg)
    texts = draw(st.lists(text | st.sampled_from(["", "   ", "\t"]), max_size=12))
    texts += draw(st.lists(st.sampled_from(texts), max_size=4)) if texts else []  # repeats
    return cfg, vocab, draw(st.permutations(texts)), draw(st.sampled_from(["query", "product"]))


class TestEncodeBatch:
    @settings(max_examples=500, deadline=None)
    @given(
        case=encode_cases(),
        column_slots=st.sampled_from([0, 1, 30, 90, tokenizer._COLUMN_SLOTS]),
        block=st.sampled_from([1, 2, tokenizer._ENCODE_BLOCK]),
    )
    def test_equals_per_text_oracle(self, case, column_slots, block):
        """Rows equal the per-text encoder's, whether the texts are encoded one
        by one or class by class, in blocks of any size."""
        cfg, vocab, texts, side = case
        with (
            mock.patch.object(tokenizer, "_COLUMN_SLOTS", column_slots),
            mock.patch.object(tokenizer, "_ENCODE_BLOCK", block),
        ):
            got = encode_batch(texts, side, vocab, cfg)
        want = encode_oracle.encode_batch(texts, side, vocab, cfg)
        assert got.dtype == np.int64
        assert got.shape == want.shape == (len(texts), vocab.max_tokens(side, cfg))
        assert got.tobytes() == want.tobytes()
        for text, row in zip(texts, got):
            assert encode(text, side, vocab, cfg).ids.tobytes() == row.tobytes()

    def test_many_misses_hashed_together_equal_oracle(self):
        """Over 64 distinct misses in every class, at the real path
        selection; bags cut exactly at L and longer."""
        cfg = TokenizerConfig(
            use_unigrams=True,
            ngram_orders=(2, 3),
            use_char_trigrams=True,
            budget_per_class={UNIGRAM: 5, ngram_class(2): 5, ngram_class(3): 5, CHAR_TRIGRAM: 5},
            oov_bins=97,
            query_max_tokens=9,
            product_max_tokens=60,
        )
        vocab = build_vocabulary(_corpus(["red shoe sale", "blue shoe"]), cfg)
        texts = [f"red w{i} shoe v{i * 7} sale" for i in range(192)]
        texts += ["", "red shoe sale", texts[5]]
        for side in ("query", "product"):
            got = encode_batch(texts, side, vocab, cfg)
            assert got.tobytes() == encode_oracle.encode_batch(texts, side, vocab, cfg).tobytes()
        assert np.count_nonzero(got[:-3] > vocab.v) > 64

    def test_one_text_hashes_each_miss_with_the_scalar_hash(self):
        """A one-text call takes the per-text loop, which hashes every miss
        with fnv1a64, however many distinct misses its bag holds."""
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 5}, oov_bins=97, query_max_tokens=200)
        vocab = build_vocabulary(_corpus(["red shoe sale"]), cfg)
        text = " ".join(f"w{i}" for i in range(200))
        with mock.patch.object(tokenizer, "fnv1a64_many", side_effect=AssertionError("fnv1a64_many called")):
            got = encode_batch([text], "query", vocab, cfg)
        assert got.tobytes() == encode_oracle.encode_batch([text], "query", vocab, cfg).tobytes()
        assert len(set(got[0].tolist())) > 64

    def test_column_block_hashes_its_misses_together(self):
        """A column call hashes a block's misses with one fnv1a64_many, even
        when the block has a single miss."""
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 5}, oov_bins=97, query_max_tokens=4)
        words = ["red", "shoe", "sale", "blue"]
        vocab = build_vocabulary(_corpus([" ".join(words)]), cfg)
        texts = [" ".join(ws) for ws in itertools.product(words, repeat=4)][:100]
        texts[37] = "red zzz shoe sale"
        with mock.patch.object(tokenizer, "fnv1a64_many", wraps=fnv1a64_many) as spy:
            got = encode_batch(texts, "query", vocab, cfg)
        assert got.tobytes() == encode_oracle.encode_batch(texts, "query", vocab, cfg).tobytes()
        assert spy.call_count == 1
        assert list(spy.call_args.args[0]) == [b"\x01zzz"]

    def test_memory_grows_with_the_block_not_the_call(self):
        """Encoding 4x as many long texts raises the tracemalloc peak by the
        extra bags and a little bookkeeping per text (its row number and its
        entry in the call's text-to-row map), not by their tokens: the column
        pass holds one block's tokens at a time. A block of 16 texts keeps
        the traced calls short."""
        cfg = TokenizerConfig(
            use_unigrams=True,
            ngram_orders=(2, 3),
            use_char_trigrams=True,
            budget_per_class={UNIGRAM: 20, ngram_class(2): 20, ngram_class(3): 20, CHAR_TRIGRAM: 20},
            oov_bins=1000,
            query_max_tokens=4,
            product_max_tokens=100,
        )
        vocab = build_vocabulary(_corpus(["red shoe sale", "blue shoe"]), cfg)
        block = 16
        texts = [" ".join(f"red{i:03}x{j} shoe" for j in range(8)) for i in range(8 * block)]  # one length

        def peak(count: int) -> int:
            batch = texts[:count]
            with mock.patch.object(tokenizer, "_ENCODE_BLOCK", block):
                tracemalloc.start()
                try:
                    encode_batch(batch, "product", vocab, cfg)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        extra = 6 * block  # texts
        assert peak(8 * block) - peak(2 * block) < extra * (100 * 8 + 256)  # int64 bag + bookkeeping

    def test_empty_batch(self):
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 5}, oov_bins=3, query_max_tokens=4)
        vocab = build_vocabulary(_corpus(["red"]), cfg)
        assert encode_batch([], "query", vocab, cfg).shape == (0, 4)


class TestFnv1a64Many:
    @settings(max_examples=200, deadline=None)
    @given(data=st.lists(st.binary(max_size=40), max_size=192))
    def test_equals_scalar(self, data):
        got = fnv1a64_many(data)
        assert got.dtype == np.uint64
        assert got.tolist() == [fnv1a64(d) for d in data]

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65])
    def test_counts_around_the_selection(self, count):
        rng = np.random.default_rng(count)
        data = [b""] + [rng.bytes(int(n)) for n in rng.integers(0, 30, size=count)]
        assert fnv1a64_many(data).tolist() == [fnv1a64(d) for d in data]
        assert fnv1a64_many([b""]).tolist() == [0xCBF29CE484222325]


def split_by_class(token_to_id):
    tables: dict[str, dict[str, int]] = {}
    for (token_class, token), tid in token_to_id.items():
        tables.setdefault(token_class, {})[token] = tid
    return tables


class TestClassTables:
    @settings(max_examples=150, deadline=None)
    @given(case=encode_cases())
    def test_tables_hold_the_records_after_build_and_load(self, case):
        """After a build the tables are the per-record oracle's; after a
        load they hold exactly the file's records, and token_to_id is their
        (class, token) view."""
        cfg, vocab, _, _ = case
        corpus = [("query", "red shoe"), ("product", "Straße a#b ü red")]
        built = build_vocabulary(corpus, cfg)
        assert built.ids_by_class == vocabulary_oracle.build_vocabulary(corpus, cfg).ids_by_class
        for v in (built, vocab):
            buf = io.StringIO()
            save_vocabulary(v, buf)
            records = {(c, t): int(tid) for c, t, tid in (line.split("\t") for line in buf.getvalue().splitlines()[1:])}
            assert records == v.token_to_id
            buf.seek(0)
            loaded = load_vocabulary(buf)
            assert loaded.ids_by_class == split_by_class(records)
            assert loaded.token_to_id == records

    def test_load_merges_a_class_split_over_runs(self):
        text = "V=4 B=0\nunigram\tred\t3\nctri\t#re\t1\nunigram\tshoe\t2\nctri\tred\t4\n"
        loaded = load_vocabulary(io.StringIO(text))
        assert loaded.ids_by_class == {"unigram": {"red": 3, "shoe": 2}, "ctri": {"#re": 1, "red": 4}}

    @pytest.mark.parametrize(
        "body",
        ["unigram\tred\t1\nunigram\tred\t2\n", "unigram\tred\t1\nctri\tred\t2\nunigram\tred\t3\n"],
        ids=["within one run", "across runs"],
    )
    def test_load_rejects_repeated_tokens(self, body):
        v = body.count("\n")
        with pytest.raises(ValueError, match="no token or id repeated"):
            load_vocabulary(io.StringIO(f"V={v} B=0\n" + body))
