"""Inference bits pinned by digest: the index file, the retrieval results
over it and the sharded scores of the trained models whose checkpoints
test_training_oracle pins. How many bags are embedded at once, which
pooling path a call takes, the vector width numpy runs at and how the
screen bounds its error must change no bit of any of them."""

import hashlib
import io

import numpy as np
import pytest

from semmatch.index import build_index, embed_query, rank_all, rank_rows, save_index
from semmatch.sharding import ShardPlan, simulate
from semmatch.tokenizer import UNIGRAM, TokenizerConfig, build_vocabulary, encode_batch
from test_training_oracle import PINNED_CHECKPOINTS, pinned_model

TC = TokenizerConfig(budget_per_class={UNIGRAM: 30}, oov_bins=2, query_max_tokens=4, product_max_tokens=8)


def corpus():
    """A vocabulary fitting the pinned models (30 ids, 2 OOV bins) and a
    catalog of 330 products in id order: up to 10 of 40 words each, so some
    hash into the bins and some are cut at 8 slots, one empty text, and
    row 3's text again at row 300. Also 330 query texts of up to 5 words."""
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, size=rng.integers(1, 11))) for _ in range(330)]
    texts[7] = ""
    texts[300] = texts[3]
    queries = [" ".join(rng.choice(words, size=rng.integers(0, 6))) for _ in range(330)]
    vocab = build_vocabulary([("product", t) for t in texts] + [("query", q) for q in queries], TC)
    assert (vocab.v, vocab.oov_bins) == (30, 2)
    assert (encode_batch(texts, "product", vocab, TC) > vocab.v).any()
    return vocab, [(f"P{i:03d}", t) for i, t in enumerate(texts)], queries


# sha256 of save_index's bytes, and of the bytes of the scores of 330 and
# of 41 pairs through 4 shards, pinned when the index embedded 2**18 slot
# floats a call and simulate ceil(B/4) bags. Layer norm cannot be sharded.
PINNED_INDEXES = [
    (True, "batch", "6642a456528ef48783837f1f05addd0b780336cd01e03aab2aba14d1ff6e211e"),
    (False, "layer", "db64ad29f6c973ecd80d08e416cbccd0d6acb55ea442c476665cc9fe478ea069"),
    (True, "none", "18ea4a9a3124bbf70420f5c793d559d1a809f478f0f1bdf995e5a9269447af4f"),
]
# sha256 of rank_all's heads and scores for every query of retrieval_queries
# at k in (1, 7, 100) and threshold -inf and 0.55, and of rank_rows'
# positions of the rows of retrieval_rows, pinned when the screen's bound
# added a float32 and a float64 rounding bound per query and rank_all cut
# its float64 survivors at the threshold and at the k-th score before sorting.
PINNED_RETRIEVAL = [
    (
        True,
        "batch",
        "0a6d6a512e3f0be3ba927536cb9be355f90c7abe1749661580ffc03980448722",
        "7f26ab132e32fbbbba671ba1296e2b2100e372fc03c99f0068f053ca7e37c255",
    ),
    (
        False,
        "layer",
        "4a2e64fad01500ca2213a62d2bd5bad6db9183e7225f3e662327eb176a2aff94",
        "91a6145d41a5e4e742862f9c5cb8f3a0a90bab1a4c6f56c902e835dee6097126",
    ),
    (
        True,
        "none",
        "8cd495ee2e4399e3a63dd4dc6d8507c3bad960efbe2ef19e00570f9f6d8e4f51",
        "51126a207d089372675fca41e7e02e8be5cd71704aae4ffd187312b621132271",
    ),
]
PINNED_SHARDED = [
    (True, "batch", "8324e0a482f21d2f96a9fcd51d2ca053ee83b824fcdfa02b1bcd33cea15ca6d1"),
    (True, "none", "206384e6802995e8cef88baebad2adc35e7f95f51b9e4c53e6f14a529e1adc79"),
]


def test_pins_cover_every_pinned_checkpoint():
    assert [pin[:2] for pin in PINNED_INDEXES] == [pin[:2] for pin in PINNED_CHECKPOINTS]
    assert [pin[:2] for pin in PINNED_RETRIEVAL] == [pin[:2] for pin in PINNED_CHECKPOINTS]
    assert [pin[:2] for pin in PINNED_SHARDED] == [pin[:2] for pin in PINNED_CHECKPOINTS if pin[1] != "layer"]


@pytest.mark.parametrize("shared, norm, digest", PINNED_INDEXES)
def test_index_file_matches_pinned_digest(shared, norm, digest):
    vocab, products, _ = corpus()
    f = io.BytesIO()
    save_index(build_index(products, pinned_model(shared, norm), vocab, TC), f)
    assert hashlib.sha256(f.getvalue()).hexdigest() == digest


def retrieval_queries(index, model, vocab, queries):
    """Every query text's embedding, then a zero query and queries equal to
    the twin rows 3 and 300."""
    qvecs = [embed_query(text, model, vocab, TC) for text in queries]
    return np.vstack([*qvecs, np.zeros(model.n), index.matrix[[3, 300]]])


def retrieval_rows(count):
    """Per query, the twin rows 3 and 300 and up to three other rows."""
    rng = np.random.default_rng(12)
    return [np.unique(np.concatenate([[3, 300], rng.choice(330, size=j % 4)])) for j in range(count)]


@pytest.mark.parametrize("shared, norm, heads, positions", PINNED_RETRIEVAL)
def test_retrieval_matches_pinned_digests(shared, norm, heads, positions):
    vocab, products, queries = corpus()
    model = pinned_model(shared, norm)
    index = build_index(products, model, vocab, TC)
    qvecs = retrieval_queries(index, model, vocab, queries)
    h = hashlib.sha256()
    for k in (1, 7, 100):
        for threshold in (-np.inf, 0.55):
            for qvec in qvecs:
                rows, scores = rank_all(qvec, index, k, threshold)
                h.update(rows.tobytes() + scores.tobytes())
    ranked = rank_rows(qvecs, retrieval_rows(len(qvecs)), index)
    flat = np.concatenate([np.asarray(r, dtype="<i8") for r in ranked])
    digests = h.hexdigest(), hashlib.sha256(flat.tobytes()).hexdigest()
    assert digests == (heads, positions)


@pytest.mark.parametrize("shared, norm, digest", PINNED_SHARDED)
def test_sharded_scores_match_pinned_digest(shared, norm, digest):
    vocab, products, queries = corpus()
    model = pinned_model(shared, norm)
    q = encode_batch(queries, "query", vocab, TC)
    p = encode_batch([text for _, text in reversed(products)], "product", vocab, TC)
    plan = ShardPlan(n=4, k=model.n)
    scores = [simulate(plan, q[:size], p[:size], model)[0] for size in (330, 41)]
    assert hashlib.sha256(b"".join(s.tobytes() for s in scores)).hexdigest() == digest
