"""Exact retrieval and matching eval against the full-sort oracle.

The oracle is the straightforward path: encode each text on its own with
the per-text encoder, lexsort every product by (score desc, id asc), walk
that order for top_k, and score the matching metrics over the whole ranked
id list. The library encodes in batches, selects only the head of the
ranking and counts positions instead; both must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import encode_oracle
from metric_oracle import average_precision, mrr, ndcg, recall_at_k
from semmatch.evaluation import EvalQuery, MetricReport, positions, run_matching_eval, run_ranking_eval
from semmatch.index import MatchResult, ProductIndex, rank_all, top_k
from semmatch.model import ModelConfig, embed_batch
from semmatch.tokenizer import UNIGRAM, TokenizerConfig, build_vocabulary
from semmatch.training import init_model

# -- oracle: per-text encoding, full sort, Python walk, full-list metrics ------


def oracle_embed(texts, side, model, vocab, config):
    """Unit embeddings of texts encoded one at a time, pooled one bag at a time."""
    out = embed_batch(encode_oracle.encode_batch(texts, side, vocab, config), side, model, 1)
    norms = np.linalg.norm(out, axis=1)
    return out / np.where(norms > 0.0, norms, 1.0)[:, None]


def oracle_order(query_vec, index):
    scores = index.matrix @ query_vec
    return scores, np.lexsort((index._id_rank, -scores))


def oracle_top_k(query_text, index, model, vocab, config, k, threshold=0.55):
    if k < 1:
        raise ValueError("k must be >= 1")
    qvec = oracle_embed([query_text], "query", model, vocab, config)[0]
    scores, order = oracle_order(qvec, index)
    items = []
    for i in order:
        if len(items) == k:
            break
        if scores[i] >= threshold:
            items.append((index.ids[i], float(scores[i])))
    return MatchResult(items=items)


def oracle_matching_eval(queries, index, model, vocab, config, k=100):
    report = MetricReport()
    for q in queries:
        relevant = set(q.purchased)
        if not relevant:
            report.skipped += 1
            continue
        qvec = oracle_embed([q.text], "query", model, vocab, config)[0]
        _, order = oracle_order(qvec, index)
        ranked = [index.ids[i] for i in order]
        gains = {pid: 1.0 for pid in relevant}
        report.add(
            {
                "recall": recall_at_k(ranked, relevant, k),
                "map": average_precision(ranked, relevant, k),
                "matching_ndcg": ndcg(ranked, gains),
                "matching_mrr": mrr(ranked, relevant),
            }
        )
    report.finalize()
    return report


# -- fixtures with heavy ties ----------------------------------------------------

TC = TokenizerConfig(
    budget_per_class={UNIGRAM: 100}, oov_bins=8, query_max_tokens=6, product_max_tokens=8
)
TEXTS = ["red shoe", "blue shoe", "green hat", "red hat", "blue coat warm", "warm hat", ""]
QUERIES = ["red shoe", "warm coat", "hat", "", "blue", "purple thing", "red hat blue shoe"]


@pytest.fixture(scope="module")
def model_vocab():
    rows = [("product", t) for t in TEXTS] + [("query", q) for q in QUERIES]
    vocab = build_vocabulary(rows, TC)
    cfg = ModelConfig(embedding_dim=8, shared_embeddings=True, normalization="none")
    model = init_model(vocab.v, vocab.oov_bins, cfg, np.random.default_rng(0))
    return model, vocab


def tied_index(seed, size, model, vocab):
    """Rows drawn with replacement from a small pool: the catalog texts'
    embeddings (one is a zero row), a coarse grid and exact zeros, so scores
    tie often. Ids are shuffled so id order and row order differ."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-1, 2, size=(4, model.n)).astype(np.float64)
    norms = np.linalg.norm(grid, axis=1, keepdims=True)
    grid = np.divide(grid, norms, out=np.zeros_like(grid), where=norms > 0)
    pool = np.vstack([oracle_embed(TEXTS, "product", model, vocab, TC), grid, np.zeros((1, model.n))])
    matrix = pool[rng.integers(0, len(pool), size=size)]
    ids = [f"p{j}" for j in rng.permutation(size)]
    return ProductIndex(ids=ids, matrix=matrix, fingerprint=b"\0" * 32)


def eval_queries(seed, index):
    """Every query text, each with a few purchases. One purchased id is not
    in the index, and one query has no purchases (skipped)."""
    rng = np.random.default_rng(seed + 1)
    queries = []
    for n, text in enumerate(QUERIES):
        picks = rng.choice(len(index.ids), size=min(len(index.ids), n % 4), replace=False)
        purchased = {index.ids[i]: 1 for i in picks}
        if n == 2:
            purchased["not-in-index"] = 1
        queries.append(EvalQuery(f"q{n}", text, purchased, set()))
    return queries


THRESHOLDS = st.sampled_from([-1.0, 0.0, 0.3, 0.55, 1.5]) | st.floats(-1.0, 1.0)
SETTINGS = settings(max_examples=150, deadline=None)


class TestHeadSelection:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40), k=st.integers(1, 45), threshold=THRESHOLDS)
    @example(seed=1, size=20, k=20, threshold=-1.0)  # k == P
    @example(seed=2, size=12, k=30, threshold=0.0)  # k > P
    @example(seed=3, size=25, k=5, threshold=1.5)  # threshold above every score
    def test_top_k_equals_oracle(self, model_vocab, seed, size, k, threshold):
        model, vocab = model_vocab
        index = tied_index(seed, size, model, vocab)
        for text in QUERIES:
            got = top_k(text, index, model, vocab, TC, k, threshold)
            want = oracle_top_k(text, index, model, vocab, TC, k, threshold)
            assert got.items == want.items

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40), k=st.integers(1, 45))
    def test_head_and_positions_equal_full_sort(self, model_vocab, seed, size, k):
        model, vocab = model_vocab
        index = tied_index(seed, size, model, vocab)
        rng = np.random.default_rng(seed)
        # A zero query, a catalog row and a coarse grid vector.
        for qvec in (np.zeros(model.n), index.matrix[rng.integers(size)], rng.integers(-1, 2, model.n) / 2.0):
            scores, head = rank_all(qvec, index, k)
            want_scores, order = oracle_order(qvec, index)
            assert scores.tobytes() == want_scores.tobytes()
            assert head.tolist() == order[:k].tolist()
            rank_of = np.empty(size, dtype=np.int64)
            rank_of[order] = np.arange(1, size + 1)
            rows = np.arange(size)
            assert positions(scores, rows, index._id_rank).tolist() == rank_of.tolist()


class TestMatchingEval:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40), k=st.integers(1, 45))
    @example(seed=4, size=30, k=3)
    @example(seed=5, size=8, k=8)
    def test_per_query_values_equal_oracle(self, model_vocab, seed, size, k):
        model, vocab = model_vocab
        index = tied_index(seed, size, model, vocab)
        queries = eval_queries(seed, index)
        got = run_matching_eval(queries, index, model, vocab, TC, k=k)
        want = oracle_matching_eval(queries, index, model, vocab, TC, k=k)
        assert got.per_query == want.per_query
        assert (got.evaluated, got.skipped) == (want.evaluated, want.skipped)
        assert got.means == want.means

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_without_purchases(self, model_vocab, k):
        model, vocab = model_vocab
        index = tied_index(0, 10, model, vocab)
        queries = [EvalQuery("q0", "red shoe", {}, {"p1"})]
        with pytest.raises(ValueError, match="k must be >= 1"):
            run_matching_eval(queries, index, model, vocab, TC, k=k)


def ranking_queries(seed, ids):
    """Every query text with a random split of `ids` into purchased (counts
    1..4), impressed and neither. Small splits leave some queries with no
    purchase or no impression, which the eval skips."""
    rng = np.random.default_rng(seed + 2)
    queries = []
    for n, text in enumerate(QUERIES):
        role = rng.integers(0, 3, size=len(ids))
        purchased = {pid: int(c) for pid, r, c in zip(ids, role, rng.integers(1, 5, size=len(ids))) if r == 0}
        impressed = {pid for pid, r in zip(ids, role) if r == 1}
        queries.append(EvalQuery(f"q{n}", text, purchased, impressed))
    return queries


def oracle_ranking_eval(queries, product_texts, model, vocab, config):
    """Sort the candidates by (score desc, id asc) and score the list."""
    report = MetricReport()
    for q in queries:
        if not q.purchased or not q.impressed:
            report.skipped += 1
            continue
        candidates = sorted(set(q.purchased) | q.impressed)
        qvec = oracle_embed([q.text], "query", model, vocab, config)[0]
        cand_matrix = oracle_embed([product_texts[pid] for pid in candidates], "product", model, vocab, config)
        score_of = dict(zip(candidates, cand_matrix @ qvec))
        ranked = sorted(candidates, key=lambda pid: (-score_of[pid], pid))
        gains = {pid: float(c) for pid, c in q.purchased.items()}
        report.add({"ranking_ndcg": ndcg(ranked, gains), "ranking_mrr": mrr(ranked, set(q.purchased))})
    report.finalize()
    return report


class TestRankingEval:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 25))
    @example(seed=6, size=20)
    def test_per_query_values_equal_oracle(self, model_vocab, seed, size):
        """Product texts repeat (one is empty), so candidate scores tie and
        the id order decides."""
        model, vocab = model_vocab
        rng = np.random.default_rng(seed)
        ids = [f"p{j}" for j in rng.permutation(size)]
        product_texts = {pid: TEXTS[i] for pid, i in zip(ids, rng.integers(0, len(TEXTS), size=size))}
        queries = ranking_queries(seed, ids)
        got = run_ranking_eval(queries, product_texts, model, vocab, TC)
        want = oracle_ranking_eval(queries, product_texts, model, vocab, TC)
        assert got.per_query == want.per_query
        assert (got.evaluated, got.skipped) == (want.evaluated, want.skipped)
        assert got.means == want.means
