"""Exact retrieval and matching eval against the full-sort oracle.

The oracle (search_oracle.py) is the straightforward path: encode each text
on its own with the per-text encoder, score with one matrix-vector product
per query, lexsort every product by (score desc, id asc), walk that order
for top_k, and score the matching metrics over the whole ranked id list.
The library encodes in batches, scores the matching eval's queries in
blocks, selects only the head of the ranking and counts positions instead;
both must agree exactly.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_oracle import mrr, ndcg
from search_oracle import oracle_embed, oracle_matching_eval, oracle_order, oracle_top_k
from semmatch import evaluation
from semmatch.evaluation import EvalQuery, MetricReport, positions, run_matching_eval, run_ranking_eval
from semmatch.index import ProductIndex, rank_all, top_k
from semmatch.model import ModelConfig
from semmatch.tokenizer import UNIGRAM, TokenizerConfig, build_vocabulary
from semmatch.training import init_model

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
    tie often. Ids ascend with the rows, as ProductIndex requires."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-1, 2, size=(4, model.n)).astype(np.float64)
    norms = np.linalg.norm(grid, axis=1, keepdims=True)
    grid = np.divide(grid, norms, out=np.zeros_like(grid), where=norms > 0)
    pool = np.vstack([oracle_embed(TEXTS, "product", model, vocab, TC), grid, np.zeros((1, model.n))])
    matrix = pool[rng.integers(0, len(pool), size=size)]
    return ProductIndex.from_ids(ids=[f"p{j:03d}" for j in range(size)], matrix=matrix, fingerprint=b"\0" * 32)


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
            assert positions(scores, rows).tolist() == rank_of.tolist()


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


def untied_index(seed, size, dim):
    """Random unit rows, so no two scores tie or come close; ids as in
    tied_index."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(size, dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    return ProductIndex.from_ids(ids=[f"p{j:03d}" for j in range(size)], matrix=matrix, fingerprint=b"\0" * 32)


def many_queries(seed, index, count):
    """`count` queries cycling through QUERIES, each buying 0 to 3 indexed
    products (0 makes it skipped)."""
    rng = np.random.default_rng(seed + 3)
    queries = []
    for n in range(count):
        picks = rng.choice(len(index.ids), size=min(len(index.ids), n % 4), replace=False)
        queries.append(EvalQuery(f"q{n}", QUERIES[n % len(QUERIES)], {index.ids[i]: 1 for i in picks}, set()))
    return queries


@pytest.fixture
def fallbacks(monkeypatch):
    """The purchased rows of each query the matching eval ranks from the
    per-query scan's own scores."""
    calls = []

    def spy(scores, rows):
        calls.append(rows.tolist())
        return positions(scores, rows)

    monkeypatch.setattr(evaluation, "positions", spy)
    return calls


def assert_same_report(got, want):
    assert got.per_query == want.per_query
    assert (got.evaluated, got.skipped) == (want.evaluated, want.skipped)
    assert got.means == want.means


class TestBlockedScoring:
    """The matching eval scores its queries in blocks with one matrix product
    each, and must give the per-query scan's ranks bit for bit."""

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 40),
        k=st.integers(1, 45),
        per_block=st.sampled_from([1, 2, 3, None]),  # queries per block; None: all
        tied=st.booleans(),
    )
    @example(seed=0, size=17, k=1, per_block=None, tied=True)  # exact ties that only the id order breaks
    def test_blocks_equal_oracle(self, model_vocab, seed, size, k, per_block, tied):
        model, vocab = model_vocab
        index = tied_index(seed, size, model, vocab) if tied else untied_index(seed, size, model.n)
        queries = eval_queries(seed, index)
        with mock.patch.object(evaluation, "_SCORE_BLOCK", (per_block or len(queries)) * max(1, size)):
            got = run_matching_eval(queries, index, model, vocab, TC, k=k)
        assert_same_report(got, oracle_matching_eval(queries, index, model, vocab, TC, k=k))

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("per_block", [7, None])  # 7 queries a block straddles the chunks
    def test_chunks_of_20_equal_one_call(self, model_vocab, monkeypatch, tied, per_block):
        model, vocab = model_vocab
        size = 300
        index = tied_index(8, size, model, vocab) if tied else untied_index(8, size, model.n)
        queries = many_queries(8, index, 70)
        if per_block:
            monkeypatch.setattr(evaluation, "_SCORE_BLOCK", per_block * size)
        whole = run_matching_eval(queries, index, model, vocab, TC, k=10)
        chunks = [run_matching_eval(queries[i : i + 20], index, model, vocab, TC, k=10) for i in range(0, 70, 20)]
        for name, values in whole.per_query.items():
            assert [v for c in chunks for v in c.per_query[name]] == values
        assert [sum(c.evaluated for c in chunks), sum(c.skipped for c in chunks)] == [whole.evaluated, whole.skipped]
        assert_same_report(whole, oracle_matching_eval(queries, index, model, vocab, TC, k=10))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 8, 64, 256]),
        n_queries=st.integers(1, 40),
        size=st.integers(1, 60),
    )
    def test_block_and_scan_scores_within_twice_the_bound(self, seed, dim, n_queries, size):
        """Unit or zero rows, and unit or zero queries scaled by powers of two
        from where every product underflows to where the norms are large."""
        rng = np.random.default_rng(seed)

        def unit_or_zero(n):
            x = rng.normal(size=(n, dim))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            x[rng.random(n) < 0.2] = 0.0
            return x

        matrix = unit_or_zero(size)
        exponents = rng.choice([-1070, -1040, -1000, -540, -30, 0, 30, 500], size=(n_queries, 1))
        qvecs = unit_or_zero(n_queries) * np.exp2(exponents)
        index = ProductIndex.from_ids(ids=[f"p{j:03d}" for j in range(size)], matrix=matrix, fingerprint=b"\0" * 32)
        e = evaluation._dot_error(np.linalg.norm(qvecs, axis=1), index.max_row_norm, dim)
        for qvec, scores, bound in zip(qvecs, qvecs @ matrix.T, e):
            assert np.all(np.abs(scores - matrix @ qvec) <= 2 * bound)

    def test_duplicate_of_a_purchase_takes_the_scan(self, model_vocab, fallbacks):
        """A copy of one query's purchased row, under another id, ties with it:
        that query alone is ranked from the scan; a generic index needs the
        scan for no query."""
        model, vocab = model_vocab
        texts = [t for t in QUERIES if t]  # an empty query scores every product 0
        index = untied_index(9, 50, model.n)
        queries = [EvalQuery(f"q{n}", t, {index.ids[n]: 1, index.ids[10 + n]: 1}, set()) for n, t in enumerate(texts)]
        got = run_matching_eval(queries, index, model, vocab, TC, k=5)
        assert fallbacks == []
        assert_same_report(got, oracle_matching_eval(queries, index, model, vocab, TC, k=5))
        dup = ProductIndex.from_ids(
            ids=index.ids + ["p050"], matrix=np.vstack([index.matrix, index.matrix[13]]), fingerprint=b"\0" * 32
        )
        got = run_matching_eval(queries, dup, model, vocab, TC, k=5)
        assert fallbacks == [[3, 13]]
        assert_same_report(got, oracle_matching_eval(queries, dup, model, vocab, TC, k=5))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_tied_in_exact_arithmetic(self, model_vocab, seed):
        """A purchased row and a copy with two components swapped where the
        query's are equal: the exact dots are equal, but the block and the
        scan sum in other orders and often split them the opposite ways in
        the last bit. The eval must give the scan's rank."""
        model, vocab = model_vocab
        rng = np.random.default_rng(seed)
        dim = 64
        q = rng.normal(size=dim)
        q[1] = q[0]
        qvecs = np.tile(q / np.linalg.norm(q), (4, 1))  # more than one row, so a matrix product
        matrix = rng.normal(size=(8, dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix[1] = matrix[0, [1, 0, *range(2, dim)]]
        index = ProductIndex.from_ids(ids=[f"p{j}" for j in range(8)], matrix=matrix, fingerprint=b"\0" * 32)
        queries = [EvalQuery(f"q{n}", "red", {index.ids[0]: 1}, set()) for n in range(4)]
        with mock.patch.object(evaluation, "_embed_texts", lambda *args: qvecs):
            got = run_matching_eval(queries, index, model, vocab, TC, k=5)
        _, order = oracle_order(qvecs[0], index)
        assert got.per_query["matching_mrr"] == [1 / (1 + order.tolist().index(0))] * 4

    @pytest.mark.parametrize("beyond", [False, True])
    def test_score_at_the_window_edge_takes_the_scan(self, model_vocab, monkeypatch, fallbacks, beyond):
        """Another product's score exactly 4e from a purchased one's is close
        enough for the scan to tie or reorder them; one step beyond is not."""
        model, vocab = model_vocab
        dim = model.n
        qvec = np.zeros((1, dim))
        qvec[0, 0] = 1.0  # every score below is exact in any kernel
        window = 4 * evaluation._dot_error(np.array([1.0]), 1.0, dim)[0]
        edge = np.nextafter(window, np.inf) if beyond else window
        matrix = np.zeros((3, dim))
        matrix[1, 0], matrix[2, 0] = edge, 1.0  # row 0 scores 0, the purchase
        index = ProductIndex.from_ids(ids=["a", "b", "c"], matrix=matrix, fingerprint=b"\0" * 32)
        monkeypatch.setattr(evaluation, "_embed_texts", lambda *args: qvec)
        got = run_matching_eval([EvalQuery("q0", "red", {"a": 1}, set())], index, model, vocab, TC, k=5)
        assert fallbacks == ([] if beyond else [[0]])
        assert got.per_query["matching_mrr"] == [1 / 3]


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
