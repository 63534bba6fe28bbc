"""Exact retrieval and matching eval against the full-sort oracle.

The oracle (search_oracle.py) is the straightforward path: encode each text
on its own with the per-text encoder, score every row in float64 with
score_rows, lexsort every product by (score desc, id asc), walk that order
for top_k, and score the matching metrics over the whole ranked id list.
The library encodes in batches, screens in float32 (the matching eval's
queries in blocks), scores only the rows the screen cannot place, selects
only the head of the ranking and counts positions instead; both must agree
exactly.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_oracle import mrr, ndcg
from search_oracle import oracle_embed, oracle_matching_eval, oracle_order, oracle_top_k
from semmatch import evaluation
from semmatch import index as index_mod
from semmatch.evaluation import EvalQuery, MetricReport, run_matching_eval, run_ranking_eval
from semmatch.index import ProductIndex, positions, rank_all, rank_rows, score_rows, screen_queries, top_k
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
        queries.append(EvalQuery(text, purchased, set()))
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
            head, scores = rank_all(qvec, index, k)
            want_scores, order = oracle_order(qvec, index)
            assert head.tolist() == order[:k].tolist()
            assert scores.tobytes() == want_scores[head].tobytes()
            rank_of = np.empty(size, dtype=np.int64)
            rank_of[order] = np.arange(1, size + 1)
            rows = np.arange(size)
            assert positions(want_scores, rows).tolist() == rank_of.tolist()


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
        queries = [EvalQuery("red shoe", {}, {"p1"})]
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
        queries.append(EvalQuery(QUERIES[n % len(QUERIES)], {index.ids[i]: 1 for i in picks}, set()))
    return queries


@pytest.fixture
def settled(monkeypatch):
    """How many rows each float64 score_rows call of the matching eval
    scores: per query its purchased rows, then for each of them whose screen
    window holds other rows, the rows of that window, itself included."""
    calls = []

    def spy(rows, qvec):
        calls.append(len(rows))
        return score_rows(rows, qvec)

    monkeypatch.setattr(index_mod, "score_rows", spy)
    return calls


def assert_same_report(got, want):
    assert got.per_query == want.per_query
    assert (got.evaluated, got.skipped) == (want.evaluated, want.skipped)
    assert got.means == want.means


class TestBlockedScoring:
    """The matching eval screens its queries in blocks with one float32
    matrix product each, and must give the ranks of score_rows over every
    row bit for bit."""

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
        with mock.patch.object(index_mod, "_SCORE_BLOCK", (per_block or len(queries)) * max(1, size)):
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
            monkeypatch.setattr(index_mod, "_SCORE_BLOCK", per_block * size)
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
        """The float32 block screen and score_rows differ by at most e, the
        float32 and the float64 bound added. Unit or zero rows and queries,
        scaled by powers of two from where float32 flushes them to zero to
        where a query's norm passes 2**60 (then e is infinite and the screen
        keeps every row)."""
        rng = np.random.default_rng(seed)

        def unit_or_zero(n):
            x = rng.normal(size=(n, dim))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            x[rng.random(n) < 0.2] = 0.0
            return x

        matrix = unit_or_zero(size) * np.exp2(rng.choice([-160, -130, -60, 0, 20, 60], size=(size, 1)))
        exponents = rng.choice([-1070, -160, -130, -30, 0, 30, 59, 61], size=(n_queries, 1))
        qvecs = unit_or_zero(n_queries) * np.exp2(exponents)
        index = ProductIndex.from_ids(ids=[f"p{j:03d}" for j in range(size)], matrix=matrix, fingerprint=b"\0" * 32)
        screen, _ = index.screen
        q32, e = screen_queries(qvecs, index)
        assert np.isinf(e).tolist() == (np.linalg.norm(qvecs, axis=1) > 2.0**60).tolist()
        for qvec, coarse, bound in zip(qvecs, (q32 @ screen.T).astype(np.float64), e):
            assert np.all(np.abs(coarse - score_rows(matrix, qvec)) <= bound)

    def test_duplicate_of_a_purchase_takes_the_scan(self, model_vocab, settled):
        """A copy of one query's purchased row, under another id, ties with it:
        that row alone is scored beside it in float64; in a generic index the
        screen places every other row."""
        model, vocab = model_vocab
        texts = [t for t in QUERIES if t]  # an empty query scores every product 0
        index = untied_index(9, 50, model.n)
        queries = [EvalQuery(t, {index.ids[n]: 1, index.ids[10 + n]: 1}, set()) for n, t in enumerate(texts)]
        got = run_matching_eval(queries, index, model, vocab, TC, k=5)
        assert settled == [2] * len(texts)
        assert_same_report(got, oracle_matching_eval(queries, index, model, vocab, TC, k=5))
        settled.clear()
        dup = ProductIndex.from_ids(
            ids=index.ids + ["p050"], matrix=np.vstack([index.matrix, index.matrix[13]]), fingerprint=b"\0" * 32
        )
        got = run_matching_eval(queries, dup, model, vocab, TC, k=5)
        assert settled == [2] * 3 + [2, 2] + [2] * (len(texts) - 4)  # query 3 bought rows 3 and 13
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
        queries = [EvalQuery("red", {index.ids[0]: 1}, set()) for _ in range(4)]
        with mock.patch.object(evaluation, "_embed_texts", lambda *args: qvecs):
            got = run_matching_eval(queries, index, model, vocab, TC, k=5)
        _, order = oracle_order(qvecs[0], index)
        assert got.per_query["matching_mrr"] == [1 / (1 + order.tolist().index(0))] * 4

    @pytest.mark.parametrize("beyond", [False, True])
    def test_score_at_the_window_edge_takes_the_scan(self, model_vocab, monkeypatch, settled, beyond):
        """Another product screened exactly at the edge of a purchased one's
        window, e above its score rounded up to float32, is scored in
        float64; one float32 step beyond is placed by the screen alone."""
        model, vocab = model_vocab
        dim = model.n
        qvec = np.zeros((1, dim))
        qvec[0, 0] = 1.0  # every score below is exact in any kernel and precision
        matrix = np.zeros((3, dim))
        matrix[2, 0] = 1.0  # row 0 scores 0, the purchase; row 2 scores 1

        def index_with(edge):
            matrix[1, 0] = edge
            return ProductIndex.from_ids(ids=["a", "b", "c"], matrix=matrix.copy(), fingerprint=b"\0" * 32)

        _, e = screen_queries(qvec, index_with(0.0))  # the largest row sets e, whatever row 1 holds
        high = index_mod.round32(e[0], np.inf)
        edge = np.nextafter(high, np.float32(np.inf)) if beyond else high
        index = index_with(float(edge))
        assert screen_queries(qvec, index)[1].tolist() == e.tolist()
        monkeypatch.setattr(evaluation, "_embed_texts", lambda *args: qvec)
        got = run_matching_eval([EvalQuery("red", {"a": 1}, set())], index, model, vocab, TC, k=5)
        assert settled == ([1] if beyond else [1, 2])
        assert got.per_query["matching_mrr"] == [1 / 3]


class TestRankRows:
    """rank_rows gives each query the ascending positions of its rows in the
    full (score desc, row asc) order of score_rows over every row, whatever
    the ties, with the queries screened over several blocks."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(5, 60),
        kind=st.sampled_from(["tied", "twin", "untied"]),
        per_block=st.integers(1, 3),  # queries per block: 3 blocks or more of 9 queries
    )
    @example(seed=0, size=17, kind="tied", per_block=1)
    def test_equals_positions_of_the_full_scan(self, model_vocab, seed, size, kind, per_block):
        model, vocab = model_vocab
        if kind == "tied":
            index = tied_index(seed, size, model, vocab)
        elif kind == "twin":
            index = twin_index(seed, size, model.n, last=seed % 2 == 0)[0]
        else:
            index = untied_index(seed, size, model.n)
        rng = np.random.default_rng(seed)
        qvecs = rng.normal(size=(9, model.n))
        qvecs[:3] = index.matrix[rng.integers(0, size, size=3)]  # a catalog row ties with its copies
        qvecs[3] = 0.0  # every row ties
        rows = [rng.choice(size, size=rng.integers(1, 5), replace=False) for _ in qvecs]
        rows[4] = np.zeros(0, dtype=np.intp)  # every purchase missing from the index
        with mock.patch.object(index_mod, "_SCORE_BLOCK", per_block * size):
            got = rank_rows(qvecs, rows, index)
        want = [sorted(positions(score_rows(index.matrix, q), r).tolist()) for q, r in zip(qvecs, rows)]
        assert got == want


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
        queries.append(EvalQuery(text, purchased, impressed))
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
        score_of = dict(zip(candidates, score_rows(cand_matrix, qvec)))
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


def twin_index(seed, size, dim, last):
    """Random normal rows, one of them copied to a later row (the last one
    when `last`), and a random unit query. Returns the index, the two rows
    and the query. (Unit rows of width 1 would all tie at +-1.)"""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(size, dim))
    a = int(rng.integers(0, size - 1))
    b = size - 1 if last else int(rng.integers(a + 1, size))
    matrix[b] = matrix[a]
    qvec = rng.normal(size=dim)
    qvec /= np.linalg.norm(qvec)
    ids = [f"p{j:04d}" for j in range(size)]
    return ProductIndex.from_ids(ids=ids, matrix=matrix, fingerprint=b"\0" * 32), a, b, qvec


class TestTwinRows:
    """Byte-identical rows score equally and list by id, wherever they sit:
    in top_k, in the matching eval's ranks and in the ranking eval. A BLAS
    matrix-vector product can round the rows of its tail otherwise."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(5, 3000),
        dim=st.integers(1, 129),
        last=st.booleans(),
    )
    @example(seed=0, size=2999, dim=64, last=True)
    @example(seed=1, size=6, dim=7, last=True)
    def test_twins_tie_and_list_by_id(self, model_vocab, seed, size, dim, last):
        model, vocab = model_vocab
        index, a, b, qvec = twin_index(seed, size, dim, last)
        ids = index.ids
        with mock.patch.object(index_mod, "embed_query", lambda *args: qvec):
            items = top_k("q", index, model, vocab, TC, k=size, threshold=-np.inf).items
            listed = [pid for pid, _ in items]
            at = listed.index(ids[a])
            assert listed[at + 1] == ids[b]
            assert items[at][1] == items[at + 1][1]
            # Cut between the twins: the screen must keep both to order them.
            assert top_k("q", index, model, vocab, TC, k=at + 1, threshold=-np.inf).items == items[: at + 1]

        queries = [EvalQuery("q", {ids[a]: 1}, set()), EvalQuery("q", {ids[b]: 1}, set())]
        with mock.patch.object(evaluation, "_embed_texts", lambda *args: np.tile(qvec, (2, 1))):
            got = run_matching_eval(queries, index, model, vocab, TC, k=1)
        assert got.per_query["matching_mrr"] == [1 / (at + 1), 1 / (at + 2)]

        def embed(texts, side, *args):
            """Queries embed as qvec; product text j as the index's row j."""
            if side == "query":
                return np.tile(qvec, (len(texts), 1))
            return index.matrix[[int(t) for t in texts]]

        product_texts = {pid: str(row) for row, pid in enumerate(ids)}
        product_texts[ids[b]] = str(a)  # twin texts
        queries = [EvalQuery("q", {pid: 1}, set(ids) - {pid}) for pid in (ids[a], ids[b])]
        with mock.patch.object(evaluation, "_embed_texts", embed):
            got = run_ranking_eval(queries, product_texts, model, vocab, TC)
        assert got.per_query["ranking_mrr"] == [1 / (at + 1), 1 / (at + 2)]


def near_tie_index(seed, size, dim):
    """Rows and a positive query whose float64 scores lie within a few screen
    bounds of one another, drawn so that rounding to float32 moves them
    coherently. Each row component is a float32 of +-[1, 1 + 2**-13), its
    sign fixed per column, nudged by 0, +0.49 or -0.49 of its float32
    spacing, one nudge per row: float32 keeps the grid value, so a nudged
    row's screen score falls short of (or passes) its float64 score by up to
    0.98 u * sum |row_j q_j|. Mixed signs cancel in the score, so the float32
    spacing at the score can be far finer than e. The query is nudged up."""
    rng = np.random.default_rng(seed)
    step = 2.0**-23  # float32 spacing on [1, 2)
    base = 1 + rng.integers(1, 2**10, size=dim) * step
    grid = (base + rng.integers(0, 4, size=(size, dim)) * step) * rng.choice([-1.0, 1.0], size=dim)
    matrix = grid + rng.choice([-0.49, 0.0, 0.49], size=(size, 1)) * step
    qvec = 1 + rng.integers(1, 2**10, size=dim) * step + 0.49 * step
    index = ProductIndex.from_ids(ids=[f"p{j:03d}" for j in range(size)], matrix=matrix, fingerprint=b"\0" * 32)
    return index, qvec


class TestScreenBound:
    """Rows scoring within a few screen bounds e of the k-th score, of the
    threshold and of a purchased row: top_k and the matching eval must still
    equal the float64 full scan. Small widths make the float32 rounding of
    the rows and the query most of e."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 60),
        dim=st.sampled_from([1, 2, 3, 8]),
        data=st.data(),
    )
    def test_near_ties_equal_full_scan(self, model_vocab, seed, size, dim, data):
        model, vocab = model_vocab
        index, qvec = near_tie_index(seed, size, dim)
        scores, order = oracle_order(qvec, index)
        _, e = screen_queries(qvec[None, :], index)
        k = data.draw(st.integers(1, size))
        # A threshold at a row's score, or a few e away from it.
        threshold = float(scores[data.draw(st.integers(0, size - 1))]) + data.draw(st.integers(-3, 3)) / 2 * e[0]
        head, got = rank_all(qvec, index, k, threshold)
        want = [row for row in order.tolist() if scores[row] >= threshold][:k]
        assert head.tolist() == want
        assert got.tobytes() == scores[want].tobytes()
        head, _ = rank_all(qvec, index, k)
        assert head.tolist() == order[:k].tolist()

        rank_of = np.empty(size, dtype=np.int64)
        rank_of[order] = np.arange(1, size + 1)
        queries = [EvalQuery("q", {pid: 1}, set()) for pid in index.ids]
        with mock.patch.object(evaluation, "_embed_texts", lambda *args: np.tile(qvec, (size, 1))):
            got = run_matching_eval(queries, index, model, vocab, TC, k=1)
        assert got.per_query["matching_mrr"] == (1 / rank_of).tolist()
