"""The retrieval oracle: encode each text on its own with the per-text
encoder, score every product with score_rows over the whole matrix per
query, lexsort by (score desc, id asc), walk that order for top_k, and score the
matching metrics over the whole ranked id list. The id order check compares
the ids as Python strings, one pair at a time."""

import math
import operator

import numpy as np

import encode_oracle
from metric_oracle import average_precision, mrr, ndcg, recall_at_k
from semmatch.evaluation import MetricReport
from semmatch.index import MatchResult, score_rows
from semmatch.model import embed_batch


def oracle_embed(texts, side, model, vocab, config):
    """Unit embeddings of texts encoded one at a time, pooled one bag at a time."""
    ids = encode_oracle.encode_batch(texts, side, vocab, config)
    out = np.zeros((len(ids), model.n))
    for i in range(len(ids)):
        out[i] = embed_batch(ids[i : i + 1], side, model)[0]
    norms = np.linalg.norm(out, axis=1)
    return out / np.where(norms > 0.0, norms, 1.0)[:, None]


def oracle_order(query_vec, index):
    """Scores and every row in (score desc, id asc) order, the ids ranked by
    sorting them here rather than taken to ascend with the rows."""
    scores = score_rows(index.matrix, query_vec)
    id_rank = np.empty(len(index.ids), dtype=np.int64)
    id_rank[sorted(range(len(index.ids)), key=index.ids.__getitem__)] = np.arange(len(index.ids))
    return scores, np.lexsort((id_rank, -scores))


def oracle_id_order_error(ids):
    """The message ProductIndex raises for ids that are not strictly
    ascending, naming the first pair out of order, or None."""
    if all(map(operator.lt, ids, ids[1:])):
        return None
    a, b = next((a, b) for a, b in zip(ids, ids[1:]) if a >= b)
    if a == b:
        return f"duplicate product id: {a!r}"
    return f"product ids out of order: {a!r} before {b!r}"


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


def _dot_error(qnorms, row_norm, dim, dtype):
    """Per query, a bound on |computed - exact| of `row . q` for every row of
    norm at most `row_norm`, when the row and q are first rounded to `dtype`
    and their dot is then summed in `dtype` in any order: gamma_{dim+2} *
    (||q|| + t) * (row_norm + t), with t = 2**(emin // 2 + 3) raising each
    norm past what underflow hides (derived in ProductIndex.screen)."""
    info = np.finfo(dtype)
    u = float(info.eps) / 2
    t = 2.0 ** (info.minexp // 2 + 3)
    gamma = (dim + 2) * u / (1 - (dim + 2) * u) * (1 + 2**-20)
    return gamma * (qnorms + t) * (row_norm + t)


def oracle_screen_error(qvecs, matrix):
    """The screen's bound on |screen score - score_rows score| per query as
    two terms: the float32 and the float64 _dot_error, each with its own
    underflow allowance, at ProductIndex.screen's bound on the largest row
    norm; infinite for a query of norm above 2**60 or not finite."""
    dim = matrix.shape[1]
    u = float(np.finfo(np.float32).eps) / 2
    gamma = dim * u / (1 - dim * u)
    rows = matrix.astype(np.float32)
    top = float(np.einsum("ij,ij->i", rows, rows).max(initial=0.0))
    row_norm = (math.sqrt(top / (1 - gamma)) + 2.0**-60) / (1 - u) * (1 + 2**-20)
    qnorms = np.linalg.norm(qvecs, axis=1)
    e = _dot_error(qnorms, row_norm, dim, np.float32) + _dot_error(qnorms, row_norm, dim, np.float64)
    return np.where(qnorms <= 2.0**60, e, np.inf)
