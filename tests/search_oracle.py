"""The retrieval oracle: encode each text on its own with the per-text
encoder, score every product with score_rows over the whole matrix per
query, lexsort by (score desc, id asc), walk that order for top_k, and score the
matching metrics over the whole ranked id list. The id order check compares
the ids as Python strings, one pair at a time."""

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
