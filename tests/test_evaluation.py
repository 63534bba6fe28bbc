"""IR metric tests against independent brute-force oracles."""

import math

import numpy as np
import pytest

from metric_oracle import average_precision, mrr, ndcg, recall_at_k
from semmatch.evaluation import EvalQuery, MetricReport, load_eval_queries, write_metrics_file
from semmatch.synth import LogRecord


class TestRecall:
    def test_known_values(self):
        ranked = ["a", "b", "c", "d"]
        assert recall_at_k(ranked, {"a", "c"}, 1) == 0.5
        assert recall_at_k(ranked, {"a", "c"}, 3) == 1.0
        assert recall_at_k(ranked, {"z"}, 4) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            recall_at_k(["a"], set(), 1)
        with pytest.raises(ValueError):
            recall_at_k(["a"], {"a"}, 0)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(["a", "b", "x"], {"a", "b"}) == 1.0

    def test_known_value(self):
        # Hits at ranks 1 and 3: (1/1 + 2/3) / 2.
        got = average_precision(["a", "x", "b"], {"a", "b"})
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_cutoff_excludes_late_hits(self):
        assert average_precision(["x", "y", "a"], {"a"}, cutoff=2) == 0.0

    def test_missing_relevant_penalized(self):
        # "b" never retrieved; denominator still counts it.
        assert average_precision(["a"], {"a", "b"}) == pytest.approx(0.5)


class TestNdcg:
    def test_perfect_order_is_one(self):
        gains = {"a": 3.0, "b": 1.0}
        assert ndcg(["a", "b", "x"], gains) == pytest.approx(1.0)

    def test_known_value(self):
        gains = {"a": 1.0}
        got = ndcg(["x", "a"], gains)
        assert got == pytest.approx((1.0 / math.log2(3)) / (1.0 / math.log2(2)))

    def test_graded_gains(self):
        gains = {"a": 3.0, "b": 1.0}
        got = ndcg(["b", "a"], gains)
        ideal = 3.0 / math.log2(2) + 1.0 / math.log2(3)
        actual = 1.0 / math.log2(2) + 3.0 / math.log2(3)
        assert got == pytest.approx(actual / ideal)

    def test_all_zero_gains_rejected(self):
        with pytest.raises(ValueError):
            ndcg(["a"], {"a": 0.0})


class TestMrr:
    def test_values(self):
        assert mrr(["x", "a"], {"a"}) == 0.5
        assert mrr(["a"], {"a"}) == 1.0
        assert mrr(["x", "y"], {"a"}) == 0.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            mrr(["a"], set())


def brute_force_metrics(ranked, relevant, k):
    """Independent oracle computed from first principles."""
    rec = sum(1 for pid in ranked[:k] if pid in relevant) / len(relevant)
    ap_hits, ap = 0, 0.0
    for r, pid in enumerate(ranked[:k], start=1):
        if pid in relevant:
            ap_hits += 1
            ap += ap_hits / r
    ap /= len(relevant)
    dcg = sum(
        1.0 / math.log2(r + 1)
        for r, pid in enumerate(ranked, start=1)
        if pid in relevant
    )
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, len(relevant) + 1))
    rr = 0.0
    for r, pid in enumerate(ranked, start=1):
        if pid in relevant:
            rr = 1.0 / r
            break
    return rec, ap, dcg / idcg, rr


class TestRandomOracle:
    def test_200_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            docs = [f"d{i}" for i in range(n)]
            ranked = list(rng.permutation(docs))
            n_rel = int(rng.integers(1, n + 1))
            relevant = set(rng.choice(docs, size=n_rel, replace=False).tolist())
            k = int(rng.integers(1, n + 1))
            want = brute_force_metrics(ranked, relevant, k)
            gains = {pid: 1.0 for pid in relevant}
            got = (
                recall_at_k(ranked, relevant, k),
                average_precision(ranked, relevant, cutoff=k),
                ndcg(ranked, gains),
                mrr(ranked, relevant),
            )
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-12)


class TestLoadEvalQueries:
    def test_grouping_and_precedence(self):
        logs = [
            LogRecord("q one", "P1", "t", "purchased", 2),
            LogRecord("q one", "P1", "t", "purchased", 1),
            LogRecord("q one", "P2", "t", "impressed", 1),
            LogRecord("q one", "P1", "t", "impressed", 1),  # purchased wins
            LogRecord("q two", "P3", "t", "impressed", 1),
        ]
        queries = load_eval_queries(logs)
        assert len(queries) == 2
        q1 = queries[0]
        assert q1.purchased == {"P1": 3}
        assert q1.impressed == {"P2"}
        assert queries[1].purchased == {}

    def test_report_aggregation(self):
        report = MetricReport()
        report.add({"recall": 1.0})
        report.add({"recall": 0.0})
        report.finalize()
        assert report.means["recall"] == 0.5
        assert report.evaluated == 2


class TestWriteMetricsFile:
    def test_each_task_writes_its_own_counts(self, tmp_path):
        """Two tasks write the lines each writes alone, in name order."""
        matching = MetricReport(means={"recall": 0.5, "map": 0.25}, evaluated=2, skipped=1)
        ranking = MetricReport(means={"ranking_ndcg": 0.75}, evaluated=3)
        texts = {}
        for name, reports in [("m", {"matching": matching}), ("r", {"ranking": ranking}),
                              ("both", {"matching": matching, "ranking": ranking})]:
            write_metrics_file(str(tmp_path / name), reports)
            texts[name] = (tmp_path / name).read_text()
        assert texts["m"] == "map = 0.25\nmatching_queries_evaluated = 2\nmatching_queries_skipped = 1\nrecall = 0.5\n"
        assert texts["both"].splitlines() == sorted(texts["m"].splitlines() + texts["r"].splitlines())

    def test_failed_write_leaves_the_previous_file(self, tmp_path):
        """A write that raises after the first lines leaves the previous
        file whole and no temporary file beside it."""

        class Unwritable:
            def __repr__(self):
                raise TypeError("no text")

        path = tmp_path / "metrics.txt"
        write_metrics_file(str(path), {"matching": MetricReport(means={"recall": 0.5}, evaluated=2)})
        before = path.read_text()
        assert before == "matching_queries_evaluated = 2\nmatching_queries_skipped = 0\nrecall = 0.5\n"
        bad = MetricReport(means={"recall": Unwritable()}, evaluated=2)  # written after the counts
        with pytest.raises(TypeError):
            write_metrics_file(str(path), {"matching": bad})
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.txt"]
