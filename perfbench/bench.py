"""One workload's pipeline: set-up, training and sweeps over the trained
model, with the checks of every output.

The pipeline calls the public functions of the semmatch modules through
their module attributes (``training.train``, not a name imported here), so
the traced run's wrappers see every call. It writes each artifact to disk
and reads it back as the CLI does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from semmatch import cli, config, evaluation, index, model, sharding, synth, tokenizer, training

import checks as chk
from workloads import Workload
from yardstick import REFERENCE_S

clock = time.perf_counter

SHARDS = 4
RANDOM_PER_QUERY = 7  # random products scored per eval query in the separation check
QUERY_CHUNK = 15  # back-to-back top_k calls per chunk
EVAL_CHUNK = 20  # eval queries per run_matching_eval + run_ranking_eval chunk
SHARD_CHUNK = 1000  # pairs per sharding.simulate call
LAP_S = 0.5  # a training is scaled in laps of about this many seconds
MEMORY_EPOCHS = 2  # the second epoch's sample is built while the first's is alive
MEMORY_QUERIES = 20  # per-query buffers are freed between queries


@dataclass
class Artifacts:
    cfg: config.RunConfig
    paths: dict[str, str]
    vocab: tokenizer.Vocabulary
    records: np.ndarray
    catalog: list[tuple[str, str]]
    eval_queries: list[evaluation.EvalQuery]
    query_texts: list[str]  # timed top_k inputs: a seeded sample of the logs' queries


@dataclass
class Sweep:
    """Timings and outputs of one sweep over a trained model.

    Times are scaled to the yardstick's reference speed (see speed_factor).
    Rates are per chunk, so a run can report their median."""

    setup_s: list[float] = field(default_factory=list)  # each set-up run within the sweep
    index_rate: list[float] = field(default_factory=list)  # products/s of each build_index + save_index
    query_s: list[float] = field(default_factory=list)  # each top_k call
    eval_rate: list[float] = field(default_factory=list)  # queries/s of each matching + ranking eval chunk
    cli_s: list[float] = field(default_factory=list)  # each `semmatch query` call
    shard_rate: list[float] = field(default_factory=list)  # pairs/s of each sharding.simulate chunk
    results: dict[str, list[tuple[str, float]]] = field(default_factory=dict)  # top_k items
    cli_lines: dict[str, list[str]] = field(default_factory=dict)  # printed by `semmatch query`
    quality: dict[str, float] = field(default_factory=dict)


class Pipeline:
    def __init__(
        self,
        workload: Workload,
        seed: int,
        workdir: str,
        checks: chk.Checks,
        tracer=None,
        yard=None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.tracer = tracer
        self.yard = yard  # the untraced run's Yardstick; None in the traced run
        self.attempted = 0
        self.failed = 0
        self.art: Artifacts | None = None
        os.makedirs(workdir, exist_ok=True)
        self.files = {
            name: os.path.join(workdir, name)
            for name in ("run.cfg", "vocab.txt", "records.bin", "model.bin", "index.bin")
        }
        with open(self.files["run.cfg"], "w") as f:
            f.write(workload.config_text(seed))

    def speed_factor(self) -> float:
        """Measure the yardstick once more. Returns the factor that scales the
        wall time of the operation since the previous measurement to the
        yardstick's reference speed: REFERENCE_S over the mean of the two
        measurements around it. Without a yardstick, 1."""
        if self.yard is None:
            return 1.0
        before, after = self.yard.samples[-1], self.yard.measure()
        return REFERENCE_S / ((before + after) / 2)

    def _untraced(self):
        """The benchmark's own checks and bookkeeping stay out of the trace."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    # -- set-up ----------------------------------------------------------------

    def set_up(self) -> float:
        """Generate, parse, build and reload the vocabulary, preprocess, and
        read the records back. Returns the set-up wall time in seconds,
        scaled step by step to the yardstick's reference speed when there is
        one: a set-up outlasts the machine's spells of speed."""
        wl, files = self.workload, self.files
        laps = Laps(self)
        cfg = config.load_run_config(files["run.cfg"])
        synth_cfg = dataclasses.replace(
            cfg.synth,
            seed=wl.synth_seed,
            model_number_rate=wl.model_number_rate,
        )
        paths = synth.gen_synthetic(synth_cfg, os.path.join(self.workdir, "data"))
        laps.lap()
        with open(paths["logs"]) as f:
            logs, _ = synth.parse_log(f)
        with open(paths["eval_logs"]) as f:
            eval_logs, _ = synth.parse_log(f)
        with open(paths["catalog"]) as f:
            catalog = synth.read_catalog(f)
        laps.lap()
        vocab = tokenizer.build_vocabulary(_corpus(logs), cfg.tokenizer)
        with open(files["vocab.txt"], "w") as f:
            tokenizer.save_vocabulary(vocab, f)
        with open(files["vocab.txt"]) as f:
            vocab = tokenizer.load_vocabulary(f)
        laps.lap()
        training.preprocess_logs(logs, vocab, cfg.tokenizer, files["records.bin"])
        laps.lap()
        _, _, records = training.read_records(files["records.bin"])
        laps.lap()
        self.attempted += 1

        with self._untraced():
            expected = chk.distinct_triples(paths["logs"])
            self.checks.expect(
                len(records) == expected,
                f"{len(records)} records for {expected} distinct (query, product, label) triples",
            )
            eval_queries = evaluation.load_eval_queries(eval_logs)
            texts = list(dict.fromkeys(r.query for r in eval_logs + logs))
            picked = np.random.default_rng([self.seed, 1]).choice(len(texts), size=wl.queries, replace=False)
            self.art = Artifacts(
                cfg=cfg,
                paths=paths,
                vocab=vocab,
                records=records,
                catalog=catalog,
                eval_queries=eval_queries,
                query_texts=[texts[i] for i in picked],
            )
        return laps.total

    # -- a measured round: one training, then sweeps -----------------------------

    def train(self) -> float:
        """Train as `semmatch train` does and write the checkpoint. Returns
        the sampled examples trained per second of training.train, scaled
        in laps to the yardstick's reference speed when there is one."""
        art = self.art
        cfg, vocab = art.cfg, art.vocab
        trained = training.init_model(vocab.v, vocab.oov_bins, cfg.model, np.random.default_rng(cfg.seed))
        if self.yard is None:
            start = clock()
            history = training.train(art.records, trained, cfg.loss, cfg.train)
            train_s = clock() - start
        else:
            history, train_s = self._train_in_laps(trained)
        self.attempted += 1
        with open(self.files["model.bin"], "wb") as f:
            model.save_model(trained, f)
        with self._untraced():
            for error in chk.loss_errors(history.epoch_loss):
                self.checks.expect(False, error)
        # The 1:6:7 rule: each purchase gives one purchased, impressed_per_purchase
        # impressed and random_per_purchase random examples. The traced run
        # checks both counts against the examples it sees sampled and trained.
        purchased = int(np.count_nonzero(art.records["label"] == 0))
        per_purchase = 1 + cfg.train.impressed_per_purchase + cfg.train.random_per_purchase
        self.sampled = cfg.train.epochs * purchased * per_purchase
        self.trained = self.sampled - history.dropped_empty - history.skipped_small_batches
        return self.trained / train_s

    def _train_in_laps(self, trained) -> tuple[training.TrainHistory, float]:
        """training.train, scaled in laps of about LAP_S seconds.

        One training outlasts the machine's spells of speed, so one pair of
        yardstick measurements around it cannot scale it. training.train
        calls training.forward_batch once per batch; that one name is
        rebound, for the length of this call, to end a lap before a batch
        once LAP_S have passed since the last. Returns the history and the
        scaled seconds, the yardstick's own time excluded."""
        art = self.art
        forward_batch = training.forward_batch

        def lapping_forward_batch(*args, **kwargs):
            if clock() - laps.mark >= LAP_S:
                laps.lap()
            return forward_batch(*args, **kwargs)

        self.speed_factor()
        training.forward_batch = lapping_forward_batch
        try:
            laps = Laps(self)
            history = training.train(art.records, trained, art.cfg.loss, art.cfg.train)
            laps.lap()
        finally:
            training.forward_batch = forward_batch
        return history, laps.total

    def sweep(self, check: bool, setups: int) -> Sweep:
        """One sweep over the checkpoint on disk: index builds, top_k calls,
        matching and ranking evals, `semmatch query` calls, sharded scoring
        and `setups` repeated set-ups, in chunks spread evenly through the
        sweep (see _schedule). A repeated set-up regenerates identical
        artifacts. With `check`, check every output; a later sweep over the
        same checkpoint need only equal a checked one."""
        art, wl, files = self.art, self.workload, self.files
        cfg, vocab, tok = art.cfg, art.vocab, art.cfg.tokenizer
        k, threshold = cfg.eval_k, cfg.eval_threshold
        with open(files["model.bin"], "rb") as f:
            m = model.load_model(f)
        texts = art.query_texts
        rows = np.random.default_rng([self.seed, 2]).integers(len(art.records), size=wl.shard_pairs)
        q_ids = art.records["query"][rows].astype(np.int64)
        p_ids = art.records["product"][rows].astype(np.int64)
        plan = sharding.ShardPlan(n=SHARDS, k=m.n)
        product_texts = dict(art.catalog)

        out = Sweep()
        matching, ranking = evaluation.MetricReport(), evaluation.MetricReport()
        sharded, scalars = [], 0
        idx = None
        counts = {
            "index": wl.index_calls,
            "query": _chunks(len(texts), QUERY_CHUNK),
            "eval": _chunks(len(art.eval_queries), EVAL_CHUNK),
            "cli": wl.cli_calls,
            "shard": _chunks(wl.shard_pairs, SHARD_CHUNK),
            "setup": setups,
        }
        # Each operation's wall time is scaled by the yardstick measured
        # just before and just after it (speed_factor).
        self.speed_factor()
        for op, i in _schedule(counts):
            if op == "index":  # as `semmatch embed-products` does
                start = clock()
                built = index.build_index(art.catalog, m, vocab, tok)
                with open(files["index.bin"], "wb") as f:
                    index.save_index(built, f)
                elapsed = clock() - start
                out.index_rate.append(len(art.catalog) / (elapsed * self.speed_factor()))
                if idx is None:
                    with open(files["index.bin"], "rb") as f:
                        idx = index.load_index(f)
                    for text in texts[: wl.warmup_queries]:
                        index.top_k(text, idx, m, vocab, tok, k, threshold)
                    self.attempted += wl.warmup_queries
                    self.speed_factor()
            elif op == "query":
                times = []
                for text in texts[i * QUERY_CHUNK : (i + 1) * QUERY_CHUNK]:
                    start = clock()
                    result = index.top_k(text, idx, m, vocab, tok, k, threshold)
                    times.append(clock() - start)
                    out.results[text] = result.items
                factor = self.speed_factor()
                out.query_s += [t * factor for t in times]
            elif op == "eval":
                chunk = art.eval_queries[i * EVAL_CHUNK : (i + 1) * EVAL_CHUNK]
                start = clock()
                reports = (
                    evaluation.run_matching_eval(chunk, idx, m, vocab, tok, k=k),
                    evaluation.run_ranking_eval(chunk, product_texts, m, vocab, tok),
                )
                elapsed = clock() - start
                out.eval_rate.append(len(chunk) / (elapsed * self.speed_factor()))
                for merged, report in zip((matching, ranking), reports):
                    _merge_report(merged, report)
            elif op == "cli":
                text = texts[i % len(texts)]
                elapsed, out.cli_lines[text] = self._cli_query(text)
                out.cli_s.append(elapsed * self.speed_factor())
            elif op == "setup":
                out.setup_s.append(self.set_up())
            else:
                sl = slice(i * SHARD_CHUNK, (i + 1) * SHARD_CHUNK)
                start = clock()
                scores, ledger = sharding.simulate(plan, q_ids[sl], p_ids[sl], m)
                elapsed = clock() - start
                out.shard_rate.append(len(scores) / (elapsed * self.speed_factor()))
                sharded.append(scores)
                scalars += ledger.scalars_returned
        self.attempted += (
            wl.index_calls + len(texts) + 2 * counts["eval"] + counts["shard"]
        )  # set-ups and CLI calls count themselves
        matching.finalize()
        ranking.finalize()
        out.quality = {
            "recall_at_100": matching.means["recall"],
            "map_at_100": matching.means["map"],
            "ranking_ndcg": ranking.means["ranking_ndcg"],
        }
        if check:
            with self._untraced():
                self._check_index(built, files["index.bin"])
                self._check_top_k(idx, m, out.results)
                self._check_cli(out.cli_lines, out.results)
                self._check_matching(idx, m, matching)
                self._check_separation(idx, m)
                self._check_shards(m, q_ids, p_ids, np.concatenate(sharded), scalars)
        return out

    def _cli_query(self, text: str) -> tuple[float, list[str]]:
        """`semmatch query` in process: parse the config, load the vocab, model
        and index, run top_k and print. Returns the wall time and the lines."""
        art, files = self.art, self.files
        argv = [
            "query", "--text", text,
            "--index", files["index.bin"], "--model", files["model.bin"],
            "--vocab", files["vocab.txt"], "--config", files["run.cfg"],
            "--k", str(art.cfg.eval_k), "--threshold", repr(art.cfg.eval_threshold),
        ]
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        elapsed = clock() - start
        self.attempted += 1
        if status != 0:
            self.failed += 1
        return elapsed, out.getvalue().splitlines()

    def memory_peaks(self) -> dict[str, float]:
        """tracemalloc peaks of train, build_index and run_matching_eval.

        tracemalloc slows Python-heavy layers several-fold, so these calls run
        apart from the traced passes, shortened where the peak does not depend
        on the length: two epochs, and the first eval queries."""
        art = self.art
        cfg, vocab, tok = art.cfg, art.vocab, art.cfg.tokenizer
        m = training.init_model(vocab.v, vocab.oov_bins, cfg.model, np.random.default_rng(cfg.seed))
        short = dataclasses.replace(cfg.train, epochs=min(cfg.train.epochs, MEMORY_EPOCHS))
        peaks = {}
        _, peaks["training.train"] = _peak_mb(training.train, art.records, m, cfg.loss, short)
        idx, peaks["index.build_index"] = _peak_mb(index.build_index, art.catalog, m, vocab, tok)
        _, peaks["evaluation.run_matching_eval"] = _peak_mb(
            evaluation.run_matching_eval, art.eval_queries[:MEMORY_QUERIES], idx, m, vocab, tok, k=cfg.eval_k
        )
        return peaks

    # -- output checks ----------------------------------------------------------

    def _check_index(self, built: index.ProductIndex, path: str) -> None:
        self.checks.expect(chk.unit_or_zero_rows(built.matrix), "an index row is neither unit nor zero")
        with open(path, "rb") as f:
            blob = f.read()
        loaded = index.load_index(io.BytesIO(blob))
        again = io.BytesIO()
        index.save_index(loaded, again)
        self.checks.expect(
            loaded.ids == built.ids
            and loaded.fingerprint == built.fingerprint
            and loaded.matrix.tobytes() == built.matrix.tobytes()
            and again.getvalue() == blob,
            "the index does not survive a save/load round trip bitwise",
        )

    def _check_top_k(self, idx, m, results) -> None:
        art = self.art
        k, threshold = art.cfg.eval_k, art.cfg.eval_threshold
        for text in art.query_texts[: self.workload.checked_queries]:
            scores = idx.matrix @ index.embed_query(text, m, art.vocab, art.cfg.tokenizer)
            expected = chk.brute_force_top_k(scores, idx.ids, k, threshold)
            for error in chk.top_k_errors(results[text], expected, k, threshold):
                self.checks.expect(False, f"top_k({text!r}): {error}")

    def _check_matching(self, idx, m, matching) -> None:
        art = self.art
        relevant = chk.purchased_by_query(art.paths["eval_logs"])
        texts = [q.text for q in art.eval_queries if q.text in relevant]
        heads = [
            chk.brute_force_head(
                idx.matrix @ index.embed_query(t, m, art.vocab, art.cfg.tokenizer), idx.ids, art.cfg.eval_k
            )
            for t in texts
        ]
        recall, ap = chk.recall_and_map(heads, [relevant[t] for t in texts], art.cfg.eval_k)
        self.checks.expect(matching.evaluated == len(texts), "matching eval skipped a query with purchases")
        self.checks.expect(
            abs(recall - matching.means["recall"]) <= 1e-12,
            f"recall_at_100 {matching.means['recall']} != brute force {recall}",
        )
        self.checks.expect(
            abs(ap - matching.means["map"]) <= 1e-12,
            f"map_at_100 {matching.means['map']} != brute force {ap}",
        )

    def _check_separation(self, idx, m) -> None:
        """Median eval-pair scores order purchased > impressed > random."""
        art = self.art
        row_of = {pid: i for i, pid in enumerate(idx.ids)}
        rng = np.random.default_rng([self.seed, 3])
        by_label: dict[str, list[float]] = {"purchased": [], "impressed": [], "random": []}
        for text, labelled in chk.labelled_pairs(art.paths["eval_logs"]).items():
            qvec = index.embed_query(text, m, art.vocab, art.cfg.tokenizer)
            seen = labelled["purchased"] | labelled["impressed"]
            randoms = [i for i in rng.integers(len(idx.ids), size=2 * RANDOM_PER_QUERY) if idx.ids[i] not in seen]
            for label in ("purchased", "impressed"):
                by_label[label] += [float(idx.matrix[row_of[pid]] @ qvec) for pid in labelled[label]]
            by_label["random"] += [float(idx.matrix[i] @ qvec) for i in randoms[:RANDOM_PER_QUERY]]
        med = {label: statistics.median(v) for label, v in by_label.items()}
        self.checks.expect(
            med["purchased"] > med["impressed"] > med["random"],
            f"median eval scores do not order purchased > impressed > random: {med}",
        )

    def _check_cli(self, cli_lines, results) -> None:
        for text, lines in cli_lines.items():
            expected = [f"{pid}\t{score:.6f}" for pid, score in results[text]]
            self.checks.expect(lines == expected, f"`semmatch query` printed other lines than top_k for {text!r}")

    def _check_shards(self, m, q_ids, p_ids, sharded, scalars) -> None:
        # forward_batch gathers (pairs, bag length, dim) floats at once, where
        # each shard of a simulate call gathers dim / SHARDS columns. Slices
        # of SHARD_CHUNK / SHARDS pairs keep the check's gather no bigger
        # than the program's, so the check does not set peak_rss_mb.
        step = SHARD_CHUNK // SHARDS
        deviation = 0.0
        for start in range(0, len(q_ids), step):
            sl = slice(start, start + step)
            direct, _ = model.forward_batch(q_ids[sl], p_ids[sl], m, "infer")
            deviation = max(deviation, float(np.max(np.abs(sharded[sl] - direct))))
        self.checks.expect(deviation <= 1e-9, f"sharded scores deviate by {deviation:.3e}")
        self.checks.expect(
            scalars == 3 * SHARDS * len(q_ids),
            f"{scalars} scalars returned for {len(q_ids)} pairs on {SHARDS} shards",
        )


class Laps:
    """Sums the wall times of consecutive steps, each scaled by the yardstick
    measured at its two ends (Pipeline.speed_factor). The yardstick's own
    time falls between laps and is not counted."""

    def __init__(self, pipe: Pipeline) -> None:
        self.pipe = pipe
        self.total = 0.0
        self.mark = clock()

    def lap(self) -> None:
        self.total += (clock() - self.mark) * self.pipe.speed_factor()
        self.mark = clock()


def _chunks(total: int, size: int) -> int:
    return -(-total // size)


def _schedule(counts: dict[str, int]) -> list[tuple[str, int]]:
    """Interleave each operation's chunks evenly through the sweep.

    On a shared 2-vCPU virtual machine, CPU speed was seen to swing by up to
    1.7x over spells of a few seconds. Spreading every operation over the
    whole sweep lets each metric average a similar mix of fast and slow
    spells, where one burst would land in a single spell.
    Chunk i of an operation with n chunks runs at position i/n; the first
    chunk of each runs in the order of `counts`, so the index comes first.
    """
    order = {op: rank for rank, op in enumerate(counts)}
    items = [(i / n, order[op], op, i) for op, n in counts.items() for i in range(n)]
    return [(op, i) for _, _, op, i in sorted(items)]


def _merge_report(merged: evaluation.MetricReport, part: evaluation.MetricReport) -> None:
    """Append a chunk's per-query values; finalize() then gives the means of
    one call over all the queries, in the same order."""
    for name, values in part.per_query.items():
        merged.per_query.setdefault(name, []).extend(values)
    merged.evaluated += part.evaluated
    merged.skipped += part.skipped


def _peak_mb(fn, *args, **kwargs):
    """fn's result and the peak of tracemalloc, in MiB, within the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _corpus(logs: list[synth.LogRecord]):
    """(side, text) rows for build_vocabulary, as `semmatch build-vocab` makes them."""
    for rec in logs:
        yield ("query", rec.query)
        yield ("product", rec.product_text)
