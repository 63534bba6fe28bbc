"""The benchmark's workloads and the inputs each one generates.

Every workload is a closed loop with one client in one process. Its inputs
are a synthetic corpus pinned by the workload and a run-config file whose
seed is ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    # Run-config keys written to run.cfg; `seed` is added from --seed.
    config: dict[str, object]
    # The corpus is pinned; --seed drives the run config's seed (model init,
    # sampling, shuffling), the timed query sample and the sharded pairs.
    synth_seed: int
    # synth.model_number_rate cannot be set from a config file, so the
    # benchmark sets it on the loaded SynthConfig.
    model_number_rate: float
    # The same on every workload; only the toy size changes them.
    index_calls: int = 7  # build_index + save_index calls per sweep
    queries: int = 450  # distinct texts sent to top_k, timed, per sweep
    warmup_queries: int = 20  # untimed top_k calls before the timed ones
    cli_calls: int = 30  # in-process `semmatch query` calls per sweep
    shard_pairs: int = 20_000  # pairs scored by sharding.simulate per sweep
    checked_queries: int = 50  # top_k results compared against brute force

    def config_text(self, seed: int) -> str:
        lines = [f"seed = {seed}"]
        lines += [f"{key} = {_format(value)}" for key, value in self.config.items()]
        return "\n".join(lines) + "\n"

    def shrunk(self) -> "Workload":
        """The toy-size variant used by --selfcheck."""
        return replace(self, config={**self.config, **TOY_CONFIG}, **TOY_SIZES)


def _format(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


# The toy size of --selfcheck: run-config keys, then Workload fields.
TOY_CONFIG = {
    "synth.products": 300,
    "synth.queries": 100,
    "synth.eval_queries": 40,
    "train.epochs": 3,
}
TOY_SIZES = {
    "index_calls": 1,
    "queries": 30,
    "warmup_queries": 2,
    "cli_calls": 2,
    "shard_pairs": 2000,
    "checked_queries": 20,
}

WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance standard fixture: training dominates, through
        # sample_epoch, the scatter-adds and sparse ADAM; a modest 10k scan.
        Workload(
            name="train-std",
            config={
                "tokenizer.budget.unigram": 5000,
                "tokenizer.query_max_tokens": 8,
                "tokenizer.product_max_tokens": 12,
                "model.embedding_dim": 64,
                "model.shared": True,
                "model.normalization": "batch",
                "loss.kind": "hinge3",
                "loss.m": 2,
                "train.batch_size": 256,
                "train.epochs": 12,
                "synth.concepts": 120,
                "synth.synonyms": 3,
                "synth.products": 10_000,
                "synth.queries": 2_000,
                "synth.eval_queries": 300,
                "synth.impressed_per_purchase": 4,
                "eval.k": 100,
                "eval.threshold": 0.55,
            },
            synth_seed=11,
            model_number_rate=0.0,
        ),
        # Word 2/3-grams, char trigrams and OOV bins over typos and model
        # numbers: long bags and decoupled arms, so tokenizing and pooling
        # dominate. A 3k catalog, 2 epochs at batch 64 and alpha 0.01, and
        # 450 eval queries keep the decoupled arms' map_at_100 from varying
        # much with the seed.
        Workload(
            name="rich-oov",
            config={
                "tokenizer.unigrams": True,
                "tokenizer.ngram_orders": (2, 3),
                "tokenizer.char_trigrams": True,
                "tokenizer.budget.unigram": 300,
                "tokenizer.budget.ngram2": 800,
                "tokenizer.budget.ngram3": 400,
                "tokenizer.budget.ctri": 900,
                "tokenizer.oov_bins": 20_000,
                "tokenizer.query_max_tokens": 40,
                "tokenizer.product_max_tokens": 80,
                "model.embedding_dim": 64,
                "model.shared": False,
                "model.normalization": "batch",
                "loss.kind": "hinge3",
                "loss.m": 2,
                "train.batch_size": 64,
                "train.alpha": 0.01,
                "train.epochs": 2,
                "synth.concepts": 100,
                "synth.synonyms": 3,
                "synth.products": 3_000,
                "synth.queries": 1_500,
                "synth.eval_queries": 450,
                "synth.typo_rate": 0.03,
                "synth.morph_rate": 0.35,
                "synth.impressed_per_purchase": 4,
                "synth.concepts_per_product": 5,
                "synth.query_concepts": 3,
                "synth.phrase_pairs": 10,
                "eval.k": 100,
                "eval.threshold": 0.55,
            },
            synth_seed=23,
            model_number_rate=0.7,
        ),
        # A 30k-product catalog after a short training: rank_all's sort, top_k's
        # walk, full-list eval metrics and index load grow with the catalog.
        Workload(
            name="serve-large",
            config={
                "tokenizer.budget.unigram": 5000,
                "tokenizer.query_max_tokens": 8,
                "tokenizer.product_max_tokens": 12,
                "model.embedding_dim": 64,
                "model.shared": True,
                "model.normalization": "batch",
                "loss.kind": "hinge3",
                "loss.m": 2,
                "train.batch_size": 256,
                "train.alpha": 0.01,
                "train.epochs": 5,
                "synth.concepts": 400,
                "synth.synonyms": 3,
                "synth.products": 30_000,
                "synth.queries": 2_000,
                "synth.eval_queries": 300,
                "synth.impressed_per_purchase": 4,
                "eval.k": 100,
                "eval.threshold": 0.55,
            },
            synth_seed=31,
            model_number_rate=0.0,
        ),
    )
}
