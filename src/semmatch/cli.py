"""Command-line entry point wiring the full pipeline."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import evaluation, index as index_mod, sharding, synth, training
from .atomic import atomic_write
from .config import RunConfig, load_run_config
from .model import EmbeddingModel, load_model, save_model
from .tokenizer import Vocabulary, build_vocabulary, load_vocabulary, save_vocabulary


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _log_config(cfg: RunConfig) -> None:
    for line in cfg.resolved_lines():
        _log(f"config: {line}")


def _load_cfg(path: str) -> RunConfig:
    cfg = load_run_config(path)
    _log_config(cfg)
    return cfg


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    paths = synth.gen_synthetic(cfg.synth, args.out)
    for name, path in paths.items():
        _log(f"wrote {name}: {path}")
    return 0


def _corpus_from_logs(records: list[synth.LogRecord]):
    for rec in records:
        yield ("query", rec.query)
        yield ("product", rec.product_text)


def _cmd_build_vocab(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    with open(args.input) as f:
        records, stats = synth.parse_log(f)
    _log(f"parsed {stats.parsed} log rows ({stats.malformed} malformed)")
    vocab = build_vocabulary(_corpus_from_logs(records), cfg.tokenizer)
    if vocab.derived_query_max is not None:
        _log(f"derived query_max_tokens = {vocab.derived_query_max}")
    if vocab.derived_product_max is not None:
        _log(f"derived product_max_tokens = {vocab.derived_product_max}")
    with atomic_write(args.out, "w") as f:
        save_vocabulary(vocab, f)
    _log(f"vocabulary: V={vocab.v} B={vocab.oov_bins}")
    return 0


def _load_vocab(args: argparse.Namespace, cfg: RunConfig) -> tuple[Vocabulary, EmbeddingModel | None]:
    """The vocabulary named by --vocab and, for a command with --model, the
    checkpoint. A vocabulary whose OOV bin count B differs from the run
    config's tokenizer.oov_bins, or whose size V or B differs from the
    model's, raises ValueError. One with the model's V and B but other
    tokens is not detected: the checkpoint does not record its vocabulary."""
    model = None
    if "model" in args:
        with open(args.model, "rb") as f:
            model = load_model(f)
    with open(args.vocab) as f:
        vocab = load_vocabulary(f)
    if model is not None and (vocab.v, vocab.oov_bins) != (model.vocab_v, model.oov_bins):
        raise ValueError(
            f"vocabulary (V={vocab.v} B={vocab.oov_bins}) does not match the model "
            f"(V={model.vocab_v} B={model.oov_bins})"
        )
    if vocab.oov_bins != cfg.tokenizer.oov_bins:
        raise ValueError(
            f"run config tokenizer.oov_bins = {cfg.tokenizer.oov_bins} does not match "
            f"the vocabulary (B={vocab.oov_bins})"
        )
    return vocab, model


def _cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    vocab, _ = _load_vocab(args, cfg)
    with open(args.input) as f:
        records, stats = synth.parse_log(f)
    _log(f"parsed {stats.parsed} log rows ({stats.malformed} malformed)")
    counts = training.preprocess_logs(records, vocab, cfg.tokenizer, args.out)
    _log(f"records: {counts}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    vocab, _ = _load_vocab(args, cfg)
    _, _, records = training.read_records(args.records)
    rng = np.random.default_rng(cfg.seed)
    model = training.init_model(vocab.v, vocab.oov_bins, cfg.model, rng)
    history = training.train(records, model, cfg.loss, cfg.train)
    for epoch, loss in enumerate(history.epoch_loss):
        _log(f"epoch {epoch}: mean loss {loss:.6f}")
    with atomic_write(args.out) as f:
        save_model(model, f)
    _log(f"checkpoint written: {args.out}")
    return 0


def _cmd_embed_products(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    vocab, model = _load_vocab(args, cfg)
    with open(args.catalog) as f:
        catalog = synth.read_catalog(f)
    idx = index_mod.build_index(catalog, model, vocab, cfg.tokenizer)
    with atomic_write(args.out) as f:
        index_mod.save_index(idx, f)
    _log(f"indexed {idx.matrix.shape[0]} products")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    vocab, model = _load_vocab(args, cfg)
    with open(args.index, "rb") as f:
        idx = index_mod.load_index(f)
    if idx.fingerprint != model.checkpoint_digest:
        raise ValueError("the index was built from another model (its fingerprint differs)")
    k = args.k if args.k is not None else cfg.eval_k
    threshold = args.threshold if args.threshold is not None else cfg.eval_threshold
    result = index_mod.top_k(args.text, idx, model, vocab, cfg.tokenizer, k, threshold)
    for pid, score in result.items:
        print(f"{pid}\t{score:.6f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args.config)
    vocab, model = _load_vocab(args, cfg)
    with open(os.path.join(args.data, "catalog.tsv")) as f:
        catalog = synth.read_catalog(f)
    logs_path = os.path.join(args.data, "eval_logs.tsv")
    if not os.path.exists(logs_path):
        logs_path = os.path.join(args.data, "logs.tsv")
    with open(logs_path) as f:
        records, _ = synth.parse_log(f)
    queries = evaluation.load_eval_queries(records)
    k = args.k if args.k is not None else cfg.eval_k

    reports = {}
    if args.task in ("matching", "both"):
        idx = index_mod.build_index(catalog, model, vocab, cfg.tokenizer)
        reports["matching"] = evaluation.run_matching_eval(queries, idx, model, vocab, cfg.tokenizer, k=k)
    if args.task in ("ranking", "both"):
        texts = dict(catalog)
        reports["ranking"] = evaluation.run_ranking_eval(queries, texts, model, vocab, cfg.tokenizer)
    for task, report in reports.items():
        if not report.evaluated:
            need = "a purchase" if task == "matching" else "a purchase and an impression"
            raise ValueError(f"{task} evaluation: no query in {logs_path} has {need}")
    _log(f"evaluated: {logs_path}")
    print(evaluation.format_report(reports.values()))
    if args.out:
        evaluation.write_metrics_file(args.out, reports)
        _log(f"metrics written: {args.out}")
    return 0


def _cmd_shard_check(args: argparse.Namespace) -> int:
    from .model import ModelConfig, forward_batch

    if args.pairs < 1:
        raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
    rng = np.random.default_rng(args.seed)
    v = 200
    cfg = ModelConfig(embedding_dim=args.dim, shared_embeddings=True, normalization="none")
    model = training.init_model(v, 0, cfg, rng)
    q_ids = rng.integers(1, v + 1, size=(args.pairs, 8))
    p_ids = rng.integers(1, v + 1, size=(args.pairs, 12))
    direct, _ = forward_batch(q_ids, p_ids, model, "infer")
    plan = sharding.ShardPlan(n=args.n, k=args.dim)
    sharded, ledger = sharding.simulate(plan, q_ids, p_ids, model)
    dev = float(np.max(np.abs(sharded - direct)))
    print(f"max |sharded - direct| = {dev:.3e}")
    print(
        f"pairs = {ledger.pairs}, input broadcasts = {ledger.input_broadcasts}, "
        f"scalars returned = {ledger.scalars_returned} "
        f"({ledger.scalars_per_pair():.1f} per pair, contract 3n = {3 * args.n})"
    )
    return 0


_REQUIRED = {"required": True}
_INT = {"type": int}

# Each command: its help, its handler, and (flag, add_argument keywords) per option.
_COMMANDS = {
    "gen-synthetic": ("generate a synthetic corpus", _cmd_gen_synthetic, [
        ("--config", _REQUIRED), ("--out", _REQUIRED)]),
    "build-vocab": ("build the token vocabulary from logs", _cmd_build_vocab, [
        ("--input", _REQUIRED), ("--config", _REQUIRED), ("--out", _REQUIRED)]),
    "preprocess": ("encode logs into a binary record file", _cmd_preprocess, [
        ("--input", _REQUIRED), ("--vocab", _REQUIRED), ("--config", _REQUIRED),
        ("--out", _REQUIRED)]),
    "train": ("train the embedding model", _cmd_train, [
        ("--records", _REQUIRED), ("--vocab", _REQUIRED), ("--config", _REQUIRED),
        ("--out", _REQUIRED)]),
    "embed-products": ("precompute the product index", _cmd_embed_products, [
        ("--catalog", _REQUIRED), ("--model", _REQUIRED), ("--vocab", _REQUIRED),
        ("--config", _REQUIRED), ("--out", _REQUIRED)]),
    "query": ("retrieve top-k products for a query", _cmd_query, [
        ("--text", _REQUIRED), ("--index", _REQUIRED), ("--model", _REQUIRED),
        ("--vocab", _REQUIRED), ("--config", _REQUIRED), ("--k", _INT),
        ("--threshold", {"type": float})]),
    "evaluate": ("run matching/ranking evaluation", _cmd_evaluate, [
        ("--task", {"choices": ["matching", "ranking", "both"], "required": True}),
        ("--model", _REQUIRED), ("--vocab", _REQUIRED), ("--config", _REQUIRED),
        ("--data", _REQUIRED), ("--k", _INT), ("--out", {})]),
    "shard-check": ("verify the sharded cosine decomposition", _cmd_shard_check, [
        ("--n", _INT | _REQUIRED), ("--dim", _INT | _REQUIRED),
        ("--pairs", _INT | {"default": 1000}), ("--seed", _INT | {"default": 0})]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `semmatch` parser. When `command` names a command, only that
    command's sub-parser is built, which is all main needs to run it; its
    help and errors read as with every sub-parser built."""
    parser = argparse.ArgumentParser(
        prog="semmatch",
        description="Siamese bag-of-ngrams semantic product search pipeline",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # With one sub-parser, the usage line must still list every command. A
    # metavar would rename the argument in errors, so it is set only then.
    one = {"metavar": "{%s}" % ",".join(_COMMANDS)} if len(names) == 1 else {}
    sub = parser.add_subparsers(dest="command", required=True, **one)
    for name in names:
        help_text, handler, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
