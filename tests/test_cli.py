"""End-to-end CLI pipeline tests."""

import contextlib
import dataclasses
import io
import os
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semmatch import cli
from semmatch.cli import build_parser, main
from semmatch.config import RunConfig, load_run_config, parse_config_file
from semmatch.index import build_index, load_index, top_k
from semmatch.losses import LossSpec
from semmatch.model import ModelConfig, load_model, model_fingerprint
from semmatch.synth import SynthConfig, read_catalog
from semmatch.tokenizer import MAX_ID, TokenizerConfig, load_vocabulary
from semmatch.training import TrainConfig, read_records

CONFIG = """\
# small end-to-end run
seed = 3
tokenizer.budget.unigram = 300
tokenizer.query_max_tokens = 8
tokenizer.product_max_tokens = 10
model.embedding_dim = 16
model.normalization = batch
loss.kind = hinge3
loss.m = 2
train.batch_size = 64
train.epochs = 2
synth.concepts = 20
synth.synonyms = 2
synth.products = 150
synth.queries = 80
synth.eval_queries = 20
synth.impressed_per_purchase = 3
eval.k = 20
"""


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    return tmp_path, str(cfg)


# The test-suite config without max token lengths, so build-vocab derives them,
# and with eval.k and eval.threshold for `query` to default to.
DERIVED_CONFIG = "".join(
    line + "\n" for line in CONFIG.splitlines() if "_max_tokens" not in line and "eval." not in line
) + "eval.k = 3\neval.threshold = -1.0\n"


def run(args):
    return main([str(a) for a in args])


def load_text(tmp_path, text):
    path = tmp_path / "load.cfg"
    path.write_text(text)
    return load_run_config(str(path))


def full_config():
    """A RunConfig with every field away from its default."""
    return RunConfig(
        tokenizer=TokenizerConfig(
            lowercase=False, use_unigrams=False, ngram_orders=(2, 4), use_char_trigrams=True,
            budget_per_class={"ngram2": 5, "ngram4": 6, "ctri": 7}, oov_bins=9,
            query_max_tokens=5, product_max_tokens=7,
        ),
        model=ModelConfig(embedding_dim=8, shared_embeddings=False, normalization="layer",
                          bn_momentum=0.9, bn_epsilon=1e-3),
        loss=LossSpec(kind="hinge2", m=1, eps_plus=0.8, eps_minus=0.1, eps_zero=0.5),
        train=TrainConfig(batch_size=32, alpha=0.01, beta1=0.8, beta2=0.99, epsilon=1e-7, epochs=3,
                          seed=5, shuffle=False, impressed_per_purchase=2, random_per_purchase=3),
        synth=SynthConfig(concepts=7, synonyms_per_concept=2, products=50, queries=20, eval_queries=5,
                          typo_rate=0.1, morph_rate=0.2, impressed_per_purchase=2,
                          concepts_per_product=2, query_concepts=1, phrase_pairs=1,
                          model_number_rate=0.5, seed=5),
        seed=5,
        eval_k=7,
        eval_threshold=0.25,
    )


@pytest.fixture(scope="module")
def derived(tmp_path_factory):
    """Artifacts of a run, gen-synthetic through embed-products, whose config
    leaves the max token lengths unset."""
    tmp = tmp_path_factory.mktemp("derived")
    cfg = tmp / "run.cfg"
    cfg.write_text(DERIVED_CONFIG)
    paths = {name: tmp / name for name in ("data", "vocab.txt", "recs.bin", "model.bin", "index.bin")}
    data = paths["data"]
    assert run(["gen-synthetic", "--config", cfg, "--out", data]) == 0
    assert run(["build-vocab", "--input", data / "logs.tsv", "--config", cfg,
                "--out", paths["vocab.txt"]]) == 0
    assert run(["preprocess", "--input", data / "logs.tsv", "--vocab", paths["vocab.txt"],
                "--config", cfg, "--out", paths["recs.bin"]]) == 0
    assert run(["train", "--records", paths["recs.bin"], "--vocab", paths["vocab.txt"],
                "--config", cfg, "--out", paths["model.bin"]]) == 0
    assert run(["embed-products", "--catalog", data / "catalog.tsv", "--model", paths["model.bin"],
                "--vocab", paths["vocab.txt"], "--config", cfg, "--out", paths["index.bin"]]) == 0
    return cfg, paths


def query_args(cfg, paths, model=None, index=None, vocab=None):
    return ["query", "--text", "red shoe", "--index", index or paths["index.bin"],
            "--model", model or paths["model.bin"], "--vocab", vocab or paths["vocab.txt"],
            "--config", cfg]


def run_quiet(args):
    """Exit status and the stderr lines other than `config:` echoes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = run(args)
    return status, [line for line in err.getvalue().splitlines() if not line.startswith("config: ")]


class TestConfig:
    def test_parse_and_build(self, workspace):
        _, cfg_path = workspace
        values = parse_config_file(cfg_path)
        assert values["seed"] == 3
        run_cfg = load_run_config(cfg_path)
        assert run_cfg.model.embedding_dim == 16
        assert run_cfg.train.seed == 3
        assert run_cfg.synth.seed == 3
        assert run_cfg.eval_k == 20

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(str(bad))

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(ValueError, match="expected"):
            parse_config_file(str(bad))

    def test_every_field_reachable(self, tmp_path):
        full, default = full_config(), load_text(tmp_path, "")
        for section in dataclasses.fields(RunConfig):
            value, base = getattr(full, section.name), getattr(default, section.name)
            if dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    assert getattr(value, f.name) != getattr(base, f.name), f"{section.name}.{f.name}"
            else:
                assert value != base, section.name
        assert load_text(tmp_path, "\n".join(full.resolved_lines())) == full

    @pytest.mark.parametrize("text", ["", CONFIG], ids=["empty", "test-suite"])
    def test_resolved_lines_round_trip(self, tmp_path, text):
        cfg = load_text(tmp_path, text)
        assert load_text(tmp_path, "\n".join(cfg.resolved_lines())) == cfg

    def test_budget_for_any_ngram_order(self, tmp_path):
        cfg = load_text(tmp_path, "tokenizer.ngram_orders = 2,3,4\ntokenizer.budget.ngram4 = 9\n")
        assert cfg.tokenizer.ngram_orders == (2, 3, 4)
        assert cfg.tokenizer.budget_per_class == {"ngram4": 9}
        for key in ("tokenizer.budget.ngram1", "tokenizer.budget.ngram04", "tokenizer.budget.bigram",
                    "tokenizer.budget", "train.seed", "synth.seed"):
            with pytest.raises(ValueError, match="unknown config key"):
                load_text(tmp_path, f"{key} = 3\n")

    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\nmodel.embedding_dim = abc\n")
        assert run(["gen-synthetic", "--config", bad, "--out", tmp_path / "d"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}:2: model.embedding_dim: ")


class TestPipeline:
    def test_full_pipeline(self, workspace, capsys):
        tmp, cfg = workspace
        data = tmp / "data"
        vocab = tmp / "vocab.txt"
        recs = tmp / "recs.bin"
        model = tmp / "model.bin"
        index = tmp / "index.bin"
        metrics = tmp / "metrics.txt"

        assert run(["gen-synthetic", "--config", cfg, "--out", data]) == 0
        assert run(["build-vocab", "--input", data / "logs.tsv",
                    "--config", cfg, "--out", vocab]) == 0
        assert run(["preprocess", "--input", data / "logs.tsv", "--vocab", vocab,
                    "--config", cfg, "--out", recs]) == 0
        assert run(["train", "--records", recs, "--vocab", vocab,
                    "--config", cfg, "--out", model]) == 0
        assert run(["embed-products", "--catalog", data / "catalog.tsv",
                    "--model", model, "--vocab", vocab,
                    "--config", cfg, "--out", index]) == 0

        capsys.readouterr()
        assert run(["query", "--text", "red shoe", "--index", index,
                    "--model", model, "--vocab", vocab, "--config", cfg,
                    "--k", 5, "--threshold", -1.0]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        for line in out:
            pid, score = line.split("\t")
            float(score)

        assert run(["evaluate", "--task", "both", "--model", model,
                    "--vocab", vocab, "--config", cfg, "--data", data,
                    "--out", metrics]) == 0
        text = metrics.read_text()
        assert "recall = " in text
        assert "ranking_ndcg = " in text

    def test_pipeline_deterministic(self, workspace):
        tmp, cfg = workspace
        outputs = []
        for tag in ("one", "two"):
            d = tmp / tag
            os.makedirs(d)
            run(["gen-synthetic", "--config", cfg, "--out", d / "data"])
            run(["build-vocab", "--input", d / "data" / "logs.tsv",
                 "--config", cfg, "--out", d / "vocab.txt"])
            run(["preprocess", "--input", d / "data" / "logs.tsv",
                 "--vocab", d / "vocab.txt", "--config", cfg, "--out", d / "recs.bin"])
            run(["train", "--records", d / "recs.bin", "--vocab", d / "vocab.txt",
                 "--config", cfg, "--out", d / "model.bin"])
            outputs.append((d / "vocab.txt").read_bytes() + (d / "model.bin").read_bytes())
        assert outputs[0] == outputs[1]

    def test_pipeline_with_derived_max_lengths(self, derived, capsys):
        cfg, paths = derived
        header = paths["vocab.txt"].read_text().splitlines()[0]
        assert " query_max=" in header and " product_max=" in header
        capsys.readouterr()
        assert run(query_args(cfg, paths) + ["--k", 5]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_query_defaults_from_config(self, derived, capsys):
        cfg, paths = derived
        capsys.readouterr()
        assert run(query_args(cfg, paths)) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_query_lines_equal_top_k(self, derived, tmp_path, capsys):
        """`query` prints top_k's items over the index built from the same
        catalog, here with ids of mixed lengths, non-ASCII ids and twin texts."""
        cfg, paths = derived
        with open(paths["data"] / "catalog.tsv") as f:
            catalog = [(f"{i}{'é' * (i % 3)}", text) for i, (_, text) in enumerate(read_catalog(f))]
        catalog += [(pid + "-twin", text) for pid, text in catalog[:5]]
        path = tmp_path / "catalog.tsv"
        path.write_text("".join(f"{pid}\t{text}\n" for pid, text in catalog), encoding="utf-8")
        index = tmp_path / "index.bin"
        assert run(["embed-products", "--catalog", path, "--model", paths["model.bin"],
                    "--vocab", paths["vocab.txt"], "--config", cfg, "--out", index]) == 0
        tokenizer = load_run_config(str(cfg)).tokenizer
        with open(paths["vocab.txt"]) as f:
            vocab = load_vocabulary(f)
        with open(paths["model.bin"], "rb") as f:
            model = load_model(f)
        built = build_index(catalog, model, vocab, tokenizer)
        for text in ("red shoe", catalog[0][1], ""):
            capsys.readouterr()
            args = query_args(cfg, paths, index=index)
            args[2] = text
            assert run(args + ["--k", 40, "--threshold", -1.0]) == 0
            items = top_k(text, built, model, vocab, tokenizer, 40, -1.0).items
            assert capsys.readouterr().out.splitlines() == [f"{pid}\t{score:.6f}" for pid, score in items]

    def test_shard_check(self, capsys):
        assert run(["shard-check", "--n", 4, "--dim", 32, "--pairs", 50]) == 0
        out = capsys.readouterr().out
        assert "3n = 12" in out
        deviation = re.search(r"max \|sharded - direct\| = (\S+)", out)
        assert float(deviation.group(1)) < 1e-12
        assert "(12.0 per pair," in out

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_shard_check_rejects_too_few_pairs(self, capsys, pairs):
        assert run(["shard-check", "--n", 4, "--dim", 32, "--pairs", pairs]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --pairs must be >= 1, got {pairs}\n"
        assert captured.out == ""


class TestErrors:
    def test_missing_file_exits_one(self, workspace, capsys):
        _, cfg = workspace
        assert run(["build-vocab", "--input", "/nonexistent/logs.tsv",
                    "--config", cfg, "--out", "/tmp/v.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 1\n")
        assert run(["gen-synthetic", "--config", bad, "--out", tmp_path / "d"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_repeated_ngram_order_exits_one(self, workspace, tmp_path):
        data, cfg = workspace
        assert run(["gen-synthetic", "--config", cfg, "--out", data / "data"]) == 0
        repeated = tmp_path / "repeated.cfg"
        repeated.write_text(CONFIG + "tokenizer.ngram_orders = 2,2\ntokenizer.budget.ngram2 = 50\n")
        vocab = tmp_path / "vocab.txt"
        status, err = run_quiet(["build-vocab", "--input", data / "data" / "logs.tsv", "--config", repeated,
                                 "--out", vocab])
        assert (status, err) == (1, ["error: ngram orders must be distinct, got 2,2"])
        assert not vocab.exists()

    @pytest.mark.parametrize("key", ["eval_queries", "phrase_pairs"])
    def test_negative_synth_count_exits_one(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG + f"synth.{key} = -3\n")
        status, err = run_quiet(["gen-synthetic", "--config", cfg, "--out", tmp_path / "d"])
        assert status == 1
        assert err == [f"error: {key} must be >= 0"]
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("lines, message", [
        ("synth.concepts = 310666\n", "the config needs 621352 distinct words; the generator makes at most 621350"),
        ("synth.products = 260101\nsynth.model_number_rate = 0.5\n",
         "the config needs 260101 distinct model numbers; the generator makes at most 260100"),
    ])
    def test_synth_over_token_supply_exits_one(self, tmp_path, lines, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG + lines)
        status, err = run_quiet(["gen-synthetic", "--config", cfg, "--out", tmp_path / "d"])
        assert (status, err) == (1, [f"error: {message}"])
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key, value", [("impressed_per_purchase", -2), ("random_per_purchase", -1)])
    def test_negative_per_purchase_count_exits_one(self, derived, tmp_path, key, value):
        cfg, paths = derived
        bad = tmp_path / "run.cfg"
        bad.write_text(cfg.read_text() + f"train.{key} = {value}\n")
        status, err = run_quiet(["train", "--records", paths["recs.bin"], "--vocab", paths["vocab.txt"],
                                 "--config", bad, "--out", tmp_path / "model.bin"])
        assert (status, err) == (1, [f"error: {key} must be >= 0"])
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("beta2", "1", "beta2 must be in [0, 1)"),
        ("beta1", "1", "beta1 must be in [0, 1)"),
        ("alpha", "0", "alpha must be finite and positive"),
        ("alpha", "nan", "alpha must be finite and positive"),
        ("epsilon", "0", "epsilon must be finite and positive"),
    ])
    def test_degenerate_optimizer_setting_exits_one(self, derived, tmp_path, key, value, message):
        # Each trained a checkpoint of NaN rows that query then answered with nothing.
        cfg, paths = derived
        bad = tmp_path / "run.cfg"
        bad.write_text(cfg.read_text() + f"train.{key} = {value}\n")
        status, err = run_quiet(["train", "--records", paths["recs.bin"], "--vocab", paths["vocab.txt"],
                                 "--config", bad, "--out", tmp_path / "model.bin"])
        assert (status, err) == (1, [f"error: {message}"])
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_bn_epsilon_exits_one(self, derived, tmp_path, value):
        # NaN trained a checkpoint of NaN rows, inf one embedding for every bag.
        cfg, paths = derived
        bad = tmp_path / "run.cfg"
        bad.write_text(cfg.read_text() + f"model.bn_epsilon = {value}\n")
        status, err = run_quiet(["train", "--records", paths["recs.bin"], "--vocab", paths["vocab.txt"],
                                 "--config", bad, "--out", tmp_path / "model.bin"])
        assert (status, err) == (1, ["error: bn_epsilon must be finite and positive"])
        assert not (tmp_path / "model.bin").exists()

    def test_unallocatable_model_exits_one(self, derived, tmp_path):
        # The most OOV bins a vocabulary holds, at dimension 2^16, ask for a
        # 2 PiB embedding matrix, which fails at once.
        cfg, paths = derived
        with open(paths["vocab.txt"]) as f:
            bins = MAX_ID - load_vocabulary(f).v
        bad = tmp_path / "run.cfg"
        text = cfg.read_text().replace("model.embedding_dim = 16", "model.embedding_dim = 65536")
        bad.write_text(text + f"tokenizer.oov_bins = {bins}\n")
        vocab, recs = tmp_path / "vocab.txt", tmp_path / "recs.bin"
        logs = paths["data"] / "logs.tsv"
        assert run_quiet(["build-vocab", "--input", logs, "--config", bad, "--out", vocab])[0] == 0
        assert run_quiet(["preprocess", "--input", logs, "--vocab", vocab, "--config", bad, "--out", recs])[0] == 0
        status, err = run_quiet(["train", "--records", recs, "--vocab", vocab, "--config", bad,
                                 "--out", tmp_path / "model.bin"])
        assert status == 1
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "model.bin").exists()

    def test_oov_bins_past_id_limit_exits_one(self, derived, tmp_path):
        # 10^13 OOV bins give ids that the uint32 records would wrap.
        cfg, paths = derived
        bad = tmp_path / "run.cfg"
        bad.write_text(cfg.read_text() + "tokenizer.oov_bins = 10000000000000\n")
        out = tmp_path / "vocab.txt"
        status, err = run_quiet(["build-vocab", "--input", paths["data"] / "logs.tsv", "--config", bad,
                                 "--out", out])
        assert status == 1
        assert [line for line in err if line.startswith("error: ")] == err[-1:]
        assert err[-1].startswith("error: V + B = 100000000") and err[-1].endswith(f"records hold ({MAX_ID})")
        assert not out.exists()

    def test_run_config_oov_bins_differs_from_vocabulary_exits_one(self, derived, tmp_path):
        cfg, paths = derived
        other = tmp_path / "bins.cfg"
        other.write_text(cfg.read_text() + "tokenizer.oov_bins = 7\n")
        data, out = paths["data"], tmp_path / "out.bin"
        given = ["--vocab", paths["vocab.txt"], "--config", other]
        for args in (
            ["preprocess", "--input", data / "logs.tsv", *given, "--out", out],
            ["train", "--records", paths["recs.bin"], *given, "--out", out],
            ["embed-products", "--catalog", data / "catalog.tsv", "--model", paths["model.bin"], *given,
             "--out", out],
            query_args(other, paths),
            ["evaluate", "--task", "both", "--model", paths["model.bin"], *given, "--data", data],
        ):
            status, err = run_quiet(args)
            assert status == 1, args[0]
            assert err == ["error: run config tokenizer.oov_bins = 7 does not match the vocabulary (B=0)"], args[0]
        assert not out.exists()

    def test_truncated_index_exits_one(self, workspace, capsys):
        tmp, cfg = workspace
        data, vocab, recs = tmp / "data", tmp / "vocab.txt", tmp / "recs.bin"
        model, index = tmp / "model.bin", tmp / "index.bin"
        assert run(["gen-synthetic", "--config", cfg, "--out", data]) == 0
        assert run(["build-vocab", "--input", data / "logs.tsv", "--config", cfg, "--out", vocab]) == 0
        assert run(["preprocess", "--input", data / "logs.tsv", "--vocab", vocab,
                    "--config", cfg, "--out", recs]) == 0
        assert run(["train", "--records", recs, "--vocab", vocab, "--config", cfg, "--out", model]) == 0
        assert run(["embed-products", "--catalog", data / "catalog.tsv", "--model", model,
                    "--vocab", vocab, "--config", cfg, "--out", index]) == 0
        blob = index.read_bytes()
        for cut in (20, 300, len(blob) // 2, len(blob) - 1):
            index.write_bytes(blob[:cut])
            capsys.readouterr()
            assert run(["query", "--text", "red shoe", "--index", index, "--model", model,
                        "--vocab", vocab, "--config", cfg]) == 1
            err = capsys.readouterr().err.splitlines()
            assert [line for line in err if not line.startswith("config: ")] == ["error: truncated index"]

    def test_truncated_records_exit_one(self, derived, capsys, tmp_path):
        cfg, paths = derived
        blob = paths["recs.bin"].read_bytes()
        short = tmp_path / "short.bin"
        for cut in (4, 10, 27, 28, len(blob) // 2, len(blob) - 1):  # the header is bytes 8..28
            short.write_bytes(blob[:cut])
            capsys.readouterr()
            assert run(["train", "--records", short, "--vocab", paths["vocab.txt"],
                        "--config", cfg, "--out", tmp_path / "m.bin"]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len([line for line in err if not line.startswith("config: ")]) == 1
            assert err[-1].startswith("error: ")

    @pytest.mark.parametrize("qmax, pmax", [(2**31, 1), (1, 2**32 - 1), (2**30, 1), (2**28 - 1, 2**28 - 1)])
    def test_oversized_record_bags_exit_one(self, derived, capsys, tmp_path, qmax, pmax):
        """Bag lengths whose record exceeds numpy's 2^31 - 1 byte dtype limit
        (the last exceeds it by 2 bytes) are named as the record file's."""
        cfg, paths = derived
        huge = tmp_path / "huge.bin"
        huge.write_bytes(paths["recs.bin"].read_bytes()[:8] + struct.pack("<IIIQ", 1, qmax, pmax, 0))
        capsys.readouterr()
        assert run(["train", "--records", huge, "--vocab", paths["vocab.txt"],
                    "--config", cfg, "--out", tmp_path / "m.bin"]) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("config: ")]
        assert err == [f"error: record file bags too long: query_max {qmax} and product_max {pmax} "
                       "make records over 2^31 - 1 bytes"]

    def test_huge_vocabulary_size_exits_one(self, derived, capsys, tmp_path):
        cfg, paths = derived
        blob = bytearray(paths["model.bin"].read_bytes())
        blob[12:20] = struct.pack("<Q", 2**63)  # the vocabulary-size field
        huge = tmp_path / "huge.bin"
        huge.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run(query_args(cfg, paths, model=huge)) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("config: ")] == ["error: truncated checkpoint"]

    def test_index_from_other_model_exits_one(self, derived, tmp_path):
        cfg, paths = derived
        other_cfg = tmp_path / "seed4.cfg"
        other_cfg.write_text(DERIVED_CONFIG.replace("seed = 3", "seed = 4"))
        other_model, other_index = tmp_path / "model4.bin", tmp_path / "index4.bin"
        assert run(["train", "--records", paths["recs.bin"], "--vocab", paths["vocab.txt"],
                    "--config", other_cfg, "--out", other_model]) == 0
        assert other_model.read_bytes() != paths["model.bin"].read_bytes()
        assert run(["embed-products", "--catalog", paths["data"] / "catalog.tsv", "--model", other_model,
                    "--vocab", paths["vocab.txt"], "--config", other_cfg, "--out", other_index]) == 0
        assert run_quiet(query_args(cfg, paths, model=other_model))[0] == 1  # seed-3 index
        status, err = run_quiet(query_args(cfg, paths, index=other_index))  # seed-3 model
        assert status == 1
        assert err == ["error: the index was built from another model (its fingerprint differs)"]

    def test_vocabulary_model_mismatch_exits_one(self, derived, tmp_path):
        cfg, paths = derived
        other_cfg, other_vocab = tmp_path / "bins.cfg", tmp_path / "vocab7.txt"
        other_cfg.write_text(DERIVED_CONFIG + "tokenizer.oov_bins = 7\n")
        assert run(["build-vocab", "--input", paths["data"] / "logs.tsv", "--config", other_cfg,
                    "--out", other_vocab]) == 0
        for args in (
            query_args(cfg, paths, vocab=other_vocab),
            ["embed-products", "--catalog", paths["data"] / "catalog.tsv", "--model", paths["model.bin"],
             "--vocab", other_vocab, "--config", cfg, "--out", tmp_path / "index.bin"],
            ["evaluate", "--task", "both", "--model", paths["model.bin"], "--vocab", other_vocab,
             "--config", cfg, "--data", paths["data"]],
        ):
            status, err = run_quiet(args)
            assert status == 1, args[0]
            assert len(err) == 1 and err[0].startswith("error: vocabulary (V="), args[0]
            assert "B=7) does not match the model" in err[0]
        assert not (tmp_path / "index.bin").exists()

    @pytest.mark.parametrize(
        "case", ["id used twice", "id 0", "id above V", "unknown class", "two fields", "four fields", "line repeated"]
    )
    def test_broken_vocabulary_line_exits_one(self, derived, tmp_path, case):
        """Record line 3 (id 2) is replaced by a broken one, or a copy of
        line 2 is inserted before it."""
        cfg, paths = derived
        lines = paths["vocab.txt"].read_text().splitlines()
        v = int(lines[0].split()[0].removeprefix("V="))
        token_class, token, tid = lines[2].split("\t")
        assert tid == "2"
        bad = {
            "id used twice": f"{token_class}\t{token}\t1",
            "id 0": f"{token_class}\t{token}\t0",
            "id above V": f"{token_class}\t{token}\t{v + 1}",
            "unknown class": f"unigrm\t{token}\t2",
            "two fields": f"{token_class}\t{token}",
            "four fields": f"{token_class}\t{token}\t2\t2",
            "line repeated": lines[1],
        }[case]
        lines[2 : 2 if case == "line repeated" else 3] = [bad]
        broken = tmp_path / "vocab.txt"
        broken.write_text("\n".join(lines) + "\n")
        status, err = run_quiet(query_args(cfg, paths, vocab=broken))
        assert status == 1
        assert len(err) == 1 and err[0].startswith("error: vocabulary line 3: "), err
        assert err[0].endswith(repr(lines[2]))

    @pytest.mark.parametrize("line", ["no tab here", "\tan empty id"])
    def test_malformed_catalog_line_exits_one(self, derived, tmp_path, line):
        cfg, paths = derived
        rows = (paths["data"] / "catalog.tsv").read_text().splitlines()
        catalog, out = tmp_path / "catalog.tsv", tmp_path / "index.bin"
        catalog.write_text("\n".join(rows[:2] + [line] + rows[2:]) + "\n")
        status, err = run_quiet(["embed-products", "--catalog", catalog, "--model", paths["model.bin"],
                                 "--vocab", paths["vocab.txt"], "--config", cfg, "--out", out])
        assert status == 1
        assert err == [f"error: catalog line 3: expected a product id, a tab and its text: {line!r}"]
        assert not out.exists()

    def test_evaluate_k_below_one_exits_one(self, derived):
        cfg, paths = derived
        status, err = run_quiet(["evaluate", "--task", "matching", "--model", paths["model.bin"],
                                 "--vocab", paths["vocab.txt"], "--config", cfg, "--data", paths["data"],
                                 "--k", 0])
        assert (status, err) == (1, ["error: k must be >= 1"])

    @pytest.mark.parametrize("task", ["ranking", "both"])
    def test_eval_product_missing_from_catalog_exits_one(self, derived, tmp_path, task):
        cfg, paths = derived
        data = tmp_path / "data"
        data.mkdir()
        (data / "eval_logs.tsv").write_bytes((paths["data"] / "eval_logs.tsv").read_bytes())
        rows = (paths["data"] / "catalog.tsv").read_text().splitlines(keepends=True)
        (data / "catalog.tsv").write_text("".join(r for r in rows if not r.startswith("P000100\t")))
        status, err = run_quiet(["evaluate", "--task", task, "--model", paths["model.bin"],
                                 "--vocab", paths["vocab.txt"], "--config", cfg, "--data", data])
        assert (status, err) == (1, ["error: eval-log product 'P000100' is not in the catalog"])

    def test_repeated_catalog_id_exits_one(self, derived, tmp_path):
        cfg, paths = derived
        data = tmp_path / "data"
        data.mkdir()
        (data / "eval_logs.tsv").write_bytes((paths["data"] / "eval_logs.tsv").read_bytes())
        rows = (paths["data"] / "catalog.tsv").read_text().splitlines(keepends=True)
        assert rows[100].startswith("P000100\t")
        (data / "catalog.tsv").write_text("".join(rows) + "P000100\tanother text\n")
        status, err = run_quiet(["evaluate", "--task", "ranking", "--model", paths["model.bin"],
                                 "--vocab", paths["vocab.txt"], "--config", cfg, "--data", data])
        repeated = f"catalog line {len(rows) + 1}: product id 'P000100' is already on line 101"
        assert (status, err) == (1, [f"error: {repeated}"])

    def test_evaluate_without_eval_logs_names_the_training_logs(self, derived, tmp_path):
        cfg, paths = derived
        data = tmp_path / "data"
        data.mkdir()
        for name in ("catalog.tsv", "logs.tsv"):
            (data / name).write_bytes((paths["data"] / name).read_bytes())
        status, err = run_quiet(["evaluate", "--task", "ranking", "--model", paths["model.bin"],
                                 "--vocab", paths["vocab.txt"], "--config", cfg, "--data", data])
        assert (status, err) == (0, [f"evaluated: {data / 'logs.tsv'}"])

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_nan_threshold_flag_exits_one(self, derived):
        cfg, paths = derived
        status, err = run_quiet(query_args(cfg, paths) + ["--threshold", "nan"])
        assert (status, err) == (1, ["error: threshold must not be NaN"])

    def test_nan_threshold_config_exits_one(self, derived, tmp_path):
        _, paths = derived
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(DERIVED_CONFIG.replace("eval.threshold = -1.0", "eval.threshold = nan"))
        status, err = run_quiet(query_args(cfg, paths))
        assert (status, err) == (1, ["error: threshold must not be NaN"])


# Each command's required options, with placeholder values.
REQUIRED_ARGS = {
    "gen-synthetic": ["--config", "c", "--out", "o"],
    "build-vocab": ["--input", "i", "--config", "c", "--out", "o"],
    "preprocess": ["--input", "i", "--vocab", "v", "--config", "c", "--out", "o"],
    "train": ["--records", "r", "--vocab", "v", "--config", "c", "--out", "o"],
    "embed-products": ["--catalog", "p", "--model", "m", "--vocab", "v", "--config", "c", "--out", "o"],
    "query": ["--text", "t", "--index", "x", "--model", "m", "--vocab", "v", "--config", "c"],
    "evaluate": ["--task", "both", "--model", "m", "--vocab", "v", "--config", "c", "--data", "d"],
    "shard-check": ["--n", "2", "--dim", "4"],
}


def parse_outcome(parser, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


class TestParser:
    def test_commands_covered(self):
        assert REQUIRED_ARGS.keys() == cli._COMMANDS.keys()

    @pytest.mark.parametrize("name", list(REQUIRED_ARGS))
    @pytest.mark.parametrize("case", ["help", "missing", "unknown flag", "bad value"])
    def test_one_command_parser_reads_as_full(self, name, case):
        argv = {
            "help": [name, "--help"],
            "missing": [name],
            "unknown flag": [name, *REQUIRED_ARGS[name], "--no-such-flag"],
            "bad value": [name, *REQUIRED_ARGS[name], REQUIRED_ARGS[name][-2]],
        }[case]
        one = parse_outcome(build_parser(name), argv)
        assert one == parse_outcome(build_parser(), argv)
        assert one[0] == (0 if case == "help" else 2)

    def test_parses_as_full(self):
        argv = ["shard-check", "--n", "2", "--dim", "4", "--pairs", "7"]
        assert vars(build_parser("shard-check").parse_args(argv)) == vars(build_parser().parse_args(argv))


class TestArtifactReplacement:
    def test_loaded_model_keeps_its_bits_after_train(self, derived, tmp_path):
        cfg, paths = derived
        model_path = tmp_path / "model.bin"
        model_path.write_bytes(paths["model.bin"].read_bytes())
        with open(model_path, "rb") as f:
            loaded = load_model(f)
        before = [loaded.query_matrix.tobytes(), loaded.product_matrix.tobytes()]
        other_cfg = tmp_path / "seed4.cfg"
        other_cfg.write_text(DERIVED_CONFIG.replace("seed = 3", "seed = 4"))
        assert run(["train", "--records", paths["recs.bin"], "--vocab", paths["vocab.txt"],
                    "--config", other_cfg, "--out", model_path]) == 0
        assert model_path.read_bytes() != paths["model.bin"].read_bytes()
        assert [loaded.query_matrix.tobytes(), loaded.product_matrix.tobytes()] == before
        assert model_fingerprint(loaded) == loaded.checkpoint_digest
        assert sorted(os.listdir(tmp_path)) == ["model.bin", "seed4.cfg"]

    def test_failed_save_leaves_old_file(self, derived, tmp_path, monkeypatch):
        cfg, paths = derived
        out = tmp_path / "model.bin"
        out.write_bytes(b"old checkpoint")

        def save_then_fail(model, f):
            f.write(b"part of a checkpoint")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_model", save_then_fail)
        status, err = run_quiet(["train", "--records", paths["recs.bin"], "--vocab", paths["vocab.txt"],
                                 "--config", cfg, "--out", out])
        assert (status, err[-1:]) == (1, ["error: disk full"])
        assert out.read_bytes() == b"old checkpoint"
        assert os.listdir(tmp_path) == ["model.bin"]

    @pytest.mark.parametrize("name", ["vocab.txt", "recs.bin", "index.bin"])
    def test_other_artifacts_replaced(self, derived, tmp_path, name):
        cfg, paths = derived
        data = paths["data"]
        out = tmp_path / name
        out.write_bytes(b"stale")
        args = {
            "vocab.txt": ["build-vocab", "--input", data / "logs.tsv", "--config", cfg],
            "recs.bin": ["preprocess", "--input", data / "logs.tsv", "--vocab", paths["vocab.txt"],
                         "--config", cfg],
            "index.bin": ["embed-products", "--catalog", data / "catalog.tsv", "--model", paths["model.bin"],
                          "--vocab", paths["vocab.txt"], "--config", cfg],
        }[name]
        assert run_quiet(args + ["--out", out])[0] == 0
        assert out.read_bytes() == paths[name].read_bytes()
        assert os.listdir(tmp_path) == [name]


ARTIFACTS = {"index.bin": load_index, "model.bin": load_model}
CORRUPTION = settings(max_examples=60, deadline=None)
FIELD_BITS = 32 * 8  # both files: magic, version, then count, n and id width, or V, B and n


REC_HEADER_END = 28  # records.bin: magic, then version, qmax, pmax (u32) and count (u64)
FRAMES = {"recs.bin": ("record file", 1), "model.bin": ("checkpoint", 2), "index.bin": ("index", 4)}


def index_count_and_width(blob):
    return struct.unpack_from("<Q", blob, 12)[0], struct.unpack_from("<Q", blob, 24)[0]


def index_blob_end(blob):
    """Where the index's id records and their padding end: the matrix starts there."""
    count, width = index_count_and_width(blob)
    return 64 + count * width + (-count * width % 8)


class TestCorruptArtifacts:
    """A damaged index.bin or model.bin is rejected with ValueError by its
    loader, and with one `error:` line and exit 1 by `semmatch query`: a file
    cut short inside the index's header or id records, or anywhere in a
    checkpoint; a bit flipped in a magic, version, count, size or
    id-width field; index ids swapped or repeated, so that they no longer
    ascend strictly; an older magic. tests/test_index.py and
    tests/test_model.py try every cut and every header bit on the loaders
    alone. A records.bin cut short anywhere, or with a bit flipped in its
    magic, version, qmax, pmax or count, is rejected alike by read_records
    and by `semmatch train`.

    Not detected: a bit flip inside the float payload (the index matrix, the
    embeddings and normalization state), in the checkpoint's normalization
    code, momentum or epsilon, or one in an id that keeps the ids strictly
    ascending. Finding those needs the payload hashed, which costs more
    than a query. A flip in the index's stored fingerprint or the
    checkpoint's digest loads, and `query` rejects the pair as a mismatch.
    """

    @staticmethod
    def assert_rejected(derived, name, damaged):
        cfg, paths = derived
        with pytest.raises(ValueError):
            ARTIFACTS[name](io.BytesIO(damaged))
        path = paths[name].with_name("damaged-" + name)
        path.write_bytes(damaged)
        status, err = run_quiet(query_args(cfg, paths, **{name.split(".")[0]: path}))
        assert status == 1
        assert len(err) == 1 and err[0].startswith("error: ")

    @CORRUPTION
    @given(data=st.data())
    def test_cut(self, derived, data):
        name = data.draw(st.sampled_from(sorted(ARTIFACTS)))
        blob = derived[1][name].read_bytes()
        end = index_blob_end(blob) if name == "index.bin" else len(blob)
        self.assert_rejected(derived, name, blob[: data.draw(st.integers(0, end - 1))])

    @CORRUPTION
    @given(data=st.data())
    def test_field_bit_flip(self, derived, data):
        name = data.draw(st.sampled_from(sorted(ARTIFACTS)))
        bit = data.draw(st.integers(0, FIELD_BITS - 1))
        damaged = bytearray(derived[1][name].read_bytes())
        damaged[bit // 8] ^= 1 << (bit % 8)
        self.assert_rejected(derived, name, bytes(damaged))

    @CORRUPTION
    @given(data=st.data())
    def test_ids_swapped_or_repeated(self, derived, data):
        """Two id records swapped, or one written whole over another, keep
        the id width and count: only the strict order rejects them."""
        blob = derived[1]["index.bin"].read_bytes()
        count, width = index_count_and_width(blob)
        ids = [blob[64 + r * width : 64 + (r + 1) * width] for r in range(count)]
        i, j = data.draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
        if data.draw(st.booleans()):
            ids[i], ids[j] = ids[j], ids[i]
        else:
            ids[i] = ids[j]
        self.assert_rejected(derived, "index.bin", blob[:64] + b"".join(ids) + blob[64 + count * width :])

    @staticmethod
    def run_damaged(derived, name, damaged):
        """Exit status and stderr lines of the command that reads `name`,
        given `damaged` in its place: `train` for records, else `query`."""
        cfg, paths = derived
        path = paths[name].with_name("damaged-" + name)
        path.write_bytes(damaged)
        if name != "recs.bin":
            return run_quiet(query_args(cfg, paths, **{name.split(".")[0]: path}))
        out = path.with_name("trained-from-damaged-recs.bin")
        outcome = run_quiet(["train", "--records", path, "--vocab", paths["vocab.txt"], "--config", cfg,
                             "--out", out])
        assert not out.exists()
        return outcome

    def assert_records_rejected(self, derived, damaged):
        status, err = self.run_damaged(derived, "recs.bin", damaged)
        assert status == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "record file" in err[0]
        with pytest.raises(ValueError):
            read_records(str(derived[1]["recs.bin"].with_name("damaged-recs.bin")))

    @CORRUPTION
    @given(data=st.data())
    def test_records_cut(self, derived, data):
        """Cut inside the 28 bytes of magic and header, or inside the records."""
        blob = derived[1]["recs.bin"].read_bytes()
        cut = data.draw(st.integers(0, REC_HEADER_END - 1) | st.integers(REC_HEADER_END, len(blob) - 1))
        self.assert_records_rejected(derived, blob[:cut])

    @CORRUPTION
    @given(bit=st.integers(0, REC_HEADER_END * 8 - 1))
    def test_records_field_bit_flip(self, derived, bit):
        """A bit of the magic, version, qmax, pmax or count."""
        damaged = bytearray(derived[1]["recs.bin"].read_bytes())
        damaged[bit // 8] ^= 1 << (bit % 8)
        self.assert_records_rejected(derived, bytes(damaged))

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_frame_faults_worded_alike(self, derived, name):
        """The three binary artifacts share one frame, and its faults read
        alike: another magic, a header cut short, another version, and a
        payload short or long by one byte."""
        what, version = FRAMES[name]
        blob = derived[1][name].read_bytes()
        for damaged, message in [
            (b"SMOTHER0" + blob[8:], f"not a version-{version} {what} (magic b'SMOTHER0')"),
            (blob[:10], f"truncated {what}"),
            (blob[:8] + struct.pack("<I", version + 1) + blob[12:], f"unsupported {what} version {version + 1}"),
            (blob[:-1], f"truncated {what}"),
            (blob + b"\0", f"{what} size does not match its header"),
        ]:
            assert self.run_damaged(derived, name, damaged) == (1, [f"error: {message}"])

    @pytest.mark.parametrize(
        "name,magic",
        [("index.bin", b"SMINDEX1"), ("index.bin", b"SMINDEX2"), ("index.bin", b"SMINDEX3"), ("model.bin", b"SMMODEL1")],
    )
    def test_version_1_magic(self, derived, name, magic):
        self.assert_rejected(derived, name, magic + derived[1][name].read_bytes()[8:])
