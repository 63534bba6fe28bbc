"""End-to-end CLI pipeline tests."""

import os

import pytest

from semmatch.cli import main
from semmatch.config import load_run_config, parse_config_file

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


def run(args):
    return main([str(a) for a in args])


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

    def test_shard_check(self, capsys):
        assert run(["shard-check", "--n", 4, "--dim", 32, "--pairs", 50]) == 0
        out = capsys.readouterr().out
        assert "3n = 12" in out


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

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
