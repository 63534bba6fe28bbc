"""Acceptance suite: ten pinned criteria covering golden tokenization,
gradient correctness, shard equivalence, metric oracles, ablation
directions on synthetic fixtures, and end-to-end determinism.

Each criterion prints one PASS/FAIL line. Fixtures are seed-pinned; the
directional criteria train real models and take a few minutes total.
"""

import io
import math
import os

import numpy as np
import pytest
from metric_oracle import average_precision, mrr, ndcg, recall_at_k
from search_oracle import oracle_matching_eval

from semmatch import index as index_mod
from semmatch.cli import main as cli_main
from semmatch.evaluation import load_eval_queries, run_matching_eval
from semmatch.index import build_index, load_index, save_index
from semmatch.losses import Label3, LossSpec, loss_batch, loss_grad_batch
from semmatch.model import (
    ModelConfig,
    backward_batch,
    forward_batch,
    load_model,
)
from semmatch.sharding import ShardPlan, simulate
from semmatch.synth import SynthConfig, _generate
from semmatch.tokenizer import (
    CHAR_TRIGRAM,
    UNIGRAM,
    TokenizerConfig,
    build_vocabulary,
    char_trigrams,
    encode,
    ngram_class,
    word_ngrams,
)
from semmatch.training import (
    TrainConfig,
    init_model,
    preprocess_logs,
    read_records,
    train,
)
from single_item import serialize_model


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared training harness


def corpus_rows(corpus):
    for r in corpus.train_logs:
        yield ("query", r.query)
        yield ("product", r.product_text)


def train_and_eval(corpus, eval_queries, tok_config, model_config, loss_spec,
                   train_config, tmp_dir, k=100):
    """Build vocab, preprocess, train, index, and evaluate one configuration."""
    vocab = build_vocabulary(corpus_rows(corpus), tok_config)
    recs_path = os.path.join(tmp_dir, "recs.bin")
    preprocess_logs(corpus.train_logs, vocab, tok_config, recs_path)
    _, _, records = read_records(recs_path)
    model = init_model(vocab.v, vocab.oov_bins, model_config, np.random.default_rng(0))
    train(records, model, loss_spec, train_config)
    index = build_index(corpus.catalog, model, vocab, tok_config)
    rep = run_matching_eval(eval_queries, index, model, vocab, tok_config, k=k)
    return rep.means["recall"], model, vocab


STANDARD_TOK = TokenizerConfig(
    budget_per_class={UNIGRAM: 5000}, query_max_tokens=8, product_max_tokens=12
)
STANDARD_TRAIN = TrainConfig(batch_size=256, epochs=12, seed=0)


@pytest.fixture(scope="session")
def standard_fixture(tmp_path_factory):
    """The standard synthetic fixture (1e4 products, 2e3 queries) with
    identically budgeted training runs for every configuration under test."""
    tmp = str(tmp_path_factory.mktemp("standard"))
    corpus = _generate(
        SynthConfig(
            concepts=120,
            synonyms_per_concept=3,
            products=10_000,
            queries=2_000,
            eval_queries=300,
            impressed_per_purchase=4,
            seed=11,
        )
    )
    queries = load_eval_queries(corpus.eval_logs)
    shared64 = ModelConfig(embedding_dim=64, shared_embeddings=True, normalization="batch")
    out = {"corpus": corpus, "queries": queries, "recall": {}, "model": {}, "vocab": None}
    for name, spec in (
        ("hinge3", LossSpec(kind="hinge3", m=2)),
        ("hinge2", LossSpec(kind="hinge2", m=2)),
        ("mse", LossSpec(kind="mse")),
    ):
        recall, model, vocab = train_and_eval(
            corpus, queries, STANDARD_TOK, shared64, spec, STANDARD_TRAIN, tmp
        )
        out["recall"][name] = recall
        out["model"][name] = model
        out["vocab"] = vocab
    # Equal parameter count: one shared 64-wide matrix vs two 32-wide ones.
    decoupled32 = ModelConfig(
        embedding_dim=32, shared_embeddings=False, normalization="batch"
    )
    recall, _, _ = train_and_eval(
        corpus, queries, STANDARD_TOK, decoupled32,
        LossSpec(kind="hinge3", m=2), STANDARD_TRAIN, tmp,
    )
    out["recall"]["hinge3_decoupled32"] = recall
    return out


# ---------------------------------------------------------------------------
# Criterion 1: tokenizer golden examples


def test_criterion_01_tokenizer_golden(capsys):
    text = "artistic iphone 6s case"
    tris = char_trigrams(text)
    expected_tris = [
        "#ar", "art", "rti", "tis", "ist", "sti", "tic", "ic#", "c#i",
        "#ip", "iph", "pho", "hon", "one", "ne#", "e#6", "#6s", "6s#",
        "s#c", "#ca", "cas", "ase", "se#",
    ]
    words = text.split()
    bi = word_ngrams(words, 2)
    tri_words = word_ngrams(words, 3)
    ok = (
        tris == expected_tris
        and len(tris) == 23
        and bi == ["artistic#iphone", "iphone#6s", "6s#case"]
        and tri_words == ["artistic#iphone#6s", "iphone#6s#case"]
    )
    report(capsys, 1, ok,
           f"golden token lists: {len(tris)} char trigrams, "
           f"{len(bi)} bigrams, {len(tri_words)} word trigrams")


# ---------------------------------------------------------------------------
# Criterion 2: gradient suite over randomized configurations


def _weighted_loss(q, p, w, labels, model, spec, phase):
    scores, _ = forward_batch(q, p, model, phase)
    return float((w * loss_batch(scores, labels, spec)).sum() / w.sum())


def test_criterion_02_gradient_suite(capsys):
    kinds = ["mse", "mae", "bce", "hinge2", "hinge3"]
    norms = ["none", "batch", "layer"]
    kink_points = {
        "hinge3": (0.9, 0.55, 0.2),
        "hinge2": (0.9, 0.2),
        "mae": (0.0, 1.0),
        "bce": (-1.0, 1.0),
        "mse": (),
    }
    rng = np.random.default_rng(2024)
    h = 1e-6
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 54 and attempts < 500:
        attempts += 1
        kind = kinds[attempts % len(kinds)]
        m = 1 + (attempts // len(kinds)) % 2
        norm = norms[attempts % len(norms)]
        shared = bool(attempts % 2)
        spec = LossSpec(kind=kind, m=m)
        cfg = ModelConfig(embedding_dim=3, shared_embeddings=shared, normalization=norm)
        model = init_model(8, 2, cfg, rng)
        b = 4
        q = rng.integers(0, 11, size=(b, 3))
        p = rng.integers(0, 11, size=(b, 4))
        q[:, 0] = rng.integers(1, 11, size=b)  # no empty bags
        p[:, 0] = rng.integers(1, 11, size=b)
        w = rng.uniform(0.5, 3.0, size=b)
        labels = rng.integers(0, 3, size=b)
        phase = "train"
        scores, cache = forward_batch(q, p, model, phase)
        # Hinge and clamped losses are non-differentiable at their margins;
        # skip configurations that land a score near one.
        if any(abs(scores - kp).min() < 1e-3 for kp in kink_points[kind]):
            continue
        if kind == "mae" and np.abs(
            scores - (labels == int(Label3.PURCHASED))
        ).min() < 1e-3:
            continue
        wsum = w.sum()
        dscores = w * loss_grad_batch(scores, labels, spec) / wsum
        grads = backward_batch(cache, dscores)
        params = model.parameters()
        max_rel = 0.0
        for name, param in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if hasattr(g, "rows"):
                dense = np.zeros_like(param)
                dense[g.rows] = g.values
            else:
                dense = g
            for idx in np.ndindex(param.shape):
                if name.startswith("emb") and idx[0] == 0:
                    continue
                orig = param[idx]
                param[idx] = orig + h
                lp = _weighted_loss(q, p, w, labels, model, spec, phase)
                param[idx] = orig - h
                lm = _weighted_loss(q, p, w, labels, model, spec, phase)
                param[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = float(dense[idx])
                denom = max(abs(fd), abs(an))
                if denom < 1e-7:
                    continue
                max_rel = max(max_rel, abs(fd - an) / denom)
        worst = max(worst, max_rel)
        checked += 1
        assert max_rel < 1e-4, (
            f"config {checked} (kind={kind}, m={m}, norm={norm}, shared={shared}) "
            f"rel err {max_rel:.2e}"
        )
    ok = checked >= 50 and worst < 1e-4
    report(capsys, 2, ok,
           f"{checked} randomized configs, worst relative error {worst:.2e} < 1e-4")


# ---------------------------------------------------------------------------
# Criterion 3: shard equivalence and communication contract


def test_criterion_03_shard_equivalence(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    ledger_ok = True
    for k in (64, 256, 1024):
        cfg = ModelConfig(embedding_dim=k, shared_embeddings=True, normalization="batch")
        model = init_model(300, 50, cfg, rng)
        model.norm_query.running_mean[:] = rng.normal(size=k)
        model.norm_query.running_var[:] = 0.5 + rng.random(k)
        model.norm_product.running_mean[:] = rng.normal(size=k)
        model.norm_product.running_var[:] = 0.5 + rng.random(k)
        q = rng.integers(0, 351, size=(1000, 8))
        p = rng.integers(0, 351, size=(1000, 12))
        direct, _ = forward_batch(q, p, model, "infer")
        for n in (1, 2, 4, 8):
            sharded, ledger = simulate(ShardPlan(n=n, k=k), q, p, model)
            worst = max(worst, float(np.max(np.abs(sharded - direct))))
            ledger_ok &= ledger.scalars_returned == 1000 * 3 * n
    ok = worst < 1e-12 and ledger_ok
    report(capsys, 3, ok,
           f"max |sharded - direct| = {worst:.2e} < 1e-12 over k in (64,256,1024), "
           f"n in (1,2,4,8); ledger = 3n scalars/pair: {ledger_ok}")


# ---------------------------------------------------------------------------
# Criterion 4: metric oracles on 200 random instances


def _oracle(ranked, relevant, k):
    rec = sum(1 for d in ranked[:k] if d in relevant) / len(relevant)
    hits, ap = 0, 0.0
    for r, d in enumerate(ranked[:k], start=1):
        if d in relevant:
            hits += 1
            ap += hits / r
    ap /= len(relevant)
    dcg = sum(1.0 / math.log2(r + 1) for r, d in enumerate(ranked, start=1) if d in relevant)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, len(relevant) + 1))
    rr = next((1.0 / r for r, d in enumerate(ranked, start=1) if d in relevant), 0.0)
    return rec, ap, dcg / idcg, rr


def test_criterion_04_metric_oracles(capsys):
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        docs = [f"d{i}" for i in range(n)]
        ranked = list(rng.permutation(docs))
        relevant = set(rng.choice(docs, size=int(rng.integers(1, n + 1)), replace=False))
        k = int(rng.integers(1, n + 1))
        want = _oracle(ranked, relevant, k)
        got = (
            recall_at_k(ranked, relevant, k),
            average_precision(ranked, relevant, cutoff=k),
            ndcg(ranked, {d: 1.0 for d in relevant}),
            mrr(ranked, relevant),
        )
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), (ranked, relevant, k)
        checked += 1
    report(capsys, 4, checked == 200,
           f"{checked}/200 random instances match brute force exactly")


# ---------------------------------------------------------------------------
# Criterion 5: loss-ablation direction on the standard fixture


def test_criterion_05_loss_ablation(standard_fixture, capsys):
    r = standard_fixture["recall"]
    rel_gain = (r["hinge3"] - r["mse"]) / r["mse"]
    ok = r["hinge3"] > r["hinge2"] > r["mse"] and rel_gain >= 0.20
    report(capsys, 5, ok,
           f"Recall@100 hinge3 {r['hinge3']:.4f} > hinge2 {r['hinge2']:.4f} > "
           f"mse {r['mse']:.4f}; hinge3 vs mse +{rel_gain:.0%} relative (>= 20%)")


# ---------------------------------------------------------------------------
# Criterion 6: score separation after 3-part hinge training


def test_criterion_06_score_separation(standard_fixture, capsys):
    model = standard_fixture["model"]["hinge3"]
    vocab = standard_fixture["vocab"]
    corpus = standard_fixture["corpus"]
    rng = np.random.default_rng(6)
    text_by_pid = dict(corpus.catalog)

    def score_pairs(pairs):
        q = np.stack([encode(qt, "query", vocab, STANDARD_TOK).ids for qt, _ in pairs])
        p = np.stack([encode(pt, "product", vocab, STANDARD_TOK).ids for _, pt in pairs])
        scores, _ = forward_batch(q, p, model, "infer")
        return scores

    purchased, impressed, randoms = [], [], []
    for q in standard_fixture["queries"]:
        interacted = set(q.purchased) | q.impressed
        for pid in q.purchased:
            purchased.append((q.text, text_by_pid[pid]))
        for pid in q.impressed:
            impressed.append((q.text, text_by_pid[pid]))
        for _ in range(5):
            while True:
                pid, ptext = corpus.catalog[int(rng.integers(len(corpus.catalog)))]
                if pid not in interacted:
                    randoms.append((q.text, ptext))
                    break
    med_p = float(np.median(score_pairs(purchased)))
    med_i = float(np.median(score_pairs(impressed)))
    med_r = float(np.median(score_pairs(randoms)))
    ok = med_p > 0.55 > med_r and med_r < med_i < med_p
    report(capsys, 6, ok,
           f"median scores purchased {med_p:.3f} > eps_zero 0.55 > random {med_r:.3f}; "
           f"impressed {med_i:.3f} strictly between")


# ---------------------------------------------------------------------------
# Criteria 7: tokenization-ablation direction


@pytest.fixture(scope="session")
def tokenization_fixture(tmp_path_factory):
    """Typo-, synonym-, morphology-, and word-order-laden corpus with
    deliberately starved vocabulary budgets, so each added token class (and
    finally OOV hashing of the out-of-budget recurring tokens) adds usable
    signal."""
    tmp = str(tmp_path_factory.mktemp("tok7"))
    corpus = _generate(
        SynthConfig(
            concepts=100,
            synonyms_per_concept=3,
            products=4_000,
            queries=1_200,
            eval_queries=250,
            typo_rate=0.03,
            morph_rate=0.35,
            impressed_per_purchase=4,
            phrase_pairs=10,
            seed=23,
        )
    )
    queries = load_eval_queries(corpus.eval_logs)
    lengths = dict(query_max_tokens=40, product_max_tokens=60)
    budgets = {UNIGRAM: 200, ngram_class(2): 600, CHAR_TRIGRAM: 700}
    stacks = {
        "unigram": TokenizerConfig(budget_per_class={UNIGRAM: 200}, **lengths),
        "full": TokenizerConfig(
            ngram_orders=(2,), use_char_trigrams=True,
            budget_per_class=budgets, **lengths,
        ),
        "full_oov": TokenizerConfig(
            ngram_orders=(2,), use_char_trigrams=True,
            budget_per_class=budgets, oov_bins=20_000, **lengths,
        ),
    }
    shared64 = ModelConfig(embedding_dim=64, shared_embeddings=True, normalization="batch")
    recalls = {}
    for name, tc in stacks.items():
        recall, _, _ = train_and_eval(
            corpus, queries, tc, shared64, LossSpec(kind="hinge3", m=2),
            STANDARD_TRAIN, tmp,
        )
        recalls[name] = recall
    return recalls


def test_criterion_07_tokenization_ablation(tokenization_fixture, capsys):
    r = tokenization_fixture
    ok = (
        r["unigram"] <= r["full"] <= r["full_oov"]
        and r["full_oov"] > r["unigram"]
    )
    report(capsys, 7, ok,
           f"Recall@100 unigram {r['unigram']:.4f} <= +bigram+ctri {r['full']:.4f} "
           f"<= +OOV {r['full_oov']:.4f}, full stack strictly above unigram")


# ---------------------------------------------------------------------------
# Criterion 8: OOV hashing at equal embedding rows


def test_criterion_08_oov_parameter_control(capsys, tmp_path):
    # Every product carries a unique model-number token that eval queries
    # repeat; only hashing can give those recurring-but-unrankable tokens
    # parameters, so the 150+250-row model can beat the plain 400-row one.
    corpus = _generate(
        SynthConfig(
            concepts=150,
            synonyms_per_concept=3,
            products=5_000,
            queries=1_500,
            eval_queries=250,
            impressed_per_purchase=4,
            model_number_rate=0.7,
            seed=31,
        )
    )
    queries = load_eval_queries(corpus.eval_logs)
    lengths = dict(query_max_tokens=40, product_max_tokens=60)
    plain = TokenizerConfig(budget_per_class={UNIGRAM: 400}, **lengths)
    hashed = TokenizerConfig(budget_per_class={UNIGRAM: 150}, oov_bins=250, **lengths)
    shared64 = ModelConfig(embedding_dim=64, shared_embeddings=True, normalization="batch")
    tmp = str(tmp_path)
    recall_plain, _, _ = train_and_eval(
        corpus, queries, plain, shared64, LossSpec(kind="hinge3", m=2),
        STANDARD_TRAIN, tmp,
    )
    recall_hashed, _, vocab_hashed = train_and_eval(
        corpus, queries, hashed, shared64, LossSpec(kind="hinge3", m=2),
        STANDARD_TRAIN, tmp,
    )
    # Equal total embedding rows by construction.
    assert 400 == vocab_hashed.v + vocab_hashed.oov_bins

    total = unseen = 0
    for q in queries:
        for tok in q.text.split():
            total += 1
            unseen += (UNIGRAM, tok) not in vocab_hashed.token_to_id
    unseen_frac = unseen / total
    ok = recall_hashed >= recall_plain and unseen_frac >= 0.30
    report(capsys, 8, ok,
           f"Recall@100 vocab+OOV {recall_hashed:.4f} >= plain {recall_plain:.4f} "
           f"at equal rows (400); unseen eval-token fraction {unseen_frac:.0%} >= 30%")


# ---------------------------------------------------------------------------
# Criterion 9: shared vs decoupled embeddings at equal parameter count


def test_criterion_09_shared_embeddings(standard_fixture, capsys):
    r = standard_fixture["recall"]
    ok = r["hinge3"] >= r["hinge3_decoupled32"]
    report(capsys, 9, ok,
           f"Recall@100 shared-64 {r['hinge3']:.4f} >= "
           f"decoupled-2x32 {r['hinge3_decoupled32']:.4f} at equal parameter count")


# ---------------------------------------------------------------------------
# Criterion 10: determinism and file round-trips


PIPELINE_CFG = """\
seed = 5
tokenizer.budget.unigram = 400
tokenizer.oov_bins = 50
tokenizer.query_max_tokens = 8
tokenizer.product_max_tokens = 10
model.embedding_dim = 16
model.normalization = batch
loss.kind = hinge3
train.batch_size = 64
train.epochs = 3
synth.concepts = 25
synth.synonyms = 2
synth.products = 300
synth.queries = 150
synth.eval_queries = 40
synth.impressed_per_purchase = 3
eval.k = 20
"""


def _run_pipeline(root):
    os.makedirs(root, exist_ok=True)
    cfg = os.path.join(root, "run.cfg")
    with open(cfg, "w") as f:
        f.write(PIPELINE_CFG)
    data = os.path.join(root, "data")
    paths = {
        name: os.path.join(root, name)
        for name in ("vocab.txt", "model.bin", "index.bin", "metrics.txt")
    }
    steps = [
        ["gen-synthetic", "--config", cfg, "--out", data],
        ["build-vocab", "--input", os.path.join(data, "logs.tsv"),
         "--config", cfg, "--out", paths["vocab.txt"]],
        ["preprocess", "--input", os.path.join(data, "logs.tsv"),
         "--vocab", paths["vocab.txt"], "--config", cfg,
         "--out", os.path.join(root, "recs.bin")],
        ["train", "--records", os.path.join(root, "recs.bin"),
         "--vocab", paths["vocab.txt"], "--config", cfg, "--out", paths["model.bin"]],
        ["embed-products", "--catalog", os.path.join(data, "catalog.tsv"),
         "--model", paths["model.bin"], "--vocab", paths["vocab.txt"],
         "--config", cfg, "--out", paths["index.bin"]],
        ["evaluate", "--task", "both", "--model", paths["model.bin"],
         "--vocab", paths["vocab.txt"], "--config", cfg, "--data", data,
         "--out", paths["metrics.txt"]],
    ]
    for step in steps:
        assert cli_main(step) == 0, step
    return paths


def test_criterion_10_determinism_roundtrips(capsys, tmp_path):
    run_a = _run_pipeline(str(tmp_path / "a"))
    run_b = _run_pipeline(str(tmp_path / "b"))
    bitwise = all(
        open(run_a[n], "rb").read() == open(run_b[n], "rb").read() for n in run_a
    )

    with open(run_a["model.bin"], "rb") as f:
        model_blob = f.read()
    model = load_model(io.BytesIO(model_blob))
    model_rt = serialize_model(model) == model_blob

    with open(run_a["index.bin"], "rb") as f:
        index_blob = f.read()
    index = load_index(io.BytesIO(index_blob))
    buf = io.BytesIO()
    save_index(index, buf)
    index_rt = buf.getvalue() == index_blob

    ok = bitwise and model_rt and index_rt
    report(capsys, 10, ok,
           f"two seeded pipeline runs bitwise identical: {bitwise}; "
           f"checkpoint round-trip: {model_rt}; index round-trip: {index_rt}")


# ---------------------------------------------------------------------------
# Blocked matching eval on the trained standard fixture


def test_blocked_matching_eval_certified_on_standard_fixture(standard_fixture, monkeypatch):
    """Every per-query value equals the full-scan oracle's, and the float32
    screen places nearly every row: beyond the purchased rows, which are
    scored once each, it leaves under one row per hundred purchases to
    float64."""
    corpus, queries = standard_fixture["corpus"], standard_fixture["queries"]
    model, vocab = standard_fixture["model"]["hinge3"], standard_fixture["vocab"]
    index = build_index(corpus.catalog, model, vocab, STANDARD_TOK)
    settled = []
    score_rows = index_mod.score_rows
    monkeypatch.setattr(index_mod, "score_rows", lambda rows, q: settled.append(len(rows)) or score_rows(rows, q))
    got = run_matching_eval(queries, index, model, vocab, STANDARD_TOK, k=100)
    want = oracle_matching_eval(queries, index, model, vocab, STANDARD_TOK, k=100)
    assert got.evaluated == want.evaluated
    assert got.per_query == want.per_query
    assert got.means == want.means
    purchases = sum(pid in index.row_of for q in queries for pid in q.purchased)
    assert sum(settled) - purchases < purchases / 100
