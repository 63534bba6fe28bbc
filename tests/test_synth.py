"""Log parsing and synthetic-corpus generator tests."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth_oracle import match_sets
from semmatch import synth
from semmatch.synth import (
    LogRecord,
    SynthConfig,
    _generate,
    _match_sets,
    gen_synthetic,
    parse_log,
    read_catalog,
)

SMALL = SynthConfig(
    concepts=20,
    synonyms_per_concept=2,
    products=120,
    queries=60,
    eval_queries=15,
    typo_rate=0.1,
    morph_rate=0.2,
    impressed_per_purchase=3,
    seed=7,
)


class TestParseLog:
    def test_valid_lines(self):
        lines = [
            "red shoe\tP1\tred shoe sale\tpurchased\t2",
            "",
            "red shoe\tP2\tblue shoe\timpressed\t1",
        ]
        records, stats = parse_log(lines)
        assert len(records) == 2
        assert stats.parsed == 2
        assert records[0] == LogRecord("red shoe", "P1", "red shoe sale", "purchased", 2)

    def test_malformed_skipped_with_counter(self):
        lines = ["a\tP1\tt\tpurchased\t1"] * 20 + ["bad line"]
        records, stats = parse_log(lines)
        assert len(records) == 20
        assert stats.malformed == 1

    def test_too_many_malformed_aborts(self):
        lines = ["a\tP1\tt\tpurchased\t1", "junk", "more junk"]
        with pytest.raises(ValueError):
            parse_log(lines)

    def test_bad_label_and_count(self):
        lines = ["a\tP1\tt\tpurchased\t1"] * 30 + [
            "a\tP1\tt\tclicked\t1",
            "a\tP1\tt\tpurchased\tzero",
            "a\tP1\tt\tpurchased\t0",
        ]
        _, stats = parse_log(lines)
        assert stats.malformed == 3


class TestGenerator:
    def test_deterministic_by_seed(self):
        c1 = _generate(SMALL)
        c2 = _generate(SMALL)
        assert c1.catalog == c2.catalog
        assert c1.train_logs == c2.train_logs
        assert c1.eval_logs == c2.eval_logs

    def test_seed_changes_output(self):
        c1 = _generate(SMALL)
        c2 = _generate(SynthConfig(**{**SMALL.__dict__, "seed": 8}))
        assert c1.catalog != c2.catalog

    def test_counts(self):
        c = _generate(SMALL)
        assert len(c.catalog) == SMALL.products
        assert len(c.queries) == SMALL.queries + SMALL.eval_queries
        purchases = [r for r in c.train_logs if r.label == "purchased"]
        assert len(purchases) == SMALL.queries

    def test_purchased_product_in_ground_truth(self):
        c = _generate(SMALL)
        gt = set(c.ground_truth)
        qid_by_text = {text: qid for qid, text in c.queries}
        for r in c.train_logs + c.eval_logs:
            if r.label == "purchased":
                assert (qid_by_text[r.query], r.product_id) in gt

    def test_labels_exclusive_per_query(self):
        c = _generate(SMALL)
        for logs in (c.train_logs, c.eval_logs):
            seen = {}
            for r in logs:
                key = (r.query, r.product_id)
                assert seen.setdefault(key, r.label) == r.label

    def test_impressed_not_in_relevant_set(self):
        c = _generate(SMALL)
        gt = set(c.ground_truth)
        qid_by_text = {text: qid for qid, text in c.queries}
        for r in c.train_logs:
            if r.label == "impressed":
                assert (qid_by_text[r.query], r.product_id) not in gt

    def test_query_texts_unique(self):
        c = _generate(SMALL)
        texts = [t for _, t in c.queries]
        assert len(set(texts)) == len(texts)

    def test_model_numbers_unique_per_product(self):
        cfg = SynthConfig(**{**SMALL.__dict__, "model_number_rate": 1.0})
        c = _generate(cfg)
        skus = [text.split()[-1] for _, text in c.catalog]
        assert len(set(skus)) == len(skus)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(concepts=0)
        with pytest.raises(ValueError):
            SynthConfig(typo_rate=1.5)

    @pytest.mark.parametrize("name", ["eval_queries", "phrase_pairs"])
    def test_negative_count_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            SynthConfig(**{**SMALL.__dict__, name: -3})

    # Constructing the configs alone: a generator over its token supply
    # would retry forever.
    def test_word_supply_limit(self):
        # Each concept synonym, each phrase-pair word and 12 brands and 8
        # colours is a distinct word of 2-3 syllables: 85**2 + 85**3 of them.
        SynthConfig(concepts=621_330 - 2 * 5, synonyms_per_concept=1, phrase_pairs=5)
        with pytest.raises(ValueError, match="needs 621351 distinct words"):
            SynthConfig(concepts=621_331 - 2 * 5, synonyms_per_concept=1, phrase_pairs=5)

    def test_model_number_supply_limit(self):
        # Two consonants and a number in [100, 1000): 17 * 17 * 900 tokens.
        SynthConfig(products=260_100, model_number_rate=0.5)
        SynthConfig(products=260_101, model_number_rate=0.0)
        with pytest.raises(ValueError, match="needs 260101 distinct model numbers"):
            SynthConfig(products=260_101, model_number_rate=0.5)

    def test_zero_eval_queries_and_phrase_pairs_allowed(self):
        c = _generate(SynthConfig(**{**SMALL.__dict__, "eval_queries": 0, "phrase_pairs": 0}))
        assert c.eval_logs == []
        assert len(c.queries) == SMALL.queries


@st.composite
def concept_draws(draw):
    """Product signatures over `held` concepts, `unheld` more concepts that no
    product holds, a chosen tuple of 1-4 of all of them and a target that
    holds every chosen concept (-1 when no product does)."""
    held = draw(st.integers(1, 8))
    unheld = draw(st.integers(0, 3))
    signatures = [
        tuple(sorted(sig))
        for sig in draw(st.lists(st.sets(st.integers(0, held - 1), min_size=1, max_size=held), max_size=40))
    ]
    chosen = tuple(sorted(draw(st.sets(st.integers(0, held + unheld - 1), min_size=1, max_size=4))))
    full = [p for p, sig in enumerate(signatures) if set(chosen) <= set(sig)]
    target = draw(st.sampled_from(full)) if full else -1
    return held + unheld, signatures, chosen, target


class TestMatchSets:
    @settings(max_examples=300, deadline=None)
    @given(concept_draws())
    def test_equals_set_comprehension_oracle(self, draws):
        n_concepts, signatures, chosen, target = draws
        by_concept = {c: [p for p, sig in enumerate(signatures) if c in sig] for c in range(n_concepts)}
        members = [np.array(by_concept[c], dtype=np.int64) for c in range(n_concepts)]
        full, partial = _match_sets(members, chosen)
        relevant, candidates = match_sets(signatures, by_concept, chosen, target)
        assert full.tolist() == relevant
        assert partial.tolist() == candidates
        assert full.dtype == partial.dtype == np.int64
        if len(chosen) == 1:
            assert partial.size == 0


class TestFiles:
    def test_gen_synthetic_writes_all_files(self, tmp_path):
        paths = gen_synthetic(SMALL, str(tmp_path))
        assert set(paths) == {"catalog", "logs", "eval_logs", "queries", "ground_truth"}
        with open(paths["catalog"]) as f:
            catalog = read_catalog(f)
        assert len(catalog) == SMALL.products
        with open(paths["logs"]) as f:
            records, stats = parse_log(f)
        assert stats.malformed == 0
        assert records == _generate(SMALL).train_logs

    def test_failed_write_leaves_the_previous_files(self, tmp_path, monkeypatch):
        names = ["catalog.tsv", "logs.tsv", "eval_logs.tsv", "queries.tsv", "ground_truth.tsv"]
        for name in names:
            (tmp_path / name).write_text(f"sentinel {name}\n")
        write_logs = synth._write_logs

        def fail_in_eval_logs(f, logs):
            if "eval_logs" not in os.path.basename(f.name):
                return write_logs(f, logs)
            write_logs(f, logs[:1])
            raise OSError("disk full")

        monkeypatch.setattr(synth, "_write_logs", fail_in_eval_logs)
        with pytest.raises(OSError, match="disk full"):
            gen_synthetic(SMALL, str(tmp_path))
        assert (tmp_path / "eval_logs.tsv").read_text() == "sentinel eval_logs.tsv\n"
        assert (tmp_path / "queries.tsv").read_text() == "sentinel queries.tsv\n"
        assert sorted(os.listdir(tmp_path)) == sorted(names)

    def test_read_catalog_rejects_a_repeated_id(self):
        lines = ["P1\tred shoe\n", "P2\tblue hat\n", "\n", "P1\tgreen sock\n"]
        with pytest.raises(ValueError, match="^catalog line 4: product id 'P1' is already on line 1$"):
            read_catalog(lines)

    def test_files_bitwise_reproducible(self, tmp_path):
        p1 = gen_synthetic(SMALL, str(tmp_path / "a"))
        p2 = gen_synthetic(SMALL, str(tmp_path / "b"))
        for name in p1:
            assert open(p1[name], "rb").read() == open(p2[name], "rb").read()


# sha256 of each gen_synthetic file, pinned from the generator that built the
# relevant and impressed sets by set comprehensions. Together the configs
# cover phrase pairs, typo and morph rates, model numbers, and a query that
# takes its target's whole signature (query_concepts >= concepts_per_product).
PINNED = [
    (
        SynthConfig(concepts=20, synonyms_per_concept=2, products=150, queries=60, eval_queries=15,
                    typo_rate=0.1, morph_rate=0.2, phrase_pairs=3, impressed_per_purchase=3, seed=7),
        {
            "catalog": "cfa4c976d6ac5d5505802acb0226d819b321adfefe3537f5cbd80de09669d839",
            "eval_logs": "2244fa308408995cdc267e8e6dd8765dd81fe7d27a8bc513773923ec1cb2a375",
            "ground_truth": "f896d833711192e59f94cde40e4ad3e73b722a9810dce4b705b4d7a283482f54",
            "logs": "1ee660a07ba7eeaf21bf00f95893bd2e8b79937e024ea525ed0e64f8ab809989",
            "queries": "2f02c1fa27bf8bdec2f6e9f9939a37c5321203ae88b2dab6cd969e49dd19296d",
        },
    ),
    (
        SynthConfig(concepts=15, synonyms_per_concept=3, products=120, queries=50, eval_queries=10,
                    concepts_per_product=2, query_concepts=3, model_number_rate=0.6, seed=3),
        {
            "catalog": "5c051a164a85c9aae2f665c3c13c0a1f7f5815ec33ae0a375b51bef837f93454",
            "eval_logs": "b18934f39c5f0d510fd048a12bb3ea75af5e8a63f78da7b55ef627819efc74d7",
            "ground_truth": "a56b928dce0815e961e860e132f13e87e4dbc3264627bf6b544c6eff0eaabf0a",
            "logs": "acaf25f24d8311b4b84509fd50dbc235f9873c4130a0d54d4e075053add53f85",
            "queries": "46a9fa5765c5766ef6d5aa463cdee9f9b7e728bc8f9549440cf376fad93b8ce6",
        },
    ),
    (
        SynthConfig(concepts=25, synonyms_per_concept=3, products=200, queries=80, eval_queries=20,
                    typo_rate=0.03, morph_rate=0.35, impressed_per_purchase=4, concepts_per_product=5,
                    query_concepts=3, phrase_pairs=4, model_number_rate=0.7, seed=23),
        {
            "catalog": "85949aeabf7df2bb7944b0c0bc56afa4a7ecbad4f4deaebbfd83e5df56c58e82",
            "eval_logs": "bc9f02dce13f4a2647c237f89c4dda54c396c1a0b7ca304a750a4fbe9197a1c4",
            "ground_truth": "c10e7118233d852a3c6aacc65ad7b58ccab7083c7de07765c9e008dbc120540d",
            "logs": "b30a277d621af9080987aa2484e2cbf1252943db7146aed8bbe17b8345e4928d",
            "queries": "c04f1a3dd785ee97ca8939a1d52800f2775816098b5fd603f6e2b463e7b84060",
        },
    ),
]


@pytest.mark.parametrize("config, digests", PINNED, ids=["typo-morph-phrases", "model-numbers", "rich"])
def test_files_match_pinned_digests(tmp_path, config, digests):
    paths = gen_synthetic(config, str(tmp_path))
    actual = {name: hashlib.sha256(open(path, "rb").read()).hexdigest() for name, path in paths.items()}
    assert actual == digests
