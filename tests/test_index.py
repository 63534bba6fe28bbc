"""Exact retrieval and index serialization tests."""

import io
import struct

import numpy as np
import pytest

from semmatch import index as index_mod
from semmatch.index import (
    ProductIndex,
    _embed_texts,
    build_index,
    embed_query,
    load_index,
    rank_all,
    save_index,
    top_k,
)
from semmatch.model import ModelConfig, model_fingerprint
from semmatch.tokenizer import UNIGRAM, TokenizerConfig, build_vocabulary
from semmatch.training import init_model

TC = TokenizerConfig(
    budget_per_class={UNIGRAM: 100}, oov_bins=16,
    query_max_tokens=6, product_max_tokens=8,
)

CATALOG = [
    ("P1", "red shoe"),
    ("P2", "blue shoe"),
    ("P3", "green hat"),
    ("P4", "red hat"),
    ("P5", "blue coat warm"),
]


@pytest.fixture
def setup():
    rows = [("product", text) for _, text in CATALOG]
    rows += [("query", "red shoe"), ("query", "warm coat")]
    vocab = build_vocabulary(rows, TC)
    cfg = ModelConfig(embedding_dim=16, shared_embeddings=True, normalization="none")
    model = init_model(vocab.v, vocab.oov_bins, cfg, np.random.default_rng(0))
    index = build_index(CATALOG, model, vocab, TC)
    return vocab, model, index


class TestBuildIndex:
    def test_rows_unit_or_zero(self, setup):
        _, _, index = setup
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))

    def test_duplicate_id_rejected(self, setup):
        vocab, model, _ = setup
        with pytest.raises(ValueError, match="duplicate product id: 'P1'"):
            build_index(CATALOG + [("P1", "again")], model, vocab, TC)

    def test_shuffled_catalog_saves_sorted_bytes(self, setup):
        """Rows follow the product ids, whatever order the catalog lists them in."""
        vocab, model, index = setup
        shuffled = [CATALOG[i] for i in (3, 0, 4, 2, 1)]
        got, want = io.BytesIO(), io.BytesIO()
        save_index(build_index(shuffled, model, vocab, TC), got)
        save_index(index, want)
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize(
        "ids", [["b", "a"], ["a", "a"], ["a", "c", "b"], ["", ""]], ids=["swapped", "repeated", "late", "empty-twice"]
    )
    def test_ids_not_strictly_ascending_rejected(self, ids):
        with pytest.raises(ValueError, match="duplicate product id|out of order"):
            ProductIndex(ids=ids, matrix=np.zeros((len(ids), 2)), fingerprint=b"\0" * 32)

    def test_newline_id_rejected(self, setup):
        vocab, model, _ = setup
        with pytest.raises(ValueError, match="newline"):
            build_index(CATALOG + [("P6\nP7", "red")], model, vocab, TC)

    def test_fingerprint_matches_model(self, setup):
        _, model, index = setup
        assert index.fingerprint == model_fingerprint(model)

    @pytest.mark.parametrize("norm", ["none", "batch", "layer"])
    def test_blocked_embedding_bitwise(self, setup, monkeypatch, norm):
        vocab, _, _ = setup
        cfg = ModelConfig(embedding_dim=16, shared_embeddings=True, normalization=norm)
        model = init_model(vocab.v, vocab.oov_bins, cfg, np.random.default_rng(1))
        texts = [text for _, text in CATALOG] * 3 + ["", "warm red"]
        whole = _embed_texts(texts, "product", model, vocab, TC)
        monkeypatch.setattr(index_mod, "_EMBED_FLOATS", 4 * TC.product_max_tokens * 16)  # 4 rows
        blocked = _embed_texts(texts, "product", model, vocab, TC)
        assert blocked.tobytes() == whole.tobytes()

    def test_empty_text_embeds_zero(self, setup):
        """Under every normalization, with statistics and a shift that would
        map a zero pooled row elsewhere, an empty text embeds as +0.0s."""
        vocab, _, _ = setup
        zero = np.zeros(16).tobytes()
        for norm in ("none", "batch", "layer"):
            cfg = ModelConfig(embedding_dim=16, shared_embeddings=False, normalization=norm)
            rng = np.random.default_rng(2)
            model = init_model(vocab.v, vocab.oov_bins, cfg, rng)
            for state in (model.norm_query, model.norm_product):
                state.running_mean[:] = rng.normal(size=16)
                state.beta[:] = rng.normal(size=16)
            index = build_index([("PX", ""), ("PY", "red shoe")], model, vocab, TC)
            assert index.matrix[0].tobytes() == zero, norm
            assert np.linalg.norm(index.matrix[1]) == pytest.approx(1.0), norm
            assert embed_query("", model, vocab, TC).tobytes() == zero, norm


class TestRanking:
    def test_full_sort_matches_oracle(self, setup):
        vocab, model, index = setup
        rng = np.random.default_rng(7)
        for _ in range(20):
            qvec = rng.normal(size=model.n)
            qvec /= np.linalg.norm(qvec)
            scores, order = rank_all(qvec, index, len(index.ids))
            ranked = [index.ids[i] for i in order]
            oracle = sorted(
                range(len(index.ids)),
                key=lambda i: (-scores[i], index.ids[i]),
            )
            assert ranked == [index.ids[i] for i in oracle]

    def test_tie_breaks_by_id(self, setup):
        vocab, model, index = setup
        # A zero query vector ties every product at score 0.
        scores, order = rank_all(np.zeros(model.n), index, len(index.ids))
        assert [index.ids[i] for i in order] == sorted(index.ids)

    def test_top_k_tied_rows_ids_ascending(self, setup):
        """Empty texts embed as zero rows, which tie at score 0 exactly under
        any query; top_k lists tied products by id, not in catalog order."""
        vocab, model, _ = setup
        catalog = [("P9", ""), ("P0", "red shoe"), ("P5", ""), ("P7", "blue coat warm"), ("P2", "")]
        index = build_index(catalog, model, vocab, TC)
        assert index.ids == ["P0", "P2", "P5", "P7", "P9"]
        every_zero = top_k("", index, model, vocab, TC, k=5, threshold=-1.0)
        assert every_zero.items == [(pid, 0.0) for pid in index.ids]
        for text in ("red shoe", "blue coat"):
            items = top_k(text, index, model, vocab, TC, k=5, threshold=-1.0).items
            assert [pid for pid, score in items if score == 0.0] == ["P2", "P5", "P9"]
            assert items == sorted(items, key=lambda item: (-item[1], item[0]))

    def test_top_k_threshold_filters(self, setup):
        vocab, model, index = setup
        res_low = top_k("red shoe", index, model, vocab, TC, k=5, threshold=-1.0)
        res_high = top_k("red shoe", index, model, vocab, TC, k=5, threshold=0.99)
        assert len(res_low.items) == 5
        assert len(res_high.items) <= len(res_low.items)
        assert set(res_high.items) <= set(res_low.items)

    def test_top_k_sorted_desc(self, setup):
        vocab, model, index = setup
        res = top_k("red shoe", index, model, vocab, TC, k=5, threshold=-1.0)
        scores = [s for _, s in res.items]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_monotonicity(self, setup):
        vocab, model, index = setup
        prev = None
        for thr in (-1.0, 0.0, 0.5, 0.9):
            res = top_k("blue coat", index, model, vocab, TC, k=5, threshold=thr)
            got = {pid for pid, _ in res.items}
            if prev is not None:
                assert got <= prev
            prev = got

    def test_k_validation(self, setup):
        vocab, model, index = setup
        with pytest.raises(ValueError):
            top_k("red", index, model, vocab, TC, k=0, threshold=0.55)

    def test_nan_threshold_rejected(self, setup):
        vocab, model, index = setup
        with pytest.raises(ValueError, match="NaN"):
            rank_all(np.zeros(model.n), index, 5, float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            top_k("red", index, model, vocab, TC, k=5, threshold=float("nan"))

    def test_exact_match_ranks_first(self, setup):
        vocab, model, index = setup
        res = top_k("blue coat warm", index, model, vocab, TC, k=1, threshold=-1.0)
        assert res.items[0][0] == "P5"
        assert res.items[0][1] == pytest.approx(1.0)

    def test_empty_query_scores_all_zero(self, setup):
        vocab, model, index = setup
        qvec = embed_query("", model, vocab, TC)
        np.testing.assert_array_equal(qvec, 0.0)


class TestIndexFile:
    def test_roundtrip_bit_exact(self, setup):
        _, _, index = setup
        buf = io.BytesIO()
        save_index(index, buf)
        blob = buf.getvalue()
        loaded = load_index(io.BytesIO(blob))
        assert loaded.ids == index.ids
        np.testing.assert_array_equal(loaded.matrix, index.matrix)
        assert loaded.fingerprint == index.fingerprint
        buf2 = io.BytesIO()
        save_index(loaded, buf2)
        assert buf2.getvalue() == blob

    @pytest.mark.parametrize(
        "catalog",
        [[], [("", "red shoe")], [("Pé", "red"), ("Pe\u0301", "blue"), ("产品-7", "hat"), ("P1", "coat")]],
        ids=["empty", "one-empty-id", "non-ascii"],
    )
    def test_edge_catalogs_roundtrip_bitwise(self, setup, catalog):
        vocab, model, _ = setup
        index = build_index(catalog, model, vocab, TC)
        buf = io.BytesIO()
        save_index(index, buf)
        blob = buf.getvalue()
        ids = "\n".join(pid for pid, _ in catalog).encode("utf-8")
        assert struct.unpack_from("<Q", blob, 24)[0] == len(ids)  # the blob-length field
        loaded = load_index(io.BytesIO(blob))
        assert loaded.ids == index.ids == sorted(pid for pid, _ in catalog)
        assert loaded.matrix.tobytes() == index.matrix.tobytes()
        again = io.BytesIO()
        save_index(loaded, again)
        assert again.getvalue() == blob

    def test_loaded_arrays_owned_and_writable(self, setup, tmp_path):
        _, _, index = setup
        path = tmp_path / "index.bin"
        with open(path, "wb") as f:
            save_index(index, f)
        with open(path, "rb") as f:
            loaded = load_index(f)
        assert loaded.matrix.flags.owndata and loaded.matrix.flags.writeable
        assert loaded.matrix.tobytes() == index.matrix.tobytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_index(io.BytesIO(b"NOTINDEX" + b"\x00" * 40))

    def test_truncated_or_padded_rejected(self, setup):
        _, _, index = setup
        buf = io.BytesIO()
        save_index(index, buf)
        blob = buf.getvalue()
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                load_index(io.BytesIO(blob[:cut]))
        with pytest.raises(ValueError):
            load_index(io.BytesIO(blob + b"\0"))

    def test_header_bit_flips_rejected(self, setup):
        # Every bit of the magic, version, count, n and blob length. The id
        # blob is 14 bytes, so some blob-length flips stay inside the padding
        # and only the padding and the id count can reject them.
        _, _, index = setup
        buf = io.BytesIO()
        save_index(index, buf)
        blob = buf.getvalue()
        assert struct.unpack_from("<Q", blob, 24)[0] % 8 != 0
        for bit in range(32 * 8):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError):
                load_index(io.BytesIO(bytes(damaged)))

    def test_roundtrip_preserves_ranking(self, setup):
        vocab, model, index = setup
        buf = io.BytesIO()
        save_index(index, buf)
        buf.seek(0)
        loaded = load_index(buf)
        r1 = top_k("red hat", index, model, vocab, TC, k=3, threshold=-1.0)
        r2 = top_k("red hat", loaded, model, vocab, TC, k=3, threshold=-1.0)
        assert r1.items == r2.items
