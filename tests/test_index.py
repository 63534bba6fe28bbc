"""Exact retrieval and index serialization tests."""

import io
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from search_oracle import oracle_id_order_error
from semmatch import index as index_mod
from semmatch.index import (
    ProductIndex,
    _embed_texts,
    build_index,
    embed_query,
    load_index,
    rank_all,
    save_index,
    score_rows,
    top_k,
)
from semmatch.evaluation import EvalQuery, run_matching_eval, run_ranking_eval
from semmatch.losses import LossSpec
from semmatch.model import ModelConfig, load_model, model_fingerprint, save_model
from semmatch.tokenizer import UNIGRAM, TokenizerConfig, build_vocabulary
from semmatch.training import TrainConfig, init_model, train
from test_training_oracle import make_records

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
# Catalog words and words missing from its vocabulary, which hash into
# OOV bins.
BLOCK_WORDS = ["red", "blue", "green", "shoe", "hat", "coat", "warm", "purple", "scarf", "x1"]


# Pieces of ids: shared prefixes, UTF-8 sequences of 1 to 4 bytes, and é
# precomposed against e followed by a combining acute accent.
ID_PIECES = ["P", "1", "10", "e", "é", "e\u0301", "\u0301", "产", "\U0001f600", "\x7f"]
IDS = st.one_of(
    st.lists(st.sampled_from(ID_PIECES), max_size=3).map("".join),
    st.text(st.characters(codec="utf-8", exclude_characters="\0\n"), max_size=3),
)


def index_file(block, count, width, pad=None, n=1):
    """A version-4 index file around a hand-made id block: NUL padding unless
    `pad` is given, a zero fingerprint and zero rows."""
    pad = bytes(-len(block) % 8) if pad is None else pad
    head = b"SMINDEX4" + struct.pack("<IQIQ", 4, count, n, width) + bytes(32)
    return head + block + pad + bytes(8 * count * n)


def records(ids):
    """The ids as save_index lays them out: UTF-8, NUL-padded to the longest."""
    encoded = [pid.encode("utf-8") for pid in ids]
    width = max(map(len, encoded), default=0)
    return b"".join(e.ljust(width, b"\0") for e in encoded), width


def catalog_vocabulary():
    rows = [("product", text) for _, text in CATALOG]
    rows += [("query", "red shoe"), ("query", "warm coat")]
    return build_vocabulary(rows, TC)


@pytest.fixture
def setup():
    vocab = catalog_vocabulary()
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
            ProductIndex.from_ids(ids=ids, matrix=np.zeros((len(ids), 2)), fingerprint=b"\0" * 32)

    def test_newline_id_rejected(self, setup):
        vocab, model, _ = setup
        with pytest.raises(ValueError, match="newline"):
            build_index(CATALOG + [("P6\nP7", "red")], model, vocab, TC)

    @pytest.mark.parametrize("pid", ["P6\0", "P\0", "\0"])
    def test_nul_id_rejected(self, setup, pid):
        """The padding is NUL, so an id ending in one would read back shorter."""
        vocab, model, _ = setup
        with pytest.raises(ValueError, match=re.escape(f"contains a NUL: {pid!r}")):
            build_index(CATALOG + [(pid, "red")], model, vocab, TC)

    def test_fingerprint_matches_model(self, setup):
        _, model, index = setup
        assert index.fingerprint == model_fingerprint(model)

    @staticmethod
    def reloaded(model, tmp_path):
        path = tmp_path / "model.bin"
        with open(path, "wb") as f:
            save_model(model, f)
        with open(path, "rb") as f:
            return load_model(f)

    def test_loaded_model_stamps_its_checkpoint_digest(self, setup, tmp_path):
        """The parameters of a mapped checkpoint are not hashed again, and the
        index saves the bytes of the model it was saved from."""
        vocab, model, index = setup
        loaded = self.reloaded(model, tmp_path)
        with mock.patch.object(index_mod, "model_fingerprint", wraps=model_fingerprint) as spy:
            built = build_index(CATALOG, loaded, vocab, TC)
        spy.assert_not_called()
        assert built.fingerprint == loaded.checkpoint_digest
        got, want = io.BytesIO(), io.BytesIO()
        save_index(built, got)
        save_index(index, want)
        assert got.getvalue() == want.getvalue()

    def test_trained_loaded_model_is_hashed(self, setup, tmp_path):
        vocab, model, _ = setup
        loaded = self.reloaded(model, tmp_path)
        digest = loaded.checkpoint_digest
        recs = make_records(1, queries=10, products=10, rows=200, purchase_share=0.4)
        train(recs, loaded, LossSpec(), TrainConfig(batch_size=64, epochs=1, seed=0))
        assert loaded.checkpoint_digest is None
        built = build_index(CATALOG, loaded, vocab, TC)
        assert built.fingerprint == model_fingerprint(loaded) != digest

    @pytest.mark.parametrize("norm", ["none", "batch", "layer"])
    @settings(max_examples=40, deadline=None)
    @given(
        block=st.integers(1, 300),
        shared=st.booleans(),
        pool=st.lists(st.lists(st.sampled_from(BLOCK_WORDS), max_size=10).map(" ".join), min_size=1, max_size=12),
        count=st.integers(0, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_embedding_bitwise(self, norm, block, shared, pool, count, seed):
        """Blocks of any size, on either side of model._POOL_BAGS, embed the
        bytes of one whole call. The texts repeat a few drawn ones and the
        empty one, so equal texts land in different blocks."""
        vocab = catalog_vocabulary()
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(embedding_dim=16, shared_embeddings=shared, normalization=norm)
        model = init_model(vocab.v, vocab.oov_bins, cfg, rng)
        for state in (model.norm_query, model.norm_product):
            state.running_mean[:] = rng.normal(size=16)
            state.beta[:] = rng.normal(size=16)
        pool = pool + [""]
        texts = [pool[i] for i in rng.integers(len(pool), size=count)]
        with mock.patch.object(index_mod, "_EMBED_BAGS", count + 1):
            whole = _embed_texts(texts, "product", model, vocab, TC)
        with mock.patch.object(index_mod, "_EMBED_BAGS", block):
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


class TestIdOrder:
    """One vector comparison of the NUL-padded UTF-8 records checks the ids
    of built and loaded indexes alike; it must accept exactly the id lists
    that comparing them as Python strings accepts, and name the same first
    pair when it rejects one."""

    @staticmethod
    def assert_oracle_outcome(ids):
        def outcome(make):
            try:
                make()
            except ValueError as e:
                return str(e)
            return None

        want = oracle_id_order_error(ids)
        matrix = np.zeros((len(ids), 1))
        assert outcome(lambda: ProductIndex.from_ids(ids, matrix, bytes(32))) == want
        block, width = records(ids)
        assert outcome(lambda: load_index(io.BytesIO(index_file(block, len(ids), width)))) == want

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_drawn_ids_equal_oracle(self, data):
        ids = sorted(set(data.draw(st.lists(IDS, max_size=8))))
        change = data.draw(st.sampled_from(["none", "duplicate", "swap", "any"]))
        if change == "duplicate" and ids:
            i = data.draw(st.integers(0, len(ids) - 1))
            ids.insert(i, ids[i])
        elif change == "swap" and len(ids) > 1:
            i = data.draw(st.integers(0, len(ids) - 2))
            ids[i], ids[i + 1] = ids[i + 1], ids[i]
        elif change == "any":
            ids = data.draw(st.lists(IDS, max_size=8))
        self.assert_oracle_outcome(ids)

    @pytest.mark.parametrize(
        "ids",
        [["P1", "P10", "P1é"], ["P10", "P1", "P1é"], ["e\u0301", "é"], ["é", "e\u0301"],
         ["", "a"], ["a", ""], ["", ""], [""], []],
    )
    def test_edge_ids_equal_oracle(self, ids):
        self.assert_oracle_outcome(ids)

    @pytest.mark.parametrize("ids", [[], [""]], ids=["empty", "only-empty-id"])
    def test_zero_width_roundtrip(self, ids):
        index = ProductIndex.from_ids(ids, np.zeros((len(ids), 1)), bytes(32))
        buf = io.BytesIO()
        save_index(index, buf)
        assert buf.getvalue() == index_file(b"", len(ids), 0)
        assert load_index(io.BytesIO(buf.getvalue())).ids == ids


class TestRanking:
    def test_full_sort_matches_oracle(self, setup):
        vocab, model, index = setup
        rng = np.random.default_rng(7)
        for _ in range(20):
            qvec = rng.normal(size=model.n)
            qvec /= np.linalg.norm(qvec)
            head, scores = rank_all(qvec, index, len(index.ids))
            ranked = [index.ids[i] for i in head]
            every = score_rows(index.matrix, qvec)
            oracle = sorted(
                range(len(index.ids)),
                key=lambda i: (-every[i], index.ids[i]),
            )
            assert ranked == [index.ids[i] for i in oracle]
            assert scores.tobytes() == every[head].tobytes()

    def test_tie_breaks_by_id(self, setup):
        vocab, model, index = setup
        # A zero query vector ties every product at score 0.
        head, scores = rank_all(np.zeros(model.n), index, len(index.ids))
        assert [index.ids[i] for i in head] == sorted(index.ids)
        assert scores.tolist() == [0.0] * len(index.ids)

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

    def test_equal_texts_score_equally_and_list_by_id(self, setup):
        """P1 and P7 both embed `green hat`. A BLAS matrix-vector product
        rounds row 4 of these 6, in its tail, otherwise than row 1 and scored
        `red shoe` 0.15310194523930123 against 0.15310194523930126."""
        vocab, model, _ = setup
        catalog = [("P0", "red shoe"), ("P1", "green hat"), ("P3", "blue shoe"),
                   ("P5", "red hat"), ("P7", "green hat"), ("P9", "blue coat warm")]
        index = build_index(catalog, model, vocab, TC)
        for text in ("red shoe", "warm coat", "blue", "green", "hat"):
            items = top_k(text, index, model, vocab, TC, k=6, threshold=-1.0).items
            listed = [pid for pid, _ in items]
            at = listed.index("P1")
            assert listed[at + 1] == "P7", text
            assert items[at][1] == items[at + 1][1], text

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
        width = max((len(pid.encode("utf-8")) for pid, _ in catalog), default=0)
        assert struct.unpack_from("<Q", blob, 24)[0] == width  # the id-width field
        loaded = load_index(io.BytesIO(blob))
        assert loaded.ids == index.ids == sorted(pid for pid, _ in catalog)
        assert loaded.matrix.tobytes() == index.matrix.tobytes()
        again = io.BytesIO()
        save_index(loaded, again)
        assert again.getvalue() == blob

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
        # Every bit of the magic, version, count, n and id width. The 5 ids
        # are 2 bytes wide, so the id block is 10 bytes and some width flips
        # (2 -> 3) stay inside the padding: only the padding and the records
        # can reject them.
        _, _, index = setup
        buf = io.BytesIO()
        save_index(index, buf)
        blob = buf.getvalue()
        count, width = struct.unpack_from("<Q", blob, 12)[0], struct.unpack_from("<Q", blob, 24)[0]
        assert count * width % 8 != 0
        for bit in range(32 * 8):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError):
                load_index(io.BytesIO(bytes(damaged)))

    def test_hand_made_file_loads_and_saves_back(self):
        blob = index_file(b"P1\0\0P10\0P1\xc3\xa9", 3, 4)
        loaded = load_index(io.BytesIO(blob))
        assert loaded.ids == ["P1", "P10", "P1é"]
        again = io.BytesIO()
        save_index(loaded, again)
        assert again.getvalue() == blob

    @pytest.mark.parametrize(
        "block,count,width,message",
        [
            (b"a\0bc\0\0", 2, 3, "contains a NUL"),
            (b"\0ab", 1, 3, "contains a NUL"),
            (b"a\0\0b\0\0", 2, 3, "width"),
            (b"", 0, 5, "width"),
            (b"", 2, 0, "duplicate product id: ''"),
            (b"a\xc3\xa9b", 2, 2, "UTF-8"),
            (b"\xc3\0bc", 2, 2, "UTF-8"),
            (b"\xed\xa0\x80", 1, 3, "UTF-8"),
            (b"ba", 2, 1, "out of order"),
        ],
        ids=["nul-inside", "nul-first", "width-unfilled", "width-no-ids", "zero-width-twice",
             "char-across-records", "char-cut-by-padding", "surrogate", "descending"],
    )
    def test_bad_records_rejected(self, block, count, width, message):
        with pytest.raises(ValueError, match=message):
            load_index(io.BytesIO(index_file(block, count, width)))

    @pytest.mark.parametrize("pad", [b"\0x", b"\n\n", b"x\0"])
    def test_padding_not_nul_rejected(self, pad):
        with pytest.raises(ValueError, match="do not match its header"):
            load_index(io.BytesIO(index_file(b"P1P2P3", 3, 2, pad=pad)))

    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(st.sampled_from(["", "a", "b", "ab", "é", "e\u0301", "产"]), max_size=4), data=st.data())
    def test_accepted_files_save_back_identical(self, ids, data):
        """Whatever bytes the id block holds, a file that loads saves back to
        the same bytes."""
        ids = sorted(set(ids))
        block, width = records(ids)
        block = bytearray(block)
        for _ in range(data.draw(st.integers(0, 2)) if block else 0):
            block[data.draw(st.integers(0, len(block) - 1))] = data.draw(st.sampled_from(b"\0ab\xc3\xa9\x80"))
        blob = index_file(bytes(block), len(ids), width)
        try:
            loaded = load_index(io.BytesIO(blob))
        except ValueError:
            return
        again = io.BytesIO()
        save_index(loaded, again)
        assert again.getvalue() == blob

    @pytest.mark.parametrize(
        "catalog",
        [
            [("P1", "red shoe"), ("P10", "red shoe"), ("P1é", "blue coat"), ("Q", "green hat"),
             ("产品-7", "red hat"), ("Pe\u0301", "red shoe"), ("P2", ""), ("P20", "")],
            [(f"{i}{'é' * (i % 3)}", text) for i, (_, text) in enumerate(CATALOG * 3)],
        ],
        ids=["mixed", "twins"],
    )
    def test_reloaded_top_k_equals_built(self, setup, catalog):
        """top_k over a saved and reloaded index returns the built index's
        items, ties between twin texts included."""
        vocab, model, _ = setup
        index = build_index(catalog, model, vocab, TC)
        buf = io.BytesIO()
        save_index(index, buf)
        loaded = load_index(io.BytesIO(buf.getvalue()))
        for text in ("red shoe", "blue coat warm", "hat", ""):
            for k in (1, 3, len(catalog)):
                want = top_k(text, index, model, vocab, TC, k=k, threshold=-1.0).items
                assert top_k(text, loaded, model, vocab, TC, k=k, threshold=-1.0).items == want

    def test_roundtrip_preserves_ranking(self, setup):
        vocab, model, index = setup
        buf = io.BytesIO()
        save_index(index, buf)
        buf.seek(0)
        loaded = load_index(buf)
        r1 = top_k("red hat", index, model, vocab, TC, k=3, threshold=-1.0)
        r2 = top_k("red hat", loaded, model, vocab, TC, k=3, threshold=-1.0)
        assert r1.items == r2.items


class TestMappedIndex:
    """An index file is mapped copy-on-write; a BytesIO is read."""

    @pytest.mark.parametrize("catalog", [CATALOG, [], [("", "red shoe")]], ids=["five", "empty", "one-empty-id"])
    def test_file_load_equals_bytes_load(self, setup, tmp_path, catalog):
        vocab, model, _ = setup
        index = build_index(catalog, model, vocab, TC)
        path = tmp_path / "index.bin"
        with open(path, "wb") as f:
            f.write(b"12345")  # the matrix then starts off any 8-byte boundary of the file
            save_index(index, f)
        with open(path, "rb") as f:
            f.seek(5)
            mapped = load_index(f)
            assert f.tell() == path.stat().st_size
        read = load_index(io.BytesIO(path.read_bytes()[5:]))
        assert mapped.ids == read.ids == index.ids
        assert mapped.fingerprint == read.fingerprint
        assert mapped.matrix.tobytes() == read.matrix.tobytes() == index.matrix.tobytes()
        assert mapped.matrix.flags.writeable
        again = io.BytesIO()
        save_index(mapped, again)
        assert again.getvalue() == path.read_bytes()[5:]
        for text in ("red shoe", "hat", ""):
            want = top_k(text, read, model, vocab, TC, k=3, threshold=-1.0).items
            assert top_k(text, mapped, model, vocab, TC, k=3, threshold=-1.0).items == want

    def test_writes_stay_private(self, setup, tmp_path):
        _, _, index = setup
        path = tmp_path / "index.bin"
        with open(path, "wb") as f:
            save_index(index, f)
        before = path.read_bytes()
        with open(path, "rb") as f:
            loaded = load_index(f)
        loaded.matrix[:] = 1.5
        assert path.read_bytes() == before
        with open(path, "rb") as f:
            again = load_index(f)
        assert again.matrix.tobytes() == index.matrix.tobytes() != loaded.matrix.tobytes()


def nan_row_index(size=50, dim=16, bad=7, value=np.nan):
    """Random unit rows with row `bad` (product P07 by default) set to
    `value` throughout."""
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(size, dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    matrix[bad] = value
    return ProductIndex.from_ids([f"P{j:02d}" for j in range(size)], matrix, b"\0" * 32)


class TestNonFiniteRows:
    """A row that is not finite is an error naming its product, never a
    rank: it is rejected where an embedding is computed, and on a loaded
    index's first use."""

    @pytest.mark.parametrize(
        "value,reason", [(np.nan, "is not finite"), (np.inf, "is not finite"), (-np.inf, "is not finite"),
                         (1e39, "does not fit float32"), (2.0**64, "does not fit float32")],
    )
    def test_first_use_names_the_product(self, setup, value, reason):
        vocab, model, _ = setup
        index = nan_row_index(value=value)
        with pytest.raises(ValueError, match=f"^product 'P07': its embedding {reason}$"):
            top_k("red shoe", index, model, vocab, TC, k=1, threshold=-1.0)
        queries = [EvalQuery("red shoe", {"P07": 1}, set())]
        with pytest.raises(ValueError, match=f"^product 'P07': its embedding {reason}$"):
            run_matching_eval(queries, index, model, vocab, TC, k=1)

    def test_largest_float32_rows_accepted(self, setup):
        vocab, model, _ = setup
        index = nan_row_index(value=2.0**60)  # squared norm 16 * 2**120 fits float32
        assert top_k("red shoe", index, model, vocab, TC, k=1, threshold=-1.0).items[0][0] == "P07"

    def test_embedding_rejected_when_computed(self, setup):
        """A NaN in the row of a token only product texts use: the queries
        embed, the products holding it do not."""
        vocab, model, _ = setup
        model.query_matrix[vocab.ids_by_class[UNIGRAM]["coat"]] = np.nan
        catalog = CATALOG + [("P0", "warm coat")]
        with pytest.raises(ValueError, match="^product 'P0': its embedding is not finite$"):
            build_index(catalog, model, vocab, TC)
        queries = [EvalQuery("red shoe", {"P1": 1}, {"P5", "P2"})]
        with pytest.raises(ValueError, match="^product 'P5': its embedding is not finite$"):
            run_ranking_eval(queries, dict(CATALOG), model, vocab, TC)
        with pytest.raises(ValueError, match="^query 'warm coat': its embedding is not finite$"):
            top_k("warm coat", build_index(CATALOG[:4], model, vocab, TC), model, vocab, TC, k=1, threshold=-1.0)
