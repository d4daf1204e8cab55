import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BYTE,
    META,
    NONE,
    char_tokenizer,
    random_matrix,
    reference_word_initial,
    vocab_of,
)
from vocabforge import (
    EmbeddingMatrix,
    TokenizerModel,
    fertility,
    param_report,
    relative_similarity,
    select_anchors,
)
from vocabforge import analysis, embeddings
from vocabforge.analysis import FertilityReport, histogram_csv, iter_corpus
from vocabforge.errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyMatrix,
    InsufficientTokens,
    UnencodableInput,
    VocabForgeError,
    ZeroNormRow,
)
from vocabforge.tokenizer import tokenizer_model


class TestFertility:
    def test_il_gatto(self):
        model = char_tokenizer(
            merges=[("i", "l"), ("▁", "il"),
                    ("g", "a"), ("ga", "t"), ("gat", "t"), ("gatt", "o")],
            marker=META, alphabet="ilgato",
        )
        report = fertility(model, ["il gatto"])
        # "il" -> [▁il], "gatto" -> [▁, gatto]: 3 tokens over 2 words
        assert report.word_count == 2
        assert report.token_count == 3
        assert report.fertility == 1.5

    def test_every_word_single_token(self):
        model = char_tokenizer(
            merges=[("▁", "a"), ("▁", "b"), ("▁", "c")],
            marker=META, alphabet="abc",
        )
        report = fertility(model, ["a b c", "c a"])
        assert report.fertility == 1.0

    def test_aggregation_is_token_sum_over_word_sum(self):
        model = char_tokenizer(merges=[("a", "b")], alphabet="ab")
        report = fertility(model, ["aa", "ab ab ab"], per_document=True)
        # doc ratios are 2.0 and 1.0; pooled ratio is (2+3)/4
        assert report.per_document == (2.0, 1.0)
        assert report.fertility == 1.25

    def test_document_order_invariant(self):
        model = char_tokenizer(merges=[("a", "b")], alphabet="ab")
        docs = ["aa", "ab ab ab", "b"]
        assert fertility(model, docs).fertility == \
            fertility(model, list(reversed(docs))).fertility

    def test_blank_documents_skipped(self):
        model = char_tokenizer(alphabet="ab")
        report = fertility(model, ["", "  ", "a b"])
        assert report.word_count == 2

    def test_empty_corpus(self):
        model = char_tokenizer()
        with pytest.raises(EmptyCorpus):
            fertility(model, [])
        with pytest.raises(EmptyCorpus):
            fertility(model, ["", "   "])

    def test_labels_carried(self):
        model = char_tokenizer(alphabet="ab")
        report = fertility(model, ["a"], corpus_label="c", tokenizer_label="t")
        assert (report.corpus_label, report.tokenizer_label) == ("c", "t")

    def test_each_distinct_word_encoded_once(self, monkeypatch):
        model = char_tokenizer(merges=[("a", "b"), ("ab", "c")],
                               alphabet="abcd")
        docs = ["abc ab d abc", "", "d d abcd", "ab ab", "dab abc"]

        def unmemoized():
            words = tokens = 0
            per_doc = []
            for doc in docs:
                counts = [len(model.encode_piece(model.marker.marker + w))
                          for w in doc.split()]
                if counts:
                    words += len(counts)
                    tokens += sum(counts)
                    per_doc.append(sum(counts) / len(counts))
            return FertilityReport("c", "t", words, tokens, tokens / words,
                                   tuple(per_doc))

        want = unmemoized()
        calls = []
        encode = TokenizerModel.encode_pieces

        def spy(self, pieces):
            calls.extend(pieces)
            return encode(self, pieces)

        monkeypatch.setattr(TokenizerModel, "encode_pieces", spy)
        got = fertility(model, docs, corpus_label="c", tokenizer_label="t",
                        per_document=True)
        assert got == want
        assert sorted(calls) == sorted({w for d in docs for w in d.split()})

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_reports_do_not_depend_on_the_block(self, monkeypatch, block):
        model = char_tokenizer(merges=[("▁", "a"), ("a", "b"), ("▁a", "b")],
                               marker=META, alphabet="abc")
        docs = ["ab abc c", "", "b b ab", "cab ab abc ba", "a", "c c c c c c c c",
                "bab ab", "abc"]
        want = fertility(model, docs, "c", "t", per_document=True)
        marker = model.marker.marker
        counts = [[len(model.encode_piece(marker + w)) for w in d.split()]
                  for d in docs]
        counts = [c for c in counts if c]
        assert want.per_document == tuple(sum(c) / len(c) for c in counts)
        assert want.token_count == sum(map(sum, counts))
        if block is not None:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET",
                                block * analysis.WORD_BYTES)
        calls = []
        encode = TokenizerModel.encode_pieces

        def spy(self, pieces):
            calls.append(len(pieces))
            return encode(self, pieces)

        monkeypatch.setattr(TokenizerModel, "encode_pieces", spy)
        assert fertility(model, iter(docs), "c", "t", per_document=True) == want
        assert len(calls) > 1 if block else calls == [8]

    @pytest.mark.parametrize("model, message", [
        (char_tokenizer(alphabet="ab"), "symbol 'z' is outside the alphabet"),
        (char_tokenizer(alphabet="ab", byte_level=True, extra_tokens=["<0x7A>"]),
         "no byte fallback token <0xC3> for symbol 'é'"),
        (tokenizer_model(vocab_of("abz"), ([], [], []), META),
         "symbol '▁' is outside the alphabet"),
    ], ids=["outside-the-alphabet", "missing-byte-token", "marker"])
    def test_first_unencodable_word_raises_before_later_documents(
            self, model, message):
        read = []

        def documents():
            for doc in ["", "b azé a", "ab ba", "zz"]:
                read.append(doc)
                yield doc

        with pytest.raises(UnencodableInput) as info:
            fertility(model, documents())
        assert str(info.value) == message
        assert read == ["", "b azé a"]
        with pytest.raises(UnencodableInput) as info:
            model.encode_piece(model.marker.marker + "azé")
        assert str(info.value) == message


class TestCorpusIO:
    def test_file_one_document_per_line(self, write_text):
        path = write_text("corpus.txt", "first doc\n\nsecond doc\n")
        assert list(iter_corpus(path)) == ["first doc", "second doc"]

    def test_directory_sorted_txt(self, tmp_path):
        (tmp_path / "b.txt").write_text("bee", encoding="utf-8")
        (tmp_path / "a.txt").write_text("ay", encoding="utf-8")
        (tmp_path / "ignore.csv").write_text("no", encoding="utf-8")
        assert list(iter_corpus(str(tmp_path))) == ["ay", "bee"]

    def test_histogram_csv(self):
        csv = histogram_csv([1.0, 1.0, 2.0, 3.0], bins=2)
        lines = csv.strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 3
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 4


def big_vocab(n_prefix=150, n_plain=150):
    return vocab_of([f"▁p{i}" for i in range(n_prefix)] +
                    [f"w{i}" for i in range(n_plain)])


class TestAnchors:
    def test_default_counts(self):
        vocab = big_vocab()
        anchors = select_anchors(vocab, META)
        assert len(anchors) == 256
        assert len(set(anchors)) == 256
        prefix = [a for a in anchors
                  if vocab.id_to_token[a].startswith("▁")]
        assert len(prefix) == 128

    def test_seed_deterministic(self):
        vocab = big_vocab()
        assert select_anchors(vocab, META, seed=4) == \
            select_anchors(vocab, META, seed=4)
        assert select_anchors(vocab, META, seed=4) != \
            select_anchors(vocab, META, seed=5)

    def test_insufficient_tokens(self):
        with pytest.raises(InsufficientTokens):
            select_anchors(big_vocab(n_prefix=10), META)
        with pytest.raises(InsufficientTokens):
            select_anchors(big_vocab(n_plain=10), META)

    def test_none_marker_has_no_prefix_tokens(self):
        vocab = big_vocab()
        with pytest.raises(InsufficientTokens):
            select_anchors(vocab, NONE, n_prefix=1, n_nonprefix=8)
        anchors = select_anchors(vocab, NONE, n_prefix=0, n_nonprefix=8)
        assert len(anchors) == 8


def reference_select_anchors(vocab, marker, n_prefix, n_nonprefix, seed):
    """select_anchors with the mask built one word_initial at a time."""
    initial = [reference_word_initial(marker, tok) for tok in vocab.id_to_token]
    prefix = [tid for tid, flag in enumerate(initial) if flag]
    nonprefix = [tid for tid, flag in enumerate(initial) if not flag]
    if len(prefix) < n_prefix or len(nonprefix) < n_nonprefix:
        raise InsufficientTokens
    rng = np.random.default_rng(seed)
    chosen_non = rng.choice(len(nonprefix), size=n_nonprefix, replace=False)
    chosen_pre = rng.choice(len(prefix), size=n_prefix, replace=False)
    return ([nonprefix[k] for k in sorted(chosen_non)]
            + [prefix[k] for k in sorted(chosen_pre)])


class TestAnchorsProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="▁Ġa", max_size=3), unique=True,
                    max_size=12),
           st.sampled_from([META, BYTE, NONE]), st.integers(0, 6),
           st.integers(0, 6), st.integers(0, 3))
    def test_equals_the_per_token_reference(self, tokens, marker, n_prefix,
                                            n_nonprefix, seed):
        vocab = vocab_of(tokens)
        try:
            want = reference_select_anchors(vocab, marker, n_prefix,
                                            n_nonprefix, seed)
        except InsufficientTokens:
            with pytest.raises(InsufficientTokens):
                select_anchors(vocab, marker, n_prefix, n_nonprefix, seed)
            return
        assert select_anchors(vocab, marker, n_prefix, n_nonprefix,
                              seed) == want


class TestRelativeSimilarity:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.emb = random_matrix(rng, 30, 6)
        self.anchors = [0, 3, 7, 11, 19]

    def test_self_similarity_is_100(self):
        score = relative_similarity(self.emb, self.emb, self.anchors)
        assert abs(score.score - 100.0) < 1e-4

    def test_global_scaling_invariant(self):
        scaled = EmbeddingMatrix(self.emb.data * np.float32(3.0))
        score = relative_similarity(self.emb, scaled, self.anchors)
        assert abs(score.score - 100.0) < 1e-4

    def test_per_row_positive_rescale_invariant(self):
        rng = np.random.default_rng(1)
        factors = rng.uniform(0.5, 4.0, size=(30, 1)).astype(np.float32)
        rescaled = EmbeddingMatrix(self.emb.data * factors)
        score = relative_similarity(self.emb, rescaled, self.anchors)
        assert abs(score.score - 100.0) < 1e-4

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        other = random_matrix(rng, 30, 6)
        ab = relative_similarity(self.emb, other, self.anchors).score
        ba = relative_similarity(other, self.emb, self.anchors).score
        assert abs(ab - ba) < 1e-9

    def test_against_pure_python_oracle(self):
        rng = np.random.default_rng(3)
        other = random_matrix(rng, 30, 6)
        got = relative_similarity(self.emb, other, self.anchors).score

        def unit(vec):
            norm = math.sqrt(math.fsum(v * v for v in vec))
            return [v / norm for v in vec]

        def rel_row(data, i):
            token = unit([float(v) for v in data[i]])
            return [math.fsum(t * a for t, a in
                              zip(token, unit([float(v) for v in data[j]])))
                    for j in self.anchors]

        cosines = []
        for i in range(30):
            ra = rel_row(self.emb.data, i)
            rb = rel_row(other.data, i)
            dot = math.fsum(x * y for x, y in zip(ra, rb))
            na = math.sqrt(math.fsum(x * x for x in ra))
            nb = math.sqrt(math.fsum(y * y for y in rb))
            cosines.append(dot / (na * nb))
        want = 100.0 * math.fsum(cosines) / 30
        assert abs(got - want) < 1e-6

    def test_token_sample_subset(self):
        rng = np.random.default_rng(4)
        other = random_matrix(rng, 30, 6)
        score = relative_similarity(self.emb, other, self.anchors,
                                    token_sample=[1, 2, 3])
        full = relative_similarity(self.emb, other, self.anchors)
        assert score.anchor_count == 5
        assert score.score != full.score

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyMatrix) as info:
            relative_similarity(self.emb, self.emb, self.anchors,
                                token_sample=[])
        assert isinstance(info.value, VocabForgeError)

    def test_zero_norm_row_rejected(self):
        data = self.emb.data.copy()
        data[2] = 0.0
        with pytest.raises(ZeroNormRow):
            relative_similarity(EmbeddingMatrix(data), self.emb, self.anchors)

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(EmptyMatrix, match="the anchor set is empty"):
            relative_similarity(self.emb, self.emb, [])

    def test_anchor_id_past_the_rows_rejected(self):
        # checked before any row is read: anchor 1's zero row is never seen
        data = self.emb.data.copy()
        data[1] = 0.0
        with pytest.raises(DimensionMismatch,
                           match="^anchor id 30 is outside the 30-row"):
            relative_similarity(EmbeddingMatrix(data), self.emb, [1, 30])

    def test_negative_sample_id_rejected(self):
        # -1 would index the last row and score it silently
        with pytest.raises(DimensionMismatch,
                           match="^token id -1 is outside the 30-row"):
            relative_similarity(self.emb, self.emb, self.anchors,
                                token_sample=[3, -1])

    @pytest.mark.parametrize("anchors, sample, message", [
        # int conversion would truncate 1.9 to anchor 1
        ([1.9, 2], [3], r"anchor id 1\.9"),
        ([0, 3, 7], np.array([3.0, 4.0]), r"token id 3\.0"),
        ([0, 3, 7], [2, True], "token id True"),  # True would score row 1
        (np.array([True, False]), None, "anchor id True"),
    ])
    def test_float_or_bool_id_rejected(self, anchors, sample, message):
        with pytest.raises(DimensionMismatch,
                           match=f"^{message} is not an integer"):
            relative_similarity(self.emb, self.emb, anchors,
                                token_sample=sample)

    def test_integer_ids_of_any_kind_accepted(self):
        want = relative_similarity(self.emb, self.emb, self.anchors,
                                   token_sample=[1, 2, 3])
        for anchors, sample in (
            (np.array(self.anchors, dtype=np.int32),
             np.array([1, 2, 3], dtype=np.uint16)),
            ([np.int64(a) for a in self.anchors], (i for i in (1, 2, 3))),
        ):
            got = relative_similarity(self.emb, self.emb, anchors,
                                      token_sample=sample)
            assert got == want

    def test_row_count_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DimensionMismatch):
            relative_similarity(self.emb, random_matrix(rng, 10, 6),
                                self.anchors)


def whole_matrix_similarity(emb_a, emb_b, anchors, sample, projection):
    """The unblocked computation: every sampled row at once."""
    def relative(data):
        token_rows = data[sample].astype(np.float64)
        anchor_rows = data[anchors].astype(np.float64)
        if projection == "cosine":
            token_rows /= np.linalg.norm(token_rows, axis=1)[:, None]
            anchor_rows /= np.linalg.norm(anchor_rows, axis=1)[:, None]
        return token_rows @ anchor_rows.T

    rel_a, rel_b = relative(emb_a.data), relative(emb_b.data)
    cosines = np.sum(rel_a * rel_b, axis=1) / (
        np.linalg.norm(rel_a, axis=1) * np.linalg.norm(rel_b, axis=1))
    return 100.0 * math.fsum(cosines) / len(cosines)


class TestBlockedSimilarity:
    """Rows are scored in blocks of embeddings.CACHE_BUDGET bytes of
    float64 working set."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.emb_a = random_matrix(rng, 41, 6)
        self.emb_b = random_matrix(rng, 41, 9)
        self.anchors = [0, 3, 7, 11, 19, 23, 30, 40]
        # per token: float64 rows of both sides, two relative rows and
        # one norm temporary
        self.row_bytes = 8 * (6 + 9 + 3 * len(self.anchors))

    def scores(self, monkeypatch, **kwargs):
        out = []
        for budget in (self.row_bytes, 7 * self.row_bytes,
                       embeddings.CACHE_BUDGET):
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", budget)
            out.append(relative_similarity(self.emb_a, self.emb_b,
                                           self.anchors, **kwargs).score)
        return out

    def zeroed(self, left=(), right=()):
        a, b = self.emb_a.data.copy(), self.emb_b.data.copy()
        a[list(left)] = 0.0
        b[list(right)] = 0.0
        return EmbeddingMatrix(a), EmbeddingMatrix(b)

    @pytest.mark.parametrize("projection", ["cosine", "dot"])
    @pytest.mark.parametrize("sample", [None, [0, 2, 3, 5, 8, 13, 21, 34, 40]])
    def test_block_height_does_not_change_score(self, monkeypatch,
                                                projection, sample):
        want = whole_matrix_similarity(
            self.emb_a, self.emb_b, self.anchors,
            np.arange(41) if sample is None else sample, projection)
        for got in self.scores(monkeypatch, token_sample=sample,
                               projection=projection):
            assert abs(got - want) < 1e-12

    def test_partial_last_block(self, monkeypatch):
        sample = list(range(0, 40, 2))  # 20 ids: the last block of 7 has 6
        want = whole_matrix_similarity(self.emb_a, self.emb_b, self.anchors,
                                       sample, "cosine")
        for got in self.scores(monkeypatch, token_sample=sample):
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("budget_rows", [1, 7, None])
    def test_zero_norm_token_rejected(self, monkeypatch, side, budget_rows):
        if budget_rows:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET",
                                budget_rows * self.row_bytes)
        pair = self.zeroed(**{side: [29]})
        with pytest.raises(ZeroNormRow, match=f"^{side} token id 29 "):
            relative_similarity(*pair, self.anchors)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_zero_norm_anchor_rejected(self, side):
        pair = self.zeroed(**{side: [11]})
        with pytest.raises(ZeroNormRow, match=f"^{side} anchor id 11 "):
            relative_similarity(*pair, self.anchors)

    def test_error_order(self, monkeypatch):
        """Anchors first, then tokens in block order, left before right."""
        monkeypatch.setattr(embeddings, "CACHE_BUDGET", 7 * self.row_bytes)
        cases = [
            # an anchor is checked before every token, whatever its id
            (dict(left=[30], right=[2]), "left anchor id 30 "),
            (dict(left=[2], right=[30]), "right anchor id 30 "),
            # id 9 is in the second block of 7, id 2 in the first
            (dict(left=[9], right=[2]), "right token id 2 "),
            # within a block the left side is checked first
            (dict(left=[4], right=[2]), "left token id 4 "),
        ]
        for zero, message in cases:
            with pytest.raises(ZeroNormRow, match="^" + message):
                relative_similarity(*self.zeroed(**zero), self.anchors)

    def test_default_block_working_set_stays_under_cap(self):
        rng = np.random.default_rng(11)
        rows, dim, anchors = 20_000, 64, list(range(0, 20_000, 625))
        emb_a, emb_b = random_matrix(rng, rows, dim), random_matrix(rng, rows, dim)
        # unblocked, the float64 working set would be about 36 MB
        assert rows * 8 * (2 * dim + 3 * len(anchors)) > 8 * embeddings.CACHE_BUDGET
        # arrays the call holds for its whole length: the token ids, the
        # per-token cosines, and both sides' anchor rows (float32 gather
        # and float64 copy)
        whole_call = 2 * 8 * rows + 2 * 12 * dim * len(anchors)
        tracemalloc.start()
        try:
            relative_similarity(emb_a, emb_b, anchors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - whole_call <= embeddings.CACHE_BUDGET

    def test_unknown_projection_rejected(self):
        with pytest.raises(ValueError, match="unknown projection 'cos'"):
            relative_similarity(*self.zeroed(), self.anchors, projection="cos")

    def test_zero_relative_representation_rejected(self):
        with pytest.raises(ZeroNormRow,
                           match="^token id 5 has a zero-norm relative"):
            relative_similarity(*self.zeroed(right=[5]), self.anchors,
                                projection="dot")


class TestParamReport:
    def test_untied_shrink(self):
        report = param_report(128256, 32768, 4096, tied=False,
                              non_embedding_params=6_980_000_000)
        assert round(report.total_before / 1e9, 2) == 8.03
        assert round(report.total_after / 1e9, 2) == 7.25
        assert report.delta == 782_237_696

    def test_tied_growth(self):
        report = param_report(32000, 32768, 4096, tied=True,
                              non_embedding_params=7_111_000_000)
        assert round(report.total_before / 1e9, 2) == 7.24
        assert round(report.total_after / 1e9, 2) == 7.25
        assert report.delta == -768 * 4096

    def test_delta_equals_total_difference(self):
        for tied in (True, False):
            report = param_report(500, 300, 16, tied, 10_000)
            assert report.delta == report.total_before - report.total_after

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            param_report(0, 10, 4, True, 0)
        with pytest.raises(ValueError):
            param_report(10, 10, 4, True, -1)
