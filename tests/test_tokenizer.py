import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BYTE,
    META,
    NONE,
    char_tokenizer,
    reference_apply_merges,
    reference_canonicalize,
    reference_decode,
    reference_encode_piece,
    reference_from_mapping,
    reference_partition,
    reference_ranks,
    reference_tokenize,
    vocab_of,
)
from vocabforge import (
    MarkerConvention,
    TokenizerModel,
    Vocabulary,
    load_tokenizer,
    load_vocab,
    partition,
)
from vocabforge.cli import UsageError
from vocabforge.errors import (
    MalformedVocab,
    PartitionInconsistent,
    UnencodableInput,
    UnknownMergeSymbol,
)
from vocabforge.tokenizer import MARKERS, load_json


class TestLoadTokenizer:
    def test_minimal_wellformed(self, write_json, write_text):
        vocab = write_json("vocab.json", {"a": 0, "b": 1, "ab": 2})
        merges = write_text("merges.txt", "a b\n")
        model = load_tokenizer(vocab, merges, marker="none")
        assert model.vocab.size == 3
        assert model.merges == (("a", "b"),)

    def test_id_gap_rejected(self, write_json, write_text):
        vocab = write_json("vocab.json", {"a": 0, "b": 2})
        merges = write_text("merges.txt", "")
        with pytest.raises(MalformedVocab):
            load_tokenizer(vocab, merges, marker="none")

    def test_duplicate_id_rejected(self, write_json, write_text):
        vocab = write_json("vocab.json", {"a": 0, "b": 0, "c": 1})
        merges = write_text("merges.txt", "")
        with pytest.raises(MalformedVocab):
            load_tokenizer(vocab, merges, marker="none")

    def test_unknown_merge_symbol(self, write_json, write_text):
        vocab = write_json("vocab.json", {"a": 0, "b": 1})
        merges = write_text("merges.txt", "a b\n")
        with pytest.raises(UnknownMergeSymbol):
            load_tokenizer(vocab, merges, marker="none")

    def test_unknown_merge_symbol_names_the_line(self, write_json, write_text):
        vocab = write_json("vocab.json", {"a": 0, "b": 1, "ab": 2, "c": 3})
        merges = write_text("merges.txt", "#version: 0.2\na b\n\nb c\n")
        with pytest.raises(UnknownMergeSymbol) as info:
            load_tokenizer(vocab, merges, marker="none")
        assert str(info.value) == (
            f"{merges}:4: merge 'b' + 'c' references symbols missing from "
            f"the vocabulary")

    def test_build_names_no_line(self):
        with pytest.raises(UnknownMergeSymbol) as info:
            TokenizerModel.build(vocab_of("abc"), [("a", "b"), ("b", "c")], NONE)
        assert str(info.value) == (
            "merge 'a' + 'b' references symbols missing from the vocabulary")

    def test_comment_and_blank_lines_ignored(self, write_json, write_text):
        vocab = write_json("vocab.json", {"a": 0, "b": 1, "ab": 2})
        merges = write_text("merges.txt", "#version: 0.2\n\na b\n")
        model = load_tokenizer(vocab, merges, marker="none")
        assert model.merges == (("a", "b"),)

    def test_non_utf8_merges_name_the_file(self, write_json, tmp_path):
        vocab = write_json("vocab.json", {"a": 0, "b": 1, "ab": 2})
        merges = tmp_path / "merges.txt"
        merges.write_bytes(b"a b\n\xff a\n")
        with pytest.raises(UnknownMergeSymbol, match="merges.txt: not UTF-8"):
            load_tokenizer(vocab, str(merges), marker="none")

    def test_missing_file(self, write_json, tmp_path):
        vocab = write_json("vocab.json", {"a": 0})
        with pytest.raises(OSError):
            load_tokenizer(vocab, str(tmp_path / "nope.txt"), marker="none")


class TestTokenize:
    def test_single_merge_fires(self):
        model = char_tokenizer(merges=[("a", "b")], alphabet="ab")
        assert model.tokenize("ab") == [model.vocab.token_to_id["ab"]]

    def test_no_merge_applicable(self):
        model = char_tokenizer(merges=[("a", "b")], alphabet="ab")
        v = model.vocab.token_to_id
        assert model.tokenize("ba") == [v["b"], v["a"]]

    def test_casa_rank_order(self):
        # hand-executed: lowest-rank merge "c a" fires first, then "s a"
        model = char_tokenizer(merges=[("c", "a"), ("s", "a")], alphabet="acs")
        v = model.vocab.token_to_id
        assert model.tokenize("casa") == [v["ca"], v["sa"]]

    def test_rank_order_matters(self):
        # with ranks swapped, "s a" grabs the middle "a" first
        model = char_tokenizer(merges=[("s", "a"), ("c", "a")], alphabet="acs")
        v = model.vocab.token_to_id
        assert model.tokenize("casa") == [v["ca"], v["sa"]]
        model2 = char_tokenizer(merges=[("a", "s"), ("c", "a")], alphabet="acs")
        v2 = model2.vocab.token_to_id
        assert model2.tokenize("casa") == [v2["c"], v2["as"], v2["a"]]

    def test_deterministic(self):
        model = char_tokenizer(merges=[("a", "b"), ("c", "d")])
        assert model.tokenize("abcddcbaabab") == model.tokenize("abcddcbaabab")
        marked = char_tokenizer(merges=[("a", "b")], marker=META)
        text = "abcd dcba abab"
        assert marked.tokenize(text) == marked.tokenize(text)

    def test_word_boundary_marker(self):
        model = char_tokenizer(
            merges=[("▁", "a"), ("▁a", "b")], marker=META, alphabet="ab"
        )
        v = model.vocab.token_to_id
        # second word carries the boundary marker and merges with it
        assert model.tokenize("b ab") == [v["b"], v["▁ab"]]

    def test_unknown_char_without_fallback(self):
        model = char_tokenizer(alphabet="ab")
        with pytest.raises(UnencodableInput):
            model.tokenize("az")

    def test_unknown_char_with_unk(self):
        model = char_tokenizer(alphabet="ab", extra_tokens=["<unk>"],
                               unk_token="<unk>")
        unk = model.vocab.token_to_id["<unk>"]
        assert model.tokenize("az") == [model.vocab.token_to_id["a"], unk]

    def test_byte_fallback(self):
        byte_tokens = [f"<0x{b:02X}>" for b in "é".encode("utf-8")]
        model = char_tokenizer(alphabet="ab", extra_tokens=byte_tokens,
                               byte_level=True)
        ids = model.tokenize("aé")
        assert len(ids) == 3
        assert model.decode(ids) == "aé"

    def test_byte_fallback_missing_byte_token(self):
        model = char_tokenizer(alphabet="ab", byte_level=True)
        with pytest.raises(UnencodableInput):
            model.tokenize("z")

    def test_lone_surrogate_under_byte_fallback(self):
        # a JSON escape can put one in a vocabulary or a piece; it has no
        # UTF-8 bytes to fall back on
        model = char_tokenizer(alphabet="ab", byte_level=True)
        with pytest.raises(UnencodableInput,
                           match=r"^symbol '\\ud800' has no UTF-8 bytes"):
            model.tokenize("a\ud800")
        ids, counts, ok = model.encode_pieces(["ab", "\ud800", "b"])
        assert ok.tolist() == [True, False, True]
        assert counts.tolist() == [2, 0, 1]
        assert ids.tolist() == [0, 1, 1]


def reference_merges(ranks, symbols):
    """The first greedy BPE loop: every round re-ranks every adjacent pair
    and rebuilds the symbol list, merging the lowest-rank pair left to
    right."""
    while len(symbols) >= 2:
        best_rank = None
        best_pair = None
        for i in range(len(symbols) - 1):
            r = ranks.get((symbols[i], symbols[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (symbols[i], symbols[i + 1])
        if best_pair is None:
            break
        a, b = best_pair
        merged = []
        i = 0
        while i < len(symbols):
            if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
                merged.append(a + b)
                i += 2
            else:
                merged.append(symbols[i])
                i += 1
        symbols = merged
    return symbols


@st.composite
def merge_tables(draw):
    """A 3- or 4-letter alphabet, merges over the symbols made so far (self
    pairs and repeated merges included) in any rank order, and a word of
    up to 16 letters."""
    alphabet = draw(st.sampled_from(["abc", "abcd"]))
    symbols = list(alphabet)
    merges = []
    for _ in range(draw(st.integers(0, 14))):
        if merges and draw(st.integers(0, 4)) == 0:
            merges.append(draw(st.sampled_from(merges)))
            continue
        pair = (draw(st.sampled_from(symbols)), draw(st.sampled_from(symbols)))
        merges.append(pair)
        if "".join(pair) not in symbols:
            symbols.append("".join(pair))
    # made of the merged symbols too, so that long merges get to fire
    word = "".join(draw(st.lists(st.sampled_from(symbols), max_size=16)))[:16]
    return alphabet, draw(st.permutations(merges)), list(word)


class TestMergeLoop:
    @settings(max_examples=500, deadline=None)
    @given(merge_tables())
    @example(("abc", [("a", "a")], list("aaaa")))
    @example(("abc", [("a", "a")], list("aaaaa")))
    @example(("abc", [("a", "a"), ("aa", "aa"), ("aa", "a")], list("aaaaaaa")))
    @example(("abc", [("a", "b"), ("b", "a"), ("a", "b")], list("ababab")))
    @example(("abcd", [("b", "c"), ("a", "b"), ("c", "d")], list("abcd")))
    @example(("abc", [("ab", "a"), ("a", "b")], list("abab")))
    def test_equals_the_reference_loop(self, table):
        alphabet, merges, word = table
        model = char_tokenizer(merges=merges, alphabet=alphabet)
        ranks = reference_ranks(model)
        symbols = reference_merges(ranks, list(word))
        # the per-piece loop that tests/conftest.py keeps as the reference
        assert reference_apply_merges(ranks, word) == symbols
        assert model.encode_piece("".join(word)) == [
            model.vocab.token_to_id[s] for s in symbols]


BYTE_TOKENS = [f"<0x{b:02X}>" for b in "xé".encode("utf-8")]


@st.composite
def encoder_batches(draw):
    """A merges table as merge_tables draws it, a fallback for the
    characters x and é that are outside the alphabet (all their byte
    tokens, some of them, unk, or none), and pieces made of the merged
    symbols, those two characters and the marker, empty pieces included."""
    alphabet, merges, _ = draw(merge_tables())
    fallback = draw(st.sampled_from(["bytes", "some bytes", "unk", "none"]))
    extra = {"bytes": BYTE_TOKENS, "some bytes": BYTE_TOKENS[:2],
             "unk": ["<unk>"], "none": []}[fallback]
    model = char_tokenizer(
        extra_tokens=extra, merges=merges, marker=META, alphabet=alphabet,
        byte_level=fallback.endswith("bytes"),
        unk_token="<unk>" if fallback == "unk" else None)
    parts = list(alphabet) + ["".join(m) for m in merges] + ["▁", "x", "é"]
    pieces = draw(st.lists(
        st.lists(st.sampled_from(parts), max_size=8).map("".join), max_size=8))
    return model, pieces


class TestEncodePieces:
    @settings(max_examples=400, deadline=None)
    @given(encoder_batches())
    @example((char_tokenizer(merges=[("a", "a")], alphabet="abc"),
              ["aaaaa", "aaaa", "baaab", "", "a"]))
    @example((char_tokenizer(merges=[("a", "b"), ("b", "c"), ("a", "b")],
                             alphabet="abc"), ["abcabc", "cab", "b"]))
    @example((char_tokenizer(merges=[("▁", "a")], marker=META, alphabet="ab"),
              ["▁", "▁a", "▁▁a", "", "a▁"]))
    @example((char_tokenizer(alphabet="ab", extra_tokens=BYTE_TOKENS,
                             byte_level=True), ["xé", "aéb", "é"]))
    @example((char_tokenizer(alphabet="ab", extra_tokens=BYTE_TOKENS[:2],
                             byte_level=True), ["ax", "é", "b", "xé"]))
    @example((char_tokenizer(alphabet="ab", extra_tokens=["<unk>"],
                             unk_token="<unk>"), ["axb", "éé", ""]))
    @example((char_tokenizer(alphabet="ab"), ["ab", "x", "", "bé", "a"]))
    @example((char_tokenizer(alphabet="ab"), []))
    def test_equals_the_reference_on_each_piece(self, batch):
        model, pieces = batch
        want = []
        for piece in pieces:
            try:
                want.append(reference_encode_piece(model, piece))
            except UnencodableInput:
                want.append(None)
        ids, counts, ok = model.encode_pieces(pieces)
        assert (ids.dtype, counts.dtype, ok.dtype) == (np.int64, np.int64, bool)
        assert ok.tolist() == [w is not None for w in want]
        assert counts.tolist() == [len(w or ()) for w in want]
        assert ids.tolist() == [i for w in want for i in w or ()]

    @settings(max_examples=200, deadline=None)
    @given(encoder_batches())
    def test_single_piece_calls_raise_the_reference_message(self, batch):
        model, pieces = batch
        for piece in pieces:
            try:
                want = reference_encode_piece(model, piece)
            except UnencodableInput as exc:
                with pytest.raises(UnencodableInput) as info:
                    model.encode_piece(piece)
                assert str(info.value) == str(exc)
            else:
                assert model.encode_piece(piece) == want

    def test_unencodable_messages(self):
        model = char_tokenizer(alphabet="ab")
        with pytest.raises(UnencodableInput) as info:
            model.encode_piece("abzy")
        assert str(info.value) == "symbol 'z' is outside the alphabet"
        model = char_tokenizer(alphabet="ab", byte_level=True,
                               extra_tokens=["<0xC3>"])
        with pytest.raises(UnencodableInput) as info:
            model.encode_piece("aéz")
        assert str(info.value) == "no byte fallback token <0xA9> for symbol 'é'"

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from([
               char_tokenizer(merges=[("▁", "a"), ("a", "b"), ("▁a", "b")],
                              marker=META, alphabet="ab"),
               char_tokenizer(merges=[("Ġ", "a")], marker=BYTE, alphabet="ab",
                              extra_tokens=["<unk>"], unk_token="<unk>"),
               char_tokenizer(merges=[("a", "b")], alphabet="ab")]),
           text=st.text(alphabet="ab ▁Ġx", max_size=16))
    @example(model=char_tokenizer(merges=[("▁", "a")], marker=META,
                                  alphabet="ab"), text="  a  b ")
    def test_tokenize_equals_the_character_loop(self, model, text):
        try:
            want = reference_tokenize(model, text)
        except UnencodableInput as exc:
            with pytest.raises(UnencodableInput) as info:
                model.tokenize(text)
            assert str(info.value) == str(exc)
        else:
            assert model.tokenize(text) == want


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abc ", max_size=30))
    def test_meta_space_roundtrip(self, text):
        model = char_tokenizer(
            merges=[("▁", "a"), ("a", "b"), ("b", "c")],
            marker=META, alphabet="abc",
        )
        assert model.decode(model.tokenize(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abcd", max_size=30))
    def test_none_marker_roundtrip(self, text):
        model = char_tokenizer(merges=[("a", "b"), ("ab", "c")])
        assert model.decode(model.tokenize(text)) == text


class TestCanonicalize:
    """MarkerConvention.spell_all, the source side's spelling of tokens in
    the target convention."""

    def test_marker_swap(self):
        assert META.spell_all(["▁casa"], BYTE) == ["Ġcasa"]

    def test_internal_identity(self):
        for a, b in [(META, BYTE), (BYTE, META), (META, NONE), (NONE, BYTE)]:
            assert a.spell_all(["casa"], b) == ["casa"]

    def test_pure_marker(self):
        assert META.spell_all(["▁"], BYTE) == ["Ġ"]

    def test_none_is_identity(self):
        assert META.spell_all(["▁casa"], NONE) == ["▁casa"]
        assert NONE.spell_all(["casa"], META) == ["casa"]

    @given(st.text(alphabet="ab", max_size=8), st.booleans())
    def test_involution(self, body, word_initial):
        # a valid piece carries at most its own convention's marker
        for a, b in [(META, BYTE), (BYTE, META), (META, NONE), (NONE, BYTE)]:
            piece = (a.marker if word_initial else "") + body
            assert b.spell_all(a.spell_all([piece], b), a) == [piece]

    def test_marker_names(self):
        assert [MarkerConvention.from_name(n) for n in
                ("meta-space", "byte-marker", "none")] == [META, BYTE, NONE]
        for name in ("leading-meta-space", "leading-byte-marker", "space"):
            with pytest.raises(ValueError):
                MarkerConvention.from_name(name)


class TestPartition:
    def test_set_intersection(self):
        part = partition(vocab_of("abc"), vocab_of("bcd"), NONE, NONE)
        assert [t for t, _, _ in part.shared] == ["b", "c"]
        assert [t for t, _ in part.novel] == ["d"]

    def test_identical_vocabularies(self):
        v = vocab_of(["x", "y", "z"])
        part = partition(v, v, NONE, NONE)
        assert part.novel_count == 0
        assert part.shared_count == 3

    def test_completeness(self):
        source = vocab_of(["a", "b", "▁c", "d"])
        target = vocab_of(["Ġc", "b", "q", "Ġw"])
        part = partition(source, target, META, BYTE)
        covered = sorted([t for _, _, t in part.shared] +
                         [t for _, t in part.novel])
        assert covered == list(range(target.size))
        assert part.shared_count + part.novel_count == target.size

    def test_marker_canonicalization_found(self):
        part = partition(vocab_of(["▁casa"]), vocab_of(["Ġcasa"]), META, BYTE)
        assert part.shared == (("Ġcasa", 0, 0),)

    def test_collision_keeps_lowest_source_id(self):
        # both source tokens canonicalize to "Ġx"
        source = vocab_of(["▁x", "Ġx"])
        target = vocab_of(["Ġx"])
        part = partition(source, target, META, BYTE)
        assert part.shared == (("Ġx", 0, 0),)
        assert len(part.warnings) == 1

    def test_roundtrip_dict(self):
        part = partition(vocab_of("abc"), vocab_of("bcd"), NONE, NONE)
        from vocabforge import TokenPartition
        assert TokenPartition.from_dict(part.to_dict()) == part


# --- the marker codec against the free functions it replaced -----------

CODEC_TOKENS = st.one_of(
    st.text(alphabet="▁Ġab", min_size=1, max_size=4),
    st.sampled_from(["<0x41>", "<0xC3>", "<0xA9>", "<0xa9>", "<0xFF>",
                     "<unk>"]))
CONVENTIONS = st.builds(MarkerConvention.from_name, st.sampled_from(
    sorted(MARKERS)), st.booleans())


class TestMarkerCodec:
    """partition, tokenize and decode against the references in conftest,
    over all nine (source, target) convention pairs with byte fallback on
    and off."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(CODEC_TOKENS, unique=True, max_size=10),
           st.lists(CODEC_TOKENS, unique=True, max_size=10),
           CONVENTIONS, CONVENTIONS)
    def test_partition_equals_the_reference(self, source, target, frm, to):
        part = partition(vocab_of(source), vocab_of(target), frm, to)
        assert (part.shared, part.novel, part.warnings) == reference_partition(
            vocab_of(source), vocab_of(target), frm, to)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="▁Ġa", max_size=4), max_size=8),
           CONVENTIONS, CONVENTIONS)
    def test_spell_all_equals_the_reference(self, tokens, frm, to):
        want = [reference_canonicalize(tok, frm, to) for tok in tokens]
        assert frm.spell_all(tokens, to) == want

    @settings(max_examples=300, deadline=None)
    @given(CONVENTIONS, st.lists(CODEC_TOKENS, unique=True, max_size=8),
           st.booleans(), st.text(alphabet="ab ▁Ġé<x", max_size=12),
           st.data())
    def test_tokenize_and_decode_equal_the_reference(self, marker, extra,
                                                     unk, text, data):
        merges = [m for m in [("▁", "a"), ("Ġ", "a"), ("a", "b"), ("b", "b")]
                  if {*m} <= {"a", "b", marker.marker, *extra}]
        model = char_tokenizer(
            extra_tokens=dict.fromkeys(extra + ["<unk>"] * unk), merges=merges,
            marker=marker, alphabet="ab", byte_level=marker.byte_fallback,
            unk_token="<unk>" if unk else None)
        # outcome (below) gives the result, or the error's type and message
        assert outcome(model.tokenize, text) == outcome(
            reference_tokenize, model, text)
        ids = data.draw(st.lists(st.integers(0, model.vocab.size - 1),
                                 max_size=10))
        assert model.decode(ids) == reference_decode(model, ids)

    def test_meta_space_and_byte_marker_rewrite(self):
        part = partition(vocab_of(["▁casa"]), vocab_of(["Ġcasa"]), META, BYTE)
        assert part.shared == (("Ġcasa", 0, 0),)
        part = partition(vocab_of(["Ġcasa"]), vocab_of(["▁casa"]), BYTE, META)
        assert part.shared == (("▁casa", 0, 0),)
        assert META.rewrites(BYTE) and BYTE.rewrites(META)

    def test_meta_space_and_none_do_not_rewrite(self):
        for frm, to in [(META, NONE), (NONE, META)]:
            part = partition(vocab_of(["▁casa"]), vocab_of(["▁casa"]), frm, to)
            assert part.shared == (("▁casa", 0, 0),)
            assert not frm.rewrites(to)

    def test_byte_marker_and_none_do_not_rewrite(self):
        part = partition(vocab_of(["▁casa"]), vocab_of(["Ġcasa"]), NONE, BYTE)
        assert part.novel == (("Ġcasa", 0),)
        assert not NONE.rewrites(BYTE) and not BYTE.rewrites(NONE)

    def test_operations(self):
        assert META.pretokenize("a b ") == ["a", "▁b", "▁"]
        assert NONE.pretokenize("a b") == ["a b"]
        assert META.word_initials(["▁a", "a", "Ġa"]).tolist() == [
            True, False, False]
        assert NONE.word_initials(["▁a"]).tolist() == [False]
        assert META.fallback("é") is None
        assert MarkerConvention.from_name("none", True).fallback("é") == [
            "<0xC3>", "<0xA9>"]
        assert BYTE.decode(["<0xC3>", "<0xA9>", "Ġa", "<0xFF>"]) == "é a\ufffd"


class _Id(int):
    """An int subclass, which only the entry-by-entry walk takes."""


@st.composite
def id_mappings(draw):
    """token -> id mappings: a permutation of 0 .. n - 1 (the identity
    among them), with up to two ids replaced by a bool, a negative id, an
    id of n or more (2^63 and past included), a repeated id, a float or an
    int subclass."""
    tokens = draw(st.lists(st.text(alphabet="ab▁", max_size=3), unique=True,
                           max_size=8))
    ids = list(draw(st.permutations(range(len(tokens)))))
    n = len(ids)
    for _ in range(draw(st.integers(0, 2)) if ids else 0):
        ids[draw(st.integers(0, n - 1))] = draw(st.one_of(
            st.booleans(), st.integers(-3, -1), st.integers(n, n + 2),
            st.integers(2**63 - 1, 2**64), st.sampled_from(ids),
            st.floats(0, n), st.builds(_Id, st.integers(0, n - 1))))
    return dict(zip(tokens, ids))


class TestFromMapping:
    """Vocabulary.from_mapping against the entry-by-entry walk in conftest:
    the same table, or the same error type and message."""

    @staticmethod
    def table(mapping):
        vocab = Vocabulary.from_mapping(mapping)
        return vocab.token_to_id, vocab.id_to_token

    @settings(max_examples=500, deadline=None)
    @given(id_mappings())
    @example({})
    @example({"a": True, "b": 0})
    @example({"a": 1, "b": True})
    @example({"a": 2**63, "b": 0})
    @example({"a": 1, "b": 1, "c": 0})
    @example({"a": 1, "b": -1})
    def test_same_table_or_same_error(self, mapping):
        assert outcome(self.table, mapping) == outcome(reference_from_mapping,
                                                       mapping)

    @pytest.mark.parametrize("order", ["in-order", "reversed", "shuffled"])
    def test_large_vocabulary(self, order):
        tokens = [f"t{i}" for i in range(5000)]
        ids = list(range(5000))
        if order == "reversed":
            ids.reverse()
        elif order == "shuffled":
            np.random.default_rng(0).shuffle(ids)
        mapping = dict(zip(tokens, ids))
        assert self.table(mapping) == reference_from_mapping(mapping)
        assert list(Vocabulary.from_mapping(mapping).token_to_id) == tokens


class TestDecodeIds:
    """decode names the first id that is not an int in [0, V)."""

    MODEL = char_tokenizer(marker=META, alphabet="ab")

    @pytest.mark.parametrize("ids, bad", [([-1, 0, 1], "-1"),
                                          ([0, True], "True"),
                                          ([99], "99"),
                                          ([0, 1.0], "1.0")],
                             ids=["negative", "bool", "past-the-end", "float"])
    def test_bad_id_is_named(self, ids, bad):
        with pytest.raises(UnencodableInput) as info:
            self.MODEL.decode(ids)
        assert str(info.value) == f"token id {bad} is not an int in [0, 3)"

    def test_numpy_ids_decode(self):
        assert self.MODEL.decode(np.array([1, 0, 2])) == "a b"

    @pytest.mark.parametrize("token", ["<0x41>\n", "<0xa9>", " <0x41>"])
    def test_byte_token_matches_whole_and_uppercase(self, token):
        # only the whole `<0xNN>` that `fallback` writes is a byte
        meta = MarkerConvention.from_name("meta-space")
        assert meta.decode(["<0x41>", token, "b"]) == "A" + token + "b"


# --- the merges loader against the line-by-line loader -----------------


def reference_load_tokenizer(vocab_path, merges_path, marker="meta-space",
                             byte_level=False, unk_token=None):
    """The line-by-line loader: each line checked as it is read, then every
    merge checked and ranked one at a time. Returns the vocab, the merges,
    the rank table and the unknown id; errors as load_tokenizer's."""
    vocab = load_vocab(vocab_path)
    merges = []
    try:
        with open(merges_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                parts = line.split(" ")
                if len(parts) != 2:
                    raise UnknownMergeSymbol(
                        f"{merges_path}:{lineno}: expected two space-separated "
                        f"symbols, got {line!r}"
                    )
                merges.append((lineno, parts[0], parts[1]))
    except UnicodeDecodeError as exc:
        raise UnknownMergeSymbol(f"{merges_path}: not UTF-8 text: {exc}") from None
    unk_id = None
    if unk_token is not None:
        if unk_token not in vocab:
            raise MalformedVocab(f"unknown token {unk_token!r} not in vocabulary")
        unk_id = vocab.token_to_id[unk_token]
    ranks = {}
    known = vocab.token_to_id
    for lineno, a, b in merges:
        if a not in known or b not in known or a + b not in known:
            raise UnknownMergeSymbol(
                f"{merges_path}:{lineno}: merge {a!r} + {b!r} references "
                f"symbols missing from the vocabulary"
            )
        ranks.setdefault((a, b), len(ranks))
    return vocab, tuple(ranks), ranks, unk_id


def outcome(load, *args):
    try:
        return load(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


LOADER_TOKENS = ["<unk>", "a", "b", "c", "ab", "bc", "abc", "▁", "▁a", "▁ab",
                 "a\t", "a\tb"]
MERGE_LINES = {
    "valid": ["a b", "ab c", "a bc", "▁ a", "▁a b", "a\t b"],
    "skipped": ["", " ", "\t", " \t ", "#version: 0.2", "# a  b", "#"],
    # an empty symbol is in the vocab only when "" is
    "unknown": ["a z", "z b", " b", "a ", "c a", "b a", "bc a"],
    "malformed": ["a  b", "a b ", "ab", "a\tb", "a b c", " a b"],
}


@st.composite
def merges_files(draw):
    """Merges file bytes: valid and skipped lines with up to two unknown,
    malformed or undecodable lines among them, each line ended by \n,
    \r\n or \r, the last one maybe by nothing."""
    lines = draw(st.lists(st.sampled_from(
        MERGE_LINES["valid"] + MERGE_LINES["skipped"]), max_size=10))
    for kind in draw(st.lists(st.sampled_from(
            ["unknown", "unknown", "malformed", "undecodable"]), max_size=2)):
        bad = "a \udcff" if kind == "undecodable" else draw(
            st.sampled_from(MERGE_LINES[kind]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.encode("utf-8", "surrogateescape")  # "\udcff" is byte FF


@pytest.fixture(scope="module")
def loader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader")


class TestLoaderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(merges=merges_files(), empty_symbol=st.booleans(),
           unk_token=st.sampled_from([None, "<unk>", "<unk>", "<missing>"]),
           pieces=st.lists(st.text(alphabet="abcz▁\t", max_size=6),
                           max_size=4))
    @example(merges=b"a  b\nz b\n", empty_symbol=False, unk_token="<missing>",
             pieces=[])
    @example(merges=b"z b\n", empty_symbol=False, unk_token="<missing>",
             pieces=[])
    @example(merges=b"a b\r\n\r\n a\r\nab c", empty_symbol=True,
             unk_token="<unk>", pieces=["abc", "zab"])
    def test_same_model_or_same_error(self, loader_dir, merges, empty_symbol,
                                      unk_token, pieces):
        tokens = LOADER_TOKENS + [""] * empty_symbol
        vocab_path = loader_dir / "vocab.json"
        vocab_path.write_text(json.dumps({t: i for i, t in enumerate(tokens)}),
                              encoding="utf-8")
        merges_path = loader_dir / "merges.txt"
        merges_path.write_bytes(merges)
        args = (str(vocab_path), str(merges_path), "none", False, unk_token)
        got = outcome(load_tokenizer, *args)
        want = outcome(reference_load_tokenizer, *args)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        vocab, merges_, ranks, unk_id = want
        assert isinstance(got, TokenizerModel)
        assert (got.vocab, got.unk_id) == (vocab, unk_id)
        assert got.merges == merges_
        assert list(reference_ranks(got).items()) == list(ranks.items())
        lefts, rights, merged = got._symbols
        assert merged.tolist() == [vocab.token_to_id[a + b]
                                   for a, b in zip(lefts, rights)]
        for piece in pieces:
            ids = [vocab.token_to_id.get(s, unk_id)
                   for s in reference_merges(ranks, list(piece))]
            if None in ids:
                with pytest.raises(UnencodableInput):
                    got.encode_piece(piece)
            else:
                assert got.encode_piece(piece) == ids

    @pytest.mark.parametrize("bad_line", [b"a  b\n", b""],
                             ids=["malformed-line-first", "undecodable-only"])
    def test_undecodable_text_past_the_first_read_chunk(self, loader_dir,
                                                         bad_line):
        # a line-by-line reader decodes the file in chunks: a malformed line
        # in an earlier chunk is reported before the undecodable bytes, and
        # the decoder's message counts positions from its chunk
        vocab_path = loader_dir / "chunk_vocab.json"
        vocab_path.write_text(json.dumps({"a": 0, "b": 1, "ab": 2}),
                              encoding="utf-8")
        merges_path = loader_dir / "chunk_merges.txt"
        merges_path.write_bytes(b"a b\n" + bad_line + b"a b\n" * 5000
                                + b"\xff b\n")
        args = (str(vocab_path), str(merges_path), "none")
        want = outcome(reference_load_tokenizer, *args)
        assert want[0] is UnknownMergeSymbol
        assert outcome(load_tokenizer, *args) == want


# Symbols that start with whitespace or are empty; lines that are blank
# (whitespace only, as str.strip sees it, one space among it or not) or
# comments; and lines that are not two space-separated symbols.
EDGE_SYMBOLS = ["a", "b", "ab", "\ta", "\x0ca", "", "▁"]
EDGE_SKIPPED = ["", " ", "\t", "\x0c", "\u3000", " \u3000", "\u3000 \x0c",
                "\x1c\x85", "\u2028 \t", "#", "#version: 0.2", "# a b",
                "#a  b", "# "]
EDGE_MALFORMED = ["ab", "a  b", "a b c", "\ta", " a b", "\u3000a"]


@st.composite
def edge_merges_files(draw):
    """A vocabulary and merges file bytes: merge lines of EDGE_SYMBOLS among
    comment and blank lines, maybe one malformed line, each line ended by
    \n, \r\n or \r, the last one maybe by nothing. The vocabulary holds
    every symbol and concatenation but at most one."""
    merge = st.tuples(st.sampled_from(EDGE_SYMBOLS),
                      st.sampled_from(EDGE_SYMBOLS)).map(" ".join)
    lines = draw(st.lists(merge | st.sampled_from(EDGE_SKIPPED), max_size=12))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(EDGE_MALFORMED)))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    tokens = list(dict.fromkeys(EDGE_SYMBOLS + [a + b for a in EDGE_SYMBOLS
                                                for b in EDGE_SYMBOLS]))
    for token in draw(st.sets(st.sampled_from(tokens), max_size=1)):
        tokens.remove(token)
    text = "".join(line + end for line, end in zip(lines, ends))
    return tokens, text.encode("utf-8")


class TestMergesEdgeCases:
    @settings(max_examples=300, deadline=None)
    @given(case=edge_merges_files())
    @example(case=(EDGE_SYMBOLS, "#v\n\u3000 \x0c\n\ta a\r\n\x0c \n \n"
                                 "a \r".encode("utf-8")))
    @example(case=(EDGE_SYMBOLS, "a b\n\n#c\n\u3000a\n".encode("utf-8")))
    def test_same_model_or_same_error(self, loader_dir, case):
        tokens, merges = case
        vocab_path = loader_dir / "edge_vocab.json"
        vocab_path.write_text(json.dumps({t: i for i, t in enumerate(tokens)}),
                              encoding="utf-8")
        merges_path = loader_dir / "edge_merges.txt"
        merges_path.write_bytes(merges)
        args = (str(vocab_path), str(merges_path), "none")
        got = outcome(load_tokenizer, *args)
        want = outcome(reference_load_tokenizer, *args)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        vocab, merges_, ranks, unk_id = want
        assert isinstance(got, TokenizerModel)
        assert (got.vocab, got.unk_id, got.merges) == (vocab, unk_id, merges_)
        assert list(reference_ranks(got).items()) == list(ranks.items())
        lefts, rights, merged = got._symbols
        assert merged.tolist() == [vocab.token_to_id[a + b]
                                   for a, b in zip(lefts, rights)]


class TestRankTableOnFirstUse:
    def test_loaded_model_builds_at_first_encode(self, write_json, write_text):
        vocab = write_json("vocab.json", {"a": 0, "b": 1, "ab": 2, "c": 3,
                                          "abc": 4})
        merges = write_text("merges.txt", "a b\nab c\na b\n")
        model = load_tokenizer(vocab, merges, marker="none")
        assert "_merge_table" not in vars(model) and "merges" not in vars(model)
        twin = load_tokenizer(vocab, merges, marker="none")
        assert model == twin  # == reads the merges, not the table
        assert "merges" in vars(model) and "_merge_table" not in vars(model)
        fresh = load_tokenizer(vocab, merges, marker="none")
        assert fresh.encode_piece("abcab") == [4, 2]
        keys, ranks, merged = vars(fresh)["_merge_table"]
        # keys left * (5 + 2) + right, then the sentinel; the first "a b"
        # line's rank; each line's merged id
        assert keys.tolist() == [0 * 7 + 1, 2 * 7 + 3, np.iinfo(np.int64).max]
        assert ranks.tolist() == [0, 1, 3]
        assert merged.tolist() == [2, 4, 2]
        # after the build the table is a plain attribute, read as it is
        assert fresh._merge_table is vars(fresh)["_merge_table"]
        assert fresh.encode_piece("abcab") == [4, 2]
        assert fresh.merges == (("a", "b"), ("ab", "c"))
        assert fresh == model

    def test_built_model_builds_at_first_encode(self):
        model = char_tokenizer(merges=[("a", "b"), ("ab", "c")], alphabet="abc")
        assert "_merge_table" not in vars(model)
        assert model.merges == (("a", "b"), ("ab", "c"))
        assert "_merge_table" not in vars(model)
        assert model.encode_piece("abc") == [model.vocab.token_to_id["abc"]]
        assert "_merge_table" in vars(model)
        assert model == char_tokenizer(merges=[("a", "b"), ("ab", "c")],
                                       alphabet="abc")
        assert model != char_tokenizer(merges=[("ab", "c"), ("a", "b")],
                                       alphabet="abc")

    def test_a_model_that_never_encodes_builds_none(self):
        source = char_tokenizer(merges=[("a", "b")], marker=META)
        target = char_tokenizer(merges=[("b", "c")], marker=BYTE)
        partition(source.vocab, target.vocab, source.marker, target.marker)
        assert "_merge_table" not in vars(source)
        assert "_merge_table" not in vars(target)


# --- JSON files read as bytes, against a text-mode read ------------------


def text_mode_load_json(path, error):
    """load_json through a text-mode file, which translates newlines: the
    reference for load_json's results and errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise error(f"{path}: JSON nested too deeply to parse") from None
        except ValueError as exc:
            raise error(f"{path}: not valid JSON: {exc}") from None


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def json_files(draw):
    """A JSON document's bytes, indented or not, with LF, CRLF or CR line
    ends, maybe with one byte changed."""
    text = json.dumps(draw(JSON_DOCS), indent=draw(st.sampled_from([None, 1])),
                      ensure_ascii=draw(st.booleans()))
    data = bytearray(text.replace("\n", draw(st.sampled_from(
        ["\n", "\r\n", "\r"]))).encode("utf-8", "surrogatepass"))
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


class TestLoadJson:
    # each reader's own error type: vocab, partition, --config
    @pytest.mark.parametrize("error", [MalformedVocab, PartitionInconsistent,
                                       UsageError])
    @pytest.mark.parametrize("data, message", [
        (b'{"a": "\xff"}', "not valid JSON: 'utf-8' codec can't decode byte "
                           "0xff in position 7: invalid start byte"),
        (b'\xef\xbb\xbf{"a": 0}', "not valid JSON: Unexpected UTF-8 BOM "
                                  "(decode using utf-8-sig): line 1 column 1 "
                                  "(char 0)"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply to parse"),
        ('{"a": 0}'.encode("utf-16"), "not valid JSON: 'utf-8' codec can't "
                                      "decode byte 0xff in position 0: invalid "
                                      "start byte"),
        ('{"a": 0}'.encode("utf-16-le"), "not valid JSON: Expecting property "
                                         "name enclosed in double quotes: line "
                                         "1 column 2 (char 1)"),
        (b'["\xed\xa0\x80"]', "not valid JSON: 'utf-8' codec can't decode "
                              "byte 0xed in position 2: invalid continuation "
                              "byte"),
    ], ids=["not-utf8", "utf8-bom", "too-deep", "utf16", "utf16-no-bom",
            "encoded-surrogate"])
    def test_error_parity(self, tmp_path, error, data, message):
        path = tmp_path / "in.json"
        path.write_bytes(data)
        with pytest.raises(error) as got:
            load_json(str(path), error)
        assert str(got.value) == f"{path}: {message}"
        with pytest.raises(error) as want:
            text_mode_load_json(str(path), error)
        assert str(got.value) == str(want.value)

    def test_crlf_file_parses_as_its_lf_twin(self, tmp_path):
        doc = {"shared": [["a", 0, 1], ["b", 2, 0]], "novel": [["c\r", 1]],
               "warnings": ["x y"]}
        text = json.dumps(doc, indent=2)
        (tmp_path / "lf.json").write_bytes(text.encode())
        (tmp_path / "crlf.json").write_bytes(text.replace("\n", "\r\n").encode())
        assert b"\r\n" in (tmp_path / "crlf.json").read_bytes()
        got = load_json(str(tmp_path / "crlf.json"), ValueError)
        assert got == load_json(str(tmp_path / "lf.json"), ValueError) == doc

    @settings(max_examples=200, deadline=None)
    @given(data=json_files())
    def test_same_value_or_same_error(self, tmp_path_factory, data):
        # a CR is whitespace to JSON and never allowed raw in a string, so
        # no newline translation changes what parses; only the offsets in
        # the message of a file holding one may differ
        path = tmp_path_factory.mktemp("json") / "in.json"
        path.write_bytes(data)
        got = outcome(load_json, str(path), MalformedVocab)
        want = outcome(text_mode_load_json, str(path), MalformedVocab)
        if isinstance(want, tuple) and want and want[0] is MalformedVocab:
            assert got[0] is MalformedVocab
            if b"\r" not in data:
                assert got == want
        else:
            assert got == want
