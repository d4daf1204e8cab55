import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BYTE, META, NONE, char_tokenizer, vocab_of
from vocabforge import (
    MarkerConvention,
    TokenizerModel,
    canonicalize,
    load_tokenizer,
    partition,
)
from vocabforge.errors import (
    MalformedVocab,
    UnencodableInput,
    UnknownMergeSymbol,
)


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
        symbols = list(word)
        assert model._apply_merges(symbols) == reference_merges(
            model._ranks, list(word))
        assert symbols == list(word)  # the caller's list is left as it was


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
    def test_marker_swap(self):
        assert canonicalize("▁casa", META, BYTE) == "Ġcasa"

    def test_internal_identity(self):
        for pair in [(META, BYTE), (BYTE, META), (META, NONE), (NONE, BYTE)]:
            assert canonicalize("casa", *pair) == "casa"

    def test_pure_marker(self):
        assert canonicalize("▁", META, BYTE) == "Ġ"

    def test_none_is_identity(self):
        assert canonicalize("▁casa", META, NONE) == "▁casa"
        assert canonicalize("casa", NONE, META) == "casa"

    @given(st.text(alphabet="ab", max_size=8), st.booleans())
    def test_involution(self, body, word_initial):
        # a valid piece carries at most its own convention's marker
        for a, b in [(META, BYTE), (BYTE, META), (META, NONE), (NONE, BYTE)]:
            piece = (a.marker if word_initial else "") + body
            assert canonicalize(canonicalize(piece, a, b), b, a) == piece

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
