"""BPE tokenizer core: vocabularies, deterministic merge application,
the token codec, and vocabulary intersection.

Supported file layout is the classic vocab.json + merges.txt pair: the
vocab maps token string to id, the merges file lists one rank-ordered
merge per line.

What a token string means is decided in one place, `MarkerConvention`:
its word-boundary marker, its `<0xNN>` byte fallback, how text splits
into pieces before BPE, how tokens decode to text, and how a token is
spelled in another tokenizer's convention (for `partition` and FVT).

Encoding has one kernel, `TokenizerModel.encode_pieces`, which applies
the merges to a whole batch of pieces as arrays of symbol ids, looking
pairs up in one sorted table of merge keys; `encode_piece` and
`tokenize` each make one call to it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby, repeat
from operator import itemgetter

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedVocab,
    PartitionInconsistent,
    UnencodableInput,
    UnknownMergeSymbol,
)

_BYTE_TOKEN_RE = re.compile(r"<0x([0-9A-F]{2})>")  # fullmatch, as `fallback` writes

# Each marker convention's name and its literal prefix string: the
# meta-space of SentencePiece, the byte marker of GPT-2 byte-level BPE,
# and none. The CLI's marker flags take their choices from here.
MARKERS = {"meta-space": "▁", "byte-marker": "Ġ", "none": ""}


@dataclass(frozen=True)
class MarkerConvention:
    """How a tokenizer spells its tokens; every caller asks it.

    kind is one of the MARKERS names and marker its literal prefix
    string ("" for none), which stands for the space before a word. Under
    byte_fallback a character outside the vocabulary is spelled as the
    `<0xNN>` tokens of its UTF-8 bytes (SentencePiece's byte fallback).
    """

    kind: str
    marker: str
    byte_fallback: bool = False

    @classmethod
    def from_name(cls, name: str) -> "MarkerConvention":
        if name not in MARKERS:
            raise ValueError(
                f"unknown marker convention {name!r}; "
                f"expected one of {sorted(MARKERS)}"
            )
        return cls(name, MARKERS[name])

    def rewrites(self, to: "MarkerConvention") -> bool:
        """Whether `spell_all` rewrites tokens into `to`'s convention: only
        between two different markers. Spelling to or from "none" is the
        identity: there is no marker to rewrite, and dropping one would
        make the mapping irreversible."""
        return self.kind != to.kind and bool(self.marker and to.marker)

    def spell_all(self, tokens: Sequence[str],
                  to: "MarkerConvention") -> list[str]:
        """tokens, spelled in this convention, each as `to` spells it: when
        `rewrites(to)`, a word-initial token swaps its marker; any other
        token passes through unchanged."""
        if not self.rewrites(to):
            return list(tokens)
        old, new = self.marker, to.marker
        return [new + tok[len(old):] if tok.startswith(old) else tok
                for tok in tokens]

    def pretokenize(self, text: str) -> list[str]:
        """text's pieces for BPE: spaces become the marker and each marker
        starts a new piece, so merges never cross word boundaries. Under
        "none" the text is a single piece."""
        marker = self.marker
        if not marker:
            return [text]
        # the text before the first marker, then each marker and its text
        first, *rest = text.replace(" ", marker).split(marker)
        return ([first] if first else []) + [marker + p for p in rest]

    def word_initials(self, tokens: Sequence[str]) -> np.ndarray:
        """Whether each token starts with the marker, as a bool array;
        never under "none"."""
        if not self.marker:
            return np.zeros(len(tokens), bool)
        return np.fromiter(map(str.startswith, tokens, repeat(self.marker)),
                           bool, len(tokens))

    def fallback(self, char: str) -> list[str] | None:
        """The byte tokens that spell char, a character outside the
        vocabulary, under byte_fallback; otherwise None."""
        if not self.byte_fallback:
            return None
        try:
            return [f"<0x{byte:02X}>" for byte in char.encode("utf-8")]
        except UnicodeEncodeError:  # a lone surrogate
            raise UnencodableInput(f"symbol {char!r} has no UTF-8 bytes") from None

    def decode(self, tokens) -> str:
        """The text that tokens spell: each run of `<0xNN>` tokens as UTF-8
        (with or without byte_fallback), and each marker as a space."""
        pieces = [bytes.fromhex(m[1]) if (m := _BYTE_TOKEN_RE.fullmatch(tok))
                  else tok for tok in tokens]
        text = "".join(b"".join(run).decode("utf-8", "replace")
                       if kind is bytes else "".join(run)
                       for kind, run in groupby(pieces, type))
        return text.replace(self.marker, " ") if self.marker else text


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token-string <-> token-id table with contiguous ids."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...] = field(repr=False)

    @classmethod
    def from_mapping(cls, mapping: dict[str, int]) -> "Vocabulary":
        """The vocabulary of mapping, token to id. When the ids are the
        ints 0 .. size - 1 in the mapping's own order (as vocabulary files
        list them), checked as one list, the tokens' order is the mapping's.
        Any other mapping is walked entry by entry: a valid one is placed
        id by id, and the error of an invalid one names its first bad
        entry."""
        size = len(mapping)
        ids = list(mapping.values())
        # the types as well as the values: True == 1
        if set(map(type, ids)) <= {int} and ids == list(range(size)):
            return cls(dict(mapping), tuple(mapping))
        id_to_token: list[str | None] = [None] * size
        for tok, tid in mapping.items():
            if not isinstance(tid, int) or isinstance(tid, bool):
                raise MalformedVocab(f"id for token {tok!r} is not an integer")
            if not 0 <= tid < size:
                raise MalformedVocab(
                    f"token {tok!r} has id {tid}, outside [0, {size})"
                )
            if id_to_token[tid] is not None:
                raise MalformedVocab(
                    f"duplicate id {tid} ({id_to_token[tid]!r} vs {tok!r})"
                )
            id_to_token[tid] = tok
        return cls(dict(mapping), tuple(id_to_token))  # type: ignore[arg-type]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id


@dataclass(frozen=True, eq=False)
class TokenizerModel:
    """A BPE tokenizer: vocabulary, rank-ordered merges, and the marker
    convention that spells its tokens.

    Immutable after construction; tokenize/decode are pure functions.
    _symbols holds the checked merges' left and right symbols in rank
    order, repeats included, and each one's merged id. The merge table
    (`_merge_table`) is built from them at first use, so a model that
    never encodes never builds a table; after that it is a plain instance
    attribute. `tokenizer_model` builds one.
    """

    vocab: Vocabulary
    marker: MarkerConvention
    unk_id: int | None
    _symbols: tuple[Sequence[str], Sequence[str], np.ndarray] = field(repr=False)

    # --- encoding ------------------------------------------------------

    @cached_property
    def _merge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, ranks, merged): each distinct merge's key
        left_id * (V + 2) + right_id in ascending order, then a sentinel
        key past every pair; the rank beside each key (the index of the
        merge's first line, so the first of repeated lines wins; the
        sentinel's is the line count, the rank of a pair that is no merge);
        and each line's merged id. V is the vocabulary size: ids V and
        V + 1, which the encoder gives piece separators and characters
        outside the vocabulary, pair with no merge."""
        lefts, rights, merged = self._symbols
        get = self.vocab.token_to_id.__getitem__
        count = len(lefts)
        left = np.fromiter(map(get, lefts), np.int64, count)
        right = np.fromiter(map(get, rights), np.int64, count)
        keys, first = np.unique(left * (self.vocab.size + 2) + right,
                                return_index=True)
        return (np.append(keys, np.iinfo(np.int64).max),
                np.append(first, count), merged)

    def encode_pieces(self, pieces: Sequence[str]):
        """BPE-encode word fragments (no whitespace handling), all at once.

        Returns (ids, counts, ok): every piece's int64 ids one piece after
        another, each piece's id count, and whether each piece could be
        encoded. A piece holding a character that is not in the vocabulary
        and has neither byte tokens (the marker's fallback) nor unk gets ok
        False, count 0 and no ids.

        Greedy BPE (Sennrich et al., 2016): in each round every unfinished
        piece merges all occurrences of its lowest-rank adjacent pair, left
        to right and without overlap, until no adjacent pair is a merge.
        The pieces' symbol ids lie in one array, each piece after a
        separator id, with one rank per adjacent pair. A round takes each
        piece's least rank (one reduceat), merges in place, and looks up
        only the two pairs beside each merge: neither can be the merged
        pair, as a merged symbol a+b is longer than a and b. A piece
        without a merge leaves the arrays. A character outside the
        vocabulary never merges; at the end it becomes its byte tokens or
        unk, as `_symbol_ids` gives them.
        """
        size = self.vocab.size
        sep, alien = size, size + 1
        keys, ranks, merged = self._merge_table
        none = len(merged)

        def pair_ranks(left, right):
            key = left * (size + 2) + right
            order = np.argsort(key)
            key = key[order]
            at = np.searchsorted(keys, key)
            out = np.empty(len(key), np.int64)
            out[order] = np.where(keys[at] == key, ranks[at], none)
            return out

        count = len(pieces)
        lengths = np.fromiter(map(len, pieces), np.int64, count)
        codes = np.frombuffer(
            "".join(pieces).encode("utf-32-le", "surrogatepass"), np.uint32)
        # each character's id, through a table indexed by code point
        by_code = np.zeros(int(codes.max(initial=0)) + 1, np.int64)
        by_code[codes] = 1
        chars = np.flatnonzero(by_code)
        get = self.vocab.token_to_id.get
        by_code[chars] = [get(chr(c), alien) for c in chars.tolist()]
        text_ids = by_code[codes]
        found_at = np.flatnonzero(text_ids == alien)
        sym = np.append(np.insert(text_ids, np.cumsum(lengths) - lengths, sep),
                        sep)
        rank = np.append(pair_ranks(sym[:-1], sym[1:]), none)
        live = np.arange(count)
        out_syms, out_pieces, out_spans = [], [], []
        while live.size:
            starts = np.flatnonzero(sym[:-1] == sep)
            spans = np.diff(starts, append=len(sym) - 1)
            least = np.minimum.reduceat(rank, starts)
            finished = least == none
            # -1 is no pair's rank: a finished piece merges nothing, and
            # its positions are dropped with the merged-away ones
            least[finished] = -1
            span_least = np.repeat(least, spans)
            at = np.flatnonzero(rank[:-1] == span_least)
            if at.size > 1 and (np.diff(at) == 1).any():
                at = _every_other(at)
            sym[at] = merged[rank[at]]
            keep = np.append(span_least >= 0, True)
            if finished.any():
                out_syms.append(sym[np.flatnonzero(~keep)])
                out_pieces.append(live[finished])
                out_spans.append(spans[finished])
                live = live[~finished]
            keep[at + 1] = False
            kept = np.flatnonzero(keep)
            sym, rank = sym[kept], rank[kept]
            at = np.searchsorted(kept, at)
            near = np.concatenate([at - 1, at])
            rank[near] = pair_ranks(sym[near], sym[near + 1])
        return self._expand(lengths, found_at, codes[found_at], out_syms,
                            out_pieces, out_spans)

    def _expand(self, lengths, found_at, found, out_syms, out_pieces,
                out_spans):
        """encode_pieces' result from its finished pieces: out_syms[k] holds
        the separators and symbols of the pieces out_pieces[k], which span
        out_spans[k] positions each. found holds the code points of the
        characters outside the vocabulary, in text order (the order of
        their symbols, which never merge), and found_at their positions in
        the pieces' joined text."""
        count = len(lengths)
        sep, alien = self.vocab.size, self.vocab.size + 1
        if not count:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.ones(0, bool)
        order = np.concatenate(out_pieces)
        spans = np.concatenate(out_spans)
        span_of = np.empty(count, np.int64)
        span_of[order] = spans
        syms = np.empty(int(span_of.sum()), np.int64)
        syms[_ragged((np.cumsum(span_of) - span_of)[order], spans)] = (
            np.concatenate(out_syms))
        counts = span_of - 1
        ok = np.ones(count, bool)
        if found.size:
            unknown = np.unique(found)
            which = np.searchsorted(unknown, found)
            widths = np.zeros(len(unknown), np.int64)
            bad = np.zeros(len(unknown), bool)
            expansions: list[int] = []
            for j, code in enumerate(unknown.tolist()):
                try:
                    ids = self._symbol_ids(chr(code))
                except UnencodableInput:
                    bad[j] = True
                    continue
                widths[j] = len(ids)
                expansions += ids
            firsts = np.cumsum(widths) - widths
            copies = np.ones(len(syms), np.int64)
            aliens = syms == alien
            copies[aliens] = widths[which]
            syms = np.repeat(syms, copies)
            syms[np.repeat(aliens, copies)] = np.array(expansions, np.int64)[
                _ragged(firsts[which], widths[which])]
            counts = np.diff(np.flatnonzero(syms == sep), append=len(syms)) - 1
            if bad.any():
                ok[np.searchsorted(np.cumsum(lengths), found_at[bad[which]],
                                   side="right")] = False
        keep = syms != sep
        if not ok.all():
            keep &= np.repeat(ok, counts + 1)
            counts[~ok] = 0
        return syms[keep], counts, ok

    def _symbol_ids(self, symbol: str) -> list[int]:
        get = self.vocab.token_to_id.get
        tid = get(symbol)
        if tid is not None:
            return [tid]
        tokens = self.marker.fallback(symbol)
        if tokens is not None:
            ids = list(map(get, tokens))
            if None in ids:
                raise UnencodableInput(f"no byte fallback token "
                                       f"{tokens[ids.index(None)]} for symbol "
                                       f"{symbol!r}")
            return ids
        if self.unk_id is not None:
            return [self.unk_id]
        raise UnencodableInput(f"symbol {symbol!r} is outside the alphabet")

    def check_alphabet(self, piece: str, known: set[str]) -> None:
        """Raise UnencodableInput, with the message that encoding piece
        gives, at piece's first character that is not in the vocabulary
        and has neither byte tokens nor unk. known holds characters already
        found encodable and gains those checked here."""
        if known.issuperset(piece):
            return
        for char in piece:
            if char not in known:
                self._symbol_ids(char)
                known.add(char)

    def _encode(self, pieces: list[str]) -> list[int]:
        """The ids of pieces one after another; a piece that cannot be
        encoded raises UnencodableInput naming the text's first character
        at fault."""
        ids, _, ok = self.encode_pieces(pieces)
        if not ok.all():
            self.check_alphabet("".join(pieces), set())
        return ids.tolist()

    def encode_piece(self, piece: str) -> list[int]:
        """BPE-encode a single word fragment (no whitespace handling)."""
        return self._encode([piece])

    def tokenize(self, text: str) -> list[int]:
        """Encode text to token ids, piece by piece as the marker convention
        splits it (`MarkerConvention.pretokenize`)."""
        return self._encode(self.marker.pretokenize(text))

    def decode(self, ids) -> str:
        """Invert tokenize: the text that the tokens of ids spell. An id
        that is not an int in [0, V) raises UnencodableInput naming the
        first such id."""
        ids, size = list(ids), self.vocab.size
        for tid in ids:
            if (isinstance(tid, bool) or not isinstance(tid, (int, np.integer))
                    or not 0 <= tid < size):
                raise UnencodableInput(
                    f"token id {tid!r} is not an int in [0, {size})")
        return self.marker.decode(map(self.vocab.id_to_token.__getitem__, ids))


def _every_other(at: np.ndarray) -> np.ndarray:
    """at (ascending) without overlapping pairs: in each run of consecutive
    positions, as in a run of one repeated symbol, every other position
    from the run's first, as a left-to-right scan takes them."""
    index = np.arange(len(at))
    first = np.maximum.accumulate(
        np.where(np.diff(at, prepend=-2) != 1, index, 0))
    return at[(index - first) % 2 == 0]


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + lengths[k] - 1 for each k
    in turn."""
    ends = np.cumsum(lengths)
    return (np.repeat(starts - ends + lengths, lengths)
            + np.arange(ends[-1] if ends.size else 0))


def load_json(path: str, error: type[Exception]):
    """Parse the JSON file at path. Text that is not UTF-8 JSON, or is
    nested too deep for the parser, raises `error` (a one-line message)
    rather than ValueError or RecursionError.

    The file is read as bytes and decoded once, strictly: a text-mode read
    would also translate newlines, which JSON reads as whitespace anyway.
    The bytes are dropped before the parse, so one decoded copy is held.
    (json.loads of the bytes would accept UTF-16 and encoded surrogates.)
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        del data
        return json.loads(text)
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None


def load_vocab(path: str) -> Vocabulary:
    """Load a vocab.json file: a JSON object from token string to id."""
    mapping = load_json(path, MalformedVocab)
    if not isinstance(mapping, dict):
        raise MalformedVocab("vocab file must be a JSON object")
    return Vocabulary.from_mapping(mapping)


def _checked_model(vocab: Vocabulary, marker, unk_id, lefts, rights, joined,
                   where=lambda k: "") -> TokenizerModel:
    """The model of vocab and the merges lefts[k] + rights[k] in rank
    order, whose concatenations joined[k] holds. The first merge whose
    symbols or concatenation are not in vocab raises UnknownMergeSymbol,
    its message after where(k). One whole-list check per kind: the symbols
    as a set, the concatenations one by one, and the merged ids that finds
    are kept for the encoder's merge table."""
    known = vocab.token_to_id
    has = known.__contains__
    merged = np.fromiter(map(known.get, joined, repeat(-1)), np.int64,
                         len(joined))
    missing = merged < 0
    found = [int(missing.argmax())] if missing.any() else []
    if not known.keys() >= {*lefts, *rights}:
        found += [f.index(False) for f in (list(map(has, lefts)),
                                           list(map(has, rights)))
                  if not all(f)]
    if found:
        k = min(found)
        raise UnknownMergeSymbol(
            f"{where(k)}merge {lefts[k]!r} + {rights[k]!r} references "
            f"symbols missing from the vocabulary")
    return TokenizerModel(vocab, marker, unk_id, (lefts, rights, merged))


# A comment line or a blank line (whitespace only, as str.strip sees it;
# re's \s is the same set), with the newline before it.
_SKIPPED = re.compile(r"\n(?=[#\s])(?:#[^\n]*|[^\S\n]*)(?=\n)")
# every byte but the space and the newline, which separate merge symbols
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b" \n")))


def _merge_lines(text: str) -> list[tuple[int, str]]:
    """The number and text of each merge line in a merges file's text: the
    lines that are not blank and do not start with '#'. Only errors walk
    the lines."""
    return [(n, line) for n, line in enumerate(text.split("\n"), 1)
            if line.strip() and line[0] != "#"]


def _split_merges(path: str, text: str):
    """The left symbols, right symbols and concatenations of the merges in
    `text` (a merges file's text, its lines split at newlines only), and a
    function from a merge's index to the prefix `path:line: ` naming its
    line, which walks the lines only when it is called. The first merge
    line that is not two space-separated symbols raises UnknownMergeSymbol.

    Whole-text passes, whatever comment or blank lines the text holds:
    drop those lines, check that the separators left alternate space and
    newline, then split at both for the symbols and, with the spaces
    removed, at the newlines for the concatenations."""
    kept = _SKIPPED.sub("", "\n" + text + "\n")[1:]
    separators = kept.encode("utf-8").translate(None, _NOT_SEPARATOR)
    if separators != b" \n" * (len(separators) // 2):
        n, line = next((n, line) for n, line in _merge_lines(text)
                       if line.count(" ") != 1)
        raise UnknownMergeSymbol(
            f"{path}:{n}: expected two space-separated symbols, got {line!r}")
    body = kept[:-1]  # no merge line is empty, so "" holds no merges
    symbols = body.replace("\n", " ").split(" ") if body else []
    joined = body.replace(" ", "").split("\n") if body else []
    return (symbols[0::2], symbols[1::2], joined,
            lambda k: f"{path}:{_merge_lines(text)[k][0]}: ")


def read_merges(path: str):
    """_split_merges of the file at path, read once as bytes and decoded
    as text mode would (CRLF and a lone CR end a line). Text that is not
    UTF-8 raises UnknownMergeSymbol before any line is checked."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnknownMergeSymbol(f"{path}: not UTF-8 text: {exc}") from None
    if "\r" in text:  # a search for "\r\n" alone takes half the decode's time
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _split_merges(path, text)


def tokenizer_model(vocab: Vocabulary, merges, marker: MarkerConvention | str,
                    byte_level=False, unk_token=None) -> TokenizerModel:
    """The model of vocab and merges: what `read_merges` returns, or the
    three lists (lefts, rights, concatenations) in rank order, whose
    errors then name no line. Errors come in this order: the unknown
    token, then the first merge whose symbols or concatenation are not in
    the vocab. The rank table is built at the first encode. byte_level
    turns on the marker's byte fallback."""
    if isinstance(marker, str):
        marker = MarkerConvention.from_name(marker)
    if byte_level:
        marker = replace(marker, byte_fallback=True)
    unk_id = None
    if unk_token is not None:
        if unk_token not in vocab:
            raise MalformedVocab(f"unknown token {unk_token!r} not in vocabulary")
        unk_id = vocab.token_to_id[unk_token]
    return _checked_model(vocab, marker, unk_id, *merges)


def load_tokenizer(
    vocab_path: str,
    merges_path: str,
    marker: MarkerConvention | str = "meta-space",
    byte_level: bool = False,
    unk_token: str | None = None,
) -> TokenizerModel:
    """Load a tokenizer from a vocab.json + merges.txt pair.

    Merge lines are two space-separated symbols; '#'-prefixed lines and
    blank lines are ignored; line order is rank order. Errors come in
    this order: the vocab, then the first malformed merge line, then
    `tokenizer_model`'s.
    """
    return tokenizer_model(load_vocab(vocab_path), read_merges(merges_path),
                           marker, byte_level, unk_token)


@dataclass(frozen=True)
class TokenPartition:
    """Split of a target vocabulary into shared and novel tokens.

    shared holds (token, id_in_source, id_in_target) triples; novel holds
    (token, id_in_target). Together they cover every target id once.
    """

    shared: tuple[tuple[str, int, int], ...]
    novel: tuple[tuple[str, int], ...]
    warnings: tuple[str, ...] = ()

    # Each id array is built at first use and kept: int64, read-only, in
    # partition order. A partition made by dataclasses.replace builds its own.

    @cached_property
    def source_ids(self) -> np.ndarray:
        """The shared tokens' source ids."""
        return _id_array(self.shared, 1)

    @cached_property
    def shared_target_ids(self) -> np.ndarray:
        """The shared tokens' target ids."""
        return _id_array(self.shared, 2)

    @cached_property
    def novel_target_ids(self) -> np.ndarray:
        """The novel tokens' target ids."""
        return _id_array(self.novel, 1)

    @property
    def shared_count(self) -> int:
        return len(self.shared)

    @property
    def novel_count(self) -> int:
        return len(self.novel)

    def to_dict(self) -> dict:
        return {
            "shared_count": self.shared_count,
            "novel_count": self.novel_count,
            "shared": [list(t) for t in self.shared],
            "novel": [list(t) for t in self.novel],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TokenPartition":
        """Read an `intersect` report; malformed input raises PartitionInconsistent.

        Each list's rows come from one comprehension, and their ids are
        checked a column at a time. Only a report that fails is walked
        entry by entry, so the error names its first bad entry or id.
        """
        if not isinstance(d, dict) or "shared" not in d or "novel" not in d:
            raise PartitionInconsistent(
                "partition must be a JSON object with 'shared' and 'novel' lists"
            )
        try:
            shared = tuple([(str(t), s, g) for t, s, g in d["shared"]])
            novel = tuple([(str(t), g) for t, g in d["novel"]])
            valid = (_ids_valid(shared, 1) and _ids_valid(shared, 2)
                     and _ids_valid(novel, 1))
        except (TypeError, ValueError):
            valid = False
        if not valid:
            shared, novel = _checked_entries(d)
        warnings = d.get("warnings", [])
        if not (isinstance(warnings, list)
                and all(isinstance(w, str) for w in warnings)):
            raise PartitionInconsistent(
                "partition 'warnings' must be a list of strings")
        return cls(shared, novel, tuple(warnings))


def check_partition(part: TokenPartition, source_rows: int,
                    helper_rows: int | None = None, vocab_size: int | None = None):
    """Raise DimensionMismatch unless source_rows is vocab_size and
    helper_rows the target size (each if given), then PartitionInconsistent
    unless each source id indexes a source row and the target ids are
    0 .. shared + novel - 1."""
    if vocab_size is not None and source_rows != vocab_size:
        raise DimensionMismatch(f"source matrix has {source_rows} rows, source "
                                f"vocabulary has {vocab_size} tokens")
    target_size = part.shared_count + part.novel_count
    if helper_rows is not None and helper_rows != target_size:
        raise DimensionMismatch(
            f"helper matrix has {helper_rows} rows but the target vocabulary "
            f"has {target_size} tokens; the helper must be trained with the "
            f"target tokenizer"
        )
    try:
        sids, shared_tids, novel_tids = (
            part.source_ids, part.shared_target_ids, part.novel_target_ids)
    except OverflowError:
        raise PartitionInconsistent(
            "a partition id is past the int64 range, outside every matrix"
        ) from None
    tids = np.concatenate([shared_tids, novel_tids])
    bad = (sids < 0) | (sids >= source_rows)
    if bad.any():
        raise PartitionInconsistent(
            f"source id {sids[bad][0]} is outside the {source_rows}-row "
            f"source matrix"
        )
    bad = (tids < 0) | (tids >= target_size)
    if bad.any():
        raise PartitionInconsistent(
            f"target id {tids[bad][0]} is outside the {target_size}-token target"
        )
    # target_size ids, all in range: a repeated id leaves another uncovered
    counts = np.bincount(tids, minlength=target_size)
    if counts.max(initial=1) > 1:
        raise PartitionInconsistent(
            f"target id {counts.argmax()} appears {counts.max()} times; the "
            f"partition does not cover every target id"
        )


def _id_array(rows, column: int) -> np.ndarray:
    array = np.fromiter(map(itemgetter(column), rows), np.int64, count=len(rows))
    array.flags.writeable = False
    return array


def _ids_valid(rows, column: int) -> bool:
    """Whether every row's id at column is an int (not a bool) and >= 0:
    one pass over the types, then one for the least id. The type must be
    int itself; an int subclass is left to _checked_entries, which keeps it."""
    return (set(map(type, map(itemgetter(column), rows))) <= {int}
            and min(map(itemgetter(column), rows), default=0) >= 0)


def _checked_entries(d: dict):
    """The shared and novel rows of d, checked entry by entry in order: the
    first malformed entry or id raises PartitionInconsistent naming it."""
    try:
        shared = tuple(
            (str(t), _partition_id(s), _partition_id(g)) for t, s, g in d["shared"]
        )
        novel = tuple((str(t), _partition_id(g)) for t, g in d["novel"])
    except (TypeError, ValueError) as exc:
        raise PartitionInconsistent(
            "partition entries must be [token, source id, target id] "
            f"(shared) and [token, target id] (novel): {exc}"
        ) from exc
    return shared, novel


def _partition_id(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise PartitionInconsistent(
            f"partition id {value!r} is not a non-negative integer"
        )
    return value


def partition(
    source: Vocabulary,
    target: Vocabulary,
    source_marker: MarkerConvention,
    target_marker: MarkerConvention,
) -> TokenPartition:
    """Intersect two vocabularies after marker canonicalization.

    Source tokens are spelled in the target convention
    (`MarkerConvention.spell_all`) and matched against target strings. When
    two source tokens collide on the same canonical string the lowest
    source id wins and a warning is recorded. Each step is one whole-list
    pass; the collisions are walked for their warnings only when there
    are any.
    """
    keys = source_marker.spell_all(source.id_to_token, target_marker)
    n = len(keys)
    # built from the highest id down, so the lowest id of a key is kept
    canonical = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    warnings = []
    if len(canonical) < n:
        for sid, c in enumerate(keys):
            if canonical[c] != sid:
                warnings.append(
                    f"source ids {canonical[c]} and {sid} both canonicalize "
                    f"to {c!r}; keeping id {canonical[c]}"
                )
    tokens = target.id_to_token
    sids = list(map(canonical.get, tokens))
    del keys, canonical  # the spelled strings go before the rows are built
    tids = range(len(tokens))
    shared = tuple([(tok, sid, tid) for tok, sid, tid in zip(tokens, sids, tids)
                    if sid is not None])
    novel = tuple([(tok, tid) for tok, sid, tid in zip(tokens, sids, tids)
                   if sid is None])
    return TokenPartition(shared, novel, tuple(warnings))
