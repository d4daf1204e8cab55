"""BPE tokenizer core: vocabularies, deterministic merge application,
marker canonicalization, and vocabulary intersection.

Supported file layout is the classic vocab.json + merges.txt pair: the
vocab maps token string to id, the merges file lists one rank-ordered
merge per line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import (
    MalformedVocab,
    PartitionInconsistent,
    UnencodableInput,
    UnknownMergeSymbol,
)

_BYTE_TOKEN_RE = re.compile(r"^<0x([0-9A-Fa-f]{2})>$")

META_SPACE = "▁"  # ▁ (SentencePiece)
BYTE_MARKER = "Ġ"  # Ġ (GPT-2 byte-level)
# Each marker convention's name and its literal prefix string; the CLI's
# marker flags take their choices from here.
MARKERS = {
    "meta-space": META_SPACE,
    "byte-marker": BYTE_MARKER,
    "none": "",
}


@dataclass(frozen=True)
class MarkerConvention:
    """Word-boundary marker convention of a tokenizer.

    kind is one of the MARKERS names; marker is its literal prefix
    string ("" for none).
    """

    kind: str
    marker: str

    @classmethod
    def from_name(cls, name: str) -> "MarkerConvention":
        if name not in MARKERS:
            raise ValueError(
                f"unknown marker convention {name!r}; "
                f"expected one of {sorted(MARKERS)}"
            )
        return cls(name, MARKERS[name])


def canonicalize(piece: str, frm: MarkerConvention, to: MarkerConvention) -> str:
    """Translate a token piece between marker conventions.

    Word-initial pieces swap their marker; word-internal pieces pass
    through unchanged. Translation involving the "none" convention is
    the identity: there is no marker to rewrite, and dropping one would
    make the mapping irreversible.
    """
    if frm.kind == to.kind or not frm.marker or not to.marker:
        return piece
    if piece.startswith(frm.marker):
        return to.marker + piece[len(frm.marker):]
    return piece


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token-string <-> token-id table with contiguous ids."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...] = field(repr=False)

    @classmethod
    def from_mapping(cls, mapping: dict[str, int]) -> "Vocabulary":
        size = len(mapping)
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


@dataclass(frozen=True)
class TokenizerModel:
    """A BPE tokenizer: vocabulary, rank-ordered merges, marker convention.

    Immutable after construction; tokenize/decode are pure functions.
    """

    vocab: Vocabulary
    merges: tuple[tuple[str, str], ...]
    marker: MarkerConvention
    byte_level: bool = False
    unk_id: int | None = None
    _ranks: dict[tuple[str, str], int] = field(repr=False, default_factory=dict)

    @classmethod
    def build(
        cls,
        vocab: Vocabulary,
        merges: list[tuple[str, str]],
        marker: MarkerConvention,
        byte_level: bool = False,
        unk_id: int | None = None,
    ) -> "TokenizerModel":
        ranks: dict[tuple[str, str], int] = {}
        known = vocab.token_to_id
        for a, b in merges:
            if a not in known or b not in known or a + b not in known:
                raise UnknownMergeSymbol(
                    f"merge {a!r} + {b!r} references symbols missing "
                    f"from the vocabulary"
                )
            ranks.setdefault((a, b), len(ranks))
        return cls(vocab, tuple(ranks), marker, byte_level, unk_id, ranks)

    # --- encoding ------------------------------------------------------

    def _apply_merges(self, symbols: list[str]) -> list[str]:
        """Greedy BPE: repeatedly merge the lowest-rank adjacent pair."""
        ranks = self._ranks
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
            merged: list[str] = []
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

    def _symbol_ids(self, symbol: str) -> list[int]:
        tid = self.vocab.token_to_id.get(symbol)
        if tid is not None:
            return [tid]
        if self.byte_level:
            ids = []
            for byte in symbol.encode("utf-8"):
                btok = f"<0x{byte:02X}>"
                bid = self.vocab.token_to_id.get(btok)
                if bid is None:
                    raise UnencodableInput(
                        f"no byte fallback token {btok} for symbol {symbol!r}"
                    )
                ids.append(bid)
            return ids
        if self.unk_id is not None:
            return [self.unk_id]
        raise UnencodableInput(f"symbol {symbol!r} is outside the alphabet")

    def encode_piece(self, piece: str) -> list[int]:
        """BPE-encode a single word fragment (no whitespace handling)."""
        if not piece:
            return []
        ids: list[int] = []
        for symbol in self._apply_merges(list(piece)):
            ids.extend(self._symbol_ids(symbol))
        return ids

    def tokenize(self, text: str) -> list[int]:
        """Encode text to token ids.

        Under a marker convention, spaces become the marker character and
        each marker starts a new pre-token, so merges never cross word
        boundaries. Under "none" the text is a single symbol stream.
        """
        if not text:
            return []
        marker = self.marker.marker
        if not marker:
            return self.encode_piece(text)
        s = text.replace(" ", marker)
        ids: list[int] = []
        start = 0
        for i in range(1, len(s)):
            if s[i] == marker:
                ids.extend(self.encode_piece(s[start:i]))
                start = i
        ids.extend(self.encode_piece(s[start:]))
        return ids

    def tokenize_word(self, word: str) -> list[int]:
        """Encode one word as it would appear after a word boundary."""
        return self.encode_piece(self.marker.marker + word)

    def decode(self, ids: list[int]) -> str:
        """Invert tokenize: concatenate pieces and restore spaces."""
        out: list[str] = []
        pending: bytearray = bytearray()
        for tid in ids:
            tok = self.vocab.id_to_token[tid]
            m = _BYTE_TOKEN_RE.match(tok)
            if m:
                pending.append(int(m.group(1), 16))
                continue
            if pending:
                out.append(pending.decode("utf-8", errors="replace"))
                pending = bytearray()
            out.append(tok)
        if pending:
            out.append(pending.decode("utf-8", errors="replace"))
        text = "".join(out)
        if self.marker.marker:
            text = text.replace(self.marker.marker, " ")
        return text


def load_json(path: str, error: type[Exception]):
    """Parse the JSON file at path. Text that is not UTF-8 JSON, or is
    nested too deep for the parser, raises `error` (a one-line message)
    rather than ValueError or RecursionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
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


def load_tokenizer(
    vocab_path: str,
    merges_path: str,
    marker: MarkerConvention | str = "meta-space",
    byte_level: bool = False,
    unk_token: str | None = None,
) -> TokenizerModel:
    """Load a tokenizer from a vocab.json + merges.txt pair.

    Merge lines are two space-separated symbols; '#'-prefixed lines and
    blank lines are ignored; line order is rank order.
    """
    if isinstance(marker, str):
        marker = MarkerConvention.from_name(marker)
    vocab = load_vocab(vocab_path)

    merges: list[tuple[str, str]] = []
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
            merges.append((parts[0], parts[1]))

    unk_id = None
    if unk_token is not None:
        if unk_token not in vocab:
            raise MalformedVocab(f"unknown token {unk_token!r} not in vocabulary")
        unk_id = vocab.token_to_id[unk_token]
    return TokenizerModel.build(vocab, merges, marker, byte_level, unk_id)


@dataclass(frozen=True)
class TokenPartition:
    """Split of a target vocabulary into shared and novel tokens.

    shared holds (token, id_in_source, id_in_target) triples; novel holds
    (token, id_in_target). Together they cover every target id once.
    """

    shared: tuple[tuple[str, int, int], ...]
    novel: tuple[tuple[str, int], ...]
    warnings: tuple[str, ...] = ()

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
        """Read an `intersect` report; malformed input raises PartitionInconsistent."""
        if not isinstance(d, dict) or "shared" not in d or "novel" not in d:
            raise PartitionInconsistent(
                "partition must be a JSON object with 'shared' and 'novel' lists"
            )
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
        warnings = d.get("warnings", [])
        if not (isinstance(warnings, list)
                and all(isinstance(w, str) for w in warnings)):
            raise PartitionInconsistent(
                "partition 'warnings' must be a list of strings")
        return cls(shared, novel, tuple(warnings))


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

    Source tokens are rewritten into the target convention and matched
    against target strings. When two source tokens collide on the same
    canonical string the lowest source id wins and a warning is recorded.
    """
    canonical: dict[str, int] = {}
    warnings: list[str] = []
    for sid, tok in enumerate(source.id_to_token):
        c = canonicalize(tok, source_marker, target_marker)
        if c in canonical:
            warnings.append(
                f"source ids {canonical[c]} and {sid} both canonicalize to "
                f"{c!r}; keeping id {canonical[c]}"
            )
        else:
            canonical[c] = sid
    shared: list[tuple[str, int, int]] = []
    novel: list[tuple[str, int]] = []
    for tid, tok in enumerate(target.id_to_token):
        sid = canonical.get(tok)
        if sid is None:
            novel.append((tok, tid))
        else:
            shared.append((tok, sid, tid))
    return TokenPartition(tuple(shared), tuple(novel), tuple(warnings))
