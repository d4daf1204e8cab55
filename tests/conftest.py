import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import settings

from vocabforge import (
    AffineMap,
    EmbeddingMatrix,
    MarkerConvention,
    TokenizerModel,
    Vocabulary,
    save_matrix,
)
from vocabforge.alignment import Scaler
from vocabforge.embeddings import HEADER_SIZE
from vocabforge.errors import MalformedVocab, UnencodableInput

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a CI
# failure reproduces locally with the same setting.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

META = MarkerConvention.from_name("meta-space")
BYTE = MarkerConvention.from_name("byte-marker")
NONE = MarkerConvention.from_name("none")


def vocab_of(tokens):
    return Vocabulary.from_mapping({tok: i for i, tok in enumerate(tokens)})


def char_tokenizer(extra_tokens=(), merges=(), marker=NONE, alphabet="abcd",
                   byte_level=False, unk_token=None):
    """Tokenizer whose alphabet is always encodable, plus optional merges;
    byte_level turns on the marker's byte fallback."""
    marker = MarkerConvention.from_name(marker.kind, byte_level)
    tokens = list(alphabet)
    if marker.marker:
        tokens.insert(0, marker.marker)
    tokens += [t for t in extra_tokens if t not in tokens]
    for a, b in merges:
        if a + b not in tokens:
            tokens.append(a + b)
    vocab = vocab_of(tokens)
    unk_id = vocab.token_to_id[unk_token] if unk_token else None
    return TokenizerModel.build(vocab, list(merges), marker, unk_id)


def word_list_tokenizer(names, marker=NONE):
    """Vocabulary of opaque multi-character tokens, no merges.

    Good enough for partition/adaptation paths that never tokenize text.
    """
    return TokenizerModel.build(vocab_of(names), [], marker)


def random_matrix(rng, rows, dim, label=""):
    return EmbeddingMatrix(
        rng.normal(size=(rows, dim)).astype(np.float32), label=label
    )


def identity_scaler(dim):
    """A Scaler that leaves every value as it is: mean 0, std 1."""
    return Scaler(np.zeros(dim), np.ones(dim), np.zeros(dim, dtype=bool))


def identity_map(dim):
    """The AffineMap x -> x on dim dimensions."""
    return AffineMap(np.eye(dim), np.zeros(dim), identity_scaler(dim),
                     identity_scaler(dim))


def reference_load_map(path):
    """The AffineMap in the container and sidecar that save_map wrote at
    path, read as the sidecar describes them and checked for nothing."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(path, "rb") as fh:
        data = fh.read()
    records, pos = {}, 0
    for name in meta["records"]:
        rows, dim = struct.unpack("<II", data[pos + 4:pos + 12])
        pos += HEADER_SIZE
        records[name] = np.frombuffer(data, "<f4", rows * dim, pos).reshape(
            rows, dim).astype(np.float64)
        pos += 4 * rows * dim

    def scaler(side, dim):
        zero = np.zeros(dim, dtype=bool)
        zero[meta[f"{side}_zero_variance_dims"]] = True
        return Scaler(records[f"{side}_mean"][0], records[f"{side}_std"][0], zero)

    return AffineMap(records["weight"], records["bias"][0],
                     scaler("input", meta["in_dim"]),
                     scaler("output", meta["out_dim"]), meta["input_norm"])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One status line per acceptance criterion, pass or fail."""
    rows = {}
    for status in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::test_criterion_" in nodeid:
                name = nodeid.split("::")[-1].split("[")[0]
                if status == "failed" or name not in rows:
                    rows[name] = status.upper()
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{name}: {rows[name]}")


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def write_text(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def write_emb(tmp_path):
    def _write(name, array):
        path = str(tmp_path / name)
        save_matrix(EmbeddingMatrix(np.asarray(array, dtype=np.float32)), path)
        return path

    return _write


# --- the per-piece BPE encoder that TokenizerModel.encode_pieces replaced,
# kept as the reference for the batch kernel's ids, counts and errors ---


def reference_ranks(model):
    """Rank of each distinct merge of model: the order of its first line."""
    lefts, rights, _ = model._symbols
    pairs = dict.fromkeys(zip(lefts, rights))
    return dict(zip(pairs, range(len(pairs))))


def reference_apply_merges(ranks, symbols):
    """Greedy BPE on one piece: repeatedly merge the lowest-rank adjacent
    pair, every occurrence of it left to right. rs[i] is the rank of
    (symbols[i], symbols[i + 1]), len(ranks) for a pair that is no merge; a
    merge changes only the two ranks beside it."""
    get = ranks.get
    none = len(ranks)
    symbols = list(symbols)
    rs = [get(pair, none) for pair in zip(symbols, symbols[1:])]
    while rs:
        best = min(rs)
        if best == none:
            break
        i = rs.index(best)
        while True:
            merged = symbols[i] + symbols.pop(i + 1)
            symbols[i] = merged
            del rs[i]
            if i:
                rs[i - 1] = get((symbols[i - 1], merged), none)
            if i < len(rs):
                rs[i] = get((merged, symbols[i + 1]), none)
            if best not in rs:
                break
            i = rs.index(best, i)
    return symbols


def reference_symbol_ids(model, symbol):
    """A final symbol's ids: its own, its byte tokens under the marker's
    byte fallback, or unk; otherwise UnencodableInput."""
    tid = model.vocab.token_to_id.get(symbol)
    if tid is not None:
        return [tid]
    if model.marker.byte_fallback:
        ids = []
        for byte in symbol.encode("utf-8"):
            btok = f"<0x{byte:02X}>"
            bid = model.vocab.token_to_id.get(btok)
            if bid is None:
                raise UnencodableInput(
                    f"no byte fallback token {btok} for symbol {symbol!r}"
                )
            ids.append(bid)
        return ids
    if model.unk_id is not None:
        return [model.unk_id]
    raise UnencodableInput(f"symbol {symbol!r} is outside the alphabet")


def reference_encode_piece(model, piece):
    """One piece's ids, or UnencodableInput, one symbol at a time."""
    ids = []
    for symbol in reference_apply_merges(reference_ranks(model), list(piece)):
        ids.extend(reference_symbol_ids(model, symbol))
    return ids


def reference_tokenize(model, text):
    """tokenize by walking the text one character at a time: each marker
    after the first character starts a new piece."""
    marker = model.marker.marker
    if not marker:
        return reference_encode_piece(model, text)
    s = text.replace(" ", marker)
    ids = []
    start = 0
    for i in range(1, len(s)):
        if s[i] == marker:
            ids.extend(reference_encode_piece(model, s[start:i]))
            start = i
    ids.extend(reference_encode_piece(model, s[start:]))
    return ids


# --- the marker codec's operations as free functions, before
# MarkerConvention owned them; kept as references for spell and decode ---

_BYTE_TOKEN_RE = re.compile(r"<0x([0-9A-F]{2})>")


def reference_canonicalize(piece, frm, to):
    """Translate a token piece between marker conventions: word-initial
    pieces swap their marker, and any translation involving "none" is the
    identity."""
    if frm.kind == to.kind or not frm.marker or not to.marker:
        return piece
    if piece.startswith(frm.marker):
        return to.marker + piece[len(frm.marker):]
    return piece


def reference_word_initial(marker, token):
    """Whether token starts with marker's marker (never under "none")."""
    return token.startswith(marker.marker) and marker.marker != ""


def reference_decode(model, ids):
    """Concatenate the tokens of ids, each run of byte tokens as UTF-8,
    and restore spaces."""
    out = []
    pending = bytearray()
    for tid in ids:
        tok = model.vocab.id_to_token[tid]
        m = _BYTE_TOKEN_RE.fullmatch(tok)
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
    if model.marker.marker:
        text = text.replace(model.marker.marker, " ")
    return text


def reference_partition(source, target, source_marker, target_marker):
    """(shared, novel, warnings) of partition, with reference_canonicalize
    for the source tokens."""
    canonical = {}
    warnings = []
    for sid, tok in enumerate(source.id_to_token):
        c = reference_canonicalize(tok, source_marker, target_marker)
        if c in canonical:
            warnings.append(
                f"source ids {canonical[c]} and {sid} both canonicalize to "
                f"{c!r}; keeping id {canonical[c]}"
            )
        else:
            canonical[c] = sid
    shared, novel = [], []
    for tid, tok in enumerate(target.id_to_token):
        sid = canonical.get(tok)
        if sid is None:
            novel.append((tok, tid))
        else:
            shared.append((tok, sid, tid))
    return tuple(shared), tuple(novel), tuple(warnings)


# --- the entry-by-entry vocabulary loader that Vocabulary.from_mapping's
# whole-list check replaced; it still walks every mapping whose ids are
# not 0 .. size - 1 in key order ---


def reference_from_mapping(mapping):
    """(token_to_id, id_to_token) of mapping, placing one entry at a time;
    the first bad entry raises MalformedVocab."""
    size = len(mapping)
    id_to_token = [None] * size
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
    return dict(mapping), tuple(id_to_token)
