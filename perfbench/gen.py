"""Seeded input generator for the benchmark workloads.

Everything here is derived from (workload spec, seed): the same pair
always writes the same bytes. The program under test only ever sees the
files written here.

Vocabularies are BPE pairs built by concatenating existing tokens, so
every merge is valid and the whole construction is one linear pass:

* the source uses the meta-space marker, the target the byte marker;
* both hold the 256 ``<0xNN>`` byte tokens and ``<unk>``/``<s>``/``</s>``;
* a fixed number of derived tokens is common to both (the shared rows),
  the rest is side-specific (target-only tokens are the novel rows);
* the target adds a few special tokens and characters the source lacks,
  so FVT sees unknown pieces and its fallback path runs.

Matrices are N(0, 1) float32 EMB1 files; the corpus is Zipfian over a
lexicon built from the vocabulary pieces, with a small share of words
holding characters neither alphabet has, so fertility exercises byte
fallback.
"""

from __future__ import annotations

import json
import os
import random
import struct

import numpy as np

META = "▁"  # ▁
BYTE = "Ġ"  # Ġ
SPECIALS = ("<unk>", "<s>", "</s>")
BYTE_TOKENS = tuple(f"<0x{b:02X}>" for b in range(256))
ALPHABET = "abcdefghijklmnopqrstuvwxyzàèéìòù"
TARGET_CHARS = "ßøæåþðœłżč"
TARGET_SPECIALS = ("<|im_start|>", "<|im_end|>", "<pad>", "<mask>")
RARE_CHARS = "ΩЖ"  # in no vocabulary: byte fallback in fertility
MAX_TOKEN_LEN = 8


def _pick(rng, pool):
    # favour early (short) tokens so lengths look like a trained vocabulary
    return pool[int(len(pool) * rng.random() ** 2)]


def _derive(rng, count, internal, initial, taken, out, extra_chars=""):
    """Append `count` new tokens a+b built from the given pools.

    `internal` and `initial` are the word-internal and word-initial
    pools (canonical meta-space form); new tokens join them so later
    tokens can build on earlier ones. `extra_chars` seeds the internal
    pool with characters private to this side.
    """
    internal = list(internal) + list(extra_chars)
    initial = list(initial)
    made = 0
    while made < count:
        a = _pick(rng, initial if rng.random() < 0.5 else internal)
        b = _pick(rng, internal)
        tok = a + b
        if len(tok) > MAX_TOKEN_LEN or tok in taken:
            continue
        if extra_chars and not set(tok) - set(extra_chars):
            continue  # keep the FVT fallback count to the bare characters
        taken.add(tok)
        out.append((a, b))
        (initial if tok.startswith(META) else internal).append(tok)
        made += 1
    return internal, initial


def _to_target(tok: str) -> str:
    return BYTE + tok[1:] if tok.startswith(META) else tok


def build_vocabularies(rng: random.Random, shared: int, source_only: int,
                       target_only: int):
    """Return (source tokens, source merges, target tokens, target merges,
    target-only tokens)."""
    base = list(SPECIALS) + list(BYTE_TOKENS) + [META] + list(ALPHABET)
    taken = set(base) | set(TARGET_CHARS) | set(TARGET_SPECIALS)
    common: list = []
    internal, initial = _derive(
        rng, shared - len(base), list(ALPHABET), [META], taken, common
    )
    src_merges: list = []
    _derive(rng, source_only, internal, initial, taken, src_merges)
    tgt_merges: list = []
    _derive(rng, target_only, internal, initial, taken, tgt_merges,
            extra_chars=TARGET_CHARS)

    src_tokens = base + [a + b for a, b in common + src_merges]
    tgt_novel = list(TARGET_SPECIALS) + list(TARGET_CHARS) + [
        _to_target(a + b) for a, b in tgt_merges
    ]
    tgt_tokens = [_to_target(t) for t in base] + [
        _to_target(a + b) for a, b in common
    ] + tgt_novel
    return (src_tokens, common + src_merges, tgt_tokens,
            [(_to_target(a), b) for a, b in common + tgt_merges], tgt_novel)


def build_corpus(nprng: np.random.Generator, tokens, words: int, lexicon: int,
                 zipf_s: float = 1.1) -> list[str]:
    """Zipf-distributed documents over a lexicon of vocabulary pieces.

    A word is a word-initial token without its marker, sometimes followed
    by a word-internal token; one word type in a hundred gets a character
    that no vocabulary holds.
    """
    initial = sorted({t[1:] for t in tokens if t[:1] in (META, BYTE) and len(t) > 1})
    internal = sorted({t for t in tokens if t[:1] not in (META, BYTE, "<")})
    idx = nprng.integers(0, 1 << 30, size=(lexicon, 2))
    extra = nprng.random(lexicon)
    lex = []
    seen = set()
    for (i, j), r in zip(idx.tolist(), extra.tolist()):
        w = initial[i % len(initial)]
        if r < 0.3:
            w += internal[j % len(internal)]
        if r > 0.99:
            w += RARE_CHARS[j % len(RARE_CHARS)]
        if w not in seen:
            seen.add(w)
            lex.append(w)
    # shorter words are more frequent (Zipf's law of abbreviation), which
    # also keeps the per-word cost of the corpus steady across seeds
    tiebreak = nprng.random(len(lex))
    lex = [w for _, _, w in sorted(zip(map(len, lex), tiebreak, lex))]
    ranks = np.arange(1, len(lex) + 1, dtype=np.float64)
    p = ranks ** -zipf_s
    p /= p.sum()
    draws = nprng.choice(len(lex), size=words, p=p)
    lengths = nprng.integers(10, 40, size=words // 10 + 1)
    docs = []
    pos = 0
    for n in lengths.tolist():
        if pos >= words:
            break
        docs.append(" ".join(lex[k] for k in draws[pos:pos + n].tolist()))
        pos += n
    return docs


def write_emb1(path: str, data: np.ndarray) -> None:
    data = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<II", *data.shape) + b"\0\0\0\0")
        fh.write(data.tobytes())


def _write_vocab(path, tokens):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({t: i for i, t in enumerate(tokens)}, fh, ensure_ascii=False)


def _write_merges(path, merges):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#version: bench\n")
        fh.writelines(f"{a} {b}\n" for a, b in merges)


def generate(spec: dict, seed: int, out_dir: str) -> dict:
    """Write every input file of one workload; return its properties."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    nprng = np.random.default_rng([seed, 7])
    src, src_merges, tgt, tgt_merges, novel = build_vocabularies(
        rng, spec["shared"], spec["source_only"], spec["target_only"]
    )
    files = {
        "source_vocab": "source_vocab.json", "source_merges": "source_merges.txt",
        "target_vocab": "target_vocab.json", "target_merges": "target_merges.txt",
        "source_emb": "source.emb1", "helper_emb": "helper.emb1",
        "sim_a": "sim_a.emb1", "sim_b": "sim_b.emb1", "corpus": "corpus.txt",
    }
    paths = {k: os.path.join(out_dir, v) for k, v in files.items()}
    _write_vocab(paths["source_vocab"], src)
    _write_merges(paths["source_merges"], src_merges)
    _write_vocab(paths["target_vocab"], tgt)
    _write_merges(paths["target_merges"], tgt_merges)

    d = spec["dim"]
    matrices = {"source_emb": len(src), "helper_emb": len(tgt)}
    if spec["untied"]:
        paths["source_head"] = os.path.join(out_dir, "source_head.emb1")
        paths["helper_head"] = os.path.join(out_dir, "helper_head.emb1")
        matrices.update(source_head=len(src), helper_head=len(tgt))
    for name, rows in matrices.items():
        write_emb1(paths[name], nprng.standard_normal((rows, d), dtype=np.float32))

    # similarity pair over the target vocabulary: b is a noisy linear map of a
    sd = spec["sim_dim"]
    a = nprng.standard_normal((len(tgt), sd), dtype=np.float32)
    mix = nprng.standard_normal((sd, sd), dtype=np.float32) / np.float32(np.sqrt(sd))
    b = a @ mix + np.float32(0.5) * nprng.standard_normal(a.shape, dtype=np.float32)
    write_emb1(paths["sim_a"], a)
    write_emb1(paths["sim_b"], b)

    docs = build_corpus(nprng, src + tgt, spec["corpus_words"], spec["lexicon"])
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(docs) + "\n")
    words = [w for doc in docs for w in doc.split()]

    src_index = {t: i for i, t in enumerate(src)}
    novel_set = set(novel)
    shared_triples = [
        (tok, src_index[META + tok[1:] if tok.startswith(BYTE) else tok], tid)
        for tid, tok in enumerate(tgt) if tok not in novel_set
    ]
    novel_pairs = [(tok, tid) for tid, tok in enumerate(tgt) if tok in novel_set]
    pieces = [META + t[1:] if t.startswith(BYTE) else t for t in novel]
    props = {
        "source_vocab": len(src),
        "target_vocab": len(tgt),
        "shared": len(shared_triples),
        "novel": len(novel_pairs),
        "dim": d,
        "untied": spec["untied"],
        "input_mb": sum(os.path.getsize(p) for p in paths.values()) / 1e6,
        "corpus_words": len(words),
        "corpus_unique_word_share": len(set(words)) / len(words),
        "fvt_piece_unique_share": len(set(pieces)) / len(pieces),
    }
    return {"paths": paths, "props": props, "shared": shared_triples,
            "novel": novel_pairs, "words": words}
