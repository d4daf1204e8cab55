"""Corpus and embedding-space analysis: tokenizer fertility,
relative-representation similarity, and parameter-count deltas.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import embeddings
from .embeddings import EmbeddingMatrix
from .errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyMatrix,
    InsufficientTokens,
    MalformedCorpus,
    ZeroNormRow,
)
from .tokenizer import MarkerConvention, TokenizerModel, Vocabulary

# relative_similarity's projections onto the anchors; the CLI's
# --projection takes its choices from here.
PROJECTIONS = ("cosine", "dot")


@dataclass(frozen=True)
class FertilityReport:
    """Tokens-per-word statistics for one tokenizer over one corpus."""

    corpus_label: str
    tokenizer_label: str
    word_count: int
    token_count: int
    fertility: float
    per_document: tuple[float, ...] | None = None


def iter_corpus(path: str):
    """Yield documents: one per line for a file, one per .txt for a dir;
    a file that is not UTF-8 raises MalformedCorpus naming it."""
    try:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".txt"):
                    with open(os.path.join(path, name), encoding="utf-8") as fh:
                        yield fh.read()
        else:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.rstrip("\n")
                    if line:
                        yield line
    except UnicodeDecodeError as exc:
        raise MalformedCorpus(f"{fh.name}: not UTF-8 text: {exc}") from None


# Bytes that fertility counts for each word it buffers: a short word's str
# object and its list slot.
WORD_BYTES = 64


def fertility(
    model: TokenizerModel,
    documents,
    corpus_label: str = "",
    tokenizer_label: str = "",
    per_document: bool = False,
) -> FertilityReport:
    """Average number of tokens each whitespace-delimited word splits into.

    Words are maximal runs of non-whitespace (Unicode split); each word
    is tokenized with a preceding word boundary. The corpus fertility is
    total tokens / total words, not a mean of per-document ratios, so it
    is independent of document order and sharding. Each distinct word is
    encoded once per call.

    New words are encoded in blocks, one `encode_pieces` call for
    embeddings.CACHE_BUDGET // WORD_BYTES of them, and documents wait in
    a buffer until the words they hold are counted. The buffer is emptied
    once it holds that many words, so memory stays bounded. A new word's
    characters are checked against the alphabet when it is first seen,
    so the first word that cannot be encoded raises before any later
    document is read.
    """
    marker = model.marker.marker
    block = max(1, embeddings.CACHE_BUDGET // WORD_BYTES)
    total_words = 0
    total_tokens = 0
    per_doc: list[float] = []
    counts: dict[str, int] = {}  # word -> token count
    new: list[str] = []  # words seen, not yet encoded
    waiting: list[list[str]] = []  # documents holding them, in order
    buffered = 0  # words in waiting
    known: set[str] = set()  # characters found encodable

    def count_waiting():
        nonlocal total_words, total_tokens, buffered
        if new:
            _, lengths, _ = model.encode_pieces([marker + w for w in new])
            counts.update(zip(new, lengths.tolist()))
            new.clear()
        for words in waiting:
            doc_tokens = sum(map(counts.__getitem__, words))
            total_words += len(words)
            total_tokens += doc_tokens
            if per_document:
                per_doc.append(doc_tokens / len(words))
        waiting.clear()
        buffered = 0

    for doc in documents:
        words = doc.split()
        if not words:
            continue
        for word in words:
            if word not in counts:
                model.check_alphabet(marker + word, known)
                counts[word] = 0  # set when its block is encoded
                new.append(word)
        waiting.append(words)
        buffered += len(words)
        if buffered >= block:
            count_waiting()
    count_waiting()
    if total_words == 0:
        raise EmptyCorpus(f"corpus {corpus_label!r} contains no words")
    return FertilityReport(
        corpus_label=corpus_label,
        tokenizer_label=tokenizer_label,
        word_count=total_words,
        token_count=total_tokens,
        fertility=total_tokens / total_words,
        per_document=tuple(per_doc) if per_document else None,
    )


def histogram_csv(values, bins: int = 40) -> str:
    """Bin per-document fertilities into a plottable CSV."""
    counts, edges = np.histogram(np.asarray(list(values), dtype=float), bins=bins)
    lines = ["bin_left,bin_right,count"]
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{left:.6f},{right:.6f},{int(count)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimilarityScore:
    score: float  # 0..100
    anchor_count: int
    anchor_ids: tuple[int, ...]
    seed: int


def select_anchors(
    vocab: Vocabulary,
    marker: MarkerConvention,
    n_prefix: int = 128,
    n_nonprefix: int = 128,
    seed: int = 0,
) -> list[int]:
    """Seeded sample of word-initial (prefix) and word-internal tokens.

    A prefix token is one whose string starts with the word-boundary
    marker. Sampling is uniform without replacement and depends only on
    (vocab, marker, counts, seed).
    """
    initial = marker.word_initials(vocab.id_to_token)
    prefix_ids, nonprefix_ids = np.flatnonzero(initial), np.flatnonzero(~initial)
    if len(prefix_ids) < n_prefix:
        raise InsufficientTokens(
            f"requested {n_prefix} prefix tokens, vocabulary has "
            f"{len(prefix_ids)}"
        )
    if len(nonprefix_ids) < n_nonprefix:
        raise InsufficientTokens(
            f"requested {n_nonprefix} non-prefix tokens, vocabulary has "
            f"{len(nonprefix_ids)}"
        )
    rng = np.random.default_rng(seed)
    chosen_non = rng.choice(len(nonprefix_ids), size=n_nonprefix, replace=False)
    chosen_pre = rng.choice(len(prefix_ids), size=n_prefix, replace=False)
    return (nonprefix_ids[np.sort(chosen_non)].tolist()
            + prefix_ids[np.sort(chosen_pre)].tolist())


def _row_ids(values, what: str) -> np.ndarray:
    """values as an int array; a float or bool id, which int conversion
    would truncate or read as 0 or 1, raises DimensionMismatch."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = list(values)
        for v in values:
            if (isinstance(v, (bool, np.bool_))
                    or not isinstance(v, (int, np.integer))):
                raise DimensionMismatch(f"{what} id {v} is not an integer row id")
    return np.asarray(values, dtype=int)


def relative_similarity(
    emb_a: EmbeddingMatrix,
    emb_b: EmbeddingMatrix,
    anchors,
    token_sample=None,
    seed: int = 0,
    projection: str = "cosine",
) -> SimilarityScore:
    """Compare two embedding spaces through anchor-relative coordinates.

    Each token is re-expressed as its vector of projections onto the
    anchor rows of its own space (cosine by default, raw dot products
    with projection="dot"); the score is 100 times the mean cosine
    between the two relative representations. An empty token sample or
    anchor set raises EmptyMatrix, and an anchor or sample id that is not
    an integer (a float or a bool) or lies outside the matrices' rows
    DimensionMismatch, before any row is read.

    Tokens are scored in row blocks whose float64 working set fits in
    embeddings.CACHE_BUDGET bytes. Cosine projections take
    embeddings.unit_rows of both sides' anchors, checked before any token;
    then, block by block, zero-norm token rows (left side, then right
    side) and zero-norm relative representations raise ZeroNormRow naming
    the first offending id. A projection not in PROJECTIONS raises ValueError.
    """
    if projection not in PROJECTIONS:
        raise ValueError(f"unknown projection {projection!r}")
    if emb_a.rows != emb_b.rows:
        raise DimensionMismatch(
            f"matrices index different vocabularies "
            f"({emb_a.rows} vs {emb_b.rows} rows)"
        )
    anchors = _row_ids(anchors, "anchor")
    if token_sample is None:
        sample = np.arange(emb_a.rows)
    else:
        sample = _row_ids(token_sample, "token")
    if len(sample) == 0:
        raise EmptyMatrix("no tokens to score: the token sample is empty")
    if len(anchors) == 0:
        raise EmptyMatrix("no anchors to project onto: the anchor set is empty")
    for ids, what in ((anchors, "anchor"), (sample, "token")):
        bad = (ids < 0) | (ids >= emb_a.rows)
        if bad.any():
            raise DimensionMismatch(
                f"{what} id {ids[bad][0]} is outside the {emb_a.rows}-row "
                f"matrices"
            )

    def rows(emb: EmbeddingMatrix, ids: np.ndarray, what: str) -> np.ndarray:
        out = emb.data[ids].astype(np.float64)
        return embeddings.unit_rows(out, ids, what) if projection == "cosine" else out

    anchors_a = rows(emb_a, anchors, "left anchor")
    anchors_b = rows(emb_b, anchors, "right anchor")
    # Per token: its float64 rows on both sides, its two relative rows
    # and the temporary that a row norm of one of them builds.
    row_bytes = 8 * (emb_a.dim + emb_b.dim + 3 * len(anchors))
    step = max(1, embeddings.CACHE_BUDGET // row_bytes)
    cosines = np.empty(len(sample))
    for lo in range(0, len(sample), step):
        ids = sample[lo:lo + step]
        rel_a = rows(emb_a, ids, "left token") @ anchors_a.T
        rel_b = rows(emb_b, ids, "right token") @ anchors_b.T
        norm_a = np.linalg.norm(rel_a, axis=1)
        norm_b = np.linalg.norm(rel_b, axis=1)
        bad = np.flatnonzero((norm_a == 0) | (norm_b == 0))
        if bad.size:
            raise ZeroNormRow(
                f"token id {ids[bad[0]]} has a zero-norm relative "
                f"representation"
            )
        rel_a *= rel_b
        cosines[lo:lo + step] = rel_a.sum(axis=1) / (norm_a * norm_b)
    score = 100.0 * math.fsum(cosines) / len(cosines)
    return SimilarityScore(
        score=score,
        anchor_count=len(anchors),
        anchor_ids=tuple(int(a) for a in anchors),
        seed=seed,
    )


@dataclass(frozen=True)
class ParamCountReport:
    """Parameter totals before/after a vocabulary swap. Exact integers."""

    vocab_before: int
    vocab_after: int
    dim: int
    tied: bool
    non_embedding_params: int
    total_before: int
    total_after: int
    delta: int


def param_report(
    vocab_before: int,
    vocab_after: int,
    dim: int,
    tied: bool,
    non_embedding_params: int,
) -> ParamCountReport:
    if min(vocab_before, vocab_after, dim) <= 0 or non_embedding_params < 0:
        raise ValueError("all counts must be positive")
    factor = 1 if tied else 2
    total_before = non_embedding_params + vocab_before * dim * factor
    total_after = non_embedding_params + vocab_after * dim * factor
    return ParamCountReport(
        vocab_before=vocab_before,
        vocab_after=vocab_after,
        dim=dim,
        tied=tied,
        non_embedding_params=non_embedding_params,
        total_before=total_before,
        total_after=total_after,
        delta=(vocab_before - vocab_after) * dim * factor,
    )
