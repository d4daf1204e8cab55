"""Target embedding construction: copy intersection rows, initialize the
rest with one of the four heuristics (random, fvt, clp, sava).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import alignment, embeddings
from .alignment import AffineMap, TrainConfig
from .embeddings import EmbeddingMatrix, EmbeddingStats, unit_rows
from .embeddings import stats as matrix_stats
from .errors import (
    DegenerateSimilarity,
    DimensionMismatch,
    FallbackRequired,
    PartitionInconsistent,
    VocabForgeError,
)
from .tokenizer import (
    TokenizerModel,
    TokenPartition,
    check_partition,
    partition,
)

METHODS = ("random", "fvt", "clp", "sava")
HELPER_METHODS = ("clp", "sava")
# The values each HeuristicConfig choice accepts; the CLI's flags take
# their choices from here.
CHOICES = {
    "method": METHODS,
    "clp_negative_policy": ("clamp-zero", "shift-min", "absolute"),
    "random_moments": ("per-dimension", "scalar"),
    "fallback": ("random", "mean-row"),
}

_MASK64 = (1 << 64) - 1

# Bytes of float64 similarities per CLP block. CLP re-reads every shared
# source row once per block, so it wants taller blocks than CACHE_BUDGET:
# at 4 MiB its kernel took 57.0 ms, not 46.5, on corpus-32k and 98.8 ms,
# not 87.5, on tied-5k-d256. Read at call time (patchable).
_CLP_BUDGET = 16 << 20


@dataclass(frozen=True)
class HeuristicConfig:
    """Configuration surface for the per-token initializers."""

    method: str = "fvt"
    seed: int = 0
    clp_top_k: int = 0  # 0 = dense over the full intersection
    clp_negative_policy: str = "clamp-zero"
    random_moments: str = "per-dimension"
    fallback: str = "random"

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}")
        if self.clp_top_k < 0:
            raise ValueError(
                f"clp_top_k must be >= 0 (0 = dense), got {self.clp_top_k}")


@dataclass
class AdaptationReport:
    """Provenance bookkeeping for one adaptation run."""

    copied_count: int
    initialized_count: int
    fallback_count: int
    provenance: np.ndarray  # int8 per target id: an index into PROVENANCE
    method: HeuristicConfig
    timing_seconds: float = 0.0

    @property
    def per_token(self) -> list[tuple[int, str]]:
        """(target id, copied|heuristic|fallback) for every target id."""
        return [(tid, PROVENANCE[k])
                for tid, k in enumerate(self.provenance.tolist())]

    def to_dict(self, verbose: bool = False) -> dict:
        out = {
            "copied_count": self.copied_count,
            "initialized_count": self.initialized_count,
            "fallback_count": self.fallback_count,
            "method": asdict(self.method),
            "timing_seconds": self.timing_seconds,
        }
        if verbose:
            out["per_token"] = [[tid, prov] for tid, prov in self.per_token]
        return out


# --- row kernels --------------------------------------------------------
#
# Each method fills all novel rows at once: adapt_matrix calls its kernel
# on the novel target ids (FVT: their pieces) in partition order, and it
# returns float64 rows, plus, where a row can fail, a bool mask of rows
# it could build, which assemble takes as they are. The one-row forms
# g_random, g_fvt, g_sava and ClpInitializer's __call__ are one row of
# these kernels; ClpInitializer.weights is one row of its weight pass.


def random_rows(
    token_ids,
    source_stats: EmbeddingStats,
    seed: int,
    moments: str = "per-dimension",
) -> np.ndarray:
    """Sample one row per id from N(mu, sigma^2) of the source embedding space.

    Each row comes from a counter-based generator keyed by (seed, token
    id), so it is independent of evaluation order and batching: row i is
    Generator(Philox(key=(seed mod 2**64) << 64 | id_i)).standard_normal(dim),
    scaled and shifted. One generator is re-keyed per row instead of
    built, and the draws are scaled in place, so the kernel holds one
    (n, dim) array.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    # A fresh generator's state: counter 0, empty buffer. numpy stores an
    # int key as little-endian 64-bit words, so only "key" changes per row.
    state = bits.state
    high = seed & _MASK64
    draws = np.empty((len(token_ids), len(source_stats.mean)))
    for row, tid in zip(draws, np.asarray(token_ids).tolist()):
        state["state"]["key"] = [tid & _MASK64, high]
        bits.state = state
        gen.standard_normal(out=row)
    if moments == "scalar":
        mean, var = source_stats.scalar_mean, source_stats.scalar_variance
    else:
        mean, var = source_stats.mean, source_stats.variance
    # mean + sqrt(var) * draws, by the same two roundings
    draws *= np.sqrt(var)
    draws += mean
    return draws


def g_random(
    token_id: int,
    source_stats: EmbeddingStats,
    seed: int,
    moments: str = "per-dimension",
) -> np.ndarray:
    """One row of random_rows."""
    return random_rows([token_id], source_stats, seed, moments)[0]


def fvt_rows(
    pieces,
    source_model: TokenizerModel,
    source_emb: EmbeddingMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Average the source embeddings of each piece's source tokenization.

    Pieces must already carry the source marker convention. Unknown ids
    are dropped from the average; an unencodable or all-unknown piece
    gets ok=False.

    Each row equals data[ids].astype(float64).mean(axis=0) bit for bit.
    numpy sums a C-contiguous block over axis 0 from 0.0, one row after
    another, and then divides by the count; here position p of every
    piece is added in the same order. Pieces are taken one
    embeddings.block_rows block of float64 rows at a time, longest first,
    so position p is one float32 gather added to a prefix of the block.
    """
    dim = source_emb.dim
    flat, counts, _ = source_model.encode_pieces(pieces)
    if source_model.unk_id is not None:
        known = flat != source_model.unk_id
        counts = np.bincount(np.repeat(np.arange(len(pieces)), counts)[known],
                             minlength=len(pieces))
        flat = flat[known]
    starts = np.cumsum(counts) - counts
    data = source_emb.data
    rows = np.zeros((len(pieces), dim))
    step = embeddings.block_rows(8 * dim)
    for lo in range(0, len(pieces), step):
        order = lo + np.argsort(-counts[lo:lo + step])
        order = order[counts[order] > 0]
        c = counts[order]
        block = np.zeros((len(order), dim))
        for p in range(c.max(initial=0)):
            n = np.count_nonzero(c > p)
            block[:n] += data[flat[starts[order[:n]] + p]]
        block /= c[:, None]
        rows[order] = block
        del block  # free this block before the next one is built
    if dim == 1:
        # numpy sums a lone column pairwise, which differs from 8 rows on
        for i in np.flatnonzero(counts >= 8):
            ids = flat[starts[i]:starts[i] + counts[i]]
            rows[i] = data[ids].astype(np.float64).mean(axis=0)
    return rows, counts > 0


def g_fvt(
    piece: str,
    source_model: TokenizerModel,
    source_emb: EmbeddingMatrix,
) -> np.ndarray:
    """One row of fvt_rows; a piece without a row raises FallbackRequired."""
    rows, ok = fvt_rows([piece], source_model, source_emb)
    if not ok[0]:
        raise FallbackRequired(f"piece {piece!r} has no known source tokens")
    return rows[0]


class ClpInitializer:
    """Similarity-weighted combination of intersection source rows.

    Weights are cosine similarities in the helper space, post-processed
    by the negative policy, optionally truncated to the top-k support,
    and normalized to sum to 1. Rows are computed _CLP_BUDGET bytes of
    similarities at a time: one GEMM against the shared helper rows for
    the weights, one against the shared source rows for the result. A
    zero-norm shared or novel helper row raises ZeroNormRow naming its id.
    """

    def __init__(
        self,
        source_emb: EmbeddingMatrix,
        helper_emb: EmbeddingMatrix,
        part: TokenPartition,
        cfg: HeuristicConfig,
    ):
        if part.shared_count == 0:
            raise PartitionInconsistent("CLP needs a non-empty intersection")
        self.cfg = cfg
        self.helper = helper_emb.data  # float32; blocks are converted as used
        self.shared_source_rows = source_emb.data[part.source_ids].astype(np.float64)
        anchor_ids = part.shared_target_ids
        self.anchor_unit = unit_rows(self.helper[anchor_ids].astype(np.float64),
                                     anchor_ids, "shared helper token")

    def _weights(self, token_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weight rows for a block of ids; ok is False where all vanished."""
        v = unit_rows(self.helper[token_ids].astype(np.float64), token_ids,
                      "helper token")
        w = v @ self.anchor_unit.T
        policy = self.cfg.clp_negative_policy
        if policy == "clamp-zero":
            np.maximum(w, 0.0, out=w)
        elif policy == "shift-min":
            w -= w.min(axis=1, keepdims=True)
        else:
            np.abs(w, out=w)
        k = self.cfg.clp_top_k
        if 0 < k < w.shape[1]:
            # a stable sort keeps the lowest shared index first among ties
            top = np.argsort(-w, axis=1, kind="stable")[:, :k]
            kept = np.take_along_axis(w, top, axis=1)
            w[:] = 0.0
            np.put_along_axis(w, top, kept, axis=1)
        total = w.sum(axis=1)
        ok = total > 0.0
        w /= np.where(ok, total, 1.0)[:, None]
        return w, ok

    def rows(self, token_ids) -> tuple[np.ndarray, np.ndarray]:
        """Rows for the given target ids; ok is False where all weights vanished."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        out = np.empty((len(token_ids), self.shared_source_rows.shape[1]))
        ok = np.empty(len(token_ids), dtype=bool)
        step = embeddings.block_rows(8 * len(self.anchor_unit), _CLP_BUDGET)
        for lo in range(0, len(token_ids), step):
            w, ok[lo:lo + step] = self._weights(token_ids[lo:lo + step])
            out[lo:lo + step] = w @ self.shared_source_rows
            del w  # free this block before the next one is built
        return out, ok

    def weights(self, token_id: int) -> np.ndarray:
        """One id's weight row; DegenerateSimilarity if all vanished."""
        w, ok = self._weights(np.array([token_id]))
        if not ok[0]:
            raise DegenerateSimilarity(
                f"all CLP weights vanished for token id {token_id}")
        return w[0]

    def __call__(self, token_id: int) -> np.ndarray:
        """One row of rows; DegenerateSimilarity if all weights vanished."""
        row, ok = self.rows([token_id])
        if not ok[0]:
            raise DegenerateSimilarity(
                f"all CLP weights vanished for token id {token_id}")
        return row[0]


def sava_rows(token_ids, helper_emb: EmbeddingMatrix, phi: AffineMap) -> np.ndarray:
    """Map helper rows through the trained affine alignment."""
    return phi.apply(helper_emb.data[np.asarray(token_ids)])


def g_sava(token_id: int, helper_emb: EmbeddingMatrix, phi: AffineMap) -> np.ndarray:
    """One row of sava_rows."""
    return sava_rows([token_id], helper_emb, phi)[0]


# --- assembly ----------------------------------------------------------

PROVENANCE = ("copied", "heuristic", "fallback")


def assemble(
    source_emb: EmbeddingMatrix,
    part: TokenPartition,
    rows: np.ndarray,
    ok: np.ndarray | None = None,
    method: HeuristicConfig | None = None,
) -> tuple[EmbeddingMatrix, AdaptationReport]:
    """Build the target matrix: copy the shared rows bit-exactly and place
    rows, the novel tokens' float64 rows in partition order (novel, dim).
    Rows that the bool mask ok marks False (None: none) get method's
    fallback, computed here: the source mean row or random_rows under its
    seed and moments. timing_seconds is left at 0; adapt_matrix times the
    whole build."""
    cfg = method or HeuristicConfig()
    sids, shared_tids, novel_tids = check_partition(part, source_emb.rows)
    target_size = part.shared_count + part.novel_count
    dim = source_emb.dim
    out = np.empty((target_size, dim), dtype=np.float32)
    out[shared_tids] = source_emb.data[sids]
    kind = np.zeros(target_size, dtype=np.int8)  # index into PROVENANCE
    if np.shape(rows) != (part.novel_count, dim):
        raise DimensionMismatch(f"rows have shape {np.shape(rows)}, "
                                f"expected ({part.novel_count}, {dim})")
    out[novel_tids] = rows
    kind[novel_tids] = 1
    missing = novel_tids[:0]
    if ok is not None:
        if np.shape(ok) != (part.novel_count,):
            raise DimensionMismatch(f"ok has shape {np.shape(ok)}, "
                                    f"expected ({part.novel_count},)")
        missing = novel_tids[~np.asarray(ok, dtype=bool)]
    if missing.size:
        source_stats = matrix_stats(source_emb)
        if cfg.fallback == "mean-row":
            out[missing] = source_stats.mean
        else:
            out[missing] = random_rows(missing, source_stats, cfg.seed,
                                       cfg.random_moments)
        kind[missing] = 2

    report = AdaptationReport(
        copied_count=part.shared_count,
        initialized_count=part.novel_count - missing.size,
        fallback_count=missing.size,
        provenance=kind,
        method=cfg,
    )
    return EmbeddingMatrix(out, label="adapted"), report


def check_rows(part: TokenPartition, vocab_size: int, source_rows: int,
               helper_rows: int | None = None) -> None:
    """DimensionMismatch unless the source matrix has one row per source
    token, then check_partition: the checks that need only row counts."""
    if source_rows != vocab_size:
        raise DimensionMismatch(f"source matrix has {source_rows} rows, source "
                                f"vocabulary has {vocab_size} tokens")
    check_partition(part, source_rows, helper_rows)


def adapt_matrix(
    source_emb: EmbeddingMatrix,
    source_model: TokenizerModel,
    target_model: TokenizerModel,
    part: TokenPartition,
    helper_emb: EmbeddingMatrix | None,
    cfg: HeuristicConfig,
    train_cfg: TrainConfig,
) -> tuple[EmbeddingMatrix, AdaptationReport]:
    """Copy + initialize one matrix under a given partition.

    An untied model calls this once for its embedding matrix and once for
    its head, with the same partition; SAVA fits a separate map each time.
    The report's timing_seconds covers the whole build, SAVA's fit too.
    """
    start = time.perf_counter()
    if cfg.method in HELPER_METHODS and helper_emb is None:
        raise VocabForgeError(
            f"method {cfg.method!r} requires helper embeddings (--helper-emb)"
        )
    helper_rows = helper_emb.rows if cfg.method in HELPER_METHODS else None
    check_rows(part, source_model.vocab.size, source_emb.rows, helper_rows)
    tids, ok = part.novel_target_ids, None
    if cfg.method == "random":
        rows = random_rows(tids, matrix_stats(source_emb), cfg.seed,
                           cfg.random_moments)
    elif cfg.method == "fvt":
        pieces = target_model.marker.spell_all(
            [token for token, _ in part.novel], source_model.marker)
        rows, ok = fvt_rows(pieces, source_model, source_emb)
    elif cfg.method == "clp":
        rows, ok = ClpInitializer(source_emb, helper_emb, part, cfg).rows(tids)
    else:  # sava
        phi = alignment.train_map(helper_emb, source_emb, part, train_cfg)
        rows = sava_rows(tids, helper_emb, phi)
    out, report = assemble(source_emb, part, rows, ok, method=cfg)
    report.timing_seconds = time.perf_counter() - start
    return out, report


def adapt(
    source_emb: EmbeddingMatrix,
    source_model: TokenizerModel,
    target_model: TokenizerModel,
    helper_emb: EmbeddingMatrix | None = None,
    cfg: HeuristicConfig = HeuristicConfig(),
    train_cfg: TrainConfig | None = None,
) -> tuple[EmbeddingMatrix, AdaptationReport]:
    """Full pipeline: partition vocabularies, then copy + initialize."""
    part = partition(
        source_model.vocab, target_model.vocab,
        source_model.marker, target_model.marker,
    )
    return adapt_matrix(
        source_emb, source_model, target_model, part, helper_emb, cfg,
        train_cfg or TrainConfig(seed=cfg.seed),
    )
