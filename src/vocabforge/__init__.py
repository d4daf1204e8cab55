"""vocabforge: swap a language model's tokenizer and re-initialize its
embedding matrices (random / FVT / CLP / SAVA), with tokenizer fertility
and embedding-space similarity analysis.
"""

from .alignment import (
    AffineMap,
    FitReport,
    TrainConfig,
    collect_pairs,
    fit_closed_form,
    fit_gradient,
    save_map,
)
from .analysis import (
    FertilityReport,
    ParamCountReport,
    SimilarityScore,
    fertility,
    param_report,
    relative_similarity,
    select_anchors,
)
from .embeddings import (
    EmbeddingMatrix,
    EmbeddingStats,
    load_matrix,
    save_matrix,
    stats,
)
from .heuristics import (
    AdaptationReport,
    HeuristicConfig,
    adapt,
    adapt_matrix,
    assemble,
    g_fvt,
    g_random,
    g_sava,
)
from .tokenizer import (
    MarkerConvention,
    TokenPartition,
    TokenizerModel,
    Vocabulary,
    load_tokenizer,
    load_vocab,
    partition,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationReport",
    "AffineMap",
    "EmbeddingMatrix",
    "EmbeddingStats",
    "FertilityReport",
    "FitReport",
    "HeuristicConfig",
    "MarkerConvention",
    "ParamCountReport",
    "SimilarityScore",
    "TokenPartition",
    "TokenizerModel",
    "TrainConfig",
    "Vocabulary",
    "adapt",
    "adapt_matrix",
    "assemble",
    "collect_pairs",
    "fertility",
    "fit_closed_form",
    "fit_gradient",
    "g_fvt",
    "g_random",
    "g_sava",
    "load_matrix",
    "load_tokenizer",
    "load_vocab",
    "param_report",
    "partition",
    "relative_similarity",
    "save_map",
    "save_matrix",
    "select_anchors",
    "stats",
]
