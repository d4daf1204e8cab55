"""Exception types shared across the toolkit.

Everything derives from VocabForgeError so the CLI can map validation
failures to a single exit code. I/O failures use the builtin OSError.
"""


class VocabForgeError(Exception):
    """Base class for all toolkit errors."""


# --- tokenizer ---------------------------------------------------------


class MalformedVocab(VocabForgeError):
    """Vocabulary file violates the bijection/contiguity invariants."""


class UnknownMergeSymbol(VocabForgeError):
    """A merge rule references a symbol the vocabulary cannot resolve."""


class UnencodableInput(VocabForgeError):
    """Text or token ids that the tokenizer cannot encode or decode."""


# --- embedding I/O -----------------------------------------------------


class BadMagic(VocabForgeError):
    """File does not start with the EMB1 magic."""


class SizeMismatch(VocabForgeError):
    """Declared matrix shape disagrees with the payload length, or has
    zero-width rows."""


class NonFiniteValue(VocabForgeError):
    """Matrix contains NaN or Inf."""


class EmptyMatrix(VocabForgeError):
    """Operation requires at least one row."""


# --- adaptation --------------------------------------------------------


class DimensionMismatch(VocabForgeError):
    """Matrix/vector dimensions are inconsistent."""


class PartitionInconsistent(VocabForgeError):
    """TokenPartition does not match the vocabularies or matrices."""


class FallbackRequired(VocabForgeError):
    """A heuristic cannot produce a row; the fallback initializer applies."""


class DegenerateSimilarity(FallbackRequired):
    """All CLP weights vanished after the negative-similarity policy."""


class ZeroNormRow(VocabForgeError):
    """Cosine similarity is undefined for a zero-norm embedding row (a
    token, anchor or CLP helper row)."""


# --- affine alignment --------------------------------------------------


class EmptyIntersection(VocabForgeError):
    """No shared tokens, which CLP weights and SAVA fits its map on."""


class NonFiniteLoss(VocabForgeError):
    """Gradient training diverged."""


# --- analysis ----------------------------------------------------------


class EmptyCorpus(VocabForgeError):
    """Corpus contains no words."""


class MalformedCorpus(VocabForgeError):
    """A corpus file is not UTF-8 text."""


class InsufficientTokens(VocabForgeError):
    """Vocabulary has fewer prefix/non-prefix tokens than requested."""
