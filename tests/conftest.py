import json
import os

import numpy as np
import pytest
from hypothesis import settings

from vocabforge import (
    EmbeddingMatrix,
    MarkerConvention,
    TokenizerModel,
    Vocabulary,
    save_matrix,
)

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
    """Tokenizer whose alphabet is always encodable, plus optional merges."""
    tokens = list(alphabet)
    if marker.marker:
        tokens.insert(0, marker.marker)
    tokens += [t for t in extra_tokens if t not in tokens]
    for a, b in merges:
        if a + b not in tokens:
            tokens.append(a + b)
    vocab = vocab_of(tokens)
    unk_id = vocab.token_to_id[unk_token] if unk_token else None
    return TokenizerModel.build(vocab, list(merges), marker, byte_level, unk_id)


def word_list_tokenizer(names, marker=NONE):
    """Vocabulary of opaque multi-character tokens, no merges.

    Good enough for partition/adaptation paths that never tokenize text.
    """
    return TokenizerModel.build(vocab_of(names), [], marker)


def random_matrix(rng, rows, dim, label=""):
    return EmbeddingMatrix(
        rng.normal(size=(rows, dim)).astype(np.float32), label=label
    )


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
