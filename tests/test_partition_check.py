"""One partition check for every entry point: a partition that does not
fit its matrices raises the same error, with the same message, from the
library fits, from the adaptation step and from `fit-map`, before any row
is read (`tokenizer.check_partition`)."""

import json
import re

import numpy as np
import pytest

from conftest import random_matrix, word_list_tokenizer
from vocabforge import (
    HeuristicConfig,
    TokenPartition,
    TrainConfig,
    adapt_matrix,
    collect_pairs,
    save_matrix,
)
from vocabforge import alignment
from vocabforge.cli import main
from vocabforge.errors import DimensionMismatch, PartitionInconsistent

SOURCE = ("a", "b", "c", "d", "e")
TARGET = ("a", "b", "c", "x", "y")
NOVEL = (("x", 3), ("y", 4))
CFG = TrainConfig(steps=1, batch=2)

# each fault: the partition's shared entries, the helper's row count, and
# the error; every other input is valid
FAULTS = {
    "repeated-target-id": (
        (("a", 0, 0), ("a", 0, 0), ("c", 2, 2)), 5, PartitionInconsistent,
        "target id 0 appears 2 times; the partition does not cover every "
        "target id"),
    "source-id-past-the-rows": (
        (("a", 9, 0), ("b", 1, 1), ("c", 2, 2)), 5, PartitionInconsistent,
        "source id 9 is outside the 5-row source matrix"),
    "helper-row-too-many": (
        (("a", 0, 0), ("b", 1, 1), ("c", 2, 2)), 6, DimensionMismatch,
        "helper matrix has 6 rows but the target vocabulary has 5 tokens; "
        "the helper must be trained with the target tokenizer"),
}


def adapt_sava(helper, source, part):
    return adapt_matrix(source, word_list_tokenizer(list(SOURCE)),
                        word_list_tokenizer(list(TARGET)), part, helper,
                        HeuristicConfig(method="sava"), CFG)


ENTRY_POINTS = {
    "fit_map": lambda h, s, p: alignment.fit_map(h, s, p, CFG),
    "train_map": lambda h, s, p: alignment.train_map(h, s, p, CFG),
    "collect_pairs": collect_pairs,
    "adapt_matrix": adapt_sava,
}


@pytest.mark.parametrize("entry, fault", [
    (entry, fault) for entry in ENTRY_POINTS for fault in FAULTS])
def test_library_entry_points_raise_the_same_error(entry, fault):
    shared, helper_rows, error, message = FAULTS[fault]
    rng = np.random.default_rng(0)
    helper = random_matrix(rng, helper_rows, 4)
    source = random_matrix(rng, len(SOURCE), 3)
    part = TokenPartition(shared=shared, novel=NOVEL)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](helper, source, part)


@pytest.mark.parametrize("fault", FAULTS)
def test_fit_map_command_names_the_partition(fault, tmp_path, capsys):
    shared, helper_rows, _, message = FAULTS[fault]
    rng = np.random.default_rng(0)
    paths = {name: str(tmp_path / f"{name}.emb1") for name in ("helper", "source")}
    save_matrix(random_matrix(rng, helper_rows, 4), paths["helper"])
    save_matrix(random_matrix(rng, len(SOURCE), 3), paths["source"])
    part_path = tmp_path / "partition.json"
    part_path.write_text(json.dumps(
        TokenPartition(shared=shared, novel=NOVEL).to_dict()), encoding="utf-8")
    code = main(["fit-map", "--helper-emb", paths["helper"],
                 "--source-emb", paths["source"], "--partition", str(part_path),
                 "--steps", "1", "--out", str(tmp_path / "map.bin")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {part_path}: {message}\n"
    assert not (tmp_path / "map.bin").exists()
