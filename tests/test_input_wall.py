"""Truncated and corrupted input files end in one typed error, never a
traceback: EMB1 matrices and partition files through `cli.main`, a saved
map's container and sidecar through `load_map`.

A file cut short or with a corrupted header must fail (exit 1 or 2, one
line on stderr). A byte changed inside JSON may still leave a valid file
(a digit of a number, say), so there any exit code may come back, but an
error is still one line and never a traceback.
"""

import contextlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocabforge import AffineMap, fit_closed_form, load_map, save_map
from vocabforge.cli import main
from vocabforge.embeddings import HEADER_SIZE, write_record
from vocabforge.errors import VocabForgeError

# Few examples per property: each one runs a whole CLI call or load.
EXAMPLES = settings(max_examples=40, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def emb1_bytes(rows, dim, seed):
    buf = io.BytesIO()
    rng = np.random.default_rng(seed)
    write_record(buf, rng.normal(size=(rows, dim)).astype(np.float32))
    return buf.getvalue()


def record_starts(data: bytes) -> list[int]:
    """Offsets of the EMB1 records one after another in data."""
    starts, pos = [], 0
    while pos < len(data):
        starts.append(pos)
        rows, dim = struct.unpack("<II", data[pos + 4:pos + 12])
        pos += HEADER_SIZE + 4 * rows * dim
    return starts


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs, and where corrupted copies of them are written."""
    root = tmp_path_factory.mktemp("wall")
    paths = {"root": root}
    for name, rows, dim in (("helper", 8, 3), ("source", 6, 4)):
        paths[name] = root / f"{name}.emb1"
        paths[name].write_bytes(emb1_bytes(rows, dim, seed=rows))
    paths["partition"] = json.dumps({
        "shared": [[f"t{i}", i, i + 2] for i in range(6)],
        "novel": [["n0", 0], ["n1", 1]],
        "warnings": [],
    }).encode()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 3))
    save_map(fit_closed_form(x, x @ rng.normal(size=(3, 2)) + 1.0),
             str(root / "good.map"))
    paths["container"] = (root / "good.map").read_bytes()
    paths["sidecar"] = (root / "good.map.json").read_bytes()
    return paths


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err, must_fail=True):
    """Exit 0 (only when allowed), or exit 1 or 2 with one stderr line."""
    if code == 0 and not must_fail:
        return
    assert code in (1, 2), (code, err)
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err


# --- EMB1 matrices through the CLI --------------------------------------

MATRIX = emb1_bytes(5, 3, seed=0)


@EXAMPLES
@given(cut=st.integers(0, len(MATRIX) - 1))
def test_truncated_matrix(files, cut):
    path = files["root"] / "cut.emb1"
    path.write_bytes(MATRIX[:cut])
    check_outcome(*run_cli("stats", "--matrix", path))


@EXAMPLES
@given(pos=st.integers(0, 11), flip=st.integers(1, 255))
def test_corrupt_matrix_header(files, pos, flip):
    # magic, rows or dim: a changed shape no longer fits the payload
    data = bytearray(MATRIX)
    data[pos] ^= flip
    path = files["root"] / "header.emb1"
    path.write_bytes(bytes(data))
    check_outcome(*run_cli("stats", "--matrix", path, "--json"))


# --- partition JSON through fit-map -------------------------------------


def fit_map_with(files, partition: bytes):
    path = files["root"] / "part.json"
    path.write_bytes(partition)
    return run_cli("fit-map", "--helper-emb", files["helper"],
                   "--source-emb", files["source"], "--partition", path,
                   "--steps", "1", "--out", files["root"] / "fit.map")


@EXAMPLES
@given(data=st.data())
def test_truncated_partition(files, data):
    text = files["partition"]
    cut = data.draw(st.integers(0, len(text) - 1))
    check_outcome(*fit_map_with(files, text[:cut]))


@EXAMPLES
@given(data=st.data())
def test_corrupt_partition_byte(files, data):
    text = bytearray(files["partition"])
    text[data.draw(st.integers(0, len(text) - 1))] ^= data.draw(st.integers(1, 255))
    check_outcome(*fit_map_with(files, bytes(text)), must_fail=False)


@EXAMPLES
@given(where=st.sampled_from(["shared", "novel", "warnings", "an entry"]),
       entry=st.integers(0, 5), field=st.integers(0, 2), value=JSON_VALUES)
def test_partition_value_replaced(files, where, entry, field, value):
    doc = json.loads(files["partition"])
    if where == "an entry":
        doc["shared"][entry][field] = value
    else:
        doc[where] = value
    check_outcome(*fit_map_with(files, json.dumps(doc).encode()), must_fail=False)


# --- a saved map through load_map ---------------------------------------


def load_written(files, container: bytes, sidecar: bytes, must_fail=True):
    path = files["root"] / "probe.map"
    path.write_bytes(container)
    Path(f"{path}.json").write_bytes(sidecar)
    try:
        phi = load_map(str(path))
    except (VocabForgeError, OSError) as exc:
        assert "\n" not in str(exc)
        return
    assert not must_fail, "a damaged map loaded"
    assert isinstance(phi, AffineMap)


@EXAMPLES
@given(data=st.data())
def test_truncated_container(files, data):
    container = files["container"]
    cut = data.draw(st.integers(0, len(container) - 1))
    load_written(files, container[:cut], files["sidecar"])


@EXAMPLES
@given(data=st.data())
def test_corrupt_container_header(files, data):
    # magic, rows or dim of any record
    container = bytearray(files["container"])
    start = data.draw(st.sampled_from(record_starts(files["container"])))
    container[start + data.draw(st.integers(0, 11))] ^= data.draw(st.integers(1, 255))
    load_written(files, bytes(container), files["sidecar"])


@EXAMPLES
@given(extra=st.binary(min_size=1, max_size=64))
def test_container_trailing_bytes(files, extra):
    load_written(files, files["container"] + extra, files["sidecar"])


@EXAMPLES
@given(data=st.data())
def test_truncated_sidecar(files, data):
    text = files["sidecar"].rstrip()  # a JSON object ends at its "}"
    cut = data.draw(st.integers(0, len(text) - 1))
    load_written(files, files["container"], text[:cut])


@EXAMPLES
@given(data=st.data())
def test_corrupt_sidecar_byte(files, data):
    text = bytearray(files["sidecar"])
    text[data.draw(st.integers(0, len(text) - 1))] ^= data.draw(st.integers(1, 255))
    load_written(files, files["container"], bytes(text), must_fail=False)


@EXAMPLES
@given(data=st.data(), value=JSON_VALUES)
def test_sidecar_value_replaced(files, data, value):
    meta = json.loads(files["sidecar"])
    meta[data.draw(st.sampled_from(sorted(meta)))] = value
    load_written(files, files["container"], json.dumps(meta).encode(),
                 must_fail=False)
