"""Truncated and corrupted input files end in one typed error, never a
traceback: EMB1 matrices, partition files, vocab, merges, corpus and
`--config` files through `cli.main`.

A file cut short or with a corrupted header must fail (exit 1 or 2, one
line on stderr). A byte changed inside JSON may still leave a valid file
(a digit of a number, say), so there any exit code may come back, but an
error is still one line and never a traceback.
"""

import contextlib
import io
import json
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocabforge import embeddings, heuristics
from vocabforge.cli import main
from vocabforge.embeddings import HEADER_SIZE, write_record

# Few examples per property: each one runs a whole CLI call or load.
EXAMPLES = settings(max_examples=40, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# A byte-level tokenizer with merges across the word-boundary marker; the
# corpus has a character ("é") that only its byte tokens encode.
VOCAB = {tok: i for i, tok in enumerate(
    ["<unk>", "▁", "a", "b", "c", "▁a", "ab", "▁ab", "ca", "<0xC3>", "<0xA9>"])}
MERGES = "#version: 0.2\n▁ a\na b\n▁a b\nc a\n"


def emb1_bytes(rows, dim, seed):
    buf = io.BytesIO()
    rng = np.random.default_rng(seed)
    write_record(buf, rng.normal(size=(rows, dim)).astype(np.float32))
    return buf.getvalue()


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
    paths["vocab"] = json.dumps(VOCAB, ensure_ascii=False).encode()
    paths["merges"] = MERGES.encode()
    paths["corpus"] = root / "corpus.txt"
    paths["corpus"].write_text("abc cab\nbab ab é\n", encoding="utf-8")
    for name in ("vocab", "merges"):
        (root / f"valid_{name}").write_bytes(paths[name])
    paths["config"] = json.dumps({
        "vocab": str(root / "valid_vocab"), "merges": str(root / "valid_merges"),
        "corpus": str(paths["corpus"]), "marker": "meta-space",
        "byte_level": True, "unk_token": "<unk>",
    }, ensure_ascii=False).encode()
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


def cut(data, text: bytes) -> bytes:
    """text cut short at a drawn length."""
    return text[:data.draw(st.integers(0, len(text) - 1))]


def flip(data, text: bytes) -> bytes:
    """text with one drawn byte changed."""
    text = bytearray(text)
    text[data.draw(st.integers(0, len(text) - 1))] ^= data.draw(st.integers(1, 255))
    return bytes(text)


# --- EMB1 matrices through the CLI --------------------------------------

MATRIX = emb1_bytes(5, 3, seed=0)


@EXAMPLES
@given(cut=st.integers(0, len(MATRIX) - 1))
def test_truncated_matrix(files, cut):
    path = files["root"] / "cut.emb1"
    path.write_bytes(MATRIX[:cut])
    check_outcome(*run_cli("stats", "--matrix", path))


@EXAMPLES
@given(pos=st.integers(0, 15), flip=st.integers(1, 255))
def test_corrupt_matrix_header(files, pos, flip):
    # magic, rows, dim or the reserved zero bytes: a changed shape no
    # longer fits the payload
    data = bytearray(MATRIX)
    data[pos] ^= flip
    path = files["root"] / "header.emb1"
    path.write_bytes(bytes(data))
    check_outcome(*run_cli("stats", "--matrix", path, "--json"))


def test_similarity_vocab_larger_than_matrices(files):
    # anchors drawn from a 40-token vocabulary would index past 8 rows
    vocab = files["root"] / "vocab40.json"
    tokens = [f"▁w{i}" for i in range(20)] + [f"w{i}" for i in range(20)]
    vocab.write_text(json.dumps({t: i for i, t in enumerate(tokens)}),
                     encoding="utf-8")
    assert run_cli(
        "similarity", "--emb-a", files["helper"], "--emb-b", files["helper"],
        "--vocab", vocab, "--n-prefix", "4", "--n-nonprefix", "4",
    ) == (1, "", "error: the vocabulary has 40 tokens but the matrices have "
                 "8 rows; they must index the same tokens\n")


# --- an untied model's matrices through adapt --------------------------


@pytest.fixture
def untied(tmp_path):
    """An untied model that `adapt_argv` adapts with a given head."""
    source = [f"s{i}" for i in range(8)]
    for name, tokens in (("source", source), ("target", source[:6] + ["n0"])):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({t: i for i, t in enumerate(tokens)}), encoding="utf-8")
    (tmp_path / "merges.txt").write_text("", encoding="utf-8")
    (tmp_path / "embed.emb1").write_bytes(emb1_bytes(8, 4, seed=1))
    (tmp_path / "head.emb1").write_bytes(emb1_bytes(8, 4, seed=2))
    return tmp_path


def adapt_argv(root, head, seed):
    return ["adapt", "--method", "random", "--seed", seed,
            "--source-emb", root / "embed.emb1", "--source-head-emb", head,
            "--source-vocab", root / "source.json",
            "--target-vocab", root / "target.json",
            "--source-merges", root / "merges.txt",
            "--target-merges", root / "merges.txt",
            "--source-marker", "none", "--target-marker", "none",
            "--out", root / "out.emb1", "--out-head", root / "out_head.emb1",
            "--report", root / "report.json"]


def adapt_bad_head(root, monkeypatch, head: bytes):
    """adapt with a damaged head over a run with the good one: its outcome,
    the outputs of both runs, the files left and the adapt_matrix calls."""
    assert run_cli(*adapt_argv(root, root / "head.emb1", 1))[0] == 0
    outputs = [root / name for name in ("out.emb1", "out_head.emb1",
                                        "report.json")]
    before = [p.read_bytes() for p in outputs]
    (root / "bad_head.emb1").write_bytes(head)
    listing = sorted(os.listdir(root))
    calls = []
    real = heuristics.adapt_matrix

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(heuristics, "adapt_matrix", spy)
    outcome = run_cli(*adapt_argv(root, root / "bad_head.emb1", 2))
    after = [p.read_bytes() for p in outputs]
    return outcome, before, after, sorted(os.listdir(root)) == listing, calls


@pytest.mark.parametrize("damage, message", [
    (lambda head: head[:100],
     "header claims 8x4 (128 bytes), payload has 84 bytes"),
    (lambda head: b"EMB2" + head[4:], "not an EMB1 record"),
], ids=["truncated", "magic"])
def test_bad_head_header_stops_adapt_before_any_row(untied, monkeypatch,
                                                    damage, message):
    head = damage((untied / "head.emb1").read_bytes())
    outcome, before, after, same_files, calls = adapt_bad_head(
        untied, monkeypatch, head)
    path = untied / "bad_head.emb1"
    assert outcome == (1, "", f"error: {path}: {message}\n")
    assert after == before  # --out, --out-head and --report
    assert same_files  # no temporary file left
    assert calls == []


OUTPUTS = ("out.emb1", "out_head.emb1")


def run_reading_pipe(argv, pipe, data: bytes):
    """run_cli(*argv) while another thread writes data into the new pipe at
    `pipe`; both must end within a timeout."""
    os.mkfifo(pipe)

    def write():
        with contextlib.suppress(BrokenPipeError), open(pipe, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    result = []
    adapt = threading.Thread(target=lambda: result.append(run_cli(*argv)),
                             daemon=True)
    adapt.start()
    adapt.join(timeout=30)
    writer.join(timeout=10)
    assert not adapt.is_alive() and not writer.is_alive()
    return result[0]


def test_piped_source_is_read_once(untied):
    # the header pass skips a pipe whose rows are loaded: reading it there
    # would leave load_matrix waiting for a second writer
    assert run_cli(*adapt_argv(untied, untied / "head.emb1", 1))[0] == 0
    want = [(untied / name).read_bytes() for name in OUTPUTS]
    fifo = untied / "embed.pipe"
    argv = adapt_argv(untied, untied / "head.emb1", 1)
    argv[argv.index(untied / "embed.emb1")] = fifo
    result = run_reading_pipe(argv, fifo, (untied / "embed.emb1").read_bytes())
    assert result[0] == 0
    assert [(untied / name).read_bytes() for name in OUTPUTS] == want


@pytest.mark.parametrize("method", ["random", "clp", "sava"])
def test_piped_helper_of_both_matrices_is_read_once(untied, method):
    # with no --helper-head-emb the helper serves both matrices: its header
    # is read once (random) or its rows are loaded once (clp, sava)
    helper = untied / "helper.emb1"
    helper.write_bytes(emb1_bytes(7, 4, seed=3))

    def argv(path):
        args = adapt_argv(untied, untied / "head.emb1", 1)
        args[args.index("random")] = method
        return args + ["--helper-emb", path] + (
            ["--steps", "2"] if method == "sava" else [])

    assert run_cli(*argv(helper))[0] == 0
    want = [(untied / name).read_bytes() for name in OUTPUTS]
    for name in OUTPUTS:
        (untied / name).unlink()
    fifo = untied / "helper.pipe"
    result = run_reading_pipe(argv(fifo), fifo, helper.read_bytes())
    assert result[0] == 0, result
    assert [(untied / name).read_bytes() for name in OUTPUTS] == want


def outputs_through_one_pipe(monkeypatch, argv, path, outputs):
    """Run argv, which names the matrix file `path` twice, then again with
    both names replaced by one pipe that is fed path's bytes once. Both
    runs must exit 0, and the piped one must load each distinct path once.
    Returns the bytes of `outputs` after each run."""
    assert run_cli(*argv)[0] == 0
    want = [Path(name).read_bytes() for name in outputs]
    for name in outputs:
        Path(name).unlink()
    fifo = path.with_suffix(".pipe")
    loads = []
    real = embeddings.load_matrix

    def spy(name):
        loads.append(name)
        return real(name)

    monkeypatch.setattr(embeddings, "load_matrix", spy)
    piped = [fifo if arg == path else arg for arg in argv]
    result = run_reading_pipe(piped, fifo, path.read_bytes())
    assert result[0] == 0, result
    assert str(fifo) in loads and len(loads) == len(set(loads)), loads
    return want, [Path(name).read_bytes() for name in outputs]


@pytest.mark.parametrize("method", ["random", "sava"])
def test_piped_source_of_both_matrices_is_read_once(untied, monkeypatch, method):
    # one file as the embedding matrix and as the head
    embed = untied / "embed.emb1"
    (untied / "helper.emb1").write_bytes(emb1_bytes(7, 4, seed=3))
    argv = adapt_argv(untied, embed, 1)
    argv[argv.index("random")] = method
    if method == "sava":
        argv += ["--helper-emb", untied / "helper.emb1", "--steps", "2"]
    want, got = outputs_through_one_pipe(monkeypatch, argv, embed,
                                         [untied / name for name in OUTPUTS])
    assert got == want


def test_piped_source_that_is_also_the_helper(untied, monkeypatch):
    # random reads no helper row, so the header pass would read a helper's
    # header; a pipe that is also the source is checked once it is loaded
    embed = untied / "embed.emb1"
    argv = adapt_argv(untied, untied / "head.emb1", 1) + ["--helper-emb", embed]
    fifo = untied / "embed.pipe"
    piped = [fifo if arg == embed else arg for arg in argv]
    message = ("error: helper matrix has 8 rows but the target vocabulary has "
               "7 tokens; the helper must be trained with the target tokenizer\n")
    assert run_cli(*argv) == (1, "", message)
    assert run_reading_pipe(piped, fifo, embed.read_bytes()) == (1, "", message)
    assert not any((untied / name).exists() for name in OUTPUTS)
    fifo.unlink()
    # with one target token per source token the helper fits
    (untied / "target.json").write_text(json.dumps(
        {t: i for i, t in enumerate([f"s{i}" for i in range(6)] + ["n0", "n1"])}),
        encoding="utf-8")
    want, got = outputs_through_one_pipe(monkeypatch, argv, embed,
                                         [untied / name for name in OUTPUTS])
    assert got == want


def test_piped_matrix_of_both_similarity_sides_is_read_once(files, tmp_path,
                                                            monkeypatch):
    vocab = tmp_path / "vocab8.json"
    tokens = [f"▁w{i}" for i in range(4)] + [f"w{i}" for i in range(4)]
    vocab.write_text(json.dumps({t: i for i, t in enumerate(tokens)}),
                     encoding="utf-8")
    matrix, report = tmp_path / "m.emb1", tmp_path / "report.json"
    matrix.write_bytes(files["helper"].read_bytes())
    want, got = outputs_through_one_pipe(monkeypatch, [
        "similarity", "--emb-a", matrix, "--emb-b", matrix, "--vocab", vocab,
        "--n-prefix", "2", "--n-nonprefix", "2", "--out", report,
    ], matrix, [report])
    # the config entry names the inputs, a file in one run, a pipe in the other
    assert [json.loads(text)["similarity"] for text in got] == \
        [json.loads(text)["similarity"] for text in want]


def test_piped_helper_and_source_of_fit_map_is_read_once(files, tmp_path,
                                                         monkeypatch):
    # the 8-row helper is also a source for the partition's source ids 0..5
    matrix, part = tmp_path / "m.emb1", tmp_path / "part.json"
    matrix.write_bytes(files["helper"].read_bytes())
    part.write_bytes(files["partition"])
    out = tmp_path / "fit.map"
    want, got = outputs_through_one_pipe(monkeypatch, [
        "fit-map", "--helper-emb", matrix, "--source-emb", matrix,
        "--partition", part, "--steps", "2", "--out", out,
    ], matrix, [out, tmp_path / "fit.map.json"])
    assert got == want


def test_piped_vocabulary_of_both_intersect_sides_is_read_once(files, tmp_path):
    vocab, report = tmp_path / "vocab.json", tmp_path / "report.json"
    vocab.write_bytes(files["vocab"])

    def argv(path):
        return ["intersect", "--source-vocab", path, "--target-vocab", path,
                "--target-marker", "byte-marker", "--out", report]

    assert run_cli(*argv(vocab)) == (0, "", "")
    want = json.loads(report.read_text(encoding="utf-8"))
    report.unlink()
    fifo = tmp_path / "vocab.pipe"
    assert run_reading_pipe(argv(fifo), fifo, files["vocab"]) == (0, "", "")
    got = json.loads(report.read_text(encoding="utf-8"))
    # the config entry names the input, a file in one run, a pipe in the other
    del want["config"], got["config"]
    assert got == want


def test_piped_merges_that_are_not_utf8_are_read_once(files, tmp_path):
    # the error is found by replaying the bytes already read, not by a
    # second open, which would wait for a second writer
    merges = files["merges"] + b"\xff b\n"
    vocab, plain = tmp_path / "vocab.json", tmp_path / "merges.txt"
    vocab.write_bytes(files["vocab"])
    plain.write_bytes(merges)

    def argv(path):
        return ["fertility", "--vocab", vocab, "--merges", path,
                "--corpus", files["corpus"]]

    code, out, err = run_cli(*argv(plain))
    assert (code, out) == (1, "") and "not UTF-8 text" in err
    fifo = tmp_path / "merges.pipe"
    assert run_reading_pipe(argv(fifo), fifo, merges) == (
        1, "", err.replace(str(plain), str(fifo)))


def test_nonfinite_head_is_found_when_its_rows_are_read(untied, monkeypatch):
    # Finiteness needs every row, so a NaN in the head is found after the
    # embedding matrix is adapted and written to its temporary file; no
    # output replaces its path, and no temporary file is left.
    head = bytearray((untied / "head.emb1").read_bytes())
    head[HEADER_SIZE + 4 * 13:HEADER_SIZE + 4 * 14] = struct.pack("<f", np.nan)
    outcome, before, after, same_files, calls = adapt_bad_head(
        untied, monkeypatch, bytes(head))
    path = untied / "bad_head.emb1"
    assert outcome == (1, "", f"error: matrix {str(path)!r} contains NaN/Inf\n")
    assert after == before  # --out, --out-head and --report
    assert same_files
    assert len(calls) == 1


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
    check_outcome(*fit_map_with(files, cut(data, files["partition"])))


@EXAMPLES
@given(data=st.data())
def test_corrupt_partition_byte(files, data):
    check_outcome(*fit_map_with(files, flip(data, files["partition"])),
                  must_fail=False)


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


HELPER_ROWS = ("helper matrix has 8 rows but the target vocabulary has 9 "
               "tokens; the helper must be trained with the target tokenizer")


@pytest.mark.parametrize("shared_extra, novel, message", [
    # the first shared entry repeated: its pair would be fitted twice
    ([0], [["n0", 0], ["n1", 1]], HELPER_ROWS),
    # a novel id past the 8-row helper
    ([], [["n0", 0], ["n1", 1], ["zz", 1000000]], HELPER_ROWS),
    # the same two edits with the row count kept
    ([0], [["n0", 0]], "target id 2 appears 2 times; the partition does not "
                       "cover every target id"),
    ([], [["n0", 0], ["zz", 1000000]],
     "target id 1000000 is outside the 8-token target"),
], ids=["shared-repeated", "novel-added", "shared-repeated-same-rows",
        "novel-replaced"])
def test_partition_adapt_would_reject(files, shared_extra, novel, message):
    # fit-map checks the partition as adapt does, before the fit
    doc = json.loads(files["partition"])
    doc["shared"] += [doc["shared"][i] for i in shared_extra]
    doc["novel"] = novel
    (files["root"] / "fit.map").unlink(missing_ok=True)
    code, out, err = fit_map_with(files, json.dumps(doc).encode())
    assert (code, out) == (1, "")
    assert err == f"error: {files['root'] / 'part.json'}: {message}\n"
    assert not (files["root"] / "fit.map").exists()


def test_source_id_past_the_source_matrix(files):
    doc = json.loads(files["partition"])
    doc["shared"][3][1] = 6
    code, out, err = fit_map_with(files, json.dumps(doc).encode())
    assert (code, out) == (1, "")
    assert err == (f"error: {files['root'] / 'part.json'}: source id 6 is "
                   f"outside the 6-row source matrix\n")


def test_partition_id_past_int64(files):
    doc = json.loads(files["partition"])
    doc["novel"][1][1] = 2**70
    code, out, err = fit_map_with(files, json.dumps(doc).encode())
    assert (code, out) == (1, "")
    assert err == (f"error: {files['root'] / 'part.json'}: a partition id is "
                   f"past the int64 range, outside every matrix\n")


# --- vocab and merges files through fertility and intersect ------------


def fertility_with(files, vocab=None, merges=None, corpus=None):
    root = files["root"]
    (root / "vocab.json").write_bytes(files["vocab"] if vocab is None else vocab)
    (root / "merges.txt").write_bytes(files["merges"] if merges is None else merges)
    corpus_path = files["corpus"]
    if corpus is not None:
        corpus_path = root / "damaged_corpus.txt"
        corpus_path.write_bytes(corpus)
    return run_cli("fertility", "--vocab", root / "vocab.json",
                   "--merges", root / "merges.txt", "--corpus", corpus_path,
                   "--byte-level", "--unk-token", "<unk>")


def fertility_configured(files, config: bytes):
    path = files["root"] / "config.json"
    path.write_bytes(config)
    return run_cli("fertility", "--config", path)


def intersect_with(files, vocab: bytes, side: str):
    root = files["root"]
    (root / "good.json").write_bytes(files["vocab"])
    (root / "damaged.json").write_bytes(vocab)
    paths = {"source": root / "good.json", "target": root / "good.json",
             side: root / "damaged.json"}
    return run_cli("intersect", "--source-vocab", paths["source"],
                   "--target-vocab", paths["target"])


def test_valid_tokenizer_files_pass(files):
    code, out, err = fertility_with(files)
    assert (code, err) == (0, "")
    assert json.loads(out)["fertility"]["token_count"] == 12  # 2+3+3+1+3
    code, out, err = intersect_with(files, files["vocab"], "target")
    assert (code, err) == (0, "")
    assert json.loads(out)["shared_count"] == len(VOCAB)
    code, out, err = fertility_configured(files, files["config"])
    assert (code, err) == (0, "")
    assert json.loads(out)["fertility"]["token_count"] == 12


@EXAMPLES
@given(data=st.data())
def test_truncated_vocab(files, data):
    # a JSON object cut before its closing brace never parses
    check_outcome(*fertility_with(files, vocab=cut(data, files["vocab"])))


@EXAMPLES
@given(data=st.data())
def test_corrupt_vocab_byte(files, data):
    check_outcome(*fertility_with(files, vocab=flip(data, files["vocab"])),
                  must_fail=False)


@EXAMPLES
@given(data=st.data())
def test_truncated_merges(files, data):
    # a cut at a line end leaves a shorter valid merges file
    check_outcome(*fertility_with(files, merges=cut(data, files["merges"])),
                  must_fail=False)


@EXAMPLES
@given(data=st.data())
def test_corrupt_merges_byte(files, data):
    check_outcome(*fertility_with(files, merges=flip(data, files["merges"])),
                  must_fail=False)


@EXAMPLES
@given(data=st.data())
def test_truncated_corpus(files, data):
    # a cut at a line end, or anywhere but inside "é", leaves a valid
    # corpus; the empty corpus has no words
    check_outcome(*fertility_with(files, corpus=cut(
        data, files["corpus"].read_bytes())), must_fail=False)


@EXAMPLES
@given(data=st.data())
def test_corrupt_corpus_byte(files, data):
    check_outcome(*fertility_with(files, corpus=flip(
        data, files["corpus"].read_bytes())), must_fail=False)


def test_non_utf8_corpus_names_the_file(files):
    code, out, err = fertility_with(files, corpus=b"\xff\xfe abc\n")
    check_outcome(code, out, err)
    assert err.startswith(f"error: {files['root'] / 'damaged_corpus.txt'}: "
                          f"not UTF-8 text: ")


@EXAMPLES
@given(data=st.data())
def test_truncated_config(files, data):
    # a JSON object cut before its closing brace never parses
    check_outcome(*fertility_configured(files, cut(data, files["config"])))


@EXAMPLES
@given(data=st.data())
def test_corrupt_config_byte(files, data):
    # a changed key, path, choice or switch, or text that no longer parses
    check_outcome(*fertility_configured(files, flip(data, files["config"])),
                  must_fail=False)


@EXAMPLES
@given(data=st.data(), side=st.sampled_from(["source", "target"]))
def test_truncated_vocab_intersect(files, data, side):
    check_outcome(*intersect_with(files, cut(data, files["vocab"]), side))


@EXAMPLES
@given(data=st.data(), side=st.sampled_from(["source", "target"]))
def test_corrupt_vocab_byte_intersect(files, data, side):
    check_outcome(*intersect_with(files, flip(data, files["vocab"]), side),
                  must_fail=False)

