import io
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vocabforge import (
    EmbeddingMatrix,
    embeddings,
    load_matrix,
    save_matrix,
    stats,
)
from vocabforge.embeddings import HEADER_SIZE, MAGIC
from vocabforge.errors import (
    BadMagic,
    EmptyMatrix,
    NonFiniteValue,
    SizeMismatch,
)


def _raw_file(path, rows, dim, payload: bytes, magic=MAGIC):
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", rows, dim))
        fh.write(b"\x00" * 4)
        fh.write(payload)


def _through_pipe(tmp_path, data: bytes, read):
    """read(path) of a FIFO that a thread fills with data: its result, or
    the VocabForgeError it raised."""
    fifo = str(tmp_path / "pipe")
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = read(fifo)
    except (BadMagic, SizeMismatch) as exc:
        got = exc
    writer.join(timeout=10)
    assert not writer.is_alive()
    return got


class TestFormat:
    def test_minimal_file(self, tmp_path):
        path = str(tmp_path / "m.emb1")
        _raw_file(path, 2, 3, struct.pack("<6f", 1, 2, 3, 4, 5, 6))
        m = load_matrix(path)
        assert (m.rows, m.dim) == (2, 3)
        assert m.data.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_size_mismatch(self, tmp_path):
        path = str(tmp_path / "m.emb1")
        _raw_file(path, 4, 1, struct.pack("<3f", 1, 2, 3))
        with pytest.raises(SizeMismatch):
            load_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "m.emb1")
        _raw_file(path, 1, 2, struct.pack("<3f", 1, 2, 3))
        with pytest.raises(SizeMismatch, match="payload has 12 bytes"):
            load_matrix(path)

    def test_nan_rejected(self, tmp_path):
        path = str(tmp_path / "m.emb1")
        _raw_file(path, 1, 2, struct.pack("<2f", 1.0, float("nan")))
        with pytest.raises(NonFiniteValue):
            load_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "m.emb1")
        _raw_file(path, 1, 1, struct.pack("<f", 0.0), magic=b"NOPE")
        with pytest.raises(BadMagic):
            load_matrix(path)

    def test_roundtrip_byte_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        m = EmbeddingMatrix(rng.normal(size=(17, 5)).astype(np.float32))
        p1, p2 = str(tmp_path / "a.emb1"), str(tmp_path / "b.emb1")
        save_matrix(m, p1)
        save_matrix(load_matrix(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_matrix_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.emb1")
        save_matrix(EmbeddingMatrix(np.zeros((0, 7), dtype=np.float32)), path)
        m = load_matrix(path)
        assert (m.rows, m.dim) == (0, 7)

    @pytest.mark.parametrize("rows", [0, 3])
    def test_zero_width_rejected(self, tmp_path, rows):
        with pytest.raises(SizeMismatch, match="zero-width"):
            EmbeddingMatrix(np.zeros((rows, 0), dtype=np.float32))
        path = str(tmp_path / "narrow.emb1")
        _raw_file(path, rows, 0, b"")
        with pytest.raises(SizeMismatch, match="zero-width"):
            load_matrix(path)

    def test_file_size_arithmetic(self, tmp_path):
        # header is 16 bytes, then 4 bytes per float32
        assert HEADER_SIZE == 16
        path = str(tmp_path / "m.emb1")
        for rows, dim in [(0, 3), (1, 1), (9, 4)]:
            save_matrix(
                EmbeddingMatrix(np.zeros((rows, dim), dtype=np.float32)), path
            )
            import os
            assert os.path.getsize(path) == HEADER_SIZE + rows * dim * 4

    @pytest.mark.parametrize("rows, dim, payload, magic", [
        (2, 3, b"\x00" * 24, MAGIC),
        (1, 1, b"\x00" * 4, b"NOPE"),
        (4, 1, b"\x00" * 12, MAGIC),
        (1, 2, b"\x00" * 12, MAGIC),
        (3, 0, b"", MAGIC),
    ], ids=["valid", "magic", "short", "trailing", "zero-width"])
    def test_matrix_shape_checks_what_load_checks(self, tmp_path, rows, dim,
                                                  payload, magic):
        path = str(tmp_path / "m.emb1")
        _raw_file(path, rows, dim, payload, magic)
        try:
            want = load_matrix(path).data.shape
        except (BadMagic, SizeMismatch) as exc:
            with pytest.raises(type(exc)) as got:
                embeddings.matrix_shape(path)
            assert str(got.value) == str(exc)
        else:
            assert embeddings.matrix_shape(path) == want

    @pytest.mark.parametrize("payload", [b"\x00" * 24, b"\x00" * 20],
                             ids=["valid", "short"])
    def test_matrix_shape_reads_a_pipe_to_its_end(self, tmp_path, payload):
        record = tmp_path / "m.emb1"
        _raw_file(str(record), 2, 3, payload)
        got = _through_pipe(tmp_path, record.read_bytes(),
                            embeddings.matrix_shape)
        if len(payload) == 24:
            assert got == (2, 3)
        else:
            assert str(got) == f"{tmp_path / 'pipe'}: header claims 2x3 " \
                               f"(24 bytes), payload has 20 bytes"

    @pytest.mark.parametrize("floats", [6, 5, 7],
                             ids=["valid", "short", "trailing"])
    def test_load_matrix_reads_a_pipe_as_a_file(self, tmp_path, floats):
        record = str(tmp_path / "m.emb1")
        _raw_file(record, 2, 3, struct.pack(f"<{floats}f", *range(floats)))
        try:
            want = load_matrix(record).data
        except SizeMismatch as exc:
            want = exc
        with open(record, "rb") as fh:
            got = _through_pipe(tmp_path, fh.read(), load_matrix)
        if floats == 6:
            assert got.data.tobytes() == want.tobytes()
            assert got.data.shape == want.shape == (2, 3)
        else:
            assert type(got) is type(want)
            assert str(got) == str(want).replace(record, str(tmp_path / "pipe"))

    def test_one_dimensional_array_rejected(self):
        with pytest.raises(SizeMismatch,
                           match=r"^expected a 2-D matrix, got shape \(3,\)$"):
            EmbeddingMatrix(np.zeros(3, dtype=np.float32))

    def test_nonfinite_construction_rejected(self):
        with pytest.raises(NonFiniteValue):
            EmbeddingMatrix(np.array([[np.inf, 0.0]], dtype=np.float32))

    def test_wrapping_leaves_caller_array_writable(self):
        arr = np.zeros((3, 2), dtype=np.float32)
        emb = EmbeddingMatrix(arr)
        assert arr.flags.writeable
        assert not emb.data.flags.writeable
        assert np.shares_memory(arr, emb.data)
        with pytest.raises(ValueError):
            emb.data[0, 0] = 1.0
        arr[0, 0] = 5.0
        assert emb.data[0, 0] == 5.0


class TestBlockedPasses:
    """The finiteness check and record writes walk embeddings.row_blocks
    blocks; heights 1, 7 and the default must give the same result."""

    def test_block_rows_reads_its_budget_at_call_time(self, monkeypatch):
        assert embeddings.block_rows(8 * 512) == 1024  # 4 MiB by default
        monkeypatch.setattr(embeddings, "CACHE_BUDGET", 100)
        assert embeddings.block_rows(30) == 3
        assert embeddings.block_rows(30, 1000) == 33
        assert embeddings.block_rows(101) == 1  # never less than one row
        assert embeddings.block_rows(0) == 100

    @pytest.mark.parametrize("height", [1, 7, None])
    @pytest.mark.parametrize("row", [0, 10, 39], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_found_in_any_block(self, monkeypatch, height, row, bad):
        if height is not None:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * 6 * height)
        data = np.ones((40, 6), dtype=np.float32)
        EmbeddingMatrix(data, label="m")  # finite: every block passes
        data[row, 3] = bad
        with pytest.raises(NonFiniteValue,
                           match=r"^matrix 'm' contains NaN/Inf$"):
            EmbeddingMatrix(data, label="m")

    @pytest.mark.parametrize("height", [1, 7, None])
    @pytest.mark.parametrize("layout", ["<f4", "<f8", "fortran", ">f4"])
    def test_record_bytes_match_float32_payload(self, monkeypatch, height,
                                                layout):
        if height is not None:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * 5 * height)
        data = np.random.default_rng(9).normal(size=(23, 5))
        if layout == "fortran":
            array = np.asfortranarray(data.astype(np.float32))
        else:
            array = data.astype(layout)
        fh = io.BytesIO()
        embeddings.write_record(fh, array)
        assert fh.getvalue() == (MAGIC + struct.pack("<II", 23, 5)
                                 + b"\x00" * 4 + data.astype("<f4").tobytes())

    @pytest.mark.parametrize("shape", [(0, 1), (0, 5), (3, 1)])
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    def test_empty_and_one_column_matrices(self, shape, dtype):
        # a lone column is one block, however many rows (even none)
        data = np.arange(shape[0] * shape[1], dtype=dtype).reshape(shape)
        assert EmbeddingMatrix(data).data.shape == shape
        fh = io.BytesIO()
        embeddings.write_record(fh, data)
        assert fh.getvalue() == (MAGIC + struct.pack("<II", *shape)
                                 + b"\x00" * 4 + data.astype("<f4").tobytes())

    def test_save_matrix_writes_from_the_array(self, tmp_path):
        matrix = EmbeddingMatrix(np.ones((1024, 1024), dtype=np.float32))
        tracemalloc.start()
        try:
            save_matrix(matrix, str(tmp_path / "m.emb1"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix.data.nbytes // 16  # 4 MiB matrix

    def test_float64_record_converts_one_block_at_a_time(self, monkeypatch):
        monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * 512 * 16)
        data = np.ones((1024, 512))
        with open(os.devnull, "wb") as fh:
            tracemalloc.start()
            try:
                embeddings.write_record(fh, data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2 * 16 * 512 * 4  # tobytes() would hold 2 MiB


class TestStats:
    def test_two_point_symmetric(self):
        st = stats(EmbeddingMatrix(np.array([[1, 1], [3, 3]], dtype=np.float32)))
        assert st.mean.tolist() == [2, 2]
        assert st.variance.tolist() == [1, 1]
        assert st.scalar_mean == 2
        assert st.scalar_variance == 1

    def test_constant_matrix(self):
        st = stats(EmbeddingMatrix(np.full((5, 3), 4.25, dtype=np.float32)))
        assert st.variance.tolist() == [0, 0, 0]
        assert st.scalar_variance == 0

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrix):
            stats(EmbeddingMatrix(np.zeros((0, 2), dtype=np.float32)))

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(100, 8)).astype(np.float32)
        st = stats(EmbeddingMatrix(data))
        rows, dim = data.shape
        for j in range(dim):
            col = [float(data[i, j]) for i in range(rows)]
            mean = math.fsum(col) / rows
            var = math.fsum((x - mean) ** 2 for x in col) / rows
            assert abs(st.mean[j] - mean) < 1e-6
            assert abs(st.variance[j] - var) < 1e-6
        flat = [float(x) for x in data.ravel()]
        mean = math.fsum(flat) / len(flat)
        var = math.fsum((x - mean) ** 2 for x in flat) / len(flat)
        assert abs(st.scalar_mean - mean) < 1e-6
        assert abs(st.scalar_variance - var) < 1e-6

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20, 4)).astype(np.float32)
        st1 = stats(EmbeddingMatrix(data))
        st2 = stats(EmbeddingMatrix(data[rng.permutation(20)]))
        np.testing.assert_allclose(st1.mean, st2.mean, atol=1e-12)
        np.testing.assert_allclose(st1.variance, st2.variance, atol=1e-12)

    @pytest.mark.parametrize("rows_per_block", [1, 3, 7, None])
    def test_block_height_matches_float64_reference(self, monkeypatch,
                                                    rows_per_block):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(50, 8)).astype(np.float32)
        if rows_per_block:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", rows_per_block * 8 * 8)
        st = stats(EmbeddingMatrix(data))
        ref = data.astype(np.float64)
        assert np.array_equal(st.mean, ref.mean(axis=0))
        assert np.array_equal(st.variance, ref.var(axis=0))
        assert st.scalar_mean == pytest.approx(ref.mean(), rel=1e-12)
        assert st.scalar_variance == pytest.approx(ref.var(), rel=1e-12)

    def test_scalar_mean_is_mean_of_dim_means(self):
        rng = np.random.default_rng(5)
        st = stats(EmbeddingMatrix(rng.normal(size=(13, 6)).astype(np.float32)))
        assert abs(st.scalar_mean - st.mean.mean()) < 1e-12


def failing_write_record(fh, data):
    """Write a record's header and part of its payload, then fail."""
    fh.write(MAGIC + struct.pack("<II", *data.shape) + b"\x00" * 4)
    fh.write(np.ascontiguousarray(data[:1], dtype="<f4"))
    raise OSError("No space left on device")


class TestAtomicWrites:
    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.emb1")
        save_matrix(EmbeddingMatrix(np.ones((4, 3), dtype=np.float32)), path)
        before = Path(path).read_bytes()
        monkeypatch.setattr(embeddings, "write_record", failing_write_record)
        with pytest.raises(OSError, match="No space"):
            save_matrix(EmbeddingMatrix(np.zeros((9, 3), dtype=np.float32)),
                        path)
        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["m.emb1"]

    def test_failed_first_save_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "write_record", failing_write_record)
        with pytest.raises(OSError, match="No space"):
            save_matrix(EmbeddingMatrix(np.zeros((9, 3), dtype=np.float32)),
                        str(tmp_path / "m.emb1"))
        assert os.listdir(tmp_path) == []

    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = str(tmp_path / "out")
        Path(path).write_text("old")
        with pytest.raises(KeyboardInterrupt):
            with embeddings.atomic_open(path) as fh:
                fh.write(b"new")
                raise KeyboardInterrupt
        assert Path(path).read_text() == "old"
        with embeddings.atomic_open(path) as fh:
            fh.write(b"new")
        assert Path(path).read_text() == "new"
        assert os.listdir(tmp_path) == ["out"]

    def test_unwritable_path_is_named_as_given(self, tmp_path):
        # the temporary file beside it cannot be made: the error names the
        # path asked for, not the temporary file's name
        path = str(tmp_path / "missing" / "out.json")
        with pytest.raises(FileNotFoundError) as caught:
            with embeddings.atomic_open(path):
                pass
        assert caught.value.filename == path
        assert str(caught.value).endswith(f": {path!r}")
        assert os.listdir(tmp_path) == []

    def test_writes_through_a_symlink(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        with embeddings.atomic_open(str(link)) as fh:
            fh.write(b"new")
        assert link.is_symlink()
        assert real.read_text() == "new"
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]

    def test_pipe_is_written_directly(self, tmp_path):
        fifo = str(tmp_path / "pipe")
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        with embeddings.atomic_open(fifo) as fh:
            fh.write(b"streamed")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"streamed"]
        assert os.listdir(tmp_path) == ["pipe"]

    def test_stdout_that_is_a_pipe_is_written_directly(self):
        # /dev/stdout resolves to a name like /proc/<pid>/fd/pipe:[<inode>],
        # which does not exist: the pipe is found by following the links
        code = ("from vocabforge import embeddings\n"
                "with embeddings.atomic_open('/dev/stdout') as fh:\n"
                "    fh.write(b'streamed')\n")
        package_root = os.path.dirname(os.path.dirname(embeddings.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": package_root},
                              timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"streamed", b"")
