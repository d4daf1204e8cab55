"""EMB1 embedding matrix storage and moment statistics.

EMB1 is a deliberately simple binary layout:

    offset 0   magic  b"EMB1"
    offset 4   rows   uint32 little-endian
    offset 8   dim    uint32 little-endian
    offset 12  reserved, 4 zero bytes (pads the header to 16)
    offset 16  rows*dim IEEE-754 float32 little-endian, row-major

Files round-trip bit-exactly; non-finite values are rejected on both
load and save.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, EmptyMatrix, NonFiniteValue, SizeMismatch

MAGIC = b"EMB1"
HEADER_SIZE = 16
# Bytes of float64 working rows per block in the whole-vocabulary passes
# (stats, CLP, FVT, the finiteness check and record writes): caps their
# memory whatever the vocabulary size. CLP re-reads all shared rows once
# per block, so it wants tall blocks. Read at call time (patchable).
BUDGET = 16 << 20
# Bytes of the per-block working set of `relative_similarity` and of the
# SAVA fit's statistics, Adam chunks and sums. Each block is used once,
# so it is kept small: blocks of tens of MB miss the cache and map fresh
# pages on every block, while blocks under ~1 MiB pay per-block overhead
# and short GEMMs. 4 MiB is where a 256 KiB-16 MiB sweep on the benchmark
# workloads stopped improving. Read at call time, so it can be patched.
CACHE_BUDGET = 4 << 20


def block_rows(dim: int) -> int:
    """Rows of a `dim`-wide block that hold BUDGET bytes of float64."""
    return max(1, BUDGET // (8 * max(dim, 1)))


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A |V| x d float32 matrix; row i is the embedding of token id i."""

    data: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise SizeMismatch(f"expected a 2-D matrix, got shape {arr.shape}")
        if arr.shape[1] == 0:
            raise SizeMismatch(f"matrix {self.label!r} has zero-width rows")
        step = block_rows(arr.shape[1])
        for lo in range(0, arr.shape[0], step):
            if not np.isfinite(arr[lo:lo + step]).all():
                raise NonFiniteValue(f"matrix {self.label!r} contains NaN/Inf")
        # Freeze a view, not the caller's array (which ascontiguousarray
        # returns as-is when it is already C-contiguous float32).
        arr = arr.view()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class EmbeddingStats:
    """Per-dimension and scalar moments of an embedding matrix.

    Variances are population variances (denominator = rows).
    """

    mean: np.ndarray
    variance: np.ndarray
    scalar_mean: float
    scalar_variance: float


def write_record(fh, data: np.ndarray) -> None:
    """Write one EMB1 record (header + payload) of a 2-D array.

    A C-contiguous little-endian float32 array is written from its own
    buffer; any other array is converted BUDGET bytes of float64 rows at
    a time, so neither holds a second copy of the payload.
    """
    data = np.asarray(data)
    fh.write(MAGIC)
    fh.write(struct.pack("<II", data.shape[0], data.shape[1]))
    fh.write(b"\x00\x00\x00\x00")
    if data.dtype == np.dtype("<f4") and data.flags.c_contiguous:
        fh.write(data)
        return
    step = block_rows(data.shape[1])
    for lo in range(0, data.shape[0], step):
        fh.write(np.ascontiguousarray(data[lo:lo + step], dtype="<f4"))


def _read_header(fh, path: str) -> tuple[int, int]:
    header = fh.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE or header[:4] != MAGIC:
        raise BadMagic(f"{path}: not an EMB1 record")
    if any(header[12:]):
        raise BadMagic(f"{path}: EMB1 reserved header bytes 12-15 are not zero")
    return struct.unpack("<II", header[4:12])


def _check_payload(path: str, rows: int, dim: int, found: int) -> None:
    expected = rows * dim * 4
    if found != expected:
        raise SizeMismatch(
            f"{path}: header claims {rows}x{dim} ({expected} bytes), "
            f"payload has {found} bytes"
        )


def read_record(fh, path: str, last: bool = False) -> np.ndarray:
    """Read one EMB1 record at the file position as a read-only float32 array.

    The payload is read no further than the file goes, whatever the header
    claims; with `last` it must also end the file.
    """
    rows, dim = _read_header(fh, path)
    expected = rows * dim * 4
    # An exact-size read fills one buffer; read() after the buffered header
    # would join two and hold the payload twice.
    size = os.fstat(fh.fileno()).st_size  # 0 for a pipe: read to the end
    payload = fh.read(min(expected, size - fh.tell()) if size else None)
    found = len(payload)
    if last and found == expected:
        found += len(fh.read())
    _check_payload(path, rows, dim, found)
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim)


def matrix_shape(path: str) -> tuple[int, int]:
    """(rows, dim) of an EMB1 file, without reading its rows.

    Checks the magic, that the payload holds rows x dim floats and that
    dim > 0, with load_matrix's errors; unlike load_matrix, it does not
    check that the values are finite.
    """
    with open(path, "rb") as fh:
        rows, dim = _read_header(fh, path)
        size = os.fstat(fh.fileno()).st_size  # 0 for a pipe: read to the end
        if size:
            found = size - HEADER_SIZE
        else:
            found = sum(map(len, iter(lambda: fh.read(BUDGET), b"")))
    _check_payload(path, rows, dim, found)
    if dim == 0:
        raise SizeMismatch(f"matrix {path!r} has zero-width rows")
    return rows, dim


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Open a file whose contents replace `path` when the block completes.

    Writes go to a new file beside `path`, which os.replace then moves
    over it, so a write that fails partway leaves the previous file as it
    was and removes the partial one. A path that exists but is not a
    regular file (a device or a pipe, such as /dev/stdout) is written
    directly.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode, **kwargs) as fh:
            yield fh
        return
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        with open(temp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def save_matrix(matrix: EmbeddingMatrix, path: str) -> None:
    with atomic_open(path) as fh:
        write_record(fh, matrix.data)


def load_matrix(path: str, label: str = "") -> EmbeddingMatrix:
    with open(path, "rb") as fh:
        data = read_record(fh, path, last=True)
    return EmbeddingMatrix(data, label=label or path)


def stats(matrix: EmbeddingMatrix) -> EmbeddingStats:
    """Compute mean/variance per dimension and over all entries.

    Rows are read BUDGET bytes of float64 at a time; each block's sums and
    centered sums of squares are merged into the running ones (Chan et
    al.'s pairwise update). The scalar moments follow from the
    per-dimension ones by the law of total variance.
    """
    if matrix.rows == 0:
        raise EmptyMatrix("stats requires at least one row")
    total = np.zeros(matrix.dim)
    m2 = np.zeros(matrix.dim)
    seen = 0
    step = block_rows(matrix.dim)
    for lo in range(0, matrix.rows, step):
        block = matrix.data[lo:lo + step].astype(np.float64)
        n = len(block)
        block_sum = block.sum(axis=0)
        block -= block_sum / n
        block *= block
        m2 += block.sum(axis=0)
        if seen:
            delta = block_sum / n - total / seen
            m2 += delta * delta * (seen * n / (seen + n))
        total += block_sum
        seen += n
    mean = total / seen
    variance = m2 / seen
    scalar_mean = float(mean.mean())
    spread = np.square(mean - scalar_mean).mean()
    return EmbeddingStats(
        mean=mean,
        variance=variance,
        scalar_mean=scalar_mean,
        scalar_variance=float(variance.mean() + spread),
    )
