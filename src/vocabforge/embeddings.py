"""EMB1 embedding matrix storage and the row statistics the methods share.

EMB1 is a deliberately simple binary layout:

    offset 0   magic  b"EMB1"
    offset 4   rows   uint32 little-endian
    offset 8   dim    uint32 little-endian
    offset 12  reserved, 4 zero bytes (pads the header to 16)
    offset 16  rows*dim IEEE-754 float32 little-endian, row-major

Files round-trip bit-exactly; non-finite values are rejected on both
load and save.

column_moments is the one per-dimension mean and variance: `stats` (the
moments of random rows) and SAVA's scalers take theirs from it. unit_rows
is the one row normalization, for CLP's weights and for
`relative_similarity`'s cosines.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, EmptyMatrix, NonFiniteValue, SizeMismatch, ZeroNormRow

MAGIC = b"EMB1"
HEADER_SIZE = 16
# block_rows' default budget: bytes of one block's working set. A one-pass
# loop uses each block once, so it is kept small: tens of MB miss the cache
# and map fresh pages each block, under ~1 MiB pays per-block overhead and
# short GEMMs, and a 256 KiB-16 MiB sweep on the benchmark workloads
# stopped improving at 4 MiB. Read at call time (patchable).
CACHE_BUDGET = 4 << 20


def block_rows(row_bytes: int, budget: int | None = None) -> int:
    """Rows of row_bytes each that fit in budget bytes (None: CACHE_BUDGET),
    at least one: the height of every blocked pass."""
    return max(1, (CACHE_BUDGET if budget is None else budget) // max(row_bytes, 1))


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
        for _, block in row_blocks(arr):
            if not np.isfinite(block).all():
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

    The rows go out one row_blocks block at a time, each converted to
    little-endian float32 only where it is not already one, so no second
    copy of the payload is held.
    """
    data = np.asarray(data)
    fh.write(MAGIC)
    fh.write(struct.pack("<II", data.shape[0], data.shape[1]))
    fh.write(b"\x00\x00\x00\x00")
    for _, block in row_blocks(data):
        fh.write(np.ascontiguousarray(block, dtype="<f4"))


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
            found = sum(map(len, iter(lambda: fh.read(block_rows(1)), b"")))
    _check_payload(path, rows, dim, found)
    if dim == 0:
        raise SizeMismatch(f"matrix {path!r} has zero-width rows")
    return rows, dim


def replaced_path(path: str) -> str | None:
    """The regular file that atomic_open(path) replaces: path with its
    links resolved. None where path names an existing file that is not
    regular (a device or a pipe, such as /dev/stdout), which atomic_open
    writes directly. Stat follows the links itself, because the resolved
    name of a pipe behind /dev/stdout is no path that exists."""
    if os.path.exists(path) and not os.path.isfile(path):
        return None
    return os.path.realpath(path)


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Open a file whose contents replace `path` when the block completes.

    Writes go to a new file beside `path`, which os.replace then moves
    over it, so a write that fails partway leaves the previous file as it
    was and removes the partial one. A path that exists but is not a
    regular file (a device or a pipe, such as /dev/stdout) is written
    directly.
    """
    target = replaced_path(path)
    if target is None:
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        with open(temp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(temp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temp)
        if getattr(exc, "filename", None) == temp:
            exc.filename = path  # the path asked for, not its temporary file
        raise


def save_matrix(matrix: EmbeddingMatrix, path: str) -> None:
    with atomic_open(path) as fh:
        write_record(fh, matrix.data)


def load_matrix(path: str) -> EmbeddingMatrix:
    """The EMB1 file at path. Its payload is read no further than the file
    goes, whatever the header claims, and must end the file."""
    with open(path, "rb") as fh:
        rows, dim = _read_header(fh, path)
        expected = rows * dim * 4
        # An exact-size read fills one buffer; read() after the buffered
        # header would join two and hold the payload twice.
        size = os.fstat(fh.fileno()).st_size  # 0 for a pipe: read to the end
        payload = fh.read(min(expected, size - fh.tell()) if size else None)
        found = len(payload)
        if found == expected:
            found += len(fh.read())
    _check_payload(path, rows, dim, found)
    data = np.frombuffer(payload, dtype="<f4").reshape(rows, dim)
    return EmbeddingMatrix(data, label=path)


def row_blocks(data: np.ndarray, ids: np.ndarray | None = None):
    """Yield (start, data[ids[start:...]]) in blocks of block_rows(8 * dim)
    rows, or without ids (start, data[start:...]), views of all the rows.

    A single column comes as one block: numpy sums a C-contiguous array
    over axis 0 one row after another, but a lone column pairwise.
    """
    dim = data.shape[1]
    count = len(data) if ids is None else len(ids)
    step = max(count, 1) if dim == 1 else block_rows(8 * dim)
    for lo in range(0, count, step):
        yield lo, data[lo:lo + step] if ids is None else data[ids[lo:lo + step]]


def _column_sum(data: np.ndarray, ids: np.ndarray | None, fill) -> np.ndarray:
    """Column sums of the float64 rows fill(out, block) writes for data[ids].

    Equal to one axis-0 sum over all the rows: each block after the first
    is summed with the running sums as its first row, so the additions
    run in the same order.
    """
    total = None
    buf = None
    for lo, block in row_blocks(data, ids):
        if buf is None:
            buf = np.empty((len(block) + 1, data.shape[1]))
        first = 0 if total is None else 1
        if first:
            buf[0] = total
        rows = buf[:first + len(block)]
        fill(rows[first:], block)
        total = rows.sum(axis=0)
    return total


def column_moments(data: np.ndarray, ids: np.ndarray | None = None):
    """(mean, variance) per column of data[ids] (without ids, of data) as
    float64, equal bit for bit to np.mean and np.var of the gathered
    float64 rows, read in row_blocks.

    Two passes, as np.mean and np.var make: the column sums, then the
    sums of squared deviations from the mean.
    """
    count = len(data) if ids is None else len(ids)
    mean = _column_sum(data, ids, np.copyto) / count

    def squared_deviation(out, block):
        np.subtract(block, mean, out=out)
        np.square(out, out=out)

    return mean, _column_sum(data, ids, squared_deviation) / count


def unit_rows(rows: np.ndarray, ids: np.ndarray, what: str) -> np.ndarray:
    """Normalize float64 rows in place and return them; a zero-norm row
    raises ZeroNormRow naming its id, ids[i] for rows[i]."""
    norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero(norms == 0)
    if bad.size:
        raise ZeroNormRow(f"{what} id {ids[bad[0]]} has a zero-norm embedding")
    rows /= norms[:, None]
    return rows


def stats(matrix: EmbeddingMatrix) -> EmbeddingStats:
    """Compute mean/variance per dimension (column_moments) and over all
    entries: the scalar moments follow from the per-dimension ones by
    the law of total variance.
    """
    if matrix.rows == 0:
        raise EmptyMatrix("stats requires at least one row")
    mean, variance = column_moments(matrix.data)
    scalar_mean = float(mean.mean())
    spread = np.square(mean - scalar_mean).mean()
    return EmbeddingStats(
        mean=mean,
        variance=variance,
        scalar_mean=scalar_mean,
        scalar_variance=float(variance.mean() + spread),
    )
