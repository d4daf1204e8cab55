"""Affine alignment between embedding spaces.

Trains the map phi(x) = W x + b from helper space R^m to source space
R^n over intersection token pairs, with two interchangeable fitters:

* fit_gradient  -- Adam on the MSE objective (the production path);
  train_map runs the same fit from the float32 matrices and returns
  only the map
* fit_closed_form -- ridge-regularized normal equations (the oracle)

Both operate on the same preprocessed representation: inputs are
standard-scaled then normalized by the mean L2 norm of the scaled
training inputs; targets are standard-scaled only. Applying a trained
map inverts the output scaling so results land back in the source
distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import embeddings
from .embeddings import EmbeddingMatrix, read_record, write_record
from .errors import (
    DimensionMismatch,
    EmptyIntersection,
    MalformedMap,
    NonFiniteLoss,
    SingularSystem,
)
from .tokenizer import TokenPartition, load_json

# Bytes of one row block of the Adam state: each update finishes its
# elementwise passes over one block of weight, moment and gradient rows
# before the next, so they run in cache. Read at call time (patchable).
_ADAM_BLOCK = 256 << 10

# Adam's moment decays and denominator guard, and the ridge added to the
# oracle's normal equations: fixed values that no caller tunes.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_RIDGE_LAMBDA = 1e-6


@dataclass(frozen=True)
class Scaler:
    """Per-dimension standardization statistics.

    Dimensions with zero variance get std 1 and are flagged so callers
    can tell a degenerate fixture from a real fit.
    """

    mean: np.ndarray
    std: np.ndarray
    zero_variance_dims: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @classmethod
    def fit(cls, data: np.ndarray) -> "Scaler":
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        zero = std == 0.0
        return cls(mean, np.where(zero, 1.0, std), zero)

    @classmethod
    def fit_rows(cls, data: np.ndarray, ids: np.ndarray | None = None) -> "Scaler":
        """fit(data[ids] as float64) bit for bit, read in row blocks by id
        (without ids, fit(data) from views of its row blocks).

        Two passes, as np.mean and np.std make: the column sums, then the
        sums of squared deviations from the mean.
        """
        count = len(data) if ids is None else len(ids)
        mean = _column_sum(data, ids, np.copyto) / count

        def squared_deviation(out, block):
            np.subtract(block, mean, out=out)
            np.square(out, out=out)

        std = np.sqrt(_column_sum(data, ids, squared_deviation) / count)
        zero = std == 0.0
        return cls(mean, np.where(zero, 1.0, std), zero)

    @classmethod
    def identity(cls, dim: int) -> "Scaler":
        return cls(np.zeros(dim), np.ones(dim), np.zeros(dim, dtype=bool))

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x - mean) / std, written to `out` (which may be x) if given."""
        out = np.subtract(x, self.mean, out=out)
        out /= self.std
        return out

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    learning_rate: float = 1e-3
    batch: int = 32  # 0 = full batch
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.batch < 0:
            raise ValueError("batch must be >= 0 (0 = full batch)")


@dataclass(frozen=True)
class AffineMap:
    """phi: x -> inverse_output_scale(W . norm(input_scale(x)) + b)."""

    weight: np.ndarray  # (n, m)
    bias: np.ndarray  # (n,)
    input_scaler: Scaler
    output_scaler: Scaler
    input_norm: float = 1.0
    l2_normalize_inputs: bool = True

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(
            np.eye(dim),
            np.zeros(dim),
            Scaler.identity(dim),
            Scaler.identity(dim),
            input_norm=1.0,
            l2_normalize_inputs=False,
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[-1] != self.in_dim:
            raise DimensionMismatch(
                f"input has dim {x.shape[-1]}, map expects {self.in_dim}"
            )
        # The same operations as inverse(norm(forward(x)) @ W.T + b), each
        # done in place after forward's copy: x itself is never written.
        # forward's subtraction of the float64 mean promotes float32 rows
        # exactly, so they need no float64 copy of their own.
        xs = self.input_scaler.forward(x)
        if self.l2_normalize_inputs:
            xs /= self.input_norm
        pred = xs @ self.weight.T
        pred += self.bias
        pred *= self.output_scaler.std
        pred += self.output_scaler.mean
        return pred


@dataclass(frozen=True)
class FitReport:
    initial_mse: float
    final_mse: float
    pair_count: int
    oracle_mse: float | None = None
    frobenius_gap_to_oracle: float | None = None


def _pair_ids(
    helper: EmbeddingMatrix, source: EmbeddingMatrix, part: TokenPartition
) -> tuple[np.ndarray, np.ndarray]:
    """The shared tokens' helper and source row ids, in partition order."""
    if part.shared_count == 0:
        raise EmptyIntersection("partition has no shared tokens")
    target_ids = np.array([tid for _, _, tid in part.shared])
    source_ids = np.array([sid for _, sid, _ in part.shared])
    if (target_ids.min() < 0 or source_ids.min() < 0
            or target_ids.max() >= helper.rows or source_ids.max() >= source.rows):
        raise DimensionMismatch(
            "partition ids fall outside the helper or source matrix rows"
        )
    return target_ids, source_ids


def collect_pairs(
    helper: EmbeddingMatrix,
    source: EmbeddingMatrix,
    part: TokenPartition,
    limit: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gather (helper row, source row) training pairs for shared tokens.

    Pairs follow partition order; `limit` takes a seeded uniform
    subsample without replacement (clamped to the pair count).
    """
    target_ids, source_ids = _pair_ids(helper, source, part)
    if limit is not None and limit < len(target_ids):
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(target_ids), size=limit, replace=False))
        target_ids, source_ids = target_ids[keep], source_ids[keep]
    return _gather(helper.data, target_ids), _gather(source.data, source_ids)


def _blocks(data: np.ndarray, ids: np.ndarray | None = None):
    """Yield (start, data[ids[start:...]]) in embeddings.BUDGET blocks, or
    without ids (start, data[start:...]), views of all the rows in order.

    A single column comes as one block: numpy sums a C-contiguous array
    over axis 0 one row after another, but a lone column pairwise.
    """
    dim = data.shape[1]
    count = len(data) if ids is None else len(ids)
    step = count if dim == 1 else embeddings.block_rows(dim)
    for lo in range(0, count, step):
        yield lo, data[lo:lo + step] if ids is None else data[ids[lo:lo + step]]


def _gather(data: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """data[ids] as float64, gathered one block at a time."""
    out = np.empty((len(ids), data.shape[1]))
    for lo, block in _blocks(data, ids):
        out[lo:lo + len(block)] = block
    return out


def _column_sum(data: np.ndarray, ids: np.ndarray | None, fill) -> np.ndarray:
    """Column sums of the float64 rows fill(out, block) writes for data[ids].

    Equal to one axis-0 sum over all the rows: each block after the first
    is summed with the running sums as its first row, so the additions
    run in the same order.
    """
    total = None
    buf = None
    for lo, block in _blocks(data, ids):
        if buf is None:
            buf = np.empty((len(block) + 1, data.shape[1]))
        first = 0 if total is None else 1
        if first:
            buf[0] = total
        rows = buf[:first + len(block)]
        fill(rows[first:], block)
        total = rows.sum(axis=0)
    return total


def _check_pair_count(count: int) -> None:
    if count < 2:
        raise DimensionMismatch("fitting requires at least 2 pairs")


def _preprocess(
    x: np.ndarray, y: np.ndarray, l2_normalize: bool, in_place: bool = False
) -> tuple[np.ndarray, np.ndarray, Scaler, Scaler, float]:
    """Check the pairs, then scale them as the module docstring says.

    With in_place, float64 x and y are overwritten by their scaled values
    (the same values, computed by the same operations).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"inconsistent pair shapes {x.shape} vs {y.shape}"
        )
    count = x.shape[0]
    _check_pair_count(count)
    # Scaler.fit's statistics bit for bit, without its whole-pair temporary
    in_scaler = Scaler.fit_rows(x)
    out_scaler = Scaler.fit_rows(y)
    xs = in_scaler.forward(x, x if in_place else None)
    nu = 1.0
    if l2_normalize:
        nu = _mean_norm(count, _blocks(xs))
        xs /= nu
    ys = out_scaler.forward(y, y if in_place else None)
    return xs, ys, in_scaler, out_scaler, nu


def _mean_norm(count: int, blocks) -> float:
    """The mean L2 norm of the rows the (start, rows) blocks cover, or 1.0
    if it is 0. One vector holds all the norms, so np.mean sums them in
    the same order whatever the blocks."""
    norms = np.empty(count)
    for lo, rows in blocks:
        norms[lo:lo + len(rows)] = np.linalg.norm(rows, axis=1)
    mean_norm = float(np.mean(norms))
    return mean_norm if mean_norm > 0 else 1.0


def _seeded_start(n: int, m: int, cfg: TrainConfig):
    """The fit's generator and its initial (weight, bias)."""
    rng = np.random.default_rng(cfg.seed)
    weight = rng.uniform(-1.0, 1.0, size=(n, m)) / np.sqrt(m)
    return rng, weight, np.zeros(n)


# A diverging fit overflows; the epoch check reports it as one
# NonFiniteLoss instead of a stream of numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def _adam(
    rows,
    count: int,
    weight: np.ndarray,
    bias: np.ndarray,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> None:
    """Train weight and bias in place by cfg.steps epochs of minibatch Adam.

    rows(sel) returns the scaled (xb, yb) pairs of the pair indices sel,
    out of count pairs. Raises NonFiniteLoss after the first epoch that
    leaves a non-finite entry. The optimizer state is local, so it is
    freed on return.
    """
    n, m = weight.shape
    batch = cfg.batch if cfg.batch > 0 else count
    b1, b2, eps = _BETA1, _BETA2, _EPS
    m_w = np.zeros_like(weight)
    v_w = np.zeros_like(weight)
    m_b = np.zeros_like(bias)
    v_b = np.zeros_like(bias)
    # One GEMM forms the whole weight gradient in g_w (a product of fewer
    # rows may round differently: a single row goes to GEMV); the
    # elementwise Adam passes then walk row blocks of the state in cache.
    g_w = np.empty_like(weight)
    height = min(n, max(1, _ADAM_BLOCK // (8 * m)))
    tmp, den = np.empty((height, m)), np.empty((height, m))
    blocks = []
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        blocks.append((g_w[lo:hi], weight[lo:hi], m_w[lo:hi], v_w[lo:hi],
                       tmp[:hi - lo], den[:hi - lo]))
    one_b1, one_b2 = 1 - b1, 1 - b2
    t = 0
    for step in range(cfg.steps):
        lr = cfg.learning_rate * min(1.0, 2.0 * (1.0 - step / cfg.steps))
        order = rng.permutation(count)
        for start in range(0, count, batch):
            t += 1
            sel = order[start:start + batch]
            xb, yb = rows(sel)
            resid = xb @ weight.T + bias - yb
            np.matmul(resid.T, xb, out=g_w)
            # 2*G/(k*n) == G/(k*n/2) bit for bit: doubling is exact.
            half = len(sel) * n / 2
            c1 = 1 - b1 ** t
            c2 = 1 - b2 ** t
            # Same operations, in the same order, as
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   w -= lr*(m/c1) / (sqrt(v/c2) + eps)
            # so the result is bit-identical; do not fold the scalars.
            for g, w, mw, vw, tb, db in blocks:
                g /= half
                mw *= b1
                np.multiply(g, one_b1, out=tb)
                mw += tb
                vw *= b2
                np.multiply(g, one_b2, out=tb)
                tb *= g
                vw += tb
                np.divide(mw, c1, out=tb)
                tb *= lr
                np.divide(vw, c2, out=db)
                np.sqrt(db, out=db)
                db += eps
                tb /= db
                w -= tb
            g_b = 2.0 * resid.sum(axis=0) / (len(sel) * n)
            m_b = b1 * m_b + one_b1 * g_b
            v_b = b2 * v_b + one_b2 * g_b * g_b
            bias -= lr * (m_b / c1) / (np.sqrt(v_b / c2) + eps)
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise NonFiniteLoss(
                f"training diverged to non-finite weights in epoch "
                f"{step + 1} of {cfg.steps}"
            )


def fit_gradient(
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig = TrainConfig(),
    compare_oracle: bool = False,
    in_place: bool = False,
) -> tuple[AffineMap, FitReport]:
    """Fit the affine map by Adam on the full-pair MSE.

    One step is one pass over the pairs; cfg.batch controls how many
    Adam updates that pass makes. The learning rate stays flat for the
    first half of the passes and then decays linearly to zero, which
    collapses the stochastic-gradient noise ball so the fit lands on
    the minimizer instead of jittering around it. Deterministic given
    (pairs, cfg). Raises NonFiniteLoss at the end of the first epoch
    that leaves a non-finite weight or bias. With in_place, float64 x
    and y are overwritten by their scaled values instead of copied.
    """
    xs, ys, in_scaler, out_scaler, nu = _preprocess(x, y, True, in_place)
    count, m = xs.shape
    rng, weight, bias = _seeded_start(ys.shape[1], m, cfg)
    initial_mse, *_ = _report_pass(xs, ys, (weight, bias))
    _adam(lambda sel: (xs[sel], ys[sel]), count, weight, bias, rng, cfg)
    # Same scaled pairs: xs is also what the oracle's apply() computes.
    oracle = _ridge(xs, ys, _RIDGE_LAMBDA) if compare_oracle else None
    final_mse, oracle_mse, gap = _report_pass(
        xs, ys, (weight, bias), oracle, out_scaler
    )
    if not np.isfinite(final_mse):
        raise NonFiniteLoss("training diverged to a non-finite loss")
    phi = AffineMap(weight, bias, in_scaler, out_scaler, nu)
    return phi, FitReport(initial_mse, final_mse, count, oracle_mse, gap)


def _report_pass(xs, ys, fit, oracle=None, out_scaler=None):
    """(MSE of fit, MSE of oracle, gap) over the scaled pairs, in one pass.

    fit and oracle are (weight, bias) pairs; without an oracle the last
    two are None. The gap is the Frobenius norm of the difference of the
    two maps' predictions, scaled back by out_scaler, over the norm of
    the oracle's. The pass walks row blocks whose whole working set (two
    predictions and a squared difference) fits in embeddings.CACHE_BUDGET.
    Each sum starts from 0.0 and adds one np.add.reduce or dot per block,
    so a one-block pass equals np.mean and np.linalg.norm of the whole
    arrays bit for bit.
    """
    count, n = ys.shape
    step = min(count, max(1, embeddings.CACHE_BUDGET // (3 * 8 * n)))
    pred, sq = np.empty((step, n)), np.empty((step, n))
    want = None if oracle is None else np.empty((step, n))

    def squared_error(xb, yb, weight, bias, out):
        # the sum of (xb @ weight.T + bias - yb) ** 2; out keeps the prediction
        np.matmul(xb, weight.T, out=out)
        out += bias
        diff = np.subtract(out, yb, out=sq[:len(out)])
        np.square(diff, out=diff)
        return np.add.reduce(diff, axis=None)

    fit_sum = oracle_sum = want_sq = diff_sq = 0.0
    for lo in range(0, count, step):
        xb, yb = xs[lo:lo + step], ys[lo:lo + step]
        p = pred[:len(xb)]
        fit_sum += squared_error(xb, yb, *fit, p)
        if oracle is None:
            continue
        w = want[:len(xb)]
        oracle_sum += squared_error(xb, yb, *oracle, w)
        # Scaler.inverse's operations, in place
        for a in (p, w):
            a *= out_scaler.std
            a += out_scaler.mean
        want_sq += w.ravel().dot(w.ravel())
        p -= w
        diff_sq += p.ravel().dot(p.ravel())
    size = count * n
    if oracle is None:
        return float(fit_sum / size), None, None
    denom = math.sqrt(want_sq)
    gap = math.sqrt(diff_sq) / denom if denom else 0.0
    return float(fit_sum / size), float(oracle_sum / size), gap


def train_map(
    helper: EmbeddingMatrix,
    source: EmbeddingMatrix,
    part: TokenPartition,
    cfg: TrainConfig = TrainConfig(),
) -> AffineMap:
    """fit_gradient's map over part's shared pairs, without its report.

    Equal bit for bit to fit_gradient(*collect_pairs(helper, source,
    part), cfg)[0], but no whole-pair float64 array is built: the scaler
    statistics and the mean input norm are read from the float32 rows by
    id in embeddings.BUDGET blocks, and each Adam batch is gathered and
    scaled by the same elementwise operations as _preprocess. Divergence
    still raises NonFiniteLoss after the first non-finite epoch.
    """
    helper_ids, source_ids = _pair_ids(helper, source, part)
    count = len(helper_ids)
    _check_pair_count(count)
    in_scaler = Scaler.fit_rows(helper.data, helper_ids)
    out_scaler = Scaler.fit_rows(source.data, source_ids)
    nu = _mean_norm(count, ((lo, in_scaler.forward(block))
                            for lo, block in _blocks(helper.data, helper_ids)))

    def rows(sel):
        xb = in_scaler.forward(helper.data[helper_ids[sel]])
        xb /= nu
        return xb, out_scaler.forward(source.data[source_ids[sel]])

    rng, weight, bias = _seeded_start(source.dim, helper.dim, cfg)
    _adam(rows, count, weight, bias, rng, cfg)
    return AffineMap(weight, bias, in_scaler, out_scaler, nu)


def _ridge(xs: np.ndarray, ys: np.ndarray, ridge_lambda: float):
    """Solve the normal equations of the preprocessed pairs: (weight, bias).

    The design matrix [xs 1] is never built: its Gram matrix is
    [[xsᵀxs, Σxs], [Σxsᵀ, count]] and the right-hand side [[xsᵀys], [Σys]].
    """
    count, m = xs.shape
    gram = np.empty((m + 1, m + 1))
    gram[:m, :m] = xs.T @ xs
    gram[:m, m] = gram[m, :m] = xs.sum(axis=0)
    gram[m, m] = count
    if ridge_lambda > 0:
        gram.flat[::m + 2] += ridge_lambda  # the diagonal
    elif np.linalg.matrix_rank(gram) < m + 1:
        raise SingularSystem(
            "design matrix is rank-deficient; use ridge_lambda > 0"
        )
    rhs = np.empty((m + 1, ys.shape[1]))
    rhs[:m] = xs.T @ ys
    rhs[m] = ys.sum(axis=0)
    theta = np.linalg.solve(gram, rhs)
    return theta[:m].T, theta[m]


def fit_closed_form(
    x: np.ndarray,
    y: np.ndarray,
    ridge_lambda: float = _RIDGE_LAMBDA,
    l2_normalize: bool = True,
) -> AffineMap:
    """Exact MSE minimizer (up to ridge_lambda) on the same representation."""
    xs, ys, in_scaler, out_scaler, nu = _preprocess(x, y, l2_normalize)
    weight, bias = _ridge(xs, ys, ridge_lambda)
    return AffineMap(weight, bias, in_scaler, out_scaler, nu, l2_normalize)


# --- serialization -----------------------------------------------------
#
# A trained map is stored as consecutive EMB1 records in one container
# file, with a JSON sidecar (<path>.json) naming the record order and
# the scalar metadata.

_RECORD_ORDER = (
    "weight", "bias", "input_mean", "input_std", "output_mean", "output_std",
)


# Each sidecar key and the test its value must pass, in the order load_map
# runs them: a list of zero-variance dims after the dim it indexes.
_SIDECAR = {
    "schema_version": lambda v, meta: v == "1",
    "records": lambda v, meta: v == list(_RECORD_ORDER),
    "in_dim": lambda v, meta: type(v) is int and v > 0,
    "out_dim": lambda v, meta: type(v) is int and v > 0,
    "input_norm": lambda v, meta: type(v) is float and 0 < v < math.inf,
    "l2_normalize_inputs": lambda v, meta: type(v) is bool,
    "input_zero_variance_dims": lambda v, meta: type(v) is list and all(
        type(d) is int and 0 <= d < meta["in_dim"] for d in v),
    "output_zero_variance_dims": lambda v, meta: type(v) is list and all(
        type(d) is int and 0 <= d < meta["out_dim"] for d in v),
}


def save_map(phi: AffineMap, path: str) -> None:
    """Write the container and its sidecar.

    Both are written in full before either replaces its previous version,
    so a failed write leaves the old pair as it was.
    """
    sidecar = {
        "schema_version": "1",
        "records": list(_RECORD_ORDER),
        "in_dim": phi.in_dim,
        "out_dim": phi.out_dim,
        "input_norm": phi.input_norm,
        "l2_normalize_inputs": phi.l2_normalize_inputs,
        "input_zero_variance_dims": np.flatnonzero(
            phi.input_scaler.zero_variance_dims
        ).tolist(),
        "output_zero_variance_dims": np.flatnonzero(
            phi.output_scaler.zero_variance_dims
        ).tolist(),
    }
    with embeddings.atomic_open(path) as fh, \
            embeddings.atomic_open(path + ".json", "w", encoding="utf-8") as side:
        for array in (phi.weight, phi.bias, phi.input_scaler.mean,
                      phi.input_scaler.std, phi.output_scaler.mean,
                      phi.output_scaler.std):
            write_record(fh, np.atleast_2d(array))
        json.dump(sidecar, side, indent=2, sort_keys=True)
        side.write("\n")


def load_map(path: str) -> AffineMap:
    """Read a map that save_map wrote. A sidecar key or value, or a record
    shape, that does not fit one raises MalformedMap; read_record and
    EmbeddingMatrix check each record's bytes and values."""
    side = path + ".json"
    meta = load_json(side, MalformedMap)
    if not isinstance(meta, dict) or meta.keys() != _SIDECAR.keys():
        raise MalformedMap(f"{side}: expected the keys {sorted(_SIDECAR)}")
    for key, valid in _SIDECAR.items():
        if not valid(meta[key], meta):
            raise MalformedMap(f"{side}: invalid {key!r}")
    m, n = meta["in_dim"], meta["out_dim"]
    records = {}
    with open(path, "rb") as fh:
        for name in _RECORD_ORDER:
            data = read_record(fh, path, last=name == _RECORD_ORDER[-1])
            shape = (n, m) if name == "weight" else (1, m if "input" in name else n)
            if data.shape != shape:
                raise MalformedMap(
                    f"{path}: record {name!r} has shape {data.shape}, not {shape}")
            records[name] = EmbeddingMatrix(data, f"{path} {name}").data.astype(
                np.float64)

    def scaler(mean_key: str, std_key: str, dim: int, zero_key: str) -> Scaler:
        zero = np.zeros(dim, dtype=bool)
        zero[meta[zero_key]] = True
        return Scaler(records[mean_key][0], records[std_key][0], zero)

    return AffineMap(
        records["weight"],
        records["bias"][0],
        scaler("input_mean", "input_std", m, "input_zero_variance_dims"),
        scaler("output_mean", "output_std", n, "output_zero_variance_dims"),
        meta["input_norm"],
        meta["l2_normalize_inputs"],
    )
