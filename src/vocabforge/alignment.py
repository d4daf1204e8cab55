"""Affine alignment between embedding spaces.

Trains the map phi(x) = W x + b from helper space R^m to source space
R^n over intersection token pairs by Adam on the MSE objective:
train_map (`adapt --method sava`) and fit_map (`fit-map`) read the pairs
by id from the float32 matrices, fit_gradient takes them as arrays.
fit_map and fit_gradient report against the oracle, the least-squares
map with a fixed ridge (_RIDGE_LAMBDA); fit_closed_form returns it.

Every fit uses one representation: inputs are standard-scaled then
divided by the mean L2 norm of the scaled training inputs; targets are
standard-scaled only. Scaler.fit takes the means and standard deviations
from embeddings.column_moments, reading the pairs' rows by id. Applying
a trained map inverts the output scaling so results land back in the
source distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import embeddings
from .embeddings import EmbeddingMatrix, write_record
from .errors import DimensionMismatch, EmptyIntersection, NonFiniteLoss
from .tokenizer import TokenPartition, check_partition

# Bytes of one flat block of the Adam state: each update finishes its
# elementwise passes over one block of parameter, moment and gradient
# entries before the next, so they run in cache; 256 KiB was the best size
# in a 16 KiB-1 MiB sweep at d=256 and d=512. Adam's chunks of scaled
# pairs take the same size. Read at call time (patchable).
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
    def fit(cls, data: np.ndarray, ids: np.ndarray | None = None) -> "Scaler":
        """The mean and std of data[ids] (without ids, of data) as float64:
        embeddings.column_moments and its square root, so np.mean and
        np.std of the gathered float64 rows bit for bit."""
        mean, variance = embeddings.column_moments(data, ids)
        std = np.sqrt(variance)
        zero = std == 0.0
        return cls(mean, np.where(zero, 1.0, std), zero)

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x - mean) / std, written to `out` (which may be x) if given."""
        out = np.subtract(x, self.mean, out=out)
        out /= self.std
        return out


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

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[-1] != self.in_dim:
            raise DimensionMismatch(
                f"input has dim {x.shape[-1]}, map expects {self.in_dim}"
            )
        # The same operations as norm(forward(x)) @ W.T + b, scaled back by
        # the output scaler's std and mean, each done in place after
        # forward's copy: x itself is never written.
        # forward's subtraction of the float64 mean promotes float32 rows
        # exactly, so they need no float64 copy of their own.
        xs = self.input_scaler.forward(x)
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
    helper: EmbeddingMatrix,
    source: EmbeddingMatrix,
    part: TokenPartition,
    limit: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """The shared tokens' helper and source row ids in partition order;
    `limit` keeps a seeded uniform subsample (clamped)."""
    if part.shared_count == 0:
        raise EmptyIntersection("partition has no shared tokens")
    target_ids, source_ids = part.shared_target_ids, part.source_ids
    if limit is not None and limit < len(target_ids):
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(target_ids), size=limit, replace=False))
        target_ids, source_ids = target_ids[keep], source_ids[keep]
    return target_ids, source_ids


def collect_pairs(
    helper: EmbeddingMatrix,
    source: EmbeddingMatrix,
    part: TokenPartition,
    limit: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gather (helper row, source row) float64 training pairs for shared
    tokens, in partition order; `limit` takes a seeded subsample."""
    check_partition(part, source.rows, helper.rows)
    helper_ids, source_ids = _pair_ids(helper, source, part, limit, seed)
    return (helper.data[helper_ids].astype(np.float64),
            source.data[source_ids].astype(np.float64))


class _Pairs:
    """The training pairs (x[x_ids[i]], y[y_ids[i]]), i < count (with ids
    None, the rows of x and y), and the module docstring's scaling fitted
    to them in row blocks, without a whole-pair array. rows() scales any
    subset by the same elementwise operations, so the values agree.
    """

    def __init__(self, x, y, x_ids=None, y_ids=None):
        self.x, self.x_ids, self.y, self.y_ids = x, x_ids, y, y_ids
        self.count = len(x) if x_ids is None else len(x_ids)
        if self.count < 2:
            raise DimensionMismatch("fitting requires at least 2 pairs")
        self.in_scaler = Scaler.fit(x, x_ids)
        self.out_scaler = Scaler.fit(y, y_ids)
        # one vector of norms: np.mean sums them in one order
        norms = np.empty(self.count)
        for lo, block in embeddings.row_blocks(x, x_ids):
            norms[lo:lo + len(block)] = np.linalg.norm(
                self.in_scaler.forward(block), axis=1)
        nu = float(np.mean(norms))
        self.nu = nu if nu > 0 else 1.0

    def rows(self, sel, x_out: np.ndarray, y_out: np.ndarray):
        """Write the scaled x and y rows of the pairs sel (an index array
        or a slice) to the first rows of x_out and y_out; return those."""
        x = self.x[sel] if self.x_ids is None else self.x[self.x_ids[sel]]
        xs = self.in_scaler.forward(x, x_out[:len(x)])
        xs /= self.nu
        y = self.y[sel] if self.y_ids is None else self.y[self.y_ids[sel]]
        return xs, self.out_scaler.forward(y, y_out[:len(y)])


def _array_pairs(x, y) -> _Pairs:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"inconsistent pair shapes {x.shape} vs {y.shape}")
    return _Pairs(x, y)


# A diverging fit overflows; the epoch check reports it as one
# NonFiniteLoss instead of a stream of numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def _adam(pairs: _Pairs, params: np.ndarray, rng: np.random.Generator,
          cfg: TrainConfig) -> None:
    """Train params = [W row-major, b] in place by cfg.steps epochs of
    minibatch Adam.

    Each epoch's permutation is gathered and scaled in chunks of whole
    batches holding _ADAM_BLOCK bytes of float64 rows; a batch is a row
    slice of its chunk. Raises NonFiniteLoss after the first epoch that
    leaves a non-finite entry. The state is freed on return.
    """
    m, n = pairs.x.shape[1], pairs.y.shape[1]
    count = pairs.count
    batch = cfg.batch if cfg.batch > 0 else count
    chunk = batch * embeddings.block_rows(8 * (m + n) * batch, _ADAM_BLOCK)
    x_buf, y_buf = np.empty((min(chunk, count), m)), np.empty((min(chunk, count), n))
    resid_buf = np.empty((min(batch, count), n))
    b1, b2, eps = _BETA1, _BETA2, _EPS
    # The gradient and both moments share the parameters' layout, so the
    # bias entries take the weights' elementwise passes, which walk flat
    # _ADAM_BLOCK blocks of the state in cache. One GEMM forms the whole
    # weight gradient (a product of fewer rows may round differently: a
    # single row goes to GEMV).
    grad, m_t, v_t = np.empty_like(params), np.zeros_like(params), np.zeros_like(params)
    weight, bias = params[:n * m].reshape(n, m), params[n * m:]
    g_w, g_b = grad[:n * m].reshape(n, m), grad[n * m:]
    total = len(params)
    size = min(total, embeddings.block_rows(8, _ADAM_BLOCK))
    tmp, den = np.empty(size), np.empty(size)
    blocks = [(grad[lo:lo + size], params[lo:lo + size], m_t[lo:lo + size],
               v_t[lo:lo + size], tmp[:total - lo], den[:total - lo])
              for lo in range(0, total, size)]
    one_b1, one_b2 = 1 - b1, 1 - b2
    t = 0
    for step in range(cfg.steps):
        lr = cfg.learning_rate * min(1.0, 2.0 * (1.0 - step / cfg.steps))
        order = rng.permutation(count)
        for lo in range(0, count, chunk):
            x_chunk, y_chunk = pairs.rows(order[lo:lo + chunk], x_buf, y_buf)
            for start in range(0, len(x_chunk), batch):
                t += 1
                xb = x_chunk[start:start + batch]
                resid = resid_buf[:len(xb)]
                np.matmul(xb, weight.T, out=resid)
                resid += bias
                resid -= y_chunk[start:start + batch]
                np.matmul(resid.T, xb, out=g_w)
                resid.sum(axis=0, out=g_b)
                # 2*G/(k*n) == G/(k*n/2) bit for bit: doubling is exact.
                half = len(xb) * n / 2
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
        if not all(np.isfinite(w).all() for _, w, *_ in blocks):
            raise NonFiniteLoss(
                f"training diverged to non-finite weights in epoch "
                f"{step + 1} of {cfg.steps}"
            )


def _normal_equations(pairs: _Pairs):
    """(G, C, tr(YᵀY)) of the scaled pairs, G = AᵀA and C = AᵀY for the
    design A = [X 1] (so G's last row is [Σx, count]), summed over row
    blocks of embeddings.block_rows height."""
    m, n = pairs.x.shape[1], pairs.y.shape[1]
    # Short blocks leave each rank-`step` update of G memory-bound, so rows
    # wider than 1025 floats (d = 512 on both sides) get 1025's height, 511
    # at 4 MiB: at d = 4096, 64-row blocks took 54 s and 511-row ones 14 s.
    step = min(pairs.count, embeddings.block_rows(8 * min(m + 1 + n, 1025)))
    design, y_buf = np.ones((step, m + 1)), np.empty((step, n))
    gram, rhs, yy = np.zeros((m + 1, m + 1)), np.zeros((m + 1, n)), 0.0
    for lo in range(0, pairs.count, step):
        _, y = pairs.rows(slice(lo, lo + step), design[:, :m], y_buf)
        a = design[:len(y)]
        gram += a.T @ a
        rhs += a.T @ y
        yy += np.vdot(y, y)
    return gram, rhs, yy


def _ridge(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Θ (m+1 × n) that solves (G + λI)Θ = C, λ = _RIDGE_LAMBDA; G is left
    as it was."""
    gram = gram.copy()
    gram.flat[::len(gram) + 1] += _RIDGE_LAMBDA  # the diagonal
    return np.linalg.solve(gram, rhs)


def _column_forms(theta: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """θ_jᵀ G θ_j for each column θ_j of Θ: ‖A θ_j‖²."""
    return np.einsum("ij,ij->j", theta, gram @ theta)


def _start(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """rng.uniform(-1, 1, out.shape) / sqrt(m) bit for bit, written into
    the n×m `out`: uniform is -1 + 2u of random()'s u, and 2u is exact."""
    rng.random(out=out)
    out *= 2.0
    out -= 1.0
    out /= np.sqrt(out.shape[1])
    return out


def _fit(
    pairs: _Pairs, cfg: TrainConfig, report: bool = False,
    compare_oracle: bool = False,
) -> tuple[AffineMap, FitReport | None]:
    """Adam's map, and with report its FitReport from one pass after Adam
    that sums the normal equations (G, C, tr(YᵀY)). A map Θ = [Wᵀ; bᵀ]
    then has the sum of squares tr(YᵀY) − 2⟨Θ, C⟩ + ⟨Θ, GΘ⟩ (clamped at 0),
    and the oracle solves (G + λI)Θ = C. Each m×m temporary is freed once
    it has been read."""
    m, n = pairs.x.shape[1], pairs.y.shape[1]
    rng = np.random.default_rng(cfg.seed)
    params = np.zeros(n * m + n)  # [W row-major, b]
    weight, bias = params[:n * m].reshape(n, m), params[n * m:]
    _start(rng, weight)
    _adam(pairs, params, rng, cfg)
    phi = AffineMap(weight, bias, pairs.in_scaler, pairs.out_scaler, pairs.nu)
    if not report:
        return phi, None
    gram, rhs, yy = _normal_equations(pairs)
    size = pairs.count * n

    def mse(theta, forms):
        return max(float(yy - 2.0 * np.vdot(theta, rhs) + forms.sum()), 0.0) / size

    # the start again, from the seed: Adam did not hold a copy
    start = _start(np.random.default_rng(cfg.seed), np.empty((n, m)))
    start = np.vstack([start.T, np.zeros(n)])
    initial_mse = mse(start, _column_forms(start, gram))
    del start
    theta = np.vstack([weight.T, bias])
    final_mse = mse(theta, _column_forms(theta, gram))
    del theta
    if not np.isfinite(final_mse):
        raise NonFiniteLoss("training diverged to a non-finite loss")
    oracle_mse = gap = None
    if compare_oracle:
        oracle = _ridge(gram, rhs)
        # (G + λI)Θ = C, so GΘ = C − λΘ: the oracle's forms need no product
        forms = (np.einsum("ij,ij->j", oracle, rhs)
                 - _RIDGE_LAMBDA * np.einsum("ij,ij->j", oracle, oracle))
        oracle_mse = mse(oracle, forms)
        del rhs
        # The gap compares the two maps' predictions scaled back to the
        # source space, P·std + mean: their difference is ΔΘ·std, and
        # the oracle's squared norm follows from its forms and from
        # 1ᵀAΘ = G's last row · Θ.
        std, mean = pairs.out_scaler.std, pairs.out_scaler.mean
        want_sq = (std * std @ forms + 2.0 * (std * mean) @ (gram[m] @ oracle)
                   + pairs.count * (mean @ mean))
        delta = np.vstack([weight.T, bias])
        delta -= oracle
        del oracle
        diff_sq = std * std @ _column_forms(delta, gram)
        denom = math.sqrt(max(want_sq, 0.0))
        gap = math.sqrt(max(diff_sq, 0.0)) / denom if denom else 0.0
    return phi, FitReport(initial_mse, final_mse, pairs.count, oracle_mse, gap)


def fit_gradient(
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig = TrainConfig(),
    compare_oracle: bool = False,
) -> tuple[AffineMap, FitReport]:
    """Fit the affine map by Adam on the full-pair MSE.

    One step is one pass over the pairs; cfg.batch controls how many
    Adam updates that pass makes. The learning rate stays flat for the
    first half of the passes and then decays linearly to zero, which
    collapses the stochastic-gradient noise ball so the fit lands on
    the minimizer instead of jittering around it. Deterministic given
    (pairs, cfg). Raises NonFiniteLoss at the end of the first epoch
    that leaves a non-finite weight or bias.
    """
    return _fit(_array_pairs(x, y), cfg, True, compare_oracle)


def fit_map(
    helper: EmbeddingMatrix,
    source: EmbeddingMatrix,
    part: TokenPartition,
    cfg: TrainConfig = TrainConfig(),
    limit: int | None = None,
) -> tuple[AffineMap, FitReport]:
    """`vocabforge fit-map`'s fit: fit_gradient(*collect_pairs(helper,
    source, part, limit, cfg.seed), cfg, compare_oracle=True) bit for bit,
    with no whole-pair float64 array built. A limit below the shared count
    gathers the kept float32 rows once, and the fit holds neither matrix:
    a caller that passes its only references frees them here. part must
    have passed check_partition against these matrices."""
    x_ids, y_ids = _pair_ids(helper, source, part, limit, cfg.seed)
    if len(x_ids) < part.shared_count:
        pairs = _Pairs(helper.data[x_ids], source.data[y_ids])
    else:
        pairs = _Pairs(helper.data, source.data, x_ids, y_ids)
    del helper, source
    return _fit(pairs, cfg, True, True)


def train_map(
    helper: EmbeddingMatrix,
    source: EmbeddingMatrix,
    part: TokenPartition,
    cfg: TrainConfig = TrainConfig(),
) -> AffineMap:
    """fit_map's map over all the shared pairs, without its report; part
    must have passed check_partition against these matrices."""
    ids = _pair_ids(helper, source, part)
    return _fit(_Pairs(helper.data, source.data, *ids), cfg)[0]


def fit_closed_form(x: np.ndarray, y: np.ndarray) -> AffineMap:
    """The oracle: the exact MSE minimizer, up to the fixed ridge, on the
    same representation."""
    pairs = _array_pairs(x, y)
    gram, rhs, _ = _normal_equations(pairs)
    theta = _ridge(gram, rhs)
    return AffineMap(theta[:-1].T, theta[-1], pairs.in_scaler, pairs.out_scaler,
                     pairs.nu)


# --- serialization -----------------------------------------------------
#
# A trained map is stored as consecutive EMB1 records in one container
# file, with a JSON sidecar (<path>.json) naming the record order and
# the scalar metadata. `fit-map` writes it for use outside the package;
# no command reads one back.

_RECORD_ORDER = (
    "weight", "bias", "input_mean", "input_std", "output_mean", "output_std",
)


def save_map(phi: AffineMap, fh, side) -> None:
    """Write the map's six records into the binary file fh, and its
    sidecar, as UTF-8 JSON bytes, into the binary file side.

    Opened through embeddings.atomic_open on one stack, as `fit-map`
    opens them, both are written in full before either replaces its
    previous version, so a failed write leaves the old pair as it was.
    """
    sidecar = {
        "schema_version": "1",
        "records": list(_RECORD_ORDER),
        "in_dim": phi.in_dim,
        "out_dim": phi.out_dim,
        "input_norm": phi.input_norm,
        # every map divides by input_norm; perfbench/check.py reads this key
        "l2_normalize_inputs": True,
        "input_zero_variance_dims": np.flatnonzero(
            phi.input_scaler.zero_variance_dims
        ).tolist(),
        "output_zero_variance_dims": np.flatnonzero(
            phi.output_scaler.zero_variance_dims
        ).tolist(),
    }
    for array in (phi.weight, phi.bias, phi.input_scaler.mean,
                  phi.input_scaler.std, phi.output_scaler.mean,
                  phi.output_scaler.std):
        write_record(fh, np.atleast_2d(array))
    side.write((json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode())
