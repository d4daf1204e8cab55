"""Affine alignment between embedding spaces.

Trains the map phi(x) = W x + b from helper space R^m to source space
R^n over intersection token pairs, with two interchangeable fitters:

* fit_gradient  -- Adam on the MSE objective (the production path)
* fit_closed_form -- ridge-regularized normal equations (the oracle)

Both operate on the same preprocessed representation: inputs are
standard-scaled then normalized by the mean L2 norm of the scaled
training inputs; targets are standard-scaled only. Applying a trained
map inverts the output scaling so results land back in the source
distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix, read_record, write_record
from .errors import (
    DimensionMismatch,
    EmptyIntersection,
    NonFiniteLoss,
    SingularSystem,
)
from .tokenizer import TokenPartition


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
    def identity(cls, dim: int) -> "Scaler":
        return cls(np.zeros(dim), np.ones(dim), np.zeros(dim, dtype=bool))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch: int = 32  # 0 = full batch
    seed: int = 0
    ridge_lambda: float = 1e-6
    l2_normalize_inputs: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


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

    def _transform_inputs(self, x: np.ndarray) -> np.ndarray:
        xs = self.input_scaler.forward(x)
        if self.l2_normalize_inputs:
            xs = xs / self.input_norm
        return xs

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise DimensionMismatch(
                f"input has dim {x.shape[-1]}, map expects {self.in_dim}"
            )
        pred = self._transform_inputs(x) @ self.weight.T + self.bias
        return self.output_scaler.inverse(pred)

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        return self.apply(np.atleast_2d(xs))


@dataclass(frozen=True)
class FitReport:
    initial_mse: float
    final_mse: float
    pair_count: int
    oracle_mse: float | None = None
    frobenius_gap_to_oracle: float | None = None

    def to_dict(self) -> dict:
        return {
            "initial_mse": self.initial_mse,
            "final_mse": self.final_mse,
            "pair_count": self.pair_count,
            "oracle_mse": self.oracle_mse,
            "frobenius_gap_to_oracle": self.frobenius_gap_to_oracle,
        }


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
    if part.shared_count == 0:
        raise EmptyIntersection("partition has no shared tokens")
    target_ids = np.array([tid for _, _, tid in part.shared])
    source_ids = np.array([sid for _, sid, _ in part.shared])
    if (target_ids.min() < 0 or source_ids.min() < 0
            or target_ids.max() >= helper.rows or source_ids.max() >= source.rows):
        raise DimensionMismatch(
            "partition ids fall outside the helper or source matrix rows"
        )
    if limit is not None and limit < len(target_ids):
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(target_ids), size=limit, replace=False))
        target_ids, source_ids = target_ids[keep], source_ids[keep]
    x = helper.data[target_ids].astype(np.float64)
    y = source.data[source_ids].astype(np.float64)
    return x, y


def _check_pairs(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"inconsistent pair shapes {x.shape} vs {y.shape}"
        )
    if x.shape[0] < 2:
        raise DimensionMismatch("fitting requires at least 2 pairs")


def _preprocess(
    x: np.ndarray, y: np.ndarray, l2_normalize: bool
) -> tuple[np.ndarray, np.ndarray, Scaler, Scaler, float]:
    in_scaler = Scaler.fit(x)
    out_scaler = Scaler.fit(y)
    xs = in_scaler.forward(x)
    nu = 1.0
    if l2_normalize:
        mean_norm = float(np.mean(np.linalg.norm(xs, axis=1)))
        if mean_norm > 0:
            nu = mean_norm
        xs = xs / nu
    return xs, out_scaler.forward(y), in_scaler, out_scaler, nu


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
    (pairs, cfg).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_pairs(x, y)
    xs, ys, in_scaler, out_scaler, nu = _preprocess(
        x, y, cfg.l2_normalize_inputs
    )
    count, m = xs.shape
    n = ys.shape[1]
    rng = np.random.default_rng(cfg.seed)
    weight = rng.uniform(-1.0, 1.0, size=(n, m)) / np.sqrt(m)
    bias = np.zeros(n)
    initial_mse = float(np.mean((xs @ weight.T + bias - ys) ** 2))

    batch = cfg.batch if cfg.batch > 0 else count
    m_w = np.zeros_like(weight)
    v_w = np.zeros_like(weight)
    m_b = np.zeros_like(bias)
    v_b = np.zeros_like(bias)
    t = 0
    for step in range(cfg.steps):
        lr = cfg.learning_rate * min(1.0, 2.0 * (1.0 - step / cfg.steps))
        order = rng.permutation(count)
        for start in range(0, count, batch):
            t += 1
            sel = order[start:start + batch]
            xb, yb = xs[sel], ys[sel]
            resid = xb @ weight.T + bias - yb
            g_w = 2.0 * (resid.T @ xb) / (len(sel) * n)
            g_b = 2.0 * resid.sum(axis=0) / (len(sel) * n)
            m_w = cfg.beta1 * m_w + (1 - cfg.beta1) * g_w
            v_w = cfg.beta2 * v_w + (1 - cfg.beta2) * g_w * g_w
            m_b = cfg.beta1 * m_b + (1 - cfg.beta1) * g_b
            v_b = cfg.beta2 * v_b + (1 - cfg.beta2) * g_b * g_b
            c1 = 1 - cfg.beta1 ** t
            c2 = 1 - cfg.beta2 ** t
            weight -= lr * (m_w / c1) / (np.sqrt(v_w / c2) + cfg.eps)
            bias -= lr * (m_b / c1) / (np.sqrt(v_b / c2) + cfg.eps)

    final_mse = float(np.mean((xs @ weight.T + bias - ys) ** 2))
    if not np.isfinite(final_mse):
        raise NonFiniteLoss("training diverged to a non-finite loss")

    phi = AffineMap(
        weight, bias, in_scaler, out_scaler, nu, cfg.l2_normalize_inputs
    )
    oracle_mse = None
    gap = None
    if compare_oracle:
        oracle = fit_closed_form(
            x, y, cfg.ridge_lambda, l2_normalize=cfg.l2_normalize_inputs
        )
        oracle_mse = float(
            np.mean((xs @ oracle.weight.T + oracle.bias - ys) ** 2)
        )
        got = phi.apply_batch(x)
        want = oracle.apply_batch(x)
        denom = np.linalg.norm(want)
        gap = float(np.linalg.norm(got - want) / denom) if denom else 0.0
    return phi, FitReport(initial_mse, final_mse, count, oracle_mse, gap)


def fit_closed_form(
    x: np.ndarray,
    y: np.ndarray,
    ridge_lambda: float = 1e-6,
    l2_normalize: bool = True,
) -> AffineMap:
    """Exact MSE minimizer (up to ridge_lambda) on the same representation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_pairs(x, y)
    xs, ys, in_scaler, out_scaler, nu = _preprocess(x, y, l2_normalize)
    count, m = xs.shape
    design = np.hstack([xs, np.ones((count, 1))])
    gram = design.T @ design
    if ridge_lambda > 0:
        gram = gram + ridge_lambda * np.eye(m + 1)
        theta = np.linalg.solve(gram, design.T @ ys)
    else:
        if np.linalg.matrix_rank(gram) < m + 1:
            raise SingularSystem(
                "design matrix is rank-deficient; use ridge_lambda > 0"
            )
        theta = np.linalg.solve(gram, design.T @ ys)
    return AffineMap(
        theta[:m].T, theta[m], in_scaler, out_scaler, nu, l2_normalize
    )


# --- serialization -----------------------------------------------------
#
# A trained map is stored as consecutive EMB1 records in one container
# file, with a JSON sidecar (<path>.json) naming the record order and
# the scalar metadata.

_RECORD_ORDER = (
    "weight", "bias", "input_mean", "input_std", "output_mean", "output_std",
)


def save_map(phi: AffineMap, path: str) -> None:
    with open(path, "wb") as fh:
        for array in (phi.weight, phi.bias, phi.input_scaler.mean,
                      phi.input_scaler.std, phi.output_scaler.mean,
                      phi.output_scaler.std):
            write_record(fh, np.atleast_2d(array))
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
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_map(path: str) -> AffineMap:
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(path, "rb") as fh:
        records = {
            name: read_record(fh, path).astype(np.float64)
            for name in meta["records"]
        }
    m = int(meta["in_dim"])
    n = int(meta["out_dim"])

    def scaler(mean_key: str, std_key: str, dim: int, zero_key: str) -> Scaler:
        zero = np.zeros(dim, dtype=bool)
        zero[meta[zero_key]] = True
        return Scaler(records[mean_key][0], records[std_key][0], zero)

    return AffineMap(
        records["weight"],
        records["bias"][0],
        scaler("input_mean", "input_std", m, "input_zero_variance_dims"),
        scaler("output_mean", "output_std", n, "output_zero_variance_dims"),
        float(meta["input_norm"]),
        bool(meta["l2_normalize_inputs"]),
    )
