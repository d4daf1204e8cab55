"""Output checks: every job's output against a reference computed here.

The references are independent of the program where that is cheap (EMB1
and map readers, dense CLP, the ridge oracle, BPE token counts,
similarity scores) and use the program's public functions where the
method is defined by them (``g_random`` rows, ``encode_piece`` pieces for
FVT). The Adam reference restates the seed algorithm (uniform init,
per-epoch permutation, flat-then-linear learning rate), so fit MSEs and
the saved map must match what the seed commit computes for the same
inputs.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter

import numpy as np
from vocabforge import heuristics
from vocabforge.embeddings import EmbeddingStats
from vocabforge.errors import UnencodableInput
from vocabforge.tokenizer import load_tokenizer

from gen import BYTE, META

ROW_TOL = 1e-4  # novel rows: float32 outputs of float64 arithmetic
MAP_TOL = 1e-5  # saved map records are float32
MSE_RTOL = 1e-6
SCORE_RTOL = 1e-9


def read_emb1(path: str, offset: int = 0) -> tuple[np.ndarray, int]:
    """Read one EMB1 record at `offset`; return it and the next offset."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        header = fh.read(16)
        if len(header) < 16 or header[:4] != b"EMB1":
            raise ValueError(f"{path}: no EMB1 record at offset {offset}")
        rows, dim = struct.unpack("<II", header[4:12])
        payload = fh.read(rows * dim * 4)
    if len(payload) != rows * dim * 4:
        raise ValueError(f"{path}: truncated EMB1 record")
    data = np.frombuffer(payload, dtype="<f4").reshape(rows, dim)
    return data, offset + 16 + len(payload)


def read_map(path: str) -> dict:
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    records, offset = {}, 0
    for name in meta["records"]:
        records[name], offset = read_emb1(path, offset)
    return {"meta": meta, **records}


def apply_map(m: dict, x: np.ndarray) -> np.ndarray:
    xs = (x - m["input_mean"][0]) / m["input_std"][0]
    if m["meta"]["l2_normalize_inputs"]:
        xs = xs / m["meta"]["input_norm"]
    pred = xs @ m["weight"].astype(np.float64).T + m["bias"][0]
    return pred * m["output_std"][0] + m["output_mean"][0]


def bpe_count(word: str, ranks: dict, vocab: dict) -> int:
    """Tokens for one pre-token under greedy lowest-rank BPE with byte fallback."""
    syms = list(word)
    while len(syms) > 1:
        best = None
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best is None or r < best[0]):
                best = (r, syms[i], syms[i + 1])
        if best is None:
            break
        _, a, b = best
        merged, i = [], 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                merged.append(a + b)
                i += 2
            else:
                merged.append(syms[i])
                i += 1
        syms = merged
    return sum(1 if s in vocab else len(s.encode("utf-8")) for s in syms)


def _scale(a: np.ndarray):
    mean, std = a.mean(axis=0), a.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (a - mean) / std, mean, std


def reference_fit(x, y, epochs, batch, seed, lr=1e-3, b1=0.9, b2=0.999,
                  eps=1e-8, ridge=1e-6) -> dict:
    """Adam on the scaled pairs plus the ridge oracle, as the seed defines them."""
    xs, x_mean, x_std = _scale(x)
    nu = float(np.mean(np.linalg.norm(xs, axis=1))) or 1.0
    xs = xs / nu
    ys, y_mean, y_std = _scale(y)
    count, m = xs.shape
    n = ys.shape[1]
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(n, m)) / np.sqrt(m)
    b = np.zeros(n)
    initial = float(np.mean((xs @ w.T + b - ys) ** 2))
    mw, vw, mb, vb = np.zeros_like(w), np.zeros_like(w), np.zeros(n), np.zeros(n)
    t = 0
    for epoch in range(epochs):
        rate = lr * min(1.0, 2.0 * (1.0 - epoch / epochs))
        order = rng.permutation(count)
        for start in range(0, count, batch):
            t += 1
            sel = order[start:start + batch]
            xb, yb = xs[sel], ys[sel]
            resid = xb @ w.T + b - yb
            gw = 2.0 * (resid.T @ xb) / (len(sel) * n)
            gb = 2.0 * resid.sum(axis=0) / (len(sel) * n)
            mw = b1 * mw + (1 - b1) * gw
            vw = b2 * vw + (1 - b2) * gw * gw
            mb = b1 * mb + (1 - b1) * gb
            vb = b2 * vb + (1 - b2) * gb * gb
            c1, c2 = 1 - b1 ** t, 1 - b2 ** t
            w -= rate * (mw / c1) / (np.sqrt(vw / c2) + eps)
            b -= rate * (mb / c1) / (np.sqrt(vb / c2) + eps)
    final = float(np.mean((xs @ w.T + b - ys) ** 2))
    design = np.hstack([xs, np.ones((count, 1))])
    theta = np.linalg.solve(design.T @ design + ridge * np.eye(m + 1), design.T @ ys)
    oracle = float(np.mean((design @ theta - ys) ** 2))
    return {"initial_mse": initial, "final_mse": final, "oracle_mse": oracle,
            "weight": w, "bias": b, "input_mean": x_mean, "input_std": x_std,
            "output_mean": y_mean, "output_std": y_std, "input_norm": nu}


def _unit(rows: np.ndarray) -> np.ndarray:
    rows = rows.astype(np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class Checker:
    """Checks one workload's outputs against the generated ground truth."""

    def __init__(self, inputs: dict, spec: dict, seed: int):
        self.paths = p = inputs["paths"]
        self.spec, self.seed = spec, seed
        self.shared, self.novel, self.words = (
            inputs["shared"], inputs["novel"], inputs["words"])
        self.sid = np.array([s for _, s, _ in self.shared])
        self.tid = np.array([t for _, _, t in self.shared])
        self.nid = np.array([t for _, t in self.novel])
        pairs = {"embed": ("source_emb", "helper_emb")}
        if spec["untied"]:
            pairs["head"] = ("source_head", "helper_head")
        self.matrices = {w: (read_emb1(p[s])[0], read_emb1(p[h])[0])
                         for w, (s, h) in pairs.items()}
        self.source_model = load_tokenizer(
            p["source_vocab"], p["source_merges"], "meta-space",
            unk_token="<unk>")
        self.maps: dict = {}
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # --- intersect -------------------------------------------------------

    def partition(self, path: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            got = json.load(fh)
        problems = []
        if got.get("shared") != [list(t) for t in self.shared]:
            problems.append("intersect: shared entries differ from the generated split")
        if got.get("novel") != [list(t) for t in self.novel]:
            problems.append("intersect: novel entries differ from the generated split")
        if got.get("warnings"):
            problems.append(f"intersect: unexpected warnings {got['warnings'][:2]}")
        return problems

    # --- adapt -----------------------------------------------------------

    def _stats(self, which: str) -> EmbeddingStats:
        def compute():
            data = self.matrices[which][0].astype(np.float64)
            return EmbeddingStats(data.mean(axis=0), data.var(axis=0),
                                  float(data.mean()), float(data.var()))
        return self._memo(("stats", which), compute)

    def _random_rows(self, which: str, ids) -> np.ndarray:
        st = self._stats(which)
        dim = self.matrices[which][0].shape[1]
        return np.array([heuristics.g_random(int(t), st, self.seed)
                         for t in ids]).reshape(len(ids), dim)

    def _fvt(self, which: str):
        source = self.matrices[which][0]
        unk = self.source_model.unk_id
        rows, fallback = [], []
        for tok, tid in self.novel:
            piece = META + tok[1:] if tok.startswith(BYTE) else tok
            try:
                ids = [i for i in self.source_model.encode_piece(piece) if i != unk]
            except UnencodableInput:
                ids = []
            if ids:
                rows.append(source[ids].astype(np.float64).mean(axis=0))
            else:
                rows.append(None)
                fallback.append(len(rows) - 1)
        if fallback:
            fb_rows = self._random_rows(which, self.nid[fallback])
            for k, row in zip(fallback, fb_rows):
                rows[k] = row
        return np.array(rows), len(fallback)

    def _clp(self, which: str):
        source, helper = self.matrices[which]
        w = np.maximum(_unit(helper[self.nid]) @ _unit(helper[self.tid]).T, 0.0)
        total = w.sum(axis=1)
        rows = (w / np.where(total > 0, total, 1.0)[:, None]) @ \
            source[self.sid].astype(np.float64)
        dead = np.flatnonzero(total <= 0)
        if dead.size:
            rows[dead] = self._random_rows(which, self.nid[dead])
        return rows, int(dead.size)

    def _reference(self, method: str, which: str):
        def compute():
            if method == "random":
                return self._random_rows(which, self.nid), 0
            if method == "fvt":
                return self._fvt(which)
            if method == "clp":
                return self._clp(which)
            helper = self.matrices[which][1]
            return apply_map(self.maps[which], helper[self.nid].astype(np.float64)), 0
        return self._memo((method, which), compute)

    def matrix(self, method: str, which: str, path: str, report: dict) -> list[str]:
        tag = f"adapt {method} {which}"
        source = self.matrices[which][0]
        try:
            out, _ = read_emb1(path)
        except (OSError, ValueError) as exc:
            return [f"{tag}: {exc}"]
        want = (len(self.shared) + len(self.novel), source.shape[1])
        if out.shape != want:
            return [f"{tag}: shape {out.shape}, want {want}"]
        problems = []
        if not np.isfinite(out).all():
            problems.append(f"{tag}: non-finite values")
        if not np.array_equal(out[self.tid].view("<u4"), source[self.sid].view("<u4")):
            problems.append(f"{tag}: shared rows are not bit-exact copies of the source")
        if method == "sava" and which not in self.maps:
            return problems + [f"{tag}: no fit-map output to check against"]
        ref, fallback = self._reference(method, which)
        ok = np.isclose(out[self.nid], ref, rtol=ROW_TOL, atol=ROW_TOL).all(axis=1)
        if not ok.all():
            problems.append(f"{tag}: {int((~ok).sum())} of {len(ok)} novel rows "
                            f"differ from the reference (first id {self.nid[~ok][0]})")
        counts = (report.get("copied_count"), report.get("initialized_count"),
                  report.get("fallback_count"))
        want_counts = (len(self.shared), len(self.novel) - fallback, fallback)
        if counts != want_counts:
            problems.append(f"{tag}: report counts {counts}, want {want_counts}")
        return problems

    def adapt(self, method: str, outputs: tuple[str, ...]) -> list[str]:
        with open(outputs[1], encoding="utf-8") as fh:
            report = json.load(fh)
        problems = self.matrix(method, "embed", outputs[0], report["adaptation"])
        if self.spec["untied"]:
            problems += self.matrix(method, "head", outputs[2],
                                    report["head_adaptation"])
        return problems

    # --- fit-map ---------------------------------------------------------

    def fit_map(self, which: str, stdout: str, map_path: str) -> list[str]:
        tag = f"fit-map {which}"
        source, helper = self.matrices[which]
        ref = self._memo(("fit", which), lambda: reference_fit(
            helper[self.tid].astype(np.float64), source[self.sid].astype(np.float64),
            self.spec["epochs"], 32, self.seed))
        fit = json.loads(stdout)["fit"]
        problems = []
        if fit["pair_count"] != len(self.shared):
            problems.append(f"{tag}: pair_count {fit['pair_count']}, want {len(self.shared)}")
        for key in ("initial_mse", "final_mse", "oracle_mse"):
            if not math.isclose(fit[key], ref[key], rel_tol=MSE_RTOL):
                problems.append(f"{tag}: {key} {fit[key]!r}, reference {ref[key]!r}")
        gap = fit["frobenius_gap_to_oracle"]
        if gap is None or not math.isfinite(gap) or gap < 0:
            problems.append(f"{tag}: frobenius_gap_to_oracle {gap!r}")
        try:
            saved = read_map(map_path)
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"{tag}: {exc}"]
        for key in ("weight", "bias", "input_mean", "input_std",
                    "output_mean", "output_std"):
            got = saved[key].astype(np.float64).reshape(np.shape(ref[key]))
            if not np.allclose(got, ref[key], rtol=MAP_TOL, atol=MAP_TOL):
                problems.append(f"{tag}: saved {key} differs from the reference fit")
        if not math.isclose(saved["meta"]["input_norm"], ref["input_norm"],
                            rel_tol=MSE_RTOL):
            problems.append(f"{tag}: saved input_norm differs from the reference")
        self.maps[which] = saved
        return problems

    # --- analysis --------------------------------------------------------

    def _token_count(self, side: str) -> int:
        def compute():
            p = self.paths
            with open(p[f"{side}_vocab"], encoding="utf-8") as fh:
                vocab = json.load(fh)
            ranks: dict = {}
            with open(p[f"{side}_merges"], encoding="utf-8") as fh:
                for line in fh:
                    line = line.rstrip("\n")
                    if line.strip() and not line.startswith("#"):
                        a, b = line.split(" ")
                        ranks.setdefault((a, b), len(ranks))
            marker = META if side == "source" else BYTE
            return sum(n * bpe_count(marker + w, ranks, vocab)
                       for w, n in Counter(self.words).items())
        return self._memo(("tokens", side), compute)

    def fertility(self, side: str, path: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)["fertility"]
        want = (len(self.words), self._token_count(side))
        got = (rep["word_count"], rep["token_count"])
        problems = []
        if got != want:
            problems.append(f"fertility {side}: (words, tokens) {got}, want {want}")
        elif not math.isclose(rep["fertility"], want[1] / want[0], rel_tol=1e-12):
            problems.append(f"fertility {side}: ratio {rep['fertility']}")
        return problems

    def _similarity(self):
        with open(self.paths["target_vocab"], encoding="utf-8") as fh:
            tokens = sorted(json.load(fh).items(), key=lambda kv: kv[1])
        prefix = [i for t, i in tokens if t.startswith(BYTE)]
        other = [i for t, i in tokens if not t.startswith(BYTE)]
        rng = np.random.default_rng(self.seed)
        pick_other = rng.choice(len(other), size=128, replace=False)
        pick_prefix = rng.choice(len(prefix), size=128, replace=False)
        anchors = [other[i] for i in sorted(pick_other)]
        anchors += [prefix[i] for i in sorted(pick_prefix)]
        rel = []
        for key in ("sim_a", "sim_b"):
            data = read_emb1(self.paths[key])[0]
            rel.append(_unit(data) @ _unit(data[anchors]).T)
        a, b = rel
        cos = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        return anchors, 100.0 * math.fsum(cos) / len(cos)

    def similarity(self, path: str) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)["similarity"]
        anchors, score = self._memo("similarity", self._similarity)
        problems = []
        if rep["anchor_ids"] != anchors:
            problems.append("similarity: anchors differ from the seeded reference")
        if not math.isclose(rep["score"], score, rel_tol=SCORE_RTOL):
            problems.append(f"similarity: score {rep['score']!r}, reference {score!r}")
        return problems
