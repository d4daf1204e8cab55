import contextlib
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (identity_map, identity_scaler, random_matrix,
                      reference_load_map, save_map_at)
from vocabforge import (
    AffineMap,
    EmbeddingMatrix,
    TokenPartition,
    TrainConfig,
    collect_pairs,
    fit_closed_form,
    fit_gradient,
    save_matrix,
)
from vocabforge import alignment, embeddings
from vocabforge.alignment import Scaler
from vocabforge.errors import (
    DimensionMismatch,
    EmptyIntersection,
    NonFiniteLoss,
    PartitionInconsistent,
)


def make_partition(n_shared, n_novel=0):
    shared = tuple((f"t{i}", i, i) for i in range(n_shared))
    novel = tuple((f"n{i}", n_shared + i) for i in range(n_novel))
    return TokenPartition(shared=shared, novel=novel, warnings=())


class TestCollectPairs:
    def test_partition_order(self):
        rng = np.random.default_rng(0)
        helper = random_matrix(rng, 6, 3)
        source = random_matrix(rng, 6, 4)
        part = TokenPartition(
            shared=(("a", 4, 1), ("b", 0, 5)),
            novel=(("c", 0), ("d", 2), ("e", 3), ("f", 4)), warnings=()
        )
        x, y = collect_pairs(helper, source, part)
        np.testing.assert_array_equal(x[0], helper.data[1])
        np.testing.assert_array_equal(x[1], helper.data[5])
        np.testing.assert_array_equal(y[0], source.data[4])
        np.testing.assert_array_equal(y[1], source.data[0])

    def test_limit_subsamples(self):
        rng = np.random.default_rng(1)
        helper = random_matrix(rng, 50, 3)
        source = random_matrix(rng, 50, 3)
        part = make_partition(50)
        x, y = collect_pairs(helper, source, part, limit=10, seed=7)
        assert x.shape == (10, 3)
        x2, y2 = collect_pairs(helper, source, part, limit=10, seed=7)
        np.testing.assert_array_equal(x, x2)
        # every kept pair is a genuine (helper, source) row pair
        rows = {tuple(r) for r in helper.data.astype(np.float64)}
        assert all(tuple(r) in rows for r in x)

    def test_limit_clamped(self):
        rng = np.random.default_rng(2)
        helper = random_matrix(rng, 5, 2)
        source = random_matrix(rng, 5, 2)
        x, _ = collect_pairs(helper, source, make_partition(5), limit=99)
        assert x.shape[0] == 5

    def test_empty_intersection(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 4, 2)
        with pytest.raises(EmptyIntersection):
            collect_pairs(m, m, make_partition(0, n_novel=4))

    def test_out_of_range_ids(self):
        rng = np.random.default_rng(4)
        helper = random_matrix(rng, 2, 2)
        source = random_matrix(rng, 9, 2)
        with pytest.raises(DimensionMismatch):
            collect_pairs(helper, source, make_partition(5))

    # one-row matrices, so the helper has one row per target token and
    # the ids are what check_partition rejects
    @pytest.mark.parametrize("entry", [("a", -1, 0), ("a", 0, -1)])
    def test_negative_ids(self, entry):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 1, 2)
        part = TokenPartition(shared=(entry,), novel=(), warnings=())
        with pytest.raises(PartitionInconsistent, match="id -1 is outside"):
            collect_pairs(m, m, part)

    @pytest.mark.parametrize("entry", [("a", 2**63, 0), ("a", 0, 2**70)])
    def test_ids_past_int64(self, entry):
        # no row has such an id; the id arrays cannot hold it
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 1, 2)
        part = TokenPartition(shared=(entry,), novel=(), warnings=())
        with pytest.raises(PartitionInconsistent, match="past the int64 range"):
            collect_pairs(m, m, part)

    @pytest.mark.parametrize("limit", [None, 300])
    @pytest.mark.parametrize("height", [1, 7, None])
    def test_blocked_gather_equals_whole_gather(self, monkeypatch, limit,
                                                height):
        helper, source, part = scattered_pairs(500, 6, 9, seed=8)
        if height is not None:
            # block budgets of `height` rows of the wider (source) side
            # leave the gathered pairs as they are
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * 9 * height)
        x, y = collect_pairs(helper, source, part, limit=limit, seed=3)
        helper_ids, source_ids = alignment._pair_ids(helper, source, part)
        if limit is not None:
            keep = np.sort(np.random.default_rng(3).choice(
                len(helper_ids), size=limit, replace=False))
            helper_ids, source_ids = helper_ids[keep], source_ids[keep]
        for got, matrix, ids in ((x, helper, helper_ids),
                                 (y, source, source_ids)):
            want = matrix.data[ids].astype(np.float64)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


ENTRIES = ("partition entries must be [token, source id, target id] (shared) "
           "and [token, target id] (novel): ")


def bad_id(value):
    return f"partition id {value!r} is not a non-negative integer"


def partition_doc(**entries):
    """A valid report (3 shared, 2 novel entries) with entries replaced:
    shared_2=[...] replaces the third shared entry."""
    doc = {"shared": [["a", 0, 1], ["b", 1, 2], ["c", 2, 0]],
           "novel": [["x", 3], ["y", 4]], "warnings": []}
    for key, entry in entries.items():
        where, index = key.rsplit("_", 1)
        doc[where][int(index)] = entry
    return doc


@st.composite
def token_partitions(draw):
    """Partitions with int64 ids; either list may be empty."""
    tokens = st.text(max_size=4)
    ids = st.integers(0, 2**63 - 1)
    return TokenPartition(
        tuple(draw(st.lists(st.tuples(tokens, ids, ids), max_size=8))),
        tuple(draw(st.lists(st.tuples(tokens, ids), max_size=8))),
        tuple(draw(st.lists(tokens, max_size=2))))


class TestPartitionFromDict:
    def test_roundtrip(self):
        part = make_partition(3, n_novel=2)
        assert TokenPartition.from_dict(part.to_dict()) == part

    @pytest.mark.parametrize("doc", [
        {"novel": []},
        {"shared": []},
        [],
        {"shared": [["a", 0]], "novel": []},
        {"shared": [], "novel": [["x", 0, 1]]},
        {"shared": [["a", "0", 0]], "novel": []},
        {"shared": [["a", 0, 1.0]], "novel": []},
        {"shared": [["a", 0, True]], "novel": []},
        {"shared": [["a", 0, -1]], "novel": []},
        {"shared": [], "novel": [["x", -2]]},
        {"shared": 5, "novel": []},
        {"shared": [], "novel": [], "warnings": 5},
        {"shared": [], "novel": [], "warnings": [1]},
    ])
    def test_malformed_rejected(self, doc):
        with pytest.raises(PartitionInconsistent):
            TokenPartition.from_dict(doc)

    # one defect each, in the first or a later entry of either list
    @pytest.mark.parametrize("entries, message", [
        ({"shared_0": ["a", 0, 1, 5]}, ENTRIES + "too many values to unpack "
                                                 "(expected 3)"),
        ({"shared_2": ["c", 2]}, ENTRIES + "not enough values to unpack "
                                           "(expected 3, got 2)"),
        ({"shared_0": ["a", True, 1]}, bad_id(True)),
        ({"shared_2": ["c", 2, False]}, bad_id(False)),
        ({"shared_0": ["a", 0.0, 1]}, bad_id(0.0)),
        ({"shared_2": ["c", 2, 2.5]}, bad_id(2.5)),
        ({"shared_0": ["a", -1, 1]}, bad_id(-1)),
        ({"shared_2": ["c", 2, -3]}, bad_id(-3)),
        ({"novel_0": ["x", 3, 4]}, ENTRIES + "too many values to unpack "
                                             "(expected 2)"),
        ({"novel_1": 7}, ENTRIES + "cannot unpack non-iterable int object"),
        ({"novel_0": ["x", True]}, bad_id(True)),
        ({"novel_1": ["y", 4.0]}, bad_id(4.0)),
        ({"novel_0": ["x", -1]}, bad_id(-1)),
        ({"novel_1": ["y", -4]}, bad_id(-4)),
    ])
    def test_one_defect_keeps_its_message(self, entries, message):
        with pytest.raises(PartitionInconsistent) as got:
            TokenPartition.from_dict(partition_doc(**entries))
        assert str(got.value) == message

    # the first defect in file order is named, shared before novel
    @pytest.mark.parametrize("entries, message", [
        ({"shared_0": ["a", -1, 1], "shared_2": ["c"]}, bad_id(-1)),
        ({"shared_0": ["a"], "shared_2": ["c", -1, 0]},
         ENTRIES + "not enough values to unpack (expected 3, got 1)"),
        ({"shared_1": ["b", 1.5, True]}, bad_id(1.5)),
        ({"shared_1": ["b", 1, True], "shared_2": ["c", -2, 0]}, bad_id(True)),
        ({"shared_2": ["c", 2, None], "novel_0": "x"}, bad_id(None)),
        ({"novel_0": ["x", -5], "novel_1": ["y", 4, 4]}, bad_id(-5)),
    ])
    def test_first_defect_is_named(self, entries, message):
        with pytest.raises(PartitionInconsistent) as got:
            TokenPartition.from_dict(partition_doc(**entries))
        assert str(got.value) == message

    def test_int_subclass_id_is_kept(self):
        class Id(int):
            pass

        part = TokenPartition.from_dict(partition_doc(shared_1=["b", Id(1), 2]))
        assert part == TokenPartition.from_dict(partition_doc())
        assert type(part.shared[1][1]) is Id

    @given(part=token_partitions())
    def test_roundtrip_and_id_arrays(self, part):
        got = TokenPartition.from_dict(json.loads(json.dumps(part.to_dict())))
        assert got == part
        for ids, rows, column in ((got.source_ids, part.shared, 1),
                                  (got.shared_target_ids, part.shared, 2),
                                  (got.novel_target_ids, part.novel, 1)):
            assert ids.dtype == np.int64 and not ids.flags.writeable
            assert ids.tolist() == [row[column] for row in rows]


class TestScaler:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 5)) * 3.0 + 1.5
        sc = Scaler.fit(data)
        np.testing.assert_allclose(sc.forward(data) * sc.std + sc.mean, data,
                                   atol=1e-6)
        scaled = sc.forward(data)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_zero_variance_flagged(self):
        data = np.column_stack([np.arange(6.0), np.full(6, 2.0)])
        sc = Scaler.fit(data)
        assert sc.zero_variance_dims.tolist() == [False, True]
        assert sc.std[1] == 1.0


class TestFitGradient:
    def test_recovers_scaling_map(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(512, 8))
        y = 2.0 * x
        phi, report = fit_gradient(x, y)
        assert report.final_mse < 1e-4
        np.testing.assert_allclose(phi.apply(x), y, atol=1e-2)

    def test_improves_over_init(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 4))
        y = x @ rng.normal(size=(4, 4)) + 0.3
        _, report = fit_gradient(x, y)
        assert report.final_mse < report.initial_mse

    def test_single_step_runs(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=(30, 3))
        _, report = fit_gradient(x, y, TrainConfig(steps=1))
        assert np.isfinite(report.final_mse)

    def test_duplicated_pairs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 5))
        y = x @ rng.normal(size=(5, 5))
        x2 = np.vstack([x, x])
        y2 = np.vstack([y, y])
        phi, report = fit_gradient(x2, y2, TrainConfig(steps=4000))
        assert report.pair_count == 80
        np.testing.assert_allclose(phi.apply(x), y, atol=1e-2)

    def test_oracle_never_worse(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 6))
        y = x @ rng.normal(size=(6, 6)) + rng.normal(size=(60, 6)) * 0.1
        _, report = fit_gradient(x, y, compare_oracle=True)
        assert report.oracle_mse is not None
        assert report.oracle_mse <= report.final_mse + 1e-12
        assert report.frobenius_gap_to_oracle is not None

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 4))
        y = rng.normal(size=(50, 4))
        cfg = TrainConfig(steps=20, seed=9)
        phi1, r1 = fit_gradient(x, y, cfg)
        phi2, r2 = fit_gradient(x, y, cfg)
        assert r1.final_mse == r2.final_mse
        np.testing.assert_array_equal(phi1.weight, phi2.weight)
        np.testing.assert_array_equal(phi1.bias, phi2.bias)

    def test_too_few_pairs(self):
        with pytest.raises(DimensionMismatch):
            fit_gradient(np.ones((1, 3)), np.ones((1, 3)))

    def test_mismatched_counts(self):
        with pytest.raises(DimensionMismatch):
            fit_gradient(np.ones((4, 3)), np.ones((5, 3)))


def seed_adam_fit(x, y, cfg):
    """The Adam loop as first written: whole-matrix temporaries per update,
    on pairs scaled as whole arrays."""
    in_scaler, out_scaler = Scaler.fit(x), Scaler.fit(y)
    xs = in_scaler.forward(x)
    nu = float(np.mean(np.linalg.norm(xs, axis=1))) or 1.0
    xs /= nu
    ys = out_scaler.forward(y)
    count, m = xs.shape
    n = ys.shape[1]
    rng = np.random.default_rng(cfg.seed)
    w = rng.uniform(-1.0, 1.0, size=(n, m)) / np.sqrt(m)
    b = np.zeros(n)
    initial = float(np.mean((xs @ w.T + b - ys) ** 2))
    batch = cfg.batch if cfg.batch > 0 else count
    b1, b2 = 0.9, 0.999
    mw, vw, mb, vb = np.zeros_like(w), np.zeros_like(w), np.zeros(n), np.zeros(n)
    t = 0
    for step in range(cfg.steps):
        lr = cfg.learning_rate * min(1.0, 2.0 * (1.0 - step / cfg.steps))
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
            w -= lr * (mw / c1) / (np.sqrt(vw / c2) + 1e-8)
            b -= lr * (mb / c1) / (np.sqrt(vb / c2) + 1e-8)
    final = float(np.mean((xs @ w.T + b - ys) ** 2))
    phi = AffineMap(w, b, in_scaler, out_scaler, nu)
    oracle = fit_closed_form(x, y)
    oracle_mse = float(np.mean((xs @ oracle.weight.T + oracle.bias - ys) ** 2))
    want = oracle.apply(x)
    gap = float(np.linalg.norm(phi.apply(x) - want)
                / np.linalg.norm(want))
    return w, b, initial, final, oracle_mse, gap


class CountingRng:
    """Wraps a Generator and counts permutation() calls (one per epoch)."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.permutations = 0

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)

    def permutation(self, count):
        self.permutations += 1
        return self._rng.permutation(count)


def assert_close_report(report, whole):
    """The four report values within rel_tol=1e-12 of the whole-array ones:
    the report comes from normal-equation sums, the restatement from the
    predictions themselves."""
    got = [report.initial_mse, report.final_mse, report.oracle_mse,
           report.frobenius_gap_to_oracle]
    for g, want in zip(got, whole):
        assert math.isclose(g, want, rel_tol=1e-12, abs_tol=0.0), (got, whole)


class TestBlockedAdam:
    """fit_gradient's map must match the whole-matrix Adam loop bit for bit."""

    @pytest.mark.parametrize("count, m, n, batch", [
        (100, 6, 9, 32),  # partial last batch (100 = 3*32 + 4), n > m
        (100, 6, 9, 0),  # full batch
        (70, 11, 20, 32),  # flat blocks of 7 weight rows: 77 * 3 + 9
        (60, 12, 5, 32),  # n < m
        (45, 8, 1, 16),  # a single output row
    ])
    @pytest.mark.parametrize("height", [1, 7, None])
    def test_bit_identical_to_whole_matrix_loop(self, monkeypatch, count, m,
                                                n, batch, height):
        if height is not None:
            monkeypatch.setattr(alignment, "_ADAM_BLOCK", 8 * m * height)
        rng = np.random.default_rng(count + m + n)
        x = rng.normal(size=(count, m)) * 2.0 + 0.5
        y = x @ rng.normal(size=(m, n)) + rng.normal(size=(count, n))
        cfg = TrainConfig(steps=3, batch=batch, seed=4, learning_rate=1e-2)
        w, b, *whole = seed_adam_fit(x, y, cfg)
        phi, report = fit_gradient(x, y, cfg, compare_oracle=True)
        assert np.array_equal(phi.weight, w)
        assert np.array_equal(phi.bias, b)
        assert_close_report(report, whole)

    @pytest.mark.parametrize("batch", [32, 0])
    @pytest.mark.parametrize("batches", [1, 7.5, None])
    def test_chunk_heights(self, monkeypatch, batch, batches):
        # Adam gathers chunks of whole batches (of all the pairs at batch
        # 0): room for 7.5 batches makes chunks of 7. The patched size
        # also sets the Adam state blocks.
        count, m, n = 300, 6, 9
        if batches is not None:
            monkeypatch.setattr(alignment, "_ADAM_BLOCK",
                                int(8 * (m + n) * (batch or count) * batches))
        rng = np.random.default_rng(21)
        x = rng.normal(size=(count, m)) * 2.0 + 0.5
        y = x @ rng.normal(size=(m, n)) + rng.normal(size=(count, n))
        cfg = TrainConfig(steps=3, batch=batch, seed=4, learning_rate=1e-2)
        w, b, *whole = seed_adam_fit(x, y, cfg)
        phi, report = fit_gradient(x, y, cfg, compare_oracle=True)
        assert np.array_equal(phi.weight, w)
        assert np.array_equal(phi.bias, b)
        assert_close_report(report, whole)

    @pytest.mark.parametrize("count, m, n, batch, block", [
        (100, 6, 9, 32, 10),  # [50, 60) holds W's last 4 and b's first 6
        (100, 6, 9, 0, 10),  # the same in full batch
        (100, 6, 9, 32, 1),  # 1-entry blocks
        (100, 6, 9, 0, 1),
        (40, 1, 1, 16, 1),  # m = n = 1: W and b one entry each
        (40, 1, 7, 16, 3),  # m = 1: [6, 9) holds W's last and b's first 2
        (40, 7, 1, 16, 3),  # n = 1: the last block [6, 8) holds W[0, 6], b
        (40, 7, 1, 0, None),  # n = 1 full batch, one block of 8
    ])
    def test_flat_state_blocks(self, monkeypatch, count, m, n, batch, block):
        # theta = [W row-major, b] with its gradient and moments in flat
        # blocks of `block` entries
        if block is not None:
            monkeypatch.setattr(alignment, "_ADAM_BLOCK", 8 * block)
            assert block == 1 or (n * m) % block  # a block spans the seam
        rng = np.random.default_rng(count + m + n)
        x = rng.normal(size=(count, m)) * 2.0 + 0.5
        y = x @ rng.normal(size=(m, n)) + rng.normal(size=(count, n))
        cfg = TrainConfig(steps=3, batch=batch, seed=4, learning_rate=1e-2)
        w, b, *whole = seed_adam_fit(x, y, cfg)
        phi, report = fit_gradient(x, y, cfg, compare_oracle=True)
        assert np.array_equal(phi.weight, w)
        assert np.array_equal(phi.bias, b)
        assert_close_report(report, whole)

    @pytest.mark.parametrize("report", [False, True])
    def test_fit_holds_one_weight_array_and_no_update_temporaries(
            self, monkeypatch, report):
        count, m, n, batch = 320, 24, 400, 32
        helper, source, part = scattered_pairs(count, m, n, seed=9)
        part.shared_target_ids, part.source_ids  # built before tracing
        monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * (m + n) * 16)
        # chunks of one batch; one flat block of the whole state
        monkeypatch.setattr(alignment, "_ADAM_BLOCK", 8 * (m + n) * batch)
        cfg = TrainConfig(steps=1, batch=batch, seed=2)
        tracemalloc.start()
        try:
            if report:
                alignment.fit_map(helper, source, part, cfg)
            else:
                alignment.train_map(helper, source, part, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state = 8 * n * (m + 1)
        # theta, its gradient and two moments; the two block temporaries;
        # the x and y chunk buffers and the residual; one chunk's float32
        # gather and numpy's two buffers for casting it; the permutation
        # and the norms
        known = (6 * state + 8 * batch * (m + 2 * n) + 4 * batch * (m + n)
                 + 2 * 8 * np.getbufsize() + 8 * 2 * count)
        slack = 32 << 10
        assert peak <= known + slack, peak - known
        # a second n×m array, or one more batch×n array per update, would
        # not fit
        assert slack < 8 * n * m and slack < 8 * batch * n

    def test_exact_fit_reports_no_negative_mse(self):
        # the sums nearly cancel on y = 2x; rounding must not go below 0
        # (with this seed the oracle's unclamped sum of squares is -1e-13)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 5))
        _, report = fit_gradient(x, 2 * x, compare_oracle=True)
        assert report.initial_mse > 0.0
        assert report.final_mse >= 0.0
        assert report.oracle_mse >= 0.0
        assert report.frobenius_gap_to_oracle >= 0.0

    def test_default_block_spans_many_rows(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(96, 80))
        y = rng.normal(size=(96, 500))
        # 256 KiB / 8 = 32768 entries: two flat blocks of the 500 * 81
        # entries, the last partial
        assert alignment._ADAM_BLOCK // (8 * 80) < 500
        cfg = TrainConfig(steps=2, batch=32, seed=1)
        w, b, *_ = seed_adam_fit(x, y, cfg)
        phi, _ = fit_gradient(x, y, cfg)
        assert np.array_equal(phi.weight, w)
        assert np.array_equal(phi.bias, b)

    @pytest.mark.filterwarnings("error")
    def test_divergence_stops_after_first_bad_epoch(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 4))
        y = rng.normal(size=(64, 4))
        spies = []

        def default_rng(seed):
            spies.append(CountingRng(seed))
            return spies[-1]

        monkeypatch.setattr(alignment.np.random, "default_rng", default_rng)
        cfg = TrainConfig(steps=200, learning_rate=1e300)
        with pytest.raises(NonFiniteLoss, match=r"in epoch 1 of 200"):
            fit_gradient(x, y, cfg)
        assert [spy.permutations for spy in spies] == [1]

    @pytest.mark.parametrize("batch", [32, 0])
    def test_map_only_fit_equals_fit_gradient(self, monkeypatch, batch):
        helper, source, part = scattered_pairs(70, 11, 20, seed=5)
        cfg = TrainConfig(steps=3, batch=batch, seed=4, learning_rate=1e-2)
        want, _ = fit_gradient(*collect_pairs(helper, source, part), cfg)
        # helper blocks of 1 and 7 rows, and the default
        for budget in (8 * 11, 8 * 11 * 7, embeddings.CACHE_BUDGET):
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", budget)
            got = alignment.train_map(helper, source, part, cfg)
            assert np.array_equal(got.weight, want.weight)
            assert np.array_equal(got.bias, want.bias)
            for side in ("input_scaler", "output_scaler"):
                for field in ("mean", "std", "zero_variance_dims"):
                    assert np.array_equal(getattr(getattr(got, side), field),
                                          getattr(getattr(want, side), field))
            assert got.input_norm == want.input_norm

    @pytest.mark.filterwarnings("error")
    def test_map_only_fit_stops_after_first_bad_epoch(self):
        helper, source, part = scattered_pairs(64, 4, 4, seed=0)
        with pytest.raises(NonFiniteLoss, match=r"in epoch 1 of 200"):
            alignment.train_map(helper, source, part,
                                TrainConfig(steps=200, learning_rate=1e300))

    def test_map_only_fit_holds_no_whole_pair_array(self, monkeypatch):
        count, m, n = 4000, 16, 24
        helper, source, part = scattered_pairs(count, m, n, seed=6)
        # statistics blocks and Adam chunks of 64 rows
        monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * (m + n) * 64)
        monkeypatch.setattr(alignment, "_ADAM_BLOCK", 8 * (m + n) * 64)
        cfg = TrainConfig(steps=1, batch=32, seed=2)
        tracemalloc.start()
        try:
            alignment.train_map(helper, source, part, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # collect_pairs alone would hold count * (m + n) float64 entries
        assert peak < count * m * 8

    @pytest.mark.parametrize("limit, gathered", [(50, True), (200, False),
                                                 (None, False)])
    def test_limited_fit_holds_neither_matrix(self, monkeypatch, limit,
                                              gathered):
        # below the shared count the kept rows are gathered once, so the
        # caller's matrices can be freed before Adam
        helper, source, part = scattered_pairs(200, 6, 9, seed=3)
        seen = []
        real = alignment._fit

        def spy(pairs, *args):
            seen.append(pairs)
            return real(pairs, *args)

        monkeypatch.setattr(alignment, "_fit", spy)
        cfg = TrainConfig(steps=2, batch=8, seed=5)
        phi, report = alignment.fit_map(helper, source, part, cfg, limit)
        [pairs] = seen
        assert pairs.count == min(limit or 200, 200)
        assert (pairs.x_ids is None) == gathered
        assert np.shares_memory(pairs.x, helper.data) != gathered
        assert np.shares_memory(pairs.y, source.data) != gathered
        want_phi, want = fit_gradient(
            *collect_pairs(helper, source, part, limit, cfg.seed), cfg,
            compare_oracle=True)
        assert np.array_equal(phi.weight, want_phi.weight)
        assert np.array_equal(phi.bias, want_phi.bias)
        assert report == want

    def test_map_only_fit_checks_the_pairs(self):
        helper, source, _ = scattered_pairs(5, 3, 3, seed=1)
        # 14 helper rows (one per target token) and 10 source rows
        with pytest.raises(EmptyIntersection):
            alignment.train_map(helper, source, make_partition(0, n_novel=14))
        with pytest.raises(DimensionMismatch, match="at least 2 pairs"):
            alignment.train_map(helper, source, make_partition(1, n_novel=13))

    def test_negative_batch_rejected(self):
        assert TrainConfig(batch=0).batch == 0  # 0 is the full batch
        with pytest.raises(ValueError, match="batch must be >= 0"):
            TrainConfig(batch=-1)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="^learning_rate must be finite"):
            TrainConfig(learning_rate=lr)

    def test_oracle_reuses_the_fit_preprocessing(self, monkeypatch):
        # one statistics pass: one scaler fit per side, for the fit, its
        # report and the oracle together
        calls = []
        real = Scaler.fit.__func__

        def spy(cls, data, ids=None):
            calls.append(data.shape)
            return real(cls, data, ids)

        monkeypatch.setattr(Scaler, "fit", classmethod(spy))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 5))
        y = rng.normal(size=(40, 6))
        _, report = fit_gradient(x, y, TrainConfig(steps=2),
                                 compare_oracle=True)
        assert report.oracle_mse is not None
        assert calls == [(40, 5), (40, 6)]


class TestBlockedReport:
    """fit_gradient's report comes from one pass over cache-sized blocks."""

    @pytest.mark.parametrize("height", [1, 7, None])
    def test_equals_whole_array_report(self, monkeypatch, height):
        count, m, n = 100, 6, 9
        if height is not None:
            # sums-pass blocks of `height` rows: one design row and one y row
            monkeypatch.setattr(embeddings, "CACHE_BUDGET",
                                8 * (m + 1 + n) * height)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(count, m)) * 2.0 + 0.5
        y = x @ rng.normal(size=(m, n)) + rng.normal(size=(count, n))
        cfg = TrainConfig(steps=3, batch=32, seed=4, learning_rate=1e-2)
        w, b, *whole = seed_adam_fit(x, y, cfg)
        phi, report = fit_gradient(x, y, cfg, compare_oracle=True)
        assert np.array_equal(phi.weight, w)
        assert np.array_equal(phi.bias, b)
        assert_close_report(report, whole)

    @pytest.mark.parametrize("m, n, budget_rows, want", [
        (6, 9, 3, 3),  # 16 floats a row: CACHE_BUDGET rows
        (512, 512, 3, 3),  # 1025 floats, the widest sized by its own width
        (600, 700, 3, 3),  # wider rows get as many rows as 1025 floats
        (600, 700, 1, 1),
    ])
    def test_sums_block_height_floor(self, monkeypatch, m, n, budget_rows,
                                     want):
        monkeypatch.setattr(embeddings, "CACHE_BUDGET",
                            8 * min(m + 1 + n, 1025) * budget_rows)
        heights = []
        real = alignment._Pairs.rows

        def spy(self, sel, x_out, y_out):
            if isinstance(sel, slice):
                heights.append(len(x_out))
            return real(self, sel, x_out, y_out)

        monkeypatch.setattr(alignment._Pairs, "rows", spy)
        rng = np.random.default_rng(13)
        pairs = alignment._array_pairs(rng.normal(size=(10, m)),
                                       rng.normal(size=(10, n)))
        alignment._normal_equations(pairs)
        assert heights == [want] * len(range(0, 10, want))

    def test_working_set_beyond_the_pairs(self, monkeypatch):
        count, m, n = 4000, 16, 24
        rows = 50
        monkeypatch.setattr(embeddings, "CACHE_BUDGET", 3 * 8 * n * rows)
        monkeypatch.setattr(alignment, "_ADAM_BLOCK", 8 * n * rows)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(count, m))
        y = x @ rng.normal(size=(m, n)) + rng.normal(size=(count, n))
        cfg = TrainConfig(steps=1, batch=32, seed=2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fit_gradient(x, y, cfg, compare_oracle=True)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # One block of the statistics or sums pass, one Adam chunk, O(m^2 +
        # m*n) for the Adam state, the start and the normal equations, and
        # two count-long vectors: the row norms and one epoch's
        # permutation. Predictions over all the pairs would be count * n
        # floats each.
        bound = (embeddings.CACHE_BUDGET + alignment._ADAM_BLOCK
                 + 8 * (8 * (m + 1) * (m + n) + 2 * count))
        assert peak <= bound
        assert bound < 8 * count * n


def scattered_pairs(count, m, n, seed):
    """float32 helper and source matrices and a partition whose `count`
    shared tokens sit at shuffled rows of each, with y affine in x; the
    helper's other rows are novel tokens."""
    rng = np.random.default_rng(seed)
    helper_ids = rng.permutation(count + 9)[:count]
    source_ids = rng.permutation(count + 5)[:count]
    helper = rng.normal(size=(count + 9, m)) * 2.0 + 0.5
    source = rng.normal(size=(count + 5, n))
    source[source_ids] += helper[helper_ids] @ rng.normal(size=(m, n))
    part = TokenPartition(
        shared=tuple((f"t{i}", int(sid), int(tid)) for i, (sid, tid)
                     in enumerate(zip(source_ids, helper_ids))),
        novel=tuple((f"n{tid}", tid) for tid in
                    np.setdiff1d(np.arange(count + 9), helper_ids).tolist()),
        warnings=(),
    )
    return (EmbeddingMatrix(helper.astype(np.float32)),
            EmbeddingMatrix(source.astype(np.float32)), part)


class TestScalerFitRows:
    """Scaler.fit(data, ids) must equal np.mean and np.std of the gathered
    float64 rows at every block height."""

    @pytest.mark.parametrize("count, dim", [
        (100, 9), (777, 5), (1000, 1), (300, 2),
    ])
    @pytest.mark.parametrize("height", [1, 7, None])
    def test_equals_fit_of_gathered_rows(self, monkeypatch, count, dim,
                                         height):
        if height is not None:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * dim * height)
        rng = np.random.default_rng(count + dim)
        data = (rng.normal(size=(count + 20, dim)) * 3.0 + 1.0).astype(np.float32)
        if dim > 1:
            data[:, 1] = 0.25  # a zero-variance column
        ids = rng.permutation(count + 20)[:count]
        got = Scaler.fit(data, ids)
        rows = data[ids].astype(np.float64)
        std = rows.std(axis=0)
        assert np.array_equal(got.mean, rows.mean(axis=0))
        assert np.array_equal(got.std, np.where(std == 0.0, 1.0, std))
        assert np.array_equal(got.zero_variance_dims, std == 0.0)
        assert got.zero_variance_dims.any() == (dim > 1)

    @pytest.mark.parametrize("count, dim", [(100, 9), (1000, 1)])
    @pytest.mark.parametrize("height", [1, 7, None])
    def test_all_rows_equal_fit(self, monkeypatch, count, dim, height):
        if height is not None:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * dim * height)
        rng = np.random.default_rng(count * dim)
        data = rng.normal(size=(count, dim)) * 3.0 + 1.0
        got = Scaler.fit(data)
        assert np.array_equal(got.mean, data.mean(axis=0))
        assert np.array_equal(got.std, data.std(axis=0))


class TestFitClosedForm:
    def test_exact_on_affine_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 6))
        w = rng.normal(size=(6, 9))
        y = x @ w + rng.normal(size=9)
        phi = fit_closed_form(x, y)
        np.testing.assert_allclose(phi.apply(x), y, atol=1e-6)
        assert (phi.in_dim, phi.out_dim) == (6, 9)

    def test_rank_deficient_without_ridge(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 4))
        x[:, 3] = x[:, 2]  # duplicate column after scaling
        y = rng.normal(size=(10, 2))
        phi = fit_closed_form(x, y)  # the fixed ridge keeps it solvable
        assert np.isfinite(phi.weight).all() and np.isfinite(phi.bias).all()

    def test_matches_numpy_lstsq_on_normalized_inputs(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 5))
        y = x @ rng.normal(size=(5, 3)) + rng.normal(size=(80, 3)) * 0.2
        phi = fit_closed_form(x, y)
        xs = Scaler.fit(x).forward(x)
        xs /= np.mean(np.linalg.norm(xs, axis=1))
        assert phi.input_norm != 1.0
        ys = Scaler.fit(y).forward(y)
        design = np.hstack([xs, np.ones((80, 1))])
        theta, *_ = np.linalg.lstsq(design, ys, rcond=None)
        np.testing.assert_allclose(phi.weight, theta[:5].T, atol=1e-5)
        np.testing.assert_allclose(phi.bias, theta[5], atol=1e-5)


class TestAffineMap:
    def test_identity(self):
        phi = identity_map(4)
        x = np.arange(4.0)
        np.testing.assert_array_equal(phi.apply(x), x)

    def test_plain_linear_formula(self):
        w = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
        b = np.array([0.25, -0.5, 1.0])
        phi = AffineMap(w, b, identity_scaler(2), identity_scaler(3),
                        input_norm=1.0)
        x = np.array([2.0, -3.0])
        np.testing.assert_allclose(phi.apply(x), w @ x + b, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            identity_map(3).apply(np.zeros(5))

    @pytest.mark.parametrize("shape", [(5,), (9, 5)], ids=["1-d", "2-d"])
    def test_apply_equals_step_by_step_expression(self, shape):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 5))
        phi, _ = fit_gradient(x, x @ rng.normal(size=(5, 3)) + 2.0,
                              TrainConfig(steps=3))
        query = rng.normal(size=shape)
        before = query.copy()
        got = phi.apply(query)
        xs = phi.input_scaler.forward(query) / phi.input_norm
        scaler = phi.output_scaler
        want = (xs @ phi.weight.T + phi.bias) * scaler.std + scaler.mean
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert query.tobytes() == before.tobytes()

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        y = x @ rng.normal(size=(4, 7)) + rng.normal(size=7)
        phi = fit_closed_form(x, y)
        path = str(tmp_path / "map.bin")
        save_map_at(phi, path)
        back = reference_load_map(path)
        assert (back.in_dim, back.out_dim) == (4, 7)
        assert back.input_norm == phi.input_norm
        # storage is float32, so compare predictions at float32 precision
        np.testing.assert_allclose(back.apply(x), phi.apply(x),
                                   rtol=1e-4, atol=1e-4)

    def test_failed_save_keeps_the_previous_map(self, tmp_path, monkeypatch,
                                                capsys):
        # fit-map opens the container and its sidecar on one stack, so a
        # write failing in either leaves both previous files
        from vocabforge.cli import main
        rng = np.random.default_rng(3)
        inputs = {name: str(tmp_path / name)
                  for name in ("helper.emb1", "source.emb1", "part.json")}
        save_matrix(random_matrix(rng, 6, 3), inputs["helper.emb1"])
        save_matrix(random_matrix(rng, 6, 4), inputs["source.emb1"])
        Path(inputs["part.json"]).write_text(
            json.dumps(make_partition(6).to_dict()), encoding="utf-8")
        path = str(tmp_path / "map.bin")
        argv = ["fit-map", "--helper-emb", inputs["helper.emb1"],
                "--source-emb", inputs["source.emb1"],
                "--partition", inputs["part.json"], "--out", path]
        assert main([*argv, "--steps", "1"]) == 0
        before = [Path(p).read_bytes() for p in (path, path + ".json")]
        real = embeddings.atomic_open
        names = sorted(os.listdir(tmp_path))
        for full in (path, path + ".json"):

            @contextlib.contextmanager
            def atomic_open(target, *args, **kwargs):
                # the disk holding `full` fills after its first 16 bytes
                with real(target, *args, **kwargs) as fh:
                    if target == full:
                        write = fh.write

                        def write_until_full(data):
                            if fh.tell() + len(data) > 16:
                                raise OSError(28, "No space left on device")
                            return write(data)

                        fh.write = write_until_full
                    yield fh

            monkeypatch.setattr(embeddings, "atomic_open", atomic_open)
            assert main([*argv, "--steps", "3"]) == 2
            assert capsys.readouterr().err == \
                "i/o error: [Errno 28] No space left on device\n"
            assert [Path(p).read_bytes() for p in (path, path + ".json")] == before
            assert sorted(os.listdir(tmp_path)) == names

    def test_roundtrip_keeps_zero_variance_dims(self, tmp_path):
        x = np.column_stack([np.arange(8.0), np.full(8, 2.0), np.arange(8.0) ** 2])
        phi = fit_closed_form(x, x[:, ::-1] + 1.0)
        path = str(tmp_path / "map.bin")
        save_map_at(phi, path)
        back = reference_load_map(path)
        assert back.input_scaler.zero_variance_dims.tolist() == [False, True, False]
        assert back.output_scaler.zero_variance_dims.tolist() == [False, True, False]
