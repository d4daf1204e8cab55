import numpy as np
import pytest

from conftest import random_matrix
from vocabforge import (
    AffineMap,
    TokenPartition,
    TrainConfig,
    collect_pairs,
    fit_closed_form,
    fit_gradient,
    load_map,
    save_map,
)
from vocabforge.alignment import Scaler
from vocabforge.errors import (
    DimensionMismatch,
    EmptyIntersection,
    PartitionInconsistent,
    SingularSystem,
    SizeMismatch,
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
            shared=(("a", 4, 1), ("b", 0, 5)), novel=(), warnings=()
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

    @pytest.mark.parametrize("entry", [("a", -1, 0), ("a", 0, -1)])
    def test_negative_ids(self, entry):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 3, 2)
        part = TokenPartition(shared=(entry,), novel=(), warnings=())
        with pytest.raises(DimensionMismatch):
            collect_pairs(m, m, part)


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
    ])
    def test_malformed_rejected(self, doc):
        with pytest.raises(PartitionInconsistent):
            TokenPartition.from_dict(doc)


class TestScaler:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 5)) * 3.0 + 1.5
        sc = Scaler.fit(data)
        np.testing.assert_allclose(sc.inverse(sc.forward(data)), data,
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
        np.testing.assert_allclose(phi.apply_batch(x), y, atol=1e-2)

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
        np.testing.assert_allclose(phi.apply_batch(x), y, atol=1e-2)

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


class TestFitClosedForm:
    def test_exact_on_affine_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 6))
        w = rng.normal(size=(6, 9))
        y = x @ w + rng.normal(size=9)
        phi = fit_closed_form(x, y)
        np.testing.assert_allclose(phi.apply_batch(x), y, atol=1e-6)
        assert (phi.in_dim, phi.out_dim) == (6, 9)

    def test_rank_deficient_without_ridge(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 4))
        x[:, 3] = x[:, 2]  # duplicate column after scaling
        y = rng.normal(size=(10, 2))
        with pytest.raises(SingularSystem):
            fit_closed_form(x, y, ridge_lambda=0.0)
        fit_closed_form(x, y, ridge_lambda=1e-6)  # ridge restores solvability

    def test_matches_numpy_lstsq_without_normalization(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 5))
        y = x @ rng.normal(size=(5, 3)) + rng.normal(size=(80, 3)) * 0.2
        phi = fit_closed_form(x, y, l2_normalize=False)
        xs = Scaler.fit(x).forward(x)
        ys = Scaler.fit(y).forward(y)
        design = np.hstack([xs, np.ones((80, 1))])
        theta, *_ = np.linalg.lstsq(design, ys, rcond=None)
        np.testing.assert_allclose(phi.weight, theta[:5].T, atol=1e-5)
        np.testing.assert_allclose(phi.bias, theta[5], atol=1e-5)


class TestAffineMap:
    def test_identity(self):
        phi = AffineMap.identity(4)
        x = np.arange(4.0)
        np.testing.assert_array_equal(phi.apply(x), x)

    def test_plain_linear_formula(self):
        w = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
        b = np.array([0.25, -0.5, 1.0])
        phi = AffineMap(w, b, Scaler.identity(2), Scaler.identity(3),
                        input_norm=1.0, l2_normalize_inputs=False)
        x = np.array([2.0, -3.0])
        np.testing.assert_allclose(phi.apply(x), w @ x + b, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            AffineMap.identity(3).apply(np.zeros(5))

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        y = x @ rng.normal(size=(4, 7)) + rng.normal(size=7)
        phi = fit_closed_form(x, y)
        path = str(tmp_path / "map.bin")
        save_map(phi, path)
        back = load_map(path)
        assert (back.in_dim, back.out_dim) == (4, 7)
        assert back.l2_normalize_inputs == phi.l2_normalize_inputs
        # storage is float32, so compare predictions at float32 precision
        np.testing.assert_allclose(back.apply_batch(x), phi.apply_batch(x),
                                   rtol=1e-4, atol=1e-4)

    def test_truncated_container_rejected(self, tmp_path):
        path = str(tmp_path / "map.bin")
        save_map(AffineMap.identity(3), path)
        with open(path, "r+b") as fh:
            fh.truncate(len(fh.read()) - 4)
        with pytest.raises(SizeMismatch):
            load_map(path)
