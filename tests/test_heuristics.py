import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import (
    META,
    NONE,
    char_tokenizer,
    identity_map,
    random_matrix,
    word_list_tokenizer,
)
from vocabforge import (
    AffineMap,
    EmbeddingMatrix,
    HeuristicConfig,
    TokenPartition,
    TrainConfig,
    adapt,
    adapt_matrix,
    fit_gradient,
    g_fvt,
    g_random,
    g_sava,
    partition,
    stats,
    tokenizer,
)
from vocabforge.errors import (
    DegenerateSimilarity,
    DimensionMismatch,
    EmptyIntersection,
    FallbackRequired,
    PartitionInconsistent,
    UnencodableInput,
    VocabForgeError,
    ZeroNormRow,
)
from vocabforge.heuristics import ClpInitializer, assemble, random_rows


def stats_of(array):
    return stats(EmbeddingMatrix(np.asarray(array, dtype=np.float32)))


class TestGRandom:
    def test_zero_variance_returns_mean(self):
        st = stats_of([[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_allclose(g_random(7, st, seed=0), [1.0, 2.0])

    def test_deterministic_and_order_free(self):
        rng = np.random.default_rng(0)
        st = stats_of(rng.normal(size=(30, 4)))
        a = g_random(5, st, seed=3)
        b = g_random(5, st, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, g_random(6, st, seed=3))
        assert not np.array_equal(a, g_random(5, st, seed=4))

    def test_moment_recovery(self):
        rng = np.random.default_rng(1)
        st = stats_of(rng.normal(loc=2.0, scale=0.5, size=(500, 4)))
        draws = np.array([g_random(i, st, seed=0) for i in range(10_000)])
        np.testing.assert_allclose(draws.mean(axis=0), st.mean, atol=0.05)
        np.testing.assert_allclose(draws.std(axis=0), np.sqrt(st.variance),
                                   atol=0.05)

    def test_scalar_moments(self):
        st = stats_of([[0.0, 4.0], [0.0, 4.0]])
        row = g_random(0, st, seed=0, moments="scalar")
        # scalar mode ignores per-dimension structure: mean 2, variance 4
        draws = np.array([g_random(i, st, seed=0, moments="scalar")
                          for i in range(5_000)]).ravel()
        assert abs(draws.mean() - 2.0) < 0.1
        assert abs(draws.std() - 2.0) < 0.1
        assert row.shape == (2,)


class TestGFvt:
    def test_single_token_piece_is_exact(self):
        model = char_tokenizer(merges=[("a", "b")], alphabet="ab")
        rng = np.random.default_rng(0)
        emb = random_matrix(rng, model.vocab.size, 5)
        row = g_fvt("ab", model, emb)
        np.testing.assert_array_equal(row,
                                      emb.data[model.vocab.token_to_id["ab"]])

    def test_casa_two_token_mean(self):
        model = char_tokenizer(merges=[("c", "a"), ("s", "a")], alphabet="acs")
        v = model.vocab.token_to_id
        emb = np.zeros((model.vocab.size, model.vocab.size), dtype=np.float32)
        np.fill_diagonal(emb, 1.0)
        row = g_fvt("casa", model, EmbeddingMatrix(emb))
        expected = np.zeros(model.vocab.size)
        expected[v["ca"]] = 0.5
        expected[v["sa"]] = 0.5
        np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_long_piece_against_manual_mean(self):
        model = char_tokenizer(alphabet="abcde")
        rng = np.random.default_rng(1)
        emb = random_matrix(rng, model.vocab.size, 6)
        row = g_fvt("edcba", model, emb)
        ids = model.encode_piece("edcba")
        assert len(ids) == 5
        manual = emb.data[ids].astype(np.float64).sum(axis=0) / 5
        np.testing.assert_allclose(row, manual, atol=1e-7)

    def test_unencodable_requests_fallback(self):
        model = char_tokenizer(alphabet="ab")
        rng = np.random.default_rng(2)
        emb = random_matrix(rng, model.vocab.size, 3)
        with pytest.raises(FallbackRequired):
            g_fvt("xyz", model, emb)

    def test_unknown_ids_dropped(self):
        model = char_tokenizer(alphabet="ab", extra_tokens=["<unk>"],
                               unk_token="<unk>")
        v = model.vocab.token_to_id
        rng = np.random.default_rng(3)
        emb = random_matrix(rng, model.vocab.size, 4)
        row = g_fvt("azb", model, emb)
        manual = emb.data[[v["a"], v["b"]]].astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(row, manual, atol=1e-12)

    def test_all_unknown_requests_fallback(self):
        model = char_tokenizer(alphabet="ab", extra_tokens=["<unk>"],
                               unk_token="<unk>")
        rng = np.random.default_rng(4)
        emb = random_matrix(rng, model.vocab.size, 4)
        with pytest.raises(FallbackRequired):
            g_fvt("zz", model, emb)


def clp_fixture():
    """3 shared tokens with orthogonal helper rows, 2 novel tokens."""
    source = word_list_tokenizer(["s0", "s1", "s2"])
    target = word_list_tokenizer(["s0", "s1", "s2", "n0", "n1"])
    part = partition(source.vocab, target.vocab, NONE, NONE)
    rng = np.random.default_rng(0)
    source_emb = random_matrix(rng, 3, 4)
    helper = np.zeros((5, 3), dtype=np.float32)
    helper[0] = [2.0, 0.0, 0.0]
    helper[1] = [0.0, 1.0, 0.0]
    helper[2] = [0.0, 0.0, 5.0]
    return part, source_emb, helper


class TestGClp:
    def test_aligned_helper_row_copies_source_row(self):
        part, source_emb, helper = clp_fixture()
        helper[3] = [7.0, 0.0, 0.0]  # parallel to shared token 0 only
        row = ClpInitializer(source_emb, EmbeddingMatrix(helper), part,
                             HeuristicConfig(method="clp"))(3)
        np.testing.assert_allclose(row, source_emb.data[0], atol=1e-12)

    def test_equal_similarity_gives_midpoint(self):
        part, source_emb, helper = clp_fixture()
        helper[3] = [1.0, 1.0, 0.0]
        row = ClpInitializer(source_emb, EmbeddingMatrix(helper), part,
                             HeuristicConfig(method="clp"))(3)
        mid = source_emb.data[[0, 1]].astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(row, mid, atol=1e-12)

    def test_weights_sum_to_one(self):
        part, source_emb, helper = clp_fixture()
        helper[3] = [0.3, 0.9, 0.2]
        for policy in ("clamp-zero", "shift-min", "absolute"):
            for k in (0, 2):
                init = ClpInitializer(
                    source_emb, EmbeddingMatrix(helper), part,
                    HeuristicConfig(method="clp", clp_negative_policy=policy,
                                    clp_top_k=k),
                )
                assert abs(init.weights(3).sum() - 1.0) < 1e-6

    def test_clamp_zero_stays_in_convex_hull(self):
        part, source_emb, helper = clp_fixture()
        helper[3] = [0.6, -0.4, 0.8]
        row = ClpInitializer(source_emb, EmbeddingMatrix(helper), part,
                             HeuristicConfig(method="clp"))(3)
        shared = source_emb.data.astype(np.float64)
        assert np.all(row >= shared.min(axis=0) - 1e-9)
        assert np.all(row <= shared.max(axis=0) + 1e-9)

    def test_top_k_limits_support(self):
        part, source_emb, helper = clp_fixture()
        helper[3] = [0.9, 0.5, 0.1]
        init = ClpInitializer(source_emb, EmbeddingMatrix(helper), part,
                              HeuristicConfig(method="clp", clp_top_k=1))
        w = init.weights(3)
        assert np.count_nonzero(w) == 1
        assert w[0] == 1.0

    def test_zero_norm_helper_row(self):
        part, source_emb, helper = clp_fixture()
        with pytest.raises(ZeroNormRow):
            ClpInitializer(source_emb, EmbeddingMatrix(helper), part,
                           HeuristicConfig(method="clp"))(3)

    def test_zero_norm_shared_helper_row_names_its_id(self):
        part, source_emb, helper = clp_fixture()
        _, _, tid = part.shared[1]
        helper[tid] = 0.0
        with pytest.raises(ZeroNormRow, match=f"^shared helper token id {tid} "):
            ClpInitializer(source_emb, EmbeddingMatrix(helper), part,
                           HeuristicConfig(method="clp"))

    def test_all_negative_similarity_is_degenerate(self):
        part, source_emb, helper = clp_fixture()
        helper[3] = [-1.0, -1.0, -1.0]
        with pytest.raises(DegenerateSimilarity):
            ClpInitializer(source_emb, EmbeddingMatrix(helper), part,
                           HeuristicConfig(method="clp"))(3)


class TestGSava:
    def test_identity_map_copies_helper_row(self):
        rng = np.random.default_rng(0)
        helper = random_matrix(rng, 4, 6)
        row = g_sava(2, helper, identity_map(6))
        np.testing.assert_allclose(row, helper.data[2], atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        helper = random_matrix(rng, 4, 6)
        with pytest.raises(DimensionMismatch):
            g_sava(0, helper, identity_map(5))


class TestAssemble:
    def test_pure_copy(self):
        rng = np.random.default_rng(0)
        source_emb = random_matrix(rng, 4, 3)
        part = TokenPartition(
            shared=(("a", 3, 0), ("b", 1, 1)), novel=(), warnings=()
        )
        out, report = assemble(source_emb, part, np.zeros((0, 3)), None,
                               HeuristicConfig())
        assert out.data[0].tobytes() == source_emb.data[3].tobytes()
        assert out.data[1].tobytes() == source_emb.data[1].tobytes()
        assert (report.copied_count, report.initialized_count,
                report.fallback_count) == (2, 0, 0)

    def test_constant_initializer(self):
        rng = np.random.default_rng(1)
        source_emb = random_matrix(rng, 2, 3)
        part = TokenPartition(
            shared=(("a", 0, 0),), novel=(("x", 1), ("y", 2)), warnings=()
        )
        # the rows of x and y, in partition order
        rows = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        out, report = assemble(source_emb, part, rows, None, HeuristicConfig())
        np.testing.assert_array_equal(out.data[1], [1, 1, 1])
        np.testing.assert_array_equal(out.data[2], [2, 2, 2])
        assert report.initialized_count == 2
        assert sorted(report.per_token) == [
            (0, "copied"), (1, "heuristic"), (2, "heuristic")
        ]

    def test_fallback_routing(self):
        rng = np.random.default_rng(2)
        source_emb = random_matrix(rng, 2, 3)
        part = TokenPartition(
            shared=(("a", 0, 0),), novel=(("x", 1), ("y", 2)), warnings=()
        )
        cfg = HeuristicConfig(method="fvt", seed=4, random_moments="scalar")
        out, report = assemble(source_emb, part, np.zeros((2, 3)),
                               np.array([True, False]), cfg)
        np.testing.assert_array_equal(out.data[1], [0, 0, 0])
        # the random fallback under the method's seed and moments
        want = random_rows([2], stats(source_emb), 4, "scalar")
        assert out.data[2].tobytes() == want[0].astype(np.float32).tobytes()
        assert report.fallback_count == 1
        assert (2, "fallback") in report.per_token

    def test_mean_row_fallback_routing(self):
        rng = np.random.default_rng(3)
        source_emb = random_matrix(rng, 2, 3)
        part = TokenPartition(
            shared=(("a", 0, 0),), novel=(("x", 1), ("y", 2), ("z", 3)),
            warnings=()
        )
        out, report = assemble(source_emb, part, np.ones((3, 3)),
                               np.array([False, True, False]),
                               HeuristicConfig(fallback="mean-row"))
        mean = stats(source_emb).mean.astype(np.float32)
        for tid in (1, 3):
            assert out.data[tid].tobytes() == mean.tobytes()
        np.testing.assert_array_equal(out.data[2], [1, 1, 1])
        assert (report.initialized_count, report.fallback_count) == (1, 2)
        assert sorted(report.per_token) == [
            (0, "copied"), (1, "fallback"), (2, "heuristic"), (3, "fallback")
        ]

    def test_no_initializer_means_every_novel_row_falls_back(self):
        rng = np.random.default_rng(6)
        source_emb = random_matrix(rng, 2, 3)
        part = TokenPartition(
            shared=(("a", 0, 0),), novel=(("x", 1), ("y", 2)), warnings=()
        )
        # every row marked not ok: the default method's random fallback,
        # seed 0
        out, report = assemble(source_emb, part, np.zeros((2, 3)),
                               np.zeros(2, dtype=bool), HeuristicConfig())
        want = random_rows([1, 2], stats(source_emb), 0).astype(np.float32)
        assert out.data[1:].tobytes() == want.tobytes()
        assert (report.initialized_count, report.fallback_count) == (0, 2)
        assert sorted(report.per_token) == [
            (0, "copied"), (1, "fallback"), (2, "fallback")
        ]

    @staticmethod
    def adapt_random(source_emb, part):
        # adapt_matrix checks the partition before its kernel and assemble
        source = word_list_tokenizer([f"s{i}" for i in range(source_emb.rows)])
        return adapt_matrix(source_emb, source, source, part, None,
                            HeuristicConfig(method="random"), TrainConfig())

    def test_duplicate_target_id_rejected(self):
        rng = np.random.default_rng(4)
        source_emb = random_matrix(rng, 2, 2)
        part = TokenPartition(
            shared=(("a", 0, 0), ("b", 1, 0)), novel=(("x", 1),), warnings=()
        )
        with pytest.raises(PartitionInconsistent):
            self.adapt_random(source_emb, part)

    def test_coverage_gap_rejected(self):
        rng = np.random.default_rng(5)
        source_emb = random_matrix(rng, 2, 2)
        part = TokenPartition(
            shared=(("a", 0, 1),), novel=(("x", 2),), warnings=()
        )
        # the target has shared + novel = 2 ids, so id 2 is out of range
        # and id 0 is never produced
        with pytest.raises(PartitionInconsistent):
            self.adapt_random(source_emb, part)

    @pytest.mark.parametrize("shared, novel", [
        ((("a", -1, 0),), (("x", 1),)),
        ((("a", 0, -1),), (("x", 1),)),
        ((("a", 0, 0),), (("x", -1),)),
        ((("a", 2, 0),), (("x", 1),)),
    ])
    def test_negative_or_out_of_range_id_rejected(self, shared, novel):
        rng = np.random.default_rng(7)
        source_emb = random_matrix(rng, 2, 2)
        part = TokenPartition(shared=shared, novel=novel, warnings=())
        with pytest.raises(PartitionInconsistent):
            self.adapt_random(source_emb, part)

    @pytest.mark.parametrize("method", ["random", "fvt", "clp", "sava"])
    def test_one_partition_check_per_adapt_matrix(self, monkeypatch, method):
        from vocabforge import alignment, heuristics
        calls = []
        real = heuristics.check_partition

        def spy(*args):
            calls.append(args[1:])
            return real(*args)

        for module in (heuristics, alignment):
            monkeypatch.setattr(module, "check_partition", spy)
        source, target, source_emb, helper_emb = adaptation_fixture()
        part = partition(source.vocab, target.vocab, source.marker,
                         target.marker)
        for _ in range(2):
            adapt_matrix(source_emb, source, target, part, helper_emb,
                         HeuristicConfig(method=method), TrainConfig(steps=1))
        helper_rows = helper_emb.rows if method in ("clp", "sava") else None
        assert calls == 2 * [(source_emb.rows, helper_rows, source.vocab.size)]


def clp_reference(helper, part, source_emb, token_id, policy, k):
    """Per-row CLP: one matvec per token, lexsort top-k; None if degenerate."""
    tids = [tid for _, _, tid in part.shared]
    sids = [sid for _, sid, _ in part.shared]
    anchors = helper[tids].astype(np.float64)
    unit = anchors / np.linalg.norm(anchors, axis=1)[:, None]
    v = helper[token_id].astype(np.float64)
    sims = unit @ (v / np.linalg.norm(v))
    if policy == "clamp-zero":
        w = np.maximum(sims, 0.0)
    elif policy == "shift-min":
        w = sims - sims.min()
    else:
        w = np.abs(sims)
    if 0 < k < len(w):
        order = np.lexsort((np.arange(len(w)), -w))
        w = np.where(np.isin(np.arange(len(w)), order[:k]), w, 0.0)
    if w.sum() <= 0.0:
        return None
    return (w / w.sum()) @ source_emb.data[sids].astype(np.float64)


def tied_clp_fixture():
    """8 shared and 12 novel tokens; several novel rows tie between anchors.

    Shared helper rows 0/2 and 1/4 are identical directions, so any novel
    row has exactly equal similarities to each pair; novel rows along an
    axis or a diagonal tie across more anchors. Every shared helper row is
    non-negative, so the all-negative novel row (n3) has no positive
    similarity.
    """
    shared = [f"s{i}" for i in range(8)]
    novel = [f"n{i}" for i in range(12)]
    source = word_list_tokenizer(shared + ["only-source"])
    target = word_list_tokenizer(shared + novel)
    part = partition(source.vocab, target.vocab, NONE, NONE)
    rng = np.random.default_rng(5)
    source_emb = random_matrix(rng, source.vocab.size, 5)
    helper = rng.normal(size=(target.vocab.size, 4)).astype(np.float32)
    helper[0] = [1, 0, 0, 0]
    helper[1] = [0, 1, 0, 0]
    helper[2] = [3, 0, 0, 0]
    helper[3] = [1, 1, 0, 0]
    helper[4] = [0, 2, 0, 0]
    helper[5:8] = np.abs(helper[5:8])  # every anchor in the positive orthant
    helper[12:, 0] = np.abs(helper[12:, 0]) + 0.1  # positive against anchor 0
    helper[8] = [1, 1, 0, 0]
    helper[9] = [0, 0, 1, 0]
    helper[10] = [2, 0, 0, 0]
    helper[11] = [-1, -1, -1, -1]
    return part, source_emb, helper, source, target


class TestClpKernel:
    @pytest.mark.parametrize("policy", ["clamp-zero", "shift-min", "absolute"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_blocked_matches_per_row_reference(self, monkeypatch, policy, k):
        from vocabforge import heuristics
        part, source_emb, helper, _, _ = tied_clp_fixture()
        monkeypatch.setattr(heuristics, "_CLP_BUDGET", 3 * 8 * part.shared_count)
        init = heuristics.ClpInitializer(
            source_emb, EmbeddingMatrix(helper), part,
            HeuristicConfig(method="clp", clp_negative_policy=policy,
                            clp_top_k=k),
        )
        ids = np.array([tid for _, tid in part.novel])
        rows, ok = init.rows(ids)
        for row, good, tid in zip(rows, ok, ids):
            want = clp_reference(helper, part, source_emb, tid, policy, k)
            assert good == (want is not None)
            if want is not None:
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 2])
    def test_block_size_does_not_change_output(self, monkeypatch, k):
        from vocabforge import heuristics
        _, source_emb, helper, source, target = tied_clp_fixture()
        shared = 8
        cfg = HeuristicConfig(method="clp", clp_top_k=k)
        results = []
        for budget in (8 * shared, 7 * 8 * shared, heuristics._CLP_BUDGET):
            monkeypatch.setattr(heuristics, "_CLP_BUDGET", budget)
            results.append(adapt(source_emb, source, target,
                                 EmbeddingMatrix(helper), cfg))
        (first, first_report), *rest = results
        assert first_report.fallback_count == 1
        for out, report in rest:
            assert out.data.tobytes() == first.data.tobytes()
            assert report.per_token == first_report.per_token

    def test_zero_norm_novel_row_raises(self):
        part, source_emb, helper, source, target = tied_clp_fixture()
        helper[part.novel[5][1]] = 0.0
        with pytest.raises(ZeroNormRow, match=f"id {part.novel[5][1]} "):
            adapt(source_emb, source, target, EmbeddingMatrix(helper),
                  HeuristicConfig(method="clp"))

    def test_all_negative_row_goes_to_fallback(self):
        part, source_emb, helper, source, target = tied_clp_fixture()
        out, report = adapt(source_emb, source, target, EmbeddingMatrix(helper),
                            HeuristicConfig(method="clp", seed=4))
        tid = target.vocab.token_to_id["n3"]  # helper row 11: all negative
        assert report.fallback_count == 1
        assert (tid, "fallback") in report.per_token
        want = g_random(tid, stats(source_emb), seed=4).astype(np.float32)
        np.testing.assert_array_equal(out.data[tid], want)


class TestRowKernels:
    def test_random_rows_match_per_id_philox(self):
        from vocabforge.heuristics import random_rows
        rng = np.random.default_rng(8)
        st = stats_of(rng.normal(size=(20, 6)))
        ids = [0, 5, 3, 2**40]
        moments = {
            "per-dimension": (st.mean, st.variance),
            "scalar": (st.scalar_mean, st.scalar_variance),
        }
        for seed in (0, 7, 9, 2**64 - 1, -1):
            for name, (mean, var) in moments.items():
                got = random_rows(ids, st, seed=seed, moments=name)
                for row, tid in zip(got, ids):
                    key = ((seed & (2**64 - 1)) << 64) | tid
                    bits = np.random.Philox(key=key)
                    draw = np.random.Generator(bits).standard_normal(6)
                    want = mean + np.sqrt(var) * draw
                    assert row.tobytes() == want.tobytes(), (seed, name, tid)

    def test_sava_rows_match_single_rows(self):
        from vocabforge.heuristics import sava_rows
        rng = np.random.default_rng(9)
        helper = random_matrix(rng, 6, 4)
        x = rng.normal(size=(30, 4))
        phi, _ = fit_gradient(x, x @ rng.normal(size=(4, 3)),
                              TrainConfig(steps=3))
        rows = sava_rows([4, 0, 2], helper, phi)
        for row, tid in zip(rows, [4, 0, 2]):
            np.testing.assert_allclose(
                row, phi.apply(helper.data[tid].astype(np.float64)), atol=1e-12)

    def test_sava_rows_equal_the_float64_gather(self):
        # float32 rows go straight into the map: the subtraction of the
        # float64 mean promotes them exactly
        from vocabforge.heuristics import sava_rows
        rng = np.random.default_rng(10)
        helper = random_matrix(rng, 40, 7)
        x = rng.normal(size=(50, 7))
        phi, _ = fit_gradient(x, x @ rng.normal(size=(7, 5)),
                              TrainConfig(steps=2))
        ids = rng.permutation(40)[:25]
        want = phi.apply(helper.data[ids].astype(np.float64))
        got = sava_rows(ids, helper, phi)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def fvt_reference(pieces, model, emb):
    """Per-piece FVT: one float64 gather and mean(axis=0) per piece."""
    rows = np.zeros((len(pieces), emb.dim))
    ok = np.zeros(len(pieces), dtype=bool)
    for i, piece in enumerate(pieces):
        try:
            ids = model.encode_piece(piece)
        except UnencodableInput:
            continue
        ids = [t for t in ids if t != model.unk_id]
        if ids:
            rows[i] = emb.data[ids].astype(np.float64).mean(axis=0)
            ok[i] = True
    return rows, ok


class TestFvtKernel:
    # 1, 2 and 9-15 ids; "z" is outside the alphabet: the unk model maps it
    # to <unk> (dropped, so "zz" has no ids), the strict one cannot encode it
    pieces = ["a", "ab", "ac", "abd", "cabcdabcd", "ponmlkjihgfedcb",
              "zabz", "zz", "", "ddddddddddd", "b", "efghijklmab"]

    @staticmethod
    def model(kind):
        extra = {"unk_token": "<unk>", "extra_tokens": ["<unk>"]}
        return char_tokenizer(merges=[("a", "b")], alphabet="abcdefghijklmnop",
                              **(extra if kind == "unk" else {}))

    @pytest.mark.parametrize("kind", ["unk", "strict"])
    @pytest.mark.parametrize("dim", [1, 3, 64])
    @pytest.mark.parametrize("height", [1, 7, None])
    def test_equals_per_piece_mean(self, monkeypatch, kind, dim, height):
        from vocabforge import embeddings
        from vocabforge.heuristics import fvt_rows
        if height is not None:
            monkeypatch.setattr(embeddings, "CACHE_BUDGET", 8 * dim * height)
        model = self.model(kind)
        rng = np.random.default_rng(dim)
        # float32 rows whose magnitudes span 2**40: their float64 sums
        # round, and no row is lost in another, so the order shows
        data = rng.normal(size=(model.vocab.size, dim))
        data *= 2.0 ** rng.uniform(-20, 20, size=(model.vocab.size, 1))
        data[0, 0] = -0.0
        emb = EmbeddingMatrix(data.astype(np.float32))
        pieces = self.pieces * 2 + ["".join(rng.choice(list("cdefghijklmnop"),
                                                       size=rng.integers(1, 16)))
                                    for _ in range(40)]
        pieces = [str(p) for p in rng.permutation(pieces)]
        rows, ok = fvt_rows(pieces, model, emb)
        want_rows, want_ok = fvt_reference(pieces, model, emb)
        assert rows.dtype == np.float64
        assert rows.tobytes() == want_rows.tobytes()
        assert ok.tolist() == want_ok.tolist()
        assert not ok[pieces.index("zz")] and not ok[pieces.index("")]
        assert ok[pieces.index("zabz")] == (kind == "unk")


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNovelKernelMemory:
    """Peak traced memory of a kernel, in (novel rows x dim) float64 arrays.

    The returned rows count as one; the rest is working memory.
    """

    rows, dim = 4096, 1024
    array = rows * dim * 8

    def test_random_rows_hold_only_their_output(self):
        from vocabforge.heuristics import random_rows
        rng = np.random.default_rng(3)
        st = stats_of(rng.normal(size=(16, self.dim)))
        ids = np.arange(self.rows) * 3
        assert traced_peak(random_rows, ids, st, 5) < 1.1 * self.array

    def test_sava_rows_hold_two_and_a_half_arrays(self):
        from vocabforge.alignment import Scaler
        from vocabforge.heuristics import sava_rows
        rng = np.random.default_rng(4)
        m = n = self.dim
        helper = random_matrix(rng, self.rows + 10, m)
        phi = AffineMap(
            rng.normal(size=(n, m)) / np.sqrt(m), rng.normal(size=n),
            Scaler(rng.normal(size=m), rng.uniform(0.5, 2, m)),
            Scaler(rng.normal(size=n), rng.uniform(0.5, 2, n)),
            input_norm=3.0,
        )
        ids = np.arange(self.rows) + 5
        # the float32 helper rows (half an array), their float64 scaled
        # copy and the output
        assert traced_peak(sava_rows, ids, helper, phi) < 2.6 * self.array

    def test_fvt_rows_hold_one_block_beyond_their_output(self):
        from vocabforge import embeddings
        from vocabforge.heuristics import fvt_rows
        rng = np.random.default_rng(5)
        model = char_tokenizer(merges=[("a", "b"), ("c", "d")])
        emb = random_matrix(rng, model.vocab.size, self.dim)
        pieces = ["".join(rng.choice(list("abcd"), size=rng.integers(1, 13)))
                  for _ in range(self.rows)]
        # the output and the id lists, one block of float64 sums
        # and one float32 gather of at most a block's rows (a float64
        # gather of every piece's ids would be several arrays)
        block = embeddings.CACHE_BUDGET
        assert traced_peak(fvt_rows, pieces, model, emb) < (
            1.1 * self.array + 1.5 * block)


def adaptation_fixture(dim=6, shared=8, novel=4, seed=0):
    shared_names = [f"sh{i}" for i in range(shared)]
    novel_names = [f"nv{i}" for i in range(novel)]
    source = word_list_tokenizer(shared_names + ["only-source"])
    target = word_list_tokenizer(shared_names + novel_names)
    rng = np.random.default_rng(seed)
    source_emb = random_matrix(rng, source.vocab.size, dim)
    helper_emb = random_matrix(rng, target.vocab.size, dim)
    return source, target, source_emb, helper_emb


class TestAdapt:
    @pytest.mark.parametrize("method", ["random", "fvt", "clp", "sava"])
    def test_shared_rows_bit_exact(self, method):
        source, target, source_emb, helper_emb = adaptation_fixture()
        out, report = adapt(
            source_emb, source, target, helper_emb,
            HeuristicConfig(method=method),
            TrainConfig(steps=5),
        )
        assert out.rows == target.vocab.size
        for name, sid in source.vocab.token_to_id.items():
            tid = target.vocab.token_to_id.get(name)
            if tid is not None:
                assert out.data[tid].tobytes() == source_emb.data[sid].tobytes()
        assert report.copied_count == 8
        assert report.initialized_count + report.fallback_count == 4

    def test_fvt_on_opaque_tokens_falls_back(self):
        source, target, source_emb, helper_emb = adaptation_fixture()
        _, report = adapt(source_emb, source, target,
                          cfg=HeuristicConfig(method="fvt"))
        # novel names aren't spellable from source tokens, so all fall back
        assert report.fallback_count == 4
        assert report.initialized_count == 0

    @pytest.mark.parametrize("method, calls, fallbacks", [
        ("sava", 0, 0), ("clp", 0, 0), ("random", 1, 0), ("fvt", 1, 1),
    ])
    def test_source_moments_taken_only_when_a_row_reads_them(
            self, monkeypatch, method, calls, fallbacks):
        from vocabforge import heuristics
        source = char_tokenizer(alphabet="ab")
        # "xy" has no source tokenization: FVT's one fallback row
        target = char_tokenizer(alphabet="ab", extra_tokens=["ba", "abab", "xy"])
        rng = np.random.default_rng(6)
        source_emb = random_matrix(rng, source.vocab.size, 4)
        # positive rows: no CLP weight row vanishes
        helper = EmbeddingMatrix(
            np.abs(rng.normal(size=(target.vocab.size, 4))).astype(np.float32)
            + np.float32(0.1))
        seen = []
        real = heuristics.matrix_stats

        def spy(matrix):
            seen.append(matrix)
            return real(matrix)

        monkeypatch.setattr(heuristics, "matrix_stats", spy)
        _, report = adapt(source_emb, source, target, helper,
                          HeuristicConfig(method=method), TrainConfig(steps=2))
        assert report.fallback_count == fallbacks
        assert len(seen) == calls
        assert all(matrix is source_emb for matrix in seen)

    def test_random_is_seed_deterministic(self):
        source, target, source_emb, _ = adaptation_fixture()
        cfg = HeuristicConfig(method="random", seed=11)
        out1, _ = adapt(source_emb, source, target, cfg=cfg)
        out2, _ = adapt(source_emb, source, target, cfg=cfg)
        assert out1.data.tobytes() == out2.data.tobytes()

    def test_helper_required_for_clp(self):
        source, target, source_emb, _ = adaptation_fixture()
        with pytest.raises(VocabForgeError, match="helper"):
            adapt(source_emb, source, target, cfg=HeuristicConfig(method="clp"))

    def test_helper_row_count_checked(self):
        source, target, source_emb, _ = adaptation_fixture()
        rng = np.random.default_rng(9)
        bad_helper = random_matrix(rng, 3, 6)
        with pytest.raises(DimensionMismatch):
            adapt(source_emb, source, target, bad_helper,
                  HeuristicConfig(method="clp"))

    def test_source_row_count_checked(self):
        source, target, _, helper_emb = adaptation_fixture()
        rng = np.random.default_rng(9)
        with pytest.raises(DimensionMismatch):
            adapt(random_matrix(rng, 2, 6), source, target, helper_emb,
                  HeuristicConfig(method="clp"))

    @pytest.mark.parametrize("method", ["random", "fvt", "clp", "sava"])
    def test_partition_checked_before_any_kernel(self, method):
        # a shared source id past the source matrix: every method reports
        # the partition, none reaches a kernel that indexes the row
        source, target, source_emb, helper_emb = adaptation_fixture()
        part = partition(source.vocab, target.vocab, source.marker,
                         target.marker)
        token, _, tid = part.shared[0]
        part = replace(
            part, shared=((token, source_emb.rows + 3, tid),) + part.shared[1:])
        with pytest.raises(PartitionInconsistent, match="outside the 9-row"):
            adapt_matrix(source_emb, source, target, part, helper_emb,
                         HeuristicConfig(method=method), TrainConfig(steps=1))

    @pytest.mark.parametrize("method", ["clp", "sava"])
    def test_empty_intersection_is_one_error_type(self, method):
        # CLP has no shared rows to weight, SAVA no pairs to fit
        source, target, source_emb, helper_emb = adaptation_fixture(shared=0)
        part = partition(source.vocab, target.vocab, source.marker,
                         target.marker)
        assert part.shared == ()
        with pytest.raises(EmptyIntersection):
            adapt_matrix(source_emb, source, target, part, helper_emb,
                         HeuristicConfig(method=method), TrainConfig(steps=1))

    def test_partition_id_arrays_built_once(self, monkeypatch):
        source, target, source_emb, helper_emb = adaptation_fixture()
        part = partition(source.vocab, target.vocab, source.marker,
                         target.marker)
        arrays = (part.source_ids, part.shared_target_ids,
                  part.novel_target_ids)
        assert [a.tolist() for a in arrays] == [
            [sid for _, sid, _ in part.shared],
            [tid for _, _, tid in part.shared],
            [tid for _, tid in part.novel]]
        for a in arrays:
            assert a.dtype == np.int64 and not a.flags.writeable
        built = []
        real = tokenizer._id_array
        monkeypatch.setattr(
            tokenizer, "_id_array",
            lambda rows, column: built.append(column) or real(rows, column))
        adapt_matrix(source_emb, source, target, part, helper_emb,
                     HeuristicConfig(method="clp"), TrainConfig(steps=1))
        assert built == []  # the checks and the CLP kernel read the arrays
        assert part.source_ids is arrays[0]

        # a replaced partition gets its own arrays, and the check names
        # its first bad id
        token, _, tid = part.shared[2]
        moved = replace(part, shared=part.shared[:2] + (
            (token, source_emb.rows, tid), (token, source_emb.rows + 5, tid)))
        assert moved.source_ids.tolist() == [
            sid for _, sid, _ in moved.shared]
        with pytest.raises(PartitionInconsistent,
                           match=f"source id {source_emb.rows} is outside"):
            adapt_matrix(source_emb, source, target, moved, helper_emb,
                         HeuristicConfig(method="random"), TrainConfig(steps=1))

    def test_untied_runs_both_matrices(self):
        source, target, source_emb, helper_emb = adaptation_fixture()
        rng = np.random.default_rng(1)
        head_emb = random_matrix(rng, source.vocab.size, 6)
        helper_head = random_matrix(rng, target.vocab.size, 6)
        part = partition(source.vocab, target.vocab, source.marker,
                         target.marker)
        cfg, train_cfg = HeuristicConfig(method="sava"), TrainConfig(steps=5)
        embed_out, r1 = adapt_matrix(source_emb, source, target, part,
                                     helper_emb, cfg, train_cfg)
        head_out, r2 = adapt_matrix(head_emb, source, target, part,
                                    helper_head, cfg, train_cfg)
        sid = source.vocab.token_to_id["sh0"]
        tid = target.vocab.token_to_id["sh0"]
        assert embed_out.data[tid].tobytes() == source_emb.data[sid].tobytes()
        assert head_out.data[tid].tobytes() == head_emb.data[sid].tobytes()
        # independently trained maps on different matrices disagree on
        # novel rows
        nid = target.vocab.token_to_id["nv0"]
        assert embed_out.data[nid].tobytes() != head_out.data[nid].tobytes()
        assert r1.copied_count == r2.copied_count == 8

    def test_marker_canonicalized_copy(self):
        source = word_list_tokenizer(["▁casa", "▁x"], marker=META)
        target = word_list_tokenizer(["▁casa", "▁nuovo"], marker=META)
        rng = np.random.default_rng(2)
        source_emb = random_matrix(rng, 2, 4)
        out, report = adapt(source_emb, source, target,
                            cfg=HeuristicConfig(method="random"))
        assert report.copied_count == 1
        assert out.data[0].tobytes() == source_emb.data[0].tobytes()


class TestHeuristicConfig:
    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError):
            HeuristicConfig(method="magic")
        with pytest.raises(ValueError):
            HeuristicConfig(clp_negative_policy="wat")
        with pytest.raises(ValueError):
            HeuristicConfig(random_moments="wat")
        with pytest.raises(ValueError):
            HeuristicConfig(fallback="wat")

    def test_rejects_negative_clp_top_k(self):
        with pytest.raises(ValueError,
                           match=r"clp_top_k must be >= 0 \(0 = dense\), got -3"):
            HeuristicConfig(method="clp", clp_top_k=-3)
        assert HeuristicConfig(method="clp", clp_top_k=0).clp_top_k == 0

    def test_roundtrips_to_dict(self):
        cfg = HeuristicConfig(method="clp", seed=3, clp_top_k=5)
        assert HeuristicConfig(**asdict(cfg)) == cfg
