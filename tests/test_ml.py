"""Window-based detectors: k-means, density cores, LOF, forests, SVM, boosting."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from tsadkit import (
    DetectorConfig,
    SplitSpec,
    fit_standardizer,
    frame,
    get_detector,
    naive_mse,
    nmm,
    smoke_series,
    split,
    standardize,
    subsequences,
    timed_run,
    with_lookback,
)
from tsadkit.detectors import ml
from tsadkit.detectors.ml import (
    DbscanDetector,
    DbscanModel,
    GbtDetector,
    GbtModel,
    IforestDetector,
    IsoForest,
    KMeansModel,
    LofModel,
    OcSvmModel,
    OcsvmDetector,
    _Tree,
    _avg_path,
    _harmonic,
    dbscan_fit,
    dbscan_score,
    gbt_fit,
    gbt_score,
    iforest_fit,
    iforest_score,
    kmeans_fit,
    kmeans_score,
    lof_score,
    ocsvm_fit,
    ocsvm_score,
)
from tsadkit.errors import (
    DimensionMismatch,
    DistanceMatrixTooLarge,
    InvalidHyperparameter,
    NoCorePoints,
    NonFiniteValues,
    NumericalDivergence,
    TooFewWindows,
)

from conftest import bytes_dict_duplicates, long_synth, raw_frame, series, traced_peak

# The one-class SVM's default nu, for the tests that fit at it.
NU = OcsvmDetector.params["nu"]


def blob_windows(m, width, center, spread=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(center, spread, (m, width))


class TestKMeans:
    def test_single_cluster_is_the_mean(self):
        windows = blob_windows(40, 3, 0.0, seed=1)
        model = kmeans_fit(raw_frame(windows), k=1, seed=0)
        assert np.allclose(model.centroids[0], windows.mean(axis=0), atol=1e-12)
        expected = float(((windows - windows.mean(axis=0)) ** 2).sum())
        assert abs(model.inertia - expected) < 1e-9 * max(expected, 1.0)

    def test_hand_scores(self):
        model = KMeansModel(centroids=np.array([[0.0, 0.0], [10.0, 10.0]]), inertia=0.0)
        out = kmeans_score(model, raw_frame([[0.0, 0.0], [10.0, 11.0], [5.0, 5.0]]))
        assert np.allclose(out, [0.0, 1.0, math.sqrt(50.0)], atol=1e-12)

    def test_scores_match_brute_force(self):
        rng = np.random.default_rng(2)
        train = raw_frame(rng.normal(0.0, 1.0, (60, 4)))
        test = raw_frame(rng.normal(0.0, 1.0, (25, 4)))
        model = kmeans_fit(train, k=3, seed=5)
        out = kmeans_score(model, test)
        expected = np.array(
            [
                min(np.linalg.norm(w - c) for c in model.centroids)
                for w in test
            ]
        )
        assert np.allclose(out, expected, atol=1e-9)

    def test_separated_blobs_recovered(self):
        lo = blob_windows(30, 2, 0.0, seed=3)
        hi = blob_windows(30, 2, 8.0, seed=4)
        model = kmeans_fit(raw_frame(np.vstack((lo, hi))), k=2, seed=1)
        means = sorted(float(c.mean()) for c in model.centroids)
        assert abs(means[0] - 0.0) < 0.2
        assert abs(means[1] - 8.0) < 0.2

    def test_deterministic(self):
        windows = raw_frame(blob_windows(50, 3, 0.0, seed=6))
        a = kmeans_fit(windows, k=4, seed=9)
        b = kmeans_fit(windows, k=4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_too_few_windows(self):
        with pytest.raises(TooFewWindows):
            kmeans_fit(raw_frame(np.zeros((3, 2))), k=5)

    def test_model_validation(self):
        with pytest.raises(InvalidHyperparameter, match="needs k >= 1 centroids, got k=0"):
            kmeans_fit(raw_frame(np.zeros((3, 2))), k=0)

    def test_rising_inertia_is_a_typed_failure(self):
        # Windows near 1e7: their squared distances, aa + bb - 2ab, are
        # rounding noise, and a Lloyd round raises the inertia.
        x = 1e7 + np.random.default_rng(0).normal(0.0, 1.0, 600)
        with pytest.raises(NumericalDivergence, match="k-means inertia rose from"):
            kmeans_fit(subsequences(series(x), 30), k=4, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_seeding_distances_that_sum_past_the_float_range_are_a_typed_failure(self):
        # Windows of noise near 1e153: every squared distance to the first
        # centroid is finite, their sum is not, and no seeding draw is left.
        x = np.random.default_rng(0).standard_normal(600) * 1e153
        with pytest.raises(NonFiniteValues, match="k-means seeding distances overflow"):
            kmeans_fit(subsequences(series(x), 30), k=4, seed=0)


class TestDbscan:
    def test_identical_windows_are_core(self):
        windows = raw_frame(np.ones((10, 3)))
        model = dbscan_fit(windows, epsilon=0.5, mu=5)
        assert model.core_points.shape[0] == 10
        out = dbscan_score(model, raw_frame(np.ones((2, 3))))
        assert np.array_equal(out, np.zeros(2))

    def test_core_flags_match_brute_force(self):
        rng = np.random.default_rng(7)
        windows = rng.normal(0.0, 1.0, (30, 3))
        epsilon, mu = 1.5, 4
        model = dbscan_fit(raw_frame(windows), epsilon=epsilon, mu=mu)
        flags = []
        for i in range(30):
            count = sum(
                1
                for j in range(30)
                if j != i and np.linalg.norm(windows[i] - windows[j]) <= epsilon
            )
            flags.append(count >= mu)
        assert np.array_equal(model.core_points, windows[np.array(flags)])

    def test_score_is_zero_or_distance(self):
        model = DbscanModel(epsilon=1.0, core_points=np.array([[0.0, 0.0]]))
        scored = dbscan_score(model, raw_frame([[0.0, 0.5], [0.0, 3.0]]))
        assert scored[0] == 0.0
        assert abs(scored[1] - 3.0) < 1e-12

    def test_no_core_points(self):
        rng = np.random.default_rng(8)
        spread = raw_frame(rng.normal(0.0, 100.0, (12, 3)))
        with pytest.raises(NoCorePoints):
            dbscan_fit(spread, epsilon=0.01, mu=5)

    def test_mu_cannot_exceed_neighbours(self):
        with pytest.raises(NoCorePoints):
            dbscan_fit(raw_frame(np.ones((5, 2))), epsilon=1.0, mu=5)

    def test_mu_is_checked_before_the_distance_matrix(self, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("a distance matrix was built")

        monkeypatch.setattr(ml, "_pairwise_sq", no_matrix)
        with pytest.raises(InvalidHyperparameter):
            dbscan_fit(raw_frame(np.ones((5, 2))), epsilon=1.0, mu=0)

    @pytest.mark.parametrize("epsilon", [0.0, -0.4, float("nan"), float("inf")])
    def test_epsilon_is_checked_before_the_distance_matrix(self, monkeypatch, epsilon):
        def no_matrix(*args):
            raise AssertionError("a distance matrix was built")

        monkeypatch.setattr(ml, "_pairwise_sq", no_matrix)
        with pytest.raises(InvalidHyperparameter, match="epsilon"):
            dbscan_fit(raw_frame(np.ones((5, 2))), epsilon=epsilon, mu=1)


def naive_lof(reference: np.ndarray, query: np.ndarray, k: int) -> float:
    """Textbook LOF on reference union {query}; the independent oracle."""
    data = np.vstack((reference, query.reshape(1, -1)))
    n = data.shape[0]
    d = np.sqrt(((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    kdist = np.maximum(np.sort(d, axis=1)[:, k - 1], 1e-12)

    def neighbourhood(i):
        return np.nonzero(d[i] <= kdist[i])[0]

    def lrd(i):
        neigh = neighbourhood(i)
        reach = np.maximum(kdist[neigh], d[i, neigh])
        return neigh.size / float(reach.sum())

    q = n - 1
    neigh = neighbourhood(q)
    return float(np.mean([lrd(j) for j in neigh]) / lrd(q))


class TestPairwiseGuard:
    def test_cap_counts_entries(self, monkeypatch):
        monkeypatch.setattr(ml, "_MAX_PAIRWISE_ENTRIES", 12)
        assert ml._pairwise_sq(np.zeros((3, 2)), np.ones((4, 2))).shape == (3, 4)
        with pytest.raises(DistanceMatrixTooLarge):
            ml._pairwise_sq(np.zeros((13, 2)), np.ones((1, 2)))

    def test_cap_bounds_a_row_block_not_the_train(self, monkeypatch):
        # 1,000 train windows: the m x m matrix would be 12.5 times the cap,
        # and each row block of 65 rows is under it.
        rng = np.random.default_rng(71)
        train, test = rng.normal(0.0, 1.0, (1000, 8)), rng.normal(0.0, 1.0, (300, 8))

        def fit_and_score():
            lof = LofModel(k_neighbors=10, reference_windows=train)
            svm = ocsvm_fit(raw_frame(train), NU)
            dbscan = dbscan_fit(raw_frame(train), epsilon=2.0, mu=5)
            return (
                lof.scores(test),
                ocsvm_score(svm, raw_frame(test)),
                dbscan_score(dbscan, raw_frame(test)),
            )

        uncapped = fit_and_score()
        monkeypatch.setattr(ml, "_MAX_PAIRWISE_ENTRIES", 80_000)
        for got, want in zip(fit_and_score(), uncapped):
            assert got.tobytes() == want.tobytes()


class TestLof:
    def test_uniform_cloud_is_close_to_one(self):
        rng = np.random.default_rng(9)
        reference = rng.uniform(0.0, 1.0, (200, 2))
        model = LofModel(k_neighbors=10, reference_windows=reference)
        values = [model.query(rng.uniform(0.2, 0.8, 2)) for _ in range(20)]
        assert 0.8 < float(np.mean(values)) < 1.2

    def test_far_query_scores_high(self):
        rng = np.random.default_rng(10)
        reference = rng.normal(0.0, 1.0, (100, 3))
        model = LofModel(k_neighbors=10, reference_windows=reference)
        assert model.query(np.full(3, 25.0)) > 2.0

    def test_matches_naive_union_lof(self):
        rng = np.random.default_rng(11)
        reference = rng.normal(0.0, 1.0, (40, 4))
        model = LofModel(k_neighbors=7, reference_windows=reference)
        for trial in range(10):
            query = rng.normal(0.0, 1.5, 4)
            assert abs(model.query(query) - naive_lof(reference, query, 7)) < 1e-9

    def test_duplicate_points_stay_finite(self):
        reference = np.vstack((np.zeros((12, 2)), np.ones((12, 2))))
        model = LofModel(k_neighbors=5, reference_windows=reference)
        value = model.query(np.zeros(2))
        assert math.isfinite(value) and value > 0.0

    def test_too_few_windows(self):
        with pytest.raises(TooFewWindows):
            LofModel(k_neighbors=10, reference_windows=np.zeros((5, 2)))

    def test_convenience_wrapper(self):
        rng = np.random.default_rng(13)
        reference = raw_frame(rng.normal(0.0, 1.0, (50, 2)))
        value = lof_score(reference, np.full(2, 30.0), k=8)
        assert value > 2.0


def fit_distances(model: LofModel) -> np.ndarray:
    """The reference-by-reference distances the fit saw, own entries inf,
    stacked from the model's own fit blocks."""
    m = model.reference_windows.shape[0]
    return np.vstack([model._fit_distances(lo) for lo in range(0, m, model.fit_rows)])


def per_window_lof(model: LofModel, fit_d: np.ndarray, window: np.ndarray) -> float:
    """LOF scoring before row blocks: one distance row and one Python loop
    over the neighbourhood per window.  Frozen here as the oracle for
    ``LofModel.scores``; ``fit_d`` is ``fit_distances(model)``."""
    q = np.asarray(window, dtype=np.float64).reshape(1, -1)
    duplicates = np.nonzero((model.reference_windows == q[0]).all(axis=1))[0]
    if duplicates.size:
        dq = fit_d[duplicates[0]].copy()
        dq[duplicates[0]] = 0.0
    else:
        dq = np.sqrt(ml._pairwise_sq(q, model.reference_windows))[0]
    k = model.k_neighbors
    kdist_q = max(float(np.partition(dq, k - 1)[k - 1]), ml._KDIST_FLOOR)
    kdist_c = np.where(dq >= model.kdist, model.kdist, np.maximum(model.kdist_prev, dq))
    kdist_c = np.maximum(kdist_c, ml._KDIST_FLOOR)

    neighborhood = np.nonzero(dq <= kdist_q)[0]
    rd_query = np.maximum(kdist_c[neighborhood], dq[neighborhood])
    lrd_query = neighborhood.size / float(rd_query.sum())

    lrds = np.empty(neighborhood.size)
    for pos, y in enumerate(neighborhood):
        row = fit_d[y]
        bound = kdist_c[y]
        inside = row <= bound
        rd = np.maximum(kdist_c[inside], row[inside])
        total = float(rd.sum())
        count = int(inside.sum())
        if dq[y] <= bound:
            total += max(kdist_q, dq[y])
            count += 1
        lrds[pos] = count / total
    return float(lrds.mean() / lrd_query)


def lof_synth_w30():
    (train, _), (test, _) = synth_frames(30)
    return train, test, 10


def lof_ties(k: int):
    # Quarter steps: every distance is computed exactly, by any BLAS kernel,
    # so the many ties at k-distance boundaries are real ties.  On a 0.1 grid
    # they are broken by the last bits of the distance kernel instead, which
    # differ between a block (gemm) and a single row (gemv).
    rng = np.random.default_rng(20 + k)
    windows = np.round(rng.normal(0.0, 1.0, (330, 3)) * 4.0) / 4.0
    return windows[:250], windows[250:], k


def lof_duplicates():
    # Continuous width-30 rows, so the distance of a row to its own copy is
    # rounding noise unless the duplicate rule supplies the cached zero; one
    # row appears more than k times, so its k-distance is that noise.
    rng = np.random.default_rng(31)
    base = rng.normal(0.0, 1.0, (120, 30))
    base[:, 0] = 0.0
    reference = np.vstack((base, base[:40], np.repeat(base[50:51], 14, axis=0)))
    copies = np.vstack((base[5:25], base[45:55], base[45:55]))
    copies[30:, 0] = -0.0  # equal to the reference's 0.0 under ==
    return reference, np.vstack((copies, rng.normal(0.0, 1.0, (20, 30)))), 10


def lof_signed_zero_reference():
    # lof_duplicates with -0.0 in column 0 of every other reference row:
    # about half of its first 30 queries repeat such a row with 0.0 there,
    # so the duplicate rule finds them only if the fit folds -0.0 into 0.0.
    reference, queries, k = lof_duplicates()
    reference[::2, 0] = -0.0
    return reference, queries, k


def lof_flat_run():
    # A long run of 160 identical windows: each has all the others in its
    # neighbourhood, so one (query, y) pair expands to 160 list entries.
    rng = np.random.default_rng(41)
    flat = np.repeat(rng.normal(0.0, 1.0, (1, 5)), 160, axis=0)
    reference = np.vstack((flat, rng.normal(0.0, 1.0, (80, 5))))
    queries = np.vstack((flat[:12], flat[:12] + rng.normal(0.0, 0.05, (12, 5)), reference[170:190]))
    return reference, queries, 10


LOF_CASES = {
    "synth-w30": lof_synth_w30,
    "ties-k1": lambda: lof_ties(1),
    "ties-k2": lambda: lof_ties(2),
    "ties-k10": lambda: lof_ties(10),
    "duplicates": lof_duplicates,
    "flat-run": lof_flat_run,
    "signed-zero-reference": lof_signed_zero_reference,
}


class TestBlockLof:
    """Row-block LOF scores match the per-window loop."""

    @pytest.mark.parametrize("case", LOF_CASES, ids=list(LOF_CASES))
    @pytest.mark.parametrize(
        "chunk_entries", [ml._LOF_CHUNK_ENTRIES, 97], ids=["default-chunks", "97-entry-chunks"]
    )
    def test_matches_per_window_loop(self, case, chunk_entries, monkeypatch):
        reference, queries, k = LOF_CASES[case]()
        model = LofModel(k_neighbors=k, reference_windows=reference)
        # Blocks of 7 rows, so every case ends in a ragged block; 97 entries
        # per chunk splits the flat run's neighbour lists across chunks.
        monkeypatch.setattr(ml, "_BLOCK_ENTRIES", 7 * reference.shape[0])
        monkeypatch.setattr(ml, "_LOF_CHUNK_ENTRIES", chunk_entries)
        assert queries.shape[0] % 7 != 0
        got = model.scores(queries)
        fit_d = fit_distances(model)
        want = np.array([per_window_lof(model, fit_d, q) for q in queries])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(model.scores(queries), got)

    def test_chunking_leaves_scores_unchanged(self, monkeypatch):
        reference, queries, k = lof_flat_run()
        model = LofModel(k_neighbors=k, reference_windows=reference)
        whole = model.scores(queries)
        monkeypatch.setattr(ml, "_LOF_CHUNK_ENTRIES", 1)
        np.testing.assert_array_equal(model.scores(queries), whole)

    def test_neighbour_lists_hold_the_fit_neighbourhoods(self):
        reference, _, k = lof_ties(2)
        model = LofModel(k_neighbors=k, reference_windows=reference)
        fit_d = fit_distances(model)
        for y in range(reference.shape[0]):
            lo, hi = model.nbr_ptr[y], model.nbr_ptr[y + 1]
            expected = np.nonzero(fit_d[y] <= model.kdist[y])[0]
            np.testing.assert_array_equal(model.nbr_idx[lo:hi], expected)
            np.testing.assert_array_equal(model.nbr_dist[lo:hi], fit_d[y, expected])

    def test_cached_structures_are_not_init_arguments(self):
        with pytest.raises(TypeError):
            LofModel(k_neighbors=2, reference_windows=np.zeros((5, 2)), kdist=np.ones(5))


def descend(tree: _Tree, row: np.ndarray, node: int = 0) -> float:
    """Reference descent of one row: strictly-below goes left, ties go right."""
    while tree.left[node] != node:
        if row[tree.feature[node]] < tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return float(tree.value[node])


def rows_on_thresholds(tree: _Tree, data: np.ndarray) -> np.ndarray:
    """Copies of the data rows, each moved exactly onto one split threshold."""
    copies = []
    for node in np.nonzero(~tree.is_leaf)[0]:
        moved = data.copy()
        moved[:, tree.feature[node]] = tree.threshold[node]
        copies.append(moved)
    return np.vstack([data] + copies)


class TestTree:
    def fitted_trees(self):
        rng = np.random.default_rng(31)
        x = np.cumsum(rng.normal(0.0, 1.0, 400)) * 0.1
        forest = iforest_fit(subsequences(series(x), 5), n_trees=8, seed=4)
        boosted = gbt_fit(frame(series(x), 5), n_estimators=12, max_depth=3, learning_rate=0.1)
        return rng.normal(0.0, 1.0, (15, 5)), forest.trees + boosted.trees

    def test_apply_matches_per_row_descent(self):
        data, trees = self.fitted_trees()
        for tree in trees:
            assert tree.depth >= 1
            rows = rows_on_thresholds(tree, data)
            expected = [descend(tree, row) for row in rows]
            assert np.array_equal(tree.apply(rows), expected)

    def test_ties_go_right(self):
        data, trees = self.fitted_trees()
        for tree in trees:
            rows = data.copy()
            rows[:, tree.feature[0]] = tree.threshold[0]
            expected = [descend(tree, row, node=tree.right[0]) for row in rows]
            assert np.array_equal(tree.apply(rows), expected)

    def test_leaves_point_to_themselves(self):
        _, trees = self.fitted_trees()
        for tree in trees:
            leaves = np.nonzero(tree.is_leaf)[0]
            assert np.array_equal(tree.right[leaves], leaves)
            # A binary tree has one more leaf than it has internal nodes.
            assert 2 * leaves.size == tree.value.size + 1


class TestIforest:
    def test_outlier_has_top_score(self):
        rng = np.random.default_rng(14)
        windows = np.vstack((rng.normal(0.0, 0.5, (127, 3)), np.full((1, 3), 20.0)))
        model = iforest_fit(raw_frame(windows), n_trees=50, seed=3)
        out = iforest_score(model, raw_frame(windows))
        assert int(np.argmax(out)) == 127

    def test_score_range(self):
        rng = np.random.default_rng(15)
        windows = raw_frame(rng.normal(0.0, 1.0, (100, 4)))
        out = iforest_score(iforest_fit(windows, **IforestDetector.params, seed=1), windows)
        assert np.all(out > 0.0)
        assert np.all(out <= 1.0)

    def test_tree_order_does_not_matter(self):
        rng = np.random.default_rng(16)
        windows = raw_frame(rng.normal(0.0, 1.0, (80, 3)))
        model = iforest_fit(windows, n_trees=12, seed=2)
        shuffled = IsoForest(trees=tuple(reversed(model.trees)), subsample=model.subsample)
        assert np.allclose(
            iforest_score(model, windows),
            iforest_score(shuffled, windows),
            atol=1e-12,
        )

    def test_average_path_length(self):
        harmonics = _harmonic(600)
        assert _avg_path(1, harmonics) == 0.0
        assert _avg_path(2, harmonics) == 1.0
        for n in (3, 10, 256, 600):
            h = sum(1.0 / i for i in range(1, n))
            expected = 2.0 * h - 2.0 * (n - 1) / n
            assert abs(_avg_path(n, harmonics) - expected) < 1e-12

    def test_subsample_capped(self):
        rng = np.random.default_rng(17)
        big = iforest_fit(raw_frame(rng.normal(0.0, 1.0, (300, 2))), n_trees=3, seed=0)
        small = iforest_fit(raw_frame(rng.normal(0.0, 1.0, (90, 2))), n_trees=3, seed=0)
        assert big.subsample == 256
        assert small.subsample == 90

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        windows = raw_frame(rng.normal(0.0, 1.0, (60, 3)))
        a = iforest_score(iforest_fit(windows, n_trees=10, seed=7), windows)
        b = iforest_score(iforest_fit(windows, n_trees=10, seed=7), windows)
        assert np.array_equal(a, b)

    def test_too_few_windows(self):
        with pytest.raises(TooFewWindows):
            iforest_fit(raw_frame(np.zeros((1, 2))), **IforestDetector.params)

    def test_overflowing_split_range_is_typed(self):
        # Two features whose values span more than the largest float: the
        # split draw would overflow, so the fit fails typed before it.
        windows = raw_frame([[1.5e308, -1.5e308], [-1.5e308, 1.5e308], [0.0, 0.0]])
        with pytest.raises(NonFiniteValues, match="overflows"):
            iforest_fit(windows, n_trees=1)


class TestOcsvm:
    def test_center_inside_far_point_outside(self):
        rng = np.random.default_rng(19)
        windows = raw_frame(rng.normal(0.0, 1.0, (80, 2)))
        model = ocsvm_fit(windows, nu=0.5)
        out = ocsvm_score(model, raw_frame([[0.0, 0.0], [15.0, 15.0]]))
        assert out[0] < 0.0
        assert out[1] > 0.0

    def test_nu_bounds_training_outliers(self):
        rng = np.random.default_rng(20)
        windows = raw_frame(rng.normal(0.0, 1.0, (120, 3)))
        nu = 0.5
        model = ocsvm_fit(windows, nu=nu)
        out = ocsvm_score(model, windows)
        fraction_out = float(np.mean(out > 1e-9))
        assert fraction_out <= nu + 0.1

    def test_tiny_gamma_flattens_the_boundary(self):
        rng = np.random.default_rng(21)
        windows = raw_frame(rng.normal(0.0, 1.0, (40, 2)))
        model = ocsvm_fit(windows, nu=0.5, rbf_gamma=1e-12)
        out = ocsvm_score(model, raw_frame(rng.normal(0.0, 5.0, (30, 2))))
        assert np.ptp(out) < 1e-6

    def test_dual_feasibility(self):
        rng = np.random.default_rng(22)
        windows = raw_frame(rng.normal(0.0, 1.0, (50, 2)))
        nu = 0.4
        model = ocsvm_fit(windows, nu=nu)
        box = 1.0 / (nu * 50)
        assert np.all(model.dual_coeffs >= 0.0)
        assert np.all(model.dual_coeffs <= box + 1e-9)
        assert abs(model.dual_coeffs.sum() - 1.0) < 1e-9
        assert model.converged

    def test_parameter_validation(self):
        windows = raw_frame(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            ocsvm_fit(windows, nu=0.0)
        with pytest.raises(ValueError):
            ocsvm_fit(windows, nu=1.5)
        with pytest.raises(TooFewWindows):
            ocsvm_fit(raw_frame(np.zeros((1, 2))), NU)

    @pytest.mark.parametrize("rbf_gamma", [0.0, -1.0, float("nan")])
    def test_rbf_gamma_is_checked_before_the_kernel(self, monkeypatch, rbf_gamma):
        def no_matrix(*args):
            raise AssertionError("a kernel block was built")

        monkeypatch.setattr(ml, "_pairwise_sq", no_matrix)
        with pytest.raises(InvalidHyperparameter, match=f"rbf_gamma must be positive, got {rbf_gamma}"):
            ocsvm_fit(raw_frame(np.zeros((10, 2))), NU, rbf_gamma=rbf_gamma)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            OcSvmModel(
                support_vectors=np.ones((2, 2)),
                dual_coeffs=np.array([0.7, 0.7]),
                rho=0.0,
                rbf_gamma=1.0,
                converged=True,
            )


class TestGbt:
    def test_constant_target_is_learned_exactly(self):
        windows = np.arange(30.0).reshape(10, 3)
        fr = (windows, np.full(10, 4.0))
        model = gbt_fit(fr, **{**GbtDetector.params, "n_estimators": 10})
        assert model.base_score == 4.0
        out = gbt_score(model, fr)
        assert np.array_equal(out, np.zeros(10))

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(23)
        x = rng.normal(0.0, 1.0, 300)
        fr = frame(series(np.cumsum(x) * 0.1), width=5)
        model = gbt_fit(fr, **{**GbtDetector.params, "n_estimators": 60})
        history = np.asarray(model.loss_history)
        assert history.size == 60
        assert np.all(np.diff(history) <= 1e-9)

    def test_step_function_split(self):
        windows = np.concatenate((np.full(20, -1.0), np.full(20, 1.0))).reshape(-1, 1)
        targets = np.concatenate((np.full(20, -3.0), np.full(20, 3.0)))
        fr = (windows, targets)
        model = gbt_fit(fr, **{**GbtDetector.params, "n_estimators": 200, "max_depth": 1})
        predictions = np.abs(gbt_score(model, fr))
        assert np.max(predictions) < 1e-3

    def test_beats_naive_on_autoregressive_data(self):
        rng = np.random.default_rng(24)
        x = np.zeros(800)
        noise = rng.normal(0.0, 0.3, 800)
        for t in range(1, 800):
            x[t] = -0.8 * x[t - 1] + noise[t]
        train, test = series(x[:500]), series(x[500:])
        model = gbt_fit(frame(train, 5), **{**GbtDetector.params, "n_estimators": 100})
        out = gbt_score(model, frame(with_lookback(train, test, 5), 5))
        assert len(out) == len(test)
        # Anti-persistent dynamics: the last-value forecast is much worse
        # than anything that uses the sign flip.
        ratio = nmm(float(np.mean(out**2)), naive_mse(test))
        assert ratio < 0.5

    @pytest.mark.parametrize(
        "hyperparameters",
        [
            {"learning_rate": -0.1},
            {"learning_rate": 0.0},
            {"learning_rate": "nan"},
            {"max_depth": 0},
            {"n_estimators": -1},
        ],
    )
    def test_bad_values_fail_before_any_tree_is_grown(self, monkeypatch, hyperparameters):
        def grow_nothing(*args):
            raise AssertionError("a tree was grown")

        monkeypatch.setattr(ml, "_grow_tree", grow_nothing)
        x = np.sin(np.arange(200) / 5.0)
        labels = np.zeros(80, dtype=np.int64)
        labels[40] = 1
        train, test = series(x[:120]), series(x[120:], labels)
        cfg = DetectorConfig(name="gbt", window_width=8, hyperparameters=hyperparameters)
        run, _ = timed_run(get_detector("gbt"), cfg, train, test)
        assert run.failure_reason.startswith("InvalidHyperparameter:")


def per_feature_best_split(data: np.ndarray, g: np.ndarray, idx: np.ndarray, lam: float):
    """The split search before presorting: one stable argsort per feature per
    node.  Frozen here as the oracle for the presorted search."""
    g_node = g[idx]
    G = g_node.sum()
    H = float(idx.size)
    parent = G * G / (H + lam)
    best_gain, best_feature, best_split = 0.0, -1, 0.0
    for feature in range(data.shape[1]):
        values = data[idx, feature]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        if sv[0] == sv[-1]:
            continue
        gl = np.cumsum(g_node[order])[:-1]
        hl = np.arange(1, idx.size, dtype=np.float64)
        gr = G - gl
        hr = H - hl
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
        gains[sv[1:] == sv[:-1]] = -np.inf
        pos = int(gains.argmax())
        if gains[pos] > best_gain:
            best_gain = float(gains[pos])
            best_feature = feature
            best_split = float(0.5 * (sv[pos] + sv[pos + 1]))
    if best_feature < 0:
        return None
    return best_gain, best_feature, best_split


def reference_gbt_fit(train_frame: tuple[np.ndarray, np.ndarray], **kwargs) -> GbtModel:
    """gbt_fit with every node split by the per-feature search."""
    windows, _ = train_frame

    def split_rule(cols, g, idx):
        found = per_feature_best_split(windows, g, idx, lam=1.0)
        return None if found is None else found[1:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ml, "_gbt_best_split", split_rule)
        return gbt_fit(train_frame, **kwargs)


def synth_frames(width: int) -> tuple[tuple, tuple]:
    """Train and test (windows, targets) frames of the first SYNTH series as
    a run prepares them."""
    train, test = split(smoke_series()[0], SplitSpec())
    params = fit_standardizer(train)
    return frame(standardize(train, params), width), frame(standardize(test, params), width)


def tied_frames(seed: int, width: int, constant_column: bool = False):
    rng = np.random.default_rng(seed)
    windows = np.round(rng.normal(0.0, 1.0, (260, width)), 1)
    if constant_column:
        windows[:, 1] = 0.3
    targets = np.round(windows[:, 0] - 0.5 * windows[:, -1] + rng.normal(0.0, 0.2, 260), 1)
    return (windows[:200], targets[:200]), (windows[200:], targets[200:])


class TestPresortedSplit:
    """The presorted search grows the same ensembles as the per-feature one."""

    @pytest.mark.parametrize(
        "frames, kwargs",
        [
            (lambda: synth_frames(30), {"n_estimators": 50}),
            (lambda: tied_frames(1, 6), {"n_estimators": 40}),
            (lambda: tied_frames(2, 5, constant_column=True), {"n_estimators": 40}),
            (lambda: tied_frames(3, 1), {"n_estimators": 40}),
            (lambda: tied_frames(4, 6), {"n_estimators": 30, "max_depth": 1}),
            (lambda: tied_frames(5, 6), {"n_estimators": 30, "max_depth": 2}),
            (lambda: tied_frames(6, 6), {"n_estimators": 30, "max_depth": 4}),
            (lambda: synth_frames(8), {"n_estimators": 20, "max_depth": 4}),
        ],
        ids=[
            "synth-w30", "ties", "constant-column", "width-1",
            "depth-1", "depth-2", "depth-4", "synth-w8-depth-4",
        ],
    )
    def test_matches_per_feature_search(self, frames, kwargs):
        train, test = frames()
        kwargs = {**GbtDetector.params, **kwargs}
        model = gbt_fit(train, **kwargs)
        reference = reference_gbt_fit(train, **kwargs)
        assert model.loss_history == reference.loss_history
        assert len(model.trees) == len(reference.trees)
        for tree, expected in zip(model.trees, reference.trees):
            assert tree.depth == expected.depth
            for name in ("feature", "threshold", "left", "right", "value"):
                np.testing.assert_array_equal(getattr(tree, name), getattr(expected, name))
        np.testing.assert_array_equal(
            gbt_score(model, test), gbt_score(reference, test)
        )
        # The cases must exercise splitting, not only single-leaf trees.
        assert max(tree.depth for tree in model.trees) == kwargs.get("max_depth", 3)


def frozen_gbt_best_split(order, sorted_vals, g, idx):
    """``_gbt_best_split`` before its per-fit state: every node, the root
    included, compresses ``order`` and ``sorted_vals`` and tests every
    feature for ties."""
    d, n = order.shape[0], idx.size
    member = np.zeros(order.shape[1], dtype=bool)
    member[idx] = True
    keep = member[order]
    sv = sorted_vals[keep].reshape(d, n)
    G = g[idx].sum()
    parent = G * G / (n + ml._GBT_LAMBDA)
    gl = np.cumsum(g[order[keep].reshape(d, n)], axis=1)[:, :-1]
    hl = np.arange(1, n, dtype=np.float64)
    gr = G - gl
    hr = n - hl
    gains = 0.5 * (gl * gl / (hl + ml._GBT_LAMBDA) + gr * gr / (hr + ml._GBT_LAMBDA) - parent)
    gains[sv[:, 1:] == sv[:, :-1]] = -np.inf
    pos = gains.argmax(axis=1)
    best = gains[np.arange(d), pos]
    feature = int(best.argmax())
    if not best[feature] > 0.0:
        return None
    at = pos[feature]
    return feature, float(0.5 * (sv[feature, at] + sv[feature, at + 1]))


def frozen_gbt_fit(
    train_frame: tuple[np.ndarray, np.ndarray],
    n_estimators: int = 1000,
    max_depth: int = 3,
    learning_rate: float = 0.1,
) -> GbtModel:
    """``gbt_fit`` before its per-fit state: each round applies the new
    tree to the training rows and computes predictions - targets twice."""
    data, targets = train_frame
    order = np.argsort(data.T, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(data.T, order, axis=1)
    base = float(targets.mean())
    predictions = np.full(targets.size, base)
    trees = []
    history = []
    omega_total = 0.0
    for _ in range(n_estimators):
        g = predictions - targets

        def best_split(data: np.ndarray, idx: np.ndarray):
            return frozen_gbt_best_split(order, sorted_vals, g, idx)

        def leaf_weight(idx: np.ndarray, depth: int) -> float:
            return float(-g[idx].sum() / (idx.size + ml._GBT_LAMBDA))

        tree = ml._grow_tree(data, max_depth, best_split, leaf_weight)
        trees.append(tree)
        predictions += learning_rate * tree.apply(data)
        steps = (learning_rate * tree.value[tree.is_leaf]).tolist()
        squared_norm = 0.0
        for step in steps:
            squared_norm += step * step
        omega_total += 0.5 * ml._GBT_LAMBDA * squared_norm
        history.append(0.5 * float(((predictions - targets) ** 2).sum()) + omega_total)
    return GbtModel(
        trees=tuple(trees),
        learning_rate=learning_rate,
        base_score=base,
        loss_history=tuple(history),
    )


def partly_tied_frames():
    """Every third column rounded: some features hold ties, some do not."""
    rng = np.random.default_rng(7)
    windows = rng.normal(0.0, 1.0, (260, 9))
    windows[:, ::3] = np.round(windows[:, ::3], 1)
    targets = windows[:, 0] - 0.5 * windows[:, -1] + rng.normal(0.0, 0.2, 260)
    return (windows[:200], targets[:200]), (windows[200:], targets[200:])


def few_row_frames(rows: int):
    rng = np.random.default_rng(rows)
    windows, targets = rng.normal(0.0, 1.0, (rows + 3, 4)), rng.normal(0.0, 1.0, rows + 3)
    train = (windows[:rows], targets[:rows])
    return train, (windows[rows:], targets[rows:])


class TestFrozenGbtFit:
    """The per-fit split state and the leaf-written update grow the same
    ensembles, bit for bit, as the whole-fit loop before them."""

    @pytest.mark.parametrize(
        "frames, kwargs",
        [
            (lambda: synth_frames(30), {"n_estimators": 60}),
            (lambda: tied_frames(1, 6), {"n_estimators": 40}),
            (partly_tied_frames, {"n_estimators": 40}),
            (lambda: tied_frames(2, 5, constant_column=True), {"n_estimators": 40}),
            (lambda: tied_frames(3, 1), {"n_estimators": 40}),
            (lambda: few_row_frames(2), {"n_estimators": 10}),
            (lambda: few_row_frames(3), {"n_estimators": 10}),
            (lambda: synth_frames(30), {"n_estimators": 0}),
            (lambda: tied_frames(4, 6), {"n_estimators": 30, "max_depth": 1}),
            (lambda: partly_tied_frames(), {"n_estimators": 30, "max_depth": 2}),
            (lambda: synth_frames(8), {"n_estimators": 20, "max_depth": 4}),
        ],
        ids=[
            "synth-w30", "ties", "partly-tied", "constant-column", "width-1",
            "2-rows", "3-rows", "no-trees", "depth-1", "depth-2", "depth-4",
        ],
    )
    def test_matches_frozen_fit(self, frames, kwargs):
        train, test = frames()
        kwargs = {**GbtDetector.params, **kwargs}
        model = gbt_fit(train, **kwargs)
        frozen = frozen_gbt_fit(train, **kwargs)
        assert np.array(model.loss_history).tobytes() == np.array(frozen.loss_history).tobytes()
        assert model.base_score == frozen.base_score
        assert len(model.trees) == len(frozen.trees) == kwargs["n_estimators"]
        for tree, expected in zip(model.trees, frozen.trees):
            assert tree.depth == expected.depth
            for name in ("feature", "threshold", "left", "right", "value"):
                assert same_bytes(getattr(tree, name), getattr(expected, name)), name
        for x in (train, test):
            assert same_bytes(gbt_score(model, x), gbt_score(frozen, x))

    def test_cases_cover_no_some_and_all_features_tied(self):
        assert not ml._PresortedColumns(synth_frames(30)[0][0]).any_tied
        assert ml._PresortedColumns(tied_frames(1, 6)[0][0]).tied == slice(None)
        partly = ml._PresortedColumns(partly_tied_frames()[0][0])
        np.testing.assert_array_equal(partly.tied, [0, 3, 6])


def _fitted(name: str):
    """The fit ``WINDOW_MATRIX_CALLS[name]`` of 40 well-formed windows of width 4."""
    return WINDOW_MATRIX_CALLS[name](blob_windows(40, 4, 0.0))


WINDOW_MATRIX_CALLS = {
    "kmeans_fit": lambda windows: kmeans_fit(windows, k=2),
    "dbscan_fit": lambda windows: dbscan_fit(windows, epsilon=1.0, mu=2),
    "iforest_fit": lambda windows: iforest_fit(windows, n_trees=2),
    "ocsvm_fit": lambda windows: ocsvm_fit(windows, NU),
    "kmeans_score": lambda windows: kmeans_score(_fitted("kmeans_fit"), windows),
    "dbscan_score": lambda windows: dbscan_score(_fitted("dbscan_fit"), windows),
    "iforest_score": lambda windows: iforest_score(_fitted("iforest_fit"), windows),
    "ocsvm_score": lambda windows: ocsvm_score(_fitted("ocsvm_fit"), windows),
}


class TestMalformedWindowMatrix:
    @pytest.mark.parametrize("name", WINDOW_MATRIX_CALLS)
    @pytest.mark.parametrize("shape", [(40,), (10, 4, 1)], ids=["1-D", "3-D"])
    def test_a_matrix_that_is_not_two_dimensional_is_a_typed_error(self, name, shape):
        windows = blob_windows(40, 1, 0.0).reshape(shape)
        message = re.escape(f"windows must be two-dimensional, got shape {shape}")
        with pytest.raises(DimensionMismatch, match=message):
            WINDOW_MATRIX_CALLS[name](windows)


class TestAdapters:
    def make_series(self, seed=0, n=260):
        rng = np.random.default_rng(seed)
        return series(np.sin(np.arange(n) / 5.0) + rng.normal(0.0, 0.05, n))

    def test_window_families_align_to_window_ends(self):
        # Score i is the score of the window of the train-then-test series
        # that ends at test point i; the first w - 1 reach into the train.
        train = self.make_series(1)
        test = self.make_series(2, n=120)
        w = 10
        whole = np.concatenate((train.values, test.values))
        ends = len(train) + np.arange(len(test))
        windows = np.stack([whole[end - w + 1 : end + 1] for end in ends])
        score_windows = {
            "kmeans": lambda model: kmeans_score(model, raw_frame(windows)),
            "dbscan": lambda model: dbscan_score(model, raw_frame(windows)),
            "lof": lambda model: model.scores(windows),
            "iforest": lambda model: iforest_score(model, raw_frame(windows)),
            "ocsvm": lambda model: ocsvm_score(model, raw_frame(windows)),
        }
        for name, by_window in score_windows.items():
            detector = get_detector(name)
            cfg = DetectorConfig(
                name=name,
                window_width=w,
                hyperparameters={"epsilon": 1.5} if name == "dbscan" else {},
            )
            model = detector.fit(train, cfg)
            out = detector.score(model, cfg, train, test)
            assert np.array_equal(out, by_window(model)), name

    def test_gbt_aligns_to_forecast_targets(self):
        # Score i is the forecast error of test point i from the w points
        # before it, the first of them from the train tail.
        train, test = self.make_series(3), self.make_series(4, n=120)
        detector = get_detector("gbt")
        cfg = DetectorConfig(name="gbt", window_width=10, hyperparameters={"n_estimators": 20})
        model = detector.fit(train, cfg)
        out = detector.score(model, cfg, train, test)
        whole = np.concatenate((train.values, test.values))
        windows = np.stack([whole[t - 10 : t] for t in len(train) + np.arange(len(test))])
        expected = gbt_score(model, (windows, test.values))
        assert np.array_equal(out, expected)

    def test_offset_invariance(self):
        train = self.make_series(5)
        test = self.make_series(6, n=120)
        shifted_train = series(train.values + 100.0)
        shifted_test = series(test.values + 100.0)
        for name, extra in (("kmeans", {}), ("dbscan", {"epsilon": 1.5}), ("lof", {})):
            detector = get_detector(name)
            cfg = DetectorConfig(name=name, window_width=10, hyperparameters=extra)
            base = detector.score(detector.fit(train, cfg), cfg, train, test)
            moved = detector.score(
                detector.fit(shifted_train, cfg), cfg, shifted_train, shifted_test
            )
            assert np.allclose(base, moved, atol=1e-7), name

    def test_ocsvm_window_width(self):
        detector = get_detector("ocsvm")
        cfg = DetectorConfig(name="ocsvm", window_width=2)
        model = detector.fit(self.make_series(7), cfg)
        assert model.support_vectors.shape[1] == 2
        assert model.rbf_gamma == 0.5

    def test_unknown_key_rejected(self):
        detector = get_detector("iforest")
        cfg = DetectorConfig(name="iforest", hyperparameters={"trees": 5})
        with pytest.raises(ValueError, match="trees"):
            detector.fit(self.make_series(8), cfg)


# ---------------------------------------------------------------------------
# Distance matrices built once and filled in place: the one-expression
# versions are frozen here as oracles, and tracemalloc bounds the peaks.


def frozen_pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_pairwise_sq`` as one expression: the norm sum, the product, the
    difference and the clip each allocate an m x n matrix."""
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    sq = np.maximum(aa[:, None] + bb[None, :] - 2.0 * (a @ b.T), 0.0)
    if not np.isfinite(sq.max(initial=0.0)):
        raise NonFiniteValues("pairwise window distances overflow")
    return sq


def frozen_lof_fit(windows: np.ndarray, k: int) -> dict:
    """``LofModel``'s cached structures from whole-matrix sqrt and partition."""
    m = windows.shape[0]
    d = np.sqrt(frozen_pairwise_sq(windows, windows))
    np.fill_diagonal(d, np.inf)
    part = np.partition(d, (k - 1, max(k - 2, 0)), axis=1)
    kdist = np.maximum(part[:, k - 1], ml._KDIST_FLOOR)
    kdist_prev = part[:, k - 2].copy() if k >= 2 else np.zeros(m)
    rows, cols = np.nonzero(d <= kdist[:, None])
    return {
        "kdist": kdist,
        "kdist_prev": kdist_prev,
        "nbr_ptr": np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m)))),
        "nbr_idx": cols,
        "nbr_dist": d[rows, cols],
    }


def frozen_ocsvm_fit(windows: np.ndarray, nu: float = 0.7) -> tuple:
    """``ocsvm_fit`` with a freshly allocated kernel whose columns the
    updates read; returns (support vectors, coefficients, rho, converged)."""
    m = windows.shape[0]
    gamma = 1.0 / windows.shape[1]
    kernel = np.exp(-gamma * frozen_pairwise_sq(windows, windows))
    box = 1.0 / (nu * m)
    alpha = np.zeros(m)
    full = int(math.floor(nu * m))
    alpha[:full] = box
    if full < m:
        alpha[full] = 1.0 - full * box
    gradient = kernel @ alpha
    converged = False
    for _ in range(ml._OCSVM_MAX_ITER):
        can_down = alpha > 1e-12
        can_up = alpha < box - 1e-12
        i = int(np.where(can_down, gradient, -np.inf).argmax())
        j = int(np.where(can_up, gradient, np.inf).argmin())
        gap = gradient[i] - gradient[j]
        if gap < ml._OCSVM_TOL:
            converged = True
            break
        total = alpha[i] + alpha[j]
        curvature = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        if curvature > 1e-15:
            new_i = alpha[i] - gap / curvature
        else:
            new_i = max(0.0, total - box)
        new_i = min(max(new_i, max(0.0, total - box)), min(box, total))
        new_j = total - new_i
        gradient += (new_i - alpha[i]) * kernel[:, i] + (new_j - alpha[j]) * kernel[:, j]
        alpha[i], alpha[j] = new_i, new_j
    interior = (alpha > 1e-8) & (alpha < box - 1e-8)
    if interior.any():
        rho = float(gradient[interior].mean())
    else:
        at_box = alpha >= box - 1e-8
        at_zero = alpha <= 1e-8
        lo = float(gradient[at_box].max()) if at_box.any() else -math.inf
        hi = float(gradient[at_zero].min()) if at_zero.any() else math.inf
        rho = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else float(gradient @ alpha)
    keep = alpha > 1e-12
    return windows[keep], alpha[keep], rho, converged


def frozen_ocsvm_score(model: OcSvmModel, windows: np.ndarray) -> np.ndarray:
    kernel = np.exp(-model.rbf_gamma * frozen_pairwise_sq(windows, model.support_vectors))
    return model.rho - kernel @ model.dual_coeffs


def frozen_dbscan_core(windows: np.ndarray, epsilon: float, mu: int) -> np.ndarray:
    """``dbscan_fit``'s core mask from a whole boolean neighbour matrix."""
    within = frozen_pairwise_sq(windows, windows) <= epsilon * epsilon
    np.fill_diagonal(within, False)
    return within.sum(axis=1) >= mu


def frozen_dbscan_score(model: DbscanModel, windows: np.ndarray) -> np.ndarray:
    """``dbscan_score`` taking the square root of the whole matrix."""
    d = np.sqrt(frozen_pairwise_sq(windows, model.core_points)).min(axis=1)
    return np.where(d <= model.epsilon, 0.0, d)


def distance_synth_w30():
    (train, _), (test, _) = synth_frames(30)
    return train, test


def distance_distinct():
    rng = np.random.default_rng(51)
    return rng.normal(0.0, 1.0, (37, 6)), rng.normal(0.0, 1.0, (23, 6))


def distance_one_row():
    rng = np.random.default_rng(52)
    return rng.normal(0.0, 1.0, (1, 6)), rng.normal(0.0, 1.0, (23, 6))


def distance_signed_zeros():
    # Rows of 0.0, rows of -0.0 and rows mixing both: all one point.
    rng = np.random.default_rng(53)
    a = rng.normal(0.0, 1.0, (41, 4))
    a[:8] = 0.0
    a[8:16] = -0.0
    a[16:20] = [0.0, -0.0, 0.0, -0.0]
    b = np.vstack((np.full((3, 4), -0.0), rng.normal(0.0, 1.0, (20, 4))))
    return a, b


DISTANCE_CASES = {
    "synth-w30": distance_synth_w30,
    "distinct": distance_distinct,
    "one-row": distance_one_row,
    "signed-zeros": distance_signed_zeros,
}
# The default blocks, and 100-entry blocks of one to four rows, which end
# in a ragged block on every small case.
BLOCK_ENTRIES = {"default-blocks": None, "100-entry-blocks": 100}


@pytest.fixture(params=list(BLOCK_ENTRIES))
def blocks(request, monkeypatch):
    if BLOCK_ENTRIES[request.param] is not None:
        monkeypatch.setattr(ml, "_BLOCK_ENTRIES", BLOCK_ENTRIES[request.param])


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# The fits need more windows than the one-row case has.
FIT_CASES = [case for case in DISTANCE_CASES if case != "one-row"]


@pytest.mark.usefixtures("blocks")
class TestInPlaceDistances:
    """Filling one matrix in place leaves ``_pairwise_sq`` bit-identical.
    Fits and scores built from row blocks match the whole-matrix oracles:
    the same neighbourhoods, support sets and cores, and values within the
    stated tolerances."""

    @pytest.mark.parametrize("case", DISTANCE_CASES)
    def test_pairwise_matches_frozen_expression(self, case):
        a, b = DISTANCE_CASES[case]()
        for x, y in ((a, a), (b, b), (a, b), (b, a)):
            assert same_bytes(ml._pairwise_sq(x, y), frozen_pairwise_sq(x, y))

    @pytest.mark.parametrize("case", FIT_CASES)
    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_lof_fit_matches_frozen_fit(self, case, k):
        windows, _ = DISTANCE_CASES[case]()
        model = LofModel(k_neighbors=k, reference_windows=windows)
        want = frozen_lof_fit(windows, k)
        # The fit's row blocks of a BLAS product need not round as the whole
        # syrk does: the neighbourhoods are identical, distances agree to 1e-12.
        for name in ("nbr_ptr", "nbr_idx"):
            assert same_bytes(getattr(model, name), want[name]), name
        for name in ("kdist", "kdist_prev", "nbr_dist"):
            np.testing.assert_allclose(getattr(model, name), want[name], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", FIT_CASES)
    def test_ocsvm_matches_frozen_fit_and_score(self, case):
        windows, queries = DISTANCE_CASES[case]()
        model = ocsvm_fit(raw_frame(windows), NU)
        support, coeffs, rho, converged = frozen_ocsvm_fit(windows, NU)
        # The fit computes kernel rows from row blocks, which need not round
        # as the whole syrk does: the support set is identical, and the
        # coefficients and rho agree to 1e-10 and 1e-12.
        assert same_bytes(model.support_vectors, support)
        assert model.converged == converged
        np.testing.assert_allclose(model.dual_coeffs, coeffs, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(model.rho, rho, rtol=1e-12, atol=0.0)
        # Scoring builds the kernel one row block at a time, and a block of a
        # product need not round as the same rows of the whole product do.
        # A score near the boundary cancels rho, so its error scales with rho.
        for x in (queries, windows):
            got = ocsvm_score(model, raw_frame(x))
            want = frozen_ocsvm_score(model, x)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * model.rho)

    @pytest.mark.parametrize("case", FIT_CASES)
    def test_dbscan_cores_match_frozen_counts(self, case):
        windows, _ = DISTANCE_CASES[case]()
        d = np.sqrt(frozen_pairwise_sq(windows, windows))
        for quantile in (0.05, 0.3):
            epsilon = float(np.quantile(d[d > 0.0], quantile))
            want = frozen_dbscan_core(windows, epsilon, 3)
            assert want.any() and not want.all()
            model = dbscan_fit(raw_frame(windows), epsilon=epsilon, mu=3)
            assert same_bytes(model.core_points, windows[want])

    @pytest.mark.parametrize("case", DISTANCE_CASES)
    def test_dbscan_scores_match_frozen_sqrt(self, case):
        a, b = DISTANCE_CASES[case]()
        for core, queries in ((a, b), (b, a), (a, a)):
            for epsilon in (1.0, 3.0):
                model = DbscanModel(epsilon=epsilon, core_points=core)
                scores = dbscan_score(model, raw_frame(queries))
                want = frozen_dbscan_score(model, queries)
                # Row blocks of the product need not round as the whole
                # product does; which windows score 0 does not move.
                np.testing.assert_array_equal(scores == 0.0, want == 0.0)
                np.testing.assert_allclose(scores, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", DISTANCE_CASES)
    def test_overflow_still_raises(self, case):
        a, b = DISTANCE_CASES[case]()
        a, b = a + 1e200, b + 1e200
        with np.errstate(all="ignore"):
            for x, y in ((a, a), (a, b)):
                with pytest.raises(NonFiniteValues):
                    frozen_pairwise_sq(x, y)
                with pytest.raises(NonFiniteValues):
                    ml._pairwise_sq(x, y)
            if a.shape[0] >= 2:
                with pytest.raises(NonFiniteValues):
                    LofModel(k_neighbors=1, reference_windows=a)
                with pytest.raises(NonFiniteValues):
                    ocsvm_fit(raw_frame(a), NU)
                with pytest.raises(NonFiniteValues):
                    dbscan_fit(raw_frame(a), **DbscanDetector.params)


class TestDistancePeaks:
    """Each window-distance matrix exists once: the peak is its own bytes
    plus block-sized scratch, not a second matrix of temporaries."""

    M, N, WIDTH, K = 1500, 1200, 30, 10

    def windows(self, rows: int, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).normal(0.0, 1.0, (rows, self.WIDTH))

    def test_pairwise_holds_its_output_and_one_block(self):
        a, b = self.windows(self.M, 61), self.windows(self.N, 62)
        for x, y in ((a, b), (a, a)):
            sq, peak = traced_peak(lambda: ml._pairwise_sq(x, y))
            assert peak <= 1.1 * sq.nbytes + 8 * ml._BLOCK_ENTRIES, peak / sq.nbytes

    def test_ocsvm_holds_one_kernel(self):
        train, test = self.windows(self.N, 63), self.windows(self.M, 64)
        model, peak = traced_peak(lambda: ocsvm_fit(raw_frame(train), NU))
        assert peak <= 1.1 * 8 * self.N**2, peak / (8 * self.N**2)
        test_frame = raw_frame(test)
        _, peak = traced_peak(lambda: ocsvm_score(model, test_frame))
        kernel_bytes = 8 * self.M * model.support_vectors.shape[0]
        assert peak <= 1.1 * kernel_bytes, peak / kernel_bytes

    def test_ocsvm_score_holds_blocks_not_the_kernel(self):
        model = ocsvm_fit(raw_frame(self.windows(self.N, 63)), NU)
        n_sv = model.support_vectors.shape[0]
        block_bytes = 8 * ml._BLOCK_ENTRIES
        for rows in (self.M, 4 * self.M):
            test_frame = raw_frame(self.windows(rows, 64))
            _, peak = traced_peak(lambda: ocsvm_score(model, test_frame))
            # A kernel block and its norm-sum scratch, plus vectors of length
            # n and n_sv.
            assert peak <= 3 * block_bytes + 16 * (rows + n_sv), peak / block_bytes

    def test_lof_fit_holds_one_matrix(self):
        windows = self.windows(self.M, 65)
        _, peak = traced_peak(lambda: LofModel(k_neighbors=self.K, reference_windows=windows))
        # Beyond the m x m matrix: neighbour lists of about k entries per
        # row, and the sorted duplicate index of one int64 per row.
        extra = 32 * self.M * self.K + 8 * self.M
        assert peak <= 1.1 * 8 * self.M**2 + extra, peak / (8 * self.M**2)

    def test_dbscan_fit_holds_one_matrix(self):
        windows = self.windows(self.M, 66)
        _, peak = traced_peak(lambda: dbscan_fit(raw_frame(windows), epsilon=6.0, mu=5))
        assert peak <= 1.1 * 8 * self.M**2, peak / (8 * self.M**2)

    def test_dbscan_score_holds_one_matrix(self):
        train, test = self.windows(self.M, 67), self.windows(self.N, 68)
        model = dbscan_fit(raw_frame(train), epsilon=6.0, mu=5)
        test_frame = raw_frame(test)
        _, peak = traced_peak(lambda: dbscan_score(model, test_frame))
        matrix_bytes = 8 * self.N * model.core_points.shape[0]
        assert peak <= 1.1 * matrix_bytes, peak / matrix_bytes


class TestRowBlockPeaks:
    """LOF, DBSCAN and the one-class SVM hold a few row blocks of distances
    plus O(m * (k + d)) bytes, at two train sizes; an m x m matrix would
    be 18 MB at m = 1,500 and 288 MB at m = 6,000."""

    WIDTH, K = 30, 10

    @pytest.fixture(params=[1500, 6000], ids=["m1500", "m6000"])
    def m(self, request):
        return request.param

    def windows(self, rows: int, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).normal(0.0, 1.0, (rows, self.WIDTH))

    def test_lof_fit_model_and_scores(self, m):
        train, test = self.windows(m, 81), self.windows(m, 82)
        block_bytes = 8 * ml._BLOCK_ENTRIES
        model, peak = traced_peak(lambda: LofModel(k_neighbors=self.K, reference_windows=train))
        # Beyond the blocks: neighbour lists of about k entries per row, and
        # the sorted duplicate index of one int64 per row.
        assert peak <= 4 * block_bytes + 40 * m * self.K + 8 * m, peak / block_bytes
        arrays = sum(
            getattr(model, name).nbytes
            for name in (
                "reference_windows",
                "kdist",
                "kdist_prev",
                "nbr_ptr",
                "nbr_idx",
                "nbr_dist",
                "row_order",
            )
        )
        assert arrays <= 16 * m * (self.K + self.WIDTH), arrays / m
        _, peak = traced_peak(lambda: model.scores(test))
        # A distance block and the neighbour-list chunks it expands to.
        assert peak <= 8 * block_bytes + 16 * m, peak / block_bytes

    def test_ocsvm_fit(self, m):
        train = raw_frame(self.windows(m, 83))
        _, peak = traced_peak(lambda: ocsvm_fit(train, NU))
        # Two kernel rows and the support vectors, beside the blocks.
        block_bytes = 8 * ml._BLOCK_ENTRIES
        assert peak <= 4 * block_bytes + 8 * m * (self.WIDTH + 16), peak / block_bytes

    def test_dbscan_fit_and_score(self, m):
        train, test = raw_frame(self.windows(m, 84)), raw_frame(self.windows(m, 85))
        block_bytes = 8 * ml._BLOCK_ENTRIES
        model, peak = traced_peak(lambda: dbscan_fit(train, epsilon=6.0, mu=5))
        assert peak <= 4 * block_bytes + 8 * m * (self.WIDTH + 4), peak / block_bytes
        _, peak = traced_peak(lambda: dbscan_score(model, test))
        assert peak <= 4 * block_bytes + 16 * m, peak / block_bytes


class TestScorePeakAtFortyThousandPoints:
    """Scoring the 28,000 test windows of a 40,000-point series holds row
    blocks and a few length-n vectors, not a copy of the 28,000 x 30 window
    matrix (6.41 MiB): the windows are a view of the test values, copied
    one row block at a time."""

    @pytest.mark.parametrize("name", ["lof", "ocsvm", "kmeans", "iforest"])
    def test_score_peak(self, name):
        train, test = long_synth()
        detector = get_detector(name)
        cfg = DetectorConfig(name=name)
        # Fitting on the last 3,000 train points keeps the test quick; a
        # scoring block holds about _BLOCK_ENTRIES entries whatever the
        # number of train windows.
        model = detector.fit(train.segment(len(train) - 3000, len(train)), cfg)
        _, peak = traced_peak(lambda: detector.score(model, cfg, train, test))
        assert peak <= 2 * 2**20, peak / 2**20


class TestOneBlockAtATime:
    """Every blocked distance loop writes its blocks into the one buffer
    that ``_distance_blocks`` reuses, so each loop peaks near one block, or
    two with LOF's partitioned copy, not at three or four.  Blocks of 2**20
    entries (8 MiB) dwarf the O(m) structures beside them."""

    ENTRIES = 2**20

    @pytest.fixture(autouse=True)
    def large_blocks(self, monkeypatch):
        monkeypatch.setattr(ml, "_BLOCK_ENTRIES", self.ENTRIES)

    def windows(self, rows: int, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).normal(0.0, 1.0, (rows, 30))

    def test_lof_fit(self):
        windows = self.windows(1500, 91)  # blocks of 699, 699 and 102 rows
        _, peak = traced_peak(lambda: LofModel(k_neighbors=10, reference_windows=windows))
        assert peak <= 2.5 * 8 * self.ENTRIES, peak / (8 * self.ENTRIES)

    def test_ocsvm_score(self):
        model = ocsvm_fit(raw_frame(self.windows(1200, 92)), NU)
        test = raw_frame(self.windows(6000, 93))
        rows = ml._block_height(model.support_vectors.shape[0])
        assert test.shape[0] > 2 * rows
        _, peak = traced_peak(lambda: ocsvm_score(model, test))
        assert peak <= 2.5 * 8 * self.ENTRIES, peak / (8 * self.ENTRIES)

    def test_ocsvm_fit(self):
        windows = raw_frame(self.windows(1500, 94))  # blocks of 699, 699 and 102 rows
        _, peak = traced_peak(lambda: ocsvm_fit(windows, NU))
        assert peak <= 2.5 * 8 * self.ENTRIES, peak / (8 * self.ENTRIES)

    def test_kmeans_score(self):
        model = kmeans_fit(raw_frame(self.windows(1200, 95)), 4)
        # A view of 99,971 width-30 windows, as the scorers get them: the
        # block copies, 34,952 rows each, are the blocks here.
        values = np.random.default_rng(96).normal(0.0, 1.0, 100_000)
        test = np.lib.stride_tricks.sliding_window_view(values, 30)
        assert test.shape[0] > 2 * ml._block_height(test.shape[1])
        _, peak = traced_peak(lambda: kmeans_score(model, test))
        assert peak <= 1.5 * 8 * self.ENTRIES, peak / (8 * self.ENTRIES)

    def test_dbscan_fit(self):
        windows = raw_frame(self.windows(1500, 97))  # blocks of 699, 699 and 102 rows
        _, peak = traced_peak(lambda: dbscan_fit(windows, epsilon=6.0, mu=5))
        assert peak <= 2.5 * 8 * self.ENTRIES, peak / (8 * self.ENTRIES)

    def test_dbscan_score(self):
        model = dbscan_fit(raw_frame(self.windows(1500, 98)), epsilon=6.0, mu=5)
        test = raw_frame(self.windows(6000, 99))
        assert test.shape[0] > 2 * ml._block_height(model.core_points.shape[0])
        _, peak = traced_peak(lambda: dbscan_score(model, test))
        assert peak <= 2.5 * 8 * self.ENTRIES, peak / (8 * self.ENTRIES)


# ---------------------------------------------------------------------------
# Index-level rewrites frozen bit for bit: LOF's fit lists and block scores
# as 2-D mask indices and a bytes-keyed duplicate map found them, and the
# one-class SVM fit as it was when each update's two kernel rows went
# through _pairwise_sq.


def frozen_lof_lists(windows: np.ndarray, k: int) -> dict:
    """``LofModel``'s fit lists from the fit's own row blocks, found with
    ``np.nonzero`` on each 2-D block mask and gathered by 2-D indices."""
    m = windows.shape[0]
    height = ml._block_height(m)
    kdist = np.empty(m)
    kdist_prev = np.zeros(m)
    rows, cols, dists = [], [], []
    for lo in range(0, m, height):
        d = ml._pairwise_sq(windows[lo : lo + height], windows)
        np.sqrt(d, out=d)
        own = np.arange(d.shape[0])
        d[own, lo + own] = np.inf
        part = np.partition(d, (k - 1, max(k - 2, 0)), axis=1)
        kdist[lo : lo + height] = np.maximum(part[:, k - 1], ml._KDIST_FLOOR)
        if k >= 2:
            kdist_prev[lo : lo + height] = part[:, k - 2]
        r, c = np.nonzero(d <= kdist[lo : lo + height, None])
        rows.append(r + lo)
        cols.append(c)
        dists.append(d[r, c])
    rows = np.concatenate(rows)
    return {
        "kdist": kdist,
        "kdist_prev": kdist_prev,
        "nbr_ptr": np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m)))),
        "nbr_idx": np.concatenate(cols),
        "nbr_dist": np.concatenate(dists),
    }


def frozen_score_block(model: LofModel, block: np.ndarray) -> np.ndarray:
    """``LofModel._score_block`` with 2-D mask indices and the duplicate
    rule keyed on each window's bytes, -0.0 folded into 0.0 by ``+ 0.0``."""
    k = model.k_neighbors
    dq = ml._pairwise_sq(block, model.reference_windows)
    np.sqrt(dq, out=dq)
    dup, ref = bytes_dict_duplicates(model.reference_windows, block)
    h = model.fit_rows
    for lo in sorted({i - i % h for i in ref.tolist()}):
        inside = (ref >= lo) & (ref < lo + h)
        dq[dup[inside]] = model._fit_distances(lo)[ref[inside] - lo]
    dq[dup, ref] = 0.0
    kdist_q = np.maximum(np.partition(dq, k - 1, axis=1)[:, k - 1], ml._KDIST_FLOOR)
    pq, py = np.nonzero(dq <= kdist_q[:, None])
    dq_pair = dq[pq, py]
    bound = model._joined_kdist(dq_pair, py)
    total = np.empty(pq.size)
    count = np.empty(pq.size)
    lengths = model.nbr_ptr[py + 1] - model.nbr_ptr[py]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    lo = 0
    while lo < pq.size:
        hi = max(int(np.searchsorted(ends, starts[lo] + ml._LOF_CHUNK_ENTRIES, "right")), lo + 1)
        span = lengths[lo:hi]
        pair = np.repeat(np.arange(hi - lo), span)
        shift = model.nbr_ptr[py[lo:hi]] - (starts[lo:hi] - starts[lo])
        entry = np.arange(ends[hi - 1] - starts[lo]) + np.repeat(shift, span)
        dist = model.nbr_dist[entry]
        inside = dist <= bound[lo:hi][pair]
        pair, dist = pair[inside], dist[inside]
        x = model.nbr_idx[entry[inside]]
        rd = np.maximum(model._joined_kdist(dq[pq[lo:hi][pair], x], x), dist)
        total[lo:hi] = np.bincount(pair, weights=rd, minlength=hi - lo)
        count[lo:hi] = np.bincount(pair, minlength=hi - lo)
        lo = hi
    own = dq_pair <= bound
    total[own] += np.maximum(kdist_q[pq[own]], dq_pair[own])
    count[own] += 1.0
    lrds = count / total
    size = np.bincount(pq, minlength=block.shape[0])
    rd_query = np.bincount(pq, weights=np.maximum(bound, dq_pair), minlength=block.shape[0])
    lrd_query = size / rd_query
    return np.bincount(pq, weights=lrds, minlength=block.shape[0]) / size / lrd_query


def frozen_two_row_ocsvm_fit(windows: np.ndarray, nu: float = 0.7) -> tuple:
    """``ocsvm_fit`` with each update's two kernel rows built by
    ``_pairwise_sq``; returns (support vectors, coefficients, rho, converged)."""
    m = windows.shape[0]
    gamma = 1.0 / windows.shape[1]
    norms = ml._sq_norms(windows)

    def kernel_rows(rows) -> np.ndarray:
        kernel = ml._pairwise_sq(windows[rows], windows, norms)
        kernel *= -gamma
        return np.exp(kernel, out=kernel)

    box = 1.0 / (nu * m)
    alpha = np.zeros(m)
    full = int(math.floor(nu * m))
    alpha[:full] = box
    if full < m:
        alpha[full] = 1.0 - full * box
    gradient = np.empty(m)
    for rows in ml._row_blocks(m, m):
        gradient[rows] = kernel_rows(rows) @ alpha
    converged = False
    for _ in range(ml._OCSVM_MAX_ITER):
        can_down = alpha > 1e-12
        can_up = alpha < box - 1e-12
        i = int(np.where(can_down, gradient, -np.inf).argmax())
        j = int(np.where(can_up, gradient, np.inf).argmin())
        gap = gradient[i] - gradient[j]
        if gap < ml._OCSVM_TOL:
            converged = True
            break
        total = alpha[i] + alpha[j]
        k_i, k_j = kernel_rows([i, j])
        curvature = k_i[i] + k_j[j] - 2.0 * k_i[j]
        if curvature > 1e-15:
            new_i = alpha[i] - gap / curvature
        else:
            new_i = max(0.0, total - box)
        new_i = min(max(new_i, max(0.0, total - box)), min(box, total))
        new_j = total - new_i
        gradient += (new_i - alpha[i]) * k_i + (new_j - alpha[j]) * k_j
        alpha[i], alpha[j] = new_i, new_j
    interior = (alpha > 1e-8) & (alpha < box - 1e-8)
    if interior.any():
        rho = float(gradient[interior].mean())
    else:
        at_box = alpha >= box - 1e-8
        at_zero = alpha <= 1e-8
        lo = float(gradient[at_box].max()) if at_box.any() else -math.inf
        hi = float(gradient[at_zero].min()) if at_zero.any() else math.inf
        rho = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else float(gradient @ alpha)
    keep = alpha > 1e-12
    return windows[keep], alpha[keep], rho, converged


def lof_signed_zeros():
    a, b = distance_signed_zeros()
    return a, np.vstack((b, -a[::3])), 2


def lof_references_as_queries():
    reference, _, k = lof_duplicates()
    return reference, reference[::4], k


INDEX_CASES = {
    **LOF_CASES,
    "signed-zeros": lof_signed_zeros,
    "references-as-queries": lof_references_as_queries,
}


def ocsvm_m421():
    """The 421 width-30 train windows of the first SYNTH series."""
    train, _ = split(smoke_series()[0], SplitSpec())
    return np.ascontiguousarray(subsequences(standardize(train, fit_standardizer(train)), 30))


def ocsvm_m2971():
    """The 2,971 width-30 train windows of a 10,000-point SYNTH-like series."""
    train, _ = long_synth(10_000)
    return np.ascontiguousarray(subsequences(train, 30))


class TestFrozenIndexOracles:
    """The flat-index LOF search, the sorted duplicate index and the lean
    SVM kernel rows leave every fitted array and every score bit-identical."""

    @pytest.mark.parametrize("case", INDEX_CASES)
    def test_lof_fit_lists(self, case):
        reference, _, k = INDEX_CASES[case]()
        model = LofModel(k_neighbors=k, reference_windows=reference)
        for name, want in frozen_lof_lists(model.reference_windows, k).items():
            assert same_bytes(getattr(model, name), want), name

    @pytest.mark.parametrize("case", ["signed-zero-reference", "signed-zeros"])
    def test_lof_fit_folds_negative_zeros_without_moving_a_distance(self, case):
        reference, _, k = INDEX_CASES[case]()
        assert np.signbit(reference[reference == 0.0]).any()
        model = LofModel(k_neighbors=k, reference_windows=reference)
        assert not np.signbit(model.reference_windows[model.reference_windows == 0.0]).any()
        for name, want in frozen_lof_lists(reference, k).items():
            assert same_bytes(getattr(model, name), want), name

    @pytest.mark.parametrize("case", INDEX_CASES)
    @pytest.mark.parametrize("height", [1, 7, None], ids=["1-row", "7-row", "one-block"])
    def test_lof_score_blocks(self, case, height):
        reference, queries, k = INDEX_CASES[case]()
        model = LofModel(k_neighbors=k, reference_windows=reference)
        step = height or queries.shape[0]
        for lo in range(0, queries.shape[0], step):
            block = queries[lo : lo + step]
            dq = ml._pairwise_sq(block, model.reference_windows)
            assert same_bytes(model._score_block(block, dq), frozen_score_block(model, block))

    @pytest.mark.parametrize("windows", [ocsvm_m421, ocsvm_m2971], ids=["m421", "m2971"])
    def test_ocsvm_fit(self, windows):
        windows = windows()
        model = ocsvm_fit(windows, NU)
        support, coeffs, rho, converged = frozen_two_row_ocsvm_fit(windows, NU)
        assert same_bytes(model.support_vectors, support)
        assert same_bytes(model.dual_coeffs, coeffs)
        assert model.rho == rho and model.converged == converged
