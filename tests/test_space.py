"""Centroids, exact k-NN queries, silhouette."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivenn.space import (
    _tile_plan,
    build_centroids,
    build_index,
    knn,
    knn_many,
    nearest_centroid_many,
    silhouette,
)


def brute_knn(points, q, k):
    # exhaustive oracle with the same tie rule: distance, then insertion order
    d = np.linalg.norm(points - q, axis=1)
    order = np.lexsort((np.arange(len(points)), d))[:k]
    return d[order], order


def brute_silhouette(points, labels):
    # direct per-point evaluation of the definition, O(n^2) loops
    n = len(points)
    total = 0.0
    classes = sorted(set(int(c) for c in labels))
    for i in range(n):
        own = int(labels[i])
        same = [j for j in range(n) if labels[j] == own and j != i]
        if not same:
            continue
        a = float(np.mean([np.linalg.norm(points[i] - points[j]) for j in same]))
        b = min(
            float(
                np.mean(
                    [np.linalg.norm(points[i] - points[j]) for j in range(n) if labels[j] == c]
                )
            )
            for c in classes
            if c != own
        )
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / n


class TestCentroids:
    def test_two_point_mean(self):
        cs = build_centroids([(0.0, 0.0), (2.0, 0.0)], [0, 0], 1)
        np.testing.assert_array_equal(cs[0], (1.0, 0.0))

    def test_single_point_class(self):
        cs = build_centroids([(5.0, 7.0)], [0], 1)
        np.testing.assert_array_equal(cs[0], (5.0, 7.0))

    def test_three_point_mean(self):
        cs = build_centroids([(0, 0), (1, 1), (2, 2)], [0, 0, 0], 1)
        np.testing.assert_array_equal(cs[0], (1.0, 1.0))

    def test_missing_class_named(self):
        with pytest.raises(ValueError, match="class 1"):
            build_centroids([(0.0, 0.0)], [0], 2)

    def test_labels_follow_the_one_label_rule(self):
        # a label outside the classes once dropped its rows from every mean
        # (centroids [0.5, 10.5] from counts [2, 2]); a fractional one was
        # truncated into a class
        pts = np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]])
        with pytest.raises(ValueError, match=r"^labels: row 4: label 5 outside \[0, 2\)$"):
            build_centroids(pts, [0, 0, 1, 1, 5, 5], 2)
        with pytest.raises(ValueError, match=r"^label 1\.5 in row 4 is not an integer$"):
            build_centroids(pts, [0, 0, 1, 1, 1.5, 1], 2)


def test_index_labels_are_integers():
    # a fractional label was truncated into a class
    with pytest.raises(ValueError, match=r"^label 0\.5 in row 1 is not an integer$"):
        build_index(np.zeros((2, 1)), [0, 0.5])


def nearest_centroid(cs, q):
    # one query as a batch of one
    j, d = nearest_centroid_many(cs, np.asarray(q, dtype=float)[None])
    return int(j[0]), float(d[0])


class TestNearestCentroid:
    def setup_method(self):
        self.cs = build_centroids(
            [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], [0, 1, 2], 3
        )

    def test_basic(self):
        j, d = nearest_centroid(self.cs, (1.0, 0.0))
        assert (j, d) == (0, 1.0)

    def test_tie_lowest_index(self):
        j, _ = nearest_centroid(self.cs, (5.0, 0.0))
        assert j == 0

    def test_exact_hit(self):
        j, d = nearest_centroid(self.cs, (0.0, 10.0))
        assert (j, d) == (2, 0.0)


class TestKnn:
    def test_single_point(self):
        index = build_index([(1.0, 2.0)], [0])
        d, ids = knn(index, (1.0, 2.0), 1)
        assert ids.tolist() == [0] and d[0] == 0.0

    def test_query_hits_stored_point(self):
        pts = np.array([(0.0, 0.0), (5.0, 5.0), (9.0, 1.0)])
        index = build_index(pts, [0, 1, 2])
        d, ids = knn(index, (5.0, 5.0), 1)
        assert ids.tolist() == [1] and d[0] == 0.0

    def test_k_equals_size_returns_all_sorted(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        index = build_index(pts, np.zeros(40, dtype=int))
        d, ids = knn(index, rng.normal(size=3), 40)
        assert sorted(ids.tolist()) == list(range(40))
        assert np.all(np.diff(d) >= 0)

    def test_k_out_of_range(self):
        index = build_index([(0.0,), (1.0,)], [0, 0])
        with pytest.raises(ValueError, match="k="):
            knn(index, (0.5,), 3)
        with pytest.raises(ValueError, match="k="):
            knn(index, (0.5,), 0)

    def test_duplicates_come_first_in_insertion_order(self):
        pts = np.array([(2.0, 2.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        index = build_index(pts, [0, 0, 0, 0])
        d, ids = knn(index, (0.0, 0.0), 3)
        assert ids.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(d[:2], 0.0)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 5):
            pts = rng.normal(size=(200, dim))
            index = build_index(pts, np.zeros(200, dtype=int))
            for _ in range(25):
                q = rng.normal(size=dim)
                for k in (1, 3, 17):
                    d, ids = knn(index, q, k)
                    od, oids = brute_knn(pts, q, k)
                    np.testing.assert_array_equal(ids, oids)
                    np.testing.assert_allclose(d, od, rtol=0, atol=1e-12)

    def test_matches_brute_force_on_tie_heavy_grid(self):
        """Integer grid points force exact distance ties; the index must still
        reproduce the insertion-order tie rule."""
        rng = np.random.default_rng(7)
        side = np.arange(4.0)
        pts = np.array([(x, y) for x in side for y in side])
        perm = rng.permutation(len(pts))
        pts = pts[perm]
        index = build_index(pts, np.zeros(len(pts), dtype=int))
        for q in [(1.0, 1.0), (1.5, 1.5), (0.0, 3.0), (2.0, 0.5)]:
            for k in (1, 4, 9, 16):
                d, ids = knn(index, np.array(q), k)
                od, oids = brute_knn(pts, np.array(q), k)
                np.testing.assert_array_equal(ids, oids)
                np.testing.assert_allclose(d, od, rtol=0, atol=1e-12)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            build_index(np.empty((0, 2)), [])


def oracle_many(points, Q, k):
    # the criterion-4 oracle, one query at a time
    out = [brute_knn(points, q, k) for q in Q]
    return np.array([d for d, _ in out]), np.array([i for _, i in out])


def knn_datasets(rng, n, dim, m=24):
    """Point sets and m queries that stress the shortlist's error margin,
    the k-th distance bound from the nearest tiles and the tile bound
    |q - c| - r that prunes the rest."""
    grid = rng.integers(-2, 3, size=(n, dim)).astype(float)
    dup = rng.normal(size=(n // 4, dim))
    yield "gaussian", rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
    yield "grid ties", grid, rng.integers(-2, 3, (m, dim)) + rng.choice([0.0, 0.5], (m, dim))
    yield "duplicates", np.repeat(dup, 4, axis=0)[rng.permutation(n)], dup[:m] + 1e-9
    for name, shift, scale in (("offset", 1e6, 1e-3), ("huge", 0.0, 1e150), ("tiny", 0.0, 1e-160)):
        pts = shift + scale * rng.normal(size=(n, dim))
        yield name, pts, shift + scale * rng.normal(size=(m, dim))
    # stored sorted by class: each cluster is a run of the input order
    centres = 4.0 * rng.normal(size=(6, dim))
    labels = np.sort(rng.integers(0, 6, n))
    Q = centres[rng.integers(0, 6, m)] + rng.normal(size=(m, dim))
    yield "class-sorted clusters", centres[labels] + rng.normal(size=(n, dim)), Q
    # 3 points, fewer than most k, side by side in the input order
    c = rng.normal(size=dim)
    pts = rng.normal(size=(n, dim))
    pts[n // 3 : n // 3 + 3] = c + 1e-6 * rng.normal(size=(3, dim))
    yield "tight cluster in one block", pts, c + 1e-6 * rng.normal(size=(m, dim))
    # 64 close points spread evenly through the input order: k = 65 must
    # look past them
    pts = rng.normal(size=(n, dim))
    pts[np.arange(64) * n // 64] = c + 1e-3 * rng.normal(size=(64, dim))
    yield "one cluster point per block", pts, c + 1e-3 * rng.normal(size=(m, dim))
    # the learned embedding's shape: a plane inside dim-D with 1e-6 noise
    axes = np.linalg.qr(rng.normal(size=(dim, min(dim, 2))))[0]
    pts = rng.normal(size=(n, axes.shape[1])) @ axes.T + 1e-6 * rng.normal(size=(n, dim))
    Q = rng.normal(size=(m, axes.shape[1])) @ axes.T + 1e-6 * rng.normal(size=(m, dim))
    yield "plane with 1e-6 noise", pts, Q
    # queries 1e3 off the plane along a spare axis keep every tile; in 1-D
    # and 2-D that axis lies in the plane
    away = np.linalg.qr(np.c_[axes, rng.normal(size=dim)])[0][:, -1]
    yield "queries far outside every tile", pts, Q + 1e3 * away
    # dense 2-D blobs, 3 of them
    blobs = np.zeros((n, dim))
    blobs[:, : axes.shape[1]] = 0.3 * rng.normal(size=(n, axes.shape[1]))
    blobs[:, : axes.shape[1]] += 3.0 * rng.normal(size=(3, axes.shape[1]))[rng.integers(0, 3, n)]
    yield "dense 2-D blobs", blobs, blobs[rng.integers(0, n, m)] + 0.05 * rng.normal(size=(m, dim))
    # n not a multiple of the tile size, so some tiles end in padding
    yield "n - 3 points", blobs[3:], blobs[rng.integers(0, n, m)]
    # groups of 64 points 1e-163 apart and 1e-155 between groups: a tile's
    # squared radius underflows, and k = 65 reaches into a second group
    groups = 1e-155 * rng.normal(size=(-(-n // 64), dim))
    pts = groups[np.arange(n) // 64] + 1e-163 * rng.normal(size=(n, dim))
    yield "tight groups of 64 in subnormal range", pts, groups[rng.integers(0, len(groups), m)]


class TestKnnMany:
    def test_exactly_equals_oracle(self):
        """Members, order and distances equal the exhaustive oracle bit for
        bit, including offset, huge and subnormal-range coordinates, tiles
        of 25 points (n = 100) and of 31 or 32 (n = 2000), padded tiles and
        k above a tile's size."""
        rng = np.random.default_rng(2110)
        for size in (100, 2000):
            for dim in (1, 2, 3, 8, 32, 128):
                for name, pts, Q in knn_datasets(rng, size, dim):
                    n = len(pts)
                    index = build_index(pts, np.zeros(n, dtype=int))
                    oD, oI = oracle_many(pts, Q, n)  # each k's oracle is a prefix
                    for k in (1, 5, 15, 65, n):
                        D, I = knn_many(index, Q, k)
                        assert np.array_equal(I, oI[:, :k]), (name, n, dim, k)
                        assert np.array_equal(D, oD[:, :k]), (name, n, dim, k)

    def test_rows_equal_single_queries(self):
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 4, size=(300, 3)).astype(float)
        index = build_index(pts, np.zeros(300, dtype=int))
        Q = rng.integers(0, 4, size=(40, 3)) + rng.choice([0.0, 0.5], size=(40, 3))
        D, I = knn_many(index, Q, 7)
        for q, d, ids in zip(Q, D, I):
            d1, ids1 = knn(index, q, 7)
            assert np.array_equal(d, d1) and np.array_equal(ids, ids1)

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(["plane with 1e-6 noise", "dense 2-D blobs"]),
        dim=st.sampled_from([2, 3, 32]),
        k=st.sampled_from([1, 5, 40]),
        rows=st.sampled_from([1, 19, 20, 21, 41, "two chunks"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_group_and_chunk_boundaries(self, shape, dim, k, rows, seed):
        """Batches on either side of a group (20 rows, scanned as one) and
        of a chunk (524 rows, whose groups are ordered by nearest tile)
        equal single queries and the oracle bit for bit, on the learned
        embedding's shapes."""
        n = 4000  # 125 tiles of 32
        rng = np.random.default_rng(seed)
        tiles, width = -(-n // 32), 32
        step, group = _tile_plan(n, tiles, width, dim, k)[:2]
        assert (step, group) == (524, 20)
        m = step + group + 1 if rows == "two chunks" else rows
        pts, Q = next((p, q) for name, p, q in knn_datasets(rng, n, dim, m) if name == shape)
        index = build_index(pts, np.zeros(n, dtype=int))
        assert index.tile_ids.shape == (tiles, width)
        D, I = knn_many(index, Q, k)
        oD, oI = oracle_many(pts, Q, k)
        assert np.array_equal(I, oI) and np.array_equal(D, oD)
        for q, d, ids in zip(Q, D, I):
            d1, ids1 = knn(index, q, k)
            assert np.array_equal(d, d1) and np.array_equal(ids, ids1)

    def test_chunks_cover_every_row(self):
        # more queries than one byte-capped chunk holds: 157 tiles, 417 rows
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(5000, 2))
        Q = rng.normal(size=(450, 2))
        index = build_index(pts, np.zeros(5000, dtype=int))
        assert _tile_plan(5000, *index.tile_ids.shape, 2, 3)[0] == 417
        D, I = knn_many(index, Q, 3)
        oD, oI = oracle_many(pts, Q, 3)
        assert np.array_equal(I, oI) and np.array_equal(D, oD)
        Q[425, 0] = np.nan  # named by its row in Q, not in its chunk
        with pytest.raises(ValueError, match="query row 425 is not finite"):
            knn_many(index, Q, 3)

    def test_empty_batch(self):
        index = build_index(np.eye(3), [0, 1, 2])
        D, I = knn_many(index, np.empty((0, 3)), 2)
        assert D.shape == I.shape == (0, 2)

    def test_shape_checked(self):
        index = build_index(np.eye(3), [0, 1, 2])
        with pytest.raises(ValueError, match="shape"):
            knn_many(index, np.zeros((2, 2)), 1)
        with pytest.raises(ValueError, match="shape"):
            knn(index, np.zeros(2), 1)

    def test_non_finite_query_row_named(self):
        index = build_index(np.eye(3), [0, 1, 2])
        for bad in (np.nan, np.inf, -np.inf):
            Q = np.zeros((4, 3))
            Q[2, 1] = bad
            with pytest.raises(ValueError, match="query row 2 is not finite"):
                knn_many(index, Q, 1)

    def test_overflowing_query_row_named(self):
        index = build_index(np.eye(3), [0, 1, 2])
        Q = np.zeros((3, 3))
        Q[1] = 1e200
        with pytest.raises(ValueError, match="query row 1 is not finite"):
            knn_many(index, Q, 1)

    def test_bad_index_points_named(self):
        pts = np.zeros((5, 2))
        pts[3, 0] = np.nan
        with pytest.raises(ValueError, match="point row 3 is not finite"):
            build_index(pts, np.zeros(5, dtype=int))
        pts[3, 0] = 1e200
        with pytest.raises(ValueError, match="point row 3 is not finite"):
            build_index(pts, np.zeros(5, dtype=int))


class TestNearestCentroidMany:
    def test_rows_equal_single_queries(self):
        cs = build_centroids([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], [0, 1, 2], 3)
        Q = np.array([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (5.0, 5.0), (1.0, 3.0)])
        j, d = nearest_centroid_many(cs, Q)
        assert [(int(a), float(b)) for a, b in zip(j, d)] == [nearest_centroid(cs, q) for q in Q]
        assert j.tolist() == [0, 0, 0, 1, 2]

    def test_non_finite_row_named(self):
        cs = build_centroids([(0.0,), (2.0,)], [0, 1], 2)
        with pytest.raises(ValueError, match="query row 1 is not finite"):
            nearest_centroid_many(cs, np.array([[0.0], [np.nan]]))
        with pytest.raises(ValueError, match="query row 0 is not finite"):
            nearest_centroid_many(cs, np.array([[1e200], [0.0]]))


class TestSilhouette:
    def test_two_far_pairs_exact(self):
        # 1-D A={0,1}, B={10,11}: outer points have b=10.5, inner b=9.5
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = [0, 0, 1, 1]
        expected = (9.5 / 10.5 + 8.5 / 9.5) / 2.0
        np.testing.assert_allclose(silhouette(pts, labels), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            brute_silhouette(pts, labels), expected, rtol=0, atol=1e-12
        )

    def test_coincident_classes_nonpositive(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        assert silhouette(pts, [0, 0, 1, 1]) <= 0.0

    def test_singleton_class_contributes_zero(self):
        # both classes singletons: every point contributes 0
        assert silhouette(np.array([[0.0], [9.0]]), [0, 1]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            silhouette(np.array([[0.0], [1.0]]), [0, 0])

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n_class = int(rng.integers(2, 5))
            pts = rng.normal(size=(30, 3)) + 3.0 * rng.integers(0, n_class, 30)[:, None]
            labels = rng.integers(0, n_class, 30)
            if len(np.unique(labels)) < 2:
                continue
            np.testing.assert_allclose(
                silhouette(pts, labels), brute_silhouette(pts, labels), atol=1e-9
            )

    def test_range_and_relabel_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 2))
        labels = rng.integers(0, 3, 40)
        s = silhouette(pts, labels)
        assert -1.0 <= s <= 1.0
        relabeled = np.array([2, 0, 1])[labels]
        np.testing.assert_allclose(silhouette(pts, relabeled), s, rtol=0, atol=1e-12)

    def test_separated_blobs_score_high(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(25, 2)) * 0.1
        b = rng.normal(size=(25, 2)) * 0.1 + 8.0
        s = silhouette(np.vstack([a, b]), [0] * 25 + [1] * 25)
        assert s > 0.9


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_centroids(np.zeros((3, 2)), [0, 1], 2),
         r"^labels have shape \(2,\), expected \(3,\)$"),
        (lambda: nearest_centroid_many(build_centroids(np.eye(2), [0, 1], 2), np.zeros((4, 3))),
         r"^queries have shape \(4, 3\), expected \(m, 2\)$"),
        (lambda: build_index(np.zeros((3, 2)), [0, 1]),
         r"^labels have shape \(2,\), expected \(3,\)$"),
        (lambda: silhouette(np.array([[0.0], [1.0], [4.0], [5.0]]), [0.5, 0.7, 1.2, 1.9]),
         r"^label 0\.5 in row 0 is not an integer$"),
        (lambda: silhouette(np.array([[0.0], [1.0], [np.nan], [5.0]]), [0, 0, 1, 1]),
         r"^point row 2 is not finite \(nan or inf\)$"),
        (lambda: silhouette(np.array([0.0, 1.0, 4.0, 5.0]), [0, 0, 1, 1]),
         r"^points have shape \(4,\), expected \(m, dim\)$"),
    ],
    ids=["centroid labels", "centroid query width", "index labels", "silhouette float labels",
         "silhouette non-finite point", "silhouette 1-d points"],
)
def test_bad_argument_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()
