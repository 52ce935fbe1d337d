"""Category-assignment rules for all eight taxonomies."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivenn.mlp import TrainConfig, train_siamese
from ivenn.space import build_centroids, build_index, knn_many
from ivenn.taxonomy import (
    BASELINE_KINDS,
    DISTANCE_KINDS,
    Taxonomy,
    TaxonomyConfig,
    TaxonomyKind,
    _vote,
    category_count,
    fit_taxonomy,
    resolve_theta,
)


def cfg_for(kind, c=3, **kw):
    return TaxonomyConfig(kind=kind, class_count=c, **kw)


def line_index(labels):
    # points on a line at distances 1, 2, 3, ... from the origin query
    pts = np.array([[float(i + 1)] for i in range(len(labels))])
    return build_index(pts, labels)


class TestCategoryCount:
    def test_per_kind(self):
        c, k = 3, 5
        expected = {
            TaxonomyKind.KNN_V1: c,
            TaxonomyKind.KNN_V2: c * (k - k // c),
            TaxonomyKind.NC_V1: c,
            TaxonomyKind.NC_V2: 2 * c,
            TaxonomyKind.BASE_V1: c,
            TaxonomyKind.BASE_V2: 2 * c,
            TaxonomyKind.BASE_V3: 2 * c,
            TaxonomyKind.BASE_V4: 2 * c,
        }
        for kind, count in expected.items():
            assert category_count(cfg_for(kind, c=c, k=k)) == count

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="class_count"):
            category_count(cfg_for(TaxonomyKind.KNN_V1, c=1))
        with pytest.raises(ValueError, match="k must"):
            category_count(cfg_for(TaxonomyKind.KNN_V2, k=0))


class TestKnnV1:
    def test_majority_vote(self):
        index = line_index([1, 1, 2])
        assert Taxonomy(cfg_for(TaxonomyKind.KNN_V1, k=3), index=index).assign(np.zeros(1)) == 1

    def test_k1_nearest_label(self):
        index = line_index([2, 0, 0])
        assert Taxonomy(cfg_for(TaxonomyKind.KNN_V1, k=1), index=index).assign(np.zeros(1)) == 2

    def test_vote_tie_goes_to_nearer_class(self):
        index = line_index([0, 0, 1, 1])
        cfg = cfg_for(TaxonomyKind.KNN_V1, c=2, k=4)
        assert Taxonomy(cfg, index=index).assign(np.zeros(1)) == 0


class TestKnnV2:
    def test_two_disagreements(self):
        # c=3, k=5, neighbor labels 1,1,1,2,0: predicted 1, 2 disagree -> 1*(5-1)+2
        index = line_index([1, 1, 1, 2, 0])
        assert Taxonomy(cfg_for(TaxonomyKind.KNN_V2, k=5), index=index).assign(np.zeros(1)) == 6

    def test_unanimous_is_zero(self):
        index = line_index([0, 0, 0, 0, 0])
        assert Taxonomy(cfg_for(TaxonomyKind.KNN_V2, k=5), index=index).assign(np.zeros(1)) == 0

    def test_maximal_id(self):
        # vote tie 2-2 between classes 2 and 0; class 2 nearer wins; 3 disagree
        index = line_index([2, 2, 0, 1, 0])
        assert Taxonomy(cfg_for(TaxonomyKind.KNN_V2, k=5), index=index).assign(np.zeros(1)) == 11

    def test_all_way_tie_clamps_with_warning(self):
        """c=2 with k=2 makes the category width 1; a 1-1 split vote yields a
        disagreement count equal to the width and must clamp into range."""
        index = line_index([0, 1])
        cfg = cfg_for(TaxonomyKind.KNN_V2, c=2, k=2)
        with pytest.warns(RuntimeWarning, match="clamp"):
            cat = Taxonomy(cfg, index=index).assign(np.zeros(1))
        assert 0 <= cat < category_count(cfg)


class TestNcV1:
    def setup_method(self):
        self.cs = build_centroids([(0.0, 0.0), (10.0, 0.0)], [0, 1], 2)

    def test_at_centroid(self):
        cs = build_centroids(
            [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (9.0, 9.0)], [0, 1, 2, 3], 4
        )
        cfg = cfg_for(TaxonomyKind.NC_V1, c=4)
        assert Taxonomy(cfg, centroids=cs).assign(np.array([9.0, 9.0])) == 3

    def test_nearer_centroid(self):
        cfg = cfg_for(TaxonomyKind.NC_V1, c=2)
        assert Taxonomy(cfg, centroids=self.cs).assign(np.array([2.0, 0.0])) == 0

    def test_equidistant_lowest_index(self):
        cfg = cfg_for(TaxonomyKind.NC_V1, c=2)
        assert Taxonomy(cfg, centroids=self.cs).assign(np.array([5.0, 0.0])) == 0


class TestNcV2:
    def setup_method(self):
        self.cs = build_centroids([(0.0,), (10.0,)], [0, 1], 2)

    def test_within_theta(self):
        cfg = cfg_for(TaxonomyKind.NC_V2, c=2, theta=0.5)
        assert Taxonomy(cfg, centroids=self.cs).assign(np.array([10.3])) == 2

    def test_beyond_theta(self):
        cfg = cfg_for(TaxonomyKind.NC_V2, c=2, theta=0.5)
        assert Taxonomy(cfg, centroids=self.cs).assign(np.array([10.7])) == 3

    def test_boundary_is_inclusive(self):
        cfg = cfg_for(TaxonomyKind.NC_V2, c=2, theta=0.5)
        assert Taxonomy(cfg, centroids=self.cs).assign(np.array([0.5])) == 0

    def test_unresolved_theta_rejected(self):
        cfg = cfg_for(TaxonomyKind.NC_V2, c=2)
        with pytest.raises(ValueError, match="theta"):
            Taxonomy(cfg, centroids=self.cs).assign(np.array([1.0]))


R4 = np.array([[0.0], [4.0], [10.0], [20.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        # every example was put within theta
        (lambda: Taxonomy(cfg_for(TaxonomyKind.NC_V2, c=2, theta=float("nan")),
                          centroids=build_centroids([(0.0,), (10.0,)], [0, 1], 2)),
         r"^theta must be finite, got nan$"),
        # every example was put beyond theta
        (lambda: Taxonomy(cfg_for(TaxonomyKind.NC_V2, c=2, theta=-1.0),
                          centroids=build_centroids([(0.0,), (10.0,)], [0, 1], 2)),
         r"^theta must be positive$"),
        # label 5 put its votes in another query's row: query 0, whose three
        # neighbors all carry it, came out a confident class 0
        (lambda: Taxonomy(cfg_for(TaxonomyKind.KNN_V1, c=2, k=3),
                          index=build_index(np.r_[0:3, 9:12, 19:22][:, None], [5] * 3 + [1] * 6)),
         r"^labels: row 0: label 5 outside \[0, 2\)$"),
        # a third centroid came out as category 2 of 2
        (lambda: Taxonomy(cfg_for(TaxonomyKind.NC_V1, c=2),
                          centroids=build_centroids([(0.0,), (5.0,), (10.0,)], [0, 1, 2], 3)),
         r"^nc_v1 requires one centroid per class as a \(2, dim\) array, got shape \(3, 1\)$"),
        # one row per class, but each a number: once an IndexError in assignment
        (lambda: Taxonomy(cfg_for(TaxonomyKind.NC_V1, c=2), centroids=np.array([0.0, 10.0])),
         r"^nc_v1 requires one centroid per class as a \(2, dim\) array, got shape \(2,\)$"),
        (lambda: Taxonomy(cfg_for(TaxonomyKind.NC_V2, c=2, theta=1.0)),
         r"^nc_v2 requires one centroid per class as a \(2, dim\) array, got none$"),
        # a nan centroid once reached assignment, which blamed the finite
        # query: "query row 0 is not finite"
        (lambda: Taxonomy(cfg_for(TaxonomyKind.NC_V1, c=2), centroids=np.array([[np.nan], [1.0]])),
         r"^nc_v1 centroid of class 0 is not finite \(nan or inf\)$"),
        (lambda: Taxonomy(cfg_for(TaxonomyKind.NC_V2, c=2, theta=1.0),
                          centroids=np.array([[0.0, 1.0], [2.0, -np.inf]])),
         r"^nc_v2 centroid of class 1 is not finite \(nan or inf\)$"),
        # once an AttributeError on the missing index's points
        (lambda: Taxonomy(cfg_for(TaxonomyKind.KNN_V2, c=2, k=1)), r"^knn_v2 requires a k-NN index$"),
        # a string kind no rule knows
        (lambda: Taxonomy(cfg_for("knn_v9", c=2)), r"'knn_v9' is not a valid TaxonomyKind"),
    ],
    ids=["theta nan", "theta negative", "index label outside", "centroid count", "centroids 1-D",
         "no centroids", "nan centroid", "inf centroid", "no index", "unknown kind"],
)
def test_directly_built_taxonomy_is_checked(call, message):
    # each once assigned, or failed in assignment, with no check at all
    with pytest.raises(ValueError, match=message):
        call().assign_many(embeddings=R4)


def test_string_kind_is_its_enum():
    # a string knn_v2 once fell through to 2 * c categories
    cfg = TaxonomyConfig("knn_v2", 3, k=5)
    assert cfg.kind is TaxonomyKind.KNN_V2
    assert category_count(cfg) == 12


class TestBaselines:
    def test_v1_argmax(self):
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V1)).assign(softmax=(0.1, 0.7, 0.2)) == 1

    def test_v2_max_output_split(self):
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V2)).assign(softmax=(0.8, 0.1, 0.1)) == 0
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V2)).assign(softmax=(0.5, 0.3, 0.2)) == 1

    def test_v2_threshold_inclusive(self):
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V2)).assign(softmax=(0.75, 0.15, 0.1)) == 0

    def test_v3_second_output_split(self):
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V3)).assign(softmax=(0.7, 0.2, 0.1)) == 0
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V3)).assign(softmax=(0.6, 0.3, 0.1)) == 1

    def test_v4_gap_split(self):
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V4, c=2)).assign(softmax=(0.8, 0.2)) == 0
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V4, c=2)).assign(softmax=(0.6, 0.4)) == 1

    def test_argmax_tie_lowest_index(self):
        assert Taxonomy(cfg_for(TaxonomyKind.BASE_V1)).assign(softmax=(0.4, 0.4, 0.2)) == 0

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Taxonomy(cfg_for(TaxonomyKind.BASE_V2)).assign(softmax=(0.5, 0.3, 0.1))
        with pytest.raises(ValueError, match="shape"):
            Taxonomy(cfg_for(TaxonomyKind.BASE_V2)).assign(softmax=(0.5, 0.5))

    def test_non_finite_row_named(self):
        # NaN fails every comparison, so a check written as `bad if min < 0
        # or |sum - 1| > tol` would let these through as class-0 predictions
        for kind in BASELINE_KINDS:
            tax = fit_taxonomy(cfg_for(kind))
            for bad in ((np.nan, 0.5, 0.5), (np.inf, 0.0, 0.0), (-np.inf, 1.0, 1.0)):
                scores = np.full((4, 3), 1 / 3)
                scores[2] = bad
                with pytest.raises(ValueError, match="softmax row 2 must be finite"):
                    tax.assign_many(softmaxes=scores)
                with pytest.raises(ValueError, match="softmax row 0 must be finite"):
                    tax.assign(softmax=bad)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="softmax row 1 .*nonnegative"):
            fit_taxonomy(cfg_for(TaxonomyKind.BASE_V1)).assign_many(
                softmaxes=[(0.5, 0.25, 0.25), (1.1, -0.1, 0.0)]
            )


def reference_baseline(sv, cfg):
    """Scalar statement of each softmax rule on a list of floats."""
    top_class = sv.index(max(sv))
    if cfg.kind is TaxonomyKind.BASE_V1:
        return top_class
    top, second = sorted(sv)[-1], sorted(sv)[-2]
    if cfg.kind is TaxonomyKind.BASE_V2:
        h = 0 if top >= cfg.max_output_threshold else 1
    elif cfg.kind is TaxonomyKind.BASE_V3:
        h = 0 if second <= cfg.second_output_threshold else 1
    else:
        h = 0 if top - second >= cfg.output_gap_threshold else 1
    return 2 * top_class + h


class TestBaselineBatch:
    @settings(max_examples=150, deadline=None)
    @given(
        c=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 30),
    )
    def test_batch_equals_scalar_rule(self, c, seed, m):
        # scores on a coarse grid, so ties and outputs exactly at a
        # threshold (0.75, 0.25, a 0.5 gap) are common
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 5, size=(m, c)).astype(float)
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        scores = weights / weights.sum(axis=1, keepdims=True)
        for kind in BASELINE_KINDS:
            tax = fit_taxonomy(cfg_for(kind, c=c))
            batch = tax.assign_many(softmaxes=scores)
            assert batch.dtype == np.int64 and batch.shape == (m,)
            expected = [reference_baseline(sv, tax.config) for sv in scores.tolist()]
            assert batch.tolist() == expected
            assert [tax.assign(softmax=sv) for sv in scores] == expected


class TestResolveTheta:
    def test_median_single_class(self):
        cs = build_centroids([(0.0,), (2.0,)], [0, 0], 1)
        assert resolve_theta(cs, [(0.0,), (2.0,)], [0, 0]) == 1.0

    def test_even_count_median(self):
        pts = [(0.0,), (2.0,), (7.0,), (13.0,)]
        labels = [0, 0, 1, 1]
        cs = build_centroids(pts, labels, 2)
        assert resolve_theta(cs, pts, labels) == 2.0

    def test_degenerate_falls_back_to_centroid_gap(self):
        pts = [(0.0, 0.0), (4.0, 0.0)]
        labels = [0, 1]
        cs = build_centroids(pts, labels, 2)
        assert resolve_theta(cs, pts, labels) == 2.0

    def test_fully_coincident_rejected(self):
        pts = [(1.0,), (1.0,)]
        labels = [0, 1]
        cs = build_centroids(pts, labels, 2)
        with pytest.raises(ValueError, match="coincide"):
            resolve_theta(cs, pts, labels)


class TestFitTaxonomy:
    def setup_method(self):
        rng = np.random.default_rng(61)
        self.emb = np.vstack(
            [rng.normal(size=(20, 2)) + (6.0 * c, 0.0) for c in range(3)]
        )
        self.labels = np.repeat(np.arange(3), 20)

    def test_nc_v2_resolves_theta(self):
        tax = fit_taxonomy(cfg_for(TaxonomyKind.NC_V2), self.emb, self.labels)
        assert tax.config.theta is not None and tax.config.theta > 0

    def test_explicit_theta_kept(self):
        tax = fit_taxonomy(
            cfg_for(TaxonomyKind.NC_V2, theta=0.77), self.emb, self.labels
        )
        assert tax.config.theta == 0.77

    def test_k_exceeding_data_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit_taxonomy(cfg_for(TaxonomyKind.KNN_V1, k=100), self.emb[:10], self.labels[:10])

    def test_baseline_needs_no_data(self):
        tax = fit_taxonomy(cfg_for(TaxonomyKind.BASE_V3))
        assert tax.assign(softmax=(0.9, 0.05, 0.05)) == 0

    def test_assign_input_requirements(self):
        tax = fit_taxonomy(cfg_for(TaxonomyKind.KNN_V1), self.emb, self.labels)
        with pytest.raises(ValueError, match="embedding"):
            tax.assign(softmax=(0.5, 0.3, 0.2))
        base = fit_taxonomy(cfg_for(TaxonomyKind.BASE_V1))
        with pytest.raises(ValueError, match="softmax"):
            base.assign(embedding=np.zeros(2))

    def test_distance_kinds_need_training_data(self):
        with pytest.raises(ValueError, match="proper-training"):
            fit_taxonomy(cfg_for(TaxonomyKind.NC_V1))

    def test_training_labels_follow_the_one_label_rule(self):
        # a label outside the classes once put k-NN votes in another query's
        # row (row 0 below got class 0 from zero votes) and dropped its rows
        # from every nearest-centroid mean; a fractional label was truncated
        X = np.arange(12.0)[:, None]
        outside = np.array([5, 5, 5, 1, 1, 1, 0, 0, 0, 1, 1, 1])
        for kind in (TaxonomyKind.KNN_V1, TaxonomyKind.NC_V1):
            with pytest.raises(ValueError, match=r"^labels: row 0: label 5 outside \[0, 2\)$"):
                fit_taxonomy(cfg_for(kind, c=2, k=3), X, outside)
        fraction = np.where(outside == 5, 0.5, outside)
        message = r"^label 0\.5 in row 0 is not an integer$"
        for kind in DISTANCE_KINDS:
            with pytest.raises(ValueError, match=message):
                fit_taxonomy(cfg_for(kind, c=2, k=3), X, fraction)
        with pytest.raises(ValueError, match=message):
            train_siamese(X, fraction, [1, 2], TrainConfig(epochs=1))


class TestRefinementInvariants:
    def test_distance_kinds_random_sweep(self):
        rng = np.random.default_rng(67)
        c, k = 3, 5
        emb = np.vstack([rng.normal(size=(30, 2)) + (4.0 * j, 0.0) for j in range(c)])
        labels = np.repeat(np.arange(c), 30)
        taxos = {
            kind: fit_taxonomy(cfg_for(kind, c=c, k=k), emb, labels)
            for kind in DISTANCE_KINDS
        }
        width = k - k // c
        for _ in range(200):
            q = rng.normal(size=2) * 4.0 + (4.0, 0.0)
            cats = {kind: tax.assign(embedding=q) for kind, tax in taxos.items()}
            for kind, cat in cats.items():
                assert 0 <= cat < taxos[kind].category_count
            assert cats[TaxonomyKind.KNN_V2] // width == cats[TaxonomyKind.KNN_V1]
            assert cats[TaxonomyKind.NC_V2] // 2 == cats[TaxonomyKind.NC_V1]

    def test_baseline_kinds_random_sweep(self):
        rng = np.random.default_rng(71)
        c = 4
        taxos = {kind: fit_taxonomy(cfg_for(kind, c=c)) for kind in BASELINE_KINDS}
        for _ in range(200):
            sv = rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0))
            cats = {kind: tax.assign(softmax=sv) for kind, tax in taxos.items()}
            top = int(np.argmax(sv))
            assert cats[TaxonomyKind.BASE_V1] == top
            for kind in (TaxonomyKind.BASE_V2, TaxonomyKind.BASE_V3, TaxonomyKind.BASE_V4):
                assert 0 <= cats[kind] < 2 * c
                assert cats[kind] // 2 == top


def reference_knn(tax, q):
    """(class, disagreement) of the plain k-NN rule over an exhaustive scan:
    the majority class of the k nearest points (by distance, then insertion
    order), votes tied on their distances summed in neighbor order, then
    the lowest class; the disagreement counts neighbors of another class."""
    cfg = tax.config
    pts = tax.index.points
    d = np.linalg.norm(pts - q, axis=1)
    near = sorted(range(len(pts)), key=lambda i: (d[i], i))[: cfg.k]
    labels = [int(tax.index.labels[i]) for i in near]
    votes = [labels.count(j) for j in range(cfg.class_count)]
    sums = [0.0] * cfg.class_count
    for i, label in zip(near, labels):
        sums[label] += float(d[i])
    yhat = min(
        (j for j in range(cfg.class_count) if votes[j] == max(votes)),
        key=lambda j: (sums[j], j),
    )
    return yhat, sum(label != yhat for label in labels)


def reference_category(tax, q):
    """Scalar statement of each distance rule: plain loops over an
    exhaustive scan, votes tied on summed distance, then lowest class."""
    cfg = tax.config
    c = cfg.class_count
    if cfg.kind in (TaxonomyKind.NC_V1, TaxonomyKind.NC_V2):
        d = [float(np.linalg.norm(centroid - q)) for centroid in tax.centroids]
        j = d.index(min(d))
        if cfg.kind is TaxonomyKind.NC_V1:
            return j
        return 2 * j + (0 if d[j] <= cfg.theta else 1)
    yhat, disagree = reference_knn(tax, q)
    if cfg.kind is TaxonomyKind.KNN_V1:
        return yhat
    width = cfg.k - cfg.k // c
    return yhat * width + min(disagree, width - 1)


def reference_vote(dists, labels, c):
    """(class, votes) of one row of neighbors by plain loops: most votes,
    then the smallest distance sum in neighbor order, then the lowest
    class."""
    votes = [0] * c
    sums = [0.0] * c
    for d, label in zip(dists, labels):
        votes[label] += 1
        sums[label] += d
    return min(range(c), key=lambda j: (-votes[j], sums[j], j)), votes


class TestVote:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), c=st.integers(2, 5), k=st.integers(1, 9), m=st.integers(0, 6))
    def test_matches_reference(self, data, c, k, m):
        # distances from a few values, 0.1 + 0.2 != 0.3 among them, and rows
        # whose labels cycle through t classes, a forced vote tie when t
        # divides k
        dists, labels = [], []
        for _ in range(m):
            row = data.draw(st.lists(
                st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0]), min_size=k, max_size=k
            ))
            dists.append(sorted(row))
            if data.draw(st.booleans()):
                t = data.draw(st.integers(1, c))
                labels.append(data.draw(st.permutations([j % t for j in range(k)])))
            else:
                labels.append(data.draw(st.lists(st.integers(0, c - 1), min_size=k, max_size=k)))
        D = np.array(dists, dtype=float).reshape(m, k)
        L = np.array(labels, dtype=np.int64).reshape(m, k)
        yhat, votes = _vote(D, L, c)
        expected = [reference_vote(d, row, c) for d, row in zip(dists, labels)]
        assert yhat.tolist() == [j for j, _ in expected]
        assert votes.tolist() == [v for _, v in expected]


class TestKnnBatch:
    @settings(max_examples=100, deadline=None)
    @given(
        c=st.integers(2, 4),
        k=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 25),
    )
    def test_batch_equals_reference_rule(self, c, k, seed, m):
        # points and queries on a coarse integer grid, so distance, vote and
        # summed-distance ties are common; k a multiple of c allows all-way
        # vote ties, which knn_v2 clamps with one warning per row
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 41))
        emb = rng.integers(0, 4, size=(n, 2)).astype(float)
        labels = rng.integers(0, c, n)
        queries = rng.integers(0, 4, size=(m, 2)) + rng.choice([0.0, 0.5], size=(m, 2))
        width = k - k // c
        for kind in (TaxonomyKind.KNN_V1, TaxonomyKind.KNN_V2):
            tax = fit_taxonomy(cfg_for(kind, c=c, k=k), emb, labels)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                batch = tax.assign_many(embeddings=queries)
            assert batch.dtype == np.int64 and batch.shape == (m,)
            expected = [reference_category(tax, q) for q in queries]
            assert batch.tolist() == expected
            clamped = [] if kind is TaxonomyKind.KNN_V1 else [
                disagree for _, disagree in (reference_knn(tax, q) for q in queries)
                if disagree >= width
            ]
            assert [str(w.message) for w in caught] == [
                f"k-NN V2 disagreement count {count} reached the category width "
                f"{width}; clamping (all-way vote tie)"
                for count in clamped
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert [tax.assign(embedding=q) for q in queries] == expected


class TestAssignMany:
    def tie_heavy(self, rng, c):
        # integer grid embeddings and queries on and between grid points
        emb = rng.integers(0, 4, size=(120, 2)).astype(float)
        labels = rng.integers(0, c, 120)
        queries = rng.integers(0, 4, size=(150, 2)) + rng.choice([0.0, 0.5], size=(150, 2))
        return emb, labels, queries

    def test_batch_equals_per_row(self):
        rng = np.random.default_rng(73)
        for c, k in ((2, 2), (3, 5), (4, 8)):
            emb, labels, queries = self.tie_heavy(rng, c)
            for kind in DISTANCE_KINDS:
                tax = fit_taxonomy(cfg_for(kind, c=c, k=k), emb, labels)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    batch = tax.assign_many(embeddings=queries)
                    rows = [tax.assign(embedding=q) for q in queries]
                assert batch.dtype == np.int64
                assert batch.tolist() == rows, (kind, c, k)
                assert rows == [reference_category(tax, q) for q in queries], (kind, c, k)

    def test_knn_v2_one_warning_per_clamped_row(self):
        # c=2, k=2: the category width is 1, so every 1-1 vote clamps
        rng = np.random.default_rng(79)
        emb, labels, queries = self.tie_heavy(rng, 2)
        tax = fit_taxonomy(cfg_for(TaxonomyKind.KNN_V2, c=2, k=2), emb, labels)
        _, ids = knn_many(tax.index, queries, 2)
        neighbor_labels = tax.index.labels[ids]
        clamped = int((neighbor_labels[:, 0] != neighbor_labels[:, 1]).sum())
        assert clamped > 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            cats = tax.assign_many(embeddings=queries)
        messages = [str(w.message) for w in caught]
        assert len(messages) == clamped
        assert all(
            m == "k-NN V2 disagreement count 1 reached the category width 1; "
            "clamping (all-way vote tie)"
            for m in messages
        )
        assert np.all((0 <= cats) & (cats < tax.category_count))

    def test_empty_batch(self):
        rng = np.random.default_rng(83)
        emb, labels, _ = self.tie_heavy(rng, 3)
        for kind in DISTANCE_KINDS:
            tax = fit_taxonomy(cfg_for(kind), emb, labels)
            assert tax.assign_many(embeddings=np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fit_taxonomy(cfg_for(TaxonomyKind.NC_V1, c=2), np.eye(2), [0, 1]).assign(
            embedding=np.zeros((1, 2))), r"^embedding has shape \(1, 2\), expected one vector$"),
        (lambda: fit_taxonomy(cfg_for(TaxonomyKind.BASE_V1, c=2)).assign(softmax=0.5),
         r"^softmax has shape \(\), expected one vector$"),
        (lambda: resolve_theta(build_centroids(np.eye(2), [0, 1], 2), np.zeros((0, 2)), []),
         r"^cannot resolve theta from an empty training set$"),
        (lambda: resolve_theta(build_centroids(np.eye(2), [0, 1], 2), np.zeros((2, 2)), [0, 5]),
         r"^labels: row 1: label 5 outside \[0, 2\)$"),
        (lambda: resolve_theta(build_centroids(np.eye(2), [0, 1], 2),
                               np.array([[0.0, 0.0], [np.nan, 1.0]]), [0, 1]),
         r"^point row 1 is not finite \(nan or inf\)$"),
        # a (2, 1) batch would broadcast against the (2, 2) centroids
        (lambda: resolve_theta(build_centroids(np.eye(2), [0, 1], 2), np.zeros((2, 1)), [0, 1]),
         r"^points have shape \(2, 1\), expected \(m, 2\)$"),
    ],
    ids=["embedding matrix", "softmax scalar", "theta from no points", "theta label",
         "theta non-finite point", "theta point width"],
)
def test_bad_argument_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()
