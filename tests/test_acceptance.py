"""Acceptance gate: the contractual behaviors this package must exhibit,
one test per criterion, tolerances and runtime budgets pinned inline.

Criteria:
  1  interval width law over >= 10,000 predictions, all 8 taxonomies
  2  cumulative error bounded by LEP/UEP +- 3*sqrt(n)/2, 5 seeds
  3  ECE <= 0.05 and MCE >= ECE for the distance taxonomies
  4  k-NN index == exhaustive scan, dims {2,32,128}, k {1,5,15}
  5  contrastive backprop == central finite differences, 100 instances
  6  taxonomy formulas + refinement invariants over 1000 random inputs
  7  metric hand oracles to 1e-12; silhouette vs brute force to 1e-9
  8  siamese embeddings beat raw features by >= 0.05 silhouette, 3 seeds
  9  two identical pipeline runs produce byte-identical reports
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ivenn.data import synth_gaussians
from ivenn.ivp import calibrate, predict
from ivenn.metrics import EvalBatch, cumulative, diameter, ece_mce, nll, brier
from ivenn.mlp import (
    TrainConfig,
    contrastive_gradient,
    forward_batch,
    init_params,
    train_siamese,
)
from ivenn.pipeline import RunConfig, run_pipeline
from ivenn.space import build_index, knn, silhouette
from ivenn.taxonomy import (
    BASELINE_KINDS,
    DISTANCE_KINDS,
    TaxonomyConfig,
    TaxonomyKind,
    fit_taxonomy,
)

ALL_KINDS = DISTANCE_KINDS + BASELINE_KINDS


def bayes_softmax(X, class_count, separation):
    # exact class posterior of the synthetic generator: unit-variance
    # isotropic Gaussians at (separation/sqrt(2)) * e_j, equal priors
    centers = np.zeros((class_count, X.shape[1]))
    for j in range(class_count):
        centers[j, j] = separation / np.sqrt(2.0)
    logits = -0.5 * ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


def fit_all_taxonomies(proper_X, proper_y, class_count, k=5):
    taxos = {}
    for kind in ALL_KINDS:
        cfg = TaxonomyConfig(kind=kind, class_count=class_count, k=k)
        if kind in BASELINE_KINDS:
            taxos[kind] = fit_taxonomy(cfg)
        else:
            taxos[kind] = fit_taxonomy(cfg, proper_X, proper_y)
    return taxos


def predict_set(taxonomy, table, X, softmaxes, labels):
    preds = [
        predict(
            table,
            taxonomy,
            embedding=X[i],
            softmax=None if softmaxes is None else softmaxes[i],
        )
        for i in range(len(X))
    ]
    return EvalBatch.from_intervals(
        [p.lower for p in preds], [p.upper for p in preds], labels
    )


def embed(params, x):
    # one feature vector through the network, as a batch of one
    return forward_batch(params, x[None])[0]


def three_way_split(class_count, dim, separation, seed, sizes):
    total = sum(sizes)
    per_class = -(-total // class_count)  # ceil
    ds = synth_gaussians(class_count, dim, per_class, separation, seed=seed)
    perm = np.random.default_rng((seed, 999)).permutation(len(ds))
    parts = []
    at = 0
    for size in sizes:
        sl = perm[at : at + size]
        parts.append((ds.features[sl], ds.labels[sl]))
        at += size
    return parts


def test_criterion_1_interval_width_law():
    """Every interval of every prediction has endpoints that are exactly the
    correctly rounded rationals n/(N+1) and (n+1)/(N+1), so the width law
    U - L = 1/(N+1) holds exactly in the underlying rational arithmetic
    (a float subtraction cannot express it: 1 - 2/3 != 1/3 in doubles);
    float sums obey sum(L) <= 1 <= sum(U). Budget: 30 s."""
    start = time.monotonic()
    c, dim, sep = 3, 3, 4.0
    (proper_X, proper_y), (cal_X, cal_y), (test_X, test_y) = three_way_split(
        c, dim, sep, seed=0, sizes=(500, 700, 1300)
    )
    cal_soft = bayes_softmax(cal_X, c, sep)
    test_soft = bayes_softmax(test_X, c, sep)
    taxos = fit_all_taxonomies(proper_X, proper_y, c)

    checked = 0
    for kind, tax in taxos.items():
        soft = cal_soft if kind in BASELINE_KINDS else None
        table = calibrate(tax, cal_y, embeddings=cal_X, softmaxes=soft)
        for i in range(len(test_X)):
            pred = predict(
                table,
                tax,
                embedding=test_X[i],
                softmax=test_soft[i] if kind in BASELINE_KINDS else None,
            )
            n = table.counts[pred.category]
            total = int(n.sum())
            for j in range(c):
                assert pred.lower[j] == float(Fraction(int(n[j]), total + 1))
                assert pred.upper[j] == float(Fraction(int(n[j]) + 1, total + 1))
            assert float(pred.lower.sum()) <= 1.0 <= float(pred.upper.sum())
            checked += 1
    assert checked >= 10_000
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 1 PASS: width law exact on {checked} predictions in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def calibration_runs():
    """Shared heavy pass for criteria 2 and 3: per (taxonomy, seed) test-set
    records on 3-class Gaussians, separation 4, identity embeddings,
    2000 proper / 2000 calibration / 2000 test."""
    start = time.monotonic()
    c, dim, sep = 3, 3, 4.0
    runs = {}
    for seed in range(5):
        (proper_X, proper_y), (cal_X, cal_y), (test_X, test_y) = three_way_split(
            c, dim, sep, seed=seed, sizes=(2000, 2000, 2000)
        )
        cal_soft = bayes_softmax(cal_X, c, sep)
        test_soft = bayes_softmax(test_X, c, sep)
        taxos = fit_all_taxonomies(proper_X, proper_y, c)
        for kind, tax in taxos.items():
            soft = cal_soft if kind in BASELINE_KINDS else None
            table = calibrate(tax, cal_y, embeddings=cal_X, softmaxes=soft)
            records = predict_set(
                tax,
                table,
                test_X,
                test_soft if kind in BASELINE_KINDS else None,
                test_y,
            )
            runs[(kind, seed)] = records
    return runs, time.monotonic() - start


def test_criterion_2_calibration_bound(calibration_runs):
    """Final cumulative error stays within the cumulative error-probability
    envelope widened by 3*sqrt(n)/2, for all 8 taxonomies and 5 seeds.
    Budget: 2 min for the whole shared pass."""
    runs, elapsed = calibration_runs
    n = 2000
    slack = 3.0 * np.sqrt(n) / 2.0
    for (kind, seed), records in runs.items():
        assert len(records.labels) == n
        curves = cumulative(records)
        e_n, lep_n, uep_n = curves.E[-1], curves.LEP[-1], curves.UEP[-1]
        assert lep_n - slack <= e_n <= uep_n + slack, (
            f"{kind.value} seed {seed}: E={e_n}, LEP={lep_n}, UEP={uep_n}"
        )
    assert elapsed < 120.0
    print(f"criterion 2 PASS: error bounded for 8 taxonomies x 5 seeds in {elapsed:.1f}s")


def test_criterion_3_ece_target(calibration_runs):
    """ECE <= 0.05 and MCE >= ECE for the four distance taxonomies on the
    same runs."""
    runs, _ = calibration_runs
    for kind in DISTANCE_KINDS:
        for seed in range(5):
            ece, mce, _ = ece_mce(runs[(kind, seed)], bins=10)
            assert ece <= 0.05, f"{kind.value} seed {seed}: ECE {ece:.4f}"
            assert mce >= ece
    print("criterion 3 PASS: ECE <= 0.05 for 4 distance taxonomies x 5 seeds")


def test_criterion_4_knn_oracle_equivalence():
    """k-NN index queries exactly match an exhaustive scan (members, order,
    distances) for 100 queries in dims {2,32,128} with k {1,5,15}.
    Budget: 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for dim in (2, 32, 128):
        pts = rng.normal(size=(1000, dim))
        index = build_index(pts, np.zeros(1000, dtype=int))
        d_all = None
        for _ in range(100):
            q = rng.normal(size=dim)
            d_brute = np.linalg.norm(pts - q, axis=1)
            order = np.lexsort((np.arange(1000), d_brute))
            for k in (1, 5, 15):
                d, ids = knn(index, q, k)
                np.testing.assert_array_equal(ids, order[:k])
                np.testing.assert_allclose(d, d_brute[order[:k]], rtol=0, atol=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 4 PASS: index == scan, 300 queries x 3 k values in {elapsed:.1f}s")


def test_criterion_5_gradient_correctness():
    """Analytic contrastive gradients vs central finite differences
    (step 1e-6) on 100 random (network, pair) instances with dims at most
    [6,5,4]; max relative error < 1e-5. Instances drawn onto the kinks of
    the loss (d near 0 or near the margin) are redrawn, since the loss is
    not differentiable there. Budget: 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(555)
    dims_pool = [[6, 5, 4], [4, 3, 2], [5, 4], [3, 5, 2]]
    eps = 1e-6
    worst = 0.0
    checked = 0
    while checked < 100:
        dims = dims_pool[int(rng.integers(len(dims_pool)))]
        params = init_params(dims, seed=int(rng.integers(1 << 30)))
        x1, x2 = rng.normal(size=(2, dims[0]))
        same = bool(rng.integers(2))
        margin = float(rng.uniform(0.5, 2.0))
        d = float(np.linalg.norm(embed(params, x1) - embed(params, x2)))
        if d < 0.05 or abs(d - margin) < 0.05:
            continue
        _, grad_w, grad_b = contrastive_gradient(params, x1[None], x2[None], [same], margin)

        def loss():
            # the contrastive loss, independently: the distance for a
            # same-class pair, the hinge max(0, margin - d) otherwise
            d = float(np.linalg.norm(embed(params, x1) - embed(params, x2)))
            return d if same else max(0.0, margin - d)

        num = []
        for arr in params.weights + params.biases:
            g = np.zeros_like(arr)
            for idx in np.ndindex(*arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                hi = loss()
                arr[idx] = orig - eps
                lo = loss()
                arr[idx] = orig
                g[idx] = (hi - lo) / (2.0 * eps)
            num.append(g)
        analytic = np.concatenate([g.ravel() for g in grad_w + grad_b])
        numeric = np.concatenate([g.ravel() for g in num])
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
        worst = max(worst, err)
        checked += 1
    assert worst < 1e-5, f"max relative error {worst:.2e}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 5 PASS: 100 gradient checks, worst {worst:.2e} in {elapsed:.1f}s")


def test_criterion_6_taxonomy_formula_suite():
    """Category formulas on their worked examples, default thresholds
    0.75/0.25/0.5, and the refinement invariants coarse = fine // width over
    1000 random inputs per family."""
    from ivenn.taxonomy import Taxonomy
    from ivenn.space import build_centroids

    cfg_defaults = TaxonomyConfig(kind=TaxonomyKind.BASE_V2, class_count=3)
    assert cfg_defaults.max_output_threshold == 0.75
    assert cfg_defaults.second_output_threshold == 0.25
    assert cfg_defaults.output_gap_threshold == 0.5

    def line(labels):
        pts = np.array([[float(i + 1)] for i in range(len(labels))])
        return build_index(pts, labels)

    c3 = lambda kind, **kw: TaxonomyConfig(kind=kind, class_count=3, **kw)
    q = np.zeros(1)
    assert Taxonomy(c3(TaxonomyKind.KNN_V1, k=3), index=line([1, 1, 2])).assign(q) == 1
    assert Taxonomy(c3(TaxonomyKind.KNN_V1, k=1), index=line([2, 0, 1])).assign(q) == 2
    # 2-2 vote tie, class 0 is nearer (summed distance 1+2 < 3+4)
    assert Taxonomy(c3(TaxonomyKind.KNN_V1, k=4), index=line([0, 0, 1, 1])).assign(q) == 0
    assert Taxonomy(c3(TaxonomyKind.KNN_V2, k=5), index=line([1, 1, 1, 2, 0])).assign(q) == 6
    assert Taxonomy(c3(TaxonomyKind.KNN_V2, k=5), index=line([0, 0, 0, 0, 0])).assign(q) == 0
    assert Taxonomy(c3(TaxonomyKind.KNN_V2, k=5), index=line([2, 2, 0, 1, 0])).assign(q) == 11

    cs4 = build_centroids([(0.0,), (10.0,), (20.0,), (30.0,)], [0, 1, 2, 3], 4)
    c4 = TaxonomyConfig(kind=TaxonomyKind.NC_V1, class_count=4)
    assert Taxonomy(c4, centroids=cs4).assign(np.array([30.0])) == 3
    assert Taxonomy(c4, centroids=cs4).assign(np.array([5.0])) == 0  # equidistant, lowest index

    cs = build_centroids([(0.0,), (10.0,)], [0, 1], 2)
    c2 = lambda kind, **kw: TaxonomyConfig(kind=kind, class_count=2, **kw)
    assert Taxonomy(c2(TaxonomyKind.NC_V1), centroids=cs).assign(np.array([2.0])) == 0
    assert Taxonomy(c2(TaxonomyKind.NC_V2, theta=0.5), centroids=cs).assign(np.array([10.3])) == 2
    assert Taxonomy(c2(TaxonomyKind.NC_V2, theta=0.5), centroids=cs).assign(np.array([10.7])) == 3
    assert Taxonomy(c2(TaxonomyKind.NC_V2, theta=0.5), centroids=cs).assign(np.array([0.5])) == 0

    assert Taxonomy(c3(TaxonomyKind.BASE_V1)).assign(softmax=(0.1, 0.7, 0.2)) == 1
    assert Taxonomy(c3(TaxonomyKind.BASE_V2)).assign(softmax=(0.8, 0.1, 0.1)) == 0
    assert Taxonomy(c3(TaxonomyKind.BASE_V2)).assign(softmax=(0.5, 0.3, 0.2)) == 1
    assert Taxonomy(c3(TaxonomyKind.BASE_V3)).assign(softmax=(0.7, 0.2, 0.1)) == 0
    assert Taxonomy(c3(TaxonomyKind.BASE_V3)).assign(softmax=(0.6, 0.3, 0.1)) == 1
    assert Taxonomy(c2(TaxonomyKind.BASE_V4)).assign(softmax=(0.8, 0.2)) == 0
    assert Taxonomy(c2(TaxonomyKind.BASE_V4)).assign(softmax=(0.6, 0.4)) == 1

    rng = np.random.default_rng(66)
    c, k = 3, 5
    emb = np.vstack([rng.normal(size=(50, 3)) + 3.0 * np.eye(3)[j] for j in range(c)])
    labels = np.repeat(np.arange(c), 50)
    taxos = {
        kind: fit_taxonomy(TaxonomyConfig(kind=kind, class_count=c, k=k), emb, labels)
        for kind in DISTANCE_KINDS
    }
    width = k - k // c
    for _ in range(1000):
        x = rng.normal(size=3) * 3.0
        knn1 = taxos[TaxonomyKind.KNN_V1].assign(embedding=x)
        knn2 = taxos[TaxonomyKind.KNN_V2].assign(embedding=x)
        nc1 = taxos[TaxonomyKind.NC_V1].assign(embedding=x)
        nc2 = taxos[TaxonomyKind.NC_V2].assign(embedding=x)
        assert knn2 // width == knn1
        assert nc2 // 2 == nc1
        assert 0 <= knn2 < c * width and 0 <= nc2 < 2 * c

    base_taxos = {
        kind: fit_taxonomy(TaxonomyConfig(kind=kind, class_count=4))
        for kind in BASELINE_KINDS
    }
    for _ in range(1000):
        sv = rng.dirichlet(np.ones(4) * rng.uniform(0.3, 3.0))
        top = int(np.argmax(sv))
        assert base_taxos[TaxonomyKind.BASE_V1].assign(softmax=sv) == top
        for kind in (TaxonomyKind.BASE_V2, TaxonomyKind.BASE_V3, TaxonomyKind.BASE_V4):
            assert base_taxos[kind].assign(softmax=sv) // 2 == top
    print("criterion 6 PASS: formula examples + 2000 refinement checks")


def test_criterion_7_metrics_oracles():
    """Scalar metric hand examples to 1e-12; silhouette against a direct
    O(n^2) oracle to 1e-9 on 20 random 50-point instances."""

    def wrec(lower, upper, true_label):
        return lower, upper, true_label

    def rec(means, true_label):
        # zero-width intervals: the midpoint vector is exactly `means`
        return wrec(means, means, true_label)

    def batch(records):
        lower, upper, labels = zip(*records)
        return EvalBatch.from_intervals(lower, upper, labels)

    assert abs(nll(batch([rec((0.5, 0.5), 0)])) - np.log(2.0)) < 1e-12
    assert nll(batch([rec((1.0, 0.0), 0)])) == 0.0
    assert abs(nll(batch([rec((1.0, 0.0), 1)])) + np.log(1e-12)) < 1e-12
    assert abs(brier(batch([rec((0.5, 0.5), 0)])) - 0.5) < 1e-12
    assert abs(brier(batch([rec((1 / 3, 1 / 3, 1 / 3), 2)])) - 2.0 / 3.0) < 1e-12
    assert brier(batch([rec((0.0, 1.0, 0.0), 1)])) == 0.0

    two = [wrec((0.6, 0.0), (0.8, 0.2), 0), wrec((0.3, 0.0), (0.7, 0.3), 0)]
    assert abs(diameter(batch(two)) - 0.3) < 1e-12

    one_bin = [rec((0.8, 0.2), 0)] * 3 + [rec((0.8, 0.2), 1)]
    ece, mce, _ = ece_mce(batch(one_bin), bins=10)
    assert abs(ece - 0.05) < 1e-12 and abs(mce - 0.05) < 1e-12
    two_bins = (
        [rec((0.65, 0.35), 0)] * 15
        + [rec((0.65, 0.35), 1)] * 5
        + [rec((0.85, 0.15), 0)] * 11
        + [rec((0.85, 0.15), 1)] * 9
    )
    ece, mce, _ = ece_mce(batch(two_bins), bins=10)
    assert abs(ece - 0.2) < 1e-12 and abs(mce - 0.3) < 1e-12

    rng = np.random.default_rng(77)
    for _ in range(20):
        n_class = int(rng.integers(2, 5))
        pts = rng.normal(size=(50, 4)) + 2.5 * rng.integers(0, n_class, 50)[:, None]
        labels = rng.integers(0, n_class, 50)
        while len(np.unique(labels)) < 2:
            labels = rng.integers(0, n_class, 50)

        total = 0.0
        for i in range(50):
            own = int(labels[i])
            same = [j for j in range(50) if labels[j] == own and j != i]
            if not same:
                continue
            a = float(np.mean([np.linalg.norm(pts[i] - pts[j]) for j in same]))
            b = min(
                float(np.mean([np.linalg.norm(pts[i] - pts[j]) for j in range(50) if labels[j] == cc]))
                for cc in np.unique(labels)
                if cc != own
            )
            if max(a, b) > 0:
                total += (b - a) / max(a, b)
        assert abs(silhouette(pts, labels) - total / 50.0) < 1e-9
    print("criterion 7 PASS: metric oracles to 1e-12, silhouette oracle to 1e-9")


def test_criterion_8_embedding_separation():
    """Training the twin network on overlapping 4-class blobs must raise the
    silhouette score of the data by at least 0.05 over the raw features, for
    3 seeds. Budget: 3 min."""
    start = time.monotonic()
    c, dim = 4, 8
    for seed in (0, 1, 2):
        ds = synth_gaussians(c, dim, 150, 2.5, seed=seed)
        raw = silhouette(ds.features, ds.labels)
        params = train_siamese(
            ds.features,
            ds.labels,
            [dim, 16, 2],
            TrainConfig(
                margin=3.0,
                learning_rate=0.05,
                epochs=250,
                batch_size=32,
                seed=(seed, 1),
                pairs_per_epoch=256,
            ),
        )
        emb = forward_batch(params, ds.features)
        learned = silhouette(emb, ds.labels)
        assert learned >= raw + 0.05, (
            f"seed {seed}: raw {raw:.3f}, learned {learned:.3f}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    print(f"criterion 8 PASS: embedding silhouette beats raw by >= 0.05 in {elapsed:.1f}s")


def test_latency_order_of_magnitude():
    """Measured per-prediction latency on dim-128 embeddings with a
    10k-point training index, reported for the record. The target is loose
    (same order of magnitude as single-digit milliseconds, i.e. < 66 ms
    mean), not a tuned number."""
    rng = np.random.default_rng(3)
    c = 4
    proper_X = rng.normal(size=(10_000, 128)) + 6.0 * np.eye(128)[
        rng.integers(0, c, 10_000) % 128
    ]
    proper_y = np.arange(10_000) % c
    cal_X = rng.normal(size=(400, 128))
    cal_y = rng.integers(0, c, 400)
    tax = fit_taxonomy(
        TaxonomyConfig(kind=TaxonomyKind.KNN_V1, class_count=c, k=5),
        proper_X,
        proper_y,
    )
    table = calibrate(tax, cal_y, embeddings=cal_X)
    queries = rng.normal(size=(200, 128))
    t0 = time.perf_counter()
    for q in queries:
        predict(table, tax, embedding=q)
    mean_ms = (time.perf_counter() - t0) / len(queries) * 1000.0
    assert mean_ms < 66.0, f"mean per-prediction latency {mean_ms:.2f} ms"
    print(f"latency: {mean_ms:.2f} ms mean per prediction (dim 128, 10k points)")


def test_criterion_9_end_to_end_determinism(tmp_path):
    """Two pipeline runs with identical config and seed write byte-identical
    artifacts (report, curves, predictions, table, model)."""
    ds = synth_gaussians(3, 5, 300, 3.0, seed=11)
    dirs = []
    for name in ("one", "two"):
        cfg = RunConfig(
            out_dir=str(tmp_path / name),
            taxonomy="knn_v2",
            k=5,
            embedding="siamese",
            hidden_dims=(8,),
            embedding_dim=3,
            epochs=15,
            seed=13,
        )
        run_pipeline(cfg, dataset=ds)
        dirs.append(tmp_path / name)
    for fname in ("report.txt", "curves.csv", "predictions.csv", "table.txt", "model.npz"):
        a = (dirs[0] / fname).read_bytes()
        b = (dirs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    print("criterion 9 PASS: byte-identical artifacts across reruns")
