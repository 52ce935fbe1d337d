"""Twin-network forward pass, contrastive loss and gradients, training."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ivenn
from ivenn.mlp import (
    CLASSIFIER,
    EMBEDDING,
    MlpParams,
    TrainConfig,
    contrastive_gradient,
    forward_batch,
    init_params,
    load_params,
    save_params,
    train_classifier,
    train_siamese,
)
from ivenn.mlp import _PairSampler, _Workspace


def embed_one(params, x):
    # one feature vector through the network, as a batch of one
    return forward_batch(params, np.asarray(x, dtype=float)[None])[0]


def contrastive_loss(r1, r2, same_class, margin):
    """The loss oracle: a same-class pair is charged the distance of its
    embeddings, a different-class pair the hinge max(0, margin - distance)."""
    d = float(np.linalg.norm(np.asarray(r1, dtype=float) - np.asarray(r2, dtype=float)))
    return d if same_class else max(0.0, margin - d)


def pair_gradient(params, x1, x2, same, margin):
    # the gradients of one pair's loss, a batch of one
    _, grad_w, grad_b = contrastive_gradient(params, [x1], [x2], [same], margin)
    return grad_w, grad_b


def pair_loss(r1, r2, same, margin):
    # the library's loss of one pair of embeddings, through an identity network
    dim = len(r1)
    identity = MlpParams([dim, dim], [np.eye(dim)], [np.zeros(dim)], EMBEDDING)
    return contrastive_gradient(identity, [r1], [r2], [same], margin)[0]


def fd_gradients(params, x1, x2, same, margin, eps=1e-6):
    # central finite differences over every scalar parameter
    def loss():
        return contrastive_loss(embed_one(params, x1), embed_one(params, x2), same, margin)

    grads = []
    for arrs in (params.weights, params.biases):
        out = []
        for arr in arrs:
            g = np.zeros_like(arr)
            for idx in np.ndindex(*arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                hi = loss()
                arr[idx] = orig - eps
                lo = loss()
                arr[idx] = orig
                g[idx] = (hi - lo) / (2.0 * eps)
            out.append(g)
        grads.append(out)
    return grads


def rel_error(analytic, numeric):
    a = np.concatenate([g.ravel() for g in analytic[0] + analytic[1]])
    n = np.concatenate([g.ravel() for g in numeric[0] + numeric[1]])
    return np.abs(a - n).max() / max(1.0, np.abs(n).max())


class TestForward:
    def test_all_zero_network(self):
        p = init_params([3, 2], seed=0)
        for W in p.weights:
            W[:] = 0.0
        for b in p.biases:
            b[:] = 0.0
        np.testing.assert_array_equal(embed_one(p, (1.0, -2.0, 3.0)), np.zeros(2))

    def test_identity_single_layer(self):
        p = MlpParams(
            layer_dims=[3, 3], weights=[np.eye(3)], biases=[np.zeros(3)], mode=EMBEDDING
        )
        np.testing.assert_array_equal(embed_one(p, (1.0, 2.0, 3.0)), (1.0, 2.0, 3.0))

    def test_botnet_scale_dims(self):
        p = init_params([115, 10, 32], seed=1)
        out = embed_one(p, np.zeros(115))
        assert out.shape == (32,)

    def test_classifier_outputs_are_distributions(self):
        p = init_params([4, 6, 3], mode=CLASSIFIER, seed=2)
        X = np.random.default_rng(3).normal(size=(50, 4))
        out = forward_batch(p, X)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_shape_errors(self):
        p = init_params([3, 2], seed=0)
        with pytest.raises(ValueError, match="shape"):
            forward_batch(p, (1.0, 2.0))
        with pytest.raises(ValueError, match="shape"):
            forward_batch(p, np.zeros((4, 5)))


class TestInit:
    def test_deterministic_and_bounded(self):
        a = init_params([5, 4, 3], seed=42)
        b = init_params([5, 4, 3], seed=42)
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)
        for (fan_in, _), W in zip(zip(a.layer_dims, a.layer_dims[1:]), a.weights):
            assert np.abs(W).max() <= 1.0 / np.sqrt(fan_in)

    def test_shapes_chain(self):
        p = init_params([7, 5, 2], seed=0)
        assert [W.shape for W in p.weights] == [(5, 7), (2, 5)]
        assert [b.shape for b in p.biases] == [(5,), (2,)]

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_params([4], seed=0)
        with pytest.raises(ValueError):
            init_params([4, 0], seed=0)


class TestContrastiveLoss:
    def test_identical_same_class_is_zero(self):
        r = np.array([1.0, 2.0])
        assert pair_loss(r, r, True, 1.0) == 0.0

    def test_dissimilar_beyond_margin_is_zero(self):
        assert pair_loss((0.0,), (1.5,), False, 1.0) == 0.0

    def test_dissimilar_inside_margin(self):
        np.testing.assert_allclose(pair_loss((0.0,), (0.4,), False, 1.0), 0.6)

    def test_similar_pays_distance(self):
        assert pair_loss((0.0,), (2.0,), True, 1.0) == 2.0

    def test_properties_random(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            r1, r2 = rng.normal(size=(2, 3))
            m = float(rng.uniform(0.2, 3.0))
            d = float(np.linalg.norm(r1 - r2))
            same = pair_loss(r1, r2, True, m)
            diff = pair_loss(r1, r2, False, m)
            assert same >= 0.0 and diff >= 0.0
            if d > 0:
                assert same > 0.0
            if d >= m:
                assert diff == 0.0

    def test_errors(self):
        identity = MlpParams([1, 1], [np.eye(1)], [np.zeros(1)], EMBEDDING)
        with pytest.raises(ValueError, match="X2 have shape"):
            contrastive_gradient(identity, [(1.0,)], [(1.0, 2.0)], [True], 1.0)
        with pytest.raises(ValueError, match="margin"):
            pair_loss((1.0,), (2.0,), True, 0.0)


class TestLossGradient:
    def test_identical_same_class_inputs_zero_gradient(self):
        p = init_params([3, 4, 2], seed=5)
        x = np.array([0.3, -0.7, 1.1])
        gw, gb = pair_gradient(p, x, x.copy(), True, 1.0)
        for g in gw + gb:
            np.testing.assert_array_equal(g, 0.0)

    def test_dissimilar_beyond_margin_zero_gradient(self):
        p = init_params([2, 3, 2], seed=6)
        gw, gb = pair_gradient(p, np.array([50.0, 0.0]), np.array([-50.0, 0.0]), False, 1.0)
        for g in gw + gb:
            np.testing.assert_array_equal(g, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 20:
            p = init_params([4, 3, 2], seed=int(rng.integers(1 << 30)))
            x1, x2 = rng.normal(size=(2, 4))
            same = bool(rng.integers(2))
            margin = float(rng.uniform(0.5, 2.0))
            d = float(np.linalg.norm(embed_one(p, x1) - embed_one(p, x2)))
            # the loss has kinks at d=0 and d=margin; FD is meaningless there
            if d < 0.05 or abs(d - margin) < 0.05:
                continue
            analytic = pair_gradient(p, x1, x2, same, margin)
            numeric = fd_gradients(p, x1, x2, same, margin)
            assert rel_error(analytic, numeric) < 1e-5
            checked += 1

    def test_classifier_mode_rejected(self):
        p = init_params([2, 2], mode=CLASSIFIER, seed=0)
        with pytest.raises(ValueError, match="embedding"):
            pair_gradient(p, np.zeros(2), np.ones(2), True, 1.0)


def two_pass_reference(params, X1, X2, same, margin):
    """Contrastive batch loss and gradients with one trace and one backprop
    per twin, tanh' recomputed from the pre-activations, summed per layer."""
    last = len(params.weights) - 1

    def trace(X):
        zs, acts = [], [X]
        for l, (W, b) in enumerate(zip(params.weights, params.biases)):
            zs.append(acts[-1] @ W.T + b)
            acts.append(np.tanh(zs[-1]) if l < last else zs[-1])
        return zs, acts

    def backprop(zs, acts, delta):
        gw, gb = [None] * (last + 1), [None] * (last + 1)
        for l in range(last, -1, -1):
            gw[l] = delta.T @ acts[l]
            gb[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ params.weights[l]) * (1.0 - np.tanh(zs[l - 1]) ** 2)
        return gw, gb

    zs1, acts1 = trace(X1)
    zs2, acts2 = trace(X2)
    diff = acts1[-1] - acts2[-1]
    d = np.linalg.norm(diff, axis=1)
    loss = float(np.where(same, d, np.maximum(0.0, margin - d)).mean())
    coef = np.where(same, 1.0, np.where(d < margin, -1.0, 0.0))
    coef = np.where(d > 0.0, coef, 0.0)
    g = (coef / np.where(d > 0.0, d, 1.0) / len(X1))[:, None] * diff
    gw1, gb1 = backprop(zs1, acts1, g)
    gw2, gb2 = backprop(zs2, acts2, -g)
    return loss, [a + b for a, b in zip(gw1, gw2)], [a + b for a, b in zip(gb1, gb2)]


class TestStackedTwinPass:
    @pytest.mark.parametrize("dims", [[4, 3], [5, 7, 3], [6, 8, 5, 2]])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_matches_two_pass_reference(self, dims, batch):
        rng = np.random.default_rng(batch * 100 + len(dims))
        params = init_params(dims, seed=int(rng.integers(1 << 30)))
        X1, X2 = rng.normal(size=(2, batch, dims[0]))
        X2[0] = X1[0]  # a coincident pair takes the zero subgradient
        same = rng.integers(2, size=batch).astype(bool)
        loss, gw, gb = contrastive_gradient(params, X1, X2, same, 1.5)
        ref_loss, ref_gw, ref_gb = two_pass_reference(params, X1, X2, same, 1.5)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        # relative to the largest reference entry: the output bias gradient
        # is exactly 0 in the reference (the twins cancel) but may carry a
        # rounding residue when summed over the stacked rows
        scale = max(np.abs(ref).max() for ref in ref_gw + ref_gb)
        for got, ref in zip(gw + gb, ref_gw + ref_gb):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * scale


def reference_output_delta(diff, same, margin):
    """The output delta [g; -g] of two_pass_reference and reference_siamese,
    from the embedding differences of a batch of pairs."""
    d = np.linalg.norm(diff, axis=1)
    coef = np.where(same, 1.0, np.where(d < margin, -1.0, 0.0))
    coef = np.where(d > 0.0, coef, 0.0)
    g = (coef / np.where(d > 0.0, d, 1.0) / len(diff))[:, None] * diff
    return np.concatenate([g, -g])


# pairs of 2-D embeddings, their flags, and whether dLoss/dd is 0; the
# first is placed at the margin
BOUNDARY_PAIRS = [
    ((1.25, -0.5), (1.55, -0.1), False, True),  # d == margin counts as beyond it
    ((0.7, 2.0), (0.7, 2.0), True, True),  # coincident similar
    ((-1.5, 0.25), (-1.5, 0.25), False, True),  # coincident dissimilar
    ((2e-170, 3e-170), (1e-170, 2e-170), False, True),  # d underflows to 0, diff does not
    ((2e-170, 3e-170), (1e-170, 2e-170), True, True),
    ((0.5, 0.5), (3.5, 0.5), False, True),  # beyond the margin
    ((0.5, 0.5), (0.6, 0.4), False, False),  # inside it
    ((-0.5, 1.5), (0.25, 1.0), True, False),
    ((1e200, 1e200), (-1e200, -1e200), True, True),  # d overflows to inf
    ((1e200, 1e200), (-1e200, -1e200), False, True),
    ((0.3, -0.2), (0.1, 0.0), False, False),
    ((0.3, -0.2), (0.1, 0.0), True, False),
]


class TestHeadBoundaries:
    # a linear network whose inputs are unit vectors, one per row: row r's
    # embedding is column r of W, and column r of the weight gradient is row
    # r's output delta, so the head is read through contrastive_gradient
    @pytest.mark.parametrize("order", ["listed", "reversed", "shuffled"])
    def test_matches_reference_formula_bit_for_bit(self, order):
        pairs = list(BOUNDARY_PAIRS)
        if order == "reversed":
            pairs.reverse()
        elif order == "shuffled":
            pairs = [pairs[i] for i in np.random.default_rng(29).permutation(len(pairs))]
        z1, z2, same, zero = (np.array(col) for col in zip(*pairs))
        n = len(pairs)
        assert np.count_nonzero(same[1:] != same[:-1]) + 1 >= 5  # runs of equal flags
        params = MlpParams([2 * n, 2], [np.concatenate([z1, z2]).T], [np.zeros(2)], EMBEDDING)
        X1, X2 = np.eye(2 * n)[:n], np.eye(2 * n)[n:]
        with np.errstate(over="ignore", under="ignore"):
            margin = np.linalg.norm(z1 - z2, axis=1)[pairs.index(BOUNDARY_PAIRS[0])]
            loss, gw, _ = contrastive_gradient(params, X1, X2, same, margin)
            ref_loss, ref_gw, _ = two_pass_reference(params, X1, X2, same, margin)
            delta = reference_output_delta(z1 - z2, same, margin)
            # the head's own output delta, signs of zeros included
            ws = _Workspace(params, 2 * n)
            (step,), _ = ws.twin_steps(with_ones(np.eye(2 * n)), same, [(0, n)], margin)
            for f, args in step:
                f(*args)
        assert ws.deltas[-1].tobytes() == delta.tobytes()
        assert loss == ref_loss
        # a gradient column sums one delta with zeros of either sign, so
        # adding 0.0 makes each -0 a +0 before the bits are compared
        assert (gw[0] + 0.0).tobytes() == (ref_gw[0] + 0.0).tobytes()
        assert (gw[0].T + 0.0).tobytes() == (delta + 0.0).tobytes()
        assert not delta[np.r_[zero, zero]].any() and delta[~np.r_[zero, zero]].all()


@st.composite
def label_arrays(draw):
    # 2-6 classes with arbitrary non-contiguous ids, singletons allowed, at
    # least one class with 2 members, shuffled
    classes = draw(st.lists(st.integers(0, 50), min_size=2, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(classes), max_size=len(classes)))
    assume(max(sizes) >= 2)
    labels = np.repeat(np.array(classes), sizes)
    return labels[draw(st.permutations(range(len(labels))))]


class TestPairSampler:
    @settings(max_examples=200, deadline=None)
    @given(
        labels=label_arrays(),
        seed=st.integers(0, 2**32 - 1),
        n_same=st.integers(0, 40),
        n_diff=st.integers(0, 40),
    )
    def test_pairs_valid_and_deterministic(self, labels, seed, n_same, n_diff):
        sampler = _PairSampler(labels)
        # anchors, then partners, as train_siamese lays them out
        pairs = sampler.pairs(np.random.default_rng(seed), n_same, n_diff)
        i1, i2 = np.concatenate(pairs).reshape(2, -1)
        same = _PairSampler.layout(n_same, n_diff)
        assert same.tolist() == [True] * n_same + [False] * n_diff
        assert i1.min(initial=0) >= 0 and i1.max(initial=0) < len(labels)
        assert i2.min(initial=0) >= 0 and i2.max(initial=0) < len(labels)
        s, d = slice(None, n_same), slice(n_same, None)
        assert np.all(i1[s] != i2[s])
        assert np.all(labels[i1[s]] == labels[i2[s]])
        assert np.all(labels[i1[d]] != labels[i2[d]])
        again = sampler.pairs(np.random.default_rng(seed), n_same, n_diff)
        for a, b in zip(pairs, again):
            np.testing.assert_array_equal(a, b)

    def test_exact_pair_counts(self):
        # classes 5, 2, 9 have 4, 3, 4 members; class 7 is a singleton
        labels = np.array([5, 2, 9, 5, 9, 5, 2, 9, 5, 9, 2, 7])
        size = {c: int((labels == c).sum()) for c in labels}
        n, draws = len(labels), 400_000
        drawn = _PairSampler(labels).pairs(np.random.default_rng(0), draws, draws)
        i1, i2 = np.concatenate(drawn).reshape(2, -1)
        same_pool = sum(1 for c in labels if size[c] >= 2)
        for sl, want_same in ((slice(None, draws), True), (slice(draws, None), False)):
            pairs, counts = np.unique(
                np.stack([i1[sl], i2[sl]], axis=1), axis=0, return_counts=True
            )
            expected = {}
            for i in range(n):
                for j in range(n):
                    if i == j or (labels[i] == labels[j]) != want_same:
                        continue
                    if want_same:
                        p = 1.0 / same_pool / (size[labels[i]] - 1)
                    else:
                        p = 1.0 / n / (n - size[labels[i]])
                    expected[(i, j)] = p * draws
            assert {tuple(map(int, p)) for p in pairs} == set(expected)
            ratio = [c / expected[tuple(map(int, p))] for p, c in zip(pairs, counts)]
            assert max(abs(r - 1.0) for r in ratio) < 0.1


def two_blob_data(rng, n=120, gap=6.0):
    x0 = rng.normal(size=(n // 2, 2)) + (-gap / 2, 0.0)
    x1 = rng.normal(size=(n // 2, 2)) + (gap / 2, 0.0)
    X = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    perm = rng.permutation(n)
    return X[perm], y[perm]


class TestTrainSiamese:
    def test_zero_epochs_returns_initialization(self):
        rng = np.random.default_rng(31)
        X, y = two_blob_data(rng)
        cfg = TrainConfig(epochs=0, seed=9)
        trained = train_siamese(X, y, [2, 8, 2], cfg)
        init = init_params([2, 8, 2], EMBEDDING, 9)
        for a, b in zip(trained.weights + trained.biases, init.weights + init.biases):
            np.testing.assert_array_equal(a, b)

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        X, y = two_blob_data(rng, n=60)
        cfg = TrainConfig(epochs=5, seed=4, pairs_per_epoch=64)
        a = train_siamese(X, y, [2, 4, 2], cfg)
        b = train_siamese(X, y, [2, 4, 2], cfg)
        for Wa, Wb in zip(a.weights + a.biases, b.weights + b.biases):
            np.testing.assert_array_equal(Wa, Wb)

    def test_separates_two_gaussians(self):
        rng = np.random.default_rng(41)
        X, y = two_blob_data(rng, n=160)
        cfg = TrainConfig(margin=2.0, epochs=200, seed=1, pairs_per_epoch=128)
        params = train_siamese(X, y, [2, 8, 2], cfg)
        init = init_params([2, 8, 2], EMBEDDING, 1)

        Xh, yh = two_blob_data(np.random.default_rng(43), n=100)
        emb = forward_batch(params, Xh)
        d = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=2)
        same_mask = yh[:, None] == yh[None, :]
        iu = np.triu_indices(len(Xh), 1)
        mean_same = d[iu][same_mask[iu]].mean()
        mean_cross = d[iu][~same_mask[iu]].mean()
        assert mean_same < mean_cross

        def mean_loss(p):
            e = forward_batch(p, Xh)
            total = 0.0
            for i, j in zip(*iu):
                total += contrastive_loss(e[i], e[j], bool(same_mask[i, j]), cfg.margin)
            return total / len(iu[0])

        assert mean_loss(params) < mean_loss(init)

    def test_divergence_names_epoch(self):
        X, y = two_blob_data(np.random.default_rng(61), n=40)
        cfg = TrainConfig(learning_rate=1e305, epochs=5, pairs_per_epoch=32)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="diverged at epoch 1: non-finite"):
                train_siamese(X * 1e6, y, [2, 2], cfg)

    def test_saturation_raises(self):
        # every tanh unit pinned at exactly +-1 leaves finite weights and a
        # collapsed embedding; it must fail like divergence does
        X, y = two_blob_data(np.random.default_rng(61), n=40)
        cfg = TrainConfig(learning_rate=1e300, epochs=5, pairs_per_epoch=32)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="saturated: every unit of hidden layer 1"):
                train_siamese(X, y, [2, 4, 2], cfg)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="2 classes"):
            train_siamese(X, np.zeros(10, dtype=int), [2, 2], TrainConfig(epochs=1))

    def test_all_singleton_classes_rejected(self):
        X = np.random.default_rng(0).normal(size=(3, 2))
        with pytest.raises(ValueError, match="similar pairs"):
            train_siamese(X, np.array([0, 1, 2]), [2, 2], TrainConfig(epochs=1))


class TestTrainClassifier:
    def test_zero_epochs_returns_initialization(self):
        X = np.linspace(-1, 1, 20)[:, None]
        y = (X[:, 0] > 0).astype(int)
        trained = train_classifier(X, y, [1, 4, 2], TrainConfig(epochs=0, seed=3))
        init = init_params([1, 4, 2], CLASSIFIER, 3)
        for a, b in zip(trained.weights + trained.biases, init.weights + init.biases):
            np.testing.assert_array_equal(a, b)

    def test_separable_1d_accuracy(self):
        rng = np.random.default_rng(47)
        X = np.concatenate([rng.normal(-3, 0.5, 60), rng.normal(3, 0.5, 60)])[:, None]
        y = np.array([0] * 60 + [1] * 60)
        params = train_classifier(
            X, y, [1, 6, 2], TrainConfig(learning_rate=0.2, epochs=80, seed=2)
        )
        pred = forward_batch(params, X).argmax(axis=1)
        assert (pred == y).mean() >= 0.95

    def test_outputs_remain_distributions(self):
        rng = np.random.default_rng(53)
        X, y = two_blob_data(rng, n=40)
        params = train_classifier(X, y, [2, 5, 2], TrainConfig(epochs=10, seed=0))
        out = forward_batch(params, rng.normal(size=(30, 2)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_divergence_names_epoch(self):
        X, y = two_blob_data(np.random.default_rng(67), n=40)
        cfg = TrainConfig(learning_rate=1e305, epochs=5)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="diverged at epoch 1: non-finite"):
                train_classifier(X * 1e6, y, [2, 2], cfg)

    def test_saturation_raises(self):
        X, y = two_blob_data(np.random.default_rng(67), n=40)
        cfg = TrainConfig(learning_rate=1e300, epochs=5)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="saturated: every unit of hidden layer 1"):
                train_classifier(X, y, [2, 4, 2], cfg)

    def test_label_out_of_range(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="labels"):
            train_classifier(X, np.array([0, 1, 2, 3]), [2, 3], TrainConfig(epochs=1))


def npy_bytes(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


class TestPersistence:
    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from([EMBEDDING, CLASSIFIER]),
        layer_dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),  # depths 1-3
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bit_exact(self, tmp_path_factory, mode, layer_dims, seed):
        # random bytes reach every float64 pattern: NaN payloads, -0.0, subnormals
        rng = np.random.default_rng(seed)

        def bits(*shape):
            raw = rng.bytes(8 * int(np.prod(shape)))
            return np.frombuffer(raw, dtype=np.float64).reshape(shape)

        shapes = list(zip(layer_dims[1:], layer_dims))
        params = MlpParams(
            layer_dims=layer_dims,
            weights=[bits(fan_out, fan_in) for fan_out, fan_in in shapes],
            biases=[bits(fan_out) for fan_out, _ in shapes],
            mode=mode,
        )
        path = tmp_path_factory.mktemp("params") / "model.npz"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.mode == mode
        assert loaded.layer_dims == layer_dims
        assert len(loaded.weights) == len(loaded.biases) == len(shapes)
        for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
            assert (a.dtype, a.shape) == (np.float64, b.shape)
            assert a.tobytes() == b.tobytes()

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        with open(path, "wb") as f:
            np.savez(
                f,
                version=np.int64(99),
                mode="embedding",
                layer_dims=np.array([2, 2]),
                w0=np.zeros((2, 2)),
                b0=np.zeros(2),
            )
        with pytest.raises(ValueError, match="version"):
            load_params(path)

    @pytest.mark.parametrize(
        "dims, message",
        [
            (np.array([2]), "layer_dims needs at least two positive entries"),
            (np.array([2, 0]), "layer_dims needs at least two positive entries"),
            (np.array([2.0, 2.0]), "layer_dims [2. 2.] is not a list of integers"),
            (np.array([[2, 2]]), "layer_dims [[2 2]] is not a list of integers"),
        ],
        ids=["one size", "zero size", "float sizes", "2-D sizes"],
    )
    def test_bad_layer_dims_named(self, tmp_path, dims, message):
        # the rule init_params and the run config check, prefixed with the file
        path = tmp_path / "bad.npz"
        with open(path, "wb") as f:
            np.savez(f, version=np.int64(1), mode="embedding", layer_dims=dims,
                     w0=np.zeros((2, 2)), b0=np.zeros(2))
        with pytest.raises(ValueError) as exc:
            load_params(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: b"id,label\n", "not a model file"),
            (lambda raw: npy_bytes(np.zeros(3)), "not a model file (a single .npy array)"),
            (lambda raw: raw[:100], "not a model file"),
            (lambda raw: raw[:60] + b"\xff" * 8 + raw[68:], "array 'version' is unreadable"),
        ],
        ids=["text", "npy", "truncated", "bad crc"],
    )
    def test_unreadable_file_named(self, tmp_path, edit, message):
        good = tmp_path / "good.npz"
        save_params(init_params([2, 3], seed=0), good)
        path = tmp_path / "bad.npz"
        path.write_bytes(edit(good.read_bytes()))
        with pytest.raises(ValueError) as exc:
            load_params(path)
        assert str(exc.value).startswith(f"{path}: {message}")


def with_ones(a):
    return np.column_stack([a, np.ones(len(a))])


def reference_forward(params, X):
    """Activations per layer, acts[0] being the input, one fresh array each;
    each layer is one product of [a, 1] with [W | b]."""
    acts = [X]
    last = len(params.weights) - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = with_ones(acts[-1]) @ np.column_stack([W, b]).T
        if l < last:
            acts.append(np.tanh(z))
        elif params.mode == CLASSIFIER:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            acts.append(e / e.sum(axis=1, keepdims=True))
        else:
            acts.append(z)
    return acts


def reference_backprop(params, acts, delta):
    grad_w, grad_b = [None] * len(params.weights), [None] * len(params.weights)
    for l in range(len(params.weights) - 1, -1, -1):
        grad_wb = delta.T @ with_ones(acts[l])
        grad_w[l], grad_b[l] = grad_wb[:, :-1], grad_wb[:, -1]
        if l > 0:
            delta = (delta @ params.weights[l]) * (1.0 - acts[l] ** 2)
    return grad_w, grad_b


def reference_update(params, grad_w, grad_b, lr):
    for W, gW in zip(params.weights, grad_w):
        W -= lr * gW
    for b, gb in zip(params.biases, grad_b):
        b -= lr * gb


def reference_check(params, epoch):
    if not all(np.isfinite(a).all() for a in params.weights + params.biases):
        raise ValueError(f"training diverged at epoch {epoch + 1}: non-finite parameters")


def reference_siamese(X, y, dims, cfg):
    """Twin SGD as a plain loop: a per-batch gather and concatenate, list
    backprop and a per-array update."""
    params = init_params(dims, EMBEDDING, cfg.seed)
    rng = np.random.default_rng((cfg.seed, 1))
    sampler = _PairSampler(y)
    n_same = cfg.pairs_per_epoch // 2
    for epoch in range(cfg.epochs):
        n_diff = cfg.pairs_per_epoch - n_same
        i1, i2 = np.concatenate(sampler.pairs(rng, n_same, n_diff)).reshape(2, -1)
        same = _PairSampler.layout(n_same, n_diff)
        for start in range(0, len(i1), cfg.batch_size):
            sl = slice(start, start + cfg.batch_size)
            n = len(i1[sl])
            acts = reference_forward(params, np.concatenate([X[i1[sl]], X[i2[sl]]]))
            diff = acts[-1][:n] - acts[-1][n:]
            d = np.linalg.norm(diff, axis=1)
            coef = np.where(same[sl], 1.0, np.where(d < cfg.margin, -1.0, 0.0))
            coef = np.where(d > 0.0, coef, 0.0)
            g = (coef / np.where(d > 0.0, d, 1.0) / n)[:, None] * diff
            grad_w, grad_b = reference_backprop(params, acts, np.concatenate([g, -g]))
            reference_update(params, grad_w, grad_b, cfg.learning_rate)
        reference_check(params, epoch)
    return params


def reference_classifier(X, y, dims, cfg):
    params = init_params(dims, CLASSIFIER, cfg.seed)
    rng = np.random.default_rng((cfg.seed, 2))
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            acts = reference_forward(params, X[idx])
            delta = acts[-1].copy()
            delta[np.arange(len(idx)), y[idx]] -= 1.0
            delta /= len(idx)
            grad_w, grad_b = reference_backprop(params, acts, delta)
            reference_update(params, grad_w, grad_b, cfg.learning_rate)
        reference_check(params, epoch)
    return params


def assert_same_bits(got, ref):
    assert got.layer_dims == ref.layer_dims and got.mode == ref.mode
    for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def three_class_data(n, dim, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    return rng.normal(size=(n, dim)) + 2.0 * y[:, None], y


# pairs_per_epoch (or rows, for the classifier) 100 against batches of 32
# leaves a 4-row tail; a batch of 128 is larger than the whole epoch
BATCHINGS = [(100, 32), (100, 128), (64, 16)]


class TestTrainingMatchesReferenceLoop:
    @pytest.mark.parametrize("dims", [[4, 3], [8, 16, 2], [8, 10, 32], [6, 8, 5, 2]])
    @pytest.mark.parametrize("pairs, batch", BATCHINGS)
    def test_siamese_bit_for_bit(self, dims, pairs, batch):
        X, y = three_class_data(90, dims[0], seed=len(dims) * 10 + batch)
        cfg = TrainConfig(
            margin=1.5, learning_rate=0.05, epochs=12, batch_size=batch,
            seed=5, pairs_per_epoch=pairs,
        )
        assert_same_bits(train_siamese(X, y, dims, cfg), reference_siamese(X, y, dims, cfg))

    @pytest.mark.parametrize("dims", [[4, 3], [8, 16, 2], [8, 10, 32], [6, 8, 5, 2]])
    @pytest.mark.parametrize("rows, batch", BATCHINGS)
    def test_classifier_bit_for_bit(self, dims, rows, batch):
        X, y = three_class_data(rows, dims[0], seed=len(dims) * 10 + batch)
        y %= dims[-1]
        cfg = TrainConfig(learning_rate=0.2, epochs=12, batch_size=batch, seed=6)
        got = train_classifier(X, y, dims, cfg)
        assert_same_bits(got, reference_classifier(X, y, dims, cfg))

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 12), min_size=2, max_size=4),  # depths 1-3
        pairs=st.integers(1, 70),  # 1 pair: no similar pair is drawn
        batch=st.integers(1, 80),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_siamese_random_shapes_bit_for_bit(self, dims, pairs, batch, epochs, seed):
        X, y = three_class_data(40, dims[0], seed)
        cfg = TrainConfig(
            margin=1.5, learning_rate=0.05, epochs=epochs, batch_size=batch,
            seed=seed, pairs_per_epoch=pairs,
        )
        assert_same_bits(train_siamese(X, y, dims, cfg), reference_siamese(X, y, dims, cfg))

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 12), min_size=1, max_size=3),
        classes=st.integers(2, 5),
        rows=st.integers(2, 70),
        batch=st.integers(1, 80),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_classifier_random_shapes_bit_for_bit(self, dims, classes, rows, batch, epochs, seed):
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.arange(rows) % classes)  # every class up to rows
        X = rng.normal(size=(rows, dims[0])) + y[:, None]
        dims = [*dims, classes]
        cfg = TrainConfig(learning_rate=0.2, epochs=epochs, batch_size=batch, seed=seed)
        got = train_classifier(X, y, dims, cfg)
        assert_same_bits(got, reference_classifier(X, y, dims, cfg))

    @pytest.mark.parametrize("k", [4, 7, 12])
    def test_classifier_one_row_step_into_one_unit(self, k):
        # 9 rows in batches of 4 end in a one-row step, and its backward
        # product into the one-unit layer is a (1, k) by (k, 1) BLAS dot
        rng = np.random.default_rng(k)
        y = np.arange(9) % 3
        X = rng.normal(size=(9, 3)) + y[:, None]
        cfg = TrainConfig(learning_rate=0.2, epochs=3, batch_size=4, seed=k)
        dims = [3, 1, k, 3]
        assert_same_bits(train_classifier(X, y, dims, cfg), reference_classifier(X, y, dims, cfg))

    @pytest.mark.parametrize(
        "train, reference, lr",
        [(train_siamese, reference_siamese, 5.6e295),
         (train_classifier, reference_classifier, 1e296)],
    )
    def test_divergence_epoch_unchanged(self, train, reference, lr):
        # linear [4, 3] networks on features scaled 1e6: the twin weights grow
        # for some epochs before they overflow
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(60, 4)) * 1e6, rng.integers(0, 3, 60)
        cfg = TrainConfig(learning_rate=lr, epochs=40, batch_size=16, seed=2, pairs_per_epoch=50)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"diverged at epoch \d+") as ref:
                reference(X, y, [4, 3], cfg)
            epoch = ref.value.args[0].split(":")[0]
            with pytest.raises(ValueError, match=f"^{epoch}: non-finite"):
                train(X, y, [4, 3], cfg)
        if train is train_siamese:
            assert epoch != "training diverged at epoch 1"

    @pytest.mark.parametrize("train", [train_siamese, train_classifier])
    def test_returned_arrays_are_standalone(self, train):
        X, y = three_class_data(60, 6, seed=3)
        params = train(X, y, [6, 8, 5, 3], TrainConfig(epochs=3, pairs_per_epoch=40))
        arrays = params.weights + params.biases
        before = [a.copy() for a in arrays]
        for i, a in enumerate(arrays):
            assert a.flags.owndata and a.flags.c_contiguous
            a += 1.0
            for j, other in enumerate(arrays):
                if j != i:
                    assert other.tobytes() == before[j].tobytes()
            a[...] = before[i]
        # a second run from the same config is unaffected by the writes
        again = train(X, y, [6, 8, 5, 3], TrainConfig(epochs=3, pairs_per_epoch=40))
        for a, b in zip(again.weights + again.biases, before):
            assert a.tobytes() == b.tobytes()


def coincident_data():
    # 12 rows on 5 distinct points: class 0 repeats p, classes 0 and 1 share
    # q, classes 1 and 2 share r, class 2 repeats s
    p, q, r, s = np.random.default_rng(11).normal(size=(4, 4))
    X = np.array([p, p, p, q, q, q, r, r, r, s, s, s])
    return X, np.repeat([0, 1, 2], 4)


class TestCoincidentPairs:
    @pytest.mark.parametrize("dims", [[4, 3], [4, 8, 2], [4, 6, 5, 2]])
    @pytest.mark.parametrize("pairs, batch", [(40, 8), (33, 32)])
    def test_siamese_bit_for_bit(self, dims, pairs, batch):
        # identical rows give pairs at distance 0, similar and dissimilar
        # alike, which take the zero subgradient inside the full trainer
        X, y = coincident_data()
        cfg = TrainConfig(margin=1.5, learning_rate=0.05, epochs=6, batch_size=batch,
                          seed=3, pairs_per_epoch=pairs)
        drawn = _PairSampler(y).pairs(np.random.default_rng((3, 1)), pairs // 2,
                                      pairs - pairs // 2)
        i1, i2 = np.concatenate(drawn).reshape(2, -1)
        same = _PairSampler.layout(pairs // 2, pairs - pairs // 2)
        coincident = (X[i1] == X[i2]).all(axis=1)
        assert coincident[same].any() and coincident[~same].any()
        assert_same_bits(train_siamese(X, y, dims, cfg), reference_siamese(X, y, dims, cfg))


# the traced peak a tape may add, whatever its length: numpy's iterator
# buffers for the loss heads' broadcasts (the twin head's (n, 1) by (n, k)
# scale, 1216 B here; the softmax's (n, 1) subtract and divide, 1200 B) and
# the isfinite mask come to about 1.3 KiB at these sizes. No broadcast bias
# add is left. Of the folded calls, the dot with the strided W view
# [:, :-1] takes about 250 B and the copy into the strided activation view
# 64 B; tanh writing that view would take 1.2 KiB and tanh' read off it
# 1.7 KiB, so both run on the contiguous products
TAPE_PEAK_BYTES = 2048


def tape_peak(ws, tape, epochs=5):
    # the rise in traced peak memory over running the tape for some epochs
    ws.sgd_epoch(tape, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for epoch in range(epochs):
            ws.sgd_epoch(tape, epoch)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTapeAllocatesNothingPerStep:
    @pytest.mark.parametrize("pairs", [16, 2048])
    def test_twin_tape(self, pairs):
        rng = np.random.default_rng(pairs)
        rows = with_ones(rng.normal(size=(2 * pairs, 4)))
        rows[1] = rows[0]  # a coincident pair
        ws = _Workspace(init_params([4, 5, 2], EMBEDDING, 0), 8)
        batches = [(s, min(s + 4, pairs)) for s in range(0, pairs, 4)]
        same = _PairSampler.layout(pairs // 2, pairs - pairs // 2)
        steps, _ = ws.twin_steps(rows, same, batches, 1.5)
        assert tape_peak(ws, ws.epoch_tape(steps, 0.05)) <= TAPE_PEAK_BYTES

    @pytest.mark.parametrize("rows", [16, 2048])
    def test_classifier_tape(self, rows):
        rng = np.random.default_rng(rows)
        X, onehot = with_ones(rng.normal(size=(rows, 4))), np.eye(3)[rng.integers(0, 3, rows)]
        ws = _Workspace(init_params([4, 5, 3], CLASSIFIER, 0), 4)
        tape = ws.epoch_tape(ws.classifier_steps(X, onehot, 4), 0.05)
        assert tape_peak(ws, tape) <= TAPE_PEAK_BYTES


class TestTapeCallBudget:
    # a clock-free guard on the loss head: one step at train-d2's shape, its
    # SGD update included, makes 22 calls when similar and 25 when dissimilar
    def test_train_d2_step(self):
        ws = _Workspace(init_params([8, 16, 2], EMBEDDING, 0), 64)
        rows = with_ones(np.zeros((128, 8)))
        same = _PairSampler.layout(32, 32)
        steps, _ = ws.twin_steps(rows, same, [(0, 32), (32, 64)], 1.0)
        similar, dissimilar = (len(ws.epoch_tape([step], 0.05)) for step in steps)
        assert similar <= 22 and dissimilar <= 26


class TestOnesColumnsStayOne:
    # the ones columns that fold each bias into its layer's product: no tanh,
    # take or copy may write over them, in the row buffer or a hidden buffer
    @pytest.mark.parametrize("train", [train_siamese, train_classifier])
    def test_after_every_epoch(self, monkeypatch, train):
        checked = []
        run_epoch = _Workspace.sgd_epoch

        def sgd_epoch(ws, tape, epoch):
            run_epoch(ws, tape, epoch)
            rows = tape[0][1][0].base  # the first step's input is a view of the row buffer
            for buf in (rows, *ws.hidden):
                assert (buf[:, -1] == 1.0).all()
            checked.append(len(ws.hidden))

        monkeypatch.setattr(_Workspace, "sgd_epoch", sgd_epoch)
        X, y = three_class_data(70, 6, seed=8)
        cfg = TrainConfig(epochs=6, batch_size=32, pairs_per_epoch=100, seed=1)
        train(X, y, [6, 8, 5, 3], cfg)
        assert checked == [2] * 6


# trains the bench-sized shapes and prints each run's sha256 over its
# weights, biases and forward_batch output, then the BLAS thread count if
# numpy's bundled OpenBLAS reports it
THREAD_SCRIPT = """
import ctypes, glob, hashlib, json, os
import numpy as np
from ivenn.mlp import TrainConfig, forward_batch, train_classifier, train_siamese
rng = np.random.default_rng(7)
y = rng.integers(0, 3, 400)
X = rng.normal(size=(400, 8)) + y[:, None]
runs = [(train_siamese, dims, batch)
        for dims in ([8, 16, 2], [8, 10, 32], [8, 128, 16]) for batch in (32, 128)]
runs.append((train_classifier, [8, 16, 3], 32))
digests = []
for train, dims, batch in runs:
    cfg = TrainConfig(epochs=10, batch_size=batch, pairs_per_epoch=256, seed=3)
    params = train(X, y, dims, cfg)
    h = hashlib.sha256()
    for a in params.weights + params.biases + [forward_batch(params, X)]:
        h.update(a.tobytes())
    digests.append(f"{train.__name__} {dims} {batch} {h.hexdigest()}")
libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*"))
getter = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
print(json.dumps({"digests": digests, "threads": getter() if getter else None}))
"""


def test_bench_shapes_agree_across_blas_thread_counts():
    # one BLAS thread (as the bench pins) and two give the same bits at the
    # bench's shapes, the bias column included in every product's K
    src = str(Path(ivenn.__file__).resolve().parents[1])
    out = {}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        out[threads] = json.loads(proc.stdout)
    assert out[1]["digests"] == out[2]["digests"]
    assert len(out[1]["digests"]) == 7
    if out[1]["threads"] is not None:
        assert (out[1]["threads"], out[2]["threads"]) == (1, 2)


TWO_CLASSES = np.array([0, 0, 1, 1])
NAN_ROW_2 = np.array([[0.0, 0.0], [1.0, 1.0], [np.nan, 0.0], [2.0, 2.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TrainConfig(margin=0.0), r"^margin must be positive$"),
        (lambda: TrainConfig(learning_rate=0.0), r"^learning_rate must be positive$"),
        (lambda: TrainConfig(epochs=-1), r"^epochs must be nonnegative$"),
        (lambda: TrainConfig(batch_size=0),
         r"^batch_size and pairs_per_epoch must be positive$"),
        (lambda: TrainConfig(pairs_per_epoch=0),
         r"^batch_size and pairs_per_epoch must be positive$"),
        (lambda: init_params([2, 3], mode="ranker"), r"^unknown mode 'ranker'$"),
        (lambda: contrastive_gradient(init_params([2, 3]), np.zeros((1, 2)), np.zeros((1, 3)),
                                      [True], 1.0),
         r"^pair inputs X2 have shape \(1, 3\), expected \(m, 2\)$"),
        (lambda: contrastive_gradient(init_params([2, 3]), np.zeros((2, 2)), np.zeros((2, 2)),
                                      [True], 1.0),
         r"^need one or more pairs, each with one same-class flag$"),
        # an infinite margin puts d - margin at nan for a pair at d = inf
        (lambda: contrastive_gradient(init_params([2, 3]), np.zeros((1, 2)), np.zeros((1, 2)),
                                      [False], np.inf),
         r"^margin must be finite, got inf$"),
        (lambda: train_siamese(np.zeros((4, 3)), TWO_CLASSES, [2, 3], TrainConfig(epochs=0)),
         r"^features have shape \(4, 3\), expected \(m, 2\)$"),
        (lambda: train_classifier(np.zeros((4, 3)), TWO_CLASSES, [2, 2], TrainConfig(epochs=0)),
         r"^features have shape \(4, 3\), expected \(m, 2\)$"),
        (lambda: train_classifier(np.zeros((4, 2)), np.zeros(4, int), [2, 2], TrainConfig(epochs=0)),
         r"^need at least 2 classes to train a classifier$"),
        # a (2, 1) flag column would broadcast against the (2,) distances
        (lambda: contrastive_gradient(init_params([2, 3]), np.zeros((2, 2)), np.ones((2, 2)),
                                      [[True], [False]], 1.0),
         r"^need one or more pairs, each with one same-class flag$"),
        (lambda: train_siamese(NAN_ROW_2, TWO_CLASSES, [2, 3], TrainConfig(epochs=0)),
         r"^features row 2 is not finite \(nan or inf\)$"),
        (lambda: train_classifier(NAN_ROW_2, TWO_CLASSES, [2, 2], TrainConfig(epochs=0)),
         r"^features row 2 is not finite \(nan or inf\)$"),
    ],
    ids=["margin", "learning_rate", "epochs", "batch_size", "pairs_per_epoch", "mode",
         "pair width", "pair count", "pair margin", "siamese features", "classifier features",
         "classifier one class", "pair flag column", "siamese non-finite row",
         "classifier non-finite row"],
)
def test_bad_argument_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()
