"""Small fully connected network trained either as one twin of a
weight-sharing pair (contrastive loss, embedding outputs) or as a softmax
classifier (cross-entropy, probability outputs).

Hidden layers use tanh; the output layer is linear in embedding mode and
softmax in classifier mode. Training is plain mini-batch SGD with a fixed
learning rate, fully deterministic given the seed, and stops with a
ValueError naming the epoch if any parameter turns non-finite, or at the
end if a hidden layer has saturated.

Twin training works on arrays throughout: each epoch's pairs come from a
handful of vectorised draws over class-sorted index arrays, and each batch
runs one forward and one backward pass over both twins stacked, so the
shared weights' gradient sums the two twins inside one matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EMBEDDING = "embedding"
CLASSIFIER = "classifier"

_FORMAT_VERSION = 1


@dataclass
class MlpParams:
    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l]: (layer_dims[l+1], layer_dims[l])
    biases: list[np.ndarray]  # biases[l]: (layer_dims[l+1],)
    mode: str = EMBEDDING

    @property
    def input_dim(self):
        return self.layer_dims[0]

    @property
    def output_dim(self):
        return self.layer_dims[-1]


@dataclass(frozen=True)
class PairExample:
    """Two feature vectors plus whether they carry the same class label."""

    x1: np.ndarray
    x2: np.ndarray
    same_class: bool


@dataclass
class TrainConfig:
    margin: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    seed: int | tuple = 0
    pairs_per_epoch: int = 256

    def validate(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1 or self.pairs_per_epoch < 1:
            raise ValueError("batch_size and pairs_per_epoch must be positive")


def init_params(layer_dims, mode=EMBEDDING, seed=0):
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    layer_dims = [int(d) for d in layer_dims]
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError("layer_dims needs at least two positive entries")
    if mode not in (EMBEDDING, CLASSIFIER):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(layer_dims=layer_dims, weights=weights, biases=biases, mode=mode)


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _forward_trace(params, X):
    # returns the activations per layer; acts[0] is the input
    acts = [X]
    a = X
    last = len(params.weights) - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W.T + b
        if l < last:
            a = np.tanh(z)
        elif params.mode == CLASSIFIER:
            a = _softmax(z)
        else:
            a = z
        acts.append(a)
    return acts


def forward_batch(params, X):
    """Apply the network to a (n, input_dim) batch; returns (n, output_dim)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"input has shape {X.shape}, network expects (n, {params.input_dim})")
    return _forward_trace(params, X)[-1]


def forward(params, x):
    """Apply the network to a single feature vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.input_dim,):
        raise ValueError(f"input has shape {x.shape}, network expects ({params.input_dim},)")
    return forward_batch(params, x[None, :])[0]


def contrastive_loss(r1, r2, same_class, margin):
    """Same-class pairs are charged their distance, different-class pairs the
    hinge max(0, margin - distance)."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if r1.shape != r2.shape:
        raise ValueError(f"dimension mismatch: {r1.shape} vs {r2.shape}")
    if margin <= 0:
        raise ValueError("margin must be positive")
    d = float(np.linalg.norm(r1 - r2))
    return d if same_class else max(0.0, margin - d)


def _backprop(params, acts, delta):
    # delta is dLoss/dz for the output layer; tanh' = 1 - tanh**2 is read
    # off the stored activations
    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.biases)
    for l in range(len(params.weights) - 1, -1, -1):
        grad_w[l] = delta.T @ acts[l]
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ params.weights[l]) * (1.0 - acts[l] ** 2)
    return grad_w, grad_b


def _contrastive_batch(params, X1, X2, same, margin):
    # mean loss over the batch and its gradients wrt the shared parameters;
    # both twins go through one pass stacked as [X1; X2]
    n = len(X1)
    acts = _forward_trace(params, np.concatenate([X1, X2]))
    diff = acts[-1][:n] - acts[-1][n:]
    d = np.linalg.norm(diff, axis=1)
    loss = float(np.where(same, d, np.maximum(0.0, margin - d)).mean())
    # dLoss/dd: 1 for similar pairs, -1 inside the margin for dissimilar,
    # 0 otherwise; coincident pairs (d == 0) get the zero subgradient
    coef = np.where(same, 1.0, np.where(d < margin, -1.0, 0.0))
    coef = np.where(d > 0.0, coef, 0.0)
    g = (coef / np.where(d > 0.0, d, 1.0) / n)[:, None] * diff
    grad_w, grad_b = _backprop(params, acts, np.concatenate([g, -g]))
    return loss, grad_w, grad_b


def loss_gradient(params, pair, margin):
    """Gradient of the contrastive loss of one pair wrt every parameter.

    Returns (grad_weights, grad_biases) with shapes mirroring params.
    """
    if params.mode != EMBEDDING:
        raise ValueError("contrastive gradients require an embedding-mode network")
    x1 = np.asarray(pair.x1, dtype=float)
    x2 = np.asarray(pair.x2, dtype=float)
    if x1.shape != (params.input_dim,) or x2.shape != (params.input_dim,):
        raise ValueError("pair inputs must match the network input dimension")
    _, grad_w, grad_b = _contrastive_batch(
        params, x1[None, :], x2[None, :], np.array([pair.same_class]), margin
    )
    return grad_w, grad_b


def _sgd_step(params, grad_w, grad_b, lr):
    for W, gW in zip(params.weights, grad_w):
        W -= lr * gW
    for b, gb in zip(params.biases, grad_b):
        b -= lr * gb


class _PairSampler:
    """Draws balanced same/different-class pairs, deterministic given rng.

    A same pair's anchor is uniform over the examples whose class has at
    least 2 members, its partner uniform over the anchor's other class
    members. A different pair's anchor is uniform over all examples, its
    partner uniform over the examples of every other class."""

    def __init__(self, labels):
        _, self.cls, self.size = np.unique(
            labels, return_inverse=True, return_counts=True
        )
        self.start = np.cumsum(self.size) - self.size
        self.order = np.argsort(self.cls, kind="stable")  # class-sorted
        self.pos = np.empty(len(labels), dtype=np.int64)  # index within class
        self.pos[self.order] = np.arange(len(labels)) - self.start[self.cls[self.order]]
        self.same_pool = np.flatnonzero(self.size[self.cls] >= 2)

    def draw(self, rng, n_same, n_diff):
        i = self.same_pool[rng.integers(len(self.same_pool), size=n_same)]
        c = self.cls[i]
        step = rng.integers(1, self.size[c])
        j = self.order[self.start[c] + (self.pos[i] + step) % self.size[c]]
        k = rng.integers(len(self.cls), size=n_diff)
        c = self.cls[k]
        u = rng.integers(len(self.cls) - self.size[c])
        m = self.order[np.where(u < self.start[c], u, u + self.size[c])]
        same = np.arange(n_same + n_diff) < n_same
        return np.concatenate([i, k]), np.concatenate([j, m]), same


def train_siamese(features, labels, layer_dims, config):
    """Train an embedding network so same-class inputs map close together and
    different-class inputs at least the margin apart."""
    config.validate()
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if X.ndim != 2 or X.shape[1] != layer_dims[0]:
        raise ValueError(f"features must be (n, {layer_dims[0]})")
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes to form dissimilar pairs")
    sampler = _PairSampler(y)
    if len(sampler.same_pool) == 0:
        raise ValueError("no class has at least 2 examples; cannot form similar pairs")

    params = init_params(layer_dims, EMBEDDING, config.seed)
    rng = np.random.default_rng((*_as_seed(config.seed), 1))
    n_same = config.pairs_per_epoch // 2
    n_diff = config.pairs_per_epoch - n_same
    for epoch in range(config.epochs):
        i1, i2, same = sampler.draw(rng, n_same, n_diff)
        for start in range(0, len(i1), config.batch_size):
            sl = slice(start, start + config.batch_size)
            _, grad_w, grad_b = _contrastive_batch(
                params, X[i1[sl]], X[i2[sl]], same[sl], config.margin
            )
            _sgd_step(params, grad_w, grad_b, config.learning_rate)
        _check_finite(params, epoch)
    _check_saturation(params, X)
    return params


def train_classifier(features, labels, layer_dims, config):
    """Train a softmax classifier with cross-entropy; layer_dims[-1] is the
    class count."""
    config.validate()
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if X.ndim != 2 or X.shape[1] != layer_dims[0]:
        raise ValueError(f"features must be (n, {layer_dims[0]})")
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes to train a classifier")
    if y.min() < 0 or y.max() >= layer_dims[-1]:
        raise ValueError("labels must lie in [0, layer_dims[-1])")

    params = init_params(layer_dims, CLASSIFIER, config.seed)
    rng = np.random.default_rng((*_as_seed(config.seed), 2))
    n = len(X)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            acts = _forward_trace(params, X[idx])
            delta = acts[-1].copy()
            delta[np.arange(len(idx)), y[idx]] -= 1.0
            delta /= len(idx)
            grad_w, grad_b = _backprop(params, acts, delta)
            _sgd_step(params, grad_w, grad_b, config.learning_rate)
        _check_finite(params, epoch)
    _check_saturation(params, X)
    return params


def _check_finite(params, epoch):
    if not all(np.isfinite(a).all() for a in params.weights + params.biases):
        raise ValueError(
            f"training diverged at epoch {epoch + 1}: non-finite parameters "
            f"(try a smaller learning_rate)"
        )


def _check_saturation(params, X):
    # a hidden layer at exactly +-1 on every unit for every training row has
    # tanh' = 0 everywhere: the weights are finite but training has stalled,
    # and the network maps every input to one of a few outputs
    for l, a in enumerate(_forward_trace(params, X)[1:-1], start=1):
        if (np.abs(a) == 1.0).all():
            raise ValueError(
                f"training saturated: every unit of hidden layer {l} is exactly "
                f"+-1 on every training row (try a smaller learning_rate)"
            )


def _as_seed(seed):
    return tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)


def save_params(params, path):
    """Write parameters to a versioned binary file; round-trip is bit-exact."""
    arrays = {}
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{l}"] = W
        arrays[f"b{l}"] = b
    with open(path, "wb") as f:
        np.savez(
            f,
            version=np.int64(_FORMAT_VERSION),
            mode=params.mode,
            layer_dims=np.asarray(params.layer_dims, dtype=np.int64),
            **arrays,
        )


def load_params(path):
    """Read parameters written by save_params."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        mode = str(data["mode"])
        layer_dims = [int(d) for d in data["layer_dims"]]
        weights = [data[f"w{l}"] for l in range(len(layer_dims) - 1)]
        biases = [data[f"b{l}"] for l in range(len(layer_dims) - 1)]
    return MlpParams(layer_dims=layer_dims, weights=weights, biases=biases, mode=mode)
