"""Small fully connected network trained either as one twin of a
weight-sharing pair (contrastive loss, embedding outputs) or as a softmax
classifier (cross-entropy, probability outputs).

Hidden layers use tanh; the output layer is linear in embedding mode and
softmax in classifier mode. Training is plain mini-batch SGD with a fixed
learning rate, fully deterministic given the seed, and stops with a
ValueError naming the epoch if any parameter turns non-finite, or at the
end if a hidden layer has saturated.

Both trainers run one in-place step over a workspace: every weight and bias
is a view into one flat buffer and every gradient a view into a second, and
the forward and backward passes write into activation and delta buffers
allocated once per training run. An SGD update is two whole-buffer
operations and the divergence check one. A twin epoch draws its pairs with
a few vectorised draws over class-sorted index arrays and gathers them with
one fancy index, laid out so that each batch is a contiguous [X1; X2] view:
both twins run through one stacked pass, and the shared weights' gradient
sums the two twins inside one matmul.
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


def _forward(params, X, outs=None):
    # returns the activations of every layer after the input X, layer l+1's
    # written into outs[l] when given, else into fresh arrays
    outs = outs or [None] * len(params.weights)
    last = len(params.weights) - 1
    acts = []
    a = X
    for l, (W, b, out) in enumerate(zip(params.weights, params.biases, outs)):
        a = np.matmul(a, W.T, out=out)
        a += b
        if l < last:
            np.tanh(a, out=a)
        elif params.mode == CLASSIFIER:
            a -= a.max(axis=1, keepdims=True)
            np.exp(a, out=a)
            a /= a.sum(axis=1, keepdims=True)
        acts.append(a)
    return acts


def forward_batch(params, X):
    """Apply the network to a (n, input_dim) batch; returns (n, output_dim)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"input has shape {X.shape}, network expects (n, {params.input_dim})")
    return _forward(params, X)[-1]


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


class _Workspace:
    """A network's weights and biases as views into one flat buffer, their
    gradients as views into a second, and activation and delta buffers for
    batches of up to `rows` input rows. Each step writes in place."""

    def __init__(self, params, rows):
        dims = params.layer_dims
        arrays = [a for wb in zip(params.weights, params.biases) for a in wb]
        ends = np.cumsum([a.size for a in arrays])
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.grad = np.empty_like(self.flat)
        w, g = (
            [buf[e - a.size : e].reshape(a.shape) for a, e in zip(arrays, ends)]
            for buf in (self.flat, self.grad)
        )
        self.params = MlpParams(list(dims), w[0::2], w[1::2], params.mode)
        self.grad_w, self.grad_b = g[0::2], g[1::2]
        self.acts = [np.empty((rows, d)) for d in dims[1:]]
        self.deltas = [np.empty((rows, d)) for d in dims[1:]]  # dLoss/dz
        self.tanh_grad = [np.empty((rows, d)) for d in dims[1:-1]]

    def forward(self, X):
        """Activations of every layer after the input, as views of the
        first len(X) rows of the activation buffers."""
        return _forward(self.params, X, [a[: len(X)] for a in self.acts])

    def backward(self, X, acts):
        # the output delta is already in self.deltas[-1]; tanh' = 1 - tanh**2
        # is read off the stored activations
        m = len(X)
        delta = self.deltas[-1][:m]
        for l in range(len(acts) - 1, -1, -1):
            a = acts[l - 1] if l > 0 else X
            np.matmul(delta.T, a, out=self.grad_w[l])
            np.add.reduce(delta, axis=0, out=self.grad_b[l])
            if l > 0:
                prev = np.matmul(delta, self.params.weights[l], out=self.deltas[l - 1][:m])
                t = np.multiply(a, a, out=self.tanh_grad[l - 1][:m])
                np.subtract(1.0, t, out=t)
                prev *= t
                delta = prev

    def contrastive(self, X, same, margin):
        """Gradient of the mean contrastive loss of a batch whose rows are
        [X1; X2], both twins in one pass; returns the pair distances."""
        n = len(same)
        acts = self.forward(X)
        diff = acts[-1][:n] - acts[-1][n:]
        d = np.sqrt(np.add.reduce(diff * diff, axis=1))
        # dLoss/dd: 1 for similar pairs, -1 inside the margin for dissimilar,
        # 0 otherwise; coincident pairs (d == 0) get the zero subgradient
        coef = np.where(same, 1.0, np.where(d < margin, -1.0, 0.0))
        scale = np.zeros(n)
        np.divide(coef, d, out=scale, where=d > 0.0)
        scale /= n
        delta = self.deltas[-1]
        g = np.multiply(scale[:, None], diff, out=delta[:n])
        np.negative(g, out=delta[n : 2 * n])
        self.backward(X, acts)
        return d

    def cross_entropy(self, X, y):
        """Gradient of the mean cross-entropy of a softmax batch."""
        m = len(X)
        acts = self.forward(X)
        delta = self.deltas[-1][:m]
        np.copyto(delta, acts[-1])
        delta[np.arange(m), y] -= 1.0
        delta /= m
        self.backward(X, acts)

    def descend(self, lr):
        self.grad *= lr
        self.flat -= self.grad

    def check_finite(self, epoch):
        if not np.isfinite(self.flat).all():
            raise ValueError(
                f"training diverged at epoch {epoch + 1}: non-finite parameters "
                f"(try a smaller learning_rate)"
            )

    def export(self):
        """The parameters as standalone arrays."""
        p = self.params
        return MlpParams(
            list(p.layer_dims), [W.copy() for W in p.weights], [b.copy() for b in p.biases], p.mode
        )


def _contrastive_batch(params, X1, X2, same, margin):
    # mean loss over the batch and its gradients wrt the shared parameters,
    # through a one-off workspace
    ws = _Workspace(params, 2 * len(X1))
    d = ws.contrastive(np.concatenate([X1, X2]), same, margin)
    loss = float(np.where(same, d, np.maximum(0.0, margin - d)).mean())
    return loss, [g.copy() for g in ws.grad_w], [g.copy() for g in ws.grad_b]


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

    n_pairs, size = config.pairs_per_epoch, config.batch_size
    ws = _Workspace(init_params(layer_dims, EMBEDDING, config.seed), 2 * min(n_pairs, size))
    rng = np.random.default_rng((*_as_seed(config.seed), 1))
    n_same = n_pairs // 2
    batches = [(s, min(s + size, n_pairs)) for s in range(0, n_pairs, size)]
    # row order that lays each batch out as [X[i1_b]; X[i2_b]] within [i1; i2]
    order = np.concatenate([np.r_[s:e, n_pairs + s : n_pairs + e] for s, e in batches])
    for epoch in range(config.epochs):
        i1, i2, same = sampler.draw(rng, n_same, n_pairs - n_same)
        rows = X[np.concatenate([i1, i2])[order]]
        for s, e in batches:
            ws.contrastive(rows[2 * s : 2 * e], same[s:e], config.margin)
            ws.descend(config.learning_rate)
        ws.check_finite(epoch)
    params = ws.export()
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

    n, size = len(X), config.batch_size
    ws = _Workspace(init_params(layer_dims, CLASSIFIER, config.seed), min(n, size))
    rng = np.random.default_rng((*_as_seed(config.seed), 2))
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        Xp, yp = X[perm], y[perm]
        for s in range(0, n, size):
            ws.cross_entropy(Xp[s : s + size], yp[s : s + size])
            ws.descend(config.learning_rate)
        ws.check_finite(epoch)
    params = ws.export()
    _check_saturation(params, X)
    return params


def _check_saturation(params, X):
    # a hidden layer at exactly +-1 on every unit for every training row has
    # tanh' = 0 everywhere: the weights are finite but training has stalled,
    # and the network maps every input to one of a few outputs
    for l, a in enumerate(_forward(params, X)[:-1], start=1):
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
