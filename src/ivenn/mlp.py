"""Small fully connected network trained either as one twin of a
weight-sharing pair (contrastive loss, embedding outputs) or as a softmax
classifier (cross-entropy, probability outputs).

Hidden layers use tanh; the output layer is linear in embedding mode and
softmax in classifier mode. Training is plain mini-batch SGD with a fixed
learning rate, fully deterministic given the seed, and stops with a
ValueError naming the epoch if any parameter turns non-finite, or at the
end if a hidden layer has saturated.

Both trainers run one tape per epoch: a flat list of (function, operands)
calls that covers every step and every SGD update, built once per run and
run as it stands each epoch. Each layer is one C-contiguous (out, in + 1)
matrix [W | b], a view into one flat buffer, and its gradient the same view
into a second. Every layer's input ends in a ones column, so one product
gives a layer's pre-activations, bias included, and one product gives both
its weight and bias gradients: the trainers append the ones column to the
features once per run, and each hidden activation buffer is (rows, d + 1)
with a ones column that nothing writes.

The 2-D products call np.dot, which needs a C-contiguous output of the
exact dtype and costs 0.2-0.3 us less per call than np.matmul on the same
BLAS routine. So a hidden layer's product lands in a contiguous (rows, d)
buffer, tanh runs on it in place, one copy fills the strided view [:, :d]
of the activation buffer, and the backward pass reads tanh' off the
contiguous buffer. A ufunc over a strided view goes through numpy's
buffered iterator: at (64, 16), tanh into the view takes 1.50 us against
0.98 us in place plus 0.47 us for the copy, and tanh' read off the view
1.22 us against 0.27 us. The backward pass reads W as the strided view
[:, :-1] of its layer, which BLAS takes as it is, except in a one-row step
into a one-unit layer: that (1, k) by (k, 1) product is a BLAS dot, which
sums in another order when an operand is strided, so W is copied first.

Each call writes into a buffer passed as its output, so no call allocates
an array, and every operand is an array: the margin, 0, 1, the smallest
subnormal, the batch length and the learning rate are 0-d arrays, since a
Python scalar costs about 0.15 us more per call. The loss head takes
dLoss/dd / d from float ufuncs, one choice per run of pairs with equal
flags, fixed when the tape is built. With pos = heaviside(d, 0) and
safe = fmax(d, smallest subnormal), a similar run takes pos / safe and a
dissimilar run (heaviside(d - margin, 1) - pos) / safe: 1/d and -1/d inside
the margin, and +0 for a coincident pair (d == 0), at or beyond the margin
and at d = inf. Those are the bits, signs of zeros included, of picking 1,
-1 or 0 and dividing a coincident pair's 0 by 1; a pair at d = nan gets nan
where that gave 0 times its difference, and either way the step writes nan
into the parameters. Each step's views into the buffers are made once,
when the tape is built, and each batch's rows are a fixed view into one
row buffer that every epoch refills with a single `take`. After the tape,
an epoch makes one divergence check.

A twin epoch draws its pairs with a few vectorised draws over class-sorted
index arrays, and lays the row buffer out so that each batch is a contiguous
[X1; X2] block: both twins run through one stacked pass, and the shared
weights' gradient sums the two twins inside one matmul. The sampler puts the
similar pairs first, so a batch holds at most two runs of like pairs. A
consequence for training quality: the
batches of an epoch are homogeneous. With 1024 pairs in batches of 32, an
epoch runs 16 all-similar steps, then 16 all-dissimilar ones; the default
256 pairs run 4 of each. Mixing them would change every trained model.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from ivenn.data import (
    check_finite,
    check_finite_rows,
    float_rows,
    open_artifact,
    row_labels,
)

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


@dataclass(frozen=True)
class TrainConfig:
    """The SGD schedule and contrastive margin: frozen, and checked when made."""

    margin: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    seed: int | tuple = 0
    pairs_per_epoch: int = 256

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        check_finite(self, "margin")
        check_finite(self, "learning_rate")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1 or self.pairs_per_epoch < 1:
            raise ValueError("batch_size and pairs_per_epoch must be positive")


def check_layer_dims(layer_dims):
    """Raise unless layer_dims holds two or more sizes, all positive."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError("layer_dims needs at least two positive entries")


def init_params(layer_dims, mode=EMBEDDING, seed=0):
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    layer_dims = [int(d) for d in layer_dims]
    check_layer_dims(layer_dims)
    if mode not in (EMBEDDING, CLASSIFIER):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(layer_dims=layer_dims, weights=weights, biases=biases, mode=mode)


def _forward(params, X):
    # the activations of every layer after the input X
    last = len(params.weights) - 1
    acts = []
    a = X
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ W.T
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
    """Apply the network to a (n, input_dim) batch; returns (n, layer_dims[-1])."""
    return _forward(params, float_rows(X, params.input_dim, "inputs"))[-1]


# the functions a tape calls, each passed its output positionally
_dot, _subtract, _multiply, _divide = np.dot, np.subtract, np.multiply, np.divide
_tanh, _sqrt, _exp, _negative = np.tanh, np.sqrt, np.exp, np.negative
_fmax, _heaviside, _copyto = np.fmax, np.heaviside, np.copyto
_sum, _max = np.add.reduce, np.maximum.reduce


def _run(tape):
    for f, args in tape:
        f(*args)


class _Workspace:
    """A network's layers as (out, in + 1) matrices [W | b], views into one
    flat buffer, their gradients as views into a second, and activation and
    delta buffers for batches of up to `rows` input rows. A step is the list
    of (function, operands) calls that writes one batch's gradient into the
    gradient buffer; its input rows end in a ones column, and its views into
    those buffers are built once per run."""

    def __init__(self, params, rows):
        dims = params.layer_dims
        self.layer_dims, self.mode = list(dims), params.mode
        layers = [np.column_stack([W, b]) for W, b in zip(params.weights, params.biases)]
        ends = np.cumsum([wb.size for wb in layers])
        self.flat = np.concatenate([wb.ravel() for wb in layers])
        self.grad = np.empty_like(self.flat)
        self.layers, self.grad_layers = (
            [buf[e - wb.size : e].reshape(wb.shape) for wb, e in zip(layers, ends)]
            for buf in (self.flat, self.grad)
        )
        self.products = [np.empty((rows, d)) for d in dims[1:]]  # z; the last is the output
        self.hidden = [np.ones((rows, d + 1)) for d in dims[1:-1]]  # [tanh(z), 1]
        self.deltas = [np.empty((rows, d)) for d in dims[1:]]  # dLoss/dz
        self.tanh_grad = [np.empty((rows, d)) for d in dims[1:-1]]
        self.one = np.ones(())

    def _step(self, x, head):
        # forward over the input rows x, each ending in a 1, the loss head
        # writing dLoss/dz into the output delta, then backward into the
        # gradient buffer
        r = len(x)
        products, deltas = [z[:r] for z in self.products], [d[:r] for d in self.deltas]
        hidden, tanh_grad = [h[:r] for h in self.hidden], [t[:r] for t in self.tanh_grad]
        top = len(products) - 1
        ins = [x, *hidden]  # each layer's input [a, 1]
        step = []
        for l, (a_in, wb, z) in enumerate(zip(ins, self.layers, products)):
            step.append((_dot, (a_in, wb.T, z)))
            if l < top:
                step += [(_tanh, (z, z)), (_copyto, (hidden[l][:, :-1], z))]
        step += head
        # tanh' = 1 - tanh**2 is read off the contiguous products
        for l in range(top, -1, -1):
            delta = deltas[l]
            step.append((_dot, (delta.T, ins[l], self.grad_layers[l])))
            if l:
                prev, t, a = deltas[l - 1], tanh_grad[l - 1], products[l - 1]
                W = self.layers[l][:, :-1]
                if prev.shape == (1, 1):  # a BLAS dot; see the module docstring
                    W_col = np.empty(W.shape)
                    step.append((_copyto, (W_col, W)))
                    W = W_col
                step += [
                    (_dot, (delta, W, prev)),
                    (_multiply, (a, a, t)),
                    (_subtract, (self.one, t, t)),
                    (_multiply, (prev, t, prev)),
                ]
        return step

    def twin_steps(self, rows, same, batches, margin):
        """One contrastive step per (start, end) range of pairs, and the
        buffer its pair distances land in. A batch's input is
        rows[2 start : 2 end], laid out [X1; X2] so that both twins run
        through one stacked pass, each row ending in a 1; same[start:end]
        flags its similar pairs, and each run of equal flags in it gets its
        own dLoss/dd calls."""
        half, k = max(e - s for s, e in batches), self.layer_dims[-1]
        diff, sq = np.empty((half, k)), np.empty((half, k))
        d, safe, pos, scale = (np.empty(half) for _ in range(4))
        margin, zero, one = np.array(float(margin)), np.zeros(()), self.one
        tiny = np.array(np.finfo(float).smallest_subnormal)
        steps = []
        for s, e in batches:
            n = e - s
            z, delta = self.products[-1][: 2 * n], self.deltas[-1][: 2 * n]
            head = [
                (_subtract, (z[:n], z[n:], diff[:n])),
                (_multiply, (diff[:n], diff[:n], sq[:n])),
                (_sum, (sq[:n], 1, None, d[:n])),
                (_sqrt, (d[:n], d[:n])),
                # safe: d, or the smallest subnormal at d == 0; pos: 1 at d > 0, 0 at d == 0
                (_fmax, (d[:n], tiny, safe[:n])),
                (_heaviside, (d[:n], zero, pos[:n])),
            ]
            flags = same[s:e]
            cuts = [0, *(np.flatnonzero(flags[1:] != flags[:-1]) + 1), n]
            for a, b in zip(cuts, cuts[1:]):
                pos_r, safe_r, scale_r = pos[a:b], safe[a:b], scale[a:b]
                if flags[a]:  # dLoss/dd / d: 1 / d, or +0 at d == 0
                    head.append((_divide, (pos_r, safe_r, scale_r)))
                else:  # -1 / d inside the margin, +0 at d == 0 or d >= margin
                    head += [
                        (_subtract, (d[a:b], margin, scale_r)),
                        (_heaviside, (scale_r, one, scale_r)),
                        (_subtract, (scale_r, pos_r, scale_r)),
                        (_divide, (scale_r, safe_r, scale_r)),
                    ]
            head += [
                (_divide, (scale[:n], np.array(float(n)), scale[:n])),
                (_multiply, (scale[:n, None], diff[:n], delta[:n])),
                (_negative, (delta[:n], delta[n:])),
            ]
            steps.append(self._step(rows[2 * s : 2 * e], head))
        return steps, d

    def classifier_steps(self, X, onehot, size):
        """One cross-entropy step per `size` consecutive rows of X, each
        ending in a 1, whose labels are the rows of onehot (1.0 at the
        label, 0.0 elsewhere)."""
        m = min(len(X), size)
        peak, total = np.empty((m, 1)), np.empty((m, 1))
        steps = []
        for s in range(0, len(X), size):
            n = min(size, len(X) - s)
            z, p = self.products[-1][:n], self.deltas[-1][:n]
            head = [
                (_max, (z, 1, None, peak[:n], True)),
                (_subtract, (z, peak[:n], p)),
                (_exp, (p, p)),
                (_sum, (p, 1, None, total[:n], True)),
                (_divide, (p, total[:n], p)),
                (_subtract, (p, onehot[s : s + n], p)),
                (_divide, (p, np.array(float(n)), p)),
            ]
            steps.append(self._step(X[s : s + n], head))
        return steps

    def epoch_tape(self, steps, lr):
        """The steps in order, each followed by its SGD update, as one flat
        list of calls."""
        flat, grad = self.flat, self.grad
        update = [(_multiply, (grad, np.array(float(lr)), grad)), (_subtract, (flat, grad, flat))]
        return [call for step in steps for call in step + update]

    def sgd_epoch(self, tape, epoch):
        """Run one epoch's tape; raise naming the epoch if a parameter has
        turned non-finite."""
        _run(tape)
        if not np.isfinite(self.flat).all():
            raise ValueError(
                f"training diverged at epoch {epoch + 1}: non-finite parameters "
                f"(try a smaller learning_rate)"
            )

    def export(self):
        """The parameters as standalone arrays."""
        return MlpParams(list(self.layer_dims), *_split(self.layers), self.mode)


def _split(layers):
    # each (out, in + 1) layer [W | b] as a standalone C-contiguous W and b
    return [wb[:, :-1].copy() for wb in layers], [wb[:, -1].copy() for wb in layers]


def _with_ones(X):
    # the rows of X, each followed by a 1: the input a [W | b] layer takes
    return np.column_stack([X, np.ones(len(X))])


def contrastive_gradient(params, X1, X2, same, margin):
    """Mean contrastive loss of the pairs (X1[i], X2[i]) and its gradient wrt
    every parameter, through the one-step tape training runs. A pair flagged
    same[i] is charged its embedding distance d, any other pair the hinge
    max(0, margin - d). Returns (loss, grad_weights, grad_biases), the
    gradients shaped as params.weights and params.biases."""
    if params.mode != EMBEDDING:
        raise ValueError("contrastive gradients require an embedding-mode network")
    X1 = float_rows(X1, params.input_dim, "pair inputs X1")
    X2 = float_rows(X2, params.input_dim, "pair inputs X2")
    same = np.asarray(same, dtype=bool)
    n = len(same)
    if same.ndim != 1 or not len(X1) == len(X2) == n > 0:
        raise ValueError("need one or more pairs, each with one same-class flag")
    TrainConfig(margin=margin)  # the one margin rule
    check_finite_rows(X1, "pair inputs X1")
    check_finite_rows(X2, "pair inputs X2")
    ws = _Workspace(params, 2 * n)
    (step,), d = ws.twin_steps(_with_ones(np.concatenate([X1, X2])), same, [(0, n)], margin)
    _run(step)
    loss = float(np.where(same, d, np.maximum(0.0, margin - d)).mean())
    return loss, *_split(ws.grad_layers)


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

    def pairs(self, rng, n_same, n_diff):
        """The anchors of n_same similar and n_diff dissimilar pairs, then
        their partners, as four index arrays."""
        i = self.same_pool[rng.integers(len(self.same_pool), size=n_same)]
        c = self.cls[i]
        step = rng.integers(1, self.size[c])
        j = self.order[self.start[c] + (self.pos[i] + step) % self.size[c]]
        k = rng.integers(len(self.cls), size=n_diff)
        c = self.cls[k]
        u = rng.integers(len(self.cls) - self.size[c])
        m = self.order[np.where(u < self.start[c], u, u + self.size[c])]
        return i, k, j, m

    @staticmethod
    def layout(n_same, n_diff):
        """A draw's same-class flags: its similar pairs come first."""
        return np.arange(n_same + n_diff) < n_same


def train_siamese(features, labels, layer_dims, config):
    """Train an embedding network so same-class inputs map close together and
    different-class inputs at least the margin apart."""
    X = float_rows(features, layer_dims[0], "features")
    check_finite_rows(X, "features")
    y = row_labels(labels, len(X), None)
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes to form dissimilar pairs")
    sampler = _PairSampler(y)
    if len(sampler.same_pool) == 0:
        raise ValueError("no class has at least 2 examples; cannot form similar pairs")

    n_pairs, size = config.pairs_per_epoch, config.batch_size
    n_same = n_pairs // 2
    ws = _Workspace(init_params(layer_dims, EMBEDDING, config.seed), 2 * min(n_pairs, size))
    rng = np.random.default_rng((*_as_seed(config.seed), 1))
    batches = [(s, min(s + size, n_pairs)) for s in range(0, n_pairs, size)]
    # row order that lays each batch out as [X[i1_b]; X[i2_b]] within [i1; i2]
    order = np.concatenate([np.r_[s:e, n_pairs + s : n_pairs + e] for s, e in batches])
    drawn, picked = np.empty(2 * n_pairs, dtype=np.int64), np.empty(2 * n_pairs, dtype=np.int64)
    X_ones = _with_ones(X)
    rows = np.empty((2 * n_pairs, X_ones.shape[1]))
    same = _PairSampler.layout(n_same, n_pairs - n_same)
    steps, _ = ws.twin_steps(rows, same, batches, config.margin)
    tape = ws.epoch_tape(steps, config.learning_rate)
    for epoch in range(config.epochs):
        np.concatenate(sampler.pairs(rng, n_same, n_pairs - n_same), out=drawn)
        drawn.take(order, out=picked)
        X_ones.take(picked, axis=0, out=rows)
        ws.sgd_epoch(tape, epoch)
    params = ws.export()
    _check_saturation(params, X)
    return params


def train_classifier(features, labels, layer_dims, config):
    """Train a softmax classifier with cross-entropy; layer_dims[-1] is the
    class count."""
    X = float_rows(features, layer_dims[0], "features")
    check_finite_rows(X, "features")
    y = row_labels(labels, len(X), layer_dims[-1])
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes to train a classifier")

    n, size = len(X), config.batch_size
    ws = _Workspace(init_params(layer_dims, CLASSIFIER, config.seed), min(n, size))
    rng = np.random.default_rng((*_as_seed(config.seed), 2))
    Y = (y[:, None] == np.arange(layer_dims[-1])).astype(float)  # one-hot labels
    X_ones = _with_ones(X)
    Xp, Yp = np.empty(X_ones.shape), np.empty(Y.shape)
    tape = ws.epoch_tape(ws.classifier_steps(Xp, Yp, size), config.learning_rate)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        X_ones.take(perm, axis=0, out=Xp)
        Y.take(perm, axis=0, out=Yp)
        ws.sgd_epoch(tape, epoch)
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
    with open_artifact(path, "wb") as f:
        np.savez(
            f,
            version=np.int64(_FORMAT_VERSION),
            mode=params.mode,
            layer_dims=np.asarray(params.layer_dims, dtype=np.int64),
            **arrays,
        )


def load_params(path):
    """Read parameters written by save_params. A missing array, a weight or
    bias whose shape disagrees with layer_dims, or an unknown version or
    mode raises ValueError naming the file, as does a file that is not an
    .npz archive or whose archive or members are corrupt."""
    # a bad CRC, header or seek, a short read, an unknown method, an encrypted member
    broken = (ValueError, OSError, EOFError, NotImplementedError, RuntimeError, zipfile.BadZipFile)
    with open(path, "rb") as f:  # open's own OSError names a missing file
        try:
            data = np.load(f, allow_pickle=False)
        except broken as exc:
            raise ValueError(f"{path}: not a model file ({exc})") from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not a model file (a single .npy array)")

        def array(name):
            if name not in data.files:
                raise ValueError(f"{path}: model file has no array {name!r}")
            try:  # a member without the .npy magic comes back as bytes
                return np.asarray(data[name])
            except broken as exc:
                raise ValueError(f"{path}: array {name!r} is unreadable ({exc})") from None

        version = array("version")
        if version.shape != () or version.item() != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model format version {version}")
        mode = array("mode")
        if mode.shape != () or mode.item() not in (EMBEDDING, CLASSIFIER):
            raise ValueError(f"{path}: unknown mode {mode}")
        dims = array("layer_dims")
        if dims.ndim != 1 or dims.dtype.kind not in "iu":
            raise ValueError(f"{path}: layer_dims {dims} is not a list of integers")
        layer_dims = [int(d) for d in dims]
        try:
            check_layer_dims(layer_dims)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        weights, biases = [], []
        for l, (fan_in, fan_out) in enumerate(zip(layer_dims, layer_dims[1:])):
            for name, shape, out in (
                (f"w{l}", (fan_out, fan_in), weights), (f"b{l}", (fan_out,), biases)
            ):
                a = array(name)
                if a.shape != shape or a.dtype.kind != "f":
                    raise ValueError(
                        f"{path}: {name} is {a.dtype} {a.shape}, layer_dims "
                        f"{layer_dims} need float {shape}"
                    )
                out.append(a)
    return MlpParams(layer_dims=layer_dims, weights=weights, biases=biases, mode=str(mode))
