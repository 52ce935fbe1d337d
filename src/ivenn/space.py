"""Embedding-space services: Euclidean distance, class centroids, exact
k-nearest-neighbor search by a batched scan, and silhouette clustering quality.

All structures here are immutable after construction; concurrent read-only
queries are safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def distance(a, b):
    """Euclidean distance between two vectors of equal dimension."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class CentroidSet:
    """Per-class mean embeddings plus the class sizes they were built from."""

    centroids: np.ndarray  # (class_count, dim)
    counts: np.ndarray  # (class_count,)

    @property
    def class_count(self):
        return self.centroids.shape[0]

    @property
    def dim(self):
        return self.centroids.shape[1]


def build_centroids(points, labels, class_count):
    """Arithmetic mean embedding of every class 0..class_count-1.

    Raises ValueError naming the class if any class has no examples.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if points.ndim != 2 or len(points) != len(labels):
        raise ValueError("points must be (n, dim) with one label per row")
    centroids = np.empty((class_count, points.shape[1]))
    counts = np.zeros(class_count, dtype=np.int64)
    for j in range(class_count):
        members = points[labels == j]
        if len(members) == 0:
            raise ValueError(f"class {j} has no examples; cannot build its centroid")
        centroids[j] = members.mean(axis=0)
        counts[j] = len(members)
    return CentroidSet(centroids=centroids, counts=counts)


def _check_rows(bound, what, offset=0):
    # bound[i] is a per-row bound on squared distances, or a finite multiple
    # of one, that comes out NaN or inf exactly when row i holds a NaN or inf
    # or squares past overflow
    bad = ~np.isfinite(bound)
    if bad.any():
        i = offset + int(np.argmax(bad))
        raise ValueError(f"{what} row {i} is not finite, or its squared distances overflow")


def nearest_centroid_many(cs, Q):
    """(classes (m,), distances (m,)) of the centroid nearest each row of Q,
    ties to the lowest class. ValueError names a non-finite or huge row."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != cs.dim:
        raise ValueError(f"queries have shape {Q.shape}, expected (m, {cs.dim})")
    with np.errstate(over="ignore"):  # reported as ValueError just below
        dist = np.stack([np.linalg.norm(Q - c, axis=1) for c in cs.centroids], axis=1)
    _check_rows(dist.max(axis=1), "query")
    j = np.argmin(dist, axis=1)
    return j, dist[np.arange(len(Q)), j]


def nearest_centroid(cs, q):
    """(class, distance) of the centroid nearest to q: a batch of one."""
    j, d = nearest_centroid_many(cs, np.asarray(q, dtype=float)[None])
    return int(j[0]), float(d[0])


@dataclass(frozen=True, eq=False)
class KnnIndex:
    """Labeled embeddings prepared for exact k-NN queries."""

    points: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)
    mean: np.ndarray  # (dim,)
    gram_t: np.ndarray  # (dim, n): -2 * (points - mean), transposed for the Gram product
    sqnorms: np.ndarray  # (n,) squared norms of points - mean
    radius: float  # largest norm of points - mean


def build_index(points, labels):
    """KnnIndex over embeddings and labels; ValueError names a non-finite
    or huge row."""
    points = np.ascontiguousarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("index needs a nonempty (n, dim) point array")
    if len(labels) != len(points):
        raise ValueError("points and labels length mismatch")
    # squared distances between points, and to their mean, stay below 4*max|p|^2
    _check_rows(4.0 * np.einsum("ij,ij->i", points, points), "point")
    mean = points.mean(axis=0)
    centred = points - mean
    sqnorms = np.einsum("ij,ij->i", centred, centred)
    gram_t = np.multiply(centred.T, -2.0, order="C")
    return KnnIndex(points, labels, mean, gram_t, sqnorms, float(np.sqrt(sqnorms.max())))


# Shortlist margin. With u = eps/2, a = fl(p - mean), b = fl(q - mean) and
# S = |p - mean| + |q - mean|, the Gram value s = fl(|a|^2 + b.(-2a)) plus
# the row constant |b|^2, and the oracle's d^2 (d = fl(norm(fl(p - q)))),
# each lie within (dim+4)*u*S^2 of |p - q|^2: centring errs by about 2u*S^2,
# the dot product (any order, FMA or not) by gamma_(dim+1)*S^2, the oracle
# by gamma_(dim+3)*S^2. Below the normal range a product errs by up to half
# the smallest subnormal and a sum is exact: 2*dim of those over s and d^2.
# With c = 2 for the gamma denominators and the rounding of M itself,
#     M = c*(dim+4)*(eps*(radius + |q - mean|)^2 + smallest_subnormal)
# bounds |s + |b|^2 - d^2| by 2M. If tau is a row's k-th smallest s, each of
# the oracle's top k has d^2 - |b|^2 <= tau + 2M, hence s <= tau + 4M. The
# kernel builds 4M in place as S^2*(8*(dim+4)*eps) + 8*(dim+4)*smallest_subnormal;
# both coefficients are exact, so 4M takes three roundings, as the product
# form does, and S^2 is finite exactly when 4M is.
# The scan never finds tau itself. It splits the n columns into b >= k
# contiguous blocks and takes tau' = the k-th smallest of the row's b block
# minima. Those k minima sit in k distinct columns and are all <= tau', so
# at least k values of s are <= tau', which means tau <= tau'. So the
# shortlist s <= tau' + 4M still holds the oracle's top k. With 64 blocks or
# more, tau' is close to tau and the shortlist stays short even when the
# points are stored sorted by class or by cluster.
_FLOAT = np.finfo(float)
_BLOCKS = 64  # at least this many column blocks per row, when n allows it
_CHUNK_BYTES = 1024 * 1024  # per query chunk's (rows, n) array; more costs peak memory


@functools.lru_cache(maxsize=16)
def _scan_plan(n, k):
    """(rows per query chunk, block starts, arange(rows), arange(k)) of a
    scan over n points for k neighbours; the arrays are read-only."""
    step = max(1, _CHUNK_BYTES // (8 * n))
    b = min(n, max(k, _BLOCKS))
    plan = (np.arange(b) * n // b, np.arange(step), np.arange(k))  # b distinct starts: b <= n
    for a in plan:
        a.flags.writeable = False
    return step, *plan


def knn_many(index, Q, k):
    """(distances (m, k), indices (m, k)) of the k nearest stored points to
    each row of Q, ascending. Distances are exactly np.linalg.norm(points -
    q, axis=1), ties go to insertion order. Per query chunk of at most 1 MiB
    of Gram values, the values at or below tau' + 4M (the margin comment
    above) form a row-major shortlist, reranked by that formula with the
    ufuncs np.linalg.norm runs and ordered by a stable sort on (row,
    distance). ValueError for k outside [1, n] or naming a non-finite or
    huge row."""
    n, dim = index.points.shape
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != dim:
        raise ValueError(f"queries have shape {Q.shape}, expected (m, {dim})")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    step, starts, row_ids, ranks = _scan_plan(n, k)
    eps_term = 8.0 * (dim + 4) * _FLOAT.eps
    floor_term = 8.0 * (dim + 4) * _FLOAT.smallest_subnormal
    D = np.empty((len(Q), k))
    I = np.empty((len(Q), k), dtype=np.int64)
    for lo in range(0, len(Q), step):
        chunk = Q[lo : lo + step]
        cq = chunk - index.mean
        bound = np.einsum("ij,ij->i", cq, cq)
        np.sqrt(bound, out=bound)
        bound += index.radius
        bound *= bound  # S^2
        bound *= eps_term
        bound += floor_term  # 4M, finite iff S^2 is, which keeps s finite
        if not np.isfinite(bound).all():
            _check_rows(bound, "query", lo)
        s = cq @ index.gram_t
        s += index.sqnorms
        mins = np.minimum.reduceat(s, starts, axis=1)
        mins.partition(k - 1, axis=1)
        bound += mins[:, k - 1]  # tau' + 4M
        rows, cols = np.divmod((s <= bound[:, None]).ravel().nonzero()[0], n)
        # np.linalg.norm(axis=1) is sqrt(add.reduce(x * x, axis=1)) for real x
        diff = index.points[cols]
        diff -= chunk[rows]
        diff *= diff
        d = np.sqrt(np.add.reduce(diff, axis=1))
        # rows ascend and columns ascend within a row, so a stable sort by
        # (row, d) breaks distance ties by column and leaves rows as they are
        order = np.lexsort((d, rows))
        take = order[rows.searchsorted(row_ids[: len(chunk)])[:, None] + ranks]
        d.take(take, out=D[lo : lo + step])
        cols.take(take, out=I[lo : lo + step])
    return D, I


def knn(index, q, k):
    """(distances (k,), indices (k,)) of q's k nearest points: a batch of one."""
    D, I = knn_many(index, np.asarray(q, dtype=float)[None], k)
    return D[0], I[0]


def silhouette(points, labels):
    """Mean silhouette coefficient of the labeled point set, in [-1, 1].

    Per point: s = (b - a) / max(a, b) with a the mean distance to the other
    members of its own class and b the smallest mean distance to any other
    class. Points in singleton classes contribute 0.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = len(points)
    classes = np.unique(labels)
    if n < 2 or len(classes) < 2:
        raise ValueError("silhouette needs at least 2 points across at least 2 classes")

    sq = (points**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    dmat = np.sqrt(d2)
    np.fill_diagonal(dmat, 0.0)

    masks = {int(c): labels == c for c in classes}
    scores = np.zeros(n)
    for i in range(n):
        own = int(labels[i])
        n_own = int(masks[own].sum())
        if n_own == 1:
            continue
        a = dmat[i, masks[own]].sum() / (n_own - 1)
        b = min(dmat[i, m].mean() for c, m in masks.items() if c != own)
        denom = max(a, b)
        if denom > 0:
            scores[i] = (b - a) / denom
    return float(scores.mean())
