"""Embedding-space services: class centroids (a (class_count, dim) array),
exact batched k-nearest-neighbor search over a tiled index that scans only
the tiles a query can reach, and silhouette clustering quality.

All structures here are immutable after construction; concurrent read-only
queries are safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ivenn.data import check_finite_rows, float_rows, row_labels


def build_centroids(points, labels, class_count):
    """(class_count, dim) array: row j is the arithmetic mean embedding of
    class j.

    Raises ValueError naming the class if any class has no examples.
    """
    points = float_rows(points, None, "points")
    labels = row_labels(labels, len(points), class_count)
    centroids = np.empty((class_count, points.shape[1]))
    for j in range(class_count):
        members = points[labels == j]
        if len(members) == 0:
            raise ValueError(f"class {j} has no examples; cannot build its centroid")
        centroids[j] = members.mean(axis=0)
    return centroids


def _check_rows(bound, what, offset=0):
    # bound[i] is a per-row bound on squared distances, or a finite multiple
    # of one, that comes out NaN or inf exactly when row i holds a NaN or inf
    # or squares past overflow
    bad = ~np.isfinite(bound)
    if bad.any():
        i = offset + int(np.argmax(bad))
        raise ValueError(f"{what} row {i} is not finite, or its squared distances overflow")


def nearest_centroid_many(centroids, Q):
    """(classes (m,), distances (m,)) of the row of the (class_count, dim)
    centroids nearest each row of Q, ties to the lowest class. ValueError
    names a non-finite or huge row."""
    Q = float_rows(Q, np.shape(centroids)[1], "queries")
    with np.errstate(over="ignore"):  # reported as ValueError just below
        dist = np.stack([np.linalg.norm(Q - c, axis=1) for c in centroids], axis=1)
    _check_rows(dist.max(axis=1), "query")
    j = np.argmin(dist, axis=1)
    return j, dist[np.arange(len(Q)), j]


@dataclass(frozen=True, eq=False)
class KnnIndex:
    """Labeled embeddings prepared for exact k-NN queries, packed into tiles
    of at most _TILE points. Tile slots past a tile's points are padding."""

    points: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)
    mean: np.ndarray  # (dim,)
    radius: float  # largest norm of points - mean
    # (tiles, width, dim + 2): rows -2 * (p - mean), |p - mean|^2 and 1,
    # tile-major; padding rows are 0, +inf and 1
    tile_gram: np.ndarray
    tile_ids: np.ndarray  # (tiles, width) original column ids, 0 in padding
    centre_gram: np.ndarray  # (dim + 2, tiles): columns -2 * centre, |centre|^2 and 1
    tile_radius: np.ndarray  # (tiles,) rounded-up largest |(p - mean) - centre| per tile


_TILE = 32  # points per tile at most


def build_index(points, labels):
    """KnnIndex over embeddings and labels; ValueError names a non-finite
    or huge row.

    A sort-tile pass orders the points along the top two principal axes of
    a subsample: about sqrt(tiles) slabs of whole tiles along the first,
    each sorted along the second and cut into tiles of n // tiles or
    n // tiles + 1 points, the larger tiles first."""
    points = np.ascontiguousarray(float_rows(points, None, "points"))
    if len(points) == 0:
        raise ValueError("index needs nonempty points")
    labels = row_labels(labels, len(points), None)
    # squared distances between points, and to their mean, stay below 4*max|p|^2
    _check_rows(4.0 * np.einsum("ij,ij->i", points, points), "point")
    n, dim = points.shape
    mean = points.mean(axis=0)
    tiles = -(-n // _TILE)
    small, big = divmod(n, tiles)  # big tiles hold small + 1 points
    width = -(-n // tiles)
    sizes = np.full(tiles, small)
    sizes[:big] += 1
    starts = np.concatenate(([0], np.cumsum(sizes)))
    sub = points[:: -(-n // 1024)] - mean
    along = points @ np.linalg.eigh(sub.T @ sub)[1][:, -1:-3:-1]
    ids = along[:, 0].argsort()
    slabs = math.isqrt(tiles - 1) + 1
    slab = np.repeat(np.arange(slabs), np.diff(starts[np.arange(slabs + 1) * tiles // slabs]))
    second = along[ids, -1]
    second -= second.min()
    span = second.max()
    ids = ids[(slab + second / (2 * span) if span > 0 else slab).argsort()]
    members = points.take(ids, axis=0)
    members -= mean  # tile order
    sqnorms = np.einsum("ij,ij->i", members, members)
    tile_gram = np.zeros((tiles, width, dim + 2))
    tile_gram[big:, small:, dim] = np.inf  # padding
    tile_gram[:, :, dim + 1] = 1.0  # picks up the query's |b|^2
    tile_ids = np.zeros((tiles, width), dtype=np.int64)
    centres = np.empty((tiles, dim))
    r2 = np.empty(tiles)
    cut = big * width
    for rows, part, size in (
        (slice(0, big), slice(0, cut), width), (slice(big, tiles), slice(cut, n), small)
    ):
        block = members[part].reshape(-1, size, dim)
        np.multiply(block, -2.0, out=tile_gram[rows, :size, :dim])
        tile_gram[rows, :size, dim] = sqnorms[part].reshape(-1, size)
        tile_ids[rows, :size] = ids[part].reshape(-1, size)
        centres[rows] = block.mean(axis=1)
        block -= centres[rows, None]
        r2[rows] = np.einsum("tij,tij->ti", block, block).max(axis=1, initial=0.0)
    r2 *= 1.0 + 2 * (dim + 4) * _FLOAT.eps  # rounded up: the tile bound comment
    r2 += 2 * (dim + 4) * _FLOAT.smallest_subnormal
    return KnnIndex(
        points, labels, mean, float(np.sqrt(sqnorms.max())), tile_gram, tile_ids,
        np.vstack([-2.0 * centres.T, np.einsum("ij,ij->i", centres, centres), np.ones(tiles)]),
        np.nextafter(np.sqrt(r2), np.inf),
    )


# Shortlist margin. With u = eps/2, a = fl(p - mean), b = fl(q - mean) and
# S = |p - mean| + |q - mean|, the Gram value s = fl(|a|^2 + |b|^2 +
# b.(-2a)), a dot product of dim + 2 terms (any order, FMA or not) one of
# which is the computed |b|^2, and the oracle's d^2 (d = fl(norm(fl(p -
# q)))) each lie within (2*dim+4)*u*S^2 of |p - q|^2: centring errs by
# about 2u*S^2, the dot product by gamma_(dim+2)*S^2, |b|^2 by
# gamma_dim*S^2, the oracle by gamma_(dim+3)*S^2. Below the normal range a
# product errs by up to half the smallest subnormal and a sum is exact:
# 2*dim of those in s, dim in d^2.
#     M = 2*(dim+4)*(eps*(radius + |q - mean|)^2 + smallest_subnormal)
# is 4*(dim+4)*u*S^2 plus 2*(dim+4) smallest subnormals or more, which leaves
# room for the gamma denominators and the rounding of M itself: each of s
# and d^2 lies within M/2 of |p - q|^2, so |s - d^2| <= M. If tau is a row's
# k-th smallest s, each of the oracle's top k has d^2 <= tau + M, hence
# s <= tau + 2M. The kernel's margin is E = 8M of the largest S^2 in a
# chunk of rows, built from S^2*(16*(dim+4)*eps) +
# 16*(dim+4)*smallest_subnormal; both coefficients are exact, and S^2 is
# finite exactly when E is.
# Any k columns bound tau from above: their k-th smallest s is at least
# tau. The kernel takes tau1 from the query's nearest tiles, which hold k
# points or more, and then the k-th smallest s over the tiles it scans,
# which include those; so the shortlist s <= that + E still holds the
# oracle's top k, and padding (s = +inf) never enters it.
# Tile bound. Let c be a tile's centre and r >= |a - c| for each of its a.
# Each of the oracle's top k has |p - q|^2 <= tau1 + 3M/2, and with
# x = |p - q| + u*S >= |a - b| the triangle inequality gives
# |b - c| <= r + x. The computed |b - c|^2 = fl(|c|^2 + |b|^2 + b.(-2c)), a
# dot product like s, errs by less than M/2, and with h = sqrt(tau1 + E) >= x,
#     (h + r)^2 - (r + x)^2 >= h^2 - x^2 >= 8M - 3M/2 - 3u*S^2,
# which exceeds that error plus the roundings of h and of (h + r)^2 (under
# 40 eps*S^2). So a tile whose computed |b - c|^2 exceeds fl((h + r)^2),
# that is |q - c| - r > h, holds none of the top k and is not scanned. The
# computed squared radius errs below |a - c|^2 by at most (dim+3)*u relative
# and dim half subnormals; it gains 2*(dim+4)*eps relative and 2*(dim+4)
# smallest subnormals, and its root goes up to the next float.
_FLOAT = np.finfo(float)
_CHUNK_BYTES = 1024 * 1024  # per chunk's arrays; more costs peak memory
_GROUP = 20  # queries, ordered by nearest tile, that scan one union of tiles


@functools.lru_cache(maxsize=16)
def _tile_plan(n, tiles, width, dim, k):
    """(rows per chunk, rows per group, tiles per gathered piece, nearest
    tiles that hold k points, the margin's two coefficients,
    arange(group) as a column, arange(k)) of a query over n points in
    tiles; the arrays are read-only."""
    near = min(tiles, -(-k // (n // tiles)))
    step = max(1, _CHUNK_BYTES // (16 * tiles))  # (rows, tiles) arrays, ordered copies too
    group = min(_GROUP, max(1, _CHUNK_BYTES // (8 * width * max(tiles, near * (dim + 2)))))
    per = max(1, _CHUNK_BYTES // (8 * width * (dim + 2)))
    ranges = (np.arange(group)[:, None], np.arange(k))
    for a in ranges:
        a.flags.writeable = False
    terms = (16.0 * (dim + 4) * _FLOAT.eps, 16.0 * (dim + 4) * _FLOAT.smallest_subnormal)
    return step, group, per, near, *terms, *ranges


def knn_many(index, Q, k):
    """(distances (m, k), indices (m, k)) of the k nearest stored points to
    each row of Q, ascending. Distances are exactly np.linalg.norm(points -
    q, axis=1), ties go to insertion order. A batch of at most one group
    (20 rows; a single query is a batch of one) is one group, and its
    arrays are the result. A longer batch goes in chunks, each ordered by
    nearest tile and cut into groups, so that a group's rows share tiles:
    on a 2520-row batch this ordering halves the time. In a group, the Gram
    values of each row's nearest tiles bound its k-th distance, and the
    union of the rows' reachable tiles is scanned in one matmul while it
    fits in _CHUNK_BYTES (the margin comment above). There the values at or
    below each row's k-th smallest + E form a row-major shortlist, reranked
    by that formula with the ufuncs np.linalg.norm runs and ordered by
    (row, distance, column). ValueError for k outside [1, n] or naming a
    non-finite or huge row."""
    n, dim = index.points.shape
    Q = float_rows(Q, dim, "queries")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    plan = _tile_plan(n, *index.tile_ids.shape, dim, k)
    step, group = plan[:2]
    if 0 < len(Q) <= group:  # one group, a single query among them
        return _knn_group(index, Q, *_knn_prepare(index, Q, 0, plan), k, plan)
    D = np.empty((len(Q), k))
    I = np.empty((len(Q), k), dtype=np.int64)
    for lo in range(0, len(Q), step):
        chunk = Q[lo : lo + step]
        cq, cs, nearest, margin = _knn_prepare(index, chunk, lo, plan)
        order = nearest[:, 0].argsort(kind="stable")  # so that a group's rows share tiles
        chunk, cq, cs, nearest = (x.take(order, axis=0) for x in (chunk, cq, cs, nearest))
        Dc = np.empty((len(chunk), k))
        Ic = np.empty((len(chunk), k), dtype=np.int64)
        for a in range(0, len(chunk), group):
            g = slice(a, a + group)
            Dc[g], Ic[g] = _knn_group(index, chunk[g], cq[g], cs[g], nearest[g], margin, k, plan)
        D[lo + order], I[lo + order] = Dc, Ic
    return D, I


def _knn_prepare(index, chunk, lo, plan):
    # (cq, |b - c|^2, nearest tiles, E) of the nonempty rows lo.. of Q: cq
    # holds each row's b, 1 and |b|^2, and |b - c|^2 its squared distance to
    # every tile centre
    near, eps_term, floor_term = plan[3:6]
    dim = chunk.shape[1]
    cq = np.empty((len(chunk), dim + 2))
    cq[:, dim] = 1.0  # picks up |a|^2 from the operands
    b = np.subtract(chunk, index.mean, cq[:, :dim])
    sq = np.einsum("ij,ij->i", b, b)  # |b|^2
    margin = math.sqrt(np.maximum.reduce(sq)) + index.radius
    margin = margin * margin * eps_term + floor_term  # E of the chunk's largest S^2
    if not math.isfinite(margin):
        bound = np.sqrt(sq) + index.radius
        _check_rows(bound * bound, "query", lo)
    cq[:, dim + 1] = sq  # picked up by the operands' 1
    cs = cq @ index.centre_gram
    if near == 1:
        nearest = cs.argmin(axis=1)[:, None]
    else:
        nearest = cs.argpartition(near - 1, axis=1)[:, :near]
    return cq, cs, nearest, margin


def _knn_group(index, q, cq, cs, nearest, margin, k, plan):
    # knn_many on a group of rows: tau1 from their nearest tiles, one scan
    # of the union of their reachable tiles, then the exact rerank
    _, _, per, _, _, _, starts, ranks = plan
    m = len(cq)
    s = index.tile_gram.take(nearest, axis=0).reshape(m, -1, cq.shape[1])
    s = np.matmul(s, cq[:, :, None])[:, :, 0]
    s.partition(k - 1, axis=1)
    h = np.sqrt(s[:, k - 1 : k] + margin)  # of tau1 + E
    lim = np.square(h + index.tile_radius)
    kept = np.logical_or.reduce(cs <= lim, axis=0).nonzero()[0]
    if len(kept) <= per:
        s = cq @ index.tile_gram.take(kept, axis=0).reshape(-1, cq.shape[1]).T
    else:  # gathering at most _CHUNK_BYTES of tiles at a time
        s = np.concatenate([
            cq @ index.tile_gram.take(kept[i : i + per], axis=0).reshape(-1, cq.shape[1]).T
            for i in range(0, len(kept), per)
        ], axis=1)
    tau = s.copy()
    tau.partition(k - 1, axis=1)
    tau = tau[:, k - 1 : k] + margin  # tau + E
    at, cols = np.divmod((s <= tau).ravel().nonzero()[0], s.shape[1])
    cols = index.tile_ids.take(kept, axis=0).take(cols)
    # np.linalg.norm(axis=1) is sqrt(add.reduce(x * x, axis=1)) for real x
    diff = index.points.take(cols, axis=0)
    diff -= q.take(at, axis=0)
    diff *= diff
    d = np.sqrt(np.add.reduce(diff, axis=1))
    # tile-major columns do not ascend within a row, so the column is a key too
    take = np.lexsort((cols, d, at))
    take = take.take(at.searchsorted(starts[:m]) + ranks)
    return d.take(take), cols.take(take)


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
    points = float_rows(points, None, "points")
    labels = row_labels(labels, len(points), None)
    check_finite_rows(points, "point")
    n = len(points)
    classes, own = np.unique(labels, return_inverse=True)
    if n < 2 or len(classes) < 2:
        raise ValueError("silhouette needs at least 2 points across at least 2 classes")

    sq = (points**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    dmat = np.sqrt(d2)
    np.fill_diagonal(dmat, 0.0)

    member = np.eye(len(classes))[own]  # (n, classes) one-hot
    sums = dmat @ member  # each point's summed distance to each class
    sizes = member.sum(axis=0)
    rows = np.arange(n)
    peers = sizes[own] - 1
    a = sums[rows, own] / np.maximum(peers, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(n), where=(peers > 0) & (denom > 0))
    return float(scores.mean())
