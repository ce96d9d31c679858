"""Window-based classical detectors: k-means, DBSCAN, LOF, isolation
forest, one-class SVM and gradient-boosted trees.

All of them consume sliding subsequences, read-only strided views of the
series that scoring copies one row block at a time; a window's score lands
on its final timestamp, and the windows of the first test points reach back
into the train tail.  The boosted-tree detector is the exception: it
forecasts the observation after each window, like the statistical family.
Neighbor searches are exact brute force, which keeps every detector
oracle-testable.  Every blocked distance loop (k-means scoring, DBSCAN,
LOF and the one-class SVM's fit and scoring) runs through one iterator,
_distance_blocks, which yields one row block of squared distances at a
time in one reused buffer.  So LOF, DBSCAN and the one-class SVM cost
O(m^2) time in the m training windows but hold O(block + m*(k + d))
memory for k neighbours of width-d windows; no distance block grows past
_MAX_PAIRWISE_ENTRIES entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import (
    Derived,
    DetectorConfig,
    TimeSeries,
    frame,
    resolve,
    subsequences,
    with_lookback,
)
from ..errors import (
    DimensionMismatch,
    DistanceMatrixTooLarge,
    InvalidHyperparameter,
    NoCorePoints,
    NonFiniteValues,
    NumericalDivergence,
    TooFewWindows,
)

__all__ = [
    "KMeansModel",
    "DbscanModel",
    "LofModel",
    "IsoForest",
    "OcSvmModel",
    "GbtModel",
    "kmeans_fit",
    "kmeans_score",
    "dbscan_fit",
    "dbscan_score",
    "lof_score",
    "iforest_fit",
    "iforest_score",
    "ocsvm_fit",
    "ocsvm_score",
    "gbt_fit",
    "gbt_score",
]

# Largest distance matrix _pairwise_sq builds: 2**27 float64 entries, 1 GiB.
_MAX_PAIRWISE_ENTRIES = 2**27
_KDIST_FLOOR = 1e-12
# Row blocks hold about this many entries: the distance blocks of
# _distance_blocks, and the dense nets' scoring layer outputs.
_BLOCK_ENTRIES = 2**16
# _pairwise_sq adds the squared norms through a scratch of about this many
# entries (64 KiB).  Under glibc malloc's default 128 KiB mmap threshold,
# the heap hands the same memory back on every call; a block-sized scratch
# can be mapped afresh and faulted in page by page on every block.
_SCRATCH_ENTRIES = 2**13
# LOF expands neighbour lists in chunks of at most _LOF_CHUNK_ENTRIES entries.
_LOF_CHUNK_ENTRIES = 2**16
_OCSVM_TOL = 1e-4
_OCSVM_MAX_ITER = 100000
# L2 penalty on boosted leaf weights (XGBoost's lambda, Chen & Guestrin 2016).
_GBT_LAMBDA = 1.0


def _block_height(cols: int, entries: Optional[int] = None) -> int:
    """Rows in a block of about ``entries`` (default _BLOCK_ENTRIES)
    entries, at least one."""
    return max(1, (entries or _BLOCK_ENTRIES) // max(cols, 1))


def _row_blocks(rows: int, cols: int, entries: Optional[int] = None):
    """Slices of consecutive rows of a rows x cols matrix, each block about
    ``entries`` (default _BLOCK_ENTRIES) entries and at least one row."""
    step = _block_height(cols, entries)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _window_blocks(windows: np.ndarray, cols: int):
    """``(rows, block)`` over consecutive rows of ``windows``, ``block`` a
    C-contiguous ``windows[rows]``: BLAS gets the same contiguous rows a
    whole copy gave it.  Rows of a C-contiguous ``windows`` are yielded as
    views; a strided window view is copied one block at a time into one
    buffer, which the next block overwrites, so a caller is done with a
    block before it asks for the next, and no two copies are alive at once.
    A block holds about _BLOCK_ENTRIES entries of the rows x cols result it
    feeds, or of itself when the windows are wider."""
    buffer = None
    for rows in _row_blocks(windows.shape[0], max(cols, windows.shape[1])):
        block = windows[rows]
        if not block.flags.c_contiguous:
            if buffer is None:  # the first block is the tallest
                buffer = np.empty_like(block, order="C")
            copy = buffer[: block.shape[0]]
            copy[...] = block
            block = copy
        yield rows, block


def _without_self(sq: np.ndarray, lo: int) -> np.ndarray:
    """Square roots, in place, of the squared distances ``sq`` of rows lo,
    lo + 1, ... of a row set to the whole set, each row's own entry inf."""
    np.sqrt(sq, out=sq)
    own = np.arange(sq.shape[0])
    sq[own, lo + own] = np.inf
    return sq


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous float64 matrix as one np.void of its bytes."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _check_windows(windows: np.ndarray) -> None:
    """Raise DimensionMismatch unless ``windows`` is a matrix, one window per row."""
    if np.ndim(windows) != 2:
        raise DimensionMismatch(f"windows must be two-dimensional, got shape {np.shape(windows)}")


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _pairwise_sq(
    a: np.ndarray,
    b: np.ndarray,
    bb: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared Euclidean distances between row sets, clipped at zero.

    The result is the only matrix built: it starts as ``a @ b.T`` (one BLAS
    call, a symmetric syrk when ``b is a``), and the squared norms are added
    into it through a scratch of about _SCRATCH_ENTRIES entries.
    ``(-2g) + (aa + bb)`` is bit for bit ``aa + bb - 2g``.  ``bb``, when
    given, is ``_sq_norms(b)``, for callers that measure many row sets
    against one ``b``.  ``out``, when given, is a C-contiguous float64
    array of at least len(a) rows of len(b) entries; the distances fill its
    first len(a) rows, so a block loop can reuse one buffer.  Raises
    DistanceMatrixTooLarge before building more than _MAX_PAIRWISE_ENTRIES
    entries, and NonFiniteValues when the distances overflow, as they do
    for windows of values near 1e200; the overflow leaves inf or NaN, which
    ``max`` propagates.
    """
    if a.shape[0] * b.shape[0] > _MAX_PAIRWISE_ENTRIES:
        raise DistanceMatrixTooLarge(
            f"{a.shape[0]} x {b.shape[0]} distance matrix exceeds "
            f"{_MAX_PAIRWISE_ENTRIES} entries"
        )
    aa = _sq_norms(a)
    if bb is None:
        bb = _sq_norms(b)
    sq = np.matmul(a, b.T, out=None if out is None else out[: a.shape[0]])
    sq *= -2.0
    for rows in _row_blocks(*sq.shape, _SCRATCH_ENTRIES):
        sq[rows] += aa[rows, None] + bb[None, :]
    np.maximum(sq, 0.0, out=sq)
    if not np.isfinite(sq.max(initial=0.0)):
        raise NonFiniteValues("pairwise window distances overflow")
    return sq


def _distance_blocks(queries: np.ndarray, reference: np.ndarray):
    """``(rows, block, sq)`` over ``_window_blocks(queries, len(reference))``,
    ``sq`` the ``_pairwise_sq`` of ``block`` to ``reference``.

    The reference norms are computed once, and every ``sq`` is written into
    one buffer that the next block overwrites, as a strided ``block`` is, so
    a caller is done with a block and its distances before it asks for the
    next: k-means, DBSCAN, LOF and the one-class SVM all reduce each block
    to rows of their output inside the loop.  Reusing one buffer,
    instead of building a block-sized array on every block, keeps glibc
    malloc from returning those pages and faulting them in again."""
    norms = _sq_norms(reference)
    work = None
    for rows, block in _window_blocks(queries, reference.shape[0]):
        if work is None:  # the first block is the tallest
            work = np.empty((block.shape[0], reference.shape[0]))
        yield rows, block, _pairwise_sq(block, reference, norms, work)


# ---------------------------------------------------------------------------
# Subsequence k-means


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray
    inertia: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.centroids)):
            raise ValueError("centroids must be finite")

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])


def kmeans_fit(windows: np.ndarray, k: int, seed: int = 0) -> KMeansModel:
    """Lloyd iterations from distance-weighted seeding until the assignment
    stops changing (at most 300 rounds); empty clusters keep their centroid.
    Only rounding can make a round raise the inertia, as it does when the
    windows lie far from the origin; that raises NumericalDivergence."""
    _check_windows(windows)
    if k < 1:
        raise InvalidHyperparameter(f"k-means needs k >= 1 centroids, got k={k}")
    m = windows.shape[0]
    if m < k:
        raise TooFewWindows(f"k-means needs at least k={k} windows, got {m}")
    windows = np.ascontiguousarray(windows)
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, windows.shape[1]))
    centroids[0] = windows[rng.integers(m)]
    d2 = _pairwise_sq(windows, centroids[:1])[:, 0]
    for i in range(1, k):
        # Finite distances can still sum past the largest float.
        with np.errstate(over="ignore"):
            total = d2.sum()
        if not math.isfinite(total):
            raise NonFiniteValues("k-means seeding distances overflow")
        if total > 0.0:
            choice = rng.choice(m, p=d2 / total)
        else:
            choice = rng.integers(m)
        centroids[i] = windows[choice]
        d2 = np.minimum(d2, _pairwise_sq(windows, centroids[i : i + 1])[:, 0])

    assignment = None
    inertia = math.inf
    for round_ in range(300):
        d2 = _pairwise_sq(windows, centroids)
        new_assignment = d2.argmin(axis=1)
        new_inertia = float(d2[np.arange(m), new_assignment].sum())
        if not new_inertia <= inertia * (1.0 + 1e-12) + 1e-9:
            raise NumericalDivergence(round_, f"k-means inertia rose from {inertia} to {new_inertia}")
        inertia = new_inertia
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(k):
            members = windows[assignment == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    return KMeansModel(centroids=centroids.copy(), inertia=inertia)


def kmeans_score(model: KMeansModel, windows: np.ndarray) -> np.ndarray:
    """Euclidean distance to the nearest centroid, assigned to the window end."""
    _check_windows(windows)
    d = np.empty(windows.shape[0])
    for rows, _, sq in _distance_blocks(windows, model.centroids):
        d[rows] = sq.min(axis=1)
    return np.sqrt(d, out=d)


# ---------------------------------------------------------------------------
# DBSCAN-derived distance-to-core scoring


@dataclass(frozen=True)
class DbscanModel:
    epsilon: float
    core_points: np.ndarray


def dbscan_fit(windows: np.ndarray, epsilon: float, mu: int) -> DbscanModel:
    """Find the training windows whose epsilon-neighborhood (self excluded)
    holds at least mu points."""
    _check_windows(windows)
    if mu < 1:
        raise InvalidHyperparameter(f"mu must be >= 1, got {mu}")
    if not 0.0 < epsilon < math.inf:  # also rejects nan
        raise InvalidHyperparameter(f"epsilon must be positive and finite, got {epsilon}")
    windows = np.ascontiguousarray(windows)
    m = windows.shape[0]
    eps2 = epsilon * epsilon
    counts = np.empty(m, dtype=np.intp)
    for rows, _, sq in _distance_blocks(windows, windows):
        within = sq <= eps2
        own = np.arange(within.shape[0])
        counts[rows] = within.sum(axis=1) - within[own, rows.start + own]
    core_mask = counts >= mu
    if not core_mask.any():
        raise NoCorePoints(
            f"no training window has {mu} neighbors within epsilon={epsilon}"
        )
    return DbscanModel(epsilon=epsilon, core_points=windows[core_mask])


def dbscan_score(model: DbscanModel, windows: np.ndarray) -> np.ndarray:
    """Distance to the nearest training core point; 0 inside its epsilon ball.

    Each row block of query-to-core distances is reduced to its row minima.
    The square root of each row's minimum equals the minimum of the row's
    square roots, because sqrt is monotone and correctly rounded."""
    _check_windows(windows)
    d = np.empty(windows.shape[0])
    for rows, _, sq in _distance_blocks(windows, model.core_points):
        d[rows] = sq.min(axis=1)
    np.sqrt(d, out=d)
    return np.where(d <= model.epsilon, 0.0, d)


# ---------------------------------------------------------------------------
# Local outlier factor


@dataclass(frozen=True)
class LofModel:
    """Reference windows with the precomputed structures for exact queries.

    Fit computes the Euclidean distances between reference windows one row
    block of ``fit_rows`` rows at a time and keeps, per window, only its
    k-distance, its runner-up (k-1) distance and its neighbourhood
    {x : d(y, x) <= kdist[y]} as CSR lists (``nbr_ptr``, ``nbr_idx`` in
    ascending order, ``nbr_dist``).  A query can only shrink a k-distance,
    so y's neighbourhood in reference union {query} is a subset of its
    cached list, and scoring costs O(m) per query plus O(k) per neighbour.
    ``row_order`` lists the reference rows sorted by their bytes (stable,
    so equal rows keep their order), one int64 per row, for the duplicate
    rule in ``_score_block``; the fit folds -0.0 into 0.0 in the stored
    windows first, so equal values have equal bytes.
    """

    k_neighbors: int
    reference_windows: np.ndarray
    fit_rows: int = field(init=False, repr=False)
    kdist: np.ndarray = field(init=False, repr=False)
    kdist_prev: np.ndarray = field(init=False, repr=False)
    nbr_ptr: np.ndarray = field(init=False, repr=False)
    nbr_idx: np.ndarray = field(init=False, repr=False)
    nbr_dist: np.ndarray = field(init=False, repr=False)
    row_order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        windows = np.ascontiguousarray(self.reference_windows, dtype=np.float64)
        # Fold -0.0 into 0.0, so that the rows' bytes match the folded
        # queries of _duplicates; copy only when a -0.0 is there.  The fold
        # moves no distance: in (-2g) + (aa + bb) of _pairwise_sq a signed
        # zero can only flip the sign of a zero g, which aa + bb > 0 then
        # absorbs, and two all-zero rows give (-0.0 or 0.0) + 0.0 = 0.0.
        if np.signbit(windows[windows == 0.0]).any():
            windows = windows + 0.0
        m = windows.shape[0]
        k = self.k_neighbors
        if not (1 <= k < m):
            raise TooFewWindows(f"need k_neighbors < m reference windows, got k={k}, m={m}")
        object.__setattr__(self, "reference_windows", windows)
        kdist = np.empty(m)
        kdist_prev = np.zeros(m)
        owners, cols, dists = [], [], []
        for rows, _, d in _distance_blocks(windows, windows):
            _without_self(d, rows.start)
            part = np.partition(d, (k - 1, max(k - 2, 0)), axis=1)
            kdist[rows] = np.maximum(part[:, k - 1], _KDIST_FLOOR)
            if k >= 2:
                kdist_prev[rows] = part[:, k - 2]
            del part  # a block-sized copy: free it before the next block's
            flat = np.flatnonzero(d <= kdist[rows, None])
            r, c = np.divmod(flat, m)
            owners.append(r + rows.start)
            cols.append(c)
            dists.append(d.ravel().take(flat))
        owners = np.concatenate(owners)
        for name, value in (
            # Every block's slice spans the block height.
            ("fit_rows", rows.stop - rows.start),
            ("kdist", kdist),
            ("kdist_prev", kdist_prev),
            ("nbr_ptr", np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=m))))),
            ("nbr_idx", np.concatenate(cols)),
            ("nbr_dist", np.concatenate(dists)),
            ("row_order", np.argsort(_row_keys(windows), kind="stable")),
        ):
            object.__setattr__(self, name, value)

    def _fit_distances(self, lo: int) -> np.ndarray:
        """The fit's row block starting at reference row ``lo``: distances of
        rows lo .. lo + fit_rows to every reference window, own entries inf,
        bit for bit as the fit computed them."""
        windows = self.reference_windows
        return _without_self(_pairwise_sq(windows[lo : lo + self.fit_rows], windows), lo)

    def query(self, window: np.ndarray) -> float:
        """Exact LOF of the window against reference union {window}."""
        return float(self.scores(np.asarray(window, dtype=np.float64).reshape(1, -1))[0])

    def scores(self, windows: np.ndarray) -> np.ndarray:
        """Exact LOF of each row against reference union {row}, in row blocks."""
        windows = np.asarray(windows, dtype=np.float64)
        out = np.empty(windows.shape[0])
        for rows, block, dq in _distance_blocks(windows, self.reference_windows):
            out[rows] = self._score_block(block, dq)
        return out

    def _duplicates(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(r, i)``: block row r equals reference row i and no earlier
        reference row, rows compared by their bytes once -0.0 is folded
        into 0.0 (so -0.0 equals 0.0, as under ``==``).

        One ``searchsorted`` over the row keys in ``row_order`` finds each
        block row's lower bound, the first of its equal rows if it has one."""
        keys, order = _row_keys(self.reference_windows), self.row_order
        queries = _row_keys(block + 0.0)
        first = order[np.minimum(np.searchsorted(keys, queries, sorter=order), order.size - 1)]
        hit = keys[first] == queries
        return np.flatnonzero(hit), first[hit]

    def _joined_kdist(self, dq: np.ndarray, x: np.ndarray) -> np.ndarray:
        """k-distances of reference windows x once a query at distances dq
        joins the set: the query displaces the old k-th neighbour when it
        lands closer."""
        kdist = self.kdist[x]
        joined = np.where(dq >= kdist, kdist, np.maximum(self.kdist_prev[x], dq))
        return np.maximum(joined, _KDIST_FLOOR)

    def _score_block(self, block: np.ndarray, dq: np.ndarray) -> np.ndarray:
        """LOF of each block row from ``dq``, the block's squared distances to
        the reference windows, which it overwrites."""
        k, m = self.k_neighbors, self.kdist.size
        np.sqrt(dq, out=dq)
        dup, ref = self._duplicates(block)
        # A duplicated reference row must see the fit's distances bit for
        # bit, or ties exactly at a k-distance boundary resolve differently
        # here than they did in the fit: recompute each fit block it needs.
        h = self.fit_rows
        for lo in sorted(set((ref - ref % h).tolist())):
            inside = (ref >= lo) & (ref < lo + h)
            dq[dup[inside]] = self._fit_distances(lo)[ref[inside] - lo]
        dq[dup, ref] = 0.0
        kdist_q = np.maximum(np.partition(dq, k - 1, axis=1)[:, k - 1], _KDIST_FLOOR)

        # (query, y) pairs with y in the query's neighbourhood, query-major.
        flat = np.flatnonzero(dq <= kdist_q[:, None])
        pq, py = np.divmod(flat, m)
        dq = dq.ravel()
        dq_pair = dq.take(flat)
        bound = self._joined_kdist(dq_pair, py)
        # y's reachability sum and count over its neighbours x, gathered from
        # its cached list in chunks of at most _LOF_CHUNK_ENTRIES entries
        # (a pair's list is at most m long, so a chunk holds at least one).
        total = np.empty(pq.size)
        count = np.empty(pq.size)
        lengths = self.nbr_ptr[py + 1] - self.nbr_ptr[py]
        ends = np.cumsum(lengths)
        starts = ends - lengths
        lo = 0
        while lo < pq.size:
            hi = max(int(np.searchsorted(ends, starts[lo] + _LOF_CHUNK_ENTRIES, "right")), lo + 1)
            span = lengths[lo:hi]
            pair = np.repeat(np.arange(hi - lo), span)
            shift = self.nbr_ptr[py[lo:hi]] - (starts[lo:hi] - starts[lo])
            entry = np.arange(ends[hi - 1] - starts[lo]) + np.repeat(shift, span)
            dist = self.nbr_dist[entry]
            inside = dist <= bound[lo:hi][pair]
            pair, dist = pair[inside], dist[inside]
            x = self.nbr_idx[entry[inside]]
            rd = np.maximum(self._joined_kdist(dq.take(pq[lo:hi][pair] * m + x), x), dist)
            total[lo:hi] = np.bincount(pair, weights=rd, minlength=hi - lo)
            count[lo:hi] = np.bincount(pair, minlength=hi - lo)
            lo = hi
        # The query itself is one of y's neighbours when it lies within y's
        # updated k-distance.
        own = dq_pair <= bound
        total[own] += np.maximum(kdist_q[pq[own]], dq_pair[own])
        count[own] += 1.0
        lrds = count / total

        size = np.bincount(pq, minlength=block.shape[0])
        rd_query = np.bincount(pq, weights=np.maximum(bound, dq_pair), minlength=block.shape[0])
        lrd_query = size / rd_query
        return np.bincount(pq, weights=lrds, minlength=block.shape[0]) / size / lrd_query


def lof_score(reference: np.ndarray, query_window, k: int) -> float:
    """LOF of one query window against the reference windows, one per row."""
    model = LofModel(k_neighbors=k, reference_windows=reference)
    return model.query(np.asarray(query_window, dtype=np.float64))


# ---------------------------------------------------------------------------
# Array-backed binary trees (shared by the isolation forest and boosting)


@dataclass(frozen=True)
class _Tree:
    """Binary tree stored as parallel node arrays; node 0 is the root.

    A row goes left when ``row[feature] < threshold`` and right otherwise,
    so ties go right.  Leaves point to themselves, which lets ``apply``
    descend a fixed ``depth`` levels for every row at once.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int

    @property
    def is_leaf(self) -> np.ndarray:
        return self.left == np.arange(self.left.size)

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Value of the leaf each row of ``data`` lands in."""
        rows = np.arange(data.shape[0])
        node = np.zeros(data.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = data[rows, self.feature[node]] < self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


def _grow_tree(data: np.ndarray, depth_cap: int, split_rule, leaf_value) -> _Tree:
    """Grow depth first, left before right, so node ids (and leaves) follow
    growth order.

    ``split_rule(data, idx)`` returns ``(feature, threshold)`` or None for a
    leaf; it is only asked below ``depth_cap`` and for at least two rows.
    ``leaf_value(idx, depth)`` gives the value stored at a leaf.

    The pending nodes sit on an explicit stack, right child below left, so
    a node's left child is the next node grown.  A nested function that
    called itself would hold itself through its closure cell: that cycle
    would keep ``data`` and the fit's split state (the closures and what
    they hold) alive until a full cyclic collection, long after the fit.
    """
    nodes: list = []
    depth_reached = 0
    # (rows, depth, id of the node whose right child this is, or -1)
    stack = [(np.arange(data.shape[0]), 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        nid = len(nodes)
        if parent >= 0:
            nodes[parent][3] = nid
        split = split_rule(data, idx) if depth < depth_cap and idx.size >= 2 else None
        if split is None:
            nodes.append((0, 0.0, nid, nid, leaf_value(idx, depth)))
            depth_reached = max(depth_reached, depth)
            continue
        feature, threshold = split
        nodes.append([feature, threshold, nid + 1, None, 0.0])
        mask = data[idx, feature] < threshold
        stack.append((idx[~mask], depth + 1, nid))
        stack.append((idx[mask], depth + 1, -1))
    feature, threshold, left, right, value = zip(*nodes)
    return _Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        depth=depth_reached,
    )


# ---------------------------------------------------------------------------
# Isolation forest


@dataclass(frozen=True)
class IsoForest:
    """Isolation trees whose leaves hold the path length depth + c(size)."""

    trees: tuple
    subsample: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _harmonic(n: int) -> np.ndarray:
    """H(0..n) as exact partial sums."""
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
    return out


def _avg_path(n: int, harmonics: np.ndarray) -> float:
    """Average unsuccessful-search path length c(n) of a binary search tree."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * harmonics[n - 1] - 2.0 * (n - 1) / n


def iforest_fit(windows: np.ndarray, n_trees: int, seed: int = 0) -> IsoForest:
    """Build n_trees isolation trees on subsamples of at most 256 windows."""
    _check_windows(windows)
    m = windows.shape[0]
    if m < 2:
        raise TooFewWindows(f"isolation forest needs at least 2 windows, got {m}")
    if n_trees < 1:
        raise InvalidHyperparameter("need n_trees >= 1 built trees")
    subsample = min(256, m)
    depth_cap = math.ceil(math.log2(subsample))
    harmonics = _harmonic(subsample)
    rng = np.random.default_rng(seed)

    def random_split(data: np.ndarray, idx: np.ndarray):
        feature = int(rng.integers(data.shape[1]))
        column = data[idx, feature]
        lo, hi = float(column.min()), float(column.max())
        if lo == hi:
            return None
        if not math.isfinite(hi - lo):
            raise NonFiniteValues(f"window values span [{lo}, {hi}], a range that overflows")
        return feature, float(rng.uniform(lo, hi))

    def path_length(idx: np.ndarray, depth: int) -> float:
        return depth + _avg_path(idx.size, harmonics)

    trees = []
    for _ in range(n_trees):
        chosen = rng.choice(m, size=subsample, replace=False)
        trees.append(_grow_tree(windows[chosen], depth_cap, random_split, path_length))
    return IsoForest(trees=tuple(trees), subsample=subsample)


def iforest_score(model: IsoForest, windows: np.ndarray) -> np.ndarray:
    """S(x) = 2^(-E(path length)/c(subsample)); deeper isolation scores lower."""
    _check_windows(windows)
    paths = np.zeros(windows.shape[0])
    for tree in model.trees:
        paths += tree.apply(windows)
    expected = paths / model.n_trees
    return np.power(2.0, -expected / _avg_path(model.subsample, _harmonic(model.subsample)))


# ---------------------------------------------------------------------------
# One-class SVM


@dataclass(frozen=True)
class OcSvmModel:
    support_vectors: np.ndarray
    dual_coeffs: np.ndarray
    rho: float
    rbf_gamma: float
    converged: bool

    def __post_init__(self):
        vectors, coeffs = self.support_vectors, self.dual_coeffs
        if vectors.shape[0] != coeffs.size or vectors.shape[0] < 1:
            raise ValueError("support vectors and dual coefficients must align")
        if np.any(coeffs < -1e-12) or abs(coeffs.sum() - 1.0) > 1e-6:
            raise ValueError("dual coefficients must be non-negative and sum to 1")


def ocsvm_fit(windows: np.ndarray, nu: float, rbf_gamma: Optional[float] = None) -> OcSvmModel:
    """Solve the nu-one-class dual by most-violating-pair coordinate updates.

    Constraints: each alpha_i in [0, 1/(nu*m)], sum alpha_i = 1.  Stops when
    the largest KKT violation falls below _OCSVM_TOL, or after
    _OCSVM_MAX_ITER updates.  No kernel matrix is kept: the starting
    gradient is summed one row block at a time, and each update computes
    the two kernel rows it reads (as LIBSVM's solver does, Chang & Lin,
    ACM TIST 2011).
    """
    _check_windows(windows)
    m = windows.shape[0]
    if m < 2:
        raise TooFewWindows(f"one-class SVM needs at least 2 windows, got {m}")
    if not (0.0 < nu <= 1.0):
        raise InvalidHyperparameter(f"nu must lie in (0, 1], got {nu}")
    if rbf_gamma is not None and not rbf_gamma > 0.0:  # also rejects nan
        raise InvalidHyperparameter(f"rbf_gamma must be positive, got {rbf_gamma}")
    windows = np.ascontiguousarray(windows)
    gamma = 1.0 / windows.shape[1] if rbf_gamma is None else rbf_gamma

    box = 1.0 / (nu * m)
    alpha = np.zeros(m)
    full = int(math.floor(nu * m))
    alpha[:full] = box
    if full < m:
        alpha[full] = 1.0 - full * box
    gradient = np.empty(m)
    for rows, _, kernel in _distance_blocks(windows, windows):
        kernel *= -gamma
        gradient[rows] = np.exp(kernel, out=kernel) @ alpha

    norms = _sq_norms(windows)
    converged = False
    for _ in range(_OCSVM_MAX_ITER):
        can_down = alpha > 1e-12
        can_up = alpha < box - 1e-12
        i = int(np.where(can_down, gradient, -np.inf).argmax())
        j = int(np.where(can_up, gradient, np.inf).argmin())
        gap = gradient[i] - gradient[j]
        if gap < _OCSVM_TOL:
            converged = True
            break
        total = alpha[i] + alpha[j]
        kernel = _pairwise_sq(windows[[i, j]], windows, norms)
        kernel *= -gamma
        k_i, k_j = np.exp(kernel, out=kernel)
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
    return OcSvmModel(
        support_vectors=windows[keep],
        dual_coeffs=alpha[keep],
        rho=rho,
        rbf_gamma=gamma,
        converged=converged,
    )


def ocsvm_score(model: OcSvmModel, windows: np.ndarray) -> np.ndarray:
    """rho - sum_i alpha_i K(sv_i, x): positive outside the learned boundary.

    The test-by-support-vector kernel is built one row block at a time."""
    _check_windows(windows)
    scores = np.empty(windows.shape[0])
    for rows, _, kernel in _distance_blocks(windows, model.support_vectors):
        kernel *= -model.rbf_gamma
        np.exp(kernel, out=kernel)
        scores[rows] = model.rho - kernel @ model.dual_coeffs
    return scores


# ---------------------------------------------------------------------------
# Gradient-boosted regression trees


@dataclass(frozen=True)
class GbtModel:
    """Additive ensemble minimizing squared error with second-order splits.

    Regularizer per tree: 0.5 * _GBT_LAMBDA * ||w||^2.
    ``base_score`` is the constant prediction boosting starts from and
    ``loss_history`` records the regularized train loss after every round.
    """

    trees: tuple
    learning_rate: float
    base_score: float
    loss_history: tuple


class _PresortedColumns:
    """Per-fit state of the split search (presorted columns, Chen & Guestrin
    2016), built once and shared by every node of every round.

    Row f of ``order`` is feature f's stable argsort of the training rows.
    Only features that hold a tie need their sorted values at a node, to
    forbid a split between equal values; ``tied`` selects them, as a basic
    slice when every feature holds one so that nothing is copied.
    ``lambda_plus[k]`` is k + lambda.  ``gains``, ``right`` and ``equal``
    are flat scratch, so that a node's d x n arrays are contiguous: numpy
    runs a contiguous operation as one loop, a strided one row by row.
    """

    def __init__(self, data: np.ndarray):
        rows, d = data.shape
        self.data = data
        self.order = np.argsort(data.T, axis=1, kind="stable")
        self.sorted_vals = np.take_along_axis(data.T, self.order, axis=1)
        has_tie = (self.sorted_vals[:, 1:] == self.sorted_vals[:, :-1]).any(axis=1)
        self.any_tied = bool(has_tie.any())
        self.tied = slice(None) if has_tie.all() else np.flatnonzero(has_tie)
        self.tied_vals = self.sorted_vals[self.tied]
        self.lambda_plus = np.arange(rows + 1, dtype=np.float64) + _GBT_LAMBDA
        self.gains = np.empty(d * rows)
        self.right = np.empty(d * rows)
        self.equal = np.empty(d * rows, dtype=bool)
        self.features = np.arange(d)


def _gbt_best_split(cols: _PresortedColumns, g: np.ndarray, idx: np.ndarray):
    """Best (feature, split) over all features for one node, or None; h_i = 1.

    Node index sets are ascending, so the node's rows in ``cols.order[f]``
    are the stable sort of its values of f; the root takes ``order`` as it
    is.  The first feature of largest gain wins if that gain is > 0."""
    order, tied_vals = cols.order, cols.tied_vals
    d, n = order.shape[0], idx.size
    if n < order.shape[1]:
        member = np.zeros(order.shape[1], dtype=bool)
        member[idx] = True
        # Flat positions of the node's rows, n in each row of ``order``: a
        # gather by them is several times faster than a boolean compress.
        flat = np.flatnonzero(member.take(order)).reshape(d, n)
        order = order.take(flat)
        if cols.any_tied:
            tied_vals = cols.sorted_vals.take(flat[cols.tied])
    G = g[idx].sum()
    parent = G * G / (n + _GBT_LAMBDA)
    # Column i splits after the (i + 1)-th row: hl = i + 1, hr = n - hl.
    # The last column, hl = n, is no split; it is computed and then barred.
    gl = np.cumsum(g[order], axis=1)
    # gains = 0.5 * (gl^2 / (hl + lambda) + gr^2 / (hr + lambda) - parent),
    # in that operation order.
    gains = cols.gains[: d * n].reshape(d, n)
    right = cols.right[: d * n].reshape(d, n)
    np.multiply(gl, gl, out=gains)
    gains /= cols.lambda_plus[1 : n + 1]
    np.subtract(G, gl, out=right)
    right *= right
    right /= cols.lambda_plus[n - 1 :: -1]
    gains += right
    gains -= parent
    gains *= 0.5
    if cols.any_tied:
        # Equal neighbours in each tied row; the comparisons that cross
        # from one row to the next land in the barred last column.
        values = tied_vals.ravel()
        equal = cols.equal[: values.size]
        np.equal(values[1:], values[:-1], out=equal[:-1])
        tied_gains = gains[cols.tied]
        np.putmask(tied_gains, equal.reshape(-1, n), -np.inf)
        if isinstance(cols.tied, np.ndarray):  # the index array copied the rows
            gains[cols.tied] = tied_gains
    gains[:, -1] = -np.inf
    pos = gains.argmax(axis=1)
    best = gains[cols.features, pos]
    feature = int(best.argmax())
    if not best[feature] > 0.0:
        return None
    lo, hi = order[feature, pos[feature] : pos[feature] + 2]
    return feature, float(0.5 * (cols.data[lo, feature] + cols.data[hi, feature]))


def gbt_fit(
    train_frame: tuple[np.ndarray, np.ndarray], n_estimators: int, max_depth: int, learning_rate: float
) -> GbtModel:
    """Boost depth-capped trees against the one-step forecasting targets.

    Squared-error loss gives gradients g_i = prediction - target and unit
    hessians; each round adds learning_rate times the new tree.  The leaves
    partition the training rows, so each leaf writes its weight to its own
    rows as it is grown, and the tree is never applied to the training rows.
    ``train_frame`` is the ``(windows, targets)`` pair of :func:`frame`.
    """
    if not learning_rate > 0.0 or max_depth < 1 or n_estimators < 0:
        raise InvalidHyperparameter(
            "learning_rate must be positive, max_depth >= 1 and n_estimators >= 0"
        )
    data, targets = train_frame
    cols = _PresortedColumns(data)
    base = float(targets.mean())
    predictions = np.full(targets.size, base)
    step = np.empty(targets.size)
    g = predictions - targets

    def best_split(data: np.ndarray, idx: np.ndarray):
        return _gbt_best_split(cols, g, idx)

    def leaf_weight(idx: np.ndarray, depth: int) -> float:
        weight = float(-g[idx].sum() / (idx.size + _GBT_LAMBDA))
        step[idx] = weight
        return weight

    trees = []
    history = []
    omega_total = 0.0
    for _ in range(n_estimators):
        tree = _grow_tree(data, max_depth, best_split, leaf_weight)
        trees.append(tree)
        step *= learning_rate
        predictions += step
        # A plain loop over the leaves in growth order keeps loss_history
        # reproducible: numpy's sum pairs terms, and Python 3.12's sum()
        # compensates rounding.
        leaf_steps = (learning_rate * tree.value[tree.is_leaf]).tolist()
        squared_norm = 0.0
        for leaf_step in leaf_steps:
            squared_norm += leaf_step * leaf_step
        omega_total += 0.5 * _GBT_LAMBDA * squared_norm
        g = predictions - targets
        history.append(0.5 * float((g**2).sum()) + omega_total)
    return GbtModel(
        trees=tuple(trees),
        learning_rate=learning_rate,
        base_score=base,
        loss_history=tuple(history),
    )


def gbt_score(model: GbtModel, test_frame: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Absolute one-step forecast error of the boosted ensemble."""
    data, targets = test_frame
    predictions = np.full(data.shape[0], model.base_score)
    for tree in model.trees:
        predictions += model.learning_rate * tree.apply(data)
    return np.abs(predictions - targets)


# ---------------------------------------------------------------------------
# Detector adapters


def _test_subsequences(train: TimeSeries, test: TimeSeries, width: int) -> np.ndarray:
    """One window per test point, ending at it; the first reach into train."""
    return subsequences(with_lookback(train, test, width - 1), width)


class KMeansDetector:
    """Subsequence clustering; a meaningless-but-standard comparison baseline."""

    name = "kmeans"
    family = "ml"
    params = {"k": 4}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> KMeansModel:
        k = resolve(cfg, self.params)["k"]
        return kmeans_fit(subsequences(train, cfg.window_width), k, cfg.seed)

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return kmeans_score(model, _test_subsequences(train, test, cfg.window_width))


class DbscanDetector:
    """Distance to the nearest density-core training window."""

    name = "dbscan"
    family = "ml"
    params = {"epsilon": 0.4, "mu": 5}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> DbscanModel:
        p = resolve(cfg, self.params)
        return dbscan_fit(subsequences(train, cfg.window_width), p["epsilon"], p["mu"])

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return dbscan_score(model, _test_subsequences(train, test, cfg.window_width))


class LofDetector:
    """Local outlier factor of each test window against the training windows."""

    name = "lof"
    family = "ml"
    params = {"k_neighbors": 10}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> LofModel:
        k_neighbors = resolve(cfg, self.params)["k_neighbors"]
        return LofModel(k_neighbors, subsequences(train, cfg.window_width))

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return model.scores(_test_subsequences(train, test, cfg.window_width))


class IforestDetector:
    """Isolation forest over sliding windows."""

    name = "iforest"
    family = "ml"
    params = {"n_trees": 10}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> IsoForest:
        n_trees = resolve(cfg, self.params)["n_trees"]
        return iforest_fit(subsequences(train, cfg.window_width), n_trees, cfg.seed)

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return iforest_score(model, _test_subsequences(train, test, cfg.window_width))


class OcsvmDetector:
    """nu-one-class SVM with an RBF kernel over sliding windows."""

    name = "ocsvm"
    family = "ml"
    params = {"nu": 0.7, "rbf_gamma": Derived("1/w", float)}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> OcSvmModel:
        p = resolve(cfg, self.params)
        return ocsvm_fit(subsequences(train, cfg.window_width), p["nu"], p["rbf_gamma"])

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return ocsvm_score(model, _test_subsequences(train, test, cfg.window_width))


class GbtDetector:
    """Gradient-boosted trees forecasting the observation after each window."""

    name = "gbt"
    family = "ml"
    params = {"n_estimators": 1000, "max_depth": 3, "learning_rate": 0.1}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> GbtModel:
        return gbt_fit(frame(train, cfg.window_width), **resolve(cfg, self.params))

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        w = cfg.window_width
        return gbt_score(model, frame(with_lookback(train, test, w), w))
