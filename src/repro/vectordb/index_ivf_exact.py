"""Exact top-1 search with IVF-style cluster pruning.

:class:`ExactIVFIndex` keeps the full :class:`~repro.vectordb.FlatIndex`
contract — every search result is *exact*, bit-identical to the brute-force
scan — but organizes rows into k-means clusters and uses the triangle
inequality on the unit sphere to skip clusters that provably cannot contain
the winner:

    angle(q, x) >= angle(q, c) - radius(c)      for any member x of c

so ``sim(q, x) <= cos(max(0, theta_qc - r_c))`` under cosine similarity.
Clusters are scanned in decreasing order of that upper bound and the scan
stops once the bound falls below the best similarity found so far (minus
the band-refinement margin plus a float-safety slack), which guarantees the
scalar-exact winner — including the first-inserted tie-break — was scanned.

This is how the cache keeps brute-force semantics at 100k–1M entries: the
classic IVF recall/latency trade-off is replaced by a latency-only trade.
Pruning helps exactly as much as the data is clustered. The bounds are
vacuous when cluster radii approach the query-to-centroid angles — hash
embeddings of prompt text are like that: near-orthogonal rows give radii of
about 75 degrees against query-to-centroid angles of about 84, so every
bound is 0.83-1.0 against a best similarity of 0.5-0.9 and nothing is ever
pruned. Such data degrades neither the answer nor the cost: clusters are
gathered in groups that double in size (a bounded number of matrix
reductions, never one per cluster), and as soon as the clusters still above
the bar hold more rows than are cheaper to gather than to stream
(``GATHER_COST_RATIO``) the search finishes with the inherited flat scan —
an index that cannot prune costs one contiguous pass plus the bound
computation. The stop test is only evaluated at group starts against a bar
that only rises, so the clusters scanned are a prefix of the bound order at
least as long as a cluster-by-cluster scan would take, and any superset of
those rows yields the same refinement band and the same winner.

Training is lazy and amortized: k-means runs on a bounded sample the first
time the index is searched above ``train_threshold`` rows, and re-runs only
when the untrained tail outgrows ``retrain_fraction`` of the data. Rows
added since the last training round form a contiguous tail block that is
always scanned (one extra block gemv), so inserts stay write-behind cheap.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.vectordb.distance import Metric, scalar_similarity
from repro.vectordb.index_flat import REFINE_BAND, FlatIndex

# Absorbs arccos/cos rounding in the cluster bounds: near theta=0 an
# ~1e-13 error in a cosine maps to ~6e-7 radians, so bounds are compared
# with this much extra headroom before a cluster is pruned.
BOUND_SLACK = 1e-5

# Per-row cost of a gathered pass (fancy-index copy + gemv) over a streamed
# one (gemv on the contiguous buffer), measured at dim 64: gathering 6 250 of
# 50 000 rows takes 0.54 ms against 0.65 ms for streaming all 50 000, and
# 12 500 of 100 000 takes 1.17 ms against 1.29 ms (ratios 6.7-8.2 from 50k
# rows up, 4.6-7.1 at 8 192). Once the clusters still above the bar hold more
# than 1/8 of the buffer, the flat scan is the cheaper way to finish.
GATHER_COST_RATIO = 8

DEFAULT_TRAIN_THRESHOLD = 4096
DEFAULT_TRAIN_SAMPLE = 20_000
DEFAULT_RETRAIN_FRACTION = 0.25
_ASSIGN_CHUNK = 8192


def _spherical_kmeans(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator, iterations: int = 8
) -> np.ndarray:
    """K-means on the unit sphere (assign by max cosine); returns unit
    centroids. Memory-bounded: distances are computed in row chunks, never
    as an (n, k, dim) broadcast."""
    n = data.shape[0]
    n_clusters = min(n_clusters, n)
    norms = np.linalg.norm(data, axis=1, keepdims=True)
    unit = np.divide(data, norms, out=np.zeros_like(data), where=norms > 0)
    centroids = unit[rng.choice(n, size=n_clusters, replace=False)].copy()
    for _round in range(iterations):
        assign = _chunked_argmax(unit, centroids)
        new_centroids = centroids.copy()
        for c in range(n_clusters):
            members = unit[assign == c]
            if len(members):
                mean = members.mean(axis=0)
                norm = np.linalg.norm(mean)
                new_centroids[c] = mean / norm if norm > 0 else unit[rng.integers(0, n)]
            else:
                new_centroids[c] = unit[rng.integers(0, n)]
        if np.allclose(new_centroids, centroids):
            break
        centroids = new_centroids
    return centroids


def _chunked_argmax(unit_rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment by cosine, chunked over rows."""
    n = unit_rows.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, _ASSIGN_CHUNK):
        chunk = unit_rows[start : start + _ASSIGN_CHUNK]
        out[start : start + _ASSIGN_CHUNK] = (chunk @ centroids.T).argmax(axis=1)
    return out


class ExactIVFIndex(FlatIndex):
    """A :class:`FlatIndex` whose top-1 searches prune whole clusters.

    Every public result is identical to :class:`FlatIndex` (the pruning
    bound is a proof, not a heuristic); only the amount of work differs.
    Metrics other than cosine, and states where clustering hasn't trained
    yet, fall back to the inherited full scan.
    """

    def __init__(
        self,
        dim: int,
        metric: Metric = Metric.COSINE,
        seed: int = 7,
        train_threshold: int = DEFAULT_TRAIN_THRESHOLD,
        train_sample: int = DEFAULT_TRAIN_SAMPLE,
        retrain_fraction: float = DEFAULT_RETRAIN_FRACTION,
    ) -> None:
        super().__init__(dim, metric)
        self.train_threshold = max(2, train_threshold)
        self.train_sample = max(256, train_sample)
        self.retrain_fraction = retrain_fraction
        self._rng = np.random.default_rng(seed)
        self._centroids: Optional[np.ndarray] = None  # (k, dim) unit rows
        self._radius: Optional[np.ndarray] = None  # (k,) max member angle
        self._cluster_rows: List[np.ndarray] = []  # row indices per cluster
        self._cluster_sizes = np.zeros(0, dtype=np.int64)  # len of each
        self._trained_rows = 0  # rows >= this form the always-scanned tail
        # Observability: how much scanning the bounds actually saved.
        # Rows count once per pass that reduces them; a reduction is one
        # gemv over row data (tail, cluster group, or the flat pass).
        self.last_scanned_rows = 0
        self.scanned_rows = 0
        self.reductions = 0
        self.pruned_searches = 0
        self.full_searches = 0

    # ------------------------------------------------------------- training

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def _invalidate_clustering(self) -> None:
        self._centroids = None
        self._radius = None
        self._cluster_rows = []
        self._cluster_sizes = np.zeros(0, dtype=np.int64)
        self._trained_rows = 0

    def _compact(self) -> None:
        # Compaction renumbers rows; drop the clustering and let the next
        # search retrain over the compacted buffer.
        super()._compact()
        self._invalidate_clustering()

    def _maybe_train(self) -> None:
        size = self._size
        if size < self.train_threshold:
            return
        tail = size - self._trained_rows
        if self._centroids is not None and tail <= self.retrain_fraction * size:
            return
        self.train()

    def train(self) -> None:
        """(Re)cluster the current rows. Bounded work: k-means runs on at
        most ``train_sample`` sampled rows; the full assignment + radius
        pass is chunked matrix products."""
        self._flush_pending()
        size = self._size
        if size == 0:
            self._invalidate_clustering()
            return
        matrix = self._buf[:size]
        n_clusters = int(np.clip(np.sqrt(size), 8, 1024))
        if size > self.train_sample:
            sample_rows = self._rng.choice(size, size=self.train_sample, replace=False)
            sample = matrix[np.sort(sample_rows)]
        else:
            sample = matrix
        centroids = _spherical_kmeans(sample, n_clusters, self._rng)
        n_clusters = centroids.shape[0]

        # Assign every row and accumulate each cluster's angular radius.
        norms = self._norms_buf[:size]
        assign = np.empty(size, dtype=np.int64)
        min_cos = np.ones(n_clusters, dtype=np.float64)
        zero_rows = norms == 0
        for start in range(0, size, _ASSIGN_CHUNK):
            stop = min(start + _ASSIGN_CHUNK, size)
            chunk = matrix[start:stop]
            chunk_norms = norms[start:stop]
            cosines = chunk @ centroids.T
            np.divide(
                cosines,
                chunk_norms[:, None],
                out=cosines,
                where=chunk_norms[:, None] > 0,
            )
            chunk_assign = cosines.argmax(axis=1)
            assign[start:stop] = chunk_assign
            member_cos = cosines[np.arange(stop - start), chunk_assign]
            np.minimum.at(min_cos, chunk_assign, member_cos)
        radius = np.arccos(np.clip(min_cos, -1.0, 1.0))
        if zero_rows.any():
            # Zero vectors have no direction: make their clusters unprunable.
            radius[np.unique(assign[zero_rows])] = np.pi

        order = np.argsort(assign, kind="stable")
        boundaries = np.searchsorted(assign[order], np.arange(n_clusters + 1))
        self._cluster_rows = [
            order[boundaries[c] : boundaries[c + 1]] for c in range(n_clusters)
        ]
        self._cluster_sizes = np.diff(boundaries)
        self._centroids = centroids
        self._radius = radius
        self._trained_rows = size

    # -------------------------------------------------------------- search

    def _chunk_sims(
        self, take: Union[np.ndarray, slice], query: np.ndarray, qn: float
    ) -> np.ndarray:
        """Cosine sims of ``query`` against the rows ``take`` selects — an
        index array (gathered) or a slice (streamed); dead rows -> -inf."""
        dots = self._buf[take] @ query
        denom = self._norms_buf[take] * qn
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        if self._tombstones:
            sims = np.where(self._live_buf[take], sims, -np.inf)
        self.reductions += 1
        self.last_scanned_rows += sims.size
        return sims

    def _flat_top1(self, query: np.ndarray, refine_exact: bool) -> Tuple[str, float]:
        """The inherited contiguous scan, counted as one reduction."""
        self.reductions += 1
        self.last_scanned_rows += self._size
        result = super().search_top1(query, refine_exact)
        assert result is not None  # search_top1 checked there is a live row
        return result

    def _pruned_top1(
        self, query: np.ndarray, qn: float, refine_exact: bool
    ) -> Tuple[str, float]:
        """Top-1 over the tail plus a bound-ordered prefix of the clusters.

        Clusters are taken in bound order, in groups that double in size.
        The first group is every cluster whose cap contains the query
        (bound >= 1 - margin, which no best can prune). At each group start
        the bar ``best - margin`` is re-read; the bounds are sorted, so the
        clusters still above it are a prefix of what is left, and when
        gathering them would cost more than streaming the whole buffer the
        search finishes with the flat scan instead.

        Exactness. The stop test is only evaluated at group starts, against
        a bar that only rises, so the clusters scanned are a prefix of the
        bound order at least as long as the one a cluster-by-cluster loop
        stops at. That shorter prefix already holds the winner and its
        refinement band (module docstring); any superset of it has the same
        maximum, hence the same band and the same first-inserted
        scalar-refined winner. The fall-through *is* the flat scan.
        """
        assert self._centroids is not None and self._radius is not None
        qhat = query / qn
        theta = np.arccos(np.clip(self._centroids @ qhat, -1.0, 1.0))
        bounds = np.cos(np.maximum(0.0, theta - self._radius))
        order = np.argsort(-bounds, kind="stable")
        falling = -bounds[order]  # ascending, for searchsorted
        rows_through = np.cumsum(self._cluster_sizes[order])
        margin = REFINE_BAND + BOUND_SLACK

        def above_bar(best: float) -> int:
            """How many clusters (a prefix of ``order``) a best cannot prune."""
            return int(np.searchsorted(falling, margin - best, side="right"))

        scanned_rows: List[np.ndarray] = []
        scanned_sims: List[np.ndarray] = []
        best = -np.inf
        # The untrained tail has no bound: stream it first (one block gemv).
        if self._trained_rows < self._size:
            sims = self._chunk_sims(slice(self._trained_rows, self._size), query, qn)
            scanned_rows.append(np.arange(self._trained_rows, self._size))
            scanned_sims.append(sims)
            best = float(sims.max())
        # First group: the caps containing the query, or the top cluster.
        start, width = 0, max(1, above_bar(1.0))
        live = above_bar(best) if best > -np.inf else width
        while start < live:
            pending = rows_through[live - 1] - (rows_through[start - 1] if start else 0)
            if pending * GATHER_COST_RATIO > self._size:
                return self._flat_top1(query, refine_exact)
            stop = min(live, start + width)
            rows = np.concatenate([self._cluster_rows[c] for c in order[start:stop]])
            if rows.size:
                sims = self._chunk_sims(rows, query, qn)
                scanned_rows.append(rows)
                scanned_sims.append(sims)
                best = max(best, float(sims.max()))
            start, width = stop, 2 * width
            live = above_bar(best)

        rows = np.concatenate(scanned_rows)
        sims = np.concatenate(scanned_sims)
        if not refine_exact:
            top_rows = rows[sims == best]
            winner = int(top_rows.min())  # first-inserted among blas ties
            return self._ids[winner], best
        band_rows = rows[sims >= best - REFINE_BAND]
        # Ascending row order == insertion order: the strict-> refinement
        # keeps the first-inserted winner, exactly like the full scan.
        band_rows = np.sort(band_rows)
        best_sim = -np.inf
        winner = int(band_rows[0])
        for row in band_rows:
            sim = scalar_similarity(query, self._buf[row], self.metric)
            if sim > best_sim:
                best_sim, winner = sim, int(row)
        return self._ids[winner], float(best_sim)

    def search_top1(
        self, query: np.ndarray, refine_exact: bool = False
    ) -> Optional[Tuple[str, float]]:
        self._flush_pending()
        if not self._live:
            return None
        query = self._check(query)
        self._maybe_train()
        qn = float(np.linalg.norm(query))
        self.last_scanned_rows = 0
        if self._centroids is None or self.metric is not Metric.COSINE or qn == 0.0:
            self.full_searches += 1
            result = self._flat_top1(query, refine_exact)
        else:
            self.pruned_searches += 1
            result = self._pruned_top1(query, qn, refine_exact)
        self.scanned_rows += self.last_scanned_rows
        return result

    def search_top1_many(
        self, queries: np.ndarray, refine_exact: bool = False
    ) -> List[Optional[Tuple[str, float]]]:
        self._flush_pending()
        queries = np.asarray(queries, dtype=np.float64)
        if not self._live:
            return [None] * queries.shape[0]
        self._maybe_train()
        if self._centroids is None or self.metric is not Metric.COSINE:
            return super().search_top1_many(queries, refine_exact)
        return [self.search_top1(q, refine_exact) for q in queries]
