"""repro.vectordb — a from-scratch vector database.

The paper leans on vector databases in three places: storing historical
prompts for prompt selection (Section III-A), the semantic LLM cache
(Section III-C), and multi-modal data lake querying with attribute filtering
(Sections II-D1 and III-B2). This subpackage provides the storage and index
layer all three build on:

* :class:`FlatIndex` — exact brute-force search (the recall reference,
  and the semantic cache's index: it holds text embeddings, which do not
  cluster, so nothing prunes them better than one matrix reduction);
* :class:`IVFIndex` — inverted-file index with k-means coarse quantizer;
* :class:`HNSWIndex` — hierarchical navigable small-world graph;
* :class:`Collection` — vectors + metadata with pre-/post-/adaptive
  attribute filtering, the "hybrid search" the paper discusses.

>>> import numpy as np
>>> from repro.vectordb import Collection
>>> c = Collection(dim=4)
>>> c.add("a", np.array([1.0, 0, 0, 0]), metadata={"kind": "text"})
>>> c.add("b", np.array([0, 1.0, 0, 0]), metadata={"kind": "table"})
>>> [hit.id for hit in c.search(np.array([1.0, 0, 0, 0]), k=1)]
['a']
"""

from repro.vectordb.collection import Collection, FilterStrategy, SearchHit, SearchReport
from repro.vectordb.distance import Metric
from repro.vectordb.filters import MetadataFilter
from repro.vectordb.index_flat import FlatIndex
from repro.vectordb.index_hnsw import HNSWIndex
from repro.vectordb.index_ivf import IVFIndex
from repro.vectordb.tuning import TuningResult, measure_recall, tune_ef_search, tune_nprobe

__all__ = [
    "Collection",
    "FilterStrategy",
    "FlatIndex",
    "HNSWIndex",
    "IVFIndex",
    "Metric",
    "MetadataFilter",
    "SearchHit",
    "SearchReport",
    "TuningResult",
    "measure_recall",
    "tune_ef_search",
    "tune_nprobe",
]
