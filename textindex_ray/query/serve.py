"""Long-lived sharded BM25 serving — the online-query counterpart of
query/batch_eval.py.

The batch evaluator opens shard readers in its tasks (fine for offline
batches, measured ~1 s/shard of open+preload at 1.5 M docs). A serving
deployment holds the shards in PERSISTENT Ray actors instead: each
actor preloads its doc-range slice once (dictionary + chunk table +
dl lookup) and then answers queries at in-memory latency. This is one
of the few places raw ``@ray.remote`` actors are the right tool rather
than a Dataset stage — a shared long-lived index IS the state, and
queries are an RPC fan-out, not a batch transform
(/root/reference/src/main.rs:180-240 serves its queries from one
process; this is that surface scaled across doc shards).

Exactness: identical results to ``IndexReader.bm25_topk`` /
``find`` on the unsharded index — every doc's complete score is
computed inside one shard with global stats, the merge is a lexsort
over n_shards x k rows, and AND-set shards are disjoint (see
batch_eval.evaluate_queries, same algebra; tested).

SEGMENTED indexes (index/segments.py) serve without restart-on-update:
shards span (segment x doc_range); each actor is constructed with the
corpus-wide N/avgdl, per-query global dfs are summed from one
designated actor per segment (the dictionary is already in its memory),
and results come back in the SegmentedReader gid space — identical to
``SegmentedReader.bm25_topk`` (tested). ``refresh()`` re-reads the
segment manifest and spins up actors only for NEW segments — an
appended delta never restarts existing shard actors.
"""

from __future__ import annotations

import numpy as np

import ray

from textindex_ray.query.batch_eval import doc_shard_boundaries


@ray.remote
class _ShardActor:
    def __init__(self, index_path: str, doc_range: tuple[int, int],
                 n_docs_global: int | None = None,
                 avgdl_global: float | None = None):
        from textindex_ray.query.engine import IndexReader

        self.reader = IndexReader(index_path, doc_range=doc_range)
        if n_docs_global is not None:
            self.reader.n_docs = int(n_docs_global)
            self.reader.avgdl = float(avgdl_global)
        self.reader._dl_lookup()  # warm the dl arrays at startup

    def bm25_topk(self, terms: list[str], k: int, df_map: dict | None = None):
        if df_map is not None:
            self.reader._df_global = df_map
        try:
            ids, sc = self.reader.bm25_topk_auto(list(terms), k)
        finally:
            self.reader._df_global = None
        return ids, sc

    def seg_dfs(self, terms: list[str]) -> dict:
        """Segment-local dfs for a query's terms, answered from the
        in-memory dictionary (the doc-range shard loads the FULL dict)."""
        return {t: self.reader.df(t) for t in set(terms)}

    def set_global_stats(self, n_docs: int, avgdl: float) -> bool:
        """Corpus-wide stats push — refresh() calls this on every WARM
        actor when a new segment changes the collection's N/avgdl."""
        self.reader.n_docs = int(n_docs)
        self.reader.avgdl = float(avgdl)
        return True

    def find(self, patterns: list[str]):
        return self.reader.find(list(patterns))

    def find_files_count(self, glob: str) -> int:
        return len(self.reader.find_files(glob))

    def ping(self) -> bool:
        return True


class BM25Server:
    """Persistent doc-range reader actors + exact merges.

    Usage::

        srv = BM25Server(index_path, n_shards=4)
        ids, scores = srv.bm25_topk(["alpha", "beta"], k=10)
        docs = srv.find(["alph*", "beta"])
        srv.refresh()   # pick up segments appended by update_index
        srv.shutdown()

    ``num_cpus`` is per actor — size n_shards x num_cpus to the
    cluster; on a multi-node cluster Ray spreads the actors, each
    holding only its slice (the index never needs to fit one node).

    On a plain index the ids are docIDs (round-4 behavior); on a
    segmented index they are SegmentedReader gids.
    """

    def __init__(self, index_path: str, *, n_shards: int = 4,
                 num_cpus: float = 1.0):
        self.index_path = index_path
        self.n_shards = n_shards
        self.num_cpus = num_cpus
        self.shards: list = []        # flat actor list
        self.shard_meta: list = []    # (seg_idx, seg_path, doc_range)
        self.seg_paths: list = []
        self.seg_rep: dict = {}       # seg_idx -> one representative actor
        self.seg_shift = 48
        self._segmented = False
        self.refresh()
        ray.get([s.ping.remote() for s in self.shards])  # surface init errors

    # -- lifecycle ---------------------------------------------------------

    def _global_stats(self):
        from textindex_ray.index.segments import collection_stats

        st = collection_stats(self.index_path)
        return int(st["n_docs"]), float(st["avgdl"])

    def refresh(self) -> int:
        """Sync actors with the segment manifest; returns the number of
        NEW segments brought up. Existing shard actors are untouched —
        an incremental update never restarts warm serving state."""
        import json
        import os

        from textindex_ray.index.segments import list_segments
        from textindex_ray.query.segmented import min_seg_shift

        paths = list_segments(self.index_path)
        self._segmented = len(paths) > 1
        metas = []
        for p in paths:
            with open(os.path.join(p, "meta.json")) as f:
                metas.append(json.load(f))
        self.seg_shift = min_seg_shift(metas)
        n_docs_g, avgdl_g = (self._global_stats() if self._segmented
                             else (None, None))
        if self._segmented and self.shards:
            # a new segment changes the COLLECTION stats: push them to
            # every warm actor (cheap RPC; never a restart)
            ray.get([a.set_global_stats.remote(n_docs_g, avgdl_g)
                     for a in self.shards])
        added = 0
        known = set(self.seg_paths)
        total_docs = max(sum(int(m["n_docs"]) for m in metas), 1)
        for si, p in enumerate(paths):
            if p in known:
                continue
            if self._segmented:
                per = max(1, round(
                    self.n_shards * int(metas[si]["n_docs"]) / total_docs))
            else:
                per = self.n_shards
            for j, dr in enumerate(doc_shard_boundaries(p, per)):
                a = _ShardActor.options(num_cpus=self.num_cpus).remote(
                    p, dr, n_docs_g, avgdl_g
                )
                self.shards.append(a)
                self.shard_meta.append((si, p, dr))
                if j == 0:
                    self.seg_rep[si] = a
            added += 1
        self.seg_paths = paths
        return added

    # -- queries -----------------------------------------------------------

    def _df_map(self, terms: list[str]) -> dict | None:
        if not self._segmented:
            return None
        maps = ray.get(
            [self.seg_rep[si].seg_dfs.remote(terms) for si in sorted(self.seg_rep)]
        )
        out: dict = {}
        for m in maps:
            for t, d in m.items():
                out[t] = out.get(t, 0) + d
        return out

    def _gid(self, shard_idx: int, ids: np.ndarray) -> np.ndarray:
        if not self._segmented:
            return ids
        si = self.shard_meta[shard_idx][0]
        return ids | (np.uint64(si) << np.uint64(self.seg_shift))

    def bm25_topk(self, terms: list[str], k: int = 10):
        df_map = self._df_map(terms)
        parts = ray.get(
            [s.bm25_topk.remote(terms, k, df_map) for s in self.shards]
        )
        ids = np.concatenate([self._gid(i, p[0]) for i, p in enumerate(parts)])
        sc = np.concatenate([p[1] for p in parts])
        if ids.size == 0:
            return ids, sc
        sel = np.lexsort((ids, -sc))[:k]
        return ids[sel], sc[sel]

    def find(self, patterns: list[str]) -> np.ndarray:
        parts = ray.get([s.find.remote(patterns) for s in self.shards])
        if not parts:
            return np.empty(0, np.uint64)
        return np.sort(
            np.concatenate([self._gid(i, p) for i, p in enumerate(parts)])
        )  # shards disjoint: no dedup

    def find_files_count(self, glob: str) -> int:
        """Matched-url count across every segment (url surface is
        segment-global; one representative shard per segment answers)."""
        return int(sum(ray.get(
            [self.seg_rep[si].find_files_count.remote(glob)
             for si in sorted(self.seg_rep)]
        )))

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
        self.shard_meta = []
        self.seg_rep = {}
        self.seg_paths = []
