"""Query-time merge over a segment list (base + K delta segments).

``SegmentedReader`` presents the same query surface as
``engine.IndexReader`` — find / doc_set / bm25_topk / bm25_topk_wand /
bm25_topk_auto / find_files / urls_for / df / idf / resolve_terms — over
an index that ``update_index(mode="segment")`` has grown by appending
delta segments instead of rewriting the base (index/segments.py).

Exactness (tested against ``merge_indexes`` over the same segments):

- every document lives in exactly ONE segment (the update path
  anti-joins urls against every committed segment), so a per-segment
  scorer that uses CORPUS-WIDE stats computes each doc's complete BM25
  sum — the same algebra that makes doc-sharded serving exact
  (query/batch_eval.py::evaluate_queries);
- corpus-wide stats are integer sums over segment metas
  (segments.collection_stats), identical to what a full merge would
  write, so per-doc float64 scores are bit-equal to the compacted
  index's;
- global df per query term is the integer sum of segment dfs (url
  disjointness again), installed into each segment reader's
  ``_df_global`` hook before scoring;
- the cross-segment top-k merge is a lexsort over n_segments x k rows.

Document identity: one uint64 ``gid = seg_index << seg_shift | doc_id``
(``seg_shift`` sized so every segment's docID space fits below it) —
callers see a single id space; ``urls_for`` resolves gids back through
the owning segment's docmap. Ties at equal score break by gid, i.e.
(segment, local docID) — the compacted index re-assigns docIDs, so
tie ORDER (never membership or scores) can differ from a post-merge
reader; exact-score ties across distinct documents are the only case.

The reference analog: textindex answers queries over its incrementally
appended word_map without rebuilding (word_map.rs:203-249); this is
that lifecycle with Ray-scale segments.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from textindex_ray.index.segments import (
    collection_stats,
    list_segments,
)
from textindex_ray.query.engine import IndexReader


def min_seg_shift(metas: list[dict]) -> int:
    """Smallest shift such that every segment's docIDs < 1 << shift
    (docID = bucket << bucket_shift | rank, rank < 1 << bucket_shift)."""
    need = 48
    for m in metas:
        bits = int(m.get("bucket_shift", 36)) + int(
            m.get("num_buckets", 64)
        ).bit_length()
        need = max(need, bits)
    return need


class SegmentedReader:
    def __init__(self, index_dir: str | None = None, *,
                 segment_paths: list[str] | None = None,
                 preload: bool | None = None):
        paths = segment_paths if segment_paths is not None else list_segments(index_dir)
        self.path = index_dir or (paths[0] if paths else "")
        self.segment_paths = list(paths)
        self.segments = [IndexReader(p, preload=preload) for p in paths]
        metas = [s.meta for s in self.segments]
        self.seg_shift = min_seg_shift(metas)
        if len(self.segments) >= (1 << (64 - self.seg_shift)):
            raise ValueError(
                "too many segments (%d) for seg_shift=%d"
                % (len(self.segments), self.seg_shift)
            )
        # corpus-wide stats: integer sums == what merge_indexes writes
        self.total_dl = sum(int(m["total_dl"]) for m in metas)
        self.n_docs = sum(int(m["n_docs"]) for m in metas)
        self.avgdl = (self.total_dl / self.n_docs) if self.n_docs else 0.0
        self.k1 = self.segments[0].k1 if self.segments else 1.2
        self.b = self.segments[0].b if self.segments else 0.75
        # shared global-df cache, installed into every segment reader's
        # idf() hook; filled lazily per query term (df of a static
        # segment never changes, so the cache only grows)
        self._dfmap: dict[str, int] = {}
        for s in self.segments:
            s.n_docs = self.n_docs
            s.avgdl = self.avgdl
            s._df_global = self._dfmap

    @property
    def meta(self) -> dict:
        """Collection-level meta (CLI stats surface)."""
        return {
            "n_docs": self.n_docs,
            "total_dl": self.total_dl,
            "avgdl": self.avgdl,
            "k1": self.k1,
            "b": self.b,
            "segments": self.segment_paths,
        }

    # -- id space -------------------------------------------------------

    def _gid(self, si: int, ids: np.ndarray) -> np.ndarray:
        return (np.uint64(si) << np.uint64(self.seg_shift)) | ids.astype(np.uint64)

    def split_gid(self, gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(segment_index, local docID) arrays for a gid array."""
        g = np.asarray(gids, np.uint64)
        si = (g >> np.uint64(self.seg_shift)).astype(np.int64)
        mask = np.uint64((1 << self.seg_shift) - 1)
        return si, g & mask

    # -- vocabulary -----------------------------------------------------

    def df(self, term: str) -> int:
        d = self._dfmap.get(term)
        if d is None:
            d = sum(s.df(term) for s in self.segments)
            self._dfmap[term] = d
        return int(d)

    def idf(self, term: str) -> float:
        import math

        df = self.df(term)
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def _fill_dfs(self, terms) -> None:
        for t in set(terms):
            self.df(t)

    def resolve_terms(self, pattern: str) -> list[str]:
        out: set = set()
        for s in self.segments:
            out.update(s.resolve_terms(pattern))
        return sorted(out)

    @property
    def n_terms(self) -> int:
        """Union vocabulary size (walks every segment's dictionary —
        a stats/REPL convenience, not a hot path)."""
        terms: set = set()
        for s in self.segments:
            terms.update(s._term_col.to_pylist())
        return len(terms)

    # -- boolean --------------------------------------------------------

    def doc_set(self, pattern: str) -> np.ndarray:
        parts = [self._gid(si, s.doc_set(pattern))
                 for si, s in enumerate(self.segments)]
        # per-segment results are ascending and gid prefixes are
        # segment-ordered, so concatenation is already sorted
        return np.concatenate(parts) if parts else np.empty(0, np.uint64)

    def find(self, patterns: list[str]) -> np.ndarray:
        parts = [self._gid(si, s.find(patterns))
                 for si, s in enumerate(self.segments)]
        return np.concatenate(parts) if parts else np.empty(0, np.uint64)

    def find_fuzzy(self, query: str, max_dist: int = 1) -> np.ndarray:
        """Per-segment fuzzy vocabulary expansion (each segment scans
        its own dictionary), gid-mapped union — same shape as doc_set."""
        parts = [self._gid(si, s.find_fuzzy(query, max_dist))
                 for si, s in enumerate(self.segments)]
        return np.concatenate(parts) if parts else np.empty(0, np.uint64)

    # -- urls / docmap ---------------------------------------------------

    def find_files(self, glob: str) -> list[str]:
        out: list[str] = []
        for s in self.segments:
            out.extend(s.find_files(glob))
        return out

    def urls_for(self, gids: np.ndarray) -> list[str]:
        si, ids = self.split_gid(np.asarray(gids, np.uint64))
        out = [""] * len(ids)
        for s in np.unique(si):
            m = np.flatnonzero(si == s)
            urls = self.segments[int(s)].urls_for(ids[m])
            for j, u in zip(m, urls):
                out[int(j)] = u
        return out

    # -- BM25 -------------------------------------------------------------

    def bm25_scores(self, terms: list[str]):
        """(gids, float64 scores) over every matching doc, gid-ascending.
        Per-segment scoring with global stats — scores bit-equal to the
        compacted index's (module docstring)."""
        self._fill_dfs(terms)
        gl, sl = [], []
        for si, s in enumerate(self.segments):
            ids, sc = s.bm25_scores(terms)
            gl.append(self._gid(si, ids))
            sl.append(sc)
        if not gl:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        return np.concatenate(gl), np.concatenate(sl)

    def _merge_topk(self, parts, k: int):
        gids = np.concatenate([p[0] for p in parts])
        sc = np.concatenate([p[1] for p in parts])
        if gids.size == 0:
            return gids, sc
        sel = np.lexsort((gids, -sc))[:k]
        return gids[sel], sc[sel]

    def bm25_topk(self, terms: list[str], k: int = 10):
        self._fill_dfs(terms)
        parts = []
        for si, s in enumerate(self.segments):
            ids, sc = s.bm25_topk(terms, k)
            parts.append((self._gid(si, ids), sc))
        return self._merge_topk(parts, k)

    def bm25_topk_wand(self, terms: list[str], k: int = 10):
        """Segment-ordered WAND with threshold seeding: segment i+1
        starts from the running global kth score, so its block-max
        pruning fires immediately. Exact: a later-segment doc scoring
        below the seed cannot enter the top-k, and a tie AT the seed
        loses the gid tie-break to the earlier incumbent (later
        segments have strictly larger gids)."""
        self._fill_dfs(terms)
        top_g = np.empty(0, np.uint64)
        top_s = np.empty(0, np.float64)
        threshold = None
        for si, s in enumerate(self.segments):
            ids, sc = s.bm25_topk_wand(terms, k, initial_threshold=threshold)
            if ids.size:
                cg = np.concatenate([top_g, self._gid(si, ids)])
                cs = np.concatenate([top_s, sc])
                sel = np.lexsort((cg, -cs))[:k]
                top_g, top_s = cg[sel], cs[sel]
                if top_g.size >= k:
                    threshold = float(top_s[-1])
        return top_g, top_s

    def bm25_topk_auto(self, terms: list[str], k: int = 10, **kw):
        self._fill_dfs(terms)
        parts, picks = [], []
        for si, s in enumerate(self.segments):
            ids, sc = s.bm25_topk_auto(terms, k, **kw)
            picks.append(s.last_scorer)
            parts.append((self._gid(si, ids), sc))
        self.last_scorer = ",".join(picks)
        return self._merge_topk(parts, k)


def open_reader(index_path: str, preload: bool | None = None):
    """The canonical opener: a plain index opens as ``IndexReader``
    (byte-for-byte the round-1..4 behavior); an index with committed
    delta segments opens as ``SegmentedReader``."""
    from textindex_ray.index.segments import is_segmented

    if is_segmented(index_path):
        return SegmentedReader(index_path, preload=preload)
    return IndexReader(index_path, preload=preload)


def term_dfs(index_path: str, terms: list[str]) -> dict[str, int]:
    """Segment-local dfs for a small term set WITHOUT loading the full
    dictionary (parquet filter pushdown on the term-sorted dict) — the
    driver-light way to assemble a global df map for sharded serving."""
    import os

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    want = sorted(set(terms))
    if not want:
        return {}
    try:
        t = pads.dataset(os.path.join(index_path, "dict", "data")).to_table(
            filter=pc.field("term").isin(want), columns=["term", "df"]
        )
    except (FileNotFoundError, pa.ArrowInvalid):
        return {}
    return dict(zip(t.column("term").to_pylist(),
                    (int(x) for x in t.column("df").to_pylist())))
