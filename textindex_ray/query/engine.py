"""Query engine: boolean retrieval + BM25 top-k over the built index.

Mirrors the reference query surface (SURVEY.md §3.2):

- ``find(terms)``: AND-of-terms with ``*``/``?`` wildcards — per term the
  matching vocabulary entries' posting sets are unioned, then
  intersected across terms, result ordered by docID
  (/root/reference/src/index2.rs:550-582).
- ``find_files(glob)``: wildcard match over the docmap urls
  (index2.rs:447-456).
- ``bm25_topk(terms, k)``: disjunctive BM25(k1=1.2, b=0.75) top-k,
  ordered by (score desc, doc_id asc), float64 scoring — both a
  brute-force term-at-a-time scorer (the oracle path) and a block-max
  WAND scorer over the per-chunk max_impact metadata; the two are
  rank-identical (tested).

The reader is a driver-side library (or a serving actor): the dictionary
is loaded into memory; chunk rows are fetched with Parquet predicate
pushdown on ``term`` (the chunk files are (term, doc_id)-sorted, so
row-group pruning applies).
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from textindex_ray.index.codec import cell_buffers, decode_chunks, decode_streams


def wildcard_to_regex(pat: str) -> str:
    """WildMatch ``*``/``?`` -> anchored regex (index2.rs:554)."""
    out = []
    for ch in pat:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "^" + "".join(out) + "$"


def _has_wildcard(pat: str) -> bool:
    return "*" in pat or "?" in pat


_PRELOAD_LIMIT = 512 * 1024 * 1024  # in-memory chunk table below this size


class IndexReader:
    def __init__(self, index_path: str, preload: bool | None = None,
                 doc_range: tuple[int, int] | None = None):
        """preload=None (auto): hold the whole chunk table in memory when
        the index is small (fast repeated queries); large indexes use
        parquet predicate pushdown per term instead (row groups are
        (term, doc)-sorted, so pruning applies).

        doc_range=(lo, hi): postings restricted to lo <= doc_id < hi —
        the SERVING shard (query/batch_eval.py::evaluate_queries,
        query/serve.py): every doc's full score is computed inside one
        shard with global stats, so per-shard top-k merge is exact and
        only k rows per shard ever move. Chunk pruning uses the stored
        (first_doc, last_doc) ranges; decoded ids are masked at the
        edges. find_files/docmap stay global (url surface is not
        doc-sharded).
        """
        self.path = index_path
        # global-stats override hook (query/segmented.py): a segment of a
        # segmented index is scored with CORPUS-WIDE df/N/avgdl — the
        # SegmentedReader sets n_docs/avgdl directly and installs a
        # {term: global_df} map here; idf() consults it before the
        # segment-local dictionary. None = standalone index (default).
        self._df_global: dict | None = None
        self.doc_range = (
            (np.uint64(doc_range[0]), np.uint64(doc_range[1]))
            if doc_range is not None else None
        )
        with open(os.path.join(index_path, "meta.json")) as f:
            self.meta = json.load(f)
        self.k1 = float(self.meta["k1"])
        self.b = float(self.meta["b"])
        self.n_docs = int(self.meta["n_docs"])
        self.avgdl = float(self.meta["avgdl"])
        try:
            dt = pq.read_table(os.path.join(index_path, "dict", "data"))
        except (FileNotFoundError, pa.ArrowInvalid):
            dt = pa.table({"term": pa.array([], pa.string()),
                           "df": pa.array([], pa.uint64()),
                           "cf": pa.array([], pa.uint64())})
        # the dictionary stays an ARROW table: one contiguous string
        # column + an int64 df array, searched by binary search /
        # vectorized regex — never a Python list + dict (10^8 terms as
        # Python strings is tens of GB on the opening process; the Arrow
        # form is the on-disk size). The dict is written term-sorted
        # (build K1 / merge sort("term")); verify cheaply and re-sort if
        # an external tool rewrote it unsorted.
        tc = dt.column("term").combine_chunks()
        if len(tc) > 1:
            import pyarrow.compute as _pc

            if not _pc.all(
                _pc.less_equal(tc.slice(0, len(tc) - 1), tc.slice(1))
            ).as_py():
                dt = dt.take(_pc.sort_indices(dt.column("term")))
                tc = dt.column("term").combine_chunks()
        self._dict = dt
        self._term_col = tc
        self._df_np = dt.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        # deleted docs (delete.py tombstones): masked out of every query
        # path; stats stay pre-delete until compaction (the tombstone
        # contract — see index/delete.py)
        from textindex_ray.index.delete import load_tombstones

        self._tomb = load_tombstones(index_path)
        idx_data = os.path.join(index_path, "index", "data")
        self._chunks = pads.dataset(idx_data)
        if preload is None:
            if doc_range is not None:
                # a doc-range shard exists precisely so its slice fits in
                # memory (the serving design: shards are sized by raising
                # n_shards until they do) — preload the slice, not a
                # pushdown-per-term scan of 1/n of the index
                preload = True
            else:
                size = sum(
                    os.path.getsize(os.path.join(idx_data, f))
                    for f in os.listdir(idx_data)
                    if f.endswith(".parquet")
                )
                preload = size < _PRELOAD_LIMIT
        self._mem = None
        if preload:
            flt = None
            if self.doc_range is not None:
                dlo, dhi = self.doc_range
                # chunks are doc-disjoint per term: keep overlapping ones
                flt = (pc.field("last_doc") >= dlo) & (pc.field("first_doc") < dhi)
            t = self._chunks.to_table(filter=flt)
            t = t.take(pc.sort_indices(t, [("term", "ascending"), ("first_doc", "ascending")]))
            self._mem = t
            self._mem_terms = np.array(t.column("term").to_pylist())

    # -- vocabulary ---------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self._term_col)

    @property
    def _terms(self) -> list[str]:
        """Debug/stat convenience: the vocabulary as a Python list.
        Materializes on access — hot paths use the Arrow column."""
        return self._term_col.to_pylist()

    def _bisect(self, key: str, side: str = "left") -> int:
        """Binary search over the sorted Arrow term column (O(log n)
        .as_py() calls; UTF-8 byte order == code-point order, so Python
        string comparison agrees with the Arrow sort)."""
        a = self._term_col
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            v = a[mid].as_py()
            if v < key or (side == "right" and v == key):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _term_index(self, term: str) -> int:
        i = self._bisect(term)
        if i < len(self._term_col) and self._term_col[i].as_py() == term:
            return i
        return -1

    def resolve_terms(self, pattern: str) -> list[str]:
        """Vocabulary entries matching an exact term or wildcard pattern.
        Wildcards: the literal prefix (up to the first * / ?) narrows to
        a binary-searched slice, then one vectorized RE2 scan
        (pc.match_substring_regex, anchored) over the slice."""
        if not _has_wildcard(pattern):
            return [pattern] if self._term_index(pattern) >= 0 else []
        wpos = min(
            (i for i in (pattern.find("*"), pattern.find("?")) if i >= 0)
        )
        prefix = pattern[:wpos]
        sl = self._term_col
        if prefix:
            lo = self._bisect(prefix)
            last = prefix[-1]
            if ord(last) < 0x10FFFF:
                hi = self._bisect(prefix[:-1] + chr(ord(last) + 1))
            else:
                hi = len(sl)
            sl = sl.slice(lo, hi - lo)
        if len(sl) == 0:
            return []
        mask = pc.match_substring_regex(sl, wildcard_to_regex(pattern))
        return sl.filter(mask).to_pylist()

    def df(self, term: str) -> int:
        i = self._term_index(term)
        return int(self._df_np[i]) if i >= 0 else 0

    def idf(self, term: str) -> float:
        if self._df_global is not None:
            df = self._df_global.get(term)
            if df is None:
                df = self.df(term)
        else:
            df = self.df(term)
        # math.log, not np.log: they can differ in the last ulp, and the
        # oracle/rank-identity contract is exact float64 equality
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    # -- postings -----------------------------------------------------------

    def chunk_rows(self, terms: list[str]) -> pa.Table:
        if not terms:
            return self._chunks.head(0)
        if self._mem is not None:
            # memory path: term rows are contiguous in the sorted table
            parts = []
            for t in sorted(set(terms)):
                lo = int(np.searchsorted(self._mem_terms, t, side="left"))
                hi = int(np.searchsorted(self._mem_terms, t, side="right"))
                if hi > lo:
                    parts.append(self._mem.slice(lo, hi - lo))
            if not parts:
                return self._mem.slice(0, 0)
            return pa.concat_tables(parts)
        flt = pc.field("term").isin(terms)
        if self.doc_range is not None:
            dlo, dhi = self.doc_range
            flt = flt & (pc.field("last_doc") >= dlo) & (pc.field("first_doc") < dhi)
        t = self._chunks.to_table(filter=flt)
        return t.take(pc.sort_indices(t, [("term", "ascending"), ("first_doc", "ascending")]))

    def _range_mask(self, ids: np.ndarray):
        """Bool mask of in-doc_range ids (edge chunks span the range
        boundary), or None when unsharded / nothing to trim."""
        if self.doc_range is None or ids.size == 0:
            return None
        lo, hi = self.doc_range
        m = (ids >= lo) & (ids < hi)
        return None if m.all() else m

    def _alive_mask(self, ids: np.ndarray):
        """Bool mask of non-tombstoned ids, or None when nothing is deleted."""
        if self._tomb.size == 0 or ids.size == 0:
            return None
        pos = np.searchsorted(self._tomb, ids)
        pos = np.minimum(pos, self._tomb.size - 1)
        return self._tomb[pos] != ids

    # decoded-postings LRU: serving workloads repeat hot terms; the
    # decode+mask result is immutable per reader instance (tombstones,
    # doc_range, and chunk bytes are all fixed at __init__), so caching
    # cannot change any result. Bounded by total cached VALUES (not
    # entries): one huge-df term can't blow the heap unnoticed, and the
    # cap is small next to the preloaded chunk table it derives from.
    _POSTINGS_CACHE_VALS = 4_000_000

    def postings(self, term: str):
        """Decoded (doc_ids, tfs) for one exact term, docID-ascending,
        tombstoned docs masked. Cached per reader (bounded LRU)."""
        cache = getattr(self, "_postings_cache", None)
        if cache is None:
            cache = self._postings_cache = {}
            self._postings_cache_vals = 0
        hit = cache.get(term)
        if hit is not None:
            cache[term] = cache.pop(term)  # LRU bump
            return hit
        rows = self.chunk_rows([term])
        if rows.num_rows == 0:
            out = (np.empty(0, np.uint64), np.empty(0, np.uint64))
        else:
            ids, tfs = decode_chunks(rows)
            rm = self._range_mask(ids)
            if rm is not None:
                ids, tfs = ids[rm], tfs[rm]
            m = self._alive_mask(ids)
            out = (ids, tfs) if m is None else (ids[m], tfs[m])
        self._postings_cache_vals += out[0].size
        cache[term] = out
        while self._postings_cache_vals > self._POSTINGS_CACHE_VALS and len(cache) > 1:
            oldest = next(iter(cache))  # insertion-ordered dict = LRU
            self._postings_cache_vals -= cache.pop(oldest)[0].size
        return out

    def _union_postings(self, terms: list[str]) -> np.ndarray:
        """Distinct live docIDs over a term list (one vectorized varint
        decode, range + tombstone masks) — shared by doc_set and
        find_fuzzy."""
        if not terms:
            return np.empty(0, np.uint64)
        rows = self.chunk_rows(terms)
        if rows.num_rows == 0:
            return np.empty(0, np.uint64)
        ids, _ = decode_chunks(rows.select(["n", "docs"]))  # tfs not needed
        rm = self._range_mask(ids)
        if rm is not None:
            ids = ids[rm]
        m = self._alive_mask(ids)
        if m is not None:
            ids = ids[m]
        return np.unique(ids)

    def doc_set(self, pattern: str) -> np.ndarray:
        """Union of posting docIDs over vocabulary entries matching pattern."""
        return self._union_postings(self.resolve_terms(pattern))

    def find_fuzzy(self, query: str, max_dist: int = 1) -> np.ndarray:
        """Union of posting docIDs over vocabulary terms within BYTE
        edit distance ``max_dist`` of ``query`` (kernel/fuzzy.py capped
        banded DP — the DuckDB levenshtein metric; extends the
        reference's exact+wildcard term lookup the way wildcard already
        does). The dictionary is prefiltered with a vectorized Arrow
        byte-length band before any term becomes a Python string — the
        full vocabulary is never materialized as a list (the reader's
        dictionary design rule)."""
        from textindex_ray.kernel.fuzzy import fuzzy_matches

        k = max(0, int(max_dist))
        qlen = len(query.encode("utf-8"))
        col = self._dict.column("term")
        blen = pc.binary_length(col)
        band = pc.and_(
            pc.greater_equal(blen, qlen - k), pc.less_equal(blen, qlen + k)
        )
        near = self._dict.filter(band).column("term").to_pylist()
        return self._union_postings(fuzzy_matches(near, query, k))

    # -- boolean find (J2) --------------------------------------------------

    def find(self, patterns: list[str]) -> np.ndarray:
        """AND-of-(wildcard-)terms -> ascending docID array (index2.rs:550-582)."""
        result = None
        for p in patterns:
            s = self.doc_set(p)
            result = s if result is None else np.intersect1d(result, s, assume_unique=True)
            if result.size == 0 and p != patterns[-1]:
                # keep reference semantics: later terms cannot revive docs
                return np.empty(0, np.uint64)
        return result if result is not None else np.empty(0, np.uint64)

    # -- docmap / files -----------------------------------------------------

    def docmap(self, columns=None) -> pa.Table:
        return pq.read_table(os.path.join(self.path, "docmap", "data"), columns=columns)

    def find_files(self, glob: str) -> list[str]:
        """Wildcard match over indexed (live) urls (index2.rs:447-456)."""
        dm = self.docmap(columns=["doc_id", "url"])
        urls = dm.column("url").to_pylist()
        if self._tomb.size:
            m = self._alive_mask(dm.column("doc_id").to_numpy().astype(np.uint64))
            if m is not None:
                urls = [u for u, a in zip(urls, m) if a]
        rx = re.compile(wildcard_to_regex(glob))
        return [u for u in urls if rx.match(u)]

    def urls_for(self, doc_ids: np.ndarray) -> list[str]:
        dm = self.docmap(columns=["doc_id", "url"])
        order = pc.sort_indices(dm.column("doc_id"))
        dm = dm.take(order)
        ids = dm.column("doc_id").to_numpy()
        urls = dm.column("url").to_pylist()
        pos = np.searchsorted(ids, doc_ids)
        return [urls[p] for p in pos]

    def doclens(self) -> dict[int, int]:
        dm = self.docmap(columns=["doc_id", "dl"])
        return dict(zip(dm.column("doc_id").to_pylist(), dm.column("dl").to_pylist()))

    def _dl_lookup(self):
        if not hasattr(self, "_dl_arrs"):
            dm = self.docmap(columns=["doc_id", "dl"])
            ids = dm.column("doc_id").to_numpy()
            dls = dm.column("dl").to_numpy().astype(np.float64)
            order = np.argsort(ids)
            self._dl_arrs = (ids[order], dls[order])
            # dense O(1) lookup: ranks are dense per bucket, so position =
            # bucket_offset[bucket] + rank
            shift = np.uint64(self.meta.get("bucket_shift", 36))
            buckets = (ids >> shift).astype(np.int64)
            nb = int(buckets.max()) + 1 if ids.size else 1
            counts = np.bincount(buckets, minlength=nb)
            offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
            dense = np.empty(ids.size, np.float64)
            mask = np.uint64((1 << int(shift)) - 1)
            pos = offs[buckets] + (ids & mask).astype(np.int64)
            dense[pos] = dls
            self._dl_dense = (dense, offs, shift, mask)
        return self._dl_arrs

    def _dls_for(self, ids: np.ndarray) -> np.ndarray:
        """dl values for docIDs, O(1) per id (dense per-bucket layout)."""
        self._dl_lookup()
        dense, offs, shift, mask = self._dl_dense
        buckets = (ids >> shift).astype(np.int64)
        return dense[offs[buckets] + (ids & mask).astype(np.int64)]

    # -- BM25 ---------------------------------------------------------------

    def _term_scores(self, term: str):
        """(doc_ids, per-doc float64 BM25 contribution) for one term."""
        ids, tfs = self.postings(term)
        if ids.size == 0:
            return ids, np.empty(0, np.float64)
        dls = self._dls_for(ids)
        tf = tfs.astype(np.float64)
        denom = tf + self.k1 * (1.0 - self.b + self.b * dls / max(self.avgdl, 1e-9))
        return ids, self.idf(term) * tf * (self.k1 + 1.0) / denom

    def bm25_scores(self, terms: list[str]):
        """Disjunctive BM25: docID -> total score, term-at-a-time in sorted
        term order (float-stable across runs). Duplicate query terms count
        once (set semantics, matching the oracle SQL)."""
        uniq = sorted(set(terms))
        all_ids, all_scores = [], []
        for t in uniq:
            ids, sc = self._term_scores(t)
            all_ids.append(ids)
            all_scores.append(sc)
        if not all_ids or not sum(x.size for x in all_ids):
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        nonempty = [(i, s) for i, s in zip(all_ids, all_scores) if i.size]
        if len(nonempty) == 1:
            # single matching term: its postings ARE the result set and
            # the accumulation is the identity (same floats, no unique /
            # searchsorted pass)
            return nonempty[0][0], nonempty[0][1].copy()
        uids = np.unique(np.concatenate(all_ids))
        # accumulate term-at-a-time in sorted term order: the float64 adds
        # happen left-to-right per doc, identical to the oracle scorer
        totals = np.zeros(uids.size, np.float64)
        for ids, sc in nonempty:
            if ids.size == uids.size:
                # sorted unique subset of equal size == the whole set:
                # skip the searchsorted (adds happen in the same per-doc
                # order, so floats are bit-identical)
                totals += sc
            else:
                totals[np.searchsorted(uids, ids)] += sc
        return uids, totals

    def bm25_topk(self, terms: list[str], k: int = 10):
        """Brute-force top-k: (doc_ids, scores) by (score desc, doc_id asc)."""
        ids, scores = self.bm25_scores(terms)
        if ids.size == 0 or k <= 0:
            return ids[:0], scores[:0]
        if ids.size > 4 * k:
            # partial selection: keep every candidate >= the kth score
            # (ties included), then tie-break only the survivors
            kth = np.partition(scores, ids.size - k)[ids.size - k]
            keep = np.flatnonzero(scores >= kth)
            ids, scores = ids[keep], scores[keep]
        order = np.lexsort((ids, -scores))[:k]
        return ids[order], scores[order]

    def bm25_topk_auto(self, terms: list[str], k: int = 10, *,
                       min_postings: int = 65536):
        """Pick the scorer from the query terms' df spread; rank- and
        score-identical either way (both paths share the kernel and
        accumulation order).

        Block-max WAND only wins when pruning can fire — a rare
        (high-idf) term must be able to push the kth-score threshold
        above common terms' chunk upper bounds. On a vocab-uniform
        query (all dfs similar) nothing ever prunes and WAND's window
        bookkeeping is pure overhead (455 vs 371 ms/query at 1.5 M
        docs, BASELINE.md), while on skewed queries WAND is ~2x faster.
        Decision: WAND iff >= 2 matching terms, max_df/min_df >= 32
        (idf contrast exists), and total df is big enough for pruning
        to pay (> ``min_postings``; at fewer postings brute is
        single-digit ms and never worth WAND's window bookkeeping). Sets ``last_scorer`` to the choice
        ("wand"/"brute") for tests/diagnostics.
        """
        dfs = [d for d in (self.df(t) for t in set(terms)) if d > 0]
        use_wand = (
            len(dfs) >= 2
            and max(dfs) >= 32 * min(dfs)
            and sum(dfs) > min_postings
        )
        self.last_scorer = "wand" if use_wand else "brute"
        if use_wand:
            return self.bm25_topk_wand(terms, k)
        return self.bm25_topk(terms, k)

    # -- block-max WAND -----------------------------------------------------

    def bm25_topk_wand(self, terms: list[str], k: int = 10, *,
                       initial_threshold: float | None = None):
        """Block-max top-k over the per-chunk (max_tf, min_dl) metadata.

        ``initial_threshold``: an EXTERNAL score floor (the segmented
        reader seeds segment i+1 with the running global kth score):
        pruning may fire before k local results exist, and docs scoring
        strictly below the floor may be dropped — exact for the caller
        because such docs cannot enter the global top-k, and a tie AT
        the floor loses the (score desc, gid asc) tie-break to the
        earlier-segment incumbent that set it (query/segmented.py).

        Window-vectorized block-max WAND: the doc space is processed in
        windows ending at the smallest current chunk boundary. A window
        whose summed chunk upper bounds cannot beat the current kth score
        is skipped wholesale (cursors advance past their chunks without
        decoding); otherwise every posting in the window is scored with
        the same vectorized float64 kernel and accumulation order as
        bm25_topk, so results are rank- and score-identical (tested).
        """
        if k <= 0:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        uniq = sorted(set(terms))
        cursors = []
        for t in uniq:
            rows = self.chunk_rows([t])
            if rows.num_rows:
                cursors.append(
                    _ChunkCursor(rows, self.idf(t), self.k1, self.b, self.avgdl)
                )
        if not cursors:
            self.last_wand_stats = {"chunks_total": 0, "chunks_decoded": 0}
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        self._dl_lookup()
        dls_for = self._dls_for

        if self.doc_range is None:
            posting_mask = self._alive_mask
        else:
            # doc-sharded serving: edge chunks span the range boundary —
            # mask decoded ids like tombstones (masking only removes
            # postings, so chunk upper bounds stay valid/conservative)
            def posting_mask(ids):
                rm = self._range_mask(ids)
                am = self._alive_mask(ids if rm is None else ids[rm])
                if rm is None:
                    return am
                if am is not None:
                    rm = rm.copy()
                    rm[np.flatnonzero(rm)[~am]] = False
                return rm

        top_ids = np.empty(0, np.uint64)
        top_sc = np.empty(0, np.float64)
        ext = initial_threshold is not None
        threshold = float(initial_threshold) if ext else -np.inf
        streak = 0  # consecutive scored (non-pruned) windows

        while True:
            live = [c for c in cursors if not c.done]
            if not live:
                break
            window_end = min(c.cur_last for c in live)
            # involvement by NEXT UNCONSUMED posting, not chunk start: a
            # cursor whose remaining postings all lie beyond the window
            # contributes nothing to it (classic WAND pivot semantics)
            involved = [c for c in live if c.next_doc <= window_end]
            if not involved:
                for c in live:
                    if c.cur_last <= window_end:
                        c.next_chunk()
                continue
            ub = sum(c.cur_ub for c in involved)
            if (top_ids.size >= k or ext) and ub < threshold:
                # prune: skip (never score) all postings <= window_end;
                # whole chunks drop undecoded, spanning chunks skip by
                # offset (ids decoded, no scoring)
                for c in involved:
                    if c.cur_last <= window_end:
                        c.next_chunk()
                    else:
                        c.skip_upto(window_end)
                streak = 0
                continue
            if streak >= 4:
                # adaptive batching: pruning has not fired recently (e.g.
                # uniform-idf corpora where it never can), so score a
                # multi-chunk window to amortize the per-window Python
                # overhead. Purely a batching change: every posting is
                # still scored exactly once with the same kernel, so
                # results stay rank- and score-identical; skipping the ub
                # check for the extension is conservative (never prunes
                # wrongly), and any successful prune resets the streak.
                window_end = min(
                    c.last[min(c.ci + 8, c.n_chunks - 1)] for c in live
                )
                involved = [c for c in live if c.next_doc <= window_end]
            # score the window exactly (same accumulation order as brute)
            per_term = []
            for c in involved:
                ids, sc = c.take_upto(window_end, dls_for, posting_mask)
                if ids.size:
                    per_term.append((ids, sc))
            streak += 1
            for c in live:
                if not c.done and c.consumed:
                    c.next_chunk()
            if not per_term:
                continue
            uids = np.unique(np.concatenate([i for i, _ in per_term]))
            totals = np.zeros(uids.size, np.float64)
            for ids, sc in per_term:
                totals[np.searchsorted(uids, ids)] += sc
            cand_ids = np.concatenate([top_ids, uids])
            cand_sc = np.concatenate([top_sc, totals])
            order = np.lexsort((cand_ids, -cand_sc))[:k]
            top_ids, top_sc = cand_ids[order], cand_sc[order]
            if top_ids.size >= k:
                threshold = max(threshold, top_sc[-1])
        self.last_wand_stats = {
            "chunks_total": sum(c.n_chunks for c in cursors),
            "chunks_decoded": sum(c.decoded for c in cursors),
        }
        return top_ids, top_sc


class _ChunkCursor:
    """Per-term cursor over chunk rows with lazy decode and partial
    (window-bounded) consumption.

    The per-chunk upper bound comes from the stored (max_tf, min_dl):
    impact is increasing in tf and decreasing in dl, so
    idf * max_tf*(k1+1)/(max_tf + k1*(1-b+b*min_dl/avgdl)) bounds every
    posting in the chunk (inflated by 1+1e-12 against float rounding).
    """

    def __init__(self, rows: pa.Table, idf: float, k1: float, b: float, avgdl: float):
        self.idf = idf
        self.k1 = k1
        self.b = b
        self.avgdl = avgdl
        self.first = rows.column("first_doc").to_numpy()
        self.last = rows.column("last_doc").to_numpy()
        mtf = rows.column("max_tf").to_numpy().astype(np.float64)
        mdl = rows.column("min_dl").to_numpy().astype(np.float64)
        self.ub = (
            idf * mtf * (k1 + 1.0)
            / (mtf + k1 * (1.0 - b + b * mdl / max(avgdl, 1e-9)))
        ) * (1.0 + 1e-12)
        # value buffers and per-chunk byte offsets, taken once: a chunk
        # decode is then two byte-range slices and one LEB128 pass
        self._n = rows.column("n").to_numpy()
        self._docs, self._docs_off = cell_buffers(rows.column("docs"))
        self._tfs_b, self._tfs_off = cell_buffers(rows.column("tfs"))
        self.n_chunks = rows.num_rows
        self.ci = 0
        self._ids = None
        self._tfs = None
        self._off = 0
        self.done = self.n_chunks == 0
        self.consumed = False
        self.decoded = 0  # pruning telemetry

    @property
    def cur_first(self):
        return self.first[self.ci]

    @property
    def cur_last(self):
        return self.last[self.ci]

    @property
    def cur_ub(self) -> float:
        return float(self.ub[self.ci])

    @property
    def next_doc(self):
        """Next unconsumed posting's docID (chunk first if undecoded)."""
        if self._ids is None:
            return self.first[self.ci]
        return self._ids[self._off]

    def skip_upto(self, window_end):
        """Advance past postings <= window_end without scoring (the chunk
        spans the window boundary; ids decoded, scores never computed)."""
        self._ensure()
        self._off = int(np.searchsorted(self._ids, window_end, side="right"))
        self.consumed = self._off >= self._ids.size

    def _decode(self, i: int, j: int):
        """(doc_ids, tfs) of chunks i..j-1."""
        return decode_streams(
            self._docs[self._docs_off[i] : self._docs_off[j]],
            self._tfs_b[self._tfs_off[i] : self._tfs_off[j]],
            self._n[i:j],
        )

    def _ensure(self):
        if self._ids is None:
            self._ids, self._tfs = self._decode(self.ci, self.ci + 1)
            self._off = 0
            self.decoded += 1

    def take_upto(self, window_end, dls_for, alive_mask=None):
        """Consume postings with doc_id <= window_end; return (ids, scores).
        Covers as many chunks as the window spans (multi-chunk windows
        come from the adaptive batching in bm25_topk_wand): after
        draining a partially-decoded current chunk, every FULLY covered
        chunk is decoded in one concatenated varint pass (the per-chunk
        decode call overhead is what makes naive WAND slower than brute
        force when no pruning fires). alive_mask (tombstone filter)
        only removes postings, so chunk upper bounds stay valid."""
        ids_parts, tfs_parts = [], []
        proceed = True
        if self._ids is not None:
            # drain the current partially-decoded chunk
            cut = int(np.searchsorted(self._ids, window_end, side="right"))
            ids_parts.append(self._ids[self._off : cut])
            tfs_parts.append(self._tfs[self._off : cut])
            self._off = cut
            self.consumed = cut >= self._ids.size
            if self.consumed and self.ci + 1 < self.n_chunks and self.first[
                self.ci + 1
            ] <= window_end:
                self.next_chunk()
            else:
                proceed = False
        if proceed and self._ids is None and not self.done:
            # bulk: contiguous chunks fully inside the window, one decode
            j = self.ci + int(
                np.searchsorted(self.last[self.ci :], window_end, side="right")
            )
            if j > self.ci:
                bulk_ids, bulk_tfs = self._decode(self.ci, j)
                ids_parts.append(bulk_ids)
                tfs_parts.append(bulk_tfs)
                self.decoded += j - self.ci
                self.ci = j - 1
                self.next_chunk()  # lands on chunk j (or done)
            # trailing partial chunk intersecting the window
            if not self.done and self.first[self.ci] <= window_end:
                self._ensure()
                cut = int(np.searchsorted(self._ids, window_end, side="right"))
                ids_parts.append(self._ids[self._off : cut])
                tfs_parts.append(self._tfs[self._off : cut])
                self._off = cut
                self.consumed = cut >= self._ids.size
            else:
                self.consumed = False
        if len(ids_parts) == 1:
            ids, tfs = ids_parts[0], tfs_parts[0]
        else:
            ids = np.concatenate(ids_parts)
            tfs = np.concatenate(tfs_parts)
        if alive_mask is not None and ids.size:
            m = alive_mask(ids)
            if m is not None:
                ids, tfs = ids[m], tfs[m]
        if ids.size == 0:
            return ids, np.empty(0, np.float64)
        dls = dls_for(ids)
        tf = tfs.astype(np.float64)
        denom = tf + self.k1 * (1.0 - self.b + self.b * dls / max(self.avgdl, 1e-9))
        return ids, self.idf * tf * (self.k1 + 1.0) / denom

    def next_chunk(self):
        self.ci += 1
        self._ids = None
        self._tfs = None
        self.consumed = False
        if self.ci >= self.n_chunks:
            self.done = True
