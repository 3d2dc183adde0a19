"""Index merge with docID remapping, and incremental index update.

merge_indexes: sort-merge K independently built indexes into one global
index. Each source's postings are decoded, docIDs are remapped through a
per-source remap table (old internal id -> new internal id under the
merged docmap), and the union is re-sorted/re-encoded — the north-star
"segment-level posting lists are sort-merged into a global index with a
docID remapping table".

Duplicate urls across sources keep the FIRST source's document (the
reference's incremental have_file semantics: already-indexed files are
skipped, /root/reference/src/proc3/threads.rs:292-297); later sources'
postings for dropped docs are filtered out during remap.

update_index: incremental indexing — anti-join the corpus against the
committed docmap urls, build a delta index of only the new documents,
then merge. At testdata scale the committed-url set is broadcast
(ray.put); at 10^12-doc scale the same anti-join runs with a Bloom
filter per worker instead of an exact set (noted inline).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from textindex_ray.index.build import (
    BUCKET_SHIFT,
    _commit,
    _data,
    _fresh,
    build_dict_distributed,
    build_index,
    K1,
    B,
)
from textindex_ray.index.codec import decode_chunks, encode_chunks
from textindex_ray.stages.extract import url_bucket


def _read_docmap(index_dir: str) -> pa.Table:
    return pq.read_table(_data(os.path.join(index_dir, "docmap")))


# Worker-process cache of loaded remap slices, keyed
# (remap_data_dir, run_token, src, old_bucket) -> (old_sorted, new, dl)
# numpy arrays. Module-global so Ray's long-lived worker processes reuse
# slices across map_batches tasks (the stages/extract pattern) without
# an actor pool; bounded by _remap_cache_cap entries (oldest-first
# eviction), so worker memory is O(cap x docs_per_bucket), never
# O(corpus) unless the cap allows it. run_token is the remap phase's
# _COMMITTED mtime_ns: two merges into the SAME out_dir within one Ray
# session (e.g. repeated incremental updates reusing <index>.work/merged)
# write different remap tables to the same path — without the token,
# warm workers would serve the previous run's slices and silently
# corrupt the merged postings.
_REMAP_SLICES: dict = {}


def _remap_lookup(
    remap_data: str, run_token: int, si: int, ids: np.ndarray, cache_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized old->new docID remap for one source's posting ids.

    Returns (new_ids, dls, keep): keep[i] False means old id ids[i] has
    no row in the merged docmap (a dropped duplicate / tombstoned doc).
    Loads only the (src, old_bucket) remap slices the ids actually
    touch — file-pruned via the hive src= layout + old_bucket filter —
    and caches them per worker process.
    """
    b = (ids >> np.uint64(BUCKET_SHIFT)).astype(np.int64)
    need = [int(x) for x in np.unique(b)] if ids.size else []
    local: dict = {}
    missing = []
    for bu in need:
        key = (remap_data, run_token, si, bu)
        if key in _REMAP_SLICES:
            local[bu] = _REMAP_SLICES[key]
        else:
            missing.append(bu)
    if missing:
        src_dir = os.path.join(remap_data, "src=%d" % si)
        if os.path.isdir(src_dir):
            t = pq.read_table(
                src_dir,
                columns=["old_id", "new_id", "dl", "old_bucket"],
                filters=[("old_bucket", "in", missing)],
            )
        else:  # source contributed no surviving docs at all
            t = pa.table(
                {"old_id": pa.array([], pa.uint64()),
                 "new_id": pa.array([], pa.uint64()),
                 "dl": pa.array([], pa.uint32()),
                 "old_bucket": pa.array([], pa.int64())}
            )
        ob = t.column("old_bucket").to_numpy()
        old_a = t.column("old_id").to_numpy()
        new_a = t.column("new_id").to_numpy()
        dl_a = t.column("dl").to_numpy()
        for bu in missing:
            m = ob == bu
            old = old_a[m].astype(np.uint64)
            order = np.argsort(old)
            sl = (
                old[order],
                new_a[m][order].astype(np.uint64),
                dl_a[m][order].astype(np.uint32),
            )
            local[bu] = sl
            _REMAP_SLICES[(remap_data, run_token, si, bu)] = sl
        while len(_REMAP_SLICES) > cache_cap:
            _REMAP_SLICES.pop(next(iter(_REMAP_SLICES)))
    new = np.zeros(ids.size, np.uint64)
    dl = np.zeros(ids.size, np.uint32)
    keep = np.zeros(ids.size, bool)
    for bu in need:
        old_s, new_s, dl_s = local[bu]
        if old_s.size == 0:
            continue
        m = b == bu
        sub = ids[m]
        pos = np.minimum(np.searchsorted(old_s, sub), old_s.size - 1)
        k = old_s[pos] == sub
        idx = np.flatnonzero(m)[k]
        new[idx] = new_s[pos[k]]
        dl[idx] = dl_s[pos[k]]
        keep[idx] = True
    return new, dl, keep


def merge_indexes(index_dirs: list[str], out_dir: str, *, num_buckets: int = 64,
                  chunk_size: int = 1024,
                  remap_cache_slices: int = 4096) -> dict:
    """Merge K indexes into out_dir. Returns the merged meta dict.

    Distributed throughout — the driver never holds (or broadcasts)
    anything per-doc; its footprint is O(num_buckets):

    1. docmap merge: union of source docmaps (tagged with source rank)
       -> bucket by md5(url) -> groupby(bucket) does first-source-wins
       inside the group, assigns ranks, and atomically writes BOTH the
       merged docmap part AND the bucket's remap parts
       (src, old_id, new_id, dl, old_bucket) hive-laid-out as
       ``remap/data/src=K/remap-<newbucket>.parquet`` — the group task
       returns only a 1-row (bucket, n, total_dl) stats table, so the
       driver collect is O(num_buckets).
    2. postings: per-source chunk decode -> vectorized remap via
       :func:`_remap_lookup` (dropped-duplicate docs filtered by
       membership miss; dl attached from the same remap row, no dense
       per-doc array anywhere) -> union -> (term, doc_id) sort ->
       re-encode. Decode tasks load ONLY the (src, old_bucket) slices
       their batches touch, cached per worker process: the final index
       is term-major, so a common term's chunks sweep the doc-id space
       and a worker warms toward its source's slice set, while
       bucket-clustered inputs stay at a few slices — either way the
       remap never transits the driver and IO is file/row-group pruned
       by the hive src= + old_bucket layout.
    """
    import json
    import time

    os.makedirs(out_dir, exist_ok=True)
    docmap_dir = os.path.join(out_dir, "docmap")
    remap_dir = os.path.join(out_dir, "remap")
    index_dir = os.path.join(out_dir, "index")
    dict_dir = os.path.join(out_dir, "dict")
    for d in (docmap_dir, remap_dir, index_dir, dict_dir):
        # reset: stale parts from a previous (crashed/different-source)
        # merge into the same out_dir must never mix with this run's
        _fresh(d)

    # ---- merged docmap: first-source-wins per url, re-bucketed ------------
    # compaction: each source's tombstoned docs (delete.py) are dropped
    # here; their postings vanish via the remap membership miss below
    from textindex_ray.index.delete import load_tombstones

    srcs = []
    for si, d in enumerate(index_dirs):
        dm = ray.data.read_parquet(
            _data(os.path.join(d, "docmap")),
            columns=["url", "doc_id", "dl", "n_words", "doctype"],
        )
        tomb_ref = ray.put(load_tombstones(d))

        def tag(batch: pa.Table, si=si, tomb_ref=tomb_ref) -> pa.Table:
            tomb = ray.get(tomb_ref)
            if tomb.size and batch.num_rows:
                ids = batch.column("doc_id").to_numpy().astype(np.uint64)
                pos = np.minimum(np.searchsorted(tomb, ids), tomb.size - 1)
                batch = batch.filter(pa.array(tomb[pos] != ids))
            names = ["old_id" if c == "doc_id" else c for c in batch.column_names]
            return batch.rename_columns(names).append_column(
                "src", pa.array(np.full(batch.num_rows, si, np.int32))
            )

        srcs.append(dm.map_batches(tag, batch_format="pyarrow"))
    alldm = srcs[0]
    for s in srcs[1:]:
        alldm = alldm.union(s)

    # bucket reuse: a source's old_id already encodes md5(url) %
    # src_num_buckets in its top bits — when every source was built with
    # the TARGET bucket count, bucket = old_id >> shift and the per-url
    # md5 re-hash (a Python loop over the whole corpus) is skipped.
    same_buckets = True
    for d in index_dirs:
        try:
            import json as _json

            with open(os.path.join(d, "meta.json")) as f:
                m = _json.load(f)
            if int(m.get("num_buckets", -1)) != num_buckets or int(
                m.get("bucket_shift", BUCKET_SHIFT)
            ) != BUCKET_SHIFT:
                same_buckets = False
        except OSError:
            same_buckets = False

    def add_bucket(batch: pa.Table) -> pa.Table:
        if same_buckets:
            b = (
                batch.column("old_id").to_numpy().astype(np.uint64)
                >> np.uint64(BUCKET_SHIFT)
            ).astype(np.int64)
        else:
            b = url_bucket(batch.column("url").to_pylist(), num_buckets)
        return batch.append_column("bucket", pa.array(b.astype(np.int64)))

    # first-source-wins happens INSIDE the bucket group (md5 bucketing
    # colocates every copy of a url): a groupby(url) would pay Ray's
    # ~0.2 ms-per-group Python cost over the whole corpus
    won = alldm.map_batches(add_bucket, batch_format="pyarrow")

    dmdir = _data(docmap_dir)
    rmdir = _data(remap_dir)

    def assign_bucket(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = g.take(
            pc.sort_indices(g, [("url", "ascending"), ("src", "ascending")])
        )
        n0 = g.num_rows
        if n0 > 1:
            u = g.column("url").combine_chunks()
            eq = pc.equal(u.slice(1, n0 - 1), u.slice(0, n0 - 1)).to_numpy(
                zero_copy_only=False
            )
            starts = np.concatenate(([0], np.flatnonzero(~eq) + 1))
            g = g.take(pa.array(starts))
        n = g.num_rows
        bucket = int(g.column("bucket")[0].as_py())
        ids = (np.uint64(bucket) << np.uint64(BUCKET_SHIFT)) + np.arange(n, dtype=np.uint64)
        docmap = pa.table(
            {
                "url": g.column("url"),
                "doc_id": pa.array(ids, pa.uint64()),
                "segment_id": pa.array(np.full(n, bucket, dtype=np.uint32), pa.uint32()),
                "local_doc_id": pa.array(np.arange(n, dtype=np.uint64), pa.uint64()),
                "dl": g.column("dl").cast(pa.uint32()),
                "n_words": g.column("n_words").cast(pa.uint32()),
                "doctype": g.column("doctype"),
            }
        )
        tmp = os.path.join(dmdir, "docmap-%05d.parquet.tmp" % bucket)
        pq.write_table(docmap, tmp)
        os.replace(tmp, os.path.join(dmdir, "docmap-%05d.parquet" % bucket))
        # remap parts: compact fixed-width rows, hive-partitioned by
        # source so a decode task's slice load reads only its source's
        # files (old_bucket sorted within each file -> row-group pruning)
        remap = pa.table(
            {
                "src": g.column("src").cast(pa.int32()),
                "old_id": g.column("old_id").cast(pa.uint64()),
                "new_id": pa.array(ids, pa.uint64()),
                "dl": g.column("dl").cast(pa.uint32()),
            }
        )
        srcs_here = np.unique(remap.column("src").to_numpy())
        import pyarrow.compute as pc2

        for si in srcs_here.tolist():
            sub = remap.filter(pc2.equal(remap.column("src"), si))
            old_np = sub.column("old_id").to_numpy().astype(np.uint64)
            order2 = np.argsort(old_np)
            sub = sub.take(pa.array(order2)).append_column(
                "old_bucket",
                pa.array(
                    (old_np[order2] >> np.uint64(BUCKET_SHIFT)).astype(np.int64),
                    pa.int64(),
                ),
            ).drop_columns(["src"])
            sdir = os.path.join(rmdir, "src=%d" % int(si))
            os.makedirs(sdir, exist_ok=True)
            tmp2 = os.path.join(sdir, "remap-%05d.parquet.tmp" % bucket)
            pq.write_table(sub, tmp2)
            os.replace(tmp2, os.path.join(sdir, "remap-%05d.parquet" % bucket))
        return pa.table(
            {
                "bucket": pa.array([bucket], pa.int64()),
                "n": pa.array([n], pa.int64()),
                "total_dl": pa.array(
                    [int(np.sum(g.column("dl").to_numpy().astype(np.int64)))],
                    pa.int64(),
                ),
            }
        )

    # driver collect is one row per bucket (never per doc/url)
    stats_df = (
        won.groupby("bucket")
        .map_groups(assign_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    _commit(docmap_dir, {"phase": "merge-docmap", "sources": index_dirs})
    _commit(remap_dir, {"phase": "merge-remap", "sources": index_dirs})
    # per-run cache token for _remap_lookup (see _REMAP_SLICES)
    run_token = os.stat(os.path.join(remap_dir, "_COMMITTED")).st_mtime_ns

    n_docs = int(stats_df["n"].sum()) if len(stats_df) else 0
    total_dl = int(stats_df["total_dl"].sum()) if len(stats_df) else 0
    avgdl = total_dl / n_docs if n_docs else 0.0

    # ---- postings: decode + remap per source, union, re-sort, re-encode ---
    def make_decode_remap(si: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids_all, tf_all = decode_chunks(batch)
            new_all, dl_all, keep = _remap_lookup(
                rmdir, run_token, si, ids_all, remap_cache_slices
            )
            # each surviving posting's chunk row -> its term
            n_col = batch.column("n").to_numpy().astype(np.int64)
            row_idx = np.repeat(np.arange(batch.num_rows), n_col)[keep]
            return pa.table(
                {
                    "term": batch.column("term").take(pa.array(row_idx, pa.int64())),
                    "doc_id": pa.array(new_all[keep], pa.uint64()),
                    "tf": pa.array(tf_all[keep].astype(np.uint32), pa.uint32()),
                    "dl": pa.array(dl_all[keep], pa.uint32()),
                }
            )

        return fn

    parts = []
    for si, d in enumerate(index_dirs):
        src = ray.data.read_parquet(
            _data(os.path.join(d, "index")), columns=["term", "n", "docs", "tfs"]
        )
        parts.append(src.map_batches(make_decode_remap(si), batch_format="pyarrow"))
    postings = parts[0]
    for p in parts[1:]:
        postings = postings.union(p)

    chunks = postings.sort(["term", "doc_id"]).map_batches(
        encode_chunks, fn_kwargs={"chunk_size": chunk_size}, batch_format="pyarrow"
    )
    chunks.write_parquet(_data(index_dir))
    _commit(index_dir, {"phase": "merge-index", "sources": index_dirs})

    cds = ray.data.read_parquet(_data(index_dir), columns=["term", "n", "cf"])
    if cds.count() > 0:
        build_dict_distributed(_data(index_dir), _data(dict_dir))
    else:
        pq.write_table(
            pa.table({"term": pa.array([], pa.string()),
                      "df": pa.array([], pa.uint64()),
                      "cf": pa.array([], pa.uint64())}),
            os.path.join(_data(dict_dir), "empty.parquet"),
        )
    _commit(dict_dir, {"phase": "merge-dict"})

    meta = {
        "n_docs": n_docs, "total_dl": int(total_dl), "avgdl": float(avgdl),
        "k1": K1, "b": B, "num_buckets": num_buckets,
        "bucket_shift": BUCKET_SHIFT, "chunk_size": chunk_size,
        "merged_from": list(index_dirs), "built_at": time.time(), "timings": {},
    }
    with open(os.path.join(out_dir, "meta.json.tmp"), "w") as f:
        json.dump(meta, f, indent=2)
    os.replace(os.path.join(out_dir, "meta.json.tmp"), os.path.join(out_dir, "meta.json"))
    return meta


class IndexUpdateLock:
    """Single-writer guard for the incremental lifecycle: two concurrent
    ``update_index`` / ``compact_index`` calls on one index would race
    the segment manifest and share the same ``.work`` dir. O_EXCL lock
    file NEXT TO the index dir (compaction swaps the dir itself); a
    holder older than ``stale_sec`` is assumed crashed and taken over
    (best-effort unlink+retry — the window is one syscall wide and the
    downstream writes are still atomic, so a lost race corrupts
    nothing, it just surfaces as this same error again)."""

    def __init__(self, index_dir: str, stale_sec: float = 3600.0):
        self.path = index_dir.rstrip("/") + ".updating"
        self.stale_sec = stale_sec
        self._fd = None

    def __enter__(self):
        import json as _json
        import time as _time

        for attempt in (0, 1):
            try:
                self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(self._fd, _json.dumps(
                    {"pid": os.getpid(), "ts": _time.time()}).encode())
                return self
            except FileExistsError:
                try:
                    age = _time.time() - os.stat(self.path).st_mtime
                except OSError:
                    continue  # holder released between our two syscalls
                if attempt == 0 and age > self.stale_sec:
                    try:
                        os.unlink(self.path)  # crashed holder takeover
                    except OSError:
                        pass
                    continue
                raise RuntimeError(
                    "another update holds %s (age %.0fs); wait for it or "
                    "remove the lock if its process is dead" % (self.path, age)
                )
        raise RuntimeError("could not acquire " + self.path)

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        try:
            os.unlink(self.path)
        except OSError:
            pass


def _with_update_lock(argpos: int):
    """Decorate a lifecycle entry point with the single-writer guard
    (index_dir at positional ``argpos``)."""
    import functools

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            index_dir = kw.get("index_dir") or args[argpos]
            with IndexUpdateLock(index_dir):
                return fn(*args, **kw)

        return wrapper

    return deco


@_with_update_lock(0)
def compact_index(index_dir: str, *, num_buckets: int = 64,
                  chunk_size: int = 1024) -> dict:
    """Force-compact a (possibly segmented) index NOW: full-merge every
    segment (dropping tombstoned docs and docID-remapping) and
    atomically swap the single-segment result in. The on-demand form of
    the ratio-triggered compaction inside ``update_index``."""
    from textindex_ray.index.segments import list_segments

    work = index_dir.rstrip("/") + ".work"
    merged = os.path.join(work, "merged")
    shutil.rmtree(work, ignore_errors=True)
    meta = merge_indexes(list_segments(index_dir), merged,
                         num_buckets=num_buckets, chunk_size=chunk_size)

    from textindex_ray.query.engine import IndexReader

    IndexReader(merged)  # pre-swap read check
    bak = index_dir.rstrip("/") + ".bak"
    shutil.rmtree(bak, ignore_errors=True)
    os.replace(index_dir, bak)
    os.replace(merged, index_dir)
    try:
        IndexReader(index_dir)
    except Exception:
        os.replace(index_dir, merged)
        os.replace(bak, index_dir)
        raise
    shutil.rmtree(bak, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)
    return meta


def _tomb_filter(index_dir: str):
    """Per-segment batch filter dropping tombstoned docmap rows —
    committed = LIVE urls only: a deleted url re-appearing in the corpus
    is re-indexed (delete.py contract)."""
    from textindex_ray.index.delete import load_tombstones

    tomb = load_tombstones(index_dir)

    def fn(batch: pa.Table) -> pa.Table:
        if tomb.size and batch.num_rows:
            ids = batch.column("doc_id").to_numpy().astype(np.uint64)
            pos = np.minimum(np.searchsorted(tomb, ids), tomb.size - 1)
            batch = batch.filter(pa.array(tomb[pos] != ids))
        return batch.select(["url"])

    return fn


@_with_update_lock(1)
def update_index(corpus_path, index_dir: str, *, work_dir: str | None = None,
                 num_buckets: int = 64, chunk_size: int = 1024,
                 membership: str = "auto", exact_limit: int = 1_000_000,
                 fp_rate: float = 0.01, num_partitions: int = 4,
                 mode: str = "segment", compact_ratio: float = 0.5,
                 input_format: str = "parquet") -> dict:
    """Incremental indexing: index only not-yet-committed urls.

    mode picks the lifecycle:
      - "segment" (default, the scale path): build a delta index of only
        the new documents and APPEND it as a segment
        (index/segments.py) — the base index's postings are never
        decoded or rewritten. When the accumulated delta mass exceeds
        ``compact_ratio x base_docs``, every segment is full-merged
        (compaction) and the result atomically replaces index_dir.
        Queries run via ``query.segmented.open_reader`` (exact
        query-time merge). Matches the reference's true incremental
        semantics (threads.rs:292-297 skip-already-indexed,
        word_map.rs:203-249 append-in-place).
      - "merge": the one-shot path — build the delta, then immediately
        full-merge it with every existing segment (pays a base-index
        re-encode per increment; right when increments are rare and
        large, or to force compaction now).

    membership picks how the committed-url anti-join runs:
      - "exact": broadcast exact set (small committed sets)
      - "bloom": broadcast Bloom bitmap prefilter (~10 bits/url at 1% FP);
        "definitely new" rows pass immediately, "maybe committed" rows
        (committed urls + FP-rate of the new ones) are resolved EXACTLY
        with a partitioned left_anti join — same result, only the
        maybe-set shuffles
      - "auto": exact when committed docs <= exact_limit, else bloom

    The anti-join runs against EVERY committed segment (base + deltas),
    so segments stay url-disjoint — the invariant the query-time merge's
    exactness rests on. Returns the collection meta
    (n_docs/avgdl/segments/compacted); any index replacement is atomic
    (build aside + read-checked swap).
    """
    import json

    from textindex_ray.index.segments import (
        append_segment,
        collection_stats,
        list_segments,
        load_manifest,
    )

    if mode not in ("segment", "merge"):
        raise ValueError("mode must be 'segment' or 'merge', got %r" % mode)
    seg_dirs = list_segments(index_dir)

    work_dir = work_dir or (index_dir.rstrip("/") + ".work")
    delta_dir = os.path.join(work_dir, "delta")
    merged_dir = os.path.join(work_dir, "merged")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(delta_dir, exist_ok=True)

    n_committed = 0
    for d in seg_dirs:
        with open(os.path.join(d, "meta.json")) as f:
            n_committed += int(json.load(f).get("n_docs", 0))
    if membership == "auto":
        membership = "exact" if n_committed <= exact_limit else "bloom"

    from textindex_ray.index.build import read_corpus

    ds = read_corpus(corpus_path, input_format)

    if membership == "exact":
        committed: set = set()
        for d in seg_dirs:
            dm = _read_docmap(d).select(["url", "doc_id"])
            committed.update(_tomb_filter(d)(dm).column("url").to_pylist())
        ref = ray.put(committed)

        def anti_join(batch: pa.Table) -> pa.Table:
            done = ray.get(ref)
            mask = pa.array([u not in done for u in batch.column("url").to_pylist()])
            return batch.filter(mask)

        new_corpus = ds.map_batches(anti_join, batch_format="pyarrow")
    else:
        from textindex_ray.index.bloom import UrlBloom

        # committed urls across ALL segments, tombstone-filtered per
        # segment. materialize: cds is consumed twice (bloom build
        # stream + the left_anti join) — without this the read +
        # tombstone filter lineage re-executes per consumer
        seg_streams = [
            ray.data.read_parquet(
                _data(os.path.join(d, "docmap")), columns=["url", "doc_id"]
            ).map_batches(_tomb_filter(d), batch_format="pyarrow")
            for d in seg_dirs
        ]
        cds = seg_streams[0]
        for s in seg_streams[1:]:
            cds = cds.union(s)
        cds = cds.materialize()
        bloom = UrlBloom.sized_for(n_committed, fp_rate)

        def partial_bloom(batch: pa.Table) -> pa.Table:
            b = UrlBloom(bloom.m, bloom.k)
            b.add_batch(batch.column("url").to_pylist())
            return pa.table({"words": pa.array([b.words.tobytes()], pa.large_binary())})

        # per-block partial bitmaps, OR-reduced streaming on the driver
        # (one m-bit bitmap resident at a time)
        for bt in cds.map_batches(
            partial_bloom, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            for wb in bt.column("words"):
                bloom.words |= np.frombuffer(wb.as_py(), dtype=np.uint64)
        bloom_ref = ray.put((bloom.m, bloom.k, bloom.words))

        def flag(batch: pa.Table) -> pa.Table:
            m, kk, words = ray.get(bloom_ref)
            bl = UrlBloom(m, kk, words)
            maybe = bl.contains_batch(batch.column("url").to_pylist())
            return batch.append_column("maybe", pa.array(maybe))

        import pyarrow.compute as pc

        flagged = ds.map_batches(flag, batch_format="pyarrow").materialize()

        def take_new(batch: pa.Table) -> pa.Table:
            mask = pc.invert(batch.column("maybe").combine_chunks())
            return batch.filter(mask).drop_columns(["maybe"])

        def take_maybe(batch: pa.Table) -> pa.Table:
            return batch.filter(
                batch.column("maybe").combine_chunks()
            ).drop_columns(["maybe"])

        definitely_new = flagged.map_batches(take_new, batch_format="pyarrow")
        # the maybe side can be EMPTY (all-new corpus, zero Bloom false
        # positives); an empty dataset loses its schema through
        # Dataset.join, so materialize and branch on the count — the
        # pattern documented for dedup.minhash_lsh_pairs
        maybe = flagged.map_batches(take_maybe, batch_format="pyarrow").materialize()
        if maybe.count() == 0:
            new_corpus = definitely_new
        else:
            from textindex_ray.functions._util import join_right

            survivors = join_right(maybe, num_partitions).join(
                # NEITHER side may hold zero-row blocks: the documented
                # right-side hazard, and (measured on 2.49.2) a LEFT
                # side whose filter emptied some blocks breaks
                # left_anti the same way — join_right's repartition
                # fixes both
                join_right(cds, num_partitions), join_type="left_anti",
                num_partitions=num_partitions, on=("url",),
            )
            new_corpus = definitely_new.union(survivors)
    staged = os.path.join(work_dir, "corpus-delta")
    os.makedirs(staged, exist_ok=True)
    new_corpus.write_parquet(staged)
    # ensure readable even when zero new rows
    if not any(f.endswith(".parquet") for f in os.listdir(staged)):
        pq.write_table(
            pa.table({"url": pa.array([], pa.string()),
                      "html": pa.array([], pa.binary())}),
            os.path.join(staged, "empty.parquet"),
        )

    delta_meta = build_index(
        staged, delta_dir, num_buckets=num_buckets, chunk_size=chunk_size
    )

    def _swap_in(merged: str) -> None:
        # Crash-safe swap: the merged index must pass a read check BEFORE
        # the old index is touched, and the .bak copy survives until the
        # swapped-in index passes a read check too — a failure at any
        # point leaves either the old index in place or a recoverable
        # .bak next to it. The old segments.json / segments/ travel into
        # .bak with the old base; the merged index is single-segment.
        from textindex_ray.query.engine import IndexReader

        IndexReader(merged)  # pre-swap read check (raises on a bad merge)
        bak = index_dir.rstrip("/") + ".bak"
        shutil.rmtree(bak, ignore_errors=True)
        os.replace(index_dir, bak)
        os.replace(merged, index_dir)
        try:
            IndexReader(index_dir)  # post-swap read check
        except Exception:
            # roll back: restore the old index from .bak
            os.replace(index_dir, merged)
            os.replace(bak, index_dir)
            raise
        shutil.rmtree(bak, ignore_errors=True)

    if mode == "merge":
        meta = merge_indexes(seg_dirs + [delta_dir], merged_dir,
                             num_buckets=num_buckets, chunk_size=chunk_size)
        _swap_in(merged_dir)
        shutil.rmtree(work_dir, ignore_errors=True)
        return meta

    # ---- mode == "segment": append the delta, compact past the ratio -----
    added = int(delta_meta["n_docs"])
    if added == 0:
        shutil.rmtree(work_dir, ignore_errors=True)
        out = collection_stats(index_dir)
        out.update({"added_docs": 0, "compacted": False,
                    "segments": list_segments(index_dir)})
        return out

    from textindex_ray.query.engine import IndexReader

    IndexReader(delta_dir)  # read check before the delta becomes visible
    gen = int(load_manifest(index_dir).get("generation", 0)) + 1
    rel = os.path.join("segments", "seg-%06d" % gen)
    dest = os.path.join(index_dir, rel)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    # same-filesystem move when work_dir sits next to index_dir (the
    # default); falls back to copy+rm across filesystems
    try:
        os.replace(delta_dir, dest)
    except OSError:
        shutil.copytree(delta_dir, dest)
    append_segment(index_dir, rel)  # the atomic commit point

    with open(os.path.join(index_dir, "meta.json")) as f:
        base_docs = int(json.load(f).get("n_docs", 0))
    stats = collection_stats(index_dir)
    delta_docs = stats["n_docs"] - base_docs
    compacted = False
    if delta_docs > compact_ratio * max(base_docs, 1):
        merge_indexes(list_segments(index_dir), merged_dir,
                      num_buckets=num_buckets, chunk_size=chunk_size)
        _swap_in(merged_dir)
        compacted = True
        stats = collection_stats(index_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    stats.update({"added_docs": added, "compacted": compacted,
                  "segments": list_segments(index_dir)})
    return stats
