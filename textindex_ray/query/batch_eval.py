"""Distributed batch query evaluation: a Dataset of queries scored
against the index by doc-range shards (SURVEY.md §3.2: "batch query
evaluation over the reference query set runs as a small map_batches
job").

One evaluator, :func:`evaluate_queries`, over
``list_segments(index_path)``: a plain index is the one-segment case
(segment id bits 0, corpus stats equal to its meta.json, global dfs
equal to its own dictionary), so plain and segmented indexes take the
same path and return the same rows as ``IndexReader`` /
``SegmentedReader``.

Each shard is one (segment, doc_range) slice. A doc lives in exactly one
segment (update-path url disjointness) and one doc range, so a shard
computes every one of its docs' COMPLETE BM25 sums locally with
CORPUS-WIDE stats (N/avgdl from the segment metas, per-term df summed
over segment dictionaries):

- bm25_topk: per-shard exact top-k -> merge = lexsort over
  n_shards x k rows. Exact because per-doc scores are shard-local and
  the global (score desc, doc_id asc) selection over the union of
  complete per-shard top-ks equals the unsharded selection.
- term_and / wildcard_and: per-shard AND result; shards are disjoint,
  so the merge is a concatenation + sort.
- file_glob: the url surface is per segment, not per doc range; each
  segment's first shard counts its urls and the merge sums them.

The exchange is O(n_shards x k) per query.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray.data


def doc_shard_boundaries(index_path: str, n_shards: int) -> list[tuple[int, int]]:
    """Cut the docID space into n contiguous [lo, hi) ranges on bucket
    boundaries (docIDs are bucket << bucket_shift | rank, so bucket
    ranges are docID ranges; md5-bucket assignment makes them
    count-uniform)."""
    with open(os.path.join(index_path, "meta.json")) as f:
        meta = json.load(f)
    nb = int(meta.get("num_buckets", 64))
    shift = int(meta.get("bucket_shift", 36))
    n_shards = max(1, min(n_shards, nb))
    step = (nb + n_shards - 1) // n_shards
    out = []
    for b in range(0, nb, step):
        hi_b = min(b + step, nb)
        out.append((b << shift, hi_b << shift))
    return out


# Worker-process cache of shard readers (the stages/extract module-global
# pattern): a doc-range reader costs ~1 s of open+slice-preload at
# 1.5 M docs, paid per eval_shard task without this. Keyed by BOTH the
# tombstone file's (mtime_ns, size) — a delete_docs() on the same index
# path invalidates stale masks — and meta.json's (mtime_ns, size), which
# every build/merge/update rewrites, so an index rebuilt or atomically
# swapped at the same path (update_index) invalidates warm readers even
# when no tombstone file exists. Capped so long-lived workers serving
# many indexes stay bounded.
_READER_CACHE: dict = {}
_READER_CACHE_CAP = 8


def _file_key(path: str):
    try:
        st = os.stat(path)
        return (st.st_mtime_ns, st.st_size)
    except OSError:
        return None


def _cached_reader(index_path: str, doc_range: tuple[int, int]):
    from textindex_ray.index.delete import TOMBSTONE_FILE

    tomb_key = _file_key(os.path.join(index_path, TOMBSTONE_FILE))
    meta_key = _file_key(os.path.join(index_path, "meta.json"))
    key = (index_path, doc_range, tomb_key, meta_key)
    r = _READER_CACHE.get(key)
    if r is None:
        from textindex_ray.query.engine import IndexReader

        r = IndexReader(index_path, doc_range=doc_range)
        _READER_CACHE[key] = r
        while len(_READER_CACHE) > _READER_CACHE_CAP:
            _READER_CACHE.pop(next(iter(_READER_CACHE)))
    return r


def _np_list_array(chunks: list, np_dtype, pa_type) -> pa.LargeListArray:
    """large_list<pa_type> column from per-row numpy arrays without
    Python per-element conversion. int64 offsets: one shard task's
    concatenated posting payload can exceed 2^31 values at the module's
    target scale, where int32 ListArray offsets raise ArrowInvalid."""
    lens = np.fromiter((c.size for c in chunks), np.int64, len(chunks))
    offs = np.concatenate(([0], np.cumsum(lens)))
    vals = (
        np.concatenate(chunks) if chunks else np.empty(0, np_dtype)
    ).astype(np_dtype, copy=False)
    return pa.LargeListArray.from_arrays(
        pa.array(offs, pa.int64()), pa.array(vals, pa_type)
    )


def _list_values(col) -> np.ndarray:
    """Concatenated values of a list column (all rows' lists, in row
    order) as one numpy array."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return arr.flatten().to_numpy(zero_copy_only=False)


def evaluate_queries(
    index_path: str, queries: "ray.data.Dataset", *, n_shards: int = 4,
) -> "ray.data.Dataset":
    """queries schema: qid:int32, kind:string, terms:list<string>[, k:int32]
    (k missing or 0 means 10). Returns qid, doc_ids, scores — doc ids in
    the SegmentedReader gid space (seg << seg_shift | doc_id), which is
    the plain docID space for a plain index.

    Plan: (query x shard) rows -> groupby(shard) (each task scores its
    queries on one cached (segment, doc_range) reader) -> per-shard
    partial rows -> groupby(qid) merge (module docstring).
    """
    from textindex_ray.index.segments import collection_stats, list_segments
    from textindex_ray.query.segmented import min_seg_shift, term_dfs

    seg_paths = list_segments(index_path)
    stats = collection_stats(index_path)
    n_docs_g, avgdl_g = int(stats["n_docs"]), float(stats["avgdl"])
    metas = []
    for p in seg_paths:
        with open(os.path.join(p, "meta.json")) as f:
            metas.append(json.load(f))
    seg_shift = min_seg_shift(metas)

    # shards: >=1 per segment, extra shards to the bigger segments
    per_seg = [max(1, round(n_shards * int(m["n_docs"]) / max(n_docs_g, 1)))
               for m in metas]
    shard_list: list[tuple[int, tuple[int, int], bool]] = []
    for si, (p, k) in enumerate(zip(seg_paths, per_seg)):
        for j, dr in enumerate(doc_shard_boundaries(p, k)):
            shard_list.append((si, dr, j == 0))

    # global df map for every bm25 term in the batch (queries are the
    # small side; one driver collect of the term lists)
    all_terms: set = set()
    for row in queries.select_columns(["kind", "terms"]).take_all():
        if row["kind"] == "bm25_topk":
            all_terms.update(row["terms"])
    df_map: dict = {}
    for p in seg_paths:
        for t, d in term_dfs(p, sorted(all_terms)).items():
            df_map[t] = df_map.get(t, 0) + d

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        idx = np.repeat(np.arange(n), len(shard_list))
        shard = np.tile(np.arange(len(shard_list), dtype=np.int32), n)
        out = batch.take(pa.array(idx))
        return out.append_column("shard", pa.array(shard, pa.int32()))

    expanded = queries.map_batches(explode, batch_format="pyarrow")

    def eval_shard(g: pa.Table) -> pa.Table:
        shard = int(g.column("shard")[0].as_py())
        si, dr, first = shard_list[shard]
        reader = _cached_reader(seg_paths[si], dr)
        # corpus-wide stats: every call installs them, so a cached
        # reader never scores with another batch's values
        reader.n_docs = n_docs_g
        reader.avgdl = avgdl_g
        reader._df_global = df_map
        rows = {"qid": [], "kind": [], "k": []}
        id_chunks: list = []
        sc_chunks: list = []
        seg_hi = np.uint64(si) << np.uint64(seg_shift)
        ks = (g.column("k").to_pylist() if "k" in g.column_names
              else [10] * g.num_rows)
        for qid, kind, terms, k in zip(
            g.column("qid").to_pylist(), g.column("kind").to_pylist(),
            g.column("terms").to_pylist(), ks,
        ):
            k = int(k or 10)
            if kind == "bm25_topk":
                # adaptive scorer: WAND runs under doc_range (edge
                # chunks masked like tombstones); results identical
                # either way
                ids, sc = reader.bm25_topk_auto(list(terms), k)
                ids = ids | seg_hi
            elif kind in ("term_and", "wildcard_and"):
                ids = reader.find(list(terms)) | seg_hi
                sc = np.zeros(ids.size, np.float64)
            elif kind == "file_glob":
                if not first:
                    continue
                urls = reader.find_files(terms[0] if terms else "*")
                ids = np.empty(0, np.uint64)
                sc = np.array([float(len(urls))])
            else:
                ids = np.empty(0, np.uint64)
                sc = np.empty(0, np.float64)
            rows["qid"].append(qid)
            rows["kind"].append(kind)
            rows["k"].append(k)
            id_chunks.append(np.asarray(ids, np.uint64))
            sc_chunks.append(np.asarray(sc, np.float64))
        return pa.table(
            {
                "qid": pa.array(rows["qid"], pa.int32()),
                "kind": pa.array(rows["kind"], pa.string()),
                "k": pa.array(rows["k"], pa.int32()),
                "doc_ids": _np_list_array(id_chunks, np.uint64, pa.uint64()),
                "scores": _np_list_array(sc_chunks, np.float64, pa.float64()),
            }
        )

    partials = expanded.groupby("shard").map_groups(
        eval_shard, batch_format="pyarrow"
    )

    def merge_q(g: pa.Table) -> pa.Table:
        qid = int(g.column("qid")[0].as_py())
        kind = g.column("kind")[0].as_py()
        k = int(g.column("k")[0].as_py())
        id_vals = _list_values(g.column("doc_ids")).astype(np.uint64, copy=False)
        sc_vals = _list_values(g.column("scores"))
        if kind == "bm25_topk":
            sel = np.lexsort((id_vals, -sc_vals))[:k]
            out_ids, out_sc = id_vals[sel], sc_vals[sel]
        elif kind in ("term_and", "wildcard_and"):
            out_ids = np.sort(id_vals)  # (segment, range) slices disjoint
            out_sc = np.zeros(out_ids.size, np.float64)
        elif kind == "file_glob":  # one count row per segment — sum them
            out_ids = np.empty(0, np.uint64)
            out_sc = np.array([float(sc_vals.sum())])
        else:
            out_ids = np.empty(0, np.uint64)
            out_sc = np.empty(0, np.float64)
        return pa.table(
            {
                "qid": pa.array([qid], pa.int32()),
                "doc_ids": _np_list_array(
                    [np.asarray(out_ids, np.uint64)], np.uint64, pa.uint64()),
                "scores": _np_list_array(
                    [np.asarray(out_sc, np.float64)], np.float64, pa.float64()),
            }
        )

    return partials.groupby("qid").map_groups(merge_q, batch_format="pyarrow")
