"""Distributed index build: corpus Parquet -> inverted index segments.

Physical plan (SURVEY.md §3.1 / §7):

    Phase T  tokenize   read_corpus(corpus: url/html)
                        -> map_batches(extract_tokenize, stateless tasks;
                           the classifier is fused into the task, its
                           tables are per-process globals)
                        -> write_parquet(out/tokenized, partition_cols=bucket)
                        (the build's one Ray Data job; checkpoint=False
                        deletes it once the index phase commits)
    Phase P  postings   per_bucket: one plain Ray task per staging dir
                        bucket=K, running make_assign_and_build:
                          [exclude_segments] drop the urls that the
                             same bucket of an excluded index holds live
                          write_docmap_part: assign docIDs + write the
                             docmap part atomically
                          -> explode (term, doc_id, tf, dl)
                          -> encode_bucket: in-task sort (term, doc_id),
                             then codec.encode_chunks, every chunk of the
                             bucket in one numpy pass [delta+varint]
                        -> write_part(out/index/data/part-K.parquet)
    Phase S  stats      corpus_stats: docmap dl -> N/avgdl (driver-side
                        below 256MB, distributed aggregate above)
    Phase D  dict       write_dict: (term, n, cf) chunk rows -> per-term
                        sums -> out/dict (driver-side below
                        DICT_DRIVER_LIMIT, distributed aggregate above)

merge.merge_indexes (and so compaction) runs the same per_bucket tasks,
writers, encoder, Phase S and Phase D over existing indexes instead of a
corpus, so a compacted index equals a fresh build of its documents.

Shuffle inventory: the only all-to-all is doc-granular and keyed on
``bucket``: the hive-partitioned staging write, a map-side scatter. It
runs before postings explode, on the small side of the data. Buckets
own disjoint docID ranges, so each bucket writes its own chunk rows per
term and no task ever holds one term's whole posting list: a hot term is
spread evenly over buckets by the md5 bucketing (contrast the
reference's single merge thread + 256 frequency bags,
threads.rs:523-561, word_map.rs:23-43).

DocIDs: ``doc_id = bucket << 36 | rank_of_url_within_bucket`` with
``bucket = md5(url)[:2 bytes] % num_buckets`` — deterministic,
execution-order-independent, reproducible in SQL (the DuckDB oracle
computes the same ids). Dense per bucket, so delta+varint stays
compact.

Resume: each phase directory gets an atomic ``_COMMITTED`` marker and a
``metrics.jsonl`` lineage record; a rerun skips committed phases.
Incremental indexing (the reference's have_file dedup,
threads.rs:292-297, made distributed) is a build with
``exclude_segments``: Phase P's bucket task anti-joins its docs against
the same bucket's live docmap urls of each excluded index, with no
exchange, because a url has one bucket in every index of one bucket
count. merge.update_index runs it over every committed segment.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from textindex_ray.index.codec import _empty_chunks, encode_chunks
from textindex_ray.index.delete import load_tombstones
from textindex_ray.stages.extract import extract_tokenize

K1 = 1.2
B = 0.75
BUCKET_SHIFT = 36  # doc_id = (bucket << 36) | local rank

def _data(d: str) -> str:
    """Parquet files live under <phase>/data; markers/metrics at <phase>/."""
    return os.path.join(d, "data")


def _committed(d: str) -> bool:
    return os.path.exists(os.path.join(d, "_COMMITTED"))


def _fresh(d: str) -> None:
    """Reset an uncommitted phase dir: stale partial output from an
    interrupted run must not mix with the rerun's files."""
    shutil.rmtree(_data(d), ignore_errors=True)
    os.makedirs(_data(d), exist_ok=True)


def _commit(d: str, metrics: dict, params: dict | None = None) -> None:
    from textindex_ray import diagnostics

    snap = diagnostics.snapshot()
    if snap:
        metrics = {**metrics, "alloc": snap}
    with open(os.path.join(d, "metrics.jsonl"), "a") as f:
        f.write(json.dumps(metrics) + "\n")
    with open(os.path.join(d, "_COMMITTED.tmp"), "w") as f:
        f.write(json.dumps({"ts": time.time(), "params": params or {}}))
    os.replace(os.path.join(d, "_COMMITTED.tmp"), os.path.join(d, "_COMMITTED"))


def _check_params(d: str, params: dict) -> None:
    """A committed phase must have been built with the same parameters —
    resuming a num_buckets=8 staging under num_buckets=64 would silently
    break the docID contract."""
    try:
        with open(os.path.join(d, "_COMMITTED")) as f:
            stored = json.load(f).get("params") or {}
    except (OSError, json.JSONDecodeError):
        return
    for k, v in params.items():
        if k in stored and stored[k] != v:
            raise ValueError(
                "resume mismatch in %s: committed with %s=%r, rerun wants %r "
                "(use a fresh out_dir or resume=False)" % (d, k, stored[k], v)
            )


def write_docmap_part(docmap_dir: str, bucket: int, docs: pa.Table) -> np.ndarray:
    """Write one bucket's docmap part atomically and return its docIDs.

    ``docs`` (url, dl, n_words, doctype) must be url-sorted and
    url-unique. This writer holds the docID contract that build and
    merge share: ``doc_id = bucket << BUCKET_SHIFT | rank of the url
    within the bucket``."""
    n = docs.num_rows
    local = np.arange(n, dtype=np.uint64)
    doc_ids = (np.uint64(bucket) << np.uint64(BUCKET_SHIFT)) + local
    docmap = pa.table(
        {
            "url": docs.column("url"),
            "doc_id": pa.array(doc_ids, pa.uint64()),
            "segment_id": pa.array(np.full(n, bucket, dtype=np.uint32), pa.uint32()),
            "local_doc_id": pa.array(local, pa.uint64()),
            "dl": docs.column("dl"),
            "n_words": docs.column("n_words"),
            "doctype": docs.column("doctype"),
        }
    )
    write_part(docmap, docmap_dir, "docmap-%05d.parquet" % bucket)
    return doc_ids


def write_part(table: pa.Table, data_dir: str, name: str) -> int:
    """Write one parquet part atomically and return its size in bytes:
    first to a dot-prefixed temporary name, which no parquet dataset
    reader lists, then ``os.replace``, so a crashed or retried task
    leaves no half file that a reader could see."""
    tmp = os.path.join(data_dir, "." + name + ".tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(data_dir, name))
    return os.path.getsize(os.path.join(data_dir, name))


def encode_bucket(postings: pa.Table, chunk_size: int) -> pa.Table:
    """One bucket's (term, doc_id, tf, dl) postings -> its chunk rows:
    an in-task sort by (term, doc_id), then ``codec.encode_chunks``,
    which encodes every chunk of the bucket in one numpy pass.

    Buckets own disjoint docID ranges, so per-term chunk rows from
    different buckets cover disjoint, ordered doc ranges: exactly the
    chunked index format, with no global postings sort."""
    order = pc.sort_indices(postings, [("term", "ascending"), ("doc_id", "ascending")])
    return encode_chunks(postings.take(order), chunk_size)


def read_live_docmap_part(index_dir: str, bucket: int, tomb: np.ndarray,
                          columns: list[str]) -> pa.Table | None:
    """One bucket's docmap part of an index, less its tombstoned docs
    (``tomb``: the index's ``delete.load_tombstones``); None when the
    index has no part for the bucket. ``columns`` must include doc_id."""
    part = os.path.join(_data(os.path.join(index_dir, "docmap")),
                        "docmap-%05d.parquet" % bucket)
    if not os.path.exists(part):
        return None
    dm = pq.read_table(part, columns=columns)
    return dm.filter(pa.array(~np.isin(dm.column("doc_id").to_numpy(), tomb)))


def make_assign_and_build(tok_data: str, docmap_dir: str, chunk_size: int,
                          exclude: list = ()):
    """Per-bucket build fn, ``bucket -> (docs, chunk rows)``, over the
    bucket's extracted docs in the staging dir ``tok_data/bucket=K``:
    drop the urls that ``exclude`` already holds, assign docIDs and
    write the docmap part (``write_docmap_part``), explode (term, doc_id,
    tf, dl) postings, then ``encode_bucket``. Heavy terms are spread
    evenly across buckets by construction (md5 bucketing), so term skew
    cannot concentrate in one task.

    ``exclude`` is a list of (index dir, tombstones) pairs. A url's
    bucket is md5(url) % num_buckets in every index of one bucket count,
    so the bucket's live excluded urls are the live urls of each
    excluded index's docmap part for the same bucket: an anti-join with
    no exchange."""

    def assign_and_build(bucket: int) -> tuple[int, pa.Table]:
        group = pq.read_table(
            os.path.join(tok_data, "bucket=%d" % bucket),
            columns=["url", "doctype", "dl", "n_words", "terms", "tfs"],
        )
        if exclude:
            typ = group.schema.field("url").type
            done = [read_live_docmap_part(d, bucket, tomb, ["url", "doc_id"])
                    for d, tomb in exclude]
            urls = pa.chunked_array(
                [t.column("url").cast(typ) for t in done if t is not None], typ)
            group = group.filter(pc.invert(
                pc.is_in(group.column("url"), value_set=urls.combine_chunks())))
        group = group.take(pc.sort_indices(group.column("url")))
        # duplicate urls (re-crawls): keep one row per url, chosen by a
        # content digest so the winner is deterministic regardless of
        # block arrival order (reference have_file keeps first-seen in
        # walk order, threads.rs:292-297; a distributed build has no
        # walk order, so content-digest-min is the canonical choice)
        url_col = group.column("url").combine_chunks()
        if pc.count_distinct(url_col).as_py() != group.num_rows:
            import hashlib

            urls_np = url_col.to_pylist()
            best: dict[str, tuple[str, int]] = {}
            terms_l = group.column("terms").to_pylist()
            tfs_l = group.column("tfs").to_pylist()
            for i, u in enumerate(urls_np):
                dig = hashlib.md5(
                    repr((terms_l[i], tfs_l[i])).encode()
                ).hexdigest()
                if u not in best or dig < best[u][0]:
                    best[u] = (dig, i)
            keep = sorted(i for _, i in best.values())
            group = group.take(pa.array(keep, pa.int64()))
        if group.num_rows == 0:
            return 0, _empty_chunks()
        doc_ids = write_docmap_part(docmap_dir, bucket, group)

        terms = group.column("terms")
        lens = pc.list_value_length(terms).to_numpy().astype(np.int64)
        postings = pa.table(
            {
                "term": pc.list_flatten(terms),
                "doc_id": pa.array(np.repeat(doc_ids, lens), pa.uint64()),
                "tf": pc.list_flatten(group.column("tfs")),
                "dl": pa.array(
                    np.repeat(group.column("dl").to_numpy().astype(np.uint32), lens),
                    pa.uint32(),
                ),
            }
        )
        return group.num_rows, encode_bucket(postings, chunk_size)

    return assign_and_build


@ray.remote
def _bucket_task(build_one, bucket: int, index_data_dir: str) -> dict:
    """One Phase P task: build one bucket, write its chunk rows (when it
    has any) to ``part-<bucket>.parquet`` with ``write_part``, and
    return the bucket's lineage record."""
    t0 = time.perf_counter()
    docs, chunks = build_one(bucket)
    nbytes = 0
    if chunks.num_rows:
        nbytes = write_part(chunks, index_data_dir, "part-%05d.parquet" % bucket)
    return {"bucket": bucket, "docs": int(docs),
            "postings": int(pc.sum(chunks.column("n")).as_py() or 0),
            "chunk_rows": chunks.num_rows, "bytes": nbytes,
            "sec": round(time.perf_counter() - t0, 6)}


def per_bucket(buckets: list[int], build_one, index_data_dir: str) -> list[dict]:
    """Phase P, shared by build and merge: one plain Ray task per bucket
    (no Ray Data job, no shuffle). ``build_one(bucket)`` writes the
    bucket's docmap part and returns ``(docs, chunk rows)``; the task
    writes the chunk rows to ``index_data_dir``. Returns one lineage
    record per bucket (``bucket``, ``docs``, ``postings``,
    ``chunk_rows``, ``bytes`` written, the task's ``sec``)."""
    fn = ray.put(build_one)
    return ray.get([_bucket_task.remote(fn, b, index_data_dir) for b in buckets])


# Phase D runs on the driver below this many bytes of chunk rows, and as
# a distributed aggregate above it
DICT_DRIVER_LIMIT = 512 * 1024 * 1024


def build_dict_distributed(
    index_data_dir: str, dict_data_dir: str, *, num_partitions: int = 64
) -> None:
    """Distributed dictionary aggregate, partition-bucketed: per-block
    Arrow partial combine -> coarse crc32(term) partition -> per-partition
    Arrow sum -> global range sort by term -> write. Ray-level group keys
    stay coarse (a groupby("term") pays ~0.2 ms of Python per group —
    hours at 10^8 terms); the final sort is a sample-based range shuffle
    with no per-group cost."""
    import zlib

    P = int(num_partitions)

    def part_combine(b: pa.Table) -> pa.Table:
        g = b.group_by("term").aggregate([("n", "sum"), ("cf", "sum")])
        part = pa.array(
            [zlib.crc32(t.encode("utf-8")) % P for t in g.column("term").to_pylist()],
            pa.int32(),
        )
        return pa.table(
            {"term": g.column("term"), "n": g.column("n_sum"),
             "cf": g.column("cf_sum"), "part": part}
        )

    def part_sum(g: pa.Table) -> pa.Table:
        t = g.group_by("term").aggregate([("n", "sum"), ("cf", "sum")])
        return pa.table(
            {"term": t.column("term"),
             "df": t.column("n_sum").cast(pa.uint64()),
             "cf": t.column("cf_sum").cast(pa.uint64())}
        )

    (
        ray.data.read_parquet(index_data_dir, columns=["term", "n", "cf"])
        .map_batches(part_combine, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_sum, batch_format="pyarrow")
        .sort("term")
        .write_parquet(dict_data_dir)
    )


def _parquet_files(data_dir: str) -> list[str]:
    return [os.path.join(data_dir, f) for f in os.listdir(data_dir) if f.endswith(".parquet")]


def corpus_stats(docmap_dir: str) -> tuple[int, int]:
    """Phase S: (n_docs, total_dl) from the docmap's dl column —
    driver-side below 256 MB of docmap, a distributed aggregate above."""
    data = _data(docmap_dir)
    if sum(os.path.getsize(f) for f in _parquet_files(data)) < 256 * 1024 * 1024:
        dl_col = pq.read_table(data, columns=["dl"]).column("dl")
        return len(dl_col), int(pc.sum(dl_col).as_py() or 0)
    sds = ray.data.read_parquet(data, columns=["dl"])
    n_docs = sds.count()
    return n_docs, int(sds.sum("dl")) if n_docs else 0


def write_dict(index_dir: str, dict_dir: str) -> None:
    """Phase D: the (term, df, cf) dictionary of the chunk rows, sorted by
    term — a driver-side Arrow group_by below ``DICT_DRIVER_LIMIT`` bytes
    of chunk rows (the chunk metadata is tiny next to the corpus, so this
    beats a Ray job's fixed costs), ``build_dict_distributed`` above."""
    _fresh(dict_dir)
    data = _data(index_dir)
    if sum(os.path.getsize(f) for f in _parquet_files(data)) >= DICT_DRIVER_LIMIT:
        build_dict_distributed(data, _data(dict_dir))
        return
    d = _empty_dict()
    ct = pq.read_table(data, columns=["term", "n", "cf"])
    if ct.num_rows:
        g = ct.group_by("term").aggregate([("n", "sum"), ("cf", "sum")])
        d = pa.table({"term": g.column("term"),
                      "df": g.column("n_sum").cast(pa.uint64()),
                      "cf": g.column("cf_sum").cast(pa.uint64())})
        d = d.take(pc.sort_indices(d.column("term")))
    pq.write_table(d, os.path.join(_data(dict_dir), "dict.parquet"))


def write_meta(out_dir: str, meta: dict) -> dict:
    """Write ``meta.json`` atomically (the index's commit point)."""
    with open(os.path.join(out_dir, "meta.json.tmp"), "w") as f:
        json.dump(meta, f, indent=2)
    os.replace(os.path.join(out_dir, "meta.json.tmp"), os.path.join(out_dir, "meta.json"))
    return meta


def _empty_dict() -> pa.Table:
    return pa.table({"term": pa.array([], pa.string()),
                     "df": pa.array([], pa.uint64()),
                     "cf": pa.array([], pa.uint64())})


def _empty_docmap() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.uint64()),
            "segment_id": pa.array([], pa.uint32()),
            "local_doc_id": pa.array([], pa.uint64()),
            "dl": pa.array([], pa.uint32()),
            "n_words": pa.array([], pa.uint32()),
            "doctype": pa.array([], pa.string()),
        }
    )


def _write_empty_index(out_dir: str, num_buckets: int, chunk_size: int) -> dict:
    """Zero-document corpus: emit a valid, queryable empty index."""
    for sub, table in (
        ("docmap", _empty_docmap()),
        ("index", _empty_chunks()),
        ("dict", _empty_dict()),
    ):
        d = os.path.join(out_dir, sub)
        os.makedirs(_data(d), exist_ok=True)
        pq.write_table(table, os.path.join(_data(d), "empty.parquet"))
        _commit(d, {"phase": sub, "empty": True})
    return write_meta(out_dir, {
        "n_docs": 0, "total_dl": 0, "avgdl": 0.0, "k1": K1, "b": B,
        "num_buckets": num_buckets, "bucket_shift": BUCKET_SHIFT,
        "chunk_size": chunk_size, "timings": {}, "empty": True,
        "built_at": time.time(),
    })


def read_corpus(corpus_path, input_format: str = "parquet") -> "ray.data.Dataset":
    """Corpus path -> (url:string, html:binary) Dataset for any ingest
    format: "parquet" (column-pruned read), "files" (directory walk,
    sources/files.py), "jsonl" (NDJSON dumps, sources/jsonl.py), or
    "warc" (Common-Crawl archives, sources/warc.py). Shared by
    build_index (and so by every lifecycle entry point) and
    pipelines/ingest.py."""
    if input_format == "files":
        from textindex_ray.sources.files import read_file_corpus

        return read_file_corpus(corpus_path)
    if input_format == "jsonl":
        from textindex_ray.sources.jsonl import read_jsonl_corpus

        return read_jsonl_corpus(corpus_path)
    if input_format == "warc":
        from textindex_ray.sources.warc import read_warc_corpus

        return read_warc_corpus(corpus_path)
    if input_format != "parquet":
        raise ValueError("unknown input_format: %r" % (input_format,))
    return ray.data.read_parquet(corpus_path, columns=["url", "html"])


def build_index(
    corpus_path,
    out_dir: str,
    *,
    num_buckets: int = 64,
    chunk_size: int = 1024,
    batch_size: int = 1024,
    keep_text: bool = False,
    checkpoint: bool = True,
    resume: bool = True,
    input_format: str = "parquet",
    exclude_segments: list[str] = (),
) -> dict:
    """Run the full build. Returns the meta dict (N, avgdl, timings).

    Phase T writes the tokenized staging table, hive-partitioned by
    bucket; each bucket dir is then built by one plain Ray task
    (``per_bucket``). checkpoint=True (default) keeps the staging as the
    resume boundary (re-runs skip extraction); checkpoint=False deletes
    ``tokenized/`` once the index phase commits.

    Extraction holds no state, so it runs as tasks on Ray's warm worker
    pool, sized by Ray, and cannot take every CPU away from the read and
    write stages at any cluster size.

    input_format: "parquet" (the corpus table), "files" (a loose-file
    directory tree, the reference's walk source — read_binary_files with
    the O1 name filter applied at the read, sources/files.py), or
    "jsonl" (NDJSON document dumps, the webtext interchange format —
    sources/jsonl.py auto-detects the payload field), or "warc"
    (Common-Crawl WARC/WET archives, one file per read task —
    sources/warc.py).

    exclude_segments: index dirs (of this num_buckets) whose live urls
    must not be indexed. Each bucket task reads the bucket's docmap part
    of every excluded index, drops its tombstoned docs (a deleted url is
    indexed again), and filters its own docs by url before the docID
    assignment, so the result equals a build of the corpus without
    those urls. When every doc is excluded, the build writes the empty
    index. The sorted list is a resume parameter: resuming under a
    different list raises ValueError. merge.update_index passes every
    committed segment.
    """
    import pyarrow.dataset as pads

    os.makedirs(out_dir, exist_ok=True)
    tok_dir = os.path.join(out_dir, "tokenized")
    docmap_dir = os.path.join(out_dir, "docmap")
    index_dir = os.path.join(out_dir, "index")
    dict_dir = os.path.join(out_dir, "dict")
    timings = {}

    params = {"num_buckets": num_buckets, "chunk_size": chunk_size,
              "exclude_segments": sorted(exclude_segments)}
    have_tok = resume and _committed(tok_dir)
    have_idx = resume and _committed(index_dir)
    if have_tok:
        _check_params(tok_dir, {"num_buckets": num_buckets})
    if have_idx:
        _check_params(index_dir, params)

    if not (have_tok or have_idx):
        if input_format == "files":
            if not any(files for _, _, files in os.walk(corpus_path)):
                return _write_empty_index(out_dir, num_buckets, chunk_size)
        elif input_format == "jsonl":
            from textindex_ray.sources.jsonl import jsonl_has_rows

            if not jsonl_has_rows(corpus_path):
                return _write_empty_index(out_dir, num_buckets, chunk_size)
        elif input_format == "warc":
            from textindex_ray.sources.warc import warc_has_records

            if not warc_has_records(corpus_path):
                return _write_empty_index(out_dir, num_buckets, chunk_size)
        # metadata-only row count (no Ray job)
        elif pads.dataset(corpus_path).count_rows() == 0:
            return _write_empty_index(out_dir, num_buckets, chunk_size)

    # ---- Phase T: tokenize into the bucket-partitioned staging ------------
    if not have_tok and not have_idx:
        t0 = time.time()
        _fresh(tok_dir)
        # classification is fused into extract_tokenize; the bucket-
        # partitioned write is the map-side scatter that Phase P reads
        read_corpus(corpus_path, input_format).map_batches(
            extract_tokenize,
            fn_kwargs={"num_buckets": num_buckets, "keep_text": keep_text},
            batch_format="pyarrow",
            batch_size=batch_size,
        ).write_parquet(
            _data(tok_dir), partition_cols=["bucket"], min_rows_per_file=50_000
        )
        timings["tokenize_sec"] = time.time() - t0
        _commit(tok_dir, {"phase": "tokenize", "sec": timings["tokenize_sec"]},
                {"num_buckets": num_buckets})

    # ---- Phase P: docIDs + postings, one task per bucket -----------------
    if not have_idx:
        t0 = time.time()
        _fresh(docmap_dir)
        _fresh(index_dir)
        buckets = sorted(int(d.split("=", 1)[1])
                         for d in os.listdir(_data(tok_dir)) if d.startswith("bucket="))
        exclude = [(d, load_tombstones(d)) for d in exclude_segments]
        recs = per_bucket(
            buckets,
            make_assign_and_build(_data(tok_dir), _data(docmap_dir), chunk_size, exclude),
            _data(index_dir),
        )
        if not any(f.endswith(".parquet") for f in os.listdir(_data(docmap_dir))):
            # every document classified 'ignore', or exclude_segments
            # already holds every document
            if not checkpoint:
                shutil.rmtree(tok_dir, ignore_errors=True)
            return _write_empty_index(out_dir, num_buckets, chunk_size)
        timings["postings_sec"] = time.time() - t0
        _commit(docmap_dir, {"phase": "docmap", "sec": timings["postings_sec"]}, params)
        _commit(index_dir, {"phase": "index", "sec": timings["postings_sec"],
                            "tasks": len(recs), "buckets": recs}, params)
    if not checkpoint:
        shutil.rmtree(tok_dir, ignore_errors=True)

    # ---- Phase S: corpus stats (from the docmap) ---------------------------
    t0 = time.time()
    n_docs, total_dl = corpus_stats(docmap_dir)
    timings["stats_sec"] = time.time() - t0

    # ---- Phase D: dictionary ---------------------------------------------
    if not (resume and _committed(dict_dir)):
        t0 = time.time()
        write_dict(index_dir, dict_dir)
        timings["dict_sec"] = time.time() - t0
        _commit(dict_dir, {"phase": "dict", "sec": timings["dict_sec"]})

    return write_meta(out_dir, {
        "n_docs": int(n_docs),
        "total_dl": int(total_dl),
        "avgdl": (total_dl / n_docs) if n_docs else 0.0,
        "k1": K1,
        "b": B,
        "num_buckets": num_buckets,
        "bucket_shift": BUCKET_SHIFT,
        "chunk_size": chunk_size,
        "timings": timings,
        "corpus_path": str(corpus_path),
        "built_at": time.time(),
    })
