"""Index merge and compaction, and incremental index update.

merge_indexes: merge K indexes built with the same bucket count into one
index through the build's Phase P (``build.per_bucket``): one plain Ray
task per target bucket, with no Ray Data job and no shuffle. A url's
bucket is md5(url) % num_buckets in every source, so every copy of a doc
and every one of its postings lives in the same bucket everywhere; a
bucket task reads only its bucket's docmap part of each source and the
chunk row groups whose doc range overlaps the bucket, then writes the
bucket's docmap part and chunk rows with the build's own writers and
encoder. On sources with no duplicate urls and no tombstones, the merged
index equals a fresh build of the union corpus, table for table.

Duplicate urls across sources keep the FIRST source's document (the
reference's incremental have_file semantics: already-indexed files are
skipped, /root/reference/src/proc3/threads.rs:292-297); later sources'
postings for dropped docs find no new docID and fall away.

update_index: incremental indexing — build a delta index of only the
new documents, then append it as a segment (and compact). The delta is
a build that excludes the committed segments: each of its bucket tasks
anti-joins its docs against the live urls of the same bucket of every
segment (``build.make_assign_and_build``), so no url set reaches the
driver and no doc crosses an exchange.
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

from textindex_ray.index.build import (
    BUCKET_SHIFT,
    _commit,
    _data,
    _fresh,
    _write_empty_index,
    build_index,
    corpus_stats,
    encode_bucket,
    per_bucket,
    read_live_docmap_part,
    write_dict,
    write_docmap_part,
    write_meta,
    K1,
    B,
)
from textindex_ray.index.codec import _empty_chunks, decode_chunks


def _index_buckets(index_dir: str, num_buckets: int | None) -> int:
    """The bucket count in index_dir's meta.json. A given num_buckets
    that differs, or a different bucket shift, raises ValueError:
    re-bucketing an index is what ``build_index`` is for."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    have = int(meta["num_buckets"])
    shift = int(meta.get("bucket_shift", BUCKET_SHIFT))
    if (num_buckets is not None and num_buckets != have) or shift != BUCKET_SHIFT:
        raise ValueError(
            "%s has num_buckets=%d, bucket_shift=%d; wanted num_buckets=%s, "
            "bucket_shift=%d (rebuild it with build_index to change them)"
            % (index_dir, have, shift, num_buckets, BUCKET_SHIFT)
        )
    return have


def _row_groups_by_bucket(index_dirs: list[str], num_buckets: int) -> dict:
    """{bucket: [(src, file, [row group, ...]), ...]} over the chunk files
    of every source, from each row group's first_doc / last_doc footer
    statistics. A row group overlaps every bucket between its smallest
    first_doc and its largest last_doc (chunks that a global sort cut
    across buckets included); one without statistics overlaps all."""
    out: dict = {}
    for si, d in enumerate(index_dirs):
        data = _data(os.path.join(d, "index"))
        for f in sorted(os.listdir(data)):
            if not f.endswith(".parquet"):
                continue
            path = os.path.join(data, f)
            md = pq.ParquetFile(path).metadata
            lo_col = md.schema.names.index("first_doc")
            hi_col = md.schema.names.index("last_doc")
            hits: dict = {}
            for rg in range(md.num_row_groups):
                meta = md.row_group(rg)
                if meta.num_rows == 0:
                    continue
                lo = meta.column(lo_col).statistics
                hi = meta.column(hi_col).statistics
                if lo is not None and lo.has_min_max and hi is not None and hi.has_min_max:
                    span = range(lo.min >> BUCKET_SHIFT, (hi.max >> BUCKET_SHIFT) + 1)
                else:
                    span = range(num_buckets)
                for b in span:
                    hits.setdefault(b, []).append(rg)
            for b, rgs in hits.items():
                out.setdefault(b, []).append((si, path, rgs))
    return out


def _merge_bucket(bucket: int, index_dirs: list[str], tombs: list,
                  row_groups: list, docmap_data: str,
                  chunk_size: int) -> tuple[int, pa.Table]:
    """One target bucket of a merge -> (docs, chunk rows); its docmap
    part is written as a side effect."""
    # ---- docs: live docs of every source, first source's copy per url
    docs = []
    for si, d in enumerate(index_dirs):
        dm = read_live_docmap_part(d, bucket, tombs[si],
                                   ["url", "doc_id", "dl", "n_words", "doctype"])
        if dm is not None:
            docs.append(dm.append_column(
                "src", pa.array(np.full(dm.num_rows, si, np.int32))))
    g = pa.concat_tables(docs)
    g = g.take(pc.sort_indices(g, [("url", "ascending"), ("src", "ascending")]))
    if g.num_rows > 1:
        u = g.column("url").combine_chunks()
        dup = pc.equal(u.slice(1), u.slice(0, len(u) - 1)).to_numpy(zero_copy_only=False)
        g = g.filter(pa.array(np.concatenate(([True], ~dup))))
    if g.num_rows == 0:
        return 0, _empty_chunks()
    new_ids = write_docmap_part(docmap_data, bucket, g)
    remap = pa.table({"src": g.column("src"), "old_id": g.column("doc_id"),
                      "doc_id": pa.array(new_ids, pa.uint64()), "dl": g.column("dl")})

    # ---- postings of every overlapping row group, old docID -> new docID
    # by a join on (src, old_id). Only this bucket's live, winning docs
    # have a remap row, so dropped docs (duplicates, tombstones) and the
    # other buckets' docs of a chunk cut across buckets all fall away
    posts = []
    for si, path, rgs in row_groups:
        rows = pq.ParquetFile(path).read_row_groups(rgs, columns=["term", "n", "docs", "tfs"])
        ids, tfs = decode_chunks(rows)
        row_of = np.repeat(np.arange(rows.num_rows), rows.column("n").to_numpy())
        posts.append(pa.table({
            "src": pa.array(np.full(ids.size, si, np.int32)),
            "old_id": pa.array(ids, pa.uint64()),
            "term": rows.column("term").take(pa.array(row_of)),
            "tf": pa.array(tfs, pa.uint64()),
        }))
    if not posts:
        return g.num_rows, _empty_chunks()
    joined = pa.concat_tables(posts).join(remap, ["src", "old_id"], join_type="inner")
    return g.num_rows, encode_bucket(joined.select(["term", "doc_id", "tf", "dl"]),
                                     chunk_size)


def merge_indexes(index_dirs: list[str], out_dir: str, *,
                  num_buckets: int | None = None, chunk_size: int = 1024) -> dict:
    """Merge K indexes into out_dir. Returns the merged meta dict.

    Every source must have the target bucket count (default: the first
    source's ``meta.json`` value) and bucket shift, else ValueError.
    Runs the build's phases over the sources instead of a corpus:

    P. one plain Ray task per target bucket (``build.per_bucket``: no
       Ray Data job, no shuffle): read each source's docmap part and the
       chunk row groups whose [first_doc, last_doc] statistics overlap
       the bucket (the driver reads only footers), and decode them; drop tombstoned docs and
       keep the first source's copy of each url; write the docmap part
       with ``build.write_docmap_part`` (the docID contract); map (src,
       old_id) to the new docID with an in-task Arrow join, which drops
       every posting of a dropped doc or of another bucket's doc; sort
       and encode with ``build.encode_bucket``; write the chunk rows to
       ``index/data/part-<bucket>.parquet``. The ``merge-index``
       metrics.jsonl record lists the per-bucket task records.
    S, D. ``build.corpus_stats`` and ``build.write_dict``.

    The driver holds O(num_buckets x row groups) footer entries and the
    sources' tombstones, never anything per doc or per posting.
    """
    from textindex_ray.index.delete import load_tombstones

    num_buckets = _index_buckets(index_dirs[0], num_buckets)
    for d in index_dirs[1:]:
        _index_buckets(d, num_buckets)
    os.makedirs(out_dir, exist_ok=True)
    docmap_dir = os.path.join(out_dir, "docmap")
    index_dir = os.path.join(out_dir, "index")
    dict_dir = os.path.join(out_dir, "dict")
    for d in (docmap_dir, index_dir, dict_dir):
        # reset: stale parts from a previous (crashed/different-source)
        # merge into the same out_dir must never mix with this run's
        _fresh(d)

    t0 = time.time()
    buckets = sorted({
        int(f[len("docmap-"):-len(".parquet")])
        for d in index_dirs
        for f in os.listdir(_data(os.path.join(d, "docmap")))
        if f.startswith("docmap-") and f.endswith(".parquet")
    })
    tombs = [load_tombstones(d) for d in index_dirs]
    row_groups = _row_groups_by_bucket(index_dirs, num_buckets)
    docmap_data = _data(docmap_dir)
    recs = per_bucket(
        buckets,
        lambda b: _merge_bucket(b, index_dirs, tombs, row_groups.get(b, []),
                                docmap_data, chunk_size),
        _data(index_dir),
    )
    if not any(f.endswith(".parquet") for f in os.listdir(_data(docmap_dir))):
        # no live doc in any source
        return _write_empty_index(out_dir, num_buckets, chunk_size)
    timings = {"postings_sec": time.time() - t0}
    _commit(docmap_dir, {"phase": "merge-docmap", "sources": index_dirs})
    _commit(index_dir, {"phase": "merge-index", "sources": index_dirs,
                        "tasks": len(recs), "buckets": recs})

    n_docs, total_dl = corpus_stats(docmap_dir)
    write_dict(index_dir, dict_dir)
    _commit(dict_dir, {"phase": "merge-dict"})
    return write_meta(out_dir, {
        "n_docs": n_docs, "total_dl": total_dl,
        "avgdl": (total_dl / n_docs) if n_docs else 0.0,
        "k1": K1, "b": B, "num_buckets": num_buckets,
        "bucket_shift": BUCKET_SHIFT, "chunk_size": chunk_size,
        "merged_from": list(index_dirs), "built_at": time.time(),
        "timings": timings,
    })


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
        for attempt in (0, 1):
            try:
                self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(self._fd, json.dumps(
                    {"pid": os.getpid(), "ts": time.time()}).encode())
                return self
            except FileExistsError:
                try:
                    age = time.time() - os.stat(self.path).st_mtime
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


def _swap_in(index_dir: str, merged: str) -> None:
    """Crash-safe swap of a merged index into index_dir. The merged index
    must pass a read check BEFORE the old index is touched, and the .bak
    copy survives until the swapped-in index passes a read check too — a
    failure at any point leaves either the old index in place or a
    recoverable .bak next to it. The old segments.json / segments/
    travel into .bak with the old base; the merged index is
    single-segment."""
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


def _compact(index_dir: str, merged: str, num_buckets: int | None,
             chunk_size: int) -> dict:
    """Merge every segment of index_dir into ``merged`` (dropping
    tombstoned docs) and swap the single-segment result in. Unlocked:
    callers hold the index's update lock."""
    from textindex_ray.index.segments import list_segments

    meta = merge_indexes(list_segments(index_dir), merged,
                         num_buckets=num_buckets, chunk_size=chunk_size)
    _swap_in(index_dir, merged)
    return meta


@_with_update_lock(0)
def compact_index(index_dir: str, *, num_buckets: int | None = None,
                  chunk_size: int = 1024) -> dict:
    """Force-compact a (possibly segmented) index NOW: full-merge every
    segment (dropping tombstoned docs and docID-remapping) and
    atomically swap the single-segment result in. The on-demand form of
    the ratio-triggered compaction inside ``update_index``.
    num_buckets defaults to the index's own (a different value raises
    ValueError)."""
    work = index_dir.rstrip("/") + ".work"
    shutil.rmtree(work, ignore_errors=True)
    meta = _compact(index_dir, os.path.join(work, "merged"), num_buckets, chunk_size)
    shutil.rmtree(work, ignore_errors=True)
    return meta


@_with_update_lock(1)
def update_index(corpus_path, index_dir: str, *, work_dir: str | None = None,
                 num_buckets: int | None = None, chunk_size: int = 1024,
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
      - "merge": the one-shot path — append the delta, then compact
        every segment into one, even when no document was added (pays a
        base-index re-encode per increment; right when increments are
        rare and large, or to force compaction now).

    num_buckets defaults to the base index's own; a different value
    raises ValueError (segments and compaction need one bucket count).

    The delta is ``build_index(..., checkpoint=False,
    exclude_segments=every committed segment)``, so the appended segment
    carries no tokenized staging. Each bucket task drops the urls that
    the same bucket of any segment holds as a live doc, so segments stay
    url-disjoint — the invariant the query-time merge's exactness rests
    on — and a deleted url that reappears is indexed again. A delta with
    no new document appends no segment. Returns the collection meta
    (n_docs/avgdl/segments/compacted); any index replacement is atomic
    (build aside + read-checked swap).
    """
    from textindex_ray.index.segments import (
        append_segment,
        collection_stats,
        list_segments,
        load_manifest,
    )

    if mode not in ("segment", "merge"):
        raise ValueError("mode must be 'segment' or 'merge', got %r" % mode)
    num_buckets = _index_buckets(index_dir, num_buckets)

    work_dir = work_dir or (index_dir.rstrip("/") + ".work")
    delta_dir = os.path.join(work_dir, "delta")
    merged_dir = os.path.join(work_dir, "merged")
    shutil.rmtree(work_dir, ignore_errors=True)
    delta_meta = build_index(
        corpus_path, delta_dir, num_buckets=num_buckets, chunk_size=chunk_size,
        checkpoint=False, input_format=input_format,
        exclude_segments=list_segments(index_dir),
    )

    # ---- append the delta; compact past the ratio (always in merge mode)
    added = int(delta_meta["n_docs"])
    if added:
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
    compacted = mode == "merge" or (
        added > 0 and stats["n_docs"] - base_docs > compact_ratio * max(base_docs, 1)
    )
    if compacted:
        _compact(index_dir, merged_dir, num_buckets, chunk_size)
        stats = collection_stats(index_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    stats.update({"added_docs": added, "compacted": compacted,
                  "segments": list_segments(index_dir)})
    return stats
