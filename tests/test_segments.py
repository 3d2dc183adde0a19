"""Segmented incremental lifecycle (index/segments.py,
query/segmented.py): update_index(mode="segment") appends delta
segments WITHOUT rewriting the base index, query-time merge is exactly
the fully merged index, and compaction kicks in past the ratio.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from textindex_ray.corpus import generate_corpus
from textindex_ray.index.build import build_index
from textindex_ray.index.merge import update_index
from textindex_ray.index.segments import (
    delete_docs_all,
    is_segmented,
    list_segments,
)
from textindex_ray.query.engine import IndexReader
from textindex_ray.query.segmented import SegmentedReader, open_reader

QUERIES = (["alpha", "beta"], ["gamma"], ["alpha", "beta", "gamma", "delta"])


def _write(table, d):
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, "part.parquet"))


def _data_mtimes(index_dir: str) -> dict:
    out = {}
    for phase in ("index", "dict", "docmap"):
        dd = os.path.join(index_dir, phase, "data")
        for root, _, names in os.walk(dd):
            for n in names:
                p = os.path.join(root, n)
                out[p] = os.stat(p).st_mtime_ns
    return out


@pytest.fixture(scope="module")
def seg_setup(ray_session, tmp_path_factory):
    """base(100 docs) + two segment updates (60 docs each, url-disjoint),
    compact_ratio high enough to never compact; plus the full-rebuild
    oracle over all 220 docs."""
    tmp = tmp_path_factory.mktemp("segs")
    full = generate_corpus(220)
    _write(full.slice(0, 100), str(tmp / "c1"))
    _write(full.slice(0, 160), str(tmp / "c2"))   # 60 new + 100 dups
    _write(full.slice(160, 60), str(tmp / "c3"))  # 60 new, all-new corpus
    idx = str(tmp / "idx")
    build_index(str(tmp / "c1"), idx, num_buckets=8)
    before = _data_mtimes(idx)
    m1 = update_index(str(tmp / "c2"), idx, num_buckets=8, compact_ratio=10.0)
    m2 = update_index(str(tmp / "c3"), idx, num_buckets=8, compact_ratio=10.0)
    ref = str(tmp / "ref")
    _write(full, str(tmp / "call"))
    build_index(str(tmp / "call"), ref, num_buckets=8)
    return {"tmp": tmp, "idx": idx, "ref": ref, "before": before,
            "m1": m1, "m2": m2, "full": full}


def test_segment_append_never_rewrites_base(seg_setup):
    idx = seg_setup["idx"]
    assert is_segmented(idx)
    assert len(list_segments(idx)) == 3
    # (some corpus rows classify "ignore", so n_docs < row counts; the
    # collection must equal the full rebuild over the union corpus)
    assert seg_setup["m1"]["added_docs"] > 0 and not seg_setup["m1"]["compacted"]
    assert seg_setup["m2"]["added_docs"] > 0 and not seg_setup["m2"]["compacted"]
    assert seg_setup["m2"]["n_docs"] == IndexReader(seg_setup["ref"]).n_docs
    # the core contract: base postings/dict/docmap bytes untouched
    assert _data_mtimes(idx) == seg_setup["before"]


def test_segmented_reader_equals_full_build(seg_setup):
    r = open_reader(seg_setup["idx"])
    assert isinstance(r, SegmentedReader)
    rr = IndexReader(seg_setup["ref"])
    assert r.n_docs == rr.n_docs
    assert r.total_dl == int(rr.meta["total_dl"])
    assert r.avgdl == rr.avgdl  # same ints -> bit-equal float division
    for t in ("alpha", "beta", "gamma", "zzz-absent"):
        assert r.df(t) == rr.df(t), t
        if rr.df(t):
            assert r.idf(t) == rr.idf(t), t
    for q in QUERIES:
        gids, sc = r.bm25_scores(q)
        ids_r, sc_r = rr.bm25_scores(q)
        assert dict(zip(r.urls_for(gids), sc)) == dict(zip(rr.urls_for(ids_r), sc_r)), q
        # top-k score arrays identical; membership identical when untied
        a, sa = r.bm25_topk(q, 10)
        b, sb = rr.bm25_topk(q, 10)
        assert sa.tolist() == sb.tolist(), q
        if np.unique(sa).size == sa.size:
            assert r.urls_for(a) == rr.urls_for(b), q
        # WAND == brute on the segmented reader (exact identity)
        w, sw = r.bm25_topk_wand(q, 10)
        assert w.tolist() == a.tolist() and sw.tolist() == sa.tolist(), q
        au, su = r.bm25_topk_auto(q, 10)
        assert au.tolist() == a.tolist() and su.tolist() == sa.tolist(), q
    # boolean find + files: same url sets
    hits = r.find(["alpha", "bet*"])
    ref_hits = rr.find(["alpha", "bet*"])
    assert sorted(r.urls_for(hits)) == sorted(rr.urls_for(ref_hits))
    assert sorted(r.find_files("*doc*")) == sorted(rr.find_files("*doc*"))
    assert sorted(r.resolve_terms("alp*")) == sorted(rr.resolve_terms("alp*"))


def test_segmented_batch_eval_and_server(seg_setup, check_eval_matches_reader):
    import pyarrow as pa

    from textindex_ray.query.serve import BM25Server

    idx = seg_setup["idx"]
    r = SegmentedReader(idx)
    rows = ([("bm25_topk", list(q)) for q in QUERIES]
            + [("term_and", ["alpha", "beta"]), ("wildcard_and", ["alp*"]),
               ("file_glob", ["*doc*"])])
    queries = pa.table({
        "qid": pa.array(range(len(rows)), pa.int32()),
        "kind": pa.array([kind for kind, _ in rows]),
        "terms": pa.array([t for _, t in rows], pa.list_(pa.string())),
        "k": pa.array([10] * len(rows), pa.int32()),
    })
    # ids in the gid space: a base-only scorer would miss the deltas' docs
    check_eval_matches_reader(idx, r, queries)

    srv = BM25Server(idx, n_shards=3, num_cpus=0.25)
    try:
        for q in QUERIES:
            ids, sc = r.bm25_topk(q, 10)
            si, ss = srv.bm25_topk(list(q), 10)
            assert si.tolist() == ids.tolist() and ss.tolist() == sc.tolist(), q
        assert srv.find(["alpha", "beta"]).tolist() == r.find(["alpha", "beta"]).tolist()
        assert srv.find_files_count("*doc*") == len(r.find_files("*doc*"))
    finally:
        srv.shutdown()


def test_server_refresh_picks_up_new_segment(ray_session, tmp_path):
    from textindex_ray.query.serve import BM25Server

    full = generate_corpus(160)
    _write(full.slice(0, 100), str(tmp_path / "c1"))
    _write(full.slice(100, 60), str(tmp_path / "c2"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx, num_buckets=8)
    srv = BM25Server(idx, n_shards=2, num_cpus=0.25)
    try:
        warm = list(srv.shards)
        update_index(str(tmp_path / "c2"), idx, num_buckets=8, compact_ratio=10.0)
        added = srv.refresh()
        assert added == 1
        assert warm[0] in srv.shards  # old actors never restarted
        r = SegmentedReader(idx)
        for q in QUERIES:
            ids, sc = r.bm25_topk(q, 10)
            si, ss = srv.bm25_topk(list(q), 10)
            assert si.tolist() == ids.tolist() and ss.tolist() == sc.tolist(), q
    finally:
        srv.shutdown()


def test_compaction_past_ratio(ray_session, tmp_path):
    full = generate_corpus(200)
    _write(full.slice(0, 100), str(tmp_path / "c1"))
    _write(full.slice(100, 100), str(tmp_path / "c2"))
    _write(full, str(tmp_path / "call"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx, num_buckets=8)
    # 100 new docs > 0.5 x 100 base -> compacts into a single segment
    m = update_index(str(tmp_path / "c2"), idx, num_buckets=8, compact_ratio=0.5)
    assert m["compacted"]
    assert not is_segmented(idx)
    ref = str(tmp_path / "ref")
    build_index(str(tmp_path / "call"), ref, num_buckets=8)
    assert m["n_docs"] == IndexReader(ref).n_docs
    ri, rr = IndexReader(idx), IndexReader(ref)
    assert ri.n_docs == rr.n_docs
    for q in QUERIES:
        a, sa = ri.bm25_topk(q, 10)
        b, sb = rr.bm25_topk(q, 10)
        assert a.tolist() == b.tolist() and sa.tolist() == sb.tolist(), q


def test_segment_update_noop_and_delete(ray_session, tmp_path):
    full = generate_corpus(120)
    _write(full.slice(0, 80), str(tmp_path / "c1"))
    _write(full.slice(80, 40), str(tmp_path / "c2"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx, num_buckets=8)
    update_index(str(tmp_path / "c2"), idx, num_buckets=8, compact_ratio=10.0)
    # re-submitting an already-committed corpus adds nothing
    m = update_index(str(tmp_path / "c2"), idx, num_buckets=8, compact_ratio=10.0)
    assert m["added_docs"] == 0 and len(list_segments(idx)) == 2
    # tombstones apply per segment and mask everywhere
    r = SegmentedReader(idx)
    victim = r.find_files("*")[0]
    n = delete_docs_all(idx, victim)
    assert n == 1
    r2 = SegmentedReader(idx)
    assert victim not in r2.find_files("*")
    for q in QUERIES:
        gids, _ = r2.bm25_scores(q)
        assert victim not in r2.urls_for(gids)


def test_segment_update_crash_orphan_overwritten(ray_session, tmp_path):
    """A crash between the delta move and the manifest rewrite leaves an
    orphan segments/seg-NNNN dir; the next update recomputes the same
    generation, overwrites the orphan, and commits atomically."""
    full = generate_corpus(160)
    _write(full.slice(0, 80), str(tmp_path / "c1"))
    _write(full.slice(80, 40), str(tmp_path / "c2"))
    _write(full.slice(120, 40), str(tmp_path / "c3"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx, num_buckets=8)
    update_index(str(tmp_path / "c2"), idx, num_buckets=8, compact_ratio=10.0)
    # simulate the crashed second update: orphan dir, garbage content
    orphan = os.path.join(idx, "segments", "seg-000002")
    os.makedirs(orphan)
    with open(os.path.join(orphan, "junk.bin"), "wb") as f:
        f.write(b"\x00garbage")
    m = update_index(str(tmp_path / "c3"), idx, num_buckets=8, compact_ratio=10.0)
    assert m["added_docs"] > 0 and len(list_segments(idx)) == 3
    assert not os.path.exists(os.path.join(orphan, "junk.bin"))
    r = open_reader(idx)  # reads all three segments cleanly
    assert r.n_docs == m["n_docs"]


def test_segmented_wand_seed_prunes(seg_setup):
    """Threshold seeding: later segments decode fewer chunks than an
    unseeded per-segment WAND on a skew query, with identical results."""
    r = SegmentedReader(seg_setup["idx"])
    q = ["alpha", "beta", "gamma", "delta"]
    seeded_ids, seeded_sc = r.bm25_topk_wand(q, 5)
    seeded_decoded = sum(
        sum(c for c in (s.last_wand_stats["chunks_decoded"],))
        for s in r.segments
    )
    # unseeded reference: same per-segment calls without a threshold
    parts = []
    unseeded_decoded = 0
    for si, s in enumerate(r.segments):
        ids, sc = s.bm25_topk_wand(q, 5)
        unseeded_decoded += s.last_wand_stats["chunks_decoded"]
        parts.append((r._gid(si, ids), sc))
    import numpy as np

    gids = np.concatenate([p[0] for p in parts])
    sc = np.concatenate([p[1] for p in parts])
    sel = np.lexsort((gids, -sc))[:5]
    assert seeded_ids.tolist() == gids[sel].tolist()
    assert seeded_sc.tolist() == sc[sel].tolist()
    assert seeded_decoded <= unseeded_decoded


def test_compact_index_cli(ray_session, tmp_path):
    """Force-compaction: jobs/build.py --compact merges every segment
    (and drops tombstones) into a single-segment index equal to a fresh
    build over the live union."""
    import subprocess
    import sys as _sys

    from textindex_ray.index.delete import load_tombstones
    from textindex_ray.index.merge import compact_index

    full = generate_corpus(160)
    _write(full.slice(0, 100), str(tmp_path / "c1"))
    _write(full.slice(100, 60), str(tmp_path / "c2"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx, num_buckets=8)
    update_index(str(tmp_path / "c2"), idx, num_buckets=8, compact_ratio=10.0)
    r = SegmentedReader(idx)
    victim = r.find_files("*")[0]
    assert delete_docs_all(idx, victim) == 1

    before = SegmentedReader(idx)
    n_live = before.n_docs  # pre-delete stats (tombstone contract)
    # capture the segmented view BEFORE compaction moves its files
    pre: dict = {}
    for q in QUERIES:
        gids, _ = before.bm25_scores(q)
        urls = set(before.urls_for(gids))
        urls.discard(victim)
        pre[tuple(q)] = urls
    meta = compact_index(idx, num_buckets=8)
    assert not is_segmented(idx)
    assert load_tombstones(idx).size == 0  # compaction drops tombstones
    rc = IndexReader(idx)
    assert rc.n_docs == n_live - 1
    assert victim not in rc.find_files("*")
    for q in QUERIES:
        ids2, _ = rc.bm25_scores(q)
        # scores shift with post-delete stats; membership must agree
        assert set(rc.urls_for(ids2)) == pre[tuple(q)], q


def test_update_lock_single_writer(ray_session, tmp_path):
    """A held update lock makes a second update fail fast; a stale lock
    (crashed holder) is taken over; the lock never survives a
    completed update."""
    import pytest as _pytest

    from textindex_ray.index.merge import IndexUpdateLock

    full = generate_corpus(120)
    _write(full.slice(0, 80), str(tmp_path / "c1"))
    _write(full.slice(80, 40), str(tmp_path / "c2"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx, num_buckets=8)

    with IndexUpdateLock(idx):
        with _pytest.raises(RuntimeError, match="another update holds"):
            update_index(str(tmp_path / "c2"), idx, num_buckets=8,
                         compact_ratio=10.0)
    # stale takeover: plant an hours-old lock, update must proceed
    lock_path = idx + ".updating"
    with open(lock_path, "w") as f:
        f.write("{}")
    old = os.stat(lock_path).st_mtime - 7200
    os.utime(lock_path, (old, old))
    m = update_index(str(tmp_path / "c2"), idx, num_buckets=8, compact_ratio=10.0)
    assert m["added_docs"] > 0
    assert not os.path.exists(lock_path)
