"""Segment merge with docID remap + incremental update (SURVEY.md §7 M4)."""

import contextlib
import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from textindex_ray.corpus import generate_corpus, write_corpus
from textindex_ray.index.build import build_index
from textindex_ray.index.merge import compact_index, merge_indexes, update_index
from textindex_ray.index.segments import list_segments
from textindex_ray.oracle import OracleIndex
from textindex_ray.query.engine import IndexReader


def test_merge_equals_single_build(ray_session, tmp_path):
    """Index(A) ⊕ Index(B) == Index(A ∪ B) exactly."""
    full = generate_corpus(240)
    a, b = full.slice(0, 150), full.slice(150, 90)
    import pyarrow.parquet as pq

    for name, t in (("a", a), ("b", b), ("full", full)):
        d = tmp_path / ("c_" + name)
        d.mkdir()
        pq.write_table(t, str(d / "part.parquet"))
    build_index(str(tmp_path / "c_a"), str(tmp_path / "ia"), num_buckets=8)
    build_index(str(tmp_path / "c_b"), str(tmp_path / "ib"), num_buckets=8)
    build_index(str(tmp_path / "c_full"), str(tmp_path / "ifull"), num_buckets=8)
    merge_indexes(
        [str(tmp_path / "ia"), str(tmp_path / "ib")], str(tmp_path / "im"), num_buckets=8
    )

    rm = IndexReader(str(tmp_path / "im"))
    rf = IndexReader(str(tmp_path / "ifull"))
    assert rm.n_docs == rf.n_docs
    assert rm.avgdl == pytest.approx(rf.avgdl)
    # dictionaries identical
    assert rm._dict.column("term").to_pylist() == rf._dict.column("term").to_pylist()
    assert rm._dict.column("df").to_pylist() == rf._dict.column("df").to_pylist()
    # postings identical per term
    for term in rm._terms[::5]:
        im, tm = rm.postings(term)
        jf, tf = rf.postings(term)
        assert im.tolist() == jf.tolist(), term
        assert tm.tolist() == tf.tolist(), term
    # BM25 rank identity between merged and single-build
    for q in (["alpha", "beta"], ["lorem", "ipsum"]):
        ids_m, sc_m = rm.bm25_topk(q, 10)
        ids_f, sc_f = rf.bm25_topk(q, 10)
        assert ids_m.tolist() == ids_f.tolist()
        np.testing.assert_allclose(sc_m, sc_f, rtol=0, atol=0)


def test_merge_duplicate_urls_first_wins(ray_session, tmp_path):
    full = generate_corpus(120)
    import pyarrow.parquet as pq

    a, b = full.slice(0, 80), full.slice(40, 80)  # overlap rows 40..80
    for name, t in (("a", a), ("b", b)):
        d = tmp_path / ("c_" + name)
        d.mkdir()
        pq.write_table(t, str(d / "part.parquet"))
    build_index(str(tmp_path / "c_a"), str(tmp_path / "ia"), num_buckets=8)
    build_index(str(tmp_path / "c_b"), str(tmp_path / "ib"), num_buckets=8)
    merge_indexes(
        [str(tmp_path / "ia"), str(tmp_path / "ib")], str(tmp_path / "im"), num_buckets=8
    )
    rm = IndexReader(str(tmp_path / "im"))
    oracle = OracleIndex(full, num_buckets=8)  # same docs as the union
    assert rm.n_docs == oracle.n_docs
    dm = rm.docmap(columns=["url"])
    assert sorted(dm.column("url").to_pylist()) == sorted(oracle.doc_id)


@pytest.fixture(scope="module")
def large_indexes(ray_session, tmp_path_factory):
    """{"s": 15k-doc indexes, "l": 30k-doc indexes}, each a pair built
    from corpus seeds 1 and 2 (same urls, different bodies)."""
    tmp = tmp_path_factory.mktemp("large")
    out = {}
    for tag, n in (("s", 15000), ("l", 30000)):
        for seed in (1, 2):
            write_corpus(str(tmp / f"c{seed}{tag}"), n, seed=seed, rows_per_file=4096)
            build_index(str(tmp / f"c{seed}{tag}"), str(tmp / f"i{seed}{tag}"), num_buckets=16)
        out[tag] = (str(tmp / f"i1{tag}"), str(tmp / f"i2{tag}"))
    return out


def test_merge_large_bounded_driver_memory(large_indexes, tmp_path):
    """Merging multi-10k-doc indexes holds NOTHING per-doc on the driver:
    each bucket task remaps its own docs, and the driver reads only
    file footers. Evidence: (a) the absolute driver allocation peak is
    small, (b) doubling the source sizes leaves the driver peak flat
    (O(buckets), not O(docs))."""
    import tracemalloc

    peaks = {}
    for tag in ("s", "l"):
        tracemalloc.start()
        merge_indexes(list(large_indexes[tag]), str(tmp_path / f"im{tag}"), num_buckets=16)
        _, peaks[tag] = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    # absolute: the old driver-side pattern (to_pandas remap + per-url
    # dicts) costs multi-MB even at this scale; O(buckets) stats rows
    # plus Ray/pyarrow bookkeeping stay well under this
    assert peaks["s"] < 32 * 1024 * 1024, peaks
    # growth: 2x the docs must NOT grow the driver peak like O(docs)
    # (the pre-round-4 remap_df alone grew by ~MBs here); allow slack
    # for Ray block-metadata jitter
    assert peaks["l"] < peaks["s"] + 6 * 1024 * 1024, peaks

    # correctness of the larger merge ("l" pair)
    rm = IndexReader(str(tmp_path / "iml"))
    ra, rb = (IndexReader(d) for d in large_indexes["l"])
    dm_a = ra.docmap(columns=["url", "dl"])
    dm_b = rb.docmap(columns=["url", "dl"])
    urls_a = dict(zip(dm_a.column("url").to_pylist(), dm_a.column("dl").to_pylist()))
    urls_b = dict(zip(dm_b.column("url").to_pylist(), dm_b.column("dl").to_pylist()))
    assert rm.n_docs == len(set(urls_a) | set(urls_b))
    # first-source-wins: overlapping urls carry source A's document
    dm_m = rm.docmap(columns=["url", "dl"])
    merged_dl = dict(zip(dm_m.column("url").to_pylist(), dm_m.column("dl").to_pylist()))
    overlap = set(urls_a) & set(urls_b)
    for u in list(overlap)[:200]:
        assert merged_dl[u] == urls_a[u], u
    ids_m, _ = rm.bm25_topk(["alpha", "beta"], 10)
    assert len(ids_m) == 10


def test_update_large_bounded_driver_memory(large_indexes, tmp_path):
    """An append holds nothing per committed url on the driver: the
    bucket tasks read the committed docmap parts themselves. One fixed
    delta (500 committed urls, 500 new ones) appended to a 15k-doc and
    a 30k-doc base gives a flat driver allocation peak."""
    import tracemalloc

    t = generate_corpus(1000, seed=3)
    new = t.slice(500).set_column(
        t.schema.get_field_index("url"), "url",
        pa.array(["https://new.example/%06d.html" % i for i in range(500)]))
    delta = _write_parts(tmp_path, delta=pa.concat_tables([t.slice(0, 500), new]))["delta"]
    peaks, added = {}, {}
    for tag in ("s", "l"):
        base = str(tmp_path / f"base{tag}")
        shutil.copytree(large_indexes[tag][0], base,
                        ignore=shutil.ignore_patterns("tokenized"))
        tracemalloc.start()
        added[tag] = update_index(delta, base, compact_ratio=10.0)["added_docs"]
        _, peaks[tag] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert added["s"] == added["l"] > 0, added
    # a committed-url set on the driver grows by MBs from 15k to 30k urls
    assert peaks["l"] < peaks["s"] + 1024 * 1024, peaks


def test_update_index_grown_corpus(ray_session, tmp_path):
    """update_index of a grown corpus (the committed docs plus new ones)
    then compaction gives the index of a full build of the grown
    corpus."""
    import pyarrow.parquet as pq

    full = generate_corpus(200)
    first, grown = full.slice(0, 120), full
    for name, t in (("c1", first), ("c2", grown)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "part.parquet"))

    idx_b = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx_b, num_buckets=8)
    update_index(str(tmp_path / "c2"), idx_b, num_buckets=8, mode="merge")

    ref = str(tmp_path / "idx_ref")
    build_index(str(tmp_path / "c2"), ref, num_buckets=8)

    ri, rr = IndexReader(idx_b), IndexReader(ref)
    assert ri.n_docs == rr.n_docs
    assert ri._dict.column("term").to_pylist() == rr._dict.column("term").to_pylist()
    assert ri._dict.column("df").to_pylist() == rr._dict.column("df").to_pylist()
    a, sa = ri.bm25_topk(["alpha", "beta"], 10)
    b, sb = rr.bm25_topk(["alpha", "beta"], 10)
    assert a.tolist() == b.tolist()
    np.testing.assert_allclose(sa, sb, rtol=0, atol=0)


def test_update_index_disjoint_corpus(ray_session, tmp_path):
    """update_index of an ALL-NEW corpus (no committed url appears, so
    the exclusion drops nothing): the result must equal a full rebuild
    over the union."""
    import pyarrow.parquet as pq

    full = generate_corpus(200)
    first, new_only = full.slice(0, 120), full.slice(120, 80)
    for name, t in (("c1", first), ("c2", new_only)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "part.parquet"))
    call = tmp_path / "call"
    call.mkdir()
    pq.write_table(first, str(call / "a.parquet"))
    pq.write_table(new_only, str(call / "b.parquet"))

    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c1"), idx, num_buckets=8)
    update_index(str(tmp_path / "c2"), idx, num_buckets=8, mode="merge")

    ref = str(tmp_path / "idx_ref")
    build_index(str(call), ref, num_buckets=8)

    ri, rr = IndexReader(idx), IndexReader(ref)
    assert ri.n_docs == rr.n_docs
    assert ri._dict.column("term").to_pylist() == rr._dict.column("term").to_pylist()
    assert ri._dict.column("df").to_pylist() == rr._dict.column("df").to_pylist()
    a, sa = ri.bm25_topk(["alpha", "beta"], 10)
    b, sb = rr.bm25_topk(["alpha", "beta"], 10)
    assert a.tolist() == b.tolist()
    np.testing.assert_allclose(sa, sb, rtol=0, atol=0)


def test_update_index_incremental(ray_session, tmp_path):
    """update_index == full rebuild over the grown corpus."""
    import pyarrow.parquet as pq

    full = generate_corpus(200)
    first, grown = full.slice(0, 120), full
    d1 = tmp_path / "c1"
    d1.mkdir()
    pq.write_table(first, str(d1 / "part.parquet"))
    d2 = tmp_path / "c2"
    d2.mkdir()
    pq.write_table(grown, str(d2 / "part.parquet"))

    idx = str(tmp_path / "idx")
    build_index(str(d1), idx, num_buckets=8)
    update_index(str(d2), idx, num_buckets=8, mode="merge")

    ref = str(tmp_path / "idx_ref")
    build_index(str(d2), ref, num_buckets=8)

    ri, rr = IndexReader(idx), IndexReader(ref)
    assert ri.n_docs == rr.n_docs
    assert ri._dict.column("term").to_pylist() == rr._dict.column("term").to_pylist()
    assert ri._dict.column("df").to_pylist() == rr._dict.column("df").to_pylist()
    for q in (["alpha", "beta"], ["gamma"]):
        a, sa = ri.bm25_topk(q, 10)
        b, sb = rr.bm25_topk(q, 10)
        assert a.tolist() == b.tolist()
        np.testing.assert_allclose(sa, sb, rtol=0, atol=0)


def _write_parts(tmp_path, **tables):
    for name, t in tables.items():
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "part.parquet"))
    return {name: str(tmp_path / name) for name in tables}


def _tables(index_dir):
    """index (sorted by term, first_doc), dict and docmap (by doc_id)."""
    out = {}
    for sub, keys in (("index", ["term", "first_doc"]), ("dict", ["term"]),
                      ("docmap", ["doc_id"])):
        t = pq.read_table(os.path.join(index_dir, sub, "data"))
        out[sub] = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
    return out


def _assert_same_tables(got_dir, want_dir):
    got, want = _tables(got_dir), _tables(want_dir)
    for sub in want:
        assert got[sub].num_rows > 0, sub
        assert got[sub].equals(want[sub]), sub


@contextlib.contextmanager
def _no_ray_shuffle(monkeypatch, what):
    """Make every Ray Data shuffle and ``Dataset.join`` raise."""
    import ray.data

    def shuffle(*a, **k):
        raise AssertionError("%s ran a Ray shuffle" % what)

    with monkeypatch.context() as m:
        for op in ("sort", "groupby", "join", "repartition", "random_shuffle",
                   "aggregate", "unique"):
            m.setattr(ray.data.Dataset, op, shuffle)
        yield


@contextlib.contextmanager
def _no_ray_data_job(monkeypatch, what):
    """Make every way ``index/`` could start a Ray Data execution raise."""
    import ray.data

    def job(*a, **k):
        raise AssertionError("%s ran a Ray Data job" % what)

    with monkeypatch.context() as m:
        m.setattr(ray.data, "from_items", job)
        for op in ("write_parquet", "materialize", "take_all", "iter_batches"):
            m.setattr(ray.data.Dataset, op, job)
        yield


def _check_bucket_parts(index_dir, phase):
    """Phase P's layout and lineage: index/data holds exactly
    part-<b>.parquet for each bucket b with postings, and the phase's
    metrics.jsonl record lists one task record per bucket, the buckets
    with docs being exactly those with a docmap part, their docs summing
    to meta n_docs."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        n_docs = json.load(f)["n_docs"]
    first = pq.read_table(os.path.join(index_dir, "index", "data"), columns=["first_doc"])
    posted = sorted(set((first.column("first_doc").to_numpy() >> 36).tolist()))
    assert sorted(os.listdir(os.path.join(index_dir, "index", "data"))) == [
        "part-%05d.parquet" % b for b in posted]
    docmap_buckets = sorted(int(f[len("docmap-"):-len(".parquet")])
                            for f in os.listdir(os.path.join(index_dir, "docmap", "data")))
    with open(os.path.join(index_dir, "index", "metrics.jsonl")) as f:
        rec = [r for r in map(json.loads, f) if r["phase"] == phase][-1]
    assert rec["tasks"] == len(rec["buckets"])
    assert sorted(r["bucket"] for r in rec["buckets"] if r["docs"]) == docmap_buckets
    assert sum(r["docs"] for r in rec["buckets"]) == n_docs
    assert sorted(r["bucket"] for r in rec["buckets"] if r["chunk_rows"]) == posted


def test_compact_equals_fresh_build(ray_session, tmp_path, monkeypatch):
    """Two appends of url-unique, tombstone-free deltas, then
    compact_index: the index, dict and docmap tables equal a fresh build
    of the union corpus. Compaction runs no Ray shuffle (no sort,
    groupby, join or repartition), no Ray Data job and writes no remap
    tables; the fresh build runs one Ray Data job (Phase T's staging
    write). Both write one chunk part per bucket and a per-bucket
    lineage record."""
    import ray.data

    full = generate_corpus(240)
    c = _write_parts(tmp_path, c0=full.slice(0, 120), c1=full.slice(120, 60),
                     c2=full.slice(180, 60), call=full)
    idx, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
    # chunk_size 16: common terms get several chunks per bucket
    build_index(c["c0"], idx, num_buckets=8, chunk_size=16)
    update_index(c["c1"], idx, compact_ratio=10.0)
    update_index(c["c2"], idx, compact_ratio=10.0)
    assert len(list_segments(idx)) == 3

    with _no_ray_shuffle(monkeypatch, "compaction"), \
            _no_ray_data_job(monkeypatch, "compaction"):
        compact_index(idx, chunk_size=16)
    assert list_segments(idx) == [idx]
    assert not os.path.exists(os.path.join(idx, "remap"))
    writes = []
    write_parquet = ray.data.Dataset.write_parquet
    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "write_parquet",
                  lambda ds, *a, **k: writes.append(a) or write_parquet(ds, *a, **k))
        build_index(c["call"], ref, num_buckets=8, chunk_size=16)
    assert len(writes) == 1
    _assert_same_tables(idx, ref)
    _check_bucket_parts(idx, "merge-index")
    _check_bucket_parts(ref, "index")


def test_stray_temp_parts_ignored(ray_session, tmp_path, monkeypatch):
    """The build's part writers write under a dot-prefixed temporary
    name, then os.replace; a crash leaves such a file behind. The
    reader, Phase S and compaction ignore it."""
    from textindex_ray.index import build

    c = _write_parts(tmp_path, c=generate_corpus(120))
    idx, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
    build_index(c["c"], ref, num_buckets=8)
    shutil.copytree(ref, idx)
    for sub, name in (("index", "part-00000.parquet"), ("docmap", "docmap-00000.parquet")):
        with open(os.path.join(idx, sub, "data", "." + name + ".tmp"), "wb") as f:
            f.write(b"PAR1 cut short")
    r, want = IndexReader(idx), IndexReader(ref)
    assert r.n_docs == want.n_docs > 0
    assert r.docmap().equals(want.docmap())
    assert r.find(["alpha"]).tolist() == want.find(["alpha"]).tolist()
    assert r.bm25_topk(["alpha", "beta"], 10)[0].tolist() == \
        want.bm25_topk(["alpha", "beta"], 10)[0].tolist()
    assert build.corpus_stats(os.path.join(idx, "docmap")) == \
        build.corpus_stats(os.path.join(ref, "docmap"))
    compact_index(idx)
    _assert_same_tables(idx, ref)

    renamed = []
    replace = os.replace
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: renamed.append(os.path.basename(src)) or replace(src, dst))
    docs = pq.read_table(os.path.join(ref, "docmap", "data"),
                         columns=["url", "dl", "n_words", "doctype"]).sort_by("url")
    build.write_docmap_part(str(tmp_path), 3, docs)
    assert renamed == [".docmap-00003.parquet.tmp"]


def test_compact_source_with_cross_bucket_chunks(ray_session, tmp_path):
    """A source whose chunk rows span buckets (its postings re-encoded
    through one global (term, doc_id) sort, the layout of compactions
    that sorted globally) compacts to the tables of the fresh build it
    came from."""
    from textindex_ray.index.codec import decode_chunks, encode_chunks

    c = _write_parts(tmp_path, c=generate_corpus(160))
    fresh, src = str(tmp_path / "fresh"), str(tmp_path / "src")
    build_index(c["c"], fresh, num_buckets=8, chunk_size=16)
    shutil.copytree(fresh, src)

    rows = pq.read_table(os.path.join(fresh, "index", "data"))
    ids, tfs = decode_chunks(rows)
    dm = pq.read_table(os.path.join(fresh, "docmap", "data"), columns=["doc_id", "dl"])
    dm = dm.sort_by("doc_id")
    dl = dm.column("dl").to_numpy()[np.searchsorted(dm.column("doc_id").to_numpy(), ids)]
    post = pa.table({
        "term": rows.column("term").take(
            pa.array(np.repeat(np.arange(rows.num_rows), rows.column("n").to_numpy()))),
        "doc_id": pa.array(ids, pa.uint64()),
        "tf": pa.array(tfs, pa.uint64()),
        "dl": pa.array(dl, pa.uint32()),
    })
    post = post.take(pc.sort_indices(post, [("term", "ascending"), ("doc_id", "ascending")]))
    chunks = encode_chunks(post, 16)
    spans = (chunks.column("first_doc").to_numpy() >> 36) != (
        chunks.column("last_doc").to_numpy() >> 36)
    assert spans.any()  # the layout under test: chunks cut across buckets
    data = os.path.join(src, "index", "data")
    shutil.rmtree(data)
    os.makedirs(data)
    half = chunks.num_rows // 2
    pq.write_table(chunks.slice(0, half), os.path.join(data, "a.parquet"), row_group_size=700)
    pq.write_table(chunks.slice(half), os.path.join(data, "b.parquet"), row_group_size=700)

    compact_index(src, chunk_size=16)
    _assert_same_tables(src, fresh)


def test_bucket_count_follows_the_index(ray_session, tmp_path):
    """update_index / compact_index / merge_indexes take the bucket count
    from the index's meta.json; an explicit different value raises."""
    full = generate_corpus(120)
    c = _write_parts(tmp_path, c1=full.slice(0, 80), c2=full.slice(80, 40))
    idx, other = str(tmp_path / "idx"), str(tmp_path / "other")
    build_index(c["c1"], idx, num_buckets=4)
    assert update_index(c["c2"], idx, compact_ratio=10.0)["added_docs"] > 0
    with open(os.path.join(list_segments(idx)[1], "meta.json")) as f:
        assert json.load(f)["num_buckets"] == 4

    with pytest.raises(ValueError, match="num_buckets=4"):
        update_index(c["c2"], idx, num_buckets=8)
    with pytest.raises(ValueError, match="num_buckets=4"):
        compact_index(idx, num_buckets=8)
    build_index(c["c2"], other, num_buckets=8)
    with pytest.raises(ValueError, match="num_buckets=8"):
        merge_indexes([idx, other], str(tmp_path / "m"))
    assert len(list_segments(idx)) == 2  # the failed calls changed nothing

    meta = compact_index(idx)  # the lock was released by every failure
    assert meta["num_buckets"] == 4 and list_segments(idx) == [idx]


def test_update_index_recrawl_equals_fresh_build(ray_session, tmp_path):
    """A re-crawl delta: half its urls are committed (with new bodies,
    some of them tombstoned), half are new. The appended segment's
    tables equal a fresh build of exactly the surviving rows (the new
    and the tombstoned urls); a live committed url keeps its first
    committed document. The same exclusion without the tokenize
    checkpoint writes the same tables, and a build whose every url is
    committed writes the empty index."""
    from textindex_ray.index.delete import delete_docs, load_tombstones

    full = generate_corpus(240)
    old = full.slice(60, 60)
    recrawl = old.set_column(old.schema.get_field_index("html"), "html",
                             full.slice(180, 60).column("html"))
    delta = pa.concat_tables([recrawl, full.slice(120, 60)])
    c = _write_parts(tmp_path, base=full.slice(0, 120), delta=delta)
    idx = str(tmp_path / "idx")
    build_index(c["base"], idx, num_buckets=8)
    assert delete_docs(idx, "*/00006?.html") > 0

    dm = pq.read_table(os.path.join(idx, "docmap", "data"), columns=["url", "doc_id"])
    dead = set(load_tombstones(idx).tolist())
    live = {u for u, d in zip(dm.column("url").to_pylist(),
                              dm.column("doc_id").to_pylist()) if d not in dead}
    survivors = delta.filter(pa.array([u not in live for u in delta.column("url").to_pylist()]))
    assert 60 < survivors.num_rows < 120

    m = update_index(c["delta"], idx, compact_ratio=10.0)
    segs = list_segments(idx)
    assert len(segs) == 2 and m["added_docs"] > 0
    # the delta is built without a checkpoint: the segment has no staging
    assert not glob.glob(os.path.join(idx, "segments", "seg-*", "tokenized"))
    ref = str(tmp_path / "ref")
    build_index(_write_parts(tmp_path, survivors=survivors)["survivors"], ref, num_buckets=8)
    _assert_same_tables(segs[1], ref)

    no_ckpt = str(tmp_path / "no_ckpt")
    build_index(c["delta"], no_ckpt, num_buckets=8, checkpoint=False,
                exclude_segments=[idx])
    assert not os.path.exists(os.path.join(no_ckpt, "tokenized"))
    _assert_same_tables(no_ckpt, ref)
    for checkpoint in (True, False):
        out = str(tmp_path / ("none-%s" % checkpoint))
        meta = build_index(c["delta"], out, num_buckets=8, checkpoint=checkpoint,
                           exclude_segments=segs)
        assert meta["n_docs"] == 0 and IndexReader(out).n_docs == 0


def test_update_index_runs_no_shuffle(ray_session, tmp_path, monkeypatch):
    """An append is one build whose bucket tasks do the committed-url
    anti-join: no Ray shuffle and no Dataset.join. Re-submitting a
    committed corpus appends no segment."""
    full = generate_corpus(160)
    c = _write_parts(tmp_path, c0=full.slice(0, 100), c1=full)
    idx = str(tmp_path / "idx")
    build_index(c["c0"], idx, num_buckets=8)
    with _no_ray_shuffle(monkeypatch, "update_index"):
        assert update_index(c["c1"], idx, compact_ratio=10.0)["added_docs"] > 0
        m = update_index(c["c1"], idx, compact_ratio=10.0)
    assert m["added_docs"] == 0 and len(list_segments(idx)) == 2
