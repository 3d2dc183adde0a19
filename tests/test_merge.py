"""Segment merge with docID remap + incremental update (SURVEY.md §7 M4)."""

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


def test_merge_large_bounded_driver_memory(ray_session, tmp_path):
    """Merging multi-10k-doc indexes holds NOTHING per-doc on the driver:
    each bucket task remaps its own docs, and the driver reads only
    file footers. Evidence: (a) the absolute driver allocation peak is
    small, (b) doubling the source sizes leaves the driver peak flat
    (O(buckets), not O(docs))."""
    import tracemalloc

    peaks = {}
    for tag, n in (("s", 15000), ("l", 30000)):
        write_corpus(str(tmp_path / f"ca{tag}"), n, seed=1, rows_per_file=4096)
        write_corpus(str(tmp_path / f"cb{tag}"), n, seed=2, rows_per_file=4096)
        build_index(str(tmp_path / f"ca{tag}"), str(tmp_path / f"ia{tag}"), num_buckets=16)
        build_index(str(tmp_path / f"cb{tag}"), str(tmp_path / f"ib{tag}"), num_buckets=16)
        tracemalloc.start()
        merge_indexes(
            [str(tmp_path / f"ia{tag}"), str(tmp_path / f"ib{tag}")],
            str(tmp_path / f"im{tag}"),
            num_buckets=16,
        )
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
    ra = IndexReader(str(tmp_path / "ial"))
    rb = IndexReader(str(tmp_path / "ibl"))
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


def test_bloom_filter_properties():
    """No false negatives ever; FP rate near nominal."""
    from textindex_ray.index.bloom import UrlBloom

    member = ["https://site-%d.example/p/%d" % (i % 97, i) for i in range(50_000)]
    fresh = ["https://other-%d.example/q/%d" % (i % 89, i) for i in range(50_000)]
    bl = UrlBloom.sized_for(len(member), fp_rate=0.01)
    for i in range(0, len(member), 8192):
        bl.add_batch(member[i : i + 8192])
    assert bl.contains_batch(member).all()  # zero false negatives
    fp = bl.contains_batch(fresh).mean()
    assert fp < 0.03, fp  # 1% nominal, 3x headroom


def test_update_index_bloom_path(ray_session, tmp_path):
    """update_index via the Bloom prefilter + left_anti join produces the
    same index as the exact-set path (semantics are exact by design)."""
    import pyarrow.parquet as pq

    full = generate_corpus(200)
    first, grown = full.slice(0, 120), full
    for name, t in (("c1", first), ("c2", grown)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "part.parquet"))

    idx_b = str(tmp_path / "idx_bloom")
    build_index(str(tmp_path / "c1"), idx_b, num_buckets=8)
    update_index(str(tmp_path / "c2"), idx_b, num_buckets=8, membership="bloom",
                 mode="merge")

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


def test_update_index_bloom_disjoint_corpus(ray_session, tmp_path):
    """Bloom path with an ALL-NEW corpus (no committed url appears): the
    'maybe committed' side is empty at a tiny fp_rate, which previously
    flowed schema-less through the left_anti join. Result must equal a
    full rebuild over the union."""
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
    update_index(str(tmp_path / "c2"), idx, num_buckets=8,
                 membership="bloom", fp_rate=1e-6, mode="merge")

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


def test_compact_equals_fresh_build(ray_session, tmp_path, monkeypatch):
    """Two appends of url-unique, tombstone-free deltas, then
    compact_index: the index, dict and docmap tables equal a fresh build
    of the union corpus. Compaction runs no Ray shuffle (no sort,
    groupby, join or repartition) and writes no remap tables."""
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

    def shuffle(*a, **k):
        raise AssertionError("compaction ran a Ray shuffle")

    with monkeypatch.context() as m:
        for op in ("sort", "groupby", "join", "repartition", "random_shuffle",
                   "aggregate", "unique"):
            m.setattr(ray.data.Dataset, op, shuffle)
        compact_index(idx, chunk_size=16)
    assert list_segments(idx) == [idx]
    assert not os.path.exists(os.path.join(idx, "remap"))
    build_index(c["call"], ref, num_buckets=8, chunk_size=16)
    _assert_same_tables(idx, ref)


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
