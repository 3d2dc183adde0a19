"""End-to-end index conformance: Ray pipeline == single-process oracle.

SURVEY.md §5 items 2-4: byte-identity of extraction, exact posting /
dict / doclen equality, boolean + BM25 rank identity (brute and WAND).
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from textindex_ray.corpus import generate_corpus, write_corpus
from textindex_ray.index.build import build_index
from textindex_ray.oracle import OracleIndex
from textindex_ray.query.engine import IndexReader

N_ROWS = 300


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    corpus_dir = str(root / "corpus")
    out_dir = str(root / "out")
    write_corpus(corpus_dir, N_ROWS, rows_per_file=64)
    meta = build_index(corpus_dir, out_dir, num_buckets=16, chunk_size=32, batch_size=64)
    oracle = OracleIndex(generate_corpus(N_ROWS), num_buckets=16)
    return meta, IndexReader(out_dir), oracle, out_dir


def test_meta_stats(built):
    meta, reader, oracle, _ = built
    assert meta["n_docs"] == oracle.n_docs
    assert meta["avgdl"] == pytest.approx(oracle.avgdl)


def test_docmap_bijection(built):
    _, reader, oracle, _ = built
    dm = reader.docmap(columns=["url", "doc_id", "dl"])
    got = dict(zip(dm.column("url").to_pylist(), dm.column("doc_id").to_pylist()))
    assert got == oracle.doc_id
    dls = dict(zip(dm.column("url").to_pylist(), dm.column("dl").to_pylist()))
    assert dls == oracle.dl


def test_dict_exact(built):
    _, reader, oracle, _ = built
    want = oracle.dict_table()
    got = reader._dict
    assert got.column("term").to_pylist() == want.column("term").to_pylist()
    assert got.column("df").to_pylist() == want.column("df").to_pylist()
    assert got.column("cf").to_pylist() == want.column("cf").to_pylist()


def test_postings_exact(built):
    _, reader, oracle, _ = built
    for term in list(oracle.postings)[::7] + ["alpha", "beta", "gamma"]:
        if term not in oracle.postings:
            continue
        ids, tfs = reader.postings(term)
        want = sorted(oracle.postings[term].items())
        assert ids.tolist() == [d for d, _ in want], term
        assert tfs.tolist() == [c for _, c in want], term


def test_boolean_find(built):
    _, reader, oracle, _ = built
    queries = [
        ["alpha"],
        ["alpha", "beta"],
        ["alpha", "beta", "gamma"],
        ["alph*"],
        ["?amma"],
        ["alp*", "bet*"],
        ["nonexistentterm"],
        ["the"],               # stopword: never indexed -> empty
        ["zebra", "quill"],
    ]
    for q in queries:
        got = reader.find(q).tolist()
        want = oracle.find(q)
        assert got == want, q


def test_bm25_rank_identity(built):
    _, reader, oracle, _ = built
    queries = [
        ["alpha"],
        ["alpha", "beta"],
        ["gamma", "delta", "epsilon"],
        ["lorem", "ipsum"],
        ["zebra", "sphinx", "quartz"],
        ["alpha", "nonexistent"],
        ["hund", "haus", "baum"],
    ]
    for q in queries:
        ids_b, sc_b = reader.bm25_topk(q, 10)
        ids_o, sc_o = oracle.bm25_topk(q, 10)
        assert ids_b.tolist() == ids_o.tolist(), q
        np.testing.assert_allclose(sc_b, sc_o, rtol=0, atol=0)  # exact float64
        ids_w, sc_w = reader.bm25_topk_wand(q, 10)
        assert ids_w.tolist() == ids_b.tolist(), ("wand", q)
        np.testing.assert_allclose(sc_w, sc_b, rtol=0, atol=1e-12)


def test_extracted_byte_identity(ray_session, tmp_path):
    """Pipeline extracted_text == oracle extraction, byte-for-byte."""
    import ray

    corpus_dir = str(tmp_path / "corpus")
    write_corpus(corpus_dir, 120, rows_per_file=40)
    from textindex_ray.stages.extract import classify_batch, extract_tokenize

    ds = (
        ray.data.read_parquet(corpus_dir, columns=["url", "html"])
        .map_batches(classify_batch, batch_format="pyarrow")
        .map_batches(
            extract_tokenize,
            fn_kwargs={"num_buckets": 16, "keep_text": True},
            batch_format="pyarrow",
            batch_size=32,
            concurrency=2,
        )
    )
    got = {
        r["url"]: r["extracted_text"]
        for r in ds.select_columns(["url", "extracted_text"]).take_all()
    }
    oracle = OracleIndex(generate_corpus(120), num_buckets=16)
    want = {u: t for u, (dt, t) in oracle.extracted.items()}
    assert got == want


def test_resume_skips_committed(built, tmp_path):
    """Re-running build on a committed dir is a no-op that yields the same meta."""
    meta, reader, oracle, out_dir = built
    meta2 = build_index(
        str(tmp_path / "nonexistent-corpus"), out_dir, num_buckets=16, chunk_size=32
    )
    assert meta2["n_docs"] == meta["n_docs"]
    assert meta2["avgdl"] == meta["avgdl"]


def test_all_ignored_corpus(ray_session, tmp_path):
    """Rows exist but every doc classifies 'ignore' -> valid empty index."""
    import pyarrow as pa

    t = pa.table(
        {
            "url": pa.array(["u://%d" % i for i in range(10)]),
            "html": pa.array([b"BIN\x01\x02\x03" + bytes([i]) for i in range(10)], pa.binary()),
        }
    )
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(t, str(d / "p.parquet"))
    meta = build_index(str(d), str(tmp_path / "i"), num_buckets=4)
    assert meta["n_docs"] == 0
    r = IndexReader(str(tmp_path / "i"))
    assert r.find(["anything"]).tolist() == []


def test_duplicate_urls_deduped(ray_session, tmp_path):
    """Re-crawled urls keep exactly one (deterministic) document."""
    import pyarrow as pa

    t = pa.table(
        {
            "url": pa.array(["u://a", "u://b", "u://a", "u://c", "u://a"]),
            "html": pa.array(
                [b"alpha beta", b"gamma", b"alpha beta gamma delta", b"epsilon", b"zeta"],
                pa.binary(),
            ),
        }
    )
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(t, str(d / "p.parquet"))
    meta = build_index(str(d), str(tmp_path / "i"), num_buckets=4)
    assert meta["n_docs"] == 3
    r = IndexReader(str(tmp_path / "i"))
    dm = r.docmap(columns=["url", "doc_id"])
    urls = dm.column("url").to_pylist()
    assert sorted(urls) == ["u://a", "u://b", "u://c"]
    # deterministic winner: rebuild gives the identical index
    build_index(str(d), str(tmp_path / "i2"), num_buckets=4, batch_size=2)
    r2 = IndexReader(str(tmp_path / "i2"))
    assert r._dict.equals(r2._dict)
    for term in r._terms:
        assert r.postings(term)[0].tolist() == r2.postings(term)[0].tolist()


def test_resume_param_mismatch_rejected(ray_session, tmp_path):
    from textindex_ray.corpus import write_corpus as wc

    c = str(tmp_path / "c")
    wc(c, 60, rows_per_file=30)
    out = str(tmp_path / "i")
    build_index(c, out, num_buckets=4)
    with pytest.raises(ValueError, match="resume mismatch"):
        build_index(c, out, num_buckets=16)
    # the excluded segment set is a resume parameter too
    with pytest.raises(ValueError, match="exclude_segments"):
        build_index(c, out, num_buckets=4, exclude_segments=[str(tmp_path / "seg")])


def test_reader_open_memory_bounded(tmp_path):
    """Opening a 10^6-term dictionary must not build Python-side term
    structures (the round-2 flag: a term list + df dict is tens of GB at
    10^8 terms). The dict stays Arrow; the only Python-heap allocation
    is the int64 df array (~8 MB here). Also exercises binary-search
    lookups and the prefix-pruned vectorized wildcard scan."""
    import json
    import tracemalloc

    n = 1_000_000
    idx = tmp_path / "idx"
    (idx / "dict" / "data").mkdir(parents=True)
    (idx / "index" / "data").mkdir(parents=True)
    terms = ["t%07d" % i for i in range(n)]  # lexicographically sorted
    pq.write_table(
        pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df": pa.array(np.arange(1, n + 1) % 97 + 1, pa.uint64()),
                "cf": pa.array(np.arange(1, n + 1) % 97 + 2, pa.uint64()),
            }
        ),
        str(idx / "dict" / "data" / "dict.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "term": pa.array([], pa.string()),
                "first_doc": pa.array([], pa.uint64()),
                "last_doc": pa.array([], pa.uint64()),
                "max_tf": pa.array([], pa.uint64()),
                "min_dl": pa.array([], pa.uint64()),
                "n": pa.array([], pa.uint64()),
                "docs": pa.array([], pa.binary()),
                "tfs": pa.array([], pa.binary()),
            }
        ),
        str(idx / "index" / "data" / "empty.parquet"),
    )
    with open(idx / "meta.json", "w") as f:
        json.dump(
            {"n_docs": 10, "total_dl": 100, "avgdl": 10.0, "k1": 1.2,
             "b": 0.75, "num_buckets": 4}, f
        )

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    r = IndexReader(str(idx), preload=False)
    grew = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    assert grew < 40 * 1024 * 1024, grew

    assert r.n_terms == n
    assert r.df("t0000042") == 43 % 97 + 1
    assert r.df("zzz-absent") == 0
    got = r.resolve_terms("t000004*")
    assert got == ["t%07d" % i for i in range(40, 50)]
    assert r.resolve_terms("t0000042") == ["t0000042"]
    assert r.resolve_terms("zz*") == []
    # wildcard with no literal prefix: full vectorized scan
    assert len(r.resolve_terms("*9999999")) == 0
    assert r.resolve_terms("*999999") == ["t0999999"]


def test_distributed_dict_equals_driver_dict(ray_session, tmp_path, monkeypatch):
    """Phase D's scale path (partition-bucketed distributed aggregate,
    forced by a DICT_DRIVER_LIMIT of 0) produces the same dictionary as
    the driver-side Arrow group_by, in a build and in a compaction (both
    run the same Phase D)."""
    from textindex_ray.index import build as build_mod
    from textindex_ray.index.merge import compact_index

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 120, rows_per_file=60)
    build_index(corpus, str(tmp_path / "i1"), num_buckets=4)
    build_index(corpus, str(tmp_path / "i3"), num_buckets=4)
    monkeypatch.setattr(build_mod, "DICT_DRIVER_LIMIT", 0)
    build_index(corpus, str(tmp_path / "i2"), num_buckets=4)
    compact_index(str(tmp_path / "i3"))
    r1 = IndexReader(str(tmp_path / "i1"))
    for other in ("i2", "i3"):
        r2 = IndexReader(str(tmp_path / other))
        assert r1._dict.column("term").to_pylist() == r2._dict.column("term").to_pylist()
        assert r1._dict.column("df").to_pylist() == r2._dict.column("df").to_pylist()
        assert r1._dict.column("cf").to_pylist() == r2._dict.column("cf").to_pylist()
        a, sa = r1.bm25_topk(["alpha", "beta"], 10)
        b, sb = r2.bm25_topk(["alpha", "beta"], 10)
        assert a.tolist() == b.tolist()
        np.testing.assert_allclose(sa, sb, rtol=0, atol=0)
