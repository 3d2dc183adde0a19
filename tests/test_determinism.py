"""Execution-shape invariance: the index and all query results are
identical regardless of batch size or build path — the in-test form of
the north rule's rank-identity across cluster sizes (the 8-vs-32-CPU
process-level evidence lives in bench.py --scaling and BASELINE.md)."""

import numpy as np

from textindex_ray.corpus import write_corpus
from textindex_ray.index.build import build_index
from textindex_ray.query.engine import IndexReader

QUERIES = [
    ["alpha"],
    ["alpha", "beta"],
    ["gamma", "delta", "epsilon"],
    ["alph*", "bet?"],
    ["lorem", "ipsum", "dolor"],
    ["haus", "baum"],
]


def test_results_invariant_to_execution_shape(ray_session, tmp_path):
    corpus = str(tmp_path / "c")
    write_corpus(corpus, 300, rows_per_file=32)

    configs = [
        dict(batch_size=32),
        dict(batch_size=256),
        # no checkpoint: the staging is deleted once the index commits
        dict(batch_size=64, checkpoint=False),
    ]
    readers = []
    for i, cfg in enumerate(configs):
        out = str(tmp_path / ("i%d" % i))
        build_index(corpus, out, num_buckets=8, chunk_size=64, **cfg)
        readers.append(IndexReader(out))

    base = readers[0]
    for other in readers[1:]:
        assert base.n_docs == other.n_docs
        assert base.avgdl == other.avgdl
        assert base._dict.column("term").to_pylist() == other._dict.column("term").to_pylist()
        assert base._dict.column("df").to_pylist() == other._dict.column("df").to_pylist()
        for term in base._terms[::5]:
            a, ta = base.postings(term)
            b, tb = other.postings(term)
            assert a.tolist() == b.tolist(), term
            assert ta.tolist() == tb.tolist(), term
        for q in QUERIES:
            fa = base.find(q)
            fb = other.find(q)
            assert fa.tolist() == fb.tolist(), q
            qa = [t for t in q if "*" not in t and "?" not in t]
            if qa:
                ia, sa = base.bm25_topk(qa, 10)
                ib, sb = other.bm25_topk(qa, 10)
                assert ia.tolist() == ib.tolist(), q
                np.testing.assert_allclose(sa, sb, rtol=0, atol=0)
                iw, sw = other.bm25_topk_wand(qa, 10)
                assert iw.tolist() == ib.tolist(), q
                np.testing.assert_allclose(sw, sb, rtol=0, atol=0)


def test_wand_prunes_on_skewed_terms(ray_session, tmp_path):
    """Block-max WAND must actually skip chunks when idf contrast is high:
    query = one rare + one ubiquitous term; most of the ubiquitous term's
    chunks are bounded below the top-k threshold."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 4000
    texts = []
    for i in range(n):
        t = "common filler words everywhere always " * 3
        if i % 500 == 0:
            t += " raregem"
        if i % 4 == 0:
            t += " oftenish" * (1 + i % 3)
        texts.append(t)
    table = pa.table(
        {
            "url": pa.array(["u://%06d" % i for i in range(n)]),
            "html": pa.array([t.encode() for t in texts], pa.binary()),
        }
    )
    cdir = tmp_path / "c"
    cdir.mkdir()
    pq.write_table(table, str(cdir / "p.parquet"))
    out = str(tmp_path / "i")
    build_index(str(cdir), out, num_buckets=4, chunk_size=64)
    r = IndexReader(out)
    ids_b, sc_b = r.bm25_topk(["raregem", "common"], 5)
    ids_w, sc_w = r.bm25_topk_wand(["raregem", "common"], 5)
    assert ids_w.tolist() == ids_b.tolist()
    np.testing.assert_allclose(sc_w, sc_b, rtol=0, atol=0)
    st = r.last_wand_stats
    assert st["chunks_decoded"] < st["chunks_total"], st


def test_bm25_auto_selection(ray_session, tmp_path):
    """bm25_topk_auto picks WAND exactly when idf contrast + volume make
    pruning pay, and is result-identical to both scorers either way."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 4000
    texts = []
    for i in range(n):
        # 'common'/'filler' are vocab-uniform (similar large dfs);
        # 'raregem' is the idf-contrast partner. Repeat rows so total
        # df clears the auto path's volume floor.
        t = "common filler words everywhere always " * 6
        if i % 500 == 0:
            t += " raregem"
        texts.append(t)
    table = pa.table(
        {
            "url": pa.array(["u://%06d" % i for i in range(n)]),
            "html": pa.array([t.encode() for t in texts], pa.binary()),
        }
    )
    cdir = tmp_path / "c"
    cdir.mkdir()
    pq.write_table(table, str(cdir / "p.parquet"))
    out = str(tmp_path / "i")
    build_index(str(cdir), out, num_buckets=4, chunk_size=64)
    r = IndexReader(out)

    for q, expect in (
        (["raregem", "common"], "wand"),   # high df spread, big volume
        (["common", "filler"], "brute"),   # uniform dfs -> no pruning
        (["raregem"], "brute"),            # single term
        (["nosuchterm", "common"], "brute"),  # absent term drops out
    ):
        ia, sa = r.bm25_topk_auto(q, 5, min_postings=1000)
        assert r.last_scorer == expect, (q, r.last_scorer)
        ib, sb = r.bm25_topk(q, 5)
        iw, sw = r.bm25_topk_wand(q, 5)
        assert ia.tolist() == ib.tolist() == iw.tolist(), q
        np.testing.assert_allclose(sa, sb, rtol=0, atol=0)
        np.testing.assert_allclose(sa, sw, rtol=0, atol=0)
