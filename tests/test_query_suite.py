"""Reference query suite conformance (FIXTURES.md §3 / SURVEY.md §5.4):
the distributed engine answers the whole suite rank-identically to the
oracle goldens, through the doc-sharded batch evaluator."""

import numpy as np
import pytest

from textindex_ray.corpus import generate_corpus, write_corpus
from textindex_ray.fixtures import REFERENCE_QUERIES, golden_table, queries_table
from textindex_ray.index.build import build_index
from textindex_ray.oracle import OracleIndex
from textindex_ray.query.batch_eval import evaluate_queries
from textindex_ray.query.engine import IndexReader

N = 400


@pytest.fixture(scope="module")
def suite(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    write_corpus(str(root / "c"), N, rows_per_file=128)
    build_index(str(root / "c"), str(root / "i"), num_buckets=16)
    oracle = OracleIndex(generate_corpus(N), num_buckets=16)
    return str(root / "i"), oracle


def test_suite_rank_identical(suite):
    import ray.data

    index_path, oracle = suite
    golden = {r["qid"]: r for r in golden_table(oracle).to_pylist()}
    qds = ray.data.from_arrow(queries_table())
    res = {r["qid"]: r for r in evaluate_queries(index_path, qds).iter_rows()}
    assert set(res) == set(golden)
    for qid, (kind, terms, k) in enumerate(REFERENCE_QUERIES, start=1):
        if kind == "file_glob":
            # engine counts urls; golden stores the count in scores[0]
            r = IndexReader(index_path)
            assert float(len(r.find_files(terms[0]))) == golden[qid]["scores"][0], terms
            continue
        assert res[qid]["doc_ids"] == golden[qid]["doc_ids"], (qid, kind, terms)
        if kind == "bm25_topk":
            np.testing.assert_allclose(
                res[qid]["scores"], golden[qid]["scores"], rtol=0, atol=0
            )


def _tombstoned_copy(index_path, dest, victims_of):
    """Copy the index to dest and tombstone the urls victims_of(reader)
    picks; returns (dest, tombstoned docIDs)."""
    import shutil

    from textindex_ray.index.delete import delete_docs, load_tombstones

    shutil.copytree(index_path, dest)
    r = IndexReader(dest)
    for u in victims_of(r):
        assert delete_docs(dest, u) == 1
    return dest, set(load_tombstones(dest).tolist())


def test_suite_sharded_with_tombstones(suite, tmp_path, check_eval_matches_reader):
    """On a tombstoned index the evaluator equals the in-process reader
    (the mask applies inside every shard's reader) and returns no
    deleted doc."""
    import ray.data

    from textindex_ray.query.batch_eval import evaluate_queries

    index_path, _ = suite
    idx, deleted = _tombstoned_copy(
        index_path, str(tmp_path / "idx_tomb"),
        lambda r: r.urls_for(r.find(["alpha"])[:3]),
    )
    assert len(deleted) == 3
    check_eval_matches_reader(idx, IndexReader(idx), queries_table())
    qds = ray.data.from_arrow(queries_table())
    for row in evaluate_queries(idx, qds, n_shards=3).iter_rows():
        assert not (set(row["doc_ids"]) & deleted), row["qid"]


def test_suite_sharded_identical(suite, check_eval_matches_reader):
    """The reference suite through evaluate_queries == the in-process
    IndexReader, rank AND float64 score identical, at 1, 3 and 8 doc
    shards (each doc's complete score is computed inside one shard with
    global stats, so the k-row-per-shard merge is exact)."""
    index_path, _ = suite
    check_eval_matches_reader(index_path, IndexReader(index_path), queries_table())


def test_suite_doc_sharded_identical(suite, check_eval_matches_reader):
    """Merge edge cases == the in-process reader: k=1, k missing (0 means
    10), k above the hit count, absent and repeated terms, an empty term
    list, and more shards than the index has buckets (clamped)."""
    import pyarrow as pa

    index_path, _ = suite
    rows = [
        ("bm25_topk", ["alpha", "beta"], 1),
        ("bm25_topk", ["lorem", "ipsum"], 0),
        ("bm25_topk", ["zebra"], 1000),
        ("bm25_topk", ["alpha", "alpha", "nosuchterm"], 10),
        ("bm25_topk", [], 10),
        ("term_and", ["nosuchterm"], 0),
        ("wildcard_and", ["zzz*"], 0),
        ("term_and", [], 0),
        ("file_glob", ["*nosuchurl*"], 0),
    ]
    queries = pa.table({
        "qid": pa.array(range(len(rows)), pa.int32()),
        "kind": pa.array([kind for kind, _, _ in rows]),
        "terms": pa.array([t for _, t, _ in rows], pa.list_(pa.string())),
        "k": pa.array([k for _, _, k in rows], pa.int32()),
    })
    check_eval_matches_reader(
        index_path, IndexReader(index_path), queries, shard_counts=(1, 3, 64)
    )


def test_doc_sharded_with_tombstones(suite, tmp_path, check_eval_matches_reader):
    """A doc shard whose every doc is tombstoned contributes nothing:
    the evaluator still equals the in-process reader at every shard
    count."""
    from textindex_ray.query.batch_eval import doc_shard_boundaries

    index_path, _ = suite
    lo, hi = doc_shard_boundaries(index_path, 3)[0]

    def first_shard_urls(r):
        dm = r.docmap(columns=["doc_id", "url"])
        return [u for d, u in zip(dm.column("doc_id").to_pylist(),
                                  dm.column("url").to_pylist())
                if lo <= d < hi]

    idx, deleted = _tombstoned_copy(
        index_path, str(tmp_path / "idx_tomb_ds"), first_shard_urls
    )
    assert deleted and all(lo <= d < hi for d in deleted)
    check_eval_matches_reader(idx, IndexReader(idx), queries_table())


def test_bm25_server_identity_and_amortization(suite):
    """BM25Server (persistent doc-shard actors) returns results
    identical to the single reader for bm25 + boolean find, and repeat
    queries cost no reader re-open (second call much cheaper than the
    first construction+query)."""
    import time

    from textindex_ray.query.engine import IndexReader
    from textindex_ray.query.serve import BM25Server

    index_path, _ = suite
    r = IndexReader(index_path)
    srv = BM25Server(index_path, n_shards=3, num_cpus=0.5)
    try:
        for q in (["alpha", "beta"], ["lorem", "ipsum"], ["nosuchterm"]):
            ia, sa = srv.bm25_topk(q, 10)
            ib, sb = r.bm25_topk(q, 10)
            assert ia.tolist() == ib.tolist(), q
            np.testing.assert_allclose(sa, sb, rtol=0, atol=0)
        for pats in (["alpha"], ["alph*", "bet?"], ["zzz*"]):
            fa = srv.find(pats)
            fb = r.find(pats)
            assert fa.tolist() == fb.tolist(), pats
        t0 = time.perf_counter()
        for _ in range(5):
            srv.bm25_topk(["alpha", "beta"], 10)
        per_q = (time.perf_counter() - t0) / 5
        assert per_q < 2.0, per_q  # no per-call reader open (that's ~1s+/shard)
    finally:
        srv.shutdown()


def test_wand_under_doc_range(suite):
    """Block-max WAND with doc_range masks edge chunks exactly: rank-
    and score-identical to brute on the same range, and to the global
    result restricted to the range union."""
    from textindex_ray.query.batch_eval import doc_shard_boundaries
    from textindex_ray.query.engine import IndexReader

    index_path, _ = suite
    bounds = doc_shard_boundaries(index_path, 3)
    for rng in bounds:
        r = IndexReader(index_path, doc_range=rng)
        for q in (["alpha", "beta"], ["lorem", "ipsum"], ["alpha"]):
            ib, sb = r.bm25_topk(q, 10)
            iw, sw = r.bm25_topk_wand(q, 10)
            assert ib.tolist() == iw.tolist(), (rng, q)
            np.testing.assert_allclose(sb, sw, rtol=0, atol=0)
            lo, hi = rng
            assert all(lo <= d < hi for d in ib.tolist()), (rng, q)
