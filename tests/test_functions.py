"""Dedup / similarity / textstats operator tests (training-data family)."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    return ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


def test_exact_dedup_groups(docs_ds):
    from textindex_ray.functions.dedup import exact_dedup_groups

    t = exact_dedup_groups(docs_ds).to_pandas()
    assert t["dup_count"].sum() == 500
    assert set(t.columns) == {"text_hash", "keep_doc_id", "dup_count"}
    # every group keeps its minimum doc_id; group count == distinct texts
    import duckdb

    want = duckdb.sql(
        "select count(distinct text) from read_parquet('/root/testdata/sf0.001/documents.parquet')"
    ).fetchone()[0]
    assert len(t) == want


def test_exact_dedup_keep_first(docs_ds):
    from textindex_ray.functions.dedup import exact_dedup

    kept = exact_dedup(docs_ds).to_pandas()
    assert kept["doc_id"].is_unique
    assert len(kept) <= 500


def test_simhash_deterministic(docs_ds):
    from textindex_ray.functions.dedup import simhash64_batch

    a = docs_ds.map_batches(simhash64_batch, batch_format="pyarrow").to_pandas()
    b = docs_ds.map_batches(simhash64_batch, batch_format="pyarrow").to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    # near-identical docs should have close hamming distance: identical texts
    # must produce identical simhash
    import duckdb

    dups = duckdb.sql(
        "select list(doc_id) from read_parquet('/root/testdata/sf0.001/documents.parquet') group by text having count(*) > 1 limit 1"
    ).fetchall()
    if dups:
        ids = dups[0][0]
        vals = a.set_index("doc_id").loc[ids, "simhash"].unique()
        assert len(vals) == 1


def test_minhash_lsh_finds_exact_dups(docs_ds):
    from textindex_ray.functions.dedup import minhash_lsh_pairs, ngram_jaccard_pairs

    pairs = minhash_lsh_pairs(docs_ds, verify_threshold=0.9).to_pandas()
    # every exact-duplicate pair (jaccard 1.0) must be found by LSH
    exact = ngram_jaccard_pairs(docs_ds, k=5, min_ppm=1_000_000).to_pandas()
    got = set(zip(pairs.doc_a, pairs.doc_b))
    want = set(zip(exact.doc_a, exact.doc_b))
    assert want <= got
    # all reported pairs meet the threshold
    assert (pairs["jaccard_ppm"] >= 900_000).all()


def test_minhash_subset_of_exact_jaccard(docs_ds):
    """Every LSH-verified pair at threshold t is in the exact all-pairs
    n-gram Jaccard set at the same threshold, with the same ppm value
    (the VERDICT round-2 gate for the scale-safe rework)."""
    from textindex_ray.functions.dedup import minhash_lsh_pairs, ngram_jaccard_pairs

    pairs = minhash_lsh_pairs(docs_ds, verify_threshold=0.2).to_pandas()
    exact = ngram_jaccard_pairs(docs_ds, k=5, min_ppm=200_000).to_pandas()
    got = {(a, b): j for a, b, j in zip(pairs.doc_a, pairs.doc_b, pairs.jaccard_ppm)}
    want = {(a, b): j for a, b, j in zip(exact.doc_a, exact.doc_b, exact.jaccard_ppm)}
    assert set(got) <= set(want)
    assert all(want[k] == v for k, v in got.items())


def test_ngram_jaccard_distributed_equals_allpairs(docs_ds):
    """The distributed shingle-inverted-index plan returns exactly the
    all-pairs bitset verifier's rows (the round-3 gate for killing the
    take_all), on BOTH the broadcast-sizes path and the partitioned-join
    fallback (size_broadcast_limit=0 forces it)."""
    from textindex_ray.functions.dedup import (
        ngram_jaccard_pairs,
        ngram_jaccard_pairs_allpairs,
    )

    want = ngram_jaccard_pairs_allpairs(docs_ds, k=5, min_ppm=200_000).to_pandas()
    want = want.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(want) > 0
    for kw in ({}, {"size_broadcast_limit": 0}):
        got = ngram_jaccard_pairs(docs_ds, k=5, min_ppm=200_000, **kw).to_pandas()
        got = got.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        assert got.astype("int64").equals(want.astype("int64")), kw


def test_ngram_jaccard_planted_and_empty(ray_session):
    """Planted near-dup pair found; empty corpus yields an empty result
    with the contract schema; the graded path never materializes the
    dataset on the driver (sizes stream + broadcast is the only
    driver-side state, bounded at O(n_docs) ints)."""
    import inspect

    import ray.data

    from textindex_ray.functions import dedup

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "the quick brown fox jumps over the lazy dog",
                    "the quick brown fox jumps over the lazy dog!",
                    "completely unrelated content zzz qqq",
                    "",
                ],
                pa.string(),
            ),
        }
    )
    res = dedup.ngram_jaccard_pairs(
        ray.data.from_arrow(t), k=5, min_ppm=500_000
    ).to_pandas()
    assert set(zip(res.doc_a, res.doc_b)) == {(1, 2)}

    e = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": pa.array([""], pa.string())}
    )
    r2 = dedup.ngram_jaccard_pairs(ray.data.from_arrow(e)).to_pandas()
    assert len(r2) == 0
    assert list(r2.columns) == ["doc_a", "doc_b", "jaccard_ppm"]

    src = inspect.getsource(dedup.ngram_jaccard_pairs)
    for banned in ("take_all", "to_pandas", "iter_rows"):
        assert banned not in src, banned


def test_minhash_no_driver_materialization():
    """The LSH pipeline must not collect texts on the driver (the round-1
    scale-killer): no take_all / to_pandas / ray.put in its source."""
    import inspect

    from textindex_ray.functions import dedup

    src = inspect.getsource(dedup.minhash_lsh_pairs)
    for banned in ("take_all", "to_pandas", "ray.put", "iter_rows"):
        assert banned not in src, banned


def test_minhash_empty_and_tiny_texts(ray_session):
    """Empty texts never pair (empty shingle sets => jaccard 0); identical
    sub-k texts pair at 1.0."""
    import ray.data
    from textindex_ray.functions.dedup import minhash_lsh_pairs

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(["", "  ", "ab", "ab", "completely different text here"], pa.string()),
        }
    )
    res = minhash_lsh_pairs(ray.data.from_arrow(t), verify_threshold=0.5).to_pandas()
    got = set(zip(res.doc_a, res.doc_b))
    assert got == {(3, 4)}
    assert (res["jaccard_ppm"] == 1_000_000).all()


def test_lsh_dup_pairs_equals_brute(ray_session):
    """Banded-LSH + per-bucket exact verify returns the SAME pairs as the
    brute all-pairs verifier on a corpus with planted near-duplicates."""
    import ray.data
    from textindex_ray.functions.similarity import cosine_dup_pairs, lsh_dup_pairs

    rng = np.random.default_rng(7)
    base = rng.standard_normal((200, 32))
    rows = [
        {"vec_id": i, "embedding": base[i].astype(np.float32).tolist()}
        for i in range(200)
    ]
    # plant 20 near-dups: tiny perturbations of existing vectors
    for j in range(20):
        v = base[j] + 0.05 * rng.standard_normal(32)
        rows.append({"vec_id": 200 + j, "embedding": v.astype(np.float32).tolist()})
    ds = ray.data.from_items(rows)
    lsh = lsh_dup_pairs(ds, threshold_ppm=900_000).to_pandas()
    brute = cosine_dup_pairs(ds, threshold_ppm=900_000).to_pandas()
    assert len(brute) >= 20  # the plants are above threshold
    got = set(zip(lsh.vec_a, lsh.vec_b))
    want = set(zip(brute.vec_a, brute.vec_b))
    assert got == want
    # ppm values agree with the brute computation
    bm = {(a, b): p for a, b, p in zip(brute.vec_a, brute.vec_b, brute.cos_ppm)}
    assert all(bm[(a, b)] == p for a, b, p in zip(lsh.vec_a, lsh.vec_b, lsh.cos_ppm))


def test_knn_lsh_recall(emb_ds):
    """ANN top-k via banded LSH candidate pruning: recall@10 >= 0.95 vs
    brute on the testdata embeddings (expected ~0.99 at the defaults)."""
    import pyarrow.parquet as pq

    from textindex_ray.functions.similarity import knn_brute, knn_lsh

    t = pq.read_table(
        "/root/testdata/sf0.001/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qm = np.array(t.column("embedding").to_pylist()[:8], dtype=np.float64)
    qids = t.column("vec_id").to_pylist()[:8]
    brute = knn_brute(emb_ds, qm, qids, k=10).to_pandas()
    ann = knn_lsh(emb_ds, qm, qids, k=10).to_pandas()
    want = set(zip(brute.query_id, brute.vec_id))
    got = set(zip(ann.query_id, ann.vec_id))
    recall = len(want & got) / len(want)
    assert recall >= 0.95, recall
    # found neighbors carry the brute ppm values up to the floor-of-ulp
    # boundary (matrix-matrix vs matrix-vector BLAS differ in the last
    # ulp; e.g. a self-match floors to 999999 vs 1000000)
    bm = {(q, v): p for q, v, p in zip(brute.query_id, brute.vec_id, brute.cos_ppm)}
    for q, v, p in zip(ann.query_id, ann.vec_id, ann.cos_ppm):
        if (q, v) in bm:
            assert abs(bm[(q, v)] - p) <= 1, (q, v)


def test_knn_ivf(emb_ds):
    """IVF (distributed spherical k-means + nprobe cells): exact at
    nprobe == k_clusters, recall >= 0.8 at nprobe=2 of 8 on testdata."""
    import pyarrow.parquet as pq

    from textindex_ray.functions.similarity import kmeans_fit, knn_brute, knn_ivf

    cents = kmeans_fit(emb_ds, 8, n_iter=4)
    assert cents.shape == (8, 64)
    np.testing.assert_allclose(np.linalg.norm(cents, axis=1), 1.0, rtol=1e-9)
    # deterministic refit
    cents2 = kmeans_fit(emb_ds, 8, n_iter=4)
    np.testing.assert_array_equal(cents, cents2)

    t = pq.read_table(
        "/root/testdata/sf0.001/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qm = np.array(t.column("embedding").to_pylist()[:6], dtype=np.float64)
    qids = t.column("vec_id").to_pylist()[:6]
    brute = knn_brute(emb_ds, qm, qids, k=10).to_pandas()
    want = set(zip(brute.query_id, brute.vec_id))

    exact = knn_ivf(emb_ds, cents, qm, qids, k=10, nprobe=8).to_pandas()
    assert set(zip(exact.query_id, exact.vec_id)) == want  # full probe == brute

    ann = knn_ivf(emb_ds, cents, qm, qids, k=10, nprobe=2).to_pandas()
    got = set(zip(ann.query_id, ann.vec_id))
    recall = len(want & got) / len(want)
    assert recall >= 0.8, recall


def test_ivf_persisted_layout(emb_ds, tmp_path):
    """Persisted IVF (ivf_build cell=K hive layout): full-probe search
    over the layout equals brute exactly; a small probe READS fewer
    files than the full table (IO pruning, not just FLOP pruning)."""
    import pyarrow.parquet as pq

    from textindex_ray.functions.similarity import (
        ivf_build,
        ivf_probed_dataset,
        kmeans_fit,
        knn_brute,
        knn_ivf_persisted,
    )

    cents = kmeans_fit(emb_ds, 8, n_iter=4)
    idx = str(tmp_path / "ivf")
    meta = ivf_build(emb_ds, cents, idx)
    assert meta == {"n_cells": 8, "dim": 64}

    t = pq.read_table(
        "/root/testdata/sf0.001/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qm = np.array(t.column("embedding").to_pylist()[:6], dtype=np.float64)
    qids = t.column("vec_id").to_pylist()[:6]

    brute = knn_brute(emb_ds, qm, qids, k=10).to_pandas()
    full = knn_ivf_persisted(idx, qm, qids, k=10, nprobe=8).to_pandas()
    # full probe == brute by neighbor set; ppm within the floor-of-ulp
    # boundary (matrix-matrix vs matrix-vector BLAS, see test_knn_lsh)
    assert set(zip(full.query_id, full.vec_id)) == set(zip(brute.query_id, brute.vec_id))
    bm = {(q, v): p for q, v, p in zip(brute.query_id, brute.vec_id, brute.cos_ppm)}
    for q, v, p in zip(full.query_id, full.vec_id, full.cos_ppm):
        assert abs(bm[(q, v)] - p) <= 1, (q, v)

    ann = knn_ivf_persisted(idx, qm, qids, k=10, nprobe=2).to_pandas()
    want = set(zip(brute.query_id, brute.vec_id))
    got = set(zip(ann.query_id, ann.vec_id))
    assert len(want & got) / len(want) >= 0.8

    # IO pruning: one probed cell touches a strict subset of the files
    all_files = ivf_probed_dataset(idx, np.arange(8)).input_files()
    one = ivf_probed_dataset(idx, np.array([0])).input_files()
    assert len(one) >= 1
    assert len(one) < len(all_files)
    assert set(one) <= set(all_files)


def test_lsh_dup_pairs_empty(emb_ds):
    """Testdata embeddings have no near-dups (max cosine ~0.6): both
    paths must return an EMPTY table with the correct schema."""
    from textindex_ray.functions.similarity import lsh_dup_pairs

    t = lsh_dup_pairs(emb_ds, threshold_ppm=900_000)
    assert t.num_rows == 0
    assert t.column_names == ["vec_a", "vec_b", "cos_ppm"]


def test_pair_apis_dataset_form(ray_session, tmp_path):
    """as_dataset=True returns a Dataset that sinks to parquet WITHOUT
    driver transit and carries exactly the rows of the Table form —
    for both lsh_dup_pairs and knn_brute; empty results keep the
    contract schema in both forms."""
    import ray.data
    from textindex_ray.functions.similarity import knn_brute, lsh_dup_pairs

    rng = np.random.default_rng(7)
    base = rng.standard_normal((120, 32))
    rows = [
        {"vec_id": i, "embedding": base[i].astype(np.float32).tolist()}
        for i in range(120)
    ]
    for j in range(12):
        v = base[j] + 0.05 * rng.standard_normal(32)
        rows.append({"vec_id": 200 + j, "embedding": v.astype(np.float32).tolist()})
    ds = ray.data.from_items(rows)

    tab = lsh_dup_pairs(ds, threshold_ppm=900_000)
    pds = lsh_dup_pairs(ds, threshold_ppm=900_000, as_dataset=True)
    out = str(tmp_path / "pairs")
    pds.write_parquet(out)
    back = (
        ray.data.read_parquet(out).sort(["vec_a", "vec_b"]).to_pandas()
    )
    assert len(back) == tab.num_rows > 0
    assert back["vec_a"].tolist() == tab.column("vec_a").to_pylist()
    assert back["cos_ppm"].tolist() == tab.column("cos_ppm").to_pylist()

    qm = base[:3]
    kt = knn_brute(ds, qm, [0, 1, 2], k=5)
    kd = knn_brute(ds, qm, [0, 1, 2], k=5, as_dataset=True).to_pandas()
    assert kd["query_id"].tolist() == kt.column("query_id").to_pylist()
    assert kd["vec_id"].tolist() == kt.column("vec_id").to_pylist()
    assert kd["cos_ppm"].tolist() == kt.column("cos_ppm").to_pylist()

    # empty-result Dataset form keeps the schema
    eds = lsh_dup_pairs(
        ds.filter(lambda r: False), threshold_ppm=900_000, as_dataset=True
    )
    assert eds.schema().names == ["vec_a", "vec_b", "cos_ppm"]
    assert eds.count() == 0


def test_knn_self_is_top1(emb_ds):
    import pyarrow.parquet as pq

    from textindex_ray.functions.similarity import knn_brute

    t = pq.read_table(
        "/root/testdata/sf0.001/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qm = np.array(t.column("embedding").to_pylist()[:3], dtype=np.float64)
    res = knn_brute(emb_ds, qm, [0, 1, 2], k=5).to_pandas()
    for q in (0, 1, 2):
        sub = res[res.query_id == q]
        assert len(sub) == 5
        assert sub.iloc[0]["vec_id"] == q  # self-similarity tops the list


def test_heavy_terms_sketch_guarantee(ray_session):
    """Misra-Gries two-pass heavy hitters: exact results on a skewed
    synthetic corpus, with the per-batch sketch bounded at k counters."""
    from collections import Counter

    import ray.data
    from textindex_ray.functions.textstats import _mg_add, heavy_terms

    # adversarial-ish distribution: 3 heavy terms + long uniform tail
    rows = []
    rng = np.random.default_rng(3)
    for i in range(400):
        toks = ["heavyone"] * 8 + ["heavytwo"] * 5 + ["heavythree"] * 3
        # letter-only tail tokens (the word tokenizer drops digits)
        toks += [
            "tail" + "".join(chr(97 + d) for d in rng.integers(0, 26, size=4))
            for _ in range(40)
        ]
        rng.shuffle(toks)
        rows.append({"doc_id": i, "text": " ".join(toks)})
    ds = ray.data.from_items(rows)
    got = heavy_terms(ds, min_ppm=50_000).to_pandas()  # threshold 5%

    exact = Counter()
    for r in rows:
        exact.update(r["text"].split())
    total = sum(exact.values())
    want = {t: c for t, c in exact.items() if c * 1_000_000 >= total * 50_000}
    assert dict(zip(got["term"], got["cf"])) == want
    assert set(want) == {"heavyone", "heavytwo", "heavythree"}

    # the sketch structure itself never exceeds k counters
    counters = {}
    for t, c in exact.items():
        _mg_add(counters, t, c, 21)
    assert len(counters) <= 21
    assert {"heavyone", "heavytwo", "heavythree"} <= set(counters)


def test_textstats_batches(docs_ds):
    from textindex_ray.functions.textstats import (
        fingerprint_batch,
        lang_id_batch,
        quality_batch,
        token_count_batch,
    )

    li = docs_ds.map_batches(lang_id_batch, batch_format="pyarrow").to_pandas()
    assert set(li["lang_pred"]) <= {"de", "en", "fr", "und"}
    q = docs_ds.map_batches(quality_batch, batch_format="pyarrow").to_pandas()
    assert (q["n_tokens"] > 0).all()
    assert (q["stop_ratio_ppm"] <= 1_000_000).all()
    tc = docs_ds.map_batches(token_count_batch, batch_format="pyarrow").to_pandas()
    assert (tc["n_unique"] <= tc["n_tokens"]).all()
    fp = docs_ds.map_batches(fingerprint_batch, batch_format="pyarrow").to_pandas()
    assert fp["fingerprint"].str.len().eq(32).all()


def test_multimodal_plumbing(ray_session):
    import ray.data

    from textindex_ray.functions.multimodal import ImageFeatures, frame_sample_plan

    payloads = [b"fake-image-bytes-%d" % i for i in range(10)]
    ds = ray.data.from_items(
        [{"media_id": i, "payload": p} for i, p in enumerate(payloads)]
    )
    out = ds.map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=4, concurrency=2
    ).to_pandas()
    assert len(out) == 10
    assert (out["width"] == 8).all()
    assert out["feature"].map(len).eq(16).all()
    # deterministic across runs
    out2 = ds.map_batches(
        ImageFeatures, batch_format="pyarrow", batch_size=4, concurrency=2
    ).to_pandas()
    assert out.sort_values("media_id").reset_index(drop=True).equals(
        out2.sort_values("media_id").reset_index(drop=True)
    )
    assert frame_sample_plan(10, 3) == [0, 3, 6, 9]


def test_multimodal_audio_video(ray_session):
    import ray.data

    from textindex_ray.functions.multimodal import AudioFeatures, VideoFrameSample

    ds = ray.data.from_items(
        [{"media_id": i, "payload": b"clip-%d" % i} for i in range(6)]
        + [{"media_id": 99, "payload": b""}]  # corrupt/empty payload
    )
    out = ds.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=4, concurrency=2
    ).to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(out) == 7
    good = out[out["media_id"] != 99]
    assert good["decode_ok"].all()
    assert (good["n_samples"] == 16_000).all()
    assert good["feature"].map(len).eq(16).all()
    # the corrupt payload is flagged, not fatal
    bad = out[out["media_id"] == 99].iloc[0]
    assert not bad["decode_ok"] and bad["n_samples"] == 0

    vds = ray.data.from_items(
        [{"media_id": i, "payload": b"video-%d" % i, "n_frames": 25} for i in range(3)]
    )
    frames = vds.map_batches(
        VideoFrameSample, fn_constructor_kwargs={"every": 10},
        batch_format="pyarrow", batch_size=2, concurrency=2,
    ).to_pandas()
    # 25 frames sampled every 10 -> indexes 0,10,20 per video
    assert len(frames) == 9
    assert sorted(frames[frames["media_id"] == 0]["frame_idx"]) == [0, 10, 20]
    assert frames["frame"].map(len).eq(32).all()
    # deterministic frame bytes
    f2 = vds.map_batches(
        VideoFrameSample, fn_constructor_kwargs={"every": 10},
        batch_format="pyarrow", batch_size=2, concurrency=2,
    ).to_pandas()
    a = frames.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    b = f2.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    assert a.equals(b)


def test_batch_query_eval(ray_session, tmp_path):
    import ray.data

    from textindex_ray.corpus import write_corpus, generate_corpus
    from textindex_ray.index.build import build_index
    from textindex_ray.oracle import OracleIndex
    from textindex_ray.query.batch_eval import evaluate_queries

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 150, rows_per_file=64)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, num_buckets=8)
    queries = ray.data.from_items(
        [
            {"qid": 1, "kind": "term_and", "terms": ["alpha", "beta"], "k": 0},
            {"qid": 2, "kind": "wildcard_and", "terms": ["alph*"], "k": 0},
            {"qid": 3, "kind": "bm25_topk", "terms": ["lorem", "ipsum"], "k": 10},
            {"qid": 4, "kind": "term_and", "terms": ["nonexistentterm"], "k": 0},
        ]
    )
    res = {r["qid"]: r for r in evaluate_queries(idx, queries).iter_rows()}
    oracle = OracleIndex(generate_corpus(150), num_buckets=8)
    assert res[1]["doc_ids"] == oracle.find(["alpha", "beta"])
    assert res[2]["doc_ids"] == oracle.find(["alph*"])
    ids_o, sc_o = oracle.bm25_topk(["lorem", "ipsum"], 10)
    assert res[3]["doc_ids"] == ids_o.tolist()
    assert res[3]["scores"] == sc_o.tolist()
    assert res[4]["doc_ids"] == []


def test_matched_lines_o12(ray_session, tmp_path):
    """O12 snippet stage: OR-semantics line matching over raw bytes
    (proc3.rs:396-435 semantics: whitespace-split tokens, wildcard per
    term, lossy-decoded raw document text)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textindex_ray.query.snippets import matched_lines

    docs = [
        ("u://a", b"alpha beta\ngamma line\nno match here"),
        ("u://b", b"nothing relevant\nalp wildcard albatross"),
        ("u://c", b"ALPHA case sensitive\nalpha yes"),
    ]
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(
        pa.table({"url": pa.array([u for u, _ in docs]),
                  "html": pa.array([b for _, b in docs], pa.binary())}),
        str(d / "p.parquet"),
    )
    out = dict(matched_lines(str(d), ["u://a", "u://b", "u://c"], ["alpha", "gam*"]))
    assert out["u://a"] == ["alpha beta", "gamma line"]
    assert out["u://b"] == []  # 'alp' and 'albatross' don't wildcard-match
    assert out["u://c"] == ["alpha yes"]  # case-sensitive like WildMatch


def test_snippet_scan_prunes_row_groups(ray_session, tmp_path):
    """matched_lines pushes an OR-of-url-equalities filter into the
    parquet read: on a url-clustered corpus layout, row-group min/max
    statistics must exclude most of the corpus for a small hit set."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from textindex_ray.corpus import generate_corpus
    from textindex_ray.query.snippets import matched_lines

    corpus = str(tmp_path / "c")
    import os

    os.makedirs(corpus)
    t = generate_corpus(600)
    t = t.take(pc.sort_indices(t.column("url")))  # url-clustered layout
    for i in range(0, t.num_rows, 64):
        pq.write_table(t.slice(i, 64), os.path.join(corpus, "c-%03d.parquet" % i))

    d = pads.dataset(corpus)
    frags = list(d.get_fragments())
    first_urls = frags[0].to_table(columns=["url"]).column("url").to_pylist()[:3]

    flt = None
    for u in first_urls:
        e = pc.field("url") == u
        flt = e if flt is None else (flt | e)
    total_rg, kept_rg = 0, 0
    for frag in frags:
        frag.ensure_complete_metadata()
        total_rg += frag.num_row_groups
        kept_rg += len(list(frag.split_by_row_group(flt)))
    assert total_rg >= 5
    assert kept_rg < total_rg, (kept_rg, total_rg)  # real pruning happened

    out = matched_lines(corpus, first_urls, ["zebra"])
    assert [u for u, _ in out] == first_urls


def test_large_binary_docs_small_batches(ray_session, tmp_path):
    """Memory-aware config: multi-MB documents flow through the pipeline
    with a small batch_size (the media-payload pattern, SCALE.md)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from textindex_ray.index.build import build_index
    from textindex_ray.query.engine import IndexReader

    body = ("alpha beta gamma words " * 50000).encode()  # ~1.1 MB text docs
    t = pa.table(
        {
            "url": pa.array(["u://%02d" % i for i in range(12)]),
            "html": pa.array([body + b"doc%d" % i for i in range(12)], pa.binary()),
        }
    )
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(t, str(d / "p.parquet"))
    meta = build_index(
        str(d), str(tmp_path / "i"), num_buckets=4, batch_size=4
    )
    assert meta["n_docs"] == 12
    assert meta["avgdl"] >= 150000
    r = IndexReader(str(tmp_path / "i"))
    ids, _ = r.bm25_topk(["alpha", "doc"], 5)
    assert len(ids) == 5


def test_multimodal_decoder_import_guard(monkeypatch):
    """decode_image/decode_audio run the real library branch when the
    import-guarded module global is present and fall back to the
    deterministic stub when it is None (this sandbox has neither PIL nor
    soundfile; the real branch is exercised with injected fakes)."""
    import numpy as np

    from textindex_ray.functions import multimodal as mm

    # stub branch (the in-sandbox default)
    assert mm._PIL_Image is None and mm._soundfile is None
    img = mm.decode_image(b"payload")
    assert img.shape == (8, 8) and img.dtype == np.float32
    pcm = mm.decode_audio(b"payload", 16_000)
    assert pcm.size == 16_000

    # real branch via fakes
    class _FakeIm:
        def __enter__(self):
            return self

        def __exit__(self, *a):
            return False

        def convert(self, mode):
            assert mode == "L"
            return np.ones((3, 4), dtype=np.uint8) * 7

    class _FakePIL:
        @staticmethod
        def open(buf):
            assert buf.read(4) == b"imgd"
            return _FakeIm()

    class _FakeSF:
        @staticmethod
        def read(buf, dtype):
            assert dtype == "float32"
            return np.ones((8, 2), dtype=np.float32) * 0.5, 44_100

    monkeypatch.setattr(mm, "_PIL_Image", _FakePIL)
    monkeypatch.setattr(mm, "_soundfile", _FakeSF)
    img2 = mm.decode_image(b"imgdata")
    assert img2.shape == (3, 4) and float(img2[0, 0]) == 7.0
    pcm2 = mm.decode_audio(b"audiodata", 16_000)
    assert pcm2.shape == (8,) and float(pcm2[0]) == 0.5  # channel downmix


def test_multimodal_stdlib_tier_real_decode():
    """Tier-2 REAL decode (no third-party libs): the built-in PNG codec
    round-trips gray and RGB->luma exactly (all five scanline filters
    covered by the codec unit checks in-module), stdlib WAV PCM16
    round-trips int16-exact, and decode_image/decode_audio route PNG /
    RIFF payloads to the real tier instead of the stub."""
    from textindex_ray.functions import multimodal as mm

    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (11, 7)).astype(np.uint8)
    png = mm.encode_png_gray(img)
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    back = mm.decode_image(png)  # routes to _decode_png (no PIL here)
    assert back.dtype == np.float32 and (back == img).all()
    # stub would have produced an 8x8 hash image — shape proves real tier
    assert back.shape == (11, 7)

    s = (rng.integers(0, 256, 33).astype(np.int32) * 256 - 32768).astype(np.int16)
    wav = mm.encode_wav_pcm16(s, 8000)
    data, sr = mm.decode_wav_pcm16(wav)
    assert sr == 8000 and (data[:, 0] == s).all()
    pcm = mm.decode_audio(wav, 16_000)  # routes to the wave tier
    assert pcm.shape == (33,)
    np.testing.assert_array_equal(pcm, s.astype(np.float32) / 32768.0)

    # PIL-formula luma for RGB type-2 PNGs: build one by hand
    import struct
    import zlib

    def chunk(t, d):
        return (struct.pack(">I", len(d)) + t + d
                + struct.pack(">I", zlib.crc32(t + d) & 0xFFFFFFFF))

    rgb = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
    raw = b"".join(b"\x00" + rgb[y].tobytes() for y in range(4))
    png_rgb = (b"\x89PNG\r\n\x1a\n"
               + chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 4, 8, 2, 0, 0, 0))
               + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
    luma = mm.decode_image(png_rgb)
    r64 = rgb.astype(np.int64)
    want = ((19595 * r64[:, :, 0] + 38470 * r64[:, :, 1]
             + 7471 * r64[:, :, 2] + 0x8000) >> 16)
    assert (luma == want).all()

    # graded-stage failure containment: corrupt payloads -> -1 rows
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "payload": pa.array(
                      [png, b"\x89PNG\r\n\x1a\ngarbage"], pa.binary()
                  )})
    r = mm.ImageIntStats()(t)
    assert r.column("px_sum")[0].as_py() == int(img.astype(np.int64).sum())
    assert r.column("px_sum")[1].as_py() == -1


def test_dup_clusters_union_find_equivalence(ray_session):
    """dup_clusters == union-find ground truth on a random graph, a
    worst-diameter chain, and the empty pair list."""
    import ray.data

    from textindex_ray.functions.dedup import (
        _EMPTY_PAIRS,
        dedup_keep,
        dup_clusters,
    )

    rng = np.random.default_rng(7)
    n, m = 2000, 2500
    a = rng.integers(0, n, m)
    b = rng.integers(0, n, m)
    keep = a != b
    doc_a = np.minimum(a[keep], b[keep])
    doc_b = np.maximum(a[keep], b[keep])
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(doc_a, pa.int64()),
        "doc_b": pa.array(doc_b, pa.int64()),
        "jaccard_ppm": pa.array(np.full(doc_a.size, 900000), pa.int64()),
    }))
    got = dup_clusters(pairs).to_pandas().sort_values("doc_id").reset_index(drop=True)

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(doc_a, doc_b):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    nodes = sorted(set(doc_a.tolist()) | set(doc_b.tolist()))
    comp_min = {}
    for v in nodes:  # ascending: first node seen per root IS the min
        comp_min.setdefault(find(v), v)
    assert got["doc_id"].tolist() == nodes
    assert got["cluster_id"].tolist() == [comp_min[find(v)] for v in nodes]

    # chain (diameter n): exercises the O(log n) round bound
    cn = 300
    chain = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(np.arange(cn - 1), pa.int64()),
        "doc_b": pa.array(np.arange(1, cn), pa.int64()),
        "jaccard_ppm": pa.array(np.full(cn - 1, 900000), pa.int64()),
    }))
    r2 = dup_clusters(chain).to_pandas()
    assert len(r2) == cn and (r2["cluster_id"] == 0).all()

    # empty: schema preserved on the Dataset (to_pandas drops columns on
    # a 0-row dataset -- Ray quirk, same as every _EMPTY_* sentinel path)
    r3 = dup_clusters(ray.data.from_arrow(_EMPTY_PAIRS))
    assert r3.count() == 0
    assert [f.name for f in r3.schema().base_schema] == ["doc_id", "cluster_id"]

    # end-to-end keep-one-per-cluster
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(n), pa.int64())})
    )
    kept = dedup_keep(docs, dup_clusters(pairs)).to_pandas()
    drop = {v for v in nodes if comp_min[find(v)] != v}
    assert sorted(kept["doc_id"].tolist()) == sorted(set(range(n)) - drop)

    # no near-dups at all: everything kept (empty-join guard branch)
    kept_all = dedup_keep(
        docs, dup_clusters(ray.data.from_arrow(_EMPTY_PAIRS))
    ).to_pandas()
    assert len(kept_all) == n


def test_hash_split_and_redact(docs_ds):
    """Content-keyed split: deterministic, dup-consistent, ~train_ppm
    mass; redact: RE2 count/replace agree with Python re."""
    import re as _re

    from textindex_ray.functions import textstats

    sp = docs_ds.map_batches(
        textstats.hash_split(900_000), batch_format="pyarrow"
    ).to_pandas()
    assert set(sp.columns) == {"doc_id", "split"}
    assert set(sp["split"]) <= {"train", "val"}
    frac = (sp["split"] == "train").mean()
    assert 0.8 < frac < 0.97  # 500 docs at 0.9: loose binomial band
    # determinism: second run identical
    sp2 = docs_ds.map_batches(
        textstats.hash_split(900_000), batch_format="pyarrow"
    ).to_pandas()
    assert (
        sp.sort_values("doc_id")
        .reset_index(drop=True)
        .equals(sp2.sort_values("doc_id").reset_index(drop=True))
    )
    # dup consistency: same text => same split
    texts = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    j = texts.merge(sp, on="doc_id")
    assert (j.groupby("text")["split"].nunique() == 1).all()

    rd = docs_ds.map_batches(
        textstats.redact("[0-9]+", "#"), batch_format="pyarrow"
    ).to_pandas().merge(texts, on="doc_id")
    for _, row in rd.head(50).iterrows():
        assert row["n_matches"] == len(_re.findall(r"[0-9]+", row["text"]))
        assert row["red_len"] == len(_re.sub(r"[0-9]+", "#", row["text"]))


def test_window_topk_matches_pandas(ray_session):
    """window_topk == pandas groupby/rank with the same deterministic
    tie-break (count desc, event_type asc)."""
    import pandas as pd
    import ray.data

    from textindex_ray.functions.events import window_topk

    ev = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
    got = (
        window_topk(ev, k=3)
        .to_pandas()
        .sort_values(["window", "rank"])
        .reset_index(drop=True)
    )

    raw = ev.to_pandas()
    raw["window"] = (
        raw["ts"].astype("int64") // 3_600_000_000
    ).astype("int64")
    cnt = (
        raw.groupby(["window", "event_type"]).size().rename("n_events").reset_index()
    )
    cnt = cnt.sort_values(
        ["window", "n_events", "event_type"], ascending=[True, False, True]
    )
    cnt["rank"] = cnt.groupby("window").cumcount() + 1
    want = cnt[cnt["rank"] <= 3].reset_index(drop=True)
    assert got["window"].tolist() == want["window"].tolist()
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["n_events"].tolist() == want["n_events"].tolist()
    assert got["rank"].tolist() == want["rank"].tolist()


def test_asof_join_semantics_and_empty_sides():
    """asof_join: inclusive same-ts match, largest-event_id tie win,
    per-key reset, -1 when no prior right row, and both empty-side
    branches keep the output schema."""
    import pandas as pd

    import ray.data
    from textindex_ray.functions.events import asof_join

    def mk(rows):
        df = pd.DataFrame(
            rows, columns=["event_id", "ts", "user_id", "value"]
        )
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        return ray.data.from_pandas(df)

    # user 1: right at ts 100 (two rows, ids 10 < 11 -> 11 wins),
    #         left at ts 100 (inclusive) and ts 50 (no match)
    # user 2: no right rows at all
    left = mk([(1, 100, 1, 0.0), (2, 50, 1, 0.0), (3, 999, 2, 0.0)])
    right = mk([(10, 100, 1, 1.5), (11, 100, 1, 2.5)])

    got = (
        asof_join(left, right, num_partitions=4)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert got["event_id"].tolist() == [1, 2, 3]
    assert got["ref_event_id"].tolist() == [11, -1, -1]
    assert got["ref_value_t4"].tolist() == [25000, -1, -1]
    assert got["gap_us"].tolist() == [0, -1, -1]

    # empty right: all -1, schema intact
    er = asof_join(left, mk([]).filter(lambda r: False)).to_pandas()
    assert sorted(er.columns) == sorted(
        ["event_id", "user_id", "ref_event_id", "ref_value_t4", "gap_us"]
    )
    assert set(er["ref_event_id"]) == {-1} and len(er) == 3

    # empty left: empty output, schema intact (Dataset.schema(); a
    # zero-block to_pandas drops columns — known Ray quirk)
    el = asof_join(mk([]).filter(lambda r: False), right)
    assert el.count() == 0
    assert sorted(el.schema().names) == sorted(er.columns)


def test_pack_bins_exact_and_partition_independent(docs_ds):
    """pack_bins == single-process ordered prefix sum // capacity, and the
    result is identical for any num_ranges (partitioning never changes the
    exact prefix)."""
    import numpy as np

    from textindex_ray.functions.textstats import pack_bins

    df = docs_ds.select_columns(["doc_id", "n_chars"]).to_pandas()
    df = df.sort_values("doc_id").reset_index(drop=True)
    sz = df["n_chars"].to_numpy(np.int64)
    excl = np.cumsum(sz) - sz
    want = dict(zip(df["doc_id"].tolist(), (excl // 4096).tolist()))

    for nr in (1, 7, 32):
        got = pack_bins(docs_ds, capacity=4096, num_ranges=nr).to_pandas()
        assert len(got) == len(df), nr
        gm = dict(zip(got["doc_id"].tolist(), got["bin_id"].tolist()))
        assert gm == want, nr


def test_length_quantiles_exact(docs_ds):
    """length_quantiles == the integer-math discrete quantile computed
    directly on the column."""
    import numpy as np

    from textindex_ray.functions.textstats import length_quantiles

    got = length_quantiles(docs_ds).to_pydict()
    vals = np.sort(
        docs_ds.select_columns(["n_chars"]).to_pandas()["n_chars"].to_numpy()
    )
    n = vals.size
    for q, v in zip(got["q_ppm"], got["value"]):
        # smallest value whose cumulative count reaches q_ppm * n / 1e6
        k = -(-q * n // 1_000_000)  # ceil without floats
        assert v == int(vals[int(k) - 1]), (q, v, int(vals[int(k) - 1]))


def test_common_token_score_exact(docs_ds, ray_session):
    """common_token_score == single-process df threshold + membership scan,
    independent of the partition count, with the empty-text edge pinned."""
    import ray.data
    from collections import Counter

    from textindex_ray.functions.textstats import _tokens, common_token_score

    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    n = len(df)
    dfc: Counter = Counter()
    for t in df["text"]:
        dfc.update(set(_tokens(t)))
    common = {w for w, c in dfc.items() if c * 1_000_000 >= n * 500_000}
    want = {}
    for did, t in zip(df["doc_id"], df["text"]):
        toks = _tokens(t)
        nt = len(toks)
        nc = sum(1 for w in toks if w in common)
        want[int(did)] = (
            nc * 1_000_000 // nt if nt else 0,
            len({w for w in toks if w in common}),
        )

    for np_ in (4, 32):
        got = common_token_score(docs_ds, min_df_ppm=500_000, num_partitions=np_)
        gd = got.to_pandas()
        gm = {
            int(r.doc_id): (int(r.common_ratio_ppm), int(r.n_common_types))
            for r in gd.itertuples()
        }
        assert gm == want, np_

    # a doc with no word-run tokens scores (0, 0) and still appears;
    # df=1, N=2 pins the >= threshold boundary as INCLUSIVE (1e6 >= 1e6)
    tiny = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["", "word word word"], pa.string())})
    )
    out = common_token_score(tiny, min_df_ppm=500_000).to_pandas()
    assert dict(zip(out.doc_id, out.common_ratio_ppm)) == {1: 0, 2: 1_000_000}


def test_curate_pipeline(docs_ds, ray_session):
    """curate == single-process gate conjunction + keep-min-per-
    fingerprint; partition-count independent; planted exact dups keep
    only the minimum surviving doc_id."""
    import hashlib
    import re as _re

    import ray.data
    from textindex_ray.functions.textstats import (
        _ALL_STOP_MARKERS, _punct_count, _tokens, LANG_MARKERS)
    from textindex_ray.pipelines.curate import curate

    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()

    def ref_row(did, t):
        toks = _tokens(t)
        nt = len(toks)
        if nt < 24:
            return None
        best_lang, best_n = "und", 0
        for lang in ("de", "en", "fr"):
            n = sum(1 for w in toks if w in LANG_MARKERS[lang])
            if n > best_n:
                best_lang, best_n = lang, n
        if best_lang != "en":
            return None
        if sum(1 for w in toks if w in _ALL_STOP_MARKERS) * 1_000_000 // nt < 10_000:
            return None
        if t and _punct_count(t) * 1_000_000 // len(t) > 200_000:
            return None
        fp = hashlib.md5(_re.sub(r"\s+", " ", t.lower()).encode()).hexdigest()
        return (fp, int(did), best_lang, nt)

    surv = [r for r in (ref_row(d, t) for d, t in zip(df.doc_id, df.text)) if r]
    first = {}
    for fp, did, lang, nt in sorted(surv):
        first.setdefault(fp, (did, lang, nt))
    want = {did: (lang, nt) for did, lang, nt in first.values()}

    for np_ in (4, 32):
        got = curate(docs_ds, num_partitions=np_).to_pandas()
        gm = {int(r.doc_id): (r.lang_pred, int(r.n_tokens)) for r in got.itertuples()}
        assert gm == want, np_

    # planted dups: same content (modulo whitespace), different doc_id —
    # only the minimum survives; a passing doc with distinct content stays
    body = "the and is was you they with have this from all some " * 3
    tiny = ray.data.from_arrow(
        pa.table({
            "doc_id": pa.array([7, 3, 5], pa.int64()),
            "text": pa.array([body, body.replace(" ", "  "), body + "extra"],
                             pa.string()),
        })
    )
    out = curate(tiny).to_pandas()
    assert sorted(out.doc_id.tolist()) == [3, 5]


def test_repetition_signals(ray_session):
    """repetition_batch pins the Gopher-rule edge cases: empty text
    (0 lines — the SQL string_split('') contract), repeated lines,
    stutter bigrams, single-token docs."""
    import ray.data
    from textindex_ray.functions.textstats import repetition_batch

    docs = {
        1: "",                                  # 0 lines, 0 bigrams
        2: "word",                              # 1 line, <2 tokens
        3: "spam\nspam\nspam\nham",             # 4 lines, 2 dup slots
        4: "buy now buy now buy now and save",  # 'buy now' 3x of 7 slots
        5: "a\nb\nc",                           # all distinct
    }
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
    }))
    out = repetition_batch(ds.take_batch(10, batch_format="pyarrow"))
    got = {r["doc_id"]: (r["n_lines"], r["dup_line_ppm"], r["top_bigram_ppm"])
           for r in out.to_pylist()}
    assert got == {
        1: (0, 0, 0),
        2: (1, 0, 0),
        3: (4, 2 * 1_000_000 // 4, 2 * 1_000_000 // 3),  # 'spam spam' 2x/3
        4: (1, 0, 3 * 1_000_000 // 7),
        5: (3, 0, 1 * 1_000_000 // 2),
    }


def test_heavy_bigrams_exact(ray_session):
    """heavy_bigrams == exact per-pair recount on a planted-collocation
    corpus (3 heavy pairs + uniform tail), shared-plan with heavy_terms."""
    from collections import Counter

    import ray.data
    from textindex_ray.functions.textstats import heavy_bigrams

    rows = []
    rng = np.random.default_rng(7)
    for i in range(300):
        toks = ["new", "york"] * 4 + ["machine", "learning"] * 3
        toks += [
            "t" + "".join(chr(97 + d) for d in rng.integers(0, 26, size=4))
            for _ in range(30)
        ]
        rows.append({"doc_id": i, "text": " ".join(toks)})
    ds = ray.data.from_items(rows)
    got = heavy_bigrams(ds, min_ppm=50_000).to_pandas()

    exact = Counter()
    total = 0
    for r in rows:
        toks = r["text"].split()
        exact.update(a + " " + b for a, b in zip(toks, toks[1:]))
        total += len(toks) - 1
    want = {b: c for b, c in exact.items() if c * 1_000_000 >= total * 50_000}
    assert dict(zip(got["bigram"], got["cf"])) == want
    assert {"new york", "machine learning"} <= set(want)


def test_min_token_gap_kernel():
    """Positional gap kernel boundary cases (doc_proximity verify)."""
    from textindex_ray.pipelines.documents import _min_token_gap

    big = np.iinfo(np.int64).max
    assert _min_token_gap(["a", "x", "b"], "a", "b") == 2
    assert _min_token_gap(["a", "b"], "a", "b") == 1
    assert _min_token_gap(["b", "x", "x", "a"], "a", "b") == 3  # order-free
    assert _min_token_gap(["a", "x", "a", "b", "x", "a"], "a", "b") == 1
    assert _min_token_gap(["a", "a"], "a", "b") == big
    assert _min_token_gap([], "a", "b") == big
    # same term twice: gap 0 at every shared position
    assert _min_token_gap(["a", "x", "a"], "a", "a") == 0


def test_shuffle_shards_deterministic(docs_ds, ray_session):
    """shuffle_shards is identical regardless of input block layout
    (a seeded random_shuffle is not), positions are contiguous 0..n-1
    per shard, and the assignment matches the docID-contract md5 math."""
    import hashlib

    from textindex_ray.functions.textstats import shuffle_shards

    a = shuffle_shards(docs_ds, num_shards=16).to_pandas()
    b = shuffle_shards(docs_ds.repartition(7), num_shards=16).to_pandas()
    key = lambda df: df.sort_values(["shard", "pos"]).reset_index(drop=True)
    assert key(a).equals(key(b))

    for s, g in a.groupby("shard"):
        assert sorted(g["pos"].tolist()) == list(range(len(g)))
    for r in a.head(50).itertuples():
        h = hashlib.md5(str(r.doc_id).encode()).hexdigest()
        assert int(h[:8], 16) % 16 == r.shard


def test_window_distinct_users_exact(ray_session):
    """window_distinct_users == pandas nunique per (type, window) on a
    synthetic stream with planted cross-batch repeat users, at multiple
    partition counts (partition-local count_distinct is global-exact
    because (type, window) keys are co-located)."""
    import pandas as pd
    import ray.data
    from textindex_ray.functions.events import window_distinct_users

    rng = np.random.default_rng(11)
    n = 5000
    ts = pd.to_datetime(
        rng.integers(0, 6 * 3600_000_000, size=n), unit="us", utc=True
    ).tz_localize(None).astype("datetime64[us]")  # match the table dtype
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 40, size=n).astype(np.int64),  # heavy repeats
        "event_type": rng.choice(["click", "view", "error"], size=n),
        "ts": ts,
        "value": rng.random(n),
    })
    ds = ray.data.from_pandas(df)
    want = (
        df.assign(window=ts.astype("int64") // 3_600_000_000)
        .groupby(["event_type", "window"])["user_id"].nunique()
        .rename("n_users").reset_index()
    )
    wm = {(r.event_type, int(r.window)): int(r.n_users) for r in want.itertuples()}
    for P in (4, 32):
        got = window_distinct_users(ds, num_partitions=P).to_pandas()
        gm = {(r.event_type, int(r.window)): int(r.n_users) for r in got.itertuples()}
        assert gm == wm, P


def test_knn_graph_lsh(emb_ds, ray_session):
    """knn_graph_lsh == single-process replay of the same semantics
    (banded signatures -> cohabitant candidates -> (cos_ppm desc, dst)
    top-k), at two partition counts; planted near-dups rank top-1."""
    import ray.data
    from textindex_ray.functions.similarity import knn_graph_lsh

    df = emb_ds.to_pandas()
    m = np.array(df["embedding"].tolist(), dtype=np.float64)
    ids = df["vec_id"].to_numpy()
    planes = np.random.default_rng(42).standard_normal((32, m.shape[1]))
    signs = (m @ planes.T) > 0
    w = 1 << np.arange(4, dtype=np.int64)
    bands = np.stack(
        [signs[:, b * 4 : (b + 1) * 4].astype(np.int64) @ w for b in range(8)],
        axis=1,
    )
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    want = {}
    for i in range(len(ids)):
        cand = np.flatnonzero((bands == bands[i][None, :]).any(axis=1))
        cand = cand[cand != i]
        if cand.size == 0:
            continue
        dots = m[cand] @ m[i]
        ppm = np.floor(dots / (norms[cand] * norms[i]) * 1e6).astype(np.int64)
        order = sorted(zip(-ppm, ids[cand], ppm))[:5]
        want[int(ids[i])] = [(int(d), int(p)) for _, d, p in order]

    for fp in (4, 32):
        got = knn_graph_lsh(emb_ds, k=5, fine_partitions=fp).to_pandas()
        gm = {}
        for r in got.sort_values(["src", "cos_ppm", "dst"],
                                 ascending=[True, False, True]).itertuples():
            gm.setdefault(int(r.src), []).append((int(r.dst), int(r.cos_ppm)))
        assert gm == want, fp

    # planted near-dup pair: its graph edge ranks top-1 both ways
    rng = np.random.default_rng(5)
    base = rng.standard_normal((50, 16))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(50)]
    rows.append({"vec_id": 99, "embedding": (base[0] + 1e-3).tolist()})
    g = knn_graph_lsh(ray.data.from_items(rows), k=3).to_pandas()
    top = g.sort_values(["src", "cos_ppm"], ascending=[True, False]).groupby("src").head(1)
    t = dict(zip(top.src, top.dst))
    assert t.get(99) == 0 and t.get(0) == 99


def test_grouped_quantiles_exact(ray_session):
    """grouped_quantiles == per-group integer cum-count quantile computed
    directly, incl. a single-value group and a skewed group."""
    import pandas as pd
    import ray.data
    from textindex_ray.functions.events import grouped_quantiles

    rng = np.random.default_rng(13)
    vals = np.concatenate([
        rng.random(4000) * 3,          # 'click': smooth
        np.full(500, 1.23456),         # 'ping': constant
        np.repeat([0.1, 9.9], [1900, 100]),  # 'error': skewed tail
    ])
    types = ["click"] * 4000 + ["ping"] * 500 + ["error"] * 2000
    df = pd.DataFrame({
        "event_id": np.arange(len(vals), dtype=np.int64),
        "user_id": np.zeros(len(vals), dtype=np.int64),
        "event_type": types,
        "ts": pd.to_datetime(np.arange(len(vals)), unit="s").astype("datetime64[us]"),
        "value": vals,
    })
    got = grouped_quantiles(ray.data.from_pandas(df)).to_pandas()
    gm = {(r.event_type, int(r.q_ppm)): int(r.value_t4) for r in got.itertuples()}

    for et, g in df.groupby("event_type"):
        v = np.sort(np.floor(g["value"].to_numpy() * 1e4).astype(np.int64))
        n = v.size
        for q in (500_000, 900_000, 990_000):
            k = -(-q * n // 1_000_000)  # ceil
            assert gm[(et, q)] == int(v[int(k) - 1]), (et, q)
    assert gm[("ping", 500_000)] == 12345
    assert gm[("error", 990_000)] == 99000  # the tail value


def test_tf_cosine_pairs_exact(docs_ds, ray_session):
    """tf_cosine_pairs == single-process df-capped tf-cosine, identical
    on the broadcast and forced partitioned-join paths and at two
    partition counts (all partials are integer sums; the one float step
    runs on exact int64s)."""
    import math
    from collections import Counter

    from textindex_ray.functions.dedup import tf_cosine_pairs
    from textindex_ray.functions.textstats import _tokens

    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    n = len(df)
    tfs = {int(d): Counter(_tokens(t)) for d, t in zip(df.doc_id, df.text)}
    dfc: Counter = Counter()
    for c in tfs.values():
        dfc.update(c.keys())
    kept = {w for w, d in dfc.items() if d * 1_000_000 <= n * 800_000}
    vecs = {d: {w: c for w, c in cnt.items() if w in kept} for d, cnt in tfs.items()}
    n2 = {d: sum(c * c for c in v.values()) for d, v in vecs.items()}
    want = {}
    ids = sorted(vecs)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if not n2[a] or not n2[b]:
                continue
            dot = sum(c * vecs[b].get(w, 0) for w, c in vecs[a].items())
            ppm = math.floor(dot * 1e6 / math.sqrt(n2[a] * n2[b]))
            if ppm >= 900_000:
                want[(a, b)] = ppm

    for kw in ({}, {"size_broadcast_limit": 0}, {"num_partitions": 4}):
        got = tf_cosine_pairs(
            docs_ds, max_df_ppm=800_000, min_cos_ppm=900_000, **kw
        ).to_pandas()
        gm = {(int(r.doc_a), int(r.doc_b)): int(r.cos_ppm) for r in got.itertuples()}
        assert gm == want, kw
    assert len(want) > 0


def test_curate_cli_resumable(ray_session, tmp_path):
    """jobs/curate.py: hive shard partitions, _COMMITTED no-op resume,
    parameter-mismatch guard, and the export equals the library path."""
    import json
    import os
    import sys

    import pytest
    import ray.data

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from jobs.curate import main
    from textindex_ray.pipelines.curate import curate

    out = str(tmp_path / "curated")
    argv = ["--docs", "/root/testdata/sf0.001/documents.parquet", "--out", out]
    assert main(argv) == 0
    assert json.load(open(os.path.join(out, "_COMMITTED")))["min_tokens"] == 24
    exported = ray.data.read_parquet(os.path.join(out, "data")).to_pandas()
    lib = curate(ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet")).to_pandas()
    assert sorted(exported.doc_id) == sorted(lib.doc_id)
    assert "text" in exported.columns and "shard" in exported.columns

    assert main(argv) == 0  # committed: no-op
    with pytest.raises(SystemExit):
        main(argv + ["--min-tokens", "10"])  # param mismatch

    # crash-rerun wipe: uncommitted leftover part files in data/ must
    # NOT survive into (and double-count in) the fresh export
    out2 = str(tmp_path / "curated2")
    os.makedirs(os.path.join(out2, "data"))
    stale = os.path.join(out2, "data", "stale-leftover.parquet")
    import pyarrow.parquet as _pq

    _pq.write_table(exported_schema_stub(), stale)
    argv2 = ["--docs", "/root/testdata/sf0.001/documents.parquet",
             "--out", out2]
    assert main(argv2) == 0
    assert not os.path.exists(stale)
    re_exported = ray.data.read_parquet(os.path.join(out2, "data")).to_pandas()
    assert sorted(re_exported.doc_id) == sorted(lib.doc_id)

    # --bench decontamination gate drops the overlapping docs
    out3 = str(tmp_path / "curated3")
    bench_path = str(tmp_path / "bench.parquet")
    # benchmark = the texts of two exported docs -> they must vanish
    leak_ids = sorted(exported.doc_id)[:2]
    leak = exported[exported.doc_id.isin(leak_ids)][["doc_id", "text"]]
    _pq.write_table(pa.Table.from_pandas(leak, preserve_index=False), bench_path)
    assert main(["--docs", "/root/testdata/sf0.001/documents.parquet",
                 "--out", out3, "--bench", bench_path,
                 "--max-hit-ppm", "500000"]) == 0
    got3 = ray.data.read_parquet(os.path.join(out3, "data")).to_pandas()
    assert not set(leak_ids) & set(got3.doc_id)
    assert len(got3) < len(exported)


def exported_schema_stub():
    return pa.table(
        {"doc_id": pa.array([999999], pa.int64()),
         "lang_pred": pa.array(["en"], pa.string()),
         "n_tokens": pa.array([1], pa.int64()),
         "text": pa.array(["stale"], pa.string()),
         "shard": pa.array([0], pa.int64())}
    )


def test_doc_top_terms_exact(docs_ds, ray_session):
    """doc_top_terms == single-process tf*ln(N/df) ranking with term
    tie-break, partition-independent; a doc whose terms all tie on
    weight ranks them alphabetically."""
    import math
    from collections import Counter

    import ray.data
    from textindex_ray.functions.textstats import _tokens, doc_top_terms

    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    n = len(df)
    tfs = {int(d): Counter(_tokens(t)) for d, t in zip(df.doc_id, df.text)}
    dfc: Counter = Counter()
    for c in tfs.values():
        dfc.update(c.keys())
    want = {}
    for d, cnt in tfs.items():
        if not cnt:
            continue
        ranked = sorted(
            cnt.items(), key=lambda kv: (-kv[1] * math.log(n / dfc[kv[0]]), kv[0])
        )[:3]
        want[d] = [w for w, _ in ranked]

    for P in (4, 32):
        got = doc_top_terms(docs_ds, k=3, num_partitions=P).to_pandas()
        gm = {}
        for r in got.sort_values(["doc_id", "rank"]).itertuples():
            gm.setdefault(int(r.doc_id), []).append(r.term)
        assert gm == want, P

    # all-tie doc: every term tf=1, same df -> alphabetical ranks
    tiny = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["zeta alpha mid"], pa.string()),
    }))
    out = doc_top_terms(tiny, k=3).to_pandas().sort_values("rank")
    assert out.term.tolist() == ["alpha", "mid", "zeta"]


def test_empty_input_schemas(ray_session):
    """Every round-3 operator returns a schema-bearing empty result on a
    0-row input (0-row Datasets lose their schema through groupby /
    pandas conversion — the degenerate branch must short-circuit)."""
    import pandas as pd
    import ray.data
    from textindex_ray.functions.dedup import tf_cosine_pairs
    from textindex_ray.functions.events import (
        grouped_quantiles, window_distinct_users)
    from textindex_ray.functions.similarity import knn_graph_lsh
    from textindex_ray.functions.textstats import (
        common_token_score, doc_top_terms, shuffle_shards)
    from textindex_ray.pipelines.curate import curate

    docs = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}))
    emb = ray.data.from_arrow(pa.table(
        {"vec_id": pa.array([], pa.int64()),
         "embedding": pa.array([], pa.list_(pa.float64()))}))
    ev = ray.data.from_arrow(pa.table(
        {"event_id": pa.array([], pa.int64()), "user_id": pa.array([], pa.int64()),
         "event_type": pa.array([], pa.string()),
         "ts": pa.array([], pa.timestamp("us")),
         "value": pa.array([], pa.float64())}))

    cases = {
        "curate": (lambda: curate(docs), ["doc_id", "lang_pred", "n_tokens"]),
        "tf_cosine": (lambda: tf_cosine_pairs(docs),
                      ["doc_a", "doc_b", "cos_ppm"]),
        "top_terms": (lambda: doc_top_terms(docs), ["doc_id", "term", "rank"]),
        "shards": (lambda: shuffle_shards(docs), ["doc_id", "shard", "pos"]),
        "common": (lambda: common_token_score(docs),
                   ["doc_id", "common_ratio_ppm", "n_common_types"]),
        "knn_graph": (lambda: knn_graph_lsh(emb), ["src", "dst", "cos_ppm"]),
        "dusers": (lambda: window_distinct_users(ev),
                   ["event_type", "window", "n_users"]),
        "gquant": (lambda: grouped_quantiles(ev),
                   ["event_type", "q_ppm", "value_t4"]),
    }
    for name, (fn, cols) in cases.items():
        r = fn()
        df = r.to_pandas()
        assert len(df) == 0, name
        assert list(df.columns) == cols, (name, list(df.columns))


def test_chunk_documents_exact(ray_session):
    """chunk_documents: overlap reconstruction, short-final-chunk, empty
    text, and the boundary where len == step (one chunk, not two)."""
    import ray.data
    from textindex_ray.functions.textstats import chunk_documents

    docs = {
        1: "a" * 448,          # len == step: exactly 1 chunk
        2: "b" * 449,          # one step past: 2 chunks, second short
        3: "x" * 1200,         # 3 chunks; middle fully 512
        4: "",                 # no chunks
        5: "short",            # 1 short chunk
    }
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
    }))
    out = chunk_documents(ds, chunk_chars=512, overlap=64).to_pandas()
    g = {d: s.sort_values("chunk_id") for d, s in out.groupby("doc_id")}
    assert 4 not in g
    assert len(g[1]) == 1 and g[1].n_chars.tolist() == [448]
    assert len(g[2]) == 2 and g[2].n_chars.tolist() == [449, 1]
    assert len(g[3]) == 3 and g[3].n_chars.tolist() == [512, 512, 304]
    assert g[5].chunk.tolist() == ["short"]
    # overlap contract: consecutive chunks share the 64-char seam
    c0, c1 = g[3].chunk.tolist()[:2]
    assert c0[-64:] == c1[:64]
    # full reconstruction: strip the overlap from every later chunk
    rec = c0 + "".join(c[64:] for c in g[3].chunk.tolist()[1:])
    assert rec == docs[3]

    import pytest
    with pytest.raises(ValueError):
        chunk_documents(ds, chunk_chars=64, overlap=64)


def test_range_join_count(ray_session):
    """range_join_count: inclusive band bounds, per-key isolation,
    zero-match lefts kept, partition-count independence."""
    import pandas as pd
    import ray.data
    from textindex_ray.functions.events import range_join_count

    def mk(rows):
        df = pd.DataFrame(rows, columns=["event_id", "user_id", "t", "event_type"])
        df["ts"] = pd.to_datetime(df.pop("t"), unit="us").astype("datetime64[us]")
        df["value"] = 0.0
        return ray.data.from_pandas(df)

    B = 100
    left = mk([(1, 7, 1000, "error"),   # rights at 900 and 1100: both inclusive
               (2, 7, 5000, "error"),   # nothing near
               (3, 8, 1000, "error")])  # other user's rights don't count
    right = mk([(10, 7, 900, "click"), (11, 7, 1100, "click"),
                (12, 7, 899, "click"),  # one past the band
                (13, 9, 1000, "click")])
    for P in (1, 32):
        out = range_join_count(left, right, band_us=B,
                               num_partitions=P).to_pandas()
        got = dict(zip(out.event_id, out.n_matches))
        assert got == {1: 2, 2: 0, 3: 0}, P

    # empty left short-circuits with schema
    empty = range_join_count(mk([]).filter(expr="event_id > 0"), right)
    df = empty.to_pandas()
    assert len(df) == 0 and list(df.columns) == ["event_id", "user_id", "n_matches"]


def test_funnel_stages(ray_session):
    """funnel_stages: greedy earliest match, strict > ties, conversion
    window, users missing stage 0, partition independence."""
    import pandas as pd
    import ray.data
    from textindex_ray.functions.events import funnel_stages

    rows = [
        # user 1: full ordered funnel
        (1, 1, 100, "view"), (2, 1, 200, "click"), (3, 1, 300, "error"),
        # user 2: click BEFORE view only -> stuck at stage 1
        (4, 2, 200, "view"), (5, 2, 100, "click"),
        # user 3: click at the SAME ts as view -> strict > blocks it
        (6, 3, 100, "view"), (7, 3, 100, "click"),
        # user 4: no view at all -> stage 0
        (8, 4, 100, "click"), (9, 4, 200, "error"),
        # user 5: greedy trap — earliest view at 100, click at 150,
        # error only before 150 -> depth 2 (greedy, not exhaustive)
        (10, 5, 100, "view"), (11, 5, 150, "click"), (12, 5, 120, "error"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "t", "event_type"])
    df["ts"] = pd.to_datetime(df.pop("t"), unit="us").astype("datetime64[us]")
    df["value"] = 0.0
    ds = ray.data.from_pandas(df)

    for P in (1, 32):
        out = funnel_stages(ds, stages=("view", "click", "error"),
                            num_partitions=P).to_pandas()
        got = dict(zip(out.user_id, out.stage_reached))
        assert got == {1: 3, 2: 1, 3: 1, 4: 0, 5: 2}, P

    # conversion window: user 1's click at +100us fails a 50us window
    out = funnel_stages(ds, stages=("view", "click", "error"),
                        within_us=50).to_pandas()
    got = dict(zip(out.user_id, out.stage_reached))
    assert got[1] == 1


def test_window_anomaly(ray_session):
    """window_anomaly: trailing-k row frame (gaps skipped), -1 for a
    type's first window, exact integer ratio math."""
    import pandas as pd
    import ray.data
    from textindex_ray.functions.events import window_anomaly

    # type 'a': windows 0,1,2,4 (gap at 3) with counts 2,2,2,12
    rows = []
    eid = 0
    for w, cnt in ((0, 2), (1, 2), (2, 2), (4, 12)):
        for _ in range(cnt):
            rows.append((eid, 1, w * 3_600_000_000 + eid, "a"))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "t", "event_type"])
    df["ts"] = pd.to_datetime(df.pop("t"), unit="us").astype("datetime64[us]")
    df["value"] = 0.0
    out = window_anomaly(ray.data.from_pandas(df), k=3).to_pandas()
    got = {int(r.window): int(r.anomaly_ppm) for r in out.itertuples()}
    assert got[0] == -1
    assert got[1] == 2 * 1 * 1_000_000 // 2
    assert got[2] == 2 * 2 * 1_000_000 // 4
    # gap: window 4's trail is rows 1,2,3 of the PRESENT sequence
    assert got[4] == 12 * 3 * 1_000_000 // 6  # 6x the trailing mean


def test_select_budget_exact(docs_ds, ray_session):
    """select_budget == single-process greedy prefix under the
    (stop_ppm desc, doc_id) ordering, independent of num_ranges; the
    straddling doc (prefix below, total above budget) is kept."""
    from collections import Counter

    from textindex_ray.functions.textstats import (
        _ALL_STOP_MARKERS, _tokens, select_budget)

    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    rows = []
    for d, t in zip(df.doc_id, df.text):
        toks = _tokens(t)
        nt = len(toks)
        stop = (sum(1 for w in toks if w in _ALL_STOP_MARKERS)
                * 1_000_000 // nt if nt else 0)
        rows.append((int(d), nt, stop))
    rows.sort(key=lambda r: (-r[2], r[0]))
    want, acc = {}, 0
    for d, nt, _ in rows:
        if acc < 12_000:
            want[d] = acc
        acc += nt
    for nr in (4, 32):
        got = select_budget(docs_ds, budget_tokens=12_000,
                            num_ranges=nr).to_pandas()
        gm = {int(r.doc_id): int(r.cum_before) for r in got.itertuples()}
        assert gm == want, nr
    # the last kept doc straddles the budget (greedy fill)
    last_doc = max(want, key=want.get)
    nt_last = dict((d, nt) for d, nt, _ in rows)[last_doc]
    assert want[last_doc] < 12_000 <= want[last_doc] + nt_last


def test_term_cooccurrence_exact(ray_session):
    """term_cooccurrence == exact doc-pair counts over the heavy set on
    a planted corpus; non-heavy terms never appear."""
    from collections import Counter
    from itertools import combinations

    import ray.data
    from textindex_ray.functions.textstats import term_cooccurrence

    rng = np.random.default_rng(17)
    rows = []
    for i in range(200):
        toks = ["alpha", "beta"] * 5          # heavy pair, co-occur always
        if i % 2 == 0:
            toks += ["gamma"] * 8             # heavy, half the docs
        toks += ["t" + "".join(chr(97 + d) for d in rng.integers(0, 26, 4))
                 for _ in range(10)]          # uniform tail (non-heavy)
        rng.shuffle(toks)
        rows.append({"doc_id": i, "text": " ".join(toks)})
    ds = ray.data.from_items(rows)
    got = term_cooccurrence(ds, min_ppm=50_000).to_pandas()
    gm = {(r.term_a, r.term_b): int(r.n_docs) for r in got.itertuples()}
    assert gm == {("alpha", "beta"): 200, ("alpha", "gamma"): 100,
                  ("beta", "gamma"): 100}


def test_stratified_sample(docs_ds, ray_session):
    """stratified_sample: per-stratum md5 thresholds, default 0 drops
    unlisted strata, rate 1e6 keeps everything, dup texts sample
    identically (content-keyed)."""
    import hashlib

    import ray.data
    from textindex_ray.functions.textstats import stratified_sample

    all_en = stratified_sample(
        docs_ds, rates_ppm={"en": 1_000_000}).to_pandas()
    assert set(all_en.lang_pred) <= {"en"}  # unlisted strata dropped

    half = stratified_sample(
        docs_ds, rates_ppm={"en": 500_000, "und": 500_000}).to_pandas()
    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    texts = dict(zip(df.doc_id, df.text))
    for did in half.doc_id:
        h = int(hashlib.md5(texts[did].encode()).hexdigest()[:8], 16) % 1_000_000
        assert h < 500_000

    # duplicate texts draw identically
    tiny = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["the same english words here the and is"] * 2,
                         pa.string()),
    }))
    out = stratified_sample(tiny, rates_ppm={"en": 500_000}).to_pandas()
    assert len(out) in (0, 2)  # both or neither


def test_lang_stats_exact(docs_ds, ray_session):
    """lang_stats == pandas groupby over the single-process lang/token
    computation (combiner partials must sum exactly)."""
    from collections import Counter

    from textindex_ray.functions.textstats import (
        _tokens, LANG_MARKERS, lang_stats)

    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    nd, st = Counter(), Counter()
    for t in df.text:
        toks = _tokens(t)
        best_lang, best_n = "und", 0
        for lang in ("de", "en", "fr"):
            n = sum(1 for w in toks if w in LANG_MARKERS[lang])
            if n > best_n:
                best_lang, best_n = lang, n
        nd[best_lang] += 1
        st[best_lang] += len(toks)

    got = lang_stats(docs_ds).to_pandas()
    gm = {r.lang_pred: (int(r.n_docs), int(r.sum_tokens), int(r.mean_tokens_ppm))
          for r in got.itertuples()}
    want = {l: (nd[l], st[l], st[l] * 1_000_000 // nd[l]) for l in nd}
    assert gm == want


def test_ngram_containment_pairs(ray_session):
    """Containment finds the short-doc-inside-long-doc pair that Jaccard
    misses; jaccard mode is unchanged by the score refactor."""
    import ray.data
    from textindex_ray.functions.dedup import (
        ngram_containment_pairs, ngram_jaccard_pairs)

    short_doc = "the quick brown fox jumps over the lazy dog"
    long_doc = (
        "unrelated prefix filler words keep coming along here " * 10
        + short_doc
        + " and then a very different suffix stretches on and on " * 10
    )
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([long_doc, short_doc,
                          "entirely unrelated content here zzz"], pa.string()),
    })
    ds = ray.data.from_arrow(t)
    cont = ngram_containment_pairs(ds, k=5, min_ppm=900_000).to_pandas()
    assert set(zip(cont.doc_a, cont.doc_b)) == {(1, 2)}
    assert int(cont.containment_ppm.iloc[0]) == 1_000_000  # full containment
    # the same pair is NOT a >=0.9 jaccard dup (sizes differ wildly)
    jac = ngram_jaccard_pairs(ds, k=5, min_ppm=900_000).to_pandas()
    jpairs = set(zip(jac.doc_a, jac.doc_b)) if len(jac) else set()
    assert (1, 2) not in jpairs
    # forced-join path agrees
    cont2 = ngram_containment_pairs(
        ds, k=5, min_ppm=900_000, size_broadcast_limit=0).to_pandas()
    assert cont.sort_values(["doc_a", "doc_b"]).reset_index(drop=True).equals(
        cont2.sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


def test_chunk_reconstruction_property():
    """Property: for any text and any (size, overlap), stripping the
    overlap from every chunk after the first reconstructs the text, and
    chunk starts advance by exactly step."""
    from hypothesis import given, settings, strategies as st

    from textindex_ray.functions.textstats import chunk_documents
    import ray.data

    @settings(max_examples=40, deadline=None)
    @given(
        st.text(alphabet="abc \n", max_size=400),
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=0, max_value=32),
    )
    def prop(text, size, overlap):
        if overlap >= size:
            return
        step = size - overlap
        # pure-python replay of the kernel (no Ray session per example)
        chunks = [text[k * step : k * step + size]
                  for k in range((len(text) + step - 1) // step if text else 0)]
        if text:
            rec = chunks[0] + "".join(c[overlap:] for c in chunks[1:])
            assert rec == text
        else:
            assert chunks == []

    prop()


def test_min_token_gap_property():
    """Property: the searchsorted nearest-gap kernel equals the brute
    O(n^2) minimum over all position pairs."""
    from hypothesis import given, settings, strategies as st

    from textindex_ray.pipelines.documents import _min_token_gap

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "x"]), max_size=40))
    def prop(toks):
        got = _min_token_gap(toks, "a", "b")
        p1 = [i for i, w in enumerate(toks) if w == "a"]
        p2 = [i for i, w in enumerate(toks) if w == "b"]
        want = (min(abs(i - j) for i in p1 for j in p2)
                if p1 and p2 else np.iinfo(np.int64).max)
        assert got == want

    prop()


def test_sampled_bounds_balance_skewed_ids(ray_session):
    """Planted skew: 90% of doc_ids cluster in a tiny id range. Quantile
    boundaries split the cluster by COUNT (max range ~ balanced), where
    the old equal-width min/max split would pile ~90% of rows into one
    range. pack_bins results stay exact regardless (boundaries affect
    balance only)."""
    import ray.data
    from textindex_ray.functions._util import sampled_range_bounds
    from textindex_ray.functions.textstats import pack_bins

    ids = np.concatenate([
        np.arange(9000),                       # dense cluster
        np.arange(1000) * 10_000_000 + 10**9,  # sparse tail
    ]).astype(np.int64)
    sizes = np.full(ids.size, 7, np.int64)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids), "n_chars": pa.array(sizes)})
    ).repartition(8)

    B = 16
    bounds = sampled_range_bounds(ds, "doc_id", B)
    rid = np.searchsorted(bounds, ids, side="right")
    counts = np.bincount(rid, minlength=B)
    assert counts.max() <= ids.size / B * 3, counts.tolist()
    # the old equal-width split really does collapse on this input
    wide = np.linspace(ids.min(), ids.max(), B, endpoint=False)[1:]
    wid = np.searchsorted(wide, ids, side="right")
    assert np.bincount(wid, minlength=B).max() > ids.size * 0.8

    # exactness: bin_id == global doc_id-ordered exclusive prefix//cap
    got = pack_bins(ds, capacity=100).to_pandas().sort_values("doc_id")
    order = np.argsort(ids)
    excl = np.cumsum(sizes[order]) - sizes[order]
    want = excl // 100
    assert got["bin_id"].to_numpy().tolist() == want.tolist()


def test_decontaminate_paths_agree(ray_session):
    """Broadcast and partitioned decontamination plans are bit-identical
    (incl. zero-shingle docs emitting 0/0/0), and counts match a direct
    per-doc set-intersection ground truth."""
    import ray.data
    from textindex_ray.functions.dedup import _shingles, decontaminate

    rng = np.random.default_rng(13)
    words = ["alpha", "beta", "gamma", "delta", "zzz", "leak", "probe"]
    rows = []
    for i in range(120):
        n = int(rng.integers(0, 12))
        rows.append({"doc_id": i, "text": " ".join(rng.choice(words, n))})
    rows.append({"doc_id": 900, "text": ""})      # zero-shingle doc
    rows.append({"doc_id": 901, "text": "abc"})   # short-text single shingle
    ds = ray.data.from_items(rows)
    bench_rows = [r for r in rows if r["doc_id"] % 7 == 0]
    bench = ray.data.from_items(bench_rows)

    a = (
        decontaminate(ds, bench, k=5)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        decontaminate(ds, bench, k=5, bench_broadcast_limit=3)  # force partitioned
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert a.equals(b), (a.compare(b) if len(a) == len(b) else (len(a), len(b)))

    bset = set()
    for r in bench_rows:
        bset |= _shingles(r["text"], 5)
    got = dict(zip(a.doc_id, zip(a.n_hits, a.n_shingles, a.hit_ppm)))
    assert len(got) == len(rows)
    for r in rows:
        sh = _shingles(r["text"], 5)
        h, n = sum(1 for g in sh if g in bset), len(sh)
        assert got[r["doc_id"]] == (h, n, (h * 1_000_000) // n if n else 0), r


def test_relational_ops_match_duckdb(ray_session):
    """pricing_summary / top_order_revenue / revenue_by_nation equal
    their DuckDB twins bit-for-bit at sf0.001 (integer floor-scaled
    aggregates; the sweep re-checks at sf0.01)."""
    import duckdb
    import ray.data

    from textindex_ray.functions import relational as R

    sf = "/root/testdata/sf0.001"
    li = ray.data.read_parquet(f"{sf}/lineitem.parquet")
    od = ray.data.read_parquet(f"{sf}/orders.parquet")
    cu = ray.data.read_parquet(f"{sf}/customer.parquet")
    na = ray.data.read_parquet(f"{sf}/nation.parquet")
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")

    got = R.pricing_summary(li).to_pandas().sort_values(
        ["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    want = con.execute("""
        SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n_rows,
               sum(CAST(floor(l_quantity) AS BIGINT))::BIGINT AS sum_qty,
               sum(CAST(floor(l_extendedprice*100) AS BIGINT))::BIGINT AS sum_base_t2,
               sum(CAST(floor(l_extendedprice*(1-l_discount)*100) AS BIGINT))::BIGINT AS sum_disc_t2,
               sum(CAST(floor(l_extendedprice*(1-l_discount)*(1+l_tax)*100) AS BIGINT))::BIGINT AS sum_charge_t2,
               sum(CAST(floor(l_discount*1000000) AS BIGINT))::BIGINT AS sum_disc_ppm
        FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-09-01'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus""").df()
    assert got[want.columns.tolist()].equals(want), (got, want)

    got3 = R.top_order_revenue(od, li, cu, segment="BUILDING", n=10).to_pandas()
    want3 = con.execute("""
        SELECT l.l_orderkey AS o_orderkey,
               sum(CAST(floor(l.l_extendedprice*(1-l.l_discount)*100) AS BIGINT))::BIGINT AS revenue_t2,
               (CAST(o.o_orderdate AS DATE) - DATE '1970-01-01')::BIGINT AS o_orderdate_days
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < TIMESTAMP '1998-01-01'
        GROUP BY l.l_orderkey, o.o_orderdate
        ORDER BY revenue_t2 DESC, o_orderkey LIMIT 10""").df()
    assert got3[want3.columns.tolist()].equals(want3), (got3, want3)

    gotn = R.revenue_by_nation(od, cu, na).to_pandas().sort_values(
        "n_name").reset_index(drop=True)
    wantn = con.execute("""
        SELECT n.n_name, count(*)::BIGINT AS n_orders,
               sum(CAST(floor(o.o_totalprice*100) AS BIGINT))::BIGINT AS revenue_t2
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name ORDER BY n.n_name""").df()
    assert gotn[wantn.columns.tolist()].equals(wantn), (gotn, wantn)


def test_decontaminate_filter_gate(ray_session):
    """decontaminate_filter drops exactly the docs whose benchmark
    shingle overlap reaches the threshold and keeps payload columns."""
    import ray.data
    from textindex_ray.pipelines.curate import decontaminate_filter

    bench_text = "the quick brown fox jumps over the lazy dog again and again"
    rows = [
        {"doc_id": 1, "text": bench_text},                    # verbatim leak
        {"doc_id": 2, "text": "completely unrelated words zq"},
        {"doc_id": 3, "text": "prefix " + bench_text},        # heavy overlap
        {"doc_id": 4, "text": "xylophone quartz zebra mist"},
    ]
    ds = ray.data.from_items(rows)
    bench = ray.data.from_items([{"doc_id": 99, "text": bench_text}])
    out = decontaminate_filter(ds, bench, k=5, max_hit_ppm=500_000)
    got = out.to_pandas().sort_values("doc_id")
    assert got["doc_id"].tolist() == [2, 4]
    assert "text" in got.columns


def test_png_decoder_all_filters_and_property():
    """The built-in PNG decoder handles every scanline filter (0-4) —
    synthesized encodings round-trip exactly — and random filter
    sequences over random images keep bit-identity (the decoder must
    read externally-produced PNGs, which prefer filters 1-4)."""
    import struct
    import zlib

    from textindex_ray.functions.multimodal import _decode_png

    def chunk(t, d):
        return (struct.pack(">I", len(d)) + t + d
                + struct.pack(">I", zlib.crc32(t + d) & 0xFFFFFFFF))

    def encode_filtered(img, filts):
        h, w = img.shape
        rows = []
        prev = np.zeros(w, np.int32)
        for y in range(h):
            cur = img[y].astype(np.int32)
            f = filts[y % len(filts)]
            if f == 0:
                enc = cur.copy()
            elif f == 1:
                enc = cur.copy()
                for x in range(w - 1, 0, -1):
                    enc[x] = (enc[x] - cur[x - 1]) & 255
            elif f == 2:
                enc = (cur - prev) & 255
            elif f == 3:
                enc = cur.copy()
                for x in range(w):
                    left = cur[x - 1] if x else 0
                    enc[x] = (cur[x] - ((left + prev[x]) >> 1)) & 255
            else:  # paeth
                enc = cur.copy()
                for x in range(w):
                    a = cur[x - 1] if x else 0
                    b = prev[x]
                    c = prev[x - 1] if x else 0
                    p = a + b - c
                    pa_, pb, pcv = abs(p - a), abs(p - b), abs(p - c)
                    pr = a if (pa_ <= pb and pa_ <= pcv) else (b if pb <= pcv else c)
                    enc[x] = (cur[x] - pr) & 255
            rows.append(bytes([f]) + enc.astype(np.uint8).tobytes())
            prev = cur
        return (b"\x89PNG\r\n\x1a\n"
                + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
                + chunk(b"IDAT", zlib.compress(b"".join(rows)))
                + chunk(b"IEND", b""))

    rng = np.random.default_rng(17)
    # each filter alone, then mixed sequences, on assorted shapes
    for filts in ([0], [1], [2], [3], [4], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0]):
        for shape in ((1, 1), (3, 7), (8, 8), (16, 5)):
            img = rng.integers(0, 256, shape).astype(np.uint8)
            got = _decode_png(encode_filtered(img, filts))
            assert (got == img).all(), (filts, shape)
    # property sweep: random filter per row
    for _ in range(25):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        img = rng.integers(0, 256, (h, w)).astype(np.uint8)
        filts = rng.integers(0, 5, h).tolist()
        got = _decode_png(encode_filtered(img, filts))
        assert (got == img).all(), (filts, (h, w))


def test_bpe_token_count(docs_ds, ray_session):
    """BPE-ish pretoken counts: Ray batch op == compiled-regex ground
    truth, and the pattern is RE2-portable (DuckDB regexp_extract_all
    agrees on contraction / whitespace / unicode edges)."""
    import duckdb
    import re

    from textindex_ray.functions.textstats import (
        BPE_PRETOKEN_RE,
        bpe_token_count_batch,
    )

    got = docs_ds.map_batches(
        bpe_token_count_batch, batch_format="pyarrow"
    ).to_pandas().set_index("doc_id")
    rx = re.compile(BPE_PRETOKEN_RE)
    df = docs_ds.select_columns(["doc_id", "text"]).to_pandas()
    for d, t in zip(df.doc_id, df.text):
        toks = rx.findall(t)
        assert got.loc[d, "n_bpe_tokens"] == len(toks)
        assert got.loc[d, "n_bpe_unique"] == len(set(toks))

    con = duckdb.connect()
    for e in ["", "it's don't we're I'll", "a  b\t\nc", "héllo wörld 42!!",
              "...", "  ", "x'dy", "'s's's"]:
        db = con.execute(
            "SELECT len(regexp_extract_all(?, ?))", [e, BPE_PRETOKEN_RE]
        ).fetchone()[0]
        assert db == len(rx.findall(e)), e


def test_hll_registers_and_estimate(ray_session):
    """HLL register sketch: partition-independent integer rows, and the
    estimator lands within the theoretical error band of the exact
    distinct count (m=4096 -> ~1.6% std error; assert < 5%)."""
    import ray.data
    from textindex_ray.functions.events import hll_estimate, hll_user_registers

    ev = ray.data.read_parquet(
        "/root/testdata/sf0.01/events.parquet", columns=["event_type", "user_id"]
    )
    a = hll_user_registers(ev, num_partitions=4).to_pandas()
    b = hll_user_registers(ev.repartition(13), num_partitions=32).to_pandas()
    key = ["event_type", "bucket"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )

    df = ev.to_pandas()
    exact = df.groupby("event_type")["user_id"].nunique().to_dict()
    est = hll_estimate(a, precision=12)
    assert set(est) == set(map(str, exact))
    for et, n in exact.items():
        rel = abs(est[str(et)] - n) / max(n, 1)
        assert rel < 0.05, (et, n, est[str(et)], rel)


def test_embed_documents_stage(ray_session):
    """Embedding-generation stage (stages/embed.py): integer projection
    matches a naive per-token reimplementation; the unit-vector form
    feeds knn_brute end-to-end (top-1 of a doc's own vector is itself)."""
    import hashlib

    import ray.data

    from textindex_ray.functions.similarity import knn_brute
    from textindex_ray.stages.embed import (
        EmbedDocs,
        embed_documents,
        embed_rows_batch,
        token_projection,
    )

    texts = [
        "alpha beta gamma delta epsilon zeta",
        "the quick brown fox jumps over the lazy dog",
        "alpha alpha alpha unique%d token" % 7,
        "",  # zero-token doc -> zero vector, no rows
        "Mixed CASE Tokens With-Punct 123 and words",
    ] + ["doc %d filler words number%d" % (i, i) for i in range(30)]
    docs = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )

    # integer rows == naive reimplementation of the projection
    import re

    word_re = re.compile(r"[^\W\d_]+")
    rows = docs.map_batches(
        embed_rows_batch(16), batch_format="pyarrow"
    ).to_pandas()
    got = {(r.doc_id, r.dim): r.val for r in rows.itertuples()}
    want: dict = {}
    for i, t in enumerate(texts):
        for w in word_re.findall(t.lower()):
            hx = hashlib.md5(w.encode()).hexdigest()
            dim = int(hx[:8], 16) % 16
            sign = 1 if int(hx[8], 16) % 2 == 0 else -1
            want[(i, dim)] = want.get((i, dim), 0) + sign
    want = {k: v for k, v in want.items() if v != 0}
    assert got == want
    assert token_projection("alpha", 16) == (
        int(hashlib.md5(b"alpha").hexdigest()[:8], 16) % 16,
        1 if int(hashlib.md5(b"alpha").hexdigest()[8], 16) % 2 == 0 else -1,
    )

    # unit vectors -> knn: each queried doc's nearest neighbor is itself
    emb = embed_documents(docs, d=16, concurrency=2).rename_columns(
        {"doc_id": "vec_id"}
    ).materialize()
    import numpy as np

    b = emb.take_batch(8, batch_format="pyarrow")
    qids = [x.as_py() for x in b["vec_id"]]
    qmat = np.array([[v.as_py() for v in x] for x in b["embedding"]])
    keep = [j for j, q in enumerate(qids) if np.linalg.norm(qmat[j]) > 0]
    res = knn_brute(emb, qmat[keep], [qids[j] for j in keep], k=1)
    rows1 = res.to_pylist()
    assert len(rows1) == len(keep)
    for r in rows1:
        # own vector is in the set, so top-1 cosine is exactly 1 (the
        # winner may be an equal-vector tie at a smaller vec_id — d=16
        # hash projections collide; that is still a correct top-1)
        assert r["cos_ppm"] >= 999_999, r


def test_source_cap_sample(ray_session):
    """Cap sampling: <= cap docs per source, selected by the md5 rank
    regardless of batch/partition layout; equals a pandas brute force."""
    import hashlib

    import ray.data

    from textindex_ray.functions.textstats import source_cap_sample

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.01/documents.parquet", columns=["doc_id", "source"]
    )
    got = source_cap_sample(ds, cap=10).to_pandas()
    got2 = source_cap_sample(ds.repartition(13), cap=10).to_pandas()
    key = ["source", "doc_id"]
    assert got.sort_values(key).reset_index(drop=True).equals(
        got2.sort_values(key).reset_index(drop=True)
    )  # partition-layout independent
    df = ds.to_pandas()
    df["h"] = [
        int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
        for i in df["doc_id"]
    ]
    want = (
        df.sort_values(["h", "doc_id"]).groupby("source").head(10)
        [["doc_id", "source"]].sort_values(key).reset_index(drop=True)
    )
    assert got.sort_values(key).reset_index(drop=True).equals(want)
    assert (got.groupby("source").size() <= 10).all()


def test_dup_ngram_stats_exact(ray_session):
    """dup_ngram_stats matches a direct per-doc ground truth (distinct
    n-grams with cross-doc df >= 2), including short docs (0/0/0),
    empty text, exact-duplicate docs (dup_ppm == 1e6), and partition
    invariance (P=4 == P=32)."""
    import ray.data
    from textindex_ray.functions.dedup import dup_ngram_stats
    from textindex_ray.functions.textstats import _tokens

    n = 3
    rng = np.random.default_rng(7)
    words = ["red", "blue", "green", "shard", "batch", "merge"]
    rows = []
    for i in range(60):
        ln = int(rng.integers(0, 10))
        rows.append({"doc_id": i, "text": " ".join(rng.choice(words, ln))})
    rows.append({"doc_id": 900, "text": ""})             # zero tokens
    rows.append({"doc_id": 901, "text": "red blue"})     # < n tokens
    dup_text = "one two three four five six"
    rows.append({"doc_id": 902, "text": dup_text})       # exact duplicates
    rows.append({"doc_id": 903, "text": dup_text})

    def grams(text):
        t = _tokens(text)
        return {" ".join(t[i : i + n]) for i in range(len(t) - n + 1)}

    df_count: dict = {}
    for r in rows:
        for g in grams(r["text"]):
            df_count[g] = df_count.get(g, 0) + 1

    ds = ray.data.from_items(rows)
    a = (
        dup_ngram_stats(ds, n=n, num_partitions=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    ds2 = ray.data.from_items(rows)
    b = (
        dup_ngram_stats(ds2, n=n, num_partitions=32)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert a.equals(b), "partition count changed the result"

    got = dict(zip(a.doc_id, zip(a.n_dup, a.n_total, a.dup_ppm)))
    assert len(got) == len(rows)
    for r in rows:
        gs = grams(r["text"])
        d = sum(1 for g in gs if df_count[g] >= 2)
        t = len(gs)
        assert got[r["doc_id"]] == (d, t, (d * 1_000_000) // t if t else 0), r
    assert got[902] == got[903]
    assert got[902][2] == 1_000_000          # exact dup pair: 100% duplicated
    assert got[900] == (0, 0, 0) and got[901] == (0, 0, 0)


def test_pq_ann_recall_and_determinism(ray_session):
    """PQ pipeline (train -> encode -> ADC search): deterministic
    codebooks/results, self-retrieval, and recall@10 vs brute that
    rises with m (the compression/recall dial)."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray.data
    from textindex_ray.functions.similarity import (
        knn_brute, knn_pq, pq_encode, pq_train)

    sf = "/root/testdata/sf0.01"
    ds = ray.data.read_parquet(sf + "/embeddings.parquet")
    t = pq.read_table(sf + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    q = np.array(t.column("embedding").to_pylist()[:5], np.float64)
    qids = [0, 1, 2, 3, 4]
    exact = knn_brute(ds, q, qids, k=10).to_pandas()

    def recall(m, n_iter):
        cb = pq_train(ds, m=m, ksub=16, n_iter=n_iter)
        assert cb.shape == (m, 16, 64 // m)
        codes = pq_encode(ds, cb).materialize()
        assert codes.count() == 500
        got = knn_pq(codes, cb, q, qids, k=10).to_pandas()
        assert len(got) == 50
        recs, selfs = [], []
        for qi in qids:
            a = got[got.query_id == qi]
            e = set(exact[exact.query_id == qi].vec_id)
            recs.append(len(set(a.vec_id) & e) / 10)
            selfs.append(qi in set(a.vec_id.iloc[:3]))
        return cb, got, sum(recs) / len(recs), all(selfs)

    cb16, got16, rec16, self16 = recall(16, 8)
    assert self16, "query vector itself must rank in its own top-3"
    assert rec16 >= 0.4, rec16

    # determinism: retrain + research give identical bits/rows
    cb16b, got16b, _, _ = recall(16, 8)
    assert np.array_equal(cb16, cb16b)
    assert got16.equals(got16b)

    # the dial: coarser quantization (fewer subspaces) may not beat finer
    _, _, rec8, _ = recall(8, 8)
    assert rec8 <= rec16 + 0.2  # sanity envelope, not a tight bound

    # dataset-form reduce matches the table-form reduce
    cb = cb16
    codes = pq_encode(ds, cb).materialize()
    d = knn_pq(codes, cb, q, qids, k=10, as_dataset=True).to_pandas()
    assert d.reset_index(drop=True).equals(got16.reset_index(drop=True))


def test_ivf_pq_composition(ray_session):
    """IVFADC: pq_encode with a coarse quantizer adds the cell column;
    knn_pq with nprobe == n_cells is bit-identical to the full PQ scan,
    and pruned probes keep the self-hit."""
    import numpy as np
    import pyarrow.parquet as pq

    import ray.data
    from textindex_ray.functions.similarity import (
        kmeans_fit, knn_pq, pq_encode, pq_train)

    sf = "/root/testdata/sf0.01"
    ds = ray.data.read_parquet(sf + "/embeddings.parquet")
    cb = pq_train(ds, m=16, ksub=16, n_iter=5)
    cents = kmeans_fit(ds, k=8, n_iter=4)
    codes = pq_encode(ds, cb, centroids=cents).materialize()
    assert "cell" in codes.schema().names

    t = pq.read_table(sf + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    q = np.array(t.column("embedding").to_pylist()[:4], np.float64)
    qids = [0, 1, 2, 3]

    full = knn_pq(codes, cb, q, qids, k=10).to_pandas()
    degen = knn_pq(codes, cb, q, qids, k=10,
                   centroids=cents, nprobe=8).to_pandas()
    assert degen.reset_index(drop=True).equals(full.reset_index(drop=True))

    pruned = knn_pq(codes, cb, q, qids, k=10,
                    centroids=cents, nprobe=2).to_pandas()
    for qi in qids:
        rows = pruned[pruned.query_id == qi]
        assert 0 < len(rows) <= 10
        assert qi in set(rows.vec_id.iloc[:3]), qi


def test_semantic_dedup(ray_session):
    """SemDeDup: planted within-cluster near-dups are dropped keep-first;
    every input vector gets a row; partition layout doesn't matter."""
    import numpy as np

    import ray.data
    from textindex_ray.functions.similarity import kmeans_fit, semantic_dedup

    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 16))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(40)]
    # exact duplicates of vectors 5 and 7 (cos == 1 -> same cluster)
    rows.append({"vec_id": 100, "embedding": base[5].tolist()})
    rows.append({"vec_id": 101, "embedding": (base[7] * 2.0).tolist()})  # scaled
    ds = ray.data.from_items(rows)
    cents = kmeans_fit(ds, k=4, n_iter=4)

    out = (
        semantic_dedup(ds, cents, threshold_ppm=999_000)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    assert len(out) == len(rows)
    keep = dict(zip(out.vec_id, out.keep))
    assert keep[5] and not keep[100]     # keep-first: lower vec_id wins
    assert keep[7] and not keep[101]     # scale-invariant (cosine)
    assert sum(1 for v in keep.values() if not v) == 2  # nothing else dropped

    out2 = (
        semantic_dedup(ds.repartition(7), cents, threshold_ppm=999_000)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    assert out.equals(out2)


def test_ivfpq_persisted_layout(ray_session, tmp_path):
    """Persisted IVFADC: hive cell=K code layout; full probe over codes
    == in-memory knn_pq; pruned probe reads a strict file subset and
    keeps the self-hit."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    import ray.data
    from textindex_ray.functions.similarity import (
        ivf_probed_dataset, ivfpq_build, kmeans_fit, knn_ivfpq_persisted,
        knn_pq, pq_encode, pq_train)

    sf = "/root/testdata/sf0.01"
    ds = ray.data.read_parquet(sf + "/embeddings.parquet")
    cb = pq_train(ds, m=16, ksub=16, n_iter=5)
    cents = kmeans_fit(ds, k=8, n_iter=4)
    out = str(tmp_path / "ivfpq")
    meta = ivfpq_build(ds, cents, cb, out)
    assert meta == {"n_cells": 8, "m": 16, "ksub": 16, "dsub": 4}
    assert os.path.isdir(os.path.join(out, "cells"))

    t = pq.read_table(sf + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    q = np.array(t.column("embedding").to_pylist()[:4], np.float64)
    qids = [0, 1, 2, 3]

    # full probe == the in-memory IVFADC path (bit-identical rows)
    codes = pq_encode(ds, cb, centroids=cents).materialize()
    mem = knn_pq(codes, cb, q, qids, k=10, centroids=cents,
                 nprobe=8).to_pandas()
    per = knn_ivfpq_persisted(out, q, qids, k=10, nprobe=8).to_pandas()
    assert per.reset_index(drop=True).equals(mem.reset_index(drop=True))

    # pruned probe: strict IO subset + self-hit survives
    pruned = knn_ivfpq_persisted(out, q, qids, k=10, nprobe=2).to_pandas()
    for qi in qids:
        assert qi in set(pruned[pruned.query_id == qi].vec_id.iloc[:3])
    all_files = set(ivf_probed_dataset(out, np.arange(8)).input_files())
    import numpy as _np
    cn = np.array(
        pq.read_table(os.path.join(out, "centroids.parquet"))
        .column("centroid").to_pylist())
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    probes = np.argsort(-(qn @ cn.T), axis=1)[:, :2]
    probe_files = set(ivf_probed_dataset(out, probes).input_files())
    assert probe_files < all_files


def test_mixture_sample(ray_session):
    """Domain-mixture selection: per-source greedy token fill in md5-rank
    order — bucket count doesn't change the result (the boundary
    refinement is exact); unknown sources get budget 0; budgets bind."""
    import ray.data
    from textindex_ray.functions.textstats import _tokens, mixture_sample

    sf = "/root/testdata/sf0.001"
    docs = ray.data.read_parquet(sf + "/documents.parquet")
    weights = {("src%d" % i): 50_000 for i in range(0, 20, 2)}  # evens only
    a = (
        mixture_sample(docs, weights, 8_000, num_buckets=4)
        .to_pandas().sort_values(["source", "doc_id"]).reset_index(drop=True)
    )
    b = (
        mixture_sample(docs, weights, 8_000, num_buckets=64)
        .to_pandas().sort_values(["source", "doc_id"]).reset_index(drop=True)
    )
    assert a.equals(b), "bucket count changed the selection"
    assert len(a) > 0
    # odd sources absent from weights -> dropped entirely
    assert all(int(s[3:]) % 2 == 0 for s in a.source.unique())

    # ground truth per kept source: md5-rank greedy fill
    import hashlib

    import pandas as pd

    full = docs.to_pandas()
    full["n_tokens"] = [len(_tokens(t)) for t in full.text]
    full["rk"] = [
        int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
        for i in full.doc_id
    ]
    budget = (50_000 * 8_000) // 1_000_000
    for s, grp in full.groupby("source"):
        want: list = []
        if s in weights:
            cum = 0
            for _, row in grp.sort_values(["rk", "doc_id"]).iterrows():
                if cum < budget:
                    want.append(row.doc_id)
                cum += row.n_tokens
        got = a[a.source == s].doc_id.tolist()
        assert got == sorted(want), s


def test_blocklist_filter_forms(ray_session):
    """keep_hits=False returns exactly the keep==1 docs of the full form;
    empty blocklist keeps everything."""
    import ray.data
    from textindex_ray.functions.textstats import blocklist_filter

    sf = "/root/testdata/sf0.001"
    docs = ray.data.read_parquet(sf + "/documents.parquet")
    full = blocklist_filter(docs, ["spark", "vector"]).to_pandas()
    clean = blocklist_filter(
        docs, ["spark", "vector"], keep_hits=False
    ).to_pandas()
    assert sorted(clean.doc_id) == sorted(full[full.keep == 1].doc_id)
    allkept = blocklist_filter(docs, []).to_pandas()
    assert int(allkept.keep.sum()) == len(allkept)


def test_paragraph_dedup_stats(ray_session):
    """C4-style line dedup: first (doc_id, line_idx) occurrence wins —
    across docs AND within a doc; empty-text docs have no lines (the
    string_split('') == [] SQL contract) and are absent; batch-size
    independence (the per-batch combiner is exact)."""
    import ray.data

    from textindex_ray.functions import dedup

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "alpha\nbeta\nalpha",      # within-doc repeat: kept 2 of 3
                    "beta\ngamma",             # beta lost to doc 1
                    "",                        # no lines -> absent
                    "gamma\n\ndelta",          # '' line is a line; gamma lost
                ],
                pa.string(),
            ),
        }
    )
    for bs in (1, 4):
        ds = ray.data.from_arrow(t).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=bs
        )
        got = (
            dedup.paragraph_dedup_stats(ds)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got.doc_id.tolist() == [1, 2, 4]
        assert got.n_lines.tolist() == [3, 2, 3]
        assert got.kept_lines.tolist() == [2, 1, 2]
        # kept chars: doc1 alpha+beta=9, doc2 gamma=5, doc4 ''+delta=5
        assert got.kept_chars.tolist() == [9, 5, 5]

    e = pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    r = dedup.paragraph_dedup_stats(ray.data.from_arrow(e))
    assert r.num_rows == 0
    assert r.column_names == ["doc_id", "n_lines", "kept_lines", "kept_chars"]


def test_pack_sequences(ray_session):
    """Distributed prefix sum: offsets follow doc_id order regardless of
    block layout; zero-token docs occupy no slots;sequence-spanning docs get
    seq_first < seq_last; empty corpus yields the contract schema."""
    import ray.data

    from textindex_ray.functions import textstats

    t = pa.table(
        {
            "doc_id": pa.array([4, 1, 3, 2], pa.int64()),  # unordered input
            "text": pa.array(
                ["e f g h i", "a b c", "", "d"], pa.string()
            ),
        }
    )
    for nr in (2, 64):
        got = (
            textstats.pack_sequences(
                ray.data.from_arrow(t).repartition(3), seq_len=4,
                num_ranges=nr,
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # doc 1: 3 toks @0; doc 2: 1 tok @3; doc 3: absent; doc 4: 5 toks @4
        assert got.doc_id.tolist() == [1, 2, 4]
        assert got.n_tokens.tolist() == [3, 1, 5]
        assert got.tok_offset.tolist() == [0, 3, 4]
        assert got.seq_first.tolist() == [0, 0, 1]
        assert got.seq_last.tolist() == [0, 0, 2]  # doc 4 spans seqs 1-2

    e = pa.table({"doc_id": pa.array([9], pa.int64()),
                  "text": pa.array([""], pa.string())})
    r = textstats.pack_sequences(ray.data.from_arrow(e))
    assert r.num_rows == 0
    assert r.column_names == [
        "doc_id", "n_tokens", "tok_offset", "seq_first", "seq_last"]


def test_paragraph_dedup_all_empty_texts(ray_session):
    """A corpus whose every doc has empty text must keep the contract
    schema (the all-empty-groups map_groups hazard — PAD-row guard)."""
    import ray.data

    from textindex_ray.functions import dedup

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["", ""], pa.string())})
    got = dedup.paragraph_dedup_stats(ray.data.from_arrow(t)).materialize()
    assert got.count() == 0
    # without the PAD rows the all-empty groupbys drop the schema
    assert got.schema().names == [
        "doc_id", "n_lines", "kept_lines", "kept_chars"]

    # negative ids can't encode into the hex occurrence key: loud error
    import pytest

    bad = pa.table({"doc_id": pa.array([-1], pa.int64()),
                    "text": pa.array(["x"], pa.string())})
    with pytest.raises(Exception, match="non-negative"):
        dedup.paragraph_dedup_stats(ray.data.from_arrow(bad)).materialize()


def test_pack_sequences_negative_doc_id(ray_session):
    import pytest
    import ray.data

    from textindex_ray.functions import textstats

    t = pa.table({"doc_id": pa.array([-1, 2], pa.int64()),
                  "text": pa.array(["a b", "c"], pa.string())})
    with pytest.raises(Exception, match="non-negative"):
        textstats.pack_sequences(ray.data.from_arrow(t)).materialize()


def test_gopher_rules(ray_session):
    """Composite Gopher gate: each rule trips its own fail bit; a doc
    passing every rule has keep=1/fail_bits=0."""
    import ray.data

    from textindex_ray.functions import textstats

    good = "the fast key order sort tables merge part window small hash"
    docs = [
        good,                                   # passes all
        "the and one",                          # bit 0: too few tokens
        "a aa ab ac ad ae af ag ah ai",         # bit 1: word len too low
        "zebra yonder quartz jumble wobble xylem kelp vortex nymph glyph",  # bit 2: no stopwords
        good + " !!!???!!!???!!!???",           # bit 3: punct ratio
        "\n".join([good] * 5),                  # bit 4: duplicate lines
        ("the cat " * 10).strip(),              # bit 5: top bigram
    ]
    t = pa.table(
        {"doc_id": pa.array(list(range(len(docs))), pa.int64()),
         "text": pa.array(docs, pa.string())}
    )
    fn = textstats.gopher_rules(
        min_tokens=8, max_tokens=100, min_wlen_ppm=3_000_000,
        max_wlen_ppm=8_000_000, min_stop_ppm=50_000, max_punct_ppm=100_000,
        max_dup_line_ppm=300_000, max_top_bigram_ppm=300_000,
    )
    got = (
        ray.data.from_arrow(t).map_batches(fn, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got.keep.tolist()[0] == 1 and got.fail_bits[0] == 0
    for i, bit in [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16), (6, 32)]:
        assert got.fail_bits[i] & bit, (i, bit, got.fail_bits[i])
        assert got.keep[i] == 0


def test_paragraph_dedup_keep(ray_session):
    """The applied C4 transform matches a naive single-process oracle:
    first (doc_id, line_idx) occurrence survives, later ones are cut,
    every doc comes back (possibly with text='')."""
    import ray.data

    from textindex_ray.functions import dedup

    docs = [
        (1, "alpha\nbeta\nalpha"),
        (2, "beta\ngamma"),
        (3, ""),                    # no lines: back with ''
        (4, "alpha\nbeta"),         # every line loses: back with ''
        (5, "gamma\n\ndelta"),
        (6, "\ndelta"),             # '' line lost to doc 5's
    ]

    # naive oracle
    seen: set[str] = set()
    want = {}
    for d, t in docs:
        kept = []
        for ln in (t.split("\n") if t else []):
            if ln not in seen:
                seen.add(ln)
                kept.append(ln)
        want[d] = "\n".join(kept)

    t = pa.table(
        {"doc_id": pa.array([d for d, _ in docs], pa.int64()),
         "text": pa.array([x for _, x in docs], pa.string())}
    )
    for bs in (2, 6):
        ds = ray.data.from_arrow(t).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=bs
        )
        got = (
            dedup.paragraph_dedup_keep(ds, num_partitions=4)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert dict(zip(got.doc_id, got.text)) == want, bs

    # consistency with the graded stats op: kept char counts agree
    stats = (
        dedup.paragraph_dedup_stats(
            ray.data.from_arrow(t), num_partitions=4
        ).to_pandas().set_index("doc_id")
    )
    for d, txt in want.items():
        if d in stats.index:
            kept_lines = stats.loc[d, "kept_lines"]
            assert len([x for x in txt.split("\n") if True]) >= 0
            assert stats.loc[d, "kept_chars"] == sum(
                len(x) for x in (txt.split("\n") if txt or kept_lines else []))


def test_lm_perplexity(ray_session):
    """Ground truth vs an inline naive bigram LM (same integer count
    rules + math.log + pairwise np.sum), partition invariance, and the
    vocab/unk split at a threshold that keeps only 'the' in-vocab."""
    import math
    from collections import Counter

    import ray.data

    from textindex_ray.functions.textstats import lm_perplexity

    texts = [
        "the cat sat on the mat",
        "the cat sat",
        "zz qqq xy",
        "a",
        "",
        "the the the the",
    ]
    ids = list(range(len(texts)))
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
    )

    def naive(vocab_min_ppm):
        import re

        word_re = re.compile(r"[^\W\d_]+")
        toks_all = [word_re.findall(t.lower()) for t in texts]
        cf = Counter()
        total = 0
        for toks in toks_all:
            cf.update(toks)
            total += len(toks)
        vocab = sorted(
            w for w, c in cf.items() if c * 1_000_000 >= total * vocab_min_ppm
        )
        V = len(vocab)
        vid = {w: i for i, w in enumerate(vocab)}
        bg, c1 = Counter(), Counter()
        for toks in toks_all:
            m = [vid.get(w, V) for w in toks]
            for a, b in zip(m, m[1:]):
                bg[(a, b)] += 1
                c1[a] += 1
        out = {}
        for d, toks in zip(ids, toks_all):
            n = len(toks)
            if n < 2:
                out[d] = (n, 0)
                continue
            m = [vid.get(w, V) for w in toks]
            vals = np.empty(n - 1, dtype=np.float64)
            for i, (a, b) in enumerate(zip(m, m[1:])):
                vals[i] = math.log(bg.get((a, b), 0) + 1) - math.log(
                    c1.get(a, 0) + V + 1
                )
            out[d] = (n, int(math.floor(-vals.sum() / (n - 1) * 1e6)))
        return out

    for ppm in (50_000, 200_000):  # all-in-vocab vs only-'the'-in-vocab
        want = naive(ppm)
        for parts in (1, 4):
            ds = ray.data.from_arrow(tbl).repartition(parts)
            got = (
                lm_perplexity(ds, vocab_min_ppm=ppm, num_partitions=4)
                .to_pandas()
                .sort_values("doc_id")
            )
            have = {
                int(r.doc_id): (int(r.n_tokens), int(r.xent_unat))
                for r in got.itertuples()
            }
            assert have == want, (ppm, parts)

    # fluent repetition scores lower xent than the gibberish doc
    want = naive(50_000)
    assert want[5][1] < want[2][1]

    # all-short-docs corpus: empty bigram table path, schema preserved
    short = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": pa.array(["a", ""])}
    )
    got = lm_perplexity(
        ray.data.from_arrow(short), vocab_min_ppm=50_000
    ).to_pandas()
    assert list(got.sort_values("doc_id").xent_unat) == [0, 0]

    # empty input: schema-preserving degenerate result
    empty = lm_perplexity(ray.data.from_arrow(tbl.slice(0, 0)))
    cols = (
        empty.to_pandas().columns
        if hasattr(empty, "to_pandas")
        else empty.column_names
    )
    assert set(cols) == {"doc_id", "n_tokens", "xent_unat"}


def test_lm_train_score_cross_corpus(ray_session):
    """The CCNet shape: a model trained on a reference slice scores a
    different corpus; matches the naive cross computation."""
    import math
    from collections import Counter

    import ray.data

    from textindex_ray.functions.textstats import lm_score, lm_train

    ref_texts = ["the cat sat on the mat", "the dog sat on the rug the end"]
    tgt_texts = ["the cat sat", "qq zz xx", "the"]

    ref = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": pa.array(ref_texts)}
    )
    tgt = pa.table(
        {"doc_id": pa.array([10, 11, 12], pa.int64()),
         "text": pa.array(tgt_texts)}
    )
    model = lm_train(ray.data.from_arrow(ref), vocab_min_ppm=100_000)
    got = (
        lm_score(ray.data.from_arrow(tgt).repartition(2), model)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    # naive cross twin
    import re

    word_re = re.compile(r"[^\W\d_]+")
    ref_toks = [word_re.findall(t.lower()) for t in ref_texts]
    cf = Counter()
    total = 0
    for toks in ref_toks:
        cf.update(toks)
        total += len(toks)
    vocab = sorted(w for w, c in cf.items() if c * 1_000_000 >= total * 100_000)
    assert vocab == model["vocab"]
    V = len(vocab)
    vid = {w: i for i, w in enumerate(vocab)}
    bg, c1 = Counter(), Counter()
    for toks in ref_toks:
        m = [vid.get(w, V) for w in toks]
        for a, b in zip(m, m[1:]):
            bg[(a, b)] += 1
            c1[a] += 1
    for row, (did, txt) in zip(got.itertuples(), [(10, tgt_texts[0]),
                                                  (11, tgt_texts[1]),
                                                  (12, tgt_texts[2])]):
        toks = word_re.findall(txt.lower())
        n = len(toks)
        assert int(row.doc_id) == did and int(row.n_tokens) == n
        if n < 2:
            assert int(row.xent_unat) == 0
            continue
        m = [vid.get(w, V) for w in toks]
        vals = np.empty(n - 1, dtype=np.float64)
        for i, (a, b) in enumerate(zip(m, m[1:])):
            vals[i] = math.log(bg.get((a, b), 0) + 1) - math.log(
                c1.get(a, 0) + V + 1
            )
        assert int(row.xent_unat) == int(
            math.floor(-vals.sum() / (n - 1) * 1e6)
        )


def test_dup_ngram_remove(ray_session):
    """Applied exact-substring dedup matches a naive single-process
    oracle (global first occurrence wins, covered slots removed) at
    n=3, across partitionings; short/empty docs come back whole."""
    import re
    import ray.data

    from textindex_ray.functions import dedup

    docs = [
        (1, "a b c d e a b c d e x"),   # internal dup: tail removed
        (2, "a b c d e f g"),           # loses its prefix to doc 1
        (3, "zz"),                      # < n tokens: kept whole
        (4, ""),                        # empty
        (5, "c d e a b"),               # "c d e" at (5,1) loses to (1,3)
    ]
    word_re = re.compile(r"[^\W\d_]+")
    N = 3

    # naive oracle
    occ: dict = {}
    toks_of = {d: word_re.findall(t.lower()) for d, t in docs}
    for d in sorted(toks_of):
        toks = toks_of[d]
        for i in range(len(toks) - N + 1):
            occ.setdefault(" ".join(toks[i:i + N]), []).append((d, i))
    want = {}
    removed_of = {d: set() for d, _ in docs}
    for g, lst in occ.items():
        for d, i in sorted(lst)[1:]:
            removed_of[d].update(range(i, i + N))
    for d, _ in docs:
        toks = toks_of[d]
        rm = {i for i in removed_of[d] if i < len(toks)}
        want[d] = (
            len(toks), len(rm),
            " ".join(t for i, t in enumerate(toks) if i not in rm),
        )

    t = pa.table(
        {"doc_id": pa.array([d for d, _ in docs], pa.int64()),
         "text": pa.array([x for _, x in docs], pa.string())}
    )
    for parts in (1, 3):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = (
            dedup.dup_ngram_remove(ds, n=N, num_partitions=4,
                                   join_partitions=4)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        have = {
            int(r.doc_id): (int(r.n_tokens), int(r.n_removed), r.kept_text)
            for r in got.itertuples()
        }
        assert have == want, parts

    # hand-checked values for the canonical example
    assert want[1] == (11, 5, "a b c d e x")
    assert want[2] == (7, 5, "f g")
    assert want[3] == (1, 0, "zz")
    assert want[4] == (0, 0, "")


def test_centroid_outlier(ray_session):
    """Corpus-centroid cosine score: naive ground truth, partition
    invariance, self-similarity ordering, zero-vector guard."""
    import math

    import ray.data

    from textindex_ray.functions.textstats import centroid_outlier
    from textindex_ray.stages.embed import token_projection

    texts = [
        "the cat sat on the mat",
        "the dog sat on the mat",
        "qq zz xx vv ww yy",     # off-distribution
        "",                       # zero vector
    ]
    ids = list(range(len(texts)))
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
    )

    import re

    word_re = re.compile(r"[^\W\d_]+")
    D = 16

    def vec(t):
        v = np.zeros(D, np.int64)
        for w in word_re.findall(t.lower()):
            dim, sign = token_projection(w, D)
            v[dim] += sign
        return v

    vs = [vec(t) for t in texts]
    S = np.sum(vs, axis=0)
    n2s = int((S * S).sum())
    want = {}
    for i, v in zip(ids, vs):
        n2v = int((v * v).sum())
        if n2v == 0 or n2s == 0:
            want[i] = 0
        else:
            want[i] = int(math.floor(
                float(int((v * S).sum())) * 1e6
                / math.sqrt(float(n2v) * float(n2s))
            ))

    for parts in (1, 3):
        got = (
            centroid_outlier(ray.data.from_arrow(tbl).repartition(parts))
            .to_pandas().sort_values("doc_id")
        )
        assert {int(r.doc_id): int(r.cos_ppm)
                for r in got.itertuples()} == want, parts

    # in-distribution docs score above the off-distribution one
    assert min(want[0], want[1]) > want[2]
    assert want[3] == 0


def test_centroid_outlier_exact_bounds():
    """Past 2^53 per squared norm or 2^63 for their product the DuckDB
    twin and the float step can diverge: the check raises there, on
    Python ints (numpy int64 sums would wrap silently)."""
    from textindex_ray.functions.textstats import _check_cosine_bounds

    top = 2**53 - 1
    _check_cosine_bounds(top, 1)
    _check_cosine_bounds(1, top)
    _check_cosine_bounds(2**31, 2**31)
    _check_cosine_bounds(2**10, 2**52)  # product 2^62
    for n2v, n2_s in ((2**53, 1), (1, 2**53), (2**32, 2**31), (2**11, 2**52)):
        with pytest.raises(ValueError, match="exact bounds"):
            _check_cosine_bounds(n2v, n2_s)
