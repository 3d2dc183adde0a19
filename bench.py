"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "index_build_sec", "value": <headline sec>, "unit": "sec",
   "queries": {...per-section min-of-N sec...}, "reps": {...all reps...},
   "sf": ..., "num_cpus": N, "docs": N, "docs_per_sec": N}

Every timed section runs GRAFT_BENCH_REPS times (default 3) with a warm
pool/page cache and the MIN is published: this VM sees external
host-steal episodes (CLAUDE.md) that uniformly inflate wall-clock; the
min over reps is the steady-state number the engine actually delivers.
All reps are emitted under "reps" so a contended run is visible.

--scaling: runs the same bench in two fresh processes (num_cpus=8 and
num_cpus=32) on the same input and reports both throughputs plus the
scaling efficiency (the sandbox evidence for the north rule's N->4N
cluster-size criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DOCS = {"0.001": 500, "0.01": 5000, "0.1": 50000}


def sf_of(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return base[2:] if base.startswith("sf") else "0.1"


def _timed(fn, reps: int) -> list[float]:
    vals = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        vals.append(round(time.perf_counter() - t0, 3))
    return vals


def _write_skewed_corpus(
    cdir: str, n: int, rows_per_file: int = 16384, rare_every: int = 10000
) -> None:
    """Deterministic skewed-idf corpus (test_determinism.py fixture shape):
    every doc repeats a handful of ubiquitous terms; 1/rare_every docs
    carry the rare term — the high-idf-contrast case where block-max WAND
    prunes. rare_every must be >> chunk_size: a window (chunk-granular)
    containing ANY rare posting has an upper bound above the top-k
    threshold and must be scored, so pruning only fires on the
    rare-term-free windows between occurrences."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(cdir, exist_ok=True)
    fi = 0
    for start in range(0, n, rows_per_file):
        stop = min(start + rows_per_file, n)
        texts = []
        for i in range(start, stop):
            t = "common filler words everywhere always " * 3
            if i % rare_every == 0:
                t += " raregem"
            if i % 4 == 0:
                t += " oftenish" * (1 + i % 3)
            texts.append(t.encode())
        pq.write_table(
            pa.table(
                {
                    "url": pa.array(["u://%08d" % i for i in range(start, stop)]),
                    "html": pa.array(texts, pa.binary()),
                }
            ),
            os.path.join(cdir, "skew-%05d.parquet" % fi),
        )
        fi += 1


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf = sf_of(sf_dir)
    n_docs = int(os.environ.get("GRAFT_BENCH_DOCS", SF_DOCS.get(sf, 50000)))
    build_only = os.environ.get("GRAFT_BENCH_BUILD_ONLY") == "1"
    reps = max(1, int(os.environ.get("GRAFT_BENCH_REPS", "3")))

    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from textindex_ray.corpus import write_corpus
    from textindex_ray.index.build import build_index
    from textindex_ray.query.engine import IndexReader

    queries: dict[str, float] = {}
    all_reps: dict[str, list[float]] = {}

    # corpus generation is setup, not benchmarked; cached across runs
    corpus_dir = "/tmp/ti_bench/corpus-sf%s-%d-v2" % (sf, n_docs)
    if not os.path.exists(os.path.join(corpus_dir, "corpus-00000.parquet")):
        os.makedirs(corpus_dir, exist_ok=True)
        write_corpus(corpus_dir, n_docs, rows_per_file=2048, body_scale=8)
    # warm the page cache so we measure compute+shuffle, not first disk read
    import pyarrow.parquet as pq

    for f in os.listdir(corpus_dir):
        pq.read_table(os.path.join(corpus_dir, f))

    # warm the Ray worker pool (untimed): the first tasks fork and import
    # in fresh worker processes; at 10^12-doc scale this amortizes to
    # nothing, so the bench measures steady state
    import ray.data

    from textindex_ray.stages.extract import extract_tokenize

    first = sorted(os.listdir(corpus_dir))[0]
    ray.data.read_parquet(
        os.path.join(corpus_dir, first), columns=["url", "html"]
    ).map_batches(
        extract_tokenize,
        fn_kwargs={"num_buckets": 64},
        batch_format="pyarrow",
        batch_size=128,
    ).count()

    # ---- headline: full index build (tokenize -> ids -> sort -> encode) ----
    out_dir = "/tmp/ti_bench/idx-sf%s-%d-cpus%d" % (sf, n_docs, num_cpus)
    build_secs = []
    meta = None
    for _ in range(reps):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        meta = build_index(
            corpus_dir,
            out_dir,
            num_buckets=64,
            batch_size=1024,
            resume=False,
        )
        build_secs.append(round(time.perf_counter() - t0, 3))
    build_sec = min(build_secs)
    queries["index_build"] = build_sec
    all_reps["index_build"] = build_secs

    if build_only:
        print(json.dumps({
            "metric": "index_build_sec", "value": build_sec,
            "unit": "sec", "queries": queries, "reps": all_reps, "sf": sf,
            "num_cpus": num_cpus, "docs": int(meta["n_docs"]),
            "docs_per_sec": round(meta["n_docs"] / build_sec, 1),
        }))
        ray.shutdown()
        return

    # ---- query latency: boolean + BM25 brute + WAND over the built index --
    reader = IndexReader(out_dir)
    qset = [
        ["alpha"], ["alpha", "beta"], ["gamma", "delta", "epsilon"],
        ["lorem", "ipsum"], ["alph*", "bet?"], ["zebra", "sphinx", "quartz"],
        ["haus", "baum", "wald"], ["maison", "arbre"],
    ]
    bm25_qset = [
        [t for t in q if "*" not in t and "?" not in t] or ["alpha"] for q in qset
    ]

    def run_find():
        for q in qset:
            reader.find(q)

    def run_brute():
        for q in bm25_qset:
            reader.bm25_topk(q, 10)

    def run_wand():
        for q in bm25_qset:
            reader.bm25_topk_wand(q, 10)

    def run_auto():
        for q in bm25_qset:
            reader.bm25_topk_auto(q, 10)

    for name, fn in (
        ("boolean_find", run_find), ("bm25_brute", run_brute),
        ("bm25_wand", run_wand), ("bm25_auto", run_auto),
    ):
        all_reps[name] = _timed(fn, reps)
        queries[name] = min(all_reps[name])

    # ---- skewed-idf BM25: the case where block-max pruning fires ----------
    # (the uniform synthetic vocab above is WAND's theoretical worst case —
    # no chunk can be skipped; this line tracks the pruning win and catches
    # pruning regressions). Corpus + index cached across runs, keyed by the
    # code tag so codec changes rebuild.
    from textindex_ray.pipelines.documents import _code_tag

    n_skew = int(os.environ.get("GRAFT_BENCH_SKEW_DOCS", "500000"))
    skew_corpus = "/tmp/ti_bench/skew-corpus-%d" % n_skew
    if not os.path.exists(os.path.join(skew_corpus, "skew-00000.parquet")):
        _write_skewed_corpus(skew_corpus, n_skew)
    skew_idx = "/tmp/ti_bench/skew-idx-%d-%s" % (n_skew, _code_tag())
    if not os.path.exists(os.path.join(skew_idx, "meta.json")):
        shutil.rmtree(skew_idx, ignore_errors=True)
        build_index(skew_corpus, skew_idx, num_buckets=64, batch_size=1024,
                    resume=False)
    sreader = IndexReader(skew_idx)
    skew_q = ["raregem", "common"]
    ids_b, sc_b = sreader.bm25_topk(skew_q, 10)
    ids_w, sc_w = sreader.bm25_topk_wand(skew_q, 10)
    assert ids_b.tolist() == ids_w.tolist(), "WAND != brute on skewed corpus"

    all_reps["bm25_brute_skewed"] = _timed(lambda: sreader.bm25_topk(skew_q, 10), reps)
    queries["bm25_brute_skewed"] = min(all_reps["bm25_brute_skewed"])
    all_reps["bm25_wand_skewed"] = _timed(
        lambda: sreader.bm25_topk_wand(skew_q, 10), reps
    )
    queries["bm25_wand_skewed"] = min(all_reps["bm25_wand_skewed"])
    # adaptive scorer: must track the better path on each query set
    # (uniform vocab -> brute, skewed idf -> WAND)
    all_reps["bm25_auto_skewed"] = _timed(
        lambda: sreader.bm25_topk_auto(skew_q, 10), reps
    )
    queries["bm25_auto_skewed"] = min(all_reps["bm25_auto_skewed"])

    # ---- segmented incremental update (round-5 lifecycle) ------------------
    # one 1k-doc delta appended to a COPY of the headline index — must
    # cost O(delta) (anti-join scan + delta build), never re-encode the
    # base (index/segments.py; compact_ratio high so no compaction)
    from textindex_ray.index.merge import update_index

    delta_corpus = "/tmp/ti_bench/delta-corpus-1k"
    if not os.path.exists(os.path.join(delta_corpus, "corpus-00000.parquet")):
        os.makedirs(delta_corpus, exist_ok=True)
        write_corpus(delta_corpus, 1000, rows_per_file=1024, seed=777)
        import pyarrow as _pa

        for f in os.listdir(delta_corpus):
            p = os.path.join(delta_corpus, f)
            t2 = pq.read_table(p)
            t2 = t2.set_column(
                t2.column_names.index("url"), "url",
                _pa.array(["delta/" + u for u in t2.column("url").to_pylist()]),
            )
            pq.write_table(t2, p)

    def seg_update():
        seg_idx = "/tmp/ti_bench/seg-upd"
        shutil.rmtree(seg_idx, ignore_errors=True)
        shutil.copytree(out_dir, seg_idx)
        update_index(delta_corpus, seg_idx, num_buckets=64, compact_ratio=10.0)

    all_reps["segment_update"] = _timed(seg_update, reps)
    queries["segment_update"] = min(all_reps["segment_update"])

    # ---- documents-table ops (dedup + knn + textstats) --------------------
    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    from textindex_ray.functions.dedup import exact_dedup_groups, simhash64_batch
    from textindex_ray.functions.textstats import heavy_terms, quality_batch

    from textindex_ray.functions.events import sliding_window_stats

    ev = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))

    import numpy as np
    import pyarrow.parquet as pq2

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq2.read_table(emb_path, columns=["vec_id", "embedding"])
    qm = np.array(t.column("embedding").to_pylist()[:5], dtype=np.float64)
    from textindex_ray.functions.similarity import knn_brute

    def emb_full():
        return ray.data.read_parquet(emb_path)

    from textindex_ray.functions.dedup import (
        dup_ngram_remove,
        dup_ngram_stats,
        paragraph_dedup_stats,
    )
    from textindex_ray.functions.similarity import knn_graph_lsh
    from textindex_ray.functions.textstats import (
        gopher_rules,
        lm_perplexity,
        pack_sequences,
    )
    from textindex_ray.pipelines.curate import curate

    sections = (
        ("exact_dedup", lambda: exact_dedup_groups(docs).count()),
        ("dup_ngram", lambda: dup_ngram_stats(docs, n=8).count()),
        ("dup_ngram_remove", lambda: dup_ngram_remove(docs, n=8).count()),
        ("paragraph_dedup", lambda: paragraph_dedup_stats(docs).count()),
        ("pack_sequences", lambda: pack_sequences(docs).count()),
        ("lm_perplexity", lambda: lm_perplexity(docs).count()),
        ("gopher_rules", lambda: docs.map_batches(
            gopher_rules(), batch_format="pyarrow").count()),
        ("curate", lambda: curate(docs).count()),
        # planes_per_band sized to the corpus (bucket ~ n / 2^r; see
        # knn_graph_lsh docstring) — r=6 puts ~30 vecs/bucket at sf0.1
        ("knn_graph", lambda: knn_graph_lsh(
            emb_full(), k=5, num_bands=8, planes_per_band=6).count()),
        ("simhash", lambda: docs.map_batches(
            simhash64_batch, batch_format="pyarrow").count()),
        ("quality", lambda: docs.map_batches(
            quality_batch, batch_format="pyarrow").count()),
        ("heavy_terms", lambda: heavy_terms(docs, min_ppm=5_000)),
        ("events_sliding", lambda: sliding_window_stats(ev).count()),
        ("knn_brute", lambda: knn_brute(
            ray.data.read_parquet(emb_path), qm, list(range(5)), k=10)),
    )
    for name, fn in sections:
        all_reps[name] = _timed(fn, reps)
        queries[name] = min(all_reps[name])

    result = {
        "metric": "index_build_sec",
        "value": build_sec,
        "unit": "sec",
        "queries": queries,
        "reps": all_reps,
        "sf": sf,
        "num_cpus": num_cpus,
        "docs": int(meta["n_docs"]),
        "docs_per_sec": round(meta["n_docs"] / build_sec, 1),
    }
    ray.shutdown()
    print(json.dumps(result))


def scaling() -> None:
    """8 vs 32 CPUs on the same (larger, compute-dominated) corpus.

    The scaling corpus is bigger than the headline bench corpus so that
    per-phase fixed costs (worker spin-up, shuffle barriers — a few
    seconds regardless of data size) do not dominate the 32-CPU run;
    this mirrors a real cluster where each node holds a large data
    share. Build-only child runs, fresh ray.init each.
    """
    lo = int(os.environ.get("GRAFT_SCALING_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALING_HI", "16"))
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "2"))
    runs = {}
    docs = int(os.environ.get("GRAFT_SCALING_DOCS", "1600000"))
    for ncpu in (lo, hi):
        # best-of-reps: this VM sees host steal noise that hits the short
        # high-CPU leg disproportionately
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_DOCS=str(docs), GRAFT_BENCH_BUILD_ONLY="1",
                   GRAFT_BENCH_REPS=os.environ.get("GRAFT_BENCH_REPS", "1"))
        best = None
        for _ in range(reps):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env, capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout
            r = json.loads(out.strip().splitlines()[-1])
            if best is None or r["value"] < best["value"]:
                best = r
        runs[ncpu] = best
    tp_lo = runs[lo]["docs_per_sec"]
    tp_hi = runs[hi]["docs_per_sec"]
    eff = (tp_hi / tp_lo) / (hi / lo)

    # ---- serving at scale: the doc-sharded batch evaluator on the hi-run
    # index at 1 and 4 shards, on one query batch; every row must equal
    # the in-process IndexReader.bm25_topk result
    serving = None
    idx = "/tmp/ti_bench/idx-sf%s-%d-cpus%d" % (runs[hi]["sf"], docs, hi)
    if os.path.exists(os.path.join(idx, "meta.json")):
        import pyarrow as pa

        import ray
        import ray.data

        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        from textindex_ray.query.batch_eval import evaluate_queries
        from textindex_ray.query.engine import IndexReader

        qterms = [["alpha", "beta"], ["lorem", "ipsum"],
                  ["gamma", "delta", "epsilon"], ["zebra", "sphinx"],
                  ["haus", "baum", "wald"], ["maison", "arbre"],
                  ["alpha"], ["quartz", "ipsum"]] * 4
        qt = pa.table({
            "qid": pa.array(range(len(qterms)), pa.int32()),
            "kind": pa.array(["bm25_topk"] * len(qterms)),
            "terms": pa.array(qterms, pa.list_(pa.string())),
            "k": pa.array([10] * len(qterms), pa.int32()),
        })
        qds = ray.data.from_arrow(qt)
        reader = IndexReader(idx)
        want = {q: reader.bm25_topk(t, 10) for q, t in enumerate(qterms)}
        # warm the Ray worker pool untimed (worker start-up)
        _ = {r["qid"] for r in evaluate_queries(
            idx, qds.limit(1), n_shards=4).iter_rows()}
        serving = {"queries": len(qterms)}
        for n_shards in (1, 4):
            t0 = time.perf_counter()
            got = {r["qid"]: r for r in evaluate_queries(
                idx, qds, n_shards=n_shards).iter_rows()}
            serving["doc_sharded_%d_sec" % n_shards] = round(
                time.perf_counter() - t0, 3)
            assert all(
                list(got[q]["doc_ids"]) == want[q][0].tolist()
                and list(got[q]["scores"]) == want[q][1].tolist()
                for q in want
            ), "evaluate_queries(n_shards=%d) != IndexReader" % n_shards
        ray.shutdown()

    print(json.dumps({
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": runs[lo]["value"],
        "sec_hi": runs[hi]["value"],
        "docs_per_sec_lo": tp_lo,
        "docs_per_sec_hi": tp_hi,
        "scaling_efficiency": round(eff, 3),
        "docs": runs[hi]["docs"],
        "sf": runs[hi]["sf"],
        "serving_sharded": serving,
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
