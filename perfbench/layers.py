"""Per-layer probes of a traced run (``--trace 1``).

Each probe times calls into one layer from the benchmark's side, inside
a span: the kernel (``ExtractTokenize`` in-process, no Ray), the build
phases (the ``timings`` ``build_index`` returns and the committed
directories), the codec (``index/codec.py`` over the built index's
chunks), the query engine (``IndexReader`` calls per query) and the
segment lifecycle (``update_index`` / ``open_reader`` / ``compact_index``).
Workloads that do not append in their timed part run one small append
and one compaction here, so every layer reports on every workload.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench.harness import median

PROBE_QUERIES = 64
PROBE_DELTA_DOCS = 50
STALL_EXTRA_S = 5.0  # a tokenize phase this much over the run's median


def kernel(run) -> dict:
    """ExtractTokenize in this process over the workload's first corpus,
    in the build's 1,024-row batches."""
    from textindex_ray.stages.extract import ExtractTokenize

    from perfbench.workloads import NUM_BUCKETS

    table = pq.read_table(run.corpus.parts[0][0], columns=["url", "html"])
    fn = ExtractTokenize(num_buckets=NUM_BUCKETS)
    with run.tracer.span("kernel.extract_tokenize") as sp:
        for b in table.to_batches(max_chunksize=1024):
            fn(pa.Table.from_batches([b]))
    sec = sp.seconds
    mb = sum(len(x) for x in table.column("html").to_pylist()) / 1e6
    return {"kernel.docs_per_s": table.num_rows / sec, "kernel.input_mb_per_s": mb / sec}


def _dir_mb(path: str) -> float:
    from perfbench.workloads import dir_bytes

    return dir_bytes(path) / 1e6


def build_record(out: str, meta: dict) -> dict:
    """Sizes and counts of one committed build (taken right after it)."""
    rec = {k: float(v) for k, v in meta.get("timings", {}).items()}
    rec["staging_mb"] = _dir_mb(os.path.join(out, "tokenized"))
    for sub in ("index", "dict", "docmap"):
        rec[sub + "_mb"] = _dir_mb(os.path.join(out, sub))
    rec["terms"] = float(pq.ParquetDataset(os.path.join(out, "dict", "data")).read(
        columns=["df"]).num_rows)
    rec["chunks"] = float(pq.ParquetDataset(os.path.join(out, "index", "data")).read(
        columns=["n"]).num_rows)
    rec["n_docs"] = float(meta["n_docs"])
    return rec


def builds(records: list[dict], kernel_docs_per_s: float) -> dict:
    tok = [r["tokenize_sec"] for r in records if "tokenize_sec" in r]
    med_tok = median(tok)
    stalls = [t for t in tok if t > med_tok + STALL_EXTRA_S]
    last = records[-1]

    def pick(key: str) -> float:
        return median([r[key] for r in records if key in r])

    post = pick("postings_sec")
    return {
        "build.builds": float(len(records)),
        "build.tokenize_s": med_tok,
        "build.tokenize_max_s": max(tok) if tok else float("nan"),
        "build.tokenize_stall_share": len(stalls) / max(len(tok), 1),
        "build.tokenize_wait_s": median([r["tokenize_sec"] - r["n_docs"] / kernel_docs_per_s
                                          for r in records if "tokenize_sec" in r]),
        "build.postings_s": post,
        "build.dict_s": pick("dict_sec"),
        "build.stats_s": pick("stats_sec"),
        "build.postings_us_per_chunk": median([r["postings_sec"] / r["chunks"] * 1e6
                                                for r in records
                                                if "postings_sec" in r and r["chunks"]]),
        "build.staging_mb": pick("staging_mb"),
        "build.terms": last["terms"],
        "build.chunks": last["chunks"],
        "build.index_mb": last["index_mb"],
        "build.dict_mb": last["dict_mb"],
        "build.docmap_mb": last["docmap_mb"],
    }


def codec(run, index_dir: str) -> dict:
    """Per-chunk encode and decode with index/codec.py over every chunk."""
    from textindex_ray.index.codec import (decode_tfs, delta_decode, delta_encode,
                                           encode_tfs)

    t = pq.read_table(os.path.join(index_dir, "index", "data"), columns=["docs", "tfs", "n"])
    docs = t.column("docs").to_pylist()
    tfs = t.column("tfs").to_pylist()
    nbytes = sum(len(d) + len(f) for d, f in zip(docs, tfs))
    postings = int(np.sum(t.column("n").to_numpy()))
    with run.tracer.span("codec.decode") as sp:
        decoded = [(delta_decode(d), decode_tfs(f)) for d, f in zip(docs, tfs)]
    dec_s = sp.seconds
    with run.tracer.span("codec.encode") as sp:
        for ids, tf in decoded:
            delta_encode(ids)
            encode_tfs(tf)
    enc_s = sp.seconds
    return {
        "codec.decode_mb_per_s": nbytes / 1e6 / dec_s,
        "codec.encode_mb_per_s": nbytes / 1e6 / enc_s,
        "codec.bytes_per_posting": nbytes / max(postings, 1),
        "query.index_postings": float(postings),
    }


def query_engine(run, index_dir: str, queries: list[list[str]]) -> dict:
    """Per-query layer timings on single-segment readers."""
    from textindex_ray.query.engine import IndexReader
    from textindex_ray.query.segmented import open_reader

    from perfbench.workloads import K, MIN_POSTINGS

    tr = run.tracer
    opens = []
    for _ in range(3):
        with tr.span("reader.open") as sp:
            reader = open_reader(index_dir)
        opens.append(sp.seconds)
    qs = queries[:PROBE_QUERIES]
    cold = IndexReader(index_dir)  # its postings cache starts empty
    lookup, fetch, post, score, brute, wand, dec_share, picks, npost = ([] for _ in range(9))
    for q in qs:
        tr.new_trace()
        for t in q:
            with tr.span("query.df") as sp:
                reader.df(t)
            lookup.append(sp.seconds * 1e6)
        npost.append(sum(reader.df(t) for t in set(q)))
        with tr.span("query.chunk_rows") as sp:
            reader.chunk_rows(q)
        fetch.append(sp.seconds * 1e3)
        with tr.span("query.postings") as sp:
            for t in sorted(set(q)):
                cold.postings(t)
        post.append(sp.seconds * 1e3)
        with tr.span("query.bm25_topk.cached") as sp:
            cold.bm25_topk(q, K)
        score.append(sp.seconds * 1e3)
        with tr.span("query.bm25_topk") as sp:
            reader.bm25_topk(q, K)
        brute.append(sp.seconds * 1e3)
        with tr.span("query.bm25_topk_wand") as sp:
            reader.bm25_topk_wand(q, K)
        wand.append(sp.seconds * 1e3)
        st = reader.last_wand_stats
        if st["chunks_total"]:
            dec_share.append(st["chunks_decoded"] / st["chunks_total"])
        reader.bm25_topk_auto(q, K, min_postings=MIN_POSTINGS)
        picks.append(reader.last_scorer)
    return {
        "reader.open_s": median(opens),
        "query.lookup_us": median(lookup),
        "query.fetch_ms": median(fetch),
        "query.postings_ms": median(post),
        "query.score_ms": median(score),
        "query.brute_ms": median(brute),
        "query.wand_ms": median(wand),
        "query.auto_wand_share": picks.count("wand") / max(len(picks), 1),
        "query.wand_decoded_chunk_share": median(dec_share),
        "query.postings_per_query": float(np.mean(npost)) if npost else float("nan"),
        "query.repeat_term_share": repeat_share(queries),
    }


def repeat_share(queries: list[list[str]]) -> float:
    """Share of query-term occurrences whose term an earlier query (or
    the same one) already used."""
    seen: set = set()
    repeats = total = 0
    for q in queries:
        for t in q:
            total += 1
            repeats += t in seen
            seen.add(t)
    return repeats / max(total, 1)


def lifecycle(run, delta_dir: str) -> dict:
    """One segment append, reopen, query pass and compaction on the
    workload's index (for workloads whose timed part does not append)."""
    from textindex_ray.index.merge import compact_index, update_index

    from perfbench import workloads as w

    idx = run.index_dir
    reader, open1 = w.open_index(run, idx)
    before = run.need(reader, "open_reader").n_docs
    stats, append_s = run.op("index.update_index", lambda: update_index(
        delta_dir, idx, num_buckets=w.NUM_BUCKETS, mode="segment"))
    run.need(stats, "update_index")
    reader, open2 = w.open_index(run, idx)
    res = w.query_pass(run, run.need(reader, "open_reader"), run.queries[:PROBE_QUERIES])
    qms = median(res[1]) if res else float("nan")
    segs = len(reader.segments)
    _, compact_s = run.op("index.compact_index",
                          lambda: compact_index(idx, num_buckets=w.NUM_BUCKETS))
    after = run.need(w.open_index(run, idx)[0], "open_reader").n_docs
    run.check(after == before + stats["added_docs"],
              "n_docs after append + compaction: %d != %d + %d"
              % (after, before, stats["added_docs"]))
    return {
        "update.append_s": append_s,
        "update.delta_docs": float(stats["added_docs"]),
        "update.segments_max": float(segs),
        "segmented.open_1seg_s": open1,
        "segmented.open_max_s": open2,
        "segmented.query_ms_per_segment": qms / segs,
        "compact.s": compact_s,
        "compact.mb_rewritten": w.committed_bytes(idx) / 1e6,
    }


def probe(run) -> dict:
    """Every per-layer metric of a traced run."""
    out = dict(run.layers)
    k = kernel(run)
    out.update(k)
    out.update(builds(run.build_records, k["kernel.docs_per_s"]))
    out.update(codec(run, run.index_dir))
    for key, v in query_engine(run, run.index_dir, run.queries).items():
        out.setdefault(key, v)
    out.setdefault("query.p99_ms", float(np.percentile(run.query_ms, 99)))
    out.setdefault("query.per_s", len(run.query_ms) / max(run.query_pass_s, 1e-9))
    if "update.append_s" not in out:
        delta = run.path("corpus-probe")
        run.corpus.write(99, PROBE_DELTA_DOCS, delta)
        out.update(lifecycle(run, delta))
    out["traced.op_p50_ms"] = run.metrics["op_p50_ms"]
    out["traced.query_p50_ms"] = run.metrics["query_p50_ms"]
    out["trace.spans"] = float(len(run.tracer.spans))
    run.tracer.dump(run.path("..", "trace-%d.json" % os.getpid()), layers=out,
                    builds=run.build_records)
    return out


PER_LAYER = {
    "kernel.docs_per_s": "1/s", "kernel.input_mb_per_s": "MB/s",
    "build.builds": "count", "build.tokenize_s": "s", "build.tokenize_max_s": "s",
    "build.tokenize_stall_share": "ratio", "build.tokenize_wait_s": "s",
    "build.postings_s": "s", "build.dict_s": "s", "build.stats_s": "s",
    "build.postings_us_per_chunk": "us", "build.staging_mb": "MB", "build.terms": "count",
    "build.chunks": "count", "build.index_mb": "MB", "build.dict_mb": "MB",
    "build.docmap_mb": "MB",
    "codec.encode_mb_per_s": "MB/s", "codec.decode_mb_per_s": "MB/s",
    "codec.bytes_per_posting": "B", "query.index_postings": "count",
    "reader.open_s": "s", "query.lookup_us": "us", "query.fetch_ms": "ms",
    "query.postings_ms": "ms", "query.score_ms": "ms", "query.brute_ms": "ms",
    "query.wand_ms": "ms", "query.auto_wand_share": "ratio",
    "query.wand_decoded_chunk_share": "ratio", "query.postings_per_query": "count",
    "query.repeat_term_share": "ratio", "query.p99_ms": "ms", "query.per_s": "1/s",
    "update.append_s": "s", "update.delta_docs": "count", "update.segments_max": "count",
    "segmented.open_1seg_s": "s", "segmented.open_max_s": "s",
    "segmented.query_ms_per_segment": "ms", "compact.s": "s", "compact.mb_rewritten": "MB",
    "traced.op_p50_ms": "ms", "traced.query_p50_ms": "ms", "trace.spans": "count",
}
