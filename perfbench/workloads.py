"""The workloads: set-up, timed loop and output checks.

Every workload drives the package through its public functions
(``build_index``, ``open_reader``, ``update_index``, ``compact_index``
and the reader's query methods) from this one process: builds and
updates one after another, queries from one closed-loop client. Inputs
come from the seed only; expected outputs come from ``expect.py``.

End-to-end metrics, the same names on every workload:

- ``setup_s``: ray.init, corpus generation, any index the timed part
  needs, and one untimed warm-up operation;
- ``op_p50_ms``: median wall time of the workload's unit operation (a
  full build; a client request; an append made visible);
- ``query_p50_ms``: median ``bm25_topk_auto`` latency on the indexes the
  workload produced;
- ``index_mb``: committed index + dict + docmap bytes of the last index;
- ``peak_rss_mb``: peak summed RSS of this process and its Ray tree.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import expect, layers, zipf
from perfbench.harness import RunAborted, median, run_with_timeout

K = 10
NUM_BUCKETS = 8
ROWS_PER_FILE = 256
# bm25_topk_auto's default min_postings (65,536) is sized for indexes of a
# million documents; on these thousand-document indexes no query reaches
# it and auto would never pick WAND. 2,048 leaves the rule's df-contrast
# test deciding, on an index small enough to build in every run.
MIN_POSTINGS = 2048
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 120.0  # no operation starts a timeout past this point

BUILD_ZIPF_DOCS = 300
MIN_BUILDS = 6  # build_zipf takes the median of at least six builds
BATCH_QUERIES = 200  # fresh checked queries after each build
WARM_UP_DOCS = 64
QUERY_ZIPF_DOCS = 1200
QUERY_STREAM = 16_000
QUERY_BATCH = 50
CHECK_EVERY = 8  # query_zipf checks every 8th request
UPDATE_BASE_DOCS = 400
# 6 x 30 delta docs stay under update_index's own compaction ratio (0.5 x
# the 400-doc base), so the one compaction is the benchmark's
UPDATE_DELTA_DOCS = 30
UPDATE_APPENDS = 6
UPDATE_QUERIES = 200  # checked after each append and after the compaction


class Run:
    """State of one benchmark run."""

    def __init__(self, work: str, seed: int, seconds: float, tracer):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.build_records: list[dict] = []
        self.query_ms: list[float] = []
        self.query_pass_s = 0.0
        self.op_ms: list[float] = []
        self.index_dir = ""
        self.corpus: ZipfCorpus | None = None
        self.queries: list[list[str]] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def op(self, name: str, fn, n_ops: int = 1):
        """One counted operation under a timeout: (result, seconds), or
        (None, None) when it raised. A timeout ends the run."""
        self.attempted += n_ops
        timeout = max(1.0, min(OP_TIMEOUT_S, self.deadline - time.perf_counter()))
        with self.tracer.span(name):
            try:
                return run_with_timeout(fn, timeout)
            except RunAborted:
                self.failed += n_ops
                self.errors.append("%s: timed out after %.0f s" % (name, timeout))
                raise
            except Exception as e:  # a failed operation is counted, not fatal
                self.failed += n_ops
                self.errors.append("%s: %s: %s" % (name, type(e).__name__, e))
                return None, None

    def need(self, value, what: str):
        """Set-up results the rest of the run cannot do without."""
        if value is None:
            raise RunAborted("set-up failed: " + what)
        return value

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            if len(self.errors) < 20:
                self.errors.append("check failed: " + what)


# -- helpers -----------------------------------------------------------------


def write_corpus_dir(table: pa.Table, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for i in range(0, max(table.num_rows, 1), ROWS_PER_FILE):
        pq.write_table(table.slice(i, ROWS_PER_FILE),
                       os.path.join(path, "part-%05d.parquet" % (i // ROWS_PER_FILE)))


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def committed_bytes(index_dir: str) -> int:
    """index/ + dict/ + docmap/ bytes of every segment; staging excluded."""
    from textindex_ray.index.segments import list_segments

    return sum(dir_bytes(os.path.join(s, sub)) for s in list_segments(index_dir)
               for sub in ("index", "dict", "docmap"))


def build(run: Run, corpus: str, out: str):
    from textindex_ray.index.build import build_index

    shutil.rmtree(out, ignore_errors=True)
    meta, sec = run.op("index.build", lambda: build_index(corpus, out, num_buckets=NUM_BUCKETS))
    if meta is not None and run.tracer.enabled:
        run.build_records.append(layers.build_record(out, meta))
    return meta, sec


def open_index(run: Run, index_dir: str):
    from textindex_ray.query.segmented import open_reader

    return run.op("query.open_reader", lambda: open_reader(index_dir))


def ranked(reader, terms):
    return reader.bm25_topk_auto(terms, K, min_postings=MIN_POSTINGS)


def query_pass(run: Run, reader, queries, with_find: bool = False):
    """One closed-loop pass over ``queries``: per-request outputs,
    latencies (ranked alone, and the whole request) and auto's picks."""
    tr = run.tracer

    def go():
        outs, rank_ms, req_ms, picks = [], [], [], []
        for q in queries:
            tr.new_trace()
            t0 = time.perf_counter()
            with tr.span("query.bm25_topk_auto"):
                ids, sc = ranked(reader, q)
            t1 = time.perf_counter()
            hits = None
            if with_find:
                with tr.span("query.find"):
                    hits = reader.find(q)
            t2 = time.perf_counter()
            outs.append((ids, sc, hits))
            picks.append(getattr(reader, "last_scorer", ""))
            rank_ms.append((t1 - t0) * 1e3)
            req_ms.append((t2 - t0) * 1e3)
        return outs, rank_ms, req_ms, picks

    res, sec = run.op("query.pass", go, n_ops=len(queries))
    if res is not None:
        run.query_pass_s += sec
        run.query_ms += res[1]
    return res


def scorer_agreement(run: Run, reader, queries) -> None:
    """bm25_topk, bm25_topk_wand and bm25_topk_auto agree exactly."""
    for q in queries:
        a = reader.bm25_topk(q, K)
        b = reader.bm25_topk_wand(q, K)
        c = ranked(reader, q)
        same = all(np.array_equal(a[i], x[i]) for x in (b, c) for i in (0, 1))
        run.check(same, "scorers disagree on %r" % (q,))


# -- corpora -----------------------------------------------------------------


class ZipfCorpus:
    """Vocabulary, base corpus and delta corpora of one seed, written as
    Parquet, with the generator's counts."""

    def __init__(self, run: Run, n_docs: int, deltas: int = 0, delta_docs: int = 0):
        self.seed = run.seed
        self.vocab = zipf.make_vocab(self.seed)
        self.cdf = zipf.zipf_cdf(len(self.vocab))
        self.parts = []  # (dir, urls, rank arrays)
        for stream, n in [(0, n_docs)] + [(s + 1, delta_docs) for s in range(deltas)]:
            self.parts.append(self.write(stream, n, run.path("corpus-%d" % stream)))

    def write(self, stream: int, n: int, path: str):
        docs = zipf.draw_docs(self.seed, stream, n, self.cdf)
        table = zipf.corpus_table(self.seed, stream, docs, self.vocab)
        write_corpus_dir(table, path)
        return path, table.column("url").to_pylist(), docs

    def expected(self, n_parts: int) -> expect.ExpectedIndex:
        """Counts of the base corpus and the first n_parts - 1 deltas."""
        urls, docs = [], []
        for _, us, ds in self.parts[:n_parts]:
            urls += us
            for d in ds:
                r, c = np.unique(d, return_counts=True)
                docs.append((r, c))
        return expect.ExpectedIndex(urls, docs, self.vocab)

    def queries(self, exp: expect.ExpectedIndex, n: int):
        """(rank lists, word lists) of a seeded query log over exp's df."""
        df = np.zeros(len(self.vocab), np.int64)
        for k in exp.keys():
            df[k] = exp.df(k)
        ranks = zipf.make_queries(self.seed, n, df)
        return ranks, [[self.vocab[r] for r in q] for q in ranks]


def doc_ids_in_order(exp: expect.ExpectedIndex) -> list[int]:
    """md5-rule docIDs of exp's documents, in exp's document order."""
    ids = expect.md5_doc_ids(exp.urls, NUM_BUCKETS)
    return [ids[u] for u in exp.urls]


def check_build(run: Run, out: str, corpus: ZipfCorpus, exp: expect.ExpectedIndex,
                ids_by_doc: list[int], meta: dict, postings: bool) -> None:
    """Dictionary (term, df, cf), n_docs, total_dl and, with
    ``postings``, every decoded posting equal the generator's counts;
    docIDs follow the md5 rule."""
    run.check(meta["n_docs"] == exp.n_docs, "n_docs %d != %d" % (meta["n_docs"], exp.n_docs))
    run.check(meta["total_dl"] == exp.total_dl,
              "total_dl %d != %d" % (meta["total_dl"], exp.total_dl))
    d = pq.read_table(os.path.join(out, "dict", "data"))
    got = dict(zip(d.column("term").to_pylist(),
                   zip(d.column("df").to_pylist(), d.column("cf").to_pylist())))
    want = {corpus.vocab[k]: (exp.df(k), exp.cf(k)) for k in exp.keys()}
    run.check(got == want, "dictionary differs (%d vs %d terms)" % (len(got), len(want)))
    dm = pq.read_table(os.path.join(out, "docmap", "data"), columns=["url", "doc_id"])
    run.check(dict(zip(dm.column("url").to_pylist(), dm.column("doc_id").to_pylist()))
              == dict(zip(exp.urls, ids_by_doc)), "docIDs break the md5-url rule")
    if not postings:
        return
    chunks = pq.read_table(os.path.join(out, "index", "data"), columns=["term", "docs", "tfs"])
    want_post = {}
    for k in exp.keys():
        ds, ts = exp.postings(k)
        want_post[corpus.vocab[k]] = {ids_by_doc[i]: int(t) for i, t in zip(ds, ts)}
    run.check(expect.decode_postings(chunks) == want_post, "postings differ")


def check_exact(run: Run, exp: expect.ExpectedIndex, ids_by_doc, ranks, outs) -> None:
    """Single-segment answers: top-k docIDs and scores in order, ties
    broken by docID, and find's AND set."""
    for q, (ids, sc, hits) in zip(ranks, outs):
        want = [(ids_by_doc[i], s) for i, s in exp.topk(q, K, ids_by_doc)]
        got = list(zip(np.asarray(ids).tolist(), np.asarray(sc).tolist()))
        run.check(got == want, "top-%d of %r: %r != %r" % (K, q, got[:3], want[:3]))
        if hits is not None:
            want_and = sorted(ids_by_doc[i] for i in exp.and_docs(q))
            run.check(np.asarray(hits).tolist() == want_and, "find %r" % (q,))


def check_by_url(run: Run, reader, exp: expect.ExpectedIndex, ranks, outs) -> None:
    """Segmented or compacted answers, compared by url and score."""
    run.check(reader.n_docs == exp.n_docs,
              "n_docs %d != base + deltas %d" % (reader.n_docs, exp.n_docs))
    urls = reader.urls_for(np.concatenate([np.asarray(ids, np.uint64) for ids, _, _ in outs]))
    pos = 0
    for q, (ids, sc, _) in zip(ranks, outs):
        want = {exp.urls[i]: s for i, s in exp.bm25(q).items()}
        err = expect.check_topk(urls[pos:pos + len(ids)], sc, want, K)
        pos += len(ids)
        run.check(err is None, "%r: %s" % (q, err))


# -- workloads ----------------------------------------------------------------


def build_zipf(run: Run, cluster) -> None:
    """Repeated full builds of a Zipf corpus (a quarter of it HTML pages).
    After each build a fresh batch of checked queries runs on it."""
    t0 = time.perf_counter()
    cluster.start()
    corpus = run.corpus = ZipfCorpus(run, BUILD_ZIPF_DOCS)
    src = corpus.parts[0][0]
    d = run.path("corpus-warm")
    write_corpus_dir(pq.read_table(src).slice(0, WARM_UP_DOCS), d)
    run.need(build(run, d, run.path("idx-warm"))[0], "warm-up build")
    run.build_records.clear()
    run.metrics["setup_s"] = time.perf_counter() - t0

    exp = corpus.expected(1)
    ids_by_doc = doc_ids_in_order(exp)
    ranks, queries = corpus.queries(exp, 40 * BATCH_QUERIES)
    out = run.index_dir = run.path("idx")
    start = time.perf_counter()
    n = 0
    while n < MIN_BUILDS or time.perf_counter() - start < run.seconds:
        if (n + 1) * BATCH_QUERIES > len(queries):
            raise RunAborted("query list exhausted; lengthen it")
        meta, sec = build(run, src, out)
        qs = slice(n * BATCH_QUERIES, (n + 1) * BATCH_QUERIES)
        n += 1
        if meta is None:
            continue
        run.op_ms.append(sec * 1e3)
        reader, _ = open_index(run, out)
        if reader is None:
            continue
        res = query_pass(run, reader, queries[qs])
        check_build(run, out, corpus, exp, ids_by_doc, meta, postings=n == 1)
        if res is not None:
            check_exact(run, exp, ids_by_doc, ranks[qs], res[0])
    run.metrics["op_p50_ms"] = median(run.op_ms)
    run.queries = queries[:n * BATCH_QUERIES]


def query_zipf(run: Run, cluster) -> None:
    """One closed-loop client: each request is a ranked top-10
    (bm25_topk_auto) and a boolean AND (find) of the same terms."""
    t0 = time.perf_counter()
    cluster.start()
    corpus = run.corpus = ZipfCorpus(run, QUERY_ZIPF_DOCS)
    out = run.index_dir = run.path("idx")
    run.need(build(run, corpus.parts[0][0], out)[0], "index build")
    reader = run.need(open_index(run, out)[0], "open_reader")
    setup_s = time.perf_counter() - t0
    exp = corpus.expected(1)
    ranks, queries = corpus.queries(exp, QUERY_STREAM)
    t0 = time.perf_counter()
    run.need(query_pass(run, reader, queries[-1:], with_find=True), "warm-up query")
    run.metrics["setup_s"] = setup_s + time.perf_counter() - t0
    run.query_ms.clear()
    run.queries = queries

    start = time.perf_counter()
    pos = 0
    outs, picks = [], []
    while pos == 0 or time.perf_counter() - start < run.seconds:
        if pos + QUERY_BATCH >= len(queries):
            raise RunAborted("query stream exhausted; lengthen it")
        res = query_pass(run, reader, queries[pos:pos + QUERY_BATCH], with_find=True)
        pos += QUERY_BATCH
        if res is None:
            outs += [None] * QUERY_BATCH
            continue
        outs += res[0]
        run.op_ms += res[2]
        picks += res[3]
    run.metrics["op_p50_ms"] = median(run.op_ms)
    run.layers["query.auto_wand_share"] = picks.count("wand") / max(len(picks), 1)
    run.layers["query.repeat_term_share"] = layers.repeat_share(queries[:pos])

    sel = [i for i in range(0, pos, CHECK_EVERY) if outs[i] is not None]
    check_exact(run, exp, doc_ids_in_order(exp), [ranks[i] for i in sel],
                [outs[i] for i in sel])
    scorer_agreement(run, reader, [queries[i] for i in sel[:64]])


def update_zipf(run: Run, cluster) -> None:
    """Segment appends, each followed by a reopen and a checked query
    batch, then exactly one compaction (after the last append)."""
    from textindex_ray.index.merge import compact_index, update_index

    t0 = time.perf_counter()
    cluster.start()
    corpus = run.corpus = ZipfCorpus(run, UPDATE_BASE_DOCS, UPDATE_APPENDS, UPDATE_DELTA_DOCS)
    idx = run.index_dir = run.path("idx")
    run.need(build(run, corpus.parts[0][0], idx)[0], "base build")
    reader, open1 = open_index(run, idx)
    run.need(reader, "open_reader")
    setup_s = time.perf_counter() - t0
    ranks, queries = corpus.queries(corpus.expected(1), UPDATE_QUERIES)
    t0 = time.perf_counter()
    run.need(query_pass(run, reader, queries[:1]), "warm-up query")
    run.metrics["setup_s"] = setup_s + time.perf_counter() - t0
    run.query_ms.clear()
    run.queries = queries

    start = time.perf_counter()
    visible, appends, opens, per_seg = [], [], [open1], []
    for a in range(UPDATE_APPENDS):
        stats, up = run.op("index.update_index", lambda a=a: update_index(
            corpus.parts[a + 1][0], idx, num_buckets=NUM_BUCKETS, mode="segment"))
        if stats is None:
            continue
        run.check(not stats["compacted"], "update_index compacted on its own")
        reader, reopen = open_index(run, idx)
        if reader is None:
            continue
        if run.tracer.enabled:
            seg = reader.segment_paths[-1]
            with open(os.path.join(seg, "meta.json")) as f:
                run.build_records.append(layers.build_record(seg, json.load(f)))
        appends.append(up)
        opens.append(reopen)
        visible.append((up + reopen) * 1e3)
        res = query_pass(run, reader, queries)
        if res is not None:
            per_seg.append(median(res[1]) / len(reader.segments))
            check_by_url(run, reader, corpus.expected(a + 2), ranks, res[0])
    segments_max = len(getattr(reader, "segments", [reader]))
    _, compact_s = run.op("index.compact_index",
                          lambda: compact_index(idx, num_buckets=NUM_BUCKETS))
    reader, _ = open_index(run, idx)
    if reader is not None:
        exp = corpus.expected(UPDATE_APPENDS + 1)
        while True:  # query the compacted index until the run's time is spent
            res = query_pass(run, reader, queries)
            if res is not None:
                check_by_url(run, reader, exp, ranks, res[0])
            if time.perf_counter() - start >= run.seconds:
                break
    run.metrics["op_p50_ms"] = median(visible)
    run.layers.update({
        "update.append_s": median(appends),
        "update.delta_docs": float(UPDATE_APPENDS * UPDATE_DELTA_DOCS),
        "update.segments_max": float(segments_max),
        "segmented.open_1seg_s": opens[0],
        "segmented.open_max_s": opens[-1],
        "segmented.query_ms_per_segment": median(per_seg),
        "compact.s": compact_s if compact_s is not None else float("nan"),
        "compact.mb_rewritten": committed_bytes(idx) / 1e6,
    })


WORKLOADS = {
    "build_zipf": build_zipf,
    "query_zipf": query_zipf,
    "update_zipf": update_zipf,
}


def finish(run: Run) -> None:
    """End-to-end metrics every workload reports the same way."""
    run.metrics["query_p50_ms"] = median(run.query_ms)
    run.metrics["index_mb"] = committed_bytes(run.index_dir) / 1e6
