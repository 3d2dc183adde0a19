"""Pipelines over the testdata ``documents`` / ``embeddings`` tables.

These are the driver-graded queries (__ray_entry__.queries). The
documents table is adapted into the engine's corpus schema
(url = "doc://<doc_id>", html = utf-8 bytes of text) and indexed with
the full Ray build pipeline; results map internal docIDs back to the
original ``doc_id`` so the DuckDB oracle can verify them.

On the testdata charset (plain ASCII, no markup/newlines — asserted in
tests) the engine tokenizer coincides with the SQL-expressible
``regexp_extract_all(lower(text), '\\pL+')`` + stopword filter, which is
what oracle_sql uses.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

import textindex_ray
from textindex_ray.index.build import build_index
from textindex_ray.query.engine import IndexReader


def _code_tag(root: str | None = None) -> str:
    """Cache-busting tag: git HEAD when available (stale /tmp caches from
    an older engine version must never answer for the current one),
    plus a digest of the uncommitted changes under ``textindex_ray/``
    (tracked diff and untracked files) when that tree is dirty, so
    uncommitted engine code never reads indexes that other code built.
    ``root`` is the checkout (default: the one this module lives in)."""
    import hashlib
    import subprocess

    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    def git(*args: str) -> bytes:
        return subprocess.run(
            ["git", "-C", root, *args], capture_output=True, timeout=10
        ).stdout

    try:
        tag = git("rev-parse", "--short", "HEAD").decode().strip()
        if not tag:
            return textindex_ray.__version__
        diff = git("diff", "HEAD", "--", "textindex_ray")
        untracked = git("ls-files", "--others", "--exclude-standard", "-z",
                        "--", "textindex_ray").split(b"\0")
        if diff or any(untracked):
            h = hashlib.sha256(diff)
            for rel in filter(None, untracked):
                h.update(rel)
                with open(os.path.join(root, os.fsdecode(rel)), "rb") as f:
                    h.update(f.read())
            tag += "-" + h.hexdigest()[:12]
        return tag
    except Exception:
        return textindex_ray.__version__


NUM_BUCKETS = 8
_CACHE: dict[str, IndexReader] = {}

# Fixed query terms for the graded BM25/boolean queries (mid/high-df
# vocabulary of the testdata documents tables).
BM25_QUERIES = {
    "q_hash_join": ["hash", "join"],
    "q_scan_filter_sort": ["scan", "filter", "sort"],
    "q_customer": ["customer", "order", "line"],
}
AND_TERMS = ["hash", "join"]
WILDCARD = "jo*"


def documents_ds(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _adapt(batch: pa.Table) -> pa.Table:
    urls = ["doc://%012d" % i for i in batch.column("doc_id").to_pylist()]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "html": batch.column("text").cast(pa.binary()),
        }
    )


def documents_reader(sf_dir: str) -> IndexReader:
    """Build (or reuse) the index over the documents table of sf_dir."""
    key = os.path.abspath(sf_dir)
    if key in _CACHE:
        return _CACHE[key]
    out = os.path.join(
        "/tmp/textindex_ray_cache",
        "docs-%s-%s" % (_code_tag(), key.strip("/").replace("/", "_")),
    )
    corpus_dir = os.path.join(out, "corpus")
    if not os.path.exists(os.path.join(out, "meta.json")):
        os.makedirs(corpus_dir, exist_ok=True)
        documents_ds(sf_dir).map_batches(_adapt, batch_format="pyarrow").write_parquet(
            corpus_dir
        )
        build_index(corpus_dir, out, num_buckets=NUM_BUCKETS, batch_size=512)
    reader = IndexReader(out)
    _CACHE[key] = reader
    return reader


def _orig_ids(reader: IndexReader):
    """internal doc_id -> original documents.doc_id (sorted arrays)."""
    dm = reader.docmap(columns=["doc_id", "url"])
    ids = dm.column("doc_id").to_numpy()
    orig = np.array([int(u[6:]) for u in dm.column("url").to_pylist()], dtype=np.int64)
    order = np.argsort(ids)
    return ids[order], orig[order]


def _map_ids(reader: IndexReader, internal: np.ndarray) -> np.ndarray:
    ids, orig = _orig_ids(reader)
    return orig[np.searchsorted(ids, internal)]


# -- graded queries ---------------------------------------------------------

def doc_dict(sf_dir: str) -> pa.Table:
    """Vocabulary with df/cf over the documents table."""
    r = documents_reader(sf_dir)
    d = r._dict
    return pa.table(
        {
            "term": d.column("term").cast(pa.string()),
            "df": d.column("df").cast(pa.int64()),
            "cf": d.column("cf").cast(pa.int64()),
        }
    )


def doc_doclen(sf_dir: str) -> pa.Table:
    """(doc_id, dl): non-stopword token count per document (incl. 0)."""
    r = documents_reader(sf_dir)
    dm = r.docmap(columns=["doc_id", "url", "dl"])
    orig = [int(u[6:]) for u in dm.column("url").to_pylist()]
    t = pa.table(
        {
            "doc_id": pa.array(orig, pa.int64()),
            "dl": dm.column("dl").cast(pa.int64()),
        }
    )
    return t.take(pc.sort_indices(t.column("doc_id")))


def doc_postings(sf_dir: str) -> pa.Table:
    """Full (term, doc_id, tf) postings relation."""
    r = documents_reader(sf_dir)
    terms_out, ids_out, tfs_out = [], [], []
    for term in r._terms:
        ids, tfs = r.postings(term)
        terms_out.extend([term] * len(ids))
        ids_out.append(ids)
        tfs_out.append(tfs)
    ids_all = np.concatenate(ids_out) if ids_out else np.empty(0, np.uint64)
    tfs_all = np.concatenate(tfs_out) if tfs_out else np.empty(0, np.uint64)
    return pa.table(
        {
            "term": pa.array(terms_out, pa.string()),
            "doc_id": pa.array(_map_ids(r, ids_all), pa.int64()),
            "tf": pa.array(tfs_all.astype(np.int64), pa.int64()),
        }
    )


def doc_term_and(sf_dir: str) -> pa.Table:
    """Docs containing ALL of AND_TERMS (reference `find` semantics)."""
    r = documents_reader(sf_dir)
    internal = r.find(AND_TERMS)
    orig = np.sort(_map_ids(r, internal))
    return pa.table({"doc_id": pa.array(orig, pa.int64())})


def doc_wildcard_and(sf_dir: str) -> pa.Table:
    """Docs matching the wildcard pattern WILDCARD (vocab-expanded OR)."""
    r = documents_reader(sf_dir)
    internal = r.find([WILDCARD])
    orig = np.sort(_map_ids(r, internal))
    return pa.table({"doc_id": pa.array(orig, pa.int64())})


def _bm25(sf_dir: str, terms: list[str], k: int = 10) -> pa.Table:
    r = documents_reader(sf_dir)
    ids, scores = r.bm25_topk(terms, k)
    # block-max WAND must agree (also exercised in the graded path);
    # internal-id tie-break is deterministic and shared by both scorers
    ids_w, scores_w = r.bm25_topk_wand(terms, k)
    assert ids.tolist() == ids_w.tolist(), "WAND / brute-force rank mismatch"
    # The SQL oracle orders ties by the ORIGINAL documents.doc_id, not the
    # internal (md5-bucketed) id. Re-select top-k from the full candidate
    # set with (score desc, original id asc) so an exact-float tie at the
    # boundary resolves identically to the oracle.
    all_ids, all_scores = r.bm25_scores(terms)
    if all_ids.size:
        orig_all = _map_ids(r, all_ids)
        kk = min(k, all_ids.size)
        kth = np.partition(all_scores, all_ids.size - kk)[all_ids.size - kk]
        keep = np.flatnonzero(all_scores >= kth)
        order = np.lexsort((orig_all[keep], -all_scores[keep]))[:k]
        orig = orig_all[keep][order]
        scores = all_scores[keep][order]
    else:
        orig = np.empty(0, np.int64)
        scores = all_scores
    return pa.table(
        {
            "doc_id": pa.array(orig, pa.int64()),
            # floor at 1e4: absorbs reduction-order ulps vs the SQL oracle
            "score_t4": pa.array(np.floor(scores * 1e4).astype(np.int64), pa.int64()),
        }
    )


PHRASE = ("hash", "join")

# above this many AND-candidates the pruned scan switches from a
# driver-collected isin filter to a partitioned semi-join (the
# decontaminate two-tier pattern, functions/dedup.py): a
# stopword-adjacent phrase can have O(corpus) candidates, which must
# never materialize on the driver or inflate into a giant isin expr
CAND_BROADCAST_LIMIT = 100_000


def _candidates_ds(r: IndexReader, terms) -> "ray.data.Dataset":
    """Distributed AND-candidate set over the inverted index: a Dataset
    of ORIGINAL (doc_id:int64) rows for docs containing every term.

    Plan (no driver per-doc state): index chunk rows for the query terms
    (parquet ``term`` filter pushdown) -> per-batch varint decode ->
    (doc, term-code) rows partitioned by doc bucket -> groupby(bucket)
    intersects (a doc appears once per term, so count == n_terms) and
    maps internal ids to original ids through ONLY its bucket's docmap
    slice (row-group-pruned doc_id range read)."""
    uniq = sorted(set(terms))
    nterms = len(uniq)
    uniq_arr = pa.array(uniq, pa.string())
    idx_data = os.path.join(r.path, "index", "data")
    dm_data = os.path.join(r.path, "docmap", "data")
    shift = int(r.meta.get("bucket_shift", 36))
    tomb = r._tomb  # tombstone mask (tiny; broadcast by closure)

    chunks = ray.data.read_parquet(
        idx_data, columns=["term", "n", "docs"],
        filter=pc.field("term").isin(uniq),
    )

    def decode(batch: pa.Table) -> pa.Table:
        from textindex_ray.index.codec import decode_chunks

        ids, _ = decode_chunks(batch)
        row_code = pc.index_in(batch.column("term"), value_set=uniq_arr)
        return pa.table(
            {
                "iid": pa.array(ids, pa.uint64()),
                "tcode": pa.array(
                    np.repeat(row_code.to_numpy().astype(np.int8),
                              batch.column("n").to_numpy()),
                    pa.int8(),
                ),
                "part": pa.array(
                    (ids >> np.uint64(shift)).astype(np.int64), pa.int64()
                ),
            }
        )

    def intersect(g: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64())})
        ids = g.column("iid").to_numpy().astype(np.uint64)
        u, cnt = np.unique(ids, return_counts=True)
        cand = u[cnt == nterms]
        if tomb.size and cand.size:
            pos = np.minimum(np.searchsorted(tomb, cand), tomb.size - 1)
            cand = cand[tomb[pos] != cand]
        if cand.size == 0:
            return empty
        # internal -> original ids via this bucket's docmap slice only
        import pyarrow.dataset as pads

        part = int(g.column("part")[0].as_py())
        lo = np.uint64(part) << np.uint64(shift)
        hi = np.uint64(part + 1) << np.uint64(shift)
        dm = pads.dataset(dm_data).to_table(
            filter=(pc.field("doc_id") >= lo) & (pc.field("doc_id") < hi),
            columns=["doc_id", "url"],
        )
        dmi = dm.column("doc_id").to_numpy().astype(np.uint64)
        order = np.argsort(dmi)
        urls = dm.column("url").to_pylist()
        sel = order[np.searchsorted(dmi[order], cand)]
        orig = np.fromiter(
            (int(urls[int(i)][6:]) for i in sel), np.int64, cand.size
        )
        return pa.table({"doc_id": pa.array(np.sort(orig), pa.int64())})

    return (
        chunks.map_batches(decode, batch_format="pyarrow")
        .groupby("part")
        .map_groups(intersect, batch_format="pyarrow")
    )


def _pruned_text_scan(sf_dir: str, r: IndexReader, terms,
                      broadcast_limit: int | None = None):
    """(doc_id, text) Dataset restricted to the AND-candidate set, or
    None when no candidates. Two tiers: candidates below
    ``broadcast_limit`` collect into a parquet isin filter (row-group
    pruning at the read — the common case); above it, a partitioned
    inner join keeps every per-doc structure off the driver."""
    from textindex_ray.functions._util import join_right, probe_count

    if broadcast_limit is None:
        broadcast_limit = CAND_BROADCAST_LIMIT  # late bind: tests patch it
    docs_path = os.path.join(sf_dir, "documents.parquet")
    # fast path: |candidates| <= min df over the terms (an AND result
    # can't exceed its rarest term's postings), known for free from the
    # in-memory dictionary — when that BOUND fits the broadcast limit,
    # the driver list is provably bounded and the warm reader answers
    # without launching a Ray stage
    if terms and min(r.df(t) for t in set(terms)) <= broadcast_limit:
        cand = sorted(int(x) for x in _map_ids(r, r.find(list(terms))))
        if not cand:
            return None
        return ray.data.read_parquet(
            docs_path, columns=["doc_id", "text"],
            filter=pc.field("doc_id").isin(cand),
        )
    cands, n = probe_count(_candidates_ds(r, terms))
    if n == 0:
        return None
    if n <= broadcast_limit:
        cand = sorted(
            row["doc_id"] for row in cands.select_columns(["doc_id"]).take_all()
        )
        return ray.data.read_parquet(
            docs_path, columns=["doc_id", "text"],
            filter=pc.field("doc_id").isin(cand),  # candidate-pruned scan
        )
    P = 8  # raise with cluster size; hash-shuffle join spawns P aggregators
    ds = ray.data.read_parquet(docs_path, columns=["doc_id", "text"])
    return join_right(ds, P).join(
        join_right(cands, P), join_type="inner", on=("doc_id",),
        num_partitions=P,
    )


def doc_phrase(sf_dir: str) -> pa.Table:
    """Index-accelerated phrase filter: docs where 'hash join' occurs as
    adjacent words.

    The inverted index prunes to the AND-candidate set (docs containing
    both terms) as a DATASET (:func:`_candidates_ds` — never a driver
    list); only candidate rows are scanned, and a regex verifies
    adjacency (``\\bhash\\s+join\\b`` on the lowercased text — the same
    regex the DuckDB oracle runs over the whole table). A regex match
    implies both tokens exist, so phrase hits ⊆ AND candidates and the
    pruned scan is exact."""
    import re

    r = documents_reader(sf_dir)
    ds = _pruned_text_scan(sf_dir, r, PHRASE)
    if ds is None:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    rx = re.compile(r"\b%s\s+%s\b" % PHRASE)

    def verify(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        keep = [rx.search(t.lower()) is not None for t in texts]
        return pa.table(
            {"doc_id": pa.array(
                [i for i, k in zip(ids, keep) if k], pa.int64())}
        )

    out = ds.map_batches(verify, batch_format="pyarrow").to_pandas().sort_values("doc_id")
    return pa.table({"doc_id": pa.array(out["doc_id"].to_numpy(), pa.int64())})


PROX = ("scan", "filter")
PROX_K = 4


def _min_token_gap(toks: list, t1: str, t2: str) -> int:
    """Smallest |i - j| over positions of t1 and t2 in toks (a large
    sentinel when either is absent) — the shared sorted-arrays merge
    kernel lives in functions/_util.sorted_min_gap."""
    from textindex_ray.functions._util import sorted_min_gap

    p1 = np.flatnonzero(np.fromiter((w == t1 for w in toks), bool, len(toks)))
    p2 = np.flatnonzero(np.fromiter((w == t2 for w in toks), bool, len(toks)))
    return sorted_min_gap(p1, p2)


def doc_proximity(sf_dir: str) -> pa.Table:
    """Index-accelerated proximity filter: docs where 'scan' and
    'filter' occur within PROX_K word positions of each other.

    Same plan as :func:`doc_phrase`: the inverted index prunes to the
    AND-candidate set (a Dataset, broadcast-or-joined by size), only
    candidate rows are scanned, and the positional check runs on
    the word-run tokenization (which coincides with the engine
    tokenizer on this charset — module docstring). Proximity hits ⊆
    AND candidates, so the pruned scan is exact."""
    r = documents_reader(sf_dir)
    ds = _pruned_text_scan(sf_dir, r, PROX)
    if ds is None:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    t1, t2 = PROX

    def verify(batch: pa.Table) -> pa.Table:
        import re

        word_re = re.compile(r"[^\W\d_]+")
        keep_ids = []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if _min_token_gap(word_re.findall(t.lower()), t1, t2) <= PROX_K:
                keep_ids.append(did)
        return pa.table({"doc_id": pa.array(keep_ids, pa.int64())})

    out = ds.map_batches(verify, batch_format="pyarrow").to_pandas().sort_values("doc_id")
    return pa.table({"doc_id": pa.array(out["doc_id"].to_numpy(), pa.int64())})


def doc_bm25_hash_join(sf_dir: str) -> pa.Table:
    return _bm25(sf_dir, BM25_QUERIES["q_hash_join"])


def doc_bm25_scan_filter_sort(sf_dir: str) -> pa.Table:
    return _bm25(sf_dir, BM25_QUERIES["q_scan_filter_sort"])


def doc_bm25_customer(sf_dir: str) -> pa.Table:
    return _bm25(sf_dir, BM25_QUERIES["q_customer"])


# -- hybrid retrieval --------------------------------------------------------

HYBRID_TERMS = BM25_QUERIES["q_hash_join"]
HYBRID_K1 = 50   # BM25 candidate depth
HYBRID_K = 10    # final top-k
HYBRID_DIM = 16  # feature-hash embedding dim (stages/embed.py contract)


def doc_hybrid_rerank(sf_dir: str) -> pa.Table:
    """Hybrid retrieval: lexical candidate generation + dense re-rank —
    BM25 top-``HYBRID_K1`` candidates (index-accelerated, oracle tie
    order like ``_bm25``) re-ranked by the INTEGER feature-hash embedding
    dot product (stages/embed.py projection, un-normalized counts)
    between each candidate document and the query text; final order
    (dot desc, score_t4 desc, doc_id asc) top-``HYBRID_K``.

    All re-rank arithmetic is int64 (integer doc vectors x integer query
    vector), so the DuckDB oracle matches bit-for-bit. Scale shape: the
    candidate set is top-k1 — bounded small by construction — so the
    embedding pass reads only the candidate rows (a parquet ``isin``
    filter on their ids, as ``_pruned_text_scan`` does), and the
    final rerank is a k1-row driver sort, not a corpus operation.
    """
    from textindex_ray.stages.embed import EmbedDocs

    cand = _bm25(sf_dir, HYBRID_TERMS, HYBRID_K1)
    cand_ids = cand.column("doc_id").to_numpy()
    cand_scores = cand.column("score_t4").to_numpy()
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "score_t4": pa.array([], pa.int64()),
         "dot": pa.array([], pa.int64())}
    )
    if cand_ids.size == 0:
        return empty

    enc = EmbedDocs(d=HYBRID_DIM, normalize=False)
    qv = enc._vec(" ".join(HYBRID_TERMS))

    def cand_dots(batch: pa.Table) -> pa.Table:
        # enc rides the closure: one instance per task, its token memo
        # reused across the task's batches
        dots = np.fromiter(
            (int(enc._vec(t) @ qv) for t in batch.column("text").to_pylist()),
            np.int64, batch.num_rows,
        )
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()),
             "dot": pa.array(dots, pa.int64())}
        )

    got = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
            # candidate-pruned scan: row-group pruning at the read
            filter=pc.field("doc_id").isin(sorted(int(i) for i in cand_ids)),
        )
        .map_batches(cand_dots, batch_format="pyarrow")
        .to_pandas()  # <= k1 rows by construction
    )
    dot_by_id = dict(zip(got["doc_id"], got["dot"]))
    dots = np.array([dot_by_id[int(i)] for i in cand_ids], np.int64)
    order = np.lexsort((cand_ids, -cand_scores, -dots))[:HYBRID_K]
    return pa.table(
        {"doc_id": pa.array(cand_ids[order], pa.int64()),
         "score_t4": pa.array(cand_scores[order], pa.int64()),
         "dot": pa.array(dots[order], pa.int64())}
    )


# -- metadata-filtered retrieval ---------------------------------------------

FILTER_LANG = "de"


def doc_bm25_filtered(sf_dir: str, lang: str = FILTER_LANG,
                      k: int = 10) -> pa.Table:
    """Metadata-filtered retrieval (faceted search): BM25 scoring with
    FULL-corpus statistics (df/N/avgdl unchanged — standard
    filtered-search semantics), the result set restricted to documents
    whose ``lang`` equals ``lang``, then top-k by (score desc, doc_id).

    Scale shape: the pruned (doc_id, lang) metadata column STREAMS past
    the driver-held candidate arrays (np.isin per batch — no
    corpus-sized id set ever materializes on the driver); the candidate
    arrays themselves are bounded by the query's matching docs, the same
    bound the reader's scoring surface already carries.
    """
    r = documents_reader(sf_dir)
    terms = BM25_QUERIES["q_scan_filter_sort"]
    all_ids, all_scores = r.bm25_scores(terms)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "score_t4": pa.array([], pa.int64())}
    )
    if all_ids.size == 0:
        return empty
    orig = _map_ids(r, all_ids)
    mask = np.zeros(orig.size, bool)
    meta = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    ).filter(expr="lang == %r" % lang)
    for b in meta.iter_batches(batch_format="pyarrow"):
        mask |= np.isin(orig, b.column("doc_id").to_numpy())
    if not mask.any():
        return empty
    orig, scores = orig[mask], all_scores[mask]
    kk = min(k, orig.size)
    kth = np.partition(scores, orig.size - kk)[orig.size - kk]
    keep = np.flatnonzero(scores >= kth)
    order = np.lexsort((orig[keep], -scores[keep]))[:k]
    return pa.table(
        {"doc_id": pa.array(orig[keep][order], pa.int64()),
         "score_t4": pa.array(
             np.floor(scores[keep][order] * 1e4).astype(np.int64), pa.int64())}
    )


# -- positional-index phrase search ------------------------------------------

def _positions_store(sf_dir: str) -> str:
    """Build (or reuse) the positional store over sf_dir's documents —
    same /tmp cache contract as documents_reader (keyed by git HEAD)."""
    from textindex_ray.index.positions import build_positions

    key = os.path.abspath(sf_dir)
    out = os.path.join(
        "/tmp/textindex_ray_cache",
        "pos-%s-%s" % (_code_tag(), key.strip("/").replace("/", "_")),
    )
    if not os.path.exists(os.path.join(out, "meta.json")):
        build_positions(documents_ds(sf_dir), out)
    return out


def doc_phrase_positions(sf_dir: str) -> pa.Table:
    """Index-level phrase matching: 'hash join' answered from the
    persisted positional store by integer position algebra — candidate
    text is never rescanned (contrast doc_phrase's pruned regex verify).
    Adjacency is defined on the unfiltered \\pL+ token stream, the SQL
    oracle's generate_series positions; on the testdata charset this
    coincides with doc_phrase's regex semantics (cross-checked in
    tests)."""
    from textindex_ray.index.positions import phrase_docs

    return phrase_docs(_positions_store(sf_dir), list(PHRASE))


def doc_proximity_positions(sf_dir: str) -> pa.Table:
    """Proximity from the positional store ('scan'/'filter' within
    PROX_K positions) — the no-rescan twin of doc_proximity; shares its
    SQL oracle verbatim."""
    from textindex_ray.index.positions import proximity_docs

    return proximity_docs(_positions_store(sf_dir), PROX[0], PROX[1], PROX_K)
