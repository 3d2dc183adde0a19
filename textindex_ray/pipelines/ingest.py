"""Raw web corpus -> documents-shaped table: the ingest bridge.

``index.build.read_corpus`` turns any supported source (parquet
corpus, directory walk, JSONL dumps, WARC/WET archives) into the
``(url, html)`` page relation; this module extracts text with the
byte-identity kernel (classify -> lossy decode -> HTML/txt grammar,
reference behavior per SURVEY §2.2) and emits the ``documents`` table
shape every curation / dedup / textstats operator in this repo
consumes:

    (doc_id:int64, url:string, text:string, lang:string,
     source:string, n_chars:int64)

so a Common-Crawl archive can flow straight into `pipelines.curate`,
`dedup.*`, `textstats.*`, `pack_sequences`, … without bespoke glue:

    ds = ingest_corpus("crawl/", input_format="warc")
    curated = curate(ds, keep_text=True)

Column semantics:

- ``doc_id``: deterministic content-independent id from md5(url)
  (cluster-size- and partitioning-independent, stable across
  re-ingests; SQL-reproducible — see :func:`url_doc_id`). The
  documents table keys on doc_id everywhere, so ids must not depend
  on row order — and must be UNIQUE: re-crawled / cross-segment
  duplicate captures of one url are collapsed keep-one by the
  ``dedup_urls`` pass (on by default), mirroring the index build's
  first-source-wins url semantics.
- ``lang``: the same stopword-marker heuristic as
  ``textstats.lang_id_batch`` (shared marker tables).
- ``source``: the url authority (scheme-less host) — the grouping key
  `source_cap_sample` / `mixture_sample` expect.

Scale: one stateless map over the streamed page relation (classify is
the vectorized batch kernel; the extract grammar is the same per-row
sequential cost the index build pays — parallelism is across rows),
plus, when ``dedup_urls`` is on, ONE coarse hash(doc_id) shuffle for
the keep-one collapse (the exact_dedup partition-bucket shape — no
driver state). Output is written hive-sharded by `jobs/ingest.py`.
"""

from __future__ import annotations

import hashlib
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from textindex_ray.functions.textstats import LANG_MARKERS, _tokens
from textindex_ray.kernel.classify import (
    DOCTYPE_HTML,
    DOCTYPE_IGNORE,
    classify_bytes_batch,
    decode_lossy,
)
from textindex_ray.kernel.html_extract import extract_html_text

DOCUMENTS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_chars", pa.int64()),
    ]
)


def url_doc_id(url: str) -> int:
    """First 8 bytes of md5(url) shifted right one bit — the TOP 63
    bits of the leading half of the digest, as a non-negative int64.
    DuckDB twin: ``(('0x' || substr(md5(url), 1, 16))::UBIGINT >> 1)
    ::BIGINT`` (asserted equivalent in tests/test_ingest.py)."""
    return int.from_bytes(hashlib.md5(url.encode("utf-8")).digest()[:8], "big") >> 1


def url_source(url: str) -> str:
    """The url authority (host[:port]); a bare path keys under ''."""
    return urlsplit(url).netloc


def _predict_lang(text: str) -> str:
    toks = _tokens(text)
    best_lang, best_n = "und", 0
    for lang in ("de", "en", "fr"):  # lang_id_batch's fixed tie-break order
        n = sum(1 for w in toks if w in LANG_MARKERS[lang])
        if n > best_n:
            best_lang, best_n = lang, n
    return best_lang


def extract_documents_batch(batch: pa.Table) -> pa.Table:
    """(url, html[, doctype]) page rows -> documents rows; ignored
    doctypes (binary junk per the reference sniff) are dropped."""
    urls = batch.column("url").to_pylist()
    raws = batch.column("html").to_pylist()
    if "doctype" in batch.column_names:
        doctypes = batch.column("doctype").to_pylist()
    else:
        doctypes = classify_bytes_batch(batch.column("html")).to_pylist()

    out_id, out_url, out_text = [], [], []
    out_lang, out_src, out_nc = [], [], []
    for url, raw, dt in zip(urls, raws, doctypes):
        if dt == DOCTYPE_IGNORE:
            continue
        s = decode_lossy(raw)
        text = extract_html_text(s) if dt == DOCTYPE_HTML else s
        out_id.append(url_doc_id(url))
        out_url.append(url)
        out_text.append(text)
        out_lang.append(_predict_lang(text))
        out_src.append(url_source(url))
        out_nc.append(len(text))
    return pa.Table.from_pydict(
        {
            "doc_id": out_id,
            "url": out_url,
            "text": out_text,
            "lang": out_lang,
            "source": out_src,
            "n_chars": out_nc,
        },
        schema=DOCUMENTS_SCHEMA,
    )


def _keep_first(g: pa.Table) -> pa.Table:
    """One partition of the url dedup: keep the first row of each doc_id
    run after a full sort (deterministic, whatever the block layout).

    doc_id is a 63-bit url hash, so two distinct urls can share one; a
    run holding more than one url is a hash collision, not a re-crawl,
    and raises ValueError naming both urls instead of silently dropping
    a document."""
    t = g.sort_by(
        [("doc_id", "ascending"), ("text", "ascending"),
         ("lang", "ascending"), ("source", "ascending"),
         ("n_chars", "ascending")]
    )
    ids = t.column("doc_id").to_numpy()
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    urls = t.column("url").combine_chunks()
    run_first = np.flatnonzero(first)[np.cumsum(first) - 1]
    clash = np.flatnonzero(
        pc.not_equal(urls, urls.take(pa.array(run_first))).to_numpy(zero_copy_only=False)
    )
    if clash.size:
        i = int(clash[0])
        raise ValueError(
            "url hash collision: doc_id %d is shared by %r and %r"
            % (ids[i], urls[int(run_first[i])].as_py(), urls[i].as_py())
        )
    return t.filter(pa.array(first)).drop_columns(["part"])


def _dedup_url_rows(ds: "ray.data.Dataset", num_partitions: int):
    """Collapse duplicate captures of one url (same doc_id) keep-one:
    one coarse hash(doc_id) % P shuffle, per-partition sort + run-first
    (the exact_dedup_groups shape). Deterministic winner = the
    lexicographically smallest (text, lang, source, n_chars) row, so
    the result is independent of block layout and arrival order."""
    P = int(num_partitions)

    def add_part(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy().astype(np.uint64)
        return b.append_column(
            "part",
            pa.array((ids % np.uint64(P)).astype(np.int32), pa.int32()),
        )

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_keep_first, batch_format="pyarrow")
    )


def ingest_corpus(
    corpus_path: str,
    *,
    input_format: str = "warc",
    concurrency: int | None = None,
    dedup_urls: bool = True,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Any raw corpus -> streamed documents-shaped Dataset.

    ``input_format`` is read_corpus's: "parquet" | "files" | "jsonl" |
    "warc".  The extract stage is a STATELESS batch function (no model
    / table load beyond module globals), so it runs as Ray tasks —
    ``concurrency`` merely caps concurrent tasks when given
    (jobs/ingest.py forwards --actors); the actor-pool form is only
    needed for stateful stages per the repo's sizing rules.

    ``dedup_urls=True`` (default) enforces the documents-table
    uniqueness contract when one url was captured more than once
    (re-crawls, overlapping WARC segments) at the cost of one coarse
    shuffle; pass False for a known-unique source to keep the bridge
    shuffle-free.
    """
    from textindex_ray.index.build import read_corpus

    ds = read_corpus(corpus_path, input_format)
    kwargs = {"batch_format": "pyarrow"}
    if concurrency:
        kwargs["concurrency"] = concurrency
    out = ds.map_batches(extract_documents_batch, **kwargs)
    if dedup_urls:
        # empty guard: a map_groups whose every group is empty loses
        # the schema (CLAUDE.md hazard); probe_count materializes the
        # extracted relation once, which the dedup shuffle then reuses
        from textindex_ray.functions._util import probe_count

        import ray.data

        out, n = probe_count(out)
        if n == 0:
            return ray.data.from_arrow(DOCUMENTS_SCHEMA.empty_table())
        out = _dedup_url_rows(out, num_partitions)
    return out
