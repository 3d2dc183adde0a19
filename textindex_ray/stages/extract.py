"""Ray Data stages: classification and extract/tokenize.

Pipeline position (SURVEY.md §3.1 Ray design):

    read_parquet(corpus) -> map_batches(classify_batch)     # stateless task
                         -> map_batches(extract_tokenize,   # stateless task
                                        fn_kwargs={...})

Both stages are plain functions run as Ray tasks. The stopword set,
entity tables and compiled regexes are module globals of the kernel, so
each worker process loads them once and a task carries no state; task
workers come from Ray's warm worker pool, where this import is already
paid, while an actor pool would start (and tear down) its own workers on
every build. Batches are ``pyarrow`` (zero-copy from the object store);
per-document parsing is inherently sequential per row, parallelism is
across rows/batches.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from textindex_ray.kernel.classify import (
    classify_bytes,
    classify_bytes_batch,
    decode_lossy,
    DOCTYPE_HTML,
    DOCTYPE_IGNORE,
)
from textindex_ray.kernel.html_extract import extract_html_text
from textindex_ray.kernel.txt_tokenize import tokenize_counts


def classify_batch(batch: pa.Table) -> pa.Table:
    """Add a ``doctype`` column (html/text/ignore) from the raw bytes (O2),
    vectorized (Arrow binary slice + numpy prefix/control scans)."""
    return batch.append_column(
        "doctype", classify_bytes_batch(batch.column("html"))
    )


def url_bucket(urls, num_buckets: int) -> np.ndarray:
    """Deterministic md5-based bucket per url.

    bucket = int(md5(url)[:4 hex chars], 16) % num_buckets — reproducible
    in DuckDB as ``('0x' || substr(md5(url), 1, 4))::BIGINT % num_buckets``,
    which is what the correctness oracle uses.
    """
    md5 = hashlib.md5
    out = np.fromiter(
        (
            int.from_bytes(md5(u.encode("utf-8")).digest()[:2], "big")
            for u in urls
        ),
        np.int64,
        len(urls),
    )
    return out % num_buckets


def extract_tokenize(
    batch: pa.Table, *, num_buckets: int, keep_text: bool = False
) -> pa.Table:
    """Raw pages -> per-doc term lists (O3-O11).

    Input columns: url, html[, doctype]; without ``doctype`` the batch is
    classified inline (the classifier fused into this stage). Output: one
    row per non-ignored document: (url, bucket, doctype, dl, n_words,
    terms:list<string>, tfs:list<uint32>[, extracted_text]).

    ``keep_text=True`` additionally emits the extracted text column (the
    byte-identity artifact) — used by conformance tests; off in the bulk
    build to keep staging compact.
    """
    urls = batch.column("url").to_pylist()
    raws = batch.column("html").to_pylist()
    if "doctype" in batch.column_names:
        doctypes = batch.column("doctype").to_pylist()
    else:
        doctypes = [classify_bytes(r) for r in raws]

    out_url, out_doctype, out_dl, out_nw = [], [], [], []
    out_terms, out_tfs, out_text = [], [], []
    for url, raw, dt in zip(urls, raws, doctypes):
        if dt == DOCTYPE_IGNORE:
            continue
        s = decode_lossy(raw)
        text = extract_html_text(s) if dt == DOCTYPE_HTML else s
        tf, dl, n_words = tokenize_counts(text)
        terms = sorted(tf)  # deterministic order inside the list
        out_url.append(url)
        out_doctype.append(dt)
        out_dl.append(dl)
        out_nw.append(n_words)
        out_terms.append(terms)
        out_tfs.append([tf[t] for t in terms])
        if keep_text:
            out_text.append(text)

    cols = {
        "url": pa.array(out_url, pa.string()),
        "bucket": pa.array(url_bucket(out_url, num_buckets), pa.int64()),
        "doctype": pa.array(out_doctype, pa.string()),
        "dl": pa.array(out_dl, pa.uint32()),
        "n_words": pa.array(out_nw, pa.uint32()),
        "terms": pa.array(out_terms, pa.list_(pa.string())),
        "tfs": pa.array(out_tfs, pa.list_(pa.uint32())),
    }
    if keep_text:
        cols["extracted_text"] = pa.array(out_text, pa.string())
    return pa.table(cols)


class ExtractTokenize:
    """``extract_tokenize`` with its keyword arguments bound, for callers
    that run the kernel in-process (the benchmark's kernel layer)."""

    def __init__(self, num_buckets: int = 4096, keep_text: bool = False):
        self.num_buckets = num_buckets
        self.keep_text = keep_text

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_tokenize(
            batch, num_buckets=self.num_buckets, keep_text=self.keep_text
        )
