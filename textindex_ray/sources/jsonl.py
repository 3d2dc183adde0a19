"""JSONL corpus source — the webtext interchange format.

Web-scale text corpora ship as newline-delimited JSON (one document
object per line: Common-Crawl derivatives, exported crawl dumps), so the
engine accepts it as a third ingest format next to the Parquet corpus
table and the reference-style directory walk (sources/files.py; the
reference itself only walks directories — /root/reference/src/proc3/
threads.rs:203-315 — JSONL is the scale-era equivalent of that source).

``ray.data.read_json`` streams the files block-wise through Arrow's
native NDJSON reader (no Python-loop parsing), and a zero-copy adapter
projects whatever document field the dump uses onto the engine's
(url:string, html:binary) corpus schema — identical downstream to the
Parquet path: ``extract_tokenize``'s 256-byte sniff classifies each
payload as HTML or text, so both {"url", "html"} and {"url", "text"}
dumps work unchanged.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

TEXT_FIELDS = ("html", "text", "content", "raw_content")


def jsonl_paths(path: str) -> list[str]:
    """Deterministic (sorted) listing of .json/.jsonl files under path
    (or [path] itself when it's a file)."""
    from textindex_ray.sources import walk_paths

    return walk_paths(path, (".json", ".jsonl"))


def jsonl_has_rows(path: str) -> bool:
    """Driver-side empty-corpus probe: True iff any file contains a
    non-blank line. Reads at most one buffer per file — never parses
    the corpus just to count it."""
    for p in jsonl_paths(path):
        try:
            with open(p, "rb") as f:
                while True:
                    buf = f.read(1 << 16)
                    if not buf:
                        break
                    if buf.strip():
                        return True
        except OSError:
            continue
    return False


def read_jsonl_corpus(
    path: str, *, url_field: str = "url", text_field: str | None = None
) -> "ray.data.Dataset":
    """NDJSON document dump -> (url:string, html:binary) corpus Dataset.

    ``text_field=None`` auto-detects the payload column from the common
    dump conventions (html > text > content > raw_content). Null urls /
    payloads become empty strings (deterministic docID hashing needs a
    concrete url value; the classifier treats empty payloads as empty
    text docs).
    """
    paths = jsonl_paths(path)
    if not paths:
        return ray.data.from_arrow(
            pa.table({"url": pa.array([], pa.string()),
                      "html": pa.array([], pa.binary())})
        )
    ds = ray.data.read_json(paths)

    def adapt(batch: pa.Table) -> pa.Table:
        if url_field not in batch.column_names:
            raise ValueError(
                "jsonl corpus rows lack the %r field (have: %s); pass "
                "url_field=" % (url_field, batch.column_names)
            )
        # a dump mixing conventions (some rows {"url","html"}, some
        # {"url","text"}) union-reads into BOTH columns with nulls;
        # coalesce across the conventions in priority order so no row's
        # payload is silently blanked by a null sibling column
        flds = (
            [text_field] if text_field is not None
            else [c for c in TEXT_FIELDS if c in batch.column_names]
        )
        flds = [c for c in flds if c in batch.column_names]
        if not flds:
            raise ValueError(
                "jsonl corpus rows lack a document payload field "
                "(tried %s; have: %s); pass text_field="
                % (list(TEXT_FIELDS) if text_field is None else [text_field],
                   batch.column_names)
            )
        url = pc.fill_null(batch.column(url_field).cast(pa.string()), "")
        cols = [batch.column(c).cast(pa.string()) for c in flds]
        if len(cols) == 1:
            payload = cols[0]
        else:
            # exporters that emit every key write "" (not null) for the
            # unused convention — treat empty strings as absent too, or
            # an "html": "" sibling would still blank a real "text"
            cols = [
                pc.if_else(pc.equal(c, ""), pa.scalar(None, pa.string()), c)
                for c in cols
            ]
            payload = pc.coalesce(*cols)
        payload = pc.fill_null(payload, "")
        return pa.table({"url": url, "html": payload.cast(pa.binary())})

    return ds.map_batches(adapt, batch_format="pyarrow")
