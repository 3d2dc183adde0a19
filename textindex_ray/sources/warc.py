"""WARC corpus source — Common Crawl's native archive format.

The reference walks directory trees of loose .html/.txt files
(/root/reference/src/proc3/threads.rs:203-315); the web-scale
equivalent input is WARC (ISO 28500): Common Crawl ships ~90k
``.warc.gz`` files per crawl, each ~1 GB of concatenated gzip members,
one HTTP capture per member. This source reads those straight into the
engine's (url:string, html:binary) corpus schema.

Scale shape: one WARC file per read task (``read_binary_files`` — the
standard Common-Crawl sharding granularity; 90k files saturate any
fleet). Decompression is STREAMING (one gzip member at a time through
a bounded zlib buffer — a 1 GB .warc.gz never materializes its ~5 GB
decompressed form), record parsing is incremental (at most one record
buffered), and the explode stage is a GENERATOR that flushes a block
every ~32 MiB of payload so Ray streams the file's documents out with
backpressure instead of holding them all. Parsing is stdlib-only
(zlib/gzip) and per-file sequential — parallelism is across files,
like the reference's per-file extract loop.

Record semantics (WARC/1.0 + WARC/1.1):
- ``response`` records carry a raw HTTP response block: the HTTP
  headers are stripped, ``Transfer-Encoding: chunked`` bodies are
  de-chunked, and ``Content-Encoding: gzip/deflate`` bodies are
  decompressed (exact header-name + token matching — a
  ``Content-Type: application/gzip`` download is NOT decompressed;
  best-effort: a payload that fails to decode is kept raw and the
  downstream 256-byte sniff classifier degrades it).
- ``resource`` and ``conversion`` (WET) records carry the payload
  directly.
- everything else (request, metadata, warcinfo, revisit) is skipped.
- a record whose Content-Length extends past EOF (a truncated
  download) is DROPPED, never emitted short.
"""

from __future__ import annotations

import gzip
import os
import zlib

import pyarrow as pa

import ray.data

from textindex_ray.sources import walk_paths

_SKIP_TYPES = {b"request", b"metadata", b"warcinfo", b"revisit", b"continuation"}

_IN_CHUNK = 1 << 20       # compressed bytes fed to zlib per call
_OUT_CHUNK = 4 << 20      # max decompressed bytes produced per call
_FLUSH_BYTES = 32 << 20   # payload bytes per emitted Arrow block


def warc_paths(path: str) -> list[str]:
    """Deterministic (sorted) listing of .warc/.warc.gz files under
    path (or [path] itself when it's a file)."""
    return walk_paths(path, (".warc", ".warc.gz"))


def warc_has_records(path: str) -> bool:
    """Driver-side empty-corpus probe: True iff any file's first
    decompressed chunk contains a WARC version line. Never reads more
    than one buffer per file."""
    for p in warc_paths(path):
        try:
            with open(p, "rb") as f:
                head = f.read(1 << 16)
        except OSError:
            continue
        if head[:2] == b"\x1f\x8b":
            try:
                head = zlib.decompressobj(wbits=31).decompress(head, 1 << 16)
            except zlib.error:
                continue
        if b"WARC/" in head:
            return True
    return False


def _header_tokens(headers: bytes, name: bytes) -> list[bytes]:
    """Values of the exactly-named header (case-insensitive NAME match,
    comma-split lowercased value tokens) — never substring matching
    over the whole block."""
    toks = []
    for line in headers.split(b"\r\n"):
        k, _, v = line.partition(b":")
        if k.strip().lower() == name:
            toks.extend(t.strip().lower() for t in v.split(b","))
    return toks


def _dechunk(body: bytes) -> bytes:
    """Decode an HTTP/1.1 chunked transfer-encoded body. Raises
    ValueError on malformed framing (caller falls back to raw)."""
    out = []
    pos = 0
    while True:
        nl = body.index(b"\r\n", pos)
        size = int(body[pos:nl].split(b";")[0], 16)
        pos = nl + 2
        if size == 0:
            break
        if len(body) < pos + size:
            raise ValueError("truncated chunk")
        out.append(body[pos : pos + size])
        pos = pos + size + 2  # skip trailing CRLF
    return b"".join(out)


def _http_payload(block: bytes) -> bytes:
    """Raw HTTP response block -> entity body (headers stripped,
    chunked framing removed, gzip/deflate content decoded). Blocks
    that are not HTTP at all are returned unchanged."""
    if not block.startswith(b"HTTP/"):
        return block
    sep = block.find(b"\r\n\r\n")
    if sep < 0:
        return b""
    headers = block[:sep]
    body = block[sep + 4 :]
    if b"chunked" in _header_tokens(headers, b"transfer-encoding"):
        try:
            body = _dechunk(body)
        except (ValueError, IndexError):
            pass  # keep raw; the sniff classifier will degrade it
    enc = _header_tokens(headers, b"content-encoding")
    if b"gzip" in enc or b"x-gzip" in enc:
        try:
            body = gzip.decompress(body)
        except (OSError, EOFError, zlib.error):
            pass
    elif b"deflate" in enc:
        try:
            body = zlib.decompress(body)
        except zlib.error:
            try:
                body = zlib.decompress(body, -15)
            except zlib.error:
                pass
    return body


def _iter_decompressed(raw: bytes):
    """Yield decompressed chunks of a WARC file's bytes. Plain input
    yields once; gzip input (including concatenated per-record members)
    streams member-by-member through a bounded zlib buffer — peak
    memory is O(_OUT_CHUNK), never the full decompressed file. A
    truncated or corrupt tail ends the stream (its record is lost,
    matching the truncation-drop contract)."""
    if raw[:2] != b"\x1f\x8b":
        yield raw
        return
    n = len(raw)
    pos = 0
    pending = b""  # unused_data carried past a member boundary
    while pending or pos < n:
        d = zlib.decompressobj(wbits=31)
        data = b""
        while not d.eof:
            if d.unconsumed_tail:
                data = d.unconsumed_tail
            elif pending:
                data, pending = pending, b""
            elif pos < n:
                data = raw[pos : pos + _IN_CHUNK]
                pos += len(data)
            else:
                return  # truncated member
            try:
                out = d.decompress(data, _OUT_CHUNK)
            except zlib.error:
                return  # corrupt tail
            if out:
                yield out
        pending = d.unused_data


def iter_warc_records(chunks):
    """Incremental WARC/1.x record parser over an iterable of byte
    chunks -> yields (url, payload) for response/resource/conversion
    records. Buffers at most one record. Malformed or truncated tails
    end the scan (the broken record is dropped, earlier ones kept)."""
    buf = b""
    pos = 0
    it = iter(chunks)

    def fill() -> bool:
        nonlocal buf
        for chunk in it:
            if chunk:
                buf += chunk
                return True
        return False

    while True:
        if pos:
            buf = buf[pos:]
            pos = 0
        # skip inter-record CRLFs
        while True:
            while len(buf) - pos < 2:
                if not fill():
                    return
            if buf[pos : pos + 2] == b"\r\n":
                pos += 2
            else:
                break
        # header block
        while (he := buf.find(b"\r\n\r\n", pos)) < 0:
            if not fill():
                return  # truncated header: drop
        if not buf.startswith(b"WARC/", pos):
            return  # not a record boundary: stop at the garbage
        rtype = b""
        uri = b""
        length = -1
        for line in buf[pos:he].split(b"\r\n")[1:]:
            k, _, v = line.partition(b":")
            k = k.strip().lower()
            v = v.strip()
            if k == b"warc-type":
                rtype = v.lower()
            elif k == b"warc-target-uri":
                uri = v.strip(b"<>")  # WARC/1.0 writers often bracket it
            elif k == b"content-length":
                try:
                    length = int(v)
                except ValueError:
                    length = -1
        if length < 0:
            return
        end = he + 4 + length
        while len(buf) < end:
            if not fill():
                return  # Content-Length past EOF: drop, never emit short
        block = buf[he + 4 : end]
        pos = end
        if rtype in _SKIP_TYPES or not uri:
            continue
        payload = _http_payload(block) if rtype == b"response" else block
        yield uri.decode("utf-8", "replace"), payload


def parse_warc_bytes(raw: bytes) -> list[tuple[str, bytes]]:
    """One WARC file's bytes -> [(url, payload)] in record order
    (convenience/test form of the streaming iterators)."""
    return list(iter_warc_records(_iter_decompressed(raw)))


def read_warc_corpus(path: str) -> "ray.data.Dataset":
    """WARC file tree -> (url:string, html:binary) corpus Dataset —
    identical downstream to the Parquet/JSONL paths (the
    ``extract_tokenize`` sniff classifies each payload)."""
    paths = warc_paths(path)
    empty = pa.table(
        {"url": pa.array([], pa.string()), "html": pa.array([], pa.binary())}
    )
    if not paths:
        return ray.data.from_arrow(empty)
    ds = ray.data.read_binary_files(paths)

    def explode(batch: pa.Table):
        # generator stage: flush a block every _FLUSH_BYTES of payload
        # so one big WARC file streams out under backpressure instead
        # of materializing all its documents in the task heap
        urls: list[str] = []
        payloads: list[bytes] = []
        size = 0
        emitted = False
        for raw in batch.column("bytes").to_pylist():
            for u, p in iter_warc_records(_iter_decompressed(raw)):
                urls.append(u)
                payloads.append(p)
                size += len(p) + len(u)
                if size >= _FLUSH_BYTES:
                    yield pa.table(
                        {"url": pa.array(urls, pa.string()),
                         "html": pa.array(payloads, pa.binary())}
                    )
                    urls, payloads, size = [], [], 0
                    emitted = True
        if urls or not emitted:
            # always yield at least one (possibly empty) TYPED table so
            # an all-skipped file cannot produce a schema-less block
            yield pa.table(
                {"url": pa.array(urls, pa.string()),
                 "html": pa.array(payloads, pa.binary())}
            )

    return ds.map_batches(explode, batch_format="pyarrow")


def wet_record(uri: str, payload: bytes) -> bytes:
    """Serialize one WET ``conversion`` record (the Common-Crawl
    extracted-text convention) — the inverse of iter_warc_records for
    round-trippable curated-text export."""
    hdrs = [
        b"WARC/1.0",
        b"WARC-Type: conversion",
        b"WARC-Target-URI: " + uri.encode("utf-8"),
        b"Content-Length: %d" % len(payload),
    ]
    return b"\r\n".join(hdrs) + b"\r\n\r\n" + payload + b"\r\n\r\n"
