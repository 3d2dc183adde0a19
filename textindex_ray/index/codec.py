"""Posting-list codec: delta + varint (LEB128), vectorized with NumPy.

The reference stores posting chains as fixed 32-byte chunks of raw u32
file ids (/root/reference/src/index2/word_map.rs:13-21). This engine
stores canonical ascending docID runs, delta-encoded and
varint-compressed (the north-star format), packed into Arrow
``large_binary`` cells, one row per (term, chunk).

The codec works on whole columns, never on one chunk at a time:
``encode_chunks`` turns a (term, doc_id)-sorted postings batch into
every chunk row of the batch with one LEB128 pass over all values, and
``decode_chunks`` decodes any number of chunk rows with one pass over
the concatenated value buffer. On a Zipf vocabulary most chunks hold
one or two postings, so a per-chunk call (a few numpy allocations
each) would cost far more than the bytes it encodes. The per-value
functions (``varint_encode``, ``delta_encode``, ...) share the same
kernels and encode or decode one stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_U64 = np.uint64
_MASK7 = _U64(0x7F)
# LEB128 length thresholds: a value needs k+1 bytes iff it is >= 2**(7k)
_LEB_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=_U64)


def _leb128(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 bytes of every value of a uint64 array, written back to
    back, and the byte offset of each value (size + 1 entries)."""
    nbytes = 1 + np.searchsorted(_LEB_LIMITS, v, side="right")
    offsets = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    out = np.empty(offsets[-1], dtype=np.uint8)
    for k in range(int(nbytes.max()) if v.size else 0):
        sel = np.flatnonzero(nbytes > k) if k else slice(None)
        byte = ((v[sel] >> _U64(7 * k)) & _MASK7).astype(np.uint8)
        byte[nbytes[sel] > k + 1] |= 0x80
        out[offsets[:-1][sel] + k] = byte
    return out, offsets


def _leb128_decode(b: np.ndarray) -> np.ndarray:
    """Decode a uint8 array of back-to-back LEB128 values."""
    if b.size == 0:
        return np.empty(0, dtype=_U64)
    if b[-1] >= 0x80:
        raise ValueError("truncated varint stream: last byte has continuation bit set")
    if not (b & 0x80).any():
        # fast path: every value is a single byte (dense docID deltas and
        # small tfs — the overwhelmingly common case)
        return b.astype(_U64)
    ends = np.flatnonzero(b < 0x80)
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    spans = ends - starts + 1
    pos_in_span = np.arange(b.size, dtype=np.int64) - np.repeat(starts, spans)
    parts = (b.astype(_U64) & _MASK7) << (_U64(7) * pos_in_span.astype(_U64))
    return np.add.reduceat(parts, starts)


def varint_encode(vals: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array (vectorized)."""
    return _leb128(np.ascontiguousarray(vals, dtype=_U64))[0].tobytes()


def varint_decode(buf: bytes) -> np.ndarray:
    """Decode LEB128 bytes into a uint64 array (vectorized).

    Raises ValueError on a truncated stream (trailing continuation byte):
    a corrupted chunk must fail loudly at decode, not silently drop the
    tail and surface later as wrong query results.
    """
    return _leb128_decode(np.frombuffer(buf, dtype=np.uint8))


def delta_encode(sorted_ids: np.ndarray) -> bytes:
    """Delta + varint encode an ascending uint64 array."""
    a = np.ascontiguousarray(sorted_ids, dtype=_U64)
    if a.size == 0:
        return b""
    d = np.empty_like(a)
    d[0] = a[0]
    np.subtract(a[1:], a[:-1], out=d[1:])
    return varint_encode(d)


def delta_decode(buf: bytes) -> np.ndarray:
    d = varint_decode(buf)
    return np.cumsum(d, dtype=_U64)


def encode_tfs(tfs: np.ndarray) -> bytes:
    """Varint-encode term frequencies (no delta; tfs are small)."""
    return varint_encode(tfs)


def decode_tfs(buf: bytes) -> np.ndarray:
    return varint_decode(buf)


def _empty_chunks() -> pa.Table:
    return pa.table(
        {
            "term": pa.array([], pa.string()),
            "first_doc": pa.array([], pa.uint64()),
            "last_doc": pa.array([], pa.uint64()),
            "n": pa.array([], pa.uint32()),
            "max_tf": pa.array([], pa.uint32()),
            "min_dl": pa.array([], pa.uint32()),
            "cf": pa.array([], pa.uint64()),
            "docs": pa.array([], pa.large_binary()),
            "tfs": pa.array([], pa.large_binary()),
        }
    )


def _binary_cells(data: np.ndarray, cell_offsets: np.ndarray) -> pa.Array:
    """A large_binary array whose cell i is data[cell_offsets[i]:cell_offsets[i+1]]."""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        cell_offsets.size - 1,
        [None, pa.py_buffer(cell_offsets.astype(np.int64)), pa.py_buffer(data)],
    )


def encode_chunks(batch: pa.Table, chunk_size: int) -> pa.Table:
    """Encode a (term, doc_id)-sorted (term, doc_id, tf, dl) batch into
    posting chunk rows, every chunk of the batch in one numpy pass.

    Each term run is cut into chunks of ``chunk_size`` postings. A
    chunk's first delta is its absolute first docID, so every chunk is a
    complete varint stream. A term whose postings span several batches
    (a range-partitioned sort) gets chunk rows from each, with disjoint,
    ordered doc ranges: that is the index format, so batch boundaries
    need no special casing.

    Chunks store (max_tf, min_dl): the block-max WAND bound
    idf * max_tf*(k1+1)/(max_tf + k1*(1-b+b*min_dl/avgdl)) is computed at
    query time (impact is increasing in tf and decreasing in dl, so the
    pair gives a valid upper bound), so encoding needs no corpus stats.
    """
    n = batch.num_rows
    if n == 0:
        return _empty_chunks()
    terms = batch.column("term").combine_chunks()
    codes = pc.dictionary_encode(terms).indices.to_numpy()
    doc_ids = batch.column("doc_id").to_numpy().astype(_U64)
    tfs = batch.column("tf").to_numpy().astype(_U64)
    dls = batch.column("dl").to_numpy().astype(_U64)

    run_starts = np.flatnonzero(np.diff(codes, prepend=-1))
    run_lens = np.diff(run_starts, append=n)
    pos_in_run = np.arange(n) - np.repeat(run_starts, run_lens)
    starts = np.flatnonzero(pos_in_run % chunk_size == 0)
    bounds = np.append(starts, n)

    deltas = np.empty(n, dtype=_U64)
    deltas[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[starts] = doc_ids[starts]

    vals, byte_offs = _leb128(np.concatenate((deltas, tfs)))
    docs_end = byte_offs[n]
    return pa.table(
        {
            "term": terms.take(pa.array(starts)).cast(pa.string()),
            "first_doc": pa.array(doc_ids[starts], pa.uint64()),
            "last_doc": pa.array(doc_ids[bounds[1:] - 1], pa.uint64()),
            "n": pa.array(np.diff(bounds).astype(np.uint32), pa.uint32()),
            "max_tf": pa.array(np.maximum.reduceat(tfs, starts).astype(np.uint32)),
            "min_dl": pa.array(np.minimum.reduceat(dls, starts).astype(np.uint32)),
            "cf": pa.array(np.add.reduceat(tfs, starts), pa.uint64()),
            "docs": _binary_cells(vals[:docs_end], byte_offs[bounds]),
            "tfs": _binary_cells(vals[docs_end:], byte_offs[n + bounds] - docs_end),
        }
    )


def _cell_bytes(col) -> np.ndarray:
    """The concatenated cell bytes of a (large_)binary array or chunked
    array, read from its value buffers (array offset respected), with no
    per-cell Python objects."""
    if isinstance(col, pa.ChunkedArray):
        parts = [_cell_bytes(c) for c in col.chunks]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, np.uint8)
    if len(col) == 0:
        return np.empty(0, np.uint8)
    _, offs, data = col.buffers()
    odt = np.dtype(np.int64 if pa.types.is_large_binary(col.type) else np.int32)
    o = np.frombuffer(offs, dtype=odt, count=len(col) + 1, offset=col.offset * odt.itemsize)
    if data is None:
        return np.empty(0, np.uint8)
    return np.frombuffer(data, dtype=np.uint8)[o[0] : o[-1]]


def cell_buffers(col) -> tuple[np.ndarray, np.ndarray]:
    """``_cell_bytes(col)`` and the byte offset of each cell in it (len + 1
    entries, starting at 0), so one cell is a slice of the bytes."""
    offsets = np.zeros(len(col) + 1, np.int64)
    np.cumsum(pc.binary_length(col).to_numpy(zero_copy_only=False), out=offsets[1:])
    return _cell_bytes(col), offsets


def decode_chunks(rows: pa.Table):
    """Decode chunk rows in ONE vectorized pass -> (doc_ids, tfs), each
    uint64 in row order; tfs is None when ``rows`` has no ``tfs`` column.
    See ``decode_streams``."""
    has_tfs = rows.schema.get_field_index("tfs") >= 0
    return decode_streams(
        _cell_bytes(rows.column("docs")),
        _cell_bytes(rows.column("tfs")) if has_tfs else None,
        rows.column("n").to_numpy(),
    )


def decode_streams(docs: np.ndarray, tfs, n_col: np.ndarray):
    """Decode the back-to-back ``docs`` (and ``tfs``, unless None) bytes
    of consecutive chunks holding ``n_col`` postings each -> (doc_ids,
    tfs), uint64.

    Each chunk is a complete varint stream (its first delta is the
    absolute first docID), so the concatenation of all chunk buffers is
    itself a valid varint stream: one decode over the whole value buffer
    yields every delta. Chunk boundaries in VALUE space come from the
    stored per-chunk posting count ``n``; a global cumsum minus each
    chunk's preceding cumsum value reconstructs all absolute docIDs (the
    first delta of each chunk being absolute means the subtraction
    cancels the previous chunks' contribution exactly). A decoded count
    that differs from the sum of ``n`` raises ValueError.
    """
    n_col = n_col.astype(np.int64)
    want = int(n_col.sum())

    deltas = _leb128_decode(docs)
    if deltas.size != want:
        raise ValueError(
            "corrupt chunk(s): decoded %d postings, stored n sum=%d"
            % (deltas.size, want)
        )
    ids = deltas.cumsum()
    if want and len(n_col) > 1:
        # subtract from each chunk the cumsum just before its start
        # (clipped: a trailing chunk with n=0 repeats nothing)
        s = np.minimum(np.cumsum(n_col) - n_col, want - 1)
        ids -= np.repeat(ids[s] - deltas[s], n_col)

    if tfs is None:
        return ids, None
    tfs = _leb128_decode(tfs)
    if tfs.size != want:
        raise ValueError(
            "corrupt chunk(s): decoded %d tfs, stored n sum=%d" % (tfs.size, want)
        )
    return ids, tfs
