"""Property tests for the posting codec: round-trip over arbitrary
uint64 arrays (multi-byte varints included), loud truncation failure,
and the batch chunk codec (``encode_chunks`` / ``decode_chunks``)
against a per-chunk oracle."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from textindex_ray.index.codec import (
    _empty_chunks,
    cell_buffers,
    decode_chunks,
    delta_decode,
    delta_encode,
    decode_tfs,
    encode_chunks,
    encode_tfs,
    varint_decode,
    varint_encode,
)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=200)
)
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(vals):
    a = np.array(vals, dtype=np.uint64)
    assert varint_decode(varint_encode(a)).tolist() == vals


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), min_size=1, max_size=200)
)
@settings(max_examples=200, deadline=None)
def test_delta_roundtrip_sorted(vals):
    a = np.sort(np.array(vals, dtype=np.uint64))
    out = delta_decode(delta_encode(a))
    assert out.tolist() == a.tolist()


@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_tfs_roundtrip(vals):
    a = np.array(vals, dtype=np.uint64)
    assert decode_tfs(encode_tfs(a)).tolist() == vals


@given(st.lists(st.integers(min_value=128, max_value=(1 << 64) - 1), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_truncated_multibyte_varint_raises(vals):
    """Chopping the last byte off a multi-byte-terminated stream leaves a
    trailing continuation byte -> must raise, not decode short."""
    a = np.array(vals, dtype=np.uint64)
    buf = varint_encode(a)
    assert buf[-1] < 0x80 and buf[-2] >= 0x80  # last value is multi-byte
    with pytest.raises(ValueError):
        varint_decode(buf[:-1])


def test_single_byte_stream_chop_is_structural():
    """A stream of single-byte varints has no redundancy — chopping one
    byte yields a VALID shorter stream. Corruption detection for that
    case is ENFORCED at the chunk layer: the reader compares decoded
    length against each chunk row's stored ``n`` (codec.decode_chunks,
    which every reader path calls)."""
    buf = varint_encode(np.array([1, 2, 3], dtype=np.uint64))
    assert varint_decode(buf[:-1]).tolist() == [1, 2]


def test_chunk_n_mismatch_raises():
    ids = np.array([1, 2, 3], dtype=np.uint64)
    rows = pa.table(
        {
            "term": pa.array(["t"], pa.string()),
            "first_doc": pa.array([1], pa.uint64()),
            "last_doc": pa.array([3], pa.uint64()),
            "n": pa.array([4], pa.uint32()),  # wrong: claims 4 postings
            "max_tf": pa.array([1], pa.uint32()),
            "min_dl": pa.array([1], pa.uint32()),
            "cf": pa.array([3], pa.uint64()),
            "docs": pa.array([delta_encode(ids)], pa.large_binary()),
            "tfs": pa.array([encode_tfs(np.ones(3, np.uint64))], pa.large_binary()),
        }
    )
    with pytest.raises(ValueError):
        decode_chunks(rows)


def _oracle_chunks(batch: pa.Table, chunk_size: int) -> pa.Table:
    """Per-chunk reference encoder: one delta_encode / encode_tfs call
    per (term, chunk), the layout encode_chunks must reproduce."""
    cols = {k: [] for k in _empty_chunks().column_names}
    terms = batch.column("term").to_pylist()
    ids = batch.column("doc_id").to_numpy()
    tfs = batch.column("tf").to_numpy().astype(np.uint64)
    dls = batch.column("dl").to_numpy()
    s = 0
    while s < len(terms):
        e = s
        while e < len(terms) and terms[e] == terms[s]:
            e += 1
        for cs in range(s, e, chunk_size):
            ce = min(cs + chunk_size, e)
            cols["term"].append(terms[s])
            cols["first_doc"].append(int(ids[cs]))
            cols["last_doc"].append(int(ids[ce - 1]))
            cols["n"].append(ce - cs)
            cols["max_tf"].append(int(tfs[cs:ce].max()))
            cols["min_dl"].append(int(dls[cs:ce].min()))
            cols["cf"].append(int(tfs[cs:ce].sum()))
            cols["docs"].append(delta_encode(ids[cs:ce]))
            cols["tfs"].append(encode_tfs(tfs[cs:ce]))
        s = e
    schema = _empty_chunks().schema
    return pa.table({k: pa.array(v, schema.field(k).type) for k, v in cols.items()})


# docIDs are bucket-prefixed (bucket << 36 | rank) with up to 256 buckets
_MAX_DOC = (255 << 36) + 2**36
_TERMS = st.sampled_from(["a", "ab", "b", "zeta", "é", "über", "日本", "ß"])


@st.composite
def postings_batches(draw):
    """A random (term, doc_id)-sorted postings batch: a few terms, each
    with distinct docIDs, tfs up to 2**20 (multi-byte varints)."""
    terms = draw(st.lists(_TERMS, min_size=0, max_size=4, unique=True))
    rows = []
    for t in sorted(terms):
        docs = draw(st.lists(st.integers(0, _MAX_DOC), min_size=1, max_size=12,
                             unique=True))
        for d in sorted(docs):
            rows.append((t, d, draw(st.integers(1, 1 << 20)),
                         draw(st.integers(0, 1 << 20))))
    return pa.table({
        "term": pa.array([r[0] for r in rows], pa.string()),
        "doc_id": pa.array([r[1] for r in rows], pa.uint64()),
        "tf": pa.array([r[2] for r in rows], pa.uint32()),
        "dl": pa.array([r[3] for r in rows], pa.uint32()),
    })


@given(postings_batches(), st.sampled_from([1, 2, 3, 1024]))
@settings(max_examples=300, deadline=None)
def test_encode_chunks_equals_per_chunk_oracle(batch, chunk_size):
    got = encode_chunks(batch, chunk_size)
    assert got.equals(_oracle_chunks(batch, chunk_size))
    if got.num_rows:
        ids, tfs = decode_chunks(got)
        assert ids.tolist() == batch.column("doc_id").to_pylist()
        assert tfs.tolist() == batch.column("tf").to_pylist()


def test_encode_chunks_edge_cases():
    one = pa.table({"term": pa.array(["x"]), "doc_id": pa.array([_MAX_DOC], pa.uint64()),
                    "tf": pa.array([1 << 20], pa.uint32()), "dl": pa.array([7], pa.uint32())})
    for cs in (1, 1024):
        assert encode_chunks(one, cs).equals(_oracle_chunks(one, cs))
    # one term whose run spans several chunks, then a non-ASCII term
    ids = [5 << 36 | i * 300 for i in range(10)] + [3, 9]
    run = pa.table({"term": pa.array(["hot"] * 10 + ["日本", "日本"]),
                    "doc_id": pa.array(ids, pa.uint64()),
                    "tf": pa.array(list(range(1, 13)), pa.uint32()),
                    "dl": pa.array([20] * 12, pa.uint32())})
    got = encode_chunks(run, 3)
    assert got.equals(_oracle_chunks(run, 3))
    assert got.column("n").to_pylist() == [3, 3, 3, 1, 2]
    empty = run.slice(0, 0)
    out = encode_chunks(empty, 3)
    assert out.num_rows == 0 and out.schema.equals(_empty_chunks().schema)


def test_decode_chunks_sliced_and_chunked():
    """decode_chunks and cell_buffers read the value buffers directly: a
    sliced table (non-zero array offset) and a multi-chunk column must
    decode exactly like each chunk row on its own."""
    ids = np.array([1 << 36 | i * 129 for i in range(40)], np.uint64)
    batch = pa.table({"term": pa.array(["t"] * 40), "doc_id": pa.array(ids),
                      "tf": pa.array(np.arange(1, 41) * 1000, pa.uint32()),
                      "dl": pa.array(np.full(40, 9), pa.uint32())})
    rows = encode_chunks(batch, 3)

    def per_row(t):
        return (
            [v for b in t.column("docs").to_pylist() for v in delta_decode(b).tolist()],
            [v for b in t.column("tfs").to_pylist() for v in decode_tfs(b).tolist()],
        )

    for t in (rows.slice(1), rows.slice(2, 5),
              pa.concat_tables([rows.slice(0, 4), rows.slice(4, 0), rows.slice(5)]),
              rows.slice(1).select(["n", "docs", "tfs"])):
        got_ids, got_tfs = decode_chunks(t)
        assert (got_ids.tolist(), got_tfs.tolist()) == per_row(t)
        # the per-cell byte offsets the WAND cursor slices single chunks by
        for col in ("docs", "tfs"):
            data, offs = cell_buffers(t.column(col))
            assert [data[a:b].tobytes() for a, b in zip(offs[:-1], offs[1:])] \
                == t.column(col).to_pylist()
    assert decode_chunks(rows.slice(2).select(["n", "docs"]))[1] is None
    chunked = pa.concat_tables([rows.slice(0, 4), rows.slice(4)])
    assert chunked.column("docs").num_chunks == 2
    assert decode_chunks(chunked)[0].tolist() == ids.tolist()
