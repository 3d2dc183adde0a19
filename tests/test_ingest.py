"""Ingest bridge (pipelines/ingest.py): raw archives -> the
documents-shaped table the curation family consumes."""

import gzip
import hashlib
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from textindex_ray.pipelines.ingest import (
    extract_documents_batch,
    ingest_corpus,
    url_doc_id,
)


def _rec(rtype: bytes, uri: bytes | None, block: bytes) -> bytes:
    hdrs = [b"WARC/1.0", b"WARC-Type: " + rtype]
    if uri is not None:
        hdrs.append(b"WARC-Target-URI: " + uri)
    hdrs.append(b"Content-Length: %d" % len(block))
    return b"\r\n".join(hdrs) + b"\r\n\r\n" + block + b"\r\n\r\n"


def _http(body: bytes) -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + body


HTML = b"<html><p>the cat and the dog &amp; the bird is here</p></html>"
TXT = b"le chat et la la les pas est je avec un une aussi"
JUNK = bytes(range(32)) * 4  # control bytes -> DOCTYPE_IGNORE


def test_ingest_warc_to_documents(ray_session, tmp_path):
    d = tmp_path / "crawl"
    d.mkdir()
    with open(d / "part-0.warc.gz", "wb") as f:
        f.write(gzip.compress(_rec(
            b"response", b"http://a.example.com/page", _http(HTML))))
        f.write(gzip.compress(_rec(
            b"conversion", b"http://b.example.org:8080/t.txt", TXT)))
        f.write(gzip.compress(_rec(
            b"resource", b"http://junk.example.net/bin", JUNK)))

    docs = ingest_corpus(str(d), input_format="warc").to_pandas()
    assert list(docs.columns) == [
        "doc_id", "url", "text", "lang", "source", "n_chars"
    ]
    docs = docs.sort_values("url").reset_index(drop=True)
    # the binary page is classified ignore and dropped
    assert list(docs["url"]) == [
        "http://a.example.com/page", "http://b.example.org:8080/t.txt"
    ]

    # text equals the byte-identity kernel applied to the payload (the
    # WARC source strips the HTTP envelope from response records)
    from textindex_ray.kernel.classify import decode_lossy
    from textindex_ray.kernel.html_extract import extract_html_text

    assert docs.loc[0, "text"] == extract_html_text(decode_lossy(HTML))
    assert docs.loc[1, "text"] == decode_lossy(TXT)

    # id / source / lang / n_chars contracts
    for i, url in enumerate(docs["url"]):
        want = int.from_bytes(
            hashlib.md5(url.encode()).digest()[:8], "big"
        ) >> 1
        assert int(docs.loc[i, "doc_id"]) == want == url_doc_id(url)
        assert int(docs.loc[i, "n_chars"]) == len(docs.loc[i, "text"])
    assert list(docs["source"]) == ["a.example.com", "b.example.org:8080"]
    assert list(docs["lang"]) == ["en", "fr"]


def test_ingest_feeds_curation_family(ray_session, tmp_path):
    """End-to-end: WARC -> ingest -> curate / source_cap_sample run
    directly on the ingested table."""
    import ray.data

    from textindex_ray.functions.textstats import source_cap_sample
    from textindex_ray.pipelines.curate import curate

    d = tmp_path / "crawl"
    d.mkdir()
    body = (
        "the quick brown fox jumps over the lazy dog and the cat "
        "is with this that for not was on as are they from "
    ) * 3
    with open(d / "part-0.warc", "wb") as f:
        for i in range(6):
            f.write(_rec(
                b"response",
                b"http://host%d.example/p%d" % (i % 2, i),
                _http(b"<html><p>%s doc%d</p></html>" % (body.encode(), i)),
            ))

    docs = ingest_corpus(str(d), input_format="warc")
    kept = curate(docs, langs=("en",), min_tokens=10).to_pandas()
    assert len(kept) == 6  # all pass gates, all texts distinct

    capped = source_cap_sample(
        ingest_corpus(str(d), input_format="warc"), cap=2
    ).to_pandas()
    assert len(capped) == 4  # 2 hosts x cap 2
    assert set(capped["source"]) == {"host0.example", "host1.example"}


def test_ingest_cli_resumable(ray_session, tmp_path):
    """jobs/ingest.py: hive shard partitions, _COMMITTED no-op resume,
    parameter-mismatch guard."""
    import pytest

    from jobs.ingest import main

    src = tmp_path / "corpus"
    src.mkdir()
    urls = ["http://h%d.example/p%d" % (i % 3, i) for i in range(20)]
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array(
                [b"plain words number %d here" % i for i in range(20)],
                pa.binary(),
            ),
        }),
        src / "part.parquet",
    )
    out = str(tmp_path / "docs")
    assert main(["--in", str(src), "--format", "parquet",
                 "--out", out, "--shards", "4"]) == 0
    assert os.path.exists(os.path.join(out, "_COMMITTED"))
    shard_dirs = sorted(os.listdir(os.path.join(out, "data")))
    assert all(s.startswith("shard=") for s in shard_dirs)

    import ray.data

    back = ray.data.read_parquet(os.path.join(out, "data")).to_pandas()
    assert len(back) == 20
    assert set(back["url"]) == set(urls)
    # shard column matches the md5 rule the curate export uses
    for _, r in back.iterrows():
        want = int(hashlib.md5(str(int(r["doc_id"])).encode()).hexdigest()[:8],
                   16) % 4
        assert int(r["shard"]) == want

    # marker no-op, then parameter mismatch raises
    assert main(["--in", str(src), "--format", "parquet",
                 "--out", out, "--shards", "4"]) == 0
    with pytest.raises(SystemExit, match="different parameters"):
        main(["--in", str(src), "--format", "parquet",
              "--out", out, "--shards", "8"])


def test_url_doc_id_sql_twin():
    """url_doc_id's DuckDB twin (docstring contract) is bit-identical."""
    import duckdb

    con = duckdb.connect()
    for u in ("http://a.example.com/page", "http://h/p?q=1#f", "", "x",
              "http://ümlaut.example/é"):
        got = con.sql(
            "SELECT (('0x' || substr(md5(?),1,16))::UBIGINT >> 1)::BIGINT",
            params=[u],
        ).fetchone()[0]
        assert got == url_doc_id(u), u


def test_ingest_cli_failure_keeps_last_export(ray_session, tmp_path, monkeypatch):
    """jobs/ingest.py writes the new export beside data/ and swaps it in
    only after the write succeeded: a run that fails mid-write, or that
    produces no documents, leaves the previous data/ untouched."""
    import pytest
    import ray.data

    import textindex_ray.pipelines.ingest as ingest_mod
    from jobs.ingest import main

    out = tmp_path / "docs"
    old = out / "data" / "shard=0"
    old.mkdir(parents=True)
    pq.write_table(pa.table({"doc_id": pa.array([7], pa.int64())}),
                   old / "part.parquet")
    before = (old / "part.parquet").read_bytes()

    def boom(b):
        raise RuntimeError("ingest failed mid-write")

    failing = ray.data.from_items([{"doc_id": 1}]).map_batches(
        boom, batch_format="pyarrow")
    empty = ray.data.from_items([{"doc_id": 1}]).filter(lambda r: False)
    args = ["--in", str(tmp_path / "nowhere"), "--format", "parquet",
            "--out", str(out), "--shards", "4"]
    for ds, err in ((failing, Exception), (empty, SystemExit)):
        monkeypatch.setattr(ingest_mod, "ingest_corpus", lambda *a, _ds=ds, **k: _ds)
        with pytest.raises(err):
            main(args)
        assert sorted(os.listdir(out)) == ["data"]
        assert os.listdir(out / "data") == ["shard=0"]
        assert (old / "part.parquet").read_bytes() == before


def test_ingest_dedup_urls(ray_session, tmp_path):
    """Duplicate captures of one url collapse keep-one (deterministic
    lexicographic winner); dedup_urls=False keeps both; empty corpus
    keeps the schema."""
    import ray.data

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(
        pa.table({
            "url": pa.array(["http://h/a", "http://h/a", "http://h/b"]),
            "html": pa.array(
                [b"recrawl words here", b"original words here", b"other"],
                pa.binary(),
            ),
        }),
        src / "p.parquet",
    )
    dd = (
        ingest_corpus(str(src), input_format="parquet")
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    assert list(dd["url"]) == ["http://h/a", "http://h/b"]
    # lexicographic winner among the two texts for http://h/a
    assert dd.loc[0, "text"] == "original words here"

    raw = ingest_corpus(str(src), input_format="parquet", dedup_urls=False)
    assert raw.count() == 3

    # empty corpus: schema-preserving empty Dataset
    empty_src = tmp_path / "empty"
    empty_src.mkdir()
    pq.write_table(
        pa.table({"url": pa.array([], pa.string()),
                  "html": pa.array([], pa.binary())}),
        empty_src / "p.parquet",
    )
    e = ingest_corpus(str(empty_src), input_format="parquet")
    assert e.count() == 0
    assert set(e.schema().names) == {
        "doc_id", "url", "text", "lang", "source", "n_chars"
    }


def test_util_shared_helpers(ray_session):
    """export_shard matches its DuckDB twin; default_join_partitions
    stays within [floor, cap] and small on a small session."""
    import duckdb

    from textindex_ray.functions._util import (
        default_join_partitions,
        export_shard,
    )

    ids = [0, 1, 17, 123456789, 2**62]
    got = export_shard(ids, 16)
    con = duckdb.connect()
    for i, s in zip(ids, got):
        want = con.sql(
            "SELECT ('0x' || substr(md5(?::VARCHAR),1,8))::BIGINT % 16",
            params=[i],
        ).fetchone()[0]
        assert s == want, i

    j = default_join_partitions()
    assert 4 <= j <= 64
    # the 4-CPU test session must stay at the floor (aggregator-actor
    # CPU-budget trap)
    assert j == 4


def test_keep_first_raises_on_url_hash_collision():
    """Two distinct urls under one doc_id are a hash collision, not a
    re-crawl: the dedup partition step raises, naming both urls; rows of
    one url under one doc_id still collapse keep-one."""
    import pytest

    from textindex_ray.pipelines.ingest import _keep_first

    def part(rows):
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "url": pa.array([r[1] for r in rows], pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
            "source": pa.array(["h"] * len(rows), pa.string()),
            "n_chars": pa.array([len(r[2]) for r in rows], pa.int64()),
            "part": pa.array([0] * len(rows), pa.int32()),
        })

    ok = _keep_first(part([(7, "http://h/a", "zz"), (7, "http://h/a", "aa"),
                           (9, "http://h/b", "b")]))
    assert ok.column("url").to_pylist() == ["http://h/a", "http://h/b"]
    assert ok.column("text").to_pylist() == ["aa", "b"]
    assert "part" not in ok.column_names

    with pytest.raises(ValueError, match="http://h/x.*http://h/y|http://h/y.*http://h/x"):
        _keep_first(part([(3, "http://h/c", "c"), (5, "http://h/y", "a"),
                          (5, "http://h/x", "b"), (5, "http://h/x", "c")]))
    assert _keep_first(part([])).num_rows == 0
