"""Fuzzy term matching: capped banded DP == full DP == DuckDB
levenshtein; distributed vocabulary probe; reader find_fuzzy."""

import os
import random
import sys

import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from textindex_ray.kernel.fuzzy import edit_distance_capped, fuzzy_matches


def _full_dp(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    d = list(range(lb + 1))
    for i in range(1, la + 1):
        prev = d[:]
        d[0] = i
        for j in range(1, lb + 1):
            d[j] = min(prev[j] + 1, d[j - 1] + 1,
                       prev[j - 1] + (a[i - 1] != b[j - 1]))
    return d[lb]


def test_edit_distance_capped_property():
    """Banded capped DP == min(full DP, k+1) on random strings, and ==
    DuckDB levenshtein (the oracle metric) on spot pairs."""
    import duckdb

    rng = random.Random(20260818)
    for _ in range(3000):
        a = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        b = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 9)))
        k = rng.randrange(0, 4)
        assert edit_distance_capped(a, b, k) == min(_full_dp(a, b), k + 1), (
            a, b, k)

    con = duckdb.connect()
    for a, b in (("scan", "scal"), ("kitten", "sitting"), ("ab", "ba"),
                 ("", "xy"), ("same", "same"),
                 # byte metric: DuckDB levenshtein counts UTF-8 BYTES,
                 # so the two-byte 'ä' is distance 2 from 'a'
                 ("scäl", "scal"), ("hät", "hat"), ("héllo", "hello"),
                 ("über", "uber")):
        dd = con.sql("SELECT levenshtein(?, ?)", params=[a, b]).fetchone()[0]
        for k in (0, 1, 2, 3):
            assert edit_distance_capped(a, b, k) == min(dd, k + 1), (a, b, k)

    # random non-ASCII property vs DuckDB directly
    rng2 = random.Random(7)
    alpha = "abä€"
    for _ in range(300):
        a = "".join(rng2.choice(alpha) for _ in range(rng2.randrange(0, 6)))
        b = "".join(rng2.choice(alpha) for _ in range(rng2.randrange(0, 6)))
        dd = con.sql("SELECT levenshtein(?, ?)", params=[a, b]).fetchone()[0]
        k = rng2.randrange(0, 4)
        assert edit_distance_capped(a, b, k) == min(dd, k + 1), (a, b, k)


def test_fuzzy_term_matches(ray_session):
    """Distributed vocabulary probe: ground truth incl. multi-match and
    no-match queries, partition invariance, empty corpus schema."""
    import ray.data

    from textindex_ray.functions.textstats import fuzzy_term_matches

    docs = [
        (1, "cat bat hat dog"),
        (2, "cat cart card"),
        (3, "zebra"),
        (4, ""),
    ]
    t = pa.table(
        {"doc_id": pa.array([d for d, _ in docs], pa.int64()),
         "text": pa.array([x for _, x in docs], pa.string())}
    )
    for parts in (1, 3):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = (
            fuzzy_term_matches(ds, "cat", max_dist=1, num_partitions=4)
            .to_pandas().sort_values("term").reset_index(drop=True)
        )
        assert dict(zip(got.term, got.df)) == {
            "bat": 1, "cart": 1, "cat": 2, "hat": 1
        }, parts

    none = fuzzy_term_matches(
        ray.data.from_arrow(t), "qqqqqq", max_dist=1
    ).to_pandas()
    assert len(none) == 0 and set(none.columns) == {"term", "df"}

    empty = fuzzy_term_matches(ray.data.from_arrow(t.slice(0, 0)), "cat")
    cols = (empty.to_pandas().columns if hasattr(empty, "to_pandas")
            else empty.column_names)
    assert set(cols) == {"term", "df"}


def test_reader_find_fuzzy(ray_session, tmp_path):
    """IndexReader.find_fuzzy == union of find() over the distance-<=1
    vocabulary; a misspelling reaches the right docs."""
    import numpy as np
    import pyarrow.parquet as pq

    from textindex_ray.index.build import build_index
    from textindex_ray.query.engine import IndexReader

    texts = [
        ("http://d/0", b"the cat sat"),
        ("http://d/1", b"a bat flew"),
        ("http://d/2", b"zebra only"),
        ("http://d/3", b"cat and bat"),
    ]
    src = tmp_path / "c"
    src.mkdir()
    pq.write_table(
        pa.table({"url": pa.array([u for u, _ in texts]),
                  "html": pa.array([h for _, h in texts], pa.binary())}),
        src / "p.parquet",
    )
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, num_buckets=4)
    r = IndexReader(idx)

    vocab = r._dict.column("term").to_pylist()
    want_terms = fuzzy_matches(vocab, "cat", 1)
    # note "bat"/"hat" are reference STOPWORDS and never reach the
    # dictionary; "sat" (distance 1) does
    assert "cat" in want_terms and "sat" in want_terms
    want = np.unique(np.concatenate(
        [r.doc_set(t) for t in want_terms]
    ))
    got = r.find_fuzzy("cat", 1)
    assert got.tolist() == want.tolist()
    # the misspelling "cta" (distance 2 from everything except... none)
    assert r.find_fuzzy("zebrr", 1).size == 1  # zebra doc only
    assert r.find_fuzzy("qqqq", 1).size == 0


def test_find_fuzzy_segmented(ray_session, tmp_path):
    """SegmentedReader.find_fuzzy unions per-segment expansions (a term
    only in the delta segment is still reached by a misspelling)."""
    import numpy as np
    import pyarrow.parquet as pq

    from textindex_ray.index.build import build_index
    from textindex_ray.index.merge import update_index
    from textindex_ray.query.segmented import open_reader

    def corpus(path, rows):
        path.mkdir()
        pq.write_table(
            pa.table({"url": pa.array([u for u, _ in rows]),
                      "html": pa.array([h for _, h in rows], pa.binary())}),
            path / "p.parquet",
        )

    corpus(tmp_path / "c0", [("http://s/0", b"cat stories"),
                             ("http://s/1", b"dog tales")])
    corpus(tmp_path / "c1", [("http://s/2", b"zebra facts")])
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c0"), idx, num_buckets=4)
    update_index(str(tmp_path / "c1"), idx, mode="segment")

    r = open_reader(idx)
    assert len(r.segments) == 2
    hits = r.find_fuzzy("zebrr", 1)  # matches only the delta's "zebra"
    assert hits.size == 1
    assert r.urls_for(hits) == ["http://s/2"]
    assert r.find_fuzzy("cta", 1).size == 0  # distance 2 from "cat"
    assert r.find_fuzzy("cat", 1).size >= 1


def test_query_cli_fuzzy_and_delete_need_a_term(tmp_path, capsys):
    """jobs/query.py: `fuzzy` and `delete` without a term are usage
    errors (exit 2) and touch no index — an empty glob must never reach
    delete_docs_all."""
    import pytest

    from jobs.query import main

    idx = tmp_path / "idx"
    for mode in ("fuzzy", "delete"):
        with pytest.raises(SystemExit) as exc:
            main(["--index", str(idx), mode])
        assert exc.value.code == 2, mode
        assert "needs a term" in capsys.readouterr().err, mode
    assert not idx.exists()
