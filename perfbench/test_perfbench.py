"""Tests of the benchmark's own parts (no Ray needed):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess

import numpy as np
import pytest

from perfbench import expect, zipf

HERE = os.path.dirname(os.path.abspath(__file__))


def test_zipf_generator_is_deterministic_per_seed():
    v1, v2, v3 = zipf.make_vocab(5), zipf.make_vocab(5), zipf.make_vocab(6)
    assert v1 == v2
    assert v1 != v3
    assert len(set(v1)) == len(v1) >= 100_000
    cdf = zipf.zipf_cdf(len(v1))
    d1 = zipf.draw_docs(5, 0, 50, cdf)
    d2 = zipf.draw_docs(5, 0, 50, cdf)
    assert all(np.array_equal(a, b) for a, b in zip(d1, d2))
    assert not all(np.array_equal(a, b) for a, b in zip(d1, zipf.draw_docs(5, 1, 50, cdf)))
    t1 = zipf.corpus_table(5, 0, d1, v1)
    assert t1.equals(zipf.corpus_table(5, 0, d2, v2))
    df = np.bincount(np.concatenate([np.unique(d) for d in d1]), minlength=len(v1))
    assert zipf.make_queries(5, 40, df) == zipf.make_queries(5, 40, df)
    assert zipf.make_queries(5, 40, df) != zipf.make_queries(6, 40, df)


def test_zipf_words_survive_the_kernel_unchanged():
    """Every generated word is indexed as itself, in text and HTML
    documents alike, so the generator's counts are the index's counts."""
    from textindex_ray.kernel.txt_tokenize import tokenize_counts
    from textindex_ray.stages.extract import ExtractTokenize

    vocab = zipf.make_vocab(5)
    tf, dl, _ = tokenize_counts(" ".join(vocab))
    assert dl == len(vocab)
    assert set(tf) == set(vocab)
    docs = zipf.draw_docs(5, 0, 40, zipf.zipf_cdf(len(vocab)))
    out = ExtractTokenize(num_buckets=8)(zipf.corpus_table(5, 0, docs, vocab))
    assert set(out.column("doctype").to_pylist()) == {"html", "text"}
    for terms, tfs, d in zip(out.column("terms").to_pylist(),
                             out.column("tfs").to_pylist(), docs):
        r, c = np.unique(d, return_counts=True)
        assert dict(zip(terms, tfs)) == {vocab[k]: int(n) for k, n in zip(r, c)}


def _tiny():
    # d0 = "x x y" (dl 3), d1 = "x" (dl 1), d2 = "y z" (dl 2); N = 3, avgdl = 2
    docs = [(np.array([0, 1]), np.array([2, 1])),
            (np.array([0]), np.array([1])),
            (np.array([1, 2]), np.array([1, 1]))]
    return expect.ExpectedIndex(["u0", "u1", "u2"], docs, ["x", "y", "z"])


def test_bm25_matches_hand_worked_tiny_corpus():
    ix = _tiny()
    assert (ix.n_docs, ix.total_dl, ix.avgdl) == (3, 6, 2.0)
    assert [(ix.df(k), ix.cf(k)) for k in (0, 1, 2)] == [(2, 3), (2, 2), (1, 1)]
    # idf(x) = idf(y) = ln(1.5 / 2.5 + 1) = ln 1.6; idf(z) = ln(2.5 / 1.5 + 1) = ln(8/3)
    # x in d0: tf 2, dl 3 -> ln1.6 * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * 1.5)) = 0.566579717446914
    # y in d0: tf 1, dl 3 -> ln1.6 * 2.2 / 2.65                                  = 0.390191692204007
    # x in d1: tf 1, dl 1 -> ln1.6 * 2.2 / 1.75                                  = 0.590861705337496
    # y in d2: tf 1, dl 2 -> ln1.6 * 2.2 / 2.2                                   = 0.470003629245736
    # z in d2: tf 1, dl 2 -> ln(8/3)                                             = 0.980829253011726
    hand = {0: 0.956771409650921, 1: 0.590861705337496, 2: 1.450832882257462}
    got = ix.bm25([2, 0, 1, 0])
    assert set(got) == set(hand)
    for d, s in hand.items():
        assert math.isclose(got[d], s, rel_tol=1e-13)
    assert [d for d, _ in ix.topk([0, 1, 2], 2, doc_key=[10, 11, 12])] == [2, 0]
    assert ix.and_docs([0, 1]) == {0}


def test_check_topk_accepts_either_tied_document():
    want = {"a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0}
    assert expect.check_topk(["a", "c"], [3.0, 2.0], want, 2) is None
    assert expect.check_topk(["a", "b"], [3.0, 2.0], want, 2) is None
    assert expect.check_topk(["b", "c"], [2.0, 2.0], want, 2) is not None
    assert expect.check_topk(["a", "d"], [3.0, 2.0], want, 2) is not None


def test_leb128_and_md5_rule():
    assert expect.leb128_decode(bytes([0x01, 0x7F, 0x80, 0x01, 0xAC, 0x02])).tolist() == [
        1, 127, 128, 300]
    with pytest.raises(ValueError):
        expect.leb128_decode(bytes([0x80]))
    ids = expect.md5_doc_ids(["u%d" % i for i in range(50)], 4)
    assert len(set(ids.values())) == 50
    assert all(d >> 36 < 4 for d in ids.values())


def test_command_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        (tmp_path / "BENCHMARK.json").write_text(f.read())
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    p = subprocess.run(cmd + ["--workload", "build_zipf", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60, env={**os.environ, "PYTHONPATH": ""})
    assert p.returncode != 0
    assert p.stdout.strip() == ""
