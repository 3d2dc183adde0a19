"""Expected results computed apart from the program under test.

Nothing here imports ``textindex_ray``: docIDs follow the md5-url rule
recomputed from the urls, postings are decoded with this module's own
LEB128 decoder, and BM25 is scored from counts the corpus generator
kept. Scores are float64 with ``math.log`` idf, k1 = 1.2, b = 0.75,
accumulated term by term in sorted term order, which is the order the
engine promises, so they are compared for exact equality.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

K1 = 1.2
B = 0.75
BUCKET_SHIFT = 36


def md5_doc_ids(urls, num_buckets: int) -> dict[str, int]:
    """url -> docID: bucket = first two md5 bytes (big-endian) mod
    num_buckets; docID = bucket << 36 | rank of the url in its bucket."""
    per: dict[int, list[str]] = {}
    for u in urls:
        b = int.from_bytes(hashlib.md5(u.encode("utf-8")).digest()[:2], "big")
        per.setdefault(b % num_buckets, []).append(u)
    out = {}
    for b, us in per.items():
        for r, u in enumerate(sorted(us)):
            out[u] = (b << BUCKET_SHIFT) | r
    return out


def leb128_decode(buf: bytes) -> np.ndarray:
    """Unsigned LEB128 stream -> uint64 values."""
    vals, cur, shift = [], 0, 0
    for byte in buf:
        cur |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            vals.append(cur)
            cur, shift = 0, 0
    if shift:
        raise ValueError("truncated LEB128 stream")
    return np.array(vals, dtype=np.uint64)


def decode_postings(chunks) -> dict[str, dict[int, int]]:
    """Chunk table (term, docs, tfs rows) -> {term: {doc_id: tf}}."""
    out: dict[str, dict[int, int]] = {}
    for term, docs, tfs in zip(chunks.column("term").to_pylist(),
                               chunks.column("docs").to_pylist(),
                               chunks.column("tfs").to_pylist()):
        ids = np.cumsum(leb128_decode(docs), dtype=np.uint64)
        tf = leb128_decode(tfs)
        if ids.size != tf.size:
            raise ValueError("chunk of %r: %d docs, %d tfs" % (term, ids.size, tf.size))
        p = out.setdefault(term, {})
        p.update(zip(ids.tolist(), tf.tolist()))
    return out


class ExpectedIndex:
    """Exact index statistics of a document collection.

    ``docs`` is a list of (term keys, tfs) array pairs, one per document;
    a document's length is the sum of its tfs (every generated token
    survives tokenization). Keys are non-negative ints (word ranks);
    ``terms[key]`` is the word, whose string order sets the order in
    which a document's per-term scores are summed.
    """

    def __init__(self, urls: list[str], docs: list[tuple[np.ndarray, np.ndarray]],
                 terms):
        self.terms = terms
        self.urls = list(urls)
        self.n_docs = len(self.urls)
        self.dl = np.array([int(t.sum()) for _, t in docs], dtype=np.int64)
        self.total_dl = int(self.dl.sum())
        self.avgdl = self.total_dl / self.n_docs if self.n_docs else 0.0
        keys = np.concatenate([k for k, _ in docs]) if docs else np.empty(0, np.int64)
        tfs = np.concatenate([t for _, t in docs]) if docs else np.empty(0, np.int64)
        doc = np.repeat(np.arange(self.n_docs), [len(k) for k, _ in docs])
        order = np.lexsort((doc, keys))
        keys, tfs, doc = keys[order], tfs[order], doc[order]
        starts = np.flatnonzero(np.diff(keys)) + 1
        self._post: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for ks, ds, ts in zip(np.split(keys, starts), np.split(doc, starts),
                              np.split(tfs, starts)):
            if ks.size:
                self._post[int(ks[0])] = (ds, ts)

    def df(self, key: int) -> int:
        p = self._post.get(key)
        return 0 if p is None else int(p[0].size)

    def cf(self, key: int) -> int:
        p = self._post.get(key)
        return 0 if p is None else int(p[1].sum())

    def keys(self):
        return self._post.keys()

    def postings(self, key: int):
        return self._post.get(key, (np.empty(0, np.int64), np.empty(0, np.int64)))

    def idf(self, key: int) -> float:
        df = self.df(key)
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def bm25(self, keys) -> dict[int, float]:
        """Document index -> float64 BM25 over the distinct query keys."""
        scores = np.zeros(self.n_docs, np.float64)
        hit = np.zeros(self.n_docs, bool)
        avg = max(self.avgdl, 1e-9)
        for k in sorted(set(keys), key=lambda k: self.terms[k]):
            ds, ts = self.postings(k)
            if not ds.size:
                continue
            tf = ts.astype(np.float64)
            denom = tf + K1 * (1.0 - B + B * self.dl[ds].astype(np.float64) / avg)
            scores[ds] += self.idf(k) * tf * (K1 + 1.0) / denom
            hit[ds] = True
        idx = np.flatnonzero(hit)
        return dict(zip(idx.tolist(), scores[idx].tolist()))

    def topk(self, keys, k: int, doc_key) -> list[tuple[int, float]]:
        """Top-k (document index, score) by (score desc, doc_key asc)."""
        sc = self.bm25(keys)
        return sorted(sc.items(), key=lambda x: (-x[1], doc_key[x[0]]))[:k]

    def and_docs(self, keys) -> set[int]:
        out = None
        for k in set(keys):
            s = set(self.postings(k)[0].tolist())
            out = s if out is None else out & s
        return out or set()


def check_topk(got_urls: list[str], got_scores, want: dict[str, float], k: int) -> str | None:
    """Compare a top-k answer by url and score with the expected score of
    every matching document. Returns None when it is right.

    Exact even when scores tie at the k-th place, where either tied
    document is a right answer: the scores must equal the k best
    expected scores, each returned url must carry its expected score, and
    every document scoring above the k-th score must be returned."""
    best = sorted(want.values(), reverse=True)[:k]
    got = [float(s) for s in got_scores]
    if got != best:
        return "scores %r != expected %r" % (got[:5], best[:5])
    for u, s in zip(got_urls, got):
        if want.get(u) != s:
            return "url %s scored %r, expected %r" % (u, s, want.get(u))
    if len(set(got_urls)) != len(got_urls):
        return "duplicate urls in %r" % (got_urls,)
    if best:
        above = {u for u, s in want.items() if s > best[-1]}
        if not above <= set(got_urls):
            return "missing %r" % sorted(above - set(got_urls))[:3]
    return None
