"""Text-analysis stages over a documents table: language-ID, quality
scoring, token counting, fingerprinting.

All are vectorized-per-batch ``map_batches`` stages over
``(doc_id:int64, text:string)`` input. Semantics are deliberately
SQL-expressible so the DuckDB oracle can verify them exactly
(__ray_entry__.oracle_sql); the tokenizer used here is the engine
kernel, which coincides with the regex tokenizer on the testdata
charset (plain ASCII, no markup — verified in tests).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

from textindex_ray.kernel.txt_tokenize import tokenize_text

# Small per-language stopword marker sets (subsets of the reference
# trilingual list, stop_words.rs, plus Spanish for the testdata's "es").
# Kept small and fixed so the SQL oracle can inline them.
LANG_MARKERS = {
    "de": ("der", "die", "das", "und", "nicht", "ist", "ich", "sie", "mit", "ein",
           "eine", "auch", "auf", "aber", "wie", "als", "wir", "nur", "noch", "war"),
    "en": ("the", "and", "not", "is", "you", "they", "with", "one", "also", "on",
           "but", "how", "as", "we", "only", "still", "was", "of", "to", "that"),
    "fr": ("le", "la", "les", "et", "pas", "est", "je", "ils", "avec", "un",
           "une", "aussi", "sur", "mais", "comme", "nous", "seulement", "encore",
           "que", "pour"),
}
_WORD_RE = re.compile(r"[^\W\d_]+")


def _tokens(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Predict language by stopword-marker counts, tie-break de<en<fr,
    'und' (unknown) when no marker hits."""
    texts = batch.column("text").to_pylist()
    preds = []
    for t in texts:
        toks = _tokens(t)
        best_lang, best_n = "und", 0
        for lang in ("de", "en", "fr"):  # fixed tie-break order
            n = sum(1 for w in toks if w in LANG_MARKERS[lang])
            if n > best_n:
                best_lang, best_n = lang, n
        preds.append(best_lang)
    return pa.table(
        {"doc_id": batch.column("doc_id"), "lang_pred": pa.array(preds, pa.string())}
    )


def token_count_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, n_unique) with the word-run tokenizer."""
    texts = batch.column("text").to_pylist()
    n_tok, n_uni = [], []
    for t in texts:
        toks = _tokens(t)
        n_tok.append(len(toks))
        n_uni.append(len(set(toks)))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_unique": pa.array(n_uni, pa.int64()),
        }
    )


# GPT-2-style pretokenizer, restricted to RE2-compatible ASCII classes
# so the DuckDB oracle (regexp_extract_all, RE2: no lookahead, no \p
# classes in the portable subset) matches Python `re` match-for-match —
# verified on the corpus + contraction/whitespace/unicode edge cases.
# Differences vs the real GPT-2 pattern: no `\s+(?!\S)` lookahead
# (RE2 lacks lookahead) and ASCII letter/digit classes; still the
# contraction-splitting, space-prefixed-word shape BPE vocabularies
# assume.
BPE_PRETOKEN_RE = (
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+|\s+"
)
_BPE_RE = re.compile(BPE_PRETOKEN_RE)


def bpe_token_count_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_bpe_tokens, n_bpe_unique): BPE-ish pretokenization
    counts — the training-cost estimator (a BPE tokenizer's token count
    is bounded below by its pretoken count; budget pipelines use this
    as the fast proxy). Compiled-regex findall per row; vectorization
    happens across rows/batches."""
    texts = batch.column("text").to_pylist()
    n_tok, n_uni = [], []
    for t in texts:
        toks = _BPE_RE.findall(t)
        n_tok.append(len(toks))
        n_uni.append(len(set(toks)))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_bpe_tokens": pa.array(n_tok, pa.int64()),
            "n_bpe_unique": pa.array(n_uni, pa.int64()),
        }
    )


_ALL_STOP_MARKERS = frozenset(w for s in LANG_MARKERS.values() for w in s)

# ASCII fast path for the punct counter: one bytes.translate C call
# deletes every alnum/space byte, leaving exactly the punct count.
# (Semantics identical to the per-char `not (c.isalnum() or c.isspace())`
# for ASCII input; non-ASCII strings fall back to the per-char form,
# which is Unicode-aware like str.isalnum.)
_ASCII_KEEP = bytes(
    i for i in range(128) if chr(i).isalnum() or chr(i).isspace()
)


def _punct_count(t: str) -> int:
    if t.isascii():
        return len(t.encode("ascii").translate(None, delete=_ASCII_KEEP))
    return sum(1 for c in t if not (c.isalnum() or c.isspace()))


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality heuristics: length, token stats, stopword/punct ratios.

    Ratios are emitted as exact integers in parts-per-million (floor
    division) — float rounding differs between Python (half-even) and
    SQL engines (half-away), so the oracle contract avoids floats.
    """
    texts = batch.column("text").to_pylist()
    n_chars, n_tokens, stop_ppm, punct_ppm, wlen_ppm = [], [], [], [], []
    for t in texts:
        toks = _tokens(t)
        nt = len(toks)
        n_chars.append(len(t))
        n_tokens.append(nt)
        ns = sum(1 for w in toks if w in _ALL_STOP_MARKERS)
        stop_ppm.append(ns * 1_000_000 // nt if nt else 0)
        punct_ppm.append(_punct_count(t) * 1_000_000 // len(t) if t else 0)
        wlen_ppm.append(sum(len(w) for w in toks) * 1_000_000 // nt if nt else 0)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(n_chars, pa.int64()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "stop_ratio_ppm": pa.array(stop_ppm, pa.int64()),
            "punct_ratio_ppm": pa.array(punct_ppm, pa.int64()),
            "mean_word_len_ppm": pa.array(wlen_ppm, pa.int64()),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Deterministic document fingerprint: md5 of whitespace-normalized
    lowercase text (SQL: md5(regexp_replace(lower(text), '\\s+', ' ', 'g')))."""
    texts = batch.column("text").to_pylist()
    fps = [
        hashlib.md5(re.sub(r"\s+", " ", t.lower()).encode("utf-8")).hexdigest()
        for t in texts
    ]
    return pa.table(
        {"doc_id": batch.column("doc_id"), "fingerprint": pa.array(fps, pa.string())}
    )


def repetition_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_lines, dup_line_ppm, top_bigram_ppm): within-document
    repetition signals — the Gopher-rules analog for boilerplate /
    template / stutter detection.

    - ``n_lines``: newline-split segment count; empty text -> 0 (SQL
      ``string_split('')`` returns an empty list, and the contract
      mirrors SQL).
    - ``dup_line_ppm``: fraction of line slots occupied by a repeat of
      an earlier-seen line, ``(n_lines - distinct_lines)`` ppm, floor.
    - ``top_bigram_ppm``: occurrences of the most frequent adjacent
      token pair over the ``n_tokens - 1`` bigram slots, ppm, floor;
      0 when the doc has fewer than 2 tokens.

    Integer ppm throughout (the oracle contract, see quality_batch).
    """
    from collections import Counter

    texts = batch.column("text").to_pylist()
    n_lines, dup_ppm, bg_ppm = [], [], []
    for t in texts:
        lines = t.split("\n") if t else []
        nl = len(lines)
        n_lines.append(nl)
        dup_ppm.append((nl - len(set(lines))) * 1_000_000 // nl if nl else 0)
        toks = _tokens(t)
        nb = len(toks) - 1
        if nb > 0:
            mc = max(Counter(zip(toks, toks[1:])).values())
            bg_ppm.append(mc * 1_000_000 // nb)
        else:
            bg_ppm.append(0)
    return pa.table(
        {
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_lines": pa.array(n_lines, pa.int64()),
            "dup_line_ppm": pa.array(dup_ppm, pa.int64()),
            "top_bigram_ppm": pa.array(bg_ppm, pa.int64()),
        }
    )


def hash_split(train_ppm: int = 900_000):
    """Deterministic content-hash train/val split: a doc goes to
    'train' iff the first 8 hex chars of md5(text) mod 1e6 fall below
    ``train_ppm``. Content-keyed (not doc_id-keyed) so exact duplicates
    always land in the same split — no train/val leakage through dups —
    and the assignment is reproducible on any cluster size / shard
    order (SQL: ('0x' || substr(md5(text), 1, 8))::BIGINT % 1000000,
    the docID-contract trick, build.py).

    Returns a map_batches fn emitting (doc_id, split)."""
    thr = int(train_ppm)

    def fn(batch: pa.Table) -> pa.Table:
        splits = [
            "train"
            if int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16) % 1_000_000
            < thr
            else "val"
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "split": pa.array(splits, pa.string())}
        )

    return fn


def shuffle_shards(
    ds: "ray.data.Dataset", *, num_shards: int = 16
) -> "ray.data.Dataset":
    """(doc_id, shard, pos): deterministic distributed shuffle for
    training-data export — every doc gets a shard and a position that
    are reproducible on any cluster size, batch size, or input order
    (a seeded ``random_shuffle`` is NOT: Ray's shuffle order depends on
    block layout).

    Key = md5 of the decimal doc_id; shard = first-8-hex-digits mod
    num_shards (the docID-contract trick, build.py); pos = rank of the
    full hex digest within the shard (doc_id tiebreak). One coarse
    shuffle on num_shards groups; the per-shard sort is a single Arrow
    kernel inside the group. Writers consume this as the shard/order
    manifest (one output file per shard => resumable export).
    """
    from textindex_ray.functions._util import probe_count

    S = int(num_shards)
    ds, _shs_n = probe_count(ds)
    if _shs_n == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "shard": pa.array([], pa.int64()),
             "pos": pa.array([], pa.int64())}
        )

    def key(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hexes = [hashlib.md5(str(i).encode("ascii")).hexdigest() for i in ids]
        shards = [int(h[:8], 16) % S for h in hexes]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "h": pa.array(hexes, pa.string()),
                "shard": pa.array(shards, pa.int64()),
            }
        )

    def order(g: pa.Table) -> pa.Table:
        t = g.sort_by([("h", "ascending"), ("doc_id", "ascending")])
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "shard": t.column("shard"),
                "pos": pa.array(np.arange(t.num_rows, dtype=np.int64), pa.int64()),
            }
        )

    return (
        ds.select_columns(["doc_id"])
        .map_batches(key, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(order, batch_format="pyarrow")
    )


def chunk_documents(
    ds: "ray.data.Dataset", *, chunk_chars: int = 512, overlap: int = 64
) -> "ray.data.Dataset":
    """(doc_id, chunk_id, chunk, n_chars): context-window document
    chunking — fixed-size character chunks with overlap, the split step
    before tokenize/pack in a training pipeline.

    Chunk k covers [k*step, k*step + chunk_chars) with
    step = chunk_chars - overlap; chunks start at every step offset
    below len(text), so the final chunk may be short and empty texts
    produce no chunks. Pure string slicing — exact in any engine
    (SQL twin: substr over generate_series starts). Embarrassingly
    parallel flat-map; no shuffle.
    """
    if overlap >= chunk_chars:
        raise ValueError("overlap must be < chunk_chars")
    step = chunk_chars - overlap

    def explode(batch: pa.Table) -> pa.Table:
        o_d: list = []
        o_k: list = []
        o_c: list = []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for k in range((len(t) + step - 1) // step if t else 0):
                o_d.append(d)
                o_k.append(k)
                o_c.append(t[k * step : k * step + chunk_chars])
        return pa.table(
            {
                "doc_id": pa.array(o_d, pa.int64()),
                "chunk_id": pa.array(o_k, pa.int64()),
                "chunk": pa.array(o_c, pa.string()),
                "n_chars": pa.array([len(c) for c in o_c], pa.int64()),
            }
        )

    return ds.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )


def redact(pattern: str = "[0-9]+", replacement: str = "#"):
    """Vectorized regex redaction (the PII-scrub stage shape): replace
    every match of ``pattern`` and report per doc the match count and
    the redacted length. Both kernels are Arrow C++ RE2
    (count_substring_regex / replace_substring_regex) — the same regex
    engine DuckDB uses, so the SQL oracle's regexp_replace/
    regexp_extract_all agree byte-for-byte.

    Returns a map_batches fn emitting (doc_id, n_matches, red_len)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n = pc.count_substring_regex(text, pattern)
        red = pc.replace_substring_regex(text, pattern, replacement)
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "n_matches": n.cast(pa.int64()),
             "red_len": pc.utf8_length(red).cast(pa.int64())}
        )

    return fn


def length_quantiles(
    ds: "ray.data.Dataset",
    *,
    q_ppm: tuple[int, ...] = (500_000, 900_000, 990_000),
    num_partitions: int = 32,
) -> pa.Table:
    """(q_ppm, value): EXACT discrete quantiles of the n_chars column —
    the length-percentile filter stage of a data-quality pipeline.
    value = the smallest length v whose cumulative count satisfies
    ``cum(v) * 1e6 >= q_ppm * n`` (pure integer math, so the SQL
    window-function twin agrees bit-for-bit; no float percentile
    interpolation anywhere).

    Value-histogram plan: per-block Arrow count partials -> coarse hash
    partition on the length value -> Arrow sum inside the partition ->
    the finished histogram reduces on the driver. The histogram is
    bounded by the DOMAIN (distinct document lengths, <= ~1e6 rows even
    at 100 TB), not the corpus, so the driver reduce is a constant-size
    aggregate like the build's global stats — not a data materialization."""
    import pyarrow.compute as pc

    P = int(num_partitions)

    def partial(b: pa.Table) -> pa.Table:
        t = b.select(["n_chars"]).group_by("n_chars").aggregate(
            [("n_chars", "count")]
        )
        v = t.column("n_chars").to_numpy().astype(np.uint64)
        part = ((v * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(P)).astype(
            np.int32
        )
        return pa.table(
            {"v": t.column("n_chars").cast(pa.int64()),
             "cnt": t.column("n_chars_count").cast(pa.int64()),
             "part": pa.array(part, pa.int32())}
        )

    def part_sum(g: pa.Table) -> pa.Table:
        t = g.group_by("v").aggregate([("cnt", "sum")])
        return pa.table(
            {"v": t.column("v"), "cnt": t.column("cnt_sum").cast(pa.int64())}
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_sum, batch_format="pyarrow")
        .take_all()
    )
    vs = np.array([r["v"] for r in hist], dtype=np.int64)
    cnts = np.array([r["cnt"] for r in hist], dtype=np.int64)
    order = np.argsort(vs)
    vs, cnts = vs[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if cum.size else 0
    out_q, out_v = [], []
    for q in q_ppm:
        if n == 0:
            continue
        idx = int(np.searchsorted(cum * 1_000_000, q * n, side="left"))
        out_q.append(int(q))
        out_v.append(int(vs[min(idx, vs.size - 1)]))
    return pa.table(
        {"q_ppm": pa.array(out_q, pa.int64()),
         "value": pa.array(out_v, pa.int64())}
    )


def pack_bins(
    ds: "ray.data.Dataset",
    *,
    capacity: int = 4096,
    size_col: str = "n_chars",
    num_ranges: int = 32,
) -> "ray.data.Dataset":
    """(doc_id, bin_id): sequence-packing bin assignment — docs in
    doc_id order fill fixed-capacity bins, bin_id = exclusive prefix
    sum of ``size_col`` // capacity (SQL twin: ``(sum(size) OVER
    (ORDER BY doc_id) - size) // capacity``). The packing stage of a
    training pipeline: which shard/sequence-bin each document lands in,
    deterministic on any cluster size.

    Distributed ordered prefix scan, three stages:

    1. per-block (min_id, max_id, count) partials -> the driver picks
       ``num_ranges`` doc_id range boundaries (any deterministic split
       works — balance affects speed, never the result);
    2. one coarse shuffle on range_id + per-range size sums -> the
       driver cumsums the B range offsets (tiny);
    3. per-range map_groups: sort by doc_id, numpy cumsum + the range's
       offset, emit bin ids.

    Driver state is O(num_ranges), not O(corpus); the one shuffle is
    the unavoidable ordered-scan exchange. At 100 TB raise num_ranges
    so one range's rows fit a worker (the prefix itself is exact
    regardless)."""
    import pyarrow.compute as pc

    B = int(num_ranges)
    base = ds.select_columns(["doc_id", size_col]).materialize()

    # stage 1: range boundaries from per-block id partials (driver gets
    # one tiny row per block)
    # deterministic sampled-quantile boundaries (skew-robust: clustered
    # doc_id ranges get split by count, not by id span)
    from textindex_ray.functions._util import sampled_range_bounds

    bounds = sampled_range_bounds(base, "doc_id", B)
    if bounds is None:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "bin_id": pa.array([], pa.int64())})

    def add_range(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        rid = np.searchsorted(bounds, ids, side="right").astype(np.int32)
        return b.append_column("range_id", pa.array(rid, pa.int32()))

    ranged = base.map_batches(add_range, batch_format="pyarrow")

    # stage 2: per-range size sums -> tiny driver cumsum of offsets
    def range_sum(g: pa.Table) -> pa.Table:
        s = pc.sum(g.column(size_col)).as_py() or 0
        return pa.table(
            {"range_id": pa.array([g.column("range_id")[0].as_py()], pa.int32()),
             "s": pa.array([int(s)], pa.int64())}
        )

    sums = {
        r["range_id"]: r["s"]
        for r in ranged.groupby("range_id")
        .map_groups(range_sum, batch_format="pyarrow")
        .take_all()
    }
    offsets = {}
    acc = 0
    for rid in sorted(sums):
        offsets[rid] = acc
        acc += sums[rid]

    # stage 3: within-range ordered cumsum + offset
    def part_bins(g: pa.Table) -> pa.Table:
        t = g.sort_by([("doc_id", "ascending")])
        sz = t.column(size_col).to_numpy()
        excl = np.cumsum(sz) - sz
        off = offsets[t.column("range_id")[0].as_py()]
        return pa.table(
            {"doc_id": t.column("doc_id").cast(pa.int64()),
             "bin_id": pa.array((excl + off) // capacity, pa.int64())}
        )

    return ranged.groupby("range_id").map_groups(
        part_bins, batch_format="pyarrow"
    )


def common_token_score(
    ds: "ray.data.Dataset",
    *,
    min_df_ppm: int = 50_000,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """(doc_id, common_ratio_ppm, n_common_types): corpus-statistics
    quality scoring — the KenLM-style-filter analog with an exact SQL
    twin. A term is "common" when its document frequency df satisfies
    ``df * 1e6 >= N * min_df_ppm``; each doc scores the ppm fraction of
    its token occurrences that are common (floor division) plus the
    count of distinct common types it contains. Low common_ratio_ppm
    flags gibberish / OCR noise / wrong-tokenizer docs.

    Two corpus passes, both streaming:

    1. df aggregate — per-batch partial df counts (distinct terms per
       doc, pre-summed within the batch) -> ONE coarse shuffle on
       hash(term) % num_partitions -> per-partition exact sum + the ppm
       threshold filter (N is a parquet-metadata count, no scan). Only
       terms above the threshold leave the partitions: at most
       1e6/min_df_ppm * avg_distinct_per_doc terms corpus-wide, a tiny
       driver collect at any corpus size.
    2. score — the common set broadcast once via ray.put, one
       vectorized membership pass per batch.
    """
    import zlib
    from collections import Counter

    import ray

    from textindex_ray.functions._util import probe_count

    P = int(num_partitions)
    ds, n_docs = probe_count(ds)
    if n_docs == 0:
        # schema-preserving degenerate result (0-row Datasets lose
        # their schema through pandas conversion)
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "common_ratio_ppm": pa.array([], pa.int64()),
                "n_common_types": pa.array([], pa.int64()),
            }
        )

    def df_partial(batch: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        for t in batch.column("text").to_pylist():
            cnt.update(set(_tokens(t)))
        terms = sorted(cnt)
        part = [zlib.crc32(w.encode("utf-8")) % P for w in terms]
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df": pa.array([cnt[w] for w in terms], pa.int64()),
                "part": pa.array(part, pa.int32()),
            }
        )

    thr = n_docs * int(min_df_ppm)

    def part_common(g: pa.Table) -> pa.Table:
        t = g.group_by("term").aggregate([("df", "sum")])
        df = t.column("df_sum").to_numpy()
        keep = df * 1_000_000 >= thr
        return pa.table(
            {
                "term": t.column("term").filter(pa.array(keep)),
                "df": pa.array(df[keep], pa.int64()),
            }
        )

    common_rows = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_common, batch_format="pyarrow")
        .take_all()
    )
    common_ref = ray.put(frozenset(r["term"] for r in common_rows))

    def score(batch: pa.Table) -> pa.Table:
        cs = ray.get(common_ref)
        ratios, types = [], []
        for t in batch.column("text").to_pylist():
            toks = _tokens(t)
            nt = len(toks)
            if nt == 0:
                ratios.append(0)
                types.append(0)
                continue
            nc = 0
            seen: set = set()
            for w in toks:
                if w in cs:
                    nc += 1
                    seen.add(w)
            ratios.append(nc * 1_000_000 // nt)
            types.append(len(seen))
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "common_ratio_ppm": pa.array(ratios, pa.int64()),
                "n_common_types": pa.array(types, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# heavy hitters: bounded-memory sketch + exact recount (two passes)

def doc_top_terms(
    ds: "ray.data.Dataset", *, k: int = 3, num_partitions: int = 32
) -> "ray.data.Dataset":
    """(doc_id, term, rank): per-document top-k tf-idf keywords —
    weight = tf * ln(N/df), rank by (weight desc, term asc), rank 1..k.

    Fully distributed, no vocabulary broadcast: per-doc tf rows
    partition by crc32(term), each term run computes its exact df
    in-partition and attaches it to the rows; rows re-partition by
    doc hash and the per-doc top-k runs inside the partition.

    Cross-engine determinism: equal (tf, df) pairs produce exactly
    equal weights in any engine, so all systematic ties resolve by the
    term tie-break; distinct (tf, df) weights colliding within one ulp
    of each other (where libm ln disagreement could flip an order) is
    a ~1e-16-probability coincidence, not a data pattern.
    """
    import math
    import zlib
    from collections import Counter

    from textindex_ray.functions._util import probe_count

    P = int(num_partitions)
    ds, n_docs = probe_count(ds)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "term": pa.array([], pa.string()),
         "rank": pa.array([], pa.int64())}
    )
    if n_docs == 0:
        return empty  # schema-preserving degenerate result

    def explode(batch: pa.Table) -> pa.Table:
        o_d: list = []
        o_t: list = []
        o_f: list = []
        o_p: list = []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for w, c in Counter(_tokens(t)).items():
                o_d.append(d)
                o_t.append(w)
                o_f.append(c)
                o_p.append(zlib.crc32(w.encode("utf-8")) % P)
        return pa.table(
            {"doc_id": pa.array(o_d, pa.int64()),
             "term": pa.array(o_t, pa.string()),
             "tf": pa.array(o_f, pa.int64()),
             "part": pa.array(o_p, pa.int32())}
        )

    import pyarrow.compute as pc

    def attach_df(g: pa.Table) -> pa.Table:
        t = g.sort_by([("term", "ascending")])
        term = t.column("term").combine_chunks()
        n = len(term)
        if n == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "term": pa.array([], pa.string()),
                 "tf": pa.array([], pa.int64()),
                 "df": pa.array([], pa.int64()),
                 "part": pa.array([], pa.int32())}
            )
        eq = pc.equal(term.slice(1, n - 1), term.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
        starts = np.concatenate(([0], np.flatnonzero(~eq) + 1, [n]))
        df = np.empty(n, dtype=np.int64)
        for s, e in zip(starts[:-1], starts[1:]):
            df[s:e] = e - s
        ids = t.column("doc_id").to_numpy().astype(np.uint64)
        part2 = ((ids * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(P)).astype(
            np.int32
        )
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "term": t.column("term"),
             "tf": t.column("tf"),
             "df": pa.array(df, pa.int64()),
             "part": pa.array(part2, pa.int32())}
        )

    def part_topk(g: pa.Table) -> pa.Table:
        tf = g.column("tf").to_numpy().astype(np.int64)
        df = g.column("df").to_numpy().astype(np.int64)
        ids = g.column("doc_id").to_numpy()
        terms = g.column("term").to_pylist()
        logs = {int(d): math.log(n_docs / d) for d in set(df.tolist())}
        w = np.array([t * logs[int(d)] for t, d in zip(tf.tolist(), df.tolist())])
        rows = sorted(
            range(len(ids)), key=lambda i: (ids[i], -w[i], terms[i])
        )
        o_d, o_t, o_r = [], [], []
        prev, r = None, 0
        for i in rows:
            d = int(ids[i])
            r = r + 1 if d == prev else 1
            prev = d
            if r <= k:
                o_d.append(d)
                o_t.append(terms[i])
                o_r.append(r)
        return pa.table(
            {"doc_id": pa.array(o_d, pa.int64()),
             "term": pa.array(o_t, pa.string()),
             "rank": pa.array(o_r, pa.int64())}
        )

    return (
        ds.select_columns(["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("part")
        .map_groups(attach_df, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_topk, batch_format="pyarrow")
    )


def lang_stats(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """(lang_pred, n_docs, sum_tokens, mean_tokens_ppm): the per-language
    corpus report card. One fused tokenization pass emits per-batch
    (lang, count, token-sum) combiner partials; the final groupby runs
    over a handful of language rows (integer sums — order-free, exact;
    mean as integer ppm, floor)."""
    from collections import Counter

    def partial(batch: pa.Table) -> pa.Table:
        nd: Counter = Counter()
        st: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = _tokens(t)
            best_lang, best_n = "und", 0
            for lang in ("de", "en", "fr"):
                n = sum(1 for w in toks if w in LANG_MARKERS[lang])
                if n > best_n:
                    best_lang, best_n = lang, n
            nd[best_lang] += 1
            st[best_lang] += len(toks)
        ls = sorted(nd)
        return pa.table(
            {"lang_pred": pa.array(ls, pa.string()),
             "n": pa.array([nd[l] for l in ls], pa.int64()),
             "s": pa.array([st[l] for l in ls], pa.int64())}
        )

    def finish(g: pa.Table) -> pa.Table:
        t = g.group_by("lang_pred").aggregate([("n", "sum"), ("s", "sum")])
        n = t.column("n_sum").to_numpy().astype(np.int64)
        s = t.column("s_sum").to_numpy().astype(np.int64)
        return pa.table(
            {"lang_pred": t.column("lang_pred"),
             "n_docs": pa.array(n, pa.int64()),
             "sum_tokens": pa.array(s, pa.int64()),
             "mean_tokens_ppm": pa.array(s * 1_000_000 // n, pa.int64())}
        )

    return (
        ds.select_columns(["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang_pred")
        .map_groups(finish, batch_format="pyarrow")
    )


def source_cap_sample(
    ds: "ray.data.Dataset", *, cap: int = 10, by: str = "source",
) -> "ray.data.Dataset":
    """Per-source cap sampling — the domain-balancing step of web-corpus
    curation (RefinedWeb/C4-style: no single source may dominate the
    training mix): keep at most ``cap`` docs per ``by`` group, selected
    by deterministic md5 rank (DuckDB-reproducible:
    ``('0x'||substr(md5(doc_id::VARCHAR),1,8))::BIGINT``, ties by
    doc_id), so the sample is content-independent and stable across
    runs/partitionings. Output (doc_id, source).

    Shape: per-batch combiner keeps its local top-``cap`` per group
    (bounded: groups-in-batch x cap rows leave each task), then ONE
    coarse groupby finishes — group payload is O(blocks x cap), never
    O(group size), so a hot source cannot blow a reducer."""
    import hashlib

    def rank_of(ids) -> np.ndarray:
        md5 = hashlib.md5
        return np.fromiter(
            (int(md5(str(i).encode()).hexdigest()[:8], 16) for i in ids),
            np.int64, len(ids),
        )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        src = batch.column(by).to_pylist()
        h = rank_of(ids)
        order = np.lexsort((ids, h))
        keep: list[int] = []
        seen: dict = {}
        for j in order:
            s = src[j]
            c = seen.get(s, 0)
            if c < cap:
                seen[s] = c + 1
                keep.append(j)
        k = np.asarray(keep, np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[k].astype(np.int64), pa.int64()),
                by: pa.array([src[int(j)] for j in k], pa.string()),
                "h": pa.array(h[k], pa.int64()),
            }
        )

    def finish(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id").to_numpy()
        h = g.column("h").to_numpy()
        order = np.lexsort((ids, h))[:cap]
        sel = np.sort(ids[order])
        return pa.table(
            {
                "doc_id": pa.array(sel, pa.int64()),
                by: pa.array([g.column(by)[0].as_py()] * sel.size, pa.string()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(by)
        .map_groups(finish, batch_format="pyarrow")
    )


def stratified_sample(
    ds: "ray.data.Dataset",
    *,
    rates_ppm: dict | None = None,
    default_ppm: int = 0,
) -> "ray.data.Dataset":
    """(doc_id, lang_pred) of sampled docs: deterministic per-stratum
    content-hash sampling — each doc's stratum is its predicted
    language, and it survives iff md5(text)-derived ppm < the stratum's
    rate (the language-rebalancing step of corpus assembly; content-
    keyed like hash_split, so exact duplicates sample identically and
    the draw is reproducible on any cluster size). Strata without an
    entry use ``default_ppm``. Embarrassingly parallel; no shuffle.
    """
    rates = dict(rates_ppm or {})

    def fn(batch: pa.Table) -> pa.Table:
        o_id, o_lang = [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = _tokens(t)
            best_lang, best_n = "und", 0
            for lang in ("de", "en", "fr"):
                n = sum(1 for w in toks if w in LANG_MARKERS[lang])
                if n > best_n:
                    best_lang, best_n = lang, n
            rate = rates.get(best_lang, default_ppm)
            h = int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16) % 1_000_000
            if h < rate:
                o_id.append(did)
                o_lang.append(best_lang)
        return pa.table(
            {"doc_id": pa.array(o_id, pa.int64()),
             "lang_pred": pa.array(o_lang, pa.string())}
        )

    return ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def term_cooccurrence(
    ds: "ray.data.Dataset", *, min_ppm: int = 5_000, num_partitions: int = 32
) -> "ray.data.Dataset":
    """(term_a, term_b, n_docs): document co-occurrence counts between
    HEAVY terms (cf/total >= min_ppm) — the PMI/collocation-matrix
    input beyond adjacency (heavy_bigrams covers adjacent pairs).

    The candidate vocabulary is the exact heavy-hitter set, which the
    MG guarantee bounds at ~1e6/min_ppm terms REGARDLESS of corpus
    size — so broadcasting it (ray.put once) is scale-safe by
    construction. Per batch, each doc's present heavy terms emit
    vectorized triu pairs, locally combined; one coarse pair-hash
    shuffle finishes the exact counts.
    """
    import zlib

    import ray

    heavy = heavy_terms(ds, min_ppm=min_ppm)
    terms = heavy.column("term").to_pylist()
    empty = pa.table(
        {"term_a": pa.array([], pa.string()),
         "term_b": pa.array([], pa.string()),
         "n_docs": pa.array([], pa.int64())}
    )
    if len(terms) < 2:
        return empty
    hv_ref = ray.put(frozenset(terms))
    P = int(num_partitions)

    def pairs(batch: pa.Table) -> pa.Table:
        hv = ray.get(hv_ref)
        from collections import Counter

        cnt: Counter = Counter()
        for t in batch.column("text").to_pylist():
            present = sorted({w for w in _tokens(t) if w in hv})
            for i in range(len(present)):
                for j in range(i + 1, len(present)):
                    cnt[(present[i], present[j])] += 1
        if not cnt:
            return pa.table(
                {"term_a": pa.array([], pa.string()),
                 "term_b": pa.array([], pa.string()),
                 "c": pa.array([], pa.int64()),
                 "part": pa.array([], pa.int32())}
            )
        ks = sorted(cnt)
        return pa.table(
            {"term_a": pa.array([k[0] for k in ks], pa.string()),
             "term_b": pa.array([k[1] for k in ks], pa.string()),
             "c": pa.array([cnt[k] for k in ks], pa.int64()),
             "part": pa.array(
                 [zlib.crc32((a + "\x00" + b).encode("utf-8")) % P
                  for a, b in ks], pa.int32())}
        )

    def part_sum(g: pa.Table) -> pa.Table:
        t = g.group_by(["term_a", "term_b"]).aggregate([("c", "sum")])
        return pa.table(
            {"term_a": t.column("term_a"), "term_b": t.column("term_b"),
             "n_docs": t.column("c_sum").cast(pa.int64())}
        )

    return (
        ds.select_columns(["doc_id", "text"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_sum, batch_format="pyarrow")
    )


def select_budget(
    ds: "ray.data.Dataset",
    *,
    budget_tokens: int = 12_000,
    num_ranges: int = 32,
) -> "ray.data.Dataset":
    """(doc_id, cum_before): greedy budget-capped data selection — rank
    every document by quality (stopword ratio desc, doc_id tiebreak)
    and keep docs while the EXCLUSIVE token prefix stays below
    ``budget_tokens`` (the "select the best N tokens of the corpus"
    step of a training-data pipeline; the last kept doc may overflow
    the budget — standard greedy fill). cum_before = tokens consumed
    by all better-ranked docs.

    Distributed ordered prefix scan over an arbitrary sort key —
    pack_bins's three-stage plan re-keyed: per-block key partials pick
    range boundaries on (1e6 - stop_ppm); equal keys land in one range
    (searchsorted side='right'), so the within-range
    (key, doc_id)-sorted cumsum plus the driver's O(num_ranges) offset
    cumsum reproduces the global ORDER BY prefix exactly. One coarse
    shuffle; driver state is O(num_ranges)."""
    import pyarrow.compute as pc

    B = int(num_ranges)
    budget = int(budget_tokens)

    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "cum_before": pa.array([], pa.int64())}
    )

    def gate(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        o_nt, o_key = [], []
        for t in b.column("text").to_pylist():
            toks = _tokens(t)
            nt = len(toks)
            stop = (
                sum(1 for w in toks if w in _ALL_STOP_MARKERS) * 1_000_000 // nt
                if nt else 0
            )
            o_nt.append(nt)
            o_key.append(1_000_000 - stop)  # ascending key == stop desc
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_tokens": pa.array(o_nt, pa.int64()),
             "key": pa.array(o_key, pa.int64())}
        )

    base = ds.select_columns(["doc_id", "text"]).map_batches(
        gate, batch_format="pyarrow"
    ).materialize()

    # sampled-quantile boundaries: the quality key is NOT span-uniform
    # (stop ratios cluster), so equal-width splits would pile most rows
    # into few ranges; quantiles split by count
    from textindex_ray.functions._util import sampled_range_bounds

    bounds = sampled_range_bounds(base, "key", B)
    if bounds is None:
        return empty

    def add_range(b: pa.Table) -> pa.Table:
        k = b.column("key").to_numpy()
        rid = np.searchsorted(bounds, k, side="right").astype(np.int32)
        return b.append_column("range_id", pa.array(rid, pa.int32()))

    ranged = base.map_batches(add_range, batch_format="pyarrow")

    def range_sum(g: pa.Table) -> pa.Table:
        s = pc.sum(g.column("n_tokens")).as_py() or 0
        return pa.table(
            {"range_id": pa.array([g.column("range_id")[0].as_py()], pa.int32()),
             "s": pa.array([int(s)], pa.int64())}
        )

    sums = {
        r["range_id"]: r["s"]
        for r in ranged.groupby("range_id")
        .map_groups(range_sum, batch_format="pyarrow")
        .take_all()
    }
    offsets = {}
    acc = 0
    for rid in sorted(sums):
        offsets[rid] = acc
        acc += sums[rid]

    def part_keep(g: pa.Table) -> pa.Table:
        off = offsets[g.column("range_id")[0].as_py()]
        if off >= budget:  # whole range past the budget
            return empty
        t = g.sort_by([("key", "ascending"), ("doc_id", "ascending")])
        nt = t.column("n_tokens").to_numpy().astype(np.int64)
        excl = np.cumsum(nt) - nt + off
        keep = excl < budget
        return pa.table(
            {"doc_id": t.column("doc_id").filter(pa.array(keep)).cast(pa.int64()),
             "cum_before": pa.array(excl[keep], pa.int64())}
        )

    return ranged.groupby("range_id").map_groups(
        part_keep, batch_format="pyarrow"
    )


def _mg_add(counters: dict, term: str, weight: int, k: int) -> None:
    """Weighted Misra-Gries add: at most k counters survive."""
    if term in counters:
        counters[term] += weight
    elif len(counters) < k:
        counters[term] = weight
    else:
        # decrement all by the smallest amount that frees a slot
        dec = min(weight, min(counters.values()))
        dead = []
        for t in counters:
            counters[t] -= dec
            if counters[t] <= 0:
                dead.append(t)
        for t in dead:
            del counters[t]
        if weight > dec:
            counters[term] = weight - dec


def _heavy_exact(
    ds: "ray.data.Dataset", key_col: str, keys_of, min_ppm: int
) -> pa.Table:
    """EXACT corpus-wide heavy hitters (keys with cf/total >= min_ppm)
    computed with bounded memory in two passes:

    1. sketch: per-batch Misra-Gries summaries of k = ceil(1e6/min_ppm)+1
       counters each (one row per batch), merged on the driver with the
       weighted-MG combine — the classic guarantee (estimation error
       <= total/k < total*min_ppm/1e6) makes the merged counter set a
       SUPERSET of every true heavy hitter, at most k candidates.
    2. recount: candidates broadcast; one vectorized pass counts their
       exact cf and the total slot count; the final integer-ppm filter
       matches the SQL GROUP BY ... HAVING oracle exactly.

    ``keys_of(text) -> list[str]`` yields one key per counted slot.
    Returns a pa.Table (key_col, cf) — exact values, never
    approximations; the sketch only bounds the candidate set.
    """
    from collections import Counter

    import ray

    k = 1_000_000 // max(1, min_ppm) + 2

    def sketch(batch: pa.Table) -> pa.Table:
        counters: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for w, c in Counter(keys_of(t)).items():
                _mg_add(counters, w, c, k)
        return pa.table(
            {
                "terms": pa.array([list(counters.keys())], pa.list_(pa.string())),
                "counts": pa.array([list(counters.values())], pa.list_(pa.int64())),
            }
        )

    merged: dict[str, int] = {}
    for bt in ds.map_batches(sketch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for ts, cs in zip(bt.column("terms").to_pylist(), bt.column("counts").to_pylist()):
            for t, c in zip(ts, cs):
                _mg_add(merged, t, int(c), k)
    cand = sorted(merged)
    if not cand:
        return pa.table({key_col: pa.array([], pa.string()),
                         "cf": pa.array([], pa.int64())})
    cand_ref = ray.put(frozenset(cand))

    def recount(batch: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        counts = Counter()
        total = 0
        for t in batch.column("text").to_pylist():
            keys = keys_of(t)
            total += len(keys)
            for w in keys:
                if w in cs:
                    counts[w] += 1
        terms = sorted(counts)
        return pa.table(
            {
                "term": pa.array(terms + ["\x00total"], pa.string()),
                "cf": pa.array([counts[t] for t in terms] + [total], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(recount, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cf", alias_name="cf"))
        .to_pandas()
    )
    total = int(agg.loc[agg["term"] == "\x00total", "cf"].iloc[0])
    agg = agg[agg["term"] != "\x00total"]
    keep = agg[agg["cf"].to_numpy() * 1_000_000 >= total * min_ppm].sort_values("term")
    return pa.table(
        {
            key_col: pa.array(keep["term"].tolist(), pa.string()),
            "cf": pa.array(keep["cf"].to_numpy().astype("int64"), pa.int64()),
        }
    )


def heavy_terms(ds: "ray.data.Dataset", *, min_ppm: int = 5_000):
    """(term, cf) for every term with cf/total_tokens >= min_ppm —
    exact two-pass MG-sketch + recount plan (:func:`_heavy_exact`).
    Tokens = the same regex-word definition as the other textstats ops
    (SQL ``\\pL+``)."""
    return _heavy_exact(ds, "term", _tokens, min_ppm)


def heavy_bigrams(ds: "ray.data.Dataset", *, min_ppm: int = 2_000):
    """(bigram, cf) for every adjacent token pair ('a b' keys) whose
    count over the corpus-wide bigram slots (sum of n_tokens - 1 per
    doc) reaches min_ppm — the collocation-mining analog, exact via the
    same two-pass MG-sketch + recount plan as :func:`heavy_terms`."""

    def bigrams_of(t: str) -> list:
        toks = _tokens(t)
        return [a + " " + b for a, b in zip(toks, toks[1:])]

    return _heavy_exact(ds, "bigram", bigrams_of, min_ppm)


def mixture_sample(
    ds: "ray.data.Dataset",
    weights_ppm: dict,
    total_tokens: int,
    *,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Domain-mixture selection — the data-mixing step of a pretraining
    pipeline (DoReMi/The-Pile-style target proportions): per source,
    keep documents in deterministic md5(doc_id)-rank order while the
    source's EXCLUSIVE token prefix stays below its budget
    ``weights_ppm[source] * total_tokens // 1e6`` (greedy fill, the
    select_budget contract; sources absent from ``weights_ppm`` get
    budget 0). Output (doc_id, source, n_tokens). All-integer ->
    exact SQL twin (per-source window cumsum over (rank, doc_id)).

    Scale shape (no per-source group ever materializes): one tokenize
    pass tags each doc with its uniform rank BUCKET; per-block partials
    reduce to a driver matrix of sources x num_buckets token sums
    (tiny); the driver classifies each (source, bucket) as full-keep /
    full-drop / boundary by bucket-level prefix sums; full-keep rows
    stream through a filter, and ONLY the <=1 boundary bucket per
    source (~ source_tokens / num_buckets) takes the within-group
    ordered cumsum. Driver state is O(sources x num_buckets)."""
    import hashlib

    from textindex_ray.functions._util import probe_count

    B = int(num_buckets)
    budgets = {
        str(s): (int(p) * int(total_tokens)) // 1_000_000
        for s, p in weights_ppm.items()
    }
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "source": pa.array([], pa.string()),
         "n_tokens": pa.array([], pa.int64())}
    )

    def gate(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        md5 = hashlib.md5
        rk = np.fromiter(
            (int(md5(str(i).encode()).hexdigest()[:8], 16) for i in ids),
            np.int64, len(ids),
        )
        nt = np.fromiter(
            (len(_tokens(t)) for t in b.column("text").to_pylist()),
            np.int64, len(ids),
        )
        return pa.table(
            {"doc_id": pa.array(np.asarray(ids, np.int64), pa.int64()),
             "source": b.column("source").cast(pa.string()),
             "n_tokens": pa.array(nt, pa.int64()),
             "rk": pa.array(rk, pa.int64()),
             "bucket": pa.array((rk * B) // (1 << 32), pa.int64())}
        )

    feats, n = probe_count(
        ds.select_columns(["doc_id", "source", "text"]).map_batches(
            gate, batch_format="pyarrow"
        )
    )
    if n == 0:
        return empty

    # driver matrix: token sum per (source, bucket) — O(sources x B)
    sums: dict = {}
    for blk in feats.select_columns(["source", "bucket", "n_tokens"]).iter_batches(
        batch_format="pyarrow"
    ):
        t = blk.group_by(["source", "bucket"]).aggregate([("n_tokens", "sum")])
        for s, bk, v in zip(
            t.column("source").to_pylist(),
            t.column("bucket").to_pylist(),
            t.column("n_tokens_sum").to_pylist(),
        ):
            sums[(s, bk)] = sums.get((s, bk), 0) + int(v)

    keep_full: set = set()   # (source, bucket) entirely kept
    boundary: dict = {}      # (source, bucket) -> tokens before the bucket
    for s in {k[0] for k in sums}:
        budget = budgets.get(s, 0)
        pre = 0
        for bk in range(B):
            tok = sums.get((s, bk), 0)
            if tok == 0:
                continue
            if pre + tok <= budget:
                keep_full.add((s, bk))     # every exclusive prefix < budget
            elif pre < budget:
                boundary[(s, bk)] = pre    # the one partial bucket
            pre += tok
            if pre >= budget:
                break

    def keep_filter(b: pa.Table) -> pa.Table:
        src = b.column("source").to_pylist()
        bk = b.column("bucket").to_pylist()
        m = np.fromiter(
            ((s, k) in keep_full for s, k in zip(src, bk)), bool, len(src)
        )
        return b.filter(pa.array(m)).select(["doc_id", "source", "n_tokens"])

    def boundary_filter(b: pa.Table) -> pa.Table:
        src = b.column("source").to_pylist()
        bk = b.column("bucket").to_pylist()
        m = np.fromiter(
            ((s, k) in boundary for s, k in zip(src, bk)), bool, len(src)
        )
        return b.filter(pa.array(m))

    kept = feats.map_batches(keep_filter, batch_format="pyarrow")
    if not boundary:
        return kept

    def refine(g: pa.Table) -> pa.Table:
        s = g.column("source")[0].as_py()
        budget = budgets.get(s, 0)
        pre = boundary[(s, g.column("bucket")[0].as_py())]
        rk = g.column("rk").to_numpy()
        ids = g.column("doc_id").to_numpy()
        nt = g.column("n_tokens").to_numpy()
        order = np.lexsort((ids, rk))
        cum_before = pre + np.concatenate(
            ([0], np.cumsum(nt[order])[:-1])
        )
        sel = order[cum_before < budget]
        return pa.table(
            {"doc_id": pa.array(ids[sel], pa.int64()),
             "source": pa.array([s] * sel.size, pa.string()),
             "n_tokens": pa.array(nt[sel], pa.int64())}
        )

    refined = (
        feats.map_batches(boundary_filter, batch_format="pyarrow")
        .groupby("source")  # <=1 boundary bucket per source
        .map_groups(refine, batch_format="pyarrow")
    )
    return kept.union(refined)


def blocklist_filter(
    ds: "ray.data.Dataset", blocked, *, keep_hits: bool = True
) -> "ray.data.Dataset":
    """(doc_id, n_blocked, keep): blocklist gate — the C4-style
    badword-list curation step. Counts occurrences of blocklisted
    tokens per document (word-run tokenizer, frozenset membership);
    ``keep`` = 1 iff zero hits. ``keep_hits=False`` returns only the
    clean docs (the filter form). All-integer -> exact SQL twin
    (token CTE + IN-list count). The blocklist rides the closure —
    real badword lists are a few thousand entries, far under broadcast
    concern; a corpus-sized list would use the decontaminate
    partitioned plan instead."""
    bset = frozenset(str(w).lower() for w in blocked)

    def gate(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id")
        hits = np.fromiter(
            (sum(1 for w in _tokens(t) if w in bset)
             for t in b.column("text").to_pylist()),
            np.int64, b.num_rows,
        )
        t = pa.table(
            {"doc_id": ids.cast(pa.int64()),
             "n_blocked": pa.array(hits, pa.int64()),
             "keep": pa.array((hits == 0).astype(np.int64), pa.int64())}
        )
        if not keep_hits:
            t = t.filter(pa.array(hits == 0)).select(["doc_id"])
        return t

    return ds.select_columns(["doc_id", "text"]).map_batches(
        gate, batch_format="pyarrow"
    )


def pack_sequences(
    ds: "ray.data.Dataset",
    *,
    seq_len: int = 2048,
    num_ranges: int = 64,
) -> "pa.Table | ray.data.Dataset":
    """GPT-style training-sequence packing plan: conceptually
    concatenate every document's token stream in ``doc_id`` order and
    cut fixed ``seq_len`` windows; emit each doc's slot in that global
    stream — (doc_id, n_tokens, tok_offset, seq_first, seq_last), all
    int64. Zero-token docs occupy no slots and are absent. The SQL twin
    is a window cumsum (``sum() OVER (ORDER BY doc_id ... 1
    PRECEDING)``), so every value is integer-exact.

    This is the distributed PREFIX-SUM (scan) primitive: a global
    ordered cumulative offset, which no single groupby expresses.
    Plan:
    1. one tokenize pass reduces the corpus to a tiny (doc_id,
       n_tokens) relation (16 B/doc), materialized once — at the
       10^12-doc scale this checkpoint would be a parquet write, the
       same pattern as the build's tokenized staging table;
    2. docs partition into ``num_ranges`` contiguous doc_id ranges
       (fixed width over the observed max — range r's ids all precede
       range r+1's); per-range token totals are batch-combined partial
       sums, and the driver scans the R totals into exclusive base
       offsets (O(num_ranges) driver state, the bounded-reduce rule);
    3. one groupby(range) over the counts relation sorts each range by
       doc_id and adds base + within-range exclusive cumsum.
    Size ``num_ranges`` so a range's counts fit one task (~docs/R
    rows); seq boundaries then derive per row with no further shuffle.
    """
    from textindex_ray.functions._util import probe_count

    S = int(seq_len)
    R = int(num_ranges)
    out_schema = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "n_tokens": pa.array([], pa.int64()),
         "tok_offset": pa.array([], pa.int64()),
         "seq_first": pa.array([], pa.int64()),
         "seq_last": pa.array([], pa.int64())}
    )

    def count(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.int64())
        if batch.num_rows and ids.to_numpy().min() < 0:
            # a negative id would wrap the range arithmetic (rg // width
            # and bases[rg]) into silent offset corruption — fail loud
            raise ValueError("pack_sequences requires non-negative doc_id")
        n = np.fromiter(
            (len(_tokens(t)) for t in batch.column("text").to_pylist()),
            np.int64, batch.num_rows,
        )
        keep = n > 0
        return pa.table(
            {"doc_id": ids.filter(pa.array(keep)),
             "n_tokens": pa.array(n[keep], pa.int64())}
        )

    counts, n_rows = probe_count(
        ds.select_columns(["doc_id", "text"]).map_batches(
            count, batch_format="pyarrow"
        )
    )
    if n_rows == 0:
        return out_schema
    max_id = counts.max("doc_id")
    width = max_id // R + 1

    def range_partials(batch: pa.Table) -> pa.Table:
        rg = batch.column("doc_id").to_numpy() // width
        # int64 scatter-add (bincount's weights= would sum in float64)
        tot = np.zeros(R, np.int64)
        np.add.at(tot, rg, batch.column("n_tokens").to_numpy())
        nz = np.flatnonzero(tot)
        return pa.table(
            {"rg": pa.array(nz, pa.int64()),
             "tot": pa.array(tot[nz], pa.int64())}
        )

    # driver reduce: R-bounded totals -> exclusive-scan base offsets
    parts = counts.map_batches(
        range_partials, batch_format="pyarrow"
    ).to_pandas()
    totals = np.zeros(R, np.int64)
    np.add.at(totals, parts["rg"].to_numpy(), parts["tot"].to_numpy())
    bases = np.concatenate(([0], np.cumsum(totals)[:-1]))

    def add_rg(batch: pa.Table) -> pa.Table:
        rg = batch.column("doc_id").to_numpy() // width
        return batch.append_column("rg", pa.array(rg, pa.int64()))

    def scan_range(g: pa.Table) -> pa.Table:
        t = g.sort_by("doc_id")
        n = t.column("n_tokens").to_numpy()
        rg = int(t.column("rg")[0].as_py())
        off = bases[rg] + np.concatenate(([0], np.cumsum(n)[:-1]))
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "n_tokens": t.column("n_tokens"),
             "tok_offset": pa.array(off, pa.int64()),
             "seq_first": pa.array(off // S, pa.int64()),
             "seq_last": pa.array((off + n - 1) // S, pa.int64())}
        )

    return (
        counts.map_batches(add_rg, batch_format="pyarrow")
        .groupby("rg")
        .map_groups(scan_range, batch_format="pyarrow")
    )


def gopher_rules(
    *,
    min_tokens: int = 50,
    max_tokens: int = 100_000,
    min_wlen_ppm: int = 3_000_000,
    max_wlen_ppm: int = 10_000_000,
    min_stop_ppm: int = 60_000,
    max_punct_ppm: int = 100_000,
    max_dup_line_ppm: int = 300_000,
    max_top_bigram_ppm: int = 180_000,
):
    """Gopher quality rules ("Scaling Language Models...", Rae et al.
    2021, table A1 analog over this engine's integer signals): the
    composite document gate every web-scale curation pipeline applies
    before dedup. Returns a map_batches fn emitting
    (doc_id, keep, fail_bits) for EVERY doc — keep = 1 iff no rule
    fails; fail_bits is the diagnostic bitmask (bit 0 token count out
    of [min,max], 1 mean word length out of range, 2 stopword ratio
    below floor, 3 punctuation ratio above cap, 4 duplicate-line ppm
    above cap, 5 top-bigram ppm above cap).

    Signals come from quality_batch and repetition_batch VERBATIM (the
    same kernels behind the graded quality_score / repetition queries),
    so the SQL twin is a threshold conjunction over those two verified
    oracles — all-integer, bit-exact. Pure per-row map: no shuffle, no
    state; composes with curate's fused-gate plan at any scale.
    """
    B = dict(mnt=int(min_tokens), mxt=int(max_tokens),
             mnw=int(min_wlen_ppm), mxw=int(max_wlen_ppm),
             mns=int(min_stop_ppm), mxp=int(max_punct_ppm),
             mxd=int(max_dup_line_ppm), mxb=int(max_top_bigram_ppm))

    def fn(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        r = repetition_batch(batch)
        nt = q.column("n_tokens").to_numpy()
        wl = q.column("mean_word_len_ppm").to_numpy()
        st = q.column("stop_ratio_ppm").to_numpy()
        pu = q.column("punct_ratio_ppm").to_numpy()
        dl = r.column("dup_line_ppm").to_numpy()
        tb = r.column("top_bigram_ppm").to_numpy()
        bits = ((nt < B["mnt"]) | (nt > B["mxt"])).astype(np.int64)
        bits |= (((wl < B["mnw"]) | (wl > B["mxw"])).astype(np.int64)) << 1
        bits |= ((st < B["mns"]).astype(np.int64)) << 2
        bits |= ((pu > B["mxp"]).astype(np.int64)) << 3
        bits |= ((dl > B["mxd"]).astype(np.int64)) << 4
        bits |= ((tb > B["mxb"]).astype(np.int64)) << 5
        return pa.table(
            {"doc_id": q.column("doc_id").cast(pa.int64()),
             "keep": pa.array((bits == 0).astype(np.int64), pa.int64()),
             "fail_bits": pa.array(bits, pa.int64())}
        )

    return fn


# ---------------------------------------------------------------------------
# bigram-LM perplexity (CCNet-style quality filter, Wenzek et al. 2020)

def lm_train(
    ds: "ray.data.Dataset",
    *,
    vocab_min_ppm: int = 1_000,
    num_partitions: int = 32,
) -> dict:
    """Train the bounded add-one bigram LM over a (reference) corpus;
    returns a plain picklable model dict — ``vocab`` (sorted heavy
    terms), ``keys`` (sorted composite int64 bigram ids), ``log_num`` /
    ``log_den`` (libm-log tables) — that :func:`lm_score` broadcasts.
    Bounds and determinism as documented on :func:`lm_perplexity`;
    the CCNet shape is train on a curated slice, score the raw crawl.

    Consumes ``ds`` three times (vocab sketch, vocab recount, bigram
    partials): pass a re-readable or materialized dataset.
    """
    import math
    from collections import Counter

    import ray

    P = int(num_partitions)

    vocab_tbl = _heavy_exact(ds, "term", _tokens, int(vocab_min_ppm))
    vocab = vocab_tbl.column("term").to_pylist()  # sorted by _heavy_exact
    V = len(vocab)
    vid = {w: i for i, w in enumerate(vocab)}
    vid_ref = ray.put(vid)

    def bigram_partial(batch: pa.Table) -> pa.Table:
        m = ray.get(vid_ref)
        cnt: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = _tokens(t)
            ids = [m.get(w, V) for w in toks]
            cnt.update(
                a * (V + 1) + b for a, b in zip(ids, ids[1:])
            )
        keys = np.fromiter(cnt.keys(), dtype=np.int64, count=len(cnt))
        vals = np.fromiter(cnt.values(), dtype=np.int64, count=len(cnt))
        return pa.table(
            {
                "key": pa.array(keys, pa.int64()),
                "c": pa.array(vals, pa.int64()),
                "part": pa.array(keys % P, pa.int32()),
            }
        )

    def part_sum(g: pa.Table) -> pa.Table:
        t = g.group_by("key").aggregate([("c", "sum")])
        return pa.table(
            {
                "key": t.column("key").cast(pa.int64()),
                "c": t.column("c_sum").cast(pa.int64()),
            }
        )

    big = (
        ds.map_batches(bigram_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_sum, batch_format="pyarrow")
        .to_pandas()
    )
    # bounded driver reduce: <= (V+1)^2 rows by construction.  A corpus
    # of only sub-2-token docs yields zero bigram rows everywhere, and
    # an all-empty-groups map_groups loses the schema — guard it.
    if len(big) == 0 or "key" not in big.columns:
        keys = np.array([], dtype=np.int64)
        cs = np.array([], dtype=np.int64)
    else:
        keys = big["key"].to_numpy().astype(np.int64)
        cs = big["c"].to_numpy().astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys, cs = keys[order], cs[order]
    # integer log tables (libm math.log of exact ints; see contract)
    log_num = np.array([math.log(int(c) + 1) for c in cs], dtype=np.float64)
    c1 = np.zeros(V + 1, dtype=np.int64)
    np.add.at(c1, keys // (V + 1), cs)
    log_den = np.array(
        [math.log(int(x) + V + 1) for x in c1], dtype=np.float64
    )
    return {
        "vocab": vocab,
        "keys": keys,
        "log_num": log_num,
        "log_den": log_den,
    }


def lm_score(ds: "ray.data.Dataset", model: dict) -> "ray.data.Dataset":
    """Score any corpus under a :func:`lm_train` model — the
    cross-corpus half of the CCNet filter (model from a reference
    slice, scores over the raw crawl). One stateless streaming pass;
    the model is broadcast once via ray.put. Output and determinism
    contract identical to :func:`lm_perplexity`."""
    import math

    import ray

    vocab = model["vocab"]
    V = len(vocab)
    vid = {w: i for i, w in enumerate(vocab)}
    bcast = ray.put((vid, model["keys"], model["log_num"], model["log_den"]))

    def score(batch: pa.Table) -> pa.Table:
        m, skeys, slog_num, slog_den = ray.get(bcast)
        out_n, out_x = [], []
        for t in batch.column("text").to_pylist():
            toks = _tokens(t)
            n = len(toks)
            out_n.append(n)
            if n < 2:
                out_x.append(0)
                continue
            ids = np.fromiter((m.get(w, V) for w in toks), dtype=np.int64, count=n)
            bk = ids[:-1] * (V + 1) + ids[1:]
            pos = np.searchsorted(skeys, bk)
            posc = np.minimum(pos, max(len(skeys) - 1, 0))
            if len(skeys):
                found = skeys[posc] == bk
                lnum = np.where(found, slog_num[posc], 0.0)
            else:
                lnum = np.zeros(n - 1, dtype=np.float64)
            vals = lnum - slog_den[ids[:-1]]
            h = -vals.sum() / (n - 1)
            out_x.append(int(math.floor(h * 1e6)))
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_tokens": pa.array(out_n, pa.int64()),
                "xent_unat": pa.array(out_x, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def lm_perplexity(
    ds: "ray.data.Dataset",
    *,
    vocab_min_ppm: int = 1_000,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """(doc_id, n_tokens, xent_unat): per-document cross-entropy under
    an add-one-smoothed bigram language model trained on the corpus
    itself — the CCNet-style LM quality filter (Wenzek et al. 2020;
    CCNet scores against a Wikipedia KenLM; :func:`lm_train` +
    :func:`lm_score` give that cross-corpus form, this convenience
    composition self-trains so the operator is self-contained and
    deterministic). High xent flags gibberish / OCR noise / boilerplate
    soups; low xent flags fluent, in-distribution text.

    Model. Vocabulary = the exact corpus heavy-hitter set (terms with
    cf/total_tokens >= vocab_min_ppm via :func:`_heavy_exact`; at most
    1e6/vocab_min_ppm types), everything else maps to <unk> (id V).
    p(w2|w1) = (c(w1,w2) + 1) / (c1(w1) + V + 1) with c1 the
    left-marginal of the bigram table over the (V+1)-type mapped
    stream.  xent_unat = floor(1e6 * -sum(ln p) / (n_tokens - 1));
    docs with n_tokens < 2 score 0.

    Determinism contract (golden-graded): per-token ln values are
    ``math.log`` of INTEGER numerators/denominators looked up from
    precomputed per-distinct-value log tables (never a vectorized
    np.log, which differs from libm in the last ulp), and the per-doc
    sum is one ``np.sum`` over the position-ordered float64 array —
    the same pairwise reduction the independent golden generator uses,
    so scores are bit-equal to goldens.golden_lm_perplexity.

    Scale. Three streaming corpus passes (vocab sketch, vocab recount
    + bigram partials, score). Driver/broadcast state is bounded by
    construction: vocab <= 1e6/vocab_min_ppm types, bigram table <=
    (V+1)^2 int64 keys (~16 MB at the default V<=1000), log tables the
    same size; bigram partials take ONE coarse hash(key) % P shuffle of
    pre-combined per-batch counts. Nothing scales with corpus size on
    the driver.
    """
    from textindex_ray.functions._util import probe_count

    ds, n_docs = probe_count(ds)
    if n_docs == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "xent_unat": pa.array([], pa.int64()),
            }
        )
    model = lm_train(
        ds, vocab_min_ppm=vocab_min_ppm, num_partitions=num_partitions
    )
    return lm_score(ds, model)


# ---------------------------------------------------------------------------
# corpus-centroid outlier score (model-based quality filtering analog)

def _check_cosine_bounds(n2v: int, n2_s: int) -> None:
    """centroid_outlier's exactness bounds, on Python ints: each squared
    norm converts to float64 exactly only below 2^53, and the DuckDB
    twin's BIGINT product n2v * n2_S overflows at 2^63. Past either the
    engine and its SQL twin can disagree, so raise ValueError."""
    if n2_s >= 2**53 or n2v >= 2**53 or n2v * n2_s >= 2**63:
        raise ValueError(
            "centroid_outlier: squared norms n2v=%d, n2_S=%d exceed the exact "
            "bounds (each < 2^53, product < 2^63); use a larger d or a "
            "smaller corpus" % (n2v, n2_s)
        )


def centroid_outlier(
    ds: "ray.data.Dataset",
    *,
    d: int = 16,
) -> "ray.data.Dataset":
    """(doc_id, cos_ppm): cosine of each document's integer feature-hash
    vector (the :mod:`stages.embed` projection) against the CORPUS
    CENTROID direction — the deterministic analog of model-based
    quality/outlier filtering (score against "what this corpus looks
    like"; FineWeb-style classifiers fill the same slot with a trained
    model). Low/negative cos_ppm flags off-distribution docs
    (gibberish, wrong language, boilerplate soups); docs with a zero
    vector score 0.

    Exactness: doc vectors and the centroid S = sum of all doc vectors
    are INTEGER sums (order- and partition-free); cos_ppm =
    floor(dot * 1e6 / sqrt(n2_doc * n2_S)) is the tf_cosine_pairs
    float recipe — one correctly-rounded sqrt/divide on exact int64s,
    engine == DuckDB bit-for-bit while each n2 < 2^53 and the BIGINT
    product < 2^63. The norms and dots are Python ints, and a corpus
    past those bounds raises ValueError (``_check_cosine_bounds``)
    instead of scoring silently wrong.

    Scale: two streaming passes. Pass 1 reduces to d integers (per-
    batch vector partials -> one d-row groupby -> a d-int broadcast —
    nothing corpus-sized anywhere); pass 2 is stateless scoring.
    """
    import math

    from textindex_ray.functions._util import probe_count
    from textindex_ray.stages.embed import token_projection

    D = int(d)
    ds, n_docs = probe_count(ds)
    if n_docs == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "cos_ppm": pa.array([], pa.int64())}
        )

    memo: dict = {}

    def vec_of(text: str) -> np.ndarray:
        v = np.zeros(D, np.int64)
        for w in _tokens(text):
            p = memo.get(w)
            if p is None:
                p = token_projection(w, D)
                memo[w] = p
            v[p[0]] += p[1]
        return v

    def partial(batch: pa.Table) -> pa.Table:
        s = np.zeros(D, np.int64)
        for t in batch.column("text").to_pylist():
            s += vec_of(t)
        return pa.table(
            {"dim": pa.array(np.arange(D, dtype=np.int64), pa.int64()),
             "val": pa.array(s, pa.int64())}
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(Sum("val", alias_name="val"))
        .to_pandas()
    )
    S = np.zeros(D, np.int64)
    S[agg["dim"].to_numpy().astype(np.int64)] = agg["val"].to_numpy()
    s_l = S.tolist()
    n2_s = sum(x * x for x in s_l)
    _check_cosine_bounds(0, n2_s)

    def score(batch: pa.Table) -> pa.Table:
        out = []
        for t in batch.column("text").to_pylist():
            v = vec_of(t).tolist()
            n2v = sum(x * x for x in v)
            if n2v == 0 or n2_s == 0:
                out.append(0)
                continue
            _check_cosine_bounds(n2v, n2_s)
            dot = sum(a * b for a, b in zip(v, s_l))
            out.append(int(math.floor(
                float(dot) * 1e6 / math.sqrt(float(n2v) * float(n2_s))
            )))
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()),
             "cos_ppm": pa.array(out, pa.int64())}
        )

    return ds.map_batches(score, batch_format="pyarrow")


def fuzzy_term_matches(
    ds: "ray.data.Dataset",
    query: str,
    *,
    max_dist: int = 1,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """(term, df) for every corpus term within UTF-8 BYTE edit
    distance ``max_dist`` of ``query`` (the DuckDB ``levenshtein``
    metric, kernel/fuzzy.py) — the spell-tolerant vocabulary probe
    behind fuzzy search (`IndexReader.find_fuzzy` applies the same
    kernel to an index dictionary; this form runs straight off the
    documents table with an exact DuckDB ``levenshtein`` SQL twin).

    df is the document frequency (docs containing the term). Plan: the
    distinct-(doc, term) explode + ONE coarse crc32(term) % P shuffle
    of the df-aggregate family (a term lives wholly in one partition,
    so the partition sum IS global df); each partition then
    distance-filters its own vocabulary slice with the length-pruned
    capped DP (kernel/fuzzy.py) — the query string is a closure
    constant, nothing is broadcast, and only matching terms (a handful)
    leave the partitions.
    """
    import zlib
    from collections import Counter

    from textindex_ray.functions._util import probe_count
    from textindex_ray.kernel.fuzzy import edit_distance_capped

    P = int(num_partitions)
    k = int(max_dist)
    q = str(query)

    ds, n_docs = probe_count(ds)
    if n_docs == 0:
        return pa.table(
            {"term": pa.array([], pa.string()),
             "df": pa.array([], pa.int64())}
        )

    qblen = len(q.encode("utf-8"))

    def df_partial(batch: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        for t in batch.column("text").to_pylist():
            # length prune at the source (BYTE lengths — the DuckDB
            # levenshtein metric): only near-length terms travel
            cnt.update(
                w for w in set(_tokens(t))
                if abs(len(w.encode("utf-8")) - qblen) <= k
            )
        terms = sorted(cnt)
        # sentinel (dropped in part_match): an all-empty-partials corpus
        # would hand groupby only empty blocks and lose the schema
        terms.append("\x00")
        return pa.table(
            {"term": pa.array(terms, pa.string()),
             "df": pa.array([cnt[w] for w in terms[:-1]] + [0], pa.int64()),
             "part": pa.array(
                 [zlib.crc32(w.encode("utf-8")) % P for w in terms[:-1]]
                 + [P],
                 pa.int32())}
        )

    def part_match(g: pa.Table) -> pa.Table:
        t = g.group_by("term").aggregate([("df", "sum")])
        terms = t.column("term").to_pylist()
        keep = [
            i for i, w in enumerate(terms)
            if w != "\x00" and edit_distance_capped(w, q, k) <= k
        ]
        dfv = t.column("df_sum").to_numpy()
        return pa.table(
            {"term": pa.array([terms[i] for i in keep], pa.string()),
             "df": pa.array(dfv[keep].astype(np.int64), pa.int64())}
        )

    out = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_match, batch_format="pyarrow")
        .materialize()  # tiny by construction: only matching terms
    )
    if out.count() == 0:
        # a map_groups whose every group returns zero rows loses the
        # schema (CLAUDE.md hazard) — hand back the typed empty form
        return pa.table(
            {"term": pa.array([], pa.string()),
             "df": pa.array([], pa.int64())}
        )
    return out
