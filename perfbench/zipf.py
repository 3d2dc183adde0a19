"""Seeded Zipf corpus: a syllable vocabulary, documents, queries.

Everything here is a pure function of the seed, so two runs with the
same seed see byte-identical inputs. The counts the benchmark checks the
index against (df, cf, document lengths) come from the token lists made
here, never from the program under test.

Vocabulary: at least 10^5 distinct words built from syllables in the
FIXTURES.md section-5 charset (ASCII and Latin-1 letters, Greek,
Cyrillic). Every word is lowercase, alphabetic, shorter than the
tokenizer's 20-byte truncation limit and not a stopword, so the tokenizer
keeps it unchanged. Word ranks follow a Zipf law. Three documents in four
are one line of space-separated words; every fourth is a plain HTML page
of the same words in paragraphs, so the HTML extractor runs too. No line
starts with a word that could open a line-anchored special (``begin``,
``Key:``, ``-----``), so every generated word is indexed once per use.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

VOCAB_SIZE = 131_072
ZIPF_S = 1.1
DOC_LEN = (40, 260)  # tokens per document, uniform
HTML_EVERY = 4
PARAGRAPH = 24  # words per <p> of an HTML page

_ONSETS = {
    "latin": ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
              "s", "t", "v", "w", "z", "br", "st", "tr", "kl", "gr", "sch"],
    "greek": list("βγδζθκλμνξπρστφχψ"),
    "cyrillic": list("бвгджзклмнпрстфхцчш"),
}
_NUCLEI = {
    "latin": ["a", "e", "i", "o", "u", "ä", "ö", "ü", "é", "è", "ê", "au", "ei"],
    "greek": list("αεηιουωάέίό"),
    "cyrillic": list("аеиоуыэюя"),
}
_CODAS = {
    "latin": ["", "", "n", "r", "s", "l", "t", "ß"],
    "greek": ["", "", "ς", "ν"],
    "cyrillic": ["", "", "н", "р", "с", "л", "т"],
}
_SCRIPT_SHARE = (("latin", 0.7), ("greek", 0.15), ("cyrillic", 0.15))


def _syllables(script: str) -> list[str]:
    return [o + n + c for o in _ONSETS[script] for n in _NUCLEI[script]
            for c in _CODAS[script]]


def make_vocab(seed: int, size: int = VOCAB_SIZE) -> list[str]:
    """``size`` distinct tokenizer-stable words; list index = Zipf rank."""
    from textindex_ray.kernel.stopwords import STOP_WORDS

    rng = np.random.default_rng([seed, 1])
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        for script, share in _SCRIPT_SHARE:
            syl = np.array(_syllables(script), dtype=object)
            m = int(size * share) + 64
            nsyl = rng.integers(2, 5, m)
            picks = rng.integers(0, len(syl), (m, 4))
            for k, row in zip(nsyl, picks):
                w = "".join(syl[row[:k]])
                if (w in seen or w in STOP_WORDS or w.startswith("begin")
                        or len(w.encode("utf-8")) >= 20):
                    continue
                seen.add(w)
                words.append(w)
    words = words[:size]
    order = rng.permutation(size)  # interleave scripts across ranks
    return [words[i] for i in order]


def zipf_cdf(size: int = VOCAB_SIZE, s: float = ZIPF_S) -> np.ndarray:
    w = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** s
    c = np.cumsum(w)
    return c / c[-1]


def draw_docs(seed: int, stream: int, n_docs: int, cdf: np.ndarray) -> list[np.ndarray]:
    """Per-document arrays of word ranks. ``stream`` separates the base
    corpus from each delta and the query log."""
    rng = np.random.default_rng([seed, 2, stream])
    lens = rng.integers(DOC_LEN[0], DOC_LEN[1] + 1, n_docs)
    ranks = np.searchsorted(cdf, rng.random(int(lens.sum())), side="right")
    ranks = np.minimum(ranks, len(cdf) - 1)
    return np.split(ranks, np.cumsum(lens)[:-1])


def doc_url(seed: int, stream: int, i: int) -> str:
    return "https://zipf.example.org/s%d/p%d/%07d.txt" % (seed, stream, i)


def _body(words: list[str], html: bool) -> bytes:
    if not html:
        return " ".join(words).encode("utf-8")
    paras = ["<p>%s</p>\n" % " ".join(words[i:i + PARAGRAPH])
             for i in range(0, len(words), PARAGRAPH)]
    return ("<html><body>\n%s</body></html>\n" % "".join(paras)).encode("utf-8")


def corpus_table(seed: int, stream: int, docs: list[np.ndarray],
                 vocab: list[str]) -> pa.Table:
    """The (url, html) corpus table ``build_index`` reads."""
    va = np.array(vocab, dtype=object)
    urls = [doc_url(seed, stream, i) for i in range(len(docs))]
    bodies = [_body(list(va[d]), i % HTML_EVERY == 0) for i, d in enumerate(docs)]
    return pa.table({"url": pa.array(urls, pa.string()),
                     "html": pa.array(bodies, pa.binary())})


def make_queries(seed: int, n: int, df_by_rank: np.ndarray) -> list[list[int]]:
    """Query log of word ranks, 1-5 terms each.

    Terms come from three df bands of the indexed vocabulary: head (the
    most frequent 1% of present terms), mid, and tail (df <= 3). A
    query-log Zipf over each band's members makes popular query terms
    repeat across queries. Half the multi-term queries mix head and tail
    terms (the df contrast where block-max WAND can prune), the rest stay
    within one band.
    """
    rng = np.random.default_rng([seed, 3])
    present = np.flatnonzero(df_by_rank > 0)
    by_df = present[np.argsort(-df_by_rank[present], kind="stable")]
    n_head = max(8, len(by_df) // 100)
    tail = by_df[df_by_rank[by_df] <= 3]
    bands = {"head": by_df[:n_head], "mid": by_df[n_head:len(by_df) - len(tail)],
             "tail": tail}
    cdfs = {b: zipf_cdf(len(m), 1.0) for b, m in bands.items()}

    def pick(band: str) -> int:
        m = bands[band]
        i = int(np.searchsorted(cdfs[band], rng.random(), side="right"))
        return int(m[min(i, len(m) - 1)])

    out = []
    for _ in range(n):
        length = int(rng.integers(1, 6))
        if length == 1:
            q = [pick(("head", "mid", "tail")[int(rng.integers(0, 3))])]
        elif rng.random() < 0.5:
            n_tail = int(rng.integers(1, length))
            q = [pick("head") for _ in range(length - n_tail)]
            q += [pick("tail") for _ in range(n_tail)]
        else:
            band = ("head", "mid", "tail")[int(rng.integers(0, 3))]
            q = [pick(band) for _ in range(length)]
        out.append(q)
    return out
