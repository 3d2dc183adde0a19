"""Segment-list lifecycle for incrementally updated indexes.

A *segmented* index is one base index directory plus K delta segments
(each itself a complete index built by ``build_index``), listed in
``<index_dir>/segments.json``:

    {"deltas": ["segments/seg-000001", "segments/seg-000002"], "generation": 2}

The base is implicitly segment 0. ``update_index(mode="segment")``
appends a delta per increment — the base's postings are NEVER decoded,
remapped, or rewritten (the reference appends incrementally in place:
/root/reference/src/index2/word_map.rs:203-249, threads.rs:292-297
skip-already-indexed) — and full-merges only when the accumulated delta
mass crosses a compaction ratio. Queries run through
``query.segmented.SegmentedReader`` (query-time merge, exact: every doc
lives in exactly ONE segment because the update path anti-joins urls
against every committed segment, so per-segment scoring with global
stats plus a top-k merge equals the fully merged index — the
doc-sharded serving algebra of query/batch_eval.py::evaluate_queries).

The list file is the commit point: a crash after a delta build but
before the ``segments.json`` rewrite leaves an orphan directory under
``segments/`` that the next update overwrites; a crash during the
rewrite is impossible to observe (``os.replace`` is atomic).
"""

from __future__ import annotations

import json
import os

SEGMENTS_FILE = "segments.json"


def _segments_path(index_dir: str) -> str:
    return os.path.join(index_dir, SEGMENTS_FILE)


def load_manifest(index_dir: str) -> dict:
    try:
        with open(_segments_path(index_dir)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"deltas": [], "generation": 0}


def list_segments(index_dir: str) -> list[str]:
    """Segment directories, base first. ``[index_dir]`` for a plain
    (never-segmented or freshly compacted) index."""
    man = load_manifest(index_dir)
    return [index_dir] + [os.path.join(index_dir, d) for d in man["deltas"]]


def is_segmented(index_dir: str) -> bool:
    return bool(load_manifest(index_dir)["deltas"])


def append_segment(index_dir: str, rel_path: str) -> dict:
    """Atomically append a delta segment to the manifest."""
    man = load_manifest(index_dir)
    man["deltas"].append(rel_path)
    man["generation"] = int(man.get("generation", 0)) + 1
    tmp = _segments_path(index_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(man, f, indent=2)
    os.replace(tmp, _segments_path(index_dir))
    return man


def clear_segments(index_dir: str) -> None:
    """Drop the manifest (after compaction merged every delta into the
    base)."""
    try:
        os.remove(_segments_path(index_dir))
    except FileNotFoundError:
        pass


def segment_metas(index_dir: str) -> list[dict]:
    out = []
    for d in list_segments(index_dir):
        with open(os.path.join(d, "meta.json")) as f:
            out.append(json.load(f))
    return out


def collection_stats(index_dir: str) -> dict:
    """Corpus-wide (n_docs, total_dl, avgdl) over all segments.

    Segments are url-disjoint (enforced by the update path), so the
    integer sums — and therefore the single float64 division — are
    IDENTICAL to what ``merge_indexes`` over the same segments would
    write, which is what makes query-time-merged BM25 scores float-equal
    to the compacted index's (tested). Stats stay pre-delete until
    compaction, the same tombstone contract as a plain index.
    """
    metas = segment_metas(index_dir)
    n = sum(int(m["n_docs"]) for m in metas)
    tdl = sum(int(m["total_dl"]) for m in metas)
    return {
        "n_docs": n,
        "total_dl": tdl,
        "avgdl": (tdl / n) if n else 0.0,
        "n_segments": len(metas),
    }


def delete_docs_all(index_dir: str, glob: str) -> int:
    """Tombstone url-glob matches in EVERY segment (each segment keeps
    its own tombstone file; the segment readers mask them)."""
    from textindex_ray.index.delete import delete_docs

    return sum(delete_docs(d, glob) for d in list_segments(index_dir))
