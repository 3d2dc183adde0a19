"""Document deletion: tombstones + query-time masking + compaction.

The reference dispatches ``delete <glob>``
(/root/reference/src/main.rs:278-284) but its ``remove_file`` is an
unimplemented todo (/root/reference/src/index2.rs:462-464). This engine
completes the semantics the command implies, Parquet-native:

- ``delete_docs(index_dir, glob)`` matches docmap urls with the same
  WildMatch ``*``/``?`` pattern as ``files <glob>`` (index2.rs:447-456)
  and records the docIDs in an atomic ``tombstones.parquet``.
- The IndexReader masks tombstoned docs out of every query path
  (boolean find, brute BM25, block-max WAND, find_files, docmap views).
  Corpus statistics (N, avgdl, df) intentionally keep their pre-delete
  values until compaction — the standard tombstone contract.
- Compaction happens in ``merge_indexes`` (and therefore in
  ``compact_index`` / ``update_index``): each bucket task drops the
  tombstoned docs before assigning new docIDs, so their postings find no
  new docID in the in-task join and disappear; the merged index carries
  no tombstones and fully re-baked stats. A deleted url
  re-appearing in the corpus is re-indexed by ``update_index`` (the
  committed-url anti-join counts only live docs).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TOMBSTONE_FILE = "tombstones.parquet"


def _tombstone_path(index_dir: str) -> str:
    return os.path.join(index_dir, TOMBSTONE_FILE)


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted uint64 docIDs of deleted docs (empty when none)."""
    p = _tombstone_path(index_dir)
    if not os.path.exists(p):
        return np.empty(0, dtype=np.uint64)
    return np.sort(pq.read_table(p).column("doc_id").to_numpy().astype(np.uint64))


def delete_docs(index_dir: str, glob: str) -> int:
    """Tombstone every indexed url matching the WildMatch glob.

    Returns the number of NEWLY deleted docs. Idempotent; the write is
    atomic (tmp + rename)."""
    from textindex_ray.query.engine import wildcard_to_regex

    dm = pq.read_table(
        os.path.join(index_dir, "docmap", "data"), columns=["doc_id", "url"]
    )
    rx = re.compile(wildcard_to_regex(glob))
    urls = dm.column("url").to_pylist()
    ids = dm.column("doc_id").to_numpy().astype(np.uint64)
    hit = np.fromiter((bool(rx.match(u)) for u in urls), dtype=bool, count=len(urls))
    existing = load_tombstones(index_dir)
    merged = np.union1d(existing, ids[hit])
    newly = int(merged.size - existing.size)
    if newly:
        tmp = _tombstone_path(index_dir) + ".tmp"
        pq.write_table(
            pa.table({"doc_id": pa.array(merged, pa.uint64())}), tmp
        )
        os.replace(tmp, _tombstone_path(index_dir))
    return newly
