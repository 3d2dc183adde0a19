"""`ray job submit` entry point: query a built index.

    python jobs/query.py --index /data/index find alpha 'bet*'
    python jobs/query.py --index /data/index fuzzy lorme --dist 1
    python jobs/query.py --index /data/index bm25 alpha beta --k 10 [--wand|--auto]
    python jobs/query.py --index /data/index files '*example*'
    python jobs/query.py --index /data/index lines --corpus /data/corpus alpha
    python jobs/query.py --index /data/index delete '*stale*'
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--index", required=True)
    ap.add_argument("mode", choices=["find", "fuzzy", "bm25", "files", "lines", "stats", "delete"])
    ap.add_argument("terms", nargs="*")
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--page", type=int, default=0, help="page of 20 results (reference paging, main.rs:207)")
    ap.add_argument("--wand", action="store_true")
    ap.add_argument("--auto", action="store_true",
                    help="pick WAND vs brute from the query terms' df spread")
    ap.add_argument("--corpus", help="corpus path for `lines` snippets")
    ap.add_argument("--dist", type=int, default=1,
                    help="max edit distance for `fuzzy` (kernel/fuzzy.py)")
    args = ap.parse_intermixed_args(argv)
    if args.mode in ("fuzzy", "delete") and not args.terms:
        # an empty term would fuzzy-match short vocabulary entries or
        # tombstone the urls an empty glob matches
        ap.error("%s needs a term" % args.mode)

    if args.mode == "delete":
        # reference `delete <glob>` (main.rs:278-284; its remove_file was a
        # todo, index2.rs:462-464): tombstone matching docs, masked at
        # query time, compacted on the next merge/update
        from textindex_ray.index.segments import delete_docs_all

        n = delete_docs_all(args.index, args.terms[0])
        print(json.dumps({"deleted": n}))
        return 0

    from textindex_ray.query.segmented import open_reader

    r = open_reader(args.index)
    # block-level introspection (stats debug/<term>) reads one segment's
    # physical layout; the BASE segment answers for a segmented index
    base = r.segments[0] if hasattr(r, "segments") else r
    if args.mode == "stats" and args.terms:
        # reference `stats debug` / `stats <blocknr>` analog
        # (main.rs:331-349): per-phase file inventory, or one term's
        # chunk rows (the block-level introspection unit here)
        import os as _os

        if args.terms[0] == "debug":
            inv = {}
            for ph in ("tokenized", "docmap", "index", "dict"):
                d = _os.path.join(args.index, ph, "data")
                if _os.path.isdir(d):
                    files = []
                    for dirpath, _, names in _os.walk(d):
                        files += [_os.path.join(dirpath, n) for n in names
                                  if n.endswith(".parquet")]
                    inv[ph] = {"files": len(files),
                               "bytes": sum(_os.path.getsize(f) for f in files)}
            print(json.dumps({"inventory": inv, "meta": r.meta}))
        else:
            rows = base.chunk_rows([args.terms[0]])
            print(json.dumps({
                "term": args.terms[0],
                "chunks": [
                    {"first_doc": int(f), "last_doc": int(l), "n": int(n),
                     "max_tf": int(mt), "min_dl": int(md), "cf": int(cf)}
                    for f, l, n, mt, md, cf in zip(
                        rows.column("first_doc").to_pylist(),
                        rows.column("last_doc").to_pylist(),
                        rows.column("n").to_pylist(),
                        rows.column("max_tf").to_pylist(),
                        rows.column("min_dl").to_pylist(),
                        rows.column("cf").to_pylist(),
                    )
                ],
            }))
        return 0
    if args.mode == "stats":
        # reference `stats base` parity (main.rs:326-328) + the 256-class
        # frequency histogram analog (bag_stats, index2.rs:100/507/526)
        import os as _os

        dfs = base._dict.column("cf").to_pylist()
        total = sum(dfs) or 1
        bins = [0] * 16
        for c in dfs:
            bins[min(15, c * 16 * 20 // total)] += 1
        phases = {}
        for ph in ("tokenized", "docmap", "index", "dict"):
            mpath = _os.path.join(args.index, ph, "metrics.jsonl")
            if _os.path.exists(mpath):
                with open(mpath) as f:
                    for line in f:
                        rec = json.loads(line)
                        if "sec" in rec:
                            phases[ph] = round(rec["sec"], 2)
        print(json.dumps({
            "n_docs": r.n_docs, "avgdl": round(r.avgdl, 4),
            "vocab": r.n_terms, "total_dl": int(r.meta.get("total_dl", 0)),
            "cf_histogram_16": bins, "phase_sec": phases,
        }))
        return 0
    if args.mode == "find":
        ids = r.find(args.terms)
        lo = args.page * 20
        page = ids[lo : lo + 20]
        print(json.dumps({
            "total": int(ids.size), "page": args.page,
            "doc_ids": page.tolist(), "urls": r.urls_for(page),
        }))
        return 0
    if args.mode == "fuzzy":
        # spell-tolerant find: vocabulary terms within --dist of the
        # query, posting union (works on plain and segmented indexes)
        ids = r.find_fuzzy(args.terms[0], args.dist)
        lo = args.page * 20
        page = ids[lo : lo + 20]
        print(json.dumps({
            "total": int(ids.size), "page": args.page,
            "doc_ids": page.tolist(), "urls": r.urls_for(page),
        }))
        return 0
    if args.mode == "bm25":
        fn = (r.bm25_topk_auto if args.auto
              else r.bm25_topk_wand if args.wand else r.bm25_topk)
        ids, scores = fn(args.terms, args.k)
        print(json.dumps({
            "doc_ids": ids.tolist(),
            "scores": scores.tolist(),
            "urls": r.urls_for(ids),
        }))
        return 0
    if args.mode == "files":
        print(json.dumps(r.find_files(args.terms[0] if args.terms else "*")[:50]))
        return 0
    if args.mode == "lines":
        import ray

        if not ray.is_initialized():
            ray.init(include_dashboard=False, ignore_reinit_error=True,
                     logging_level="ERROR")
        from textindex_ray.query.snippets import matched_lines

        ids = r.find(args.terms)
        out = matched_lines(args.corpus, r.urls_for(ids), args.terms)
        for url, lines in out[:20]:
            print(json.dumps({"url": url, "lines": lines[:5]}))
        ray.shutdown()
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
