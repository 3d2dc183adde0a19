"""`ray job submit` entry point: distributed index build.

Usage (cluster):
    ray job submit --working-dir . -- python jobs/build.py \
        --corpus /data/corpus --out /data/index [--num-buckets 4096] \
        [--no-checkpoint] [--incremental]

Idempotent and resumable: phase-level _COMMITTED markers are honored, so
resubmitting an interrupted job continues from the last committed phase;
--incremental indexes only urls that no committed segment holds live
(merge.update_index: a build excluding the segments); --incremental and
--compact keep the index's own bucket count.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus")
    ap.add_argument("--out", required=True)
    ap.add_argument("--num-buckets", type=int, default=None,
                    help="build: default 64; --incremental / --compact: "
                         "default and only allowed value is the index's own")
    ap.add_argument("--chunk-size", type=int, default=1024)
    ap.add_argument("--batch-size", type=int, default=256)
    ap.add_argument("--no-checkpoint", action="store_true",
                    help="delete the tokenized staging once the index "
                         "phase commits (a rerun then re-extracts)")
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--incremental", action="store_true")
    ap.add_argument("--mode", choices=["segment", "merge"], default="segment",
                    help="incremental lifecycle: append a delta segment "
                         "(default; base never rewritten) or full-merge "
                         "immediately")
    ap.add_argument("--compact-ratio", type=float, default=0.5,
                    help="segment mode: full-merge when accumulated delta "
                         "docs exceed this fraction of the base")
    ap.add_argument("--compact", action="store_true",
                    help="force-compact the index at --out now (merges all "
                         "segments, drops tombstones) and exit")
    ap.add_argument("--files", action="store_true",
                    help="corpus is a loose-file directory tree (reference "
                         "walk source) instead of a Parquet table")
    ap.add_argument("--jsonl", action="store_true",
                    help="corpus is NDJSON document dumps (url + "
                         "html/text/content field per line)")
    ap.add_argument("--warc", action="store_true",
                    help="corpus is Common-Crawl WARC/WET archives "
                         "(.warc / .warc.gz files)")
    ap.add_argument("--track-alloc", action="store_true",
                    help="record per-phase memory snapshots (driver RSS, "
                         "tracemalloc, object-store fill) into each phase's "
                         "metrics.jsonl — the reference's opt-in allocation "
                         "tracker analog (main.rs:33-111)")
    args = ap.parse_args(argv)
    if not args.compact and not args.corpus:
        ap.error("--corpus is required unless --compact")

    if args.track_alloc:
        from textindex_ray import diagnostics

        diagnostics.start_tracing()

    import ray

    if not ray.is_initialized():
        # no explicit address: honors RAY_ADDRESS (cluster under
        # `ray job submit`), falls back to a local instance standalone
        ray.init(include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")

    # unset --num-buckets: each entry point's own default (the build's
    # 64, or the existing index's bucket count)
    buckets = {} if args.num_buckets is None else {"num_buckets": args.num_buckets}
    if args.compact:
        from textindex_ray.index.merge import compact_index

        meta = compact_index(args.out, chunk_size=args.chunk_size, **buckets)
    elif args.incremental:
        from textindex_ray.index.merge import update_index

        meta = update_index(
            args.corpus, args.out, chunk_size=args.chunk_size, **buckets,
            mode=args.mode, compact_ratio=args.compact_ratio,
            input_format=("files" if args.files
                          else "jsonl" if args.jsonl
                          else "warc" if args.warc else "parquet"),
        )
    else:
        from textindex_ray.index.build import build_index

        meta = build_index(
            args.corpus, args.out, chunk_size=args.chunk_size, **buckets,
            batch_size=args.batch_size,
            checkpoint=not args.no_checkpoint, resume=not args.no_resume,
            input_format=("files" if args.files
                          else "jsonl" if args.jsonl
                          else "warc" if args.warc else "parquet"),
        )
    print(json.dumps(meta))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
