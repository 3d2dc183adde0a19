"""`ray job submit` entry point: raw web corpus -> documents table.

Usage (cluster):
    ray job submit --working-dir . -- python jobs/ingest.py \
        --in /data/crawl --format warc --out /data/documents \
        [--shards 16] [--actors N]

Runs the ingest bridge (pipelines/ingest.py: classify -> byte-identity
extract -> lang/source/doc_id columns) over any supported source
(--format warc|jsonl|files|parquet) and writes the documents-shaped
table hive-partitioned as `shard=K/` directories under `<out>/data/`
(shard = md5(doc_id) like the curate export, so downstream jobs can
resume per shard). Same commit contract as jobs/curate.py: `_COMMITTED`
with the parameters is written last, a resubmit with the marker is a
no-op, and different parameters raise. The export is written to
`<out>/data.tmp/` and replaces `<out>/data/` only once the write
succeeded with at least one row, so a failing or empty run leaves the
previous export as it was.

The output feeds every documents-table operator directly:

    python jobs/ingest.py --in crawl/ --format warc --out docs/
    python jobs/curate.py --docs 'docs/data/*/*.parquet' --out curated/
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--in", dest="inp", required=True,
                    help="corpus path (archive dir / parquet / jsonl / tree)")
    ap.add_argument("--format", choices=["warc", "jsonl", "files", "parquet"],
                    default="warc")
    ap.add_argument("--out", required=True)
    ap.add_argument("--shards", type=int, default=16)
    ap.add_argument("--actors", type=int, default=0,
                    help="cap on concurrent extract tasks; 0 = Ray decides")
    args = ap.parse_args(argv)

    params = {"format": args.format, "shards": args.shards}
    marker = os.path.join(args.out, "_COMMITTED")
    if os.path.exists(marker):
        committed = json.load(open(marker))
        if committed != params:
            raise SystemExit(
                "out dir committed with different parameters: %r vs %r"
                % (committed, params)
            )
        print(json.dumps({"status": "already-committed", **params}))
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")

    import pyarrow as pa

    from textindex_ray.functions._util import export_shard
    from textindex_ray.pipelines.ingest import ingest_corpus

    docs = ingest_corpus(
        args.inp, input_format=args.format,
        concurrency=args.actors or None,
    )

    S = args.shards

    def add_shard(b: pa.Table) -> pa.Table:
        sh = export_shard(b.column("doc_id").to_pylist(), S)
        return b.append_column("shard", pa.array(sh, pa.int64()))

    # write beside data/ and swap it in only after the write succeeded:
    # a failing or empty run must leave the last export intact
    import shutil

    import pyarrow.dataset as pads

    data_dir = os.path.join(args.out, "data")
    tmp_dir = data_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    try:
        docs.map_batches(add_shard, batch_format="pyarrow").write_parquet(
            tmp_dir, partition_cols=["shard"], min_rows_per_file=50_000
        )
        n = (pads.dataset(tmp_dir, format="parquet").count_rows()
             if os.path.isdir(tmp_dir) else 0)
        if n == 0:
            raise SystemExit(
                "ingest produced no documents from %s; %s left unchanged"
                % (args.inp, data_dir)
            )
        if os.path.isdir(data_dir):
            shutil.rmtree(data_dir)
        os.replace(tmp_dir, data_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    with open(marker + ".tmp", "w") as f:
        json.dump(params, f)
    os.replace(marker + ".tmp", marker)
    print(json.dumps({"status": "ok", "rows": n, **params}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
