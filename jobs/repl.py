"""Interactive REPL over a built index — the reference's command surface
(/root/reference/src/main.rs:196-368, grammar cmds.rs:251-276):

    index <corpus>      incremental update (have_file: skip committed urls)
    find <terms...>     AND of */? wildcard terms; prints first 20 hits
    files <glob>        url glob over the docmap
    next / first        page the last find result by 20 (main.rs:207-276)
    bm25 <terms...>     BM25(k1=1.2, b=0.75) top-10 (block-max WAND)
    lines <terms...>    matched-lines snippets (needs --corpus)
    summary <n>         (reference no-op, main.rs:277)
    delete <glob>       tombstone matching docs
    stats [debug|term]  counts / histogram / inventory / chunk rows
    store               no-op (every phase is already committed durably)
    help / quit

Usage: python jobs/repl.py --index /data/index [--corpus /data/corpus]
Commands are read from stdin, one per line (pipe-friendly for tests).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

PAGE = 20  # reference paging unit (main.rs:207)

# command inventory for completion (grammar: cmds.rs:251-276)
COMMANDS = (
    "index", "find", "files", "next", "first", "bm25", "lines", "summary",
    "delete", "stats", "store", "help", "quit", "exit",
)
_TERM_ARG_CMDS = frozenset({"find", "bm25", "lines", "stats"})


def complete_candidates(r, buf: str, begin: int, text: str) -> list[str]:
    """Completion core (testable without a TTY): command names at column
    0, vocabulary terms (prefix-range binary search over the Arrow dict,
    capped at 50) for term-taking commands — the counterpart of the
    reference's cmdlib completion (cmdlib.rs:1-364)."""
    if begin == 0:
        return [c + " " for c in COMMANDS if c.startswith(text)]
    head = buf[:begin].split()
    if head and head[0] in _TERM_ARG_CMDS and text and "*" not in text and "?" not in text:
        return [t + " " for t in r.resolve_terms(text + "*")[:50]]
    return []


def _interactive_lines(r):
    """TTY input loop with readline tab-completion installed."""
    try:
        import readline

        def _rl_complete(text, state):
            opts = complete_candidates(
                r, readline.get_line_buffer(), readline.get_begidx(), text
            )
            return opts[state] if state < len(opts) else None

        readline.set_completer(_rl_complete)
        readline.set_completer_delims(" \t\n")
        readline.parse_and_bind("tab: complete")
    except ImportError:
        pass
    while True:
        try:
            yield input("ti> ")
        except EOFError:
            return


def _print_page(r, found) -> None:
    ids = found["ids"]
    lo = found["page"] * PAGE
    page = ids[lo : lo + PAGE]
    print(json.dumps({
        "total": len(ids), "page": found["page"],
        "urls": r.urls_for(__import__("numpy").array(page, dtype="uint64")),
    }))


def run(index_path: str, corpus: str | None, stream) -> int:
    from textindex_ray.query.segmented import open_reader

    r = open_reader(index_path)
    found = {"ids": [], "page": 0}
    if stream is sys.stdin and sys.stdin.isatty():
        stream = _interactive_lines(r)
    for raw in stream:
        try:
            parts = shlex.split(raw.strip())
        except ValueError:
            parts = raw.strip().split()
        if not parts:
            continue
        cmd, args = parts[0], parts[1:]
        if cmd in ("quit", "exit"):
            break
        elif cmd == "help":
            print(__doc__.strip().splitlines()[0])
            for ln in __doc__.splitlines()[3:15]:
                print(ln)
        elif cmd == "find":
            found["ids"] = [int(i) for i in r.find(args)]
            found["page"] = 0
            _print_page(r, found)
        elif cmd == "next":
            if (found["page"] + 1) * PAGE < len(found["ids"]):
                found["page"] += 1
            _print_page(r, found)
        elif cmd == "first":
            found["page"] = 0
            _print_page(r, found)
        elif cmd == "files":
            print(json.dumps(r.find_files(args[0] if args else "*")[:50]))
        elif cmd == "bm25":
            ids, scores = r.bm25_topk_wand(args, 10)
            print(json.dumps({
                "urls": r.urls_for(ids), "scores": [round(s, 6) for s in scores],
            }))
        elif cmd == "lines":
            if not corpus:
                print(json.dumps({"error": "start with --corpus for lines"}))
                continue
            import ray

            if not ray.is_initialized():
                ray.init(include_dashboard=False, ignore_reinit_error=True,
                         logging_level="ERROR")
            from textindex_ray.query.snippets import matched_lines

            hits = r.find(args)[:PAGE]
            for url, lns in matched_lines(corpus, r.urls_for(hits), args):
                print(json.dumps({"url": url, "lines": lns[:5]}))
        elif cmd == "summary":
            pass  # reference summary is empty (main.rs:277)
        elif cmd == "store":
            print(json.dumps({"stored": True}))  # phases commit durably
        elif cmd == "delete":
            from textindex_ray.index.segments import delete_docs_all

            n = delete_docs_all(index_path, args[0] if args else "")
            print(json.dumps({"deleted": n}))
            r = open_reader(index_path)  # reload the tombstone mask
        elif cmd == "index":
            if not args:
                print(json.dumps({"error": "index <corpus_path>"}))
                continue
            import ray

            if not ray.is_initialized():
                ray.init(include_dashboard=False, ignore_reinit_error=True,
                         logging_level="ERROR")
            from textindex_ray.index.merge import update_index

            meta = update_index(args[0], index_path)
            print(json.dumps({"n_docs": meta["n_docs"]}))
            r = open_reader(index_path)  # picks up the appended segment
        elif cmd == "stats":
            if args:
                from jobs.query import main as qmain

                qmain(["--index", index_path, "stats", args[0]])
            else:
                print(json.dumps({
                    "n_docs": r.n_docs, "vocab": r.n_terms,
                    "avgdl": round(r.avgdl, 4),
                }))
        else:
            print(json.dumps({"error": "unknown command: %s (try help)" % cmd}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--index", required=True)
    ap.add_argument("--corpus")
    args = ap.parse_args(argv)
    return run(args.index, args.corpus, sys.stdin)


if __name__ == "__main__":
    sys.exit(main())
