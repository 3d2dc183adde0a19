"""build_index completes on a 1- and a 2-CPU Ray cluster.

Extraction runs as stateless tasks, so no stage can hold every CPU while
the read or write stages wait for one. Each cluster size runs in a fresh
subprocess (one ``ray.init`` per process) under a timeout, builds the
same corpus with ``checkpoint`` True and False (the staging kept or
deleted after the index phase commits), and
must leave no ``raylet`` / ``gcs_server`` of its own running.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pyarrow.parquet as pq
import pytest

from textindex_ray.corpus import write_corpus
from textindex_ray.index.build import build_index

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_DOCS = 300

CHILD = textwrap.dedent(
    """
    import json, os, sys
    import ray
    from textindex_ray.index.build import build_index

    num_cpus, corpus, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             object_store_memory=256 * 1024 * 1024, logging_level="ERROR")

    def descendants(root):
        kids = {}
        for p in os.listdir("/proc"):
            if not p.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % p) as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
                with open("/proc/%s/cmdline" % p, "rb") as f:
                    cmd = f.read().decode(errors="replace")
            except (OSError, ValueError, IndexError):
                continue
            kids.setdefault(ppid, []).append((int(p), cmd))
        out, todo = [], [root]
        while todo:
            for pid, cmd in kids.get(todo.pop(), []):
                out.append((pid, cmd))
                todo.append(pid)
        return out

    ray_pids = [pid for pid, cmd in descendants(os.getpid())
                if "raylet" in cmd or "gcs_server" in cmd]
    n_docs = {}
    for checkpoint in (True, False):
        meta = build_index(corpus, os.path.join(out, "ck%d" % checkpoint),
                           num_buckets=8, chunk_size=64,
                           checkpoint=checkpoint, resume=False)
        n_docs[str(checkpoint)] = meta["n_docs"]
    ray.shutdown()
    print("RESULT " + json.dumps({"n_docs": n_docs, "ray_pids": ray_pids}))
    """
)


def _alive(pid: int) -> bool:
    """True while pid is a running (not zombie) process."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _dict_rows(index_dir: str):
    return pq.read_table(os.path.join(index_dir, "dict", "data")).to_pylist()


@pytest.fixture(scope="module")
def reference(ray_session, tmp_path_factory):
    """The corpus and its build in the session cluster."""
    base = tmp_path_factory.mktemp("lowcpu")
    corpus = str(base / "corpus")
    write_corpus(corpus, N_DOCS, rows_per_file=64)
    meta = build_index(corpus, str(base / "ref"), num_buckets=8, chunk_size=64)
    return corpus, meta["n_docs"], _dict_rows(str(base / "ref"))


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_build_completes_at_low_cpu_counts(reference, tmp_path, num_cpus):
    corpus, want_n, want_dict = reference
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = ROOT + os.pathsep + env.get("PYTHONPATH", "")
    # own process group: a hung child is killed with every Ray process
    # it started, so a failing run leaves nothing behind either
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(num_cpus), corpus, str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate(timeout=30)
        pytest.fail("build_index at num_cpus=%d did not finish in 180 s" % num_cpus)
    assert proc.returncode == 0, stderr[-4000:]
    line = [x for x in stdout.splitlines() if x.startswith("RESULT ")]
    assert line, stdout[-2000:] + stderr[-2000:]
    got = json.loads(line[-1][len("RESULT "):])

    assert got["n_docs"] == {"True": want_n, "False": want_n}
    for checkpoint in (True, False):
        assert _dict_rows(str(tmp_path / ("ck%d" % checkpoint))) == want_dict

    assert got["ray_pids"], "child saw no raylet/gcs_server of its own"
    deadline = time.time() + 10
    while time.time() < deadline and any(_alive(p) for p in got["ray_pids"]):
        time.sleep(0.2)
    assert not [p for p in got["ray_pids"] if _alive(p)]
