"""Run plumbing: Ray start and stop, machine context, op timeouts, RSS
sampling and spans. Nothing here knows about a workload."""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time

# AF_UNIX socket paths are capped at 107 bytes; Ray puts
# <temp>/session_<date>_<pid>/sockets/plasma_store under its temp dir.
_RAY_SOCKET_TAIL = 64


def median(xs) -> float:
    """Median of a list of numbers; NaN for an empty one."""
    return float(statistics.median(xs)) if xs else float("nan")


class RunAborted(Exception):
    """The run cannot go on: an operation outlived its timeout, or set-up
    failed."""


def ray_cpu_count() -> int:
    """Ray logical CPUs for the run: 4, never above the affinity mask,
    never below 3. ``default_concurrency()`` in index/build.py gives the
    extract actor pool max(2, cpus - 2) actors, so at 1 or 2 CPUs the pool
    holds every CPU and build_index deadlocks."""
    avail = len(os.sched_getaffinity(0))
    if avail < 3:
        raise SystemExit(
            "perfbench: %d CPUs in the affinity mask; build_index needs a Ray "
            "cluster of at least 3 CPUs (it deadlocks below that)" % avail)
    return min(4, avail)


def _steal_ticks() -> int:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _git_head(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class MachineContext:
    """Hardware and load stamp of one run."""

    def __init__(self, root: str, ray_cpus: int):
        try:
            nproc = subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            nproc = "unknown"
        self.info = {
            "nproc": nproc,
            "os_cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "ray_cpus": ray_cpus,
            "git_head": _git_head(root),
            "loadavg_start": list(os.getloadavg()),
        }
        self._steal0 = _steal_ticks()

    def finish(self) -> dict:
        self.info["loadavg_end"] = list(os.getloadavg())
        self.info["steal_ticks"] = _steal_ticks() - self._steal0
        return self.info


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open("/proc/%d/statm" % pid) as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Peak of the summed RSS of this process and its process tree (the
    local Ray cluster is started as children of this process)."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        total = sum(_rss_bytes(p) for p in [me] + descendants(me))
        self.peak = max(self.peak, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / 1e6


def run_with_timeout(fn, timeout: float):
    """Run ``fn()`` in a worker thread; return (result, seconds).

    Raises RunAborted when it does not return in time, and re-raises its
    exception otherwise. The seconds are timed inside the thread."""
    box: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["result"] = fn()
        except BaseException as e:  # handed to the caller below
            box["error"] = e
        box["seconds"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise RunAborted("operation still running after %.0f s" % timeout)
    if "error" in box:
        raise box["error"]
    return box["result"], box["seconds"]


class Tracer:
    """In-memory spans: (trace, span, parent, name, start, end); spans of
    one request share a trace number. ``enabled=False`` makes every call
    a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = 0

    def new_trace(self) -> None:
        self._trace += 1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **extra}, f)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.t = tracer
        self.name = name

    def __enter__(self):
        t = self.t
        self.rec = {"trace": t._trace, "span": len(t.spans),
                    "parent": t._stack[-1] if t._stack else None,
                    "name": self.name, "start": time.perf_counter(), "end": None}
        t.spans.append(self.rec)
        t._stack.append(self.rec["span"])
        return self

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.t._stack.pop()

    @property
    def seconds(self) -> float:
        return self.rec["end"] - self.rec["start"]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()


class RayCluster:
    """A local Ray cluster whose workers can import the checkout."""

    def __init__(self, root: str, work: str, cpus: int):
        self.root = root
        self.cpus = cpus
        temp = os.path.join(work, "ray")
        if len(temp) + _RAY_SOCKET_TAIL > 107:
            # a checkout this deep cannot hold Ray's sockets
            temp = tempfile.mkdtemp(prefix="pb")
        self.temp = temp

    def start(self) -> None:
        import ray

        # Ray workers start from the raylet's environment: without the
        # checkout on PYTHONPATH every task fails with ModuleNotFoundError
        # and is retried forever
        pp = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = self.root + (os.pathsep + pp if pp else "")
        os.makedirs(self.temp, exist_ok=True)
        ray.init(address="local", num_cpus=self.cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 1024 * 1024, _temp_dir=self.temp)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        """Shut Ray down and wait until every child process has ended."""
        import ray

        try:
            run_with_timeout(ray.shutdown, 30)
        except RunAborted:
            pass
        me = os.getpid()
        deadline = time.time() + 20
        while True:
            left = descendants(me)
            if not left:
                break
            if time.time() > deadline:
                for p in left:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except OSError:
                        pass
            if time.time() > deadline + 10:
                break
            time.sleep(0.2)
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
        shutil.rmtree(self.temp, ignore_errors=True)
