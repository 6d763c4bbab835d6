"""Child processes: pinned environment, wall time and process-tree peak RSS.

``wait4`` on the CLI child reports that one process only (and the largest
reaped descendant), so pool workers would hide their memory.  A sampler
thread walks the child's process tree through ``/proc`` every few
milliseconds and sums the per-process resident high-water marks (VmHWM) of
the processes alive together; the peak of that sum is the tree's peak RSS.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SAMPLE_INTERVAL_S = 0.01


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(src_dir, tmp_dir):
    env = dict(os.environ)
    env.update(THREAD_PINS)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + old if old else "")
    env["TMPDIR"] = tmp_dir
    return env


def _children(pid):
    kids = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            pass
    return kids


def _hwm_kib(pid):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


class _TreeSampler(threading.Thread):
    """Samples the tree's summed VmHWM; kills the process group on timeout."""

    def __init__(self, root, deadline):
        super().__init__(daemon=True)
        self.root = root
        self.deadline = deadline
        self.peak_kib = 0
        self.seen = set()
        self.timed_out = False
        self._done = threading.Event()

    def tree(self):
        pids, todo = [], [self.root]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            todo.extend(_children(pid))
        return pids

    def run(self):
        while not self._done.wait(SAMPLE_INTERVAL_S):
            pids = self.tree()
            self.seen.update(pids)
            self.peak_kib = max(self.peak_kib, sum(_hwm_kib(p) for p in pids))
            if time.perf_counter() > self.deadline and not self.timed_out:
                self.timed_out = True
                _kill_group(self.root)

    def stop(self):
        self._done.set()
        self.join()


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class Outcome:
    returncode: int
    wall_s: float
    peak_rss_mb: float


def run_measured(argv, env, cwd, log_path, timeout_s):
    """Run ``argv`` to completion; time it from spawn to exit."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        sampler = _TreeSampler(proc.pid, start + timeout_s)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # pool workers normally exit with the CLI; make sure none outlives it
        _kill_group(proc.pid)
        for pid in sampler.seen - {proc.pid}:
            for _ in range(500):
                if not _alive(pid):
                    break
                time.sleep(0.01)
    peak_kib = max(sampler.peak_kib, usage.ru_maxrss)
    return Outcome(proc.returncode, wall, peak_kib * 1024 / 1e6)
