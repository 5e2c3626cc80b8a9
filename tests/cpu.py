"""What the tests know of the CPU they run on and of this process's
threads."""
import os
import threading
import time
from pathlib import Path


def cpu_flags():
    """The CPU feature flags that /proc/cpuinfo lists; none where it cannot
    be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


def thread_count():
    """The threads of this process."""
    return len(os.listdir("/proc/self/task"))


def settled_thread_count(want, timeout_s=1.0):
    """thread_count() once it reads want, or after timeout_s: a joined
    thread can stay listed in /proc/self/task while the kernel reaps it."""
    deadline = time.monotonic() + timeout_s
    while (count := thread_count()) != want and time.monotonic() < deadline:
        time.sleep(0.001)
    return count


def helper_cpus(kernels, y, thetas, calls=500):
    """The CPUs that a thread started by ``kernels.log_likelihood_batch(y,
    thetas, 1.0)`` may run on: the first mask read from such a thread that
    differs from this thread's, else this thread's mask once one was read,
    else None. A helper exists only within a call, so a worker scores the
    batch up to ``calls`` times while this thread reads the masks of the
    threads in /proc/self/task that neither existed before nor are the
    worker. A thread created with a mask of its own starts on its creator's
    until the C library has set it, so a reading can come too early, but
    not every reading of every helper does. Waits up to a second for the
    worker to leave /proc/self/task, so that a later count leaves it out."""
    mine = os.sched_getaffinity(0)
    seen = set(os.listdir("/proc/self/task"))
    before = len(seen)
    found = threading.Event()

    def score():
        for _ in range(calls):
            if found.is_set():
                return
            kernels.log_likelihood_batch(y, thetas, 1.0)

    worker = threading.Thread(target=score)
    worker.start()
    seen.add(str(worker.native_id))
    cpus = None
    while worker.is_alive() and (cpus is None or cpus == mine):
        for tid in set(os.listdir("/proc/self/task")) - seen:
            try:
                cpus = os.sched_getaffinity(int(tid))
            except OSError:  # it ended after the listing
                continue
            if cpus != mine:
                break
    found.set()
    worker.join(timeout=60)
    settled_thread_count(before)
    return cpus
