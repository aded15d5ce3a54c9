"""The host: result stamps and how fast it runs right now.

Two results are comparable only when their fingerprints are equal: a
2-CPU run and a 1-CPU run measure different machines, not different
code (the same rule as ``shard_scaling.cpu_limited`` in
``BENCH_sweep.json``).

On a shared VM the same fingerprint still runs at different speeds from
one minute to the next: the same Python work takes up to twice the CPU
time while other guests load the physical cores.  :func:`speed_sample`
times a fixed kernel that does not touch the program, so CPU figures can
be scaled to one reference speed.
"""

from __future__ import annotations

import os
import platform
import time
from operator import itemgetter
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def thread_count() -> int:
    """Threads of this process, native ones (BLAS) included."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # pragma: no cover - non-Linux
        import threading

        return threading.active_count()


def cpu_ticks() -> tuple[int, int]:
    """Host-wide (steal, total) CPU ticks from ``/proc/stat``; (0, 0)
    where it is unavailable.

    Steal is time the hypervisor gave this VM's CPUs to someone else.  It
    tracks the latency noise between runs on a shared host.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


#: Median :func:`speed_sample` time (µs) over 150 fixed-rate phases on the
#: reference host (2 vCPUs of a shared Intel Xeon VM, Python 3.11, NumPy 2.4).
SPEED_REF_US = 730.0
_VEC = np.linspace(0.0, 1.0, 16)


def speed_kernel() -> float:
    """Fixed interpreter and small-NumPy work, independent of the program.

    It mixes what the decision path does per request: small dicts and
    tuples, string formatting, a keyed sort and short vector operations.
    """
    records = []
    total = 0.0
    for i in range(400):
        record = {"id": i, "value": i * 0.5, "tags": ("tenant", i & 3)}
        records.append(record)
        total += record["value"] + len(f"{i}:{record['tags'][1]}")
    records.sort(key=itemgetter("value"), reverse=True)
    for _ in range(80):
        total += float(_VEC @ _VEC) + int(_VEC.argmin())
    return total


def speed_sample() -> float:
    """Process CPU seconds one :func:`speed_kernel` call takes now."""
    start = time.process_time()
    speed_kernel()
    return time.process_time() - start


def blas_vendor() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):  # older NumPy without mode="dicts"
        return "unknown"


def fingerprint() -> dict:
    import numpy

    return {
        "cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_vendor(),
    }


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` directly; ``None`` outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None
