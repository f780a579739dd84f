"""Host fingerprint and process memory readings (Linux ``/proc``)."""

from __future__ import annotations

import os
import platform


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` ("unknown" when
    ``/proc/self/mountinfo`` is unreadable)."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4].replace("\\040", " ")
                prefix = mount_point.rstrip("/") + "/"
                if (target == mount_point or target.startswith(prefix)) \
                        and len(mount_point) > len(best):
                    best, kind = mount_point, right.split()[0]
    except OSError:
        pass
    return kind


def fingerprint(durability_dir: str) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_used": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": platform.release(),
        "durability_fs": fs_type(durability_dir),
    }


def peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")
