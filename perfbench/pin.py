"""Pin the benchmark's environment before NumPy or ``repro`` is imported.

Every process the benchmark runs (the measured run and its set-up probes)
calls :func:`pin_environment` first, so all of them see the same thread
caps, the same dataset cache and the checkout's own ``src/`` tree.
Standard library only: this module runs before anything else is imported.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

#: The checkout the benchmark lives in (``perfbench/`` sits at its root).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes goes under here (git-ignored).
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: BLAS / OpenMP pool sizes NumPy may read at import time.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Sources whose output lands in the dataset cache; the cache directory is
#: keyed by their digest so a commit never reads another commit's graphs.
CACHE_KEY_SOURCES = ("graph", "bench/workloads.py")


class EnvironmentRefused(RuntimeError):
    """The checkout or the environment cannot give comparable numbers."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _digest(paths) -> str:
    sha = hashlib.sha1()
    for path in sorted(paths):
        sha.update(str(path.relative_to(SRC)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:12]


def _python_files(rel: str):
    target = SRC / "repro" / rel
    if target.is_file():
        return [target]
    return list(target.rglob("*.py"))


def cache_dir() -> Path:
    """The dataset cache this checkout's generator sources own."""
    files = [f for rel in CACHE_KEY_SOURCES for f in _python_files(rel)]
    return OUT_DIR / f"cache-{_digest(files)}"


def pin_environment() -> None:
    """Refuse unpinnable environments, then pin threads, cache and path."""
    if not (SRC / "repro").is_dir():
        raise EnvironmentRefused(
            f"no program sources under {SRC}; run from a full checkout"
        )
    if "REPRO_SCALE" in os.environ:
        raise EnvironmentRefused(
            "REPRO_SCALE is set; it shrinks the datasets and makes the "
            "figures incomparable — unset it"
        )
    # Everything the benchmark runs shares one CPU, so the host-speed
    # chunks time the same vCPU as the work (the two vCPUs of a shared
    # host can differ in speed by 2x at one moment).  Children inherit it.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cores = str(nproc())
    for var in THREAD_VARS:
        os.environ[var] = cores
    cache = cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    # Child processes (set-up probes) resolve the same tree.
    os.environ["PYTHONPATH"] = src


def describe() -> Dict[str, object]:
    """Revision, core counts and interpreter/NumPy versions of this run."""
    import numpy

    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "revision": revision,
        "src_digest": _digest(list((SRC / "repro").rglob("*.py"))),
        "nproc": nproc(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
