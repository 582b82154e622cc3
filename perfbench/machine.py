"""Machine facts recorded with every run, and the BLAS thread pin."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# One BLAS thread: on a 2-core box this made reference-scale training both
# faster and steadier than two threads (inference was slightly faster
# with two, but a run must pin one count for every workload).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_env(env: dict) -> dict:
    """Set every BLAS thread variable; must happen before numpy is imported."""
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_id(root: Path) -> str:
    """The git commit when there is one, else a digest of src/."""
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                capture_output=True, text=True, timeout=10,
            )
            if rev.returncode == 0:
                return rev.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def facts(root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the layout of show_config is not a stable API
        pass
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "source": source_id(root),
    }
