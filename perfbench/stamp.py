"""What every record carries: code version, configs, machine and BLAS."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np


def usable_cores() -> int:
    """Cores this process may run on (respects container CPU limits)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_sha(root: Path) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git work tree."""
    if not (Path(root) / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def config_hash(configs: dict) -> str:
    """Short SHA-256 of the configs a run used (sorted-key JSON)."""
    encoded = json.dumps(configs, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def blas_threads():
    """Threads the BLAS runs with: threadpoolctl's answer, else the environment."""
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        threadpool_info = None
    if threadpool_info is not None:
        for entry in threadpool_info():
            if entry.get("user_api") == "blas":
                return int(entry["num_threads"])
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(variable):
            return os.environ[variable]
    return "library default"


def blas_info() -> dict:
    """NumPy version, the BLAS it was built against and the BLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name, "blas_threads": blas_threads()}


def matmul_roofline_gflops(n: int = 512, repeats: int = 7) -> float:
    """Best float64 ``np.matmul`` rate on this machine, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty((n, n))
    np.matmul(a, b, out=out)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def stamp(root: Path, configs: dict) -> dict:
    """The stamp of one record."""
    return {
        "git_sha": git_sha(root),
        "config_hash": config_hash(configs),
        "usable_cores": usable_cores(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **blas_info(),
        "matmul_roofline_gflops": matmul_roofline_gflops(),
    }
