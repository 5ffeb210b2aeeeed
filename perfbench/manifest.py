"""The run manifest: the context every benchmark number was measured in."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = ["collect"]

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/repro``'s Python files: names the code without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def collect(seed: int, pool_workers: int, thread_env: dict[str, str]) -> dict:
    """Versions, cores, workers, seed, modes and thread pins of this run."""
    import numpy
    import scipy

    from repro.kernels import kernel_mode
    from repro.parallel.shm import transport_mode

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src") if rev else None
    return {
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": pool_workers,
        "seed": seed,
        "kernels": kernel_mode(),
        "transport": transport_mode(),
        "threads": {key: os.environ.get(key) for key in sorted(thread_env)},
        "executable": sys.executable,
    }
