"""Where a result came from: hardware, libraries, code revision, seed."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional


def _openblas_libraries() -> List[str]:
    """OpenBLAS builds bundled with numpy and scipy (``*.libs`` dirs)."""
    import numpy
    import scipy

    paths: List[str] = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / (
            package.__name__ + ".libs"
        )
        paths.extend(sorted(glob.glob(str(libs / "*openblas*.so*"))))
    return paths


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, []
            return fn()
    return None


def blas() -> List[Dict[str, object]]:
    """Name/config and the thread count each loaded OpenBLAS runs with.

    No BLAS or OpenMP thread variable is set by the benchmark, so this
    is the library default for the host.
    """
    out = []
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call(lib, (
            "scipy_openblas_get_config64_", "scipy_openblas_get_config",
            "openblas_get_config64_", "openblas_get_config",
        ), ctypes.c_char_p)
        threads = _call(lib, (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ), ctypes.c_int)
        out.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": threads,
        })
    return out


def commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """BLAKE2b over every file under ``src/``: names the code revision
    where the checkout is not a git repository."""
    digest = hashlib.blake2b(digest_size=12)
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload: str, seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(root),
        "source_digest": source_digest(root),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "thread_env": {
            k: os.environ[k] for k in sorted(os.environ)
            if k.endswith("_NUM_THREADS")
        },
    }
