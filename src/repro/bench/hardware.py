"""Hardware provenance for recorded benchmark numbers.

A windows/s figure says little without the machine behind it: the CPU
count bounds any parallel speedup, and the BLAS libraries loaded in the
process decide how the GEMMs ran.  The numpy and scipy wheels each
bundle their own OpenBLAS, each with its own thread pool, so every
loaded build is listed with the thread count it runs with.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, List, Optional

#: symbol prefixes of the wheel-bundled (``scipy_openblas``) and plain
#: OpenBLAS builds; 64-bit-integer builds suffix their symbols ``64_``
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def loaded_openblas() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process.

    Read from ``/proc/self/maps``; empty where there is no procfs.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    return sorted(paths)


def _call(lib, stem: str, restype):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                return fn()
    return None


def blas_pools() -> List[Dict[str, object]]:
    """Each loaded OpenBLAS: library file, build string, thread count."""
    pools = []
    for path in loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config: Optional[bytes] = _call(lib, "get_config", ctypes.c_char_p)
        pools.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": _call(lib, "get_num_threads", ctypes.c_int),
        })
    return pools


def hardware() -> Dict[str, object]:
    """CPU count, usable CPUs, and every loaded BLAS thread pool."""
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas": blas_pools(),
    }
