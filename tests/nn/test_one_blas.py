"""One BLAS: no module under ``src/repro`` reaches for scipy's BLAS.

The numpy and scipy wheels each bundle their own OpenBLAS, and each
library runs its own thread pool whose idle threads busy-wait.  When the
fused inference plan sent kernel row 0 of every convolution to numpy
(``np.matmul``) and rows 1-2 to ``scipy.linalg.blas.dgemm(beta=1)``,
every forward pass switched pools several times and the two pools'
spinning threads fought over the same cores.  Measured on a 2-vCPU
host, a cnn-dct chip scan of 3,844 windows took 3.9-4.3 s with the
GEMMs split that way, 3.9-4.1 s with every conv GEMM on scipy and the
dense GEMMs on numpy, and 1.4-1.9 s with every GEMM on numpy's BLAS;
the plan's own share fell from 3.3 s to 0.85 s.  Any mix of the two
keeps the contention, so the import itself is refused.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: names under ``scipy.linalg`` that hand out scipy's BLAS routines
_BLAS_NAMES = {"blas", "cython_blas", "get_blas_funcs"}


def scipy_blas_uses(source: str):
    """``(line, what)`` for every way ``source`` reaches scipy's BLAS."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[:2] == ["scipy", "linalg"] and _BLAS_NAMES & set(
                    parts[2:]
                ):
                    hits.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[:2] != ["scipy", "linalg"]:
                continue
            names = set(module[2:]) | {a.name for a in node.names}
            if _BLAS_NAMES & names:
                hits.append((node.lineno, node.module))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _BLAS_NAMES
            and isinstance(node.value, (ast.Name, ast.Attribute))
            and getattr(node.value, "id", getattr(node.value, "attr", ""))
            == "linalg"
        ):
            hits.append((node.lineno, f"linalg.{node.attr}"))
    return hits


def test_no_module_under_src_uses_scipy_blas():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in scipy_blas_uses(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], (
        "scipy's BLAS runs its own OpenBLAS thread pool next to numpy's; "
        "route GEMMs through np.matmul instead:\n" + "\n".join(offenders)
    )


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.linalg.blas",
        "import scipy.linalg.blas as b",
        "from scipy.linalg.blas import dgemm",
        "from scipy.linalg import blas",
        "from scipy.linalg import get_blas_funcs",
        "import scipy.linalg\nscipy.linalg.blas.dgemm(1.0, a, b)",
        "from scipy import linalg\nlinalg.get_blas_funcs(('gemm',))",
    ],
)
def test_every_spelling_is_caught(source):
    assert scipy_blas_uses(source)


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.fft as spfft",
        "from scipy.linalg import solve",
        "import numpy as np\nnp.linalg.norm(x)",
    ],
)
def test_other_scipy_and_numpy_linalg_pass(source):
    assert scipy_blas_uses(source) == []
