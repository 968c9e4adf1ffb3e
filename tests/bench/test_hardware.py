"""Hardware provenance recorded next to every BENCH_*.json number."""

import json
import sys

import numpy as np
import pytest

from repro.bench import hardware
from repro.bench.hardware import loaded_openblas


def test_record_is_json_with_cpu_counts():
    record = json.loads(json.dumps(hardware()))
    assert record["cpus"] >= 1
    assert 1 <= record["cpus_usable"] <= record["cpus"]
    assert isinstance(record["blas"], list)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/maps"
)
def test_numpys_openblas_is_listed_with_its_threads():
    np.ones((4, 4)) @ np.ones((4, 4))  # numpy's BLAS is mapped by now
    if not loaded_openblas():
        pytest.skip("numpy is not linked against OpenBLAS here")
    pools = hardware()["blas"]
    assert pools and all(p["library"] for p in pools)
    assert all(
        isinstance(p["threads"], int) and p["threads"] >= 1 for p in pools
    )
    assert any("OpenBLAS" in (p["config"] or "") for p in pools)
