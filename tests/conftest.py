"""Fixtures shared by the test modules."""

import importlib.util
import pathlib

import pytest

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload generator, bench/workloads.py, loaded read-only.

    Tests read the seeded configs the benchmark runs through its generate()
    and config_text(); bench/ is not a package, so the file is loaded by path.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
