"""Fixtures shared by the test modules."""

import importlib.util
import os
import sys

import pytest

WORKLOADS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py"
)


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # ``dataclass`` looks its module up while executing
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
