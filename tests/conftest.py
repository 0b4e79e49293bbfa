import importlib.util
import sys
from pathlib import Path

import pytest


def _perfbench_module(name):
    """perfbench/<name>.py, imported by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perfbench_workloads():
    return _perfbench_module("workloads")


@pytest.fixture(scope="session")
def perfbench_layertrace():
    return _perfbench_module("layertrace")
