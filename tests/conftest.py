import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def perfbench_workloads():
    """perfbench/workloads.py, imported by path (it is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module
