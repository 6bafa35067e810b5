"""Suite setup: the commands some tests start as subprocesses import the
package from this checkout's ``src``, as the tests themselves do through
``pythonpath`` in ``pyproject.toml``."""
import os
from pathlib import Path


def pytest_configure(config):
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
