"""Make the benchmark and the program importable without an install step,
and end the processes the in-process runs start."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def pytest_sessionfinish(session, exitstatus):
    """End the processes the in-process runs started, as ``run.py`` does."""
    from perfbench.procs import stop_children

    stop_children()
