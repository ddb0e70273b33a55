"""Shared fixtures for the tier-1 suite."""

import os
import time
from pathlib import Path

import pytest

from f2lab.harness import run_all

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """The CLI tests start `python -m f2lab`; the child imports this
    checkout's `src`, as the parent does under `pythonpath` in
    pyproject.toml, so a plain `pytest` needs no PYTHONPATH."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


@pytest.fixture(scope="session")
def quick_profile():
    """(reports, wall seconds) of one `run_all("quick")`, shared by every
    test that only reads the quick profile."""
    start = time.perf_counter()
    reports = run_all("quick")
    return reports, time.perf_counter() - start
