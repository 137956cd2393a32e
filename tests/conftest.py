import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` sizes the package's process pool for n usable CPUs, whatever this machine has.

    One CPU means every job runs in the calling process.
    """
    def use(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)
    return use
