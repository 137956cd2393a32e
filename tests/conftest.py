import os

import pytest

from cewlab import dataset


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` sizes the package's process pool for n usable CPUs, whatever this machine has.

    One CPU means every job runs in the calling process.
    """
    def use(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)
    return use


@pytest.fixture
def regenerations(monkeypatch):
    """The record count of every call to cewlab.dataset.regenerate_states, in call order."""
    counts = []
    regenerate = dataset.regenerate_states

    def counting(ds):
        counts.append(ds.count)
        return regenerate(ds)
    monkeypatch.setattr(dataset, "regenerate_states", counting)
    return counts
