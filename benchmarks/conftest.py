"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper
(README's "Paper-figure benchmarks" has the index) and prints the corresponding rows /
series. Output is written through :func:`report`, which bypasses
pytest's capture so that

    pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

records the paper-style artifacts alongside pytest-benchmark's timing
table.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import load_scaled

_CAPMAN = None


def pytest_configure(config):
    global _CAPMAN
    _CAPMAN = config.pluginmanager.getplugin("capturemanager")


def report(text: str) -> None:
    """Print to the real stdout (visible despite pytest's fd capture)."""
    if _CAPMAN is not None:
        _CAPMAN.suspend_global_capture(in_=False)
    try:
        print(text, flush=True)
    finally:
        if _CAPMAN is not None:
            _CAPMAN.resume_global_capture()


def banner(title: str) -> None:
    report("\n" + "=" * 72)
    report(title)
    report("=" * 72)


@pytest.fixture(scope="session")
def datasets():
    """Scaled stand-ins for every paper dataset used by the benches."""

    def load(name, cells=20_000.0, seed=0, lam_factor=None):
        return load_scaled(name, target_cells=cells, seed=seed,
                           lam_factor=lam_factor)

    return load
