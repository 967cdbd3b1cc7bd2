"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh

# Test modules import the shared oracles (tests/oracles) as ``oracles``.
_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


@pytest.fixture
def mesh8() -> Mesh:
    """Small square power-of-two mesh."""
    return Mesh(8, 8)


@pytest.fixture
def mesh16() -> Mesh:
    """The paper's 16x16 mesh."""
    return Mesh(16, 16)


@pytest.fixture
def mesh16x22() -> Mesh:
    """The paper's 16x22 mesh (truncated-curve territory)."""
    return Mesh(16, 22)


@pytest.fixture
def machine8(mesh8) -> Machine:
    """Empty machine on the 8x8 mesh."""
    return Machine(mesh8)


@pytest.fixture
def machine16(mesh16) -> Machine:
    """Empty machine on the 16x16 mesh."""
    return Machine(mesh16)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the experiment-result cache at a per-test directory.

    Keeps CLI invocations (which cache by default) from writing
    ``.repro-cache/`` into the repository during the test run.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


def checkerboard_occupy(machine: Machine, job_id: int = 999) -> None:
    """Occupy every other node (maximal fragmentation helper)."""
    nodes = [n for n in range(machine.mesh.n_nodes) if n % 2 == 0]
    machine.allocate(nodes, job_id=job_id)
