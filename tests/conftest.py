"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib

import pytest

from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from repro.providers.simfs import SimulatedFileSystem
from repro.providers.web import WebOrigin
from repro.sim.context import SimContext


@pytest.fixture
def ctx() -> SimContext:
    """A fresh deterministic simulation context."""
    return SimContext()


@pytest.fixture
def kernel() -> PlacelessKernel:
    """A fresh kernel with its own context."""
    return PlacelessKernel()


@pytest.fixture
def user(kernel):
    """One registered user."""
    return kernel.create_user("alice")


@pytest.fixture
def other_user(kernel):
    """A second registered user."""
    return kernel.create_user("bob")


@pytest.fixture
def memory_reference(kernel, user):
    """A reference to a memory-backed document owned by *user*."""
    provider = MemoryProvider(kernel.ctx, b"the quick brown fox")
    return kernel.import_document(user, provider, "memo")


@pytest.fixture
def filesystem(kernel) -> SimulatedFileSystem:
    """A simulated filer on the kernel's clock."""
    return SimulatedFileSystem(kernel.ctx.clock)


@pytest.fixture
def web_origin(kernel) -> WebOrigin:
    """A simulated parcweb origin on the kernel's clock."""
    return WebOrigin(kernel.ctx.clock, host="parcweb")


@pytest.fixture
def md5_calls(monkeypatch) -> list:
    """One item per ``hashlib.md5`` construction since the last
    ``clear()`` — the exact count of byte strings signed."""
    real, calls = hashlib.md5, []
    monkeypatch.setattr(
        hashlib, "md5", lambda *args: calls.append(1) or real(*args)
    )
    return calls
