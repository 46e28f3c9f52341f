"""Shared fixtures: tiny device geometries that keep tests fast.

The *tiny* geometry shrinks pages to 256B so one translation page holds
64 entries and the device spans 8 translation pages — enough structure
to exercise every FTL mechanism (multi-node caches, GC of both block
kinds, prefetch page-boundary clipping) while each test runs in
milliseconds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import random

import pytest

from repro.analysis import analyze, read_sources
from repro.config import (CacheConfig, SanitizerConfig, SimulationConfig,
                          SSDConfig)
from repro.experiments.runner import encode_result
from repro.types import Op, Request, Trace

#: digests frozen from the per-operation reference core before it was
#: deleted (regenerate: see ``tests/golden_cells.py``)
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")


def analyze_source(source: str, path: str = "lintcheck.py"):
    """Lint findings of one in-memory module."""
    return analyze({path: source})


def analyze_paths(paths):
    """Lint findings of the files/trees at ``paths``."""
    return analyze(read_sources([str(p) for p in paths]))


def result_digest(result) -> str:
    """sha256 of the run cache's JSON encoding of a ``RunResult``.

    Byte-identical encodings mean every field the cache can observe —
    metrics, response statistics (including the Welford internals),
    sampler series, timings, fault counters — is identical.
    """
    payload = json.dumps(encode_result(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def golden_digests() -> dict:
    """The committed golden table: ``{"cells": {...}, "specs": {...}}``."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture
def tiny_ssd() -> SSDConfig:
    return SSDConfig(logical_pages=512, page_size=256, pages_per_block=8)


@pytest.fixture
def tiny_config(tiny_ssd: SSDConfig) -> SimulationConfig:
    return SimulationConfig(ssd=tiny_ssd)


@pytest.fixture
def roomy_config(tiny_ssd: SSDConfig) -> SimulationConfig:
    """Same geometry with a cache big enough for page-granular FTLs."""
    return SimulationConfig(
        ssd=tiny_ssd,
        cache=CacheConfig(budget_bytes=2048))


@pytest.fixture
def sanitized_config(tiny_ssd: SSDConfig) -> SimulationConfig:
    """Roomy config with FTLSan armed at full rate (checks every op)."""
    return SimulationConfig(
        ssd=tiny_ssd,
        cache=CacheConfig(budget_bytes=2048),
        sanitizer=SanitizerConfig(enabled=True, interval=1,
                                  full_every=32))


def make_trace(ops, logical_pages: int = 512, name: str = "test",
               spacing_us: float = 100.0) -> Trace:
    """Build a trace from (op, lpn, npages) tuples with even arrivals."""
    requests = []
    for index, (op, lpn, npages) in enumerate(ops):
        requests.append(Request(arrival=index * spacing_us, op=op,
                                lpn=lpn, npages=npages))
    return Trace(requests=requests, logical_pages=logical_pages,
                 name=name)


def random_ops(count: int, logical_pages: int, seed: int = 0,
               write_ratio: float = 0.7, max_pages: int = 4):
    """Deterministic random (op, lpn, npages) tuples for stress tests."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        op = Op.WRITE if rng.random() < write_ratio else Op.READ
        npages = rng.randint(1, max_pages)
        lpn = rng.randrange(logical_pages - npages)
        ops.append((op, lpn, npages))
    return ops
