"""Lint fixture: exactly one deliberate violation per TP rule.

This module is never imported — ``tests/test_analysis_lint.py`` feeds
it to ``repro.analysis.lint`` by path and asserts that every TP0xx rule
code fires on it.  Keep one violation per rule so the test
can pin the expected finding counts.
"""

import random
import time


def tp001_global_rng() -> int:
    """TP001: draws from the process-global RNG."""
    return random.randint(0, 7)


def tp002_wall_clock() -> float:
    """TP002: reads the wall clock inside simulation code."""
    return time.time()


def tp003_bare_assert(value: int) -> None:
    """TP003: bare assert, stripped under ``python -O``."""
    assert value >= 0


def tp004_config_mutation(config) -> None:
    """TP004: mutates a frozen config dataclass."""
    config.page_size = 4096

