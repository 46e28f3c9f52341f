"""Unit tests for byte-budget accounting."""

import pytest

from repro.cache import ByteBudget
from repro.errors import CacheCapacityError, CacheError


class TestByteBudget:
    def test_charge_and_release(self):
        budget = ByteBudget(100)
        budget.charge(60)
        assert budget.used == 60
        budget.release(20)
        assert budget.used == 40

    def test_overcharge_rejected(self):
        budget = ByteBudget(10)
        with pytest.raises(CacheError):
            budget.charge(11)

    def test_over_release_rejected(self):
        budget = ByteBudget(10)
        budget.charge(5)
        with pytest.raises(CacheError):
            budget.release(6)

    def test_negative_amounts_rejected(self):
        budget = ByteBudget(10)
        with pytest.raises(CacheError):
            budget.charge(-1)
        with pytest.raises(CacheError):
            budget.release(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(CacheCapacityError):
            ByteBudget(0)
