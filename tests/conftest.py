"""Shared fixtures and Hypothesis profiles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import (
    BSPg,
    BSPm,
    MachineParams,
    QSMg,
    QSMm,
    SelfSchedulingBSPm,
)

# Tier-1 draws the same examples on every run and keeps no example
# database, so its verdict never depends on the run or the checkout.
# ``pytest --hypothesis-profile=explore`` draws fresh random examples (and
# more of them where a test does not pin ``max_examples``) to look for new
# counterexamples; it prints a reproduction blob for each failure.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, max_examples=200, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def matched_small():
    """A small matched (local, global) parameter pair: p=64, m=8, g=8, L=4."""
    return MachineParams.matched_pair(p=64, m=8, L=4)


@pytest.fixture
def matched_medium():
    """p=256, m=16, g=16, L=8."""
    return MachineParams.matched_pair(p=256, m=16, L=8)


@pytest.fixture
def bsp_pair(matched_small):
    local, global_ = matched_small
    return BSPg(local), BSPm(global_)


@pytest.fixture
def qsm_pair(matched_small):
    local, global_ = matched_small
    return QSMg(local), QSMm(global_)


@pytest.fixture
def all_machines(matched_small):
    local, global_ = matched_small
    return {
        "bsp_g": BSPg(local),
        "bsp_m": BSPm(global_),
        "qsm_g": QSMg(local),
        "qsm_m": QSMm(global_),
        "self_sched": SelfSchedulingBSPm(global_),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
