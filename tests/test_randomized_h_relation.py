"""Tests for the randomized CRCW h-relation realization (§4.1, randomized
conversion)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    realize_h_relation_crcw,
    realize_h_relation_crcw_randomized,
)
from repro.algorithms.h_relation import CRCW_DELIVERY_FAILURE_BUDGET
from repro.workloads import all_to_one_relation, uniform_random_relation


def check_delivery(rel, delivered):
    got = sorted((d, s) for d in range(rel.p) for s in delivered[d])
    want = sorted(zip(rel.dest.tolist(), rel.src.tolist()))
    assert got == want


class TestRandomizedRealization:
    def test_uniform(self):
        rel = uniform_random_relation(12, 40, seed=0)
        res, delivered = realize_h_relation_crcw_randomized(rel, seed=1)
        check_delivery(rel, delivered)

    def test_all_to_one(self):
        rel = all_to_one_relation(12)
        res, delivered = realize_h_relation_crcw_randomized(rel, seed=2)
        check_delivery(rel, delivered)

    def test_deterministic_given_seed(self):
        rel = uniform_random_relation(8, 20, seed=3)
        t1 = realize_h_relation_crcw_randomized(rel, seed=7)[0].time
        t2 = realize_h_relation_crcw_randomized(rel, seed=7)[0].time
        assert t1 == t2

    def test_time_is_h_plus_log(self):
        """The step count is O(h + lg n): dart rounds O(lg n) + bucket scan
        O(c·h)."""
        rel = all_to_one_relation(16)  # h = 15
        res, _ = realize_h_relation_crcw_randomized(rel, c=4, seed=4)
        h = rel.y_bar
        max_rounds = math.ceil(
            math.log(rel.n / CRCW_DELIVERY_FAILURE_BUDGET) / math.log(4)
        )
        bound = 3 * max_rounds + 4 * h + 4  # 3 phases/round + bucket scan
        assert res.time <= bound

    @pytest.mark.parametrize("c", [2, 4])
    def test_default_cap_never_fails_on_a_sweep(self, c):
        """The budget-derived cap lands every message on a p x seed sweep,
        at the bucket factor's minimum and at its default."""
        for p in range(2, 17):
            for seed in range(12):
                for rel in (uniform_random_relation(p, 3 * p, seed=seed),
                            all_to_one_relation(p)):
                    _, delivered = realize_h_relation_crcw_randomized(
                        rel, c=c, seed=seed
                    )
                    check_delivery(rel, delivered)

    def test_small_c_rejected(self):
        rel = uniform_random_relation(4, 8, seed=5)
        with pytest.raises(ValueError):
            realize_h_relation_crcw_randomized(rel, c=1)

    def test_insufficient_rounds_detected(self):
        # 63 darts into a 126-cell bucket collide w.h.p.; one round cannot
        # land them all, and the library must say so rather than lose mail.
        rel = all_to_one_relation(64)
        with pytest.raises(RuntimeError, match="incomplete"):
            realize_h_relation_crcw_randomized(rel, c=2, max_rounds=1, seed=6)

    def test_rejects_long_messages(self):
        from repro.workloads import variable_length_relation

        rel = variable_length_relation(8, 10, mean_length=4, seed=7)
        if rel.length.max() > 1:
            with pytest.raises(ValueError):
                realize_h_relation_crcw_randomized(rel)

    def test_empty(self):
        rel = uniform_random_relation(4, 0, seed=8)
        res, delivered = realize_h_relation_crcw_randomized(rel, seed=9)
        assert all(not d for d in delivered)

    @settings(max_examples=10, deadline=None)
    @given(p=st.integers(2, 10), n=st.integers(0, 40), seed=st.integers(0, 1000))
    def test_property_always_delivers(self, p, n, seed):
        rel = uniform_random_relation(p, n, seed=seed)
        res, delivered = realize_h_relation_crcw_randomized(rel, seed=seed)
        check_delivery(rel, delivered)

    def test_agrees_with_deterministic(self):
        rel = uniform_random_relation(10, 30, seed=10)
        _, det = realize_h_relation_crcw(rel)
        _, rand = realize_h_relation_crcw_randomized(rel, seed=11)
        for d in range(10):
            assert sorted(det[d]) == sorted(rand[d])
