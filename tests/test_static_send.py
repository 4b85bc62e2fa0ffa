"""Tests for Unbalanced-Send and Unbalanced-Consecutive-Send (Theorems
6.2/6.3): validity, span bounds, window math, and measured overload behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    evaluate_schedule,
    send_window,
    unbalanced_consecutive_send,
    unbalanced_send,
)
from repro.scheduling.static_send import per_proc_flit_ranks
from repro.workloads import (
    one_to_all_relation,
    uniform_random_relation,
    variable_length_relation,
    zipf_h_relation,
)


class TestWindow:
    def test_formula(self):
        assert send_window(1000, 10, 0.1) == 110

    def test_minimum_one(self):
        assert send_window(0, 10, 0.1) == 1

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            send_window(10, 5, 0.0)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            send_window(10, 0, 0.1)


class TestRanks:
    def test_basic(self):
        src = np.array([1, 0, 1, 1, 0])
        assert per_proc_flit_ranks(src, 2).tolist() == [0, 0, 1, 2, 1]

    def test_empty(self):
        assert per_proc_flit_ranks(np.zeros(0, dtype=np.int64), 4).size == 0

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=200))
    def test_ranks_are_per_proc_permutations(self, srcs):
        src = np.asarray(srcs, dtype=np.int64)
        ranks = per_proc_flit_ranks(src, 8)
        for pid in range(8):
            mine = ranks[src == pid]
            # ranked 0, 1, 2, ... in flit order
            assert mine.tolist() == list(range(mine.size))


class TestUnbalancedSend:
    def test_valid_and_window_span(self):
        rel = uniform_random_relation(128, 5000, seed=0)
        sched = unbalanced_send(rel, m=32, epsilon=0.2, seed=1)
        sched.check_valid()
        window = send_window(rel.n, 32, 0.2)
        assert sched.window == window
        assert sched.span <= max(window, rel.x_bar)

    def test_oversized_processor_sends_from_zero(self):
        rel = one_to_all_relation(64)  # x̄ = 63 >> window when m large
        sched = unbalanced_send(rel, m=63, epsilon=0.1, seed=2)
        sched.check_valid()
        assert sched.meta["oversized_procs"] == 1.0
        # the big sender occupies slots 0..62
        assert sched.span == 63

    def test_deterministic_under_seed(self):
        rel = uniform_random_relation(64, 2000, seed=3)
        a = unbalanced_send(rel, m=16, epsilon=0.1, seed=42)
        b = unbalanced_send(rel, m=16, epsilon=0.1, seed=42)
        assert np.array_equal(a.flit_slots, b.flit_slots)

    def test_no_overload_whp(self):
        """With m = 256 and eps = 0.5 the failure probability is tiny; all
        20 seeds must stay within the bandwidth."""
        rel = uniform_random_relation(1024, 100_000, seed=4)
        for seed in range(20):
            sched = unbalanced_send(rel, m=256, epsilon=0.5, seed=seed)
            rep = evaluate_schedule(sched, m=256)
            assert not rep.overloaded, f"seed {seed} overloaded"
            assert rep.ratio <= 1.55

    def test_known_n_override(self):
        rel = uniform_random_relation(32, 100, seed=5)
        sched = unbalanced_send(rel, m=8, epsilon=0.1, seed=6, n=1000)
        assert sched.window == send_window(1000, 8, 0.1)

    def test_spread_template(self):
        rel = uniform_random_relation(64, 3000, seed=7)
        sched = unbalanced_send(rel, m=16, epsilon=0.2, seed=8, template="spread")
        sched.check_valid()

    def test_bad_template(self):
        rel = uniform_random_relation(8, 10, seed=9)
        with pytest.raises(ValueError, match="template"):
            unbalanced_send(rel, m=4, epsilon=0.1, template="bogus")

    def test_skewed_ratio_near_one(self):
        """Under heavy skew the optimum is x̄-dominated and the schedule
        must track it exactly."""
        rel = zipf_h_relation(512, 50_000, alpha=1.4, seed=10)
        sched = unbalanced_send(rel, m=64, epsilon=0.1, seed=11)
        rep = evaluate_schedule(sched, m=64)
        assert rep.ratio <= 1.15


class TestConsecutiveSend:
    def test_messages_consecutive(self):
        rel = variable_length_relation(64, 500, mean_length=6, seed=12)
        sched = unbalanced_consecutive_send(rel, m=16, epsilon=0.2, seed=13)
        sched.check_valid(require_consecutive=True)

    def test_span_bound(self):
        rel = uniform_random_relation(128, 10_000, seed=14)
        sched = unbalanced_consecutive_send(rel, m=32, epsilon=0.2, seed=15)
        window = send_window(rel.n, 32, 0.2)
        x_bar_prime = sched.meta["x_bar_prime"]
        assert sched.span <= window + x_bar_prime

    def test_oversized_starts_at_zero(self):
        rel = one_to_all_relation(32)
        sched = unbalanced_consecutive_send(rel, m=31, epsilon=0.1, seed=16)
        sched.check_valid(require_consecutive=True)
        assert sched.span == 31

    def test_no_overload_whp(self):
        rel = uniform_random_relation(512, 50_000, seed=17)
        for seed in range(10):
            sched = unbalanced_consecutive_send(rel, m=256, epsilon=0.5, seed=seed)
            rep = evaluate_schedule(sched, m=256)
            assert not rep.overloaded


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(2, 64),
    n=st.integers(1, 2000),
    m=st.integers(1, 64),
    seed=st.integers(0, 10_000),
)
def test_unbalanced_send_always_valid(p, n, m, seed):
    """Whatever the workload, the schedule never violates per-processor
    slot-uniqueness, schedules every flit exactly once, and stays within
    max(window, x̄) slots."""
    rel = uniform_random_relation(p, n, seed=seed)
    sched = unbalanced_send(rel, m=m, epsilon=0.25, seed=seed)
    sched.check_valid()
    assert sched.flit_slots.size == rel.n
    assert sched.span <= max(sched.window, rel.x_bar)


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(2, 32),
    nm=st.integers(1, 300),
    m=st.integers(1, 32),
    seed=st.integers(0, 10_000),
)
def test_consecutive_send_always_valid(p, nm, m, seed):
    rel = variable_length_relation(p, nm, mean_length=4, seed=seed)
    sched = unbalanced_consecutive_send(rel, m=m, epsilon=0.25, seed=seed)
    sched.check_valid(require_consecutive=True)
