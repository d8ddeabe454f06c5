"""Virtual clock and deterministic RNG."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now_ns == 0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance(250)
        assert clock.now_ns == 350

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_advance_to_is_monotonic(self):
        clock = VirtualClock()
        clock.advance_to(1_000)
        clock.advance_to(500)  # no going back
        assert clock.now_ns == 1_000

    def test_cycle_conversion_at_3_4_ghz(self):
        clock = VirtualClock(frequency_ghz=3.4)
        assert clock.ns_to_cycles(1_000) == 3_400
        assert clock.cycles_to_ns(3_400) == 1_000

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            VirtualClock(frequency_ghz=0)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=30))
    def test_advance_sums(self, durations):
        clock = VirtualClock()
        for duration in durations:
            clock.advance(duration)
        assert clock.now_ns == sum(durations)


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7).stream("x")
        b = DeterministicRng(7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_independent(self):
        rng = DeterministicRng(7)
        first = [rng.stream("a").random() for _ in range(5)]
        rng2 = DeterministicRng(7)
        # Consuming stream "b" must not perturb stream "a".
        rng2.stream("b").random()
        second = [rng2.stream("a").random() for _ in range(5)]
        assert first == second

    def test_different_seeds_differ(self):
        a = DeterministicRng(1).stream("x").random()
        b = DeterministicRng(2).stream("x").random()
        assert a != b

    def test_jitter_positive_and_near_mean(self):
        rng = DeterministicRng(0)
        values = [rng.jitter_ns("j", 10_000) for _ in range(500)]
        assert all(v > 0 for v in values)
        mean = sum(values) / len(values)
        assert 9_000 < mean < 11_000

    def test_jitter_zero_mean_is_zero(self):
        assert DeterministicRng(0).jitter_ns("j", 0) == 0

    def test_jitter_clamped_below(self):
        rng = DeterministicRng(0)
        floor = 10_000 * (1.0 - 3.0 * 0.08)
        assert all(
            rng.jitter_ns("k", 10_000) >= int(floor) - 1 for _ in range(1000)
        )

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(
            st.tuples(
                st.sampled_from(["urts:ecall-dispatch", "trts:dispatch", "x"]),
                st.sampled_from([0, 1, 475, 820.5, 10_000]),
                st.sampled_from([0.08, 0.3, 0.5]),
            ),
            max_size=40,
        ),
    )
    def test_bound_jitter_draws_equal_jitter_ns(self, seed, draws):
        """Interleaved bound draws reproduce the by-name draws exactly,
        sharing each stream with by-name draws of the same name."""
        by_name, bound = DeterministicRng(seed), DeterministicRng(seed)
        draw = {}
        for i, (name, mean_ns, rel_sigma) in enumerate(draws):
            key = (name, mean_ns, rel_sigma)
            if key not in draw:
                draw[key] = bound.bind_jitter(name, mean_ns, rel_sigma)
            # Every third draw goes through jitter_ns on the bound side too.
            got = bound.jitter_ns(*key) if i % 3 == 2 else draw[key]()
            assert got == by_name.jitter_ns(*key)

    def test_bound_jitter_zero_mean_is_zero(self):
        assert DeterministicRng(0).bind_jitter("j", 0)() == 0

    def test_heavy_tail_produces_outliers(self):
        rng = DeterministicRng(3)
        values = [
            rng.heavy_tail_ns("h", 10_000, tail_probability=0.05) for _ in range(2000)
        ]
        assert max(values) > 2 * 10_000
