"""Virtual clock and deterministic RNG."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


def reference_jitter(stream: random.Random, mean_ns: float, rel_sigma: float) -> int:
    """A jitter draw as ``random.Random.gauss`` and the clamp compute it."""
    if mean_ns <= 0:
        return 0
    factor = stream.gauss(1.0, rel_sigma)
    floor = max(0.05, 1.0 - 3.0 * rel_sigma)
    if factor < floor:
        factor = floor
    return max(1, int(mean_ns * factor))


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

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from(["bound", "jitter_ns", "gauss"]),
                st.sampled_from([-3, 0, 1, 475, 820.5, 10_000]),
                st.sampled_from([0.08, 0.3, 0.4, 0.5]),
            ),
            max_size=60,
        ),
    )
    def test_draws_equal_gauss_reference(self, seed, draws):
        """Bound draws, by-name draws and direct ``gauss`` calls on two
        streams, interleaved, consume and yield what ``gauss`` does."""
        rng, reference = DeterministicRng(seed), DeterministicRng(seed)
        bound = {}
        for name, kind, mean_ns, rel_sigma in draws:
            expected_stream = reference.stream(name)
            if kind == "gauss":
                assert rng.stream(name).gauss(0.0, 1.0) == expected_stream.gauss(0.0, 1.0)
                continue
            if kind == "bound":
                key = (name, mean_ns, rel_sigma)
                if key not in bound:
                    bound[key] = rng.bind_jitter(*key)
                got = bound[key]()
            else:
                got = rng.jitter_ns(name, mean_ns, rel_sigma)
            assert got == reference_jitter(expected_stream, mean_ns, rel_sigma)

    @pytest.mark.parametrize("rel_sigma", [0.4, 0.5])
    def test_clamped_draws_equal_gauss_reference(self, rel_sigma):
        """At a sigma wide enough for the floor to clamp, bound and by-name
        draws on two streams still equal the reference, clamps included."""
        rng, reference = DeterministicRng(11), DeterministicRng(11)
        draw = {name: rng.bind_jitter(name, 10_000, rel_sigma) for name in ("a", "b")}
        clamped = int(10_000 * 0.05)
        got = []
        for i in range(3_000):
            name = "ab"[i % 2]
            value = draw[name]() if i % 3 else rng.jitter_ns(name, 10_000, rel_sigma)
            assert value == reference_jitter(reference.stream(name), 10_000, rel_sigma)
            got.append(value)
        assert got.count(clamped) > 0
        assert min(got) == clamped

    def test_bound_jitter_zero_mean_is_zero(self):
        assert DeterministicRng(0).bind_jitter("j", 0)() == 0
        assert DeterministicRng(0).bind_jitter("j", -5)() == 0

    def test_heavy_tail_produces_outliers(self):
        rng = DeterministicRng(3)
        values = [
            rng.heavy_tail_ns("h", 10_000, tail_probability=0.05) for _ in range(2000)
        ]
        assert max(values) > 2 * 10_000
