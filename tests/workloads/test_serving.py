"""Serving-path resilience primitives: retry policy, breaker, stats."""

import random

import pytest

from repro.faultrows import SERVE_FAILED, SERVE_REQUEST, SERVE_RETRY, SERVE_SHED
from repro.sim.kernel import Simulation
from repro.workloads.serving import (
    NO_SAMPLES_NS,
    CircuitBreaker,
    RetryPolicy,
    ServingStats,
    percentile_ns,
)


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, backoff_ns=1_000, multiplier=2.0)
        assert policy.backoff_for(1) == 1_000
        assert policy.backoff_for(2) == 2_000
        assert policy.backoff_for(3) == 4_000

    def test_unit_multiplier_is_constant_backoff(self):
        policy = RetryPolicy(backoff_ns=500, multiplier=1.0)
        assert policy.backoff_for(1) == policy.backoff_for(5) == 500

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_ns=1_000, multiplier=2.0, max_backoff_ns=5_000
        )
        assert policy.backoff_for(1) == 1_000
        assert policy.backoff_for(3) == 4_000
        # 8_000 and beyond clamp: a retry must never sleep past the cap,
        # or a failover retry would outlive the suspicion window it is
        # trying to ride out.
        assert policy.backoff_for(4) == 5_000
        assert policy.backoff_for(9) == 5_000

    def test_default_cap_does_not_change_default_schedule(self):
        policy = RetryPolicy()
        uncapped = [
            int(policy.backoff_ns * policy.multiplier ** (attempt - 1))
            for attempt in range(1, policy.max_attempts)
        ]
        assert [policy.backoff_for(a) for a in range(1, policy.max_attempts)] == uncapped
        assert max(uncapped) <= policy.max_backoff_ns


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        sim = Simulation()
        breaker = CircuitBreaker(sim, failure_threshold=3, cooldown_ns=1_000)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_count == 1

    def test_success_resets_failure_streak(self):
        sim = Simulation()
        breaker = CircuitBreaker(sim, failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_sheds_while_open_then_probes_after_cooldown(self):
        sim = Simulation()
        breaker = CircuitBreaker(sim, failure_threshold=1, cooldown_ns=10_000)
        breaker.record_failure()
        assert not breaker.allow()  # open: shed

        def wait_out_cooldown():
            sim.compute(20_000)
            assert breaker.allow()  # half-open: one probe goes through
            assert breaker.state == CircuitBreaker.HALF_OPEN

        sim.spawn(wait_out_cooldown)
        sim.run()

    def test_probe_success_closes_probe_failure_reopens(self):
        sim = Simulation()
        breaker = CircuitBreaker(sim, failure_threshold=1, cooldown_ns=10_000)

        def scenario():
            breaker.record_failure()
            sim.compute(20_000)
            assert breaker.allow()
            breaker.record_failure()  # probe failed
            assert breaker.state == CircuitBreaker.OPEN
            assert breaker.opened_count == 2
            sim.compute(20_000)
            assert breaker.allow()
            breaker.record_success()  # probe succeeded
            assert breaker.state == CircuitBreaker.CLOSED
            assert breaker.allow()

        sim.spawn(scenario)
        sim.run()


class _FaultLog:
    def __init__(self):
        self.rows = []

    def record_fault(self, kind, enclave_id=0, call="", detail=""):
        self.rows.append((kind, call, detail))


class TestServingStats:
    def test_counts_and_success_rate(self):
        stats = ServingStats("w")
        stats.record_success(100)
        stats.record_success(200)
        stats.record_retry("reset")
        stats.record_failure("gave up")
        assert stats.attempted == 3
        assert stats.succeeded == 2
        assert stats.retries == 1
        assert abs(stats.success_rate - 2 / 3) < 1e-9

    def test_empty_stats_report_perfect_rate(self):
        stats = ServingStats("w")
        assert stats.success_rate == 1.0
        # No samples is reported as the sentinel, never a fake 0 ns.
        assert stats.summary()["p99_ns"] == NO_SAMPLES_NS

    def test_percentiles_nearest_rank(self):
        stats = ServingStats("w")
        for latency in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
            stats.record_success(latency)
        assert stats.summary()["p50_ns"] == 50
        assert stats.summary()["p99_ns"] == 100

    def test_summary_shape(self):
        stats = ServingStats("talos")
        stats.record_success(1_000)
        stats.record_shed("breaker open")
        summary = stats.summary()
        assert summary["workload"] == "talos"
        assert summary["attempted"] == 1
        assert summary["shed"] == 1
        assert summary["success_rate"] == 1.0
        assert summary["p50_ns"] == 1_000
        assert summary["p999_ns"] == 1_000

    def test_rows_mirrored_into_fault_log(self):
        log = _FaultLog()
        stats = ServingStats("w", logger=log)
        stats.record_success(42)
        stats.record_retry("timeout")
        stats.record_shed("open")
        stats.record_failure("exhausted")
        kinds = [k for k, _, _ in log.rows]
        assert kinds == [SERVE_REQUEST, SERVE_RETRY, SERVE_SHED, SERVE_FAILED]
        assert log.rows[0][2] == "ok +42 ns"

    def test_no_logger_writes_nothing(self):
        stats = ServingStats("w")
        stats.record_success(1)  # must not raise without a logger

    def test_record_event_writes_row_without_counting(self):
        log = _FaultLog()
        stats = ServingStats("w", logger=log)
        stats.record_event("session:connect", "gateway 900000: registered")
        assert log.rows == [("session:connect", "w", "gateway 900000: registered")]
        # Lifecycle rows are bookkeeping, not requests.
        assert stats.attempted == 0
        assert stats.succeeded == 0
        # And safe without a logger.
        ServingStats("w").record_event("session:close", "x")


# One ledger call per outcome, as the serving loops make them.
_OUTCOMES = {
    "ok": lambda stats, rng: stats.record_success(rng.randrange(1_000, 10_000_000)),
    "retry": lambda stats, rng: stats.record_retry("reset"),
    "shed": lambda stats, rng: stats.record_shed("breaker open"),
    "failed": lambda stats, rng: stats.record_failure("gave up"),
    "event": lambda stats, rng: stats.record_event("session:connect", "registered"),
}
_ALL = tuple(_OUTCOMES)
_NO_SUCCESS = ("retry", "shed", "failed", "event")


def _recorded_ledgers(seed, outcomes, bare_success):
    """Three ledgers fed one seeded outcome sequence, and the rows they wrote.

    With ``bare_success`` node01 also folds a ``serve:request`` row whose
    detail carries no latency; ``fold_row`` writes no row, so the row is
    appended to the log by hand.
    """
    rng = random.Random(seed)
    log = _FaultLog()
    ledgers = {w: ServingStats(w, logger=log) for w in ("node00", "node01", "node02")}
    for _ in range(200):
        _OUTCOMES[rng.choice(outcomes)](ledgers[rng.choice(sorted(ledgers))], rng)
    if bare_success:
        written = len(log.rows)
        ledgers["node01"].fold_row(SERVE_REQUEST, "ok")
        assert len(log.rows) == written
        log.rows.append((SERVE_REQUEST, "node01", "ok"))
    return ledgers, log.rows


@pytest.mark.parametrize(
    "seed, outcomes, bare_success",
    [pytest.param(seed, _ALL, False, id=f"seed{seed}") for seed in range(4)]
    + [
        pytest.param(4, _ALL, True, id="bare-success"),
        pytest.param(5, _NO_SUCCESS, False, id="no-success"),
        pytest.param(6, _NO_SUCCESS, True, id="only-bare-success"),
    ],
)
class TestLedgerReplay:
    """``fold_row`` inverts the rows a ledger writes; ``merge`` adds ledgers."""

    def test_fresh_ledger_fed_the_rows_reproduces_the_summary(
        self, seed, outcomes, bare_success
    ):
        ledgers, rows = _recorded_ledgers(seed, outcomes, bare_success)
        for workload, ledger in ledgers.items():
            replay = ServingStats(workload)
            for kind, call, detail in rows:
                if call == workload:
                    replay.fold_row(kind, detail)
            assert replay.summary() == ledger.summary()
            if "ok" not in outcomes:
                assert ledger.summary()["p50_ns"] == NO_SAMPLES_NS

    def test_merged_ledgers_equal_one_ledger_fed_every_row(
        self, seed, outcomes, bare_success
    ):
        ledgers, rows = _recorded_ledgers(seed, outcomes, bare_success)
        merged = ServingStats("cluster")
        for ledger in ledgers.values():
            merged.merge(ledger)
        whole = ServingStats("cluster")
        for kind, _call, detail in rows:
            whole.fold_row(kind, detail)
        assert merged.summary() == whole.summary()
        assert whole.succeeded == sum(ledger.succeeded for ledger in ledgers.values())


class TestPercentileNs:
    """Edge-case contract of the shared nearest-rank helper."""

    def test_empty_returns_sentinel_for_every_pct(self):
        for pct in (0, 50, 99, 99.9, 100):
            assert percentile_ns([], pct) == NO_SAMPLES_NS

    def test_single_sample_is_every_percentile(self):
        for pct in (0, 0.1, 50, 99.9, 100):
            assert percentile_ns([7_000], pct) == 7_000

    def test_pct_bounds_clamp_to_min_and_max(self):
        ordered = [10, 20, 30]
        assert percentile_ns(ordered, -5) == 10
        assert percentile_ns(ordered, 0) == 10
        assert percentile_ns(ordered, 100) == 30
        assert percentile_ns(ordered, 250) == 30

    def test_nearest_rank_definition(self):
        ordered = list(range(1, 101))  # 1..100
        assert percentile_ns(ordered, 50) == 50
        assert percentile_ns(ordered, 99) == 99
        assert percentile_ns(ordered, 99.9) == 100
        assert percentile_ns(ordered, 1) == 1
