"""Table 2 — performance overhead of the event logger.

Paper: +≈1,366 ns per logged ecall, +≈1,320 ns per logged ocall,
+≈1,076 ns per counted AEX, +≈1,118 ns per traced AEX, ≈11.5 AEXs per
45.4 ms ecall.
"""

from conftest import run_once

from repro.bench.table2 import run_table2


def test_logger_overhead(benchmark):
    result = run_once(benchmark, run_table2, calls=1_000, long_calls=20)
    print()
    print(result.render())

    # (1) single ecall: native ~4,205 ns, logged ~5,572 ns.
    assert abs(result.native_single_ns - 4_205) < 120
    assert abs(result.logged_single_ns - 5_572) < 160
    assert abs(result.single_overhead_ns - 1_366) < 120

    # (2) ecall + ocall: native ~8,013 ns, ocall-only overhead ~1,320 ns.
    assert abs(result.native_ocall_ns - 8_013) < 200
    assert abs(result.logged_ocall_ns - 10_699) < 260
    assert abs(result.ocall_only_overhead_ns - 1_320) < 160

    # (3) long ecall: ~45,377 us with ~11.5 AEXs per call.
    assert abs(result.long_logged_us - 45_377) < 450
    assert abs(result.aex_per_call_counting - 11.51) < 0.6
    assert abs(result.counting_overhead_per_aex_ns - 1_076) < 200
    assert abs(result.tracing_overhead_per_aex_ns - 1_118) < 200
    # Tracing costs more than counting, per AEX.
    assert result.tracing_overhead_per_aex_ns > result.counting_overhead_per_aex_ns
