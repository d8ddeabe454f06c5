"""§5.2.3 / §5.2.4 — working set estimation.

Paper: Glamdring-partitioned LibreSSL uses 61 pages after start-up and 32
during the benchmark; SecureKeeper uses 322 pages (1.26 MiB) at start-up
and 94 (0.36 MiB) in steady state, so ≈249 enclaves would fit the EPC.
"""

from conftest import run_once

from repro.bench.workingsets import run_working_set_experiments


def test_working_sets(benchmark):
    result = run_once(benchmark, run_working_set_experiments)
    print()
    print(result.render())

    assert 50 <= result.glamdring_startup_pages <= 75  # paper: 61
    assert 25 <= result.glamdring_steady_pages <= 40  # paper: 32
    assert result.glamdring_steady_pages < result.glamdring_startup_pages

    assert 280 <= result.securekeeper_startup_pages <= 370  # paper: 322
    assert 80 <= result.securekeeper_steady_pages <= 115  # paper: 94
    assert 200 <= result.securekeeper_epc_capacity <= 300  # paper: 249
