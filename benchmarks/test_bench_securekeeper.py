"""Figures 7/8 + §5.2.4 — SecureKeeper under full load.

Paper: 2 ecalls / 6 ocalls (2 and 3 called), means ≈14 µs and ≈18 µs
(4-6× the transition cost), 18 sync ocalls during the connect phase,
histogram mode around 15 µs.
"""

import numpy as np
from conftest import run_once

from repro.bench.figures78 import run_figures_7_8


def test_securekeeper_profile(benchmark):
    result = run_once(benchmark, run_figures_7_8, clients=8, operations_per_client=40)
    print()
    print(result.render())

    assert result.distinct_ecalls == 2
    assert result.distinct_ocalls_called == 3
    # Ecall means in the paper's band (≈14 and ≈18 µs).
    assert 10.0 <= result.client_mean_us <= 18.0
    assert 14.0 <= result.zk_mean_us <= 22.0
    # "≈4-6× the transition cost" — wide band for the ratio.
    assert 3.5 <= result.zk_mean_us / result.transition_us <= 10.0
    # Contention on the connection map produced sync ocalls (paper: 18).
    assert 8 <= result.sync_ocalls <= 30
    # Figure 7's shape: unimodal with the mode between 10 and 16 µs.
    counts = np.asarray(result.histogram.counts)
    edges = np.asarray(result.histogram.edges_ns)
    mode_us = edges[int(counts.argmax())] / 1000.0
    assert 9.0 <= mode_us <= 16.0
    # Figure 8's scatter covers the whole run.
    assert len(result.scatter_starts_ns) == len(result.scatter_durations_ns) > 100
    span = result.scatter_starts_ns.max() - result.scatter_starts_ns.min()
    assert span > 0
    # End-to-end correctness: every get round-tripped through the proxy.
    assert result.verified_gets == 8 * 40 // 2
