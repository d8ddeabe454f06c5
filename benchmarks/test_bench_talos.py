"""Figure 5 + §5.2.1 — TaLoS with nginx.

Paper: interface 207 ecalls / 61 ocalls, of which 61 and 10 were called
27,631 and 28,969 times per 1000 requests; 60.78 % of ecalls and 73.69 %
of ocalls shorter than 10 µs; call graph dominated by the ERR_* polling
around SSL_read and the read/write ocalls.
"""

from conftest import run_once

from repro.bench.figure5 import run_figure5


def test_talos_call_graph(benchmark):
    result = run_once(benchmark, run_figure5, requests=150)
    print()
    print(result.render())

    assert result.interface_ecalls == 207
    assert result.interface_ocalls == 61
    assert result.distinct_ecalls_called == 61
    # Per-request event rates: paper 27.6 ecalls and 29.0 ocalls.
    ecalls_per_req = result.ecall_events / result.requests
    ocalls_per_req = result.ocall_events / result.requests
    assert 24 <= ecalls_per_req <= 31
    assert 25 <= ocalls_per_req <= 33
    # Short-call shares in the paper's neighbourhood.
    assert 0.55 <= result.ecall_short_fraction <= 0.80
    assert 0.60 <= result.ocall_short_fraction <= 0.88
    # The figure's signature edges exist with per-request multiplicity.
    edges = {(p, c): n for p, c, n in result.top_edges}
    assert edges[("sgx_ecall_SSL_write", "enclave_ocall_write")] >= 10 * result.requests
    assert edges[("sgx_ecall_SSL_do_handshake", "enclave_ocall_read")] >= result.requests
    assert "digraph" in result.dot and "style=dashed" in result.dot
