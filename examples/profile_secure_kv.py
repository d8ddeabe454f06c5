#!/usr/bin/env python
"""Profile SecureKeeper under load: Figures 7 and 8 (§5.2.4).

Runs the encrypting ZooKeeper proxy with concurrently connecting clients,
then prints per-ecall statistics, the Figure 7 histogram, a terminal
rendition of the Figure 8 scatter plot, and the sync-ocall evidence of the
connect-phase contention.

Run:  python examples/profile_secure_kv.py
"""

from repro.bench.figures78 import run_figures_7_8
from repro.perf.workingset import WorkingSetEstimator
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.securekeeper.loadgen import run_securekeeper_load
from repro.workloads.securekeeper.proxy import SecureKeeperProxy


def ascii_scatter(starts, durations, width=72, height=14) -> str:
    """A rough terminal scatter plot (Figure 8 flavour)."""
    if len(starts) == 0:
        return "(no data)"
    t0, t1 = int(starts.min()), int(starts.max())
    d0, d1 = int(durations.min()), int(durations.max())
    grid = [[" "] * width for _ in range(height)]
    for t, d in zip(starts, durations):
        x = int((t - t0) / max(t1 - t0, 1) * (width - 1))
        y = int((d - d0) / max(d1 - d0, 1) * (height - 1))
        grid[height - 1 - y][x] = "*"
    lines = [f"{d1 / 1000:7.1f} us |" + "".join(grid[0])]
    lines += ["           |" + "".join(row) for row in grid[1:-1]]
    lines.append(f"{d0 / 1000:7.1f} us |" + "".join(grid[-1]))
    lines.append("           +" + "-" * width)
    lines.append(f"            0 ... {(t1 - t0) / 1e6:.1f} ms since start")
    return "\n".join(lines)


def main() -> None:
    result = run_figures_7_8(clients=8, operations_per_client=50)
    print(result.render())
    print()
    print("Figure 8 - execution time over the course of the run:")
    print(ascii_scatter(result.scatter_starts_ns, result.scatter_durations_ns))
    print()

    # Working set, as §5.2.4 reports it.
    process = SimProcess(seed=1)
    device = SgxDevice(process.sim)
    proxy = SecureKeeperProxy(process, device, tcs_count=16)
    estimator = WorkingSetEstimator(process, proxy.handle.enclave)
    estimator.start()
    run_securekeeper_load(clients=8, operations_per_client=2,
                          process=process, device=device, proxy=proxy)
    startup = estimator.mark()
    run_securekeeper_load(clients=8, operations_per_client=10,
                          process=process, device=device, proxy=proxy)
    steady = estimator.stop()
    print(f"working set: start-up {startup.page_count} pages "
          f"({startup.bytes / 2**20:.2f} MiB; paper 322 / 1.26), steady "
          f"{steady.page_count} pages ({steady.bytes / 2**20:.2f} MiB; paper 94 / 0.36)")


if __name__ == "__main__":
    main()
