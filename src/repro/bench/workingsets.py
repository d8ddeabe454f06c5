"""Working set experiments (paper §4.2, §5.2.3, §5.2.4).

* Glamdring-partitioned LibreSSL: 61 pages used after start-up, 32 pages
  during the signing benchmark;
* SecureKeeper: 322 pages (1.26 MiB) at start-up, 94 pages (0.36 MiB) in
  steady state — small enough that ≈249 such enclaves would fit the EPC
  without paging.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.workingset import WorkingSetEstimator
from repro.sgx.constants import EPC_USABLE_PAGES
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.glamdring.signer import GlamdringSigner, SignerBuild, make_certificate
from repro.workloads.securekeeper.loadgen import run_securekeeper_load
from repro.workloads.securekeeper.proxy import SecureKeeperProxy


@dataclass
class WorkingSetResult:
    """Start-up and steady-state working sets for both workloads."""

    glamdring_startup_pages: int
    glamdring_steady_pages: int
    securekeeper_startup_pages: int
    securekeeper_steady_pages: int
    securekeeper_epc_capacity: int

    def render(self) -> str:
        return "\n".join(
            [
                "Working set estimation (paper values in parentheses)",
                f"glamdring/libressl: start-up {self.glamdring_startup_pages} pages (61), "
                f"benchmark {self.glamdring_steady_pages} pages (32)",
                f"securekeeper: start-up {self.securekeeper_startup_pages} pages (322), "
                f"steady state {self.securekeeper_steady_pages} pages (94)",
                f"securekeeper enclaves fitting the EPC at steady state: "
                f"{self.securekeeper_epc_capacity} (249)",
            ]
        )


def run_working_set_experiments(seed: int = 0) -> WorkingSetResult:
    """Measure both workloads' working sets with the estimator."""
    # -- Glamdring ---------------------------------------------------------
    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)
    signer = GlamdringSigner(
        process, device, SignerBuild.PARTITIONED, defer_key_load=True
    )
    estimator = WorkingSetEstimator(process, signer.handle.enclave)
    estimator.start()
    # "After start-up": key load plus the first signature path.
    signer.load_key()
    signer.sign(make_certificate(0))
    startup = estimator.mark()
    signer.sign(make_certificate(1))
    steady = estimator.stop()
    signer.close()
    glam_startup, glam_steady = startup.page_count, steady.page_count

    # -- SecureKeeper ----------------------------------------------------------
    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)
    proxy = SecureKeeperProxy(process, device, tcs_count=16)
    estimator = WorkingSetEstimator(process, proxy.handle.enclave)
    estimator.start()
    run_securekeeper_load(
        clients=8,
        operations_per_client=2,
        process=process,
        device=device,
        proxy=proxy,
    )
    startup = estimator.mark()
    run_securekeeper_load(
        clients=8,
        operations_per_client=10,
        process=process,
        device=device,
        proxy=proxy,
    )
    steady = estimator.stop()
    proxy.close()
    # The paper's 249 comes from 93 MiB / the per-enclave steady footprint.
    capacity = EPC_USABLE_PAGES // max(steady.page_count, 1)
    return WorkingSetResult(
        glamdring_startup_pages=glam_startup,
        glamdring_steady_pages=glam_steady,
        securekeeper_startup_pages=startup.page_count,
        securekeeper_steady_pages=steady.page_count,
        securekeeper_epc_capacity=capacity,
    )
