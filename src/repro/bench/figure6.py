"""Figure 6: normalised SQLite and LibreSSL performance.

The paper's bars (normalised to the native build):

* SQLite:  enclavised 0.57x, merged-lseek+write 0.76x; under Spectre the
  pair drops to 0.45x / 0.43x-ish territory and further under L1TF.
* LibreSSL (Glamdring): enclave 0.23x, optimised 0.50x (a 2.16x speed-up,
  rising to 2.66x under Spectre and 2.87x under L1TF).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sgx.constants import PatchLevel
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.glamdring.signer import SignerBuild, run_signing_benchmark
from repro.workloads.minisql.enclavised import SqlBuild
from repro.workloads.minisql.workload import SQLITE_SYSCALL_COSTS, run_sql_benchmark


@dataclass
class Figure6Result:
    """Absolute and normalised rates for both applications."""

    sqlite_rates: dict  # (patch, build) -> requests/s
    libressl_rates: dict  # (patch, build) -> signs/s

    def normalised(self, rates: dict, native_key) -> dict:
        native = rates[native_key]
        return {key: value / native for key, value in rates.items()}

    def sqlite_normalised(self) -> dict:
        """SQLite bars, normalised to the unpatched native build."""
        return self.normalised(self.sqlite_rates, (PatchLevel.BASELINE, SqlBuild.NATIVE))

    def libressl_normalised(self) -> dict:
        """LibreSSL bars, normalised to the unpatched native build."""
        return self.normalised(
            self.libressl_rates, (PatchLevel.BASELINE, SignerBuild.NATIVE)
        )

    def libressl_speedup(self, patch: PatchLevel) -> float:
        """Optimised / partitioned speed-up at one patch level."""
        return (
            self.libressl_rates[(patch, SignerBuild.OPTIMIZED)]
            / self.libressl_rates[(patch, SignerBuild.PARTITIONED)]
        )

    def render(self) -> str:
        lines = ["Figure 6 - normalised performance (paper values in parentheses)"]
        sql_norm = self.sqlite_normalised()
        lines.append("SQLite (native = 1.0; paper: enclave 0.57x, merged 0.76x):")
        paper_sql = {
            (PatchLevel.BASELINE, SqlBuild.NATIVE): "1.00",
            (PatchLevel.BASELINE, SqlBuild.ENCLAVE): "0.57",
            (PatchLevel.BASELINE, SqlBuild.MERGED): "0.76",
            (PatchLevel.SPECTRE, SqlBuild.ENCLAVE): "0.45",
            (PatchLevel.SPECTRE, SqlBuild.MERGED): "0.43*",
            (PatchLevel.L1TF, SqlBuild.ENCLAVE): "0.15*",
            (PatchLevel.L1TF, SqlBuild.MERGED): "0.23*",
        }
        for (patch, build), value in sorted(
            sql_norm.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            paper = paper_sql.get((patch, build), "-")
            rate = self.sqlite_rates[(patch, build)]
            lines.append(
                f"  {patch.value:9} {build.value:8} {value:5.2f}x ({paper})  "
                f"[{rate:,.0f} req/s]"
            )
        lines.append(
            "LibreSSL (native = 1.0; paper: enclave 0.23x, optimised 0.50x; "
            "speed-ups 2.16x / 2.66x / 2.87x):"
        )
        ssl_norm = self.libressl_normalised()
        for (patch, build), value in sorted(
            ssl_norm.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            rate = self.libressl_rates[(patch, build)]
            lines.append(
                f"  {patch.value:9} {build.value:12} {value:5.2f}x  [{rate:6.1f} signs/s]"
            )
        for patch in (PatchLevel.BASELINE, PatchLevel.SPECTRE, PatchLevel.L1TF):
            if (patch, SignerBuild.OPTIMIZED) in self.libressl_rates:
                lines.append(
                    f"  optimisation speed-up @ {patch.value}: "
                    f"{self.libressl_speedup(patch):.2f}x"
                )
        return "\n".join(lines)


def run_figure6(
    sql_requests: int = 250,
    signs: int = 4,
    seed: int = 0,
    patch_levels: tuple[PatchLevel, ...] = (
        PatchLevel.BASELINE,
        PatchLevel.SPECTRE,
        PatchLevel.L1TF,
    ),
) -> Figure6Result:
    """Run both Figure 6 applications at each mitigation level."""
    sqlite_rates: dict = {}
    libressl_rates: dict = {}
    for patch in patch_levels:
        for build in (SqlBuild.NATIVE, SqlBuild.ENCLAVE, SqlBuild.MERGED):
            if build is SqlBuild.NATIVE and patch is not PatchLevel.BASELINE:
                # Native code does not transition; microcode barely moves it.
                sqlite_rates[(patch, build)] = sqlite_rates[
                    (PatchLevel.BASELINE, SqlBuild.NATIVE)
                ]
                continue
            process = SimProcess(seed=seed, syscall_costs=SQLITE_SYSCALL_COSTS)
            device = SgxDevice(process.sim, patch_level=patch)
            result = run_sql_benchmark(
                build, requests=sql_requests, process=process, device=device
            )
            sqlite_rates[(patch, build)] = result.requests_per_second
        for build in (SignerBuild.NATIVE, SignerBuild.PARTITIONED, SignerBuild.OPTIMIZED):
            if build is SignerBuild.NATIVE and patch is not PatchLevel.BASELINE:
                libressl_rates[(patch, build)] = libressl_rates[
                    (PatchLevel.BASELINE, SignerBuild.NATIVE)
                ]
                continue
            process = SimProcess(seed=seed)
            device = SgxDevice(process.sim, patch_level=patch)
            result = run_signing_benchmark(
                build, signs=signs, process=process, device=device
            )
            libressl_rates[(patch, build)] = result.signs_per_second
    return Figure6Result(sqlite_rates=sqlite_rates, libressl_rates=libressl_rates)
