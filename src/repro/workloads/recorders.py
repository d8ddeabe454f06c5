"""Recorders: run a bundled workload under the event logger.

Each recorder is the moral equivalent of
``LD_PRELOAD=libsgxperf.so ./application`` — it builds the workload, preloads
the logger into its process, runs a representative load and writes the
trace database to the given path, and closes it: the finished trace is
one complete file.  The ``sgxperf record`` CLI dispatches here.

Every recorder takes an optional ``attach`` hook called with the
installed :class:`EventLogger` before the load runs — the seam live
observers use (``sgxperf top`` attaches its sampling thread there).
"""

from __future__ import annotations

from typing import Callable, Optional

AttachHook = Optional[Callable[["EventLogger"], None]]

from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess


def _run_observed(process: SimProcess, load: Callable[[], None]) -> None:
    """Run an otherwise-inline ``load`` under the scheduler.

    The signing/SQL loads drive the enclave from the inline
    (schedulerless) context, where ``sim.compute`` only advances the
    clock — a spawned daemon observer like ``sgxperf top``'s sampler
    would never get a turn.  With an observer attached the load runs on
    a spawned thread instead, so the scheduler interleaves the sampler
    at its ticks.
    """
    process.sim.spawn(load, name="workload")
    process.sim.run()


def record_talos(
    db_path: str, seed: int = 0, requests: int = 300, attach: AttachHook = None
) -> None:
    """TaLoS + nginx serving HTTPS GETs (paper §5.2.1)."""
    from repro.workloads.talos import TalosApp, run_talos_nginx

    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)
    app = TalosApp(process, device)
    with EventLogger(process, app.urts, database=db_path, aex_mode=AexMode.COUNT) as logger:
        if attach is not None:
            attach(logger)
        run_talos_nginx(requests=requests, process=process, device=device, app=app)
    logger.db.close()


def record_sqlite(
    db_path: str,
    seed: int = 0,
    requests: int = 400,
    attach: AttachHook = None,
    *,
    prepared: bool = False,
    plan=None,
    spawn: bool = False,
    latencies: Optional[list] = None,
) -> None:
    """Enclavised minisql replaying git commits (paper §5.2.2).

    ``prepared`` switches the load to the prepared-statement interface
    (bind/step per commit instead of SQL text); ``plan`` builds the
    enclave with an :class:`repro.optimizer.OptimizationPlan` applied.
    A plan forces the load onto a spawned thread — the switchless worker
    needs the scheduler — as does ``spawn`` or an attached observer.
    ``latencies`` collects per-commit virtual-time latencies (prepared
    mode only).
    """
    from repro.workloads.minisql import SQLITE_SYSCALL_COSTS, SqlBuild
    from repro.workloads.minisql.enclavised import EnclavedSqlApp
    from repro.workloads.minisql.workload import (
        CREATE_SQL,
        _insert_sql,
        commit_stream,
        run_prepared_inserts,
    )

    process = SimProcess(seed=seed, syscall_costs=SQLITE_SYSCALL_COSTS)
    device = SgxDevice(process.sim)
    app = EnclavedSqlApp(process, device, SqlBuild.ENCLAVE, plan=plan)
    with EventLogger(process, app.urts, database=db_path, aex_mode=AexMode.COUNT) as logger:
        def load() -> None:
            app.open("trace.db")
            app.execute(CREATE_SQL)
            if prepared:
                run_prepared_inserts(app, requests, seed, latencies=latencies)
            else:
                for index, (sha, author, message) in enumerate(
                    commit_stream(requests, seed)
                ):
                    app.execute(_insert_sql(sha, author, message, index))
            app.close()

        if attach is not None:
            attach(logger)
        if attach is None and plan is None and not spawn:
            load()
        else:
            _run_observed(process, load)
    logger.db.close()


def record_glamdring(
    db_path: str, seed: int = 0, signs: int = 4, attach: AttachHook = None
) -> None:
    """Glamdring-partitioned signing (paper §5.2.3)."""
    from repro.workloads.glamdring import GlamdringSigner, SignerBuild, make_certificate

    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)
    signer = GlamdringSigner(process, device, SignerBuild.PARTITIONED)
    with EventLogger(process, signer.urts, database=db_path, aex_mode=AexMode.COUNT) as logger:
        def load() -> None:
            for serial in range(signs):
                signer.sign(make_certificate(serial))

        if attach is None:
            load()
        else:
            attach(logger)
            _run_observed(process, load)
    logger.db.close()
    signer.close()


def record_securekeeper(
    db_path: str,
    seed: int = 0,
    operations: int = 40,
    attach: AttachHook = None,
    *,
    plan=None,
) -> None:
    """SecureKeeper under full load (paper §5.2.4).

    With ``plan`` the proxy enclave is built with the optimizer's
    interface rewrite applied, and the proxy is closed inside the logger
    so the teardown flush of any batched ocalls lands in the trace.
    """
    from repro.workloads.securekeeper import SecureKeeperProxy, run_securekeeper_load

    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)
    proxy = SecureKeeperProxy(process, device, tcs_count=16, plan=plan)
    with EventLogger(process, proxy.urts, database=db_path, aex_mode=AexMode.COUNT) as logger:
        if attach is not None:
            attach(logger)
        run_securekeeper_load(
            clients=8,
            operations_per_client=operations,
            process=process,
            device=device,
            proxy=proxy,
        )
        if plan is not None:
            proxy.close()
    logger.db.close()


REGISTRY: dict[str, Callable[[str, int], None]] = {
    "talos": record_talos,
    "sqlite": record_sqlite,
    "glamdring": record_glamdring,
    "securekeeper": record_securekeeper,
}
