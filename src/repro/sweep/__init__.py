"""Shared-nothing parallel sweep engine.

The paper's methodology is sweep-shaped: every figure is many independent
seeded runs, and the fault/chaos campaigns inherited that shape.  This
package fans a declarative grid of (seed × workload × plan-parameter)
tasks across a process pool — forked from a caller that runs one OS
thread on Linux, spawned from any other (see :mod:`repro.sweep.engine`);
each worker runs one fully isolated simulation (its own device, logger
and trace store) and returns a compact
:class:`~repro.sweep.tasks.TaskResult` — then merges results in
deterministic task order, never completion order, so the merged manifest
is byte-identical regardless of worker count or start method.
"""
