"""Automatic interface optimizer (ROADMAP item: §5.2.2 closed-loop).

sgx-perf's analyser *detects* SISC/SDSC/SNC anti-patterns; the paper then
relies on a human to merge ``lseek``+``write``, make hot calls
asynchronous, or batch ocall bursts.  This package closes the loop: it
consumes the machine-readable findings export, derives an
:class:`~repro.optimizer.plan.OptimizationPlan`, and rewrites the
EDL/proxy layer — fused ocall pairs, a switchless worker runtime for hot
short ecalls, and deferred ocall batching — without human edits.  The
``sgxperf optimize`` subcommand drives the whole pipeline, including a
``--rerun`` mode that replays the workload on the optimized interface and
reports the measured before/after difference.
"""
