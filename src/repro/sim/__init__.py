"""Deterministic simulation substrate.

This package provides everything below the SGX hardware model: a virtual
clock, a cooperative deterministic scheduler with simulated threads, a
dynamic-loader model with ``LD_PRELOAD``-style symbol shadowing, a virtual
operating system (files, sockets, signals) and a timer-interrupt model.

All time in the simulator is *virtual* and measured in integer nanoseconds.
Nothing in this package reads wall-clock time, so every simulation run is
bit-for-bit reproducible given the same seed.
"""
