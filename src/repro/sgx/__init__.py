"""SGX hardware model.

Event-level simulation of Intel SGX as the paper's evaluation machine saw
it: enclaves in a 93 MiB-usable EPC, synchronous transitions whose cost
depends on the microcode mitigation level, asynchronous exits on timer
interrupts and page faults, and driver-level paging with tracepoints.
"""
