"""Glamdring-partitioned LibreSSL signing workload (paper §5.2.3)."""
