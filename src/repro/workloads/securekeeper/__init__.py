"""SecureKeeper: encrypting ZooKeeper proxy workload (paper §5.2.4)."""
