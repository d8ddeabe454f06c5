"""Network chaos injection: seeded socket faults via the injector hooks."""

import pytest

from repro.faultrows import (
    INJECT_NET_DELAY,
    INJECT_NET_PARTITION,
    INJECT_NET_RESET,
    INJECT_NET_SHORT_WRITE,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NetworkChaosPlan
from repro.sim.kernel import Simulation
from repro.sim.net import Listener, SocketClosed


def _connected_pair(sim, plan):
    """A listener with the chaos hook armed and one accepted connection."""
    listener = Listener(sim, "chaos:srv")
    injector = FaultInjector(plan, sim)
    injector.attach_network(listener)
    client = listener.connect()
    server = listener.accept(blocking=False)
    return injector, client, server


def _net_plan(**kwargs):
    return FaultPlan(network=NetworkChaosPlan(**kwargs))


class TestSendFaults:
    def test_certain_reset_closes_both_ends(self):
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(reset_probability=1.0)
        )
        with pytest.raises(SocketClosed):
            client.send(b"doomed")
        assert client.closed and server.closed
        assert [f.kind for f in injector.injected] == [INJECT_NET_RESET]

    def test_certain_delay_charges_virtual_time(self):
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(delay_probability=1.0, delay_ns=123_000)
        )
        before = sim.now_ns
        client.send(b"slow")
        assert sim.now_ns - before >= 123_000
        assert injector.stats[INJECT_NET_DELAY] == 1
        assert server.recv(10, blocking=False) == b"slow"

    def test_certain_short_write_truncates(self):
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(short_write_probability=1.0)
        )
        sent = client.send(b"0123456789")
        assert 1 <= sent < 10
        assert server.recv(100, blocking=False) == b"0123456789"[:sent]
        assert injector.stats[INJECT_NET_SHORT_WRITE] == 1

    def test_single_byte_send_is_never_truncated(self):
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(short_write_probability=1.0)
        )
        assert client.send(b"x") == 1
        assert INJECT_NET_SHORT_WRITE not in injector.stats


class TestPartition:
    def test_send_stalls_until_partition_ends(self):
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(partitions=((1_000, 50_000),))
        )
        sim.compute(2_000)  # inside the window
        client.send(b"held")
        assert sim.now_ns >= 50_000
        assert injector.stats[INJECT_NET_PARTITION] == 1

    def test_send_outside_window_unaffected(self):
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(partitions=((1_000, 2_000),))
        )
        sim.compute(10_000)  # past the window
        client.send(b"free")
        assert INJECT_NET_PARTITION not in injector.stats


class TestRecvFaults:
    def test_recv_reset_surfaces_as_closed_socket(self):
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(reset_probability=1.0)
        )
        # Bypass the send-side hook so data is buffered, then recv hits the
        # reset draw and the connection dies under the reader.
        server._rx.extend(b"buffered")
        with pytest.raises(SocketClosed):
            server.recv(10, blocking=False)
        assert injector.stats[INJECT_NET_RESET] == 1

    def test_recv_on_empty_buffer_draws_nothing(self):
        # The chaos hook must not fire for a recv with nothing buffered,
        # otherwise blocking readers would burn RNG draws while parked.
        sim = Simulation()
        injector, client, server = _connected_pair(
            sim, _net_plan(reset_probability=1.0)
        )
        assert server.recv(10, blocking=False) == b""
        assert injector.total_injected == 0


class TestDeterminismAndInertness:
    def _chaotic_exchange(self, seed):
        sim = Simulation(seed=seed)
        plan = _net_plan(
            reset_probability=0.2,
            delay_probability=0.3,
            delay_ns=10_000,
            short_write_probability=0.3,
        )
        listener = Listener(sim, "chaos:srv")
        injector = FaultInjector(plan, sim)
        injector.attach_network(listener)
        events = []
        for round_no in range(30):
            client = listener.connect()
            server = listener.accept(blocking=False)
            try:
                sent = client.send(b"ping-%02d" % round_no)
                events.append(("sent", sent, server.recv(100, blocking=False)))
            except SocketClosed:
                events.append(("reset", round_no))
            client.close()
            server.close()
        return events, [(f.kind, f.timestamp_ns, f.detail) for f in injector.injected]

    def test_same_seed_same_fault_sequence(self):
        assert self._chaotic_exchange(42) == self._chaotic_exchange(42)

    def test_different_seed_different_fault_sequence(self):
        assert self._chaotic_exchange(1)[1] != self._chaotic_exchange(2)[1]

    def _plain_exchange(self, sim_factory, with_disabled_injector):
        sim = sim_factory()
        listener = Listener(sim, "plain:srv")
        if with_disabled_injector:
            injector = FaultInjector(FaultPlan.disabled(), sim)
            injector.attach_network(listener)
        client = listener.connect()
        server = listener.accept(blocking=False)
        for i in range(10):
            client.send(b"msg-%d" % i)
            server.recv(100, blocking=False)
        return sim.now_ns

    def test_disabled_plan_is_fully_inert(self):
        # Same virtual end time with and without the disabled-plan hook
        # installed: the hook neither charges time nor draws randomness.
        bare = self._plain_exchange(Simulation, with_disabled_injector=False)
        hooked = self._plain_exchange(Simulation, with_disabled_injector=True)
        assert bare == hooked

    def test_detach_clears_listener_hook(self):
        sim = Simulation()
        plan = _net_plan(reset_probability=1.0)
        listener = Listener(sim, "chaos:srv")
        injector = FaultInjector(plan, sim)
        injector.attach_network(listener)
        injector.detach()
        client = listener.connect()
        client.send(b"safe")  # no reset: the hook is gone
        assert injector.total_injected == 0
