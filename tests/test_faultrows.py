"""The ``faults``-table codec: round trips, real details, malformed details.

Each decoded detail kind must give back the fields it was encoded from,
every detail a traced chaos cluster and a traced pressured cluster write
must re-encode to the same bytes, and a detail a decoder cannot parse
decodes to ``None`` (a trace is input from outside the program).
"""

from __future__ import annotations

import glob

import pytest
from hypothesis import given, strategies as st

from repro import faultrows
from repro.faultrows import (
    BROWNOUT_LEVEL,
    BROWNOUT_LEVELS,
    BROWNOUT_SHED,
    SERVE_REQUEST,
    SESSION_BATCH,
    SESSION_CLOSE,
    SESSION_CONNECT,
    SESSION_KINDS,
    decode_brownout_level,
    decode_brownout_shed,
    decode_serve_request,
    decode_session,
    encode_brownout_level,
    encode_brownout_shed,
    encode_serve_request,
    encode_session,
)
from repro.perf.analysis.report import FaultAccumulator
from repro.perf.events import FaultRecord

from tests.cluster.test_brownout import _pressured_spec
from tests.cluster.test_cluster_run import _spec

levels = st.integers(0, len(BROWNOUT_LEVELS) - 1)
tokens = st.from_regex(r"\S+", fullmatch=True)


class TestRoundTrip:
    @given(st.integers(0, 2**63))
    def test_serve_request(self, latency_ns):
        assert decode_serve_request(encode_serve_request(latency_ns)) == latency_ns

    # Rates stay below 2**53, where ``:.0f`` prints an int exactly.
    @given(levels, levels, st.integers(0, 2**53))
    def test_brownout_level(self, previous, level, rate):
        fields = (previous, level, rate)
        assert decode_brownout_level(encode_brownout_level(*fields)) == fields

    @given(tokens, levels, tokens, st.integers(0, 2**63))
    def test_brownout_shed(self, priority, level, reason, backlog):
        fields = (priority, level, reason, backlog)
        assert decode_brownout_shed(encode_brownout_shed(*fields)) == fields

    @given(st.integers(0, 2**63), st.text())
    def test_session(self, gateway_id, note):
        fields = (gateway_id, note)
        assert decode_session(encode_session(*fields)) == fields


def _reencode(kind: str, detail: str) -> str:
    if kind == SERVE_REQUEST:
        return encode_serve_request(decode_serve_request(detail))
    if kind == BROWNOUT_LEVEL:
        return encode_brownout_level(*decode_brownout_level(detail))
    if kind == BROWNOUT_SHED:
        return encode_brownout_shed(*decode_brownout_shed(detail))
    return encode_session(*decode_session(detail))


@pytest.fixture(scope="module")
def cluster_rows(tmp_path_factory):
    """Every fault row of a traced chaos cluster and a traced pressured one."""
    from repro.cluster.runner import run_cluster
    from repro.perf.database import TraceDatabase

    rows = []
    # The pressured run's rate makes the gateway shed reads and background.
    for name, spec in (("chaos", _spec()), ("pressured", _pressured_spec(rate_rps=120_000.0))):
        trace_dir = str(tmp_path_factory.mktemp(name))
        run_cluster(spec, jobs=0, trace_dir=trace_dir)
        for path in sorted(glob.glob(f"{trace_dir}/*.db")):
            with TraceDatabase(path, readonly=True) as db:
                rows.extend(db.fault_events())
    return rows


def test_real_details_reencode_to_the_same_bytes(cluster_rows):
    parsed = {SERVE_REQUEST, BROWNOUT_LEVEL, BROWNOUT_SHED} | SESSION_KINDS
    rows = [row for row in cluster_rows if row.kind in parsed]
    assert {row.kind for row in rows} == parsed
    for row in rows:
        assert _reencode(row.kind, row.detail).encode() == row.detail.encode()


@pytest.mark.parametrize(
    "decode, detail",
    [
        (decode_serve_request, ""),
        (decode_serve_request, "ok + ns"),
        (decode_serve_request, "ok +12"),
        (decode_serve_request, "ok +-5 ns"),
        (decode_serve_request, "ok +1e3 ns"),
        (decode_serve_request, "ok +12 ns, then more"),
        (decode_brownout_level, "normal -> deep"),
        (decode_brownout_level, "normal -> panic at 5 pages/s"),
        (decode_brownout_level, "normal -> deep at fast pages/s"),
        (decode_brownout_level, "normal->deep at 5 pages/s"),
        (decode_brownout_shed, "class=read level=deep reason=brownout"),
        (decode_brownout_shed, "class=read level=panic reason=brownout backlog=3"),
        (decode_brownout_shed, "class= level=deep reason=brownout backlog=3"),
        (decode_brownout_shed, "level=deep class=read reason=brownout backlog=3"),
        (decode_session, "no gateway prefix here"),
        (decode_session, "gateway x: registered"),
        (decode_session, "gateway 5 registered"),
        (decode_session, "gateway -5: registered"),
    ],
)
def test_malformed_details_decode_to_none(decode, detail):
    assert decode(detail) is None


def test_malformed_brownout_rows_count_as_kinds_only():
    acc = FaultAccumulator()
    for kind, detail in (
        (BROWNOUT_LEVEL, "normal -> deep"),
        (BROWNOUT_SHED, "class=read"),
        (BROWNOUT_LEVEL, "normal -> deep at 7 pages/s"),
    ):
        acc.add(FaultRecord(0, 0, 0, 0, kind, "", detail))
    assert acc.counts == {BROWNOUT_LEVEL: 2, BROWNOUT_SHED: 1}
    assert (acc.brownout_transitions, acc.brownout_deep_transitions) == (1, 1)
    assert acc.shed_by_class == {}


def test_kinds_are_distinct_and_namespaced():
    kinds = {
        name: value
        for name, value in vars(faultrows).items()
        if name.isupper() and isinstance(value, str) and not name.endswith("_PREFIX")
    }
    assert len(set(kinds.values())) == len(kinds)
    for name, value in kinds.items():
        if name.startswith("INJECT_"):
            assert value.startswith(faultrows.INJECT_PREFIX), name
        if name.startswith("WATCHDOG_"):
            assert value.startswith(faultrows.WATCHDOG_PREFIX), name
    assert {SESSION_CONNECT, SESSION_BATCH, SESSION_CLOSE} == SESSION_KINDS
