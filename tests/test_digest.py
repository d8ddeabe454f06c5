"""The digest format every determinism gate compares.

The manifest digests below were computed at f40c2d1, before the format
moved behind :mod:`repro.digest`; a change to the canonical form would
move every CI digest gate, so it fails here first.
"""

from repro.cluster.runner import run_cluster
from repro.cluster.spec import ClusterSpec
from repro.digest import canonical_json, sha256_hex, trace_digest
from repro.sweep.engine import run_sweep
from repro.workloads.stressors.runner import run_stressor


def test_canonical_json_sorts_keys_without_whitespace():
    value = {"b": 1, "a": [1, {"d": 2.5, "c": None}], "é": "ü"}
    assert canonical_json(value) == '{"a":[1,{"c":null,"d":2.5}],"b":1,"\\u00e9":"\\u00fc"}'


def test_sha256_hex_hashes_utf8_text():
    assert sha256_hex("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_campaign_module_still_exports_trace_digest():
    from repro.faults.campaign import trace_digest as campaign_trace_digest

    assert campaign_trace_digest is trace_digest


def test_selftest_sweep_manifest_digest_unchanged():
    spec = {"kind": "selftest", "seeds": "0-5", "grid": {"threads": [2, 4]}}
    assert run_sweep(spec=spec, jobs=0).digest == (
        "526699d6a0b6ea992de450c9ba42478a5a5479d0fa0b36c526cd35986f5dd2f1"
    )


def test_cluster_manifest_digest_unchanged():
    spec = ClusterSpec(nodes=2, clients=16, ops_per_client=2, seed=7)
    assert run_cluster(spec, jobs=0).digest == (
        "e894bef4f014feeb545f887ec13418ddddebe7081eacb90f796900925c132295"
    )


def test_untraced_stressor_metrics_digest_unchanged():
    assert run_stressor("ocall-storm", 3, ops=6).digest == (
        "b827ce90d3b0f48a72999df0fce81129f60c5e82bc871c15d794d4e1ca67f8d7"
    )
