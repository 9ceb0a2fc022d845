"""Byte locks on fleet reports across every scheme and placement policy.

``tests/data/golden_system_compat.json`` pins JPS, LO and CO on one
gateway; these digests pin the rest of the grid — every gateway scheme
(JPS, LO, CO, PO) behind every placement policy (least_loaded, eft,
affinity) on a two-server fleet — plus the Chrome trace of one traced
JPS run, whose request spans carry each served request's cut label.

A digest is the sha256 of ``json.dumps(document, sort_keys=True)``, so
any change to a report's bytes (a counter, a float's last digit, a key)
fails here. CI runs this file under several ``PYTHONHASHSEED`` values:
fleet reports must not depend on string-hash order.
"""

import hashlib
import json

import pytest

from repro.fleet import default_fleet, run_system
from repro.obs import Tracer

#: (scheme, placement) -> digest of ``run_system(...).as_dict()``
REPORT_DIGESTS = {
    ("JPS", "least_loaded"): "192518fa5ebd8c146b003554c011e96a196678fcde8cdd4d921e759d42be42ec",
    ("JPS", "eft"): "38c4eae86989e78b668c37e9935ba28c98a6f3dec4e52376154d34bbc28a8582",
    ("JPS", "affinity"): "2067ac765fcf26193d9903630b0b22c8bf7759beda63954cbfbe335ed5f8510f",
    ("LO", "least_loaded"): "c82926c8e9f9e42c719a52ef3056bf4f24db1920a67a7f24c32105901c2d33ba",
    ("LO", "eft"): "3fb5e455af8f128cd7364c8b9f21edaf231301669104ab5a170758d0ea2f6eb1",
    ("LO", "affinity"): "b2e8d5565f59260ecd155e4db41dba0053d702797407d2ca672c300b95bf46c1",
    ("CO", "least_loaded"): "436c912c623a8ddc05d4f3500601e99e399b884da6cc355ce945f02bea5c981e",
    ("CO", "eft"): "d1e24c4776de4632e1479159227f814f44d2a5c80639f8b7345cdcb5b8dafdab",
    ("CO", "affinity"): "d19c23c911666b7a079278f32759559458bf52c4ae47c05233fea45a4ca3c86b",
    ("PO", "least_loaded"): "0b639e66daa6b87063741b6bc26cc67421a2f45505843f5b1cca82eb74cbe457",
    ("PO", "eft"): "c44edd783731cbad40bdbf04ce2be41aa1a62ae7814271fcccbdd7b2f7e74caf",
    ("PO", "affinity"): "10cb8bb9e890df2de1de87235f6e8ff610124df96c78050f9a34b08b8941f2ea",
}

#: digest of the traced JPS/least_loaded run's ``Tracer().chrome_trace()``
TRACE_DIGEST = "df3577e3e0156afd24ce55d1020432c4e1216e6b80e349e941106c9cd3aa9ace"


def _digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _fleet(scheme: str = "JPS", placement: str = "least_loaded"):
    return default_fleet(
        servers=2, clients=8, horizon=4.0, scheme=scheme, placement=placement
    )


@pytest.mark.parametrize(("scheme", "placement"), sorted(REPORT_DIGESTS))
def test_fleet_report_bytes_are_pinned(scheme, placement):
    report = run_system(_fleet(scheme, placement))
    assert report.ok
    assert _digest(report.as_dict()) == REPORT_DIGESTS[scheme, placement]


def test_traced_fleet_chrome_trace_bytes_are_pinned():
    tracer = Tracer()
    report = run_system(_fleet(), tracer=tracer)
    assert report.ok
    trace = tracer.chrome_trace()
    # the request spans (cut label included) are part of the locked bytes
    assert any(event["name"].startswith("request ") for event in trace)
    assert _digest(trace) == TRACE_DIGEST
