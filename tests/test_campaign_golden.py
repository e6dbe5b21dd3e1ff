"""Golden campaign reports.

``golden/campaigns.json`` holds the reports of the campaigns below as the
per-trial scalar implementation produced them (one ``random_labelling`` and
one ``short_cycle_scan`` per trial, one odometer step per labelling).  The
batched campaigns must reproduce them exactly, ``elapsed_seconds`` aside.
"""

import json
from pathlib import Path

import pytest

from balanced_cycles import build_group, catalog, verify_all, verify_random

GOLDEN = Path(__file__).parent / "golden" / "campaigns.json"

F21 = catalog()["F21"].spec

# (id, function, group spec, keyword arguments)
CASES = [
    ("random/F21/n22", "verify_random", F21, dict(n=22, trials=100, seed=2026)),
    ("random/Z9/n10", "verify_random", {"kind": "cyclic", "q": 9},
     dict(n=10, trials=1000, seed=77)),
    ("random/Z64/n8", "verify_random", {"kind": "cyclic", "q": 64},
     dict(n=8, trials=300, seed=5)),
    ("random/Z64/n8/no-escalation", "verify_random", {"kind": "cyclic", "q": 64},
     dict(n=8, trials=100, seed=6, max_dp_vertices=0)),
    ("random/Z64/n4", "verify_random", {"kind": "cyclic", "q": 64},
     dict(n=4, trials=60, seed=2**64 - 1)),
    ("random/Z5/n12/no-escalation", "verify_random", {"kind": "cyclic", "q": 5},
     dict(n=12, trials=200, seed=0, max_dp_vertices=0)),
    ("exhaustive/Z3/n3", "verify_all", {"kind": "cyclic", "q": 3},
     dict(n=3, normalized=False)),
    ("exhaustive/Z3/n4/normalized", "verify_all", {"kind": "cyclic", "q": 3},
     dict(n=4, normalized=True)),
    ("exhaustive/Z4/n4/normalized", "verify_all", {"kind": "cyclic", "q": 4},
     dict(n=4, normalized=True)),
]

CAMPAIGNS = {"verify_random": verify_random, "verify_all": verify_all}


def run_case(function: str, spec: dict, kwargs: dict) -> dict:
    report = CAMPAIGNS[function](build_group(spec), **kwargs).to_json()
    report.pop("elapsed_seconds")
    return report


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id, function, spec, kwargs", CASES, ids=[c[0] for c in CASES])
def test_campaign_report_matches_golden(golden, case_id, function, spec, kwargs):
    assert run_case(function, spec, kwargs) == golden[case_id]


def test_golden_cases_exercise_every_outcome(golden):
    # the goldens are only a gate if they contain escalations, unresolved
    # trials and counterexamples of both campaign kinds
    assert golden["random/Z64/n8"]["witness_methods"].get("dp", 0) > 0
    assert golden["random/Z64/n8/no-escalation"]["unresolved"] > 0
    assert golden["random/Z64/n4"]["counterexample_count"] > 0
    assert golden["exhaustive/Z4/n4/normalized"]["counterexample_count"] > 0
    assert golden["exhaustive/Z3/n3"]["counterexample_count"] > 0
