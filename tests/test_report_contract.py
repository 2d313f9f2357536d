"""The machine form of a report is a contract: for a given selection,
carrier size and options, `Report.to_json()` stays the same byte for byte.

The first three digests were recorded from the sweep before its per-scope
loops were merged into one space loop, the two tt5 digests before tt5
became a packed composition law, the two map-suite digests before map
atoms were packed by initial topology, and the set-scope suite at 5 points
from the labeled sweep, before sweeps visited one space per relabeling
orbit (that sweep took about three minutes); any change to what a sweep
visits, counts, reports or in which order shows up here.
"""

import hashlib

import pytest

from topoideal.verify import REGISTRY, run_theorem_suite

MAP_SUITE = "tt1,tt2,tt3,tt4,tt7,tt41,tt43,grt1"

CONTRACT = [
    ((4, "all"), {},
     "07b5b1bdfe369902e3bffdfca39a39a6a371cbf803491a4a650a92053a44c794"),
    ((2, "all"), {"hypothesis": "none", "max_witnesses": 1000},
     "a831ea405091a21079772a389233a809e5780110392910bcae5fc756c9bc1115"),
    ((3, "t4,t5,c1,l1,submax,isi_consistency"), {"hypothesis": "none"},
     "e32dc1b574ae914413dadd1ba5b7e40b8b9256c68067d2ea190273edbacdd8ee"),
    ((3, "tt5"), {},
     "6f6e3f5cd6ebdb1e3dfcfa7c45edab635e8f0edfc35b9d3e5e5f969616d77f4d"),
    ((3, "tt5"), {"hypothesis": "hayashi_samuels"},
     "2bc13471124d9b0c7e75b4bc8f9538ce11f4bc21bcd6c80c637fc25b0c423a2b"),
    ((3, MAP_SUITE), {"hypothesis": "none"},
     "ea890a42d0176b432ec3a512d46cc79f144705a0d8a445c9913b1f6d4d30eedb"),
    ((4, MAP_SUITE), {"allow_large": True},
     "cdba8cafac0bd1c9d37a158ae2271f6f08d7c85844286f324494e65457ca6921"),
]


@pytest.mark.parametrize("args,kwargs,digest", CONTRACT,
                         ids=["sets4-all", "all2-none-every-witness", "pairs-families3-none",
                              "tt5-3", "tt5-3-hayashi-samuels", "maps3-none", "maps4"])
def test_report_json_digest(args, kwargs, digest):
    report = run_theorem_suite(*args, **kwargs)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_tt5_report_is_the_same_under_two_jobs():
    serial = run_theorem_suite(3, "tt5")
    assert run_theorem_suite(3, "tt5", jobs=2).to_json() == serial.to_json()


@pytest.mark.slow
def test_set_scope_suite_at_five_points_digest():
    selection = [cid for cid, check in REGISTRY.items() if check.scope.startswith("set")]
    report = run_theorem_suite(5, selection, allow_large=True)
    assert report.passed
    assert (hashlib.sha256(report.to_json().encode()).hexdigest()
            == "b37efc636cb8fd8b4aa30d192f639c4f1ecda79e4758aa97a104e7e6dddbb2b3")
