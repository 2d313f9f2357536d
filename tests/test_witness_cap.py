"""A report keeps at most max_witnesses witnesses per check, and the sweep
builds only those: it counts every violation, but the cap changes nothing
else in a report, and every capped witness list is a prefix of the
uncapped one."""

import pytest

from topoideal import verify
from topoideal.verify import run_theorem_suite

MAP_SUITE = "tt1,tt2,tt3,tt4,tt7,tt41,tt43,grt1"
CAPS = (0, 1, 25, 10**6)


@pytest.mark.parametrize("selection", [MAP_SUITE, "all"])
def test_sweep_builds_only_the_witnesses_it_keeps(selection, monkeypatch):
    built = 0
    witness = verify.Witness

    def counting(*args, **kwargs):
        nonlocal built
        built += 1
        return witness(*args, **kwargs)

    monkeypatch.setattr(verify, "Witness", counting)
    report = run_theorem_suite(3, selection, hypothesis="none")
    assert sum(r.violation_count for r in report.results) > len(report.violations)
    assert built == len(report.violations)
    if selection == MAP_SUITE:
        assert built == 50


def _counts(report):
    return (report.selection, report.scope_counts,
            [(r.check_id, r.direction, r.visited, r.violation_count) for r in report.results])


@pytest.mark.parametrize("bound", [2, 3])
def test_the_cap_only_truncates_witness_lists(bound):
    every = run_theorem_suite(bound, "all", hypothesis="none", max_witnesses=CAPS[-1])
    assert all(len(r.witnesses) == r.violation_count for r in every.results)
    for cap in CAPS:
        report = run_theorem_suite(bound, "all", hypothesis="none", max_witnesses=cap)
        parallel = run_theorem_suite(bound, "all", hypothesis="none", max_witnesses=cap, jobs=2)
        for got in (report, parallel):
            assert _counts(got) == _counts(every)
            assert [r.witnesses for r in got.results] == [
                r.witnesses[:cap] for r in every.results]
