"""The orbit route of the sweep against the labeled route.

A sweep proves a check on one ideal space per orbit of the point
relabelings, each count weighted by the orbit's size, and re-sweeps every
check that fails on a representative space by space.  The orbit table is
pinned to the known counts (topologies up to homeomorphism: OEIS A001930)
and to orbits found here by relabeling the opens; every check's violation
count is shown to be the same on every space of an orbit; and every report
is pinned to the labeled route with every witness kept.
"""

import itertools
import os
from collections import Counter
from functools import lru_cache

import pytest

import topoideal.verify as verify
from topoideal.analysis import SpaceAnalysis
from topoideal.core import make_topology
from topoideal.enumeration import topologies
from topoideal.verify import HYPOTHESES, REGISTRY, resolve_selection, run_theorem_suite

EVERY_WITNESS = 10 ** 9
CLASSES = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139}
ORBITS = {1: 2, 2: 10, 3: 54, 4: 359, 5: 2902}


def _relabel(perm, m):
    return sum(1 << perm[x] for x in range(len(perm)) if m >> x & 1)


@lru_cache(maxsize=None)
def representatives(n):
    """(topology index, generator) -> (its orbit's first space, orbit size),
    for every labeled space, found by relabeling the opens."""
    index = {t.opens: i for i, t in enumerate(topologies(n))}
    out = {}
    for ti, topo in enumerate(topologies(n)):
        for gen in range(1 << n):
            if (ti, gen) in out:
                continue
            orbit = {(index[make_topology(n, [_relabel(p, u) for u in topo.opens]).opens],
                      _relabel(p, gen))
                     for p in itertools.permutations(range(n))}
            # enumeration order: the first space met is its orbit's first
            out.update((space, ((ti, gen), len(orbit))) for space in orbit)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_table_counts(n):
    table = verify._orbits(n)
    assert len(table) == CLASSES[n]
    assert sum(len(gens) for _, gens in table) == ORBITS[n]
    assert sum(w for _, gens in table for _, w in gens) == len(topologies(n)) << n
    flat = [(ti, gen) for ti, gens in table for gen, _ in gens]
    assert flat == sorted(flat)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_representatives_are_first_in_their_orbits(n):
    table = {(ti, gen): w for ti, gens in verify._orbits(n) for gen, w in gens}
    assert table == dict(set(representatives(n).values()))


def test_a_passing_sweep_builds_one_space_per_orbit(monkeypatch):
    built = []

    class Counting(SpaceAnalysis):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verify, "SpaceAnalysis", Counting)
    report = run_theorem_suite(5, "t1,t2,t3,tt6,tt42", allow_large=True)
    assert report.passed and dict(report.scope_counts)["spaces"] == 222_144
    assert len(built) == len(set(built)) == ORBITS[5]


def test_a_selection_with_every_check_skipped_visits_nothing():
    report = run_theorem_suite(5, "all")
    assert report.skipped == tuple(REGISTRY)
    assert report.selection == () and report.scope_counts == ()


def _every_key(hypothesis):
    """Every check, each directional one also per direction."""
    tokens = ["all"] + [f"{cid}.{d}" for cid, check in REGISTRY.items()
                        if check.directional for d in ("fwd", "bwd")]
    return resolve_selection(tokens, None, hypothesis)


@lru_cache(maxsize=None)
def labeled(n, hypothesis):
    rows = _every_key(hypothesis)
    return rows, verify._sweep_partition((n, rows, 0, len(topologies(n)), EVERY_WITNESS, True))[:2]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("hypothesis", HYPOTHESES)
def test_violation_counts_are_orbit_invariant(n, hypothesis):
    rows, (acc, _) = labeled(n, hypothesis)
    index = {t.opens: i for i, t in enumerate(topologies(n))}
    reps = representatives(n)
    for key, *_ in rows:
        per_space = Counter()
        for w in acc[key][2]:
            data = w.data_dict()
            per_space[index[data["topology"]], data["ideal_gen"]] += 1
        assert sum(per_space.values()) == acc[key][1]
        for space, (rep, _) in reps.items():
            assert per_space[space] == per_space[rep], (key, space, rep)


def _assert_matches_labeled(report, rows, acc, counts):
    assert report.scope_counts == tuple(sorted(counts.items()))
    assert [r.check_id for r in report.results] == [cid for _, cid, *_ in rows]
    for (key, *_), result in zip(rows, report.results):
        visited, violations, witnesses = acc[key]
        assert (result.visited, result.violation_count) == (visited, violations), key
        assert result.witnesses == tuple(witnesses), key


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("hypothesis", HYPOTHESES)
def test_report_matches_labeled_route(n, hypothesis):
    rows, (acc, counts) = labeled(n, hypothesis)
    report = run_theorem_suite(n, [key for key, *_ in rows], hypothesis=hypothesis,
                               max_witnesses=EVERY_WITNESS)
    _assert_matches_labeled(report, rows, acc, counts)


@pytest.mark.parametrize("hypothesis", [None, "none"])
def test_set_scopes_match_labeled_route_at_four_points(hypothesis):
    tokens = [cid for cid, check in REGISTRY.items() if check.scope.startswith("set")]
    tokens += [f"{cid}.{d}" for cid in tokens if REGISTRY[cid].directional
               for d in ("fwd", "bwd")]
    rows = resolve_selection(tokens, None, hypothesis)
    acc, counts = verify._sweep_partition((4, rows, 0, len(topologies(4)), EVERY_WITNESS, True))[:2]
    report = run_theorem_suite(4, tokens, hypothesis=hypothesis, max_witnesses=EVERY_WITNESS)
    _assert_matches_labeled(report, rows, acc, counts)


def test_two_jobs_re_sweep_failures_outside_the_failing_partitions(monkeypatch):
    # t4.ii fails without its hypothesis; with two workers some partition
    # holds failing spaces but no failing representative, so its orbit pass
    # passes and only the merged refuted keys send it to the labeled pass
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    n, cuts = 3, verify._cuts(len(topologies(3)), 2)
    rows = resolve_selection("t4.ii", None, "none")
    acc, _ = verify._sweep_partition((n, rows, 0, len(topologies(n)), EVERY_WITNESS, True))[:2]
    index = {t.opens: i for i, t in enumerate(topologies(n))}
    failing = {(index[w.data_dict()["topology"]], w.data_dict()["ideal_gen"])
               for w in acc["t4.ii"][2]}
    reps = {rep for rep, _ in representatives(n).values()}
    blind = [(lo, hi) for lo, hi in zip(cuts, cuts[1:])
             if any(lo <= ti < hi for ti, _ in failing)
             and not any(lo <= ti < hi for ti, _ in failing & reps)]
    assert blind
    for lo, hi in blind:
        assert not verify._sweep_partition((n, rows, lo, hi, EVERY_WITNESS, False))[2]
    serial = run_theorem_suite(n, "t4.ii", hypothesis="none", max_witnesses=EVERY_WITNESS)
    parallel = run_theorem_suite(n, "t4.ii", hypothesis="none", max_witnesses=EVERY_WITNESS,
                                 jobs=2)
    assert serial.results[0].violation_count == len(acc["t4.ii"][2]) > 0
    assert parallel.to_json() == serial.to_json()
