"""The packed fast route of the set sweep against the definitional route.

Every set atom's packed family (topoideal.analysis.SET_ATOMS) is pinned bit
by bit to set_classes and space_props; every set-scope law of the sweep is
pinned to a reference sweep that classifies one subset at a time; and
forcing one packed family to a wrong value must make each law report
witnesses.  The guards that replaced internal asserts and the bounds on
user-chosen work are tested here too.
"""

import ast
import multiprocessing
import os
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings

import topoideal
import topoideal.analysis as analysis
import topoideal.core as core
from topoideal.analysis import SET_ATOMS, SpaceAnalysis, TopologyAnalysis, lazy_table
from topoideal.claims import SPACE_FLAGS
from topoideal.classes import CLASS_FLAGS, set_classes
from topoideal.cli import main
from topoideal.core import (
    IdealSpace,
    NotNowhereDense,
    RoutesDisagree,
    TopoidealError,
    nowhere_dense_ideal,
    principal_ideal,
    space_props,
)
from topoideal.verify import REGISTRY, run_theorem_suite
from util import (
    SET_CHECK_ORACLES,
    all_spaces_bruteforce,
    discrete,
    reference_set_report,
    spaces,
)


def test_set_atoms_are_the_class_and_space_flags():
    assert tuple(SET_ATOMS) == CLASS_FLAGS + SPACE_FLAGS


def _assert_packed_match(sp):
    sa = SpaceAnalysis(sp)
    props = space_props(sp)
    packed = {atom: family(sa) for atom, family in SET_ATOMS.items()}
    for a in range(1 << sp.n):
        flags = set_classes(sp, a).as_dict()
        flags.update((name, getattr(props, name)) for name in SPACE_FLAGS)
        for atom, family in packed.items():
            assert (family >> a & 1 == 1) == flags[atom], (atom, a)
    for atom, family in packed.items():
        assert family >> (1 << sp.n) == 0, atom


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_families_match_set_classes(n):
    for sp in all_spaces_bruteforce(n):
        _assert_packed_match(sp)


@settings(max_examples=30, deadline=None)
@given(spaces(max_n=4))
def test_packed_families_match_set_classes_random(sp):
    _assert_packed_match(sp)


def test_lazy_tables_stay_cached_properties():
    # code outside the package finds the tables with isinstance
    assert issubclass(lazy_table, cached_property)
    assert isinstance(vars(SpaceAnalysis)["pio_bits"], cached_property)
    sa = SpaceAnalysis(IdealSpace(discrete(2), principal_ideal(2, 1)))
    assert sa.pio_bits is sa.__dict__["pio_bits"]


# the set-scope checks that are laws over single subsets
SET_LAWS = [cid for cid, check in REGISTRY.items() if check.scope == "sets"]


def _row_cases():
    for cid in SET_LAWS:
        directions = ("both", "fwd", "bwd") if REGISTRY[cid].directional else ("both",)
        for direction in directions:
            for hypothesis in sorted({"none", REGISTRY[cid].hypothesis}):
                yield cid, direction, hypothesis


ROW_CASES = list(_row_cases())


def _token(cid, direction):
    return cid if direction == "both" else f"{cid}.{direction}"


def test_rows_are_the_per_subset_checks():
    assert set(SET_LAWS) == {"t1", "t2", "t3", "tt6", "tt42", "star_perfect_remark",
                             "x_always_pio"} == set(SET_CHECK_ORACLES)
    assert all(REGISTRY[cid].laws for cid in SET_LAWS)
    assert {cid for cid, _, _ in ROW_CASES} == set(SET_LAWS)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cid,direction,hypothesis", ROW_CASES)
def test_row_report_matches_reference_sweep(cid, direction, hypothesis, n):
    got = run_theorem_suite(n, [_token(cid, direction)], hypothesis=hypothesis)
    want = reference_set_report(n, cid, direction, hypothesis)
    assert got.to_json() == want.to_json()


# One packed family forced to 0 per law and direction; the forced value
# breaks the check on the empty set (x_always_pio: the carrier) of every space.
CORRUPTIONS = [
    ("t1", "both", "pio_bits", "pre_i_open"),
    ("t2", "both", "pio_bits", "pre_i_open"),
    ("t3", "both", "ta.preopen_bits", "preopen"),
    ("tt6", "fwd", "pio_bits", "pre_i_open"),
    ("tt6", "bwd", "io_bits", "i_open"),
    ("tt42", "fwd", "pio_bits", "pre_i_open"),
    ("tt42", "bwd", "ta.open_bits", "open"),
    ("star_perfect_remark", "both", "pio_bits", "pre_i_open"),
    ("x_always_pio", "both", "pio_bits", "pre_i_open"),
]


@pytest.mark.parametrize("cid,direction,path,flag", CORRUPTIONS)
def test_corrupted_family_makes_each_row_report(monkeypatch, cid, direction, path, flag):
    owner, _, name = path.rpartition(".")
    monkeypatch.setattr(TopologyAnalysis if owner else SpaceAnalysis, name,
                        property(lambda self: 0))
    hypothesis = REGISTRY[cid].hypothesis
    for n in (1, 2):
        got = run_theorem_suite(n, [_token(cid, direction)], max_witnesses=40)
        result = got.results[0]
        assert result.violation_count > 0
        assert all(w.trace_dict()[flag] is False for w in result.witnesses)
        want = reference_set_report(n, cid, direction, hypothesis, max_witnesses=40,
                                    corrupt={flag: False})
        # same witnesses, in ascending subset order per space, same traces
        assert got.to_json() == want.to_json()


def test_corrupted_both_directions_interleave_in_subset_order(monkeypatch):
    # star-dense-in-itself forced onto subsets 0 and 2 only: both legs of tt6
    # fail, on disjoint subsets, and each space lists its witnesses ascending
    forced = 0b0101
    monkeypatch.setattr(SpaceAnalysis, "sdi_bits", property(lambda self: forced))
    result = run_theorem_suite(2, ["tt6"], max_witnesses=1000).results[0]
    assert result.violation_count == len(result.witnesses) > 0
    assert {w.direction for w in result.witnesses} == {"fwd", "bwd"}
    by_space = {}
    for w in result.witnesses:
        d = w.data_dict()
        sp = IdealSpace(core.make_topology(2, d["topology"]), principal_ideal(2, d["ideal_gen"]))
        v = set_classes(sp, d["subset"])
        sdi = forced >> d["subset"] & 1 == 1
        assert w.trace_dict() == {"i_open": v.i_open, "pre_i_open": v.pre_i_open,
                                  "star_dense_in_itself": sdi}
        fwd = v.i_open and not (v.pre_i_open and sdi)
        assert w.direction == ("fwd" if fwd else "bwd")
        by_space.setdefault((d["topology"], d["ideal_gen"]), []).append(d["subset"])
    assert all(subs == sorted(set(subs)) for subs in by_space.values())


# --- guards that must survive python -O ---------------------------------------

def test_space_analysis_guard_compares_two_hayashi_samuels_routes(monkeypatch):
    sa = SpaceAnalysis(IdealSpace(discrete(2), principal_ideal(2, 0)))
    monkeypatch.setattr(analysis, "local_function", lambda sp, m: 0)
    with pytest.raises(RoutesDisagree):
        sa.props


def test_space_props_guard_compares_two_hayashi_samuels_routes(monkeypatch):
    monkeypatch.setattr(core, "local_function", lambda sp, m: 0)
    with pytest.raises(RoutesDisagree):
        space_props(IdealSpace(discrete(2), principal_ideal(2, 0)))


def test_nowhere_dense_guard(monkeypatch):
    # every proper subset "nowhere dense", their union (the carrier) not
    monkeypatch.setattr(core, "consolidation",
                        lambda topo, m: topo.full if m == topo.full else 0)
    with pytest.raises(NotNowhereDense):
        nowhere_dense_ideal(discrete(2))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant guarded by one
    # would go unchecked; the package raises typed errors instead
    package = Path(topoideal.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name}: assert statements at lines {found}"


# --- bounds on user-chosen work -------------------------------------------------

def test_negative_max_witnesses_rejected(capsys):
    with pytest.raises(TopoidealError):
        run_theorem_suite(2, ["t1"], max_witnesses=-1)
    assert main(["verify", "--points", "2", "--suite", "t1",
                 "--max-witnesses", "-1"]) == 2
    assert "max_witnesses" in capsys.readouterr().err


class _RecordingContext:
    """Stands in for a fork context: records pool sizes, maps in-process."""

    def __init__(self):
        self.requested = []

    def Pool(self, processes):
        self.requested.append(processes)
        return _InProcessPool()


class _InProcessPool:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return [fn(a) for a in args]


def test_jobs_capped_at_usable_cores(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    serial = run_theorem_suite(3, ["t1", "tt6"])
    parallel = run_theorem_suite(3, ["t1", "tt6"], jobs=10_000)
    assert ctx.requested == [2]
    assert parallel.to_json() == serial.to_json()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_theorem_suite(3, ["t1"], jobs=10_000)
    assert ctx.requested == [2]   # one usable core: the serial route, no pool


def test_jobs_without_sched_getaffinity_count_cpus(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    serial = run_theorem_suite(2, "t1,tt1")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run_theorem_suite(2, "t1,tt1", jobs=2).to_json() == serial.to_json()


def test_jobs_without_fork_run_serially(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    serial = run_theorem_suite(3, ["t1", "tt6"])
    assert run_theorem_suite(3, ["t1", "tt6"], jobs=2).to_json() == serial.to_json()
    assert ctx.requested == []
