import json

import pytest

from topoideal.analysis import SET_ATOMS, SpaceAnalysis
from topoideal.claims import UnknownAtom
from topoideal.core import TopoidealError, bits
from topoideal.enumeration import BudgetExceeded
from topoideal.verify import (
    REGISTRY,
    CarrierTooLargeForSuite,
    NotDirectional,
    UnknownTheoremId,
    check_direction,
    find_composition_counterexample,
    find_counterexample,
    replay_witness,
    resolve_selection,
    run_theorem_suite,
)
from util import all_spaces_bruteforce, mask


REQUIRED_IDS = {
    "t1", "t2", "t3", "t4.i", "t4.ii", "t4.iii",
    "t5.i", "t5.ii", "t5.iii", "t5.iv", "t5.v",
    "l1", "c1.i", "c1.ii", "submax", "star_perfect_remark", "x_always_pio",
    "tt1", "tt2", "tt3", "tt4", "tt5.i", "tt5.ii", "tt6", "tt7",
    "tt41", "tt42", "tt43", "grt1.min", "grt1.nwd", "isi_consistency",
}


def test_registry_covers_every_numbered_claim():
    assert set(REGISTRY) == REQUIRED_IDS
    assert all(REGISTRY[c].id == c for c in REGISTRY)


def test_suite_t123_counts_and_pass():
    rep = run_theorem_suite(3, ["t1", "t2", "t3"])
    assert rep.passed
    counts = dict(rep.scope_counts)
    assert counts["spaces"] == 29 * 8
    for r in rep.results:
        assert r.visited == 29 * 8 * 8
        assert r.violation_count == 0


def test_suite_tt6_passes():
    rep = run_theorem_suite(3, ["tt6"])
    assert rep.passed


def test_dropping_hayashi_samuels_surfaces_witnesses():
    rep = run_theorem_suite(2, ["tt43"], hypothesis="none")
    r = rep.results[0]
    assert r.violation_count > 0
    assert r.witnesses
    for w in r.witnesses:
        assert replay_witness(w)
        # every recorded witness lives on a non-Hayashi-Samuels space
        sa = SpaceAnalysis(_space_of(w))
        assert not sa.hayashi_samuels


def _space_of(w):
    from topoideal.core import IdealSpace, make_topology, principal_ideal
    data = w.data_dict()
    return IdealSpace(make_topology(w.n, data["topology"]),
                      principal_ideal(w.n, data["ideal_gen"]))


def test_tt42_direction_hypothesis_map():
    assert check_direction("tt42", "bwd", "none", bound=3).passed
    fwd_none = check_direction("tt42", "fwd", "none", bound=3)
    assert not fwd_none.passed
    for w in fwd_none.results[0].witnesses:
        assert replay_witness(w)
        assert not SpaceAnalysis(_space_of(w)).hayashi_samuels
    assert check_direction("tt42", "fwd", "hayashi_samuels", bound=3).passed


def test_tt43_backward_direction_is_hypothesis_free():
    assert check_direction("tt43", "bwd", "none", bound=2).passed


def test_find_counterexample_preopen_not_pio():
    w = find_counterexample("preopen & !pre_i_open", "sets", 2)
    assert w is not None and w.n == 2
    data = w.data_dict()
    assert data["topology"] == (0, 3)        # indiscrete pair
    assert bin(data["subset"]).count("1") == 1   # a singleton
    assert data["subset"] & ~data["ideal_gen"] == 0  # inside the ideal
    assert w.trace_dict() == {"preopen": True, "pre_i_open": False}
    assert replay_witness(w)
    assert find_counterexample("preopen & !pre_i_open", "sets", 1) is None


def test_find_counterexample_open_not_i_open():
    w = find_counterexample("open & !i_open", "sets", 4)
    assert w is not None and w.n <= 4
    assert replay_witness(w)


def test_find_counterexample_none_is_a_valid_result():
    assert find_counterexample("pre_i_open & !open & !i_open", "sets", 1) is None
    assert find_counterexample("pre_i_open & !preopen", "sets", 3) is None


def test_find_counterexample_maps_scope():
    w = find_counterexample("pre_i_continuous & !i_continuous", "maps", 4)
    assert w is not None and w.n <= 4
    assert replay_witness(w)
    w2 = find_counterexample("star_i_continuous & !pre_i_continuous", "maps", 3)
    assert w2 is not None and w2.n <= 3
    assert replay_witness(w2)


def test_find_counterexample_rejects_out_of_scope_atoms():
    with pytest.raises(UnknownAtom):
        find_counterexample("pre_i_continuous", "sets", 2)
    with pytest.raises(UnknownAtom):
        find_counterexample("preopen", "maps", 2)
    with pytest.raises(UnknownAtom):
        find_counterexample("i_open_map", "maps", 2)


def test_composition_counterexample():
    w = find_composition_counterexample(3)
    assert w is not None and w.n <= 3
    assert replay_witness(w)
    assert find_composition_counterexample(1) is None


@pytest.mark.parametrize("bound", [0, -3])
def test_find_counterexample_rejects_a_bound_below_one(bound):
    # nothing would be searched, and None would read as an exhausted scope
    with pytest.raises(TopoidealError, match=">= 1"):
        find_counterexample("preopen & !pre_i_open", "sets", bound)


@pytest.mark.parametrize("bound", [0, -3])
def test_find_composition_counterexample_rejects_a_bound_below_one(bound):
    with pytest.raises(TopoidealError, match=">= 1"):
        find_composition_counterexample(bound)


def test_selection_groups_and_errors():
    keys = [row[0] for row in resolve_selection("t5")]
    assert keys == ["t5.i", "t5.ii", "t5.iii", "t5.iv", "t5.v"]
    assert [row[0] for row in resolve_selection("c1")] == ["c1.i", "c1.ii"]
    assert [row[0] for row in resolve_selection("tt42.fwd")] == ["tt42.fwd"]
    with pytest.raises(UnknownTheoremId):
        resolve_selection("tt99")
    # a global direction only applies to biconditional checks ...
    assert resolve_selection("t1", direction="fwd")[0][2] == "both"
    # ... while naming a direction on a one-way check is an error
    with pytest.raises(NotDirectional):
        resolve_selection("t1.fwd")


def test_check_direction_refuses_a_check_without_directions():
    # as the token "t1.fwd" does: a one-way check has no direction to run
    for cid in ("t1", "tt5.i"):
        for direction in ("fwd", "bwd"):
            with pytest.raises(NotDirectional):
                check_direction(cid, direction, bound=2)
    assert check_direction("t1", "both", bound=2).results[0].direction == "both"


def test_check_direction_runs_the_direction_token():
    assert check_direction("tt42", "fwd").to_json() == run_theorem_suite(3, "tt42.fwd").to_json()
    with pytest.raises(TopoidealError):
        check_direction("tt42", "sideways")


@pytest.mark.parametrize("selection", ["", ",", " ", [], [""], [" ", ""]])
def test_an_empty_selection_selects_all(selection):
    assert run_theorem_suite(4, selection).to_json() == run_theorem_suite(4, "all").to_json()


def test_skipped_rows_name_why_they_were_skipped():
    def reason(report, key):
        return next(line for line in report.to_text().splitlines()
                    if line.split()[0] == key).split("skipped ")[1]

    forced = run_theorem_suite(5, "all", allow_large=True)
    assert reason(forced, "tt1") == reason(forced, "tt5.i") == "(over the map packing budget)"
    default = run_theorem_suite(4, "all", direction="fwd")
    assert reason(default, "tt1") == reason(default, "tt43.fwd") == (
        "(over default bound for its scope)")


def test_explicit_selection_beyond_default_bound_errors():
    with pytest.raises(CarrierTooLargeForSuite):
        run_theorem_suite(4, ["tt1"])
    rep = run_theorem_suite(4, ["all"])
    assert "tt1" in rep.skipped and "tt5.i" in rep.skipped
    assert all(REGISTRY[r.check_id].scope.startswith("set") for r in rep.results)


def test_forced_all_skips_the_map_scopes_past_the_packing_budget():
    # on 5 points the map scopes cannot be packed: "all" skips them as it
    # skips checks over their bound, while an explicit one still raises
    rep = run_theorem_suite(5, "all", allow_large=True)
    set_ids = [cid for cid, check in REGISTRY.items() if check.scope.startswith("set")]
    assert rep.skipped == tuple(cid for cid in REGISTRY if cid not in set_ids)
    sets = run_theorem_suite(5, set_ids, allow_large=True)
    assert (rep.results, rep.scope_counts) == (sets.results, sets.scope_counts)
    with pytest.raises(BudgetExceeded):
        run_theorem_suite(5, ["tt1"], allow_large=True)


def test_parallel_report_identical_and_counts_merge():
    serial = run_theorem_suite(3, ["t1", "tt6", "x_always_pio"], jobs=1)
    parallel = run_theorem_suite(3, ["t1", "tt6", "x_always_pio"], jobs=3)
    assert serial.to_json() == parallel.to_json()


def test_report_json_shape():
    rep = run_theorem_suite(2, ["tt43"], hypothesis="none", max_witnesses=2)
    d = rep.to_dict()
    assert "wall_time" not in json.dumps(d)
    assert d["checks"][0]["violations"] >= len(d["checks"][0]["witnesses"]) == 2
    assert json.loads(rep.to_json()) == d
    assert not rep.passed
    assert "FAIL" in rep.to_text()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pio_union_closure_all_subfamilies_oracle(n):
    # second oracle for t5.i / c1.i: arbitrary unions and intersections,
    # checked directly over every subfamily
    for sp in all_spaces_bruteforce(n):
        sa = SpaceAnalysis(sp)
        fam = tuple(bits(sa.pio_bits))
        piclosed = SET_ATOMS["pre_i_closed"](sa)
        for picks in range(1 << len(fam)):
            union = 0
            inter = sp.topo.full
            for i in range(len(fam)):
                if picks >> i & 1:
                    union |= fam[i]
                    inter &= sp.topo.full ^ fam[i]
            assert SET_ATOMS["pre_i_open"](sa) >> union & 1
            # de Morgan: complements of pre-I-open sets are the pre-I-closed
            # ones, so `inter` is an arbitrary intersection of those
            assert picks == 0 or piclosed >> inter & 1


def test_suite_all_at_three_points_set_checks():
    rep = run_theorem_suite(3, ["t1", "t2", "t3", "t4", "t5", "c1", "l1", "tt6",
                                "tt42", "submax", "star_perfect_remark",
                                "x_always_pio", "isi_consistency"])
    assert rep.passed
