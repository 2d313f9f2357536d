"""tt5 as a composition law against the definitional route.

tt5.i and tt5.ii are each one declaration (first atom, second atom,
conclusion atom).  The sweep reads the first and the conclusion off the
packed map atoms of the domain space, and the second hops off a table of
the (codomain, composed map) bits each first hop reaches; the reference
goes pair by pair through map_classes.  A false declaration must make each
leg report the reference's witnesses, which replay.  The composition
search runs one more composition law, which also quantifies the middle
ideal, and returns its first witness, which replays only with the
search's own claim and trace.
"""

import dataclasses

import pytest

import topoideal.verify as verify
from topoideal.core import TopoidealError
from topoideal.verify import (
    REGISTRY,
    find_composition_counterexample,
    replay_witness,
    run_theorem_suite,
)
from util import COMPOSITION_LAW_ORACLES, composition_pairs, reference_composition_report

EVERY_WITNESS = 10 ** 6


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("hypothesis", ["none", "hayashi_samuels"])
@pytest.mark.parametrize("cid", list(COMPOSITION_LAW_ORACLES))
def test_composition_law_matches_reference_sweep(cid, hypothesis, n):
    got = run_theorem_suite(n, [cid], hypothesis=hypothesis, max_witnesses=EVERY_WITNESS)
    want = reference_composition_report(n, cid, hypothesis, max_witnesses=EVERY_WITNESS)
    assert got.to_json() == want.to_json()


def test_both_legs_share_one_pair_count():
    both = run_theorem_suite(2, "tt5")
    counts = dict(both.scope_counts)
    assert [r.visited for r in both.results] == [counts["map_pairs_checked"]] * 2
    for cid in COMPOSITION_LAW_ORACLES:
        assert dict(run_theorem_suite(2, [cid]).scope_counts) == counts


# each false: the composition of a pre-I-continuous map and a continuous
# map need not be continuous, and a precontinuous second hop does not keep
# the composition precontinuous
FALSE_LAWS = {
    "tt5.i": ("pre_i_continuous", "continuous", "continuous"),
    "tt5.ii": ("pre_i_continuous", "precontinuous", "precontinuous"),
}


@pytest.mark.parametrize("cid", list(COMPOSITION_LAW_ORACLES))
def test_false_composition_law_reports_reference_witnesses(cid, monkeypatch):
    law = FALSE_LAWS[cid]
    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(
        REGISTRY[cid], laws=(verify._CompositionLaw(*law),)))
    got = run_theorem_suite(2, [cid], max_witnesses=EVERY_WITNESS)
    want = reference_composition_report(2, cid, "none", max_witnesses=EVERY_WITNESS, law=law)
    assert got.results[0].violation_count > 0
    assert got.to_json() == want.to_json()
    assert all(replay_witness(w) for w in got.violations)


def test_replay_rejects_doctored_composition_witnesses(monkeypatch):
    law = verify._CompositionLaw(*FALSE_LAWS["tt5.i"])
    monkeypatch.setitem(REGISTRY, "tt5.i", dataclasses.replace(REGISTRY["tt5.i"], laws=(law,)))
    w = run_theorem_suite(2, ["tt5.i"]).violations[0]
    assert replay_witness(w)
    flipped = tuple((name, not value) for name, value in w.trace)
    assert not replay_witness(dataclasses.replace(w, trace=flipped))
    assert not replay_witness(dataclasses.replace(w, kind="map"))
    # every first hop into the indiscrete middle topology is pre-I-continuous,
    # but a swap from it onto the discrete codomain is not continuous
    data = dict(w.data)
    data.update(mid_topology=(0, 3), cod_topology=(0, 1, 2, 3), map_second=(1, 0))
    assert not replay_witness(dataclasses.replace(w, data=tuple(data.items())))


def test_second_atom_must_not_read_the_middle_ideal(monkeypatch):
    law = verify._CompositionLaw("pre_i_continuous", "pre_i_continuous", "pre_i_continuous")
    monkeypatch.setitem(REGISTRY, "tt5.i", dataclasses.replace(REGISTRY["tt5.i"], laws=(law,)))
    with pytest.raises(TopoidealError, match="middle ideal"):
        run_theorem_suite(2, ["tt5.i"])


# the composition search's law: the second hop is pre-I-continuous out of
# the middle space, so the middle ideal is quantified too
SEARCH_LAW = ("pre_i_continuous",) * 3


@pytest.mark.parametrize("n", [1, 2])
def test_search_law_matches_reference_sweep(n, monkeypatch):
    monkeypatch.setitem(REGISTRY, "tt5.i", dataclasses.replace(
        REGISTRY["tt5.i"], laws=(verify._COMPOSITION_SEARCH,)))
    got = run_theorem_suite(n, ["tt5.i"], max_witnesses=EVERY_WITNESS)
    want = reference_composition_report(n, "tt5.i", "none", max_witnesses=EVERY_WITNESS,
                                        law=SEARCH_LAW, middle_ideal=True)
    assert got.to_json() == want.to_json()
    assert (got.results[0].violation_count > 0) == (n == 2)
    assert all(replay_witness(w) for w in got.violations)


def first_composition_witness(bound):
    """n and data of the first pair the search law violates on 1..bound
    points, through map_classes; None if there is none."""
    for n in range(1, bound + 1):
        for data, held in composition_pairs(n, SEARCH_LAW, middle_ideal=True):
            if not held:
                return n, data
    return None


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_composition_search_finds_the_first_definitional_witness(bound):
    w = find_composition_counterexample(bound)
    want = first_composition_witness(bound)
    if want is None:
        assert w is None
        return
    assert (w.n, w.data) == want
    assert w.kind == "map_pair" and w.check_id is None
    assert w.claim == ("pre_i_continuous(f) & pre_i_continuous(g) & "
                       "!pre_i_continuous(g . f)")
    assert w.trace == (("first_pre_i_continuous", True), ("second_pre_i_continuous", True),
                       ("composition_pre_i_continuous", False))
    assert replay_witness(w)


def test_search_replay_reads_the_middle_ideal():
    w = find_composition_counterexample(2)
    data = dict(w.data)
    assert data["mid_topology"] == (0, 3) and data["mid_ideal_gen"] == 0
    # under the maximal ideal on the indiscrete middle topology only the
    # empty set and the carrier are pre-I-open, so the second hop, a
    # bijection onto the discrete topology, is not pre-I-continuous
    data["mid_ideal_gen"] = 3
    assert not replay_witness(dataclasses.replace(w, data=tuple(data.items())))


def test_search_replay_gives_back_its_claim_and_trace():
    w = find_composition_counterexample(2)
    assert replay_witness(w)
    flipped = tuple((name, not value) for name, value in w.trace)
    assert not replay_witness(dataclasses.replace(w, trace=flipped))
    assert not replay_witness(dataclasses.replace(w, trace=()))
    assert not replay_witness(dataclasses.replace(w, claim="anything"))
