"""Pair and family laws, l1 and isi_consistency against the definitional
route, and the one space loop of the sweep.

Each lemma over subset pairs (t5.i-v, c1.i-ii) is a pair law, each family
equality (t4.i-iii, submax) a family law, and l1 and isi_consistency are
one declaration each, all in the registry.  Every declaration is pinned to
a reference sweep that classifies one pair, or one space, at a time, and
the lifted tables that t5.iv and t5.v read to the subspace route; a
corrupted table or family must make every one of them report the
reference's witnesses, which replay through the same corruption; and
replay must accept real witnesses and reject doctored ones.
"""

import dataclasses

import pytest

import topoideal.verify as verify
import util
from topoideal.analysis import SET_ATOMS, SpaceAnalysis, TopologyAnalysis, family_bits
from topoideal.classes import CLASS_FLAGS, set_classes
from topoideal.core import IdealSpace, local_function, make_topology, principal_ideal, submasks
from topoideal.verify import REGISTRY, replay_witness, run_theorem_suite
from util import (
    COMPOSITION_LAW_ORACLES,
    FAMILY_LAW_ORACLES,
    OTHER_SPACE_ORACLES,
    PAIR_LAW_ORACLES,
    all_topologies_bruteforce,
    reference_pair_report,
)

EVERY_WITNESS = 10 ** 6
DECLARED = [*PAIR_LAW_ORACLES, *FAMILY_LAW_ORACLES, *OTHER_SPACE_ORACLES]


def test_declarations_are_the_pair_and_family_lemmas():
    for cid, law in PAIR_LAW_ORACLES.items():
        assert REGISTRY[cid].laws == (verify._PairLaw(*law),), cid
        assert REGISTRY[cid].scope == "set_pairs"
    for cid, atom in FAMILY_LAW_ORACLES.items():
        assert REGISTRY[cid].laws == (verify._FamilyLaw(atom),), cid
        assert REGISTRY[cid].scope == "set_families"
    for cid, law in COMPOSITION_LAW_ORACLES.items():
        assert REGISTRY[cid].laws == (verify._CompositionLaw(*law),), cid
    assert isinstance(REGISTRY["l1"].laws[0], verify._StarLaw)
    assert isinstance(REGISTRY["isi_consistency"].laws[0], verify._IrresolvableLaw)
    # no custom check is left: every row carries its law, and every law
    # that is not a claim has a run and a replay of its own
    for cid, check in REGISTRY.items():
        assert check.laws, cid
        for law in check.laws:
            assert isinstance(law, str) or callable(law.run) and callable(law.replay), cid


def _cases():
    for cid in DECLARED:
        for hypothesis in sorted({"none", REGISTRY[cid].hypothesis}):
            yield cid, hypothesis


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cid,hypothesis", list(_cases()))
def test_declared_law_matches_reference_sweep(cid, hypothesis, n):
    got = run_theorem_suite(n, [cid], hypothesis=hypothesis, max_witnesses=EVERY_WITNESS)
    want = reference_pair_report(n, cid, hypothesis, max_witnesses=EVERY_WITNESS)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lifted_tables_match_the_subspace_route(n):
    # every set atom that set_classes flags, the topological ones included:
    # entry c holds the subsets of c with the atom in the subspace on c
    atoms = [atom for atom in SET_ATOMS if atom in CLASS_FLAGS]
    for topo in all_topologies_bruteforce(n):
        ta = TopologyAnalysis(topo)
        for atom in atoms:
            lifted = ta.lifted(atom)
            assert len(lifted) == 1 << n and lifted[0] == 0
            for c in range(1, 1 << n):
                want = family_bits(m for m in submasks(c) if util.subspace_flags(topo, c, m)[atom])
                assert lifted[c] == want, (topo.opens, atom, c)


def _dropping(flag, dropped):
    """set_classes with flag forced false on subset `dropped` of every space."""
    def classes(sp, a):
        vector = set_classes(sp, a)
        return dataclasses.replace(vector, **{flag: False}) if a == dropped else vector
    return classes


@pytest.mark.parametrize("cid", list(PAIR_LAW_ORACLES))
def test_corrupted_conclusion_family_reports_reference_witnesses(cid, monkeypatch):
    # drop the subset the operation always reaches from the conclusion's
    # family: the carrier for unions, the empty set for intersections (in
    # a subspace too); replay reads the same corruption
    n = 3
    _, _, op, conclusion, _ = PAIR_LAW_ORACLES[cid]
    dropped = (1 << n) - 1 if op == "union" else 0
    family = SET_ATOMS[conclusion]
    monkeypatch.setitem(SET_ATOMS, conclusion, lambda sa: family(sa) & ~(1 << dropped))
    got = run_theorem_suite(n, [cid], max_witnesses=EVERY_WITNESS)
    want = reference_pair_report(n, cid, "none", max_witnesses=EVERY_WITNESS,
                                 drop={conclusion: dropped})
    assert got.results[0].violation_count > 0
    assert got.to_json() == want.to_json()
    monkeypatch.setattr(verify, "set_classes", _dropping(conclusion, dropped))
    assert all(replay_witness(w) for w in got.violations)


def test_corrupted_local_function_makes_l1_report_reference_witnesses(monkeypatch):
    # point 0 toggled in X*: U & X* then differs from U & U* for every open
    # U through point 0 but the carrier
    def toggled(star):
        return lambda sp, a: star(sp, a) ^ (a == sp.topo.full)

    table = SpaceAnalysis.__dict__["star_t"].func
    monkeypatch.setattr(SpaceAnalysis, "star_t", property(
        lambda sa: [star ^ (a == sa.full) for a, star in enumerate(table(sa))]))
    got = run_theorem_suite(3, ["l1"], max_witnesses=EVERY_WITNESS)
    want = reference_pair_report(3, "l1", "none", max_witnesses=EVERY_WITNESS,
                                 star=toggled(util.local_function_oracle))
    assert got.results[0].violation_count > 0
    assert got.to_json() == want.to_json()
    monkeypatch.setattr(verify, "local_function", toggled(local_function))
    assert all(replay_witness(w) for w in got.violations)
    # U must be open
    w = next(w for w in got.violations if len(w.data_dict()["topology"]) < 8)
    not_open = next(m for m in range(8) if m not in w.data_dict()["topology"])
    assert not replay_witness(_with_data(w, first=not_open))


def test_flipped_irresolvability_makes_isi_consistency_report_reference_witnesses(monkeypatch):
    # every visited space then violates: strong irresolvability holds under
    # the maximal ideal, and equals "pre-I-open sets are open" under the minimal
    flag = "i_strongly_irresolvable"
    family = SET_ATOMS[flag]
    monkeypatch.setitem(SET_ATOMS, flag, lambda sa: family(sa) ^ sa.all_bits)
    got = run_theorem_suite(3, ["isi_consistency"], max_witnesses=EVERY_WITNESS)
    want = reference_pair_report(3, "isi_consistency", "none", max_witnesses=EVERY_WITNESS,
                                 flip={flag})
    result = got.results[0]
    assert result.violation_count == result.visited > 0
    assert got.to_json() == want.to_json()
    props = verify.space_props
    monkeypatch.setattr(verify, "space_props", lambda sp: dataclasses.replace(
        props(sp), **{flag: not getattr(props(sp), flag)}))
    assert all(replay_witness(w) for w in got.violations)
    # the recorded ideal must be the space's
    for w in got.violations[:2]:
        other = {"minimal": "maximal", "maximal": "minimal"}[w.data_dict()["ideal"]]
        assert not replay_witness(_with_data(w, ideal=other))


@pytest.mark.parametrize("cid,violations", [
    ("t4.i", 76), ("t4.ii", 88), ("t4.iii", 76), ("submax", 88)])
def test_family_laws_fail_without_their_hypothesis(cid, violations):
    result = run_theorem_suite(3, [cid], hypothesis="none",
                               max_witnesses=EVERY_WITNESS).results[0]
    assert result.violation_count == violations == len(result.witnesses)
    assert all(replay_witness(w) for w in result.witnesses)


def _with_data(w, **changes):
    data = dict(w.data)
    data.update(changes)
    return dataclasses.replace(w, data=tuple(data.items()))


def test_replay_rejects_a_pair_witness_whose_first_lacks_the_first_atom(monkeypatch):
    # preopen sets are not closed under intersection, so this declaration
    # has real witnesses; both the sweep and replay read it from the registry
    law = verify._PairLaw("preopen", "preopen", "intersection", "preopen")
    monkeypatch.setitem(REGISTRY, "t5.ii", dataclasses.replace(REGISTRY["t5.ii"], laws=(law,)))
    witnesses = run_theorem_suite(3, ["t5.ii"], max_witnesses=EVERY_WITNESS).violations
    assert witnesses
    assert all(replay_witness(w) for w in witnesses)
    assert dict(witnesses[0].trace) == {
        "preopen(first)": True, "preopen(second)": True, "preopen(intersection)": False}
    flipped = tuple((name, not value) for name, value in witnesses[0].trace)
    assert not replay_witness(dataclasses.replace(witnesses[0], trace=flipped))
    doctored = None
    for w in witnesses:
        data = w.data_dict()
        sp = IdealSpace(make_topology(3, data["topology"]), principal_ideal(3, data["ideal_gen"]))
        for a in range(8):
            # everything but the first atom still as the witness claims
            if not set_classes(sp, a).preopen and not set_classes(sp, a & data["second"]).preopen:
                doctored = _with_data(w, first=a)
                break
        if doctored:
            break
    assert doctored is not None
    assert not replay_witness(doctored)


def test_replay_rejects_a_family_witness_moved_to_a_space_where_families_agree():
    w = run_theorem_suite(3, ["t4.ii"], hypothesis="none").violations[0]
    assert replay_witness(w)
    assert not replay_witness(dataclasses.replace(w, trace=(("families_equal", True),)))
    # under the maximal ideal the pre-I-open sets are exactly the opens; the
    # moved witness records that space's families, so only their equality
    # can reject it
    opens = w.data_dict()["topology"]
    moved = _with_data(w, ideal_gen=7, expected=opens, pio_family=opens)
    assert not replay_witness(moved)


def test_suite_builds_one_space_analysis_per_space(monkeypatch):
    # the orbit pass builds each of the 10 representatives of the 16 spaces
    # on 2 points once; a failing check adds at most one build per labeled
    # space.  The tt5 second-hop tables build every middle space once per
    # process, so they are built before counting starts.
    run_theorem_suite(2, "all", hypothesis="none")
    built = []

    class Counting(SpaceAnalysis):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verify, "SpaceAnalysis", Counting)
    report = run_theorem_suite(2, "all")
    assert report.passed and dict(report.scope_counts)["spaces"] == 16
    representatives = built[:]
    assert len(representatives) == len(set(representatives)) == 10
    built.clear()
    report = run_theorem_suite(2, "all", hypothesis="none")
    assert not report.passed and dict(report.scope_counts)["spaces"] == 16
    assert built[:10] == representatives
    labeled = built[10:]
    assert 0 < len(labeled) == len(set(labeled)) <= 16
