"""Map-scope laws, the packed claim search and law replay against the
definitional route.

Every packed map atom is pinned bit by bit to map_classes and
check_pre_i_continuity_equivalences, and the initial-topology table the
atoms are packed through to maps.preimage: the table partitions the
structures, every map lies at its initial topology, each packed family is
the per-structure pull-back, and a map classifies as the identity onto
its initial topology.  Every map check is pinned to a
reference sweep that classifies one map at a time, and forcing one packed
family to 0 must make each of its legs report witnesses.  The claim search
must find what a structure-by-structure definitional search finds, and
replay must reject a witness whose trace is off by one value.
"""

import dataclasses
import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from topoideal.analysis import MAP_ATOMS, SpaceAnalysis, TopologyAnalysis, _MapPacking
from topoideal.claims import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    atoms_for_scope,
    atoms_of,
    parse_claim,
    print_claim,
)
from topoideal.classes import set_classes
from topoideal.core import IdealSpace, make_topology, principal_ideal, space_props
from topoideal.enumeration import BudgetExceeded, topologies
from topoideal.maps import (
    SpaceMap,
    check_pre_i_continuity_equivalences,
    identity_map,
    map_classes,
    preimage,
)
from topoideal.verify import (
    REGISTRY,
    Witness,
    _packing,
    _spaces,
    find_counterexample,
    replay_witness,
    run_theorem_suite,
)
from util import (
    MAP_CHECK_ORACLES,
    all_map_structures,
    all_spaces_bruteforce,
    all_topologies_bruteforce,
    discrete,
    pulled_back_family,
    reference_map_report,
    space_maps,
)

EVERY_WITNESS = 10 ** 6
MAP_LAWS = [cid for cid, check in REGISTRY.items() if check.scope == "maps"]


def test_map_laws_are_the_map_checks():
    assert set(MAP_LAWS) == set(MAP_CHECK_ORACLES)
    assert all(REGISTRY[cid].laws for cid in MAP_LAWS)
    # each law's atoms are what the reference traces
    for cid in MAP_LAWS:
        for text in REGISTRY[cid].laws:
            assert atoms_of(parse_claim(text)) == set(MAP_CHECK_ORACLES[cid][0]), cid


@pytest.mark.parametrize("n", [1, 2])
def test_packed_map_atoms_match_definitional_route(n):
    packing = _packing("maps", n)
    structures = all_map_structures(n)
    per_space = packing.structures
    assert len(structures) == len(all_spaces_bruteforce(n)) * per_space
    atoms = sorted(MAP_ATOMS) + sorted(atoms_for_scope("maps") - set(MAP_ATOMS))
    for si in range(0, len(structures), per_space):
        sp = structures[si][0]
        sa = SpaceAnalysis(sp)
        packed = {atom: packing.family(sa, atom) for atom in atoms}
        for bit in range(per_space):
            dom, cod, tab, flags = structures[si + bit]
            assert dom == sp
            assert packing.data(bit) == (("cod_topology", cod.opens), ("map", tab))
            for atom in atoms:
                assert (packed[atom] >> bit & 1 == 1) == flags[atom], (atom, bit)
        for atom in atoms:
            assert packed[atom] >> per_space == 0, atom


def test_map_families_match_the_pulled_back_oracle():
    # every (kind, domain family) a map atom meets on 3 points, on one packing
    packing = _MapPacking(3)
    met = {}
    for sa, _ in _spaces(3):
        for atom, (domain, kind) in MAP_ATOMS.items():
            met.setdefault((kind, domain(sa)), (sa, atom))
    for (kind, fam), (sa, atom) in met.items():
        assert packing.family(sa, atom) == pulled_back_family(sa.sp, kind, fam), (atom, sa.sp)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_initial_topologies_partition_the_structures(n):
    packing = _packing("maps", n)
    assert len(packing.initial) == len(topologies(n))
    # the masks are pairwise disjoint iff their sum is their union
    assert sum(packing.initial) == functools.reduce(operator.or_, packing.initial) == packing.full


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_map_lies_in_its_initial_topology(n):
    initial = _packing("maps", n).initial
    index = {t.opens: r for r, t in enumerate(topologies(n))}
    dom = IdealSpace(discrete(n), principal_ideal(n, 0))
    tables = itertools.product(range(n), repeat=n)
    for bit, (cod, tab) in enumerate(itertools.product(all_topologies_bruteforce(n), tables)):
        f = SpaceMap(dom, cod, tab)
        rho = make_topology(n, {preimage(f, v) for v in cod.opens})
        assert initial[index[rho.opens]] >> bit & 1, (cod.opens, tab)


def test_map_packing_past_the_budget_is_refused():
    # 6,942 topologies times 3,125 maps on 5 points: ~19 GB of initial masks
    with pytest.raises(BudgetExceeded):
        _MapPacking(5)


def test_a_witnessing_map_claim_at_five_points_needs_no_five_point_packing():
    w = find_counterexample("continuous & !i_continuous", "maps", 5)
    assert w.n == 1 and replay_witness(w)


def _classified(f):
    return map_classes(f), check_pre_i_continuity_equivalences(f)


def _onto_initial_topology(f):
    """The identity from f's domain onto f's initial topology."""
    return identity_map(f.dom, make_topology(f.dom.n, {preimage(f, v) for v in f.cod.opens}))


@pytest.mark.parametrize("n", [1, 2])
def test_a_map_classifies_as_the_identity_onto_its_initial_topology(n):
    for sp, cod, tab, _ in all_map_structures(n):
        f = SpaceMap(sp, cod, tab)
        assert _classified(f) == _classified(_onto_initial_topology(f)), (sp, cod.opens, tab)


@settings(max_examples=60, deadline=None)
@given(space_maps(min_n=3, max_n=4))
def test_a_drawn_map_classifies_as_the_identity_onto_its_initial_topology(f):
    assert _classified(f) == _classified(_onto_initial_topology(f))


def _map_cases():
    for cid in MAP_LAWS:
        directions = ("both", "fwd", "bwd") if REGISTRY[cid].directional else ("both",)
        for direction in directions:
            for hypothesis in sorted({"none", REGISTRY[cid].hypothesis}):
                yield cid, direction, hypothesis


def _token(cid, direction):
    return cid if direction == "both" else f"{cid}.{direction}"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("cid,direction,hypothesis", list(_map_cases()))
def test_map_report_matches_reference_sweep(cid, direction, hypothesis, n):
    got = run_theorem_suite(n, [_token(cid, direction)], hypothesis=hypothesis,
                            max_witnesses=EVERY_WITNESS)
    want = reference_map_report(n, cid, direction, hypothesis,
                                max_witnesses=EVERY_WITNESS)
    assert got.to_json() == want.to_json()


# One packed domain family forced to 0 per map law and direction: the map
# atom that tests it is then false on every map (the empty codomain open
# pulls back to the empty set), which breaks the leg.  tt4 gets one case per
# condition that is not cond1 by construction.
MAP_CORRUPTIONS = [
    ("tt1", "both", "pio_bits", "pre_i_continuous"),
    ("tt2", "both", "pio_bits", "pre_i_continuous"),
    ("tt3", "both", "ta.preopen_bits", "precontinuous"),
    ("tt4", "both", "pio_cover_bits", "cond2"),
    ("tt4", "both", "cl_star_nbhd_bits", "cond3"),
    ("tt7", "fwd", "sdi_bits", "star_i_continuous"),
    ("tt7", "bwd", "io_bits", "i_continuous"),
    ("tt41", "both", "ilc_bits", "i_lc_continuous"),
    ("tt43", "fwd", "ilc_bits", "i_lc_continuous"),
    ("tt43", "bwd", "ta.open_bits", "continuous"),
    ("grt1.min", "fwd", "ta.lc_bits", "lc_continuous"),
    ("grt1.min", "bwd", "ta.open_bits", "continuous"),
    ("grt1.nwd", "fwd", "ta.aset_bits", "a_continuous"),
    ("grt1.nwd", "bwd", "ta.open_bits", "continuous"),
]


def test_every_map_leg_has_a_corruption():
    legs = {(cid, d) for cid in MAP_LAWS
            for d in (("fwd", "bwd") if REGISTRY[cid].directional else ("both",))}
    assert {(cid, d) for cid, d, _, _ in MAP_CORRUPTIONS} == legs


@pytest.mark.parametrize("cid,direction,path,flag", MAP_CORRUPTIONS)
def test_corrupted_family_makes_each_map_leg_report(monkeypatch, cid, direction, path, flag):
    owner, _, name = path.rpartition(".")
    monkeypatch.setattr(TopologyAnalysis if owner else SpaceAnalysis, name,
                        property(lambda self: 0))
    hypothesis = REGISTRY[cid].hypothesis
    for n in (1, 2):
        got = run_theorem_suite(n, [_token(cid, direction)], max_witnesses=EVERY_WITNESS)
        want = reference_map_report(n, cid, direction, hypothesis,
                                    max_witnesses=EVERY_WITNESS, corrupt={flag: False})
        assert got.to_json() == want.to_json()
    assert got.results[0].violation_count > 0
    assert all(w.trace_dict()[flag] is False for w in got.results[0].witnesses)


# --- the packed search against a structure-by-structure search --------------

def _holds(node, flags):
    """Independent evaluator: recursion over the tree on plain booleans."""
    if isinstance(node, Atom):
        return flags[node.name]
    if isinstance(node, Not):
        return not _holds(node.operand, flags)
    if isinstance(node, And):
        return _holds(node.left, flags) and _holds(node.right, flags)
    if isinstance(node, Or):
        return _holds(node.left, flags) or _holds(node.right, flags)
    return not _holds(node.left, flags) or _holds(node.right, flags)


_SET_FLAGS = {}


def _set_structures(n):
    if n not in _SET_FLAGS:
        out = []
        for sp in all_spaces_bruteforce(n):
            props = space_props(sp)
            space = {name: getattr(props, name)
                     for name in ("hayashi_samuels", "submaximal", "i_strongly_irresolvable")}
            base = (("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen))
            for a in range(1 << n):
                out.append((base + (("subset", a),), {**set_classes(sp, a).as_dict(), **space}))
        _SET_FLAGS[n] = out
    return _SET_FLAGS[n]


def _map_structures(n):
    return [((("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen),
              ("cod_topology", cod.opens), ("map", tab)), flags)
            for sp, cod, tab, flags in all_map_structures(n)]


def definitional_search(node, scope, bound):
    atoms = sorted(atoms_of(node))
    for n in range(1, bound + 1):
        structures = _set_structures(n) if scope == "sets" else _map_structures(n)
        for data, flags in structures:
            if _holds(node, flags):
                return Witness(n=n, kind=scope[:-1], check_id=None, direction=None,
                               claim=print_claim(node), data=data,
                               trace=tuple((name, flags[name]) for name in atoms))
    return None


def _claims(scope):
    leaves = st.sampled_from(sorted(atoms_for_scope(scope))).map(Atom)
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda p: And(*p)),
            st.tuples(kids, kids).map(lambda p: Or(*p)),
            st.tuples(kids, kids).map(lambda p: Implies(*p)),
        ),
        max_leaves=6,
    )


@settings(max_examples=60, deadline=None)
@given(_claims("sets"), st.integers(1, 3))
def test_set_search_matches_definitional_search(node, bound):
    got = find_counterexample(node, "sets", bound)
    assert got == definitional_search(node, "sets", bound)
    assert got is None or replay_witness(got)


@settings(max_examples=60, deadline=None)
@given(_claims("maps"), st.integers(1, 2))
def test_map_search_matches_definitional_search(node, bound):
    got = find_counterexample(node, "maps", bound)
    assert got == definitional_search(node, "maps", bound)
    assert got is None or replay_witness(got)


# --- replay checks the law and the trace ----------------------------------------

def _flipped(w, i):
    trace = list(w.trace)
    name, value = trace[i]
    trace[i] = (name, not value)
    return dataclasses.replace(w, trace=tuple(trace))


WITNESSES = {
    "set_check": lambda: run_theorem_suite(3, ["tt42.fwd"], hypothesis="none").violations[0],
    "map_check": lambda: run_theorem_suite(2, ["tt43"], hypothesis="none").violations[0],
    "set_claim": lambda: find_counterexample("preopen & !pre_i_open", "sets", 2),
    "map_claim": lambda: find_counterexample("star_i_continuous & !pre_i_continuous",
                                             "maps", 3),
}


@pytest.mark.parametrize("which", sorted(WITNESSES))
def test_replay_rejects_a_flipped_trace_value(which):
    w = WITNESSES[which]()
    assert replay_witness(w)
    for i in range(len(w.trace)):
        assert not replay_witness(_flipped(w, i)), (which, w.trace[i])


def test_replay_rejects_a_trace_with_other_atoms():
    w = run_theorem_suite(2, ["tt43"], hypothesis="none").violations[0]
    assert not replay_witness(dataclasses.replace(w, trace=w.trace[1:]))
    assert not replay_witness(dataclasses.replace(w, direction="bwd"))
    assert not replay_witness(dataclasses.replace(w, direction=None))


def test_replay_of_a_carrier_only_law_needs_the_carrier():
    assert run_theorem_suite(2, ["x_always_pio"]).passed
    # {a} in the indiscrete pair with the maximal ideal is not pre-I-open,
    # but x_always_pio only claims the carrier
    fake = Witness(n=2, kind="set", check_id="x_always_pio", direction=None, claim=None,
                   data=(("topology", (0, 3)), ("ideal_gen", 3), ("subset", 1)),
                   trace=(("pre_i_open", False),))
    assert not replay_witness(fake)
    assert replay_witness(dataclasses.replace(fake, check_id=None, claim="!pre_i_open"))
