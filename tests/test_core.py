import pytest
from hypothesis import given, settings

from topoideal.core import (
    EmptyCarrier,
    IdealSpace,
    NotATopology,
    NotAnIdeal,
    alpha_topology,
    closure,
    consolidation,
    interior,
    local_function,
    make_ideal,
    make_topology,
    nowhere_dense_ideal,
    principal_ideal,
    space_props,
    star_closure,
    subspace,
    submasks,
    tau_star,
)
from util import (
    all_spaces_bruteforce,
    all_topologies_bruteforce,
    closure_oracle,
    discrete,
    indiscrete,
    interior_oracle,
    local_function_oracle,
    mask,
    relative_opens_oracle,
    s1_space,
    s2_space,
    spaces,
    tau_star_oracle,
)


def test_make_topology_s1_min_nbhd():
    topo = s1_space().topo
    assert topo.opens == (0, mask("ac"), mask("d"), mask("acd"), mask("abcd"))
    assert topo.min_nbhd == (mask("ac"), mask("abcd"), mask("ac"), mask("d"))


def test_make_topology_one_point():
    topo = make_topology(1, [0, 1])
    assert topo.opens == (0, 1)
    assert topo.min_nbhd == (1,)


def test_make_topology_missing_carrier():
    with pytest.raises(NotATopology, match="carrier"):
        make_topology(2, [0, 1])


def test_make_topology_missing_empty():
    with pytest.raises(NotATopology, match="empty"):
        make_topology(2, [1, 3])


def test_make_topology_union_witness():
    with pytest.raises(NotATopology, match="union"):
        make_topology(3, [0, mask("a"), mask("b"), mask("abc")])


def test_make_topology_intersection_witness():
    with pytest.raises(NotATopology, match="intersection"):
        make_topology(3, [0, mask("ab"), mask("bc"), mask("abc")])


def test_make_topology_order_and_duplicates():
    fam = [mask("abcd"), mask("d"), 0, mask("ac"), mask("acd"), mask("d"), 0]
    assert make_topology(4, fam) == s1_space().topo


def test_make_ideal_s1():
    ideal = make_ideal(4, [0, mask("c"), mask("d"), mask("cd")])
    assert ideal.gen == mask("cd")
    assert ideal.contains(mask("c"))
    assert not ideal.contains(mask("a"))


def test_make_ideal_minimal():
    assert make_ideal(3, [0]).gen == 0


def test_make_ideal_additivity_witness():
    with pytest.raises(NotAnIdeal, match="additivity"):
        make_ideal(3, [0, mask("a"), mask("b")])


def test_make_ideal_heredity_witness():
    with pytest.raises(NotAnIdeal, match="heredity"):
        make_ideal(3, [0, mask("ab")])


def test_ideal_family_is_powerset_of_gen():
    ideal = make_ideal(4, [0, mask("c"), mask("d"), mask("cd")])
    assert ideal.family() == (0, mask("c"), mask("d"), mask("cd"))


def test_interior_frozen_values():
    s1, s2 = s1_space(), s2_space()
    assert interior(s1.topo, mask("abc")) == mask("ac")
    assert interior(s2.topo, mask("c")) == 0
    assert interior(s1.topo, s1.topo.full) == s1.topo.full


def test_closure_frozen_values():
    s1, s2 = s1_space(), s2_space()
    assert closure(s1.topo, mask("d")) == mask("bd")
    assert closure(s2.topo, mask("a")) == s2.topo.full
    assert closure(s1.topo, 0) == 0


def test_consolidation_frozen_values():
    s1, s2 = s1_space(), s2_space()
    assert consolidation(s2.topo, mask("a")) == s2.topo.full
    assert consolidation(s1.topo, mask("d")) == mask("d")
    assert consolidation(s1.topo, s1.topo.full) == s1.topo.full


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interior_closure_match_family_scan_oracles(n):
    for topo in all_topologies_bruteforce(n):
        for a in range(1 << n):
            assert interior(topo, a) == interior_oracle(topo, a)
            assert closure(topo, a) == closure_oracle(topo, a)


def test_local_function_frozen_values():
    s1, s2 = s1_space(), s2_space()
    assert local_function(s2, mask("ac")) == s2.topo.full
    assert local_function(s2, mask("bc")) == s2.topo.full
    assert local_function(s1, mask("acd")) == mask("abc")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_local_function_equals_all_neighborhood_definition(n):
    for sp in all_spaces_bruteforce(n):
        for a in range(1 << n):
            assert local_function(sp, a) == local_function_oracle(sp, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_local_function_closed_form_and_minimal_ideal(n):
    # Principal ideals give A*(P(S)) == Cl(A minus S); S == empty gives the closure.
    for sp in all_spaces_bruteforce(n):
        for a in range(1 << n):
            assert local_function(sp, a) == closure(sp.topo, a & ~sp.ideal.gen)
            if sp.ideal.gen == 0:
                assert local_function(sp, a) == closure(sp.topo, a)


def test_star_closure_frozen_values():
    s2 = s2_space()
    assert star_closure(s2, mask("ac")) == s2.topo.full
    assert star_closure(s2, mask("c")) == mask("c")
    assert star_closure(s2, 0) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_closure_kuratowski_axioms(n):
    for sp in all_spaces_bruteforce(n):
        cl = [star_closure(sp, a) for a in range(1 << n)]
        assert cl[0] == 0
        for a in range(1 << n):
            assert a & ~cl[a] == 0
            assert cl[cl[a]] == cl[a]
            for b in range(1 << n):
                assert cl[a | b] == cl[a] | cl[b]


def test_tau_star_trivial_ideals():
    s2 = s2_space()
    minimal = IdealSpace(s2.topo, principal_ideal(3, 0))
    maximal = IdealSpace(s2.topo, principal_ideal(3, s2.topo.full))
    assert tau_star(minimal) == s2.topo
    assert tau_star(maximal).opens == discrete(3).opens


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_star_matches_base_union_oracle(n):
    for sp in all_spaces_bruteforce(n):
        star = tau_star(sp)
        assert frozenset(star.opens) == tau_star_oracle(sp)
        assert set(sp.topo.opens) <= star.opens_set
        # Validated reconstruction agrees with the trusted constructor.
        assert make_topology(n, star.opens) == star


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_star_closed_iff_local_function_inside(n):
    for sp in all_spaces_bruteforce(n):
        star = tau_star(sp)
        top = sp.topo.full
        for a in range(1 << n):
            star_closed = (top ^ a) in star.opens_set
            assert star_closed == (local_function(sp, a) & ~a == 0)


def test_alpha_topology_fixed_points():
    assert alpha_topology(discrete(3)) == discrete(3)
    assert alpha_topology(indiscrete(2)) == indiscrete(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_topology_equals_tau_star_of_nowhere_dense(n):
    for topo in all_topologies_bruteforce(n):
        sp = IdealSpace(topo, nowhere_dense_ideal(topo))
        assert alpha_topology(topo) == tau_star(sp)


def test_nowhere_dense_ideal_frozen_values():
    assert nowhere_dense_ideal(discrete(3)).gen == 0
    assert nowhere_dense_ideal(indiscrete(3)).gen == 0
    assert nowhere_dense_ideal(s1_space().topo).gen == mask("b")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nowhere_dense_ideal_is_union_of_all_nowhere_dense_sets(n):
    # a is nowhere dense iff a is below the generator (heredity downward,
    # the generator itself nowhere dense upward).
    for topo in all_topologies_bruteforce(n):
        gen = nowhere_dense_ideal(topo).gen
        for a in range(1 << n):
            nd = interior_oracle(topo, closure_oracle(topo, a)) == 0
            assert nd == (a & ~gen == 0)


def test_subspace_s1_restriction():
    sub = subspace(s1_space().topo, mask("acd"))
    assert sub.embedding == (0, 2, 3)
    # re-indexed carrier {a, c, d} -> indices 0, 1, 2
    assert sub.topo.opens == (0, 0b011, 0b100, 0b111)
    assert sub.restrict(mask("ac")) == 0b011
    assert sub.extend(0b100) == mask("d")


def test_subspace_full_carrier_is_identity():
    topo = s1_space().topo
    sub = subspace(topo, topo.full)
    assert sub.topo == topo
    assert sub.embedding == (0, 1, 2, 3)


def test_subspace_of_indiscrete_is_indiscrete():
    sub = subspace(indiscrete(3), mask("ab"))
    assert sub.topo == indiscrete(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subspace_is_the_relative_topology(n):
    for topo in all_topologies_bruteforce(n):
        for carrier in range(1, 1 << n):
            opens = relative_opens_oracle(topo, carrier)
            sub = subspace(topo, carrier)
            assert sub.topo == make_topology(bin(carrier).count("1"), opens), (topo.opens, carrier)
            assert sub.embedding == tuple(p for p in range(n) if carrier >> p & 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_alpha_topology_is_the_alpha_open_family(n):
    for topo in all_topologies_bruteforce(n):
        alpha = [m for m in range(1 << n) if m & ~interior_oracle(
            topo, closure_oracle(topo, interior_oracle(topo, m))) == 0]
        assert alpha_topology(topo) == make_topology(n, alpha), topo.opens


def test_subspace_empty_carrier():
    with pytest.raises(EmptyCarrier):
        subspace(discrete(2), 0)


def test_space_props_frozen_values():
    assert space_props(s2_space()).hayashi_samuels is True
    assert space_props(s1_space()).hayashi_samuels is False
    disc = IdealSpace(discrete(3), principal_ideal(3, 0))
    assert space_props(disc).submaximal is True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_space_props_oracles(n):
    for sp in all_spaces_bruteforce(n):
        props = space_props(sp)
        top = sp.topo.full
        # Hayashi-Samuels literal reading: no nonempty open inside the ideal.
        hs = not any(u and sp.ideal.contains(u) for u in sp.topo.opens)
        assert props.hayashi_samuels == hs
        dense_open = all(sp.topo.is_open(a)
                         for a in range(1 << n) if closure_oracle(sp.topo, a) == top)
        assert props.submaximal == dense_open
        if sp.ideal.gen == top:
            assert props.i_strongly_irresolvable is True


def test_strongly_irresolvable_minimal_ideal_reduces_to_pio_inside_tau():
    for topo in all_topologies_bruteforce(2) + all_topologies_bruteforce(3):
        sp = IdealSpace(topo, principal_ideal(topo.n, 0))
        classical = all(
            topo.is_open(a) for a in range(1 << topo.n)
            if a & ~interior(topo, star_closure(sp, a)) == 0)
        assert space_props(sp).i_strongly_irresolvable == classical


def test_submasks_ascending():
    assert list(submasks(0b101)) == [0, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


@settings(max_examples=60, deadline=None)
@given(spaces(max_n=4))
def test_random_spaces_operator_consistency(sp):
    n = sp.topo.n
    for a in range(1 << n):
        assert local_function(sp, a) == closure(sp.topo, a & ~sp.ideal.gen)
        assert interior(sp.topo, a) & ~a == 0
        assert a & ~closure(sp.topo, a) == 0
    star = tau_star(sp)
    assert set(sp.topo.opens) <= star.opens_set
