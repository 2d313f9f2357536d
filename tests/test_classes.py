import pytest
from hypothesis import given, settings

from topoideal.analysis import SET_ATOMS, SpaceAnalysis
from topoideal.classes import (
    is_a_set,
    is_i_locally_closed,
    is_i_open,
    is_locally_closed,
    is_pre_i_open,
    pio_family,
    set_classes,
)
from topoideal.core import (
    IdealSpace,
    bits,
    full_mask,
    nowhere_dense_ideal,
    principal_ideal,
)
from util import (
    all_spaces_bruteforce,
    all_topologies_bruteforce,
    closure_oracle,
    i_locally_closed_oracle,
    indiscrete,
    interior_oracle,
    local_function_oracle,
    mask,
    s1_space,
    s2_space,
    s3_ideal,
    s3_topologies,
    spaces,
)


def test_example_open_but_not_i_open():
    s1 = s1_space()
    v = set_classes(s1, mask("acd"))
    assert v.open and v.pre_i_open and v.preopen
    assert not v.i_open


def test_example_intersection_of_pre_i_open_fails():
    s2 = s2_space()
    assert is_pre_i_open(s2, mask("ac"))
    assert is_pre_i_open(s2, mask("bc"))
    assert not is_pre_i_open(s2, mask("c"))


def test_carrier_always_pre_i_open():
    for sp in all_spaces_bruteforce(2):
        assert is_pre_i_open(sp, sp.topo.full)


def test_i_open_example_values():
    s2 = s2_space()
    assert is_i_open(s2, mask("ac"))
    maximal = IdealSpace(s2.topo, principal_ideal(3, full_mask(3)))
    for a in range(1, 8):
        assert not is_i_open(maximal, a)
    assert is_i_open(maximal, 0)


def test_star_dense_but_not_pre_i_open():
    tau3, _, _ = s3_topologies()
    sp = IdealSpace(tau3, s3_ideal())
    v = set_classes(sp, mask("a"))
    assert v.star_dense_in_itself
    assert not v.pre_i_open


def test_preopen_but_not_pre_i_open_on_indiscrete_pair():
    sp = IdealSpace(indiscrete(2), principal_ideal(2, full_mask(2)))
    v = set_classes(sp, mask("a"))
    assert v.preopen
    assert not v.pre_i_open


def test_i_locally_closed_examples():
    s2 = s2_space()
    assert is_i_locally_closed(s2, mask("ab"))
    assert not is_i_locally_closed(s2, mask("c"))
    assert is_i_locally_closed(s2, 0)


def test_empty_set_has_all_open_like_flags():
    v = set_classes(s2_space(), 0)
    assert v.open and v.closed and v.preopen and v.semi_open and v.alpha_open
    assert v.beta_open and v.regular_closed and v.locally_closed and v.a_set
    assert v.i_open and v.pre_i_open and v.star_perfect and v.i_locally_closed
    assert not v.dense


@pytest.mark.parametrize("n", [1, 2, 3])
def test_implication_lattice(n):
    for sp in all_spaces_bruteforce(n):
        for a in range(1 << n):
            v = set_classes(sp, a)
            assert not v.i_open or v.pre_i_open
            assert not v.open or v.pre_i_open
            assert not v.pre_i_open or v.preopen
            assert not v.preopen or v.beta_open
            assert not v.open or v.alpha_open
            assert not v.alpha_open or v.preopen
            if v.star_perfect:
                assert v.star_dense_in_itself and v.tau_star_closed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pio_family_under_named_ideals(n):
    for topo in all_topologies_bruteforce(n):
        preopen = tuple(a for a in range(1 << n) if
                        a & ~interior_oracle(topo, closure_oracle(topo, a)) == 0)
        minimal = IdealSpace(topo, principal_ideal(n, 0))
        maximal = IdealSpace(topo, principal_ideal(n, full_mask(n)))
        nwd = IdealSpace(topo, nowhere_dense_ideal(topo))
        assert pio_family(minimal) == preopen
        assert pio_family(maximal) == topo.opens
        assert pio_family(nwd) == preopen


@pytest.mark.parametrize("n", [1, 2, 3])
def test_i_locally_closed_specializes_to_lc_and_a_set(n):
    for topo in all_topologies_bruteforce(n):
        minimal = IdealSpace(topo, principal_ideal(n, 0))
        nwd = IdealSpace(topo, nowhere_dense_ideal(topo))
        for a in range(1 << n):
            assert is_i_locally_closed(minimal, a) == is_locally_closed(topo, a)
            assert is_i_locally_closed(nwd, a) == is_a_set(topo, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_locally_closed_and_a_set_against_pair_scan_oracles(n):
    for topo in all_topologies_bruteforce(n):
        closed = topo.closed_sets()
        regclosed = {c for c in range(1 << n)
                     if c == closure_oracle(topo, interior_oracle(topo, c))}
        for a in range(1 << n):
            lc = any(u & c == a for u in topo.opens for c in closed)
            assert is_locally_closed(topo, a) == lc
            aset = any(u & r == a for u in topo.opens for r in regclosed)
            assert is_a_set(topo, a) == aset
            # classical: the a-sets are exactly the semi-open locally closed sets
            v = set_classes(IdealSpace(topo, principal_ideal(n, 0)), a)
            assert aset == (v.semi_open and v.locally_closed)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_i_locally_closed_against_pair_scan_oracle(n):
    for sp in all_spaces_bruteforce(n):
        for a in range(1 << n):
            assert is_i_locally_closed(sp, a) == i_locally_closed_oracle(sp, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_open_iff_pio_and_ilc_on_hayashi_samuels(n):
    for sp in all_spaces_bruteforce(n):
        sa = SpaceAnalysis(sp)
        if not sa.props.hayashi_samuels:
            continue
        for a in range(1 << n):
            v = set_classes(sp, a)
            assert v.open == (v.pre_i_open and v.i_locally_closed)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_i_open_iff_pio_and_star_dense(n):
    for sp in all_spaces_bruteforce(n):
        for a in range(1 << n):
            v = set_classes(sp, a)
            assert v.i_open == (v.pre_i_open and v.star_dense_in_itself)


def test_star_perfect_collapses_open_i_open_pio():
    for sp in all_spaces_bruteforce(3):
        for a in range(8):
            v = set_classes(sp, a)
            if v.star_perfect:
                assert v.open == v.i_open == v.pre_i_open


def _assert_indexed_tables_match(sp):
    # the operator tables (l1 indexes star_t) and the families the
    # declared laws read through SET_ATOMS; every packed atom family is
    # pinned bit by bit in test_fast_route
    sa = SpaceAnalysis(sp)
    full = sp.topo.full
    every = range(1 << sp.n)
    for a in every:
        v = set_classes(sp, a)
        assert (SET_ATOMS["pre_i_open"](sa) >> a & 1 == 1) == v.pre_i_open
        assert (SET_ATOMS["pre_i_closed"](sa) >> a & 1 == 1) == v.pre_i_closed
        assert (SET_ATOMS["preopen"](sa) >> a & 1 == 1) == v.preopen
        assert sa.star_t[a] == local_function_oracle(sp, a)
        assert sa.ta.interior_t[a] == interior_oracle(sp.topo, a)
        assert sa.ta.closure_t[a] == closure_oracle(sp.topo, a)
    families = {
        "pio_family": (tuple(bits(sa.pio_bits)), "pre_i_open"),
        "perfect_family": (tuple(bits(sa.perfect_bits)), "star_perfect"),
        "preopen_family": (tuple(bits(SET_ATOMS["preopen"](sa))), "preopen"),
        "semi_family": (tuple(bits(SET_ATOMS["semi_open"](sa))), "semi_open"),
        "alpha_family": (tuple(bits(SET_ATOMS["alpha_open"](sa))), "alpha_open"),
        "closed_family": (tuple(bits(SET_ATOMS["closed"](sa))), "closed"),
    }
    for name, (family, flag) in families.items():
        want = tuple(a for a in every if getattr(set_classes(sp, a), flag))
        assert family == want, name
    assert sa.ta.regclosed_family == tuple(
        a for a in every if set_classes(sp, a).regular_closed)
    assert sa.ta.nd_gen == nowhere_dense_ideal(sp.topo).gen
    assert sa.ta.submaximal == all(sp.topo.is_open(a) for a in every
                                   if closure_oracle(sp.topo, a) == full)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_analysis_tables_match_definitional_route(n):
    for sp in all_spaces_bruteforce(n):
        _assert_indexed_tables_match(sp)


@settings(max_examples=30, deadline=None)
@given(spaces(max_n=4))
def test_analysis_tables_match_definitional_route_random(sp):
    _assert_indexed_tables_match(sp)
