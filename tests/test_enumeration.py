import hashlib
import itertools
import random

import pytest

from topoideal.core import (
    IdealSpace,
    _topology_from_min_nbhd,
    full_mask,
    make_ideal,
    make_topology,
    principal_ideal,
    submasks,
    tau_star,
)
from topoideal.enumeration import (
    BudgetExceeded,
    CarrierTooLarge,
    _min_nbhd_tables,
    ideals,
    maps,
    topologies,
)
from util import (
    alexandrov_opens_oracle,
    all_topologies_bruteforce,
    min_nbhd_tables_oracle,
    tau_star_oracle,
    transitive_rows,
)

# sha256 of repr([(t.opens, t.min_nbhd) for n in 1..5 for t in topologies(n)]),
# recorded from the per-mask enumeration the packed one replaced
TOPOLOGIES_DIGEST = "2ca08f53dc9e80f2b394fc47e63dff9133fac201ea39df32ac10c2a963390ad8"


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355)])
def test_topology_counts(n, count):
    assert len(topologies(n)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_topology_routes_agree(n):
    # the packed preorder generator, the test suite's own family filter, and
    # the topologies of the test suite's own preorder tables
    by_preorder = sorted((_topology_from_min_nbhd(n, rows) for rows in min_nbhd_tables_oracle(n)),
                         key=lambda t: t.opens)
    assert list(topologies(n)) == all_topologies_bruteforce(n) == by_preorder


@pytest.mark.parametrize("n", [1, 2, 3])
def test_topologies_match_reflexive_transitive_relations(n):
    # third route: filter all reflexive relations for transitivity
    count = 0
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for rel_bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {(x, x) for x in range(n)} | {p for p, b in zip(pairs, rel_bits) if b}
        if all((x, w) in rel
               for x, y in rel for z, w in rel if y == z):
            count += 1
    assert count == len(topologies(n))


def test_every_emitted_topology_validates():
    for n in (1, 2, 3):
        for t in topologies(n):
            assert make_topology(n, t.opens) == t


def test_topologies_distinct_and_sorted():
    for n in (1, 2, 3, 4):
        opens = [t.opens for t in topologies(n)]
        assert opens == sorted(opens)
        assert len(set(opens)) == len(opens)


def test_topology_count_five_points():
    assert len(topologies(5)) == 6942


def test_topologies_match_pinned_digest():
    # element for element and in order, opens and tables, on 1..5 points
    data = [(t.opens, t.min_nbhd) for n in range(1, 6) for t in topologies(n)]
    assert hashlib.sha256(repr(data).encode()).hexdigest() == TOPOLOGIES_DIGEST


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_tables_match_oracle_in_order(n):
    assert _min_nbhd_tables(n) == min_nbhd_tables_oracle(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_up_closure_opens_match_oracle_on_every_table(n):
    for rows in min_nbhd_tables_oracle(n):
        assert _topology_from_min_nbhd(n, rows).opens == alexandrov_opens_oracle(rows)


def random_preorder(rng: random.Random, n: int, arrows: float) -> list[int]:
    """Min-neighborhood table of the transitive closure of a random relation
    with `arrows` expected arrows out of each point."""
    return transitive_rows(
        [sum(1 << y for y in range(n) if rng.random() < arrows / n) for _ in range(n)])


@pytest.mark.parametrize("n", range(6, 17))
def test_up_closure_opens_match_oracle_on_random_preorders(n):
    rng = random.Random(n)
    for arrows in (0.5, 1, 2):
        rows = random_preorder(rng, n, arrows)
        assert _topology_from_min_nbhd(n, rows).opens == alexandrov_opens_oracle(rows)


def test_tau_star_on_sixteen_points_matches_its_base():
    rows = random_preorder(random.Random(2), 16, 2)
    topo = make_topology(16, alexandrov_opens_oracle(rows))
    assert len(topo.opens) == 46   # neither discrete nor indiscrete
    sp = IdealSpace(topo, principal_ideal(16, 0xa006))
    assert frozenset(tau_star(sp).opens) == tau_star_oracle(sp)


def test_ideal_counts_and_bounds():
    assert len(ideals(2)) == 4
    assert len(ideals(4)) == 16
    assert ideals(3)[0].gen == 0
    assert ideals(3)[-1].gen == full_mask(3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_ideal_family_validates_and_every_valid_family_is_principal(n):
    for ideal in ideals(n):
        assert make_ideal(n, ideal.family()) == ideal
    # every union- and subset-closed family containing the empty set is P(S)
    principal_gens = {i.gen for i in ideals(n)}
    masks = list(range(1 << n))
    valid_gens = set()
    for k in range(len(masks) + 1):
        for picks in itertools.combinations(masks, k):
            fam = set(picks) | {0}
            if all(b in fam for a in fam for b in submasks(a)) and \
               all((a | b) in fam for a in fam for b in fam):
                # the union of a valid family is a member and contains all
                # others, so it is the numeric maximum
                valid_gens.add(max(fam))
    assert valid_gens == principal_gens


def test_maps_order_and_counts():
    assert len(maps(3, 3)) == 27
    assert len(maps(1, 5)) == 5
    assert maps(2, 2) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_maps_budget():
    with pytest.raises(BudgetExceeded):
        maps(16, 16)


def test_carrier_too_large():
    with pytest.raises(CarrierTooLarge):
        topologies(6)
    with pytest.raises(CarrierTooLarge):
        topologies(0)
    with pytest.raises(CarrierTooLarge):
        ideals(17)


def test_streams_deterministic_and_partitionable():
    first = topologies(3)
    second = tuple(all_topologies_bruteforce(3))
    assert first == second
    assert first[:10] + first[10:] == first
