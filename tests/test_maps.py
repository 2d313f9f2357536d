import itertools

import pytest
from hypothesis import given, settings

from topoideal.analysis import SpaceAnalysis
from topoideal.core import (
    IdealSpace,
    full_mask,
    make_topology,
    nowhere_dense_ideal,
    principal_ideal,
)
from topoideal.maps import (
    CarrierMismatch,
    MissingCodomainIdeal,
    check_pre_i_continuity_equivalences,
    compose,
    identity_map,
    image,
    is_i_closed_map,
    is_i_open_map,
    make_map,
    map_classes,
    preimage,
)
from topoideal.verify import _packing
from util import (
    all_spaces_bruteforce,
    all_topologies_bruteforce,
    discrete,
    image_class_oracle,
    mask,
    s1_space,
    s2_space,
    s3_ideal,
    s3_topologies,
    s4_topology,
    space_maps,
)


def all_maps(dom_n, cod_n):
    return list(itertools.product(range(cod_n), repeat=dom_n))


def test_preimage_identity_and_constant():
    s1 = s1_space()
    f = identity_map(s1, s1.topo)
    assert preimage(f, mask("acd")) == mask("acd")
    const = make_map(s1, s1.topo, (1, 1, 1, 1))
    assert preimage(const, mask("ab")) == s1.topo.full
    assert preimage(const, mask("cd")) == 0


def test_image():
    s1 = s1_space()
    const = make_map(s1, s1.topo, (1, 1, 1, 1))
    assert image(const, mask("acd")) == mask("b")
    assert image(const, 0) == 0


def test_identity_into_sigma4_is_pre_i_continuous_not_i_continuous():
    f = identity_map(s1_space(), s4_topology())
    v = map_classes(f)
    assert v.pre_i_continuous
    assert not v.i_continuous
    assert v.continuous  # sigma4 is coarser than tau1


def test_remark_identity_maps_separate_the_three_classes():
    tau3, sigma3, nu3 = s3_topologies()
    ideal = s3_ideal()
    f = identity_map(IdealSpace(tau3, ideal), nu3)
    vf = map_classes(f)
    assert vf.star_i_continuous
    assert not vf.i_continuous
    assert not vf.pre_i_continuous
    g = identity_map(IdealSpace(sigma3, ideal), sigma3)
    vg = map_classes(g)
    assert vg.pre_i_continuous
    assert not vg.i_continuous
    assert not vg.star_i_continuous


def test_equivalence_report_examples():
    f = identity_map(s1_space(), s4_topology())
    assert check_pre_i_continuity_equivalences(f).bits == (True,) * 4

    tau3, _, nu3 = s3_topologies()
    g = identity_map(IdealSpace(tau3, s3_ideal()), nu3)
    assert check_pre_i_continuity_equivalences(g).bits == (False,) * 4

    s2 = s2_space()
    for y in range(3):
        const = make_map(s2, s2.topo, (y, y, y))
        rep = check_pre_i_continuity_equivalences(const)
        assert rep.bits == (True,) * 4 and rep.agree


@pytest.mark.parametrize("n", [1, 2])
def test_equivalence_report_four_way_agreement(n):
    for sp in all_spaces_bruteforce(n):
        for cod in all_topologies_bruteforce(n):
            for tab in all_maps(n, n):
                rep = check_pre_i_continuity_equivalences(make_map(sp, cod, tab))
                assert rep.agree
                assert rep.preimages_pre_i_open == map_classes(
                    make_map(sp, cod, tab)).pre_i_continuous


@pytest.mark.parametrize("n", [1, 2])
def test_map_class_implications_exhaustive(n):
    for sp in all_spaces_bruteforce(n):
        for cod in all_topologies_bruteforce(n):
            for tab in all_maps(n, n):
                v = map_classes(make_map(sp, cod, tab))
                assert not v.continuous or v.pre_i_continuous
                assert not v.i_continuous or v.pre_i_continuous
                assert not v.pre_i_continuous or v.precontinuous
                # decomposition of I-continuity
                assert v.i_continuous == (v.pre_i_continuous and v.star_i_continuous)
                if sp.ideal.gen == 0:
                    assert v.star_i_continuous
                    assert v.continuous == (v.precontinuous and v.lc_continuous)
                if sp.ideal.gen == nowhere_dense_ideal(sp.topo).gen:
                    assert v.continuous == (v.precontinuous and v.a_continuous)


def test_compose_identity_and_tables():
    s1 = s1_space()
    f = identity_map(s1, s1.topo)
    assert compose(f, f).table == f.table
    s2 = s2_space()
    g = make_map(s2, s1.topo, (0, 0, 3))
    h = make_map(IdealSpace(s1.topo, principal_ideal(4, 0)), s2.topo, (2, 2, 1, 0),
                 cod_ideal=s2.ideal)
    gh = compose(g, h)
    assert gh.table == (2, 2, 0)
    assert gh.dom is s2  # domain ideal space travels with the first map
    assert gh.cod is s2.topo
    assert gh.cod_ideal is s2.ideal


def test_compose_carrier_mismatch():
    s1, s2 = s1_space(), s2_space()
    f = identity_map(s1, s1.topo)
    g = identity_map(s2, s2.topo)
    with pytest.raises(CarrierMismatch):
        compose(f, g)


def test_make_map_validation():
    s2 = s2_space()
    with pytest.raises(CarrierMismatch):
        make_map(s2, s2.topo, (0, 1))
    with pytest.raises(CarrierMismatch):
        make_map(s2, s2.topo, (0, 1, 5))


def test_image_side_classes_need_codomain_ideal():
    f = identity_map(s2_space(), s2_space().topo)
    with pytest.raises(MissingCodomainIdeal):
        is_i_open_map(f)
    with pytest.raises(MissingCodomainIdeal):
        is_i_closed_map(f)
    assert map_classes(f).i_open_map is None
    assert map_classes(f).i_closed_map is None


def test_image_side_classes_with_codomain_ideal():
    disc = discrete(2)
    dom = IdealSpace(disc, principal_ideal(2, 0))
    f = identity_map(dom, disc, cod_ideal=principal_ideal(2, 0))
    v = map_classes(f)
    assert v.i_open_map is True and v.i_closed_map is True
    g = identity_map(dom, disc, cod_ideal=principal_ideal(2, full_mask(2)))
    w = map_classes(g)
    assert w.i_open_map is False and w.i_closed_map is False


def test_image_side_readings_can_differ():
    disc = discrete(2)
    dom = IdealSpace(disc, principal_ideal(2, 0))
    f = identity_map(dom, disc, cod_ideal=principal_ideal(2, full_mask(2)))
    assert is_i_open_map(f, reading="domain") is True
    assert is_i_open_map(f, reading="codomain") is False
    assert is_i_closed_map(f, reading="domain") is True
    assert is_i_closed_map(f, reading="codomain") is False


@pytest.mark.parametrize("n", [1, 2])
def test_image_side_classes_against_image_oracle(n):
    for dom in all_spaces_bruteforce(n):
        for cod in all_topologies_bruteforce(n):
            for table in all_maps(n, n):
                for gen in range(1 << n):
                    f = make_map(dom, cod, table, principal_ideal(n, gen))
                    for reading in ("codomain", "domain"):
                        assert is_i_open_map(f, reading) == image_class_oracle(
                            f, reading, closed=False)
                        assert is_i_closed_map(f, reading) == image_class_oracle(
                            f, reading, closed=True)


@settings(max_examples=300, deadline=None)
@given(space_maps(1, 4))
def test_tt4_pointwise_conditions_match_the_packed_route(f):
    packing = _packing("maps", f.dom.n)   # a _MapPacking
    ci = [t.opens for t in packing.topos].index(f.cod.opens)
    bit = ci * len(packing.tabs) + packing.tabs.index(f.table)
    sa = SpaceAnalysis(f.dom)
    report = check_pre_i_continuity_equivalences(f)
    assert packing.family(sa, "cond2") >> bit & 1 == report.pointwise_pio_witness
    assert packing.family(sa, "cond3") >> bit & 1 == report.cl_star_neighborhood
