"""Total point maps between finite spaces and their continuity classes.

A map carries its domain ideal space and a codomain topology; image-side
classes (I-open map, I-closed map) additionally need a codomain ideal,
supplied explicitly.  All classifiers test the preimage of every codomain
open against the matching set class of the domain.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

from .core import (
    FiniteTopology,
    Ideal,
    IdealSpace,
    TopoidealError,
    bits,
    closure,
    interior,
    local_function,
    star_closure,
)
from .classes import (
    is_a_set,
    is_beta_open,
    is_i_locally_closed,
    is_i_open,
    is_locally_closed,
    is_pre_i_open,
    is_preopen,
    pio_family,
    star_perfect_family,
)

class CarrierMismatch(TopoidealError):
    pass


class MissingCodomainIdeal(TopoidealError):
    pass


@dataclass(frozen=True)
class SpaceMap:
    dom: IdealSpace
    cod: FiniteTopology
    table: tuple[int, ...]
    cod_ideal: Ideal | None = None


@dataclass(frozen=True)
class MapClassVector:
    continuous: bool
    precontinuous: bool
    pre_i_continuous: bool
    i_continuous: bool
    star_i_continuous: bool
    lc_continuous: bool
    i_lc_continuous: bool
    a_continuous: bool
    beta_continuous: bool
    i_open_map: bool | None
    i_closed_map: bool | None

    def as_dict(self) -> dict[str, bool | None]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


MAP_FLAGS = tuple(f.name for f in fields(MapClassVector))


@dataclass(frozen=True)
class EquivalenceReport:
    """The four conditions equivalent to pre-I-continuity, evaluated independently."""

    preimages_pre_i_open: bool
    pointwise_pio_witness: bool
    cl_star_neighborhood: bool
    closed_preimages_pre_i_closed: bool

    @property
    def bits(self) -> tuple[bool, bool, bool, bool]:
        return astuple(self)

    @property
    def agree(self) -> bool:
        return len(set(self.bits)) == 1


def make_map(dom: IdealSpace, cod: FiniteTopology, table,
             cod_ideal: Ideal | None = None) -> SpaceMap:
    tab = tuple(table)
    if len(tab) != dom.n:
        raise CarrierMismatch(f"table has {len(tab)} entries for {dom.n} domain points")
    if any(not 0 <= y < cod.n for y in tab):
        raise CarrierMismatch(f"table image outside codomain of {cod.n} points")
    if cod_ideal is not None and cod_ideal.n != cod.n:
        raise CarrierMismatch("codomain ideal lives on a different carrier")
    return SpaceMap(dom, cod, tab, cod_ideal)


def identity_map(dom: IdealSpace, cod: FiniteTopology,
                 cod_ideal: Ideal | None = None) -> SpaceMap:
    if dom.n != cod.n:
        raise CarrierMismatch("identity needs equal carriers")
    return SpaceMap(dom, cod, tuple(range(dom.n)), cod_ideal)


def preimage(f: SpaceMap, v: int) -> int:
    out = 0
    for x, y in enumerate(f.table):
        if v >> y & 1:
            out |= 1 << x
    return out


def image(f: SpaceMap, a: int) -> int:
    out = 0
    for x in bits(a):
        out |= 1 << f.table[x]
    return out


def compose(f: SpaceMap, g: SpaceMap) -> SpaceMap:
    """g after f; the domain ideal space travels with f, the codomain with g."""
    if f.cod.n != g.dom.n:
        raise CarrierMismatch(
            f"codomain of first map has {f.cod.n} points, domain of second {g.dom.n}")
    return SpaceMap(f.dom, g.cod, tuple(g.table[y] for y in f.table), g.cod_ideal)


def is_i_open_map(f: SpaceMap, reading: str = "codomain") -> bool:
    """Images of domain opens are I-open.

    reading='codomain' tests images in the codomain ideal space (needs a
    codomain ideal); reading='domain' tests them in the domain ideal space
    on the domain topology.
    """
    if reading == "domain":
        return all(is_i_open(f.dom, image(f, u)) for u in f.dom.topo.opens)
    if f.cod_ideal is None:
        raise MissingCodomainIdeal("I-open map class needs a codomain ideal")
    cod_sp = IdealSpace(f.cod, f.cod_ideal)
    return all(is_i_open(cod_sp, image(f, u)) for u in f.dom.topo.opens)


def is_i_closed_map(f: SpaceMap, reading: str = "codomain") -> bool:
    """Images of domain closed sets are I-closed (complement I-open)."""
    if reading == "domain":
        full = f.dom.topo.full
        return all(is_i_open(f.dom, full ^ image(f, c))
                   for c in f.dom.topo.closed_sets())
    if f.cod_ideal is None:
        raise MissingCodomainIdeal("I-closed map class needs a codomain ideal")
    cod_sp = IdealSpace(f.cod, f.cod_ideal)
    full = f.cod.full
    return all(is_i_open(cod_sp, full ^ image(f, c))
               for c in f.dom.topo.closed_sets())


def map_classes(f: SpaceMap) -> MapClassVector:
    """All continuity-class flags; image-side flags are None without a codomain ideal."""
    dom, topo = f.dom, f.dom.topo
    pre = [preimage(f, v) for v in f.cod.opens]
    perfect = star_perfect_family(dom)
    return MapClassVector(
        continuous=all(topo.is_open(s) for s in pre),
        precontinuous=all(is_preopen(topo, s) for s in pre),
        pre_i_continuous=all(is_pre_i_open(dom, s) for s in pre),
        i_continuous=all(is_i_open(dom, s) for s in pre),
        star_i_continuous=all(s & ~local_function(dom, s) == 0 for s in pre),
        lc_continuous=all(is_locally_closed(topo, s) for s in pre),
        i_lc_continuous=all(is_i_locally_closed(dom, s, perfect) for s in pre),
        a_continuous=all(is_a_set(topo, s) for s in pre),
        beta_continuous=all(is_beta_open(topo, s) for s in pre),
        i_open_map=None if f.cod_ideal is None else is_i_open_map(f),
        i_closed_map=None if f.cod_ideal is None else is_i_closed_map(f),
    )


def check_pre_i_continuity_equivalences(f: SpaceMap) -> EquivalenceReport:
    """Evaluate the four pre-I-continuity conditions independently of one another."""
    dom, topo = f.dom, f.dom.topo
    cond1 = all(is_pre_i_open(dom, preimage(f, v)) for v in f.cod.opens)

    fam = pio_family(dom)
    cond2 = True
    for x in range(dom.n):
        bit = 1 << x
        for v in f.cod.opens:
            if not v >> f.table[x] & 1:
                continue
            pre_v = preimage(f, v)
            if not any(w & bit and w & ~pre_v == 0 for w in fam):
                cond2 = False
                break
        if not cond2:
            break

    cond3 = True
    for x in range(dom.n):
        bit = 1 << x
        for v in f.cod.opens:
            if not v >> f.table[x] & 1:
                continue
            nbhd = interior(topo, star_closure(dom, preimage(f, v)))
            if not nbhd & bit:
                cond3 = False
                break
        if not cond3:
            break

    dom_full = topo.full
    cond4 = all(
        is_pre_i_open(dom, dom_full ^ preimage(f, c))
        for c in f.cod.closed_sets())

    return EquivalenceReport(cond1, cond2, cond3, cond4)
