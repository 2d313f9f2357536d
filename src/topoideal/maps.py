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


def _images_i_open(f: SpaceMap, reading: str, closed: bool) -> bool:
    """Whether the images of the domain opens, or of the domain closed sets
    complemented, are I-open in the ideal space that reading names."""
    if reading == "domain":
        sp = f.dom
    elif f.cod_ideal is None:
        raise MissingCodomainIdeal(
            f"I-{'closed' if closed else 'open'} map class needs a codomain ideal")
    else:
        sp = IdealSpace(f.cod, f.cod_ideal)
    sets, full = (f.dom.topo.closed_sets(), sp.topo.full) if closed else (f.dom.topo.opens, 0)
    return all(is_i_open(sp, full ^ image(f, s)) for s in sets)


def is_i_open_map(f: SpaceMap, reading: str = "codomain") -> bool:
    """Images of domain opens are I-open.

    reading='codomain' tests images in the codomain ideal space (needs a
    codomain ideal); reading='domain' tests them in the domain ideal space
    on the domain topology.
    """
    return _images_i_open(f, reading, closed=False)


def is_i_closed_map(f: SpaceMap, reading: str = "codomain") -> bool:
    """Images of domain closed sets are I-closed (complement I-open)."""
    return _images_i_open(f, reading, closed=True)


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

    # (point bit, preimage of V) for each point x and codomain open V around f(x)
    around = [(1 << x, preimage(f, v)) for x in range(dom.n) for v in f.cod.opens
              if v >> f.table[x] & 1]
    fam = pio_family(dom)
    cond2 = all(any(w & bit and w & ~pre_v == 0 for w in fam) for bit, pre_v in around)
    cond3 = all(interior(topo, star_closure(dom, pre_v)) & bit for bit, pre_v in around)

    dom_full = topo.full
    cond4 = all(
        is_pre_i_open(dom, dom_full ^ preimage(f, c))
        for c in f.cod.closed_sets())

    return EquivalenceReport(cond1, cond2, cond3, cond4)
