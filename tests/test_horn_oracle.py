"""The registry's map laws against a family-containment oracle.

Every leg of a map check states Horn implications over map atoms:
premises P1 & ... => conclusions C1 & ...  A map has a map atom iff every
open of its initial topology (the preimages of the codomain's opens) lies
in the atom's domain family, and every topology on the domain's points is
the initial topology of some map (the identity into it).  So a leg fails
on a space iff some topology inside F, the intersection of the premises'
domain families, is not inside some conclusion's family.  F holds a
topology iff it holds the empty set and the carrier, and then it holds
{empty, U, carrier} for each of its members U.  The oracle therefore
predicts: the leg fails iff F holds the empty set and the carrier and is
not inside some conclusion's family.

The domain families come from set_classes, subset by subset; the oracle
reads no packed table, no map and no claim parser.  The packed route is
the compiled law evaluated on the packed map atoms of each space.
"""

import functools
import operator

import topoideal.verify as verify
from topoideal.analysis import MAP_ATOMS, SET_ATOMS
from topoideal.classes import set_classes
from topoideal.verify import REGISTRY
from util import all_spaces_bruteforce

# map atom -> the set_classes flag of its domain family; cond3 asks that
# Cl*(m) be a neighborhood of every point of m, that is m inside
# Int(Cl*(m)), which is the definition of pre-I-open
DOMAIN_FLAGS = {
    "continuous": "open", "precontinuous": "preopen", "pre_i_continuous": "pre_i_open",
    "i_continuous": "i_open", "star_i_continuous": "star_dense_in_itself",
    "lc_continuous": "locally_closed", "i_lc_continuous": "i_locally_closed",
    "a_continuous": "a_set", "beta_continuous": "beta_open",
    "cond1": "pre_i_open", "cond3": "pre_i_open",
}
CONDS = ("cond1", "cond2", "cond3", "cond4")
# tt4: the four conditions agree, that is, each implies each other
TT4 = "cond1 & cond2 & cond3 & cond4 | !cond1 & !cond2 & !cond3 & !cond4"


def map_legs() -> list[tuple[str, str]]:
    """(check id, law text) of every leg of every registry map check."""
    return [(cid, text) for cid, check in REGISTRY.items() if check.scope == "maps"
            for text in check.laws]


def implications(text: str) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(premises, conclusions) of each implication a map law states."""
    if text == TT4:
        return [((a,), (b,)) for a in CONDS for b in CONDS if a != b]
    assert not set("|!()") & set(text), text
    lhs, rhs = text.split(" => ")
    return [(tuple(lhs.split(" & ")), tuple(rhs.split(" & ")))]


def domain_families(sp) -> dict[str, set[int]]:
    """The domain family of every map atom on a space, from set_classes."""
    size, full = 1 << sp.n, sp.topo.full
    classes = [set_classes(sp, m) for m in range(size)]
    fams = {atom: {m for m, c in enumerate(classes) if getattr(c, flag)}
            for atom, flag in DOMAIN_FLAGS.items()}
    pio = fams["cond1"]
    # cond2: every point of m lies in some pre-I-open set inside m
    fams["cond2"] = {m for m in range(size)
                     if functools.reduce(operator.or_, (w for w in pio if w & ~m == 0), 0) == m}
    # cond4: closed sets pull back into the pre-I-closed family, so the
    # initial topology's opens into the complements of its members
    fams["cond4"] = {m for m in range(size) if classes[full ^ m].pre_i_closed}
    return fams


def predicted_to_fail(fams: dict[str, set[int]], text: str, full: int) -> bool:
    for premises, conclusions in implications(text):
        inside = set.intersection(*(fams[p] for p in premises))
        if {0, full} <= inside and any(not inside <= fams[c] for c in conclusions):
            return True
    return False


def verdicts(spaces, texts) -> dict[tuple[int, str], tuple[bool, bool]]:
    """Per (space index, law text): whether the packed route fails the law
    on the space, and whether the oracle predicts that it does."""
    laws = {text: verify._ClaimLaw("maps", ((None, text),)).packed[0] for text in texts}
    out = {}
    for i, sa in enumerate(spaces):
        packing = verify._packing("maps", sa.n)
        values, fams = packing.values(sa), domain_families(sa.sp)
        for text, law in laws.items():
            out[i, text] = (packing.full & ~law(values) != 0,
                            predicted_to_fail(fams, text, sa.full))
    return out


def test_oracle_reads_every_map_leg_as_horn_implications():
    texts = [text for _, text in map_legs()]
    assert len(texts) == 13
    assert {atom for text in texts for imp in implications(text) for side in imp
            for atom in side} <= set(DOMAIN_FLAGS) | {"cond2", "cond4"}


def test_map_laws_fail_exactly_where_the_families_predict():
    # every labeled space up to 3 points, every orbit representative on 4
    spaces = [verify.SpaceAnalysis(sp) for n in (1, 2, 3) for sp in all_spaces_bruteforce(n)]
    spaces += [sa for sa, _ in verify._spaces(4, orbits=True)]
    got = verdicts(spaces, [text for _, text in map_legs()])
    assert [key for key, (packed, predicted) in got.items() if packed != predicted] == []
    # not vacuous: without hypotheses some legs fail on some spaces
    assert 0 < sum(predicted for _, predicted in got.values()) < len(got)


def test_oracle_catches_a_wrong_domain_family(monkeypatch):
    # continuous read against the preopen family: tt1 then fails wherever
    # a preopen set is not pre-I-open, which the oracle does not predict
    monkeypatch.setitem(MAP_ATOMS, "continuous", (SET_ATOMS["preopen"], "opens"))
    spaces = [verify.SpaceAnalysis(sp) for n in (2, 3) for sp in all_spaces_bruteforce(n)]
    got = verdicts(spaces, [REGISTRY["tt1"].laws[0]])
    assert any(packed and not predicted for packed, predicted in got.values())
