"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the minimal-neighborhood tables the
package computes through: interiors scan the open family, local functions
quantify over every open neighborhood, and tau_star is built from its
explicit base.  Worked spaces S1..S4 are the small examples used across
the suite.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import hypothesis.strategies as st

from topoideal.classes import pio_family, set_classes
from topoideal.core import (
    FiniteTopology,
    IdealSpace,
    full_mask,
    make_ideal,
    make_topology,
    nowhere_dense_ideal,
    principal_ideal,
    space_props,
    submasks,
)
from topoideal.maps import (
    SpaceMap,
    check_pre_i_continuity_equivalences,
    compose,
    map_classes,
    preimage,
)
from topoideal.verify import CheckResult, Report, Witness


def mask(letters: str) -> int:
    """Mask from point letters, a=0, b=1, ...  mask('acd') == 0b1101."""
    return sum(1 << (ord(c) - ord("a")) for c in letters)


def letters(m: int) -> str:
    return "".join(chr(ord("a") + i) for i in range(16) if m >> i & 1)


# Worked spaces.
def s1_space() -> IdealSpace:
    topo = make_topology(4, [0, mask("ac"), mask("d"), mask("acd"), mask("abcd")])
    return IdealSpace(topo, make_ideal(4, [0, mask("c"), mask("d"), mask("cd")]))


def s2_space() -> IdealSpace:
    topo = make_topology(3, [0, mask("ab"), mask("abc")])
    return IdealSpace(topo, principal_ideal(3, mask("c")))


def s3_topologies() -> tuple[FiniteTopology, FiniteTopology, FiniteTopology]:
    tau = make_topology(3, [0, mask("b"), mask("abc")])
    sigma = make_topology(3, [0, mask("c"), mask("abc")])
    nu = make_topology(3, [0, mask("a"), mask("abc")])
    return tau, sigma, nu


def s3_ideal():
    return principal_ideal(3, mask("c"))


def s4_topology() -> FiniteTopology:
    return make_topology(4, [0, mask("acd"), mask("abcd")])


def discrete(n: int) -> FiniteTopology:
    return make_topology(n, list(range(1 << n)))


def indiscrete(n: int) -> FiniteTopology:
    return make_topology(n, [0, full_mask(n)])


# Brute-force enumeration of every topology on n points (filter all families
# containing the empty set and the carrier for closure under union and
# intersection).  Usable up to n = 4.
def all_topologies_bruteforce(n: int) -> list[FiniteTopology]:
    top = full_mask(n)
    middles = [m for m in range(1 << n) if m not in (0, top)]
    found = []
    for picks in itertools.chain.from_iterable(
            itertools.combinations(middles, k) for k in range(len(middles) + 1)):
        fam = frozenset(picks) | {0, top}
        ok = True
        for a in fam:
            for b in fam:
                if (a | b) not in fam or (a & b) not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(make_topology(n, fam))
    found.sort(key=lambda t: t.opens)
    return found


def all_spaces_bruteforce(n: int) -> list[IdealSpace]:
    return [IdealSpace(t, principal_ideal(n, g))
            for t in all_topologies_bruteforce(n)
            for g in range(1 << n)]


# Independent operator oracles.
def interior_oracle(topo: FiniteTopology, a: int) -> int:
    out = 0
    for u in topo.opens:
        if u & ~a == 0:
            out |= u
    return out


def closure_oracle(topo: FiniteTopology, a: int) -> int:
    out = topo.full
    for c in topo.closed_sets():
        if a & ~c == 0:
            out &= c
    return out


def local_function_oracle(sp: IdealSpace, a: int) -> int:
    """Literal definition: every open neighborhood meets a outside the ideal."""
    out = 0
    for x in range(sp.topo.n):
        bit = 1 << x
        if all(u & a & ~sp.ideal.gen for u in sp.topo.opens if u & bit):
            out |= bit
    return out


def i_open_oracle(sp: IdealSpace, a: int) -> bool:
    """a lies inside Int(a*), with both operators from their oracles."""
    return a & ~interior_oracle(sp.topo, local_function_oracle(sp, a)) == 0


def image_oracle(f: SpaceMap, a: int) -> int:
    """The codomain points that some point of a maps to."""
    return sum(1 << y for y in range(f.cod.n)
               if any(a >> x & 1 and f.table[x] == y for x in range(f.dom.n)))


def image_class_oracle(f: SpaceMap, reading: str, closed: bool) -> bool:
    """I-open map (I-closed map with closed): the image of every domain
    open (closed set) is I-open (has an I-open complement) in the domain
    ideal space under reading='domain', else in the codomain ideal space."""
    sp = f.dom if reading == "domain" else IdealSpace(f.cod, f.cod_ideal)
    full = full_mask(sp.n)
    if closed:
        sources = [full_mask(f.dom.n) & ~u for u in f.dom.topo.opens]
        return all(i_open_oracle(sp, full & ~image_oracle(f, c)) for c in sources)
    return all(i_open_oracle(sp, image_oracle(f, u)) for u in f.dom.topo.opens)


def i_locally_closed_oracle(sp: IdealSpace, a: int) -> bool:
    """a == U & F for some open U and some F with F* == F, by pair scan."""
    perfect = [v for v in range(1 << sp.n) if local_function_oracle(sp, v) == v]
    return any(u & v == a for u in sp.topo.opens for v in perfect)


def tau_star_oracle(sp: IdealSpace) -> frozenset[int]:
    """Opens of tau_star from the explicit base, closed under union by fixpoint."""
    base = {u & ~e for u in sp.topo.opens for e in submasks(sp.ideal.gen)}
    opens = set(base)
    while True:
        new = {a | b for a in opens for b in opens} - opens
        if not new:
            return frozenset(opens)
        opens |= new


# The package's earlier enumeration routes, kept as oracles for the packed
# ones: Alexandrov opens tested mask by mask, and min-neighborhood tables
# grown point by point, each candidate row tested against every earlier row.
def restrict_oracle(carrier: int, a: int) -> int:
    """a & carrier re-indexed so that the points of carrier, ascending,
    become 0..k-1."""
    points = [p for p in range(carrier.bit_length()) if carrier >> p & 1]
    return sum(1 << i for i, p in enumerate(points) if a >> p & 1)


def relative_opens_oracle(topo: FiniteTopology, carrier: int) -> tuple[int, ...]:
    """The relative topology {U & carrier : U open}, open by open, re-indexed
    by restrict_oracle."""
    return tuple(sorted({restrict_oracle(carrier, u) for u in topo.opens}))


def alexandrov_opens_oracle(rows) -> tuple[int, ...]:
    """Masks holding the min-neighborhood row of each of their points."""
    n = len(rows)
    return tuple(m for m in range(1 << n)
                 if all(rows[x] & ~m == 0 for x in range(n) if m >> x & 1))


def min_nbhd_tables_oracle(n: int) -> list[tuple[int, ...]]:
    """Every preorder's min-neighborhood table, rows ascending lexicographically."""
    results: list[tuple[int, ...]] = []
    rows: list[int] = []

    def extend(x: int) -> None:
        if x == n:
            results.append(tuple(rows))
            return
        for cand in range(1 << n):
            if not cand >> x & 1:
                continue
            ok = True
            for y in range(x):
                if cand >> y & 1 and rows[y] & ~cand:
                    ok = False
                    break
                if rows[y] >> x & 1 and cand & ~rows[y]:
                    ok = False
                    break
            if ok:
                rows.append(cand)
                extend(x + 1)
                rows.pop()

    extend(0)
    return results


def transitive_rows(rows) -> list[int]:
    """Rows of a relation (row x = the points x relates to) made reflexive and
    closed under transitivity by fixpoint: a consistent min-neighborhood table."""
    rows = [row | 1 << x for x, row in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for x, row in enumerate(rows):
            acc = row
            for y in range(len(rows)):
                if row >> y & 1:
                    acc |= rows[y]
            if acc != row:
                rows[x] = acc
                changed = True
    return rows


# Random valid spaces for hypothesis: a random reflexive relation row set,
# forced transitive by fixpoint, gives a consistent min-neighborhood table.
@st.composite
def spaces(draw, min_n: int = 1, max_n: int = 4):
    n = draw(st.integers(min_n, max_n))
    rows = transitive_rows([draw(st.integers(0, full_mask(n))) for _ in range(n)])
    topo = make_topology(n, alexandrov_opens_oracle(rows))
    gen = draw(st.integers(0, full_mask(n)))
    return IdealSpace(topo, principal_ideal(n, gen))


# Random maps for hypothesis: a random domain space, the topology of a
# random space on as many points, and a random point table.
@st.composite
def space_maps(draw, min_n: int = 1, max_n: int = 4):
    dom = draw(spaces(min_n, max_n))
    cod = draw(spaces(dom.n, dom.n)).topo
    return SpaceMap(dom, cod, tuple(draw(st.integers(0, dom.n - 1)) for _ in range(dom.n)))


# Reference sweep for the per-subset checks: every subset of every space,
# classified one at a time by the definitional set_classes.  Each entry is
# (traced flags, forward violation, backward violation or None) over a flag
# dict.
SET_CHECK_ORACLES = {
    "t1": (("i_open", "pre_i_open"),
           lambda v: v["i_open"] and not v["pre_i_open"], None),
    "t2": (("open", "pre_i_open"),
           lambda v: v["open"] and not v["pre_i_open"], None),
    "t3": (("pre_i_open", "preopen"),
           lambda v: v["pre_i_open"] and not v["preopen"], None),
    "tt6": (("i_open", "pre_i_open", "star_dense_in_itself"),
            lambda v: v["i_open"] and not (v["pre_i_open"] and v["star_dense_in_itself"]),
            lambda v: v["pre_i_open"] and v["star_dense_in_itself"] and not v["i_open"]),
    "tt42": (("open", "pre_i_open", "i_locally_closed"),
             lambda v: v["open"] and not (v["pre_i_open"] and v["i_locally_closed"]),
             lambda v: v["pre_i_open"] and v["i_locally_closed"] and not v["open"]),
    "star_perfect_remark": (("star_perfect", "open", "i_open", "pre_i_open"),
                            lambda v: v["star_perfect"]
                            and not (v["open"] == v["i_open"] == v["pre_i_open"]),
                            None),
    "x_always_pio": (("pre_i_open",), lambda v: not v["pre_i_open"], None),
}
# checks claimed of the whole carrier only
CARRIER_ONLY_ORACLES = {"x_always_pio"}


def reference_set_report(n: int, check_id: str, direction: str, hypothesis: str,
                         max_witnesses: int = 25, corrupt=None) -> Report:
    """The report run_theorem_suite should give for one per-subset check.

    corrupt maps flag names to a constant that replaces the flag on every
    subset, mirroring a packed family forced to that value.
    """
    atoms, fwd, bwd = SET_CHECK_ORACLES[check_id]
    legs = [("fwd", fwd), ("bwd", bwd)] if bwd is not None else [(None, fwd)]
    if direction != "both":
        legs = [leg for leg in legs if leg[0] == direction]
    visited = violations = 0
    witnesses = []
    spaces = all_spaces_bruteforce(n)
    for sp in spaces:
        if hypothesis == "hayashi_samuels" and not space_props(sp).hayashi_samuels:
            continue
        subsets = [sp.topo.full] if check_id in CARRIER_ONLY_ORACLES else range(1 << n)
        for a in subsets:
            visited += 1
            flags = set_classes(sp, a).as_dict()
            flags.update(corrupt or {})
            for leg, violated in legs:
                if not violated(flags):
                    continue
                violations += 1
                if len(witnesses) < max_witnesses:
                    witnesses.append(Witness(
                        n=n, kind="set", check_id=check_id, direction=leg, claim=None,
                        data=(("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen),
                              ("subset", a)),
                        trace=tuple(sorted((atom, flags[atom]) for atom in atoms)),
                    ))
    key = check_id if direction == "both" else f"{check_id}.{direction}"
    return Report(
        bound=n, selection=(key,), scope_counts=(("spaces", len(spaces)),),
        results=(CheckResult(check_id, direction, hypothesis, visited, violations,
                             tuple(witnesses)),),
        skipped=(), wall_time=0.0)


# Reference sweep for the map checks: every map on n points into every
# codomain topology, classified one structure at a time by the definitional
# map_classes and check_pre_i_continuity_equivalences.
MAP_CHECK_ORACLES = {
    "tt1": (("continuous", "pre_i_continuous"),
            lambda v: v["continuous"] and not v["pre_i_continuous"], None),
    "tt2": (("i_continuous", "pre_i_continuous"),
            lambda v: v["i_continuous"] and not v["pre_i_continuous"], None),
    "tt3": (("pre_i_continuous", "precontinuous"),
            lambda v: v["pre_i_continuous"] and not v["precontinuous"], None),
    "tt4": (("cond1", "cond2", "cond3", "cond4"),
            lambda v: len({v["cond1"], v["cond2"], v["cond3"], v["cond4"]}) != 1, None),
    "tt7": (("i_continuous", "pre_i_continuous", "star_i_continuous"),
            lambda v: v["i_continuous"] and not (v["pre_i_continuous"] and v["star_i_continuous"]),
            lambda v: v["pre_i_continuous"] and v["star_i_continuous"] and not v["i_continuous"]),
    "tt41": (("continuous", "i_lc_continuous"),
             lambda v: v["continuous"] and not v["i_lc_continuous"], None),
    "tt43": (("continuous", "pre_i_continuous", "i_lc_continuous"),
             lambda v: v["continuous"] and not (v["pre_i_continuous"] and v["i_lc_continuous"]),
             lambda v: v["pre_i_continuous"] and v["i_lc_continuous"] and not v["continuous"]),
    "grt1.min": (("continuous", "precontinuous", "lc_continuous"),
                 lambda v: v["continuous"] and not (v["precontinuous"] and v["lc_continuous"]),
                 lambda v: v["precontinuous"] and v["lc_continuous"] and not v["continuous"]),
    "grt1.nwd": (("continuous", "precontinuous", "a_continuous"),
                 lambda v: v["continuous"] and not (v["precontinuous"] and v["a_continuous"]),
                 lambda v: v["precontinuous"] and v["a_continuous"] and not v["continuous"]),
}

HYPOTHESIS_ORACLES = {
    "none": lambda sp: True,
    "hayashi_samuels": lambda sp: space_props(sp).hayashi_samuels,
    "submaximal": lambda sp: space_props(sp).submaximal,
    "minimal_ideal": lambda sp: sp.ideal.gen == 0,
    "maximal_ideal": lambda sp: sp.ideal.gen == sp.topo.full,
    "nowhere_dense_ideal": lambda sp: sp.ideal.gen == nowhere_dense_ideal(sp.topo).gen,
}


def map_flags(f: SpaceMap) -> dict[str, bool]:
    """Every map atom of one map, tt4's conditions and the domain's space
    flags, from the definitional route."""
    flags = {k: v for k, v in map_classes(f).as_dict().items() if v is not None}
    flags.update(zip(("cond1", "cond2", "cond3", "cond4"),
                     check_pre_i_continuity_equivalences(f).bits))
    props = space_props(f.dom)
    flags.update(hayashi_samuels=props.hayashi_samuels, submaximal=props.submaximal,
                 i_strongly_irresolvable=props.i_strongly_irresolvable)
    return flags


@lru_cache(maxsize=None)
def all_map_structures(n: int) -> tuple:
    """(domain space, codomain topology, point table, flags) for every map
    structure on n points, in the sweep's order."""
    tables = list(itertools.product(range(n), repeat=n))
    return tuple(
        (sp, cod, tab, map_flags(SpaceMap(sp, cod, tab)))
        for sp in all_spaces_bruteforce(n)
        for cod in all_topologies_bruteforce(n)
        for tab in tables)


def pulled_back_family(sp: IdealSpace, kind: str, fam: int) -> int:
    """The (codomain, map) bits, in the sweep's order, of the maps out of sp
    whose every codomain open (kind "opens") or closed set (kind "closed")
    pulls back into the packed domain family fam, by maps.preimage one
    structure at a time."""
    out = 0
    tables = itertools.product(range(sp.n), repeat=sp.n)
    for bit, (cod, tab) in enumerate(itertools.product(all_topologies_bruteforce(sp.n), tables)):
        f = SpaceMap(sp, cod, tab)
        sets = cod.opens if kind == "opens" else cod.closed_sets()
        if all(fam >> preimage(f, v) & 1 for v in sets):
            out |= 1 << bit
    return out


def reference_map_report(n: int, check_id: str, direction: str, hypothesis: str,
                         max_witnesses: int = 25, corrupt=None) -> Report:
    """The report run_theorem_suite should give for one map check; corrupt
    forces flags as in reference_set_report."""
    atoms, fwd, bwd = MAP_CHECK_ORACLES[check_id]
    legs = [("fwd", fwd), ("bwd", bwd)] if bwd is not None else [(None, fwd)]
    if direction != "both":
        legs = [leg for leg in legs if leg[0] == direction]
    structures = all_map_structures(n)
    visited = violations = 0
    witnesses = []
    admitted = {}
    for sp, cod, tab, flags in structures:
        key = (sp.topo.opens, sp.ideal.gen)
        if key not in admitted:
            admitted[key] = HYPOTHESIS_ORACLES[hypothesis](sp)
        if not admitted[key]:
            continue
        visited += 1
        flags = {**flags, **(corrupt or {})}
        leg = next((name for name, violated in legs if violated(flags)), False)
        if leg is False:
            continue
        violations += 1
        if len(witnesses) < max_witnesses:
            witnesses.append(Witness(
                n=n, kind="map", check_id=check_id, direction=leg, claim=None,
                data=(("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen),
                      ("cod_topology", cod.opens), ("map", tab)),
                trace=tuple(sorted((atom, flags[atom]) for atom in atoms)),
            ))
    n_spaces = len(all_spaces_bruteforce(n))
    key = check_id if direction == "both" else f"{check_id}.{direction}"
    return Report(
        bound=n, selection=(key,),
        scope_counts=(("map_structures", len(structures)), ("spaces", n_spaces)),
        results=(CheckResult(check_id, direction, hypothesis, visited, violations,
                             tuple(witnesses)),),
        skipped=(), wall_time=0.0)


# Reference sweep for the pair and family laws.  A pair law (first, second,
# op, conclusion, within) says that first(a) and second(b) give
# conclusion(a op b) for every pair of subsets; with within set, the
# conclusion is read in the subspace on the first or the second subset.  A
# family law says that the pre-I-open family equals the family of its atom.
PAIR_LAW_ORACLES = {
    "t5.i": ("pre_i_open", "pre_i_open", "union", "pre_i_open", None),
    "t5.ii": ("pre_i_open", "open", "intersection", "pre_i_open", None),
    "t5.iii": ("pre_i_open", "alpha_open", "intersection", "preopen", None),
    "t5.iv": ("pre_i_open", "semi_open", "intersection", "semi_open", "first"),
    "t5.v": ("pre_i_open", "semi_open", "intersection", "preopen", "second"),
    "c1.i": ("pre_i_closed", "pre_i_closed", "intersection", "pre_i_closed", None),
    "c1.ii": ("pre_i_closed", "closed", "union", "pre_i_closed", None),
}
FAMILY_LAW_ORACLES = {
    "t4.i": "preopen", "t4.ii": "open", "t4.iii": "preopen", "submax": "open",
}
# the checks with a sweep of their own below
OTHER_SPACE_ORACLES = ("l1", "isi_consistency")


@lru_cache(maxsize=None)
def all_set_flags(n: int) -> tuple:
    """(space, flag dict of every subset) for every space on n points."""
    return tuple((sp, tuple(set_classes(sp, a).as_dict() for a in range(1 << n)))
                 for sp in all_spaces_bruteforce(n))


@lru_cache(maxsize=None)
def subspace_flags(topo: FiniteTopology, carrier: int, a: int) -> dict[str, bool]:
    """Flags of a & carrier in the subspace on carrier, under the minimal
    ideal; the subspace comes from relative_opens_oracle, not core.subspace."""
    k = bin(carrier).count("1")
    sub = IdealSpace(make_topology(k, relative_opens_oracle(topo, carrier)), principal_ideal(k, 0))
    return set_classes(sub, restrict_oracle(carrier, a)).as_dict()


def _pair_law_violations(sp, flags, check_id, drop):
    first, second, op, conclusion, within = PAIR_LAW_ORACLES[check_id]

    def has(atom, a):
        return flags[a][atom] and drop.get(atom) != a

    visited, found = 0, []
    held = "holds_in_subspace" if within else f"{conclusion}({op})"
    trace = tuple(sorted({f"{first}(first)": True, f"{second}(second)": True,
                          held: False}.items()))
    for a in range(1 << sp.n):
        for b in range(1 << sp.n):
            if not (has(first, a) and has(second, b)):
                continue
            joined = a | b if op == "union" else a & b
            if within:
                carrier = a if within == "first" else b
                if carrier == 0:
                    continue   # no subspace on the empty set
                held = (subspace_flags(sp.topo, carrier, joined)[conclusion]
                        and drop.get(conclusion) != restrict_oracle(carrier, joined))
            else:
                held = has(conclusion, joined)
            visited += 1
            if not held:
                found.append(("set_pair", (("first", a), ("second", b)), trace))
    return visited, found


def _l1_violations(sp, star):
    """l1 pair by pair: for open U, U & A* == U & (U & A)* <= (U & A)*."""
    found = []
    for u in sp.topo.opens:
        for a in range(1 << sp.n):
            whole, rel = u & star(sp, a), star(sp, u & a)
            equality, containment = whole == u & rel, whole & ~rel == 0
            if not (equality and containment):
                found.append(("set_pair", (("first", u), ("second", a)),
                              (("containment", containment), ("equality", equality))))
    return len(sp.topo.opens) << sp.n, found


def _isi_violations(sp, flip):
    """isi_consistency on a space under the maximal or the minimal ideal,
    strong irresolvability read as "every pre-I-open set is tau-star open"."""
    gen, full = sp.ideal.gen, sp.topo.full
    if gen not in (0, full):
        return 0, []
    pio = pio_family(sp)
    isi = (set(pio) <= tau_star_oracle(sp)) != ("i_strongly_irresolvable" in flip)
    if gen == full:
        found = [] if isi else [("set_family", (("ideal", "maximal"),),
                                 (("i_strongly_irresolvable", False),))]
    else:
        classical = all(sp.topo.is_open(a) for a in pio)
        found = [] if isi == classical else [
            ("set_family", (("ideal", "minimal"),),
             (("i_strongly_irresolvable", isi), ("pio_inside_tau", classical)))]
    return 1, found


def reference_pair_report(n: int, check_id: str, hypothesis: str, max_witnesses: int = 25,
                          drop=None, star=local_function_oracle, flip=()) -> Report:
    """The report run_theorem_suite should give for one pair or family law,
    l1 or isi_consistency: pair laws and l1 pair by pair, the others space
    by space, from set_classes, pio_family and the oracles above.

    Corruptions mirror a table of the sweep: drop maps a flag name to one
    subset whose flag is forced false on every space (and subspace), star
    replaces the local function, and flip lists space flags to negate."""
    visited = violations = 0
    witnesses = []
    spaces = all_set_flags(n)
    for sp, flags in spaces:
        if not HYPOTHESIS_ORACLES[hypothesis](sp):
            continue
        space = (("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen))
        if check_id == "l1":
            count, found = _l1_violations(sp, star)
        elif check_id == "isi_consistency":
            count, found = _isi_violations(sp, flip)
        elif check_id in FAMILY_LAW_ORACLES:
            count, found = 1, []
            pio = pio_family(sp)
            expected = tuple(a for a in range(1 << n) if flags[a][FAMILY_LAW_ORACLES[check_id]])
            if pio != expected:
                found.append(("set_family", (("expected", expected), ("pio_family", pio)),
                              (("families_equal", False),)))
        else:
            count, found = _pair_law_violations(sp, flags, check_id, drop or {})
        visited += count
        for kind, data, trace in found:
            violations += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(Witness(n=n, kind=kind, check_id=check_id, direction=None,
                                         claim=None, data=space + data, trace=trace))
    return Report(
        bound=n, selection=(check_id,), scope_counts=(("spaces", len(spaces)),),
        results=(CheckResult(check_id, "both", hypothesis, visited, violations,
                             tuple(witnesses)),),
        skipped=(), wall_time=0.0)


# Reference sweep for the composition laws (first, second, conclusion):
# first(f) and second(g) give conclusion(g . f) for every map f of a domain
# space into a middle topology and every map g of it into a codomain
# topology, the middle ideal being the minimal one, or with middle_ideal
# every ideal on the middle topology.
COMPOSITION_LAW_ORACLES = {
    "tt5.i": ("pre_i_continuous", "continuous", "pre_i_continuous"),
    "tt5.ii": ("pre_i_continuous", "continuous", "precontinuous"),
}


def composition_pairs(n: int, law, hypothesis: str = "none", middle_ideal: bool = False):
    """Every pair a composition law visits on n points, in the sweep's
    order (domain space, middle topology, middle ideal, first map,
    codomain, second map), pair by pair through map_classes: its witness
    data and whether g . f has the conclusion.  Lazy, so a search can stop
    at its first violation."""
    first, second, conclusion = law
    topos = all_topologies_bruteforce(n)
    tables = list(itertools.product(range(n), repeat=n))
    gens = range(1 << n) if middle_ideal else (0,)
    seconds = {}   # (middle, ideal, codomain, table) -> g, second(g); no domain space reads it

    def second_hop(mid, gen, cod, tab):
        key = mid.opens, gen, cod.opens, tab
        if key not in seconds:
            g = SpaceMap(IdealSpace(mid, principal_ideal(n, gen)), cod, tab)
            seconds[key] = g, getattr(map_classes(g), second)
        return seconds[key]

    for sp in all_spaces_bruteforce(n):
        if not HYPOTHESIS_ORACLES[hypothesis](sp):
            continue
        for mid in topos:
            for gen in gens:
                mid_data = (("mid_topology", mid.opens),) + (
                    (("mid_ideal_gen", gen),) if middle_ideal else ())
                for f_tab in tables:
                    f = SpaceMap(sp, mid, f_tab)
                    if not getattr(map_classes(f), first):
                        continue
                    for cod in topos:
                        for g_tab in tables:
                            g, admitted = second_hop(mid, gen, cod, g_tab)
                            if admitted:
                                yield ((("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen))
                                       + mid_data + (("map_first", f_tab),
                                                     ("cod_topology", cod.opens),
                                                     ("map_second", g_tab)),
                                       getattr(map_classes(compose(f, g)), conclusion))


def reference_composition_report(n: int, check_id: str, hypothesis: str,
                                 max_witnesses: int = 25, law=None,
                                 middle_ideal: bool = False) -> Report:
    """The report run_theorem_suite should give for one composition law,
    pair by pair through map_classes; law replaces the check's atoms, and
    middle_ideal quantifies the middle ideal as well."""
    law = law or COMPOSITION_LAW_ORACLES[check_id]
    trace = ((f"first_{law[0]}", True), (f"second_{law[1]}", True),
             (f"composition_{law[2]}", False))
    visited = violations = 0
    witnesses = []
    for data, held in composition_pairs(n, law, hypothesis, middle_ideal):
        visited += 1
        if held:
            continue
        violations += 1
        if len(witnesses) < max_witnesses:
            witnesses.append(Witness(n=n, kind="map_pair", check_id=check_id, direction=None,
                                     claim=None, data=data, trace=trace))
    return Report(
        bound=n, selection=(check_id,),
        scope_counts=(("map_pairs_checked", visited),
                      ("spaces", len(all_spaces_bruteforce(n)))),
        results=(CheckResult(check_id, "both", hypothesis, visited, violations,
                             tuple(witnesses)),),
        skipped=(), wall_time=0.0)
