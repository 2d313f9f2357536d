"""Theorem registry, exhaustive sweeps, and counterexample search.

Every numbered claim of the studied decomposition theory is bound to an
executable check.  A check has a quantifier scope (single subsets, subset
pairs, per-space family equalities, maps, or map pairs), an optional
hypothesis filter, and, for biconditionals, two directions that can be
run separately to map where each hypothesis is actually needed.

Every check is one law object that carries its own sweep over the packed
tables of a space, run, and its own replay on the definitional route.
The single-subset and single-map checks are claim laws: claims in the
grammar of topoideal.claims, one per direction, that run evaluates on the
packed atom families of one space at a time (every subset, or every
codomain and map, at once) and replay evaluates on the definitional
flags.  The lemmas over subset pairs are pair laws, the family equalities
family laws, tt5 a composition law, and l1 and isi_consistency a law
each.  The two searches run a law until its first violation: the claim
search the claim law !claim, whose first violation is the first
structure where the claim holds, and the composition search one more
composition law.

Every atom, hypothesis and check is invariant under relabeling the
points, so a sweep first runs every selected check on one domain space
per relabeling orbit, weighting its counts by the orbit's size; a check
that holds there holds on every space.  A check that fails on some
representative is swept again over every labeled domain space, in
canonical order, which gives its counts and witnesses.  Reports and first
witnesses are therefore those of a labeled sweep, reproducible byte for
byte; wall time is kept out of the machine form.
Violation witnesses carry the full instance and replay through the
definitional predicates in topoideal.classes / topoideal.maps, which is
an independent route from the sweep's precomputed tables.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from . import claims as _claims
from .analysis import SET_ATOMS, SpaceAnalysis, TopologyAnalysis, _MapPacking, _SetPacking
from .classes import pio_family, set_classes
from .core import (
    IdealSpace,
    TopoidealError,
    bits,
    local_function,
    make_topology,
    principal_ideal,
    space_props,
    subspace,
)
from .enumeration import _orbits, ideals, topologies
from .maps import (
    SpaceMap,
    check_pre_i_continuity_equivalences,
    compose,
    map_classes,
)

DEFAULT_MAX_WITNESSES = 25
SCOPE_DEFAULT_BOUND = {
    "sets": 4, "set_pairs": 4, "set_families": 4, "maps": 3, "map_pairs": 3,
}

# hypothesis -> whether a space satisfies it
_SPACE_PASSES = {
    "none": lambda sa: True,
    "hayashi_samuels": attrgetter("hayashi_samuels"),
    "submaximal": attrgetter("ta.submaximal"),
    "minimal_ideal": lambda sa: sa.sp.ideal.gen == 0,
    "maximal_ideal": lambda sa: sa.sp.ideal.gen == sa.full,
    "nowhere_dense_ideal": lambda sa: sa.sp.ideal.gen == sa.ta.nd_gen,
}
HYPOTHESES = tuple(_SPACE_PASSES)


class UnknownTheoremId(TopoidealError):
    pass


class NotDirectional(TopoidealError):
    pass


class CarrierTooLargeForSuite(TopoidealError):
    pass


# --- registry ----------------------------------------------------------------

@lru_cache(maxsize=4096)
def _unpacked(family: int, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A packed family's members, ascending, and its flag per subset; cached,
    since a pair law meets the same few families on every space of a topology."""
    flags = tuple(family >> m & 1 for m in range(size))
    return tuple(m for m in range(size) if flags[m]), flags


class _Declaration:
    """The law of a check.  run(values, found) checks one space: it appends
    (direction, data, trace) to found per violation and returns the number
    of instances visited; values is the space's SpaceAnalysis, or its packed
    map atoms if the law reads "maps", and direction is None but on a leg
    of a biconditional.  replay(sp, data) re-evaluates one instance on the
    definitional route and returns the trace of its violation, or None if
    it has none."""

    reads = "sets"
    scope_count = None   # the scope count that its visited instances make


@dataclass(frozen=True)
class _PairLaw(_Declaration):
    """first(a) & second(b) => conclusion(a op b) for every pair of subsets
    (a, b) of a space, op being union or intersection.  With `within` set
    to "first" or "second", op is intersection and the conclusion is read in
    the subspace on that subset, its carrier: run reads it off the lifted
    table of the topology, replay on the subspace itself.  Pairs with an
    empty carrier are skipped; the subspace's ideal is not read, so that
    conclusion must be a topological atom."""

    first: str
    second: str
    op: str
    conclusion: str
    within: str | None = None

    kind = "set_pair"

    def trace(self) -> tuple[tuple[str, bool], ...]:
        held = "holds_in_subspace" if self.within else f"{self.conclusion}({self.op})"
        return tuple(sorted({f"{self.first}(first)": True, f"{self.second}(second)": True,
                             held: False}.items()))

    def run(self, sa: SpaceAnalysis, found: list) -> int:
        firsts = _unpacked(SET_ATOMS[self.first](sa), sa.size)[0]
        seconds = _unpacked(SET_ATOMS[self.second](sa), sa.size)[0]
        # a comprehension per case, so no operator call per pair
        if self.within == "first":
            firsts, lifted = tuple(filter(None, firsts)), sa.ta.lifted(self.conclusion)
            bad = [(a, b) for a in firsts for b in seconds if not lifted[a] >> (a & b) & 1]
        elif self.within == "second":
            seconds, lifted = tuple(filter(None, seconds)), sa.ta.lifted(self.conclusion)
            bad = [(a, b) for a in firsts for b in seconds if not lifted[b] >> (a & b) & 1]
        else:
            holds = _unpacked(SET_ATOMS[self.conclusion](sa), sa.size)[1]
            if self.op == "union":
                bad = [(a, b) for a in firsts for b in seconds if not holds[a | b]]
            else:
                bad = [(a, b) for a in firsts for b in seconds if not holds[a & b]]
        trace = self.trace()
        found.extend((None, (("first", a), ("second", b)), trace) for a, b in bad)
        return len(firsts) * len(seconds)

    def replay(self, sp: IdealSpace, data: dict):
        a, b = data["first"], data["second"]
        if not (getattr(set_classes(sp, a), self.first)
                and getattr(set_classes(sp, b), self.second)):
            return None
        joined = a | b if self.op == "union" else a & b
        if self.within:
            carrier = a if self.within == "first" else b
            if not carrier:
                return None
            sub = subspace(sp.topo, carrier)
            sp = IdealSpace(sub.topo, principal_ideal(sub.topo.n, 0))
            joined = sub.restrict(joined)
        return None if getattr(set_classes(sp, joined), self.conclusion) else self.trace()


@dataclass(frozen=True)
class _FamilyLaw(_Declaration):
    """The pre-I-open family of a space equals the family of `atom`."""

    atom: str

    kind = "set_family"
    trace = (("families_equal", False),)

    def run(self, sa: SpaceAnalysis, found: list) -> int:
        pio, expected = SET_ATOMS["pre_i_open"](sa), SET_ATOMS[self.atom](sa)
        if pio != expected:
            found.append((None, (("expected", tuple(bits(expected))),
                                 ("pio_family", tuple(bits(pio)))), self.trace))
        return 1

    def replay(self, sp: IdealSpace, data: dict):
        pio = pio_family(sp)
        expected = tuple(m for m in range(1 << sp.n) if getattr(set_classes(sp, m), self.atom))
        recorded = data["pio_family"] == pio and data["expected"] == expected
        return self.trace if pio != expected and recorded else None


class _StarLaw(_Declaration):
    """l1: for every open U and every subset A, U & A* equals U & (U & A)*
    and lies inside (U & A)*."""

    kind = "set_pair"

    @staticmethod
    def trace(u_star_a: int, u: int, star_u_a: int) -> tuple[tuple[str, bool], ...]:
        return ("containment", u_star_a & ~star_u_a == 0), ("equality", u_star_a == u & star_u_a)

    def run(self, sa: SpaceAnalysis, found: list) -> int:
        star, opens = sa.star_t, sa.sp.topo.opens
        for u in opens:
            for a in range(sa.size):
                whole, rel = u & star[a], star[u & a]
                if whole != u & rel or whole & ~rel:
                    found.append((None, (("first", u), ("second", a)), self.trace(whole, u, rel)))
        return len(opens) * sa.size

    def replay(self, sp: IdealSpace, data: dict):
        u, a = data["first"], data["second"]
        if not sp.topo.is_open(u):
            return None
        trace = self.trace(u & local_function(sp, a), u, local_function(sp, u & a))
        return None if all(held for _, held in trace) else trace


class _IrresolvableLaw(_Declaration):
    """isi_consistency: under the maximal ideal a space is strongly
    I-irresolvable, and under the minimal ideal it is iff every pre-I-open
    set is open; spaces under other ideals are not visited."""

    kind = "set_family"

    @staticmethod
    def violation(minimal: bool, irresolvable: bool, pio_inside_tau: bool):
        """(data, trace) of a violation on a space under the minimal or the
        maximal ideal; None if there is none."""
        trace = ("i_strongly_irresolvable", irresolvable), ("pio_inside_tau", pio_inside_tau)
        if minimal:
            return None if irresolvable == pio_inside_tau else ((("ideal", "minimal"),), trace)
        return None if irresolvable else ((("ideal", "maximal"),), trace[:1])

    def run(self, sa: SpaceAnalysis, found: list) -> int:
        gen = sa.sp.ideal.gen
        if gen != 0 and gen != sa.full:
            return 0
        classical = SET_ATOMS["pre_i_open"](sa) & ~SET_ATOMS["open"](sa) == 0
        hit = self.violation(gen == 0, SET_ATOMS["i_strongly_irresolvable"](sa) != 0, classical)
        if hit:
            found.append((None, *hit))
        return 1

    def replay(self, sp: IdealSpace, data: dict):
        gen = sp.ideal.gen
        if gen != 0 and gen != sp.topo.full:
            return None
        classical = all(sp.topo.is_open(m) for m in pio_family(sp))
        hit = self.violation(gen == 0, space_props(sp).i_strongly_irresolvable, classical)
        return hit[1] if hit and hit[0] == (("ideal", data["ideal"]),) else None


@dataclass(frozen=True)
class _CompositionLaw(_Declaration):
    """first(f) & second(g) => conclusion(g . f) for every map f of a domain
    space into a middle topology and every map g of that topology into a
    codomain topology.  With middle_ideal set, g is read on every middle
    space (topology and ideal) and a witness names the middle ideal;
    without it the middle ideal is not quantified, so second must be an
    atom that does not read the ideal, and replay reads it under the
    minimal ideal."""

    first: str
    second: str
    conclusion: str
    middle_ideal: bool = False

    kind = "map_pair"
    reads = "maps"
    # the legs of a check share their hypothesis, so each visits every pair
    scope_count = "map_pairs_checked"

    def claim(self) -> str:
        return f"{self.first}(f) & {self.second}(g) & !{self.conclusion}(g . f)"

    def trace(self) -> tuple[tuple[str, bool], ...]:
        return ((f"first_{self.first}", True), (f"second_{self.second}", True),
                (f"composition_{self.conclusion}", False))

    def run(self, values: _MapValues, found: list) -> int:
        """A first hop fails iff the bits its second hops reach meet the
        conclusion's complement; only failing hops walk their pairs."""
        n, topos, tabs = values.sa.n, values.packing.topos, values.packing.tabs
        second, middle_ideal, stride = self.second, self.middle_ideal, len(tabs)
        packed, comp, _ = _second_hops(n, second, middle_ideal)
        missed = ~values[self.conclusion]
        firsts = values[self.first]
        if middle_ideal:
            # hop (si, fi) into every middle space: bits (si << n | gen, fi)
            block = (1 << stride) - 1
            copies = sum(1 << (gen * stride) for gen in range(1 << n))
            firsts = sum((firsts >> si * stride & block) * copies << (si << n) * stride
                         for si in range(len(topos)))
        visited, trace = 0, self.trace()
        for first in bits(firsts):
            mi, fi = divmod(first, stride)
            visited += packed[mi].bit_count()
            if _reach(n, second, middle_ideal, first) & missed:
                si, gen = divmod(mi, 1 << n) if middle_ideal else (mi, 0)
                mid = (("mid_topology", topos[si].opens), ("mid_ideal_gen", gen))[:1 + middle_ideal]
                for hop in bits(packed[mi]):
                    ui, gi = divmod(hop, stride)
                    if missed >> (ui * stride + comp[fi][gi]) & 1:
                        found.append((None, mid + (("map_first", tabs[fi]),
                                                   ("cod_topology", topos[ui].opens),
                                                   ("map_second", tabs[gi])), trace))
        return visited

    def replay(self, sp: IdealSpace, data: dict):
        mid = make_topology(sp.n, data["mid_topology"])
        gen = data["mid_ideal_gen"] if self.middle_ideal else 0
        f = SpaceMap(sp, mid, tuple(data["map_first"]))
        g = SpaceMap(IdealSpace(mid, principal_ideal(sp.n, gen)),
                     make_topology(sp.n, data["cod_topology"]), tuple(data["map_second"]))
        held = (getattr(map_classes(f), self.first) and getattr(map_classes(g), self.second)
                and not getattr(map_classes(compose(f, g)), self.conclusion))
        return self.trace() if held else None


# a user's claim compiles here too, so the cache is bounded
@lru_cache(maxsize=1024)
def _law(text: str, leaf) -> tuple[_claims.Packed, tuple[str, ...], tuple[_claims.Packed, ...]]:
    """A law compiled to its packed evaluator, with its atoms sorted and
    their readers."""
    ast = _claims.parse_claim(text)
    atoms = tuple(sorted(_claims.atoms_of(ast)))
    return _claims.compile_claim(ast, leaf), atoms, tuple(leaf(atom) for atom in atoms)


@lru_cache(maxsize=None)
def _trace(atoms: tuple[str, ...], flags: tuple[int, ...]) -> tuple[tuple[str, bool], ...]:
    """A witness trace, one object shared by every witness that has it."""
    return tuple((atom, flag == 1) for atom, flag in zip(atoms, flags))


class _ClaimLaw(_Declaration):
    """Laws in the grammar of topoideal.claims, claimed of every structure
    of a space: of every subset if the law reads "sets", of every codomain
    and map if it reads "maps"; with carrier_only, of the whole carrier
    alone.  legs are (witness direction, law text): the two directions of
    a biconditional, or one law with direction None.  run evaluates each
    leg on the packed values of the space, every structure at once, and
    reports the failing structures in ascending bit order, each for the
    first leg it fails; replay evaluates the same texts on the
    definitional flags of one structure."""

    def __init__(self, reads: str, legs: tuple[tuple[str | None, str], ...],
                 carrier_only: bool = False):
        packing = _SetPacking if reads == "sets" else _MapPacking
        self.reads, self.kind, self.legs, self.carrier_only = reads, packing.kind, legs, carrier_only
        # per leg: direction, packed law, sorted law atoms, their readers
        self.compiled = tuple((d, *_law(text, packing.leaf)) for d, text in legs)
        self.packed = tuple(leg[1] for leg in self.compiled)
        self.sized: dict[int, tuple] = {}   # n -> packing, checked bits, structures visited

    def run(self, values, found: list) -> int:
        # a space with no violation costs a dict lookup and one evaluation per leg
        n = values.sa.n if self.reads == "maps" else values.n
        sized = self.sized.get(n)
        if sized is None:
            packing = _packing(self.reads, n)
            sized = self.sized[n] = ((packing, 1 << packing.structures - 1, 1) if self.carrier_only
                                     else (packing, packing.full, packing.structures))
        packing, checked, visited = sized
        failing = 0
        for law in self.packed:
            failing |= checked & ~law(values)
        if failing:
            bad = [checked & ~law(values) for law in self.packed]
            for bit in bits(failing):
                direction, _, atoms, readers = next(
                    leg for leg, b in zip(self.compiled, bad) if b >> bit & 1)
                found.append((direction, packing.data(bit),
                              _trace(atoms, tuple(read(values) >> bit & 1 for read in readers))))
        return visited

    def replay(self, sp: IdealSpace, data: dict):
        if self.reads == "sets":
            if self.carrier_only and data["subset"] != sp.topo.full:
                return None
            values = set_classes(sp, data["subset"]).as_dict()
        else:
            f = SpaceMap(sp, make_topology(sp.n, data["cod_topology"]), tuple(data["map"]))
            values = {k: v for k, v in map_classes(f).as_dict().items() if v is not None}
            values.update(zip(_claims.TT4_CONDITIONS,
                              check_pre_i_continuity_equivalences(f).bits))
        props = space_props(sp)
        values.update((name, getattr(props, name)) for name in _claims.SPACE_FLAGS)
        for _, text in self.legs:
            ast = _claims.parse_claim(text)
            if not _claims.evaluate(ast, values):
                return tuple((name, values[name]) for name in sorted(_claims.atoms_of(ast)))
        return None


@dataclass(frozen=True)
class TheoremCheck:
    id: str
    scope: str
    hypothesis: str
    # the law as a claim, or its forward and backward directions; or a declaration
    laws: tuple[str | _Declaration, ...]
    description: str

    @property
    def directional(self) -> bool:
        return len(self.laws) == 2


_REGISTRY_ROWS = (
    ("t1", "sets", "none", ("i_open => pre_i_open",),
     "every I-open set is pre-I-open"),
    ("t2", "sets", "none", ("open => pre_i_open",),
     "every open set is pre-I-open"),
    ("t3", "sets", "none", ("pre_i_open => preopen",),
     "every pre-I-open set is preopen"),
    ("t4.i", "set_families", "minimal_ideal", (_FamilyLaw("preopen"),),
     "with the minimal ideal the pre-I-open sets are exactly the preopen sets"),
    ("t4.ii", "set_families", "maximal_ideal", (_FamilyLaw("open"),),
     "with the maximal ideal the pre-I-open sets are exactly the open sets"),
    ("t4.iii", "set_families", "nowhere_dense_ideal", (_FamilyLaw("preopen"),),
     "with the nowhere-dense ideal the pre-I-open sets are exactly the preopen sets"),
    ("t5.i", "set_pairs", "none",
     (_PairLaw("pre_i_open", "pre_i_open", "union", "pre_i_open"),),
     "pre-I-open sets are closed under union (pairwise; families are finite)"),
    ("t5.ii", "set_pairs", "none",
     (_PairLaw("pre_i_open", "open", "intersection", "pre_i_open"),),
     "a pre-I-open set intersected with an open set stays pre-I-open"),
    ("t5.iii", "set_pairs", "none",
     (_PairLaw("pre_i_open", "alpha_open", "intersection", "preopen"),),
     "a pre-I-open set intersected with an alpha-open set is preopen"),
    ("t5.iv", "set_pairs", "none",
     (_PairLaw("pre_i_open", "semi_open", "intersection", "semi_open", "first"),),
     "pre-I-open A and semi-open B intersect to a semi-open subset of subspace A"),
    ("t5.v", "set_pairs", "none",
     (_PairLaw("pre_i_open", "semi_open", "intersection", "preopen", "second"),),
     "pre-I-open A and semi-open B intersect to a preopen subset of subspace B"),
    ("l1", "set_pairs", "none", (_StarLaw(),),
     "for open U: U & star(A) equals U & star(U & A) and lies inside star(U & A)"),
    ("c1.i", "set_pairs", "none",
     (_PairLaw("pre_i_closed", "pre_i_closed", "intersection", "pre_i_closed"),),
     "pre-I-closed sets are closed under intersection (pairwise; families are finite)"),
    ("c1.ii", "set_pairs", "none",
     (_PairLaw("pre_i_closed", "closed", "union", "pre_i_closed"),),
     "the union of a pre-I-closed set and a closed set is pre-I-closed"),
    ("submax", "set_families", "submaximal", (_FamilyLaw("open"),),
     "on a submaximal topology the pre-I-open sets equal the opens for every ideal"),
    ("star_perfect_remark", "sets", "none",
     ("star_perfect => open & i_open & pre_i_open | !open & !i_open & !pre_i_open",),
     "for star-perfect sets: open, I-open and pre-I-open coincide"),
    ("x_always_pio", "sets", "none",
     (_ClaimLaw("sets", ((None, "pre_i_open"),), carrier_only=True),),
     "the whole carrier is always pre-I-open"),
    ("isi_consistency", "set_families", "none", (_IrresolvableLaw(),),
     "strong irresolvability holds under the maximal ideal and reduces to "
     "'pre-I-open implies open' under the minimal ideal"),
    ("tt6", "sets", "none",
     ("i_open => pre_i_open & star_dense_in_itself",
      "pre_i_open & star_dense_in_itself => i_open"),
     "I-open iff pre-I-open and star-dense-in-itself"),
    ("tt42", "sets", "hayashi_samuels",
     ("open => pre_i_open & i_locally_closed",
      "pre_i_open & i_locally_closed => open"),
     "on Hayashi-Samuels spaces: open iff pre-I-open and I-locally closed"),
    ("tt1", "maps", "none", ("continuous => pre_i_continuous",),
     "every continuous map is pre-I-continuous"),
    ("tt2", "maps", "none", ("i_continuous => pre_i_continuous",),
     "every I-continuous map is pre-I-continuous"),
    ("tt3", "maps", "none", ("pre_i_continuous => precontinuous",),
     "every pre-I-continuous map is precontinuous"),
    ("tt4", "maps", "none",
     ("cond1 & cond2 & cond3 & cond4 | !cond1 & !cond2 & !cond3 & !cond4",),
     "the four formulations of pre-I-continuity agree"),
    ("tt5.i", "map_pairs", "none",
     (_CompositionLaw("pre_i_continuous", "continuous", "pre_i_continuous"),),
     "pre-I-continuous then continuous composes to pre-I-continuous"),
    ("tt5.ii", "map_pairs", "none",
     (_CompositionLaw("pre_i_continuous", "continuous", "precontinuous"),),
     "pre-I-continuous then continuous composes to precontinuous"),
    ("tt7", "maps", "none",
     ("i_continuous => pre_i_continuous & star_i_continuous",
      "pre_i_continuous & star_i_continuous => i_continuous"),
     "I-continuous iff pre-I-continuous and star-I-continuous"),
    ("tt41", "maps", "hayashi_samuels", ("continuous => i_lc_continuous",),
     "on Hayashi-Samuels domains every continuous map is I-LC-continuous"),
    ("tt43", "maps", "hayashi_samuels",
     ("continuous => pre_i_continuous & i_lc_continuous",
      "pre_i_continuous & i_lc_continuous => continuous"),
     "on Hayashi-Samuels domains: continuous iff pre-I-continuous and I-LC-continuous"),
    ("grt1.min", "maps", "minimal_ideal",
     ("continuous => precontinuous & lc_continuous",
      "precontinuous & lc_continuous => continuous"),
     "with the minimal ideal: continuous iff precontinuous and LC-continuous"),
    ("grt1.nwd", "maps", "nowhere_dense_ideal",
     ("continuous => precontinuous & a_continuous",
      "precontinuous & a_continuous => continuous"),
     "with the nowhere-dense ideal: continuous iff precontinuous and A-continuous"),
)

REGISTRY: dict[str, TheoremCheck] = {
    row[0]: TheoremCheck(*row) for row in _REGISTRY_ROWS
}

_DIRECTIONS = ("fwd", "bwd")


@lru_cache(maxsize=None)
def _runnable(check: TheoremCheck, direction: str | None) -> _Declaration | None:
    """The law a check runs in a swept direction ("both", "fwd" or "bwd"),
    or in a witness's direction (None on a check without directions);
    None if the check has no law of that direction.  A claim runs as a
    _ClaimLaw of the check's scope."""
    if not check.directional:
        law = check.laws[0]
        if direction not in ("both", None):
            return None
        return _ClaimLaw(check.scope, ((None, law),)) if isinstance(law, str) else law
    legs = tuple((d, text) for d, text in zip(_DIRECTIONS, check.laws) if direction in ("both", d))
    return _ClaimLaw(check.scope, legs) if legs else None


def _search_law(claim: str, scope: str) -> _ClaimLaw:
    """The law whose violations are the structures of a scope that satisfy
    a claim."""
    return _ClaimLaw(scope, ((None, f"!({claim})"),))


# --- witnesses and reports ---------------------------------------------------

# slots: a report keeps up to max_witnesses per check, and without them
# each kept instance carries its own attribute dict
@dataclass(frozen=True, slots=True)
class Witness:
    n: int
    kind: str                                   # set | set_pair | set_family | map | map_pair
    check_id: str | None
    direction: str | None
    claim: str | None
    data: tuple[tuple[str, object], ...]
    trace: tuple[tuple[str, bool], ...]

    def data_dict(self) -> dict:
        return dict(self.data)

    def trace_dict(self) -> dict[str, bool]:
        return dict(self.trace)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "check_id": self.check_id,
            "direction": self.direction,
            "claim": self.claim,
            "data": {k: list(v) if isinstance(v, tuple) else v for k, v in self.data},
            "trace": dict(self.trace),
        }


@dataclass(frozen=True, slots=True)
class CheckResult:
    check_id: str
    direction: str
    hypothesis: str
    visited: int
    violation_count: int
    witnesses: tuple[Witness, ...]

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


@dataclass(frozen=True, slots=True)
class Report:
    bound: int
    selection: tuple[str, ...]
    scope_counts: tuple[tuple[str, int], ...]
    results: tuple[CheckResult, ...]
    skipped: tuple[str, ...]
    wall_time: float
    skip_reasons: tuple[str, ...] = ()   # per skipped key, for the text form

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def violations(self) -> tuple[Witness, ...]:
        return tuple(w for r in self.results for w in r.witnesses)

    def to_dict(self) -> dict:
        # machine form: deterministic, so wall time stays out
        return {
            "bound": self.bound,
            "selection": list(self.selection),
            "scope_counts": dict(self.scope_counts),
            "passed": self.passed,
            "skipped": list(self.skipped),
            "checks": [
                {
                    "id": r.check_id,
                    "direction": r.direction,
                    "hypothesis": r.hypothesis,
                    "visited": r.visited,
                    "violations": r.violation_count,
                    "passed": r.passed,
                    "witnesses": [w.as_dict() for w in r.witnesses],
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            f"suite at {self.bound} points: "
            + ", ".join(f"{k}={v}" for k, v in self.scope_counts)
            + f", wall time {self.wall_time:.2f}s"
        ]
        for r in self.results:
            status = "PASS" if r.passed else f"FAIL ({r.violation_count} violations)"
            extra = "" if r.direction == "both" else f" [{r.direction}]"
            hyp = "" if r.hypothesis == "none" else f" under {r.hypothesis}"
            lines.append(f"  {r.check_id:<20}{extra:<7} visited {r.visited:>9}{hyp:<25} {status}")
        for sk, reason in zip(self.skipped, self.skip_reasons):
            lines.append(f"  {sk:<20}        skipped ({reason})")
        return "\n".join(lines)


# --- packed atom values -------------------------------------------------------

@lru_cache(maxsize=None)
def _packing(scope: str, n: int) -> _SetPacking | _MapPacking:
    return _SetPacking(n) if scope == "sets" else _MapPacking(n)


# --- second hops of the composition laws ------------------------------------

@lru_cache(maxsize=None)
def _second_hops(n: int, second: str,
                 middle_ideal: bool) -> tuple[list[int], list[list[int]], int]:
    """The second hops of a composition law on n points, in _MapPacking's
    (codomain, map) layout: per middle space si << n | gen (per middle
    topology si without middle_ideal), the bits of the maps out of it that
    satisfy the second atom; comp[fi][gi], the index of map gi after map
    fi; and the bit (ui, 0) of every codomain ui."""
    packing = _packing("maps", n)
    tab_index = {t: i for i, t in enumerate(packing.tabs)}
    packed = [packing.family(sa, second) for sa, _ in _spaces(n)]
    if not middle_ideal:
        minimal = packed[::1 << n]
        if any(hops != minimal[i >> n] for i, hops in enumerate(packed)):
            raise TopoidealError(f"second atom {second!r} depends on the middle ideal, "
                                 "which this law does not quantify")
        packed = minimal
    comp = [[tab_index[tuple(g[y] for y in f)] for g in packing.tabs] for f in packing.tabs]
    return packed, comp, sum(1 << (ui * len(packing.tabs)) for ui in range(len(packing.topos)))


# on 3 points every first hop of both tt5 legs fits; on 4 points an entry is
# an 11 kB int, and all 90,880 first hops would take about 1 GB
@lru_cache(maxsize=4096)
def _reach(n: int, second: str, middle_ideal: bool, first: int) -> int:
    """The (codomain, composed map) bits the second hops reach after first
    hop (mi, fi), mi indexing _second_hops: the codomains each map gi
    admits, moved onto g . f."""
    packed, comp, column = _second_hops(n, second, middle_ideal)
    mi, fi = divmod(first, len(comp))
    out = 0
    for gi, hi in enumerate(comp[fi]):
        out |= (packed[mi] >> gi & column) << hi
    return out


# --- the sweep -------------------------------------------------------------------

def _space_data(sp: IdealSpace) -> tuple[tuple[str, object], ...]:
    """The space part of a witness's data."""
    return ("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen)


def _spaces(n: int, topo_lo: int = 0, topo_hi: int | None = None, orbits: bool = False):
    """(SpaceAnalysis, weight) of every ideal space on n points whose
    topology index lies in [topo_lo, topo_hi), in enumeration order, each of
    weight 1; with orbits, of the representative of every relabeling orbit
    there, weighted by the orbit's size.  The spaces on one topology share
    its TopologyAnalysis."""
    topos, ideal_list = topologies(n), ideals(n)
    topo_hi = len(topos) if topo_hi is None else topo_hi
    every = tuple((gen, 1) for gen in range(len(ideal_list)))
    for ti, gens in _orbits(n) if orbits else ((ti, every) for ti in range(topo_lo, topo_hi)):
        if topo_lo <= ti < topo_hi:
            ta = TopologyAnalysis(topos[ti])
            for gen, weight in gens:
                yield SpaceAnalysis(IdealSpace(topos[ti], ideal_list[gen]), ta), weight


def _sweep_partition(args):
    """Worker entry: every selected check on the domain spaces of one
    topology index range.  The labeled pass visits every space once.  The
    orbit pass visits the representative of every relabeling orbit and
    weights its counts by the orbit's size: every atom and hypothesis is
    invariant under relabeling, so a check that holds on a representative
    holds on its orbit, and a check that fails on one is refuted and
    dropped at once, without witnesses, for the labeled pass to sweep.
    The labeled pass counts every violation but builds witnesses only
    until a key holds max_witnesses.  Returns [visited, violations,
    witnesses] per selection key, the structure counts, and the refuted
    keys."""
    n, resolved, topo_lo, topo_hi, max_witnesses, labeled = args
    if not resolved:
        return {}, {}, set()
    # per key: structures visited, violations, kept witnesses
    acc = {key: [0, 0, []] for key, *_ in resolved}
    refuted: set[str] = set()
    runs = [(key, cid, None if hypothesis == "none" else _SPACE_PASSES[hypothesis],  # None: all pass
             _runnable(REGISTRY[cid], direction))
            for key, cid, direction, hypothesis in resolved]
    map_packing = _packing("maps", n) if any(law.reads == "maps" for *_, law in runs) else None
    spaces = 0
    found: list[tuple] = []   # (direction, data, trace) per violation of one law on one space
    for sa, weight in _spaces(n, topo_lo, topo_hi, orbits=not labeled):
        spaces += weight
        # map atoms are built on their first read, by a check the space admits
        map_values = map_packing.values(sa) if map_packing else None
        for key, cid, passes, law in runs:
            if key in refuted or passes and not passes(sa):
                continue
            entry = acc[key]
            entry[0] += law.run(map_values if law.reads == "maps" else sa, found) * weight
            if found and labeled:
                entry[1] += len(found)
                base = _space_data(sa.sp)
                entry[2] += [Witness(n=n, kind=law.kind, check_id=cid, direction=direction,
                                     claim=None, data=base + data, trace=trace)
                             for direction, data, trace in found[:max_witnesses - len(entry[2])]]
            elif found:
                refuted.add(key)
            found.clear()
    counts = {"spaces": spaces}
    if any(isinstance(law, _ClaimLaw) and law.reads == "maps" for *_, law in runs):
        counts["map_structures"] = spaces * map_packing.structures
    for key, _, _, law in runs:
        if law.scope_count:
            counts[law.scope_count] = acc[key][0]
    return acc, counts, refuted


def _merge(partials, rows) -> tuple[dict[str, list], dict[str, int]]:
    """Per-key [visited, violations, witnesses] and structure counts, summed
    over partitions in partition order."""
    counts: Counter[str] = Counter()
    merged: dict[str, list] = {key: [0, 0, []] for key, *_ in rows}
    for out, sc, _ in partials:
        counts.update(sc)
        for key, part in out.items():
            # visited and violation counts add up, witness lists concatenate
            merged[key] = [total + more for total, more in zip(merged[key], part)]
    return merged, dict(counts)


# --- selection and the public suite entry --------------------------------------

def _tokens(selection) -> list[str]:
    """The tokens of a selection, stripped; one without any selects all."""
    if isinstance(selection, str):
        selection = selection.split(",")
    return [tok.strip() for tok in selection if tok.strip()] or ["all"]


def resolve_selection(selection, direction=None, hypothesis=None):
    """Expand selection tokens into (key, id, direction, hypothesis) rows.

    Tokens: 'all', a registered id, a dotted-prefix group ('t5', 'grt1'),
    or id.fwd / id.bwd for one direction of a biconditional.
    """
    tokens = _tokens(selection)
    rows = []
    seen = set()

    def add(cid, direc):
        check = REGISTRY[cid]
        if direc != "both" and not check.directional:
            raise NotDirectional(f"check {cid} has no directions")
        hyp = hypothesis if hypothesis is not None else check.hypothesis
        hyp = {"hs": "hayashi_samuels"}.get(hyp, hyp)
        if hyp not in HYPOTHESES:
            raise TopoidealError(f"unknown hypothesis {hyp!r}")
        key = cid if direc == "both" else f"{cid}.{direc}"
        if key not in seen:
            seen.add(key)
            rows.append((key, cid, direc, hyp))

    base_direction = direction or "both"
    if base_direction not in ("both", "fwd", "bwd"):
        raise TopoidealError(f"unknown direction {base_direction!r}")
    for tok in tokens:
        if tok.endswith((".fwd", ".bwd")) and tok[:-4] in REGISTRY:
            add(tok[:-4], tok[-3:])
            continue
        group = (list(REGISTRY) if tok == "all" else [tok] if tok in REGISTRY
                 else [cid for cid in REGISTRY if cid.startswith(tok + ".")])
        if not group:
            raise UnknownTheoremId(tok)
        for cid in group:
            add(cid, base_direction if REGISTRY[cid].directional else "both")
    return rows


def _cuts(n_topos: int, jobs: int) -> list[int]:
    """Topology index bounds of the partitions of a sweep under `jobs` workers."""
    # more chunks than workers: the canonical order front-loads fine
    # topologies, which carry most of the work
    chunks = 1 if jobs == 1 else min(n_topos, jobs * 6)
    return [round(i * n_topos / chunks) for i in range(chunks + 1)]


def run_theorem_suite(bound: int, selection=("all",), *, direction=None,
                      hypothesis=None, jobs: int = 1,
                      max_witnesses: int = DEFAULT_MAX_WITNESSES,
                      allow_large: bool = False) -> Report:
    """Sweep every enumerated structure at carrier size `bound` through the
    selected checks; returns a deterministic report."""
    started = time.monotonic()
    if max_witnesses < 0:
        raise TopoidealError(f"max_witnesses must be >= 0, got {max_witnesses}")
    rows = resolve_selection(selection, direction, hypothesis)
    explicit = "all" not in _tokens(selection)
    kept, skipped = [], {}   # skipped: key -> reason
    for row in rows:
        scope = REGISTRY[row[1]].scope
        over = bound > SCOPE_DEFAULT_BOUND[scope]
        if over and not allow_large:
            if explicit:
                raise CarrierTooLargeForSuite(
                    f"check {row[1]} ({scope}) defaults to bound <= "
                    f"{SCOPE_DEFAULT_BOUND[scope]}; pass allow_large to override")
            skipped[row[0]] = "over default bound for its scope"
        # "all" skips map scopes that cannot be packed; explicit ones raise
        elif over and not (explicit or scope.startswith("set") or _MapPacking.fits(bound)):
            skipped[row[0]] = "over the map packing budget"
        else:
            kept.append(row)

    n_topos = len(topologies(bound))
    # never more workers than usable cores, whatever the caller asks for
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = max(1, min(jobs, n_topos, cores or 1))
    cuts = _cuts(n_topos, jobs)

    def sweep(pool, selected, labeled):
        args = [(bound, selected, lo, hi, max_witnesses, labeled)
                for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
        # map returns in argument order, so merging keeps the serial
        # witness order and reports stay byte-identical across job counts
        return pool.map(_sweep_partition, args) if pool else [_sweep_partition(a) for a in args]

    with contextlib.ExitStack() as stack:
        pool = None
        if jobs > 1:
            import multiprocessing as mp
            # the workers inherit the caches, so without fork the partitions run here
            if "fork" in mp.get_all_start_methods():
                _orbits(bound)   # built once, before the workers fork
                pool = stack.enter_context(mp.get_context("fork").Pool(jobs))
        orbit = sweep(pool, kept, False)
        # an orbit's members can lie in other partitions than its
        # representative, so every partition re-sweeps every refuted key
        refuted = set().union(*(part[2] for part in orbit))
        again = [row for row in kept if row[0] in refuted]
        labeled = sweep(pool, again, True) if again else []
    merged, counts = _merge(orbit, kept)
    relabeled, recounts = _merge(labeled, again)
    # the labeled pass's counts replace the orbit pass's for refuted keys
    merged.update(relabeled)
    counts.update(recounts)
    results = tuple(
        CheckResult(
            check_id=cid, direction=direc, hypothesis=hyp,
            visited=merged[key][0], violation_count=merged[key][1],
            witnesses=tuple(merged[key][2][:max_witnesses]),
        )
        for key, cid, direc, hyp in kept
    )
    return Report(
        bound=bound,
        selection=tuple(key for key, *_ in kept),
        scope_counts=tuple(sorted(counts.items())),
        results=results,
        skipped=tuple(skipped),
        wall_time=time.monotonic() - started,
        skip_reasons=tuple(skipped.values()),
    )


def check_direction(check_id: str, direction: str, hypothesis: str | None = None,
                    bound: int = 3, **kw) -> Report:
    """Run one direction of a biconditional under a caller-chosen hypothesis:
    the selection token id.fwd or id.bwd, or id itself for "both"."""
    if check_id not in REGISTRY:
        raise UnknownTheoremId(check_id)
    token = check_id if direction == "both" else f"{check_id}.{direction}"
    return run_theorem_suite(bound, [token], hypothesis=hypothesis, **kw)


# --- claim search ----------------------------------------------------------------

def _first_witness(law: _Declaration, bound: int, claim: str) -> Witness | None:
    """The first violation of law, in enumeration order over the labeled
    spaces on carriers 1..bound, as a witness of claim with the trace the
    law gives it; None when the scope is exhausted."""
    # a bound below 1 leaves nothing to search, which would read as exhausted
    if bound < 1:
        raise TopoidealError(f"search bound must be >= 1, got {bound}")
    found: list[tuple] = []
    for n in range(1, bound + 1):
        packing = _packing(law.reads, n)
        for sa, _ in _spaces(n):
            law.run(packing.values(sa), found)
            if found:
                _, data, trace = found[0]
                return Witness(n=n, kind=law.kind, check_id=None, direction=None, claim=claim,
                               data=_space_data(sa.sp) + data, trace=trace)
    return None


def find_counterexample(claim, scope: str, bound: int) -> Witness | None:
    """First structure, in enumeration order over carriers 1..bound, that
    satisfies the claim; None when the scope is exhausted.  The search
    sweeps the law !claim a space at a time, as a suite does, and stops at
    its first violation."""
    ast = _claims.parse_claim(claim) if isinstance(claim, str) else claim
    text = _claims.print_claim(ast)
    allowed = _claims.atoms_for_scope(scope)
    for name in sorted(_claims.atoms_of(ast)):
        if name not in allowed:
            raise _claims.UnknownAtom(name, f"not available in scope {scope!r}")
    return _first_witness(_search_law(text, scope), bound, text)


_COMPOSITION_SEARCH = _CompositionLaw("pre_i_continuous", "pre_i_continuous",
                                     "pre_i_continuous", middle_ideal=True)


def find_composition_counterexample(bound: int = 3) -> Witness | None:
    """First pair of pre-I-continuous maps whose composition is not
    pre-I-continuous, searching carriers 1..bound; both hops and the middle
    ideal are quantified."""
    return _first_witness(_COMPOSITION_SEARCH, bound, _COMPOSITION_SEARCH.claim())


# --- independent witness replay ----------------------------------------------------

def replay_witness(w: Witness) -> bool:
    """Re-evaluate a witness on freshly built objects through the definitional
    route; True when it still witnesses what it claims to.  A check witness
    violates its check's law in its direction, a composition-search witness
    the search's law, and a claim witness the law !claim, that is, it
    satisfies its claim."""
    data = w.data_dict()
    if w.check_id is not None:
        law = _runnable(REGISTRY[w.check_id], w.direction)
    elif w.claim == _COMPOSITION_SEARCH.claim():
        law = _COMPOSITION_SEARCH
    else:
        law = _search_law(w.claim, f"{w.kind}s") if w.kind in ("set", "map") else None
    if law is None or w.kind != law.kind:
        return False
    sp = IdealSpace(make_topology(w.n, data["topology"]), principal_ideal(w.n, data["ideal_gen"]))
    return law.replay(sp, data) == w.trace
