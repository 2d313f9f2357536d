"""Theorem registry, exhaustive sweeps, and counterexample search.

Every numbered claim of the studied decomposition theory is bound to an
executable check.  A check has a quantifier scope (single subsets, subset
pairs, per-space family equalities, maps, or map pairs), an optional
hypothesis filter, and, for biconditionals, two directions that can be
run separately to map where each hypothesis is actually needed.

Every single-subset and single-map check is a law: a claim in the grammar
of topoideal.claims, one per direction.  The sweep evaluates a law on the
packed atom families of one space at a time (every subset, or every
codomain and map, at once) and reports where it fails; the claim search
reports the first structure where a claim holds, on the same packed
values; replay evaluates the same text on the definitional flags.

Sweeps enumerate every labeled structure at a fixed carrier size in
canonical order, so reports and first witnesses are reproducible
byte for byte; wall time is therefore kept out of the machine form.
Violation witnesses carry the full instance and replay through the
definitional predicates in topoideal.classes / topoideal.maps, which is
an independent route from the sweep's precomputed tables.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from . import claims as _claims
from .analysis import MAP_ATOMS, SET_ATOMS, SpaceAnalysis, TopologyAnalysis, family_bits
from .classes import (
    is_alpha_open,
    is_pre_i_open,
    is_preopen,
    is_semi_open,
    pio_family,
    set_classes,
)
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
from .enumeration import ideals, maps, topologies
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

HYPOTHESES = (
    "none", "hayashi_samuels", "submaximal",
    "minimal_ideal", "maximal_ideal", "nowhere_dense_ideal",
)


class UnknownTheoremId(TopoidealError):
    pass


class NotDirectional(TopoidealError):
    pass


class CarrierTooLargeForSuite(TopoidealError):
    pass


# --- registry ----------------------------------------------------------------

@dataclass(frozen=True)
class TheoremCheck:
    id: str
    scope: str
    hypothesis: str
    laws: tuple[str, ...]       # the law, or its forward and backward directions
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
    ("t4.i", "set_families", "minimal_ideal", (),
     "with the minimal ideal the pre-I-open sets are exactly the preopen sets"),
    ("t4.ii", "set_families", "maximal_ideal", (),
     "with the maximal ideal the pre-I-open sets are exactly the open sets"),
    ("t4.iii", "set_families", "nowhere_dense_ideal", (),
     "with the nowhere-dense ideal the pre-I-open sets are exactly the preopen sets"),
    ("t5.i", "set_pairs", "none", (),
     "pre-I-open sets are closed under union (pairwise; families are finite)"),
    ("t5.ii", "set_pairs", "none", (),
     "a pre-I-open set intersected with an open set stays pre-I-open"),
    ("t5.iii", "set_pairs", "none", (),
     "a pre-I-open set intersected with an alpha-open set is preopen"),
    ("t5.iv", "set_pairs", "none", (),
     "pre-I-open A and semi-open B intersect to a semi-open subset of subspace A"),
    ("t5.v", "set_pairs", "none", (),
     "pre-I-open A and semi-open B intersect to a preopen subset of subspace B"),
    ("l1", "set_pairs", "none", (),
     "for open U: U & star(A) equals U & star(U & A) and lies inside star(U & A)"),
    ("c1.i", "set_pairs", "none", (),
     "pre-I-closed sets are closed under intersection (pairwise; families are finite)"),
    ("c1.ii", "set_pairs", "none", (),
     "the union of a pre-I-closed set and a closed set is pre-I-closed"),
    ("submax", "set_families", "submaximal", (),
     "on a submaximal topology the pre-I-open sets equal the opens for every ideal"),
    ("star_perfect_remark", "sets", "none",
     ("star_perfect => open & i_open & pre_i_open | !open & !i_open & !pre_i_open",),
     "for star-perfect sets: open, I-open and pre-I-open coincide"),
    ("x_always_pio", "sets", "none", ("pre_i_open",),
     "the whole carrier is always pre-I-open"),
    ("isi_consistency", "set_families", "none", (),
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
    ("tt5.i", "map_pairs", "none", (),
     "pre-I-continuous then continuous composes to pre-I-continuous"),
    ("tt5.ii", "map_pairs", "none", (),
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

# laws claimed of the whole carrier only, not of every subset
_CARRIER_ONLY = frozenset({"x_always_pio"})
_DIRECTIONS = ("fwd", "bwd")


@lru_cache(maxsize=None)
def _law(text: str, leaf) -> tuple[_claims.Packed, tuple[str, ...], tuple[_claims.Packed, ...]]:
    """A law compiled to its packed evaluator, with its atoms sorted and
    their readers."""
    ast = _claims.parse_claim(text)
    atoms = tuple(sorted(_claims.atoms_of(ast)))
    return _claims.compile_claim(ast, leaf), atoms, tuple(leaf(atom) for atom in atoms)


def _law_text(check: TheoremCheck, direction: str | None) -> str | None:
    """The law a witness of this direction violates; None if there is none."""
    if check.directional:
        return dict(zip(_DIRECTIONS, check.laws)).get(direction)
    return check.laws[0] if check.laws and direction is None else None


def _space_passes(sa: SpaceAnalysis, hypothesis: str) -> bool:
    if hypothesis == "none":
        return True
    if hypothesis == "hayashi_samuels":
        return sa.hayashi_samuels
    if hypothesis == "submaximal":
        return sa.ta.submaximal
    if hypothesis == "minimal_ideal":
        return sa.sp.ideal.gen == 0
    if hypothesis == "maximal_ideal":
        return sa.sp.ideal.gen == sa.full
    if hypothesis == "nowhere_dense_ideal":
        return sa.sp.ideal.gen == sa.ta.nd_gen
    raise TopoidealError(f"unknown hypothesis {hypothesis!r}")


# --- witnesses and reports ---------------------------------------------------

# slots: a sweep builds one per violation (97,602 on the map suite at 3
# points without hypotheses), and without them each instance allocates its
# attribute storage separately
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Report:
    bound: int
    selection: tuple[str, ...]
    scope_counts: tuple[tuple[str, int], ...]
    results: tuple[CheckResult, ...]
    skipped: tuple[str, ...]
    wall_time: float

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
        for sk in self.skipped:
            lines.append(f"  {sk:<20}        skipped (over default bound for its scope)")
        return "\n".join(lines)


# --- packed atom values -------------------------------------------------------

class _SetPacking:
    """Set atoms of one space packed over its subsets: bit a is subset a.
    Laws read them straight off the SpaceAnalysis, whose lazy tables build
    each family on first use."""

    kind = "set"
    leaf = SET_ATOMS.__getitem__

    def __init__(self, n: int):
        self.structures = 1 << n
        self.full = (1 << self.structures) - 1
        self.subset_data = [(("subset", a),) for a in range(self.structures)]

    def values(self, sa: SpaceAnalysis) -> SpaceAnalysis:
        return sa

    def data(self, bit: int) -> tuple[tuple[str, object], ...]:
        return self.subset_data[bit]


@lru_cache(maxsize=None)
def _preimage_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """preimage mask of every codomain mask, for every point table on n points."""
    return tuple(
        tuple(sum(1 << x for x in range(n) if m >> tab[x] & 1) for m in range(1 << n))
        for tab in maps(n, n))


class _MapPacking:
    """Map atoms of one domain space packed over (codomain, map) on n points:
    bit ci * len(tabs) + mi is point table tabs[mi] into topology topos[ci],
    so ascending bits follow the enumeration order.

    A map atom holds iff every codomain set of its kind (opens, or closed
    sets) pulls back into its domain family.  For one map the codomain
    masks that pull back form a mask `good`, and the codomains it admits,
    spread to their bit positions, are cached per `good`.
    """

    kind = "map"
    leaf = itemgetter
    # entries per kind: every mask on 3 points fits, so only n = 4, where an
    # entry is an 11 kB int, ever clears the cache
    SPREAD_CACHE_LIMIT = 256

    def __init__(self, n: int):
        self.topos = topologies(n)
        self.tabs = maps(n, n)
        self.preims = _preimage_tables(n)
        self.structures = len(self.topos) * len(self.tabs)
        self.full = (1 << self.structures) - 1
        self.cod_families = {
            "opens": [family_bits(t.opens) for t in self.topos],
            "closed": [family_bits(t.closed_sets()) for t in self.topos],
        }
        self.spreads: dict[str, dict[int, int]] = {"opens": {}, "closed": {}}
        self.cod_data = [("cod_topology", t.opens) for t in self.topos]
        self.map_data = [("map", tab) for tab in self.tabs]

    def values(self, sa: SpaceAnalysis) -> _MapValues:
        return _MapValues(self, sa)

    def family(self, sa: SpaceAnalysis, atom: str) -> int:
        if atom in _claims.SPACE_FLAGS:
            return self.full if SET_ATOMS[atom](sa) else 0
        domain, kind = MAP_ATOMS[atom]
        fam = domain(sa)
        spread = self.spreads[kind]
        out = 0
        for mi, pt in enumerate(self.preims):
            good = 0
            for v, p in enumerate(pt):
                if fam >> p & 1:
                    good |= 1 << v
            packed = spread.get(good)
            if packed is None:
                if len(spread) >= self.SPREAD_CACHE_LIMIT:
                    spread.clear()
                packed = spread[good] = self._spread(kind, good)
            out |= packed << mi
        return out

    def _spread(self, kind: str, good: int) -> int:
        stride = len(self.tabs)
        out = 0
        for ci, fam in enumerate(self.cod_families[kind]):
            if fam & ~good == 0:
                out |= 1 << (ci * stride)
        return out

    def data(self, bit: int) -> tuple[tuple[str, object], ...]:
        ci, mi = divmod(bit, len(self.tabs))
        return self.cod_data[ci], self.map_data[mi]


class _MapValues(dict):
    """Packed map atoms of one domain space, each built on first read."""

    def __init__(self, packing: _MapPacking, sa: SpaceAnalysis):
        self.packing, self.sa = packing, sa

    def __missing__(self, atom: str) -> int:
        value = self[atom] = self.packing.family(self.sa, atom)
        return value


@lru_cache(maxsize=None)
def _packing(scope: str, n: int) -> _SetPacking | _MapPacking:
    return _SetPacking(n) if scope == "sets" else _MapPacking(n)


# --- pair and family checks ---------------------------------------------------

def _run_set_check(check: TheoremCheck, sa: SpaceAnalysis, found: list) -> int:
    """Run one space's worth of instances of a check without a law; returns
    the number visited.  Each violation is appended to found as
    (kind, data, trace, direction)."""
    cid = check.id
    size = sa.size
    if cid == "t5.i":
        fam, pio = sa.pio_family, sa.pio_t
        for a in fam:
            for b in fam:
                if not pio[a | b]:
                    found.append(("set_pair", {"first": a, "second": b},
                                  {"pre_i_open(first)": True, "pre_i_open(second)": True,
                                   "pre_i_open(union)": False}, None))
        return len(fam) * len(fam)
    if cid == "t5.ii":
        fam, pio = sa.pio_family, sa.pio_t
        for a in fam:
            for u in sa.sp.topo.opens:
                if not pio[a & u]:
                    found.append(("set_pair", {"first": a, "second": u},
                                  {"pre_i_open(first)": True, "open(second)": True,
                                   "pre_i_open(intersection)": False}, None))
        return len(fam) * len(sa.sp.topo.opens)
    if cid == "t5.iii":
        fam, alpha, po = sa.pio_family, sa.ta.alpha_family, sa.ta.preopen_t
        for a in fam:
            for b in alpha:
                if not po[a & b]:
                    found.append(("set_pair", {"first": a, "second": b},
                                  {"pre_i_open(first)": True, "alpha_open(second)": True,
                                   "preopen(intersection)": False}, None))
        return len(fam) * len(alpha)
    if cid == "t5.iv" or cid == "t5.v":
        fam, semi = sa.pio_family, sa.ta.semi_family
        visited = 0
        for a in fam:
            for b in semi:
                carrier = a if cid == "t5.iv" else b
                if carrier == 0:
                    continue  # empty subspace carrier; the intersection is empty anyway
                visited += 1
                sub, sta = sa.ta.sub_tables(carrier)
                cut = sub.restrict(a & b)
                ok = sta.semi_bits >> cut & 1 if cid == "t5.iv" else sta.preopen_t[cut]
                if not ok:
                    found.append(("set_pair", {"first": a, "second": b},
                                  {"pre_i_open(first)": True, "semi_open(second)": True,
                                   "holds_in_subspace": False}, None))
        return visited
    if cid == "l1":
        star = sa.star_t
        for u in sa.sp.topo.opens:
            for a in range(size):
                rel = star[u & a]
                if u & star[a] != u & rel or (u & star[a]) & ~rel:
                    found.append(("set_pair", {"first": u, "second": a},
                                  {"equality": u & star[a] == u & rel,
                                   "containment": (u & star[a]) & ~rel == 0}, None))
        return len(sa.sp.topo.opens) * size
    if cid == "c1.i":
        picl = sa.piclosed_t
        fam = [a for a in range(size) if picl[a]]
        for a in fam:
            for b in fam:
                if not picl[a & b]:
                    found.append(("set_pair", {"first": a, "second": b},
                                  {"pre_i_closed(first)": True, "pre_i_closed(second)": True,
                                   "pre_i_closed(intersection)": False}, None))
        return len(fam) * len(fam)
    if cid == "c1.ii":
        picl = sa.piclosed_t
        fam = [a for a in range(size) if picl[a]]
        closed = sa.ta.closed_family
        for a in fam:
            for c in closed:
                if not picl[a | c]:
                    found.append(("set_pair", {"first": a, "second": c},
                                  {"pre_i_closed(first)": True, "closed(second)": True,
                                   "pre_i_closed(union)": False}, None))
        return len(fam) * len(closed)
    if cid == "t4.i" or cid == "t4.iii":
        if sa.pio_family != sa.ta.preopen_family:
            found.append(("set_family",
                          {"pio_family": sa.pio_family, "expected": sa.ta.preopen_family},
                          {"families_equal": False}, None))
        return 1
    if cid == "t4.ii" or cid == "submax":
        if sa.pio_family != sa.sp.topo.opens:
            found.append(("set_family",
                          {"pio_family": sa.pio_family, "expected": sa.sp.topo.opens},
                          {"families_equal": False}, None))
        return 1
    if cid == "isi_consistency":
        gen = sa.sp.ideal.gen
        if gen == sa.full:
            if not sa.props.i_strongly_irresolvable:
                found.append(("set_family", {"ideal": "maximal"},
                              {"i_strongly_irresolvable": False}, None))
            return 1
        if gen == 0:
            classical = all(a in sa.sp.topo.opens_set for a in sa.pio_family)
            if sa.props.i_strongly_irresolvable != classical:
                found.append(("set_family", {"ideal": "minimal"},
                              {"i_strongly_irresolvable": sa.props.i_strongly_irresolvable,
                               "pio_inside_tau": classical}, None))
            return 1
        return 0
    raise UnknownTheoremId(cid)


# --- sweep drivers -------------------------------------------------------------

class _Accumulator:
    def __init__(self, items, max_witnesses):
        self.max_witnesses = max_witnesses
        self.visited = {key: 0 for key, _, _, _ in items}
        self.violations = {key: 0 for key, _, _, _ in items}
        self.witnesses = {key: [] for key, _, _, _ in items}

    def emit(self, key, witness):
        self.violations[key] += 1
        if len(self.witnesses[key]) < self.max_witnesses:
            self.witnesses[key].append(witness)


@lru_cache(maxsize=1024)
def _space_data(sp: IdealSpace) -> tuple[tuple[str, object], ...]:
    """The space part of a witness's data, shared by the witnesses on it."""
    return ("topology", sp.topo.opens), ("ideal_gen", sp.ideal.gen)


def _legs(check: TheoremCheck, direction: str, leaf) -> list[tuple]:
    """(witness direction, packed law, sorted law atoms, their readers) per
    swept direction."""
    swept = [d for d in _DIRECTIONS if direction in ("both", d)] if check.directional else [None]
    return [(d, *_law(_law_text(check, d), leaf)) for d in swept]


@lru_cache(maxsize=None)
def _trace(atoms: tuple[str, ...], flags: tuple[int, ...]) -> tuple[tuple[str, bool], ...]:
    """A witness trace, one object shared by every witness that has it."""
    return tuple((atom, flag == 1) for atom, flag in zip(atoms, flags))


def _sweep_spaces(packing, n, items, topo_lo, topo_hi, max_witnesses):
    """Every domain space once, every selected check on it; returns the
    accumulator and the structure counts."""
    acc = _Accumulator(items, max_witnesses)
    topos = topologies(n)
    full = packing.full
    prepared = []
    for key, check, direction, hypothesis in items:
        legs = _legs(check, direction, packing.leaf) if check.laws else ()
        carrier_only = check.id in _CARRIER_ONLY
        prepared.append((key, check, hypothesis, legs, tuple(leg[1] for leg in legs),
                         1 << ((1 << n) - 1) if carrier_only else full,
                         1 if carrier_only else packing.structures))
    spaces = 0
    found: list[tuple] = []   # violations of one custom check on one space
    for ti in range(topo_lo, topo_hi):
        ta = TopologyAnalysis(topos[ti])
        for ideal in ideals(n):
            sa = SpaceAnalysis(IdealSpace(topos[ti], ideal), ta)
            spaces += 1
            # each atom is built on its first read, by a law the space admits
            values = packing.values(sa)
            for key, check, hypothesis, legs, laws, checked, per_space in prepared:
                if hypothesis != "none" and not _space_passes(sa, hypothesis):
                    continue
                if not legs:
                    acc.visited[key] += _run_set_check(check, sa, found)
                    if found:
                        base = _space_data(sa.sp)
                        for kind, data, trace, direction in found:
                            acc.emit(key, Witness(
                                n=n, kind=kind, check_id=check.id,
                                direction=direction, claim=None,
                                data=base + tuple(sorted(data.items())),
                                trace=tuple(sorted(trace.items())),
                            ))
                        found.clear()
                    continue
                acc.visited[key] += per_space
                failing = 0
                for law in laws:
                    failing |= checked & ~law(values)
                if not failing:
                    continue
                base = _space_data(sa.sp)
                bad = [checked & ~law(values) for law in laws]
                for bit in bits(failing):
                    # a structure failing both legs is reported for the first
                    direction, _, atoms, readers = next(
                        leg for leg, b in zip(legs, bad) if b >> bit & 1)
                    acc.emit(key, Witness(
                        n=n, kind=packing.kind, check_id=check.id,
                        direction=direction, claim=None,
                        data=base + packing.data(bit),
                        trace=_trace(atoms, tuple(read(values) >> bit & 1 for read in readers)),
                    ))
    if packing.kind == "map":
        return acc, {"spaces": spaces, "map_structures": spaces * packing.structures}
    return acc, {"spaces": spaces}


def _sweep_map_pairs(n, items, topo_lo, topo_hi, max_witnesses):
    """Both hops on carriers of size n; the middle ideal is irrelevant to the
    hypotheses and conclusions and is not quantified."""
    acc = _Accumulator(items, max_witnesses)
    topos = topologies(n)
    tabs = maps(n, n)
    preims = _preimage_tables(n)
    tab_index = {t: i for i, t in enumerate(tabs)}
    comp = [[tab_index[tuple(g[y] for y in f)] for g in tabs] for f in tabs]
    opens_sets = [t.opens_set for t in topos]
    # continuous second hops depend only on the two topologies
    cont_pairs = []
    for si in range(len(topos)):
        pairs = []
        for ui in range(len(topos)):
            for gi in range(len(tabs)):
                if all(preims[gi][w] in opens_sets[si] for w in topos[ui].opens):
                    pairs.append((ui, gi))
        cont_pairs.append(pairs)
    spaces = checked = 0
    for ti in range(topo_lo, topo_hi):
        ta = TopologyAnalysis(topos[ti])
        for ideal in ideals(n):
            sa = SpaceAnalysis(IdealSpace(topos[ti], ideal), ta)
            spaces += 1
            active = [(key, check) for key, check, _direction, hyp in items
                      if _space_passes(sa, hyp)]
            if not active:
                continue
            base = _space_data(sa.sp)
            pio_t, po_t = sa.pio_t, sa.ta.preopen_t
            pic_cache: dict[tuple[int, int], bool] = {}
            pc_cache: dict[tuple[int, int], bool] = {}
            for si in range(len(topos)):
                mid_opens = topos[si].opens
                for fi in range(len(tabs)):
                    ptf = preims[fi]
                    if not all(pio_t[ptf[v]] for v in mid_opens):
                        continue
                    for ui, gi in cont_pairs[si]:
                        hi = comp[fi][gi]
                        checked += 1
                        key_h = (ui, hi)
                        for key, check in active:
                            if check.id == "tt5.i":
                                ok = pic_cache.get(key_h)
                                if ok is None:
                                    pth = preims[hi]
                                    ok = all(pio_t[pth[w]] for w in topos[ui].opens)
                                    pic_cache[key_h] = ok
                            else:
                                ok = pc_cache.get(key_h)
                                if ok is None:
                                    pth = preims[hi]
                                    ok = all(po_t[pth[w]] for w in topos[ui].opens)
                                    pc_cache[key_h] = ok
                            acc.visited[key] += 1
                            if not ok:
                                acc.emit(key, Witness(
                                    n=n, kind="map_pair", check_id=check.id,
                                    direction=None, claim=None,
                                    data=base + (
                                        ("mid_topology", topos[si].opens),
                                        ("map_first", tabs[fi]),
                                        ("cod_topology", topos[ui].opens),
                                        ("map_second", tabs[gi]),
                                    ),
                                    trace=(("composition_conclusion", False),
                                           ("first_pre_i_continuous", True),
                                           ("second_continuous", True)),
                                ))
    return acc, {"spaces": spaces, "map_pairs_checked": checked}


# the sweep that runs each scope's checks
_SCOPE_SWEEPS = {"sets": "sets", "set_pairs": "sets", "set_families": "sets",
                 "maps": "maps", "map_pairs": "map_pairs"}


def _sweep_partition(args):
    """Worker entry: run every selected scope over one topology index range."""
    n, resolved, topo_lo, topo_hi, max_witnesses = args
    out = {}
    counts: dict[str, int] = {}
    for sweep in ("sets", "maps", "map_pairs"):
        scope_items = [
            (key, REGISTRY[cid], direction, hypothesis)
            for key, cid, direction, hypothesis in resolved
            if _SCOPE_SWEEPS[REGISTRY[cid].scope] == sweep
        ]
        if not scope_items:
            continue
        if sweep == "map_pairs":
            acc, sc = _sweep_map_pairs(n, scope_items, topo_lo, topo_hi, max_witnesses)
        else:
            acc, sc = _sweep_spaces(_packing(sweep, n), n, scope_items, topo_lo, topo_hi,
                                    max_witnesses)
        for k, v in sc.items():
            counts[k] = max(counts.get(k, 0), v) if k == "spaces" else counts.get(k, 0) + v
        for key, *_ in scope_items:
            out[key] = (acc.visited[key], acc.violations[key], tuple(acc.witnesses[key]))
    return out, counts


# --- selection and the public suite entry --------------------------------------

def resolve_selection(selection, direction=None, hypothesis=None):
    """Expand selection tokens into (key, id, direction, hypothesis) rows.

    Tokens: 'all', a registered id, a dotted-prefix group ('t5', 'grt1'),
    or id.fwd / id.bwd for one direction of a biconditional.
    """
    if isinstance(selection, str):
        selection = [tok.strip() for tok in selection.split(",") if tok.strip()]
    tokens = list(selection) if selection else ["all"]
    rows = []
    seen = set()

    def add(cid, direc):
        check = REGISTRY[cid]
        if direc != "both" and not check.directional:
            raise NotDirectional(f"check {cid} has no directions")
        hyp = hypothesis if hypothesis is not None else check.hypothesis
        if hyp in ("hs",):
            hyp = "hayashi_samuels"
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
        if tok == "all":
            for cid in REGISTRY:
                add(cid, base_direction if REGISTRY[cid].directional else "both")
            continue
        if tok in REGISTRY:
            add(tok, base_direction if REGISTRY[tok].directional else "both")
            continue
        if tok.endswith(".fwd") or tok.endswith(".bwd"):
            cid, direc = tok[:-4], tok[-3:]
            if cid in REGISTRY:
                add(cid, direc)
                continue
        group = [cid for cid in REGISTRY if cid.startswith(tok + ".")]
        if group:
            for cid in group:
                add(cid, base_direction if REGISTRY[cid].directional else "both")
            continue
        raise UnknownTheoremId(tok)
    return rows


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
    if isinstance(selection, str):
        tokens = [tok.strip() for tok in selection.split(",") if tok.strip()]
    else:
        tokens = list(selection)
    explicit = "all" not in tokens
    kept, skipped = [], []
    for row in rows:
        scope = REGISTRY[row[1]].scope
        if bound <= SCOPE_DEFAULT_BOUND[scope] or allow_large:
            kept.append(row)
        elif explicit:
            raise CarrierTooLargeForSuite(
                f"check {row[1]} ({scope}) defaults to bound <= "
                f"{SCOPE_DEFAULT_BOUND[scope]}; pass allow_large to override")
        else:
            skipped.append(row[0])
    if not kept and not skipped:
        raise UnknownTheoremId("empty selection")

    n_topos = len(topologies(bound))
    # never more workers than usable cores, whatever the caller asks for
    jobs = max(1, min(jobs, n_topos, len(os.sched_getaffinity(0))))
    if jobs == 1:
        partials = [_sweep_partition((bound, kept, 0, n_topos, max_witnesses))]
    else:
        # more chunks than workers: the canonical order front-loads fine
        # topologies, which carry most of the work
        chunks = min(n_topos, jobs * 6)
        cuts = [round(i * n_topos / chunks) for i in range(chunks + 1)]
        args = [(bound, kept, cuts[i], cuts[i + 1], max_witnesses)
                for i in range(chunks) if cuts[i] < cuts[i + 1]]
        import multiprocessing as mp
        with mp.get_context("fork").Pool(jobs) as pool:
            # map returns in argument order, so merging keeps the serial
            # witness order and reports stay byte-identical across job counts
            partials = pool.map(_sweep_partition, args)

    counts: dict[str, int] = {}
    merged: dict[str, list] = {key: [0, 0, []] for key, *_ in kept}
    for out, sc in partials:
        for k, v in sc.items():
            counts[k] = counts.get(k, 0) + v
        for key, (visited, violations, wits) in out.items():
            merged[key][0] += visited
            merged[key][1] += violations
            merged[key][2].extend(wits)
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
    )


def check_direction(check_id: str, direction: str, hypothesis: str | None = None,
                    bound: int = 3, **kw) -> Report:
    """Run one direction of a biconditional under a caller-chosen hypothesis."""
    if check_id not in REGISTRY:
        raise UnknownTheoremId(check_id)
    return run_theorem_suite(bound, [check_id], direction=direction,
                             hypothesis=hypothesis, **kw)


# --- claim search ----------------------------------------------------------------

def find_counterexample(claim, scope: str, bound: int,
                        max_witnesses: int = 1) -> Witness | None:
    """First structure, in enumeration order over carriers 1..bound, that
    satisfies the claim; None when the scope is exhausted.  The claim is
    evaluated on the packed values the sweep uses, a space at a time."""
    ast = _claims.parse_claim(claim) if isinstance(claim, str) else claim
    text = _claims.print_claim(ast)
    atoms = _claims.atoms_of(ast)
    allowed = _claims.atoms_for_scope(scope)
    for name in sorted(atoms):
        if name not in allowed:
            raise _claims.UnknownAtom(name, f"not available in scope {scope!r}")
    for n in range(1, bound + 1):
        packing = _packing(scope, n)
        holds = _claims.compile_claim(ast, packing.leaf)
        readers = [(name, packing.leaf(name)) for name in sorted(atoms)]
        for topo in topologies(n):
            ta = TopologyAnalysis(topo)
            for ideal in ideals(n):
                sa = SpaceAnalysis(IdealSpace(topo, ideal), ta)
                values = packing.values(sa)
                hits = holds(values) & packing.full
                if hits:
                    bit = (hits & -hits).bit_length() - 1
                    return Witness(
                        n=n, kind=packing.kind, check_id=None, direction=None,
                        claim=text, data=_space_data(sa.sp) + packing.data(bit),
                        trace=tuple((name, read(values) >> bit & 1 == 1)
                                    for name, read in readers),
                    )
    return None


def find_composition_counterexample(bound: int = 3) -> Witness | None:
    """First pair of pre-I-continuous maps whose composition is not
    pre-I-continuous, searching carriers 1..bound; both hops and the middle
    ideal are quantified."""
    for n in range(1, bound + 1):
        topos = topologies(n)
        tabs = maps(n, n)
        preims = _preimage_tables(n)
        mid_cache: dict[tuple[int, int], SpaceAnalysis] = {}
        for ti, topo in enumerate(topos):
            ta = TopologyAnalysis(topo)
            for ideal in ideals(n):
                sa = SpaceAnalysis(IdealSpace(topo, ideal), ta)
                pio_t = sa.pio_t
                for si, mid in enumerate(topos):
                    mid_opens = mid.opens
                    for fi in range(len(tabs)):
                        ptf = preims[fi]
                        if not all(pio_t[ptf[v]] for v in mid_opens):
                            continue
                        for mid_gen in range(1 << n):
                            key = (si, mid_gen)
                            say = mid_cache.get(key)
                            if say is None:
                                say = SpaceAnalysis(
                                    IdealSpace(mid, principal_ideal(n, mid_gen)))
                                mid_cache[key] = say
                            pio_mid = say.pio_t
                            for ui, cod in enumerate(topos):
                                cod_opens = cod.opens
                                for gi in range(len(tabs)):
                                    ptg = preims[gi]
                                    if not all(pio_mid[ptg[w]] for w in cod_opens):
                                        continue
                                    comp_ok = all(
                                        pio_t[ptf[ptg[w]]] for w in cod_opens)
                                    if not comp_ok:
                                        return Witness(
                                            n=n, kind="map_pair", check_id=None,
                                            direction=None,
                                            claim="pre_i_continuous(f) & "
                                                  "pre_i_continuous(g) & "
                                                  "!pre_i_continuous(g . f)",
                                            data=(("topology", topo.opens),
                                                  ("ideal_gen", ideal.gen),
                                                  ("mid_topology", mid.opens),
                                                  ("mid_ideal_gen", mid_gen),
                                                  ("map_first", tabs[fi]),
                                                  ("cod_topology", cod.opens),
                                                  ("map_second", tabs[gi])),
                                            trace=(("first_pre_i_continuous", True),
                                                   ("second_pre_i_continuous", True),
                                                   ("composition_pre_i_continuous", False)),
                                        )
    return None


# --- independent witness replay ----------------------------------------------------

def _rebuild_space(data: dict, n: int) -> IdealSpace:
    topo = make_topology(n, data["topology"])
    return IdealSpace(topo, principal_ideal(n, data["ideal_gen"]))


def _rebuild_pair(data: dict, n: int, mid_gen: int) -> tuple[SpaceMap, SpaceMap, SpaceMap]:
    """Both hops of a map-pair witness and their composition."""
    mid = make_topology(n, data["mid_topology"])
    f = SpaceMap(_rebuild_space(data, n), mid, tuple(data["map_first"]))
    g = SpaceMap(IdealSpace(mid, principal_ideal(n, mid_gen)),
                 make_topology(n, data["cod_topology"]), tuple(data["map_second"]))
    return f, g, compose(f, g)


def _definitional_values(kind: str, data: dict, n: int) -> dict[str, bool]:
    """Every atom of a set or map structure, from the definitional predicates."""
    sp = _rebuild_space(data, n)
    if kind == "set":
        values = set_classes(sp, data["subset"]).as_dict()
    else:
        f = SpaceMap(sp, make_topology(n, data["cod_topology"]), tuple(data["map"]))
        values = {k: v for k, v in map_classes(f).as_dict().items() if v is not None}
        values.update(zip(_claims.TT4_CONDITIONS,
                          check_pre_i_continuity_equivalences(f).bits))
    props = space_props(sp)
    values.update((name, getattr(props, name)) for name in _claims.SPACE_FLAGS)
    return values


def _replay_set_check(cid: str, sp: IdealSpace, data: dict) -> bool:
    """Replay of a set-pair or set-family witness."""
    topo = sp.topo
    full = topo.full
    if cid in ("t5.i", "t5.ii", "t5.iii", "t5.iv", "t5.v", "l1", "c1.i", "c1.ii"):
        a, b = data["first"], data["second"]
        if cid == "t5.i":
            return (is_pre_i_open(sp, a) and is_pre_i_open(sp, b)
                    and not is_pre_i_open(sp, a | b))
        if cid == "t5.ii":
            return (is_pre_i_open(sp, a) and topo.is_open(b)
                    and not is_pre_i_open(sp, a & b))
        if cid == "t5.iii":
            return (is_pre_i_open(sp, a) and is_alpha_open(topo, b)
                    and not is_preopen(topo, a & b))
        if cid in ("t5.iv", "t5.v"):
            if not (is_pre_i_open(sp, a) and is_semi_open(topo, b)):
                return False
            carrier = a if cid == "t5.iv" else b
            if carrier == 0:
                return False
            sub = subspace(topo, carrier)
            cut = sub.restrict(a & b)
            if cid == "t5.iv":
                return not is_semi_open(sub.topo, cut)
            return not is_preopen(sub.topo, cut)
        if cid == "l1":
            if not topo.is_open(a):
                return False
            rel = local_function(sp, a & b)
            whole = a & local_function(sp, b)
            return whole != a & rel or bool(whole & ~rel)
        if cid == "c1.i":
            picl = lambda m: is_pre_i_open(sp, full ^ m)
            return picl(a) and picl(b) and not picl(a & b)
        picl = lambda m: is_pre_i_open(sp, full ^ m)
        return picl(a) and topo.is_open(full ^ b) and not picl(a | b)
    if cid in ("t4.i", "t4.iii"):
        preopen = tuple(m for m in range(1 << sp.n) if is_preopen(topo, m))
        return pio_family(sp) != preopen
    if cid in ("t4.ii", "submax"):
        return pio_family(sp) != topo.opens
    if cid == "isi_consistency":
        props = space_props(sp)
        if sp.ideal.gen == full:
            return not props.i_strongly_irresolvable
        classical = all(topo.is_open(m) for m in pio_family(sp))
        return props.i_strongly_irresolvable != classical
    raise UnknownTheoremId(cid)


def replay_witness(w: Witness) -> bool:
    """Re-evaluate a witness on freshly built objects through the definitional
    route; True when it still witnesses what it claims to."""
    data = w.data_dict()
    if w.kind in ("set", "map"):
        # a claim witness satisfies its claim, a check witness violates its law;
        # either way the trace must give the claim's atoms as they are
        if w.check_id is None:
            text, wanted = w.claim, True
        else:
            text, wanted = _law_text(REGISTRY[w.check_id], w.direction), False
            if text is None:
                return False
            if w.check_id in _CARRIER_ONLY and data["subset"] != (1 << w.n) - 1:
                return False
        ast = _claims.parse_claim(text)
        values = _definitional_values(w.kind, data, w.n)
        if _claims.evaluate(ast, values) != wanted:
            return False
        return (tuple(name for name, _ in w.trace) == tuple(sorted(_claims.atoms_of(ast)))
                and all(values[name] == value for name, value in w.trace))
    if w.check_id is None:   # map_pair from the composition search
        f, g, h = _rebuild_pair(data, w.n, data["mid_ideal_gen"])
        return (map_classes(f).pre_i_continuous
                and map_classes(g).pre_i_continuous
                and not map_classes(h).pre_i_continuous)
    cid = w.check_id
    if REGISTRY[cid].scope != "map_pairs":
        return _replay_set_check(cid, _rebuild_space(data, w.n), data)
    # tt5: the middle ideal is not quantified
    f, g, h = _rebuild_pair(data, w.n, 0)
    if not (map_classes(f).pre_i_continuous and map_classes(g).continuous):
        return False
    hv = map_classes(h)
    return not (hv.pre_i_continuous if cid == "tt5.i" else hv.precontinuous)
