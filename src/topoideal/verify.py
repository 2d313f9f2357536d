"""Theorem registry, exhaustive sweeps, and counterexample search.

Every numbered claim of the studied decomposition theory is bound to an
executable check.  A check has a quantifier scope (single subsets, subset
pairs, per-space family equalities, maps, or map pairs), an optional
hypothesis filter, and, for biconditionals, two directions that can be
run separately to map where each hypothesis is actually needed.

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
from operator import attrgetter
from typing import Callable

from . import claims as _claims
from .analysis import SpaceAnalysis, TopologyAnalysis
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
    directional: bool
    description: str


_REGISTRY_ROWS = (
    ("t1", "sets", "none", False,
     "every I-open set is pre-I-open"),
    ("t2", "sets", "none", False,
     "every open set is pre-I-open"),
    ("t3", "sets", "none", False,
     "every pre-I-open set is preopen"),
    ("t4.i", "set_families", "minimal_ideal", False,
     "with the minimal ideal the pre-I-open sets are exactly the preopen sets"),
    ("t4.ii", "set_families", "maximal_ideal", False,
     "with the maximal ideal the pre-I-open sets are exactly the open sets"),
    ("t4.iii", "set_families", "nowhere_dense_ideal", False,
     "with the nowhere-dense ideal the pre-I-open sets are exactly the preopen sets"),
    ("t5.i", "set_pairs", "none", False,
     "pre-I-open sets are closed under union (pairwise; families are finite)"),
    ("t5.ii", "set_pairs", "none", False,
     "a pre-I-open set intersected with an open set stays pre-I-open"),
    ("t5.iii", "set_pairs", "none", False,
     "a pre-I-open set intersected with an alpha-open set is preopen"),
    ("t5.iv", "set_pairs", "none", False,
     "pre-I-open A and semi-open B intersect to a semi-open subset of subspace A"),
    ("t5.v", "set_pairs", "none", False,
     "pre-I-open A and semi-open B intersect to a preopen subset of subspace B"),
    ("l1", "set_pairs", "none", False,
     "for open U: U & star(A) equals U & star(U & A) and lies inside star(U & A)"),
    ("c1.i", "set_pairs", "none", False,
     "pre-I-closed sets are closed under intersection (pairwise; families are finite)"),
    ("c1.ii", "set_pairs", "none", False,
     "the union of a pre-I-closed set and a closed set is pre-I-closed"),
    ("submax", "set_families", "submaximal", False,
     "on a submaximal topology the pre-I-open sets equal the opens for every ideal"),
    ("star_perfect_remark", "sets", "none", False,
     "for star-perfect sets: open, I-open and pre-I-open coincide"),
    ("x_always_pio", "sets", "none", False,
     "the whole carrier is always pre-I-open"),
    ("isi_consistency", "set_families", "none", False,
     "strong irresolvability holds under the maximal ideal and reduces to "
     "'pre-I-open implies open' under the minimal ideal"),
    ("tt6", "sets", "none", True,
     "I-open iff pre-I-open and star-dense-in-itself"),
    ("tt42", "sets", "hayashi_samuels", True,
     "on Hayashi-Samuels spaces: open iff pre-I-open and I-locally closed"),
    ("tt1", "maps", "none", False,
     "every continuous map is pre-I-continuous"),
    ("tt2", "maps", "none", False,
     "every I-continuous map is pre-I-continuous"),
    ("tt3", "maps", "none", False,
     "every pre-I-continuous map is precontinuous"),
    ("tt4", "maps", "none", False,
     "the four formulations of pre-I-continuity agree"),
    ("tt5.i", "map_pairs", "none", False,
     "pre-I-continuous then continuous composes to pre-I-continuous"),
    ("tt5.ii", "map_pairs", "none", False,
     "pre-I-continuous then continuous composes to precontinuous"),
    ("tt7", "maps", "none", True,
     "I-continuous iff pre-I-continuous and star-I-continuous"),
    ("tt41", "maps", "hayashi_samuels", False,
     "on Hayashi-Samuels domains every continuous map is I-LC-continuous"),
    ("tt43", "maps", "hayashi_samuels", True,
     "on Hayashi-Samuels domains: continuous iff pre-I-continuous and I-LC-continuous"),
    ("grt1.min", "maps", "minimal_ideal", True,
     "with the minimal ideal: continuous iff precontinuous and LC-continuous"),
    ("grt1.nwd", "maps", "nowhere_dense_ideal", True,
     "with the nowhere-dense ideal: continuous iff precontinuous and A-continuous"),
)

REGISTRY: dict[str, TheoremCheck] = {
    row[0]: TheoremCheck(*row) for row in _REGISTRY_ROWS
}


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

@dataclass(frozen=True)
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


# --- set-scope check runners --------------------------------------------------

@dataclass(frozen=True)
class SetRow:
    """A per-subset check over a space's packed families.

    Each leg maps a SpaceAnalysis to the bitset of subsets that violate it;
    a one-way check has only `fwd`.  A witness traces the row's atoms, read
    at its subset.
    """

    atoms: tuple[str, ...]
    fwd: Callable[[SpaceAnalysis], int]
    bwd: Callable[[SpaceAnalysis], int] | None = None


# trace atom -> the packed family it reads
_SET_ATOM_BITS: dict[str, Callable[[SpaceAnalysis], int]] = {
    "open": attrgetter("ta.open_bits"),
    "preopen": attrgetter("ta.preopen_bits"),
    "pre_i_open": attrgetter("pio_bits"),
    "i_open": attrgetter("io_bits"),
    "star_dense_in_itself": attrgetter("sdi_bits"),
    "star_perfect": attrgetter("perfect_bits"),
    "i_locally_closed": attrgetter("ilc_bits"),
}

SET_ROWS: dict[str, SetRow] = {
    "t1": SetRow(("i_open", "pre_i_open"),
                 lambda s: s.io_bits & ~s.pio_bits),
    "t2": SetRow(("open", "pre_i_open"),
                 lambda s: s.ta.open_bits & ~s.pio_bits),
    "t3": SetRow(("pre_i_open", "preopen"),
                 lambda s: s.pio_bits & ~s.ta.preopen_bits),
    "tt6": SetRow(("i_open", "pre_i_open", "star_dense_in_itself"),
                  lambda s: s.io_bits & ~(s.pio_bits & s.sdi_bits),
                  lambda s: s.pio_bits & s.sdi_bits & ~s.io_bits),
    "tt42": SetRow(("open", "pre_i_open", "i_locally_closed"),
                   lambda s: s.ta.open_bits & ~(s.pio_bits & s.ilc_bits),
                   lambda s: s.pio_bits & s.ilc_bits & ~s.ta.open_bits),
    "star_perfect_remark": SetRow(
        ("star_perfect", "open", "i_open", "pre_i_open"),
        lambda s: s.perfect_bits & ((s.ta.open_bits ^ s.io_bits) | (s.io_bits ^ s.pio_bits))),
}


def _run_set_row(row: SetRow, sa: SpaceAnalysis, direction: str, found: list) -> int:
    """Evaluate one row on one space; returns the number of subsets visited.
    Each violation is appended to found as (kind, data, trace, direction)."""
    fwd = row.fwd(sa) if direction != "bwd" else 0
    bwd = row.bwd(sa) if row.bwd is not None and direction != "fwd" else 0
    if fwd | bwd:
        # the legs are disjoint, so one ascending pass keeps subset order
        values = [(atom, _SET_ATOM_BITS[atom](sa)) for atom in row.atoms]
        for a in bits(fwd | bwd):
            found.append((
                "set", {"subset": a},
                {atom: packed >> a & 1 == 1 for atom, packed in values},
                None if row.bwd is None else "fwd" if fwd >> a & 1 else "bwd",
            ))
    return sa.size


def _run_set_check(check: TheoremCheck, sa: SpaceAnalysis, found: list) -> int:
    """Run one space's worth of instances of a check without a row; returns
    the number visited.  Each violation is appended to found as
    (kind, data, trace, direction)."""
    cid = check.id
    size = sa.size
    if cid == "x_always_pio":
        if not sa.pio_bits >> sa.full & 1:
            found.append(("set", {"subset": sa.full}, {"pre_i_open": False}, None))
        return 1
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
                ok = sta.semi_t[cut] if cid == "t5.iv" else sta.preopen_t[cut]
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


# --- map-scope machinery -------------------------------------------------------

@lru_cache(maxsize=None)
def _preimage_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """preimage mask of every codomain mask, for every point table on n points."""
    tables = []
    for tab in maps(n, n):
        row = []
        for m in range(1 << n):
            pm = 0
            for x in range(n):
                if m >> tab[x] & 1:
                    pm |= 1 << x
            row.append(pm)
        tables.append(tuple(row))
    return tuple(tables)


_MAP_FLAG_NEEDS = {
    "tt1": ("continuous", "pre_i_continuous"),
    "tt2": ("i_continuous", "pre_i_continuous"),
    "tt3": ("pre_i_continuous", "precontinuous"),
    "tt4": ("cond1", "cond2", "cond3", "cond4"),
    "tt7": ("i_continuous", "pre_i_continuous", "star_i_continuous"),
    "tt41": ("continuous", "i_lc_continuous"),
    "tt43": ("continuous", "pre_i_continuous", "i_lc_continuous"),
    "grt1.min": ("continuous", "precontinuous", "lc_continuous"),
    "grt1.nwd": ("continuous", "precontinuous", "a_continuous"),
}


def _compute_map_flags(sa: SpaceAnalysis, cod_opens, cod_closed, pt, needed) -> dict[str, bool]:
    flags = {}
    opens_set = sa.sp.topo.opens_set
    if "continuous" in needed:
        flags["continuous"] = all(pt[v] in opens_set for v in cod_opens)
    if "precontinuous" in needed:
        t = sa.ta.preopen_t
        flags["precontinuous"] = all(t[pt[v]] for v in cod_opens)
    if "pre_i_continuous" in needed:
        t = sa.pio_t
        flags["pre_i_continuous"] = all(t[pt[v]] for v in cod_opens)
    if "i_continuous" in needed:
        t = sa.io_t
        flags["i_continuous"] = all(t[pt[v]] for v in cod_opens)
    if "star_i_continuous" in needed:
        t = sa.sdi_t
        flags["star_i_continuous"] = all(t[pt[v]] for v in cod_opens)
    if "lc_continuous" in needed:
        t = sa.ta.lc_t
        flags["lc_continuous"] = all(t[pt[v]] for v in cod_opens)
    if "i_lc_continuous" in needed:
        t = sa.ilc_t
        flags["i_lc_continuous"] = all(t[pt[v]] for v in cod_opens)
    if "a_continuous" in needed:
        t = sa.ta.aset_t
        flags["a_continuous"] = all(t[pt[v]] for v in cod_opens)
    if "beta_continuous" in needed:
        t = sa.ta.beta_t
        flags["beta_continuous"] = all(t[pt[v]] for v in cod_opens)
    if "cond1" in needed:
        t = sa.pio_t
        flags["cond1"] = all(t[pt[v]] for v in cod_opens)
    if "cond2" in needed:
        t = sa.pio_cover_ok_t
        flags["cond2"] = all(t[pt[v]] for v in cod_opens)
    if "cond3" in needed:
        t = sa.cl_star_nbhd_ok_t
        flags["cond3"] = all(t[pt[v]] for v in cod_opens)
    if "cond4" in needed:
        t = sa.piclosed_t
        flags["cond4"] = all(t[pt[c]] for c in cod_closed)
    return flags


def _map_check_violation(cid: str, direction: str, f: dict[str, bool]) -> str | None:
    """Return the violated direction, or None."""
    if cid == "tt1":
        return "both" if f["continuous"] and not f["pre_i_continuous"] else None
    if cid == "tt2":
        return "both" if f["i_continuous"] and not f["pre_i_continuous"] else None
    if cid == "tt3":
        return "both" if f["pre_i_continuous"] and not f["precontinuous"] else None
    if cid == "tt4":
        bits4 = (f["cond1"], f["cond2"], f["cond3"], f["cond4"])
        return "both" if len(set(bits4)) != 1 else None
    if cid == "tt41":
        return "both" if f["continuous"] and not f["i_lc_continuous"] else None
    if cid in ("tt7", "tt43", "grt1.min", "grt1.nwd"):
        left, parts = {
            "tt7": ("i_continuous", ("pre_i_continuous", "star_i_continuous")),
            "tt43": ("continuous", ("pre_i_continuous", "i_lc_continuous")),
            "grt1.min": ("continuous", ("precontinuous", "lc_continuous")),
            "grt1.nwd": ("continuous", ("precontinuous", "a_continuous")),
        }[cid]
        right = all(f[p] for p in parts)
        if direction in ("both", "fwd") and f[left] and not right:
            return "fwd"
        if direction in ("both", "bwd") and right and not f[left]:
            return "bwd"
        return None
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


def _space_data(sa: SpaceAnalysis) -> tuple[tuple[str, object], ...]:
    return (("topology", sa.sp.topo.opens), ("ideal_gen", sa.sp.ideal.gen))


def _sweep_sets(n, items, topo_lo, topo_hi, max_witnesses):
    acc = _Accumulator(items, max_witnesses)
    topos = topologies(n)
    spaces = 0
    rowed = [(key, check, direction, hypothesis, SET_ROWS.get(check.id))
             for key, check, direction, hypothesis in items]
    found: list[tuple] = []   # violations of one check on one space
    for ti in range(topo_lo, topo_hi):
        ta = TopologyAnalysis(topos[ti])
        for ideal in ideals(n):
            sa = SpaceAnalysis(IdealSpace(topos[ti], ideal), ta)
            spaces += 1
            for key, check, direction, hypothesis, row in rowed:
                if hypothesis != "none" and not _space_passes(sa, hypothesis):
                    continue
                if row is not None:
                    acc.visited[key] += _run_set_row(row, sa, direction, found)
                else:
                    acc.visited[key] += _run_set_check(check, sa, found)
                if found:
                    base = _space_data(sa)
                    for kind, data, trace, viol_direction in found:
                        acc.emit(key, Witness(
                            n=n, kind=kind, check_id=check.id,
                            direction=viol_direction, claim=None,
                            data=base + tuple(sorted(data.items())),
                            trace=tuple(sorted(trace.items())),
                        ))
                    found.clear()
    return acc, {"spaces": spaces}


def _sweep_maps(n, items, topo_lo, topo_hi, max_witnesses):
    acc = _Accumulator(items, max_witnesses)
    topos = topologies(n)
    tabs = maps(n, n)
    preims = _preimage_tables(n)
    cod_opens_list = [t.opens for t in topos]
    cod_closed_list = [t.closed_sets() for t in topos]
    needed = set()
    for _, check, _, _ in items:
        needed.update(_MAP_FLAG_NEEDS[check.id])
    spaces = structures = 0
    for ti in range(topo_lo, topo_hi):
        ta = TopologyAnalysis(topos[ti])
        for ideal in ideals(n):
            sa = SpaceAnalysis(IdealSpace(topos[ti], ideal), ta)
            spaces += 1
            base = _space_data(sa)
            active = [(key, check, direction) for key, check, direction, hyp in items
                      if _space_passes(sa, hyp)]
            if not active:
                structures += len(topos) * len(tabs)
                continue
            for ci in range(len(topos)):
                cod_opens = cod_opens_list[ci]
                cod_closed = cod_closed_list[ci]
                cod_data = (("cod_topology", cod_opens),)
                for mi, tab in enumerate(tabs):
                    structures += 1
                    flags = _compute_map_flags(sa, cod_opens, cod_closed, preims[mi], needed)
                    for key, check, direction in active:
                        viol = _map_check_violation(check.id, direction, flags)
                        if viol is not None:
                            used = {k: flags[k] for k in _MAP_FLAG_NEEDS[check.id]}
                            acc.emit(key, Witness(
                                n=n, kind="map", check_id=check.id,
                                direction=None if viol == "both" else viol,
                                claim=None,
                                data=base + cod_data + (("map", tab),),
                                trace=tuple(sorted(used.items())),
                            ))
            for key, _, _ in active:
                acc.visited[key] += len(topos) * len(tabs)
    return acc, {"spaces": spaces, "map_structures": structures}


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
            base = _space_data(sa)
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


_SCOPE_DRIVERS = {
    "sets": _sweep_sets,
    "set_pairs": _sweep_sets,
    "set_families": _sweep_sets,
    "maps": _sweep_maps,
    "map_pairs": _sweep_map_pairs,
}


def _sweep_partition(args):
    """Worker entry: run every selected scope over one topology index range."""
    n, resolved, topo_lo, topo_hi, max_witnesses = args
    out = {}
    counts: dict[str, int] = {}
    for scope in ("sets", "maps", "map_pairs"):
        scope_items = [
            (key, REGISTRY[cid], direction, hypothesis)
            for key, cid, direction, hypothesis in resolved
            if _SCOPE_DRIVERS[REGISTRY[cid].scope] is _SCOPE_DRIVERS[scope]
        ]
        if not scope_items:
            continue
        acc, sc = _SCOPE_DRIVERS[scope](n, scope_items, topo_lo, topo_hi, max_witnesses)
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

def _space_atom_values(sa: SpaceAnalysis, needed) -> dict[str, bool]:
    out = {}
    if "hayashi_samuels" in needed:
        out["hayashi_samuels"] = sa.hayashi_samuels
    if "submaximal" in needed:
        out["submaximal"] = sa.ta.submaximal
    if "i_strongly_irresolvable" in needed:
        out["i_strongly_irresolvable"] = sa.props.i_strongly_irresolvable
    return out


def find_counterexample(claim, scope: str, bound: int,
                        max_witnesses: int = 1) -> Witness | None:
    """First structure, in enumeration order over carriers 1..bound, that
    satisfies the claim; None when the scope is exhausted."""
    ast = _claims.parse_claim(claim) if isinstance(claim, str) else claim
    text = _claims.print_claim(ast)
    atoms = _claims.atoms_of(ast)
    allowed = _claims.atoms_for_scope(scope)
    for name in sorted(atoms):
        if name not in allowed:
            raise _claims.UnknownAtom(name, f"not available in scope {scope!r}")
    space_atoms = atoms & frozenset(_claims.SPACE_FLAGS)
    for n in range(1, bound + 1):
        topos = topologies(n)
        if scope == "sets":
            for topo in topos:
                ta = TopologyAnalysis(topo)
                for ideal in ideals(n):
                    sa = SpaceAnalysis(IdealSpace(topo, ideal), ta)
                    values = _space_atom_values(sa, space_atoms)
                    for a in range(1 << n):
                        vec = sa.class_vector(a).as_dict()
                        vec.update(values)
                        if _claims.evaluate(ast, vec):
                            return Witness(
                                n=n, kind="set", check_id=None, direction=None,
                                claim=text,
                                data=(("topology", topo.opens),
                                      ("ideal_gen", ideal.gen), ("subset", a)),
                                trace=tuple(sorted(
                                    (name, bool(vec[name])) for name in atoms)),
                            )
        elif scope == "maps":
            tabs = maps(n, n)
            preims = _preimage_tables(n)
            flag_atoms = atoms - space_atoms
            for topo in topos:
                ta = TopologyAnalysis(topo)
                for ideal in ideals(n):
                    sa = SpaceAnalysis(IdealSpace(topo, ideal), ta)
                    values = _space_atom_values(sa, space_atoms)
                    for cod in topos:
                        cod_opens = cod.opens
                        cod_closed = cod.closed_sets()
                        for mi, tab in enumerate(tabs):
                            vec = _compute_map_flags(
                                sa, cod_opens, cod_closed, preims[mi], flag_atoms)
                            vec.update(values)
                            if _claims.evaluate(ast, vec):
                                return Witness(
                                    n=n, kind="map", check_id=None, direction=None,
                                    claim=text,
                                    data=(("topology", topo.opens),
                                          ("ideal_gen", ideal.gen),
                                          ("cod_topology", cod.opens),
                                          ("map", tab)),
                                    trace=tuple(sorted(
                                        (name, bool(vec[name])) for name in atoms)),
                                )
        else:
            raise TopoidealError(f"unknown scope {scope!r}")
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


def _rebuild_map(data: dict, n: int) -> SpaceMap:
    sp = _rebuild_space(data, n)
    cod = make_topology(n, data["cod_topology"])
    return SpaceMap(sp, cod, tuple(data["map"]))


def _replay_set_check(cid: str, direction: str | None, sp: IdealSpace, data: dict) -> bool:
    if cid in ("t1", "t2", "t3", "tt6", "tt42", "star_perfect_remark", "x_always_pio"):
        v = set_classes(sp, data.get("subset", sp.topo.full))
        if cid == "t1":
            return v.i_open and not v.pre_i_open
        if cid == "t2":
            return v.open and not v.pre_i_open
        if cid == "t3":
            return v.pre_i_open and not v.preopen
        if cid == "tt6":
            if direction == "bwd":
                return v.pre_i_open and v.star_dense_in_itself and not v.i_open
            return v.i_open and not (v.pre_i_open and v.star_dense_in_itself)
        if cid == "tt42":
            if direction == "bwd":
                return v.pre_i_open and v.i_locally_closed and not v.open
            return v.open and not (v.pre_i_open and v.i_locally_closed)
        if cid == "star_perfect_remark":
            return v.star_perfect and not (v.open == v.i_open == v.pre_i_open)
        return not v.pre_i_open
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
        from .core import space_props
        props = space_props(sp)
        if sp.ideal.gen == full:
            return not props.i_strongly_irresolvable
        classical = all(topo.is_open(m) for m in pio_family(sp))
        return props.i_strongly_irresolvable != classical
    raise UnknownTheoremId(cid)


def _replay_map_check(cid: str, direction: str | None, f: SpaceMap) -> bool:
    if cid == "tt4":
        return not check_pre_i_continuity_equivalences(f).agree
    v = map_classes(f)
    if cid == "tt1":
        return v.continuous and not v.pre_i_continuous
    if cid == "tt2":
        return v.i_continuous and not v.pre_i_continuous
    if cid == "tt3":
        return v.pre_i_continuous and not v.precontinuous
    if cid == "tt41":
        return v.continuous and not v.i_lc_continuous
    pairs = {
        "tt7": (v.i_continuous, v.pre_i_continuous and v.star_i_continuous),
        "tt43": (v.continuous, v.pre_i_continuous and v.i_lc_continuous),
        "grt1.min": (v.continuous, v.precontinuous and v.lc_continuous),
        "grt1.nwd": (v.continuous, v.precontinuous and v.a_continuous),
    }
    if cid in pairs:
        left, right = pairs[cid]
        if direction == "bwd":
            return right and not left
        if direction == "fwd":
            return left and not right
        return left != right
    raise UnknownTheoremId(cid)


def replay_witness(w: Witness) -> bool:
    """Re-evaluate a witness on freshly built objects through the definitional
    route; True when it still witnesses what it claims to."""
    data = w.data_dict()
    if w.claim is not None and w.check_id is None:
        if w.kind == "set":
            sp = _rebuild_space(data, w.n)
            from .core import space_props
            vec = set_classes(sp, data["subset"]).as_dict()
            props = space_props(sp)
            vec.update({
                "hayashi_samuels": props.hayashi_samuels,
                "submaximal": props.submaximal,
                "i_strongly_irresolvable": props.i_strongly_irresolvable,
            })
        elif w.kind == "map":
            f = _rebuild_map(data, w.n)
            vec = {k: v for k, v in map_classes(f).as_dict().items() if v is not None}
            from .core import space_props
            props = space_props(f.dom)
            vec.update({
                "hayashi_samuels": props.hayashi_samuels,
                "submaximal": props.submaximal,
                "i_strongly_irresolvable": props.i_strongly_irresolvable,
            })
        else:  # map_pair from the composition search
            sp = _rebuild_space(data, w.n)
            mid = make_topology(w.n, data["mid_topology"])
            mid_sp = IdealSpace(mid, principal_ideal(w.n, data["mid_ideal_gen"]))
            cod = make_topology(w.n, data["cod_topology"])
            f = SpaceMap(sp, mid, tuple(data["map_first"]))
            g = SpaceMap(mid_sp, cod, tuple(data["map_second"]))
            h = compose(f, g)
            return (map_classes(f).pre_i_continuous
                    and map_classes(g).pre_i_continuous
                    and not map_classes(h).pre_i_continuous)
        ast = _claims.parse_claim(w.claim)
        if not _claims.evaluate(ast, vec):
            return False
        return all(vec[name] == value for name, value in w.trace)

    cid = w.check_id
    scope = REGISTRY[cid].scope
    if scope in ("sets", "set_pairs", "set_families"):
        sp = _rebuild_space(data, w.n)
        return _replay_set_check(cid, w.direction, sp, data)
    if scope == "maps":
        return _replay_map_check(cid, w.direction, _rebuild_map(data, w.n))
    # map_pairs: rebuild both hops
    sp = _rebuild_space(data, w.n)
    mid = make_topology(w.n, data["mid_topology"])
    cod = make_topology(w.n, data["cod_topology"])
    f = SpaceMap(sp, mid, tuple(data["map_first"]))
    g = SpaceMap(IdealSpace(mid, principal_ideal(w.n, 0)), cod, tuple(data["map_second"]))
    h = compose(f, g)
    if not map_classes(f).pre_i_continuous:
        return False
    if not map_classes(g).continuous:
        return False
    hv = map_classes(h)
    return not (hv.pre_i_continuous if cid == "tt5.i" else hv.precontinuous)
