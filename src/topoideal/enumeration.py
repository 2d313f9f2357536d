"""Deterministic, index-addressable enumeration of small finite structures.

Each function returns an immutable sequence in a canonical order, so the
same (kind, n, index) always resolves to the same object and any index
partition of a sweep can run in parallel.  Topologies are enumerated
labeled (not up to homeomorphism): the theorem sweeps quantify over
labeled structures.  _orbits groups the labeled ideal spaces into orbits
of the point relabelings, so a sweep can prove a check on one space per
orbit.

Topologies come from one route: a generator of consistent
minimal-neighborhood tables, i.e. preorders, each giving its Alexandrov
topology.  The test suite cross-checks it against a brute filter of all
families containing the empty set and the carrier, and against the
unpacked table generator and per-mask opens it replaced.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core import (
    FiniteTopology,
    Ideal,
    TopoidealError,
    _topology_from_min_nbhd,
    _unions,
    bits,
)

MAX_TOPOLOGY_POINTS = 5
DEFAULT_MAP_BUDGET = 1_000_000


class CarrierTooLarge(TopoidealError):
    pass


class BudgetExceeded(TopoidealError):
    pass


@lru_cache(maxsize=None)
def ideals(n: int) -> tuple[Ideal, ...]:
    """All 2^n principal ideals, by generator ascending."""
    if not 1 <= n <= 16:
        raise CarrierTooLarge(f"ideals need 1 <= n <= 16, got {n}")
    return tuple(Ideal(n, gen) for gen in range(1 << n))


def maps(dom_n: int, cod_n: int) -> tuple[tuple[int, ...], ...]:
    """All total point tables dom -> cod in mixed-radix order (last point fastest)."""
    if dom_n < 1 or cod_n < 1:
        raise TopoidealError("map enumeration needs nonempty carriers")
    if cod_n ** dom_n > DEFAULT_MAP_BUDGET:
        raise BudgetExceeded(f"{cod_n}^{dom_n} maps exceed budget {DEFAULT_MAP_BUDGET}")
    return tuple(itertools.product(range(cod_n), repeat=dom_n))


@lru_cache(maxsize=None)
def _row_choices(n: int, x: int, y: int, row_y: int) -> int:
    """Packed rows for point x that agree with an earlier point y whose row
    is row_y: bit c is set iff c contains row_y when it contains y, and c
    lies inside row_y when row_y contains x."""
    inside = row_y if row_y >> x & 1 else (1 << n) - 1
    return sum(1 << c for c in range(1 << n)
               if c & ~inside == 0 and (not c >> y & 1 or row_y & ~c == 0))


def _min_nbhd_tables(n: int) -> list[tuple[int, ...]]:
    """All consistent minimal-neighborhood tables: rows with x in row[x] such
    that membership implies row containment (a preorder, row = up-set), in
    ascending order of the row tuples.  Point x may take the rows left in
    the AND of the packed choices each earlier row allows."""
    results: list[tuple[int, ...]] = []
    rows: list[int] = []
    own = [sum(1 << c for c in range(1 << n) if c >> x & 1) for x in range(n)]

    def extend(x: int) -> None:
        if x == n:
            results.append(tuple(rows))
            return
        allowed = own[x]
        for y, row_y in enumerate(rows):
            allowed &= _row_choices(n, x, y, row_y)
        for cand in bits(allowed):
            rows.append(cand)
            extend(x + 1)
            rows.pop()

    extend(0)
    return results


@lru_cache(maxsize=None)
def topologies(n: int) -> tuple[FiniteTopology, ...]:
    """Every labeled topology on n points exactly once, the Alexandrov
    topology of each preorder, sorted by opens (cached)."""
    if not 1 <= n <= MAX_TOPOLOGY_POINTS:
        raise CarrierTooLarge(f"topologies need 1 <= n <= {MAX_TOPOLOGY_POINTS}, got {n}")
    out = [_topology_from_min_nbhd(n, rows) for rows in _min_nbhd_tables(n)]
    out.sort(key=lambda t: t.opens)
    return tuple(out)


@lru_cache(maxsize=None)
def _orbits(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The ideal spaces on n points up to relabeling the points, in
    enumeration order: per class of topologies, the index of its first
    labeled member, and per orbit of ideal generators under that
    topology's automorphisms, the orbit's first generator and its weight,
    the number of labeled spaces the orbit stands for (class size times
    generator orbit size).  Each class is found by applying all n!
    relabelings to the min_nbhd rows of its first member."""
    topos = topologies(n)
    index = {topo.min_nbhd: i for i, topo in enumerate(topos)}
    # (permutation, the image of every mask under it)
    relabels = [(perm, _unions([1 << p for p in perm]))
                for perm in itertools.permutations(range(n))]
    placed, out = set(), []
    for i, topo in enumerate(topos):
        if i in placed:
            continue
        members, automorphisms = set(), []
        for perm, image in relabels:
            rows = [0] * n
            for x, row in enumerate(topo.min_nbhd):
                rows[perm[x]] = image[row]
            rows = tuple(rows)
            members.add(index[rows])
            if rows == topo.min_nbhd:
                automorphisms.append(image)
        placed |= members
        gens, seen = [], set()
        for gen in range(1 << n):
            if gen not in seen:
                orbit = {image[gen] for image in automorphisms}
                seen |= orbit
                gens.append((gen, len(members) * len(orbit)))
        out.append((i, tuple(gens)))
    return tuple(out)
