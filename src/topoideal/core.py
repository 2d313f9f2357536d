"""Finite ideal topological spaces over bitmask carriers.

A carrier of n points (n <= 16) is {0, ..., n-1}; a subset is a plain int
whose bit i records membership of point i.  A topology is the canonical
ascending tuple of its open masks plus the minimal-neighborhood table
min_nbhd[x] = intersection of all opens containing x; every operator is
defined through that table.  An ideal on a finite carrier is principal
(heredity plus finite additivity force it to be the power set of its
union), so only the generator mask is stored; membership is a subset test
against the generator.

All types are immutable after construction and all operations are pure,
so values can be shared freely across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

MAX_POINTS = 16


class TopoidealError(ValueError):
    """Base class for all input/validation errors raised by this package."""


class NotATopology(TopoidealError):
    pass


class NotAnIdeal(TopoidealError):
    pass


class EmptyCarrier(TopoidealError):
    pass


class RoutesDisagree(TopoidealError):
    """Two independent computations of the same property gave different answers."""


class NotNowhereDense(TopoidealError):
    """The union of all nowhere dense sets came out not nowhere dense."""


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int):
    """Yield every subset of mask, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _check_masks_in_range(n: int, family, what: str) -> None:
    if not 0 <= n <= MAX_POINTS:
        raise TopoidealError(f"carrier size {n} outside 0..{MAX_POINTS}")
    top = full_mask(n)
    for m in family:
        if m < 0 or m & ~top:
            raise TopoidealError(f"{what} mask {m:#x} has bits outside carrier of {n} points")


@dataclass(frozen=True)
class FiniteTopology:
    """Validated topology on {0..n-1}: canonical opens plus min-neighborhood table."""

    n: int
    opens: tuple[int, ...]
    min_nbhd: tuple[int, ...]

    @cached_property
    def opens_set(self) -> frozenset[int]:
        return frozenset(self.opens)

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def is_open(self, mask: int) -> bool:
        return mask in self.opens_set

    def closed_sets(self) -> tuple[int, ...]:
        top = self.full
        return tuple(sorted(top ^ u for u in self.opens))


def _min_nbhd_from_opens(n: int, opens) -> tuple[int, ...]:
    table = []
    for x in range(n):
        bit = 1 << x
        acc = full_mask(n)
        for u in opens:
            if u & bit:
                acc &= u
        table.append(acc)
    return tuple(table)


def _unions(rows) -> list[int]:
    """Entry m is the union of rows[x] over the points x of m, for every
    mask m on len(rows) points.  The masks with top point x are those
    below 1 << x with x added, so each entry costs one OR."""
    up = [0]
    for row in rows:
        up += [u | row for u in up]
    return up


def _topology_from_min_nbhd(n: int, min_nbhd) -> FiniteTopology:
    """Build the Alexandrov topology of a consistent min-neighborhood table.

    m is open iff it holds the minimal neighborhood of each of its points,
    i.e. iff the union of those neighborhoods, which contains m, is m.
    """
    opens = tuple(m for m, up in enumerate(_unions(min_nbhd)) if up == m)
    return FiniteTopology(n, opens, tuple(min_nbhd))


def make_topology(n: int, family) -> FiniteTopology:
    """Validate a family of masks as a topology on n points.

    Order- and duplicate-insensitive; raises NotATopology naming a witness
    pair when the family is not closed under union or intersection.
    """
    fam = sorted(set(family))
    if not fam:
        raise NotATopology("family is empty")
    _check_masks_in_range(n, fam, "open")
    fam_set = frozenset(fam)
    top = full_mask(n)
    if 0 not in fam_set:
        raise NotATopology("empty set missing from family")
    if top not in fam_set:
        raise NotATopology("carrier X missing from family")
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            if (a | b) not in fam_set:
                raise NotATopology(
                    f"not closed under union: {a:#x} | {b:#x} = {a | b:#x} missing")
            if (a & b) not in fam_set:
                raise NotATopology(
                    f"not closed under intersection: {a:#x} & {b:#x} = {a & b:#x} missing")
    return FiniteTopology(n, tuple(fam), _min_nbhd_from_opens(n, fam))


@dataclass(frozen=True)
class Ideal:
    """Principal ideal P(gen) on {0..n-1}: A is a member iff A is a subset of gen."""

    n: int
    gen: int

    def contains(self, mask: int) -> bool:
        return mask & ~self.gen == 0

    def family(self) -> tuple[int, ...]:
        return tuple(sorted(submasks(self.gen)))


def principal_ideal(n: int, gen: int) -> Ideal:
    _check_masks_in_range(n, (gen,), "generator")
    return Ideal(n, gen)


def make_ideal(n: int, family) -> Ideal:
    """Validate an explicit family against the two ideal axioms, then store its union.

    Raises NotAnIdeal with a witness: a member with a missing subset
    (heredity), or two members whose union is missing (finite additivity).
    """
    fam = sorted(set(family))
    if not fam:
        raise NotAnIdeal("family is empty")
    _check_masks_in_range(n, fam, "ideal member")
    fam_set = frozenset(fam)
    for a in fam:
        for b in submasks(a):
            if b not in fam_set:
                raise NotAnIdeal(
                    f"heredity violated: {b:#x} is a subset of member {a:#x} but missing")
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            if (a | b) not in fam_set:
                raise NotAnIdeal(
                    f"finite additivity violated: {a:#x} | {b:#x} = {a | b:#x} missing")
    gen = 0
    for a in fam:
        gen |= a
    return Ideal(n, gen)


@dataclass(frozen=True)
class IdealSpace:
    """A topology with an ideal on the same carrier."""

    topo: FiniteTopology
    ideal: Ideal

    def __post_init__(self):
        if self.topo.n != self.ideal.n:
            raise TopoidealError(
                f"carrier mismatch: topology on {self.topo.n} points, ideal on {self.ideal.n}")

    @property
    def n(self) -> int:
        return self.topo.n


@dataclass(frozen=True)
class SpaceProps:
    hayashi_samuels: bool
    submaximal: bool
    i_strongly_irresolvable: bool


@dataclass(frozen=True)
class Subspace:
    """Relative topology on a nonempty subset, re-indexed to 0..k-1.

    embedding[i] is the original point behind new index i.
    """

    topo: FiniteTopology
    embedding: tuple[int, ...]

    def restrict(self, mask: int) -> int:
        """Re-index a mask on the original carrier into subspace coordinates."""
        out = 0
        for i, p in enumerate(self.embedding):
            if mask >> p & 1:
                out |= 1 << i
        return out

    def extend(self, sub: int) -> int:
        out = 0
        for i in bits(sub):
            out |= 1 << self.embedding[i]
        return out


# --- operators -------------------------------------------------------------

def interior(topo: FiniteTopology, mask: int) -> int:
    """Largest open subset of mask: the points whose minimal neighborhood fits inside."""
    out = 0
    for x in range(topo.n):
        if topo.min_nbhd[x] & ~mask == 0:
            out |= 1 << x
    return out


def closure(topo: FiniteTopology, mask: int) -> int:
    """Smallest closed superset of mask, as complement of the interior of the complement."""
    top = topo.full
    return top ^ interior(topo, top ^ mask)


def consolidation(topo: FiniteTopology, mask: int) -> int:
    """Interior of the closure; the sets inside their consolidation are the preopen ones."""
    return interior(topo, closure(topo, mask))


def local_function(sp: IdealSpace, mask: int) -> int:
    """Points whose every open neighborhood meets mask in a set outside the ideal.

    Heredity lets the quantifier over all open neighborhoods collapse to the
    minimal one: x qualifies iff min_nbhd[x] & mask is not in the ideal.
    """
    gen = sp.ideal.gen
    out = 0
    for x in range(sp.topo.n):
        if sp.topo.min_nbhd[x] & mask & ~gen:
            out |= 1 << x
    return out


def star_closure(sp: IdealSpace, mask: int) -> int:
    """mask united with its local function; the closure operator of tau_star."""
    return mask | local_function(sp, mask)


def star_min_nbhd(sp: IdealSpace) -> tuple[int, ...]:
    """Minimal tau_star-neighborhood of each point: (min_nbhd[x] minus gen) plus x."""
    gen = sp.ideal.gen
    return tuple((sp.topo.min_nbhd[x] & ~gen) | (1 << x) for x in range(sp.topo.n))


def tau_star(sp: IdealSpace) -> FiniteTopology:
    """Topology generated by the base {U minus E : U open, E in the ideal}.

    The base is intersection-closed, so the opens are exactly the unions of
    base elements; the smallest base element around x is
    (min_nbhd[x] minus gen) plus x, which makes the result Alexandrov.
    """
    return _topology_from_min_nbhd(sp.topo.n, star_min_nbhd(sp))


def alpha_topology(topo: FiniteTopology) -> FiniteTopology:
    """Topology whose opens are the sets A with A inside Int(Cl(Int(A)))."""
    n = topo.n
    opens = tuple(m for m in range(1 << n)
                  if m & ~interior(topo, closure(topo, interior(topo, m))) == 0)
    return FiniteTopology(n, opens, _min_nbhd_from_opens(n, opens))


def nowhere_dense_ideal(topo: FiniteTopology) -> Ideal:
    """Principal ideal generated by the union of all nowhere dense sets.

    On a finite carrier the union is a finite union of nowhere dense sets,
    hence itself nowhere dense; checked after construction.
    """
    n = topo.n
    gen = 0
    for m in range(1 << n):
        if consolidation(topo, m) == 0:
            gen |= m
    if consolidation(topo, gen) != 0:
        raise NotNowhereDense(f"union {gen:#x} of the nowhere dense sets has nonempty Int(Cl)")
    return Ideal(n, gen)


def subspace(topo: FiniteTopology, mask: int) -> Subspace:
    """Relative topology {U & mask} on the re-indexed carrier mask.

    A point's minimal neighborhood in the subspace is its minimal
    neighborhood cut down to mask, so the relative topology is the
    Alexandrov topology of those rows, re-indexed.
    """
    if mask == 0:
        raise EmptyCarrier("subspace carrier is empty")
    points = tuple(bits(mask))
    rows = [sum(1 << i for i, q in enumerate(points) if topo.min_nbhd[p] >> q & 1)
            for p in points]
    return Subspace(_topology_from_min_nbhd(len(points), rows), points)


def space_props(sp: IdealSpace) -> SpaceProps:
    """Hayashi-Samuels, submaximal, and strong-irresolvability flags of a space.

    Hayashi-Samuels is computed both as "no nonempty open lies in the ideal"
    and as "X equals its local function"; the two must agree.
    """
    from .classes import is_pre_i_open   # classes imports this module

    topo, ideal = sp.topo, sp.ideal
    top = topo.full
    hs_by_trace = all(u == 0 or not ideal.contains(u) for u in topo.opens)
    hs_by_star = local_function(sp, top) == top
    if hs_by_trace != hs_by_star:
        raise RoutesDisagree(
            f"Hayashi-Samuels: {hs_by_trace} from the opens, {hs_by_star} from X*")
    dense_all_open = all(
        closure(topo, m) != top or topo.is_open(m) for m in range(1 << topo.n))
    star_opens = tau_star(sp).opens_set
    pio_inside_star = all(
        not is_pre_i_open(sp, m) or m in star_opens for m in range(1 << topo.n))
    return SpaceProps(
        hayashi_samuels=hs_by_trace,
        submaximal=dense_all_open,
        i_strongly_irresolvable=pio_inside_star,
    )
