"""Precomputed predicate tables over all subsets of one space.

TopologyAnalysis holds the ideal-free tables (shared by every ideal on the
same topology), SpaceAnalysis the ideal-dependent ones.  Most tables are
packed families: an int whose bit m is set iff subset m has the property
(the `*_bits` tables).  Lists indexed by subset mask (`*_t`) hold the
operators (interior, closure, local function) the families are built from;
only l1 reads one, star_t, directly.  Everything is lazy, so a sweep only
pays for the predicates its selected checks consult.

SET_ATOMS maps every set atom of the claim grammar to its packed family and
MAP_ATOMS every map atom to the domain family its preimages are tested
against.  _SetPacking and _MapPacking give a sweep the atoms of one space
packed over all its structures: its subsets, or every (codomain, map)
pair out of it, grouped by the map's initial topology.  These tables are
the fast route; topoideal.classes and topoideal.maps hold the
definitional route, and the test suite pins the two against each other.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Callable

from . import claims as _claims
from .core import (
    FiniteTopology,
    IdealSpace,
    RoutesDisagree,
    SpaceProps,
    bits,
    local_function,
    principal_ideal,
    submasks,
    subspace,
    tau_star,
)
from .enumeration import DEFAULT_MAP_BUDGET, BudgetExceeded, maps, topologies


class lazy_table(cached_property):
    """cached_property without the lock Python 3.11 takes on every first access.

    A table is a pure function of immutable inputs, so two threads racing to
    build it store equal values; the lock only costs time, and a sweep makes
    about a million first accesses.  It stays a cached_property subclass so
    code that finds the tables by type still sees them.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def family_bits(masks) -> int:
    """Packed family of the given subsets."""
    out = 0
    for m in masks:
        out |= 1 << m
    return out


def _pack(flags) -> int:
    """Packed family of a per-subset flag sequence."""
    return family_bits(m for m, flag in enumerate(flags) if flag)


def _complements(packed: int, full: int) -> int:
    """Packed family of the complements of a packed family's members."""
    # full ^ m == full - m, so complementing every member reverses the bits
    return int(format(packed, f"0{full + 1}b")[::-1], 2)


class TopologyAnalysis:
    def __init__(self, topo: FiniteTopology):
        self.topo = topo
        self.n = topo.n
        self.full = topo.full
        self.size = 1 << topo.n
        self._lifted: dict[str, list[int]] = {}

    @lazy_table
    def interior_t(self) -> list[int]:
        out = [0] * self.size
        for x in range(self.n):
            nb = self.topo.min_nbhd[x]
            bit = 1 << x
            for m in range(self.size):
                if nb & ~m == 0:
                    out[m] |= bit
        return out

    @lazy_table
    def closure_t(self) -> list[int]:
        it, full = self.interior_t, self.full
        return [full ^ it[full ^ m] for m in range(self.size)]

    @lazy_table
    def regclosed_family(self) -> tuple[int, ...]:
        cl = self.closure_t
        return tuple(sorted({cl[u] for u in self.topo.opens}))

    @lazy_table
    def open_bits(self) -> int:
        return family_bits(self.topo.opens)

    @lazy_table
    def preopen_bits(self) -> int:
        it, cl = self.interior_t, self.closure_t
        return _pack(m & ~it[cl[m]] == 0 for m in range(self.size))

    @lazy_table
    def semi_bits(self) -> int:
        it, cl = self.interior_t, self.closure_t
        return _pack(m & ~cl[it[m]] == 0 for m in range(self.size))

    @lazy_table
    def alpha_bits(self) -> int:
        it, cl = self.interior_t, self.closure_t
        return _pack(m & ~it[cl[it[m]]] == 0 for m in range(self.size))

    @lazy_table
    def beta_bits(self) -> int:
        it, cl = self.interior_t, self.closure_t
        return _pack(m & ~cl[it[cl[m]]] == 0 for m in range(self.size))

    @lazy_table
    def regclosed_bits(self) -> int:
        it, cl = self.interior_t, self.closure_t
        return _pack(m == cl[it[m]] for m in range(self.size))

    @lazy_table
    def dense_bits(self) -> int:
        cl, full = self.closure_t, self.full
        return _pack(cl[m] == full for m in range(self.size))

    @lazy_table
    def lc_bits(self) -> int:
        closed = self.topo.closed_sets()
        return family_bits(u & c for u in self.topo.opens for c in closed)

    @lazy_table
    def aset_bits(self) -> int:
        return family_bits(u & r for u in self.topo.opens for r in self.regclosed_family)

    @lazy_table
    def submaximal(self) -> bool:
        return self.dense_bits & ~self.open_bits == 0

    @lazy_table
    def nd_gen(self) -> int:
        it, cl = self.interior_t, self.closure_t
        gen = 0
        for m in range(self.size):
            if it[cl[m]] == 0:
                gen |= m
        return gen

    def lifted(self, atom: str) -> list[int]:
        """Entry c is the packed family, in this space's coordinates, of the
        subsets of carrier c that have the set atom in the subspace on c
        under the minimal ideal; entry 0 is 0.  Built on first read."""
        got = self._lifted.get(atom)
        if got is None:
            got = self._lifted[atom] = [0]
            for carrier in range(1, self.size):
                sub = subspace(self.topo, carrier)
                ssa = SpaceAnalysis(IdealSpace(sub.topo, principal_ideal(sub.topo.n, 0)))
                got.append(family_bits(map(sub.extend, bits(SET_ATOMS[atom](ssa)))))
        return got


class SpaceAnalysis:
    def __init__(self, sp: IdealSpace, ta: TopologyAnalysis | None = None):
        self.sp = sp
        self.ta = ta if ta is not None else TopologyAnalysis(sp.topo)
        self.n = sp.n
        self.full = sp.topo.full
        self.size = 1 << sp.n
        self.all_bits = (1 << self.size) - 1

    @lazy_table
    def star_t(self) -> list[int]:
        # A* = Cl(A - gen): x is in A* iff min_nbhd[x] meets A outside gen
        cl, keep = self.ta.closure_t, self.full & ~self.sp.ideal.gen
        return [cl[m & keep] for m in range(self.size)]

    @lazy_table
    def cl_star_t(self) -> list[int]:
        st = self.star_t
        return [m | st[m] for m in range(self.size)]

    @lazy_table
    def star_families(self) -> tuple[int, int, int, int]:
        """Packed pre-I-open, I-open, star-dense-in-itself and star-perfect
        families, filled in one pass over star_t."""
        it = self.ta.interior_t
        pio = io = sdi = perfect = 0
        for m, s in enumerate(self.star_t):
            bit = 1 << m
            if m & ~it[m | s] == 0:
                pio |= bit
            if m & ~it[s] == 0:
                io |= bit
            if m & ~s == 0:
                sdi |= bit
            if m == s:
                perfect |= bit
        return pio, io, sdi, perfect

    @lazy_table
    def pio_bits(self) -> int:
        return self.star_families[0]

    @lazy_table
    def io_bits(self) -> int:
        return self.star_families[1]

    @lazy_table
    def sdi_bits(self) -> int:
        return self.star_families[2]

    @lazy_table
    def perfect_bits(self) -> int:
        return self.star_families[3]

    @lazy_table
    def ilc_bits(self) -> int:
        """Packed I-locally closed family: every U & V, U open, V star-perfect."""
        # nested loops, not family_bits over a generator: this runs on every
        # Hayashi-Samuels space of a tt42 sweep
        opens = self.sp.topo.opens
        out = 0
        # bits(), not a cached tuple of the members: a tuple cached on every
        # space lands in CPython's tuple free lists when the space is freed,
        # and peak RSS creeps from sweep to sweep
        for v in bits(self.perfect_bits):
            for u in opens:
                out |= 1 << (u & v)
        return out

    @lazy_table
    def ts_open_bits(self) -> int:
        return family_bits(tau_star(self.sp).opens)

    @lazy_table
    def hayashi_samuels(self) -> bool:
        # from the opens, so props can cross-check it against X* = X
        gen = self.sp.ideal.gen
        return all(u == 0 or u & ~gen for u in self.sp.topo.opens)

    @lazy_table
    def props(self) -> SpaceProps:
        hs_trace = self.hayashi_samuels
        hs_star = local_function(self.sp, self.full) == self.full
        if hs_trace != hs_star:
            raise RoutesDisagree(
                f"Hayashi-Samuels: {hs_trace} from the opens, {hs_star} from X*")
        return SpaceProps(
            hayashi_samuels=hs_trace,
            submaximal=self.ta.submaximal,
            i_strongly_irresolvable=self.pio_bits & ~self.ts_open_bits == 0,
        )

    @lazy_table
    def pio_cover_bits(self) -> int:
        """Every point of m lies in some pre-I-open set inside m (tt4 condition 2)."""
        # bits(), not a cached tuple of the members, as in ilc_bits
        inside = [0] * self.size   # union of the pre-I-open sets inside m
        for w in bits(self.pio_bits):
            for rest in submasks(self.full ^ w):
                inside[w | rest] |= w
        return _pack(inside[m] == m for m in range(self.size))

    @lazy_table
    def cl_star_nbhd_bits(self) -> int:
        """Cl_star(m) is a neighborhood of every point of m (tt4 condition 3)."""
        it, cs = self.ta.interior_t, self.cl_star_t
        return _pack(m & ~it[cs[m]] == 0 for m in range(self.size))


# set atom -> its packed family on a space: bit a is set iff subset a has the
# flag; a space flag holds on every subset or on none
SET_ATOMS: dict[str, Callable[[SpaceAnalysis], int]] = {
    "open": attrgetter("ta.open_bits"),
    "closed": lambda sa: _complements(sa.ta.open_bits, sa.full),
    "dense": attrgetter("ta.dense_bits"),
    "preopen": attrgetter("ta.preopen_bits"),
    "semi_open": attrgetter("ta.semi_bits"),
    "alpha_open": attrgetter("ta.alpha_bits"),
    "beta_open": attrgetter("ta.beta_bits"),
    "regular_closed": attrgetter("ta.regclosed_bits"),
    "locally_closed": attrgetter("ta.lc_bits"),
    "a_set": attrgetter("ta.aset_bits"),
    "i_open": attrgetter("io_bits"),
    "i_closed": lambda sa: _complements(sa.io_bits, sa.full),
    "pre_i_open": attrgetter("pio_bits"),
    "pre_i_closed": lambda sa: _complements(sa.pio_bits, sa.full),
    "star_dense_in_itself": attrgetter("sdi_bits"),
    "star_perfect": attrgetter("perfect_bits"),
    "tau_star_open": attrgetter("ts_open_bits"),
    "tau_star_closed": lambda sa: _complements(sa.ts_open_bits, sa.full),
    "i_locally_closed": attrgetter("ilc_bits"),
    "hayashi_samuels": lambda sa: sa.all_bits if sa.hayashi_samuels else 0,
    "submaximal": lambda sa: sa.all_bits if sa.ta.submaximal else 0,
    "i_strongly_irresolvable":
        lambda sa: sa.all_bits if sa.props.i_strongly_irresolvable else 0,
}

# map atom -> (the domain family its preimages must lie in, the codomain
# family whose preimages it tests).  cond4 tests closed sets against the
# pre-I-closed family; preimages commute with complements, so it always
# equals cond1.
MAP_ATOMS: dict[str, tuple[Callable[[SpaceAnalysis], int], str]] = {
    "continuous": (SET_ATOMS["open"], "opens"),
    "precontinuous": (SET_ATOMS["preopen"], "opens"),
    "pre_i_continuous": (SET_ATOMS["pre_i_open"], "opens"),
    "i_continuous": (SET_ATOMS["i_open"], "opens"),
    "star_i_continuous": (SET_ATOMS["star_dense_in_itself"], "opens"),
    "lc_continuous": (SET_ATOMS["locally_closed"], "opens"),
    "i_lc_continuous": (SET_ATOMS["i_locally_closed"], "opens"),
    "a_continuous": (SET_ATOMS["a_set"], "opens"),
    "beta_continuous": (SET_ATOMS["beta_open"], "opens"),
    "cond1": (SET_ATOMS["pre_i_open"], "opens"),
    "cond2": (attrgetter("pio_cover_bits"), "opens"),
    "cond3": (attrgetter("cl_star_nbhd_bits"), "opens"),
    "cond4": (SET_ATOMS["pre_i_closed"], "closed"),
}


# --- atoms packed over the structures of a space ------------------------------

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


class _MapPacking:
    """Map atoms of one domain space packed over (codomain, map) on n points:
    bit ci * len(tabs) + mi is point table tabs[mi] into topology topos[ci],
    so ascending bits follow the enumeration order.

    A map atom holds iff every codomain set of its kind (opens, or closed
    sets) pulls back into its domain family.  Those preimages are the opens
    (closed sets) of the map's initial topology, the topology it pulls back
    onto the domain points, which is itself one of topos: x's minimal
    neighborhood there is the preimage of f(x)'s.  initial[r] holds the
    (codomain, map) bits whose initial topology is topos[r], so a map family
    is the union of initial[r] over the r whose opens (closed sets) lie in
    the domain family.

    initial takes T(n) ints of T(n) * n^n bits: 4 MB on 4 points, ~19 GB
    on 5, so packings over DEFAULT_MAP_BUDGET structures are refused.
    """

    kind = "map"
    leaf = itemgetter

    @staticmethod
    def fits(n: int) -> bool:
        return len(topologies(n)) * n ** n <= DEFAULT_MAP_BUDGET

    def __init__(self, n: int):
        self.topos = topologies(n)
        self.structures = len(self.topos) * n ** n
        if not self.fits(n):
            raise BudgetExceeded(f"{self.structures} (codomain, map) structures on {n} points "
                                 f"exceed budget {DEFAULT_MAP_BUDGET}")
        self.tabs = maps(n, n)
        self.full = (1 << self.structures) - 1
        self.topo_families = {
            "opens": [family_bits(t.opens) for t in self.topos],
            "closed": [family_bits(t.closed_sets()) for t in self.topos],
        }
        index = {t.min_nbhd: r for r, t in enumerate(self.topos)}
        # per map, the preimage of every codomain mask
        preimages = [[sum(1 << x for x, v in enumerate(tab) if m >> v & 1)
                      for m in range(1 << n)] for tab in self.tabs]
        # filled through bytearrays: OR-ing single bits into ints this wide
        # copies the int every time
        initial = [bytearray((self.structures + 7) >> 3) for _ in self.topos]
        bit = 0
        for t in self.topos:
            nbhd = t.min_nbhd
            for tab, pre in zip(self.tabs, preimages):
                # x's minimal neighborhood in the initial topology: the
                # preimage of tab[x]'s
                r = index[tuple(pre[nbhd[v]] for v in tab)]
                initial[r][bit >> 3] |= 1 << (bit & 7)
                bit += 1
        self.initial = [int.from_bytes(b, "little") for b in initial]
        self.cod_data = [("cod_topology", t.opens) for t in self.topos]
        self.map_data = [("map", tab) for tab in self.tabs]

    def values(self, sa: SpaceAnalysis) -> _MapValues:
        return _MapValues(self, sa)

    def family(self, sa: SpaceAnalysis, atom: str) -> int:
        if atom in _claims.SPACE_FLAGS:
            return self.full if SET_ATOMS[atom](sa) else 0
        domain, kind = MAP_ATOMS[atom]
        fam = domain(sa)
        out = 0
        for pulled, members in zip(self.topo_families[kind], self.initial):
            if pulled & ~fam == 0:
                out |= members
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
