"""Precomputed predicate tables over all subsets of one space.

TopologyAnalysis holds the ideal-free tables (shared by every ideal on the
same topology), SpaceAnalysis the ideal-dependent ones.  A table is either
a list indexed by subset mask or, for the predicates the set sweep checks,
a packed family: an int whose bit m is set iff subset m has the property
(the `*_bits` tables; the matching `*_t` lists are unpacked from them).
Everything is lazy, so a sweep only pays for the predicates its selected
checks consult.  These tables are the fast route; topoideal.classes holds
the definitional route, and the test suite pins the two against each other.
"""

from __future__ import annotations

from functools import cached_property

from .core import (
    FiniteTopology,
    IdealSpace,
    RoutesDisagree,
    SpaceProps,
    bits,
    local_function,
    star_min_nbhd,
    subspace,
)
from .classes import ClassVector


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


def _unpack(packed: int, size: int) -> list[bool]:
    """Per-subset flag list of a packed family."""
    return [packed >> m & 1 == 1 for m in range(size)]


class TopologyAnalysis:
    def __init__(self, topo: FiniteTopology):
        self.topo = topo
        self.n = topo.n
        self.full = topo.full
        self.size = 1 << topo.n
        self._sub_cache: dict[int, tuple] = {}

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
    def closed_family(self) -> tuple[int, ...]:
        return self.topo.closed_sets()

    @lazy_table
    def regclosed_family(self) -> tuple[int, ...]:
        cl, it = self.closure_t, self.interior_t
        return tuple(sorted({cl[u] for u in self.topo.opens}))

    @lazy_table
    def open_bits(self) -> int:
        out = 0
        for u in self.topo.opens:
            out |= 1 << u
        return out

    @lazy_table
    def preopen_bits(self) -> int:
        it, cl = self.interior_t, self.closure_t
        out = 0
        for m in range(self.size):
            if m & ~it[cl[m]] == 0:
                out |= 1 << m
        return out

    @lazy_table
    def preopen_t(self) -> list[bool]:
        return _unpack(self.preopen_bits, self.size)

    @lazy_table
    def semi_t(self) -> list[bool]:
        it, cl = self.interior_t, self.closure_t
        return [m & ~cl[it[m]] == 0 for m in range(self.size)]

    @lazy_table
    def alpha_t(self) -> list[bool]:
        it, cl = self.interior_t, self.closure_t
        return [m & ~it[cl[it[m]]] == 0 for m in range(self.size)]

    @lazy_table
    def beta_t(self) -> list[bool]:
        it, cl = self.interior_t, self.closure_t
        return [m & ~cl[it[cl[m]]] == 0 for m in range(self.size)]

    @lazy_table
    def regclosed_t(self) -> list[bool]:
        it, cl = self.interior_t, self.closure_t
        return [m == cl[it[m]] for m in range(self.size)]

    @lazy_table
    def dense_t(self) -> list[bool]:
        cl, full = self.closure_t, self.full
        return [cl[m] == full for m in range(self.size)]

    @lazy_table
    def lc_t(self) -> list[bool]:
        out = [False] * self.size
        for u in self.topo.opens:
            for c in self.closed_family:
                out[u & c] = True
        return out

    @lazy_table
    def aset_t(self) -> list[bool]:
        out = [False] * self.size
        for u in self.topo.opens:
            for r in self.regclosed_family:
                out[u & r] = True
        return out

    @lazy_table
    def preopen_family(self) -> tuple[int, ...]:
        return tuple(bits(self.preopen_bits))

    @lazy_table
    def semi_family(self) -> tuple[int, ...]:
        t = self.semi_t
        return tuple(m for m in range(self.size) if t[m])

    @lazy_table
    def alpha_family(self) -> tuple[int, ...]:
        t = self.alpha_t
        return tuple(m for m in range(self.size) if t[m])

    @lazy_table
    def submaximal(self) -> bool:
        dense, opens = self.dense_t, self.topo.opens_set
        return all(not dense[m] or m in opens for m in range(self.size))

    @lazy_table
    def nd_gen(self) -> int:
        it, cl = self.interior_t, self.closure_t
        gen = 0
        for m in range(self.size):
            if it[cl[m]] == 0:
                gen |= m
        return gen

    def sub_tables(self, carrier: int):
        """Subspace on carrier plus its TopologyAnalysis (cached per carrier)."""
        got = self._sub_cache.get(carrier)
        if got is None:
            sub = subspace(self.topo, carrier)
            got = (sub, TopologyAnalysis(sub.topo))
            self._sub_cache[carrier] = got
        return got


class SpaceAnalysis:
    def __init__(self, sp: IdealSpace, ta: TopologyAnalysis | None = None):
        self.sp = sp
        self.ta = ta if ta is not None else TopologyAnalysis(sp.topo)
        self.n = sp.n
        self.full = sp.topo.full
        self.size = 1 << sp.n

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
    def pio_t(self) -> list[bool]:
        return _unpack(self.pio_bits, self.size)

    @lazy_table
    def io_t(self) -> list[bool]:
        return _unpack(self.io_bits, self.size)

    @lazy_table
    def sdi_t(self) -> list[bool]:
        return _unpack(self.sdi_bits, self.size)

    @lazy_table
    def perfect_t(self) -> list[bool]:
        return _unpack(self.perfect_bits, self.size)

    @lazy_table
    def pio_family(self) -> tuple[int, ...]:
        return tuple(bits(self.pio_bits))

    @lazy_table
    def perfect_family(self) -> tuple[int, ...]:
        return tuple(bits(self.perfect_bits))

    @lazy_table
    def piclosed_t(self) -> list[bool]:
        pio, full = self.pio_t, self.full
        return [pio[full ^ m] for m in range(self.size)]

    @lazy_table
    def ilc_bits(self) -> int:
        """Packed I-locally closed family: every U & V, U open, V star-perfect."""
        opens = self.sp.topo.opens
        out = 0
        for v in self.perfect_family:
            for u in opens:
                out |= 1 << (u & v)
        return out

    @lazy_table
    def ilc_t(self) -> list[bool]:
        return _unpack(self.ilc_bits, self.size)

    @lazy_table
    def ts_open_t(self) -> list[bool]:
        ms = star_min_nbhd(self.sp)
        out = []
        for m in range(self.size):
            out.append(all(ms[x] & ~m == 0 for x in bits(m)))
        return out

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
        ts = self.ts_open_t
        return SpaceProps(
            hayashi_samuels=hs_trace,
            submaximal=self.ta.submaximal,
            i_strongly_irresolvable=all(ts[m] for m in self.pio_family),
        )

    @lazy_table
    def pio_cover_ok_t(self) -> list[bool]:
        """Every point of m lies in some pre-I-open set inside m (tt4 condition 2)."""
        fam = self.pio_family
        out = []
        for m in range(self.size):
            ok = True
            for x in bits(m):
                bit = 1 << x
                if not any(w & bit and w & ~m == 0 for w in fam):
                    ok = False
                    break
            out.append(ok)
        return out

    @lazy_table
    def cl_star_nbhd_ok_t(self) -> list[bool]:
        """Cl_star(m) is a neighborhood of every point of m (tt4 condition 3)."""
        it, cs = self.ta.interior_t, self.cl_star_t
        out = []
        for m in range(self.size):
            nb = it[cs[m]]
            out.append(all(nb >> x & 1 for x in bits(m)))
        return out

    def class_vector(self, a: int) -> ClassVector:
        ta, full = self.ta, self.full
        comp = full ^ a
        return ClassVector(
            open=a in self.sp.topo.opens_set,
            closed=comp in self.sp.topo.opens_set,
            dense=ta.dense_t[a],
            preopen=ta.preopen_t[a],
            semi_open=ta.semi_t[a],
            alpha_open=ta.alpha_t[a],
            beta_open=ta.beta_t[a],
            regular_closed=ta.regclosed_t[a],
            locally_closed=ta.lc_t[a],
            a_set=ta.aset_t[a],
            i_open=self.io_t[a],
            i_closed=self.io_t[comp],
            pre_i_open=self.pio_t[a],
            pre_i_closed=self.pio_t[comp],
            star_dense_in_itself=self.sdi_t[a],
            star_perfect=self.perfect_t[a],
            tau_star_open=self.ts_open_t[a],
            tau_star_closed=self.ts_open_t[comp],
            i_locally_closed=self.ilc_t[a],
        )
