"""Classification of subsets of a finite ideal topological space.

Every predicate here is definitional: it recomputes the operators it needs
for the one subset it is asked about, so single queries stay cheap on any
carrier the package supports.  Sweeps over many subsets should go through
topoideal.analysis, which precomputes the same predicates as tables; the
test suite checks the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .core import (
    FiniteTopology,
    IdealSpace,
    closure,
    interior,
    local_function,
    star_closure,
    star_min_nbhd,
)

@dataclass(frozen=True)
class ClassVector:
    open: bool
    closed: bool
    dense: bool
    preopen: bool
    semi_open: bool
    alpha_open: bool
    beta_open: bool
    regular_closed: bool
    locally_closed: bool
    a_set: bool
    i_open: bool
    i_closed: bool
    pre_i_open: bool
    pre_i_closed: bool
    star_dense_in_itself: bool
    star_perfect: bool
    tau_star_open: bool
    tau_star_closed: bool
    i_locally_closed: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


CLASS_FLAGS = tuple(f.name for f in fields(ClassVector))


def is_preopen(topo: FiniteTopology, a: int) -> bool:
    return a & ~interior(topo, closure(topo, a)) == 0


def is_semi_open(topo: FiniteTopology, a: int) -> bool:
    return a & ~closure(topo, interior(topo, a)) == 0


def is_alpha_open(topo: FiniteTopology, a: int) -> bool:
    return a & ~interior(topo, closure(topo, interior(topo, a))) == 0


def is_beta_open(topo: FiniteTopology, a: int) -> bool:
    return a & ~closure(topo, interior(topo, closure(topo, a))) == 0


def is_locally_closed(topo: FiniteTopology, a: int) -> bool:
    # A = U & F forces F to contain Cl(A), so Cl(A) can stand in for F.
    cl = closure(topo, a)
    return any(a == u & cl for u in topo.opens)


def regular_closed_family(topo: FiniteTopology) -> tuple[int, ...]:
    return tuple(sorted({closure(topo, u) for u in topo.opens}))


def _is_open_trace(opens, family, a: int) -> bool:
    """Whether a == U & F for an open U and an F of the family, by scan."""
    return any(a & ~f == 0 and any(u & f == a for u in opens) for f in family)


def is_a_set(topo: FiniteTopology, a: int) -> bool:
    """Intersection of an open set and a regular closed set."""
    return _is_open_trace(topo.opens, regular_closed_family(topo), a)


def is_pre_i_open(sp: IdealSpace, a: int) -> bool:
    return a & ~interior(sp.topo, star_closure(sp, a)) == 0


def is_i_open(sp: IdealSpace, a: int) -> bool:
    return a & ~interior(sp.topo, local_function(sp, a)) == 0


def star_perfect_family(sp: IdealSpace) -> tuple[int, ...]:
    return tuple(a for a in range(1 << sp.n) if local_function(sp, a) == a)


def is_i_locally_closed(sp: IdealSpace, a: int, perfect=None) -> bool:
    """Intersection of an open set and a star-perfect set."""
    family = star_perfect_family(sp) if perfect is None else perfect
    return _is_open_trace(sp.topo.opens, family, a)


def is_tau_star_open(sp: IdealSpace, a: int) -> bool:
    ms = star_min_nbhd(sp)
    return all(ms[x] & ~a == 0 for x in range(sp.n) if a >> x & 1)


def pio_family(sp: IdealSpace) -> tuple[int, ...]:
    """All pre-I-open subsets, ascending."""
    return tuple(a for a in range(1 << sp.n) if is_pre_i_open(sp, a))


def set_classes(sp: IdealSpace, a: int) -> ClassVector:
    """Full flag vector of one subset."""
    topo = sp.topo
    top = topo.full
    comp = top ^ a
    return ClassVector(
        open=topo.is_open(a),
        closed=topo.is_open(comp),
        dense=closure(topo, a) == top,
        preopen=is_preopen(topo, a),
        semi_open=is_semi_open(topo, a),
        alpha_open=is_alpha_open(topo, a),
        beta_open=is_beta_open(topo, a),
        regular_closed=a == closure(topo, interior(topo, a)),
        locally_closed=is_locally_closed(topo, a),
        a_set=is_a_set(topo, a),
        i_open=is_i_open(sp, a),
        i_closed=is_i_open(sp, comp),
        pre_i_open=is_pre_i_open(sp, a),
        pre_i_closed=is_pre_i_open(sp, comp),
        star_dense_in_itself=a & ~local_function(sp, a) == 0,
        star_perfect=a == local_function(sp, a),
        tau_star_open=is_tau_star_open(sp, a),
        tau_star_closed=is_tau_star_open(sp, comp),
        i_locally_closed=is_i_locally_closed(sp, a),
    )
