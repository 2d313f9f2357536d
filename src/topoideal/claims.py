"""Boolean claim expressions over class-flag atoms.

Grammar (whitespace insensitive, '=>' right-associative, ! > & > | > =>):

    expr  := or ('=>' expr)?
    or    := and ('|' and)*
    and   := not ('&' not)*
    not   := '!' not | atom | '(' expr ')'
    atom  := flag name from the published vocabulary

Atoms are the set-class flags, the map-class flags, the space property
flags, and tt4's four conditions `cond1`-`cond4`; which of them a search
scope can evaluate is decided by the consumer via atoms_for_scope, which
offers no tt4 condition.

A parsed claim compiles once into a function of the atom values that
reads each atom as a packed int, one bit per structure (from a mapping by
default, or through any per-atom reader), and returns the packed truth of
the claim.  `!x` is `~x` and `l => r` is `~l | r` on
Python's unbounded ints, so masked with `full` (every structure's bit
set) they are `full ^ x` and `(full ^ l) | r`.  With 0/1 values and
full = 1 that is plain evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Mapping

from .core import SpaceProps, TopoidealError
from .classes import CLASS_FLAGS
from .maps import MAP_FLAGS

SPACE_FLAGS = tuple(f.name for f in fields(SpaceProps))

# tt4: preimages of opens pre-I-open; every point has a pre-I-open set inside
# the preimage; Cl*(preimage) is a neighborhood of its points; preimages of
# closed sets pre-I-closed
TT4_CONDITIONS = ("cond1", "cond2", "cond3", "cond4")

ALL_ATOMS = (frozenset(CLASS_FLAGS) | frozenset(MAP_FLAGS) | frozenset(SPACE_FLAGS)
             | frozenset(TT4_CONDITIONS))

# image-side map classes need a codomain ideal, which search scopes do not carry
SET_SCOPE_ATOMS = frozenset(CLASS_FLAGS) | frozenset(SPACE_FLAGS)
MAP_SCOPE_ATOMS = (frozenset(MAP_FLAGS) - {"i_open_map", "i_closed_map"}) | frozenset(SPACE_FLAGS)


class ClaimError(TopoidealError):
    pass


class ParseError(ClaimError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtom(ClaimError):
    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"unknown atom {name!r}" + (f": {detail}" if detail else ""))
        self.name = name


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Implies:
    left: "Node"
    right: "Node"


Node = Atom | Not | And | Or | Implies

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>=>|[!&|()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# the binary operators and the nodes they build; how tightly each binds is
# its node's _PRECEDENCE level, and only '=>' groups to the right
_BINARY = {"=>": Implies, "|": Or, "&": And}
_PRECEDENCE = {Implies: 0, Or: 1, And: 2, Not: 3, Atom: 4}


def _operand_levels(kind: type) -> tuple[int, int]:
    """The least levels a binary node's left and right operands may have
    without parentheses: its own level on the side it groups toward."""
    level = _PRECEDENCE[kind]
    return (level + 1, level) if kind is Implies else (level, level + 1)


def parse_claim(text: str) -> Node:
    tokens = _tokenize(text)[::-1]   # the next token last

    def operand() -> Node:
        kind, value, pos = tokens.pop()
        if kind == "name":
            if value not in ALL_ATOMS:
                raise UnknownAtom(value)
            return Atom(value)
        if value == "!":
            return Not(operand())
        if value == "(":
            node = expression(0)
            kind, value, pos = tokens.pop()
            if value != ")":
                raise ParseError("expected ')'", pos)
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {value!r}", pos)

    def expression(context: int) -> Node:
        """Operands joined by binary operators that bind at context or tighter."""
        node = operand()
        while (kind := _BINARY.get(tokens[-1][1])) and _PRECEDENCE[kind] >= context:
            tokens.pop()
            node = kind(node, expression(_operand_levels(kind)[1]))
        return node

    node = expression(0)
    kind, value, pos = tokens[-1]
    if kind != "end":
        raise ParseError(f"unexpected trailing {value!r}", pos)
    return node


def _render(node: Node, context: int) -> str:
    level = _PRECEDENCE[type(node)]
    if isinstance(node, Atom):
        out = node.name
    elif isinstance(node, Not):
        out = "!" + _render(node.operand, level)
    else:
        op = next(op for op, kind in _BINARY.items() if isinstance(node, kind))
        left, right = _operand_levels(type(node))
        out = f"{_render(node.left, left)} {op} {_render(node.right, right)}"
    if level < context:
        return f"({out})"
    return out


def print_claim(node: Node) -> str:
    """Render with minimal parentheses; parse_claim(print_claim(t)) == t."""
    return _render(node, 0)


def atoms_of(node: Node) -> frozenset[str]:
    if isinstance(node, Atom):
        return frozenset((node.name,))
    if isinstance(node, Not):
        return atoms_of(node.operand)
    return atoms_of(node.left) | atoms_of(node.right)


Packed = Callable[[Any], int]


@lru_cache(maxsize=1024)
def compile_claim(node: Node, leaf: Callable[[str], Packed] = itemgetter) -> Packed:
    """The claim as a bitwise function of packed atom values; leaf(name)
    gives the reader of one atom from the values (by default a mapping from
    atom name to packed int).  Bit i of the result, for i below the values'
    width, is the claim's truth on structure i; the bits above are not
    meaningful, so read it masked with full."""
    if isinstance(node, Atom):
        return leaf(node.name)
    if isinstance(node, Not):
        inner = compile_claim(node.operand, leaf)
        return lambda values: ~inner(values)
    left, right = compile_claim(node.left, leaf), compile_claim(node.right, leaf)
    if isinstance(node, And):
        return lambda values: left(values) & right(values)
    if isinstance(node, Or):
        return lambda values: left(values) | right(values)
    return lambda values: ~left(values) | right(values)


def evaluate(node: Node, values: Mapping[str, bool]) -> bool:
    """Truth of the claim on one structure: the 1-bit case of compile_claim."""
    flags = {name: bool(values[name]) for name in atoms_of(node)}
    return compile_claim(node)(flags) & 1 == 1


def atoms_for_scope(scope: str) -> frozenset[str]:
    if scope == "sets":
        return SET_SCOPE_ATOMS
    if scope == "maps":
        return MAP_SCOPE_ATOMS
    raise TopoidealError(f"unknown scope {scope!r}")
