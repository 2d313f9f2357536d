"""Line-based text files for spaces and maps.

Space file ('#' starts a comment, blank lines ignored):

    points: a b c d
    open: {}; {a,c}; {d}; {a,c,d}; {a,b,c,d}
    ideal: {c,d}

`open:` may repeat; sets accumulate.  The ideal is given either as a single
generator set (`ideal:`, the ideal is its power set) or as an explicit
family (`ideal-family: {}; {c}; {d}; {c,d}`) validated against both ideal
axioms.  Point names are symbolic; indices are assigned by lexicographic
order, so the canonical serialization (sorted points, opens ascending by
mask, generator-form ideal) round-trips bit-exactly.

Map file, read against an already-parsed domain space:

    to-points: a b c
    to-open: {}; {c}; {a,b,c}
    to-ideal: {c}            # optional; enables image-side classes
    map: a->a; b->b; c->c
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .core import (
    FiniteTopology,
    Ideal,
    IdealSpace,
    MAX_POINTS,
    NotAnIdeal,
    NotATopology,
    TopoidealError,
    bits,
    make_ideal,
    make_topology,
    principal_ideal,
)
from .maps import SpaceMap


class SpaceFileError(TopoidealError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnknownPoint(SpaceFileError):
    pass


class TooManyPoints(SpaceFileError):
    pass


def _positioned(exc_type, message: str, line: int, col: int):
    if issubclass(exc_type, SpaceFileError):
        return exc_type(message, line, col)
    err = exc_type(f"line {line}, column {col}: {message}")
    err.line = line
    err.col = col
    return err


@dataclass(frozen=True)
class NamedSpace:
    space: IdealSpace
    names: tuple[str, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def parse_set(self, text: str) -> int:
        return _parse_set_token(text.strip(), self.index, line=1, offset=0)

    def format_set(self, mask: int) -> str:
        return format_set(mask, self.names)


@dataclass(frozen=True)
class NamedMap:
    map: SpaceMap
    dom_names: tuple[str, ...]
    cod_names: tuple[str, ...]


def default_names(n: int) -> tuple[str, ...]:
    return tuple(chr(ord("a") + i) for i in range(n))


def format_set(mask: int, names) -> str:
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"


def format_family(masks, names) -> str:
    return "; ".join(format_set(m, names) for m in masks)


def format_table(table, names, cod_names=None) -> str:
    """A point table as 'src->dst' arrows; cod_names defaults to names."""
    cod_names = names if cod_names is None else cod_names
    return "; ".join(f"{src}->{cod_names[dst]}" for src, dst in zip(names, table))


_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _directives(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        if ":" not in line:
            raise SpaceFileError("expected 'key: value'", lineno, 1)
        key, value = line.split(":", 1)
        yield lineno, key.strip(), value, len(key) + 2


def _parse_set_token(token: str, index: dict[str, int], line: int, offset: int) -> int:
    body = token.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise SpaceFileError(f"expected a set like {{a,c}}, got {body!r}", line,
                             offset + 1)
    mask = 0
    inner = body[1:-1]
    inner_offset = offset + token.index("{") + 1
    pos = 0
    for part in inner.split(",") if inner.strip() else []:
        name = part.strip()
        col = inner_offset + pos + (part.index(name) if name else 0)
        if not name:
            raise SpaceFileError("empty name in set", line, col)
        if name not in index:
            raise _positioned(UnknownPoint, f"unknown point {name!r}", line, col)
        mask |= 1 << index[name]
        pos += len(part) + 1
    return mask


def _items(value: str, key_offset: int):
    """Each nonblank ';'-separated item of a directive's value, with the
    offset of its first character."""
    offset = key_offset
    for token in value.split(";"):
        if token.strip():
            yield token, offset
        offset += len(token) + 1


def _parse_set_list(value: str, index: dict[str, int], line: int, key_offset: int) -> list[int]:
    return [_parse_set_token(token, index, line, offset)
            for token, offset in _items(value, key_offset)]


def _parse_points(value: str, line: int, key_offset: int) -> tuple[str, ...]:
    names = []
    for m in _NAME.finditer(value):
        names.append((m.group(), key_offset + m.start()))
    leftovers = _NAME.sub(" ", value).strip()
    if leftovers:
        raise SpaceFileError(f"bad point name near {leftovers.split()[0]!r}", line, key_offset + 1)
    seen = set()
    for name, col in names:
        if name in seen:
            raise SpaceFileError(f"duplicate point {name!r}", line, col)
        seen.add(name)
    if len(names) > MAX_POINTS:
        raise _positioned(TooManyPoints,
                          f"{len(names)} points exceed the limit of {MAX_POINTS}",
                          line, names[MAX_POINTS][1])
    if not names:
        raise SpaceFileError("no points given", line, key_offset + 1)
    return tuple(sorted(name for name, _ in names))


def _build_topology(n: int, opens: list[int], line: int) -> FiniteTopology:
    try:
        return make_topology(n, opens)
    except NotATopology as err:
        raise _positioned(NotATopology, str(err), line, 1) from None


def _build_ideal(n: int, kind: str, sets: list[int], line: int) -> Ideal:
    if kind == "generator":
        if len(sets) != 1:
            raise SpaceFileError("'ideal:' takes exactly one generator set", line, 1)
        return principal_ideal(n, sets[0])
    try:
        return make_ideal(n, sets)
    except NotAnIdeal as err:
        raise _positioned(NotAnIdeal, str(err), line, 1) from None


class _SpaceSection:
    """The points, open and ideal directives of one space, each key behind
    a prefix: a space file reads them bare, a map file's codomain as
    'to-points:', 'to-open:' and 'to-ideal:'."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.names: tuple[str, ...] | None = None
        self.index: dict[str, int] = {}
        self.opens: list[int] = []
        self.ideal_spec = None
        self.points_line = self.open_line = None

    def read(self, lineno: int, key: str, value: str, key_offset: int) -> bool:
        """Take one directive if it is this section's; False if it is not."""
        p = self.prefix
        if key not in (p + "points", p + "open", p + "ideal", p + "ideal-family"):
            return False
        if key == p + "points":
            if self.names is not None:
                raise SpaceFileError(f"duplicate '{key}:' line", lineno, 1)
            self.names = _parse_points(value, lineno, key_offset)
            self.points_line = lineno
            self.index = {name: i for i, name in enumerate(self.names)}
        elif self.names is None:
            raise SpaceFileError(f"'{key}:' before '{p}points:'", lineno, 1)
        elif key == p + "open":
            self.open_line = self.open_line or lineno
            self.opens.extend(_parse_set_list(value, self.index, lineno, key_offset))
        elif self.ideal_spec is not None:
            raise SpaceFileError("ideal given twice", lineno, 1)
        else:
            kind = "generator" if key == p + "ideal" else "family"
            self.ideal_spec = (kind, _parse_set_list(value, self.index, lineno, key_offset),
                               lineno)
        return True

    def check(self, ideal_required: bool) -> None:
        """Raise for the first directive the section is missing."""
        p = self.prefix
        if self.names is None:
            raise SpaceFileError(f"missing '{p}points:' line")
        if self.open_line is None:
            raise SpaceFileError(f"missing '{p}open:' line", self.points_line)
        if ideal_required and self.ideal_spec is None:
            raise SpaceFileError("missing 'ideal:' or 'ideal-family:' line", self.open_line)

    def build(self) -> tuple[FiniteTopology, Ideal | None]:
        n = len(self.names)
        topo = _build_topology(n, self.opens, self.open_line)
        return topo, None if self.ideal_spec is None else _build_ideal(n, *self.ideal_spec)


def parse_space_file(text: str) -> NamedSpace:
    section = _SpaceSection("")
    for lineno, key, value, key_offset in _directives(text):
        if not section.read(lineno, key, value, key_offset):
            raise SpaceFileError(f"unknown directive {key!r}", lineno, 1)
    section.check(ideal_required=True)
    return NamedSpace(IdealSpace(*section.build()), section.names)


def serialize_space(named: NamedSpace) -> str:
    names = named.names
    return (
        f"points: {' '.join(names)}\n"
        f"open: {format_family(named.space.topo.opens, names)}\n"
        f"ideal: {format_set(named.space.ideal.gen, names)}\n"
    )


_ARROW = re.compile(r"^\s*([A-Za-z][A-Za-z0-9_]*)\s*->\s*([A-Za-z][A-Za-z0-9_]*)\s*$")


def parse_map_file(text: str, dom: NamedSpace) -> NamedMap:
    cod_section = _SpaceSection("to-")
    entries: dict[str, tuple[str, int, int]] = {}
    for lineno, key, value, key_offset in _directives(text):
        if cod_section.read(lineno, key, value, key_offset):
            continue
        if key == "map":
            for token, offset in _items(value, key_offset):
                m = _ARROW.match(token)
                if m is None:
                    raise SpaceFileError(f"expected 'src->dst', got {token.strip()!r}",
                                         lineno, offset + 1)
                src, dst = m.group(1), m.group(2)
                if src in entries:
                    raise SpaceFileError(f"point {src!r} mapped twice", lineno, offset + 1)
                entries[src] = (dst, lineno, offset + 1)
        else:
            raise SpaceFileError(f"unknown directive {key!r}", lineno, 1)
    cod_section.check(ideal_required=False)
    if not entries:
        raise SpaceFileError("missing 'map:' line")
    cod, cod_ideal = cod_section.build()
    cod_names, cod_index = cod_section.names, cod_section.index
    table = []
    for name in dom.names:
        if name not in entries:
            raise SpaceFileError(f"domain point {name!r} has no map entry")
        dst, lineno, col = entries[name]
        if dst not in cod_index:
            raise _positioned(UnknownPoint, f"unknown codomain point {dst!r}", lineno, col)
        table.append(cod_index[dst])
    for src, (_, lineno, col) in entries.items():
        if src not in dom.index:
            raise _positioned(UnknownPoint, f"unknown domain point {src!r}", lineno, col)
    return NamedMap(SpaceMap(dom.space, cod, tuple(table), cod_ideal),
                    dom.names, cod_names)


def serialize_map_file(named: NamedMap) -> str:
    cod = named.map.cod
    lines = [
        f"to-points: {' '.join(named.cod_names)}",
        f"to-open: {format_family(cod.opens, named.cod_names)}",
    ]
    if named.map.cod_ideal is not None:
        lines.append(f"to-ideal: {format_set(named.map.cod_ideal.gen, named.cod_names)}")
    lines.append(f"map: {format_table(named.map.table, named.dom_names, named.cod_names)}")
    return "\n".join(lines) + "\n"
