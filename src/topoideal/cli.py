"""Command line front end: classify, verify, search, tabulate.

Exit codes: 0 success (verify: no violations; search: witness found),
1 verify found violations / search exhausted the scope, 2 usage or input
errors.  TOPOIDEAL_MAX_POINTS caps the carrier size of enumeration
commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import SET_ATOMS, SpaceAnalysis
from .classes import CLASS_FLAGS, set_classes
from .core import IdealSpace, TopoidealError, bits, make_topology, principal_ideal
from .files import (
    NamedSpace,
    default_names,
    format_family,
    format_set,
    format_table,
    parse_map_file,
    parse_space_file,
    serialize_space,
)
from .maps import is_i_closed_map, is_i_open_map, map_classes
from .verify import (
    Witness,
    find_counterexample,
    run_theorem_suite,
)

FAMILY_ALIASES = {
    "pio": "pre_i_open",
    "io": "i_open",
    "po": "preopen",
    "so": "semi_open",
    "ilc": "i_locally_closed",
}


def _flag_text(value) -> str:
    return "true" if value else "false"


def _check_cap(points: int) -> None:
    raw = os.environ.get("TOPOIDEAL_MAX_POINTS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise TopoidealError(f"TOPOIDEAL_MAX_POINTS is not an integer: {raw!r}")
    if points > cap:
        raise TopoidealError(f"{points} points exceed TOPOIDEAL_MAX_POINTS={cap}")


def _load_space(path: str) -> NamedSpace:
    with open(path, encoding="utf-8") as handle:
        return parse_space_file(handle.read())


# (data key, label, renderer) of each witness field, in printing order
_WITNESS_FIELDS = (
    ("subset", "subset", format_set),
    ("first", "first", format_set),
    ("second", "second", format_set),
    ("pio_family", "pio-family", format_family),
    ("expected", "expected", format_family),
    ("mid_topology", "mid-open", format_family),
    ("mid_ideal_gen", "mid-ideal", format_set),
    ("map_first", "map-first", format_table),
    ("cod_topology", "to-open", format_family),
    ("map", "map", format_table),
    ("map_second", "map-second", format_table),
)


def format_witness(w: Witness) -> str:
    names = default_names(w.n)
    data = w.data_dict()
    head = f"witness at {w.n} points"
    if w.check_id:
        head += f" for {w.check_id}" + (f" [{w.direction}]" if w.direction else "")
    if w.claim:
        head += f" of claim: {w.claim}"
    lines = [head]
    named = NamedSpace(
        IdealSpace(make_topology(w.n, data["topology"]),
                   principal_ideal(w.n, data["ideal_gen"])),
        names)
    lines.extend("  " + ln for ln in serialize_space(named).splitlines())
    lines.extend(f"  {label}: {render(data[key], names)}"
                 for key, label, render in _WITNESS_FIELDS if key in data)
    lines.append("  trace: " + " ".join(
        f"{k}={_flag_text(v)}" for k, v in w.trace))
    return "\n".join(lines)


def cmd_classify(args) -> int:
    named = _load_space(args.space)
    if args.set is not None:
        mask = named.parse_set(args.set)
        vec = set_classes(named.space, mask)
        if args.json:
            print(json.dumps({"set": named.format_set(mask),
                              "classes": vec.as_dict()}, indent=2))
        else:
            for name, value in vec.as_dict().items():
                print(f"{name}={_flag_text(value)}")
        return 0
    with open(args.map, encoding="utf-8") as handle:
        named_map = parse_map_file(handle.read(), named)
    vec = map_classes(named_map.map)
    out = vec.as_dict()
    readings = {}
    if named_map.map.cod_ideal is not None:
        for flag, probe in (("i_open_map", is_i_open_map),
                            ("i_closed_map", is_i_closed_map)):
            domain_reading = probe(named_map.map, reading="domain")
            if domain_reading != out[flag]:
                readings[f"{flag}_domain_reading"] = domain_reading
    if args.json:
        table = format_table(named_map.map.table, named_map.dom_names, named_map.cod_names)
        print(json.dumps({"map": table, "classes": out,
                          **({"readings": readings} if readings else {})}, indent=2))
    else:
        for name, value in out.items():
            if value is None:
                continue
            print(f"{name}={_flag_text(value)}")
        for name, value in readings.items():
            print(f"{name}={_flag_text(value)}")
    return 0


def cmd_verify(args) -> int:
    _check_cap(args.points)
    report = run_theorem_suite(
        args.points,
        args.suite,
        direction=args.direction,
        hypothesis=args.hypothesis,
        jobs=args.jobs,
        max_witnesses=args.max_witnesses,
        allow_large=args.force,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
        for w in report.violations:
            print(format_witness(w))
    return 0 if report.passed else 1


def cmd_search(args) -> int:
    _check_cap(args.max_points)
    witness = find_counterexample(args.claim, args.scope, args.max_points)
    if args.json:
        print(json.dumps(witness.as_dict() if witness else None, indent=2))
    else:
        print(format_witness(witness) if witness else "no witness")
    return 0 if witness is not None else 1


def cmd_tabulate(args) -> int:
    named = _load_space(args.space)
    sa = SpaceAnalysis(named.space)
    wanted = [tok.strip() for tok in args.families.split(",") if tok.strip()]
    rows = {}
    for tok in wanted:
        flag = FAMILY_ALIASES.get(tok, tok)
        if flag not in CLASS_FLAGS:
            raise TopoidealError(f"unknown family {tok!r}; use class flags or "
                                 f"aliases {sorted(FAMILY_ALIASES)}")
        rows[tok] = list(bits(SET_ATOMS[flag](sa)))
    if args.json:
        print(json.dumps({tok: [named.format_set(m) for m in members]
                          for tok, members in rows.items()}, indent=2))
    else:
        for tok, members in rows.items():
            print(f"{tok}: {format_family(members, named.names)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoideal",
        description="finite ideal topological spaces: classify subsets and maps, "
                    "verify the decomposition theorems exhaustively, search for "
                    "counterexamples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a subset or a map of a space")
    p.add_argument("--space", required=True, help="space file (domain)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="subset like '{a,c}'")
    group.add_argument("--map", help="map file (codomain and point table)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run theorem checks over all structures")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--suite", default="all",
                   help="comma-separated check ids, groups like t5, or 'all'")
    p.add_argument("--direction", choices=("fwd", "bwd"))
    p.add_argument("--hypothesis", choices=("none", "hs"))
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the usable CPU cores")
    p.add_argument("--max-witnesses", type=int, default=25)
    p.add_argument("--force", action="store_true",
                   help="run checks past their default carrier bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="search for a structure satisfying a claim")
    p.add_argument("--claim", required=True,
                   help="boolean expression over class flags, e.g. "
                        "'preopen & !pre_i_open'")
    p.add_argument("--scope", choices=("sets", "maps"), required=True)
    p.add_argument("--max-points", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("tabulate", help="dump set-class families of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--families", default="pio,io",
                   help="comma-separated families (default pio,io)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_tabulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (TopoidealError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
