import json
import subprocess
import sys

import pytest
from hypothesis import given, settings

from topoideal.classes import pio_family
from topoideal.core import NotAnIdeal, NotATopology
from topoideal.files import (
    NamedSpace,
    SpaceFileError,
    TooManyPoints,
    UnknownPoint,
    default_names,
    parse_map_file,
    parse_space_file,
    serialize_map_file,
    serialize_space,
)
from topoideal.cli import main
from topoideal.verify import run_theorem_suite
from util import mask, s1_space, s2_space, spaces

S1_TEXT = """\
# four points, ideal generated by {c,d}
points: a b c d
open: {}; {a,c}; {d}; {a,c,d}; {a,b,c,d}
ideal: {c,d}
"""

SIGMA4_MAP = """\
to-points: a b c d
to-open: {}; {a,c,d}; {a,b,c,d}
map: a->a; b->b; c->c; d->d
"""


def test_parse_space_file_s1():
    named = parse_space_file(S1_TEXT)
    assert named.space == s1_space()
    assert named.names == ("a", "b", "c", "d")
    assert named.parse_set("{a,c,d}") == mask("acd")
    assert named.format_set(mask("cd")) == "{c,d}"


def test_round_trip_is_canonical_and_idempotent():
    named = parse_space_file(S1_TEXT)
    canon = serialize_space(named)
    again = parse_space_file(canon)
    assert again == named
    assert serialize_space(again) == canon
    assert canon == (
        "points: a b c d\n"
        "open: {}; {a,c}; {d}; {a,c,d}; {a,b,c,d}\n"
        "ideal: {c,d}\n"
    )


def test_point_indices_assigned_by_sorted_order():
    shuffled = "points: d c b a\nopen: {}; {a,c}; {d}; {a,c,d}; {a,b,c,d}\nideal: {c,d}\n"
    assert parse_space_file(shuffled) == parse_space_file(S1_TEXT)


def test_one_point_space():
    named = parse_space_file("points: a\nopen: {}; {a}\nideal: {}\n")
    assert named.space.n == 1
    assert named.space.ideal.gen == 0


def test_ideal_family_accepted_and_canonicalized():
    text = "points: a b c d\nopen: {}; {a,c}; {d}; {a,c,d}; {a,b,c,d}\n" \
           "ideal-family: {}; {c}; {d}; {c,d}\n"
    named = parse_space_file(text)
    assert named.space == s1_space()
    assert "ideal: {c,d}" in serialize_space(named)


def test_ideal_family_violation_reports_line():
    text = "points: a b c\nopen: {}; {a,b,c}\nideal-family: {}; {a}; {b}\n"
    with pytest.raises(NotAnIdeal) as err:
        parse_space_file(text)
    assert err.value.line == 3
    assert "additivity" in str(err.value)


def test_not_a_topology_reports_line():
    text = "points: a b c\nopen: {}; {a}; {b}; {a,b,c}\nideal: {}\n"
    with pytest.raises(NotATopology) as err:
        parse_space_file(text)
    assert err.value.line == 2


def test_unknown_point_position():
    text = "points: a b\nopen: {}; {a,z}; {a,b}\nideal: {}\n"
    with pytest.raises(UnknownPoint) as err:
        parse_space_file(text)
    assert err.value.line == 2
    assert err.value.col == text.splitlines()[1].index("z") + 1


def test_too_many_points():
    names = " ".join(f"p{i:02d}" for i in range(17))
    with pytest.raises(TooManyPoints) as err:
        parse_space_file(f"points: {names}\nopen: {{}}\nideal: {{}}\n")
    assert err.value.line == 1


def test_missing_directives():
    with pytest.raises(SpaceFileError, match="points"):
        parse_space_file("open: {}\n")
    with pytest.raises(SpaceFileError, match="open"):
        parse_space_file("points: a\nideal: {}\n")
    with pytest.raises(SpaceFileError, match="ideal"):
        parse_space_file("points: a\nopen: {}; {a}\n")


def test_comments_and_blank_lines_ignored():
    text = "\n# header\npoints: a b  # trailing\n\nopen: {}; {a,b}  # X\nideal: {}\n"
    named = parse_space_file(text)
    assert named.space.topo.opens == (0, 3)


def test_parse_map_file_identity_into_sigma4():
    dom = parse_space_file(S1_TEXT)
    named_map = parse_map_file(SIGMA4_MAP, dom)
    assert named_map.map.table == (0, 1, 2, 3)
    assert named_map.map.cod.opens == (0, mask("acd"), mask("abcd"))
    assert named_map.map.cod_ideal is None
    text = serialize_map_file(named_map)
    assert parse_map_file(text, dom) == named_map


def test_parse_map_file_with_codomain_ideal():
    dom = parse_space_file(S1_TEXT)
    named_map = parse_map_file(SIGMA4_MAP + "to-ideal: {c}\n", dom)
    assert named_map.map.cod_ideal is not None
    assert named_map.map.cod_ideal.gen == mask("c")
    assert "to-ideal: {c}" in serialize_map_file(named_map)


def test_map_file_errors():
    dom = parse_space_file(S1_TEXT)
    with pytest.raises(SpaceFileError, match="no map entry"):
        parse_map_file("to-points: a b c d\nto-open: {}; {a,b,c,d}\nmap: a->a\n", dom)
    with pytest.raises(UnknownPoint):
        parse_map_file("to-points: a b\nto-open: {}; {a,b}\n"
                       "map: a->a; b->a; c->z; d->a\n", dom)
    with pytest.raises(SpaceFileError, match="src->dst"):
        parse_map_file("to-points: a b c d\nto-open: {}; {a,b,c,d}\nmap: a=>a\n", dom)
    with pytest.raises(SpaceFileError, match="mapped twice"):
        parse_map_file("to-points: a b c d\nto-open: {}; {a,b,c,d}\n"
                       "map: a->a; a->b; b->b; c->c; d->d\n", dom)


def test_map_file_codomain_ideal_given_twice():
    # as in a space file, a second ideal line is an error, not an override
    dom = parse_space_file(S1_TEXT)
    for second in ("to-ideal: {d}", "to-ideal-family: {}; {d}"):
        with pytest.raises(SpaceFileError, match="ideal given twice") as err:
            parse_map_file(SIGMA4_MAP + "to-ideal: {c}\n" + second + "\n", dom)
        assert err.value.line == 5


def test_map_file_missing_codomain_open_names_the_points_line():
    dom = parse_space_file(S1_TEXT)
    with pytest.raises(SpaceFileError, match="missing 'to-open:' line") as err:
        parse_map_file("# codomain\n\nto-points: a b c d\nmap: a->a; b->b; c->c; d->d\n", dom)
    assert err.value.line == 3
    # the space file reports its own missing open line the same way
    with pytest.raises(SpaceFileError, match="missing 'open:' line") as err:
        parse_space_file("# space\n\npoints: a b\nideal: {}\n")
    assert err.value.line == 3


@settings(max_examples=40, deadline=None)
@given(spaces(max_n=4))
def test_space_serialization_round_trip_random(sp):
    named = NamedSpace(sp, default_names(sp.n))
    assert parse_space_file(serialize_space(named)) == named


# --- CLI -----------------------------------------------------------------

@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.space"
    path.write_text(S1_TEXT)
    return str(path)


@pytest.fixture
def sigma4_file(tmp_path):
    path = tmp_path / "sigma4.map"
    path.write_text(SIGMA4_MAP)
    return str(path)


def test_cli_classify_set(s1_file, capsys):
    assert main(["classify", "--space", s1_file, "--set", "{a,c,d}"]) == 0
    out = capsys.readouterr().out
    assert "open=true" in out
    assert "pre_i_open=true" in out
    assert "i_open=false" in out


def test_cli_classify_set_json(s1_file, capsys):
    assert main(["classify", "--space", s1_file, "--set", "{a,c,d}", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["set"] == "{a,c,d}"
    assert payload["classes"]["pre_i_open"] is True
    assert payload["classes"]["i_open"] is False
    assert list(payload["classes"])[:3] == ["open", "closed", "dense"]


def test_cli_classify_empty_set(tmp_path, capsys):
    path = tmp_path / "s2.space"
    path.write_text("points: a b c\nopen: {}; {a,b}; {a,b,c}\nideal: {c}\n")
    assert main(["classify", "--space", str(path), "--set", "{}"]) == 0
    out = capsys.readouterr().out
    for flag in ("open", "closed", "preopen", "semi_open", "alpha_open",
                 "beta_open", "regular_closed", "locally_closed", "a_set",
                 "i_open", "pre_i_open", "star_perfect", "i_locally_closed"):
        assert f"{flag}=true" in out
    assert "dense=false" in out


def test_cli_classify_map(s1_file, sigma4_file, capsys):
    assert main(["classify", "--space", s1_file, "--map", sigma4_file]) == 0
    out = capsys.readouterr().out
    assert "pre_i_continuous=true" in out
    assert "i_continuous=false" in out
    assert "i_open_map" not in out  # no codomain ideal given


def test_cli_classify_errors(s1_file, tmp_path, capsys):
    assert main(["classify", "--space", str(tmp_path / "nope"), "--set", "{}"]) == 2
    assert main(["classify", "--space", s1_file, "--set", "{a,z}"]) == 2
    assert main(["classify", "--space", s1_file, "--set", "a,z"]) == 2
    assert main(["classify", "--space", s1_file]) == 2  # neither --set nor --map


def test_cli_verify_pass_and_fail(capsys):
    assert main(["verify", "--points", "2", "--suite", "t1,tt6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["verify", "--points", "2", "--suite", "tt43",
                 "--hypothesis", "none"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness at 2 points for tt43" in out


def test_cli_verify_usage_errors(capsys):
    assert main(["verify", "--points", "99"]) == 2
    assert main(["verify", "--points", "2", "--suite", "tt99"]) == 2
    assert main(["verify", "--points", "4", "--suite", "tt1"]) == 2  # over map bound
    # past the map packing's budget
    assert main(["verify", "--points", "5", "--suite", "tt1", "--force"]) == 2


def test_cli_verify_json_stable_across_jobs(capsys):
    assert main(["verify", "--points", "2", "--suite", "t1,tt43", "--json"]) == 0
    one = capsys.readouterr().out
    assert main(["verify", "--points", "2", "--suite", "t1,tt43", "--json",
                 "--jobs", "2"]) == 0
    two = capsys.readouterr().out
    assert one == two
    payload = json.loads(one)
    assert payload["passed"] is True
    assert payload["scope_counts"]["spaces"] == 16


def test_cli_search_found(capsys):
    assert main(["search", "--claim", "preopen & !pre_i_open",
                 "--scope", "sets", "--max-points", "2"]) == 0
    out = capsys.readouterr().out
    assert "witness at 2 points" in out
    assert "ideal: {a}" in out
    assert "subset: {a}" in out
    assert "preopen=true" in out and "pre_i_open=false" in out


def test_cli_search_not_found(capsys):
    assert main(["search", "--claim", "pre_i_open & !preopen",
                 "--scope", "sets", "--max-points", "3"]) == 1
    assert capsys.readouterr().out.strip() == "no witness"


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_cli_search_rejects_a_bound_below_one(bound, capsys):
    assert main(["search", "--claim", "preopen & !pre_i_open",
                 "--scope", "sets", "--max-points", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ">= 1" in captured.err


def test_cli_verify_hs_is_the_suite_hs_hypothesis(capsys):
    assert main(["verify", "--points", "2", "--suite", "tt42,tt43",
                 "--hypothesis", "hs", "--json"]) == 0
    report = run_theorem_suite(2, "tt42,tt43", hypothesis="hs")
    assert capsys.readouterr().out == report.to_json() + "\n"
    assert {r.hypothesis for r in report.results} == {"hayashi_samuels"}


def test_cli_search_parse_error(capsys):
    assert main(["search", "--claim", "preopen &",
                 "--scope", "sets", "--max-points", "2"]) == 2
    assert "position" in capsys.readouterr().err


def test_cli_search_json(capsys):
    assert main(["search", "--claim", "open & !i_open",
                 "--scope", "sets", "--max-points", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1
    assert payload["trace"] == {"open": True, "i_open": False}


def test_cli_tabulate(s1_file, capsys):
    assert main(["tabulate", "--space", s1_file]) == 0
    out = capsys.readouterr().out
    named = parse_space_file(S1_TEXT)
    expected = "; ".join(named.format_set(m) for m in pio_family(named.space))
    assert f"pio: {expected}" in out
    assert "io: {}; {a}; {a,c}" in out
    assert main(["tabulate", "--space", s1_file, "--families", "nonsense"]) == 2


def test_cli_env_cap(s1_file, monkeypatch, capsys):
    monkeypatch.setenv("TOPOIDEAL_MAX_POINTS", "2")
    assert main(["verify", "--points", "3", "--suite", "t1"]) == 2
    assert main(["search", "--claim", "open", "--scope", "sets",
                 "--max-points", "3"]) == 2
    monkeypatch.setenv("TOPOIDEAL_MAX_POINTS", "3")
    assert main(["verify", "--points", "3", "--suite", "t1"]) == 0


def test_cli_module_entry_point(s1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "topoideal", "classify", "--space", s1_file,
         "--set", "{a,c,d}"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pre_i_open=true" in proc.stdout


@pytest.mark.slow
def test_cli_verify_all_at_three_points(capsys):
    assert main(["verify", "--points", "3", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
