import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from topoideal.claims import (
    ALL_ATOMS,
    And,
    Atom,
    Implies,
    Not,
    Or,
    ParseError,
    UnknownAtom,
    atoms_for_scope,
    atoms_of,
    compile_claim,
    evaluate,
    parse_claim,
    print_claim,
)


def test_parse_and_not():
    ast = parse_claim("preopen & !pre_i_open")
    assert ast == And(Atom("preopen"), Not(Atom("pre_i_open")))


def test_parse_implies():
    assert parse_claim("i_open => pre_i_open") == Implies(Atom("i_open"), Atom("pre_i_open"))


def test_parse_error_at_end():
    with pytest.raises(ParseError) as err:
        parse_claim("preopen &")
    assert err.value.position == len("preopen &")


def test_implies_right_associative():
    ast = parse_claim("open => closed => dense")
    assert ast == Implies(Atom("open"), Implies(Atom("closed"), Atom("dense")))


def test_precedence_not_and_or_implies():
    assert parse_claim("!open & closed") == And(Not(Atom("open")), Atom("closed"))
    assert parse_claim("open | closed & dense") == Or(
        Atom("open"), And(Atom("closed"), Atom("dense")))
    assert parse_claim("open & closed => dense | preopen") == Implies(
        And(Atom("open"), Atom("closed")), Or(Atom("dense"), Atom("preopen")))


def test_parentheses_override():
    assert parse_claim("open & (closed | dense)") == And(
        Atom("open"), Or(Atom("closed"), Atom("dense")))
    assert parse_claim("(open => closed) => dense") == Implies(
        Implies(Atom("open"), Atom("closed")), Atom("dense"))


def test_whitespace_insensitive():
    assert parse_claim("open&!closed") == parse_claim("  open  &  !  closed ")


def test_unknown_atom():
    with pytest.raises(UnknownAtom) as err:
        parse_claim("open & frobnicate")
    assert err.value.name == "frobnicate"


def test_parse_error_position_of_bad_character():
    with pytest.raises(ParseError) as err:
        parse_claim("open @ closed")
    assert err.value.position == 5


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse_claim("open closed")
    with pytest.raises(ParseError):
        parse_claim("open )")


# (text, error class, message, position or unknown atom name)
PARSE_ERRORS = [
    ("(open & closed", ParseError, "expected ')' (at position 14)", 14),
    ("(open closed", ParseError, "expected ')' (at position 6)", 6),
    ("open & (closed", ParseError, "expected ')' (at position 14)", 14),
    ("& open", ParseError, "unexpected '&' (at position 0)", 0),
    ("open & | closed", ParseError, "unexpected '|' (at position 7)", 7),
    ("open => => closed", ParseError, "unexpected '=>' (at position 8)", 8),
    (")", ParseError, "unexpected ')' (at position 0)", 0),
    ("open )", ParseError, "unexpected trailing ')' (at position 5)", 5),
    ("open => closed)", ParseError, "unexpected trailing ')' (at position 14)", 14),
    ("open closed", ParseError, "unexpected trailing 'closed' (at position 5)", 5),
    ("(open)(closed)", ParseError, "unexpected trailing '(' (at position 6)", 6),
    ("!open !closed", ParseError, "unexpected trailing '!' (at position 6)", 6),
    ("", ParseError, "unexpected end of input (at position 0)", 0),
    ("!", ParseError, "unexpected end of input (at position 1)", 1),
    ("preopen &", ParseError, "unexpected end of input (at position 9)", 9),
    ("open =>", ParseError, "unexpected end of input (at position 7)", 7),
    ("open @ closed", ParseError, "unexpected character '@' (at position 5)", 5),
    ("open = closed", ParseError, "unexpected character '=' (at position 5)", 5),
    ("open & frobnicate", UnknownAtom, "unknown atom 'frobnicate'", "frobnicate"),
]


@pytest.mark.parametrize("text,error,message,where", PARSE_ERRORS,
                         ids=[repr(row[0]) for row in PARSE_ERRORS])
def test_parse_error_message_and_position(text, error, message, where):
    with pytest.raises(error) as err:
        parse_claim(text)
    assert str(err.value) == message
    assert (err.value.name if error is UnknownAtom else err.value.position) == where


_o, _c, _d = Atom("open"), Atom("closed"), Atom("dense")

# every nesting of one operator in another, on either side, and of !
PRINTED = [
    (Not(_o), "!open"),
    (Not(Not(_o)), "!!open"),
    (Not(And(_o, _c)), "!(open & closed)"),
    (Not(Or(_o, _c)), "!(open | closed)"),
    (Not(Implies(_o, _c)), "!(open => closed)"),
    (And(Not(_o), _c), "!open & closed"),
    (And(_o, Not(_c)), "open & !closed"),
    (Or(Not(_o), _c), "!open | closed"),
    (Or(_o, Not(_c)), "open | !closed"),
    (Implies(Not(_o), _c), "!open => closed"),
    (Implies(_o, Not(_c)), "open => !closed"),
    (And(And(_o, _c), _d), "open & closed & dense"),
    (And(_o, And(_c, _d)), "open & (closed & dense)"),
    (And(Or(_o, _c), _d), "(open | closed) & dense"),
    (And(_o, Or(_c, _d)), "open & (closed | dense)"),
    (And(Implies(_o, _c), _d), "(open => closed) & dense"),
    (And(_o, Implies(_c, _d)), "open & (closed => dense)"),
    (Or(And(_o, _c), _d), "open & closed | dense"),
    (Or(_o, And(_c, _d)), "open | closed & dense"),
    (Or(Or(_o, _c), _d), "open | closed | dense"),
    (Or(_o, Or(_c, _d)), "open | (closed | dense)"),
    (Or(Implies(_o, _c), _d), "(open => closed) | dense"),
    (Or(_o, Implies(_c, _d)), "open | (closed => dense)"),
    (Implies(And(_o, _c), _d), "open & closed => dense"),
    (Implies(_o, And(_c, _d)), "open => closed & dense"),
    (Implies(Or(_o, _c), _d), "open | closed => dense"),
    (Implies(_o, Or(_c, _d)), "open => closed | dense"),
    (Implies(Implies(_o, _c), _d), "(open => closed) => dense"),
    (Implies(_o, Implies(_c, _d)), "open => closed => dense"),
]


@pytest.mark.parametrize("ast,text", PRINTED, ids=[text for _, text in PRINTED])
def test_print_claim_uses_minimal_parentheses(ast, text):
    assert print_claim(ast) == text
    assert parse_claim(text) == ast


def test_evaluate():
    ast = parse_claim("open & !closed => dense")
    assert evaluate(ast, {"open": True, "closed": False, "dense": True})
    assert not evaluate(ast, {"open": True, "closed": False, "dense": False})
    assert evaluate(ast, {"open": False, "closed": False, "dense": False})
    assert atoms_of(ast) == {"open", "closed", "dense"}


def test_scope_vocabularies():
    sets = atoms_for_scope("sets")
    maps_ = atoms_for_scope("maps")
    assert "pre_i_open" in sets and "hayashi_samuels" in sets
    assert "pre_i_continuous" in maps_ and "hayashi_samuels" in maps_
    assert "pre_i_continuous" not in sets
    assert "i_open_map" not in maps_  # image-side classes need a codomain ideal


_atoms = st.sampled_from(sorted(ALL_ATOMS)).map(Atom)
_asts = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda p: And(*p)),
        st.tuples(kids, kids).map(lambda p: Or(*p)),
        st.tuples(kids, kids).map(lambda p: Implies(*p)),
    ),
    max_leaves=25,
)


@settings(max_examples=250, deadline=None)
@given(_asts)
def test_print_parse_round_trip(ast):
    assert parse_claim(print_claim(ast)) == ast


@settings(max_examples=100, deadline=None)
@given(_asts)
def test_print_is_stable_fixed_point(ast):
    text = print_claim(ast)
    assert print_claim(parse_claim(text)) == text


@settings(max_examples=150, deadline=None)
@given(_asts, st.integers(1, 40), st.randoms(use_true_random=False))
def test_packed_claim_is_the_claim_on_every_bit(ast, width, rnd):
    full = (1 << width) - 1
    values = {name: rnd.getrandbits(width) for name in atoms_of(ast)}
    packed = compile_claim(ast)(values) & full
    for i in range(width):
        flags = {name: v >> i & 1 == 1 for name, v in values.items()}
        assert (packed >> i & 1 == 1) == evaluate(ast, flags)


def test_packed_not_and_implies():
    values = {"open": 0b0011, "closed": 0b0101}
    assert compile_claim(parse_claim("!open"))(values) & 0b1111 == 0b1100
    assert compile_claim(parse_claim("open => closed"))(values) & 0b1111 == 0b1101


def test_tt4_conditions_parse_but_no_scope_searches_them():
    assert atoms_of(parse_claim("cond1 => cond4")) == {"cond1", "cond4"}
    assert not {"cond1", "cond2", "cond3", "cond4"} & (
        atoms_for_scope("sets") | atoms_for_scope("maps"))
