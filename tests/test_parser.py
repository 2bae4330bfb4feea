import hashlib
from itertools import product

import pytest
from hypothesis import given

from nes import (
    Abs,
    App,
    Atom,
    ESub,
    Lit,
    Meta,
    ParseError,
    Var,
    aeq,
    eval_meta,
    parse,
    render,
)
from strategies import terms

x, y, z, a, b = Atom("x"), Atom("y"), Atom("z"), Atom("a"), Atom("b")


def test_parse_abstraction():
    assert parse("\\x. x") == Lit(Abs(x, Var(x)))
    assert parse("λx. x") == Lit(Abs(x, Var(x)))


def test_parse_application_left_associative():
    assert parse("x y z") == Lit(App(App(Var(x), Var(y)), Var(z)))
    assert parse("x (y z)") == Lit(App(Var(x), App(Var(y), Var(z))))


def test_parse_redex():
    expected = App(Abs(x, Abs(y, App(Var(x), Var(y)))), Var(y))
    assert parse("(\\x. \\y. x y) y") == Lit(expected)


def test_parse_explicit_substitution_extends_right():
    assert parse("[x := y] x") == Lit(ESub(Var(x), x, Var(y)))
    assert parse("[x := y z] x w") == Lit(
        ESub(App(Var(x), Var(Atom("w"))), x, App(Var(y), Var(z)))
    )


def test_parse_meta():
    assert parse("{x := y} (\\y. x y)") == Meta(
        Lit(Abs(y, App(Var(x), Var(y)))), x, Lit(Var(y))
    )


def test_parse_nested_meta():
    got = parse("{x := {a := b} a} x")
    assert got == Meta(Lit(Var(x)), x, Meta(Lit(Var(a)), a, Lit(Var(b))))


def test_parse_trailing_digits_are_indices():
    assert parse("y0") == Lit(Var(Atom("y", 0)))
    assert parse("foo12 bar") == Lit(App(Var(Atom("foo", 12)), Var(Atom("bar"))))


def test_parse_whitespace_insensitive():
    assert parse("  \\x .\n  x\ty ") == Lit(Abs(x, App(Var(x), Var(y))))


def test_parse_error_unclosed_bracket():
    with pytest.raises(ParseError) as info:
        parse("[x := y x")
    err = info.value
    assert (err.line, err.column) == (1, 10)
    assert "']'" in err.expected
    assert "end of input" in str(err)


def test_parse_error_empty_input():
    with pytest.raises(ParseError) as info:
        parse("")
    assert (info.value.line, info.value.column) == (1, 1)
    assert "name" in info.value.expected


def test_parse_error_positions_are_line_based():
    with pytest.raises(ParseError) as info:
        parse("\\x.\n  (x y")
    assert info.value.line == 2
    assert "')'" in info.value.expected


def test_parse_error_cases():
    for bad in ("(", "x)", "\\. x", "\\x x", "[x = y] x", "{x := y}", "x : y", "π"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_error_leading_zero_index_at_the_name():
    with pytest.raises(ParseError) as info:
        parse("\\x1.\n  x01")
    assert (info.value.line, info.value.column) == (2, 3)
    assert "name 'x01'" in str(info.value)


def test_parse_error_trailing_input():
    with pytest.raises(ParseError) as info:
        parse("x \\y. y z )")
    assert "end of input" in info.value.expected


_PIECES = (
    "x", "y0", "x01", " ", "\t", "\n", "\r\n", "\\", "λ", ".", ":=", ":",
    "(", ")", "[", "]", "{", "}", "π",
)


def test_parse_outcomes_are_pinned():
    # every string of 1-4 pieces: its result, or its error's position,
    # expected tokens, found token and message
    digest = hashlib.sha256()
    for k in range(1, 5):
        for pieces in product(_PIECES, repeat=k):
            text = "".join(pieces)
            try:
                outcome = repr(parse(text))
            except ParseError as err:
                outcome = repr((err.line, err.column, err.expected, err.found, str(err)))
            digest.update(f"{text!r}\t{outcome}\n".encode())
    assert digest.hexdigest() == (
        "d39b5867690797eeb683928bcfa2f156923f30d3461e27cdb90a6bf7ab04baa7"
    )


DEEP = 10**5

# text nested DEEP levels, and its rendering where that is not the text
NESTED = {
    "parentheses": ("(" * DEEP + "x" + ")" * DEEP, "x"),
    "abstraction": ("\\x. " * DEEP + "x", None),
    "esub-body": ("[x := y] " * DEEP + "x", None),
    "esub-argument": ("[x := " * DEEP + "y" + "] x" * DEEP, None),
    "spine": ("x" + " y" * DEEP, None),
    "argument-spine": ("x (" * DEEP + "y z" + ")" * DEEP, None),
}


@pytest.mark.parametrize("form", list(NESTED))
def test_parse_and_render_at_any_depth(form):
    text, rendering = NESTED[form]
    assert render(parse(text).term) == (rendering or text)


def test_deep_malformed_input_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse("(" * DEEP)
    assert (info.value.column, info.value.found) == (DEEP + 1, "end of input")
    assert info.value.expected == ("name", "'('", "'\\'", "'['")
    with pytest.raises(ParseError) as info:
        parse("(" * DEEP + "x")
    assert (info.value.column, info.value.expected) == (DEEP + 2, ("')'",))


def test_eval_meta():
    assert eval_meta(Lit(Var(x))) == Var(x)
    assert eval_meta(Meta(Lit(Var(x)), x, Lit(Var(y)))) == Var(y)
    got = eval_meta(parse("{x := y} (\\y. x y)"))
    assert aeq(got, Abs(z, App(Var(y), Var(z))))


@pytest.mark.parametrize("junk", [5, None, "x", x, Lit(Var(x))])
def test_lit_rejects_non_terms(junk):
    # so eval_meta never hands back what is not a term
    with pytest.raises(TypeError, match="not a term: "):
        eval_meta(Lit(junk))


# {x := y} nested DEEP levels, in target and in argument position
NESTED_META = {
    "target": "{x := y} " * DEEP + "x",
    "argument": "{x := " * DEEP + "y" + "} x" * DEEP,
}


@pytest.mark.parametrize("form", list(NESTED_META))
def test_eval_meta_at_any_depth(form):
    assert eval_meta(parse(NESTED_META[form])) is Var(y)


def test_eval_meta_innermost_first():
    # {x := b} ({a := x} a) must substitute a first, then x
    got = eval_meta(parse("{x := b} {a := x} a"))
    assert got == Var(b)


def test_roundtrip_examples():
    for text in ("x", "x y z", "\\x. x y", "[x := y] x z", "(\\x. x) (\\y. y)"):
        assert render(eval_meta(parse(text))) == text


@given(terms)
def test_roundtrip_random(t):
    assert parse(render(t)) == Lit(t)
