import hashlib
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from nes import (
    Abs,
    App,
    Atom,
    ESub,
    Meta,
    ParseError,
    Var,
    aeq,
    eval_meta,
    msubst,
    parse,
    render,
)
from strategies import atoms, terms

x, y, z, a, b = Atom("x"), Atom("y"), Atom("z"), Atom("a"), Atom("b")


def test_parse_abstraction():
    assert parse("\\x. x") == Abs(x, Var(x))
    assert parse("λx. x") == Abs(x, Var(x))


def test_parse_application_left_associative():
    assert parse("x y z") == App(App(Var(x), Var(y)), Var(z))
    assert parse("x (y z)") == App(Var(x), App(Var(y), Var(z)))


def test_parse_redex():
    expected = App(Abs(x, Abs(y, App(Var(x), Var(y)))), Var(y))
    assert parse("(\\x. \\y. x y) y") == expected


def test_parse_explicit_substitution_extends_right():
    assert parse("[x := y] x") == ESub(Var(x), x, Var(y))
    assert parse("[x := y z] x w") == ESub(
        App(Var(x), Var(Atom("w"))), x, App(Var(y), Var(z))
    )


def test_parse_meta():
    assert parse("{x := y} (\\y. x y)") == Meta(
        Abs(y, App(Var(x), Var(y))), x, Var(y)
    )


def test_parse_nested_meta():
    got = parse("{x := {a := b} a} x")
    assert got == Meta(Var(x), x, Meta(Var(a), a, Var(b)))


def test_parse_trailing_digits_are_indices():
    assert parse("y0") == Var(Atom("y", 0))
    assert parse("foo12 bar") == App(Var(Atom("foo", 12)), Var(Atom("bar")))


def test_parse_whitespace_insensitive():
    assert parse("  \\x .\n  x\ty ") == Abs(x, App(Var(x), Var(y)))


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
        "2d6a486fb823daf2d1117f1ecb0dab2956beaaf510b0066474ec6ac12dcd2f72"
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
    assert render(parse(text)) == (rendering or text)


def test_deep_malformed_input_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse("(" * DEEP)
    assert (info.value.column, info.value.found) == (DEEP + 1, "end of input")
    assert info.value.expected == ("name", "'('", "'\\'", "'['")
    with pytest.raises(ParseError) as info:
        parse("(" * DEEP + "x")
    assert (info.value.column, info.value.expected) == (DEEP + 2, ("')'",))


def test_eval_meta():
    assert eval_meta(Meta(Var(x), x, Var(y))) is Var(y)
    got = eval_meta(parse("{x := y} (\\y. x y)"))
    assert aeq(got, Abs(z, App(Var(y), Var(z))))


@given(terms)
def test_a_term_is_its_own_meta_expression(t):
    assert eval_meta(t) is t


def _fold_argument_first(e):
    if type(e) is not Meta:
        return e
    arg = _fold_argument_first(e.arg)
    return msubst(_fold_argument_first(e.target), arg, e.var)


metas = st.recursive(terms, lambda sub: st.builds(Meta, sub, atoms, sub), max_leaves=8)


@given(metas)
def test_eval_meta_does_not_depend_on_the_order_of_operands(e):
    # msubst is a pure function of its operands, so folding the argument
    # before the target gives the same term
    assert eval_meta(e) == _fold_argument_first(e)


# {x := y} nested DEEP levels, in target and in argument position
NESTED_META = {
    "target": "{x := y} " * DEEP + "x",
    "argument": "{x := " * DEEP + "y" + "} x" * DEEP,
}


@pytest.mark.parametrize("form", list(NESTED_META))
def test_eval_meta_at_any_depth(form):
    assert eval_meta(parse(NESTED_META[form])) is Var(y)


# A test that folds a deep nesting recursively, as a recursive eval_meta
# would, and so overflows the stack.
DEEP_FOLD = """\
from nes import Meta, msubst, parse


def fold(e):
    if type(e) is not Meta:
        return e
    return msubst(fold(e.target), fold(e.arg), e.var)


def test_deep_fold():
    fold(parse("{x := y} " * 5000 + "x"))
"""


def test_a_stack_overflow_fails_in_one_line(tmp_path, child_env):
    # Under the suite's conftest; without its hook, pytest had not finished
    # after 20 s, comparing the deep records in the traceback's frames.
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_deep_fold.py").write_text(DEEP_FOLD, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout
    # the failure's header, its one line, then the summary's banner
    after = result.stdout.split(" test_deep_fold ", 1)[1].splitlines()
    assert after[1].startswith("RecursionError: maximum recursion depth")
    assert after[2].startswith("=")


def test_eval_meta_innermost_first():
    # {x := b} ({a := x} a) must substitute a first, then x
    got = eval_meta(parse("{x := b} {a := x} a"))
    assert got == Var(b)


def test_roundtrip_examples():
    for text in ("x", "x y z", "\\x. x y", "[x := y] x z", "(\\x. x) (\\y. y)"):
        assert render(eval_meta(parse(text))) == text


@given(terms)
def test_roundtrip_random(t):
    assert parse(render(t)) == t
