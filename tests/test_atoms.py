import copy
import itertools
import pickle
import re
import sys
import threading

import pytest
from hypothesis import given
import hypothesis.strategies as st

from nes import Abs, Atom, ESub, Var, fresh, parse_atom
from nes.atoms import _INTERNED, atoms_of
from strategies import atoms

x, y = Atom("x"), Atom("y")
x0, x1, x2 = Atom("x", 0), Atom("x", 1), Atom("x", 2)


def test_fresh_returns_hint_when_free():
    assert fresh(frozenset(), x) == x


def test_fresh_forced_to_indexed_names():
    assert fresh(frozenset([x]), x) == x0
    assert fresh(frozenset([x, x0, x1]), x) == x2


def test_fresh_indexed_hint_restarts_at_zero():
    assert fresh(frozenset([Atom("x", 3)]), Atom("x", 3)) == x0


atom_sets = st.frozensets(atoms, max_size=6)


@given(atom_sets, atoms)
def test_fresh_avoids_and_is_deterministic(avoid, hint):
    got = fresh(avoid, hint)
    assert got not in avoid
    assert fresh(avoid, hint) == got


def test_fresh_on_a_mask_is_fresh_on_its_atoms():
    # x0, x1 and x2 are interned (above), so a probe of base x finds an
    # atom; no atom of base "unindexed" has an index until fresh builds one,
    # so its first probe ends the search
    u = Atom("unindexed")
    assert not any(k[0] == "unindexed" and k[1] is not None for k in _INTERNED)
    pool = (x, x0, x2, y, u)
    for chosen in itertools.product((False, True), repeat=len(pool)):
        mask = sum(a._bit for a, c in zip(pool, chosen) if c)
        for hint in (x, x0, x2, y, u, x1):
            got = fresh(mask, hint)
            assert got is fresh(atoms_of(mask), hint), (atoms_of(mask), hint)
            assert not mask & got._bit
    assert fresh(u._bit, u) is Atom("unindexed", 0)


@pytest.mark.parametrize(
    "avoid, hint",
    [((), None), ((), "x"), ((), Var(x)), ([x, 5], x), ((None,), y), ("x", x)],
    ids=["none-hint", "str-hint", "var-hint", "int-in-avoid", "none-in-avoid",
         "str-avoid"],
)
def test_fresh_rejects_non_atoms(avoid, hint):
    with pytest.raises(TypeError, match="not an atom: "):
        fresh(avoid, hint)


def test_display_and_identity():
    assert str(x) == "x"
    assert str(x0) == "x0"
    assert x != x0  # absent index is not index 0
    assert Atom("x") == Atom("x")
    assert Atom("x", 2) == Atom("x", 2)


@given(atoms, st.one_of(st.none(), st.integers(0, 40)))
def test_display_parse_roundtrip(a, idx):
    atom = Atom(a.base, idx)
    assert parse_atom(str(atom)) == atom


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("1x")
    with pytest.raises(ValueError):
        Atom("x0")  # bases may not end in a digit; that spelling is an index
    with pytest.raises(ValueError):
        Atom("x", -1)
    with pytest.raises(AttributeError):
        x.base = "y"
    # 1.0 and True equal 1 as dict keys: rejected before validated1 exists
    # and after
    for bad in (1.0, True):
        with pytest.raises(ValueError):
            Atom("validated", bad)
    assert str(Atom("validated", 1)) == "validated1"
    for bad in (1.0, True):
        with pytest.raises(ValueError):
            Atom("validated", bad)


def test_atoms_are_interned():
    assert parse_atom("x0") is Atom("x", 0) is fresh(frozenset([Atom("x")]), Atom("x"))
    assert Atom("x") is x
    assert copy.copy(x0) is x0
    assert copy.deepcopy(x0) is x0
    assert pickle.loads(pickle.dumps(x0)) is x0
    t = ESub(Abs(x, Var(x0)), y, Var(x1))
    assert copy.deepcopy(t) == t


def test_atoms_made_in_several_threads_own_distinct_bits():
    # each thread makes atoms of its own base and of one shared base
    made = [[] for _ in range(4)]

    def work(out, base):
        for i in range(1000):
            out += (Atom(base, i), Atom("shared", i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(out, f"thread{'abcd'[k]}"))
            for k, out in enumerate(made)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out[1::2] == made[0][1::2] for out in made)  # one shared atom each
    atoms = {a for out in made for a in out}
    assert len(atoms) == 5 * 1000
    assert len({a._bit for a in atoms}) == len(atoms)
    assert all(atoms_of(a._bit) == {a} for a in atoms)


def test_parse_atom_rejects_non_identifiers():
    for bad in ("", " x", "x y", "0", "x-", "x01", "x001", "x00"):
        with pytest.raises(ValueError):
            parse_atom(bad)


# Every identifier either is no atom's display form or is exactly one.
@given(st.from_regex(r"[A-Za-z][A-Za-z0-9]*", fullmatch=True))
def test_parse_atom_reads_only_display_forms(text):
    try:
        atom = parse_atom(text)
    except ValueError:
        return
    assert str(atom) == text


# The name grammar as two regular expressions: the slow reference that the
# str-method checks of Atom and parse_atom must agree with.
_BASE_RE = re.compile(r"[A-Za-z](?:[A-Za-z0-9]*[A-Za-z])?")
_NAME_RE = re.compile(rf"({_BASE_RE.pattern})(0|[1-9][0-9]*)?")


def _ref_atom(base):
    if not _BASE_RE.fullmatch(base):
        raise ValueError(base)
    return (base, None)


def _ref_parse_atom(text):
    m = _NAME_RE.fullmatch(text)
    if m is None:
        raise ValueError(text)
    base, index = m.groups()
    return (base, None if index is None else int(index))


def _outcome(f, arg):
    """What ``f(arg)`` gives as (base, index), or the type it raises."""
    try:
        got = f(arg)
    except Exception as err:
        return type(err)
    return got if type(got) is tuple else (got.base, got.index)


# Letters, digits, an underscore, a non-ASCII letter, a superscript digit,
# an Arabic-Indic digit and a space: 7 381 strings of length 0 to 4.
_ALPHABET = "aZ09_é²٣ "
_SHORT_STRINGS = [
    "".join(chars)
    for n in range(5)
    for chars in itertools.product(_ALPHABET, repeat=n)
]


def test_name_checks_agree_with_the_regular_expressions():
    assert len(_SHORT_STRINGS) == 7381
    for f, ref in ((Atom, _ref_atom), (parse_atom, _ref_parse_atom)):
        for text in [*_SHORT_STRINGS, 5, b"x", None, ["x"]]:
            assert _outcome(f, text) == _outcome(ref, text), (f.__name__, text)
