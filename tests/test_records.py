"""What the record classes promise: exact repr, field-wise == and hash
that respect the class, read-only fields, copies, and match patterns; and
what every public callable does with an argument of the wrong type; and
that the library reads records without ``match`` statements."""

import ast
import copy
import inspect
import pickle
from pathlib import Path

import pytest

import nes
from nes import (
    Atom,
    BVar,
    CApp,
    CLam,
    CSub,
    GenConfig,
    Lit,
    Meta,
    PropertyReport,
    Var,
    gen_term,
)
import nes.term
from nes.properties import _Prop
from nes.term import _Record

x, y = Atom("x"), Atom("y")

# (record, its repr, an equal record built separately)
RECORDS = [
    (BVar(0), "BVar(index=0)", BVar(0)),
    (CLam(BVar(0)), "CLam(body=BVar(index=0))", CLam(BVar(0))),
    (
        CApp(x, BVar(1)),
        "CApp(fun=Atom('x'), arg=BVar(index=1))",
        CApp(x, BVar(1)),
    ),
    (
        CSub(BVar(0), x),
        "CSub(body=BVar(index=0), arg=Atom('x'))",
        CSub(BVar(0), x),
    ),
    (Lit(Var(x)), "Lit(term=Var(atom=Atom('x')))", Lit(Var(x))),
    (
        Meta(Lit(Var(x)), y, Lit(Var(y))),
        "Meta(target=Lit(term=Var(atom=Atom('x'))), var=Atom('y'), "
        "arg=Lit(term=Var(atom=Atom('y'))))",
        Meta(Lit(Var(x)), y, Lit(Var(y))),
    ),
    (
        GenConfig(max_size=3, atom_pool=[x, y], seed=5, cases=7),
        "GenConfig(max_size=3, atom_pool=(Atom('x'), Atom('y')), seed=5, cases=7)",
        GenConfig(max_size=3, atom_pool=(x, y), seed=5, cases=7),
    ),
    (
        PropertyReport("law", 10, 1, 0, (("t", "x"),)),
        "PropertyReport(name='law', cases_run=10, failures=1, seed=0, "
        "counterexample=(('t', 'x'),))",
        PropertyReport(name="law", cases_run=10, failures=1, seed=0,
                       counterexample=(("t", "x"),)),
    ),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]
# field values that look like the text pieces of a repr
RECORDS += [
    (
        PropertyReport("law", 1, 1, 0, ("x)",)),
        "PropertyReport(name='law', cases_run=1, failures=1, seed=0, "
        "counterexample=('x)',))",
        PropertyReport("law", 1, 1, 0, ("x)",)),
    ),
    (
        PropertyReport("l)", 1, 1, 0, (("t", ")"),)),
        "PropertyReport(name='l)', cases_run=1, failures=1, seed=0, "
        "counterexample=(('t', ')'),))",
        PropertyReport("l)", 1, 1, 0, (("t", ")"),)),
    ),
]
IDS += ["PropertyReport-paren", "PropertyReport-pairs"]


@pytest.mark.parametrize("record, text, twin", RECORDS, ids=IDS)
def test_repr_eq_and_hash(record, text, twin):
    assert repr(record) == text
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != object() and record != text


@pytest.mark.parametrize("record, text, twin", RECORDS, ids=IDS)
def test_fields_are_read_only(record, text, twin):
    for field in record.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == twin


@pytest.mark.parametrize("record, text, twin", RECORDS, ids=IDS)
def test_copies_round_trip(record, text, twin):
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record)
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == text


def test_only_the_record_base_defines_eq_hash_and_repr():
    # every record family shares _Record's one walk for each of the three
    import nes.cli  # noqa: F401  (every module's records are defined)

    classes, stack = [], [_Record]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    assert {Var, CLam, Meta, GenConfig, PropertyReport, _Prop} <= set(classes)
    own = [
        (cls.__qualname__, name)
        for cls in classes[1:]
        for name in ("__eq__", "__hash__", "__repr__")
        if name in vars(cls)
    ]
    assert own == []


def test_a_record_equals_itself_without_a_walk(monkeypatch):
    def walk(s, t):
        raise AssertionError("== walked a record compared with itself")

    records = [r for r, _, _ in RECORDS] + [gen_term(GenConfig(), 5)]
    monkeypatch.setattr(nes.term, "_equal", walk)
    for record in records:
        assert record == record and not record != record


def test_equality_respects_the_class():
    a, b = x, BVar(0)
    assert CApp(a, b) != CSub(a, b) and CSub(a, b) != CApp(a, b)
    assert BVar(0) != x and x != BVar(0)
    assert CLam(x) != Lit(Var(x))
    assert BVar(0) != BVar(1) and CApp(a, b) != CApp(b, a)
    assert len({CApp(a, b), CSub(a, b), CApp(a, b)}) == 2
    report = PropertyReport("law", 10, 1, 0)
    assert report.counterexample is None
    assert report != PropertyReport("law", 10, 2, 0)


def _shape(c) -> str:
    match c:
        case BVar(0):
            return "innermost"
        case BVar(k):
            return f"bound {k}"
        case Atom() as a:
            return f"free {a}"
        case CLam(CApp(fun, BVar(0))):
            return f"eta-like over {_shape(fun)}"
        case CLam(body):
            return f"lambda of {_shape(body)}"
        case CApp(fun, arg):
            return f"{_shape(fun)} applied to {_shape(arg)}"
        case CSub(body, arg):
            return f"{_shape(body)} where {_shape(arg)}"
    return "other"


def test_match_patterns():
    assert _shape(CLam(CApp(x, BVar(0)))) == "eta-like over free x"
    assert _shape(CLam(BVar(2))) == "lambda of bound 2"
    assert _shape(CSub(BVar(0), CApp(y, BVar(1)))) == (
        "innermost where free y applied to bound 1"
    )
    assert _shape(Lit(Var(x))) == "other"
    match Meta(Lit(Var(x)), y, Lit(Var(y))):
        case Meta(Lit(Var(a)), v, Lit(Var(b))):
            assert (a, v, b) == (x, y, y)
        case _:
            pytest.fail("Meta pattern did not match")


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(max_size=0), "max_size must be at least 1"),
        (dict(atom_pool=[]), "atom_pool must be nonempty"),
        (dict(seed=1 << 64), "seed must fit in 64 unsigned bits"),
        (dict(cases=0), "cases must be at least 1"),
        (dict(max_size=2.5), "max_size must be an int, not float"),
        (dict(max_size=True), "max_size must be an int, not bool"),
        (dict(seed=1.5), "seed must be an int, not float"),
        (dict(cases=2.5), "cases must be an int, not float"),
        (dict(cases="10"), "cases must be an int, not str"),
        (dict(atom_pool=["x", "y"]), "atom_pool must hold atoms, not str"),
        (dict(atom_pool=[x, None]), "atom_pool must hold atoms, not NoneType"),
    ],
)
def test_genconfig_validation_messages(bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GenConfig(**bad)


def test_genconfig_memo_takes_no_part_in_eq_hash_or_repr():
    cfg, empty = GenConfig(max_size=6, seed=3), GenConfig(max_size=6, seed=3)
    for pos in range(20):
        gen_term(cfg, pos)
    assert len(cfg._terms) == 20 and empty._terms == {}
    assert cfg == empty and hash(cfg) == hash(empty)
    assert repr(cfg) == repr(empty) and "_terms" not in repr(cfg)
    assert cfg != GenConfig(max_size=6, seed=4)


def _lam_chain(n, leaf):
    c = leaf
    for _ in range(n):
        c = CLam(c)
    return c


def _sub_app_spine(n, leaf):
    c = x
    for _ in range(n):
        c = CSub(CApp(c, BVar(0)), y)
    return CApp(c, leaf)


def _meta_chain(n, leaf):
    c = leaf
    for _ in range(n):
        c = Meta(Lit(Var(x)), y, c)
    return c


def _lam_chain_text(n, leaf):
    return "CLam(body=" * n + repr(leaf) + ")" * n


def _sub_app_spine_text(n, leaf):
    return (
        "CApp(fun=" + "CSub(body=CApp(fun=" * n + "Atom('x')"
        + ", arg=BVar(index=0)), arg=Atom('y'))" * n + f", arg={leaf!r})"
    )


def _meta_chain_text(n, leaf):
    head = "Meta(target=Lit(term=Var(atom=Atom('x'))), var=Atom('y'), arg="
    return head * n + repr(leaf) + ")" * n


# each builder's leaf, a different leaf, and the repr it builds
SHAPES = {
    _lam_chain: (BVar(0), BVar(1), _lam_chain_text),
    _sub_app_spine: (BVar(0), BVar(1), _sub_app_spine_text),
    _meta_chain: (Lit(Var(x)), Lit(Var(y)), _meta_chain_text),
}
DEEP = 10**5


@pytest.mark.parametrize("build", list(SHAPES))
def test_nameless_equality_and_hash_are_stack_safe(build):
    leaf, other_leaf, text = SHAPES[build]
    s, t, other = build(DEEP, leaf), build(DEEP, leaf), build(DEEP, other_leaf)
    assert s is not t
    assert s == t and not (s != t)
    assert s != other and not (s == other)
    assert hash(s) == hash(t)
    assert repr(s) == text(DEEP, leaf)
    assert repr(other) == text(DEEP, other_leaf)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BVar("s"), "not an index: 's'"),
        (lambda: BVar(True), "not an index: True"),
        (lambda: BVar(-1), "negative index: -1"),
        (lambda: CLam(5), "not a canonical term: 5"),
        (lambda: CApp(None, BVar(0)), "not a canonical term: None"),
        (lambda: CSub(BVar(0), "s"), "not a canonical term: 's'"),
        (lambda: CApp(x, "x"), "not a canonical term: 'x'"),
        (lambda: CLam(Var(x)), "not a canonical term: Var"),
        (lambda: Meta(5, x, Lit(Var(x))), "not a meta expression: 5"),
        (lambda: Meta(Lit(Var(x)), x, Var(x)), "not a meta expression: Var"),
        (lambda: Meta(Lit(Var(x)), "x", Lit(Var(x))), "not an atom: 'x'"),
    ],
)
def test_nameless_records_and_meta_check_their_fields(make, message):
    with pytest.raises((TypeError, ValueError), match=f"^{message}"):
        make()


# What each public callable takes, one kind per parameter, and the wrong
# values of each kind: the walk below passes each of them, one position at
# a time, with right values (GOOD) everywhere else.
WRONG = {"None": None, "int": 5, "str": "s", "float": 1.5, "bool": True,
         "term": Var(x), "Lit": Lit(Var(x)), "BVar": BVar(0)}
GOOD = {
    "atom": x, "term": Var(x), "canonical": BVar(0), "meta": Lit(Var(x)),
    "text": "x", "law": "swap_id", "int": 2, "index": None, "avoid": 0,
    "pool": (x,), "config": GenConfig(max_size=2, cases=1),
}
# the values of WRONG that a kind accepts
RIGHT = {
    "term": {"term"}, "canonical": {"BVar"}, "meta": {"Lit"}, "text": {"str"},
    "int": {"int"}, "index": {"None", "int"}, "avoid": {"int"},
}
PARAMETERS = {
    "Atom": ("text", "index"), "fresh": ("avoid", "atom"), "parse_atom": ("text",),
    "Var": ("atom",), "Abs": ("atom", "term"), "App": ("term", "term"),
    "ESub": ("term", "atom", "term"), "size": ("term",), "fv_nom": ("term",),
    "all_atoms": ("term",), "vswap": ("atom", "atom", "atom"),
    "swap": ("atom", "atom", "term"), "render": ("term",), "BVar": ("int",),
    "CLam": ("canonical",), "CApp": ("canonical", "canonical"),
    "CSub": ("canonical", "canonical"), "aeq": ("term", "term"),
    "canonicalize": ("term",), "render_canonical": ("canonical",),
    "msubst": ("term", "term", "atom"), "Lit": ("term",),
    "Meta": ("meta", "atom", "meta"), "parse": ("text",), "eval_meta": ("meta",),
    "GenConfig": ("int", "pool", "int", "int"), "gen_term": ("config", "int"),
    "run_property": ("law", "config"), "enumerate_terms": ("int", "pool"),
}
# Not walked: the exception classes, which carry what a failure reports;
# PropertyReport, which only run_property builds; and the typing aliases,
# which only annotate.
NOT_WALKED = {"ParseError", "UnknownPropertyError", "PropertyReport",
              "Term", "CanonicalTerm", "MetaExpr"}


def test_the_walk_covers_every_public_callable():
    public = {name for name in nes.__all__ if callable(getattr(nes, name))}
    assert set(PARAMETERS) == public - NOT_WALKED
    for name, kinds in PARAMETERS.items():
        assert len(inspect.signature(getattr(nes, name)).parameters) == len(kinds)
        getattr(nes, name)(*(GOOD[kind] for kind in kinds))


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_a_wrong_argument_raises_type_or_value_error(name):
    call, kinds = getattr(nes, name), PARAMETERS[name]
    for i, kind in enumerate(kinds):
        for label, value in WRONG.items():
            if label in RIGHT.get(kind, ()):
                continue
            args = [GOOD[k] for k in kinds]
            args[i] = value
            try:
                got = call(*args)
            except (TypeError, ValueError):
                continue
            pytest.fail(f"{name} returned {got!r} for {value!r} at position {i}")


# A call with several wrong arguments names one of them; these pin which.
FIRST_NAMED = [
    (lambda: nes.Abs(5, None), "not an atom: 5"),
    (lambda: nes.ESub(None, 5, None), "not a term: None"),
    (lambda: nes.ESub(Var(x), 5, None), "not an atom: 5"),
    (lambda: nes.App(None, 5), "not a term: None"),
    (lambda: nes.msubst(None, None, 5), "not an atom: 5"),
    (lambda: nes.msubst(None, 5, x), "not a term: None"),
    (lambda: nes.swap(5, None, None), "not an atom: 5"),
    (lambda: nes.swap(x, None, None), "not an atom: None"),
    (lambda: nes.term.permute({x: 5}, None), "not an atom: 5"),
    (lambda: nes.fresh([None], 5), "not an atom: None"),
    (lambda: nes.term.free_in(None, None), "not a term: None"),
    (lambda: nes.term.free_in(5, Var(x)), "not an atom: 5"),
    (lambda: nes.vswap(None, 5, x), "not an atom: None"),
    (lambda: Meta(5, "x", 6), "not a meta expression: 5"),
    (lambda: Meta(Lit(Var(x)), "x", Lit(Var(x))), "not an atom: 'x'"),
    (lambda: nes.size(5), "not a term: 5"),
    (lambda: nes.render(5), "not a term: 5"),
    (lambda: nes.canonicalize(5), "not a term: 5"),
    (lambda: nes.canonicalize(Lit(Var(x))),
     "not a term: Lit(term=Var(atom=Atom('x')))"),
    (lambda: nes.render_canonical(5), "not a canonical term: 5"),
]


@pytest.mark.parametrize("make, message", FIRST_NAMED)
def test_a_call_with_several_wrong_arguments_names_the_same_one(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_fresh_rejects_a_negative_mask():
    # every atom's bit is set in a negative int, so no atom is outside it
    with pytest.raises(ValueError) as info:
        nes.fresh(-1, x)
    assert str(info.value) == "negative atom mask: -1"


# eval_meta checks its root; Meta checks every operand below it
@pytest.mark.parametrize("junk", [x, Var(x)])
def test_eval_meta_names_a_wrong_root(junk):
    with pytest.raises(TypeError) as info:
        nes.eval_meta(junk)
    assert str(info.value) == f"not a meta expression: {junk!r}"


def test_the_library_has_no_match_statement():
    """The walks dispatch on ``type(t)``, never through ``match``.  With
    class patterns, ``canonicalize`` took 1.6x as long on the 600 terms of
    a seed-0 catalogue cycle (9.1 against 5.8 ms, same constructors), and
    ``render``'s layout driver 1.7x as long on 4 000 random terms (57-61
    against 32-33 ms); Python 3.11, best of 21 and of 15 runs."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(nes.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Match)
    ]
    assert found == []
